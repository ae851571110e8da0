"""Influence and collinearity diagnostics for fitted OLS models.

Everything here reads a pivoted QR; nothing refits.  The deletion
diagnostics are closed-form functions of the stored fit (residuals,
leverage, RSS, rank): PRESS residuals equal the leave-one-out prediction
errors, Cook's distance and DFFITS match their delete-one definitions, and
the studentized residuals come in internal and external flavours.
:func:`influence_flags` reports only what the bundle writes: leverage,
Cook's distance and their flags.

The rest reads the rows W of ``BlockQR.inverse_gram_rows()``, with
W Wᵀ = (XᵀX)⁻¹ on the non-aliased columns.  Added-variable residuals come
from the fit's own QR: x_partial = Q w_j / ‖w_j‖² and y_partial =
e + β_j x_partial.  VIFs come from one QR of the centered, unit-scaled
block of numeric predictors, as the row sums of W².  A column's VIF is
infinite (flagged, not raised) when it is aliased, lies in the support of
an aliased column's dependency, has zero variance, or is at least
``VIF_COLLINEAR``.  :func:`vif_prune` removes the single worst column per
pass, the earliest on ties, until every survivor is at or below the
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ols import RANK_TOL, FittedModel, qr_block
from .table import DesignMatrix

__all__ = [
    "press_residuals",
    "cooks_distance",
    "dffits",
    "studentized",
    "VifReport",
    "vif",
    "vif_prune",
    "InfluenceReport",
    "influence_flags",
    "AddedVariable",
    "added_variable_data",
    "interpolated_quantile",
]

_LEVERAGE_EPS = 1e-12
# A VIF at or above this is numerical collinearity and reported as infinite:
# it means a condition index of at least 1e4 on the unit-scaled block
# (Belsley, Kuh & Welsch 1980), where rounding, not the data, orders VIFs.
VIF_COLLINEAR = 1e8


def _check_leverage_below_one(model: FittedModel) -> np.ndarray:
    h = model.leverage
    bad = np.flatnonzero(1.0 - h <= _LEVERAGE_EPS)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"row {i + 1} (id {model.design.row_ids[i]}) has leverage 1: "
            "the point is fit exactly and its deletion diagnostics are undefined")
    return h


def press_residuals(model: FittedModel) -> np.ndarray:
    """Leave-one-out prediction errors e_i / (1 - h_i)."""
    h = _check_leverage_below_one(model)
    return model.residuals / (1.0 - h)


def cooks_distance(model: FittedModel) -> np.ndarray:
    """Cook's distance D_i = e_i^2 h_i / (rank * sigma2 * (1 - h_i)^2)."""
    sigma2 = model.sigma2       # first: a fit with no residual df says so, not that a leverage is 1
    h = _check_leverage_below_one(model)
    e = model.residuals
    return (e ** 2) * h / (model.rank * sigma2 * (1.0 - h) ** 2)


def studentized(model: FittedModel, kind: str = "internal") -> np.ndarray:
    """Studentized residuals.

    ``internal`` scales by the full-sample sigma-hat; ``external`` scales by
    the delete-one estimate s_(i) and needs one more residual degree of
    freedom.
    """
    h = _check_leverage_below_one(model)
    e = model.residuals
    n, r = model.n, model.rank
    if kind == "internal":
        return e / np.sqrt(model.sigma2 * (1.0 - h))
    if kind == "external":
        if n <= r + 1:
            raise ValueError("external studentized residuals require n > rank + 1")
        s2 = np.maximum((model.rss - e ** 2 / (1.0 - h)) / (n - r - 1), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = e / np.sqrt(s2 * (1.0 - h))
        return np.where(e == 0.0, 0.0, t)
    raise ValueError(f"kind must be 'internal' or 'external', got {kind!r}")


def dffits(model: FittedModel) -> np.ndarray:
    """DFFITS_i = t_i * sqrt(h_i / (1 - h_i)) with t_i externally studentized."""
    h = model.leverage
    return studentized(model, "external") * np.sqrt(h / (1.0 - h))


# ---------------------------------------------------------------------------
# Variance inflation factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VifReport:
    """Per-variable VIFs plus the ordered elimination trail of a prune run.

    ``values`` maps surviving variable names to their VIF (math.inf for a
    collinear column, also listed in ``infinite``); ``trail`` holds
    (name, vif-at-removal) pairs in removal order.
    """

    values: dict
    infinite: tuple = ()
    trail: tuple = ()


def _block_vifs(block: np.ndarray) -> np.ndarray:
    """VIF of every column of `block` given the others and an intercept.

    One QR of the block centered and unit-scaled, Z: the VIFs are the
    diagonal of (ZᵀZ)⁻¹, the row sums of W² from ``inverse_gram_rows``.  On
    a rank-deficient block an aliased column is Z_kept c up to a residual
    below ``RANK_TOL``, so a kept column j with VIF v_j among the kept
    columns has a VIF of at least v_j + c_j² / RANK_TOL² on the whole
    block; a column with c = 0 keeps v_j.  Zero-variance columns, and VIFs at or
    above ``VIF_COLLINEAR``, come back infinite.  Two columns with variance
    both get the earlier one's VIF, so a prune between them removes the
    earlier, as the tie rule says.
    """
    vifs = np.full(block.shape[1], math.inf)
    live = np.flatnonzero(block.max(axis=0) > block.min(axis=0))
    if live.size == 0:
        return vifs
    centered = block[:, live] - block[:, live].mean(axis=0)
    z = centered / np.sqrt(np.einsum("ij,ij->j", centered, centered))
    qr = qr_block(z)
    w = qr.inverse_gram_rows()
    v = np.einsum("ij,ij->i", w, w)
    if live.size == 2:
        v[1] = v[0]         # two columns share one VIF, 1/(1 - r²); rounding must not split it
    bound = v
    aliased = qr.pivot[qr.rank:]
    if aliased.size:
        c = w @ (qr.q.T @ z[:, aliased])          # aliased columns in the kept basis
        bound = v + (c ** 2).max(axis=1) / RANK_TOL ** 2
        bound[aliased] = math.inf
    vifs[live] = np.where(bound >= VIF_COLLINEAR, math.inf, v)
    return vifs


def _numeric_columns(design: DesignMatrix, names) -> np.ndarray:
    return design.X[:, [design.term(name).columns[0] for name in names]]


def _report(names, vifs: np.ndarray, **kwargs) -> VifReport:
    values = dict(zip(names, vifs.tolist()))
    infinite = tuple(name for name, v in values.items() if math.isinf(v))
    return VifReport(values=values, infinite=infinite, **kwargs)


def vif(design: DesignMatrix) -> VifReport:
    """Variance inflation factors of the design's numeric terms.

    Each numeric term is scored against the other numeric terms and the
    intercept; factor blocks are left out, as in the prune loop that passes
    them through.  Infinite VIFs are flagged, not raised.
    """
    names = [t.name for t in design.terms if t.kind == "numeric"]
    if not names:
        raise ValueError("no columns to score: the design has no numeric terms")
    return _report(names, _block_vifs(_numeric_columns(design, names)))


def vif_prune(design: DesignMatrix, vstar: float = 10.0):
    """Iteratively drop the single worst numeric variable until max VIF <= vstar.

    Each pass recomputes VIFs over the surviving numeric predictors (factor
    terms pass through untouched) and removes the maximum-VIF variable,
    breaking ties toward the earliest column.  Returns the pruned design and
    a VifReport with the elimination trail.
    """
    if not vstar > 1.0:
        raise ValueError(f"vstar must exceed 1, got {vstar}")
    survivors = [t.name for t in design.terms if t.kind == "numeric"]
    if not survivors:
        raise ValueError("design has no numeric predictors to prune")
    trail = []
    while True:
        vifs = _block_vifs(_numeric_columns(design, survivors))
        worst = int(np.argmax(vifs))               # the first maximum: earliest column wins ties
        if vifs[worst] <= vstar:
            break
        trail.append((survivors.pop(worst), float(vifs[worst])))
        if not survivors:
            raise ValueError(
                f"VIF pruning at vstar={vstar} would remove every numeric predictor")
    kept = [t.name for t in design.terms if t.kind == "factor" or t.name in survivors]
    return design.subset_terms(kept), _report(survivors, vifs, trail=tuple(trail))


# ---------------------------------------------------------------------------
# Influence report
# ---------------------------------------------------------------------------


def interpolated_quantile(values, p: float) -> float:
    """Empirical quantile with linear interpolation (h = (n - 1) p + 1 rule)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n == 0:
        raise ValueError("quantile of an empty vector")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    h = (n - 1) * p
    lo = int(math.floor(h))
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return float(v[lo] + frac * (v[hi] - v[lo]))


@dataclass(frozen=True)
class InfluenceReport:
    """Per-row influence measures with the two flag rules used for plotting:
    leverage above twice its mean, and membership in the top-m Cook's
    distances (ties at the quantile threshold are all included, so the
    flagged set may exceed m)."""

    leverage: np.ndarray
    mean_leverage: float
    high_leverage: np.ndarray
    cooks_d: np.ndarray
    cook_threshold: float
    top_influence: np.ndarray


def influence_flags(model: FittedModel, top_m: int) -> InfluenceReport:
    """Leverage and Cook's distance, flagging high-leverage and top-m influential rows."""
    n = model.n
    if not 1 <= top_m <= n:
        raise ValueError(f"top_m must be in [1, {n}], got {top_m}")
    h = model.leverage
    hbar = float(h.mean())
    cooks = cooks_distance(model)
    threshold = interpolated_quantile(cooks, (n - top_m) / n)
    # ties at the threshold are all included; tolerate last-ulp float noise
    top = (cooks >= threshold) | np.isclose(cooks, threshold, rtol=1e-12, atol=0.0)
    return InfluenceReport(
        leverage=h,
        mean_leverage=hbar,
        high_leverage=h > 2.0 * hbar,
        cooks_d=cooks,
        cook_threshold=threshold,
        top_influence=top,
    )


# ---------------------------------------------------------------------------
# Added-variable (partial regression) data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AddedVariable:
    term: str
    x_partial: np.ndarray
    y_partial: np.ndarray
    slope: float


def added_variable_data(model: FittedModel, term: str) -> AddedVariable:
    """Partial-regression data for a single-column term.

    ``x_partial`` and ``y_partial`` are the residuals of the term column and
    the response after regressing out every other estimated (non-aliased)
    design column; the no-intercept slope of y_partial on x_partial equals
    the full-model coefficient for the term.  Both come from the fit's QR:
    with w_j row j of ``inverse_gram_rows()``, x_partial = Q w_j / ‖w_j‖²
    and y_partial = e + β_j x_partial.  An aliased term has no coefficient
    and raises.
    """
    t = model.design.term(term)
    if len(t.columns) != 1:
        raise ValueError(
            f"term '{term}' spans {len(t.columns)} columns; added-variable data "
            "is defined for single-column terms only")
    j = t.columns[0]
    if model.aliased[j]:
        raise ValueError(f"term '{term}' is aliased in the model; it has no added-variable data")
    w = model.qr.inverse_gram_rows()[j]
    x_partial = model.qr.q @ (w / (w @ w))
    y_partial = model.residuals + model.coef[j] * x_partial
    slope = float(x_partial @ y_partial) / float(x_partial @ x_partial)
    return AddedVariable(term=term, x_partial=x_partial, y_partial=y_partial, slope=slope)
