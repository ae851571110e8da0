"""Influence and collinearity diagnostics for fitted OLS models.

Everything here is a closed-form function of the stored fit (residuals,
leverage, RSS, rank): PRESS residuals equal the leave-one-out prediction
errors, Cook's distance and DFFITS match their delete-one definitions, and
the studentized residuals come in internal and external flavours.

VIF values are computed per numeric predictor by regressing it on the other
predictors; :func:`vif_prune` repeats the removal of the single worst
offender until every survivor is at or below the threshold.  Exactly
collinear columns report an infinite VIF (flagged, not raised) so the prune
loop can dispose of them first.

A prune pass that is certain to remove a variable is scored from one QR of
the centered, unit-scaled surviving block: VIF_j = [(XᵀX)⁻¹]_jj there, which
is ‖x_j − x̄_j‖²·[(RᵀR)⁻¹]_jj on the raw scale.  Only the variables scored
within ``VIF_MARGIN`` (relative) of the worst get the exact auxiliary
regression, which picks the one removed and the value in the trail.  A pass
whose scored worst is within ``VIF_MARGIN`` of the threshold, or whose block
is near-singular, runs exactly, so the final pass is always exact and the
reported values and trail are those of an all-exact loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ols import FittedModel, qr_block
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
# Relative margin within which scored VIFs are recomputed exactly.
VIF_MARGIN = 1e-6
# A surviving block is near-singular, and its pass runs exactly, when a
# diagonal of the unit-scaled block's pivoted QR falls below this.
VIF_SINGULAR_GUARD = 1e-4


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
    if model.n <= model.rank:
        raise ValueError("Cook's distance undefined: no residual degrees of freedom")
    h = _check_leverage_below_one(model)
    e = model.residuals
    return (e ** 2) * h / (model.rank * model.sigma2 * (1.0 - h) ** 2)


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
        if n <= r:
            raise ValueError("internal studentized residuals require n > rank")
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
    if model.n - model.rank - 1 < 1:
        raise ValueError("DFFITS undefined: need n - rank - 1 >= 1")
    h = model.leverage
    return studentized(model, "external") * np.sqrt(h / (1.0 - h))


# ---------------------------------------------------------------------------
# Variance inflation factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VifReport:
    """Per-variable VIFs plus the ordered elimination trail of a prune run.

    ``values`` maps surviving variable names to their VIF (math.inf for an
    exactly collinear column, also listed in ``infinite``); ``trail`` holds
    (name, vif-at-removal) pairs in removal order.
    """

    values: dict
    infinite: tuple = ()
    trail: tuple = ()
    threshold: float | None = None


def _vif_one(x: np.ndarray, others: np.ndarray) -> float:
    """VIF of x given regressor matrix `others` (must include the intercept)."""
    coef, _, _, _ = np.linalg.lstsq(others, x, rcond=None)
    resid = x - others @ coef
    rss = float(resid @ resid)
    tss = float(np.sum((x - x.mean()) ** 2))
    if tss <= 0.0 or rss <= 1e-12 * tss:
        return math.inf
    return tss / rss           # 1 / (1 - R_j^2)


def _vif_values(X: np.ndarray, target_cols, regressor_cols) -> dict:
    values = {}
    regressors = list(regressor_cols)
    for name, j in target_cols:
        others = [0] + [c for c in regressors if c != j]
        values[name] = _vif_one(X[:, j], X[:, others])
    return values


def vif(design: DesignMatrix, numeric_only: bool = True) -> VifReport:
    """Variance inflation factors for the design's predictor columns.

    With ``numeric_only`` (the default) only numeric terms are scored and
    only numeric columns serve as regressors, matching a prune loop that
    leaves factor blocks untouched.  Otherwise every non-intercept column is
    scored against all the others.  Infinite VIFs are flagged, not raised.
    """
    if design.n_cols - 1 < 2:
        raise ValueError("VIF requires at least two non-intercept design columns")
    if numeric_only:
        targets = [(t.name, t.columns[0]) for t in design.terms if t.kind == "numeric"]
        regressors = [c for _, c in targets]
    else:
        targets = [(design.column_names[c], c) for t in design.terms for c in t.columns]
        regressors = [c for _, c in targets]
    if not targets:
        raise ValueError("no columns to score: the design has no numeric terms")
    values = _vif_values(design.X, targets, regressors)
    infinite = tuple(name for name, v in values.items() if math.isinf(v))
    return VifReport(values=values, infinite=infinite)


def _scored_vifs(block: np.ndarray):
    """VIFs of every column of `block` from one QR of it centered and
    unit-scaled; None when the block is near-singular."""
    centered = block - block.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", centered, centered))
    if norms.min() == 0.0:
        return None
    qr = qr_block(centered / norms)
    if qr.rank < qr.n_cols or np.abs(np.diag(qr.r)).min() < VIF_SINGULAR_GUARD:
        return None
    w = qr.inverse_gram_rows()
    return np.einsum("ij,ij->i", w, w)


def vif_prune(design: DesignMatrix, vstar: float = 10.0):
    """Iteratively drop the single worst numeric variable until max VIF <= vstar.

    Each pass recomputes VIFs over the surviving numeric predictors (factor
    terms pass through untouched) and removes the maximum-VIF variable,
    breaking ties toward the earliest column.  Returns the pruned design and
    a VifReport with the elimination trail.
    """
    if vstar <= 1.0:
        raise ValueError(f"vstar must exceed 1, got {vstar}")
    numeric = [t.name for t in design.terms if t.kind == "numeric"]
    if not numeric:
        raise ValueError("design has no numeric predictors to prune")
    survivors = list(numeric)
    trail = []
    while True:
        targets = [(name, design.term(name).columns[0]) for name in survivors]
        regressors = [c for _, c in targets]
        scored = _scored_vifs(design.X[:, regressors]) if len(regressors) > 1 else None
        if scored is not None and scored.max() > vstar * (1.0 + VIF_MARGIN):
            # a removal is certain: only the near-worst need exact values
            near = scored >= scored.max() * (1.0 - VIF_MARGIN)
            targets = [t for t, hit in zip(targets, near) if hit]
        values = _vif_values(design.X, targets, regressors)
        worst_name, worst = None, -math.inf
        for name, _ in targets:                    # earliest column wins ties
            if values[name] > worst:
                worst_name, worst = name, values[name]
        if worst <= vstar:
            break
        trail.append((worst_name, worst))
        survivors.remove(worst_name)
        if not survivors:
            raise ValueError(
                f"VIF pruning at vstar={vstar} would remove every numeric predictor")
    kept = [t.name for t in design.terms if t.kind == "factor" or t.name in survivors]
    pruned = design.subset_terms(kept)
    report = VifReport(values=values, infinite=tuple(n for n, v in values.items() if math.isinf(v)),
                       trail=tuple(trail), threshold=vstar)
    return pruned, report


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
    press: np.ndarray
    dffits: np.ndarray
    studentized_internal: np.ndarray
    studentized_external: np.ndarray


def influence_flags(model: FittedModel, top_m: int) -> InfluenceReport:
    """Compute the full influence report, flagging high-leverage and top-m influential rows.

    DFFITS and external studentized residuals need one residual degree of
    freedom more than the rest; when that is missing they come back as NaN
    vectors rather than failing the whole report.
    """
    n = model.n
    if not 1 <= top_m <= n:
        raise ValueError(f"top_m must be in [1, {n}], got {top_m}")
    h = model.leverage
    hbar = float(h.mean())
    cooks = cooks_distance(model)
    threshold = interpolated_quantile(cooks, (n - top_m) / n)
    # ties at the threshold are all included; tolerate last-ulp float noise
    top = (cooks >= threshold) | np.isclose(cooks, threshold, rtol=1e-12, atol=0.0)
    if n - model.rank - 1 >= 1:
        dff = dffits(model)
        external = studentized(model, "external")
    else:
        dff = np.full(n, math.nan)
        external = np.full(n, math.nan)
    return InfluenceReport(
        leverage=h,
        mean_leverage=hbar,
        high_leverage=h > 2.0 * hbar,
        cooks_d=cooks,
        cook_threshold=threshold,
        top_influence=top,
        press=press_residuals(model),
        dffits=dff,
        studentized_internal=studentized(model, "internal"),
        studentized_external=external,
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
    the full-model coefficient for the term.  An aliased term has no
    coefficient and raises.
    """
    t = model.design.term(term)
    if len(t.columns) != 1:
        raise ValueError(
            f"term '{term}' spans {len(t.columns)} columns; added-variable data "
            "is defined for single-column terms only")
    j = t.columns[0]
    if model.aliased[j]:
        raise ValueError(f"term '{term}' is aliased in the model; it has no added-variable data")
    X, y = model.design.X, model.design.y
    others = [c for c in range(X.shape[1]) if c != j and not model.aliased[c]]
    Z = X[:, others]
    coef_x, _, _, _ = np.linalg.lstsq(Z, X[:, j], rcond=None)
    coef_y, _, _, _ = np.linalg.lstsq(Z, y, rcond=None)
    x_partial = X[:, j] - Z @ coef_x
    y_partial = y - Z @ coef_y
    slope = float(x_partial @ y_partial) / float(x_partial @ x_partial)
    return AddedVariable(term=term, x_partial=x_partial, y_partial=y_partial, slope=slope)
