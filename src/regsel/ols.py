"""Ordinary least squares on a DesignMatrix.

The solver is a rank-revealing QR factorization with column pivoting, never
an explicit normal-equations inverse: the data this toolkit targets is
ill-conditioned by construction.  Columns whose pivoted diagonal falls below
``RANK_TOL * |R[0, 0]|`` are flagged aliased and excluded from estimation;
their coefficients are NaN and they contribute zero to predictions.

Two AIC conventions coexist on purpose: ``aic_selection`` is the
constant-free form ``n*ln(RSS/n) + k*rank`` that drives greedy search, and
``aic_full`` is the full Gaussian-likelihood form used in reports.  For a
fixed n they differ by a constant, so both rank a model family identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg, special

from .table import DesignMatrix, model_formula

__all__ = [
    "FittedModel",
    "FitStatistics",
    "fit_ols",
    "predict",
    "fit_statistics",
    "refit_log_response",
    "adjusted_r_squared",
    "aic_full_value",
    "aic_selection_value",
    "coefficient_table",
    "format_summary",
]

RANK_TOL = 1e-10
RSS_FLOOR_FACTOR = 1e-12


@dataclass(frozen=True)
class FittedModel:
    """Immutable OLS fit.

    ``coef`` has one entry per design column with NaN at aliased positions;
    ``leverage`` is the hat-matrix diagonal and sums to ``rank``.  ``qr``
    is the pivoted factorization of ``design.X`` the fit was solved from;
    consumers that need Q or R read it instead of factoring X again.
    ``transform`` records the response scale ("identity" or "log").
    """

    design: DesignMatrix
    coef: np.ndarray
    aliased: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    rss: float
    rank: int
    leverage: np.ndarray
    qr: BlockQR
    transform: str = "identity"

    @property
    def n(self) -> int:
        return self.design.n_rows

    @property
    def p(self) -> int:
        return self.design.n_cols

    @property
    def sigma2(self) -> float:
        if self.n <= self.rank:
            raise ValueError("residual variance undefined: no residual degrees of freedom")
        return self.rss / (self.n - self.rank)


@dataclass(frozen=True)
class FitStatistics:
    r_squared: float
    adj_r_squared: float
    aic_full: float
    aic_selection: float
    sigma_hat: float


def _effective_coef(coef: np.ndarray, aliased: np.ndarray) -> np.ndarray:
    return np.where(aliased, 0.0, coef)


@dataclass(frozen=True)
class BlockQR:
    """Pivoted QR of a column block: ``X[:, pivot[:rank]] = q @ r``.

    ``q`` is n x rank with orthonormal columns and ``r`` is rank x rank upper
    triangular.  ``pivot`` lists every block column, the factored ones first;
    the trailing ``n_cols - rank`` are aliased or left out.  ``insert`` and
    ``delete`` update a full-rank factorization of a finite block.
    """

    q: np.ndarray
    r: np.ndarray
    pivot: np.ndarray
    rank: int

    @property
    def n_cols(self) -> int:
        return self.pivot.size

    def inverse_gram_rows(self) -> np.ndarray:
        """W (n_cols x rank) with W Wᵀ = (XᵀX)⁻¹ over the factored columns.

        Rows ``pivot[:rank]`` hold R⁻¹ un-pivoted and the other rows are
        zero, so for a set G of factored columns the block of
        (X_keptᵀX_kept)⁻¹ is ``W[G] @ W[G].T``, its diagonal is the row sums
        of W², and ``q @ W[j]`` is X_kept (X_keptᵀX_kept)⁻¹ e_j.
        """
        # column-major, as solve_triangular returns R⁻¹: row sums of W² add
        # up column by column
        w = np.zeros((self.n_cols, self.rank), order="F")
        w[self.pivot[:self.rank]] = linalg.solve_triangular(self.r, np.eye(self.rank))
        return w

    def solve(self, y: np.ndarray):
        """(coef, aliased): least squares on the factored columns, coefficient zero on the rest."""
        kept = self.pivot[:self.rank]
        coef = np.zeros(self.n_cols)
        coef[kept] = linalg.solve_triangular(self.r, self.q.T @ y)
        aliased = np.ones(self.n_cols, dtype=bool)
        aliased[kept] = False
        return coef, aliased

    def insert(self, X: np.ndarray, columns) -> BlockQR:
        """The factorization with ``X[:, columns]`` appended to the factored columns."""
        q, r = linalg.qr_insert(self.q, self.r, X[:, columns], self.rank, which="col", check_finite=False)
        rest = self.pivot[self.rank:]
        pivot = np.concatenate([self.pivot[:self.rank], columns, rest[~np.isin(rest, columns)]])
        return BlockQR(q, r, pivot, self.rank + len(columns))

    def delete(self, columns) -> BlockQR:
        """The factorization with block columns ``columns`` removed from the factored ones."""
        q, r, kept = self.q, self.r, self.pivot[:self.rank]
        leaving = np.isin(kept, columns)
        for k in np.flatnonzero(leaving)[::-1]:
            q, r = linalg.qr_delete(q, r, k, which="col", check_finite=False)
        pivot = np.concatenate([kept[~leaving], kept[leaving], self.pivot[self.rank:]])
        return BlockQR(q, r, pivot, self.rank - int(leaving.sum()))


def qr_block(X: np.ndarray) -> BlockQR:
    """Rank-revealing QR of a column block.

    Column k (in pivot order) is aliased when |R[k, k]| < RANK_TOL * |R[0, 0]|.
    """
    Q, R, piv = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0:
        raise ValueError("design matrix is identically zero")
    rank = int(np.sum(diag >= RANK_TOL * diag[0]))
    return BlockQR(q=Q[:, :rank], r=R[:rank, :rank], pivot=piv, rank=rank)


def residualize(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """a - QQᵀa, projected twice: its rounding error scales with the result, not with a."""
    e = a - q @ (q.T @ a)
    return e - q @ (q.T @ e)


def pivoted_effective_coef(X: np.ndarray, y: np.ndarray):
    """Rank-revealing least squares on raw arrays.

    Returns (coef, aliased) where aliased columns carry coefficient zero,
    mirroring :func:`fit_ols` without the model bookkeeping.  It is Monte
    Carlo CV's exact-refit fallback, taken only where a candidate's training
    Gram is near singular (counted in ``exact_refits``), and the function
    whose calls perfbench counts as ``ols.pivoted_refit_calls``.
    """
    return qr_block(X).solve(y)


def _fit(design: DesignMatrix, qr: BlockQR) -> FittedModel:
    """The least-squares fit of ``design`` through ``qr``, a factorization of ``design.X``."""
    coef, aliased = qr.solve(design.y)
    fitted = design.X @ coef
    residuals = design.y - fitted
    coef[aliased] = np.nan
    rss = float(residuals @ residuals)
    leverage = np.einsum("ij,ij->i", qr.q, qr.q)
    return FittedModel(design=design, coef=coef, aliased=aliased, fitted=fitted,
                       residuals=residuals, rss=rss, rank=qr.rank, leverage=leverage, qr=qr)


def fit_ols(design: DesignMatrix) -> FittedModel:
    """Fit least squares by pivoted QR.

    Parameters
    ----------
    design : DesignMatrix
        A column that the others span, an all-zero one included, is aliased:
        its coefficient is NaN and it contributes nothing to the fit.

    Returns
    -------
    FittedModel
        With fitted values computed as ``X @ coef`` (aliased coefficients
        contribute zero), so in-sample prediction reproduces them exactly.
    """
    return _fit(design, qr_block(design.X))


def _check_alignment(model: FittedModel, new_design: DesignMatrix) -> None:
    old, new = model.design.terms, new_design.terms
    old_sig = [(t.name, t.kind, t.levels, len(t.columns)) for t in old]
    new_sig = [(t.name, t.kind, t.levels, len(t.columns)) for t in new]
    if old_sig != new_sig:
        missing = {s[0] for s in old_sig} - {s[0] for s in new_sig}
        if missing:
            raise ValueError(f"new design is missing terms: {', '.join(sorted(missing))}")
        raise ValueError("new design terms do not align with the model's design")


def predict(model: FittedModel, new_design: DesignMatrix) -> np.ndarray:
    """Predict on a design with the same term structure.

    Returns values on the model's response scale (no back-transform); the
    aliased columns contribute zero, matching the reference-level fallback
    for factor levels unseen at fit time.
    """
    _check_alignment(model, new_design)
    return new_design.X @ _effective_coef(model.coef, model.aliased)


# ---------------------------------------------------------------------------
# Fit statistics
# ---------------------------------------------------------------------------


def adjusted_r_squared(r_squared: float, n: int, rank: int) -> float:
    """1 - (1 - R^2) * (n - 1) / (n - rank)."""
    if n - rank < 1:
        raise ValueError("adjusted R-squared undefined: n <= rank")
    return 1.0 - (1.0 - r_squared) * (n - 1) / (n - rank)


def aic_full_value(rss: float, n: int, rank: int) -> float:
    """Gaussian-likelihood AIC counting the variance parameter: n*ln(2*pi) + n*ln(RSS/n) + n + 2*(rank + 1)."""
    return n * math.log(2.0 * math.pi) + n * math.log(rss / n) + n + 2.0 * (rank + 1)


def aic_selection_value(rss: float, n: int, rank: int, k: float = 2.0) -> float:
    """Constant-free search AIC: n*ln(RSS/n) + k*rank."""
    return n * math.log(rss / n) + k * rank


def fit_statistics(model: FittedModel, k: float = 2.0) -> FitStatistics:
    """R-squared, adjusted R-squared, both AIC variants and sigma-hat.

    R-squared uses the total sum of squares about the mean (an intercept is
    always present here); an intercept-only model has R-squared identically
    zero.  A constant response (every value equal to the first, whose TSS
    can round above zero), a TSS of zero, or a near-perfect fit (RSS below
    1e-12 * TSS) leaves R-squared or the log-AIC undefined and raises; so
    does a fit without residual degrees of freedom, through ``sigma2``.
    """
    n, r = model.n, model.rank
    sigma_hat = math.sqrt(model.sigma2)
    y = model.design.y
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0 or (y == y[0]).all():
        raise ValueError("fit statistics undefined: the response is constant")
    if model.rss <= RSS_FLOOR_FACTOR * tss:
        raise ValueError("AIC undefined: residual sum of squares is (numerically) zero")
    r_squared = 0.0 if not model.design.terms else 1.0 - model.rss / tss
    return FitStatistics(
        r_squared=r_squared,
        adj_r_squared=adjusted_r_squared(r_squared, n, r),
        aic_full=aic_full_value(model.rss, n, r),
        aic_selection=aic_selection_value(model.rss, n, r, k),
        sigma_hat=sigma_hat,
    )


def refit_log_response(model: FittedModel) -> FittedModel:
    """Refit the identical design against ln(y); requires a strictly positive response.

    X is unchanged, so the refit is solved from ``model.qr`` without
    factoring X again.
    """
    y = model.design.y
    bad = np.flatnonzero(y <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"log transform requires positive response values; row {i + 1} "
            f"(id {model.design.row_ids[i]}) has y = {y[i]}")
    return replace(_fit(replace(model.design, y=np.log(y)), model.qr), transform="log")


# ---------------------------------------------------------------------------
# Coefficient table / model dump
# ---------------------------------------------------------------------------


def coefficient_table(model: FittedModel):
    """Rows of (name, estimate, std_error, t_value, p_value); NaNs mark aliased columns."""
    n, r = model.n, model.rank
    w = model.qr.inverse_gram_rows()
    se = math.sqrt(model.sigma2) * np.sqrt(np.einsum("ij,ij->i", w, w))
    rows = []
    for j, name in enumerate(model.design.column_names):
        est = model.coef[j]
        if model.aliased[j]:
            rows.append((name, math.nan, math.nan, math.nan, math.nan))
            continue
        t = est / se[j]
        p = 2.0 * float(special.stdtr(n - r, -abs(t)))
        rows.append((name, float(est), float(se[j]), float(t), p))
    return rows


def _stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    if p < 0.1:
        return "."
    return ""


def format_summary(model: FittedModel, k: float = 2.0) -> str:
    """Plain-text model report: formula, coefficient table, error and R-squared lines."""
    rows = coefficient_table(model)
    stat = fit_statistics(model, k=k)
    n, r = model.n, model.rank
    response = model.design.response_name
    if model.transform == "log":
        response = f"log({response})"
    name_w = max(len(r_[0]) for r_ in rows)
    lines = [f"Formula: {model_formula(model.design.term_names, response)}", "", "Coefficients:"]
    header = f"{'':{name_w}}  {'Estimate':>12}  {'Std. Error':>12}  {'t value':>8}  {'Pr(>|t|)':>10}"
    lines.append(header)
    for name, est, se, t, p in rows:
        if math.isnan(est):
            lines.append(f"{name:{name_w}}  {'NA':>12}  {'NA':>12}  {'NA':>8}  {'NA':>10}  (aliased)")
        else:
            lines.append(
                f"{name:{name_w}}  {est:>12.4f}  {se:>12.4f}  {t:>8.3f}  {_format_p(p):>10} {_stars(p)}")
    lines.append("")
    lines.append(f"Residual standard error: {stat.sigma_hat:.4g} on {n - r} degrees of freedom")
    lines.append(
        f"Multiple R-squared: {stat.r_squared:.4f}, Adjusted R-squared: {stat.adj_r_squared:.4f}")
    if r > 1:
        y = model.design.y
        tss = float(np.sum((y - y.mean()) ** 2))
        f_val = ((tss - model.rss) / (r - 1)) / model.sigma2
        # fdtrc is NaN below zero, where the F survival function is 1; a fit
        # that explains nothing can round tss - rss just below zero.
        f_p = float(special.fdtrc(r - 1, n - r, max(f_val, 0.0)))
        lines.append(
            f"F-statistic: {f_val:.4g} on {r - 1} and {n - r} DF, p-value: {_format_p(f_p)}")
    lines.append(f"AIC: {stat.aic_full:.4f} (search form with k={k:g}: {stat.aic_selection:.4f})")
    return "\n".join(lines) + "\n"


def _format_p(p: float) -> str:
    if p < 2.2e-16:
        return "< 2.2e-16"
    return f"{p:.6g}"
