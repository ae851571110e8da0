"""Independent oracles for the test suite.

Each oracle recomputes a quantity by its definition (literal delete-one
refits, explicit auxiliary regressions, exhaustive enumeration) so the
closed-form production implementations are checked against a separate
route, not against themselves.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from regsel import DesignMatrix, fit_ols, fit_statistics, predict, replication_split
from regsel.influence import VIF_COLLINEAR
from regsel.ols import aic_selection_value


def loo_predictions(design: DesignMatrix) -> np.ndarray:
    """Delete-one refit prediction for each row, at that row."""
    n = design.n_rows
    out = np.empty(n)
    for i in range(n):
        fit = fit_ols(design.drop_rows([i]))
        out[i] = predict(fit, design.take_rows([i]))[0]
    return out


def loo_cooks(design: DesignMatrix) -> np.ndarray:
    """Cook's distance by definition: ||yhat - yhat_(i)||^2 / (rank * sigma2)."""
    full = fit_ols(design)
    n = design.n_rows
    out = np.empty(n)
    for i in range(n):
        fit_i = fit_ols(design.drop_rows([i]))
        yhat_i = predict(fit_i, design)
        out[i] = float(np.sum((full.fitted - yhat_i) ** 2)) / (full.rank * full.sigma2)
    return out


def loo_dffits(design: DesignMatrix) -> np.ndarray:
    """DFFITS by definition: (yhat_i - yhat_(i),i) / (s_(i) * sqrt(h_i))."""
    full = fit_ols(design)
    n = design.n_rows
    out = np.empty(n)
    for i in range(n):
        fit_i = fit_ols(design.drop_rows([i]))
        yhat_i_at_i = predict(fit_i, design.take_rows([i]))[0]
        s_i = math.sqrt(fit_i.rss / (fit_i.n - fit_i.rank))
        out[i] = (full.fitted[i] - yhat_i_at_i) / (s_i * math.sqrt(full.leverage[i]))
    return out


def aux_regression_vif(design: DesignMatrix) -> dict:
    """VIF via a literal auxiliary regression of each numeric term on the others.

    An R² at or above 1 - 1/VIF_COLLINEAR counts as collinear and gives an
    infinite VIF, the same rule :func:`regsel.vif` applies.  The columns are
    centered first, which leaves R² unchanged (the regression has an
    intercept) and keeps a column whose mean dwarfs its spread accurate.
    """
    targets = [(t.name, t.columns[0]) for t in design.terms if t.kind == "numeric"]
    regressors = [c for _, c in targets]
    centered = design.X - design.X.mean(axis=0)
    values = {}
    for name, j in targets:
        x = centered[:, j]
        others = [c for c in regressors if c != j]
        aux = DesignMatrix.from_arrays(centered[:, others], x,
                                       names=[f"z{k}" for k in range(len(others))])
        fit = fit_ols(aux)
        r2 = 1.0 - fit.rss / float(x @ x)
        values[name] = math.inf if r2 >= 1.0 - 1.0 / VIF_COLLINEAR else 1.0 / (1.0 - r2)
    return values


def prune_by_auxiliary_regression(design: DesignMatrix, vstar: float):
    """VIF pruning with every pass recomputed by :func:`aux_regression_vif`.

    Returns (trail, final values); the earliest variable wins VIF ties.  Two
    survivors always tie (both VIFs are 1/(1 - r²)), so of two the earlier goes.
    """
    survivors = [t.name for t in design.terms if t.kind == "numeric"]
    trail = []
    while True:
        values = aux_regression_vif(design.subset_terms(survivors))
        worst = survivors[0] if len(survivors) == 2 else max(survivors, key=values.get)
        if values[worst] <= vstar:
            return trail, values
        trail.append((worst, values[worst]))
        survivors.remove(worst)


def added_variable_by_regression(model, term: str):
    """(x_partial, y_partial, slope) by regressing the term's column and the
    response on every other non-aliased design column with lstsq."""
    X, y = model.design.X, model.design.y
    j = model.design.term(term).columns[0]
    others = [c for c in range(X.shape[1]) if c != j and not model.aliased[c]]
    Z = X[:, others]
    x_partial = X[:, j] - Z @ np.linalg.lstsq(Z, X[:, j], rcond=None)[0]
    y_partial = y - Z @ np.linalg.lstsq(Z, y, rcond=None)[0]
    return x_partial, y_partial, float(x_partial @ y_partial) / float(x_partial @ x_partial)


def candidate_moves(design: DesignMatrix, current: set, lower: set, upper: set, mode: str):
    """All legal single-term moves from `current`, in design term order."""
    moves = []
    for term in design.term_names:
        if term in current:
            if mode in ("backward", "both") and term not in lower:
                moves.append(("remove", term, current - {term}))
        elif mode in ("forward", "both") and term in upper:
            moves.append(("add", term, current | {term}))
    return moves


def refit_step_search(design: DesignMatrix, mode: str, lower=(), upper=None, start=None,
                      k: float = 2.0, tol: float = 1e-9):
    """Greedy search that refits every candidate move, literally.

    Returns (moves, final_terms, skipped) shaped like a SelectionTrace:
    moves are (direction, term, aic_before, aic_after); a candidate whose
    fit or AIC fails is logged as ``"<direction> <term>: <error>"``.
    """
    upper = set(design.term_names if upper is None else upper)
    lower = set(lower)
    if start is None:
        start = lower if mode == "forward" else upper
    current = set(start)

    def aic_of(terms):
        return fit_statistics(fit_ols(design.subset_terms(terms)), k=k).aic_selection

    current_aic = aic_of(current)
    moves, skipped = [], []
    while True:
        best = None
        for direction, term, cand in candidate_moves(design, current, lower, upper, mode):
            try:
                aic = aic_of(cand)
            except (ValueError, np.linalg.LinAlgError) as exc:
                skipped.append(f"{direction} {term}: {exc}")
                continue
            if best is None or aic < best[0]:
                best = (aic, direction, term, cand)
        if best is None or best[0] >= current_aic - tol:
            break
        aic, direction, term, current = best
        moves.append((direction, term, current_aic, aic))
        current_aic = aic
    order = {name: i for i, name in enumerate(design.term_names)}
    return moves, tuple(sorted(current, key=order.get)), skipped


def exhaustive_step_check(design: DesignMatrix, trace, lower=(), upper=None, k=2.0,
                          tol=1e-9) -> None:
    """Replay a SelectionTrace, asserting every applied move is the argmin-AIC
    candidate and the terminal model admits no improving move."""
    upper = set(design.term_names if upper is None else upper)
    lower = set(lower)
    current = set(trace.start)

    def aic_of(terms):
        model = fit_ols(design.subset_terms(terms))
        return aic_selection_value(model.rss, model.n, model.rank, k)

    current_aic = aic_of(current)
    assert math.isclose(current_aic, trace.aic_start, rel_tol=0, abs_tol=1e-9)
    for mv in trace.moves:
        best_aic = math.inf
        options = candidate_moves(design, current, lower, upper, trace.mode)
        assert options, "trace applied a move where the oracle finds none"
        for _, _, cand in options:
            best_aic = min(best_aic, aic_of(cand))
        assert abs(best_aic - mv.aic_after) <= 1e-9, \
            f"applied move to AIC {mv.aic_after}, oracle best is {best_aic}"
        assert mv.aic_after < mv.aic_before - tol
        current = current - {mv.term} if mv.direction == "remove" else current | {mv.term}
        current_aic = mv.aic_after
    for _, _, cand in candidate_moves(design, current, lower, upper, trace.mode):
        assert aic_of(cand) >= current_aic - tol, "terminal model admits an improving move"


def best_subset_aic(design: DesignMatrix, k: float = 2.0) -> float:
    """Exhaustive minimum selection-AIC over all term subsets."""
    names = design.term_names
    best = math.inf
    for r in range(len(names) + 1):
        for subset in itertools.combinations(names, r):
            model = fit_ols(design.subset_terms(subset))
            best = min(best, aic_selection_value(model.rss, model.n, model.rank, k))
    return best


def refit_cv_mspe(design: DesignMatrix, config) -> np.ndarray:
    """Monte Carlo CV by literal refits: replications x models MSPE.

    Each replication refits every candidate on its training rows with
    ``numpy.linalg.lstsq``.  Its minimum-norm solution gives an all-zero
    training column (a factor level unseen in training) a zero coefficient,
    which is the reference-level prediction.
    """
    n = design.n_rows
    n_train = round(config.train_fraction * n)
    mats = [design.subset_terms(terms).X for _, terms in config.models]
    out = np.empty((config.replications, len(mats)))
    for i in range(config.replications):
        train, test = replication_split(config.seed, i, n, n_train)
        for j, X in enumerate(mats):
            coef = np.linalg.lstsq(X[train], design.y[train], rcond=None)[0]
            err = design.y[test] - X[test] @ coef
            out[i, j] = float(err @ err) / err.size
    return out


def unseen_level_rows(labels, config) -> np.ndarray:
    """Per replication, the held-out rows whose factor level no training row carries."""
    labels = np.asarray(labels)
    n = labels.size
    n_train = round(config.train_fraction * n)
    out = np.zeros(config.replications, dtype=np.int64)
    for i in range(config.replications):
        in_train = np.zeros(n, dtype=bool)
        in_train[replication_split(config.seed, i, n, n_train)[0]] = True
        out[i] = sum(np.count_nonzero(labels == level) for level in np.unique(labels)
                     if not in_train[labels == level].any())
    return out


def random_design(rng, n, p, names=None) -> DesignMatrix:
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    y = 1.0 + X @ beta + rng.standard_normal(n)
    return DesignMatrix.from_arrays(X, y, names=names)
