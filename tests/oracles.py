"""Independent oracles for the test suite.

Each oracle recomputes a quantity by its definition (literal delete-one
refits, explicit auxiliary regressions, exhaustive enumeration) so the
closed-form production implementations are checked against a separate
route, not against themselves.  The reference reader parses a data file by
the grammar README "File formats" writes down, on the csv module alone, and
the reference join joins two tables on their ids with Python lists and
NumPy indexing alone.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from pathlib import Path

import mpmath
import numpy as np

from regsel import (DesignMatrix, RawTable, encode_design, fit_ols, fit_statistics, predict,
                    replication_split)
from regsel.influence import VIF_COLLINEAR
from regsel.ols import aic_selection_value
from regsel.stepwise import TIE_MARGIN
from regsel.table import format_values


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


def loo_diagnostics(design: DesignMatrix, rows) -> dict:
    """The deletion diagnostics at the ``rows`` of a boolean mask, by delete-one
    refits: PRESS residuals, Cook's distances, DFFITS, and the externally
    studentized residuals t_i = DFFITS_i sqrt((1 - h_i) / h_i), from which
    the internal r_i solve t_i² = r_i² (n - p - 1) / (n - p - r_i²)."""
    full = fit_ols(design)
    h = full.leverage[rows]
    dff = loo_dffits(design)[rows]
    external = dff * np.sqrt((1.0 - h) / h)
    df = full.n - full.rank
    return {"press": (design.y - loo_predictions(design))[rows], "cooks": loo_cooks(design)[rows],
            "dffits": dff, "external": external,
            "internal": external * np.sqrt(df / (df - 1 + external ** 2))}


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
                      k: float = 2.0, tol: float = 1e-9, margin: float = TIE_MARGIN):
    """Greedy search that refits every candidate move, literally.

    Candidates within ``margin`` of the lowest AIC tie, and the earliest in
    design term order wins.  Returns (moves, final_terms, skipped) shaped
    like a SelectionTrace: moves are (direction, term, aic_before,
    aic_after); a candidate whose fit or AIC fails is logged as
    ``"<direction> <term>: <error>"``.
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
        fitted = []
        for direction, term, cand in candidate_moves(design, current, lower, upper, mode):
            try:
                fitted.append((aic_of(cand), direction, term, cand))
            except (ValueError, np.linalg.LinAlgError) as exc:
                skipped.append(f"{direction} {term}: {exc}")
        if not fitted:
            break
        best = min(aic for aic, *_ in fitted)
        aic, direction, term, cand = next(f for f in fitted if f[0] <= best + margin)
        if aic >= current_aic - tol:
            break
        moves.append((direction, term, current_aic, aic))
        current, current_aic = cand, aic
    order = {name: i for i, name in enumerate(design.term_names)}
    return moves, tuple(sorted(current, key=order.get)), skipped


# c of the c·u·κ·n bound below.  A selection AIC is n·ln(RSS/n) + k·rank, so
# a relative RSS error e moves it by about n·e, and a backward-stable QR
# solve, or one updated by Givens rotations, gets the RSS to within a small
# multiple of u·κ (times ‖y‖/‖r‖, about 1 for the designs it is used on).
AIC_ERROR_C = 16.0
UNIT_ROUNDOFF = 2.0 ** -53


def aic_error_bound(design: DesignMatrix, terms) -> float:
    """c·u·κ·n: how far a float64 selection AIC of the model on ``terms`` may
    lie from its exact value; κ is the 2-norm condition number of the
    columns :func:`fit_ols` keeps."""
    model = fit_ols(design.subset_terms(terms))
    return AIC_ERROR_C * UNIT_ROUNDOFF * np.linalg.cond(model.design.X[:, ~model.aliased]) * model.n


def reference_aic(design: DesignMatrix, terms, k: float = 2.0) -> float:
    """Selection AIC of the model on ``terms``, computed with mpmath at 80
    significant digits and rounded once to float64.

    The normal equations are solved directly: at 80 digits they keep more
    than 40 correct digits for any κ below 1e18.  Every column counts toward
    the rank, so compare only models :func:`fit_ols` finds of full rank.
    Limited to n <= 40 rows and six predictor columns, which keeps it fast.
    """
    sub = design.subset_terms(terms)
    n, p = sub.X.shape
    if n > 40 or p > 7:
        raise ValueError(f"reference_aic is limited to n <= 40 and 6 predictors, got {n} x {p - 1}")
    with mpmath.workdps(80):
        X = mpmath.matrix(sub.X.tolist())
        y = mpmath.matrix(sub.y.tolist())
        beta = mpmath.lu_solve(X.T * X, X.T * y)
        rss = mpmath.fsum(e ** 2 for e in y - X * beta)
        return float(n * mpmath.log(rss / n) + k * p)


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


def reencoded_cv_mspe(table: RawTable, config) -> np.ndarray:
    """Monte Carlo CV that encodes each training split on its own: replications x models MSPE.

    Each replication's training rows are rebuilt as a ``RawTable`` and
    encoded by ``encode_design``, so a factor keeps only the levels with a
    training row and its reference is the first of them.  Every candidate
    is fit on those columns with ``numpy.linalg.lstsq``.  A held-out row is
    encoded against the training levels: one of a level no training row
    carries gets zero in every dummy and predicts at the reference level.
    """
    y = table.column(table.response_name)
    n = y.size
    n_train = round(config.train_fraction * n)
    out = np.empty((config.replications, len(config.models)))
    for i in range(config.replications):
        train, test = replication_split(config.seed, i, n, n_train)
        fit_rows = encode_design(RawTable.build(
            table.names, table.roles, [c[train] for c in table.columns]))
        for j, (_, terms) in enumerate(config.models):
            design = fit_rows.subset_terms(terms)
            held = [np.ones(test.size)]
            for term in design.terms:
                values = table.column(term.name)[test]
                if term.kind == "factor":
                    held += [(values == level).astype(float) for level in term.levels[1:]]
                else:
                    held.append(values)
            coef = np.linalg.lstsq(design.X, design.y, rcond=None)[0]
            err = y[test] - np.column_stack(held) @ coef
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


def csv_module_bytes(table: RawTable) -> bytes:
    """``table`` as ``csv.writer`` writes it, in UTF-8: the header, then one
    row per record, each cell its kept ``text`` or else ``format_values``."""
    cells = [format_values(c) if t is None else t.tolist() for c, t in zip(table.columns, table.text)]
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(table.names)
    writer.writerows(zip(*cells))
    return out.getvalue().encode("utf-8")


# README "File formats": a number is what float() reads, spelled in ASCII digits without ``_``
# (IGNORECASE alone would let ``ı`` match ``i`` in ``inf``), and an integer id is ASCII digits
_NUMBER = re.compile(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf|infinity|nan)",
                     re.ASCII | re.IGNORECASE)
_INTEGER = re.compile(r"[+-]?[0-9]+", re.ASCII)
_MISSING = ("", "NA")


def reference_table(path, roles: dict, default=None, lenient=(), delimiter=",") -> dict:
    """A data file read by the written grammar of README "File formats", on
    the csv module alone (nothing from ``regsel.table``): its names and roles,
    each column's dtype and values (a float column as its bit patterns) and
    each factor's levels, or ValueError for a file the grammar rejects.
    ``roles`` maps names to role strings, ``default`` is the ``*`` role."""
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
        records = list(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"not a delimited UTF-8 file: {exc}") from None
    if not records:
        raise ValueError("no header")
    header, rows = [name.strip() for name in records[0]], [r for r in records[1:] if r]
    kinds = [roles.get(name, default) for name in header]
    if not rows or set(roles) - set(header) or len(set(header)) < len(header) or None in kinds:
        raise ValueError("no data rows, or a schema and header that do not match")
    for name, kind in zip(header, kinds):
        if not name or name[0] == "#" or set(name) & set("\t\r\n\0") or (
                "/" in name and kind in ("numeric", "factor")):
            raise ValueError(f"column name {name!r} is not allowed")
    if kinds.count("id") > 1 or kinds.count("response") > 1 or any(len(r) != len(header) for r in rows):
        raise ValueError("two id or response columns, or a ragged row")
    columns, levels = [], {}
    for j, (name, kind) in enumerate(zip(header, kinds)):
        cells = [row[j].strip() for row in rows]
        if kind in ("numeric", "response"):
            lenient_column = name in lenient or (name not in roles and "*" in lenient)
            values = []
            for cell in cells:
                if cell in _MISSING:
                    values.append(math.nan)
                elif _NUMBER.fullmatch(cell):
                    if not math.isfinite(float(cell)):
                        raise ValueError(f"{cell!r} is not finite")
                    values.append(float(cell))
                elif lenient_column:
                    values.append(math.nan)
                else:
                    raise ValueError(f"{cell!r} is not a number")
            columns.append(("float64", np.array(values, dtype=np.float64).view(np.int64).tolist()))
        elif kind == "id":
            if set(cells) & set(_MISSING):
                raise ValueError("an id is missing")
            if all(_INTEGER.fullmatch(c) and -2 ** 63 <= int(c) < 2 ** 63 for c in cells):
                columns.append(("int64", [int(c) for c in cells]))
            else:
                columns.append(("object", cells))
        else:
            labels = [None if c in _MISSING else c for c in cells]
            columns.append(("object", labels))
            if kind == "factor":
                levels[name] = _level_order(labels)
    return {"names": tuple(header), "roles": tuple(kinds), "columns": columns, "levels": levels}


def _level_order(labels) -> tuple:
    """README's level order of a factor's labels (``None`` is missing): by value
    when every label is a finite number, ties by label, and else by label."""
    distinct = sorted(set(labels) - {None})
    values = [float(c) if _NUMBER.fullmatch(c) else math.nan for c in distinct]
    if all(map(math.isfinite, values)):
        return tuple(c for _, c in sorted(zip(values, distinct)))
    return tuple(distinct)


def reference_join(a: RawTable, b: RawTable) -> dict:
    """The inner join of two tables on their id column, on Python lists and
    NumPy indexing alone (nothing from ``regsel.table``): the names and
    roles of ``a`` then the non-id ones of ``b``, each column's dtype and
    values at the ids both tables hold, ascending (a float column as its bit
    patterns), each column's text at those ids, the factors' levels, and the
    audit, as ``{"names", "roles", "columns", "text", "levels", "audit"}``.

    ValueError where the join is undefined: a table without an id column,
    id columns with different names or with text on one side and integers
    on the other, an id repeated within a table, a non-id name in both
    tables, two response columns, or no id in both tables."""
    sides = []
    for t in (a, b):
        roles = [r.value for r in t.roles]
        if "id" not in roles:
            raise ValueError("a table has no id column")
        ids = t.columns[roles.index("id")].tolist()
        if len(set(ids)) < len(ids):
            raise ValueError("an id is repeated within a table")
        sides.append((t, roles, t.names[roles.index("id")], ids))
    (_, roles_a, key, ids_a), (_, roles_b, key_b, ids_b) = sides
    if key != key_b or {type(i) for i in ids_a} != {type(i) for i in ids_b}:
        raise ValueError("the id columns differ in name or in kind")
    if (set(a.names) & set(b.names)) - {key} or (roles_a + roles_b).count("response") > 1:
        raise ValueError("a non-id name in both tables, or two response columns")
    common = sorted(set(ids_a) & set(ids_b))
    if not common:
        raise ValueError("no id in both tables")
    names, kinds, columns, texts, levels = [], [], [], [], {}
    for (t, roles, _, ids), skip in zip(sides, (None, key)):
        rows = [ids.index(i) for i in common]
        for name, role, column, text in zip(t.names, roles, t.columns, t.text):
            if name == skip:
                continue
            values = column[rows].tolist()
            names.append(name)
            kinds.append(role)
            columns.append((column.dtype.name, np.array(values, dtype=np.float64).view(np.int64).tolist()
                            if column.dtype == np.float64 else values))
            texts.append(None if text is None else text[rows].tolist())
            if role == "factor":
                levels[name] = _level_order(values)
    audit = (f"merge_by_id on '{key}': kept {len(common)} rows, excluded {len(ids_a) - len(common)} "
             f"left-only and {len(ids_b) - len(common)} right-only ids")
    return {"names": tuple(names), "roles": tuple(kinds), "columns": columns, "text": texts,
            "levels": levels, "audit": (*a.audit, *b.audit, audit)}


def assert_same_design(got: DesignMatrix, want: DesignMatrix) -> None:
    """Bit for bit: X, y, column names, terms with their levels, and row ids."""
    assert got.X.shape == want.X.shape
    assert np.array_equal(got.X.view(np.int64), want.X.view(np.int64))
    assert np.array_equal(got.y.view(np.int64), want.y.view(np.int64))
    assert (got.column_names, got.terms, got.response_name) == \
        (want.column_names, want.terms, want.response_name)
    assert got.row_ids.dtype == want.row_ids.dtype and got.row_ids.tolist() == want.row_ids.tolist()


def random_design(rng, n, p, names=None) -> DesignMatrix:
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    y = 1.0 + X @ beta + rng.standard_normal(n)
    return DesignMatrix.from_arrays(X, y, names=names)


def one_row_level_design(rng, n, p, single=True) -> DesignMatrix:
    """n rows of p standard-normal columns beside a factor ``f`` whose levels
    a and b alternate; with ``single``, one random row holds the last level
    c instead, so the full model fits that row exactly (leverage 1)."""
    X = rng.standard_normal((n, p))
    labels = np.array(["a", "b"] * n, dtype=object)[:n]
    if single:
        labels[rng.integers(n)] = "c"
    y = 1.0 + X @ rng.standard_normal(p) + (labels == "b") + rng.standard_normal(n)
    names = ["id", *(f"x{j + 1}" for j in range(p)), "f", "y"]
    roles = ["id", *["numeric"] * p, "factor", "response"]
    return encode_design(RawTable.build(names, roles, [np.arange(1, n + 1), *X.T, labels, y]))
