"""Greedy model-space search over term groups under the selection AIC.

Moves operate on whole terms: a factor's indicator columns enter and leave
together.  At every iteration all legal single-term moves are scored, and
the minimum-AIC move is applied if it beats the current model by more than
``TOL_AIC`` (1e-9, so floating-point ties cannot loop).  Ties
between candidate moves go to the term earliest in the design's term order.

Scoring reads the QR the current model was solved from (``FittedModel.qr``)
instead of refitting each candidate (the add/drop-one identities behind R's
``add1``/``drop1``):

* dropping term G raises the RSS by β_Gᵀ([(XᵀX)⁻¹]_GG)⁻¹β_G;
* adding term G lowers it by the squared norm of the residuals projected
  onto G's columns after those are residualized against the current Q.

Scored values only choose which candidates to refit.  The best-scored move,
and every candidate scored within ``SCORE_MARGIN`` of it, is refit exactly
with :func:`fit_ols`, so the trace's AIC values, tie-breaks, stop test and
final model are those of a search that refits every candidate.  A candidate
is refit instead of scored when the current model is rank-deficient or
near-aliased, when its own column block is near-aliased against the
current model, when it would leave at most one residual degree of freedom,
or when its RSS would fall near the floor where the AIC is undefined; such
refits are logged in ``skipped`` when they fail, exactly as before, and all
refits beyond the best-scored move are counted in ``exact_refits``.

Forward search starts from the scope's lower model, backward from the upper
model.  Both-direction search also starts from the upper model by default;
pass ``start=scope.lower`` for the textbook intercept-only start.
:func:`step_select_modes` runs several modes in lockstep, so modes that
stand at the same model share its scores and their candidate refits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .influence import dffits, press_residuals
from .ols import FittedModel, aic_selection_value, fit_ols, fit_statistics, residualize
from .table import DesignMatrix, model_formula

__all__ = [
    "Scope",
    "Move",
    "SelectionTrace",
    "step_select",
    "step_select_modes",
    "ComparisonTable",
    "compare_models",
    "format_trace",
]

TOL_AIC = 1e-9
MODES = ("forward", "backward", "both")

# Candidates scored within SCORE_MARGIN (AIC units) of the best are refit
# exactly; scoring errors are orders of magnitude smaller.
SCORE_MARGIN = 1e-6
# A column block is near-aliased when a diagonal of its QR falls below
# ALIAS_GUARD times the largest column norm, 1e4 above the rank tolerance.
ALIAS_GUARD = 1e-6
# A scored RSS below NEAR_FLOOR times the current RSS (cancellation), or
# below NEAR_FLOOR**2 times the total sum of squares (the AIC floor is
# 1e-12 of it), is refit exactly.
NEAR_FLOOR = 1e-3


@dataclass(frozen=True)
class Scope:
    """Search bounds: lower terms are never removed, terms outside upper never enter.

    ``upper=None`` means every term of the design; ``k`` is the AIC penalty
    per estimated coefficient.
    """

    lower: tuple = ()
    upper: tuple | None = None
    k: float = 2.0

    def resolve(self, design: DesignMatrix):
        all_terms = design.term_names
        upper = all_terms if self.upper is None else tuple(self.upper)
        lower = tuple(self.lower)
        unknown = (set(lower) | set(upper)) - set(all_terms)
        if unknown:
            raise KeyError(f"scope names unknown terms: {', '.join(sorted(unknown))}")
        if not set(lower) <= set(upper):
            raise ValueError("scope lower model must be a subset of the upper model")
        if self.k <= 0:
            raise ValueError(f"penalty k must be positive, got {self.k}")
        order = {name: i for i, name in enumerate(all_terms)}
        return (tuple(sorted(lower, key=order.get)), tuple(sorted(upper, key=order.get)))


@dataclass(frozen=True)
class Move:
    direction: str          # "add" | "remove"
    term: str
    aic_before: float
    aic_after: float


@dataclass(frozen=True)
class SelectionTrace:
    mode: str
    start: tuple
    moves: tuple
    final: FittedModel
    aic_start: float
    skipped: tuple = ()
    exact_refits: int = 0     # candidate refits beyond each iteration's best-scored move

    @property
    def final_terms(self) -> tuple:
        return self.final.design.term_names

    @property
    def final_aic(self) -> float:
        return self.moves[-1].aic_after if self.moves else self.aic_start

    def formula(self) -> str:
        return model_formula(self.final_terms, self.final.design.response_name)


def _fit_terms(design: DesignMatrix, terms, k: float):
    model = fit_ols(design.subset_terms(terms))
    return model, fit_statistics(model, k=k).aic_selection


def step_select(design: DesignMatrix, scope: Scope | None = None, mode: str = "forward",
                start=None) -> SelectionTrace:
    """Greedy forward / backward / both-direction term selection.

    Parameters
    ----------
    design : DesignMatrix
        Encoded data; term groups are the units of search.
    scope : Scope
        Lower/upper bounds and the AIC penalty k (defaults: intercept-only
        lower, all terms upper, k = 2).
    mode : {"forward", "backward", "both"}
    start : iterable of term names, optional
        Starting model.  Defaults: lower for forward, upper for backward and
        for both.

    Returns
    -------
    SelectionTrace
        Ordered add/remove moves with the AIC before and after each, the
        fitted final model, and a log of any skipped candidate fits.
    """
    return step_select_modes(design, scope, (mode,), start=start)[mode]


def step_select_modes(design: DesignMatrix, scope: Scope | None = None, modes=MODES,
                      start=None) -> dict:
    """Run several search modes on one design in lockstep: {mode: SelectionTrace}.

    Each iteration advances every unfinished mode by one move.  Modes that
    stand at the same term set are scored once, over the union of their
    legal moves, and a candidate fit is shared by every mode that refits
    it in the same iteration.  Both-direction search from the upper model
    usually walks backward search's path move for move, so most of its
    fits and scores come free.  Only the current iteration's fits are
    kept, so memory does not grow with the length of the path.  Each trace
    equals the one ``step_select`` returns for its mode alone; ``start``
    applies to every mode.
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    scope = scope or Scope()
    lower, upper = scope.resolve(design)
    lower_set, upper_set = set(lower), set(upper)
    order = {name: i for i, name in enumerate(design.term_names)}
    y = design.y
    tss = float(np.sum((y - y.mean()) ** 2))

    fits: dict = {}     # this iteration's fits: term set -> (model, aic) or the fit's error

    def fit(terms: frozenset):
        if terms not in fits:
            try:
                fits[terms] = _fit_terms(design, terms, scope.k)
            except (ValueError, np.linalg.LinAlgError) as exc:
                fits[terms] = exc
        return fits[terms]

    searches = []
    for mode in dict.fromkeys(modes):
        begin = start if start is not None else (lower if mode == "forward" else upper)
        begin = tuple(sorted(set(begin), key=order.get))
        if not lower_set <= set(begin) <= upper_set:
            raise ValueError("start model must lie within the scope")
        searches.append(_Search(mode, begin, fit))

    active = searches
    while active:
        groups: dict = {}
        for search in active:
            groups.setdefault(search.current, []).append(search)
        fits.clear()
        for current, group in groups.items():
            can_add = any(s.can_add for s in group)
            can_remove = any(s.can_remove for s in group)
            legal = []      # (direction, term) in design term order
            for term in design.term_names:
                if term in current:
                    if can_remove and term not in lower_set:
                        legal.append(("remove", term))
                elif can_add and term in upper_set:
                    legal.append(("add", term))
            # every member's model is the same deterministic fit of this term set
            scores = dict(zip(legal, _score_moves(design, group[0].model, legal, scope.k, tss)))
            for search in group:
                search.step(scores, fit)
        active = [s for s in active if not s.done]
    return {s.mode: s.trace() for s in searches}


class _Search:
    """One mode's walk: its current model and the moves, skips and refits so far."""

    def __init__(self, mode: str, start: tuple, fit):
        self.mode = mode
        self.can_add = mode in ("forward", "both")
        self.can_remove = mode in ("backward", "both")
        self.start = start
        self.current = frozenset(start)
        fitted = fit(self.current)
        if isinstance(fitted, Exception):
            raise fitted
        self.model, self.aic = fitted
        self.aic_start = self.aic
        self.moves: list = []
        self.skipped: list = []
        self.exact_refits = 0       # candidate refits beyond each iteration's best-scored move
        self.done = False

    def step(self, scores: dict, fit) -> None:
        """Apply the best of this mode's moves in ``scores`` (move -> scored AIC,
        None for must-refit), or stop when none beats the current model."""
        legal = [mv for mv in scores if (self.can_add if mv[0] == "add" else self.can_remove)]
        ranked = [scores[mv] for mv in legal if scores[mv] is not None]
        cutoff = min(ranked) + SCORE_MARGIN if ranked else None
        refit = [mv for mv in legal if scores[mv] is None or scores[mv] <= cutoff]
        self.exact_refits += len(refit) - bool(ranked)  # the best-scored move is not counted
        best = None     # (aic, move, term set, model)
        for direction, term in refit:
            candidate = self.current - {term} if direction == "remove" else self.current | {term}
            fitted = fit(candidate)
            if isinstance(fitted, Exception):
                self.skipped.append(f"{direction} {term}: {fitted}")
                continue
            model, aic = fitted
            if best is None or aic < best[0]:
                best = (aic, Move(direction, term, self.aic, aic), candidate, model)
        if best is None or best[0] >= self.aic - TOL_AIC:
            self.done = True
            return
        self.aic, move, self.current, self.model = best
        self.moves.append(move)

    def trace(self) -> SelectionTrace:
        return SelectionTrace(mode=self.mode, start=self.start, moves=tuple(self.moves),
                              final=self.model, aic_start=self.aic_start,
                              skipped=tuple(self.skipped), exact_refits=self.exact_refits)


def _score_moves(design: DesignMatrix, model: FittedModel, legal, k: float, tss: float) -> list:
    """Selection AIC of each legal move, scored from the current model's own
    QR; None marks a move that must be refit exactly."""
    n, rank, rss, qr = model.n, model.rank, model.rss, model.qr
    if rank < model.p:
        return [None] * len(legal)
    diag = np.abs(np.diag(qr.r))
    if diag.min() < ALIAS_GUARD * diag[0]:
        return [None] * len(legal)
    w = qr.inverse_gram_rows()
    floor = max(NEAR_FLOOR * rss, NEAR_FLOOR ** 2 * tss)
    own = {t.name: list(t.columns) for t in model.design.terms}
    columns = {t.name: t.columns for t in design.terms}
    # dropping one column j raises the RSS by β_j² / [(XᵀX)⁻¹]_jj
    drop_one = rss + model.coef ** 2 / np.einsum("ij,ij->i", w, w)

    added = [columns[t] for d, t in legal if d == "add"]
    if added:
        G = design.X[:, [c for cols in added for c in cols]]
        Z = residualize(qr.q, G)
        g_norm = np.sqrt(np.einsum("ij,ij->j", G, G))
        z_norm = np.sqrt(np.einsum("ij,ij->j", Z, Z))
        z_r = Z.T @ model.residuals
    scores = []
    start = 0
    for direction, term in legal:
        if direction == "remove":
            cols = own[term]
            if len(cols) == 1:
                new_rss = float(drop_one[cols[0]])
            else:
                beta = model.coef[cols]
                block = w[cols] @ w[cols].T
                new_rss = rss + float(beta @ np.linalg.solve(block, beta))
            new_rank = rank - len(cols)
        else:
            m = len(columns[term])
            sl = slice(start, start + m)
            start += m
            scale = max(diag[0], g_norm[sl].max())
            if m == 1:
                zn = z_norm[sl][0]
                drop = (z_r[sl][0] / zn) ** 2 if zn > 0.0 else 0.0
            else:
                qz, rz = np.linalg.qr(Z[:, sl])
                zn = np.abs(np.diag(rz)).min()
                drop = float(np.sum((qz.T @ model.residuals) ** 2))
            if zn < ALIAS_GUARD * scale:
                scores.append(None)
                continue
            new_rss = rss - drop
            new_rank = rank + m
        if n - new_rank <= 1 or new_rss <= floor:
            scores.append(None)
        else:
            scores.append(aic_selection_value(new_rss, n, new_rank, k))
    return scores


def format_trace(trace: SelectionTrace) -> str:
    """Trace file body: one ``step<TAB>add|remove<TAB>term<TAB>aic_before<TAB>aic_after``
    line per move, then the final model formula."""
    lines = ["step\tdirection\tterm\taic_before\taic_after"]
    for i, mv in enumerate(trace.moves, start=1):
        lines.append(f"{i}\t{mv.direction}\t{mv.term}\t{mv.aic_before!r}\t{mv.aic_after!r}")
    lines.append(f"formula\t{trace.formula()}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cross-model comparison
# ---------------------------------------------------------------------------

COMPARISON_ROWS = (
    "sum_sq_press",
    "aic",
    "adj_r_squared",
    "sum_sq_dffits",
    "rank",
)


@dataclass(frozen=True)
class ComparisonTable:
    """Five diagnostics per candidate model: sum-of-squared PRESS, full AIC,
    adjusted R-squared, sum-of-squared DFFITS, and rank."""

    labels: tuple
    cells: dict            # row name -> tuple of values, one per label

    def column(self, label: str) -> dict:
        j = self.labels.index(label)
        return {row: self.cells[row][j] for row in COMPARISON_ROWS}

    def render(self) -> str:
        width = max(12, *(len(l) for l in self.labels))
        lines = ["metric".ljust(22) + "".join(l.rjust(width + 2) for l in self.labels)]
        for row in COMPARISON_ROWS:
            vals = self.cells[row]
            fmt = (lambda v: f"{v:.0f}") if row == "rank" else (lambda v: f"{v:.4f}")
            lines.append(row.ljust(22) + "".join(fmt(v).rjust(width + 2) for v in vals))
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        lines = ["metric\t" + "\t".join(self.labels)]
        for row in COMPARISON_ROWS:
            lines.append(row + "\t" + "\t".join(repr(float(v)) for v in self.cells[row]))
        return "\n".join(lines) + "\n"


def compare_models(models, labels=None) -> ComparisonTable:
    """Build the comparison table for models fitted on the same rows."""
    models = list(models)
    if not models:
        raise ValueError("no models to compare")
    ns = {m.n for m in models}
    if len(ns) > 1:
        raise ValueError(f"models were fitted on differing row counts {sorted(ns)}; "
                         "their diagnostics are not comparable")
    if labels is None:
        labels = tuple(f"model{i + 1}" for i in range(len(models)))
    labels = tuple(labels)
    if len(labels) != len(models):
        raise ValueError("labels length must match the number of models")
    press_sq, aics, adj, dff_sq, ranks = [], [], [], [], []
    for m in models:
        stat = fit_statistics(m)
        press_sq.append(float(np.sum(press_residuals(m) ** 2)))
        aics.append(stat.aic_full)
        adj.append(stat.adj_r_squared)
        dff_sq.append(float(np.sum(dffits(m) ** 2)))
        ranks.append(float(m.rank))
    return ComparisonTable(labels=labels, cells={
        "sum_sq_press": tuple(press_sq),
        "aic": tuple(aics),
        "adj_r_squared": tuple(adj),
        "sum_sq_dffits": tuple(dff_sq),
        "rank": tuple(ranks),
    })
