"""Greedy model-space search over terms under the selection AIC.

Moves operate on whole terms: a factor's indicator columns enter and leave
together.  At every iteration all legal single-term moves are scored, and
the minimum-AIC move is applied if it beats the current model by more than
``TOL_AIC`` (1e-9, so floating-point ties cannot loop).  Moves whose AIC
lies within ``TIE_MARGIN`` of the best are ties, and the one whose term
comes earliest in the design's term order wins.

Each search carries one :class:`~regsel.ols.BlockQR` of its current model
over the design's columns, started from the :func:`fit_ols` fit of its
start model and updated by ``BlockQR.insert``/``delete`` at every applied
move (Golub & Van Loan §6.5), so no move refits the model it enters.  Moves
are scored from that factorization (the add/drop-one identities behind R's
``add1``/``drop1``):

* dropping term G raises the RSS by β_Gᵀ([(XᵀX)⁻¹]_GG)⁻¹β_G, read from R⁻¹;
* adding term G lowers it by the squared norm of the residuals projected
  onto G's columns after those are residualized against the current Q.  A
  single column is residualized through the Gram identity
  ‖z‖² = ‖g‖² − ‖Qᵀg‖² unless that cancels below ``CANCELLATION`` times
  ‖g‖²; such columns and factor blocks take the exact double projection.

The trace's RSS and AIC after a move are read from the updated
factorization, so they agree with a refit to rounding, not bit for bit.  A
move is refit with :func:`fit_ols` instead of scored when the current model
is rank-deficient or near-aliased, when its own column block is
near-aliased against the current model, when it would leave at most one
residual degree of freedom, or when its RSS would fall near the floor where
the AIC is undefined.  Such fallback refits are counted in
``fallback_refits`` and logged in ``skipped`` when they fail; applying one
restarts the factorization from the refit.  The final model of each search
is fit once with :func:`fit_ols`.

Forward search starts from the scope's lower model, backward from the upper
model.  Both-direction search also starts from the upper model by default;
pass ``start=scope.lower`` for the textbook intercept-only start.
:func:`step_select_modes` runs several modes in lockstep, so modes that
walk one path share its factorizations, scores and refits.  A state's
removals and additions are scored apart, each only for a mode that moves
in that direction.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

import numpy as np

from .influence import dffits, press_residuals
from .ols import BlockQR, FittedModel, aic_selection_value, fit_ols, fit_statistics, residualize
from .table import DesignMatrix, model_formula, tsv_lines

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

# Moves within TIE_MARGIN (AIC units) of the best are ties; the rounding
# error of a scored or updated AIC is orders of magnitude smaller.
TIE_MARGIN = 1e-6
# A column block is near-aliased when a diagonal of its QR falls below
# ALIAS_GUARD times the largest column norm, 1e4 above the rank tolerance.
ALIAS_GUARD = 1e-6
# A scored RSS below NEAR_FLOOR times the current RSS (cancellation), or
# below NEAR_FLOOR**2 times the total sum of squares (the AIC floor is
# 1e-12 of it), is refit exactly.
NEAR_FLOOR = 1e-3
# The Gram identity for an added column loses about -log10(CANCELLATION)
# digits at this bound; below it the column is projected exactly.
CANCELLATION = 1e-4


@dataclass(frozen=True)
class Scope:
    """Search bounds: lower terms are never removed, terms outside upper never enter.

    ``upper=None`` means every term of the design; ``k`` is the AIC penalty
    per estimated coefficient.
    """

    lower: tuple = ()
    upper: tuple | None = None
    k: float = 2.0

    def __post_init__(self):
        if not np.isfinite(self.k):     # every AIC would be infinite or NaN, so no move could improve on another
            raise ValueError(f"penalty k must be finite, got {self.k}")
        if not self.k > 0:
            raise ValueError(f"penalty k must be positive, got {self.k}")

    def resolve(self, design: DesignMatrix):
        all_terms = design.term_names
        upper = all_terms if self.upper is None else tuple(self.upper)
        lower = tuple(self.lower)
        unknown = (set(lower) | set(upper)) - set(all_terms)
        if unknown:
            raise KeyError(f"scope names unknown terms: {', '.join(sorted(unknown))}")
        if not set(lower) <= set(upper):
            raise ValueError("scope lower model must be a subset of the upper model")
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
    fallback_refits: int = 0    # candidate moves refit with fit_ols instead of scored

    @property
    def final_terms(self) -> tuple:
        return self.final.design.term_names

    @property
    def final_aic(self) -> float:
        return self.moves[-1].aic_after if self.moves else self.aic_start

    def formula(self) -> str:
        return model_formula(self.final_terms, self.final.design.response_name)


def step_select(design: DesignMatrix, scope: Scope | None = None, mode: str = "forward",
                start=None) -> SelectionTrace:
    """Greedy forward / backward / both-direction term selection.

    Parameters
    ----------
    design : DesignMatrix
        Encoded data; its terms are the units of search.
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

    Each iteration advances every unfinished mode by one move.  One
    :class:`_ModelSpace` keeps the iteration's work: a state is scored at
    most once per direction, only in the directions some mode at it moves
    in; a move several modes apply is applied once, and a fallback refit is
    shared by every mode that needs it.  Modes share a state only while they
    walk one path, so each trace equals the one ``step_select`` returns for
    its mode alone.  Both-direction search from the upper model usually
    walks backward search's path move for move, so most of its work comes
    free.  ``start`` applies to every mode.
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    space = _ModelSpace(design, scope or Scope())
    order = {name: i for i, name in enumerate(design.term_names)}
    searches = []
    for mode in dict.fromkeys(modes):
        begin = start if start is not None else (space.lower if mode == "forward" else space.upper)
        begin = tuple(sorted(set(begin), key=order.get))
        if not set(space.lower) <= set(begin) <= set(space.upper):
            raise ValueError("start model must lie within the scope")
        state = space.fit(frozenset(begin))
        if isinstance(state, Exception):
            raise state
        searches.append(_Search(mode, begin, state))

    active = searches
    while active:
        space.forget()
        for search in active:
            search.step(space)
        active = [s for s in active if not s.done]
    return {s.mode: s.trace(space.final(s.state)) for s in searches}


@dataclass(frozen=True, eq=False)
class _State:
    """One model on a search path and the QR factorization it is scored from.

    ``qr`` is a :class:`~regsel.ols.BlockQR` over the searched design's
    columns that factors the model's, intercept included.  ``model`` is the
    :func:`fit_ols` fit a state started from a refit carries.  A state that
    is rank-deficient or near-aliased is not ``scorable``: each of its moves
    is refit.  States compare by identity, so modes share one only while they
    walk one path.
    """

    terms: frozenset
    qr: BlockQR
    residuals: np.ndarray
    rss: float
    aic: float
    scorable: bool
    model: FittedModel | None = None


class _ModelSpace:
    """The models of one design within one scope: refits, QR updates and move scores.

    Refits (errors included), updates and each state's scores per direction
    are kept by their arguments until :meth:`forget`."""

    def __init__(self, design: DesignMatrix, scope: Scope):
        self.design = design
        self.k = scope.k
        self.lower, self.upper = scope.resolve(design)
        self.columns = {t.name: t.columns for t in design.terms}
        self.norms = np.sqrt(np.einsum("ij,ij->j", design.X, design.X))
        self.rss_floor = NEAR_FLOOR ** 2 * float(np.sum((design.y - design.y.mean()) ** 2))
        self._fits, self._moves, self._scores = {}, {}, {}

    def forget(self) -> None:
        """Drop the kept refits, updates and scores, so memory does not grow along a path."""
        for kept in (self._fits, self._moves, self._scores):
            kept.clear()

    def _state(self, terms, qr, residuals, rss, aic, full_rank=True, model=None) -> _State:
        diag = np.abs(np.diag(qr.r))
        scorable = full_rank and diag.min() >= ALIAS_GUARD * self.norms[qr.pivot[:qr.rank]].max()
        return _State(terms, qr, residuals, rss, aic, bool(scorable), model)

    def fit(self, terms: frozenset):
        """Refit ``terms`` and start a factorization from the fit's QR over the
        design's columns; the fit's error instead when it fails."""
        if terms not in self._fits:
            try:
                model = fit_ols(self.design.subset_terms(terms))
                aic = fit_statistics(model, k=self.k).aic_selection
            except (ValueError, np.linalg.LinAlgError) as exc:
                self._fits[terms] = exc
                return exc
            own = np.array([0, *(c for t in model.design.term_names for c in self.columns[t])])
            rest = np.setdiff1d(np.arange(self.design.n_cols), own, assume_unique=True)
            qr = replace(model.qr, pivot=np.concatenate([own[model.qr.pivot], rest]))
            self._fits[terms] = self._state(terms, qr, model.residuals, model.rss, aic,
                                            full_rank=qr.rank == model.p, model=model)
        return self._fits[terms]

    def final(self, state: _State) -> FittedModel:
        """The fitted model of a search's final state, refit once if the state carries none."""
        if state.model is None:
            state = self.fit(state.terms)
            if isinstance(state, Exception):
                raise state
        return state.model

    def move(self, state: _State, direction: str, term: str) -> _State:
        """The state after a scored move: ``state``'s QR updated by the term's columns."""
        key = (state, direction, term)
        if key not in self._moves:
            cols = self.columns[term]
            qr = state.qr.insert(self.design.X, cols) if direction == "add" else state.qr.delete(cols)
            residuals = residualize(qr.q, self.design.y)
            rss = float(residuals @ residuals)
            aic = aic_selection_value(rss, self.design.n_rows, qr.rank, self.k)
            self._moves[key] = self._state(state.terms ^ {term}, qr, residuals, rss, aic)
        return self._moves[key]

    def scores(self, state: _State, directions) -> dict:
        """Selection AIC of each legal move from ``state`` in ``directions``, by
        term in design term order; None marks a move that must be refit."""
        scored = {}
        for direction in directions:
            if (state, direction) not in self._scores:
                scorer = self._additions if direction == "add" else self._removals
                self._scores[state, direction] = scorer(state)
            scored.update(self._scores[state, direction])
        return {term: scored[term] for term in self.upper if term in scored}

    def _aic(self, state: _State, new_rss: float, new_rank: int):
        """A scored move's AIC, or None when it would leave at most one residual
        degree of freedom or an RSS near the floor."""
        n = self.design.n_rows
        if n - new_rank <= 1 or new_rss <= max(NEAR_FLOOR * state.rss, self.rss_floor):
            return None
        return aic_selection_value(new_rss, n, new_rank, self.k)

    def _removals(self, state: _State) -> dict:
        """Scores of dropping each term outside the lower model, read from R⁻¹."""
        terms = [t for t in self.upper if t in state.terms and t not in self.lower]
        if not state.scorable:
            return dict.fromkeys(terms)
        w = state.qr.inverse_gram_rows()      # (XᵀX)⁻¹ = WWᵀ; row j is design column j
        coef = state.qr.solve(self.design.y)[0]
        # dropping one column j raises the RSS by β_j² / [(XᵀX)⁻¹]_jj; W² is zero off the model
        w2 = np.einsum("ij,ij->i", w, w)
        drop_one = state.rss + np.divide(coef ** 2, w2, out=np.zeros_like(w2), where=w2 > 0)
        scores = {}
        for term in terms:
            at = list(self.columns[term])
            new_rss = (float(drop_one[at[0]]) if len(at) == 1 else
                       state.rss + float(coef[at] @ np.linalg.solve(w[at] @ w[at].T, coef[at])))
            scores[term] = self._aic(state, new_rss, state.qr.rank - len(at))
        return scores

    def _additions(self, state: _State) -> dict:
        """Scores of adding each term of the upper model, from the residuals
        projected onto its columns residualized against the current Q."""
        terms = [t for t in self.upper if t not in state.terms]
        if not state.scorable or not terms:
            return dict.fromkeys(terms)
        q, res, rank = state.qr.q, state.residuals, state.qr.rank
        G = self.design.X[:, [c for t in terms for c in self.columns[t]]]
        C = q.T @ G
        g2 = np.einsum("ij,ij->j", G, G)
        z2 = g2 - np.einsum("ij,ij->j", C, C)
        z_r = G.T @ res - C.T @ (q.T @ res)     # zᵀr = gᵀ(I − QQᵀ)r
        model_scale = self.norms[state.qr.pivot[:rank]].max()
        scores = {}
        j = 0
        for term in terms:
            m = len(self.columns[term])
            scale = max(model_scale, np.sqrt(g2[j:j + m].max()))
            if m == 1 and z2[j] >= CANCELLATION * g2[j]:
                zn = np.sqrt(z2[j])
                drop = z_r[j] ** 2 / z2[j]
            else:
                qz, rz = np.linalg.qr(residualize(q, G[:, j:j + m]))
                zn = np.abs(np.diag(rz)).min()
                drop = float(np.sum((qz.T @ res) ** 2))
            aliased = zn < ALIAS_GUARD * scale
            scores[term] = None if aliased else self._aic(state, state.rss - drop, rank + m)
            j += m
        return scores


class _Search:
    """One mode's walk: its current state and the moves, skips and refits so far."""

    def __init__(self, mode: str, start: tuple, state: _State):
        self.mode = mode
        self.directions = {"forward": ("add",), "backward": ("remove",)}.get(mode, ("add", "remove"))
        self.start = start
        self.state = state
        self.aic_start = state.aic
        self.moves: list = []
        self.skipped: list = []
        self.fallback_refits = 0
        self.done = False

    def step(self, space: _ModelSpace) -> None:
        """Apply the best of this mode's moves from the current state, or stop
        when none beats it; a move the space cannot score is refit."""
        current = self.state
        values = {}     # move -> (AIC, refit state or None), in design term order
        for term, score in space.scores(current, self.directions).items():
            direction = "remove" if term in current.terms else "add"
            if score is not None:
                values[direction, term] = (score, None)
                continue
            self.fallback_refits += 1
            refit = space.fit(current.terms ^ {term})
            if isinstance(refit, Exception):
                self.skipped.append(f"{direction} {term}: {refit}")
                continue
            values[direction, term] = (refit.aic, refit)
        if not values:
            self.done = True
            return
        best = min(aic for aic, _ in values.values())
        (direction, term), (_, new) = next(
            item for item in values.items() if item[1][0] <= best + TIE_MARGIN)
        if new is None:
            new = space.move(current, direction, term)
        if new.aic >= current.aic - TOL_AIC:
            self.done = True
            return
        self.moves.append(Move(direction, term, current.aic, new.aic))
        self.state = new

    def trace(self, final: FittedModel) -> SelectionTrace:
        return SelectionTrace(mode=self.mode, start=self.start, moves=tuple(self.moves),
                              final=final, aic_start=self.aic_start,
                              skipped=tuple(self.skipped), fallback_refits=self.fallback_refits)


def format_trace(trace: SelectionTrace) -> str:
    """Trace file body: one ``step<TAB>add|remove<TAB>term<TAB>aic_before<TAB>aic_after``
    line per move, then the final model formula."""
    lines = tsv_lines(("step", "direction", "term", "aic_before", "aic_after"),
                      range(1, len(trace.moves) + 1), *zip(*map(astuple, trace.moves)))
    return "\n".join([*lines, f"formula\t{trace.formula()}"]) + "\n"


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
        columns = zip(*(self.cells[row] for row in COMPARISON_ROWS))
        return "\n".join(tsv_lines(("metric", *self.labels), COMPARISON_ROWS, *columns)) + "\n"


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
