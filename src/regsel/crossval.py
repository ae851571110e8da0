"""Seeded Monte Carlo cross-validation with MSPE reporting.

Each replication draws one random train/test split that every candidate
model shares and scores the mean squared prediction error on the held-out
rows.  Each candidate is fit on the columns that both the full data and the
training rows can estimate.  No training split is refit: candidates are cut
to the columns :func:`~regsel.ols.fit_ols` keeps on the full data, nested
ones C₁ ⊂ … ⊂ C_m form a chain that is factored once, and each member's
held-out errors follow from the multi-row deletion identity
e_(T) = e_T + Q_T (I - Q_TᵀQ_T)⁻¹ Q_Tᵀ e_T, with one Gram and one Cholesky
factor per chain and replication (see :class:`_Chain`).  A split whose
training rows leave a column all zero (the dummy of a held-out level) or
lack the reference level is solved as encoding the training rows alone
would: with that column dropped, and the first level with a training row as
the reference.  Held-out rows of an absent level predict at the reference
level.  Those replications are counted in ``reduced_solves`` and those rows
in ``unseen_level_rows``; only a reduced Gram that is still near singular
takes the exact pivoted refit, counted in ``exact_refits``.

Reproducibility is the design driver: replication i's split comes from a
counter-based Philox stream keyed by (seed, i), so the MSPE vectors are a
pure function of (data, config): bitwise identical across runs and
replication-count extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .influence import interpolated_quantile
from .ols import pivoted_effective_coef, qr_block, residualize
from .table import DesignMatrix

__all__ = [
    "CVConfig",
    "CVResult",
    "FiveNumberSummary",
    "replication_rng",
    "replication_split",
    "mc_cross_validate",
    "five_number_summary",
]


def replication_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replication, keyed by (seed, index)."""
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def replication_split(seed: int, index: int, n: int, n_train: int):
    """The (train, test) row partition used by replication `index`."""
    perm = replication_rng(seed, index).permutation(n)
    return perm[:n_train], perm[n_train:]


def _replication_splits(seed: int, count: int, n: int, n_train: int):
    """``replication_split(seed, i, n, n_train)`` for i in range(count).

    One Philox generator is re-keyed to (seed, i) for each replication
    instead of building a new one: the state set is the freshly keyed one
    (counter zero, empty buffer), so every split is the same.
    """
    key = np.array([np.uint64(seed), np.uint64(0)], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    for i in range(count):
        key[1] = i
        state["state"]["key"] = key
        bitgen.state = state
        perm = rng.permutation(n)
        yield perm[:n_train], perm[n_train:]


@dataclass(frozen=True)
class CVConfig:
    """Cross-validation parameters.

    ``models`` is an ordered tuple of (label, term-name tuple) pairs; every
    candidate is scored on the same split within a replication.
    """

    models: tuple
    replications: int = 8000
    train_fraction: float = 0.8
    seed: int = 20883271

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

    @classmethod
    def for_models(cls, models, **kwargs) -> "CVConfig":
        """Build from a ``{label: terms}`` mapping."""
        return cls(models=tuple((str(k), tuple(v)) for k, v in models.items()), **kwargs)


@dataclass(frozen=True)
class FiveNumberSummary:
    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def as_tuple(self):
        return (self.minimum, self.q1, self.median, self.mean, self.q3, self.maximum)


@dataclass(frozen=True)
class CVResult:
    """MSPE vectors (replications x models), their square roots, and summaries.

    ``unseen_level_rows`` counts held-out rows per model whose prediction
    fell back to the reference level because a factor level was absent from
    the training split.  ``exact_refits`` counts, per model, the
    replications that took the exact pivoted refit instead of the deletion
    identity, and ``reduced_solves`` those solved by the deletion identity
    with the columns the training rows cannot estimate dropped (both empty
    when not recorded).
    """

    labels: tuple
    mspe: np.ndarray
    config: CVConfig
    unseen_level_rows: tuple
    exact_refits: tuple = ()
    reduced_solves: tuple = ()

    @property
    def rmspe(self) -> np.ndarray:
        return np.sqrt(self.mspe)

    def column(self, label: str) -> np.ndarray:
        return self.mspe[:, self.labels.index(label)]

    def summaries(self, root: bool = False) -> dict:
        data = self.rmspe if root else self.mspe
        return {lab: five_number_summary(data[:, j]) for j, lab in enumerate(self.labels)}


def five_number_summary(v) -> FiveNumberSummary:
    """Min, quartiles (linear-interpolation rule h = (n-1)p + 1), mean, max."""
    v = np.asarray(v, dtype=np.float64)
    q1, median, q3 = (interpolated_quantile(v, p) for p in (0.25, 0.50, 0.75))
    return FiveNumberSummary(minimum=float(v.min()), q1=q1, median=median, mean=float(v.mean()),
                             q3=q3, maximum=float(v.max()))


# ---------------------------------------------------------------------------
# The Monte Carlo loop
# ---------------------------------------------------------------------------


class _Chain:
    """Nested candidates C₁ ⊂ … ⊂ C_m that share one full-data QR.

    Members are column sets of full rank (see :func:`_columns`).  The
    chain's columns are ordered member by member (C₁'s columns, then C₂'s
    new ones, and so on) and factored once, unpivoted: X = QR with Q n x p
    and orthonormal columns.  Member j owns the leading k_j columns of Q and
    its own full-data residuals e_j = y - Q_{:k_j}Q_{:k_j}ᵀy.  Deleting the
    test rows T from its fit gives the held-out errors

        e_(T) = e_T + Q_T (I - Q_TᵀQ_T)⁻¹ Q_Tᵀ e_T,

    the multi-row form of the PRESS identity (Cook & Weisberg 1982), with Q
    cut to member j's columns.  I - Q_TᵀQ_T is the training rows' Gram, and
    the Cholesky factor of its leading k_j x k_j block is the leading block
    of its Cholesky factor, so a replication costs one gather of the test
    rows of Q, one p x p Gram and one ``potrf`` for the whole chain, plus a
    pair of triangular solves; no training split is refit.

    Member j is usable in a replication when ``potrf`` got past its k_j
    leading pivots (info is 0 or greater than k_j) and none of their squares
    is below PIVOT_FLOOR (the Gram's diagonal is at most 1).  Usability is
    monotone in k_j, so the usable members are a leading run of the chain.

    A member that is not usable takes :meth:`fallback`: it is solved on the
    columns the training rows can estimate (see :func:`_training_columns`),
    on a one-member chain built on first use and cached.  Only when that
    reduced Gram fails the floor too is it refit exactly on those columns.
    """

    PIVOT_FLOOR = 1e-6

    def __init__(self, X, y, members):
        order = list(dict.fromkeys(c for cols in members for c in cols))    # member by member
        self.X, self.y = X, y           # the whole design; members are tuples of its columns
        self.members = members
        self.sizes = np.array([len(cols) for cols in members])
        q = linalg.qr(X[:, order], mode="economic", overwrite_a=True)[0]
        self.q = q = np.ascontiguousarray(q)
        self.e = np.column_stack([residualize(q[:, :k], y) for k in self.sizes])
        self.keep = (np.arange(q.shape[1])[:, None] < self.sizes).astype(np.float64)
        self.eye = np.eye(q.shape[1])
        self._syrk = linalg.get_blas_funcs("syrk", (q,))
        self._potrf, self._trtrs = linalg.get_lapack_funcs(("potrf", "trtrs"), (q,))
        self._reduced = {}              # reduced column tuple -> its one-member chain

    @classmethod
    def build(cls, X, y, column_sets):
        """Chains of the distinct column sets, formed greedily by size: each
        set joins the first chain whose largest member it contains, or
        starts a new one."""
        groups = []
        for cols in sorted(column_sets, key=len):
            for group in groups:
                if set(group[-1]) <= set(cols):
                    group.append(cols)
                    break
            else:
                groups.append([cols])
        return [cls(X, y, group) for group in groups]

    def mspe(self, test):
        """MSPEs of the chain's leading usable members on one split (maybe none)."""
        qt = np.take(self.q, test, axis=0)
        et = np.take(self.e, test, axis=0)
        gram = self._syrk(-1.0, qt.T, beta=1.0, c=self.eye)     # upper triangle of I - Q_TᵀQ_T
        chol, info = self._potrf(gram, overwrite_a=True, clean=False)
        pivots = np.diag(chol)
        used = self.sizes.size
        if info or pivots.min() ** 2 < self.PIVOT_FLOOR:        # not every member is usable
            ok = np.minimum.accumulate(pivots ** 2) >= self.PIVOT_FLOOR
            if info:
                ok[info - 1:] = False   # potrf stopped at pivot `info`
            used = np.count_nonzero(ok[self.sizes - 1])
            if not used:
                return np.empty(0)
        k = self.sizes[used - 1]
        u = chol[:, :k]                 # its leading k x k triangle, read in place
        et = et[:, :used]
        w, _ = self._trtrs(u, qt[:, :k].T @ et, trans=1)
        if used > 1:
            w *= self.keep[:k, :used]   # member j's solve keeps its k_j leading rows
        z, _ = self._trtrs(u, w)
        err = et + qt[:, :k] @ z
        return (err.T @ err).diagonal() / test.size

    def fallback(self, j, train, test, sparse, factors):
        """(MSPE, unseen-level held-out rows, reduced?) of member j on one split."""
        cols, unseen = _training_columns(self.X, self.members[j], train, test, sparse, factors)
        if len(cols) < self.sizes[j]:
            reduced = self._reduced.get(cols)
            if reduced is None:
                reduced = self._reduced[cols] = _Chain(self.X, self.y, [cols])
            got = reduced.mspe(test)
            if got.size:
                return float(got[0]), unseen, True
        return _pivoted_refit(self.X, self.y, cols, train, test), unseen, False


def _columns(design: DesignMatrix, terms) -> tuple:
    """The design columns of the intercept and ``terms`` that :func:`fit_ols`
    keeps on the full data (``pivot[:rank]`` of their QR), in design order."""
    cols = np.array(sorted({0, *(c for name in terms for c in design.term(name).columns)}))
    qr = qr_block(design.X[:, cols])
    return tuple(cols[np.sort(qr.pivot[:qr.rank])].tolist())


def _factor_levels(design: DesignMatrix) -> list:
    """(dummy columns, level code per row, rows per level) of each factor; 0 is the reference."""
    out = []
    for t in design.terms:
        if t.kind == "factor":
            codes = design.level_codes(t.name)
            out.append((np.asarray(t.columns), codes, np.bincount(codes, minlength=len(t.columns) + 1)))
    return out


def _training_columns(X, cols, train, test, sparse, factors):
    """(columns, unseen-level held-out rows) of ``cols`` as the training rows
    alone would encode them.

    Drops every column that is zero on all training rows (only ``sparse``
    ones, with at most n - n_train nonzeros, can be) and, for a factor whose
    reference rows (those no dummy in ``cols`` marks) have no training row,
    the dummy of its first level with one, which becomes the reference.
    Held-out rows of a level with no training row predict at the reference.
    """
    cols = np.asarray(cols)
    maybe = cols[np.isin(cols, sparse)]
    drop = maybe[~X[np.ix_(train, maybe)].any(axis=0)].tolist()
    unseen = 0
    for dummies, codes, counts in factors:
        mine = np.isin(dummies, cols)
        if mine.any():
            held = np.bincount(codes[test], minlength=counts.size)
            trained = held < counts     # levels with a training row
            unseen += int(held[~trained].sum())
            if not (trained & np.r_[True, ~mine]).any():
                drop.append(dummies[np.argmax(trained[1:] & mine)])
    return tuple(cols[~np.isin(cols, drop)].tolist()), unseen


def _pivoted_refit(X, y, cols, train, test) -> float:
    """MSPE of the exact pivoted refit of ``cols`` on the training rows; an
    aliased column gets coefficient zero."""
    coef, _ = pivoted_effective_coef(X[np.ix_(train, cols)], y[train])
    err = y[test] - X[np.ix_(test, cols)] @ coef
    return float(err @ err) / err.size


def mc_cross_validate(design: DesignMatrix, config: CVConfig) -> CVResult:
    """Run the seeded Monte Carlo cross-validation loop.

    Every replication uses one shared train/test split across candidates;
    the training size is round-half-to-even(train_fraction * n).  Candidates
    with the same estimable columns are solved once per replication and get
    bit-identical MSPE columns; nested candidates share one factorization
    per chain (see :class:`_Chain`).  The result is a pure function of
    (design, config).
    """
    if not config.models:
        raise ValueError("no candidate models configured")
    n = design.n_rows
    n_train = round(config.train_fraction * n)
    if n_train >= n:
        raise ValueError(f"training size {n_train} leaves no held-out rows (n={n})")

    labels = tuple(lab for lab, _ in config.models)
    keys = [_columns(design, terms) for _, terms in config.models]
    max_cols = max(len(cols) for cols in keys)
    if n_train < max_cols + 1:
        raise ValueError(
            f"training size {n_train} is too small for the largest candidate "
            f"({max_cols} columns); need at least {max_cols + 1}")
    X, y = design.X, design.y
    sparse = np.flatnonzero(np.count_nonzero(X, axis=0) <= n - n_train)
    factors = _factor_levels(design)
    chains = _Chain.build(X, y, list(dict.fromkeys(keys)))
    starts = np.cumsum([0] + [chain.sizes.size for chain in chains]).tolist()
    column = {cols: k for k, cols in enumerate(cols for chain in chains for cols in chain.members)}

    reps = config.replications
    mspe = np.empty((reps, len(column)))
    tally = np.zeros((3, len(column)), dtype=np.int64)     # unseen rows, reduced, exact
    for i, (train, test) in enumerate(_replication_splits(config.seed, reps, n, n_train)):
        row = mspe[i]
        for chain, start in zip(chains, starts):
            got = chain.mspe(test)
            row[start:start + got.size] = got
            for j in range(got.size, chain.sizes.size):
                row[start + j], unseen, reduced = chain.fallback(j, train, test, sparse, factors)
                tally[:, start + j] += (unseen, reduced, not reduced)
    slot_of = [column[cols] for cols in keys]
    unseen, reduced, exact = (tuple(counts[slot_of].tolist()) for counts in tally)
    return CVResult(labels=labels, mspe=mspe[:, slot_of], config=config, unseen_level_rows=unseen,
                    exact_refits=exact, reduced_solves=reduced)
