"""Seeded Monte Carlo cross-validation with MSPE reporting.

Each replication draws one random train/test split that every candidate
model shares and scores the mean squared prediction error on the held-out
rows.  No training split is refit: each distinct candidate is factored once
on the full data, and its held-out errors follow from the multi-row
deletion identity e_(T) = e_T + Q_T (I - Q_TᵀQ_T)⁻¹ Q_Tᵀ e_T (see
:class:`_Candidate`).  A candidate whose full-data QR is rank deficient, or
whose training Gram is near singular in a replication, takes the exact
pivoted refit on the training rows instead; those replications are counted
in the result's ``exact_refits``.

Reproducibility is the design driver: replication i's split comes from a
counter-based Philox stream keyed by (seed, i), so the MSPE vectors are a
pure function of (data, config): bitwise identical across runs and
replication-count extensions.  Training splits that alias a factor dummy
column (a level unseen in training) fall back to the reference-level
encoding for the affected held-out rows; those rows are counted in the
result's audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import linalg

from .influence import interpolated_quantile
from .ols import pivoted_effective_coef, qr_block
from .table import DesignMatrix

__all__ = [
    "CVConfig",
    "CVResult",
    "FiveNumberSummary",
    "replication_rng",
    "replication_split",
    "mc_cross_validate",
    "five_number_summary",
    "emit_mspe_boxplot_data",
    "write_mspe_dump",
    "write_mspe_summary",
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
    candidate is scored on the same split within a replication.  ``workers``
    is accepted and has no effect: the loop runs in the calling thread,
    because threads contend on the interpreter lock and on BLAS and made
    the loop slower, not faster.
    """

    models: tuple
    replications: int = 8000
    train_fraction: float = 0.8
    seed: int = 20883271
    workers: int = 1

    @classmethod
    def for_models(cls, models, **kwargs) -> "CVConfig":
        """Accept ``{label: terms}`` mappings or (label, terms) pairs."""
        if hasattr(models, "items"):
            pairs = tuple((str(k), tuple(v)) for k, v in models.items())
        else:
            pairs = tuple((str(k), tuple(v)) for k, v in models)
        return cls(models=pairs, **kwargs)


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
    identity (empty when not recorded).
    """

    labels: tuple
    mspe: np.ndarray
    config: CVConfig
    unseen_level_rows: tuple
    exact_refits: tuple = ()

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
    if v.size == 0:
        raise ValueError("five-number summary of an empty vector")
    return FiveNumberSummary(
        minimum=float(v.min()),
        q1=interpolated_quantile(v, 0.25),
        median=interpolated_quantile(v, 0.50),
        mean=float(v.mean()),
        q3=interpolated_quantile(v, 0.75),
        maximum=float(v.max()),
    )


# ---------------------------------------------------------------------------
# The Monte Carlo loop
# ---------------------------------------------------------------------------


class _Candidate:
    """One distinct column block: its full-data QR and its exact fallback.

    With the full-data factorization X = QR (Q is n x p with orthonormal
    columns) and full-data residuals e, deleting the test rows T from the
    fit gives the held-out errors

        e_(T) = e_T + Q_T (I - Q_TᵀQ_T)⁻¹ Q_Tᵀ e_T,

    the multi-row form of the PRESS identity (Cook & Weisberg 1982).
    I - Q_TᵀQ_T is the training rows' Gram Q_trainᵀQ_train, so a replication
    costs a gather of the test rows of Q, one p x p Gram and a Cholesky
    factor-and-solve; no training split is refit.

    The exact path refits the training rows with the pivoted rank-revealing
    solver, so aliased columns (an all-zero dummy from a factor level unseen
    in training, or exact collinearity) predict at the reference level.  A
    candidate takes it in every replication when its full-data QR is rank
    deficient (|R_kk| < RANK_TRIGGER * |R_00|), and in a replication whose
    training Gram is not positive definite or has a squared Cholesky pivot
    below PIVOT_FLOOR (the Gram's diagonal is at most 1).
    """

    RANK_TRIGGER = 1e-8
    PIVOT_FLOOR = 1e-6

    def __init__(self, design: DesignMatrix):
        self.X = np.ascontiguousarray(design.X)
        self.y = design.y
        self.factor_cols = np.asarray(
            [c for t in design.terms if t.kind == "factor" for c in t.columns],
            dtype=np.intp)
        qr = qr_block(self.X, self.RANK_TRIGGER)
        self.q = None
        if qr.rank == self.X.shape[1]:
            self.q = np.ascontiguousarray(qr.q)
            self.e = self.y - self.q @ (self.q.T @ self.y)
            self._potrf, self._potrs = linalg.get_lapack_funcs(("potrf", "potrs"), (self.q,))

    def _deletion_errors(self, test):
        """Held-out errors by the deletion identity, or None if the Gram is near singular."""
        qt, et = self.q[test], self.e[test]
        gram = qt.T @ qt
        gram *= -1.0
        gram.flat[:: gram.shape[0] + 1] += 1.0
        chol, info = self._potrf(gram, overwrite_a=True, clean=False)
        if info != 0 or np.diag(chol).min() ** 2 < self.PIVOT_FLOOR:
            return None
        z, _ = self._potrs(chol, qt.T @ et)
        return et + qt @ z

    def mspe(self, train, test):
        """(MSPE, unseen-level held-out rows, whether the exact path ran)."""
        err = None if self.q is None else self._deletion_errors(test)
        if err is not None:
            return float(err @ err) / err.size, 0, False
        coef, aliased = pivoted_effective_coef(self.X[train], self.y[train])
        err = self.y[test] - self.X[test] @ coef
        unseen = 0
        hit = self.factor_cols[aliased[self.factor_cols]]
        if hit.size:
            unseen = int(np.count_nonzero(self.X[np.ix_(test, hit)].any(axis=1)))
        return float(err @ err) / err.size, unseen, True


def mc_cross_validate(design: DesignMatrix, config: CVConfig) -> CVResult:
    """Run the seeded Monte Carlo cross-validation loop.

    Every replication uses one shared train/test split across candidates;
    the training size is round-half-to-even(train_fraction * n).  Candidates
    with the same column set are solved once per replication and get
    bit-identical MSPE columns.  The result is a pure function of
    (design, config).
    """
    if config.replications < 1:
        raise ValueError("replications must be >= 1")
    if not 0.0 < config.train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {config.train_fraction}")
    if not config.models:
        raise ValueError("no candidate models configured")
    n = design.n_rows
    n_train = round(config.train_fraction * n)
    if n_train >= n:
        raise ValueError(f"training size {n_train} leaves no held-out rows (n={n})")

    labels = tuple(lab for lab, _ in config.models)
    subdesigns = [design.subset_terms(terms) for _, terms in config.models]
    max_cols = max(c.n_cols for c in subdesigns)
    if n_train < max_cols + 1:
        raise ValueError(
            f"training size {n_train} is too small for the largest candidate "
            f"({max_cols} columns); need at least {max_cols + 1}")
    slots = {}                  # column names -> the first candidate with them
    for sub in subdesigns:
        slots.setdefault(sub.column_names, sub)
    keys = list(slots)
    candidates = [_Candidate(slots[key]) for key in keys]
    slot_of = [keys.index(sub.column_names) for sub in subdesigns]

    reps = config.replications
    mspe = np.empty((reps, len(candidates)))
    unseen = np.zeros(len(candidates), dtype=np.int64)
    exact = np.zeros(len(candidates), dtype=np.int64)
    for i, (train, test) in enumerate(_replication_splits(config.seed, reps, n, n_train)):
        for j, cand in enumerate(candidates):
            mspe[i, j], u, x = cand.mspe(train, test)
            unseen[j] += u
            exact[j] += x
    return CVResult(labels=labels, mspe=mspe[:, slot_of], config=config,
                    unseen_level_rows=tuple(int(unseen[j]) for j in slot_of),
                    exact_refits=tuple(int(exact[j]) for j in slot_of))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def write_mspe_dump(result: CVResult, path) -> Path:
    """Raw MSPE dump: one row per replication, one column per model."""
    path = Path(path)
    lines = ["replication\t" + "\t".join(result.labels)]
    for i in range(result.mspe.shape[0]):
        lines.append(str(i + 1) + "\t" + "\t".join(repr(float(v)) for v in result.mspe[i]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


_SUMMARY_ROWS = ("Min.", "1st Qu.", "Median", "Mean", "3rd Qu.", "Max.")


def write_mspe_summary(result: CVResult, path) -> Path:
    """Two summary tables (MSPE and root MSPE), six rows each."""
    path = Path(path)
    blocks = []
    for title, root in (("MSPE", False), ("Root MSPE", True)):
        summaries = result.summaries(root=root)
        lines = [f"# {title}", "statistic\t" + "\t".join(result.labels)]
        for row_name, idx in zip(_SUMMARY_ROWS, range(6)):
            vals = [summaries[lab].as_tuple()[idx] for lab in result.labels]
            lines.append(row_name + "\t" + "\t".join(repr(float(v)) for v in vals))
        blocks.append("\n".join(lines))
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return path


def emit_mspe_boxplot_data(result: CVResult, out_dir, root: bool = False) -> list:
    """Per-model boxplot data: five-number summary, 1.5*IQR whisker fences,
    and every point beyond the fences.  Enough to redraw the boxplots."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = result.rmspe if root else result.mspe
    suffix = "rmspe" if root else "mspe"
    paths = []
    for j, label in enumerate(result.labels):
        v = data[:, j]
        s = five_number_summary(v)
        lo_fence = s.q1 - 1.5 * s.iqr
        hi_fence = s.q3 + 1.5 * s.iqr
        lines = ["statistic\tvalue"]
        for key, val in (("min", s.minimum), ("q1", s.q1), ("median", s.median),
                         ("mean", s.mean), ("q3", s.q3), ("max", s.maximum),
                         ("iqr", s.iqr), ("lower_fence", lo_fence), ("upper_fence", hi_fence)):
            lines.append(f"{key}\t{val!r}")
        for val in v[(v < lo_fence) | (v > hi_fence)]:
            lines.append(f"outlier\t{float(val)!r}")
        path = out_dir / f"boxplot_{suffix}_{label}.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
