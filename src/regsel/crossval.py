"""Seeded Monte Carlo cross-validation with MSPE reporting.

Each replication draws one random train/test split that every candidate
model shares, refits each candidate on the training rows, and scores the
mean squared prediction error on the held-out rows.

Reproducibility is the design driver: replication i's split comes from a
counter-based Philox stream keyed by (seed, i), so the MSPE vectors are a
pure function of (data, config): bitwise identical across runs, worker
counts, and replication-count extensions.  Training splits that alias a
factor dummy column (a level unseen in training) fall back to the
reference-level encoding for the affected held-out rows; those rows are
counted in the result's audit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import linalg

from .influence import interpolated_quantile
from .ols import pivoted_effective_coef
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


@dataclass(frozen=True)
class CVConfig:
    """Cross-validation parameters.

    ``models`` is an ordered tuple of (label, term-name tuple) pairs; every
    candidate is refit on the same split within a replication.  ``workers``
    only controls parallelism; results are identical for any value.
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
    the training split.
    """

    labels: tuple
    mspe: np.ndarray
    config: CVConfig
    unseen_level_rows: tuple

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
    """Per-model state for the replication loop: the model's column block as
    one contiguous array plus a prepared full-rank solver (LAPACK dgels).
    Rank-deficient training splits (an all-zero dummy column from an unseen
    factor level, or exact collinearity) fall back to the pivoted
    rank-revealing path so aliased columns predict at the reference level."""

    RANK_TRIGGER = 1e-8

    def __init__(self, design: DesignMatrix, n_train: int):
        self.X = np.ascontiguousarray(design.X)
        self.y = design.y
        self.p = design.n_cols
        self.factor_cols = np.asarray(
            [c for t in design.terms if t.kind == "factor" for c in t.columns],
            dtype=np.intp)
        self._gels, gels_lwork = linalg.get_lapack_funcs(("gels", "gels_lwork"), (self.X,))
        self._lwork = int(gels_lwork(n_train, self.p, 1)[0])

    def fit(self, train):
        """(effective coefficients, aliased mask or None) on the training rows."""
        Xt = self.X[train]
        lqr, bx, info = self._gels(Xt, self.y[train, None], lwork=self._lwork)
        diag = np.abs(np.diag(lqr[: self.p, : self.p]))
        if info == 0 and diag.min() >= self.RANK_TRIGGER * diag.max():
            return bx[: self.p, 0], None
        return pivoted_effective_coef(Xt, self.y[train])

    def mspe(self, train, test):
        coef, aliased = self.fit(train)
        err = self.y[test] - self.X[test] @ coef
        value = float(err @ err) / err.size
        unseen = 0
        if aliased is not None and self.factor_cols.size:
            hit = self.factor_cols[aliased[self.factor_cols]]
            if hit.size:
                unseen = int(np.count_nonzero(self.X[np.ix_(test, hit)].any(axis=1)))
        return value, unseen


def _one_replication(index, candidates, n, n_train, seed):
    train, test = replication_split(seed, index, n, n_train)
    mspes = np.empty(len(candidates))
    unseen = np.zeros(len(candidates), dtype=np.int64)
    for j, cand in enumerate(candidates):
        mspes[j], unseen[j] = cand.mspe(train, test)
    return mspes, unseen


def mc_cross_validate(design: DesignMatrix, config: CVConfig) -> CVResult:
    """Run the seeded Monte Carlo cross-validation loop.

    Every replication uses one shared train/test split across candidates;
    the training size is round-half-to-even(train_fraction * n).  The result
    is a pure function of (design, config), independent of ``workers``.
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
    candidates = [_Candidate(sub, n_train) for sub in subdesigns]

    reps = config.replications
    mspe = np.empty((reps, len(candidates)))
    unseen = np.zeros(len(candidates), dtype=np.int64)

    def run(i):
        return i, _one_replication(i, candidates, n, n_train, config.seed)

    if config.workers <= 1:
        results = map(run, range(reps))
        for i, (row, u) in results:
            mspe[i] = row
            unseen += u
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            for i, (row, u) in pool.map(run, range(reps)):
                mspe[i] = row
                unseen += u
    return CVResult(labels=labels, mspe=mspe, config=config,
                    unseen_level_rows=tuple(int(u) for u in unseen))


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
