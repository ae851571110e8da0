"""Correctness checks that share no code with regsel.

Every check recomputes what it needs from the files a run wrote, or from
the benchmark's own inputs, with ``numpy.linalg.lstsq`` and a Philox
generator keyed on (seed, replication) as documented for the
cross-validation splits.  Each returns a list of error messages; an empty
list means the check passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TOL_AIC = 1e-9          # a move must lower the search AIC by more than this
SAMPLED_REPS = 12       # random cross-validation replications re-derived per check


def _close(a: float, b: float, rel: float = 1e-8, abs_: float = 1e-6) -> bool:
    return abs(a - b) <= abs_ + rel * abs(b)


def search_aic(X: np.ndarray, y: np.ndarray, k: float) -> float:
    """n*ln(RSS/n) + k*rank from a least-squares solve."""
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    r = y - X @ coef
    n = y.size
    return n * math.log(float(r @ r) / n) + k * int(rank)


def heldout_mspe(X: np.ndarray, y: np.ndarray, train, test) -> float:
    coef = np.linalg.lstsq(X[train], y[train], rcond=None)[0]
    r = y[test] - X[test] @ coef
    return float(r @ r) / r.size


def split(seed: int, index: int, n: int, n_train: int):
    """Train/test rows of one replication: a Philox permutation keyed on (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    perm = np.random.Generator(np.random.Philox(key=key)).permutation(n)
    return perm[:n_train], perm[n_train:]


class PreparedData:
    """A prepared table read from its CSV and schema, encoded by the benchmark.

    Factors get one indicator column per level but the first in sorted
    order.  Fit quantities such as RSS, rank and predictions do not depend
    on which level is the reference.
    """

    def __init__(self, numeric: dict, factors: dict, y: np.ndarray, levels: dict | None = None):
        self.numeric, self.factors, self.y = numeric, factors, y
        self.levels = levels or {k: sorted(set(v)) for k, v in factors.items()}
        self.n = y.size
        self._blocks = {}

    @classmethod
    def read(cls, csv_path: Path, schema_path: Path) -> "PreparedData":
        roles = dict(line.split("\t")[:2] for line in
                     schema_path.read_text(encoding="utf-8").splitlines() if line.strip())
        with csv_path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], [r for r in rows[1:] if r]
        cols = {name: [r[j] for r in body] for j, name in enumerate(header)}
        numeric = {k: np.array(v, dtype=np.float64) for k, v in cols.items() if roles[k] == "numeric"}
        factors = {k: np.array(v, dtype=object) for k, v in cols.items() if roles[k] == "factor"}
        (resp,) = [k for k in header if roles[k] == "response"]
        return cls(numeric, factors, np.array(cols[resp], dtype=np.float64))

    def without_rows(self, rows) -> "PreparedData":
        keep = np.setdiff1d(np.arange(self.n), np.asarray(rows))
        return PreparedData({k: v[keep] for k, v in self.numeric.items()},
                            {k: v[keep] for k, v in self.factors.items()}, self.y[keep],
                            self.levels)

    def block(self, term: str) -> np.ndarray:
        if term not in self._blocks:
            if term in self.numeric:
                self._blocks[term] = self.numeric[term][:, None]
            else:
                labels = self.factors[term]
                self._blocks[term] = np.column_stack(
                    [(labels == lv).astype(np.float64) for lv in self.levels[term][1:]])
        return self._blocks[term]

    def matrix(self, terms) -> np.ndarray:
        return np.column_stack([np.ones(self.n)] + [self.block(t) for t in sorted(terms)])


def vif_within(data: PreparedData, kept, vstar: float) -> list:
    """Every kept numeric term's VIF, by auxiliary regression on the other kept numerics."""
    names = [t for t in kept if t in data.numeric]
    errors = []
    for name in names:
        x = data.numeric[name]
        others = np.column_stack([np.ones(data.n)] + [data.numeric[o] for o in names if o != name])
        coef = np.linalg.lstsq(others, x, rcond=None)[0]
        r = x - others @ coef
        tss = float(np.sum((x - x.mean()) ** 2))
        value = tss / float(r @ r)
        if not value <= vstar * (1 + 1e-9):
            errors.append(f"kept term {name} has VIF {value:.6g} > {vstar}")
    return errors


def _read_trace(path: Path):
    moves, formula = [], None
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split("\t")
        if cells[0] == "formula":
            formula = cells[1]
        else:
            moves.append((cells[1], cells[2], float(cells[3]), float(cells[4])))
    return moves, formula


def _formula_terms(formula: str) -> set:
    rhs = formula.split("~", 1)[1].strip()
    return set() if rhs == "1" else {t.strip() for t in rhs.split("+")}


def traces_recompute(data: PreparedData, kept, out_dir: Path, modes, k: float) -> list:
    """Replay each mode's trace: every AIC recomputes, and every move lowers it."""
    errors = []
    selected = json.loads((out_dir / "selected_models.json").read_text())
    for mode in modes:
        moves, formula = _read_trace(out_dir / f"trace_{mode}.tsv")
        current = set() if mode == "forward" else set(kept)
        aic = search_aic(data.matrix(current), data.y, k)
        for step, (direction, term, before, after) in enumerate(moves, start=1):
            legal = (term in current) if direction == "remove" else (term in kept and term not in current)
            if not legal:
                errors.append(f"{mode} step {step}: illegal move {direction} {term}")
                break
            if not _close(before, aic):
                errors.append(f"{mode} step {step}: aic_before {before!r} recomputes as {aic!r}")
            current = current - {term} if direction == "remove" else current | {term}
            aic = search_aic(data.matrix(current), data.y, k)
            if not _close(after, aic):
                errors.append(f"{mode} step {step}: aic_after {after!r} recomputes as {aic!r}")
            if not after < before - TOL_AIC:
                errors.append(f"{mode} step {step}: move does not lower the AIC")
        if formula is None or _formula_terms(formula) != current:
            errors.append(f"{mode}: trace formula does not match its replayed moves")
        if set(selected[mode]) != current:
            errors.append(f"{mode}: selected model does not match its trace")
    return errors


def no_improving_move(data: PreparedData, kept, out_dir: Path, modes, k: float) -> list:
    """No single legal term move lowers a final model's AIC by more than TOL_AIC."""
    errors = []
    selected = json.loads((out_dir / "selected_models.json").read_text())
    for mode in modes:
        final = set(selected[mode])
        aic = search_aic(data.matrix(final), data.y, k)
        for term in kept:
            if term in final and mode in ("backward", "both"):
                cand = final - {term}
            elif term not in final and mode in ("forward", "both"):
                cand = final | {term}
            else:
                continue
            cand_aic = search_aic(data.matrix(cand), data.y, k)
            if cand_aic < aic - TOL_AIC:
                errors.append(f"{mode}: moving {term} lowers the final AIC {aic!r} to {cand_aic!r}")
    return errors


def _sample_reps(replications: int, seed: int) -> list:
    rng = np.random.default_rng([seed, 99])
    picks = rng.choice(replications, size=min(SAMPLED_REPS, replications), replace=False)
    return sorted({0, replications - 1, *map(int, picks)})


def cv_dump_recompute(data: PreparedData, models: dict, dump: Path, cv_seed: int,
                      train_fraction: float, seed: int, replications: int) -> list:
    """Sampled rows of an MSPE dump match a lstsq refit on the re-derived split."""
    lines = dump.read_text(encoding="utf-8").splitlines()
    labels = lines[0].split("\t")[1:]
    values = np.array([[float(c) for c in line.split("\t")[1:]] for line in lines[1:]])
    if values.shape != (replications, len(labels)):
        return [f"{dump.name}: {values.shape[0]} rows x {len(labels)} models, "
                f"expected {replications} rows"]
    if not (np.isfinite(values).all() and (values > 0).all()):
        return [f"{dump.name}: MSPE values must be finite and positive"]
    n_train = round(train_fraction * data.n)
    mats = {lab: data.matrix(models[lab]) for lab in labels}
    errors = []
    for i in _sample_reps(replications, seed):
        train, test = split(cv_seed, i, data.n, n_train)
        for j, lab in enumerate(labels):
            want = heldout_mspe(mats[lab], data.y, train, test)
            got = float(values[i, j])
            if not _close(got, want, abs_=0.0):
                errors.append(f"{dump.name} replication {i + 1} {lab}: {got!r} vs {want!r}")
    return errors


def cv_wide(inputs, result, seed: int) -> list:
    """The cv-wide result against splits, refits and the expected error of the true model."""
    config = inputs.config
    labels = tuple(lab for lab, _ in config.models)
    reps, n = config.replications, inputs.y.size
    n_train = round(config.train_fraction * n)
    if tuple(result.labels) != labels or result.mspe.shape != (reps, len(labels)):
        return [f"result has labels {result.labels} and shape {result.mspe.shape}"]
    if not (np.isfinite(result.mspe).all() and (result.mspe > 0).all()):
        return ["MSPE values must be finite and positive"]
    errors = []

    levels = sorted(set(inputs.group))
    dummies = np.column_stack([(inputs.group == lv).astype(np.float64) for lv in levels[1:]])

    def column(term):       # numeric terms are named v01, v02, ...; the factor is grp
        return dummies if term == "grp" else inputs.X[:, int(term[1:]) - 1, None]

    mats = {lab: np.hstack([np.ones((n, 1))] + [column(t) for t in terms])
            for lab, terms in config.models}

    # rows of a non-reference level that no training row carries, per replication
    level_rows = [np.flatnonzero(inputs.group == lv) for lv in levels[1:]]
    unseen, unseen_reps = 0, []
    for i in range(reps):
        train, test = split(config.seed, i, n, n_train)
        in_train = np.zeros(n, dtype=bool)
        in_train[train] = True
        hit = sum(rows.size for rows in level_rows if not in_train[rows].any())
        if hit:
            unseen += hit
            unseen_reps.append(i)
    got = dict(zip(labels, result.unseen_level_rows))
    if got["full"] != unseen:
        errors.append(f"full: {got['full']} unseen-level rows reported, {unseen} counted from the splits")
    for lab in ("true", "mid"):
        if got[lab] != 0:
            errors.append(f"{lab}: {got[lab]} unseen-level rows reported for a model without the factor")

    for i in _sample_reps(reps, seed) + unseen_reps[:4]:
        train, test = split(config.seed, i, n, n_train)
        for j, lab in enumerate(labels):
            want = heldout_mspe(mats[lab], inputs.y, train, test)
            got = float(result.mspe[i, j])
            if not _close(got, want, abs_=0.0):
                errors.append(f"replication {i + 1} {lab}: {got!r} vs {want!r}")

    rank = mats["true"].shape[1]
    sigma2 = float(np.mean(inputs.noise ** 2))
    expected = sigma2 * (1.0 + rank / n_train)
    mean_true = float(result.mspe[:, 0].mean())
    if abs(mean_true - expected) > 0.05 * expected:
        errors.append(f"true: mean MSPE {mean_true:.6g} is not within 5% of {expected:.6g}")
    return errors
