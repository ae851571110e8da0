"""Bundled synthetic datasets with known ground truth.

:func:`make_dataset` builds an environmental-exposure-style study: two predictor tables
joined by id plus a separate response table, with planted signal variables,
a couple of near-collinear numeric pairs (so VIF pruning has real work),
sparse columns that the missing-data policy must drop, scattered missing
cells, and ids that appear in only one table.  Everything is a pure
function of the seed.

These datasets back the demos and the end-to-end tests; nothing here is
needed for ordinary library use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .table import ColumnRole, DesignMatrix, RawTable, write_schema, write_table

__all__ = ["SyntheticStudy", "make_dataset", "write_dataset", "make_wide_benchmark"]

N_COV = 14          # numeric columns in the covariate table (last one sparse)
N_EXP = 28          # numeric columns in the exposure table (last one sparse)


@dataclass(frozen=True)
class SyntheticStudy:
    covariates: RawTable
    exposures: RawTable
    response: RawTable
    truth: dict


def _sprinkle(rng, col, count):
    idx = rng.choice(col.size, size=count, replace=False)
    col[idx] = np.nan
    return col


def make_dataset(n: int = 500, seed: int = 6021) -> SyntheticStudy:
    """Two predictor tables plus a response table, with 3 planted signals.

    After the standard preparation (sparse-column drop at ratio 0.01, id
    join, row-wise NA omission, flag coercion) the data carries 40 numeric
    and 6 factor predictors.  The response is
    ``50 + 1.5*cov01 - 2*exp05 + group effects + N(0, 1)`` so it stays
    strictly positive for log refits.
    """
    rng = np.random.default_rng(seed)

    ids_a = np.arange(1, n + 1)
    ids_b = np.arange(3, n + 3)          # 2 unmatched ids on each side
    ids_y = np.arange(1, n + 3)

    cov = rng.standard_normal((n, N_COV))
    exp_ = rng.standard_normal((n, N_EXP))
    # near-duplicate pair and a three-way dependency: VIF pruning targets
    exp_[:, 1] = exp_[:, 0] + 0.08 * rng.standard_normal(n)
    exp_[:, 9] = (exp_[:, 8] + exp_[:, 10]) / np.sqrt(2.0) + 0.05 * rng.standard_normal(n)

    groups = ["g1", "g2", "g3"]
    site = rng.choice([f"s{i}" for i in range(1, 7)], size=n)
    group_b = rng.choice(groups, size=n)
    flag_a = rng.integers(0, 2, size=n).astype(np.float64)
    flag_b = rng.integers(0, 2, size=n).astype(np.float64)
    flag_c = rng.integers(0, 2, size=n).astype(np.float64)
    flag_d = np.array([str(v) for v in rng.integers(0, 2, size=n)], dtype=object)

    # the response covers the union of ids: ids_a are its first n, ids_b its last n
    group_effect = np.array([0.0, 0.8, 1.2])[np.searchsorted(groups, group_b)]
    sigma = 1.0
    mean = np.full(ids_y.size, 50.0)
    mean[:n] += 1.5 * cov[:, 0]
    mean[2:] += -2.0 * exp_[:, 4] + group_effect
    y = mean + sigma * rng.standard_normal(ids_y.size)

    # missing data: two sparse columns crossing the 1% line, light NA elsewhere
    cov[:, N_COV - 1] = _sprinkle(rng, cov[:, N_COV - 1], 8)
    exp_[:, N_EXP - 1] = _sprinkle(rng, exp_[:, N_EXP - 1], 6)
    for j in (2, 6):
        cov[:, j] = _sprinkle(rng, cov[:, j], 2)
    for j in (6, 11):
        exp_[:, j] = _sprinkle(rng, exp_[:, j], 2)

    cov_names = [f"cov{j + 1:02d}" for j in range(N_COV)]
    exp_names = [f"exp{j + 1:02d}" for j in range(N_EXP)]

    covariates = RawTable.build(
        names=["id", *cov_names, "site", "flag_a", "flag_b", "flag_d"],
        roles=[ColumnRole.ID] + [ColumnRole.NUMERIC] * N_COV
              + [ColumnRole.FACTOR, ColumnRole.NUMERIC, ColumnRole.NUMERIC, ColumnRole.FACTOR],
        columns=[ids_a, *[cov[:, j] for j in range(N_COV)], site, flag_a, flag_b, flag_d],
    )
    exposures = RawTable.build(
        names=["id", *exp_names, "group", "flag_c"],
        roles=[ColumnRole.ID] + [ColumnRole.NUMERIC] * N_EXP + [ColumnRole.FACTOR, ColumnRole.NUMERIC],
        columns=[ids_b, *[exp_[:, j] for j in range(N_EXP)], group_b, flag_c],
    )
    response = RawTable.build(
        names=["id", "outcome"],
        roles=[ColumnRole.ID, ColumnRole.RESPONSE],
        columns=[ids_y, y],
    )
    truth = {
        "signals": ("cov01", "exp05", "group"),
        "beta": {"(Intercept)": 50.0, "cov01": 1.5, "exp05": -2.0,
                 "groupg2": 0.8, "groupg3": 1.2},
        "sigma": sigma,
        "seed": seed,
        "coerce_to_factor": ("flag_a", "flag_b", "flag_c"),
    }
    return SyntheticStudy(covariates=covariates, exposures=exposures,
                          response=response, truth=truth)


def write_dataset(out_dir, n: int = 500, seed: int = 6021) -> dict:
    """Write the synthetic study as CSV + schema sidecars; returns the paths and truth."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    study = make_dataset(n=n, seed=seed)
    paths = {}
    for stem, table in (("covariates", study.covariates),
                        ("exposures", study.exposures),
                        ("outcome", study.response)):
        paths[stem] = write_table(table, out_dir / f"{stem}.csv")
        paths[f"{stem}_schema"] = write_schema(table, out_dir / f"{stem}.schema")
    paths["truth"] = study.truth
    return paths


def make_wide_benchmark(n: int = 1300, p: int = 70, seed: int = 417,
                        sigma: float = 1.0, n_signal: int = 25):
    """A wide numeric design for cross-validation benchmarks.

    Returns (design, models) where ``models`` maps three labels to nested
    term subsets: the true support, a superset, and the full term list.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:n_signal] = rng.normal(scale=1.0, size=n_signal)
    y = 5.0 + X @ beta + sigma * rng.standard_normal(n)
    design = DesignMatrix.from_arrays(X, y, names=[f"v{j + 1:02d}" for j in range(p)],
                                      response_name="outcome")
    names = design.term_names
    models = {
        "true": names[:n_signal],
        "mid": names[: (n_signal + p) // 2],
        "full": names,
    }
    return design, models
