"""The benchmark's workloads: the inputs each writes and the job it times.

Every workload's inputs are a pure function of ``--seed``.  ``setup``
writes the inputs into a fresh directory and returns what the job needs;
``run`` is the timed job; ``check`` verifies its outputs with the
independent recomputations in :mod:`checks`; ``same_output`` tells whether
a later round reproduced the first round's outputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# The reference protocol of the study: cohort size and the one excluded row
# (1-based, in the prepared dataset) of the outlier rerun.  The study itself
# is the bundled one (synth's default seed); --seed drives the CV splits.
# Seeding the study too would change which models are selected, and with
# them the job's work, by a third from seed to seed.
STUDY_N = 1301
STUDY_EXCLUDED_ROW = 985
STUDY_SIGNALS = ("cov01", "exp05", "group")
MODES = ("forward", "backward", "both")

SELECT_N, SELECT_BASE, SELECT_SIGNALS, SELECT_PARTNERS = 1300, 90, 20, 10
SELECT_SITES = 6
SELECT_CV_REPS = 300

CV_N, CV_P, CV_SIGNALS = 1300, 70, 25
CV_REPS, CV_TRAIN_FRACTION = 8000, 0.8


def _stream(seed: int, workload: int) -> np.random.Generator:
    """The input generator of one workload; workloads never share a stream."""
    return np.random.default_rng([seed, workload])


def _write_merged(path: Path, columns: dict, roles: dict) -> tuple:
    """Write one merged CSV table plus its schema sidecar."""
    names = list(columns)
    n = len(next(iter(columns.values())))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(n):
            writer.writerow([repr(float(columns[k][i])) if roles[k] in ("numeric", "response")
                             else str(columns[k][i]) for k in names])
    schema = path.with_suffix(".schema")
    schema.write_text("".join(f"{k}\t{roles[k]}\n" for k in names), encoding="utf-8")
    return path, schema


def _write_config(path: Path, lines) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _bundle(out_dir: Path) -> dict:
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


class _Pipeline:
    """A workload whose job is ``regsel all`` on a config written by ``setup``."""

    def run(self, config: Path, out_dir: Path) -> Path:
        import regsel.cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = regsel.cli.main(["all", "--config", str(config), "--out", str(out_dir)])
        if code != 0:
            raise RuntimeError(f"regsel all exited with code {code}")
        return out_dir

    def same_output(self, first: Path, other: Path) -> bool:
        return _bundle(first) == _bundle(other)


class StudyRef(_Pipeline):
    """``regsel all`` on the bundled two-table study at the paper's cohort size."""

    name = "study-ref"

    def setup(self, seed: int, in_dir: Path) -> Path:
        from regsel import synth

        synth.write_dataset(in_dir, n=STUDY_N)
        return _write_config(in_dir / "study.cfg", [
            "table_a = covariates.csv", "schema_a = covariates.schema",
            "table_b = exposures.csv", "schema_b = exposures.schema",
            "response_table = outcome.csv", "response_schema = outcome.schema",
            "na_ratio = 0.01", "vstar = 10", "k_penalty = 2",
            "modes = forward,backward,both",
            "factor_columns = flag_a,flag_b,flag_c",
            f"exclude_rows = {STUDY_EXCLUDED_ROW}",
            "cv_replications = 8000", "cv_train_fraction = 0.8",
            f"cv_seed = {seed}", "cv_workers = 1",
            "log_refit = true", "report_model = forward",
        ])

    def check(self, config: Path, out_dir: Path, seed: int) -> list:
        errors = []
        selected = json.loads((out_dir / "selected_models.json").read_text())
        missing = [s for s in STUDY_SIGNALS if s not in selected["forward"]]
        if missing:
            errors.append(f"forward model lacks planted terms {missing}")
        data = checks.PreparedData.read(out_dir / "prep.csv", out_dir / "prep.schema")
        kept = json.loads((out_dir / "kept_terms.json").read_text())
        errors += checks.vif_within(data, kept, 10.0)
        for sub, rows in (("", None), ("excluded", [STUDY_EXCLUDED_ROW - 1])):
            part = data.without_rows(rows) if rows else data
            base = out_dir / sub
            errors += [f"{sub or 'primary'}: {e}" for e in checks.traces_recompute(
                part, kept, base, MODES, k=2.0)]
            models = json.loads((base / "selected_models.json").read_text())
            errors += [f"{sub or 'primary'}: {e}" for e in checks.cv_dump_recompute(
                part, models, base / "cv_mspe.tsv", seed, 0.8, seed, 8000)]
        return errors


class SelectWide(_Pipeline):
    """``regsel all`` on one merged table whose search space is wide."""

    name = "select-wide"

    def setup(self, seed: int, in_dir: Path) -> Path:
        rng = _stream(seed, 2)
        n = SELECT_N
        base = rng.standard_normal((n, SELECT_BASE))
        beta = np.zeros(SELECT_BASE)
        signal = rng.choice(SELECT_BASE, size=SELECT_SIGNALS, replace=False)
        beta[signal] = rng.choice([-1.0, 1.0], size=SELECT_SIGNALS) * rng.uniform(0.15, 0.8, SELECT_SIGNALS)
        partner_of = rng.choice(SELECT_BASE, size=SELECT_PARTNERS, replace=False)
        partners = base[:, partner_of] + 0.1 * rng.standard_normal((n, SELECT_PARTNERS))
        site = rng.integers(0, SELECT_SITES, size=n)
        site_effect = rng.normal(scale=0.5, size=SELECT_SITES)
        y = 100.0 + base @ beta + site_effect[site] + rng.standard_normal(n)

        columns = {"id": np.arange(1, n + 1)}
        roles = {"id": "id"}
        for j in range(SELECT_BASE):
            columns[f"x{j + 1:02d}"] = base[:, j]
        for k in range(SELECT_PARTNERS):
            columns[f"z{k + 1:02d}"] = partners[:, k]
        for key in columns:
            roles.setdefault(key, "numeric")
        columns["site"] = np.array([f"s{s + 1}" for s in site])
        roles["site"] = "factor"
        columns["outcome"] = y
        roles["outcome"] = "response"
        table, schema = _write_merged(in_dir / "wide.csv", columns, roles)
        return _write_config(in_dir / "wide.cfg", [
            f"merged_table = {table.name}", f"merged_schema = {schema.name}",
            "na_ratio = 0.01", "vstar = 10", "k_penalty = 2",
            "modes = forward,backward,both",
            f"cv_replications = {SELECT_CV_REPS}", "cv_train_fraction = 0.8",
            f"cv_seed = {seed}", "cv_workers = 1",
            "log_refit = true", "report_model = forward",
        ])

    def check(self, config: Path, out_dir: Path, seed: int) -> list:
        data = checks.PreparedData.read(out_dir / "prep.csv", out_dir / "prep.schema")
        kept = json.loads((out_dir / "kept_terms.json").read_text())
        errors = checks.vif_within(data, kept, 10.0)
        errors += checks.traces_recompute(data, kept, out_dir, MODES, k=2.0)
        errors += checks.no_improving_move(data, kept, out_dir, MODES, k=2.0)
        return errors


@dataclass
class CvInputs:
    design: object          # regsel DesignMatrix loaded from the written table
    config: object          # regsel CVConfig
    X: np.ndarray           # the benchmark's own copy of the predictors
    group: np.ndarray       # factor labels
    y: np.ndarray
    noise: np.ndarray       # the planted errors


class CvWide:
    """``mc_cross_validate`` on three nested candidates, the largest with a rare factor level."""

    name = "cv-wide"

    def setup(self, seed: int, in_dir: Path) -> CvInputs:
        from regsel import CVConfig, encode_design, load_table, read_schema

        rng = _stream(seed, 3)
        n, p = CV_N, CV_P
        X = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:CV_SIGNALS] = rng.normal(size=CV_SIGNALS)
        noise = rng.standard_normal(n)
        y = 5.0 + X @ beta + noise
        # a null factor: two common levels and one level carried by two rows
        group = rng.choice(np.array(["a", "b"]), size=n)
        group[rng.choice(n, size=2, replace=False)] = "c"

        columns = {"id": np.arange(1, n + 1)}
        roles = {"id": "id"}
        for j in range(p):
            columns[f"v{j + 1:02d}"] = X[:, j]
            roles[f"v{j + 1:02d}"] = "numeric"
        columns["grp"], roles["grp"] = group, "factor"
        columns["outcome"], roles["outcome"] = y, "response"
        table, schema = _write_merged(in_dir / "cv.csv", columns, roles)

        design = encode_design(load_table(table, read_schema(schema)))
        numeric = [f"v{j + 1:02d}" for j in range(p)]
        models = {"true": numeric[:CV_SIGNALS],
                  "mid": numeric[: (CV_SIGNALS + p) // 2],
                  "full": numeric + ["grp"]}
        config = CVConfig.for_models(models, replications=CV_REPS,
                                     train_fraction=CV_TRAIN_FRACTION, seed=seed)
        return CvInputs(design=design, config=config, X=X, group=group, y=y, noise=noise)

    def run(self, inputs: CvInputs, out_dir: Path):
        import regsel.crossval

        return regsel.crossval.mc_cross_validate(inputs.design, inputs.config)

    def check(self, inputs: CvInputs, result, seed: int) -> list:
        return checks.cv_wide(inputs, result, seed)

    def same_output(self, first, other) -> bool:
        return (np.array_equal(first.mspe, other.mspe)
                and first.unseen_level_rows == other.unseen_level_rows)


WORKLOADS = {w.name: w for w in (StudyRef(), SelectWide(), CvWide())}
