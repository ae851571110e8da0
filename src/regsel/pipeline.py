"""Batch workflow: prep -> prune -> select -> diagnose -> cv -> report.

Every stage reads its inputs from checkpoint files in the output directory
and writes its own outputs there, so any stage can be rerun alone and a
stage-by-stage run is byte-identical to a single-shot :func:`run_pipeline`.
Outputs carry no timestamps; identical inputs and config give identical
bundles.  Checkpoints are written to a temp file and moved into place, so a
failed write leaves the previous one whole.  The prepared design is parsed
once per process and shared by the stages while the bytes of ``prep.csv``
and ``prep.schema`` and the output directory stay the same.

Row exclusions (the outlier protocol) are 1-based row numbers into the
prepared dataset (the same numbers the influence files report).  Excluded
artifacts mirror the primary ones inside an ``excluded/`` subdirectory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import report as rpt
from .crossval import CVConfig, emit_mspe_boxplot_data, mc_cross_validate, write_mspe_dump, write_mspe_summary
from .influence import influence_flags, vif, vif_prune
from .ols import fit_ols, refit_log_response, write_summary
from .stepwise import COMPARISON_ROWS, MODES, ComparisonTable, Scope, compare_models, format_trace, step_select_modes
from .table import DesignMatrix, coerce_to_factor, drop_incomplete_rows, drop_sparse_columns, encode_design, load_table, merge_by_id, read_schema, write_schema, write_table

__all__ = ["RunConfig", "PipelineError", "ReportBundle", "run_pipeline", "run_stage",
           "STAGES", "write_reference_config"]

STAGES = ("prep", "prune", "select", "diagnose", "cv", "report")

OUT_DIR_ENV = "REGSEL_OUT"


class PipelineError(Exception):
    """Stage-tagged failure with a remediation hint."""

    def __init__(self, stage: str, message: str, hint: str | None = None):
        self.stage = stage
        self.hint = hint
        text = f"[{stage}] {message}"
        if hint:
            text += f" (hint: {hint})"
        super().__init__(text)


@dataclass(frozen=True)
class RunConfig:
    """Pipeline parameters; the numeric defaults are the reference protocol:
    sparse-column ratio 0.01, VIF threshold 10, AIC penalty 2, 8000
    cross-validation replications at an 80% training fraction."""

    # inputs: either the two predictor tables + response table, or one merged table
    table_a: str | None = None
    schema_a: str | None = None
    table_b: str | None = None
    schema_b: str | None = None
    response_table: str | None = None
    response_schema: str | None = None
    merged_table: str | None = None
    merged_schema: str | None = None
    delimiter: str = ","

    na_ratio: float = 0.01
    factor_columns: tuple = ()
    factor_auto: bool = False
    max_factor_levels: int = 12
    vstar: float = 10.0
    modes: tuple = MODES
    k_penalty: float = 2.0
    exclude_rows: tuple = ()            # 1-based rows of the prepared dataset
    cv_replications: int = 8000
    cv_train_fraction: float = 0.8
    cv_seed: int = 20883271
    cv_workers: int = 1                 # accepted; has no effect
    log_refit: bool = True
    report_model: str = "forward"
    top_m_full: int = 10
    top_m_selected: int = 15
    emit_svg: bool = False
    out_dir: str = "out"

    @property
    def out(self) -> Path:
        return Path(self.out_dir)

    def scope(self) -> Scope:
        return Scope(k=self.k_penalty)


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    """Parse a config value as the type of the field's default (text when None)."""
    raw = raw.split("#", 1)[0].strip()    # allow trailing comments
    kind = type(_DEFAULTS[name])
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"config key '{name}' expects true/false, got {raw!r}")
    if kind in (int, float):
        return kind(raw)
    if kind is tuple:
        items = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
        if name == "exclude_rows":
            return tuple(int(tok) for tok in items)
        return items
    return raw


def read_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a ``key = value`` config file (``#`` comments, blank lines ok).

    Relative input paths are resolved against the config file's directory;
    ``overrides`` (CLI flags) win over file values.  Unknown keys are
    rejected.  The ``REGSEL_OUT`` environment variable, when set, overrides
    the output directory.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
        values[key] = _parse_value(key, val)
    if overrides:
        for key, val in overrides.items():
            if val is not None:
                values[key] = val
    env_out = os.environ.get(OUT_DIR_ENV)
    if env_out:
        values["out_dir"] = env_out

    base = path.parent
    for key in ("table_a", "schema_a", "table_b", "schema_b", "response_table",
                "response_schema", "merged_table", "merged_schema", "out_dir"):
        if values.get(key) is not None and not Path(values[key]).is_absolute():
            values[key] = str(base / values[key])
    cfg = RunConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    merged_route = cfg.merged_table is not None
    split_route = cfg.table_a is not None
    if merged_route == split_route:
        raise ValueError("exactly one input route must be configured: merged_table, "
                         "or table_a/table_b/response_table")
    if split_route:
        for key in ("table_a", "schema_a", "table_b", "schema_b", "response_table", "response_schema"):
            if getattr(cfg, key) is None:
                raise ValueError(f"config key '{key}' is required for the two-table route")
    elif cfg.merged_schema is None:
        raise ValueError("config key 'merged_schema' is required with merged_table")
    bad_modes = set(cfg.modes) - set(MODES)
    if bad_modes:
        raise ValueError(f"unknown selection modes: {', '.join(sorted(bad_modes))}")
    if cfg.modes and cfg.report_model not in (*cfg.modes, "full"):
        raise ValueError(f"report_model '{cfg.report_model}' is not among the enabled modes")
    if any(r < 1 for r in cfg.exclude_rows):
        raise ValueError("exclude_rows are 1-based row numbers; 0 or negatives are invalid")


REFERENCE_CONFIG = """\
# regsel pipeline configuration (key = value; # starts a comment)
# Input route A: two predictor tables joined by id, plus a response table.
table_a = covariates.csv
schema_a = covariates.schema
table_b = exposures.csv
schema_b = exposures.schema
response_table = outcome.csv
response_schema = outcome.schema
# Input route B (instead of the above): merged_table = data.csv / merged_schema = data.schema
delimiter = ,

na_ratio = 0.01            # drop predictor columns with >= ratio * n missing
factor_columns =           # comma-separated numeric columns to coerce to factors
factor_auto = false        # also coerce numeric columns with values in {0,1}
vstar = 10                 # VIF pruning threshold
modes = forward,backward,both
k_penalty = 2              # AIC penalty per coefficient in the search
exclude_rows =             # 1-based rows for the outlier-exclusion rerun, e.g. 985
cv_replications = 8000
cv_train_fraction = 0.8
cv_seed = 20883271
cv_workers = 1             # accepted; has no effect (cross-validation runs in one thread)
log_refit = true           # also emit diagnostics for the log-response refit
report_model = forward     # which selected model the report stage describes
top_m_full = 10            # top-influence flags on the full model
top_m_selected = 15        # top-influence flags on the selected models
emit_svg = false
out_dir = out
"""


def write_reference_config(path) -> Path:
    path = Path(path)
    path.write_text(REFERENCE_CONFIG, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Stage plumbing
# ---------------------------------------------------------------------------


@dataclass
class ReportBundle:
    """Paths emitted per stage."""

    out_dir: Path
    files: dict = field(default_factory=dict)

    def add(self, stage: str, paths) -> None:
        self.files.setdefault(stage, [])
        self.files[stage].extend(Path(p) for p in paths)


def _checkpoint(stage: str, path: Path, producer: str) -> bytes:
    """The bytes of a checkpoint file; a missing one names the stage that writes it."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise PipelineError(stage, f"missing checkpoint {path.name}",
                            hint=f"run the '{producer}' stage first") from None


def _prepared(stage: str, out: Path) -> DesignMatrix:
    """The encoded prepared design, parsed once per process while the bytes
    of ``prep.csv`` and ``prep.schema`` and the directory stay the same."""
    digests = [hashlib.sha256(_checkpoint(stage, out / name, "prep")).hexdigest()
               for name in ("prep.csv", "prep.schema")]
    return _parse_prepared(out.resolve(), *digests)


@functools.lru_cache(maxsize=1)
def _parse_prepared(directory: Path, csv_digest: str, schema_digest: str) -> DesignMatrix:
    # the digests only key the cache; X and y are shared by every stage, so read-only
    design = encode_design(load_table(directory / "prep.csv", read_schema(directory / "prep.schema")))
    design.X.flags.writeable = False
    design.y.flags.writeable = False
    return design


def _runs(cfg: RunConfig, stage: str) -> list:
    """(pruned design, output directory) of the primary run, then of the
    excluded-rows rerun when ``exclude_rows`` is set."""
    out = cfg.out
    design = _prepared(stage, out)
    design = design.subset_terms(json.loads(_checkpoint(stage, out / "kept_terms.json", "prune")))
    runs = [(design, out)]
    if cfg.exclude_rows:
        last = max(cfg.exclude_rows)
        if last > design.n_rows:
            raise PipelineError(stage, f"exclude_rows names row {last} but the "
                                       f"prepared dataset has {design.n_rows} rows")
        runs.append((design.drop_rows(np.asarray(cfg.exclude_rows, dtype=np.intp) - 1),
                     out / "excluded"))
    return runs


def _replace(path: Path, write) -> Path:
    """Call ``write`` on a temp file beside ``path``, then move it into place,
    so a failed or interrupted write never leaves a partial checkpoint."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _write_json(path: Path, obj) -> Path:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return _replace(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _stage_prep(cfg: RunConfig) -> list:
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    if cfg.merged_table is not None:
        table = load_table(cfg.merged_table, read_schema(cfg.merged_schema), cfg.delimiter)
        table = drop_sparse_columns(table, cfg.na_ratio)
    else:
        a = load_table(cfg.table_a, read_schema(cfg.schema_a), cfg.delimiter)
        b = load_table(cfg.table_b, read_schema(cfg.schema_b), cfg.delimiter)
        resp = load_table(cfg.response_table, read_schema(cfg.response_schema), cfg.delimiter)
        a = drop_sparse_columns(a, cfg.na_ratio)
        b = drop_sparse_columns(b, cfg.na_ratio)
        table = merge_by_id(merge_by_id(a, b), resp)
    table = drop_incomplete_rows(table)
    table = coerce_to_factor(table, cfg.factor_columns, auto=cfg.factor_auto,
                             max_levels=cfg.max_factor_levels)
    paths = [
        _replace(out / "prep.csv", lambda tmp: write_table(table, tmp)),
        _replace(out / "prep.schema", lambda tmp: write_schema(table, tmp)),
    ]
    audit = out / "audit.txt"
    audit.write_text("\n".join(table.audit) + "\n", encoding="utf-8")
    paths.append(audit)
    return paths


def _stage_prune(cfg: RunConfig) -> list:
    out = cfg.out
    design = _prepared("prune", out)
    before = vif(design)
    pruned, after = vif_prune(design, vstar=cfg.vstar)
    paths = [
        rpt.write_vif_values(before.values, out / "vif_values_before.tsv"),
        rpt.write_vif_histogram(before.values, out / "vif_hist_before.tsv"),
        rpt.write_vif_values(after.values, out / "vif_values_after.tsv"),
        rpt.write_vif_histogram(after.values, out / "vif_hist_after.tsv"),
    ]
    trail_lines = ["step\tvariable\tvif_at_removal"]
    trail_lines += [f"{i + 1}\t{name}\t{v!r}" for i, (name, v) in enumerate(after.trail)]
    trail = out / "vif_trail.tsv"
    trail.write_text("\n".join(trail_lines) + "\n", encoding="utf-8")
    paths.append(trail)
    paths.append(_write_json(out / "kept_terms.json", list(pruned.term_names)))
    return paths


def _select_into(cfg: RunConfig, design: DesignMatrix, out: Path) -> list:
    out.mkdir(parents=True, exist_ok=True)
    scope = cfg.scope()
    selected = {}
    paths = []
    traces = step_select_modes(design, scope, cfg.modes)
    for mode in cfg.modes:
        trace = traces[mode]
        selected[mode] = list(trace.final_terms)
        trace_path = out / f"trace_{mode}.tsv"
        trace_path.write_text(format_trace(trace), encoding="utf-8")
        paths.append(trace_path)
    paths.append(_write_json(out / "selected_models.json", selected))
    return paths


def _stage_select(cfg: RunConfig) -> list:
    return [path for design, out in _runs(cfg, "select") for path in _select_into(cfg, design, out)]


def _diagnose_into(cfg: RunConfig, design: DesignMatrix, out: Path):
    """Write the influence files and ``comparison.tsv``; returns the paths and
    the ComparisonTable (None with no modes)."""
    selected = json.loads(_checkpoint("diagnose", out / "selected_models.json", "select"))
    paths = []
    full_fit = fit_ols(design)
    full_report = influence_flags(full_fit, min(cfg.top_m_full, full_fit.n))
    paths.append(rpt.write_influence_data(full_fit, full_report, out / "influence_full.tsv"))
    models, labels = [], []
    for mode in cfg.modes:
        fit = fit_ols(design.subset_terms(selected[mode]))
        models.append(fit)
        labels.append(mode)
        flags = influence_flags(fit, min(cfg.top_m_selected, fit.n))
        paths.append(rpt.write_influence_data(fit, flags, out / f"influence_{mode}.tsv"))
        if cfg.emit_svg:
            paths.append(rpt.svg_scatter(
                flags.leverage, flags.cooks_d, out / f"influence_{mode}.svg",
                highlight=flags.top_influence, xlabel="leverage", ylabel="Cook's distance",
                vline=2.0 * flags.mean_leverage))
    table = None
    if models:
        table = compare_models(models, labels=tuple(labels))
        comp = out / "comparison.tsv"
        comp.write_text(table.to_tsv(), encoding="utf-8")
        paths.append(comp)
    return paths, table


def _stage_diagnose(cfg: RunConfig) -> list:
    runs = _runs(cfg, "diagnose")
    paths, tables = [], []
    for design, out in runs if cfg.modes else runs[:1]:     # no modes: the rerun has no models
        more, table = _diagnose_into(cfg, design, out)
        paths += more
        tables.append(table)
    if len(tables) == 2:
        # side-by-side table: full-data columns then excluded-data columns
        full, excl = tables
        side_table = ComparisonTable(
            labels=tuple(f"{l}_full" for l in full.labels) + tuple(f"{l}_excluded" for l in excl.labels),
            cells={row: full.cells[row] + excl.cells[row] for row in COMPARISON_ROWS})
        side = cfg.out / "comparison_side_by_side.tsv"
        side.write_text(side_table.to_tsv(), encoding="utf-8")
        paths.append(side)
    return paths


def _cv_into(cfg: RunConfig, design: DesignMatrix, out: Path) -> list:
    selected = json.loads(_checkpoint("cv", out / "selected_models.json", "select"))
    config = CVConfig.for_models({mode: selected[mode] for mode in cfg.modes},
                                 replications=cfg.cv_replications,
                                 train_fraction=cfg.cv_train_fraction,
                                 seed=cfg.cv_seed, workers=cfg.cv_workers)
    result = mc_cross_validate(design, config)
    paths = [
        write_mspe_dump(result, out / "cv_mspe.tsv"),
        write_mspe_summary(result, out / "cv_summary.tsv"),
    ]
    paths += emit_mspe_boxplot_data(result, out, root=False)
    paths += emit_mspe_boxplot_data(result, out, root=True)
    audit = out / "cv_audit.txt"
    audit.write_text("".join(
        f"{lab}: {count} held-out rows used the reference-level fallback for unseen factor levels\n"
        for lab, count in zip(result.labels, result.unseen_level_rows)), encoding="utf-8")
    paths.append(audit)
    if cfg.emit_svg:
        paths.append(rpt.svg_boxplot(
            {lab: result.column(lab) for lab in result.labels}, out / "cv_mspe.svg", ylabel="MSPE"))
    return paths


def _stage_cv(cfg: RunConfig) -> list:
    if not cfg.modes:
        return []
    return [path for design, out in _runs(cfg, "cv") for path in _cv_into(cfg, design, out)]


def _stage_report(cfg: RunConfig) -> list:
    design, out = _runs(cfg, "report")[0]
    terms = design.term_names
    if cfg.modes and cfg.report_model != "full":
        terms = json.loads(_checkpoint("report", out / "selected_models.json", "select"))[cfg.report_model]
    model = fit_ols(design.subset_terms(terms))
    paths = list(write_summary(model, out / "model_report.txt", out / "model_report.tsv",
                               k=cfg.k_penalty))
    paths += rpt.residual_diagnostics(model, out, prefix="identity")
    av_model = model
    if cfg.log_refit:
        log_model = refit_log_response(model)
        paths += rpt.residual_diagnostics(log_model, out, prefix="log")
        av_model = log_model
    paths += rpt.write_added_variable_data(av_model, out, prefix="av")
    return paths


_STAGE_FUNCS = {
    "prep": _stage_prep,
    "prune": _stage_prune,
    "select": _stage_select,
    "diagnose": _stage_diagnose,
    "cv": _stage_cv,
    "report": _stage_report,
}

_STAGE_HINTS = {
    "prep": "check the input paths and schema files named in the config",
    "prune": "rerun 'prep', then check vstar against the data",
    "select": "rerun 'prep' and 'prune' first",
    "diagnose": "rerun 'select' first",
    "cv": "rerun 'select' first; cv_train_fraction may be too small for the models",
    "report": "rerun 'select' first",
}


def run_stage(stage: str, cfg: RunConfig) -> list:
    """Run one pipeline stage against the config's output directory."""
    if stage not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage '{stage}'; expected one of {STAGES}")
    try:
        return _STAGE_FUNCS[stage](cfg)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(stage, str(exc), hint=_STAGE_HINTS.get(stage)) from exc


def run_pipeline(cfg: RunConfig) -> ReportBundle:
    """Run every stage in order and return the emitted file inventory."""
    bundle = ReportBundle(out_dir=cfg.out)
    for stage in STAGES:
        bundle.add(stage, run_stage(stage, cfg))
    return bundle
