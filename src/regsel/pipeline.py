"""Batch workflow: prep -> prune -> select -> diagnose -> cv -> report.

Every stage reads its inputs from checkpoint files in the output directory
and writes its own outputs there, so any stage can be rerun alone and a
stage-by-stage run is byte-identical to a single-shot :func:`run_pipeline`.
Outputs carry no timestamps; identical inputs and config give identical
bundles.  Every file, checkpoints included, is written through
:func:`regsel.report.write_file`: to a temp file, then moved into place, so a
failed write leaves the previous one whole.  The prepared design is parsed
at most once per process and shared by the stages while the bytes of
``prep.csv`` and ``prep.schema`` and the output directory stay the same; the
prep stage hands the design it encoded to the later stages, so a single
:func:`run_pipeline` never parses them, and a table that cannot be encoded
fails in prep before any file is written.

Row exclusions (the outlier protocol) are 1-based row numbers into the
prepared dataset (the same numbers the influence files report); a row past
it fails prep.  Excluded artifacts mirror the primary ones inside an
``excluded/`` subdirectory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import report as rpt
from .crossval import CVConfig, mc_cross_validate
from .influence import influence_flags, vif, vif_prune
from .ols import fit_ols, refit_log_response
from .stepwise import COMPARISON_ROWS, MODES, ComparisonTable, Scope, compare_models, format_trace, step_select_modes
from .table import DesignMatrix, _number, _read_text, coerce_to_factor, drop_incomplete_rows, drop_sparse_columns, encode_design, load_table, merge_by_id, read_schema, tsv_lines, write_schema, write_table

__all__ = ["RunConfig", "PipelineError", "read_config", "run_pipeline", "run_stage", "STAGES",
           "write_reference_config"]

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
    cross-validation replications at an 80% training fraction.

    A config is checked when it is built, however it is built: one input
    route must be set and every setting must be in range, or ValueError.
    """

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
    log_refit: bool = True
    report_model: str = "forward"
    top_m_full: int = 10
    top_m_selected: int = 15
    emit_svg: bool = False
    out_dir: str = "out"

    def __post_init__(self):
        _validate_config(self)

    @property
    def out(self) -> Path:
        return Path(self.out_dir)

    def scope(self) -> Scope:
        return Scope(k=self.k_penalty)


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
# keys that no longer set anything; config files that still carry them parse
_RETIRED_KEYS = ("cv_workers",)


def _parse_value(name: str, raw: str, source: str | None = None):
    """Parse a config value as the type of the field's default (text when None).

    A value of the wrong type raises ValueError("<source> expects <type>, got
    '<raw>'"); ``source`` defaults to "config key '<name>'".
    """
    source = source or f"config key '{name}'"
    raw = raw.strip()
    kind = type(_DEFAULTS[name])
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{source} expects true/false, got {raw!r}")
    try:
        if kind in (int, float):
            return _number(raw, kind)
        if kind is tuple:
            items = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
            return tuple(_number(tok, int) for tok in items) if name == "exclude_rows" else items
    except ValueError:
        expected = {int: "an integer", float: "a number"}.get(kind, "comma-separated integers")
        raise ValueError(f"{source} expects {expected}, got {raw!r}") from None
    return "\t" if name == "delimiter" and raw == r"\t" else raw


def read_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a ``key = value`` config file (``#`` comments, blank lines ok).

    Relative paths in the file are resolved against the file's directory.
    ``overrides`` (CLI flags; None values are skipped) are applied after
    that and win over file values; a path among them is used as given, so a
    relative one is relative to the working directory.  Unknown keys and a
    key set twice are rejected; a retired key is accepted and ignored.
    """
    path = Path(path)
    values: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(_read_text(path, "config").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in _RETIRED_KEYS:
            continue
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: config key '{key}' is set twice "
                             f"(first on line {first_line[key]})")
        first_line[key] = lineno
        try:
            values[key] = _parse_value(key, val.split("#", 1)[0])     # a comment ends the line
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    for key in ("table_a", "schema_a", "table_b", "schema_b", "response_table",
                "response_schema", "merged_table", "merged_schema", "out_dir"):
        if key in values and not Path(values[key]).is_absolute():
            values[key] = str(path.parent / values[key])
    values.update((key, val) for key, val in (overrides or {}).items() if val is not None)
    return RunConfig(**values)


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
    for kind, values in (("mode", cfg.modes), ("factor column", cfg.factor_columns),
                         ("excluded row", cfg.exclude_rows)):
        for value in values:
            if values.count(value) > 1:
                raise ValueError(f"{kind} '{value}' is listed twice")
    if cfg.modes and cfg.report_model not in (*cfg.modes, "full"):
        raise ValueError(f"report_model '{cfg.report_model}' is not among the enabled modes")
    if len(cfg.delimiter) != 1 or cfg.delimiter in '"\r\n':
        raise ValueError("delimiter must be one character other than a quote or a line break "
                         rf"(\t for a tab), got {cfg.delimiter!r}")
    if any(r < 1 for r in cfg.exclude_rows):
        raise ValueError("exclude_rows are 1-based row numbers; 0 or negatives are invalid")
    if not 0.0 <= cfg.na_ratio <= 1.0:
        raise ValueError(f"na_ratio must be in [0, 1], got {cfg.na_ratio}")
    if not cfg.vstar > 1.0:
        raise ValueError(f"vstar must exceed 1, got {cfg.vstar}")
    for key, least in (("max_factor_levels", 2), ("top_m_full", 1), ("top_m_selected", 1)):
        if getattr(cfg, key) < least:
            raise ValueError(f"{key} must be >= {least}, got {getattr(cfg, key)}")
    # the library's own checks of the search penalty and the CV settings
    cfg.scope()
    CVConfig(models=(), replications=cfg.cv_replications, train_fraction=cfg.cv_train_fraction,
             seed=cfg.cv_seed)


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
delimiter = ,              # one character; \\t for a tab

na_ratio = 0.01            # drop predictor columns with >= ratio * n missing
factor_columns =           # comma-separated numeric columns to coerce to factors
factor_auto = false        # also coerce numeric columns with values in {0,1}
max_factor_levels = 12     # a coerced column with more distinct values is an error
vstar = 10                 # VIF pruning threshold
modes = forward,backward,both
k_penalty = 2              # AIC penalty per coefficient in the search
exclude_rows =             # 1-based rows for the outlier-exclusion rerun, e.g. 985
cv_replications = 8000
cv_train_fraction = 0.8
cv_seed = 20883271
log_refit = true           # also emit diagnostics for the log-response refit
report_model = forward     # which selected model the report stage describes
top_m_full = 10            # top-influence flags on the full model
top_m_selected = 15        # top-influence flags on the selected models
emit_svg = false
out_dir = out
"""


def write_reference_config(path) -> Path:
    return rpt.write_string(path, REFERENCE_CONFIG)


# ---------------------------------------------------------------------------
# Stage plumbing
# ---------------------------------------------------------------------------


def _checkpoint(stage: str, path: Path) -> bytes:
    """The bytes of a checkpoint file; a missing one names the stage that writes it."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise PipelineError(stage, f"missing checkpoint {path.name}",
                            hint=f"run the '{_PRODUCERS[path.name]}' stage first") from None


def _term_lists(stage: str, path: Path, terms: tuple, modes: tuple | None = None):
    """A JSON checkpoint of term names, checked against what its producer
    writes: ``kept_terms.json`` lists names among ``terms``, and
    ``selected_models.json`` (``modes`` given) maps each mode to such a list.
    Any other content raises PipelineError naming the file and the stage to rerun."""
    try:
        obj = json.loads(_checkpoint(stage, path))
    except ValueError:      # half-written, or not JSON at all
        obj = None

    def listed(value) -> bool:
        return isinstance(value, list) and all(isinstance(t, str) and t in terms for t in value)

    if modes is None:
        valid, want = listed(obj), "a list of the prepared design's terms"
    else:
        valid = isinstance(obj, dict) and all(listed(obj.get(mode)) for mode in modes)
        want = f"a list of kept terms for each configured mode ({', '.join(modes)})"
    if not valid:
        raise PipelineError(stage, f"checkpoint {path} does not hold {want}",
                            hint=f"rerun the '{_PRODUCERS[path.name]}' stage")
    return obj


# The encoded prepared design of one output directory, keyed by the directory
# and the SHA-256 of the ``prep.csv`` and ``prep.schema`` bytes it came from.
# The prep stage hands over the design it encoded; another stage parses the files.
_PREPARED: dict = {}


def _prepared_key(stage: str, out: Path) -> tuple:
    digests = [hashlib.sha256(_checkpoint(stage, out / name)).hexdigest()
               for name in ("prep.csv", "prep.schema")]
    return (out.resolve(), *digests)


def _prepared(stage: str, out: Path) -> DesignMatrix:
    """The encoded prepared design, parsed at most once per process while the
    bytes of ``prep.csv`` and ``prep.schema`` and the directory stay the same."""
    key = _prepared_key(stage, out)
    if key not in _PREPARED:
        _hold_prepared(key, encode_design(load_table(out / "prep.csv",
                                                     read_schema(out / "prep.schema"))))
    return _PREPARED[key]


def _hold_prepared(key: tuple, design: DesignMatrix) -> None:
    # X and y are shared by every stage, so read-only
    design.X.flags.writeable = False
    design.y.flags.writeable = False
    _PREPARED.clear()
    _PREPARED[key] = design


def _selected(stage: str, cfg: RunConfig, design: DesignMatrix, out: Path) -> dict:
    """{mode: [term, ...]} of the models the select stage wrote to ``out``."""
    return _term_lists(stage, out / "selected_models.json", design.term_names, cfg.modes)


def _check_exclude_rows(stage: str, cfg: RunConfig, design: DesignMatrix) -> None:
    last = max(cfg.exclude_rows, default=0)
    if last > design.n_rows:
        raise PipelineError(stage, f"exclude_rows names row {last} but the "
                                   f"prepared dataset has {design.n_rows} rows")


def _runs(cfg: RunConfig, stage: str) -> list:
    """(pruned design, output directory) of the primary run, then of the
    excluded-rows rerun when ``exclude_rows`` is set."""
    out = cfg.out
    design = _prepared(stage, out)
    design = design.subset_terms(_term_lists(stage, out / "kept_terms.json", design.term_names))
    runs = [(design, out)]
    if cfg.exclude_rows:
        _check_exclude_rows(stage, cfg, design)
        runs.append((design.drop_rows(np.asarray(cfg.exclude_rows, dtype=np.intp) - 1),
                     out / "excluded"))
    return runs


def _write_json(path: Path, obj) -> Path:
    return rpt.write_string(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _load_keyed(path, schema_path, delimiter: str):
    """A table of the two-table route, loaded as load_table loads it; a repeated
    id is an error naming the file, the id column and both data rows."""
    table = load_table(path, read_schema(schema_path), delimiter)
    first = {}
    for row, value in enumerate(table.column(table.id_name).tolist() if table.id_name else (), start=1):
        if first.setdefault(value, row) != row:
            raise ValueError(f"{Path(path)}: column '{table.id_name}', data row {row}: "
                             f"duplicate id {value!r} (also data row {first[value]})")
    return table


def _merge(left, right, files: str):
    """merge_by_id(left, right), an error of which names ``files``, the files the tables come from."""
    try:
        return merge_by_id(left, right)
    except ValueError as exc:
        raise ValueError(f"{files}: {exc}") from None


def _stage_prep(cfg: RunConfig) -> list:
    out = cfg.out
    if cfg.merged_table is not None:
        table = load_table(cfg.merged_table, read_schema(cfg.merged_schema), cfg.delimiter)
        table = drop_sparse_columns(table, cfg.na_ratio)
    else:
        a = _load_keyed(cfg.table_a, cfg.schema_a, cfg.delimiter)
        b = _load_keyed(cfg.table_b, cfg.schema_b, cfg.delimiter)
        resp = _load_keyed(cfg.response_table, cfg.response_schema, cfg.delimiter)
        a = drop_sparse_columns(a, cfg.na_ratio)
        b = drop_sparse_columns(b, cfg.na_ratio)
        table = _merge(_merge(a, b, f"{cfg.table_a} and {cfg.table_b}"), resp,
                       f"{cfg.table_a}, {cfg.table_b} and {cfg.response_table}")
    table = drop_incomplete_rows(table)
    table = coerce_to_factor(table, cfg.factor_columns, auto=cfg.factor_auto,
                             max_levels=cfg.max_factor_levels)
    design = encode_design(table)
    if cfg.log_refit and (design.y <= 0.0).any():
        i = int(np.flatnonzero(design.y <= 0.0)[0])
        raise PipelineError("prep", f"log_refit needs a positive response, but '{design.response_name}' "
                            f"is {design.y[i]} in prepared row {i + 1} (id {design.row_ids[i]})",
                            hint="set log_refit = false, or make every response value positive")
    if (design.y == design.y[0]).all():
        raise PipelineError("prep", f"the response '{design.response_name}' is {design.y[0]} in every "
                            "prepared row, so no model can explain it",
                            hint="check the response column and the rows prep keeps")
    _check_exclude_rows("prep", cfg, design)
    out.mkdir(parents=True, exist_ok=True)     # only once the inputs have loaded and encoded
    paths = [
        rpt.write_file(out / "prep.csv", lambda tmp: write_table(table, tmp)),
        rpt.write_file(out / "prep.schema", lambda tmp: write_schema(table, tmp)),
    ]
    # the files read back as this design, so later stages in this process skip parsing them
    _hold_prepared(_prepared_key("prep", out), design)
    paths.append(rpt.write_lines(out / "audit.txt", table.audit))
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
    paths.append(rpt.write_lines(out / "vif_trail.tsv", tsv_lines(
        ("step", "variable", "vif_at_removal"), range(1, len(after.trail) + 1), *zip(*after.trail))))
    paths.append(_write_json(out / "kept_terms.json", list(pruned.term_names)))
    return paths


def _stage_select(cfg: RunConfig) -> list:
    paths = []
    for design, out in _runs(cfg, "select"):
        out.mkdir(parents=True, exist_ok=True)
        traces = step_select_modes(design, cfg.scope(), cfg.modes)
        paths += [rpt.write_string(out / f"trace_{mode}.tsv", format_trace(traces[mode]))
                  for mode in cfg.modes]
        paths.append(_write_json(out / "selected_models.json",
                                 {mode: list(traces[mode].final_terms) for mode in cfg.modes}))
    return paths


def _stage_diagnose(cfg: RunConfig) -> list:
    """Influence files and ``comparison.tsv`` of each run, then the side-by-side table."""
    runs = _runs(cfg, "diagnose")
    paths, tables = [], []
    for design, out in runs if cfg.modes else runs[:1]:     # no modes: the rerun has no models
        selected = _selected("diagnose", cfg, design, out)
        full_fit = fit_ols(design)
        full_report = influence_flags(full_fit, min(cfg.top_m_full, full_fit.n))
        paths.append(rpt.write_influence_data(full_fit, full_report, out / "influence_full.tsv"))
        models = [fit_ols(design.subset_terms(selected[mode])) for mode in cfg.modes]
        for mode, fit in zip(cfg.modes, models):
            flags = influence_flags(fit, min(cfg.top_m_selected, fit.n))
            paths.append(rpt.write_influence_data(fit, flags, out / f"influence_{mode}.tsv"))
            if cfg.emit_svg:
                paths.append(rpt.svg_scatter(
                    flags.leverage, flags.cooks_d, out / f"influence_{mode}.svg",
                    highlight=flags.top_influence, xlabel="leverage", ylabel="Cook's distance",
                    vline=2.0 * flags.mean_leverage))
        if models:
            tables.append(compare_models(models, labels=tuple(cfg.modes)))
            paths.append(rpt.write_string(out / "comparison.tsv", tables[-1].to_tsv()))
    if len(tables) == 2:
        # side-by-side table: full-data columns then excluded-data columns
        full, excl = tables
        side_table = ComparisonTable(
            labels=tuple(f"{l}_full" for l in full.labels) + tuple(f"{l}_excluded" for l in excl.labels),
            cells={row: full.cells[row] + excl.cells[row] for row in COMPARISON_ROWS})
        paths.append(rpt.write_string(cfg.out / "comparison_side_by_side.tsv", side_table.to_tsv()))
    return paths


def _stage_cv(cfg: RunConfig) -> list:
    if not cfg.modes:
        return []
    paths = []
    for design, out in _runs(cfg, "cv"):
        selected = _selected("cv", cfg, design, out)
        config = CVConfig.for_models({mode: selected[mode] for mode in cfg.modes},
                                     replications=cfg.cv_replications,
                                     train_fraction=cfg.cv_train_fraction,
                                     seed=cfg.cv_seed)
        result = mc_cross_validate(design, config)
        paths.append(rpt.write_mspe_dump(result, out / "cv_mspe.tsv"))
        paths.append(rpt.write_mspe_summary(result, out / "cv_summary.tsv"))
        paths += rpt.emit_mspe_boxplot_data(result, out, root=False)
        paths += rpt.emit_mspe_boxplot_data(result, out, root=True)
        paths.append(rpt.write_lines(out / "cv_audit.txt", [
            f"{lab}: {count} held-out rows used the reference-level fallback for unseen factor levels"
            for lab, count in zip(result.labels, result.unseen_level_rows)]))
        if cfg.emit_svg:
            paths.append(rpt.svg_boxplot(
                {lab: result.column(lab) for lab in result.labels}, out / "cv_mspe.svg", ylabel="MSPE"))
    return paths


def _stage_report(cfg: RunConfig) -> list:
    design, out = _runs(cfg, "report")[0]
    terms = design.term_names
    if cfg.modes and cfg.report_model != "full":
        terms = _selected("report", cfg, design, out)[cfg.report_model]
    model = fit_ols(design.subset_terms(terms))
    paths = rpt.write_summary(model, out / "model_report.txt", out / "model_report.tsv",
                              k=cfg.k_penalty)
    paths += rpt.residual_diagnostics(model, out, prefix="identity")
    av_model = model
    if cfg.log_refit:
        log_model = refit_log_response(model)
        paths += rpt.residual_diagnostics(log_model, out, prefix="log")
        av_model = log_model
    paths += rpt.write_added_variable_data(av_model, out)
    return paths


# Each stage in run order: its function, the checkpoints it writes that later
# stages read, and the hint a failure of it carries.
_STAGES = {
    "prep": (_stage_prep, ("prep.csv", "prep.schema"),
             "check the input paths and schema files named in the config"),
    "prune": (_stage_prune, ("kept_terms.json",), "rerun 'prep' first"),
    "select": (_stage_select, ("selected_models.json",), "rerun 'prep' and 'prune' first"),
    "diagnose": (_stage_diagnose, (), "rerun 'select' first"),
    "cv": (_stage_cv, (), "rerun 'select' first; cv_train_fraction may be too small for the models"),
    "report": (_stage_report, (), "rerun 'select' first"),
}
STAGES = tuple(_STAGES)
# The stage that writes each checkpoint file.
_PRODUCERS = {name: stage for stage, (_, writes, _) in _STAGES.items() for name in writes}


def run_stage(stage: str, cfg: RunConfig) -> list:
    """Run one pipeline stage against the config's output directory."""
    if stage not in _STAGES:
        raise ValueError(f"unknown stage '{stage}'; expected one of {STAGES}")
    func, _, hint = _STAGES[stage]
    try:
        return func(cfg)
    except PipelineError:
        raise
    except Exception as exc:
        # the message itself: str() of a KeyError is the repr of its message
        message = str(exc.args[0]) if len(exc.args) == 1 else str(exc)
        raise PipelineError(stage, message, hint=hint) from exc


def run_pipeline(cfg: RunConfig) -> dict:
    """Run every stage in order; returns {stage: [Path, ...]} of the files each wrote."""
    return {stage: run_stage(stage, cfg) for stage in STAGES}
