import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from regsel import PipelineError, RunConfig, pipeline, run_pipeline, run_stage
from regsel.cli import main as cli_main
from regsel.pipeline import read_config, write_reference_config
from regsel.synth import write_dataset
from oracles import assert_same_design

CONFIG_TEMPLATE = """\
table_a = covariates.csv
schema_a = covariates.schema
table_b = exposures.csv
schema_b = exposures.schema
response_table = outcome.csv
response_schema = outcome.schema
factor_columns = flag_a,flag_b,flag_c
cv_replications = 25
exclude_rows = 5
out_dir = {out}
"""


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    write_dataset(path, n=160, seed=6021)
    return path


def config_text(out, **extra) -> str:
    """CONFIG_TEMPLATE with the ``extra`` keys set; one the template sets takes the new value."""
    kept = [line for line in CONFIG_TEMPLATE.format(out=out).splitlines(keepends=True)
            if line.partition(" =")[0] not in extra]
    return "".join(kept) + "".join(f"{key} = {val}\n" for key, val in extra.items())


def write_config(dataset_dir, out_name, **extra) -> Path:
    path = dataset_dir / f"config_{out_name}.cfg"
    path.write_text(config_text(out_name, **extra))
    return path


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_defaults_are_the_reference_protocol():
    cfg = RunConfig(merged_table="data.csv", merged_schema="data.schema")
    assert cfg.na_ratio == 0.01
    assert cfg.vstar == 10.0
    assert cfg.k_penalty == 2.0
    assert cfg.cv_replications == 8000
    assert cfg.cv_train_fraction == 0.8
    assert cfg.cv_seed == 20883271
    assert cfg.modes == ("forward", "backward", "both")
    assert cfg.log_refit is True


def test_every_config_field_parses_back_to_its_default():
    for f in fields(RunConfig):
        if f.default is None:
            assert pipeline._parse_value(f.name, "x.csv") == "x.csv", f.name
            continue
        raw = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else str(f.default)
        got = pipeline._parse_value(f.name, raw)
        assert type(got) is type(f.default) and got == f.default, f.name


def test_read_config_resolves_and_overrides(dataset_dir):
    path = write_config(dataset_dir, "outA")
    cfg = read_config(path)
    assert Path(cfg.table_a).is_absolute()
    assert cfg.exclude_rows == (5,)
    assert cfg.cv_replications == 25
    over = read_config(path, overrides={"cv_seed": 99, "exclude_rows": (7, 8)})
    assert over.cv_seed == 99 and over.exclude_rows == (7, 8)


def test_read_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("merged_table = x.csv\nmerged_schema = x.schema\nwat = 1\n")
    with pytest.raises(ValueError, match="unknown config key 'wat'"):
        read_config(bad)


def test_read_config_requires_exactly_one_route(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("table_a = a.csv\nmerged_table = m.csv\n")
    with pytest.raises(ValueError, match="exactly one input route"):
        read_config(bad)
    bad.write_text("out_dir = somewhere\n")
    with pytest.raises(ValueError, match="exactly one input route"):
        read_config(bad)


def test_reference_config_parses(tmp_path, dataset_dir):
    path = tmp_path / "ref.cfg"
    write_reference_config(path)
    for stem in ("covariates", "exposures", "outcome"):
        for ext in (".csv", ".schema"):
            (tmp_path / f"{stem}{ext}").write_bytes((dataset_dir / f"{stem}{ext}").read_bytes())
    cfg = read_config(path)
    keys = {line.partition("=")[0].strip() for line in pipeline.REFERENCE_CONFIG.splitlines()
            if line.strip() and not line.startswith("#")}
    inputs = {"table_a", "schema_a", "table_b", "schema_b", "response_table", "response_schema",
              "merged_table", "merged_schema", "out_dir"}
    for f in fields(RunConfig):
        if f.name not in inputs:
            assert f.name in keys, f.name
            assert getattr(cfg, f.name) == f.default, f.name


@pytest.mark.parametrize("key, raw", [
    ("cv_replications", "0"), ("cv_train_fraction", "0"), ("cv_train_fraction", "1.0"),
    ("cv_seed", "-1"), ("cv_seed", str(2 ** 64)),
])
def test_read_config_rejects_bad_cv_settings(tmp_path, key, raw):
    path = tmp_path / "bad.cfg"
    path.write_text(f"merged_table = m.csv\nmerged_schema = m.schema\n{key} = {raw}\n")
    with pytest.raises(ValueError, match=key.removeprefix("cv_")):
        read_config(path)


def test_out_override_is_used_as_given(dataset_dir, tmp_path, monkeypatch):
    path = write_config(dataset_dir, "outRel")
    monkeypatch.chdir(tmp_path)
    assert read_config(path, overrides={"out_dir": "here"}).out == Path("here")
    assert read_config(path).out == dataset_dir / "outRel"


def test_read_config_skips_a_byte_order_mark(tmp_path):
    text = "merged_table = m.csv\nmerged_schema = m.schema\nvstar = 5\n"
    (tmp_path / "plain.cfg").write_text(text)
    (tmp_path / "bom.cfg").write_text("\ufeff" + text)
    assert read_config(tmp_path / "bom.cfg") == read_config(tmp_path / "plain.cfg")


def test_retired_key_is_accepted_and_ignored(tmp_path):
    text = "merged_table = m.csv\nmerged_schema = m.schema\n"
    (tmp_path / "plain.cfg").write_text(text)
    (tmp_path / "retired.cfg").write_text(text + "cv_workers = 4\n")
    assert read_config(tmp_path / "retired.cfg") == read_config(tmp_path / "plain.cfg")
    assert "cv_workers" not in {f.name for f in fields(RunConfig)}


DELIMITER = "delimiter must be one character other than a quote or a line break (\\t for a tab), got "


@pytest.mark.parametrize("key, raw, message", [
    ("k_penalty", "0", "penalty k must be positive, got 0.0"),
    ("k_penalty", "inf", "penalty k must be finite, got inf"),
    ("k_penalty", "nan", "penalty k must be finite, got nan"),
    ("vstar", "1", "vstar must exceed 1, got 1.0"),
    ("top_m_full", "0", "top_m_full must be >= 1, got 0"),
    ("top_m_selected", "0", "top_m_selected must be >= 1, got 0"),
    ("max_factor_levels", "1", "max_factor_levels must be >= 2, got 1"),
    ("max_factor_levels", "-1", "max_factor_levels must be >= 2, got -1"),
    ("na_ratio", "1.5", "na_ratio must be in [0, 1], got 1.5"),
    ("modes", "forward,sideways", "unknown selection modes: sideways"),
    ("modes", "backward", "report_model 'forward' is not among the enabled modes"),
    ("exclude_rows", "3,0", "exclude_rows are 1-based row numbers; 0 or negatives are invalid"),
    ("exclude_rows", "3,3", "excluded row '3' is listed twice"),
    ("delimiter", ";;", DELIMITER + "';;'"),
    ("delimiter", "", DELIMITER + "''"),
])
def test_bad_settings_fail_before_any_stage_runs(dataset_dir, tmp_path, capsys, key, raw, message):
    out = tmp_path / "out"
    path = dataset_dir / f"bad_{key}.cfg"
    path.write_text(config_text(out, **{key: raw}))
    with pytest.raises(ValueError) as excinfo:
        read_config(path)
    assert str(excinfo.value) == message
    assert cli_main(["all", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"regsel: config error: {message}\n"
    assert not out.exists()


ROUTE = "merged_table = m.csv\nmerged_schema = m.schema\nout_dir = out\n"


@pytest.mark.parametrize("text, message", [
    (ROUTE + "log_refit = maybe\n", "{cfg}:4: config key 'log_refit' expects true/false, got 'maybe'"),
    (None, "config file not found: {cfg}"),
    (ROUTE + "vstar 10\n", "{cfg}:4: expected 'key = value', got 'vstar 10'"),
    ("table_a = a.csv\nschema_a = a.schema\ntable_b = b.csv\nschema_b = b.schema\n"
     "response_table = r.csv\nout_dir = out\n",
     "config key 'response_schema' is required for the two-table route"),
    ("merged_table = m.csv\nout_dir = out\n", "config key 'merged_schema' is required with merged_table"),
    (ROUTE + "vstar = 10\nvstar = 5\n", "{cfg}:5: config key 'vstar' is set twice (first on line 4)"),
    (ROUTE + "modes = forward,forward\n", "mode 'forward' is listed twice"),
    (ROUTE + "factor_columns = b,b\n", "factor column 'b' is listed twice"),
    (ROUTE + "cv_replications = 1_0\n", "{cfg}:4: config key 'cv_replications' expects an integer, got '1_0'"),
    (ROUTE + "vstar = \u0661\u0665\n", "{cfg}:4: config key 'vstar' expects a number, got '\u0661\u0665'"),
    (ROUTE + "exclude_rows = \u0663\n",
     "{cfg}:4: config key 'exclude_rows' expects comma-separated integers, got '\u0663'"),
], ids=["bool", "no-file", "no-equals", "two-table-key", "merged-schema", "key-set-twice",
        "mode-listed-twice", "factor-listed-twice", "underscore-int", "arabic-indic-float",
        "arabic-indic-rows"])
def test_malformed_config_exits_2_before_any_output(tmp_path, capsys, text, message):
    cfg = tmp_path / "c.cfg"
    if text is not None:
        cfg.write_text(text)
    assert cli_main(["all", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"regsel: config error: {message.format(cfg=cfg)}\n"
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_exits_2_naming_the_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(ROUTE.encode() + "# caf\u00e9\n".encode("latin-1"))
    assert cli_main(["all", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"regsel: config error: {cfg}: line 4: byte 0xe9 is not UTF-8\n"
    assert not (tmp_path / "out").exists()


def test_unknown_stage_is_rejected(dataset_dir):
    cfg = read_config(write_config(dataset_dir, "out_unknown_stage"))
    with pytest.raises(ValueError) as excinfo:
        run_stage("wat", cfg)
    assert not cfg.out.exists()
    assert str(excinfo.value) == ("unknown stage 'wat'; expected one of "
                                  "('prep', 'prune', 'select', 'diagnose', 'cv', 'report')")


def test_tab_delimiter_reads_a_tab_separated_table(tmp_path):
    parity_table(tmp_path)
    text = (tmp_path / "d.csv").read_text()
    (tmp_path / "t.tsv").write_text(text.replace(",", "\t"))
    (tmp_path / "comma.cfg").write_text("merged_table = d.csv\nmerged_schema = d.schema\nout_dir = comma\n")
    (tmp_path / "tab.cfg").write_text("merged_table = t.tsv\nmerged_schema = d.schema\n"
                                      "delimiter = \\t\nout_dir = tab\n")
    assert read_config(tmp_path / "tab.cfg").delimiter == "\t"
    for name in ("comma", "tab"):
        run_stage("prep", read_config(tmp_path / f"{name}.cfg"))
    assert tree_bytes(tmp_path / "tab") == tree_bytes(tmp_path / "comma")


def test_config_built_in_python_is_checked_before_any_stage_runs(dataset_dir):
    cfg = read_config(write_config(dataset_dir, "out_unchecked"))
    with pytest.raises(ValueError, match="top_m_full must be >= 1, got 0"):
        run_pipeline(replace(cfg, top_m_full=0))
    with pytest.raises(ValueError, match="exactly one input route"):
        RunConfig()
    assert not cfg.out.exists()


# ---------------------------------------------------------------------------
# pipeline runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bundle_and_out(dataset_dir):
    cfg = read_config(write_config(dataset_dir, "out_main"))
    bundle = run_pipeline(cfg)
    return bundle, cfg


def test_bundle_contains_every_stage(bundle_and_out):
    bundle, cfg = bundle_and_out
    assert set(bundle) == {"prep", "prune", "select", "diagnose", "cv", "report"}
    out = cfg.out
    for name in ("prep.csv", "prep.schema", "audit.txt", "kept_terms.json",
                 "selected_models.json", "comparison.tsv", "comparison_side_by_side.tsv",
                 "cv_mspe.tsv", "cv_summary.tsv", "model_report.txt",
                 "identity_qq.tsv", "log_qq.tsv", "vif_trail.tsv"):
        assert (out / name).exists(), name
    assert (out / "excluded" / "selected_models.json").exists()
    assert (out / "excluded" / "cv_mspe.tsv").exists()
    assert (out / "excluded" / "comparison.tsv").exists()


def test_bundle_holds_no_temp_files(bundle_and_out):
    _, cfg = bundle_and_out
    assert (cfg.out / "excluded" / "cv_mspe.tsv").exists()
    assert not list(cfg.out.rglob(".*.tmp"))


def test_audit_records_the_preparation(bundle_and_out):
    _, cfg = bundle_and_out
    audit = (cfg.out / "audit.txt").read_text()
    assert "drop_sparse_columns" in audit
    assert "merge_by_id" in audit
    assert "drop_incomplete_rows" in audit
    assert "coerce_to_factor" in audit


def test_selection_recovers_planted_signals(bundle_and_out):
    _, cfg = bundle_and_out
    selected = json.loads((cfg.out / "selected_models.json").read_text())
    for mode in ("forward", "backward", "both"):
        assert {"cov01", "exp05", "group"} <= set(selected[mode])


def test_cv_dump_has_one_row_per_replication(bundle_and_out):
    _, cfg = bundle_and_out
    lines = (cfg.out / "cv_mspe.tsv").read_text().strip().splitlines()
    assert lines[0] == "replication\tforward\tbackward\tboth"
    assert len(lines) == 1 + cfg.cv_replications


def test_side_by_side_layout(bundle_and_out):
    _, cfg = bundle_and_out
    side = (cfg.out / "comparison_side_by_side.tsv").read_text().splitlines()
    full = (cfg.out / "comparison.tsv").read_text().splitlines()
    excluded = (cfg.out / "excluded" / "comparison.tsv").read_text().splitlines()
    modes = list(cfg.modes)
    assert side[0].split("\t") == (["metric"] + [f"{m}_full" for m in modes]
                                    + [f"{m}_excluded" for m in modes])
    assert len(side) == len(full) == len(excluded) == 6
    for row, row_full, row_excl in zip(side[1:], full[1:], excluded[1:]):
        assert row.split("\t") == row_full.split("\t") + row_excl.split("\t")[1:]


def test_rerun_is_byte_identical(dataset_dir, bundle_and_out):
    _, cfg = bundle_and_out
    cfg2 = read_config(write_config(dataset_dir, "out_rerun"))
    run_pipeline(cfg2)
    a, b = tree_bytes(cfg.out), tree_bytes(cfg2.out)
    assert a == b


def test_stage_rerun_from_checkpoints_is_stable(bundle_and_out):
    _, cfg = bundle_and_out
    before = tree_bytes(cfg.out)
    run_stage("cv", cfg)
    run_stage("diagnose", cfg)
    assert tree_bytes(cfg.out) == before


def test_modes_disabled_gives_prep_vif_and_full_model_only(dataset_dir):
    path = write_config(dataset_dir, "out_nomodes", modes="", report_model="full",
                        exclude_rows="")
    cfg = read_config(path)
    bundle = run_pipeline(cfg)
    out = cfg.out
    assert (out / "influence_full.tsv").exists()
    assert (out / "vif_values_after.tsv").exists()
    assert not (out / "comparison.tsv").exists()
    assert not (out / "cv_mspe.tsv").exists()
    assert bundle["cv"] == []
    assert (out / "model_report.txt").exists()


def test_missing_checkpoint_has_stage_hint(dataset_dir, tmp_path):
    cfg = read_config(write_config(dataset_dir, "out_missing"))
    cfg = RunConfig(**{**cfg.__dict__, "out_dir": str(tmp_path / "fresh")})
    with pytest.raises(PipelineError, match=r"\[select\].*prep"):
        run_stage("select", cfg)


# the checkpoint files each stage reads, and the stage that writes each one
CHECKPOINT_READS = {
    "prune": ("prep.csv", "prep.schema"),
    "select": ("prep.csv", "prep.schema", "kept_terms.json"),
    "diagnose": ("prep.csv", "prep.schema", "kept_terms.json", "selected_models.json",
                 "excluded/selected_models.json"),
    "cv": ("prep.csv", "prep.schema", "kept_terms.json", "selected_models.json",
           "excluded/selected_models.json"),
    "report": ("prep.csv", "prep.schema", "kept_terms.json", "selected_models.json"),
}
CHECKPOINT_PRODUCER = {"prep.csv": "prep", "prep.schema": "prep", "kept_terms.json": "prune",
                       "selected_models.json": "select", "excluded/selected_models.json": "select"}


def test_every_checkpoint_producer_runs_before_its_readers():
    order = pipeline.STAGES
    for stage, names in CHECKPOINT_READS.items():
        for name in names:
            assert order.index(CHECKPOINT_PRODUCER[name]) < order.index(stage), (stage, name)


@pytest.mark.parametrize("stage, name", [(stage, name) for stage, names in CHECKPOINT_READS.items()
                                         for name in names])
def test_every_missing_checkpoint_names_its_producer(bundle_and_out, tmp_path, stage, name):
    _, cfg = bundle_and_out
    assert cfg.exclude_rows
    out = tmp_path / "out"
    shutil.copytree(cfg.out, out)
    (out / name).unlink()
    with pytest.raises(PipelineError) as excinfo:
        run_stage(stage, replace(cfg, out_dir=str(out)))
    assert str(excinfo.value) == (f"[{stage}] missing checkpoint {Path(name).name} "
                                  f"(hint: run the '{CHECKPOINT_PRODUCER[name]}' stage first)")


def test_stage_errors_are_tagged(tmp_path):
    bad = tmp_path / "cfg.cfg"
    bad.write_text("merged_table = ghost.csv\nmerged_schema = ghost.schema\nout_dir = o\n")
    cfg = read_config(bad)
    with pytest.raises(PipelineError, match=r"\[prep\]"):
        run_stage("prep", cfg)


def test_exclude_rows_out_of_range(dataset_dir, tmp_path):
    # prep refuses a row past the prepared dataset before it writes anything,
    # and a stage rerun under a config changed since prep refuses it alike
    cfg = read_config(write_config(dataset_dir, "out_badrow"))
    bad = replace(cfg, exclude_rows=(100000,))
    message = r"exclude_rows names row 100000 but the prepared dataset has \d+ rows$"
    with pytest.raises(PipelineError, match=r"^\[prep\] " + message):
        run_stage("prep", bad)
    assert not cfg.out.exists()
    run_stage("prep", cfg)
    run_stage("prune", cfg)
    with pytest.raises(PipelineError, match=r"^\[select\] " + message):
        run_stage("select", bad)


def test_exclude_rows_past_the_prepared_rows_fails_in_prep(dataset_dir, capsys):
    path = write_config(dataset_dir, "out_row999", exclude_rows="999")
    assert cli_main(["all", "--config", str(path)]) == 1
    assert capsys.readouterr().err == ("regsel: [prep] exclude_rows names row 999 but the "
                                       "prepared dataset has 158 rows\n")
    assert not (dataset_dir / "out_row999").exists()


def test_run_pipeline_lists_exactly_the_files_it_writes(tmp_path):
    write_dataset(tmp_path, n=300)
    write_reference_config(tmp_path / "study.cfg")
    cfg = read_config(tmp_path / "study.cfg", overrides={
        "emit_svg": True, "exclude_rows": (5, 17), "cv_replications": 20, "out_dir": str(tmp_path / "out")})
    listed = [path for paths in run_pipeline(cfg).values() for path in paths]
    assert len(listed) == len(set(listed))
    assert set(listed) == {path for path in cfg.out.rglob("*") if path.is_file()}


def test_failed_checkpoint_write_keeps_the_previous_one(dataset_dir, monkeypatch):
    cfg = read_config(write_config(dataset_dir, "out_atomic"))
    run_stage("prep", cfg)
    run_stage("prune", cfg)
    before = tree_bytes(cfg.out)

    def half_write(table, path):
        Path(path).write_text("id,cov01\n1,0.5\n")
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "write_table", half_write)
    with pytest.raises(PipelineError, match=r"\[prep\].*disk full"):
        run_stage("prep", cfg)
    assert tree_bytes(cfg.out) == before
    assert not list(cfg.out.glob(".*"))


def test_cached_design_is_read_only(bundle_and_out):
    _, cfg = bundle_and_out
    design = pipeline._prepared("prune", cfg.out)
    assert not design.X.flags.writeable and not design.y.flags.writeable
    with pytest.raises(ValueError):
        design.X[0, 1] = 0.0


def parity_table(directory: Path, n: int = 60) -> None:
    """``d.csv``/``d.schema``: a numeric x, a numeric column parity with values
    2, 10 and 11 for coercion to a factor, and a response."""
    rng = np.random.default_rng(12)
    parity = rng.choice([2, 10, 11], size=n)
    x = rng.standard_normal(n)
    y = 20.0 + x + 0.8 * (parity == 10) - 0.8 * (parity == 11) + rng.standard_normal(n)
    rows = "".join(f"{i + 1},{x[i]},{parity[i]},{y[i]}\n" for i in range(n))
    (directory / "d.csv").write_text("id,x,parity,y\n" + rows)
    (directory / "d.schema").write_text("id\tid\nx\tnumeric\nparity\tnumeric\ny\tresponse\n")


@pytest.mark.parametrize("route", ["study", "merged"])
def test_prep_hands_over_the_design_a_parse_gives(route, dataset_dir, tmp_path, monkeypatch):
    if route == "study":
        cfg = read_config(write_config(dataset_dir, "out_handoff"))
    else:
        parity_table(tmp_path)
        (tmp_path / "c.cfg").write_text("merged_table = d.csv\nmerged_schema = d.schema\n"
                                        "factor_columns = parity\nout_dir = out\n")
        cfg = read_config(tmp_path / "c.cfg")
    run_stage("prep", cfg)

    def no_parse(*args, **kwargs):
        raise AssertionError("the prepared table was parsed, not handed over")

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "load_table", no_parse)
        handed = pipeline._prepared("prune", cfg.out)
    pipeline._PREPARED.clear()
    assert_same_design(handed, pipeline._prepared("prune", cfg.out))
    assert any(t.kind == "factor" for t in handed.terms)


def test_prep_csv_keeps_the_input_text_of_numeric_cells(tmp_path):
    rows = "".join(f"{i},{i % 9}.50,{i * 3 % 7}E3,{i % 5}.250\n" for i in range(1, 41))
    (tmp_path / "t.csv").write_text("id,x,z,y\n" + rows)
    (tmp_path / "t.schema").write_text("id\tid\nx\tnumeric\nz\tnumeric\ny\tresponse\n")
    (tmp_path / "t.cfg").write_text("merged_table = t.csv\nmerged_schema = t.schema\nout_dir = out\n")
    cfg = read_config(tmp_path / "t.cfg")
    run_stage("prep", cfg)
    assert (cfg.out / "prep.csv").read_bytes().startswith(b"id,x,z,y\r\n1,1.50,3E3,1.250\r\n")
    handed = pipeline._prepared("prune", cfg.out)
    pipeline._PREPARED.clear()
    assert_same_design(handed, pipeline._prepared("prune", cfg.out))


def two_table_prep_error(tmp_path, capsys, b_header, b_schema, repeat=None, b_ids=range(1, 41)) -> str:
    """The stderr of ``regsel prep`` on the two-table route with ``b.csv`` as
    given, its data rows holding ``b_ids``, and id 5 also on data row 9 of the
    table ``repeat`` names; the run must exit 1 and leave no output directory."""
    for stem, header, schema in (("a", "id,x", "id\tid\nx\tnumeric\n"), ("b", b_header, b_schema),
                                 ("r", "id,y", "id\tid\ny\tresponse\n")):
        ids = [5 if stem == repeat and row == 9 else i
               for row, i in enumerate(b_ids if stem == "b" else range(1, 41), start=1)]
        (tmp_path / f"{stem}.csv").write_text(header + "\n" + "".join(
            f"{i}" + f",{row % 7}" * header.count(",") + "\n" for row, i in enumerate(ids, start=1)))
        (tmp_path / f"{stem}.schema").write_text(schema)
    cfg = tmp_path / "ab.cfg"
    cfg.write_text("table_a = a.csv\nschema_a = a.schema\ntable_b = b.csv\nschema_b = b.schema\n"
                   "response_table = r.csv\nresponse_schema = r.schema\nout_dir = ab_out\n")
    assert cli_main(["prep", "--config", str(cfg)]) == 1
    assert not (tmp_path / "ab_out").exists()
    err = capsys.readouterr().err
    assert err.startswith("regsel: [prep]")
    return err


def test_prep_names_the_file_holding_a_column_without_a_role(tmp_path, capsys):
    err = two_table_prep_error(tmp_path, capsys, "id,w,z", "id\tid\nz\tnumeric\n")
    assert "b.csv: column 'w' has no role in the schema and no default role is declared" in err


@pytest.mark.parametrize("stem", ["a", "b", "r"], ids=["covariates", "exposures", "outcome"])
def test_prep_names_the_file_and_rows_of_a_repeated_id(tmp_path, capsys, stem):
    err = two_table_prep_error(tmp_path, capsys, "id,z", "id\tid\nz\tnumeric\n", repeat=stem)
    assert f"{tmp_path / stem}.csv: column 'id', data row 9: duplicate id 5 (also data row 5)" in err


@pytest.mark.parametrize("b_header, b_schema, b_ids, message", [
    ("id,z", "id\texclude\nz\tnumeric\n", range(1, 41), "both tables must have an id column to merge"),
    ("ID,z", "ID\tid\nz\tnumeric\n", range(1, 41), "id columns differ: 'id' vs 'ID'"),
    ("id,x", "id\tid\nx\tnumeric\n", range(1, 41), "non-id columns present in both tables: x"),
    ("id,z", "id\tid\nz\tnumeric\n", [f"k{i}" for i in range(1, 41)],
     "id column 'id' holds text in the right table and integers in the left table, so no id can match"),
    ("id,z", "id\tid\nz\tnumeric\n", range(41, 81), "no common ids between the tables"),
], ids=["no-id-role", "id-names-differ", "shared-column", "text-ids", "disjoint-ids"])
def test_prep_names_both_files_of_a_merge_that_fails(tmp_path, capsys, b_header, b_schema, b_ids, message):
    err = two_table_prep_error(tmp_path, capsys, b_header, b_schema, b_ids=b_ids)
    assert f"[prep] {tmp_path / 'a.csv'} and {tmp_path / 'b.csv'}: {message} (hint: " in err


@pytest.mark.parametrize("stage, name, content", [
    ("diagnose", "selected_models.json", None),
    ("cv", "selected_models.json", None),
    ("select", "kept_terms.json", '["x", "zz"]'),
    ("select", "kept_terms.json", '["x", '),
    ("select", "kept_terms.json", '{"x": 1}'),
], ids=["diagnose-mode-not-selected", "cv-mode-not-selected", "kept-unknown-term",
        "kept-half-written", "kept-not-a-list"])
def test_a_checkpoint_its_producer_cannot_have_written_names_the_file(tmp_path, capsys, stage, name,
                                                                     content):
    """A checkpoint whose content no run of its producer writes (without
    ``content``: a forward-only select read with backward enabled) fails the
    stage reading it, naming the file and the stage to rerun."""
    parity_table(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("merged_table = d.csv\nmerged_schema = d.schema\nfactor_columns = parity\n"
                   "modes = forward\ncv_replications = 20\nout_dir = out\n")
    assert cli_main(["all", "--config", str(cfg)]) == 0
    if content is None:
        cfg.write_text(cfg.read_text().replace("modes = forward", "modes = forward,backward"))
    else:
        (tmp_path / "out" / name).write_text(content)
    capsys.readouterr()
    assert cli_main([stage, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"regsel: [{stage}] checkpoint {tmp_path / 'out' / name} does not hold ")
    producer = {"kept_terms.json": "prune", "selected_models.json": "select"}[name]
    assert err.endswith(f" (hint: rerun the '{producer}' stage)\n")


def test_data_file_that_is_not_utf8_fails_prep_naming_the_file_and_line(tmp_path, capsys):
    parity_table(tmp_path)
    data = tmp_path / "d.csv"
    data.write_bytes(data.read_bytes().replace(b"\n7,", b"\n7\xe9,"))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("merged_table = d.csv\nmerged_schema = d.schema\nout_dir = out\n")
    assert cli_main(["all", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"regsel: [prep] {data}: line 8: byte 0xe9 is not UTF-8")
    assert not (tmp_path / "out").exists()


def test_a_dummy_named_like_another_column_fails_in_prep(tmp_path, capsys):
    # the numeric column g1 and the dummy of level 1 of factor g would share one name in the reports
    rows = "".join(f"{i},{0.25 * i},{i % 3},{i % 7}\n" for i in range(1, 61))
    (tmp_path / "m.csv").write_text("id,g1,g,y\n" + rows)
    (tmp_path / "m.schema").write_text("id\tid\ng1\tnumeric\ng\tfactor\ny\tresponse\n")
    cfg = tmp_path / "m.cfg"
    cfg.write_text("merged_table = m.csv\nmerged_schema = m.schema\nreport_model = full\n"
                   "cv_replications = 20\nout_dir = m_out\n")
    assert cli_main(["all", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("regsel: [prep] two design columns are named 'g1'")
    assert not (tmp_path / "m_out").exists()


def test_prep_names_the_file_holding_two_response_columns(tmp_path, capsys):
    err = two_table_prep_error(tmp_path, capsys, "id,z,v", "id\tid\nz\tresponse\nv\tresponse\n")
    assert f"{tmp_path / 'b.csv'}: table declares 2 response columns; at most one is allowed" in err


def test_stage_rereads_changed_prep_in_the_same_process(dataset_dir):
    cfg = read_config(write_config(dataset_dir, "out_reprep"))
    for stage in ("prep", "prune", "select", "diagnose"):
        run_stage(stage, cfg)

    def influence_rows():       # two comment lines and a header precede one line per row
        return len((cfg.out / "influence_full.tsv").read_text().splitlines()) - 3

    prep = cfg.out / "prep.csv"
    lines = prep.read_text().splitlines()
    assert influence_rows() == len(lines) - 1 > 120
    prep.write_text("\n".join(lines[:121]) + "\n")    # header and the first 120 rows
    run_stage("diagnose", cfg)
    assert influence_rows() == 120


def test_stage_subprocesses_match_one_in_process_all(dataset_dir):
    cfg_all = read_config(write_config(dataset_dir, "out_proc_all"))
    assert cfg_all.exclude_rows
    run_pipeline(cfg_all)
    cfg_steps = write_config(dataset_dir, "out_proc_steps")
    env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    for stage in pipeline.STAGES:
        done = subprocess.run([sys.executable, "-m", "regsel.cli", stage, "--config", str(cfg_steps)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    assert tree_bytes(dataset_dir / "out_proc_steps") == tree_bytes(cfg_all.out)


def test_coerced_factor_keeps_numeric_level_order(tmp_path, capsys):
    parity_table(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("merged_table = d.csv\nmerged_schema = d.schema\nfactor_columns = parity\n"
                   "modes = forward\nreport_model = full\ncv_replications = 5\nout_dir = out\n")
    assert cli_main(["all", "--config", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert "'parity' -> factor with levels (2, 10, 11)" in (out / "audit.txt").read_text()
    report = (out / "model_report.tsv").read_text().splitlines()
    assert [line.split("\t")[0] for line in report[1:]] == ["(Intercept)", "x", "parity10", "parity11"]


def test_svg_emission(dataset_dir):
    path = write_config(dataset_dir, "out_svg", emit_svg="true", exclude_rows="",
                        cv_replications="10")
    cfg = read_config(path)
    run_pipeline(cfg)
    svgs = list(cfg.out.glob("*.svg"))
    assert any(p.name == "cv_mspe.svg" for p in svgs)
    assert any(p.name.startswith("influence_") for p in svgs)
    for p in svgs:
        assert p.read_text().startswith("<svg ")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_all_matches_stagewise(dataset_dir, capsys):
    cfg_all = write_config(dataset_dir, "out_cli_all")
    cfg_steps = write_config(dataset_dir, "out_cli_steps")
    assert cli_main(["all", "--config", str(cfg_all)]) == 0
    for stage in ("prep", "prune", "select", "diagnose", "cv", "report"):
        assert cli_main([stage, "--config", str(cfg_steps)]) == 0
    capsys.readouterr()
    a = tree_bytes(dataset_dir / "out_cli_all")
    b = tree_bytes(dataset_dir / "out_cli_steps")
    assert a == b


def test_cli_option_overrides(dataset_dir, tmp_path, capsys):
    cfg = write_config(dataset_dir, "out_cli_opt")
    out = tmp_path / "cli_opt_out"
    assert cli_main(["prep", "--config", str(cfg), "--out", str(out),
                     "--exclude-rows", "3,4", "--seed", "11"]) == 0
    capsys.readouterr()
    assert (out / "prep.csv").exists()


@pytest.mark.parametrize("flag, raw, expected", [
    ("--seed", "1_0", "an integer"), ("--seed", "\u0663", "an integer"), ("--seed", "abc", "an integer"),
    ("--seed", "5#x", "an integer"), ("--exclude-rows", "3#,4", "comma-separated integers"),
])
def test_option_values_parse_as_their_config_keys(dataset_dir, tmp_path, capsys, flag, raw, expected):
    """An option value is read by its config key's rule, and '#' starts no comment in it."""
    out = tmp_path / "option_out"
    cfg = write_config(dataset_dir, "out_option_values")
    assert cli_main(["prep", "--config", str(cfg), "--out", str(out), flag, raw]) == 2
    assert capsys.readouterr().err == \
        f"regsel: config error: option {flag} expects {expected}, got {raw!r}\n"
    assert not out.exists()


def test_cli_out_is_relative_to_the_working_directory(dataset_dir, bundle_and_out, tmp_path,
                                                      monkeypatch, capsys):
    cfg = write_config(dataset_dir, "out_cli_cwd")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REGSEL_OUT", "env_out")
    assert cli_main(["all", "--config", os.path.relpath(cfg), "--out", "results"]) == 0
    capsys.readouterr()
    assert tree_bytes(tmp_path / "results") == tree_bytes(bundle_and_out[1].out)
    for name in ("results", "env_out", "out_cli_cwd"):
        assert not (dataset_dir / name).exists(), name
    assert not (tmp_path / "env_out").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wat = 1\n")
    assert cli_main(["all", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert cli_main(["prep", "--config", str(tmp_path / "missing.cfg"), "--exclude-rows", "abc"]) == 2
    err = capsys.readouterr().err
    assert "config error: option --exclude-rows expects comma-separated integers, got 'abc'" in err
    for line, message in (("cv_seed = 1.5", "config key 'cv_seed' expects an integer, got '1.5'"),
                          ("cv_replications = ten  # replications",
                           "config key 'cv_replications' expects an integer, got 'ten'")):
        bad.write_text(f"merged_table = ghost.csv\n{line}\n")
        assert cli_main(["all", "--config", str(bad)]) == 2
        assert f"config error: {bad}:2: {message}\n" in capsys.readouterr().err
    bad.write_text("merged_table = ghost.csv\nmerged_schema = ghost.schema\ncv_seed = -1\n")
    assert cli_main(["all", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err


def test_cli_stage_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text("merged_table = ghost.csv\nmerged_schema = ghost.schema\nout_dir = o\n")
    assert cli_main(["all", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "[prep]" in err and "hint" in err


def test_unknown_factor_column_fails_prep_with_the_plain_message(dataset_dir, tmp_path, capsys):
    cfg = dataset_dir / "unknown_factor.cfg"
    cfg.write_text(config_text(tmp_path / "out", factor_columns="zzz"))
    assert cli_main(["all", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("regsel: [prep] no column named 'zzz' (hint: ")
    assert not (tmp_path / "out").exists()


def _run_merged_study(tmp_path, columns: dict) -> Path:
    """`regsel all` on a 40-row merged table of the given predictors (name ->
    (schema role, cell of row i)) and y = 1 + i mod 7; returns its output directory."""
    header = ",".join(["id", *columns, "y"])
    rows = "".join(",".join([str(i), *(cell(i) for _, cell in columns.values()), str(1 + i % 7)]) + "\n"
                   for i in range(1, 41))
    (tmp_path / "m.csv").write_text(header + "\n" + rows)
    roles = "".join(f"{name}\t{role}\n" for name, (role, _) in columns.items())
    (tmp_path / "m.schema").write_text("id\tid\n" + roles + "y\tresponse\n")
    cfg = tmp_path / "m.cfg"
    cfg.write_text("merged_table = m.csv\nmerged_schema = m.schema\ncv_replications = 20\nout_dir = m_out\n")
    assert cli_main(["all", "--config", str(cfg)]) == 0
    return tmp_path / "m_out"


@pytest.mark.parametrize("columns, before, kept", [
    ({"x": ("numeric", lambda i: f"{0.25 * i}")}, {"x": 1.0}, ["x"]),
    ({"g": ("factor", lambda i: "abc"[i % 3])}, {}, ["g"]),
    ({"g": ("factor", lambda i: "abc"[i % 3]), "c": ("numeric", lambda i: "2.5")}, {"c": math.inf}, ["g"]),
], ids=["one-numeric", "all-factor", "constant-numeric"])
def test_a_study_with_at_most_one_numeric_predictor_runs_every_stage(tmp_path, capsys, columns,
                                                                     before, kept):
    # a lone numeric predictor has a VIF of 1, a constant one is pruned (VIF
    # inf), and a design with no numeric term passes prune unchanged
    out = _run_merged_study(tmp_path, columns)
    assert json.loads((out / "kept_terms.json").read_text()) == kept
    rows = [line.split("\t") for line in (out / "vif_values_before.tsv").read_text().splitlines()[1:]]
    assert [name for name, _ in rows] == list(before)
    assert all(math.isclose(float(value), before[name], rel_tol=1e-12) for name, value in rows)


def test_a_prune_that_fails_on_a_damaged_prep_hints_to_rerun_prep(tmp_path, capsys):
    out = _run_merged_study(tmp_path, {"x": ("numeric", lambda i: f"{0.25 * i}")})
    prep = out / "prep.csv"
    prep.write_text(prep.read_text().replace(",0.25,", ",abc,"))
    capsys.readouterr()
    assert cli_main(["prune", "--config", str(tmp_path / "m.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"regsel: [prune] {prep}: ") and err.endswith(" (hint: rerun 'prep' first)\n")


def test_prep_that_fails_on_its_data_leaves_no_output_directory(tmp_path, capsys):
    (tmp_path / "nan.csv").write_text("id,x,y\n1,0.5,1\n2,nan,2\n3,1.5,3\n")
    (tmp_path / "nan.schema").write_text("id\tid\nx\tnumeric\ny\tresponse\n")
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("merged_table = nan.csv\nmerged_schema = nan.schema\nout_dir = nan_out\n")
    assert cli_main(["prep", "--config", str(cfg)]) == 1
    assert "non-finite value 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "nan_out").exists()


@pytest.mark.parametrize("schema, message", [
    ("id\tid\nx\tnumeric\ng\tfactor\ny\tresponse\n", "factor 'g' has fewer than two observed levels"),
    ("id\tid\nx\tnumeric\ng\tfactor\ny\tnumeric\n", "table has no response column"),
], ids=["one-level-factor", "no-response"])
def test_prep_that_cannot_encode_its_table_fails_before_writing(tmp_path, capsys, schema, message):
    rows = "".join(f"{i},{0.25 * i},a,{i % 7}\n" for i in range(1, 41))
    (tmp_path / "m.csv").write_text("id,x,g,y\n" + rows)
    (tmp_path / "m.schema").write_text(schema)
    cfg = tmp_path / "m.cfg"
    cfg.write_text("merged_table = m.csv\nmerged_schema = m.schema\nout_dir = m_out\n")
    assert cli_main(["all", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("regsel: [prep]") and message in err
    assert not (tmp_path / "m_out").exists()


def test_factor_label_holding_a_tab_or_line_break_fails_in_prep(tmp_path, capsys):
    # the labels would become dummy names <factor><level> in model_report.tsv
    labels = ('"a\tb"', '"c\nd"', "e")
    rows = "".join(f"{i},{0.25 * i},{labels[i % 3]},{i % 7}\n" for i in range(1, 61))
    (tmp_path / "m.csv").write_text("id,x,g,y\n" + rows)
    (tmp_path / "m.schema").write_text("id\tid\nx\tnumeric\ng\tfactor\ny\tresponse\n")
    cfg = tmp_path / "m.cfg"
    cfg.write_text("merged_table = m.csv\nmerged_schema = m.schema\nreport_model = full\n"
                   "out_dir = m_out\n")
    assert cli_main(["all", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("regsel: [prep] factor 'g' has the level 'a\\tb': ")
    assert not (tmp_path / "m_out").exists()


def test_constant_response_fails_in_prep(tmp_path, capsys):
    rows = "".join(f"{i},{0.25 * i},{i * 7 % 11},7\n" for i in range(1, 41))
    (tmp_path / "m.csv").write_text("id,x,z,y\n" + rows)
    (tmp_path / "m.schema").write_text("id\tid\nx\tnumeric\nz\tnumeric\ny\tresponse\n")
    cfg = tmp_path / "m.cfg"
    cfg.write_text("merged_table = m.csv\nmerged_schema = m.schema\nout_dir = m_out\n")
    assert cli_main(["all", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        "regsel: [prep] the response 'y' is 7.0 in every prepared row")
    assert not (tmp_path / "m_out").exists()


def test_log_refit_with_a_non_positive_response_fails_in_prep(tmp_path, capsys):
    rows = "".join(f"{i},{0.25 * i},{i * 7 % 11},{-0.5 if i == 2 else 1 + i % 7}\n"
                   for i in range(1, 41))
    (tmp_path / "m.csv").write_text("id,x,z,y\n" + rows)
    (tmp_path / "m.schema").write_text("id\tid\nx\tnumeric\nz\tnumeric\ny\tresponse\n")
    cfg = tmp_path / "m.cfg"
    cfg.write_text("merged_table = m.csv\nmerged_schema = m.schema\ncv_replications = 20\n"
                   "out_dir = m_out\n")
    assert cli_main(["all", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("regsel: [prep] log_refit needs a positive response, but 'y' is -0.5 "
                          "in prepared row 2 (id 2)") and "set log_refit = false" in err
    assert not (tmp_path / "m_out").exists()
    cfg.write_text(cfg.read_text() + "log_refit = false\n")
    assert cli_main(["all", "--config", str(cfg)]) == 0
