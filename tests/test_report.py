import math

import numpy as np
import pytest
from scipy import stats

from regsel import DesignMatrix, fit_ols, influence_flags
from regsel.report import (
    residual_diagnostics,
    svg_boxplot,
    svg_scatter,
    write_added_variable_data,
    write_file,
    write_influence_data,
    write_vif_histogram,
    write_vif_values,
)
from oracles import one_row_level_design, random_design


def _read_tsv(path, skip_meta=True):
    lines = path.read_text().strip().splitlines()
    if skip_meta:
        lines = [l for l in lines if not l.startswith("#")]
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    return header, rows


def test_influence_file_metadata_and_flags(tmp_path):
    rng = np.random.default_rng(100)
    d = random_design(rng, 40, 3)
    m = fit_ols(d)
    report = influence_flags(m, top_m=5)
    path = write_influence_data(m, report, tmp_path / "inf.tsv")
    text = path.read_text()
    assert text.startswith("# two_hbar\t")
    assert "# cook_threshold\t" in text
    header, rows = _read_tsv(path)
    assert header == ["row_id", "leverage", "cooks_d", "high_leverage_flag", "top_influence_flag"]
    assert len(rows) == 40
    # flags recomputable from the stored values and thresholds
    meta = dict(l.split("\t") for l in text.splitlines() if l.startswith("#"))
    two_hbar = float(meta["# two_hbar"])
    for row in rows:
        lev, flag = float(row[1]), int(row[3])
        assert flag == int(lev > two_hbar)
    assert sum(int(r[4]) for r in rows) >= 5


def test_residual_diagnostics_zero_residuals(tmp_path):
    d = DesignMatrix.from_arrays(np.arange(10.0), 2.0 + 3.0 * np.arange(10.0), names=["x"])
    m = fit_ols(d)
    paths = residual_diagnostics(m, tmp_path, prefix="zero")
    by_name = {p.name: p for p in paths}
    _, rows = _read_tsv(by_name["zero_resid_vs_index.tsv"])
    assert all(abs(float(r[1])) < 1e-10 for r in rows)
    _, rows = _read_tsv(by_name["zero_resid_vs_fitted.tsv"])
    assert all(abs(float(r[1])) < 1e-10 for r in rows)


def test_qq_symmetry_for_symmetric_residuals(tmp_path):
    rng = np.random.default_rng(101)
    n = 400
    x = rng.standard_normal(n)
    y = 1.0 + 2.0 * x + rng.standard_normal(n)
    m = fit_ols(DesignMatrix.from_arrays(x, y, names=["x"]))
    paths = residual_diagnostics(m, tmp_path, prefix="sym")
    qq = next(p for p in paths if p.name.endswith("qq.tsv"))
    _, rows = _read_tsv(qq)
    theo = np.array([float(r[0]) for r in rows])
    np.testing.assert_allclose(theo, -theo[::-1], atol=1e-12)     # (i-0.5)/n points
    observed = np.array([float(r[1]) for r in rows])
    assert abs(np.median(observed)) < 0.2


@pytest.mark.parametrize("n", [5, 400, 1301])
def test_qq_quantiles_equal_scipy_stats(tmp_path, n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    m = fit_ols(DesignMatrix.from_arrays(x, 1.0 + x + rng.standard_normal(n), names=["x"]))
    qq = next(p for p in residual_diagnostics(m, tmp_path) if p.name.endswith("qq.tsv"))
    _, rows = _read_tsv(qq)
    theo = np.array([float(r[0]) for r in rows])
    assert np.array_equal(theo, stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n))


def test_qq_matches_normal_at_kolmogorov_bound(tmp_path):
    rng = np.random.default_rng(102)
    n = 2000
    X = rng.standard_normal((n, 3))
    y = 2.0 + X @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(n)
    m = fit_ols(DesignMatrix.from_arrays(X, y))
    paths = residual_diagnostics(m, tmp_path, prefix="ks")
    qq = next(p for p in paths if p.name.endswith("qq.tsv"))
    _, rows = _read_tsv(qq)
    observed = np.array([float(r[1]) for r in rows])
    probs = (np.arange(1, n + 1) - 0.5) / n
    d_stat = np.abs(stats.norm.cdf(observed) - probs).max()
    assert d_stat < 1.63 / math.sqrt(n) + 0.5 / n     # 1% Kolmogorov critical bound
    hist = next(p for p in paths if p.name.endswith("studentized_hist.tsv"))
    _, rows = _read_tsv(hist)
    assert sum(int(r[2]) for r in rows) == n


def test_a_row_fit_exactly_is_left_out_of_the_plot_data(tmp_path):
    # the row at the one-row level c has no studentized residual and no Cook's
    # distance: the QQ pairing and the histogram use the other n - 1 rows, the
    # scatter leaves its point out, and no file holds "nan"
    d = one_row_level_design(np.random.default_rng(105), 30, 2)
    m = fit_ols(d)
    paths = residual_diagnostics(m, tmp_path, prefix="exact")
    qq = next(p for p in paths if p.name.endswith("qq.tsv"))
    _, rows = _read_tsv(qq)
    theo = np.array([float(r[0]) for r in rows])
    assert np.array_equal(theo, stats.norm.ppf((np.arange(1, 30) - 0.5) / 29))
    hist = next(p for p in paths if p.name.endswith("studentized_hist.tsv"))
    assert sum(int(r[2]) for r in _read_tsv(hist)[1]) == 29
    report = influence_flags(m, top_m=5)
    paths.append(write_influence_data(m, report, tmp_path / "inf.tsv"))
    paths.append(write_vif_histogram({"a": 1.5, "b": math.nan, "c": 2.5}, tmp_path / "hist.tsv"))
    paths.append(svg_scatter(report.leverage, report.cooks_d, tmp_path / "inf.svg",
                             highlight=report.top_influence, vline=2.0 * report.mean_leverage))
    assert paths[-1].read_text().count("<circle") == 29
    assert sum(int(r[2]) for r in _read_tsv(paths[-2])[1]) == 2
    for path in paths:
        assert "nan" not in path.read_text().lower(), path.name


def test_added_variable_files(tmp_path):
    rng = np.random.default_rng(103)
    d = random_design(rng, 30, 3)
    m = fit_ols(d)
    paths = write_added_variable_data(m, tmp_path)
    assert {p.name for p in paths} == {"av_x1.tsv", "av_x2.tsv", "av_x3.tsv"}
    text = paths[0].read_text()
    assert text.startswith("# slope\t")
    slope = float(text.splitlines()[0].split("\t")[1])
    assert abs(slope - m.coef[1]) < 1e-10


def test_added_variable_files_skip_aliased_terms(tmp_path):
    rng = np.random.default_rng(104)
    X = rng.standard_normal((30, 2))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    m = fit_ols(DesignMatrix.from_arrays(X, 1.0 + X[:, 0] + rng.standard_normal(30)))
    aliased = [t.name for t in m.design.terms if m.aliased[t.columns[0]]]
    assert len(aliased) == 1
    paths = write_added_variable_data(m, tmp_path)
    assert {p.name for p in paths} == {f"av_{t}.tsv" for t in ("x1", "x2", "x3") if t not in aliased}


def test_vif_emission(tmp_path):
    values = {"a": 1.5, "b": math.inf, "c": 12.0}
    path = write_vif_values(values, tmp_path / "vif.tsv")
    lines = path.read_text().strip().splitlines()
    assert lines[1:] == ["a\t1.5", "b\tinf", "c\t12.0"]
    hist = write_vif_histogram(values, tmp_path / "hist.tsv")
    _, rows = _read_tsv(hist)
    assert sum(int(r[2]) for r in rows) == 2          # infinite value excluded


def test_vif_histogram_without_finite_values_is_a_header(tmp_path):
    hist = write_vif_histogram({"a": math.inf, "b": math.inf}, tmp_path / "hist.tsv")
    assert hist.read_text() == "bin_left\tbin_right\tcount\n"


def test_svg_boxplot_draws_one_circle_per_outlier(tmp_path):
    # quartiles 2.5 and 7.5, so the fences are -5 and 15
    values = [-80.0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100.0]
    text = svg_boxplot({"m": values}, tmp_path / "b.svg").read_text()
    assert [line for line in text.splitlines() if line.startswith("<circle")] == [
        '<circle cx="320.0" cy="430.0" r="2" fill="black"/>',
        '<circle cx="320.0" cy="50.0" r="2" fill="black"/>',
    ]


def test_svg_outputs_are_wellformed(tmp_path):
    rng = np.random.default_rng(104)
    x, y = rng.standard_normal(50), rng.standard_normal(50)
    s1 = svg_scatter(x, y, tmp_path / "s.svg", highlight=x > 1.0, vline=0.5)
    s2 = svg_boxplot({"a": x, "b": y}, tmp_path / "b.svg")
    for p in (s1, s2):
        text = p.read_text()
        assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")


def test_failed_write_keeps_the_previous_file_whole(tmp_path):
    target = tmp_path / "cv_mspe.tsv"
    target.write_text("replication\tforward\n1\t0.5\n")
    before = target.read_bytes()

    def half_write(tmp):
        tmp.write_text("replication\tfor")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_file(target, half_write)
    assert target.read_bytes() == before
    assert not list(tmp_path.glob(".*.tmp"))
