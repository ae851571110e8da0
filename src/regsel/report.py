"""The bundle writer: every file of a run's output directory is written here.

Delimited plot data (influence scatters, residual diagnostics,
added-variable data, VIF histograms), the cross-validation MSPE files, the
model report, and optional SVG renderings; the pipeline writes its own
checkpoints, audits, traces and comparison tables through the same
:func:`write_file`.  That function writes a temp file beside the target
and moves it into place, so a failed or interrupted write leaves the
previous file whole and never a truncated one.

Data files are the contract; the SVG helpers are display sugar over the
same numbers, and every table cell is written by
:func:`regsel.table.format_values`.  Every file is a deterministic function
of its inputs (no timestamps), so report bundles can be compared byte for
byte.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
from scipy import special

from .crossval import CVResult, five_number_summary
from .influence import InfluenceReport, added_variable_data, studentized
from .ols import FittedModel, coefficient_table, format_summary
from .table import tsv_lines

# write_file, write_string and write_lines stay out: they run once per file,
# and every name listed here gets a span when a run is traced.
__all__ = [
    "write_influence_data",
    "residual_diagnostics",
    "write_added_variable_data",
    "write_vif_values",
    "write_vif_histogram",
    "write_summary",
    "write_mspe_dump",
    "write_mspe_summary",
    "emit_mspe_boxplot_data",
    "svg_scatter",
    "svg_boxplot",
]


def write_file(path, write) -> Path:
    """Call ``write`` on a temp file beside ``path``, then move it into place,
    so a failed or interrupted write never leaves a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_string(path, text: str) -> Path:
    """Write ``text`` as UTF-8."""
    return write_file(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def write_lines(path, lines) -> Path:
    """Write ``lines``, each ended by a newline."""
    return write_string(path, "\n".join(lines) + "\n")


def write_influence_data(model: FittedModel, report: InfluenceReport, path) -> Path:
    """Influence plot data: one row per observation with both flag rules.

    Two metadata lines carry the 2*mean-leverage cutoff and the Cook's
    distance threshold, so the scatter (flags, cutoff line and all) can be
    redrawn from this file alone.
    """
    return write_lines(path, tsv_lines(
        ("row_id", "leverage", "cooks_d", "high_leverage_flag", "top_influence_flag"),
        range(1, report.leverage.size + 1), report.leverage, report.cooks_d,
        report.high_leverage.astype(int), report.top_influence.astype(int),
        preamble=(f"# two_hbar\t{2.0 * report.mean_leverage!r}",
                  f"# cook_threshold\t{report.cook_threshold!r}")))


def _histogram_lines(values) -> list:
    """``values`` binned by Sturges' rule: each bin's edges and count, and no bin when empty."""
    counts, edges = np.histogram(values, bins="sturges") if len(values) else ([], [0.0])
    return tsv_lines(("bin_left", "bin_right", "count"), edges[:-1], edges[1:], counts)


def residual_diagnostics(model: FittedModel, out_dir, prefix: str = "model") -> list:
    """Residual diagnostic data: residuals vs index, residuals vs fitted,
    a normal QQ pairing of sorted externally studentized residuals with
    N(0,1) quantiles at (i - 0.5)/n, and a histogram binning of the
    studentized residuals (Sturges bins, edges emitted)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = model.n
    t = studentized(model, "external")
    theo = special.ndtri((np.arange(1, n + 1) - 0.5) / n)
    return [
        write_lines(out_dir / f"{prefix}_resid_vs_index.tsv",
                    tsv_lines(("index", "residual"), range(1, n + 1), model.residuals)),
        write_lines(out_dir / f"{prefix}_resid_vs_fitted.tsv",
                    tsv_lines(("fitted", "residual"), model.fitted, model.residuals)),
        write_lines(out_dir / f"{prefix}_qq.tsv",
                    tsv_lines(("theoretical_quantile", "studentized_residual"), theo, np.sort(t))),
        write_lines(out_dir / f"{prefix}_studentized_hist.tsv", _histogram_lines(t)),
    ]


def write_added_variable_data(model: FittedModel, out_dir) -> list:
    """Added-variable data, ``av_<term>.tsv``, for every single-column, non-aliased term."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for term in model.design.terms:
        if len(term.columns) != 1 or model.aliased[term.columns[0]]:
            continue
        av = added_variable_data(model, term.name)
        paths.append(write_lines(out_dir / f"av_{term.name}.tsv", tsv_lines(
            ("x_partial", "y_partial"), av.x_partial, av.y_partial,
            preamble=(f"# slope\t{av.slope!r}",))))
    return paths


def write_vif_values(values: dict, path) -> Path:
    return write_lines(path, tsv_lines(("variable", "vif"), list(values), list(values.values())))


def write_vif_histogram(values: dict, path) -> Path:
    """Histogram binning of the finite VIFs, bin edges included."""
    return write_lines(path, _histogram_lines([v for v in values.values() if np.isfinite(v)]))


def write_summary(model: FittedModel, text_path, tsv_path, k: float = 2.0) -> list:
    """Write the plain-text report and a machine-readable TSV of the coefficient table."""
    return [write_string(text_path, format_summary(model, k=k)),
            write_lines(tsv_path, tsv_lines(
                ("name", "estimate", "std_error", "t_value", "p_value", "aliased"),
                *zip(*coefficient_table(model)), model.aliased.astype(int)))]


# ---------------------------------------------------------------------------
# Cross-validation MSPE files
# ---------------------------------------------------------------------------


def write_mspe_dump(result: CVResult, path) -> Path:
    """Raw MSPE dump: one row per replication, one column per model."""
    return write_lines(path, tsv_lines(("replication", *result.labels),
                                       range(1, len(result.mspe) + 1), *result.mspe.T))


_SUMMARY_ROWS = ("Min.", "1st Qu.", "Median", "Mean", "3rd Qu.", "Max.")
_BOXPLOT_ROWS = ("min", "q1", "median", "mean", "q3", "max", "iqr", "lower_fence", "upper_fence")


def _box(v) -> tuple:
    """The five-number summary of ``v`` and its 1.5*IQR whisker fences."""
    s = five_number_summary(v)
    return s, s.q1 - 1.5 * s.iqr, s.q3 + 1.5 * s.iqr


def write_mspe_summary(result: CVResult, path) -> Path:
    """Two summary tables (MSPE and root MSPE), six rows each."""
    blocks = []
    for title, root in (("MSPE", False), ("Root MSPE", True)):
        summaries = result.summaries(root=root)
        blocks.append(tsv_lines(("statistic", *result.labels), _SUMMARY_ROWS,
                                *(summaries[lab].as_tuple() for lab in result.labels),
                                preamble=(f"# {title}",)))
    return write_lines(path, [*blocks[0], "", *blocks[1]])


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
        s, lo_fence, hi_fence = _box(v)
        outliers = v[(v < lo_fence) | (v > hi_fence)]
        values = [s.minimum, s.q1, s.median, s.mean, s.q3, s.maximum, s.iqr, lo_fence, hi_fence]
        paths.append(write_lines(out_dir / f"boxplot_{suffix}_{label}.tsv", tsv_lines(
            ("statistic", "value"), _BOXPLOT_ROWS + ("outlier",) * outliers.size,
            np.concatenate([values, outliers]))))
    return paths


# ---------------------------------------------------------------------------
# Optional SVG rendering
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H, _PAD = 640, 480, 50


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo or 1.0
    return [(out_lo + (v - lo) / span * (out_hi - out_lo)) for v in values]


def _write_svg(path, body, ylabel: str) -> Path:
    """An SVG page: white background, the ``body`` elements, ``ylabel`` up the left edge."""
    return write_lines(path, [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>', *body,
        f'<text x="14" y="{_SVG_H / 2:.0f}" transform="rotate(-90 14 {_SVG_H / 2:.0f})" '
        f'text-anchor="middle">{ylabel}</text>', "</svg>"])


def svg_scatter(x, y, path, highlight=None, xlabel: str = "x", ylabel: str = "y",
                vline: float | None = None) -> Path:
    """Minimal scatter-plot SVG; `highlight` marks points in a second colour."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    highlight = np.zeros(x.size, dtype=bool) if highlight is None else np.asarray(highlight, dtype=bool)
    xs = _scale(x, x.min(), x.max(), _PAD, _SVG_W - _PAD)
    ys = _scale(y, y.min(), y.max(), _SVG_H - _PAD, _PAD)
    parts = []
    if vline is not None and x.max() > x.min():
        vx = _scale([vline], x.min(), x.max(), _PAD, _SVG_W - _PAD)[0]
        parts.append(f'<line x1="{vx:.1f}" y1="{_PAD}" x2="{vx:.1f}" y2="{_SVG_H - _PAD}" '
                     'stroke="purple" stroke-dasharray="4"/>')
    for cx, cy, hot in zip(xs, ys, highlight):
        colour = "red" if hot else "black"
        parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="2.5" fill="{colour}"/>')
    parts.append(f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - 12}" text-anchor="middle">{xlabel}</text>')
    return _write_svg(path, parts, ylabel)


def svg_boxplot(groups: dict, path, ylabel: str = "value") -> Path:
    """Side-by-side boxplots (median, quartile box, 1.5*IQR whiskers, outlier dots)."""
    labels = list(groups)
    all_vals = np.concatenate([np.asarray(groups[l], dtype=float) for l in labels])
    lo, hi = float(all_vals.min()), float(all_vals.max())

    def sy(v):
        return _scale([v], lo, hi, _SVG_H - _PAD, _PAD)[0]

    slot = (_SVG_W - 2 * _PAD) / len(labels)
    parts = []
    for i, label in enumerate(labels):
        v = np.asarray(groups[label], dtype=float)
        s, lo_f, hi_f = _box(v)
        inside = v[(v >= lo_f) & (v <= hi_f)]
        whis_lo = float(inside.min()) if inside.size else s.q1
        whis_hi = float(inside.max()) if inside.size else s.q3
        cx = _PAD + slot * (i + 0.5)
        half = min(40.0, slot * 0.3)
        parts.append(f'<line x1="{cx:.1f}" y1="{sy(whis_lo):.1f}" x2="{cx:.1f}" y2="{sy(s.q1):.1f}" stroke="black"/>')
        parts.append(f'<line x1="{cx:.1f}" y1="{sy(s.q3):.1f}" x2="{cx:.1f}" y2="{sy(whis_hi):.1f}" stroke="black"/>')
        parts.append(f'<rect x="{cx - half:.1f}" y="{sy(s.q3):.1f}" width="{2 * half:.1f}" '
                     f'height="{abs(sy(s.q1) - sy(s.q3)):.1f}" fill="lightyellow" stroke="black"/>')
        parts.append(f'<line x1="{cx - half:.1f}" y1="{sy(s.median):.1f}" x2="{cx + half:.1f}" '
                     f'y2="{sy(s.median):.1f}" stroke="black" stroke-width="2"/>')
        for out in v[(v < lo_f) | (v > hi_f)]:
            parts.append(f'<circle cx="{cx:.1f}" cy="{sy(float(out)):.1f}" r="2" fill="black"/>')
        parts.append(f'<text x="{cx:.1f}" y="{_SVG_H - 20}" text-anchor="middle">{label}</text>')
    return _write_svg(path, parts, ylabel)
