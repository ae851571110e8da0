"""In-memory span tracing around calls into regsel's public functions.

A :class:`Tracer` replaces each traced function by a wrapper in every
``regsel`` module that holds a reference to it (``fit_ols`` lives in
``regsel.ols`` and is imported by ``regsel.stepwise`` and
``regsel.pipeline``, so all three names are swapped), and restores the
originals on :meth:`Tracer.uninstall`.  A wrapper records one span
(name, start, end, parent) per call; a few wrappers also attach counts read
from the call's arguments and result.  Nothing in the program is changed.

Per-layer metrics are derived from the spans under one root span (a set-up
phase or one round of the workload's job).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from regsel import crossval, influence, ols, pipeline, stepwise, table

# Per-layer metrics, in the order they are printed.  Each is (name, unit).
PER_LAYER = (
    ("table.load_table_s", "s"),
    ("table.encode_design_s", "s"),
    ("table.subset_terms_s", "s"),
    ("table.subset_terms_calls", "count"),
    ("ols.fit_ols_s", "s"),
    ("ols.fit_ols_calls", "count"),
    ("ols.pivoted_refit_calls", "count"),
    ("influence.vif_prune_s", "s"),
    ("influence.vif_prune_self_s", "s"),
    ("influence.vif_passes", "count"),
    ("influence.influence_flags_s", "s"),
    ("stepwise.step_select_s", "s"),
    ("stepwise.step_select_self_s", "s"),
    ("stepwise.candidates_scored", "count"),
    ("stepwise.moves", "count"),
    ("stepwise.compare_models_s", "s"),
    ("crossval.mc_cross_validate_s", "s"),
    ("crossval.mc_cross_validate_self_s", "s"),
    ("crossval.rep_ms", "ms"),
    ("crossval.fits", "count"),
    ("crossval.fallback_fits", "count"),
    ("crossval.unseen_level_rows", "count"),
    ("pipeline.prep_s", "s"),
    ("pipeline.prune_s", "s"),
    ("pipeline.select_s", "s"),
    ("pipeline.diagnose_s", "s"),
    ("pipeline.cv_s", "s"),
    ("pipeline.report_s", "s"),
    ("pipeline.files_written", "count"),
    ("pipeline.bundle_bytes", "bytes"),
    ("report.write_s", "s"),
    ("cli.main_s", "s"),
    ("synth.write_dataset_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_step_select(fn, args, kwargs, trace) -> dict:
    """Candidate moves the search had to score, replayed from its own trace.

    Every iteration scores each legal single-term move from the current
    model (the last iteration finds none that helps), so the count depends
    on the moves made, not on how the program scores them.
    """
    a = _bound_args(fn, args, kwargs)
    design, scope, mode = a["design"], a["scope"], a["mode"]
    terms = design.term_names
    lower = set(scope.lower) if scope is not None else set()
    upper = set(terms) if scope is None or scope.upper is None else set(scope.upper)
    can_add, can_remove = mode in ("forward", "both"), mode in ("backward", "both")
    current = set(trace.start)
    scored = 0
    for i in range(len(trace.moves) + 1):
        scored += sum(1 for t in terms
                      if (t in current and can_remove and t not in lower)
                      or (t not in current and can_add and t in upper))
        if i < len(trace.moves):
            mv = trace.moves[i]
            current = current - {mv.term} if mv.direction == "remove" else current | {mv.term}
    return {"stepwise.candidates_scored": scored, "stepwise.moves": len(trace.moves)}


def _count_vif_prune(fn, args, kwargs, result) -> dict:
    _, report = result
    return {"influence.vif_passes": len(report.trail) + 1}


def _count_cv(fn, args, kwargs, result) -> dict:
    config = _bound_args(fn, args, kwargs)["config"]
    return {"crossval.fits": config.replications * len(config.models),
            "crossval.replications": config.replications,
            "crossval.unseen_level_rows": int(sum(result.unseen_level_rows))}


def _count_stage(fn, args, kwargs, paths) -> dict:
    return {"pipeline.files_written": len(paths)}


def _stage_name(fn, args, kwargs) -> str:
    return f"pipeline.{_bound_args(fn, args, kwargs)['stage']}"


def _targets():
    """(owner, attribute, span name, count callback) for every traced function."""
    from regsel import cli, report, synth
    return [
        (table, "load_table", "table.load_table", None),
        (table, "encode_design", "table.encode_design", None),
        (table.DesignMatrix, "subset_terms", "table.subset_terms", None),
        (ols, "fit_ols", "ols.fit_ols", None),
        (ols, "pivoted_effective_coef", "ols.pivoted_effective_coef", None),
        (influence, "vif_prune", "influence.vif_prune", _count_vif_prune),
        (influence, "influence_flags", "influence.influence_flags", None),
        (stepwise, "step_select", "stepwise.step_select", _count_step_select),
        (stepwise, "compare_models", "stepwise.compare_models", None),
        (crossval, "mc_cross_validate", "crossval.mc_cross_validate", _count_cv),
        (pipeline, "run_stage", _stage_name, _count_stage),
        (cli, "main", "cli.main", None),
        (synth, "write_dataset", "synth.write_dataset", None),
        *[(report, name, f"report.{name}", None) for name in report.__all__],
    ]


class Tracer:
    """Records spans in memory as parallel lists: name, start, end, parent, counts.

    Flat lists of strings, floats and ints add no objects for the garbage
    collector to scan, which keeps the tracing overhead small.
    """

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: dict = {}          # span index -> counts attached by its wrapper
        self._stack: list = []
        self._saved: list = []
        self.missing: list = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, count):
        push, pop, counts = self.open, self.close, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = push(name if isinstance(name, str) else name(fn, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(idx)
            if count is not None:
                counts[idx] = count(fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Swap every traced function for its wrapper, wherever regsel imported it."""
        targets = _targets()            # imports every traced module first
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "regsel" or key.startswith("regsel."))]
        for owner, attr, name, count in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            wrapper = self._wrap(original, name, count)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover.

        Children of one span never overlap (every call is made from one
        thread), so their durations add up to the time they cover.
        """
        child_time = defaultdict(float)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child_time[parent] += end - start
        return [(end - start) - child_time[i]
                for i, (start, end) in enumerate(zip(self.starts, self.ends))]

    def metrics_under(self, root: int) -> dict:
        """Per-layer metrics of the spans below ``root`` (one phase or round)."""
        selfs = self.self_times()
        # names of each span's ancestors up to (not including) the root
        ancestry = {root: ()}
        total = defaultdict(float)      # inclusive time, outermost occurrence of a name
        selft = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        for i in range(root + 1, len(self.names)):
            name, start, end, parent = self.names[i], self.starts[i], self.ends[i], self.parents[i]
            if parent not in ancestry:
                continue                # outside this root
            above = ancestry[parent]
            ancestry[i] = above + (name,)
            calls[name] += 1
            selft[name] += selfs[i]
            if name not in above:
                total[name] += end - start
            if name.startswith("report.") and not any(a.startswith("report.") for a in above):
                total["report.*"] += end - start
            if name == "ols.pivoted_effective_coef" and "crossval.mc_cross_validate" in above:
                counts["crossval.fallback_fits"] += 1
            for key, value in self.counts.get(i, {}).items():
                counts[key] += value

        cv_s = total["crossval.mc_cross_validate"]
        reps = counts["crossval.replications"]
        out = {
            "table.load_table_s": total["table.load_table"],
            "table.encode_design_s": total["table.encode_design"],
            "table.subset_terms_s": total["table.subset_terms"],
            "table.subset_terms_calls": calls["table.subset_terms"],
            "ols.fit_ols_s": total["ols.fit_ols"],
            "ols.fit_ols_calls": calls["ols.fit_ols"],
            "ols.pivoted_refit_calls": calls["ols.pivoted_effective_coef"],
            "influence.vif_prune_s": total["influence.vif_prune"],
            "influence.vif_prune_self_s": selft["influence.vif_prune"],
            "influence.vif_passes": counts["influence.vif_passes"],
            "influence.influence_flags_s": total["influence.influence_flags"],
            "stepwise.step_select_s": total["stepwise.step_select"],
            "stepwise.step_select_self_s": selft["stepwise.step_select"],
            "stepwise.candidates_scored": counts["stepwise.candidates_scored"],
            "stepwise.moves": counts["stepwise.moves"],
            "stepwise.compare_models_s": total["stepwise.compare_models"],
            "crossval.mc_cross_validate_s": cv_s,
            "crossval.mc_cross_validate_self_s": selft["crossval.mc_cross_validate"],
            "crossval.rep_ms": 1000.0 * cv_s / reps if reps else 0.0,
            "crossval.fits": counts["crossval.fits"],
            "crossval.fallback_fits": counts["crossval.fallback_fits"],
            "crossval.unseen_level_rows": counts["crossval.unseen_level_rows"],
            "pipeline.files_written": counts["pipeline.files_written"],
            "report.write_s": total["report.*"],
            "cli.main_s": total["cli.main"],
            "synth.write_dataset_s": total["synth.write_dataset"],
            "trace.spans": len(ancestry) - 1,
        }
        for stage in pipeline.STAGES:
            out[f"pipeline.{stage}_s"] = total[f"pipeline.{stage}"]
        return out

    def write(self, path) -> None:
        """Dump every span as TSV: index, parent, name, start, end, self time."""
        selfs = self.self_times()
        lines = ["index\tparent\tname\tstart_s\tend_s\tself_s"]
        for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)):
            lines.append(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\t{selfs[i]!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
