#!/usr/bin/env python3
"""regsel benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload study-ref --seed 1 --seconds 20 --trace 0

The workload's job is repeated in whole rounds until ``--seconds`` have
passed; ``wall_s`` and ``cpu_s`` are medians over the rounds.  ``setup_s``
is the median over several fresh processes that each import regsel and
write the workload's inputs.  With ``--trace 1`` the run prints the
per-layer metrics instead: after a first untraced round, traced and
untraced rounds alternate (see ``tracing.py``), and the tracing overhead is
the traced rounds' median wall time minus that of the later untraced ones.
Round 0 is left out of that comparison because it runs in a cold process:
on cv-wide it takes about a tenth longer than later rounds, paying page
faults that later rounds do not.

BLAS and OpenMP pools are pinned to one thread before numpy loads: on a
small machine default threading makes the same job's time swing widely.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  regsel is imported from the
``src`` directory next to this one and nowhere else.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REGSEL_OUT", None)

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
SETUP_SAMPLES = 5
MAX_MEASURE_S = 120.0           # keeps a whole run well inside three minutes

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_regsel():
    """Import regsel from this checkout's sources; exit with an error when they are absent."""
    if not (SRC / "regsel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no regsel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import regsel

    if Path(regsel.__file__).resolve().parent != (SRC / "regsel").resolve():
        sys.exit(f"perfbench: regsel was imported from {regsel.__file__}, not from {SRC}")


def blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy load, as the library reports it."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    found[pkg.__name__] = int(fn())
                    break
    return found


def machine_context() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ",".join(f"{k}:{v}" for k, v in blas_threads().items()) or "unknown"
    return (f"cores={os.cpu_count()} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={threads} numpy={numpy.__version__} scipy={scipy.__version__} "
            f"python={platform.python_version()}")


def time_setups(workload: str, seed: int, run_dir: Path) -> list:
    """Wall time of fresh processes that import regsel and write the inputs."""
    times = []
    for k in range(SETUP_SAMPLES):
        target = run_dir / f"setup-{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-into", str(target)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(target)
    return times


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        sys.exit("perfbench: --seed must be a non-negative integer")
    import_regsel()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_into:
        target = Path(args.setup_into)
        target.mkdir(parents=True)
        wl.setup(args.seed, target)
        return 0

    print(f"machine: {machine_context()}")
    run_dir = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    setup_times = [] if args.trace else time_setups(wl.name, args.seed, run_dir)

    tracer = tracing.Tracer() if args.trace else None
    in_dir = run_dir / "inputs"
    in_dir.mkdir()
    if tracer:
        tracer.install()
        setup_root = tracer.open("setup")
    inputs = wl.setup(args.seed, in_dir)
    if tracer:
        tracer.close(setup_root)
        tracer.uninstall()

    rounds = []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        traced = bool(tracer) and k % 2 == 1
        out_dir = run_dir / f"round-{k}"
        if traced:
            tracer.install()
            root = tracer.open("round")
        error = result = None
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            result = wl.run(inputs, out_dir)
        except Exception:
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if traced:
            tracer.close(root)
            tracer.uninstall()
        rounds.append({"traced": traced, "wall": wall, "cpu": cpu, "out": out_dir,
                       "result": result, "error": error, "root": root if traced else None})
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= (3 if tracer else 1)
        if enough and (elapsed >= args.seconds or elapsed + wall > MAX_MEASURE_S):
            break

    # correctness: the first completed round is checked against independent
    # recomputations; every other round must reproduce its outputs exactly
    failed, problems = 0, []
    reference = next((r for r in rounds if r["error"] is None), None)
    check_errors = wl.check(inputs, reference["result"], args.seed) if reference else []
    for k, r in enumerate(rounds):
        if r["error"] is not None:
            problems.append(f"round {k} raised:\n{r['error']}")
        elif not wl.same_output(reference["result"], r["result"]):
            problems.append(f"round {k} did not reproduce the first completed round's outputs")
        elif not check_errors:
            continue
        failed += 1
    if check_errors:
        problems += [f"check failed: {e}" for e in check_errors]
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    metrics = {}
    if tracer:
        traced = [r for r in rounds if r["traced"]]
        setup_part = tracer.metrics_under(setup_root)
        per_round = []
        for r in traced:
            m = tracer.metrics_under(r["root"])
            m["pipeline.bundle_bytes"] = dir_bytes(r["out"])
            per_round.append(m)
        overhead = (statistics.median(r["wall"] for r in traced)
                    - statistics.median(r["wall"] for r in plain[1:]))
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead
            else:   # counts repeat exactly from round to round; median_low keeps them whole
                middle = statistics.median if unit in ("s", "ms") else statistics.median_low
                value = middle(m[name] for m in per_round) + setup_part.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
        tracer.write(run_dir / "spans.tsv")
        if tracer.missing:
            print(f"perfbench: not traced (absent): {', '.join(sorted(set(tracer.missing)))}",
                  file=sys.stderr)
    else:
        values = {
            "wall_s": statistics.median(r["wall"] for r in plain),
            "setup_s": statistics.median(setup_times),
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for k, r in enumerate(rounds):
        print(f"round {k}: wall {r['wall']:.4f} s, cpu {r['cpu']:.4f} s"
              + (" (traced)" if r["traced"] else ""))
    if setup_times:
        print(f"setup samples: {', '.join(f'{t:.4f}' for t in setup_times)} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    summary = {"correct": not check_errors, "attempted": len(rounds), "failed": failed,
               "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for path in [in_dir] + [r["out"] for r in rounds]:
        shutil.rmtree(path, ignore_errors=True)
    print(f"run directory: {run_dir.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
