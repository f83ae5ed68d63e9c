"""lpmhd benchmark runner.

    python3 benchmarks/run.py --workload tg2d-iterate --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics are measured with no tracing:
set-up is repeated and its median reported, one shortened warm-up runs
untimed, then the workload repeats while at least half of the next
repetition fits in ``--seconds``, and the median repetition is reported.  With ``--trace 1`` one untraced
repetition is followed by two traced ones, each a set-up plus a run; the
per-layer metrics are the median of the two traced repetitions, and every
count must repeat exactly between them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Environment, check
results and (when traced) the spans go to ``.bench_out/`` in the checkout.
The exit code is 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 100
SETUP_BUDGET_S = 0.5


def cap_thread_pools(nproc: int):
    """Limit BLAS/OpenMP pools to the CPUs this process may use.  Must run
    before numpy is imported."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def import_package():
    """Import lpmhd from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "lpmhd" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import lpmhd

    if Path(lpmhd.__file__).resolve().parent != (src / "lpmhd").resolve():
        return None
    return lpmhd


def time_setup(workload, times):
    """Repeat set-up for about SETUP_BUDGET_S, appending each time to
    ``times``; return the inputs of the last repeat."""
    begin = perf_counter()
    count = 0
    while count < SETUP_MIN_REPEATS or (
        count < SETUP_MAX_REPEATS and perf_counter() - begin < SETUP_BUDGET_S
    ):
        t0 = perf_counter()
        inputs = workload.setup()
        times.append(perf_counter() - t0)
        count += 1
    return inputs


def timed_run(workload, inputs):
    cpu0 = process_time()
    t0 = perf_counter()
    outcome = workload.run(inputs)
    return outcome, perf_counter() - t0, process_time() - cpu0


def measure_end_to_end(workload, inputs, setup_times, seconds: float):
    rep_times, units, checks = [], [], []
    begin = perf_counter()
    while True:
        outcome, elapsed, _ = timed_run(workload, inputs)
        rep_times.append(elapsed)
        units.extend(outcome.units)
        checks.extend(workload.checks(outcome))
        # Release this repetition's series before the next one starts, so
        # peak_rss_mb is the footprint of one run, not of two.
        del outcome
        # Set-up is timed between repetitions too, so its median spans the
        # whole run rather than its first second.
        time_setup(workload, setup_times)
        # Starting a repetition that only half fits overruns --seconds by at
        # most half a repetition, but keeps a workload whose repetition is
        # near half the budget from stopping after one when the host is slow.
        if perf_counter() - begin + 0.5 * statistics.median(rep_times) > seconds:
            break
    metrics = {
        "run_s": (statistics.median(rep_times), "s"),
        "iterate_p50_s": (statistics.median(units), "s"),
    }
    return metrics, checks, {"repetitions": rep_times, "units": len(units)}


def measure_layers(workload, inputs, lpmhd, spans_path):
    outcome, untraced_s, cpu_s = timed_run(workload, inputs)
    checks = list(workload.checks(outcome))
    tracer = tracing.Tracer()
    tracer.install(lpmhd)
    per_rep, traced_times = [], []
    try:
        for _ in range(2):
            # A traced repetition covers one set-up and one run, so the
            # random draws of random3d-p3's set-up are seen too.
            tracer.reset()
            outcome, elapsed, _ = timed_run(workload, workload.setup())
            traced_times.append(elapsed)
            checks.extend(workload.checks(outcome))
            per_rep.append(tracing.layer_metrics(tracer))
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    metrics = {}
    for key, (first, unit) in per_rep[0].items():
        second = per_rep[1][key][0]
        if unit in ("count", "B"):
            checks.append((f"{key} repeats across traced runs", first == second))
        metrics[key] = (statistics.median([first, second]), unit)
    traced_s = statistics.median(traced_times)
    metrics["mhd.snapshots"] = (outcome.snapshots, "count")
    metrics["process.cpu_s"] = (cpu_s, "s")
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    info = {"untraced_run_s": untraced_s, "traced_run_s": traced_times, "spans": len(tracer.names)}
    return metrics, checks, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    cap_thread_pools(nproc)
    lpmhd = import_package()
    if lpmhd is None:
        print(f"lpmhd source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        workload = WORKLOADS[args.workload](lpmhd, args.seed, scratch)
        setup_times = []
        inputs = time_setup(workload, setup_times)
        workload.warm_up(inputs)
        if args.trace:
            metrics, checks, info = measure_layers(
                workload, inputs, lpmhd, OUT_DIR / f"spans-{stem}.csv"
            )
        else:
            metrics, checks, info = measure_end_to_end(
                workload, inputs, setup_times, args.seconds
            )
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                **metrics,
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }

    failed = sum(1 for _, ok in checks if not ok)
    fail_ratio = failed / len(checks)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "setup_repeats": len(setup_times),
        "reference_checked": getattr(workload, "reference", None) is not None,
        "fail_ratio": fail_ratio,
        "checks": [[name, ok] for name, ok in checks],
        "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("env: " + json.dumps(env))
    for name, ok in checks:
        if not ok:
            print(f"check FAILED: {name}")
    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value:.6g} {unit}")
    print(f"{'fail_ratio':44s} {fail_ratio:.6g} 1 ({failed}/{len(checks)} checks failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
