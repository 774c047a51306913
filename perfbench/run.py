"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload phi --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up three times, then repeats its job
until ``--seconds`` have passed, and prints the end-to-end metrics of
``BENCHMARK.json``: the median job time, the set-up time (imports plus
the median set-up) and the peak resident set.  Times are in reference
seconds (see ``calibration.py``); the raw seconds go to the run record.

``--trace 1`` sets up once and runs the job twice: first with only a
clock on each lattice step (for the outer-step latencies), then with a
span at every layer boundary (see ``tracing.py``).  It prints the
per-layer metrics, with the difference between the two job times, in
reference seconds, as the tracing overhead.  ``--seconds`` is unused.

Every job's outputs are checked (see ``workloads.py``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted`` and ``failed`` (counts of output checks) and ``metrics``.
A record of the run, with the environment and, when traced, every span,
is written to ``perfbench/out/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))
try:
    import calibration  # noqa: E402
    import tracing  # noqa: E402
    import workloads  # noqa: E402
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: {exc}; run from the root of a checkout that "
             "holds the library sources under src/")
IMPORT_S = time.perf_counter() - _START
SETUP_REPEATS = 3
# outer-step latencies are reported only from this many samples on
MIN_STEP_SAMPLES = 100


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def llc_bytes():
    """Size of the last-level cache of CPU 0, or None if unknown."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        best = max(best, (level, value))
    return best[1]


def environment():
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(), "llc_bytes": llc_bytes(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(w, seed, seconds):
    """End-to-end metrics with tracing off, in reference seconds."""
    timer = calibration.ReferenceTimer()
    import_s = IMPORT_S * calibration.REFERENCE_CHUNK_S / timer.last
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        ctx, raw, ref = timer.time(w.setup, seed)
        raw_setups.append(raw)
        setups.append(ref)
    walls, raw_walls, checks = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        out, raw, ref = timer.time(w.job, ctx)
        raw_walls.append(raw)
        walls.append(ref)
        checks += workloads.check(w, seed, out, ctx)
    checks += workloads.probe_checks(w, seed, ctx)
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": import_s + statistics.median(setups),
               "peak_rss_mb": peak_rss_mb()}
    record = {"wall_s_runs": walls, "setup_s_runs": setups,
              "import_s": import_s, "raw_wall_s_runs": raw_walls,
              "raw_setup_s_runs": raw_setups, "raw_import_s": IMPORT_S}
    return metrics, checks, record


def run_traced(w, seed):
    """Per-layer metrics: one job with only the step clock, one traced."""
    before = tracing.current()
    tracer = tracing.Tracer()
    with tracer.installed():
        ctx = tracer.call("setup", w.setup, seed)
    timer = calibration.ReferenceTimer()
    starts = []
    with tracing.step_clock(starts):
        out, _, untraced = timer.time(w.job, ctx)
    checks = workloads.check(w, seed, out, ctx)
    with tracer.installed():
        out, _, traced = timer.time(tracer.call, "job", w.job, ctx)
    checks += workloads.check(w, seed, out, ctx)
    checks += workloads.probe_checks(w, seed, ctx)
    if tracing.current() != before:
        raise RuntimeError("a traced function was not restored")

    metrics = tracing.layer_metrics(tracer)
    steps = sorted(tracing.step_latencies(starts))
    if len(steps) >= MIN_STEP_SAMPLES:
        pct = tracing.tail_percentile(len(steps))
        metrics["step_p50_ms"] = 1e3 * statistics.median(steps)
        metrics["step_tail_ms"] = 1e3 * tracing.nearest_rank(steps, pct)
        metrics["step_tail_pct"] = pct
    else:
        metrics.update(step_p50_ms=0.0, step_tail_ms=0.0, step_tail_pct=0)
    metrics["step_samples"] = len(steps)
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics, checks, {"spans": tracer.spans}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.trace:
        declared = bench["per_layer"]
        metrics, checks, record = run_traced(w, args.seed)
    else:
        declared = bench["end_to_end"]
        metrics, checks, record = run_plain(w, args.seed, args.seconds)
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    failed = [label for label, ok in checks if not ok]
    result = {"correct": not failed, "attempted": len(checks),
              "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    env = environment()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"env": env, "result": result, "failed_checks": failed,
                   **record}, fh)

    for label in failed:
        print(f"perfbench: check failed: {label}", file=sys.stderr)
    print(f"{w.name} seed={args.seed} trace={args.trace}")
    for k, unit in units.items():
        print(f"  {k:36s} {metrics[k]:.6g} {unit}")
    print(f"  {'failed_frac':36s} {len(failed) / len(checks):.6g} "
          f"({len(failed)} of {len(checks)} checks)")
    if "raw_wall_s_runs" in record:
        print("  raw seconds: jobs " + ", ".join(
            f"{x:.3f}" for x in record["raw_wall_s_runs"]) + "; set-ups "
            + ", ".join(f"{x:.3f}" for x in record["raw_setup_s_runs"]))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
