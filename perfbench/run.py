"""Run one workload of the cmvpencil benchmark and print its metrics.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 25 --trace 0

Run from the root of a cmvpencil checkout: the package is imported from
``src/`` and the scripts from ``scripts/``; without them the run exits with
code 1 and prints no result.  One process runs one workload as a closed
loop (one client, which waits for each result) with BLAS/OpenMP threads
fixed at 1.

Pass and op times are scaled to a reference host speed (``hostref``): the
shared host drifts between speed states up to about 1.7x apart, and a fixed
reference kernel run between ops tracks that drift.  The wall-clock median
pass time and the kernel's median time are printed beside them.  Set-up
time is wall time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (at most MAX_TRACED_PASSES traced ones, which
bounds the spans kept in memory), prints the per-layer metrics and writes
the spans and the full per-layer record under ``perfbench/out/``.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import hostref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_PASSES = 11  # pass_tail_s needs ten passes beyond its percentile
MIN_TRACED_PASSES = 2
MAX_TRACED_PASSES = 15
SETUP_PROBES = 7
REQUIRED = (
    os.path.join("src", "cmvpencil", "__init__.py"),
    os.path.join("scripts", "spectrum_sweep.py"),
    os.path.join("scripts", "weight_tables.py"),
)


def bootstrap() -> None:
    """Put the checkout's package on the path, or exit with an error."""
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        sys.exit(f"error: {ROOT} is not a cmvpencil checkout (missing {', '.join(missing)})")
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import cmvpencil

    if not os.path.abspath(cmvpencil.__file__).startswith(src + os.sep):
        sys.exit(f"error: cmvpencil imported from {cmvpencil.__file__}, not {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_metrics(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def measure_setup(args) -> list:
    """Wall time of fresh processes that import cmvpencil and build the
    workload's inputs up to the first op, SETUP_PROBES times.

    Unlike op time, set-up time is not scaled by ``hostref``: it is mostly
    imports, and the kernel run around a probe does not track it."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if probe.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{probe.stderr}")
    return times


def run_passes(workload, tally, seconds: float, tracer=None) -> list:
    """Closed loop of passes for ``seconds``; returns one record per pass.

    A pass starts only if, judged by the median pass cycle so far (inputs,
    ops and gates), it ends within ``seconds``, unless too few passes have
    run.  With a tracer, passes alternate untraced and traced.
    """
    records, cycles = [], []
    start = time.perf_counter()
    minimum = 2 * MIN_TRACED_PASSES if tracer else MIN_PASSES
    while True:
        elapsed = time.perf_counter() - start
        if len(records) >= minimum and elapsed + statistics.median(cycles) > seconds:
            return records
        if tracer and len(records) >= 2 * MAX_TRACED_PASSES:
            return records
        t0 = time.perf_counter()
        pass_id = len(records)
        inputs = workload.inputs(pass_id)
        traced = tracer is not None and pass_id % 2 == 1
        if traced:
            tracer.begin_pass(pass_id)
        tally.begin_pass()
        try:
            workload.run_pass(tally, inputs)
            tally.end_pass()
        finally:
            if traced:
                tracer.end_pass()
        records.append({
            "traced": traced,
            "kinds": dict(tally.scaled),
            "pass_s": sum(tally.scaled.values()),
            "wall_s": sum(tally.times.values()),
        })
        cycles.append(time.perf_counter() - t0)


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


def fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def result_line(tally, metrics: dict, units: dict) -> str:
    missing = [name for name in units if name not in metrics]
    if missing:
        sys.exit(f"error: metrics not measured: {', '.join(missing)}")
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def report_failures(tally) -> None:
    for line in tally.errors:
        print(f"# failed op: {line}")


def run_end_to_end(args, workloads) -> int:
    setup = measure_setup(args)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    tally = workloads.Tally(host_kernel=workload.host_kernel)
    records = run_passes(workload, tally, args.seconds)
    pass_times = [r["pass_s"] for r in records]
    tail_value, tail_pct = tail(pass_times)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(pass_times),
        "pass_tail_s": tail_value,
        "op_fail_ratio": tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_wall_s": statistics.median(r["wall_s"] for r in records),
        "host_ref_s": statistics.median(tally.ref_samples),
    }
    units = {
        "setup_s": "s", "pass_s": "s", "pass_tail_s": "s", "op_fail_ratio": "ratio", "peak_rss_mb": "MB",
        "pass_wall_s": "s", "host_ref_s": "s",
    }
    for kind in workload.kinds:
        metrics[kind] = statistics.median(r["kinds"].get(kind, 0.0) for r in records)
        units[kind] = "s"
    print(
        f"# workload {args.workload}, seed {args.seed}: {len(records)} passes, "
        f"{tally.attempted} ops, {tally.failed} failed; threads "
        + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    )
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setup)} fresh processes)"
        elif name == "pass_tail_s":
            note = f"  (p{tail_pct:.1f} of {len(records)} passes)"
        elif name == "host_ref_s":
            note = f"  ({workload.host_kernel} reference kernel; {hostref.REFERENCE_S} s on the reference host)"
        elif name == "op_fail_ratio":
            note = f"  ({tally.failed}/{tally.attempted})"
        print(f"# {name:<18} {fmt(value)} {units[name]}{note}")
    report_failures(tally)
    print(result_line(tally, metrics, declared_metrics("end_to_end")))
    return 0


def run_traced(args, workloads) -> int:
    import tracing

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    tracer = tracing.Tracer(extra_modules=workload.script_modules)
    tally = workloads.Tally(tracer, workload.host_kernel)
    records = run_passes(workload, tally, args.seconds, tracer=tracer)
    metrics = tracer.layer_metrics()
    traced = [r["pass_s"] for r in records if r["traced"]]
    untraced = [r["pass_s"] for r in records if not r["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    tracer.write_spans(stem + "-spans.csv.gz")
    with open(stem + "-layers.json", "w") as handle:
        json.dump({"passes": len(records), "traced_passes": len(traced), "metrics": metrics}, handle, indent=1, sort_keys=True)
    print(
        f"# workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
        f"{len(traced)} traced passes, {tally.attempted} ops, {tally.failed} failed; "
        f"{len(tracer.spans)} spans written to {stem}-spans.csv.gz"
    )
    for name in sorted(metrics):
        print(f"# {name:<34} {fmt(metrics[name]) if not isinstance(metrics[name], list) else metrics[name]}")
    report_failures(tally)
    print(result_line(tally, metrics, declared_metrics("per_layer")))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](ROOT, args.seed).inputs(0)
        return 0
    return run_traced(args, workloads) if args.trace else run_end_to_end(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
