"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 perfbench/baseline.py --runs 10 --first-seed 1

For each workload, makes ``--runs`` end-to-end runs, each with another seed,
then one traced run.  For each end-to-end metric it reports the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json.  Writes
``perfbench/baseline.json``: the machine and library record, each workload's
rationale, the end-to-end results and the traced run's per-layer metrics.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import run  # fixes the thread count before numpy loads

run.bootstrap()

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402

REPORT = re.compile(r"^# (\S+)\s+(-?[0-9.e+-]+) (\S+)")
PINNING_NOTE = (
    "CPUs are neither pinned nor frequency-locked; the host is shared with "
    "other workloads, so timings carry its noise"
)


def _meminfo_total_gib() -> float:
    with open("/proc/meminfo") as handle:
        for line in handle:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 2**20
    return float("nan")


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def machine_record() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in run.THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "memory_total_gib": round(_meminfo_total_gib(), 2),
        "pinning": PINNING_NOTE,
    }


def one_run(name: str, seed: int, seconds: int, trace: int):
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    report = {}
    for line in lines[:-1]:
        match = REPORT.match(line)
        if match:
            report[match.group(1)] = (float(match.group(2)), match.group(3))
    return json.loads(lines[-1]), report


def spread_of(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--output", default=os.path.join(run.HERE, "baseline.json"))
    args = parser.parse_args(argv)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "machine": machine_record(),
        "run_seconds": seconds,
        "seeds": seeds,
        "date": time.strftime("%Y-%m-%d"),
        "workloads": {},
    }
    for name, cls in workloads.WORKLOADS.items():
        values, units = {}, {}
        attempted = failed = 0
        for seed in seeds:
            result, report = one_run(name, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, (value, unit) in report.items():
                values.setdefault(metric, []).append(value)
                units[metric] = unit
            print(f"# {name} seed {seed}: " + ", ".join(f"{m}={v[-1]:.5g}" for m, v in values.items()), flush=True)
        end_to_end = {}
        for metric, vals in values.items():
            entry = {"unit": units[metric], **spread_of(vals)}
            if metric in bounds:
                entry["bound"] = bounds[metric]
            end_to_end[metric] = entry
        traced, _ = one_run(name, seeds[0], seconds, 1)
        with open(os.path.join(run.OUT_DIR, f"{name}-seed{seeds[0]}-layers.json")) as handle:
            layers = json.load(handle)["metrics"]
        record["workloads"][name] = {
            "why": " ".join(cls.__doc__.split()),
            "busy_layers": list(cls.busy_layers),
            "idle_layers": list(cls.idle_layers),
            "inputs_repeat_across_passes": cls.inputs_repeat,
            "rule_reuse_ratio_within_pass": layers.get("measures.rule_reuse_ratio"),
            "rule_reuse_ratio_across_run": layers.get("measures.rule_reuse_ratio_run"),
            "ops": {"attempted": attempted, "failed": failed},
            "end_to_end": end_to_end,
            "per_layer": layers,
            "traced_run_failed_ops": traced["failed"],
        }
        for metric, entry in end_to_end.items():
            bound = entry.get("bound")
            flag = ""
            if bound is not None and entry["spread"] is not None:
                flag = "  over bound" if entry["spread"] > bound else (
                    "  over bound/3" if entry["spread"] > bound / 3 else "  ok")
            print(
                f"{name:<14} {metric:<18} median {entry['median']:.6g} {entry['unit']}"
                f"  spread {entry['spread'] if entry['spread'] is None else round(entry['spread'], 4)}"
                f"  bound {bound}{flag}",
                flush=True,
            )
    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"# wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
