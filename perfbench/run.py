#!/usr/bin/env python3
"""Runs one workload of the slumber perf benchmark and prints its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the slumber library from src/ plus
perfbench/driver.cc, Release) into .bench_build/perfbench; later runs
only re-check the build. The driver makes its inputs from --seed, times
ops for about --seconds seconds and checks every result.

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics of a separate traced run, folding the driver's
slumber-obs-v1 export with obs_reader.py. Metrics a workload does not
exercise read 0 (for example bulk.* on coroutine-trials).

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics ({name: {value, unit}}). The exit code is
0 whenever that line is printed, and non-zero (with no result line) when
the benchmark cannot build or run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import obs_reader  # noqa: E402

WORKLOADS = ("bulk-sleeping-8M", "bulk-faults-2M", "coroutine-trials")

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "awake_node_rounds_per_s": "1/s",
    "gen_edges_per_s": "1/s",
    "peak_rss_mb": "MB",
    "node_avg_awake": "rounds",
}

PER_LAYER = {
    "graph.gen_s": "s",
    "graph.from_csr_s": "s",
    "graph.degree_pass_s": "s",
    "graph.fill_pass_s": "s",
    "graph.sort_up_halves_s": "s",
    "graph.gen_scaling_eff": "ratio",
    "graph.edges": "count",
    "bulk.run_s": "s",
    "bulk.draw_coins_s": "s",
    "bulk.frame_self_s": "s",
    "bulk.scan_s": "s",
    "bulk.mark_awake_s": "s",
    "bulk.frames": "count",
    "bulk.scans": "count",
    "bulk.run_scaling_eff": "ratio",
    "bulk.awake_node_rounds": "count",
    "bulk.messages": "count",
    "pool.dispatch_us": "us",
    "pool.scan_dispatch_us": "us",
    "pool.chunk_imbalance_mean": "ratio",
    "pool.chunk_imbalance_max": "ratio",
    "pool.lane_busy_frac": "ratio",
    "fault.clean_run_s": "s",
    "fault.lossy_run_s": "s",
    "fault.dynamics_run_s": "s",
    "fault.repair_s": "s",
    "fault.repair_rounds": "count",
    "fault.injected_losses": "count",
    "analysis.verify_s": "s",
    "analysis.batch_lane_util": "ratio",
    "sim.trial_s": "s",
    "sim.awake_node_rounds": "count",
    "sim.messages": "count",
    "obs.overhead_frac": "ratio",
}

DRIVER_TIMEOUT_S = 170


def build(root: Path) -> Path:
    """Configures (once) and builds the driver; returns its path."""
    build_dir = root / ".bench_build" / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        configure.append("-DCMAKE_BUILD_TYPE=Release")
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)],
        check=True,
        stdout=sys.stderr,
    )
    return build_dir / "perfbench_driver"


def per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def layer_metrics(
    driver: dict[str, Any], trace: obs_reader.ObsReport
) -> dict[str, float]:
    """Per-layer metrics: the driver's direct probes plus the traced
    section's span self times, each per traced op (graph.* spans per
    generator call)."""
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(driver["metrics"])
    ops = int(driver["traced_ops"])
    lanes = int(driver["lanes"])

    def self_s(cat: str, name: str) -> float:
        return trace.stats(cat, name).self_us / 1e6

    def total_s(cat: str, name: str) -> float:
        return trace.stats(cat, name).total_us / 1e6

    gens = trace.stats("gen", "gnp_sharded_csr").count
    for span in ("degree_pass", "fill_pass", "sort_up_halves"):
        metrics[f"graph.{span}_s"] = per_op(self_s("gen", span), gens)
    metrics["bulk.draw_coins_s"] = per_op(total_s("mis", "draw_coins"), ops)
    metrics["bulk.frame_self_s"] = per_op(self_s("mis", "frame"), ops)
    metrics["bulk.scan_s"] = per_op(total_s("engine", "scan"), ops)
    metrics["bulk.mark_awake_s"] = per_op(total_s("engine", "mark_awake"), ops)
    metrics["bulk.scans"] = per_op(trace.stats("engine", "scan").count, ops)
    metrics["bulk.frames"] = per_op(float(trace.footer["frames"]), ops)
    footer = trace.footer
    for stat in ("chunk_imbalance_mean", "chunk_imbalance_max"):
        metrics[f"pool.{stat}"] = float(footer[stat])
    lane_ms = lanes * float(footer["wall_ms"])
    metrics["pool.lane_busy_frac"] = trace.lane_busy_ms() / lane_ms
    repair = total_s("fault", "live_repair") + total_s("fault", "churn")
    metrics["fault.repair_s"] = per_op(repair, ops)
    trials = trace.stats("trials", "trial")
    metrics["sim.trial_s"] = per_op(trials.total_us / 1e6, trials.count)
    op_wall = total_s("bench", "op")
    if trials.count and op_wall:
        metrics["analysis.batch_lane_util"] = (
            trials.total_us / 1e6 / (lanes * op_wall)
        )
    return metrics


def tail(op_s: list[float]) -> str:
    """The highest percentile with at least ten ops beyond it."""
    if len(op_s) < 11:
        return f"n/a ({len(op_s)} ops, fewer than 11)"
    ordered = sorted(op_s)
    index = len(ordered) - 11
    pct = 100.0 * (index + 1) / len(ordered)
    return f"{ordered[index]:.4f} s (p{pct:.0f} of {len(ordered)} ops)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = HERE.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        driver_bin = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [
        str(driver_bin),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]  # fmt: skip
    jsonl = driver_bin.parent / f"trace-{args.workload}-{args.seed}.jsonl"
    if args.trace:
        command += ["--obs-out", str(jsonl)]
    try:
        proc = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            text=True,
            timeout=DRIVER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    driver = json.loads(lines[-1])

    if args.trace:
        trace = obs_reader.read(str(jsonl))
        jsonl.unlink()
        values = layer_metrics(driver, trace)
        units = PER_LAYER
    else:
        values = driver["metrics"]
        units = END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: driver did not report {missing}", file=sys.stderr)
        return 1

    attempted = int(driver["attempted"])
    failed = int(driver["failed"])
    op_s = driver["op_s"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:28} {values[name]:>18.6g} {unit}")
    if not args.trace:
        print(f"  {'op_tail_s':28} {tail(op_s)}")
        if op_s:
            print(f"  {'op_mean_s':28} {statistics.fmean(op_s):>18.6g} s")
    fail_frac = failed / max(attempted, 1)
    print(f"  {'fail_frac':28} {fail_frac:>18.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
