"""seamkit benchmark: CLI workloads timed in fresh processes.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process (``worker.py``) with one closed-loop
client that calls ``seamkit.cli.main(argv)`` in-process and starts the next
op only after the previous one returns.  With ``--trace 0`` the set-up is
repeated SETUP_REPEATS times, each in a fresh process, and the end-to-end
metrics named in BENCHMARK.json are reported.  With ``--trace 1`` one
process times an untraced pass and then a traced pass, and the per-layer
metrics are reported.  The last stdout line is one JSON object; the exit
code is non-zero when any op failed or its outputs were wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("geo-large", "geo-fragmented", "sample", "dpo")
DEFAULT_SEED = 0  # the seed whose outputs reference.json records
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # one workload's processes, set-up included
# Median time of calibration.Calibrator.sample() on the machine the benchmark
# was written on (a 2-vCPU Intel Xeon VM) when it was quiet.  Timings are
# reported in seconds at that speed: measured seconds * CAL_REF_S / the
# median kernel time measured in the same process.
CAL_REF_S = 0.035
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
# The workload-specific throughput that work_per_s carries, printed beside it.
THROUGHPUT_NAMES = {
    "geo-large": "tris_per_s",
    "geo-fragmented": "tris_per_s",
    "sample": "tokens_per_s",
    "dpo": "dpo_steps_per_s",
}


class BenchError(Exception):
    """A workload process failed to set up, crashed or ran out of time."""


def tail_percentile(values, percentiles=TAIL_PERCENTILES, min_beyond=TAIL_MIN_BEYOND):
    """Highest percentile (nearest rank) with at least ``min_beyond`` samples
    above its rank, as ``(percentile, value)``; None when there is none."""
    ordered = sorted(values)
    n = len(ordered)
    for p in sorted(percentiles, reverse=True):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= min_beyond:
            return p, ordered[rank - 1]
    return None


def per_layer_value(name: str, ops: list) -> float:
    """Per-op median of one layer value.  ``cylinder.*`` values exist only on
    the cylinder op; every other value counts as 0 on an op that lacks it."""
    if name.startswith("cylinder."):
        values = [op["layers"][name] for op in ops if name in op["layers"]]
    else:
        values = [op["layers"].get(name, 0.0) for op in ops]
    return float(statistics.median(values)) if values else 0.0


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}-{mode}-{time.time_ns()}")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--spawned-at", repr(time.monotonic()),
        "--work-dir", work_dir,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} process exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} process printed no result")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        return spawn(workload, seed, seconds, "trace", deadline)
    runs = [spawn(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
    result = spawn(workload, seed, seconds, "run", deadline)
    result["setup_samples"] = [
        (r["setup_s"], r["setup_calibration_s"]) for r in runs + [result]
    ]
    return result


def speed_factor(calibration_s) -> float:
    """Reference-speed seconds per measured second, from kernel samples."""
    return CAL_REF_S / statistics.median(calibration_s)


def end_to_end(result: dict, factor: float) -> dict:
    ops = result["ops"]
    return {
        "setup_s": statistics.median(
            s * speed_factor(cal) for s, cal in result["setup_samples"]
        ),
        "op_p50_s": statistics.median(op["seconds"] for op in ops) * factor,
        "work_per_s": sum(op["work"] for op in ops) / sum(op["seconds"] for op in ops) / factor,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, specs: dict, factor: float) -> dict:
    traced = result["traced_ops"]
    values = {}
    for name, spec in specs.items():
        if name != "trace.overhead_ratio":
            scale = factor if spec["unit"] == "s" else 1.0
            values[name] = per_layer_value(name, traced) * scale
    # Both passes walk the same op cycle from its start; comparing equal-length
    # prefixes compares the same inputs.
    n = min(len(traced), len(result["ops"]))
    values["trace.overhead_ratio"] = (
        statistics.median(op["seconds"] for op in traced[:n])
        / statistics.median(op["seconds"] for op in result["ops"][:n])
    )
    return values


def report(workload: str, result: dict, metrics: dict, specs: dict, factor: float) -> None:
    """Human-readable lines: metrics with units, the tail rule, the checks."""
    ops = result["ops"] + result.get("traced_ops", [])
    failed = [op for op in ops if op["problems"]]
    print(f"== {workload}: {len(result['ops'])} timed ops"
          + (f", {len(result['traced_ops'])} traced ops" if "traced_ops" in result else "")
          + f"; work unit: {result['work_unit']}")
    for name, value in metrics.items():
        alias = f" ({THROUGHPUT_NAMES[workload]})" if name == "work_per_s" else ""
        print(f"  {name}{alias} = {value:.6g} {specs[name]['unit']}")
    timed = result.get("traced_ops", result["ops"])
    print(f"  measured: op p50 {statistics.median(op['seconds'] for op in timed):.4g} s; "
          f"calibration kernel median {CAL_REF_S / factor:.4g} s (reference {CAL_REF_S} s)")
    if "setup_samples" in result:
        print("  measured setup_s samples: "
              + ", ".join(f"{s:.3f}" for s, _ in result["setup_samples"]))
    tail = tail_percentile([op["seconds"] * factor for op in result["ops"]])
    print(f"  op tail: p{tail[0]:g} = {tail[1]:.6g} s" if tail else
          f"  op tail: none ({len(result['ops'])} ops; a p90 needs >= 100)")
    print(f"  error_rate = {len(failed) / max(len(ops), 1):.6g} ({len(failed)}/{len(ops)} ops)")
    for op in failed[:5]:
        print(f"  FAILED {op['key']}: {op['problems']}")
    print("  env: " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seamkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in spec[kind]}
    selected = WORKLOADS if args.workload == "all" else (args.workload,)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in selected:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            timed = result["traced_ops"] if args.trace else result["ops"]
            factor = speed_factor([c for op in timed for c in op["calibration_s"]])
            values = per_layer(result, specs, factor) if args.trace else end_to_end(result, factor)
            missing = set(specs) - set(values)
            if missing:
                raise BenchError(f"no value for {sorted(missing)}")
            report(workload, result, {k: values[k] for k in specs}, specs, factor)
            ops = result["ops"] + result.get("traced_ops", [])
            failed = sum(1 for op in ops if op["problems"])
            combined["attempted"] += len(ops)
            combined["failed"] += failed
            combined["correct"] = combined["correct"] and failed == 0
            prefix = "" if len(selected) == 1 else f"{workload}/"
            for name in specs:
                combined["metrics"][prefix + name] = {
                    "value": values[name], "unit": specs[name]["unit"]}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
