"""Benchmark of the valvehealth monitor, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay_dense --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced operations for the run's seconds and prints
the per-layer metrics of the last traced one. The metric names and units
come from ``BENCHMARK.json``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; every
failed operation is also printed to standard error. A results file with
the environment, the raw samples and (traced) the spans goes to
``perfbench/out/<workload>.trace<0|1>.json``.

The program is imported from ``src/`` of the same checkout and nowhere
else; without it the benchmark exits with a non-zero status and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# How each end-to-end metric reads on each kind of workload.
DEFINITIONS = {
    "setup_s": "median of 5 set-ups: monitor workloads synthesize the capture from the "
               "seed and deserialize both models; train_models synthesizes the held-out "
               "RUL trajectory the rebuilt model is accepted against",
    "throughput_msps": "signal samples per wall second over every operation of the run: "
                       "samples through run_monitor (replays, or the paced live session), "
                       "or for train_models samples synthesized into dataset rows per "
                       "second of whole rebuilds (synthesis plus training)",
    "event_latency_ms_p50": "live_10khz: from the due time of the last sample of an "
                            "event's bank, t0 + bank_end/fs, to its on_event call, p50 "
                            "over every event of the run; replay_dense: wall time of one "
                            "whole replay, p50 over the run's replays; train_models: wall "
                            "time of one rebuild of both models, p50 over the run's rebuilds",
    "event_latency_ms_p90": "as event_latency_ms_p50, at p90",
    "cpu_per_signal_s": "process CPU seconds per second of signal: of the monitored "
                        "stream, or of the synthesized dataset traces for train_models",
    "peak_rss_mb": "peak resident set size of the run before the oracle runs",
}


def environment() -> dict:
    import numpy
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.splitlines()
        commit = (lines[1] if top.returncode == 0 and len(lines) == 2
                  and Path(lines[0]).resolve() == ROOT else "unknown")
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "platform": platform.platform()}


def load_program():
    """Import valvehealth from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import valvehealth
    except ImportError as err:
        sys.exit(f"perfbench: cannot import valvehealth from {src}: {err}")
    if src.resolve() not in Path(valvehealth.__file__).resolve().parents:
        sys.exit(f"perfbench: valvehealth came from {valvehealth.__file__}, not {src}")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    load_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec, units = declared_metrics()
    blobs = workloads.model_blobs(ROOT, OUT)
    workload = workloads.WORKLOADS[args.workload]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment()}
    if args.trace:
        values, attempted, failures, spans = tracing.traced_run(
            workload, args.seed, args.seconds, blobs)
        names = [m["name"] for m in spec["per_layer"]]
        record.update(layer_map=tracing.LAYER_MAP, spans=spans)
    else:
        measured = workloads.run_workload(workload, args.seed, args.seconds, blobs)
        values, attempted, failures = measured.metrics, measured.attempted, measured.failures
        names = [m["name"] for m in spec["end_to_end"]]
        record.update(definitions=DEFINITIONS, samples=measured.samples,
                      context=measured.context)
    if sorted(values) != sorted(names):
        raise RuntimeError(f"measured metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(names)}")

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in names}}
    record.update(result=result, failures=failures,
                  failed_frac=len(failures) / attempted)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
