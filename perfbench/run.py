"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-reads --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run also writes its spans to
``.perfbench/traces/<workload>-<seed>.json``.  Progress goes to
standard error.  ``--size tiny`` runs the same workloads on small
inputs (the benchmark's own tests use it).  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-reads", "hot-churn", "shard-reads")


def run_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def pin_to_one_cpu() -> None:
    """Run this process, and the worker processes it starts, on one CPU.

    On a virtual machine a worker woken on another, idle CPU first waits
    for the host to wake that CPU: the same sharded ``sc`` took 63 us in
    one run and 158 us in the next.  On one CPU a process hop costs the
    work it does, and the speed calibration samples the CPU that work
    runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import engine

    pin_to_one_cpu()
    out_dir = os.path.join(ROOT, ".perfbench")
    work_dir = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        run = engine.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size, work_dir, engine.log_stderr)
        result = run.execute()
        if args.trace:
            trace_dir = os.path.join(out_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            path = os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")
            run.tracer.write(path, run.trace_summary(result))
            engine.log_stderr(f"trace written to {os.path.relpath(path, ROOT)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
