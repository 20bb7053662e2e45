"""Steadiness check: run each workload as two sets of seeded runs.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--runs 10] [--overhead]

For every workload of ``BENCHMARK.json`` it runs one discarded warm-up
(seed 0), then set 1 on seeds ``1 .. runs`` and set 2 on seeds
``runs + 1 .. 2 * runs``, one after the other, so that drift over the
minutes between the sets shows.  For every end-to-end metric it prints
each set's median and quartiles, each set's spread (the distance
between the first and third quartile as a share of the median) and the
drift (how much worse the second set's median is than the first's).
A metric is steady when its drift is within its bound and, except for
``setup_s``, both spreads are too.  The spread of ``setup_s`` is
printed but not gated: a later change is held to its drift, and one
run's set-up time already is the median of several set-ups.  Runs are
sequential, so they never compete with each other.
``--overhead`` instead runs each workload once untraced and once traced
on seed 1 and prints the tracing overhead on ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1
#: discarded runs before each workload's sets: on a shared machine the
#: first minutes of load after an idle spell run faster than the rest
WARMUP = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        if args.overhead:
            plain = run_once(workload, FIRST_SEED, seconds, 0)
            run_once(workload, FIRST_SEED, seconds, 1)
            path = os.path.join(ROOT, ".perfbench", "traces",
                                f"{workload}-{FIRST_SEED}.json")
            with open(path, encoding="utf-8") as handle:
                traced = json.load(handle)["summary"]["end_to_end"]
            a, b = plain["metrics"]["ops_per_s"]["value"], traced["ops_per_s"]
            print(f"{workload}: ops_per_s untraced {a:.1f}, traced {b:.1f}, "
                  f"overhead {100 * (a / b - 1):.1f}%", flush=True)
            continue
        for _ in range(WARMUP):
            run_once(workload, 0, seconds, 0)
        sets: List[List[Dict[str, Any]]] = [[], []]
        for s in range(2):
            for i in range(args.runs):
                seed = FIRST_SEED + s * args.runs + i
                result = run_once(workload, seed, seconds, 0)
                sets[s].append(result)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        ok &= shares[0] == shares[1]
        print(f"\n{workload}  (failed share {shares[0]:.4g} / {shares[1]:.4g})")
        print(f"  {'metric':15s} {'set1 q1/med/q3':>32s} {'set2 q1/med/q3':>32s} "
              f"{'spread1':>7s} {'spread2':>7s} {'drift':>7s} {'bound':>6s}")
        for name, meta in metrics.items():
            values = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            quarts = [statistics.quantiles(v, n=4) for v in values]
            spreads = [spread(v) for v in values]
            drift = worse_by(quarts[0][1], quarts[1][1], meta["better"])
            steady = drift <= meta["bound"] and (
                name == "setup_s" or max(spreads) <= meta["bound"])
            ok &= steady
            print(f"  {name:15s} " + " ".join(
                f"{q[0]:10.4g} {q[1]:10.4g} {q[2]:10.4g}" for q in quarts)
                + f" {spreads[0]:7.3f} {spreads[1]:7.3f} {drift:+7.3f}"
                + f" {meta['bound']:6.2f}" + ("" if steady else "  UNSTEADY"), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
