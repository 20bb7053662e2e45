#!/usr/bin/env python
"""Compare a fresh bench artifact against the committed baseline.

Usage::

    python scripts/check_bench_drift.py BENCH_build.json fresh_build.json
    python scripts/check_bench_drift.py BENCH_serve.json fresh_serve.json \
        --tolerance 0.5

Two layers of checks:

- **invariants** are compared exactly and always enforced: the bench
  kind, the workload spec (same generator/size/seed — a drifted
  workload makes the timing comparison meaningless), and the
  correctness outcomes (``identical_weights`` for the build bench,
  ``query_errors == 0`` for the serve bench — including the sharded
  scaling points, whose 2-worker speedup is additionally gated at
  >= 1.5x whenever the candidate artifact records >= 2 CPUs);
- **performance** is compared as a ratio and enforced only within
  ``--tolerance``: the candidate may be up to ``(1 - tolerance)``
  slower than the baseline before the script fails.  Timing on shared
  CI boxes is noisy, so the default tolerance is generous (0.5 = the
  candidate must stay within 2x of the baseline).

Exit status 0 = no drift, 1 = drift or invariant violation, 2 = bad
invocation/artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Tuple

EXIT_OK = 0
EXIT_DRIFT = 1
EXIT_ERROR = 2

# (json pointer, higher-is-better) performance metrics per bench kind.
PERF_METRICS = {
    "build": [
        (("speedup",), True),
        (("serial_seconds",), False),
        (("parallel_seconds",), False),
    ],
    "serve": [
        (("uncached", "throughput_qps"), True),
        (("cached", "throughput_qps"), True),
        (("cached_speedup",), True),
        (("publish", "delta_p50_seconds"), False),
        (("publish", "full_p50_seconds"), False),
        (("shard", "points", "workers_1", "throughput_qps"), True),
        (("shard", "points", "workers_2", "throughput_qps"), True),
    ],
    "query": [
        (("families", "sc_pairs", "speedup"), True),
        (("families", "sc", "speedup"), True),
        (("families", "sc_pairs", "batched_p50_seconds"), False),
        (("families", "sc", "batched_p50_seconds"), False),
        (("families", "smcc_extract", "batched_p50_seconds"), False),
        (("families", "smcc_l", "batched_p50_seconds"), False),
    ],
}

#: required p50 speedup for the gated query families (matches
#: scripts/bench_query_smoke.py)
QUERY_MIN_GATED_SPEEDUP = 5.0


def _get(doc, pointer: Tuple[str, ...]):
    for key in pointer:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _invariant_failures(kind: str, baseline, candidate) -> List[str]:
    failures: List[str] = []
    if kind == "build":
        if candidate.get("identical_weights") is not True:
            failures.append(
                "correctness: parallel build no longer matches serial "
                "(identical_weights != true)"
            )
        for ptr in (("workload",),):
            if _get(baseline, ptr) != _get(candidate, ptr):
                failures.append(
                    f"workload drifted: {_get(baseline, ptr)!r} -> "
                    f"{_get(candidate, ptr)!r}"
                )
    elif kind == "serve":
        for phase in ("uncached", "cached"):
            errors = _get(candidate, (phase, "query_errors"))
            if errors != 0:
                failures.append(
                    f"correctness: {phase} run reported "
                    f"{errors!r} query errors"
                )
        base_spec = _get(baseline, ("uncached", "spec"))
        cand_spec = _get(candidate, ("uncached", "spec"))
        if base_spec != cand_spec:
            failures.append(
                f"workload drifted: {base_spec!r} -> {cand_spec!r}"
            )
        shared = _get(candidate, ("publish", "delta", "mean_shared_fraction"))
        if not isinstance(shared, (int, float)) or shared < 0.5:
            failures.append(
                "publishing: mean shared-array fraction on the "
                f"small-region workload is {shared!r} (must be >= 0.5)"
            )
        delta_p50 = _get(candidate, ("publish", "delta_p50_seconds"))
        full_p50 = _get(candidate, ("publish", "full_p50_seconds"))
        if (
            not isinstance(delta_p50, (int, float))
            or not isinstance(full_p50, (int, float))
            or not delta_p50 < full_p50
        ):
            failures.append(
                "publishing: p50 publish latency "
                f"({delta_p50!r}s) is not below the full-capture p50 "
                f"({full_p50!r}s) on the small-region workload"
            )
        failures += _shard_invariant_failures(baseline, candidate)
    elif kind == "query":
        if candidate.get("identical_answers") is not True:
            failures.append(
                "correctness: a batched kernel diverged from its scalar "
                "counterpart (identical_answers != true)"
            )
        if _get(baseline, ("workload",)) != _get(candidate, ("workload",)):
            failures.append(
                f"workload drifted: {_get(baseline, ('workload',))!r} -> "
                f"{_get(candidate, ('workload',))!r}"
            )
        for family in ("sc_pairs", "sc"):
            speedup = _get(candidate, ("families", family, "speedup"))
            if (
                not isinstance(speedup, (int, float))
                or speedup < QUERY_MIN_GATED_SPEEDUP
            ):
                failures.append(
                    f"gated family {family}: p50 speedup {speedup!r} is "
                    f"below the required {QUERY_MIN_GATED_SPEEDUP:.1f}x"
                )
    return failures


#: required 2-worker/1-worker throughput ratio on multi-CPU runners
#: (matches scripts/bench_serve_smoke.py)
SHARD_MIN_SCALING = 1.5


def _shard_invariant_failures(baseline, candidate) -> List[str]:
    """Invariants of the sharded-tier scaling phase of the serve bench.

    The scaling ratio itself is gated only when the *candidate* run
    recorded >= 2 CPUs — a single-CPU runner cannot parallelize two
    worker processes, so there the ratio is informational and the
    per-point correctness bits (no query errors, no worker restarts)
    carry the gate alone.
    """
    failures: List[str] = []
    shard = candidate.get("shard")
    if not isinstance(shard, dict):
        return ["shard: candidate artifact has no shard scaling phase"]
    base_workload = _get(baseline, ("shard", "workload"))
    if base_workload is not None and base_workload != shard.get("workload"):
        failures.append(
            f"shard workload drifted: {base_workload!r} -> "
            f"{shard.get('workload')!r}"
        )
    for name, point in sorted((shard.get("points") or {}).items()):
        if point.get("query_errors") != 0:
            failures.append(
                f"shard point {name}: "
                f"{point.get('query_errors')!r} query errors (want 0)"
            )
        if point.get("restarts") != 0:
            failures.append(
                f"shard point {name}: {point.get('restarts')!r} worker "
                "restarts under a crash-free workload (want 0)"
            )
    cpu_count = shard.get("cpu_count")
    ratio = shard.get("scaling_ratio")
    if isinstance(cpu_count, int) and cpu_count >= 2:
        if not isinstance(ratio, (int, float)) or ratio < SHARD_MIN_SCALING:
            failures.append(
                f"shard scaling: {ratio!r}x at 2 workers on a "
                f"{cpu_count}-cpu runner (need >= "
                f"{SHARD_MIN_SCALING:.1f}x)"
            )
    return failures


def _perf_failures(
    kind: str, baseline, candidate, tolerance: float
) -> List[str]:
    failures: List[str] = []
    for pointer, higher_is_better in PERF_METRICS[kind]:
        name = ".".join(pointer)
        base = _get(baseline, pointer)
        cand = _get(candidate, pointer)
        if not isinstance(base, (int, float)) or not isinstance(
            cand, (int, float)
        ):
            failures.append(f"{name}: missing from baseline or candidate")
            continue
        if base <= 0:
            continue  # degenerate baseline; nothing to compare against
        ratio = cand / base if higher_is_better else base / max(cand, 1e-12)
        status = "ok" if ratio >= 1.0 - tolerance else "DRIFT"
        print(
            f"  {name:32s} baseline={base:10.3f} candidate={cand:10.3f} "
            f"ratio={ratio:5.2f}  {status}"
        )
        if status == "DRIFT":
            failures.append(
                f"{name}: regressed to {ratio:.2f}x of baseline "
                f"(tolerance {1.0 - tolerance:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("candidate", help="freshly produced bench JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional regression before failing (default 0.5)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        print("tolerance must be in [0, 1)", file=sys.stderr)
        return EXIT_ERROR

    docs = []
    for path in (args.baseline, args.candidate):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                docs.append(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_ERROR
    baseline, candidate = docs

    kind = baseline.get("bench")
    if kind not in PERF_METRICS:
        print(f"unknown bench kind {kind!r} in baseline", file=sys.stderr)
        return EXIT_ERROR
    if candidate.get("bench") != kind:
        print(
            f"bench kind mismatch: baseline={kind!r} "
            f"candidate={candidate.get('bench')!r}",
            file=sys.stderr,
        )
        return EXIT_DRIFT

    print(f"bench: {kind} (tolerance {args.tolerance:.2f})")
    failures = _invariant_failures(kind, baseline, candidate)
    failures += _perf_failures(kind, baseline, candidate, args.tolerance)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("no drift")
    return EXIT_DRIFT if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
