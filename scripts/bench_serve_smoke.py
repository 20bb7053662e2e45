#!/usr/bin/env python
"""Bench smoke: the serving layer must be fast, cached, and correct.

Runs the threaded serving benchmark twice (cache-disabled vs the full
generation-aware cache), writes the ``BENCH_serve.json`` baseline
artifact, and asserts

- every sampled answer served after the run matches an index rebuilt
  from scratch on the final published edge set (always), and
- both configurations actually answered their whole workload and ended
  at staleness 0 (all updates published).

It then sweeps the sharded multi-process tier over the worker counts in
``repro.bench.serve_bench.SHARD_WORKERS`` and asserts the scaling curve:
error-free, crash-free, every point answered its whole stream, and — on
runners with at least two CPUs — the 2-worker point is at least 1.5x the
single-worker throughput.  On single-CPU boxes the ratio is recorded in
the artifact but only reported, since the hardware cannot scale.

Throughput numbers (and the cached-vs-uncached speedup) are reported
but not gated — wall-clock on shared CI boxes is advisory.

Exit status 0 = pass, 1 = a required assertion failed.  Used by the CI
``serve`` job, which uploads BENCH_serve.json as an artifact; run
locally as ``python scripts/bench_serve_smoke.py``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.serve_bench import BENCH_JSON, run_serve_bench, write_bench_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default=BENCH_JSON,
                        help="where to write the JSON baseline")
    parser.add_argument("-n", type=int, default=None,
                        help="workload size (vertices); default bench size")
    parser.add_argument("--readers", type=int, default=None,
                        help="concurrent reader threads")
    parser.add_argument("--queries", type=int, default=None,
                        help="queries per reader")
    args = parser.parse_args(argv)

    kwargs = {}
    if args.n is not None:
        kwargs["n"] = args.n
    if args.readers is not None:
        kwargs["readers"] = args.readers
    if args.queries is not None:
        kwargs["queries"] = args.queries
    result = run_serve_bench(**kwargs)
    write_bench_json(args.output, result)

    workload = result["workload"]
    cached = result["cached"]
    uncached = result["uncached"]
    publish = result["publish"]
    shard = result["shard"]
    print(f"workload: ssca n={workload['n']} m={workload['m']} "
          f"readers={workload['readers']} "
          f"queries/reader={workload['queries_per_reader']}")
    print(f"uncached {uncached['throughput_qps']:.0f} qps "
          f"({uncached['queries_answered']} answered, "
          f"{uncached['query_errors']} errors)")
    print(f"cached   {cached['throughput_qps']:.0f} qps "
          f"({cached['queries_answered']} answered, "
          f"hits={cached['serving_stats']['cache']['hits']}, "
          f"carried={cached['serving_stats']['cache']['carried_over']})")
    print(f"speedup  {result['cached_speedup']:.2f}x (advisory)")
    print(f"publish  delta p50 {publish['delta_p50_seconds'] * 1e3:.2f} ms "
          f"vs full p50 {publish['full_p50_seconds'] * 1e3:.2f} ms "
          f"({publish['delta_vs_full_speedup']:.1f}x, "
          f"shared={publish['delta']['mean_shared_fraction']:.2f}, "
          f"modes={publish['delta']['modes']})")
    for point in shard["points"].values():
        print(f"shard    workers={point['workers']} "
              f"{point['throughput_qps']:.0f} qps "
              f"({point['queries_answered']} answered, "
              f"{point['query_errors']} errors, "
              f"{point['restarts']} restarts, "
              f"per-worker={point['per_worker_answered']})")
    print(f"shard    scaling {shard['scaling_ratio']:.2f}x at "
          f"{max(p['workers'] for p in shard['points'].values())} workers "
          f"(cpu_count={shard['cpu_count']}"
          f"{'' if shard['cpu_count'] >= 2 else ', advisory on 1 cpu'})")
    print(f"baseline written to {args.output}")

    ok = True
    if not result["verified_against_rebuild"]:
        print("FAIL: served answers diverge from a from-scratch rebuild",
              file=sys.stderr)
        ok = False
    expected = workload["readers"] * workload["queries_per_reader"]
    for name, run in (("uncached", uncached), ("cached", cached)):
        answered = run["queries_answered"] + run["query_errors"]
        if answered < expected // 2:
            print(f"FAIL: {name} run answered {answered} of {expected}",
                  file=sys.stderr)
            ok = False
        if run["serving_stats"]["staleness"] != 0:
            print(f"FAIL: {name} run ended stale "
                  f"(staleness={run['serving_stats']['staleness']})",
                  file=sys.stderr)
            ok = False
    if publish["delta"]["mean_shared_fraction"] < 0.5:
        print("FAIL: the publisher's own publishes shared "
              f"{publish['delta']['mean_shared_fraction']:.2f} of the named "
              "snapshot buffers on the small-region workload (need >= 0.5)",
              file=sys.stderr)
        ok = False
    if not publish["delta_p50_seconds"] < publish["full_p50_seconds"]:
        print("FAIL: publish p50 "
              f"({publish['delta_p50_seconds']:.4f}s) is not below the "
              f"full-capture p50 ({publish['full_p50_seconds']:.4f}s)",
              file=sys.stderr)
        ok = False
    shard_expected = (shard["workload"]["clients"]
                      * shard["workload"]["queries_per_client"])
    for name, point in sorted(shard["points"].items()):
        if point["query_errors"] != 0:
            print(f"FAIL: shard point {name} hit "
                  f"{point['query_errors']} query errors (want 0)",
                  file=sys.stderr)
            ok = False
        if point["restarts"] != 0:
            print(f"FAIL: shard point {name} restarted workers "
                  f"{point['restarts']} times under a crash-free workload",
                  file=sys.stderr)
            ok = False
        if point["queries_answered"] < shard_expected:
            print(f"FAIL: shard point {name} answered "
                  f"{point['queries_answered']} of {shard_expected}",
                  file=sys.stderr)
            ok = False
    # Scaling is a hardware property: gate only where two workers can
    # actually run in parallel.  Single-CPU boxes record the ratio in
    # the artifact (the drift checker applies the same cpu_count key).
    if shard["cpu_count"] >= 2 and shard["scaling_ratio"] < 1.5:
        print(f"FAIL: shard tier scaled {shard['scaling_ratio']:.2f}x "
              f"at 2 workers on a {shard['cpu_count']}-cpu runner "
              "(need >= 1.5x)",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
