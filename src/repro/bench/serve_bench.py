"""Serving-throughput benchmark: the repro.serve layer under load.

Not one of the paper's experiments — this is the repo's own baseline
for the concurrent query-serving subsystem.  :func:`run_serve_bench`
builds a :class:`~repro.serve.serving.ServingIndex` over an SSCA-style
community graph and drives it with the threaded workload of
:func:`~repro.serve.workload.run_serve_workload` twice — once with the
result cache disabled-in-effect (capacity 1, wholesale invalidation)
and once with the full generation-aware cache — so the artifact records
both raw snapshot throughput and what caching buys on a repeat-heavy
stream.  After the run every served generation is gone; correctness is
asserted by replaying a query sample against an index rebuilt from
scratch on the final published edge set.

:func:`write_bench_json` lands the record in ``BENCH_serve.json``, the
artifact the CI serve job uploads and ``scripts/bench_serve_smoke.py``
asserts against.
"""

from __future__ import annotations

import json
import os
import random
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.reporting import Table
from repro.core.queries import SMCCIndex
from repro.errors import DisconnectedQueryError
from repro.graph.generators import ssca_graph
from repro.graph.graph import Graph
from repro.obs.timing import monotonic
from repro.serve import (
    ServeConfig,
    ServeWorkloadSpec,
    ServingIndex,
    ShardWorkloadSpec,
    capture_snapshot,
    run_serve_workload,
    run_shard_workload,
)

#: default output artifact name (uploaded by the CI serve job)
BENCH_JSON = "BENCH_serve.json"

DEFAULT_N = 3000
DEFAULT_SEED = 42
DEFAULT_READERS = 4
DEFAULT_QUERIES = 400

#: queries replayed against the from-scratch rebuild after the run
VERIFY_SAMPLE = 200


def _workload_spec(readers: int, queries: int, seed: int) -> ServeWorkloadSpec:
    return ServeWorkloadSpec(
        readers=readers,
        queries_per_reader=queries,
        query_size=3,
        smcc_fraction=0.2,
        batch_size=8,
        # Shared pool -> readers re-ask the same sets, so the cached
        # run actually measures the cache rather than random misses.
        query_pool=64,
        updates=20,
        publish_every=5,
        seed=seed,
    )


def _verify_against_rebuild(serving: ServingIndex, seed: int) -> bool:
    """Replay a query sample against a from-scratch rebuild.

    The final workload publish leaves staleness at 0, so the published
    snapshot's edge log is the live graph; an index rebuilt on it must
    agree with the served answers on every sampled query.
    """
    snap = serving.snapshot()
    graph = Graph(snap.num_vertices)
    for u, v in snap.edges:
        graph.add_edge(u, v)
    rebuilt = SMCCIndex.build(graph)
    rng = random.Random(seed * 31 + 1)
    for _ in range(VERIFY_SAMPLE):
        q = rng.sample(range(snap.num_vertices), 3)
        try:
            expected: object = rebuilt.steiner_connectivity(q)
        except DisconnectedQueryError:
            expected = "disconnected"
        try:
            got: object = serving.sc(q)
        except DisconnectedQueryError:
            got = "disconnected"
        if got != expected:
            return False
    return True


#: publish-latency phase: fresh edges churned (each inserted, published,
#: deleted, published — so 2x this many publishes per mode)
PUBLISH_CHURN_EDGES = 20


def _churn_pairs(graph: Graph, seed: int) -> List[Tuple[int, int]]:
    """Fresh (absent) distance-2 chords — the small-region workload.

    Closing a wedge ``u - v - w`` into a triangle only changes
    steiner-connectivities inside the local component around the wedge,
    so inserting and removing these edges touches a small MST region,
    and often no tree edge at all — the case where a publish reuses
    the previous MST*.  (Random far-apart pairs
    would route through bridges and dirty regions proportional to the
    whole graph.)
    """
    rng = random.Random(seed * 31 + 7)
    n = graph.num_vertices
    pairs: List[Tuple[int, int]] = []
    attempts = 0
    while len(pairs) < PUBLISH_CHURN_EDGES and attempts < 100 * PUBLISH_CHURN_EDGES:
        attempts += 1
        u = rng.randrange(n)
        neighbors = list(graph.neighbors(u))
        if not neighbors:
            continue
        via = rng.choice(neighbors)
        two_hop = [w for w in graph.neighbors(via)
                   if w != u and not graph.has_edge(u, w)]
        if not two_hop:
            continue
        w = rng.choice(two_hop)
        if (min(u, w), max(u, w)) not in {
            (min(a, b), max(a, b)) for a, b in pairs
        }:
            pairs.append((u, w))
    return pairs


def run_publish_bench(graph: Graph, seed: int) -> Dict[str, Any]:
    """Publish latency on the small-region workload: reuse vs full.

    One write stream, timed two ways at every state it reaches.  The
    ``delta`` side is the publisher's own publish (which reuses the
    previous MST* when the spanning forest is unchanged and captures
    fully otherwise); the ``full`` side times a full
    :func:`~repro.serve.snapshot.capture_snapshot` of the same state,
    from the publisher's edge list.
    """
    pairs = _churn_pairs(graph, seed)
    serving = ServingIndex.build(graph.copy())
    index = serving.publisher.index
    publish_s: List[float] = []
    capture_s: List[float] = []
    shared: List[float] = []
    modes: Dict[str, int] = {}
    for u, v in pairs:
        for op in ("insert", "delete"):
            if op == "insert":
                serving.apply_updates(inserts=[(u, v)])
            else:
                serving.apply_updates(deletes=[(u, v)])
            started = monotonic()
            report = serving.publish()
            publish_s.append(monotonic() - started)
            modes[report.mode] = modes.get(report.mode, 0) + 1
            shared.append(report.shared_fraction)
            started = monotonic()
            capture_snapshot(
                index.conn_graph,
                index.mst,
                generation=report.generation,
                edges=report.snapshot.edges,
            )
            capture_s.append(monotonic() - started)
    delta = _latency_summary(publish_s, shared, modes)
    full = _latency_summary(
        capture_s, [0.0] * len(capture_s), {"full": len(capture_s)}
    )
    full_p50 = full["p50_seconds"] or 0.0
    delta_p50 = delta["p50_seconds"] or 0.0
    return {
        "workload": "fresh-edge insert/delete churn",
        "churn_edges": len(pairs),
        "delta": delta,
        "full": full,
        "delta_p50_seconds": delta_p50,
        "full_p50_seconds": full_p50,
        "delta_vs_full_speedup": (full_p50 / delta_p50) if delta_p50 else 0.0,
    }


def _latency_summary(
    latencies: List[float], shared: List[float], modes: Dict[str, int]
) -> Dict[str, Any]:
    return {
        "publishes": len(latencies),
        "modes": modes,
        "p50_seconds": median(latencies),
        "mean_seconds": sum(latencies) / len(latencies),
        "mean_shared_fraction": sum(shared) / len(shared),
    }


#: sharded scaling phase: worker counts swept over one seeded workload
SHARD_WORKERS = (1, 2)
#: disjoint communities in the shard workload graph — component-affine
#: routing can only spread load across workers when the graph has more
#: than one MST component, so the scaling graph is a union of islands
SHARD_ISLANDS = 4
SHARD_CLIENTS = 4
SHARD_QUERIES_PER_CLIENT = 400
SHARD_BATCH_SIZE = 16
SHARD_UPDATES = 8
SHARD_PUBLISH_EVERY = 4


def _island_graph(n: int, seed: int) -> Graph:
    """A union of :data:`SHARD_ISLANDS` disjoint SSCA communities.

    Each island keeps its own vertex range, so the MST forest has (at
    least) one component per island and ``shard_of`` distributes the
    query stream across every worker instead of pinning it to shard 0.
    """
    per = max(30, n // SHARD_ISLANDS)
    islands = [ssca_graph(per, seed=seed + i) for i in range(SHARD_ISLANDS)]
    graph = Graph(sum(g.num_vertices for g in islands))
    offset = 0
    for island in islands:
        for u, v in island.edges():
            graph.add_edge(u + offset, v + offset)
        offset += island.num_vertices
    return graph


def run_shard_bench(n: int = DEFAULT_N, seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """Sharded-tier scaling curve: the same workload at 1 and 2 workers.

    Every point replays the identical seeded client streams (all-batch
    ops, so cross-island queries take the 0-convention instead of
    erroring) against a fresh :class:`ServingIndex` over the same
    island graph; only ``workers`` varies.  ``scaling_ratio`` is the
    top worker count's throughput over the single-worker baseline, and
    ``cpu_count`` is recorded so downstream gates
    (``scripts/bench_serve_smoke.py``, ``scripts/check_bench_drift.py``)
    can require scaling only where the hardware can deliver it.
    """
    graph = _island_graph(n, seed)
    points: Dict[str, Dict[str, Any]] = {}
    for workers in SHARD_WORKERS:
        serving = ServingIndex.build(
            graph.copy(), config=ServeConfig(region_fraction_limit=1.0)
        )
        spec = ShardWorkloadSpec(
            workers=workers,
            clients=SHARD_CLIENTS,
            queries_per_client=SHARD_QUERIES_PER_CLIENT,
            query_size=3,
            smcc_fraction=0.0,
            batch_size=SHARD_BATCH_SIZE,
            updates=SHARD_UPDATES,
            publish_every=SHARD_PUBLISH_EVERY,
            seed=seed,
        )
        record = run_shard_workload(serving, spec)
        stats = record["shard_stats"]
        points[f"workers_{workers}"] = {
            "workers": workers,
            "throughput_qps": record["throughput_qps"],
            "elapsed_seconds": record["elapsed_seconds"],
            "queries_answered": record["queries_answered"],
            "query_errors": record["query_errors"],
            "publishes": record["publishes"],
            "final_generation": record["final_generation"],
            "restarts": stats["restarts"],
            "per_worker_answered": [
                w["answered"] for w in stats["per_worker"]
            ],
        }
    base = points[f"workers_{SHARD_WORKERS[0]}"]["throughput_qps"] or 0.0
    top = points[f"workers_{SHARD_WORKERS[-1]}"]["throughput_qps"] or 0.0
    return {
        "workload": {
            "generator": "ssca-islands",
            "islands": SHARD_ISLANDS,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "seed": seed,
            "clients": SHARD_CLIENTS,
            "queries_per_client": SHARD_QUERIES_PER_CLIENT,
            "batch_size": SHARD_BATCH_SIZE,
            "updates": SHARD_UPDATES,
            "publish_every": SHARD_PUBLISH_EVERY,
        },
        "cpu_count": os.cpu_count() or 1,
        "points": points,
        "scaling_ratio": (top / base) if base else 0.0,
    }


def run_serve_bench(
    n: int = DEFAULT_N,
    seed: int = DEFAULT_SEED,
    readers: int = DEFAULT_READERS,
    queries: int = DEFAULT_QUERIES,
) -> Dict[str, Any]:
    """Measure serving throughput with and without the result cache.

    Returns a JSON-serializable record.  ``cached`` and ``uncached``
    each carry the full workload result (throughput, cache stats,
    generation counts); ``verified_against_rebuild`` is the correctness
    bit the smoke script enforces.
    """
    graph = ssca_graph(n, seed=seed)
    spec = _workload_spec(readers, queries, seed)

    uncached_serving = ServingIndex.build(
        graph.copy(),
        config=ServeConfig(cache_capacity=1, invalidation="wholesale"),
    )
    uncached = run_serve_workload(uncached_serving, spec)

    cached_serving = ServingIndex.build(
        graph.copy(),
        config=ServeConfig(cache_capacity=8192, invalidation="region"),
    )
    cached = run_serve_workload(cached_serving, spec)

    cached_qps = cached["throughput_qps"] or 0.0
    uncached_qps = uncached["throughput_qps"] or 0.0
    return {
        "bench": "serve",
        "workload": {
            "generator": "ssca",
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "seed": seed,
            "readers": readers,
            "queries_per_reader": queries,
            "updates": spec.updates,
            "publish_every": spec.publish_every,
            "batch_size": spec.batch_size,
            "query_pool": spec.query_pool,
        },
        "uncached": uncached,
        "cached": cached,
        "cached_speedup": (cached_qps / uncached_qps) if uncached_qps else 0.0,
        "publish": run_publish_bench(graph, seed),
        "shard": run_shard_bench(n, seed),
        "verified_against_rebuild": _verify_against_rebuild(
            cached_serving, seed
        ),
    }


def write_bench_json(
    path: str = BENCH_JSON, result: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Run the bench (unless ``result`` is given) and write the artifact."""
    if result is None:
        result = run_serve_bench()
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


def serve_bench(profile: str = "quick") -> Table:
    """Harness entry point: serving throughput, cached vs uncached.

    Registered as ``serve_bench`` in the experiment registry; also
    emits :data:`BENCH_JSON` into the working directory as a side
    effect so ``repro bench serve_bench`` doubles as the baseline
    generator.
    """
    result = write_bench_json(result=run_serve_bench())
    table = Table(
        "Serve bench: threaded query throughput (queries/second)",
        ["Workload", "readers", "uncached qps", "cached qps",
         "speedup", "delta publish p50 s", "full publish p50 s",
         "shard 2w scaling", "verified"],
    )
    workload = result["workload"]
    table.add_row(
        f"ssca n={workload['n']} m={workload['m']}",
        workload["readers"],
        result["uncached"]["throughput_qps"],
        result["cached"]["throughput_qps"],
        result["cached_speedup"],
        result["publish"]["delta_p50_seconds"],
        result["publish"]["full_p50_seconds"],
        result["shard"]["scaling_ratio"],
        result["verified_against_rebuild"],
    )
    return table
