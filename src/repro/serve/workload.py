"""Threaded serving workloads: N readers vs one writer, no sleeps.

Drives a :class:`~repro.serve.serving.ServingIndex` with a fully seeded
mixed workload — the engine behind ``repro serve --workload``.
Synchronization is purely event-based (a start barrier, thread joins);
nothing in here waits on wall-clock time, so runs are
schedule-dependent but never sleep-flaky.

Each reader owns a deterministic query stream derived from
``seed + reader id``; the writer applies a delete/re-insert churn over
a seeded edge sample and publishes every ``publish_every`` updates.
Throughput is measured with :class:`repro.obs.timing.Stopwatch` so the
numbers land beside every other measurement in the repo.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tsan import new_lock
from repro.errors import QueryError
from repro.obs.timing import Stopwatch
from repro.serve.serving import ServingIndex

__all__ = ["ServeWorkloadSpec", "reader_queries", "run_serve_workload"]


@dataclass(frozen=True)
class ServeWorkloadSpec:
    """Shape of one threaded serving run (fully seeded)."""

    readers: int = 4
    queries_per_reader: int = 500
    query_size: int = 3
    #: fraction of reader operations that are SMCC (rest are sc)
    smcc_fraction: float = 0.25
    #: >0 groups sc queries into batches of this size
    batch_size: int = 0
    #: >0 draws every query from a shared pool of this many distinct
    #: vertex sets (repeat-heavy stream: exercises the result cache);
    #: 0 = every query is freshly sampled
    query_pool: int = 0
    #: writer updates to apply while readers run (delete + re-insert)
    updates: int = 20
    #: publish after this many updates (0 = never publish mid-run)
    publish_every: int = 5
    seed: int = 42
    timeout: Optional[float] = None
    max_staleness: Optional[int] = None


def reader_queries(
    spec: ServeWorkloadSpec, reader_id: int, num_vertices: int
) -> List[Tuple[str, List[List[int]]]]:
    """The deterministic operation stream of one reader.

    Public so the sharded workload driver
    (:func:`repro.serve.shard.run_shard_workload`) replays the exact
    streams a threaded run would issue — single-process and sharded
    throughput numbers then compare like for like.
    """
    rng = random.Random(spec.seed * 1_000_003 + reader_id)
    size = min(spec.query_size, num_vertices)
    pool: Optional[List[List[int]]] = None
    if spec.query_pool > 0:
        # One pool seed for all readers: they share (and re-ask) the
        # same query sets, which is what makes the cache earn hits.
        pool_rng = random.Random(spec.seed * 500_009 + 99)
        pool = [
            pool_rng.sample(range(num_vertices), size)
            for _ in range(spec.query_pool)
        ]
    ops: List[Tuple[str, List[List[int]]]] = []
    pending_batch: List[List[int]] = []
    for _ in range(spec.queries_per_reader):
        q = list(rng.choice(pool)) if pool is not None else rng.sample(
            range(num_vertices), size
        )
        if rng.random() < spec.smcc_fraction:
            ops.append(("smcc", [q]))
            continue
        if spec.batch_size > 1:
            pending_batch.append(q)
            if len(pending_batch) >= spec.batch_size:
                ops.append(("batch", pending_batch))
                pending_batch = []
        else:
            ops.append(("sc", [q]))
    if pending_batch:
        ops.append(("batch", pending_batch))
    return ops


def _run_reader(
    serving: ServingIndex,
    ops: Sequence[Tuple[str, List[List[int]]]],
    spec: ServeWorkloadSpec,
    start: threading.Barrier,
    counts: Dict[str, int],
    lock: threading.Lock,
) -> None:
    answered = 0
    errors = 0
    start.wait()
    for kind, queries in ops:
        try:
            if kind == "sc":
                serving.sc(
                    queries[0],
                    timeout=spec.timeout,
                    max_staleness=spec.max_staleness,
                )
                answered += 1
            elif kind == "batch":
                serving.sc_batch(
                    queries,
                    timeout=spec.timeout,
                    max_staleness=spec.max_staleness,
                )
                answered += len(queries)
            else:
                serving.smcc(
                    queries[0],
                    timeout=spec.timeout,
                    max_staleness=spec.max_staleness,
                )
                answered += 1
        except QueryError:
            # Deletions can transiently split components; a reader
            # counting the error and moving on is the intended behavior.
            errors += 1
    with lock:
        counts["answered"] += answered
        counts["query_errors"] += errors


def _run_writer(
    serving: ServingIndex,
    spec: ServeWorkloadSpec,
    start: threading.Barrier,
    counts: Dict[str, int],
    lock: threading.Lock,
) -> None:
    rng = random.Random(spec.seed * 7_000_003 + 17)
    with serving.publisher.lock:
        edges = list(serving.publisher.index.graph.edges())
    if not edges or spec.updates <= 0:
        start.wait()
        return
    churn = rng.sample(edges, min(len(edges), max(1, spec.updates // 2)))
    applied = 0
    published = 0
    delta_published = 0
    start.wait()
    while applied < spec.updates:
        u, v = churn[(applied // 2) % len(churn)]
        if applied % 2 == 0:
            serving.apply_updates(deletes=[(u, v)])
        else:
            serving.apply_updates(inserts=[(u, v)])
        applied += 1
        if spec.publish_every and applied % spec.publish_every == 0:
            report = serving.publish()
            published += 1
            delta_published += report.mode == "delta"
    report = serving.publish()
    if report.mode != "noop":
        published += 1
        delta_published += report.mode == "delta"
    with lock:
        counts["updates_applied"] += applied
        counts["publishes"] += published
        counts["delta_publishes"] += delta_published


def run_serve_workload(
    serving: ServingIndex, spec: Optional[ServeWorkloadSpec] = None
) -> Dict[str, object]:
    """Run one threaded workload; returns a JSON-ready result record."""
    spec = spec or ServeWorkloadSpec()
    num_vertices = serving.snapshot().num_vertices
    if num_vertices < 2:
        raise ValueError("serve workload needs a graph with >= 2 vertices")
    reader_ops = [
        reader_queries(spec, i, num_vertices) for i in range(spec.readers)
    ]
    counts: Dict[str, int] = {
        "answered": 0,
        "query_errors": 0,
        "updates_applied": 0,
        "publishes": 0,
        "delta_publishes": 0,
    }
    lock = new_lock("serve.workload.counts")
    parties = spec.readers + (1 if spec.updates > 0 else 0)
    start = threading.Barrier(parties + 1)  # +1: the timing thread below
    threads = [
        threading.Thread(
            target=_run_reader,
            args=(serving, ops, spec, start, counts, lock),
            name=f"serve-reader-{i}",
        )
        for i, ops in enumerate(reader_ops)
    ]
    if spec.updates > 0:
        threads.append(
            threading.Thread(
                target=_run_writer,
                args=(serving, spec, start, counts, lock),
                name="serve-writer",
            )
        )
    for thread in threads:
        thread.start()
    start.wait()  # releases every thread at once; the clock starts now
    watch = Stopwatch()
    for thread in threads:
        thread.join()
    elapsed = watch.lap()
    total = counts["answered"]
    return {
        "spec": {
            "readers": spec.readers,
            "queries_per_reader": spec.queries_per_reader,
            "query_size": spec.query_size,
            "smcc_fraction": spec.smcc_fraction,
            "batch_size": spec.batch_size,
            "query_pool": spec.query_pool,
            "updates": spec.updates,
            "publish_every": spec.publish_every,
            "seed": spec.seed,
        },
        "num_vertices": num_vertices,
        "elapsed_seconds": elapsed,
        "queries_answered": total,
        "query_errors": counts["query_errors"],
        "updates_applied": counts["updates_applied"],
        "publishes": counts["publishes"],
        "delta_publishes": counts["delta_publishes"],
        "throughput_qps": (total / elapsed) if elapsed > 0 else None,
        "final_generation": serving.generation,
        "serving_stats": serving.stats(),
    }
