"""repro.serve — concurrent query serving with snapshot isolation.

The serving layer turns the single-threaded, mutable
:class:`~repro.core.queries.SMCCIndex` into a read-dominated service:

- :class:`IndexSnapshot` / :class:`SnapshotPublisher` — immutable index
  generations published atomically; N reader threads, zero read locks
  on the hot path;
- :class:`QueryCache` — a generation-aware LRU with per-region
  invalidation on publish;
- :func:`named_buffers` / :func:`shared_fraction` — buffer-sharing
  accounting: a publish whose spanning forest is unchanged reuses the
  previous MST* by identity, any other publish captures it fully;
- :class:`UpdateReport` / :class:`PublishReport` — structured results
  of the ``apply_updates`` / ``publish`` writer surface;
- :func:`plan_batch` — canonical batch queries and their
  probe-overlap count;
- :class:`ServingIndex` — the facade tying those together with
  per-query deadlines and staleness-triggered degradation to the
  direct online engine;
- :func:`run_serve_workload` — the threaded workload driver behind
  ``repro serve --workload``;
- :class:`SharedSnapshotStore` / :class:`WorkerPool` /
  :class:`ShardGateway` / :func:`run_shard_workload` — the sharded
  multi-process tier: snapshot generations published once into
  ``multiprocessing.shared_memory``, mapped zero-copy by N worker
  processes behind an asyncio gateway (``repro serve --workers N``).

See ``docs/SERVING.md`` for the consistency model and the ``serve.*``
metrics table.

This package is the one sanctioned home of ``threading`` in the
library (enforced by the ``threading-outside-serve`` lint rule): lock
discipline and publication ordering are easy to get wrong, so they
live in exactly one place.
"""

from __future__ import annotations

from repro.serve.cache import CacheEntry, QueryCache, canonical_query
from repro.serve.planner import BatchPlan, plan_batch
from repro.serve.publisher import SnapshotPublisher
from repro.serve.reports import PublishReport, UpdateReport
from repro.serve.serving import Deadline, ServeConfig, ServingIndex
from repro.serve.shard import (
    ShardGateway,
    ShardWorkloadSpec,
    SharedSnapshotStore,
    SharedSnapshotView,
    WorkerPool,
    run_shard_workload,
)
from repro.serve.snapshot import (
    IndexSnapshot,
    capture_snapshot,
    named_buffers,
    shared_fraction,
)
from repro.serve.workload import ServeWorkloadSpec, run_serve_workload

__all__ = [
    "BatchPlan",
    "CacheEntry",
    "Deadline",
    "IndexSnapshot",
    "PublishReport",
    "QueryCache",
    "ServeConfig",
    "ServeWorkloadSpec",
    "ServingIndex",
    "ShardGateway",
    "ShardWorkloadSpec",
    "SharedSnapshotStore",
    "SharedSnapshotView",
    "SnapshotPublisher",
    "UpdateReport",
    "WorkerPool",
    "canonical_query",
    "capture_snapshot",
    "named_buffers",
    "plan_batch",
    "run_serve_workload",
    "run_shard_workload",
    "shared_fraction",
]
