"""Per-query work counters: the empirical side of the optimality proofs.

The paper's headline results are *output-sensitive* bounds — ``sc(q)``
in ``O(|q|)`` (Theorem 4.3 via MST*), SMCC in ``O(|result|)``
(Theorem 4.1), SMCC_L in ``O(|result|)`` (Theorem 4.2).  A
:class:`QueryStats` record counts the work a query actually performed
(vertices touched, tree edges scanned, LCA probes, bucket-queue pops,
flow augmentations, KECC decomposition rounds, derived-structure cache
hits), which lets tests assert the bounds empirically::

    from repro.obs import collect

    with collect() as stats:
        result = index.smcc(q)
    assert stats.vertices_touched <= 3 * len(result)

Collectors nest: an inner ``collect()`` (or the per-query collector the
facade installs when profiling is on) merges its counters into the
enclosing collector on exit, so an outer scope always sees totals.
The installed collector is **thread-local** — a ``collect()`` scope on
one thread neither observes nor disturbs queries running on another,
so concurrent serve readers can each profile their own work.  When no
collector is installed the hot paths pay one cheap lookup and an
``is None`` test — nothing is allocated.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Tuple

from repro.obs import runtime
from repro.obs.timing import monotonic

__all__ = ["QueryStats", "collect", "profiled_query", "profiling_active"]


@dataclass
class QueryStats:
    """Counters for the work performed while this collector was active.

    ``elapsed_seconds`` is wall-clock time of the collection scope;
    every other field is a monotone work counter incremented by the
    instrumented hot paths.  Which counters move depends on the code
    exercised: an MST* ``sc`` query bumps ``lca_calls``, the SMCC
    pruned BFS bumps ``vertices_touched`` / ``tree_edges_scanned``,
    maintenance bumps ``kecc_rounds`` / ``sc_changes``, and so on.
    """

    #: label of the query kind ("smcc", "sc", ...; "" for ad-hoc scopes)
    kind: str = ""
    #: |q| after de-duplication (set by the query facade)
    query_size: int = 0
    #: vertices visited by searches (BFS / prioritized search / LCA walks)
    vertices_touched: int = 0
    #: MST adjacency entries examined (including the pruning probe)
    tree_edges_scanned: int = 0
    #: O(1) range-minimum probes into the MST* gap table (each one
    #: answers an LCA: one per pair or multi-vertex sc query)
    lca_calls: int = 0
    #: bucket max-queue pops (SMCC_L and the Section 7 extensions)
    queue_pops: int = 0
    #: successful augmenting paths found by Dinic's algorithm
    flow_augmentations: int = 0
    #: BFS level-graph constructions inside Dinic's algorithm
    flow_bfs_rounds: int = 0
    #: Decompose rounds executed by the exact KECC engine
    kecc_rounds: int = 0
    #: steiner-connectivity changes applied by index maintenance
    sc_changes: int = 0
    #: derived read structures found fresh / rebuilt
    cache_hits: int = 0
    cache_misses: int = 0
    #: wall-clock seconds of the collection scope
    elapsed_seconds: float = field(default=0.0, compare=False)

    _NON_COUNTERS = frozenset({"kind", "elapsed_seconds"})

    def counter_items(self) -> List[Tuple[str, int]]:
        """``(field_name, value)`` for every integer work counter."""
        return [
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name not in self._NON_COUNTERS
        ]

    def merge_counters_into(self, other: "QueryStats") -> None:
        """Add this record's work counters into ``other`` (not elapsed)."""
        for name, value in self.counter_items():
            if name == "query_size":
                continue  # sizes do not aggregate meaningfully
            setattr(other, name, getattr(other, name) + value)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind} if self.kind else {}
        out.update(self.counter_items())
        out["elapsed_seconds"] = self.elapsed_seconds
        return out


@contextmanager
def collect() -> Iterator[QueryStats]:
    """Install a fresh :class:`QueryStats` collector for the scope.

    Nested collectors merge into their parent on exit, so surrounding
    scopes observe the inner work too.
    """
    stats = QueryStats()
    previous = runtime.set_active_stats(stats)
    start = monotonic()
    try:
        yield stats
    finally:
        stats.elapsed_seconds += monotonic() - start
        runtime.set_active_stats(previous)
        if previous is not None:
            stats.merge_counters_into(previous)


def profiling_active() -> bool:
    """True when the query facade should allocate per-query stats."""
    return runtime.REGISTRY is not None or runtime.get_active_stats() is not None


@contextmanager
def profiled_query(kind: str, query_size: int = 0) -> Iterator[QueryStats]:
    """Per-query collection used by the :class:`SMCCIndex` facade.

    Like :func:`collect`, plus: tags the record with the query kind and
    size, and folds it into the active registry's per-kind aggregates
    (``query.<kind>.count`` / ``.seconds`` / per-counter totals).
    """
    stats = QueryStats(kind=kind, query_size=query_size)
    previous = runtime.set_active_stats(stats)
    start = monotonic()
    try:
        yield stats
    finally:
        stats.elapsed_seconds += monotonic() - start
        runtime.set_active_stats(previous)
        if previous is not None:
            stats.merge_counters_into(previous)
        registry = runtime.REGISTRY
        if registry is not None:
            registry.record_query(kind, stats)
