"""Batch planning: canonical queries and the pairwise probe count.

:func:`canonicalize` turns every query of a batch into its sorted
unique vertices, the form the serving cache keys batched ``sc``
answers by.  :func:`plan_batch` also counts the pairwise ``(min(q), v)`` LCA probes a
per-pair evaluation would issue against the distinct ones the batch
needs (:attr:`BatchPlan.probes_saved`) — a measure of how much a batch
overlaps.

Evaluation needs no plan: the gap table answers each query with one
range minimum over its leftmost and rightmost leaves, so a whole batch
is one :meth:`~repro.index.mst_star.MSTStar.steiner_connectivity_batch`
call.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import EmptyQueryError

__all__ = ["BatchPlan", "canonicalize", "plan_batch"]

Probe = Tuple[int, int]


class BatchPlan:
    """The deduplicated probe schedule for one batch of sc queries."""

    __slots__ = ("queries", "probes", "singletons", "probes_requested")

    def __init__(
        self,
        queries: List[Tuple[int, ...]],
        probes: List[Probe],
        singletons: List[int],
        probes_requested: int,
    ) -> None:
        #: canonicalized queries, aligned with the caller's batch
        self.queries = queries
        #: distinct ``(v0, v_i)`` probes across all multi-vertex queries
        self.probes = probes
        #: distinct vertices appearing as singleton queries
        self.singletons = singletons
        #: probe count a naive per-query evaluation would have issued
        self.probes_requested = probes_requested

    @property
    def probes_saved(self) -> int:
        """How many LCA probes deduplication eliminated."""
        return self.probes_requested - len(self.probes)


def canonicalize(queries: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Each query as its sorted unique vertices; raises on an empty one."""
    canonical = [tuple(sorted(set(q))) for q in queries]
    if not all(canonical):
        raise EmptyQueryError("query vertex set is empty")
    return canonical


def plan_batch(queries: Sequence[Sequence[int]]) -> BatchPlan:
    """Canonicalize ``queries`` and compute the distinct probe set."""
    canonical = canonicalize(queries)
    probe_set: Dict[Probe, None] = {}
    singleton_set: Dict[int, None] = {}
    requested = 0
    for cq in canonical:
        if len(cq) == 1:
            singleton_set[cq[0]] = None
            continue
        v0 = cq[0]
        for v in cq[1:]:
            requested += 1
            probe_set[(v0, v)] = None
    return BatchPlan(
        queries=canonical,
        probes=list(probe_set),
        singletons=list(singleton_set),
        probes_requested=requested,
    )
