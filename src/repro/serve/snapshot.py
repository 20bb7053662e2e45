"""Immutable index snapshots: the unit of isolation for concurrent reads.

The mutable half of the system — ``Graph`` / ``ConnectivityGraph`` /
``MSTIndex`` under :class:`~repro.index.maintenance.IndexMaintainer` —
is never exposed to reader threads.  Instead the writer periodically
*captures* an :class:`IndexSnapshot`: a fully built MST* (gap table
included) plus the graph's edge set, stamped with a monotonically
increasing generation number.  Publication is a single reference
assignment, which CPython makes atomic, so a reader always sees either
the old snapshot or the new one — never a half-updated index (the
serving analogue of Lemma 4.4: every answer is derived from one
consistent maximum spanning forest).

Thread-safety contract: every query (``steiner_connectivity``,
``sc_pair``, ``sc_pairs_batch``, ``smcc``, ``smcc_interval``,
``smcc_l``, ``components_at``, ``max_connectivity``) reads only the
MST*'s leaf order, gap row and the tables derived from it, which are
built once at capture time and never written again, so any number of
threads may call any of them concurrently with no locking.

A generation whose spanning forest did not change since the previous
capture shares that capture's :class:`~repro.index.mst_star.MSTStar`
by object identity; only its edge log is new.  :func:`named_buffers`
and :func:`shared_fraction` account for that sharing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tsan import monitored
from repro.core.queries import SMCCResult
from repro.index.connectivity_graph import ConnectivityGraph
from repro.index.mst import MSTIndex
from repro.index.mst_star import MSTStar, build_mst_star

Edge = Tuple[int, int]

__all__ = [
    "IndexSnapshot",
    "capture_snapshot",
    "named_buffers",
    "shared_fraction",
]


@monitored
class IndexSnapshot:
    """A frozen, consistent view of the SMCC index at one generation.

    Instances are created by :func:`capture_snapshot` (always under the
    writer lock) and never mutated afterwards; readers may hold one for
    as long as they like — answers stay internally consistent with the
    generation's graph even while newer generations are published.
    """

    __slots__ = (
        "generation",
        "num_vertices",
        "num_edges",
        "edges",
        "star",
    )

    def __init__(
        self,
        generation: int,
        num_vertices: int,
        edges: Tuple[Edge, ...],
        star: MSTStar,
    ) -> None:
        self.generation = generation  # guarded-by: immutable-after-publish
        self.num_vertices = num_vertices  # guarded-by: immutable-after-publish
        self.num_edges = len(edges)  # guarded-by: immutable-after-publish
        #: the graph's edge set at capture time (sorted ``(u, v)`` keys);
        #: what a from-scratch rebuild of this generation must start from
        self.edges = edges  # guarded-by: immutable-after-publish
        #: the frozen MST* read structure (lock-free concurrent queries)
        self.star = star  # guarded-by: immutable-after-publish

    # ------------------------------------------------------------------
    # Queries (all lock-free: MST*-backed, frozen arrays only)
    # ------------------------------------------------------------------
    def steiner_connectivity(self, q: Sequence[int]) -> int:
        """``sc(q)`` in O(|q|) against this generation (SC-OPT)."""
        return self.star.steiner_connectivity(q)

    def sc_pair(self, u: int, v: int) -> int:
        """``sc(u, v)`` in O(1) against this generation."""
        return self.star.sc_pair(u, v)

    def sc_pairs_batch(self, us: Sequence[int], vs: Sequence[int]) -> List[int]:
        """Vectorized pairwise sc; cross-component pairs yield 0."""
        return self.star.sc_pairs_batch(us, vs).tolist()

    def steiner_connectivity_batch(self, queries: Sequence[Sequence[int]]) -> List[int]:
        """Vectorized ``sc`` over a whole query batch (lock-free).

        One RMQ gather pass for the entire batch; disconnected queries
        and isolated singletons answer 0 (the batch convention).
        """
        return self.star.steiner_connectivity_batch(queries).tolist()

    def smcc(self, q: Sequence[int]) -> SMCCResult:
        """The SMCC of ``q`` at this generation, via the interval view.

        Every k-ecc is a contiguous slice of the MST* leaf order, so the
        component is materialized with one slice — no BFS over mutable
        scratch state, keeping the hot read path lock-free.
        """
        sc, start, end = self.star.smcc_interval(q)
        return SMCCResult(self.star.leaf_order[start:end], sc)

    def smcc_interval(self, q: Sequence[int]) -> Tuple[int, int, int]:
        """``(sc, start, end)`` interval descriptor of the SMCC of ``q``."""
        return self.star.smcc_interval(q)

    def smcc_l(self, q: Sequence[int], size_bound: int) -> SMCCResult:
        """The SMCC_L of ``q`` at this generation.

        An O(|q| + log |V|) climb over runs of the gap table
        (:meth:`MSTStar.smcc_l_interval`), then one leaf-order slice.
        """
        k, start, end = self.star.smcc_l_interval(q, size_bound)
        return SMCCResult(self.star.leaf_order[start:end], k)

    def components_at(self, k: int) -> List[List[int]]:
        """All k-eccs of this generation in O(|V|)."""
        return self.star.components_at(k)

    def max_connectivity(self) -> int:
        """The largest k with a k-ecc, at this generation."""
        return self.star.max_connectivity()

    def __repr__(self) -> str:
        return (
            f"IndexSnapshot(generation={self.generation}, "
            f"n={self.num_vertices}, m={self.num_edges})"
        )


def capture_snapshot(
    conn_graph: ConnectivityGraph,
    mst: MSTIndex,
    generation: int,
    edges: Optional[Tuple[Edge, ...]] = None,
) -> IndexSnapshot:
    """Capture the current index state as an :class:`IndexSnapshot`.

    Must be called while no writer is mutating ``conn_graph`` / ``mst``
    (the publisher holds its write lock around this).  MST* is built
    straight from the live tree (Algorithm 12 copies every tree edge
    into fresh arrays, so nothing aliases the writer's index), with its
    gap row and sparse table — the one read structure behind every
    query family.  ``edges`` is the graph's sorted edge set when the
    caller already maintains one; otherwise it is sorted here, in
    O(|E| log |E|).

    The result is read-only by construction: its fields are ints, the
    edge tuple and an :class:`~repro.index.mst_star.MSTStar`, whose leaf
    order is a tuple and whose tables are read-only arrays and
    memoryviews, so nothing a reader can reach is writeable.
    """
    if edges is None:
        edges = tuple(sorted(conn_graph.graph.edges()))
    return IndexSnapshot(
        generation=generation,
        num_vertices=conn_graph.num_vertices,
        edges=edges,
        star=build_mst_star(mst),
    )


def star_buffers(star: MSTStar) -> Dict[str, object]:
    """The named arrays of one MST*, in ``MSTStar.over_arrays`` order.

    The leaf order and positions, the gap table (row 0 is the gap row),
    the run table and the Cartesian jump table: what a shard manifest
    exports per star.
    """
    return {
        "star.leaf_order": star.leaf_order,
        "star.leaf_position": star.leaf_position,
        "star.rmq": star._rmq,
        "star.runs": star._runs,
        "star.jump": star._jump_table,
    }


def named_buffers(snapshot: IndexSnapshot) -> Dict[str, object]:
    """The named array inventory of a snapshot, for sharing accounting.

    The star's buffers (:func:`star_buffers`) plus the edge log — the
    buffer set a shard manifest exports.  A generation that reuses the
    previous star shares all but ``edges``.
    """
    return {**star_buffers(snapshot.star), "edges": snapshot.edges}


def shared_fraction(previous: IndexSnapshot, current: IndexSnapshot) -> float:
    """Fraction of ``current``'s named buffers shared with ``previous``."""
    prev = named_buffers(previous)
    cur = named_buffers(current)
    shared = sum(1 for name, buf in cur.items() if buf is prev.get(name))
    return shared / len(cur) if cur else 1.0
