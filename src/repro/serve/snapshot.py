"""Immutable index snapshots: the unit of isolation for concurrent reads.

The mutable half of the system — ``Graph`` / ``ConnectivityGraph`` /
``MSTIndex`` under :class:`~repro.index.maintenance.IndexMaintainer` —
is never exposed to reader threads.  Instead the writer periodically
*captures* an :class:`IndexSnapshot`: a frozen clone of the maximum
spanning forest plus a fully built MST* (gap table included), stamped
with a monotonically increasing generation number.  Publication is a
single reference assignment, which CPython makes atomic, so a reader
always sees either the old snapshot or the new one — never a
half-updated index (the serving analogue of Lemma 4.4: every answer is
derived from one consistent maximum spanning forest).

Thread-safety contract:

- every MST*-backed query (``steiner_connectivity``, ``sc_pair``,
  ``sc_pairs_batch``, ``smcc``, ``smcc_interval``) touches only arrays
  that are frozen at capture time, so any number of threads may call
  them concurrently with no locking;
- the MST-walk queries (``smcc_l`` on delta snapshots, and
  ``components_at``) reuse the epoch-marking scratch arrays of
  :class:`~repro.index.mst.MSTIndex` and are serialized by a
  per-snapshot lock (they are the rare path; the hot paths — including
  ``smcc_l`` on full-capture stars, which goes through the MST*
  interval climb — stay lock-free).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.freeze import maybe_deep_freeze
from repro.analysis.tsan import monitored, new_lock
from repro.core.queries import SMCCResult
from repro.index.connectivity_graph import ConnectivityGraph
from repro.index.mst import MSTIndex
from repro.index.mst_star import MSTStar, build_mst_star

Edge = Tuple[int, int]

__all__ = ["IndexSnapshot", "capture_snapshot"]


@monitored
class IndexSnapshot:  # deep-frozen
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
        "_mst",
        "_mst_lock",
    )

    def __init__(
        self,
        generation: int,
        num_vertices: int,
        edges: Tuple[Edge, ...],  # escape: owned
        mst: MSTIndex,  # escape: owned
        star: MSTStar,  # escape: owned
    ) -> None:
        self.generation = generation  # guarded-by: immutable-after-publish
        self.num_vertices = num_vertices  # guarded-by: immutable-after-publish
        self.num_edges = len(edges)  # guarded-by: immutable-after-publish
        #: the graph's edge set at capture time (sorted ``(u, v)`` keys);
        #: what a from-scratch rebuild of this generation must start from
        self.edges = edges  # guarded-by: immutable-after-publish
        #: the frozen MST* read structure (lock-free concurrent queries)
        self.star = star  # guarded-by: immutable-after-publish
        self._mst = mst  # guarded-by: immutable-after-publish
        #: serializes the MST-walk queries (shared epoch scratch arrays)
        self._mst_lock = new_lock("IndexSnapshot._mst_lock")

    # ------------------------------------------------------------------
    # Lock-free queries (MST*-backed; frozen arrays only)
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

    # ------------------------------------------------------------------
    # Serialized queries (MST-walk-backed; epoch scratch arrays)
    # ------------------------------------------------------------------
    def smcc_l(self, q: Sequence[int], size_bound: int) -> SMCCResult:
        """The SMCC_L of ``q`` at this generation.

        Full-capture stars answer via the lock-free O(|q| + log |V|)
        interval climb (:meth:`MSTStar.smcc_l_interval`); delta-snapshot
        stars have no global interval view, so they take the Algorithm 5
        walk under the MST lock (shared epoch scratch).
        """
        star = self.star
        if star.has_interval_smcc_l:
            k, start, end = star.smcc_l_interval(q, size_bound)
            return SMCCResult(star.leaf_order[start:end], k)
        with self._mst_lock:
            vertices, k = self._mst.smcc_l(q, size_bound)
        return SMCCResult(vertices, k)

    def components_at(self, k: int) -> List[List[int]]:
        """All k-eccs of this generation in O(|V|)."""
        with self._mst_lock:
            return self._mst.components_at(k)

    def max_connectivity(self) -> int:
        """The largest k with a k-ecc, at this generation."""
        return self._mst.max_connectivity()

    def __repr__(self) -> str:
        return (
            f"IndexSnapshot(generation={self.generation}, "
            f"n={self.num_vertices}, m={self.num_edges})"
        )


def capture_snapshot(
    conn_graph: ConnectivityGraph,  # escape: borrowed
    mst: MSTIndex,  # escape: borrowed
    generation: int,
    star: Optional[MSTStar] = None,  # escape: owned
) -> IndexSnapshot:
    """Deep-freeze the current index state into an :class:`IndexSnapshot`.

    Must be called while no writer is mutating ``conn_graph`` / ``mst``
    (the publisher holds its write lock around this).  The clone walks
    the tree and non-tree edge sets once — O(|V| + |E|) — and pre-builds
    every lazily derived read structure so that snapshot readers never
    trigger a build race:

    - the MST clone's rooted arrays and sorted adjacency
      (:meth:`MSTIndex._ensure_derived`),
    - the MST* tree plus its gap row and sparse table, the one read
      structure behind every sc family (eager: the MST* builds it at
      construction).

    Under ``REPRO_FREEZE=1`` (:mod:`repro.analysis.freeze`) the captured
    object graph is additionally deep-frozen at publish time: ndarrays
    become read-only and containers become raising proxies, so any
    later in-place write — including one through an accidental alias of
    the live writer index — fails at its exact call site.
    """
    frozen = MSTIndex(mst.n)
    for u, v, w in mst.tree_edges():
        frozen.add_tree_edge(u, v, w)
    for u, v, w in mst.non_tree.iter_non_increasing():
        frozen.non_tree.add(u, v, w)
    frozen._ensure_derived()
    if star is None:
        star = build_mst_star(frozen)
    edges = tuple(sorted(conn_graph.graph.edges()))
    snapshot = IndexSnapshot(
        generation=generation,
        num_vertices=conn_graph.num_vertices,
        edges=edges,
        mst=frozen,
        star=star,
    )
    return maybe_deep_freeze(snapshot)
