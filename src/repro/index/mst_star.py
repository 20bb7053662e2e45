"""MST*: the optimization connectivity-preserving index (Appendix A.2).

MST* reorganizes the MST ``T`` into a rooted binary tree ``T*`` with two
node types: every vertex of ``T`` becomes a *leaf*, and every edge of
``T`` becomes an *internal node* carrying the edge's weight.  Removing
the minimum-weight edge of ``T`` splits it in two; that edge's node
becomes the parent of the (recursively built) MST* of the two halves.

Properties (Lemmas A.1 / A.2):

- ``T*`` is a full binary tree and weights are non-increasing along any
  leaf-to-root path;
- ``sc(u, v)`` equals the weight of ``LCA(u, v)`` in ``T*``.

Construction is the *bottom-up* Algorithm 12: process tree edges in
non-increasing weight order, creating an internal node per edge and
attaching the current MST* roots of its two endpoints as children; the
modified union-find of :class:`~repro.util.disjoint_set.DisjointSetWithRoot`
provides the current roots in amortized inverse-Ackermann time, so the
build is O(|V|) after the O(|V|) bin sort.

Read structure.  ``T*`` is the Kruskal reconstruction tree of the MST,
hence the Cartesian tree of its *gap row*
``gap[i] = sc(leaf_order[i], leaf_order[i + 1])`` over the DFS leaf
order (0 between components).  The LCA of two leaves is the minimum
internal node between them in that order, so
``sc(u, v) = min gap[pos u : pos v]``, and the LCA of a leaf *set* is
the LCA of its leftmost and rightmost leaves:
``sc(q) = min gap[min pos(q) : max pos(q)]`` — one range minimum per
query (the LCA/RMQ equivalence of Gabow–Bentley–Tarjan and
Bender–Farach-Colton).  A sparse table over the gaps answers each range
minimum with two reads, in O(|V| log |V|) preprocessing.  The same
table describes the whole k-ecc hierarchy: a k-ecc is a maximal run of
gaps >= k (Chang's hierarchy view), so ``smcc_l`` climbs over such runs
and ``components_at(k)`` splits the leaf order at the gaps below k —
no query needs the MST itself.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.contracts import invariant
from repro.analysis.lemmas import mst_star_consistent
from repro.errors import (
    DisconnectedQueryError,
    EmptyQueryError,
    InfeasibleSizeConstraintError,
    VertexNotFoundError,
)
from repro.index.mst import MSTIndex
from repro.obs import runtime as _obs
from repro.util.disjoint_set import DisjointSetWithRoot


def _first_invalid_vertex(us: np.ndarray, vs: np.ndarray, n: int) -> int:
    """The first out-of-range vertex of a pair batch, in (u, v) scan order."""
    bad_us = (us < 0) | (us >= n)
    bad_vs = (vs < 0) | (vs >= n)
    i = int(np.argmax(bad_us | bad_vs))
    return int(us[i]) if bad_us[i] else int(vs[i])


def sparse_min_table(gap: np.ndarray) -> np.ndarray:
    """Range-minimum sparse table over ``gap`` as one dense int64 matrix.

    Row ``j`` holds ``min gap[i : i + 2^j]`` at column ``i`` (zero-padded
    past ``len(gap) - 2^j``, columns a level-``j`` query never reads);
    row 0 is the gap row itself.  Any range ``[lo, hi)`` is covered by
    two level-``j`` windows with ``j = floor(log2(hi - lo))``.
    """
    m = int(gap.shape[0])
    table = np.zeros((max(m.bit_length(), 1), m), dtype=np.int64)
    table[0] = gap
    for j in range(1, table.shape[0]):
        half = 1 << (j - 1)
        width = m - (1 << j) + 1
        np.minimum(
            table[j - 1, :width], table[j - 1, half : half + width],
            out=table[j, :width],
        )
    return table


class MSTStar:  # deep-frozen
    """The MST* tree with an O(1) range-minimum sc read structure.

    Construction eagerly materializes every read structure — the leaf
    order and its interval view, the binary-lifting jump table, and the
    gap row with its sparse table — so instances are deeply immutable
    from the moment they exist.  Every sc family (scalar, pairwise,
    batched, singleton), ``smcc_l``, ``components_at`` and
    ``max_connectivity`` are answered from the gap table alone, and a
    delta snapshot (:class:`~repro.serve.delta.DeltaStar`) runs the same
    code over its own spliced table.
    """

    def __init__(
        self,
        num_leaves: int,
        parents: List[int],  # escape: owned
        weights: List[int],  # escape: owned
        tree_edge_of_node: List[Optional[Tuple[int, int]]],  # escape: owned
    ) -> None:
        #: number of vertex-type (leaf) nodes == |V| of the base graph
        self.num_leaves = num_leaves
        #: parent pointers over all 2|V|-1 (per component) nodes; -1 = root
        self.parents = parents
        #: weights[i] for node i: 0 for leaves, edge weight for internal nodes
        self.weights = weights
        #: the MST edge each internal node corresponds to (None for leaves)
        self.tree_edge_of_node = tree_edge_of_node
        self._build_leaf_intervals()
        self._build_jump_table()
        self._install_gaps(sparse_min_table(self._gap_row()))

    @classmethod
    def over_arrays(
        cls,
        parents: np.ndarray,  # escape: owned
        weights: np.ndarray,  # escape: owned
        leaf_order: np.ndarray,  # escape: owned
        leaf_position: np.ndarray,  # escape: owned
        interval_start: np.ndarray,  # escape: owned
        interval_end: np.ndarray,  # escape: owned
        jump: np.ndarray,  # escape: owned
        rmq: np.ndarray,  # escape: owned
    ) -> "MSTStar":
        """An MST* over already-built int64 buffers (no rebuild).

        The shared-memory worker view maps an exported star this way:
        every query path indexes these tables with plain ``[i]`` (or
        ``.item``), so ndarrays stand in for the lists.
        ``tree_edge_of_node`` is debug metadata with no read path in the
        served families and stays unset.
        """
        star = cls.__new__(cls)
        star.num_leaves = int(leaf_position.shape[0])
        star.parents = parents  # type: ignore[assignment]
        star.weights = weights  # type: ignore[assignment]
        star.tree_edge_of_node = None  # type: ignore[assignment]
        star.leaf_order = leaf_order  # type: ignore[assignment]
        star.leaf_position = leaf_position  # type: ignore[assignment]
        star._interval_start = interval_start  # type: ignore[assignment]
        star._interval_end = interval_end  # type: ignore[assignment]
        star._jump = jump  # type: ignore[assignment]
        star._install_gaps(rmq)
        return star

    # ------------------------------------------------------------------
    # Interval view: every MST* subtree (= every k-ecc) is a contiguous
    # range of the DFS leaf order, so components can be *described* in
    # O(log |V|) and materialized as an array slice.
    # ------------------------------------------------------------------
    def _build_leaf_intervals(self) -> None:
        total = len(self.parents)
        children: List[List[int]] = [[] for _ in range(total)]
        roots: List[int] = []
        for node, parent in enumerate(self.parents):
            if parent < 0:
                roots.append(node)
            else:
                children[parent].append(node)
        #: leaves (graph vertices) in DFS order — components are slices
        self.leaf_order: List[int] = []
        #: position of each leaf in leaf_order
        self.leaf_position: List[int] = [0] * self.num_leaves
        #: per node: half-open [start, end) into leaf_order
        self._interval_start = [0] * total
        self._interval_end = [0] * total
        for root in roots:
            stack = [(root, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    self._interval_end[node] = len(self.leaf_order)
                    continue
                self._interval_start[node] = len(self.leaf_order)
                if node < self.num_leaves:
                    self.leaf_position[node] = len(self.leaf_order)
                    self.leaf_order.append(node)
                    self._interval_end[node] = len(self.leaf_order)
                else:
                    stack.append((node, True))
                    for child in reversed(children[node]):
                        stack.append((child, False))

    def _gap_row(self) -> np.ndarray:
        """``gap[i] = sc(leaf_order[i], leaf_order[i + 1])`` in O(|V|).

        Every internal node splits its interval between its two
        children, and its weight is the gap at that split: the right
        child starts at ``interval_start``, so the gap just left of it
        is the node's.  Gaps between components stay 0.
        """
        gap = np.zeros(max(self.num_leaves - 1, 0), dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        start = np.asarray(self._interval_start, dtype=np.int64)
        child = np.flatnonzero(parents >= 0)
        parent = parents[child]
        right = start[child] > start[parent]
        gap[start[child[right]] - 1] = np.asarray(self.weights, dtype=np.int64)[
            parent[right]
        ]
        return gap

    def _install_gaps(
        self,
        rmq: np.ndarray,  # escape: owned
        vertex_component: Optional[np.ndarray] = None,  # escape: owned
    ) -> None:
        """Install the sc read structure over ``leaf_position``.

        ``vertex_component`` is derived from the gap row unless given
        (a delta shares its base's: its region lies in one component).
        """
        #: dense sparse table over the gap row (see sparse_min_table)
        self._rmq = rmq
        #: gap[i] = sc(leaf_order[i], leaf_order[i + 1]); 0 across components
        self.gap = rmq[0]
        #: int64 gather buffer of leaf_position for the batched kernels
        #: (the buffer itself when leaf_position already is an ndarray)
        self._position_arr = np.asarray(self.leaf_position, dtype=np.int64)
        if vertex_component is None:
            # Components are contiguous runs of the leaf order, numbered
            # in root order: a leaf's id counts the zero gaps left of it.
            at_position = np.zeros(self.gap.shape[0] + 1, dtype=np.int64)
            np.cumsum(self.gap == 0, out=at_position[1:])
            vertex_component = at_position[self._position_arr]
        #: per-vertex component id, for routing and error messages
        self.vertex_component = vertex_component

    def _build_jump_table(self) -> None:
        """Binary lifting over parent pointers (for component_node)."""
        table = [list(self.parents)]
        while any(p >= 0 for p in table[-1]):
            prev = table[-1]
            table.append([prev[p] if p >= 0 else -1 for p in prev])
            if len(table) > 40:  # pragma: no cover - depth bound guard
                break
        self._jump = table

    def component_node(self, vertex: int, k: int) -> int:
        """The MST* node whose subtree is the k-ecc containing ``vertex``.

        The ancestors of a leaf with weight >= k form a prefix of its
        root path (Lemma A.1); the highest of them spans exactly the
        k-edge connected component (see ALGORITHMS.md).  O(log |V|).
        Returns the leaf itself when the vertex is in no k-ecc of
        size >= 2.
        """
        if not (0 <= vertex < self.num_leaves):
            raise VertexNotFoundError(vertex)
        if k <= 0:
            raise ValueError(f"k must be >= 1, got {k}")
        node = vertex
        weights = self.weights
        for jump_row in reversed(self._jump):
            candidate = jump_row[node]
            if candidate >= 0 and weights[candidate] >= k:
                node = candidate
        return node

    def component_interval(self, vertex: int, k: int) -> Tuple[int, int]:
        """The k-ecc of ``vertex`` as a ``[start, end)`` leaf-order slice.

        O(log |V|) regardless of the component size; materialize the
        vertices with ``self.leaf_order[start:end]``.
        """
        node = self.component_node(vertex, k)
        return self._interval_start[node], self._interval_end[node]

    def component_slice(self, vertex: int, k: int) -> List[int]:
        """The k-ecc of ``vertex``, materialized from its interval."""
        start, end = self.component_interval(vertex, k)
        return self.leaf_order[start:end]

    # ------------------------------------------------------------------
    # sc from the gap table
    # ------------------------------------------------------------------
    def _span_sc(self, lo: int, hi: int) -> int:
        """sc of a leaf set whose positions span ``[lo, hi]``; 0 = none.

        ``lo < hi``: one range minimum over ``gap[lo:hi]``.  ``lo == hi``
        (a singleton): the Section 2 reduction
        ``sc({v}) = max_{v'} sc(v, v')`` is the weight of the leaf's
        parent, which is the larger of its two adjacent gaps (the other
        one belongs to a lighter ancestor, Lemma A.1).  0 means the
        positions span two components, or the vertex is isolated.
        """
        if lo == hi:
            gap = self.gap
            left = gap.item(lo - 1) if lo > 0 else 0
            right = gap.item(lo) if lo < gap.shape[0] else 0
            return left if left > right else right
        j = int(hi - lo).bit_length() - 1
        rmq = self._rmq
        a = rmq.item(j, lo)
        b = rmq.item(j, hi - (1 << j))
        return a if a < b else b

    def _spans_sc(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_span_sc` over parallel position arrays."""
        multi = hi > lo
        if multi.all():
            return self._range_mins(lo, hi)
        out = np.zeros(lo.shape[0], dtype=np.int64)
        gap = self.gap
        m = gap.shape[0]
        if m == 0:  # at most one leaf: every span is an isolated singleton
            return out
        p = lo[~multi]
        left = np.where(p > 0, gap[np.maximum(p - 1, 0)], 0)
        right = np.where(p < m, gap[np.minimum(p, m - 1)], 0)
        out[~multi] = np.maximum(left, right)
        out[multi] = self._range_mins(lo[multi], hi[multi])
        return out

    def _range_mins(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``min gap[lo:hi]`` per pair of positions (``lo < hi``)."""
        # floor(log2(hi - lo)) from the float exponent: hi - lo = f * 2^e
        # with f in [0.5, 1), exact for any span below 2^53.
        j = np.frexp(hi - lo)[1].astype(np.int64) - 1
        rmq = self._rmq
        # Gathers through the flat table: about twice as fast as the
        # same lookups as 2-D fancy indexing.
        row = j * rmq.shape[1]
        flat = rmq.reshape(-1)
        return np.minimum(flat[row + lo], flat[row + hi - np.left_shift(1, j)])

    def _disconnected(self, q: Sequence[int]) -> DisconnectedQueryError:
        """The scalar error for a query whose span holds a zero gap."""
        v0 = q[0]
        component = self.vertex_component
        for v in q:
            if component[v] != component[v0]:
                return DisconnectedQueryError(
                    f"vertices {v0} and {v} are in different components"
                )
        return DisconnectedQueryError(f"vertex {v0} is isolated; sc undefined")

    def sc_pairs_batch(self, us, vs):
        """Vectorized ``sc(u, v)`` for parallel arrays of pairs.

        Two gathers of leaf positions and one vectorized range minimum
        over the gap table answer the whole batch — 1–2 orders of
        magnitude faster than one Python call per pair for large
        batches (analytics workloads: all-pairs studies, similarity
        matrices).  Pairs in different components yield 0; ``u == v``
        pairs are invalid (ValueError); an out-of-range vertex raises
        :class:`VertexNotFoundError` naming the first offender in
        (u, v) scan order.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("us and vs must have the same shape")
        if us.size == 0:
            return np.zeros(0, dtype=np.int64)
        n = self.num_leaves
        if (
            int(us.min()) < 0
            or int(us.max()) >= n
            or int(vs.min()) < 0
            or int(vs.max()) >= n
        ):
            raise VertexNotFoundError(_first_invalid_vertex(us, vs, n))
        if (us == vs).any():
            raise ValueError("sc of a vertex with itself is undefined")
        pu = self._position_arr[us]
        pv = self._position_arr[vs]
        return self._spans_sc(np.minimum(pu, pv), np.maximum(pu, pv))

    def steiner_connectivity_batch(self, queries: Sequence[Sequence[int]]) -> np.ndarray:
        """Vectorized Algorithm 11 over a whole query *set*.

        The flattened batch is mapped to leaf positions, segmented
        ``minimum.reduceat`` / ``maximum.reduceat`` give each query's
        leftmost and rightmost leaf, and one vectorized range minimum
        over the gap table answers every query.  Returns one int64 sc
        value per query.

        Unlike the scalar :meth:`steiner_connectivity`, disconnected
        queries and isolated singletons answer 0 — the serving batch
        convention — instead of raising; out-of-range vertices still
        raise :class:`VertexNotFoundError` (first offender in flat
        order) and empty queries :class:`EmptyQueryError`.  Duplicate
        vertices inside a query are harmless: ``[v, v]`` spans one
        position and answers like the singleton ``[v]``.
        """
        if not isinstance(queries, list):
            queries = list(queries)
        if not queries:
            return np.zeros(0, dtype=np.int64)
        lengths = np.fromiter(map(len, queries), dtype=np.int64, count=len(queries))
        if not lengths.all():
            raise EmptyQueryError("query vertex set is empty")
        total = int(lengths.sum())
        flat = np.fromiter(
            chain.from_iterable(queries), dtype=np.int64, count=total
        )
        if int(flat.min()) < 0 or int(flat.max()) >= self.num_leaves:
            bad = (flat < 0) | (flat >= self.num_leaves)
            raise VertexNotFoundError(int(flat[np.argmax(bad)]))
        starts = np.zeros(len(queries), dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        positions = self._position_arr[flat]
        return self._spans_sc(
            np.minimum.reduceat(positions, starts),
            np.maximum.reduceat(positions, starts),
        )

    def smcc_interval(self, q: Sequence[int]) -> Tuple[int, int, int]:
        """The SMCC of ``q`` as ``(sc, start, end)`` in O(|q| + log |V|).

        This improves on the paper's output-linear bound when only a
        *description* of the component is needed: the component is
        ``leaf_order[start:end]`` and its size is ``end - start``,
        available without enumerating the vertices.
        """
        sc = self.steiner_connectivity(q)
        q0 = next(iter(q))
        start, end = self.component_interval(q0, sc)
        return sc, start, end

    def smcc_l_interval(
        self, q: Sequence[int], size_bound: int
    ) -> Tuple[int, int, int]:
        """The SMCC_L of ``q`` as ``(k, start, end)``, climbing gap runs.

        Interval counterpart of :meth:`MSTIndex.smcc_l` (Algorithm 5).
        A k-ecc is a maximal run of gaps >= k in the leaf order — the
        interval :meth:`component_interval` finds — so the candidate
        components containing ``q`` are the runs around its leaves at
        falling thresholds.  Start at ``k = sc(q)``; while the run holds
        fewer than ``size_bound`` leaves, lower ``k`` to the larger of
        its two boundary gaps (the run's MST* parent weight, the rule
        :meth:`_span_sc` uses for singletons) and take the run at the
        new ``k``.  Each step strictly lowers ``k`` and strictly grows
        the run; the run that first reaches ``size_bound`` is the
        maximal k-ecc, the vertex set Algorithm 5 enumerates, found
        without touching any of its vertices.  O(|q| + log |V|) per
        step; only the gap row and the interval view are read, so a
        delta star (whose spliced gap row is exact and whose
        ``component_interval`` routes to its patch) runs this unchanged.

        Singleton queries use ``sc({v})``, which reproduces Algorithm
        5's convention; an isolated vertex with ``size_bound <= 1``
        answers ``(0, pos, pos + 1)``.  Raises
        :class:`InfeasibleSizeConstraintError` when the whole component
        (a run bounded by zero gaps) is smaller than ``size_bound``.
        """
        q = list(dict.fromkeys(q))
        if not q:
            raise EmptyQueryError("query vertex set is empty")
        for v in q:
            if not (0 <= v < self.num_leaves):
                raise VertexNotFoundError(v)
        position = self.leaf_position
        positions = [position[v] for v in q]
        lo, hi = min(positions), max(positions)
        k = self._span_sc(lo, hi)
        if k == 0:
            if len(q) > 1:
                raise self._disconnected(q)
            if size_bound <= 1:
                return 0, lo, lo + 1
            raise InfeasibleSizeConstraintError(size_bound, 1)
        v0 = q[0]
        start, end = self.component_interval(v0, k)
        gap = self.gap
        climbed = 0
        while end - start < size_bound:
            left = gap.item(start - 1) if start > 0 else 0
            right = gap.item(end - 1) if end - 1 < gap.shape[0] else 0
            k = left if left > right else right
            if k == 0:
                raise InfeasibleSizeConstraintError(size_bound, end - start)
            start, end = self.component_interval(v0, k)
            climbed += 1
        stats = _obs.get_active_stats()
        if stats is not None:
            stats.lca_calls += 1 if len(q) > 1 else 0
            stats.vertices_touched += len(q) + climbed
        return k, start, end

    def components_at(self, k: int) -> List[List[int]]:
        """All k-eccs: the leaf order split at every gap below ``max(k, 1)``.

        Every vertex has connectivity >= 0, so ``k = 0`` splits at the
        zero gaps only and yields the connected components.  Vertices
        in no size >= 2 component come back as singletons, matching
        :meth:`MSTIndex.components_at`.  O(|V|).
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if not self.num_leaves:
            return []
        cuts = np.flatnonzero(self.gap < max(k, 1)) + 1
        bounds = [0, *cuts.tolist(), self.num_leaves]
        order = self.leaf_order
        if isinstance(order, np.ndarray):
            order = order.tolist()
        return [order[a:b] for a, b in zip(bounds, bounds[1:])]

    def max_connectivity(self) -> int:
        """The largest k with a k-ecc: the largest gap (0 without edges)."""
        return int(self.gap.max()) if self.gap.shape[0] else 0

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.parents)

    def sc_pair(self, u: int, v: int) -> int:
        """``sc(u, v)`` = weight of the MST* LCA of leaves u, v (Lemma A.2)."""
        if u == v:
            raise ValueError("sc of a vertex with itself is undefined")
        pu = self.leaf_position[u]
        pv = self.leaf_position[v]
        sc = self._span_sc(pu, pv) if pu < pv else self._span_sc(pv, pu)
        if sc == 0:
            raise DisconnectedQueryError(
                f"vertices {u} and {v} are in different components"
            )
        stats = _obs.get_active_stats()
        if stats is not None:
            stats.lca_calls += 1
            stats.vertices_touched += 2
        return sc

    def steiner_connectivity(self, q: Sequence[int]) -> int:
        """SC-OPT (Algorithm 11): ``sc(q) = min gap[min pos(q) : max pos(q)]``.

        O(|q|) time: one pass maps the query to leaf positions, then one
        O(1) range minimum over the gap table — the weight of the
        set-LCA of ``q``'s leaves.  Singleton queries use the Section 2
        reduction ``sc({v}) = max_{v'} sc(v, v')``, the weight of the
        leaf's parent (see :meth:`_span_sc`).  Disconnected queries and
        isolated singletons raise :class:`DisconnectedQueryError`.
        """
        q = list(q)
        if not q:
            raise EmptyQueryError("query vertex set is empty")
        n = self.num_leaves
        for v in q:
            if not (0 <= v < n):
                raise VertexNotFoundError(v)
        position = self.leaf_position
        positions = [position[v] for v in q]
        lo = min(positions)
        hi = max(positions)
        sc = self._span_sc(lo, hi)
        if sc == 0:
            raise self._disconnected(q)
        if lo != hi:
            stats = _obs.get_active_stats()
            if stats is not None:
                stats.lca_calls += 1
                stats.vertices_touched += len(set(q))
        return sc

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert the structural invariants of Lemma A.1 (tests, post-load)."""
        children: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for node, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(node)
        for node in range(self.num_nodes):
            if node < self.num_leaves:
                if children[node]:
                    raise AssertionError(f"leaf {node} has children")
            else:
                if len(children[node]) != 2:
                    raise AssertionError(
                        f"internal node {node} has {len(children[node])} children"
                    )
                parent = self.parents[node]
                if parent >= 0 and self.weights[parent] > self.weights[node]:
                    raise AssertionError(
                        "weights must be non-increasing toward the root"
                    )


def build_mst_star(mst: MSTIndex) -> MSTStar:  # escape: borrowed
    """Algorithm 12: build MST* bottom-up from the MST in O(|V|).

    Handles spanning forests: each MST component yields its own MST*
    tree, and cross-component queries raise
    :class:`DisconnectedQueryError` at query time.
    """
    n = mst.n
    max_w = 0
    edge_count = 0
    for _, _, w in mst.tree_edges():
        edge_count += 1
        if w > max_w:
            max_w = w
    # Bin-sort tree edges by weight (weights are integers in 1 .. |V|).
    buckets: List[List[Tuple[int, int, int]]] = [[] for _ in range(max_w + 1)]
    for u, v, w in mst.tree_edges():
        buckets[w].append((u, v, w))

    total_nodes = n + edge_count
    parents = [-1] * total_nodes
    weights = [0] * total_nodes
    tree_edge_of_node: List[Optional[Tuple[int, int]]] = [None] * total_nodes
    ds = DisjointSetWithRoot(n)
    # Internal node ids are assigned n, n+1, ... in processing order, so
    # `attached` payloads may exceed the initial universe; the DSU tracks
    # only leaf elements — the payload is the MST* root node id.
    next_node = n
    for w in range(max_w, 0, -1):
        for u, v, _ in buckets[w]:
            node = next_node
            next_node += 1
            weights[node] = w
            tree_edge_of_node[node] = (u, v) if u < v else (v, u)
            root_u = ds.find_root(u)
            root_v = ds.find_root(v)
            parents[root_u] = node
            parents[root_v] = node
            ds.union_with_root(u, v, node)
    star = MSTStar(n, parents, weights, tree_edge_of_node)
    invariant(
        "lemma-a.1-mst-star-structure",
        lambda: mst_star_consistent(star, mst),
        "MST* violates Lemma A.1/A.2 (shape, weight order, gap table, "
        "or LCA weights)",
    )
    return star
