"""MST*: the optimization connectivity-preserving index (Appendix A.2).

MST* reorganizes the MST ``T`` into a rooted binary tree ``T*``: every
vertex of ``T`` becomes a leaf, and every edge of ``T`` an internal
node carrying the edge's weight, built bottom-up by Algorithm 12
(Kruskal over the tree edges in non-increasing weight order).  By
Lemma A.2, ``sc(u, v)`` is the weight of ``LCA(u, v)`` in ``T*``.

This module never materializes that tree.  ``T*`` is the Kruskal
reconstruction tree of the MST, hence the Cartesian tree of its *gap
row* ``gap[i] = sc(leaf_order[i], leaf_order[i + 1])`` over the leaf
order (0 between components), and the gap row is all a query reads:

- **Build.**  Algorithm 12's Kruskal pass keeps, per union-find set, a
  linked list of its leaves.  Each union appends one list to the other
  and writes the edge's weight as the gap at the junction, so the leaf
  order and the gap row fall out directly, in O(|V| α(|V|)) after the
  sort.
- **sc.**  The LCA of two leaves is the lightest internal node between
  them in leaf order, so ``sc(u, v) = min gap[pos u : pos v]``, and the
  LCA of a leaf *set* is the LCA of its leftmost and rightmost leaves:
  ``sc(q) = min gap[min pos(q) : max pos(q)]`` — one range minimum per
  query (the LCA/RMQ equivalence of Gabow–Bentley–Tarjan and
  Bender–Farach-Colton) over a sparse table.
- **k-eccs.**  A k-ecc is a maximal run of gaps >= k (Chang's hierarchy
  view).  Each gap's own maximal run, its Cartesian parent (the heavier
  of the run's two boundary gaps — the MST* parent of the internal
  node) and a binary-lifting jump table over those parents are derived
  from the sparse table in a few vectorized numpy passes.
  ``component_interval`` climbs the jump table to the run of a vertex
  at level k, ``smcc_l`` climbs Cartesian parents, and
  ``components_at(k)`` splits the leaf order at the gaps below k.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.contracts import invariant
from repro.analysis.lemmas import gap_table_violation, mst_star_consistent
from repro.errors import (
    DisconnectedQueryError,
    EmptyQueryError,
    InfeasibleSizeConstraintError,
    VertexNotFoundError,
)
from repro.index.mst import MSTIndex
from repro.obs import runtime as _obs


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


def run_table(rmq: np.ndarray) -> np.ndarray:
    """Each gap's maximal run of gaps >= itself, as leaf intervals.

    Returns a ``(2, m)`` int64 matrix: column ``i`` is the half-open
    leaf-order interval ``[start, end)`` whose inner gaps
    ``gap[start : end - 1]`` are all >= ``gap[i]`` and which no
    neighbouring gap >= ``gap[i]`` extends — the k-ecc at
    ``k = gap[i]`` holding leaves ``i`` and ``i + 1``.  Both ends come
    from one descent of the sparse table per side, vectorized over all
    positions: from the widest window down, a side grows by ``2^j``
    whenever that window's minimum is still >= ``gap[i]``.
    """
    gap = rmq[0]
    m = int(gap.shape[0])
    lo = np.arange(m, dtype=np.int64)
    hi = lo + 1
    for j in range(rmq.shape[0] - 1, -1, -1):
        step = 1 << j
        row = rmq[j]
        fits = hi + step <= m
        grow = fits & (row[np.where(fits, hi, 0)] >= gap)
        hi += np.where(grow, step, 0)
        fits = lo >= step
        grow = fits & (row[np.where(fits, lo - step, 0)] >= gap)
        lo -= np.where(grow, step, 0)
    # Gaps [lo, hi) form the run; its leaves are [lo, hi + 1).
    return np.stack((lo, hi + 1))


def cartesian_jump_table(gap: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Binary lifting over each gap's Cartesian parent, by gap position.

    The parent of gap ``i`` is the heavier of the two gaps bounding its
    run (``runs[0, i] - 1`` and ``runs[1, i] - 1``; equal boundary gaps
    share one run, so either serves): the MST* parent of the internal
    node, strictly lighter than ``gap[i]`` and with a run strictly
    containing its run.  A zero gap, or a gap whose heavier boundary
    is 0 or absent, has no parent (-1): its run is a whole component.
    Row ``j`` holds the ``2^j``-th ancestor; rows stop once every
    ``2^j``-th ancestor is absent, so there is one row per doubling of
    the hierarchy's depth counted in distinct levels (equal weights
    share a run): 3–4 rows on the perfbench graphs.
    """
    m = int(gap.shape[0])
    left = runs[0] - 1
    right = runs[1] - 1
    left_gap = np.where(left >= 0, gap[np.maximum(left, 0)], -1)
    right_gap = np.where(right < m, gap[np.minimum(right, max(m - 1, 0))], -1)
    parent = np.where(left_gap >= right_gap, left, right)
    parent[(gap <= 0) | (np.maximum(left_gap, right_gap) <= 0)] = -1
    rows = [parent]
    while True:
        prev = rows[-1]
        ancestor = np.where(prev >= 0, prev[np.maximum(prev, 0)], -1)
        if not (ancestor >= 0).any():
            return np.stack(rows)
        rows.append(ancestor)


def _int_view(arr: np.ndarray) -> memoryview:
    """A read-only view of an int64 row that indexes to Python ints.

    The climb reads a few scattered entries per query; a memoryview
    returns each as a Python int without the ndarray scalar boxing,
    and without copying the (possibly shared-memory) buffer.
    """
    return memoryview(np.ascontiguousarray(arr)).toreadonly()


class MSTStar:
    """The MST* read structure: a leaf order and its gap row.

    Construction eagerly derives every table from the gap row — the
    range-minimum sparse table, the run table and the Cartesian jump
    table — and publishes them read-only: the leaf order is a tuple,
    every array has ``writeable=False`` and the climb's rows are
    read-only memoryviews.  Instances are therefore immutable from the
    moment they exist, so any number of threads (and cached answers
    that slice the leaf order) may share one.  Every sc family
    (scalar, pairwise, batched, singleton), ``smcc``, ``smcc_l``,
    ``components_at`` and ``max_connectivity`` is answered from these
    tables alone.
    """

    def __init__(self, leaf_order: Sequence[int], gap: np.ndarray) -> None:
        rmq = sparse_min_table(np.asarray(gap, dtype=np.int64))
        runs = run_table(rmq)
        # One int64 buffer, not a list of int objects: a cached answer's
        # touch set pins its generation's leaf_position, and carried
        # entries keep old generations' alive, so the process's peak
        # memory grew with the publishes served while it was a list.
        order = tuple(leaf_order)
        position = np.empty(len(order), dtype=np.int64)
        position[np.asarray(order, dtype=np.int64)] = np.arange(
            len(order), dtype=np.int64
        )
        position.setflags(write=False)
        self._install(
            order,
            _int_view(position),
            rmq,
            runs,
            cartesian_jump_table(rmq[0], runs),
        )

    @classmethod
    def over_arrays(
        cls,
        leaf_order: np.ndarray,
        leaf_position: np.ndarray,
        rmq: np.ndarray,
        runs: np.ndarray,
        jump: np.ndarray,
    ) -> "MSTStar":
        """An MST* over already-built int64 buffers (no rebuild).

        The shared-memory worker view maps an exported star this way.
        """
        star = cls.__new__(cls)
        star._install(leaf_order, leaf_position, rmq, runs, jump)
        return star

    def _install(
        self,
        leaf_order: Sequence[int],
        leaf_position: Sequence[int],
        rmq: np.ndarray,
        runs: np.ndarray,
        jump: np.ndarray,
    ) -> None:
        # Read-only before any view is taken, so the gap row, run
        # bounds and jump rows viewed below are read-only too.
        for table in (rmq, runs, jump):
            table.setflags(write=False)
        #: number of leaves == |V| of the base graph
        self.num_leaves = len(leaf_position)
        #: leaves (graph vertices) in MST* order — k-eccs are slices
        self.leaf_order = leaf_order
        #: position of each vertex in leaf_order
        self.leaf_position = leaf_position
        #: dense sparse table over the gap row (see sparse_min_table)
        self._rmq = rmq
        #: gap[i] = sc(leaf_order[i], leaf_order[i + 1]); 0 across components
        self.gap = rmq[0]
        #: (2, m) leaf interval of each gap's maximal run (see run_table)
        self._runs = runs
        #: Cartesian-parent jump table over gap positions
        self._jump_table = jump
        # The climb's views of the gap row, the run bounds and the jump
        # rows (top row first).
        self._levels = _int_view(self.gap)
        self._run_start = _int_view(runs[0])
        self._run_end = _int_view(runs[1])
        self._jump = tuple(_int_view(row) for row in jump[::-1])
        #: int64 gather buffer of leaf_position for the batched kernels
        #: (the buffer itself when leaf_position already is an ndarray)
        self._position_arr = np.asarray(leaf_position, dtype=np.int64)
        # Components are contiguous runs of the leaf order, numbered in
        # leaf order: a leaf's id counts the zero gaps left of it.
        at_position = np.zeros(self.gap.shape[0] + 1, dtype=np.int64)
        np.cumsum(self.gap == 0, out=at_position[1:])
        #: per-vertex component id, for routing and error messages
        self.vertex_component = at_position[self._position_arr]
        self.vertex_component.setflags(write=False)

    # ------------------------------------------------------------------
    # k-eccs: maximal runs of gaps >= k, found by a climb
    # ------------------------------------------------------------------
    def _top_gap(self, position: int, k: int) -> int:
        """The gap whose run is the k-ecc around ``position``; -1 if none.

        Start at the heavier gap next to the leaf (the leaf's MST*
        parent); if it is below ``k`` the vertex is in no k-ecc of size
        >= 2.  Otherwise climb Cartesian ancestors while they stay
        >= ``k`` — they are strictly lighter at every step, so the last
        one is the lightest gap of the k-run.  O(log depth).
        """
        levels = self._levels
        left = levels[position - 1] if position > 0 else 0
        right = levels[position] if position < len(levels) else 0
        if left >= right:
            node, top = position - 1, left
        else:
            node, top = position, right
        if top < k:
            return -1
        for row in self._jump:
            candidate = row[node]
            if candidate >= 0 and levels[candidate] >= k:
                node = candidate
        return node

    def component_interval(self, vertex: int, k: int) -> Tuple[int, int]:
        """The k-ecc of ``vertex`` as a ``[start, end)`` leaf-order slice.

        O(log |V|) regardless of the component size; materialize the
        vertices with ``self.leaf_order[start:end]``.  A vertex in no
        k-ecc of size >= 2 gets its own one-leaf slice.
        """
        if not (0 <= vertex < self.num_leaves):
            raise VertexNotFoundError(vertex)
        if k <= 0:
            raise ValueError(f"k must be >= 1, got {k}")
        position = self.leaf_position[vertex]
        node = self._top_gap(position, k)
        if node < 0:
            return position, position + 1
        return self._run_start[node], self._run_end[node]

    def component_slice(self, vertex: int, k: int) -> Sequence[int]:
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
        MST* parent, which is the larger of its two adjacent gaps (the
        other one belongs to a lighter ancestor, Lemma A.1).  0 means
        the positions span two components, or the vertex is isolated.
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
        A k-ecc is a maximal run of gaps >= k in the leaf order, so the
        candidate components containing ``q`` are the runs around its
        leaves at falling thresholds.  Start at the run of ``k = sc(q)``;
        while it holds fewer than ``size_bound`` leaves, step to its
        Cartesian parent — the heavier of its two boundary gaps, whose
        run strictly contains it at a strictly lower ``k``.  The run
        that first reaches ``size_bound`` is the maximal k-ecc, the
        vertex set Algorithm 5 enumerates, found without touching any
        of its vertices.  O(|q| + log |V|) plus one step per level.

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
        node = self._top_gap(position[q[0]], k)
        run_start, run_end = self._run_start, self._run_end
        start, end = run_start[node], run_end[node]
        parent = self._jump[-1]
        climbed = 0
        while end - start < size_bound:
            node = parent[node]
            if node < 0:
                raise InfeasibleSizeConstraintError(size_bound, end - start)
            k = self._levels[node]
            start, end = run_start[node], run_end[node]
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
        order = order.tolist() if isinstance(order, np.ndarray) else list(order)
        return [order[a:b] for a, b in zip(bounds, bounds[1:])]

    def max_connectivity(self) -> int:
        """The largest k with a k-ecc: the largest gap (0 without edges)."""
        return int(self.gap.max()) if self.gap.shape[0] else 0

    # ------------------------------------------------------------------
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
        leaf's MST* parent (see :meth:`_span_sc`).  Disconnected queries
        and isolated singletons raise :class:`DisconnectedQueryError`.
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
    def validate(self, mst: Optional[MSTIndex] = None) -> None:
        """Raise AssertionError unless the tables are consistent.

        Runs :func:`~repro.analysis.lemmas.gap_table_violation`: the
        leaf order is a permutation, every table is derived correctly
        from the gap row (sparse table, maximal runs, strictly lighter
        and strictly wider Cartesian parents, jump rows) and, given the
        MST, every gap is the minimum weight on the tree path between
        its two leaves (0 across trees).
        """
        problem = gap_table_violation(self, mst)
        if problem is not None:
            raise AssertionError(problem)


def leaf_order_and_gaps(mst: MSTIndex) -> Tuple[List[int], np.ndarray]:
    """Algorithm 12 with linked leaf lists: ``(leaf_order, gap)``.

    Kruskal over the tree edges in non-increasing weight order.  Each
    union-find set keeps its leaves as a circular linked list and
    remembers the list's last leaf (the attached root of Appendix A.2's
    union-find).  A union splices the second list in after the first
    one's last leaf — swapping the two last leaves' successors — and
    records the edge weight as the gap after that leaf.  Walking each
    list from its head gives the leaf order; a component's last leaf
    has no gap after it (0).  The union-find (by size, path halving)
    is inlined: method calls per edge doubled the build.
    """
    n = mst.n
    edges = sorted(mst.tree_edges(), key=itemgetter(2), reverse=True)
    parent = list(range(n))
    size = [1] * n
    last = list(range(n))
    following = list(range(n))
    gap_after = [0] * n
    for u, v, w in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        last_u, last_v = last[u], last[v]
        following[last_u], following[last_v] = following[last_v], following[last_u]
        gap_after[last_u] = w
        if size[u] < size[v]:
            u, v = v, u
        parent[v] = u
        size[u] += size[v]
        last[u] = last_v
    order: List[int] = []
    for root in range(n):
        if parent[root] != root:
            continue
        head = leaf = following[last[root]]
        while True:
            order.append(leaf)
            leaf = following[leaf]
            if leaf == head:
                break
    gap = np.asarray(gap_after, dtype=np.int64)[np.asarray(order[:-1], dtype=np.int64)]
    return order, gap


def build_mst_star(mst: MSTIndex) -> MSTStar:
    """Algorithm 12: the MST* gap row and its tables from the MST.

    Handles spanning forests: components are consecutive runs of the
    leaf order separated by zero gaps, and cross-component queries
    raise :class:`DisconnectedQueryError` at query time.
    """
    star = MSTStar(*leaf_order_and_gaps(mst))
    invariant(
        "lemma-a.1-mst-star-structure",
        lambda: mst_star_consistent(star, mst),
        "MST* violates Lemma A.1/A.2 (gap row, run table, Cartesian "
        "parents, or sc of tree edges)",
    )
    return star
