"""The MST index: maximum spanning tree of the connectivity graph.

Lemma 4.4 of the paper: for any maximum spanning tree ``T`` of the
connectivity graph, ``sc(u, v)`` equals the minimum edge weight on the
unique ``u..v`` path in ``T`` — so the O(|V|)-size tree preserves all
pairwise steiner-connectivities.

:class:`MSTIndex` stores the tree in three coordinated forms:

- a *mutable* weighted adjacency (``tree_adj``) plus the bucketized
  non-tree edge set ``NT`` — the representations index maintenance
  (Section 5.2.3) works on;
- derived, lazily rebuilt read structures: per-vertex adjacency sorted
  by non-increasing weight (for the output-linear BFS of SMCC-OPT and
  the prioritized search of SMCC_L-OPT) and rooted parent / level /
  parent-weight arrays (for the ``O(|T_q|)`` LCA-walk of SC-MST,
  Algorithm 10).

The index supports spanning *forests* so that graphs disconnected by
edge deletions keep working; queries spanning two components raise
:class:`~repro.errors.DisconnectedQueryError`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph

from repro.analysis.contracts import invariant
from repro.analysis.lemmas import is_maximum_spanning_forest, tq_min_weight_matches
from repro.errors import (
    DisconnectedQueryError,
    EmptyQueryError,
    InfeasibleSizeConstraintError,
    InternalInvariantError,
    VertexNotFoundError,
)
from repro.index.connectivity_graph import ConnectivityGraph
from repro.obs import runtime as _obs
from repro.util.bucket_queue import EdgeBuckets, MaxBucketQueue
from repro.util.disjoint_set import DisjointSet

Edge = Tuple[int, int]

#: Minimum graph size for the hybrid SMCC-extraction dispatch.  Below
#: this vertex count :meth:`MSTIndex.vertices_with_connectivity` always
#: runs the pure-Python pruned BFS (the array kernel's O(|V|) passes
#: cost more than the whole output-linear walk); at or above it, the
#: BFS runs with a ``|V| // 8`` switch budget and hands large
#: extractions to the pointer-jumping kernel
#: (:meth:`MSTIndex._vertices_with_connectivity_array`), measured 9-16x
#: faster than the Python BFS on near-whole-graph components at
#: n >= 3000.  Measured on ssca graphs (see docs/PERFORMANCE.md,
#: "Query-kernel dispatch"); the level-by-level CSR frontier sweep was
#: also measured and rejected — tree depth makes its per-level numpy
#: overhead dominate at every tested size.
ARRAY_KERNEL_MIN_VERTICES = 2048


class MSTIndex:
    """Maximum spanning forest of a connectivity graph, with query support."""

    def __init__(self, num_vertices: int) -> None:
        self.n = num_vertices
        #: mutable weighted tree adjacency: tree_adj[u][v] = weight
        self.tree_adj: List[Dict[int, int]] = [dict() for _ in range(num_vertices)]
        #: non-tree edges of the connectivity graph, bucketized by weight
        self.non_tree = EdgeBuckets()
        # Derived read structures (lazy; see _ensure_derived).
        self._sorted_adj: Optional[List[List[Tuple[int, int]]]] = None
        # CSR mirror of _sorted_adj for the vectorized scan accounting;
        # rows keep the non-increasing weight order.
        self._csr: Optional["CSRGraph"] = None
        # int64 mirrors of the rooted arrays for the pointer-jump kernel
        self._rooted_arrs: Optional[Tuple["object", "object", "object"]] = None
        self._parent: Optional[List[int]] = None
        self._parent_weight: Optional[List[int]] = None
        self._level: Optional[List[int]] = None
        self._component: Optional[List[int]] = None
        self._roots: List[int] = []
        # Epoch-based visited marks for O(|T_q|) queries without clearing.
        # frozen-exempt: epoch scratch of the MST-walk queries
        self._visit_epoch: List[int] = [0] * num_vertices
        self._epoch = 0
        #: bumped by every tree mutation; a snapshot publisher reuses the
        #: previous MST* while the version it was captured at holds
        self.tree_version = 0

    # ------------------------------------------------------------------
    # Tree mutation (used by construction and maintenance)
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        self.tree_adj.append(dict())
        self._visit_epoch.append(0)
        self.n += 1
        self.invalidate()
        return self.n - 1

    def add_tree_edge(self, u: int, v: int, weight: int) -> None:
        self.tree_adj[u][v] = weight
        self.tree_adj[v][u] = weight
        self.invalidate()

    def remove_tree_edge(self, u: int, v: int) -> int:
        weight = self.tree_adj[u].pop(v)
        del self.tree_adj[v][u]
        self.invalidate()
        return weight

    def set_tree_weight(self, u: int, v: int, weight: int) -> None:
        self.tree_adj[u][v] = weight
        self.tree_adj[v][u] = weight
        self.invalidate()

    def has_tree_edge(self, u: int, v: int) -> bool:
        return v in self.tree_adj[u]

    def tree_weight(self, u: int, v: int) -> int:
        return self.tree_adj[u][v]

    def tree_edges(self) -> Iterable[Tuple[int, int, int]]:
        """Yield ``(u, v, weight)`` for every tree edge once (u < v)."""
        for u, nbrs in enumerate(self.tree_adj):
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    def num_tree_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.tree_adj) // 2

    def invalidate(self) -> None:
        """Mark derived read structures stale after a tree mutation."""
        self.tree_version += 1
        self._sorted_adj = None
        self._csr = None
        self._rooted_arrs = None
        self._parent = None

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def _ensure_derived(self) -> None:
        stats = _obs.get_active_stats()
        if self._sorted_adj is not None and self._parent is not None:
            if stats is not None:
                stats.cache_hits += 1
            return
        if stats is not None:
            stats.cache_misses += 1
        n = self.n
        self._sorted_adj = [
            sorted(((w, v) for v, w in self.tree_adj[u].items()), reverse=True)
            for u in range(n)
        ]
        parent = [-1] * n
        parent_weight = [0] * n
        level = [0] * n
        component = [-1] * n
        roots: List[int] = []
        for start in range(n):
            if component[start] >= 0:
                continue
            roots.append(start)
            comp_id = len(roots) - 1
            component[start] = comp_id
            queue = deque((start,))
            while queue:
                u = queue.popleft()
                for v, w in self.tree_adj[u].items():
                    if component[v] < 0:
                        component[v] = comp_id
                        parent[v] = u
                        parent_weight[v] = w
                        level[v] = level[u] + 1
                        queue.append(v)
        self._parent = parent
        self._parent_weight = parent_weight
        self._level = level
        self._component = component
        self._roots = roots

    @property
    def parent(self) -> List[int]:
        self._ensure_derived()
        return self._parent  # type: ignore[return-value]

    @property
    def level(self) -> List[int]:
        self._ensure_derived()
        return self._level  # type: ignore[return-value]

    @property
    def component(self) -> List[int]:
        self._ensure_derived()
        return self._component  # type: ignore[return-value]

    def sorted_adjacency(self, u: int) -> List[Tuple[int, int]]:
        """Adjacency of ``u`` as ``(weight, neighbor)`` in non-increasing weight."""
        self._ensure_derived()
        return self._sorted_adj[u]  # type: ignore[index]

    def _ensure_csr(self) -> "CSRGraph":
        """CSR mirror of ``_sorted_adj`` for the vectorized accounting.

        Rows keep the non-increasing weight order, so a row's heavy
        prefix (weight >= k) is contiguous.  Rebuilt lazily after
        :meth:`invalidate`, like every derived read structure.
        """
        if self._csr is None:
            import numpy as np

            from repro.graph.csr import CSRGraph

            self._ensure_derived()
            sorted_adj = self._sorted_adj
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(
                [len(row) for row in sorted_adj],  # type: ignore[union-attr]
                out=indptr[1:],
            )
            total = int(indptr[-1])
            nbr = np.fromiter(
                (v for row in sorted_adj for _, v in row),  # type: ignore[union-attr]
                dtype=np.int64,
                count=total,
            )
            wt = np.fromiter(
                (w for row in sorted_adj for w, _ in row),  # type: ignore[union-attr]
                dtype=np.int64,
                count=total,
            )
            self._csr = CSRGraph(indptr, nbr, wt)
        return self._csr

    def _ensure_rooted_arrays(self):
        """int64 views of the rooted arrays for the pointer-jump kernel.

        ``(parent, parent_weight, identity)`` where ``identity`` is the
        cached ``arange(n)``.  Rebuilt lazily after :meth:`invalidate`.
        """
        if self._rooted_arrs is None:
            import numpy as np

            self._ensure_derived()
            self._rooted_arrs = (
                np.asarray(self._parent, dtype=np.int64),
                np.asarray(self._parent_weight, dtype=np.int64),
                np.arange(self.n, dtype=np.int64),
            )
        return self._rooted_arrs

    # ------------------------------------------------------------------
    # Query: steiner-connectivity via the LCA walk (SC-MST, Algorithm 10)
    # ------------------------------------------------------------------
    def steiner_connectivity(self, q: Sequence[int]) -> int:
        """Compute ``sc(q)`` in ``O(|T_q|)`` time (Algorithm 10).

        Raises :class:`DisconnectedQueryError` when the query spans more
        than one connected component, and :class:`EmptyQueryError` on an
        empty query.  A singleton query returns ``sc({v})`` = the maximum
        sc between ``v`` and any other vertex (Section 2's reduction).
        """
        q = _normalize_query(q, self.n)
        self._ensure_derived()
        if len(q) == 1:
            return self._singleton_sc(q[0])
        component = self._component
        first_comp = component[q[0]]
        for v in q[1:]:
            if component[v] != first_comp:
                raise DisconnectedQueryError(
                    f"query vertices {q[0]} and {v} are in different components"
                )
        parent, parent_weight, level = self._parent, self._parent_weight, self._level
        self._epoch += 1
        epoch, marks = self._epoch, self._visit_epoch
        marks[q[0]] = epoch
        lca = q[0]
        min_weight: Optional[int] = None
        edges_scanned = 0
        for target in q[1:]:
            if marks[target] == epoch:
                continue
            u, v = lca, target
            while u != v:
                edges_scanned += 1
                if level[u] >= level[v]:
                    # u only ever climbs to ancestors of the current lca,
                    # which are necessarily unvisited.
                    w = parent_weight[u]
                    u = parent[u]
                    if min_weight is None or w < min_weight:
                        min_weight = w
                    marks[u] = epoch
                else:
                    w = parent_weight[v]
                    v = parent[v]
                    if min_weight is None or w < min_weight:
                        min_weight = w
                    if marks[v] == epoch:
                        # v reached a visited vertex: lca_i = lca_{i-1}
                        # (paper Algorithm 10 line 9).
                        break
                    marks[v] = epoch
            else:
                # Loop ended with u == v: that meeting point is lca_i.
                marks[u] = epoch
                lca = u
        stats = _obs.get_active_stats()
        if stats is not None:
            stats.tree_edges_scanned += edges_scanned
            stats.vertices_touched += edges_scanned + 1
        if min_weight is None:  # unreachable: |q| >= 2 in one component
            raise InternalInvariantError(
                "LCA walk over a multi-vertex connected query used no edge"
            )
        invariant(
            "lemma-4.5-tq-min-weight",
            lambda: tq_min_weight_matches(self, q, min_weight),
            "Algorithm 10 result disagrees with the full-BFS T_q recompute",
        )
        return min_weight

    def _singleton_sc(self, v: int) -> int:
        """sc({v}) = max sc(v, v') over neighbors — read off the tree."""
        if not self.tree_adj[v]:
            raise DisconnectedQueryError(f"vertex {v} is isolated; sc undefined")
        return max(self.tree_adj[v].values())

    # ------------------------------------------------------------------
    # Query: SMCC (Algorithm 4)
    # ------------------------------------------------------------------
    def smcc(self, q: Sequence[int]) -> Tuple[List[int], int]:
        """Compute the SMCC of ``q``: ``(vertices, sc(q))`` in O(result) time."""
        q = _normalize_query(q, self.n)
        sc = self.steiner_connectivity(q)
        return self.vertices_with_connectivity(q[0], sc), sc

    def vertices_with_connectivity(self, source: int, k: int) -> List[int]:
        """The k-edge connected component of ``source``.

        Two property-tested-identical engines behind a hybrid result-size
        dispatch (the PR-3 pattern):

        - the paper's pruned Python BFS — adjacency is sorted by
          non-increasing weight, so each vertex's scan stops at the
          first light edge, giving output-linear time (Lemma 4.6).  On
          graphs with at least :data:`ARRAY_KERNEL_MIN_VERTICES`
          vertices it runs with a ``|V| // 8`` switch budget;
        - when the visited set outgrows that budget, the walk is
          abandoned and the whole extraction reruns on the
          pointer-jumping kernel
          (:meth:`_vertices_with_connectivity_array`), whose cost is a
          few O(|V|) numpy passes — measured 9-16x faster than the
          Python BFS on near-whole-graph components, while the budget
          bound keeps small extractions on the output-linear path.

        Vertex order differs between the engines (FIFO discovery vs
        ascending ids); they agree as sets.
        """
        self._ensure_derived()
        budget = self.n >> 3 if self.n >= ARRAY_KERNEL_MIN_VERTICES else self.n
        sorted_adj = self._sorted_adj
        self._epoch += 1
        epoch, marks = self._epoch, self._visit_epoch
        marks[source] = epoch
        result = [source]
        queue = deque((source,))
        while queue:
            u = queue.popleft()
            for w, v in sorted_adj[u]:  # type: ignore[index]
                if w < k:
                    break
                if marks[v] != epoch:
                    marks[v] = epoch
                    result.append(v)
                    queue.append(v)
            if len(result) > budget:
                result = self._vertices_with_connectivity_array(source, k)
                break
        stats = _obs.get_active_stats()
        if stats is not None:
            # Account for the scans a pruned sweep performs (the heavy
            # prefix plus the one light probe that stops each row) so
            # the hot loops above stay clean.  The count is what the
            # Python BFS *would* scan, regardless of the engine used,
            # keeping the output-sensitivity counters engine-independent.
            stats.vertices_touched += len(result)
            stats.tree_edges_scanned += self._pruned_scan_edges(result, k)
        return result

    def _vertices_with_connectivity_array(self, source: int, k: int) -> List[int]:
        """Pointer-jumping kernel: the k-ecc of ``source`` in ascending id order.

        Keep each rooted tree edge ``v -> parent[v]`` iff its weight is
        >= k; ``rep[v]`` then converges, by repeated ``rep = rep[rep]``
        squaring, to the highest ancestor of ``v`` reachable over kept
        edges.  Two vertices lie in the same k-ecc iff their tree path
        uses only kept edges, which happens iff they climb to the same
        top — so the component of ``source`` is one equality mask.
        O(|V| log depth) total, independent of the result size.
        """
        import numpy as np

        parent, parent_weight, identity = self._ensure_rooted_arrays()
        keep = (parent_weight >= k) & (parent >= 0)
        rep = np.where(keep, parent, identity)
        while True:
            nxt = rep[rep]
            if bool(np.array_equal(nxt, rep)):
                break
            rep = nxt
        return np.nonzero(rep == rep[source])[0].tolist()

    def _pruned_scan_edges(self, result: List[int], k: int) -> int:
        """Edges a pruned scan of ``result``'s rows examines.

        Per row: the heavy prefix (weight >= k) plus the one light
        probe that stops the scan — ``min(heavy + 1, degree)``.  The
        heavy prefix lengths come from one segmented reduce over the
        CSR weight array instead of a per-edge Python replay.
        """
        import numpy as np

        csr = self._ensure_csr()
        indptr, wt = csr.indptr, csr.weights
        rows = np.asarray(result, dtype=np.int64)
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
        nz = counts > 0
        if not nz.any():
            return 0
        starts = starts[nz]
        counts = counts[nz]
        boundaries = np.cumsum(counts)
        seg_starts = boundaries - counts
        idx = np.arange(int(boundaries[-1]), dtype=np.int64) + np.repeat(
            starts - seg_starts, counts
        )
        heavy = np.add.reduceat((wt[idx] >= k).astype(np.int64), seg_starts)
        return int(np.minimum(heavy + 1, counts).sum())

    # ------------------------------------------------------------------
    # Query: SMCC with size constraint (Algorithm 5)
    # ------------------------------------------------------------------
    def smcc_l(self, q: Sequence[int], size_bound: int) -> Tuple[List[int], int]:
        """Compute the SMCC_L of ``q``: ``(vertices, connectivity)``.

        Implements the prioritized search of Algorithm 5 with a bucket
        max-queue, O(result) time.  Raises
        :class:`InfeasibleSizeConstraintError` if the connected component
        of the query has fewer than ``size_bound`` vertices.
        """
        q = _normalize_query(q, self.n)
        self._ensure_derived()
        component = self._component
        first_comp = component[q[0]]
        for v in q[1:]:
            if component[v] != first_comp:
                raise DisconnectedQueryError(
                    f"query vertices {q[0]} and {v} are in different components"
                )
        sorted_adj = self._sorted_adj
        v0 = q[0]
        needed: Set[int] = set(q)

        self._epoch += 1
        epoch, marks = self._epoch, self._visit_epoch
        marks[v0] = epoch
        visited = [v0]
        remaining_query = len(needed) - 1 if v0 in needed else len(needed)

        # Items are (vertex, adjacency cursor); weights are in 1 .. n-1.
        queue: MaxBucketQueue[Tuple[int, int]] = MaxBucketQueue(max(self.n, 1))
        if sorted_adj[v0]:  # type: ignore[index]
            w, _ = sorted_adj[v0][0]  # type: ignore[index]
            queue.push(w, (v0, 0))
        k = 0  # lower bound on the connectivity of the SMCC_L; 0 = unset
        min_popped: Optional[int] = None
        pops = 0

        while queue and queue.max_key() >= max(k, 1):
            weight, (u, cursor) = queue.pop_max()
            pops += 1
            if min_popped is None or weight < min_popped:
                min_popped = weight
            # Push u's next adjacency edge (line 6).
            nxt = cursor + 1
            if nxt < len(sorted_adj[u]):  # type: ignore[arg-type]
                queue.push(sorted_adj[u][nxt][0], (u, nxt))  # type: ignore[index]
            v = sorted_adj[u][cursor][1]  # type: ignore[index]
            if marks[v] == epoch:
                continue
            marks[v] = epoch
            visited.append(v)
            if v in needed:
                remaining_query -= 1
            if sorted_adj[v]:  # type: ignore[index]
                queue.push(sorted_adj[v][0][0], (v, 0))  # type: ignore[index]
            if k == 0 and remaining_query == 0 and len(visited) >= size_bound:
                # Line 11: k becomes the connectivity of the SMCC_L.
                k = min_popped

        stats = _obs.get_active_stats()
        if stats is not None:
            stats.queue_pops += pops
            stats.tree_edges_scanned += pops
            stats.vertices_touched += len(visited)
        if k == 0:
            if remaining_query == 0 and len(visited) >= size_bound:
                # Only reachable when v0 is isolated and the bound is <= 1:
                # the result is the bare vertex, whose connectivity is 0.
                k = 0 if min_popped is None else min_popped
            else:
                raise InfeasibleSizeConstraintError(size_bound, len(visited))
        return visited, k

    # ------------------------------------------------------------------
    # Whole-graph structure readable off the index
    # ------------------------------------------------------------------
    def components_at(self, k: int) -> List[List[int]]:
        """All k-edge connected components of the graph, in O(|V|).

        The k-eccs are exactly the classes connected by tree edges of
        weight >= k (Lemma 4.6 applied to every vertex), so one pass
        over the tree enumerates them — no KECC computation.  Vertices
        in no size >= 2 component come back as singletons, matching the
        KECC engines' convention.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        seen = [False] * self.n
        components: List[List[int]] = []
        tree_adj = self.tree_adj
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            stack = [start]
            while stack:
                u = stack.pop()
                for v, w in tree_adj[u].items():
                    if w >= k and not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        stack.append(v)
            components.append(comp)
        return components

    def connectivity_histogram(self) -> Dict[int, int]:
        """How many tree edges carry each steiner-connectivity value.

        The histogram summarizes the graph's connectivity structure:
        entry ``{k: c}`` means ``c`` merge events happen when lowering
        the threshold from ``k + 1`` to ``k``.
        """
        histogram: Dict[int, int] = {}
        for _, _, w in self.tree_edges():
            histogram[w] = histogram.get(w, 0) + 1
        return histogram

    def max_connectivity(self) -> int:
        """The largest k for which some k-edge connected component exists."""
        return max((w for _, _, w in self.tree_edges()), default=0)

    # ------------------------------------------------------------------
    # Helpers used by index maintenance
    # ------------------------------------------------------------------
    def tree_path(self, u: int, v: int) -> Optional[List[Tuple[int, int, int]]]:
        """The tree path from ``u`` to ``v`` as ``(a, b, weight)`` edges.

        Returns None if ``u`` and ``v`` are in different tree components.
        Works directly on ``tree_adj`` so it stays correct mid-maintenance
        when the rooted arrays are stale.
        """
        if u == v:
            return []
        prev: Dict[int, int] = {u: u}
        queue = deque((u,))
        while queue:
            a = queue.popleft()
            for b in self.tree_adj[a]:
                if b not in prev:
                    prev[b] = a
                    if b == v:
                        queue.clear()
                        break
                    queue.append(b)
        if v not in prev:
            return None
        path = []
        cur = v
        while cur != u:
            p = prev[cur]
            path.append((p, cur, self.tree_adj[p][cur]))
            cur = p
        path.reverse()
        return path


# ----------------------------------------------------------------------
# Construction (Section 5.1.2)
# ----------------------------------------------------------------------
def build_mst(conn_graph: ConnectivityGraph) -> MSTIndex:
    """Build the maximum spanning forest of the connectivity graph.

    Kruskal's algorithm over edges bin-sorted by weight in O(|E|) —
    weights are integers in ``1 .. |V|`` (Section 5.1.2).  Non-tree edges
    land in the ``NT`` bucket structure used by maintenance.
    """
    n = conn_graph.num_vertices
    index = MSTIndex(n)
    max_w = conn_graph.max_weight()
    buckets: List[List[Edge]] = [[] for _ in range(max_w + 1)]
    for u, v, w in conn_graph.edges_with_weights():
        buckets[w].append((u, v))
    ds = DisjointSet(n)
    for w in range(max_w, 0, -1):
        for u, v in buckets[w]:
            if ds.union(u, v):
                index.add_tree_edge(u, v, w)
            else:
                index.non_tree.add(u, v, w)
    invariant(
        "lemma-4.4-mst-preserves-sc",
        lambda: is_maximum_spanning_forest(index, conn_graph),
        "built tree is not a maximum spanning forest of the connectivity graph",
    )
    return index


def _normalize_query(q: Sequence[int], n: int) -> List[int]:
    """Validate and de-duplicate a query vertex set (order-preserving)."""
    q = list(dict.fromkeys(q))
    if not q:
        raise EmptyQueryError("query vertex set is empty")
    for v in q:
        if not (0 <= v < n):
            raise VertexNotFoundError(v)
    return q
