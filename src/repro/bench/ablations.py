"""Ablation variants of the paper's design choices.

Each function here disables exactly one optimization the paper argues
for, so the benchmark harness can quantify that choice in isolation:

- :func:`smcc_unsorted_adjacency` — Algorithm 4's BFS *without* the
  weight-sorted adjacency lists: every visited vertex scans its whole
  adjacency, losing output-linearity (Section 4.4's implementation
  note).
- :func:`smcc_l_heap` — Algorithm 5 with a binary heap instead of the
  bucket queue: ``O(|result| log |result|)`` instead of ``O(|result|)``
  (Section 4.5's implementation note).
- :func:`sc_full_bfs` — steiner-connectivity via a full BFS of the MST
  (the "naive implementation ... would require O(|V|) time" that
  Section 4.3 improves on).
- :class:`NoContractionMaintainer` — Algorithms 7/8 *without* the
  (k+1)-ecc contraction step, recomputing k-eccs over the whole
  ``g_{u,v}`` (the optimization of Section 5.2's "we can do better").

All variants return exactly the same answers as the optimized
implementations — tests assert that — so benchmark deltas measure the
design choice and nothing else.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    DisconnectedQueryError,
    InfeasibleSizeConstraintError,
    InternalInvariantError,
)
from repro.index.maintenance import IndexMaintainer, LocalInput
from repro.index.mst import MSTIndex, _normalize_query


# ----------------------------------------------------------------------
# SMCC without sorted adjacency
# ----------------------------------------------------------------------
def smcc_unsorted_adjacency(mst: MSTIndex, q: Sequence[int]) -> Tuple[List[int], int]:
    """SMCC via BFS over *unsorted* tree adjacency (full scans).

    Same output as :meth:`MSTIndex.smcc`; cost grows with the degree
    sum of the visited region rather than the output size.
    """
    q = _normalize_query(q, mst.n)
    sc = mst.steiner_connectivity(q)
    tree_adj = mst.tree_adj
    source = q[0]
    seen = {source}
    order = [source]
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        for v, w in tree_adj[u].items():  # no early break: scans everything
            if w >= sc and v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    return order, sc


# ----------------------------------------------------------------------
# SMCC_L with a binary heap
# ----------------------------------------------------------------------
def smcc_l_heap(
    mst: MSTIndex, q: Sequence[int], size_bound: int
) -> Tuple[List[int], int]:
    """Algorithm 5 with ``heapq`` instead of the bucket max-queue.

    Semantically identical to :meth:`MSTIndex.smcc_l`; complexity is
    ``O(|result| log |result|)``.
    """
    q = _normalize_query(q, mst.n)
    mst._ensure_derived()
    component = mst.component
    if any(component[v] != component[q[0]] for v in q[1:]):
        raise DisconnectedQueryError("query spans multiple components")
    sorted_adj = mst._sorted_adj
    if sorted_adj is None:
        raise InternalInvariantError("_ensure_derived left sorted adjacency unset")
    v0 = q[0]
    needed = set(q)
    seen = {v0}
    order = [v0]
    remaining = len(needed) - 1 if v0 in needed else len(needed)
    heap: List[Tuple[int, int, int]] = []  # (-weight, vertex, cursor)
    if sorted_adj[v0]:
        heapq.heappush(heap, (-sorted_adj[v0][0][0], v0, 0))
    k = 0
    min_popped: Optional[int] = None
    while heap and -heap[0][0] >= max(k, 1):
        neg_w, u, cursor = heapq.heappop(heap)
        weight = -neg_w
        if min_popped is None or weight < min_popped:
            min_popped = weight
        if cursor + 1 < len(sorted_adj[u]):
            heapq.heappush(heap, (-sorted_adj[u][cursor + 1][0], u, cursor + 1))
        v = sorted_adj[u][cursor][1]
        if v in seen:
            continue
        seen.add(v)
        order.append(v)
        if v in needed:
            remaining -= 1
        if sorted_adj[v]:
            heapq.heappush(heap, (-sorted_adj[v][0][0], v, 0))
        if k == 0 and remaining == 0 and len(order) >= size_bound:
            if min_popped is None:  # unreachable: the loop popped at least once
                raise InternalInvariantError("size bound newly met before any pop")
            k = min_popped
    if k == 0:
        if remaining == 0 and len(order) >= size_bound:
            k = 0 if min_popped is None else min_popped
        else:
            raise InfeasibleSizeConstraintError(size_bound, len(order))
    return order, k


# ----------------------------------------------------------------------
# Steiner-connectivity via full BFS
# ----------------------------------------------------------------------
def sc_full_bfs(mst: MSTIndex, q: Sequence[int]) -> int:
    """sc(q) by a *full* BFS of the MST component (the naive O(|V|) way).

    Builds the whole rooted tree and reads T_q off it, instead of the
    incremental LCA walk of Algorithm 10.
    """
    q = _normalize_query(q, mst.n)
    if len(q) == 1:
        return mst.steiner_connectivity(q)
    tree_adj = mst.tree_adj
    root = q[0]
    parent: Dict[int, int] = {root: -1}
    parent_weight: Dict[int, int] = {root: 0}
    queue = deque((root,))
    while queue:
        u = queue.popleft()
        for v, w in tree_adj[u].items():
            if v not in parent:
                parent[v] = u
                parent_weight[v] = w
                queue.append(v)
    for v in q[1:]:
        if v not in parent:
            raise DisconnectedQueryError("query spans multiple components")
    # T_q = union of root paths of all query vertices.
    in_tq: Set[int] = {root}
    best: Optional[int] = None
    for v in q[1:]:
        x = v
        while x not in in_tq:
            w = parent_weight[x]
            if best is None or w < best:
                best = w
            in_tq.add(x)
            x = parent[x]
    if best is None:  # unreachable: |q| >= 2 in one component
        raise InternalInvariantError("full-BFS T_q walk used no edge")
    return best


# ----------------------------------------------------------------------
# Maintenance without (k+1)-ecc contraction
# ----------------------------------------------------------------------
class NoContractionMaintainer(IndexMaintainer):
    """Index maintenance with the contraction optimization disabled.

    Recomputes k-eccs over every vertex of ``g_{u,v}`` individually
    (each vertex becomes its own 'super-vertex') and over every edge of
    g, which is correct but processes the (k+1)-edge connected
    interiors that contraction would have collapsed.
    """

    def _local_input(self, source: int, k: int) -> LocalInput:
        super_of, _, _ = super()._local_input(source, k)
        members = list(super_of)
        conn = self.conn
        edges = [
            (a, b, conn.weight(a, b)) for a, b in conn.graph.induced_edges(members)
        ]
        return {v: i for i, v in enumerate(members)}, len(members), edges
