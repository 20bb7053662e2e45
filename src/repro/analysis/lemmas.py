"""Concrete checkers for the paper's structural lemmas.

Each function returns ``True`` when the invariant holds; they are wired
into the algorithms through :mod:`repro.analysis.contracts` and only
run when ``REPRO_CHECK_INVARIANTS`` is enabled, so they may afford
full-structure recomputation:

- :func:`is_maximum_spanning_forest` — Lemma 4.4's substrate: the MST
  index really is a maximum spanning forest of the connectivity graph,
  hence preserves every pairwise steiner-connectivity.
- :func:`tq_min_weight_matches` — Lemma 4.5: the incremental LCA walk
  (Algorithm 10) returns the minimum weight on the steiner tree
  ``T_q``, recomputed here by an independent full-BFS method.
- :func:`is_partition` — the k-ECC engines return a partition of the
  vertex set (Lemma 4.6's precondition for the pruned BFS).
- :func:`mst_star_consistent` — Lemma A.1/A.2: MST* is a full binary
  tree with non-increasing root-path weights whose LCA weights equal
  the tree-edge steiner-connectivities, and whose gap table holds the
  LCA weight of every pair of adjacent leaves.
- :func:`dinic_flow_conserved` — max-flow ground truth: the residual
  network encodes a feasible flow of the claimed value.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.disjoint_set import DisjointSet

if TYPE_CHECKING:
    from repro.flow.dinic import Dinic
    from repro.index.connectivity_graph import ConnectivityGraph
    from repro.index.mst import MSTIndex
    from repro.index.mst_star import MSTStar


# ----------------------------------------------------------------------
# Lemma 4.4 — maximum spanning forest certificate
# ----------------------------------------------------------------------
def is_maximum_spanning_forest(mst: "MSTIndex", conn_graph: "ConnectivityGraph") -> bool:
    """Certify ``mst`` is a maximum spanning forest of ``conn_graph``.

    Every maximum spanning forest of a weighted graph has the same
    multiset of edge weights, so it suffices to (1) re-run Kruskal over
    the connectivity graph and compare weight histograms, and (2) check
    the tree edges are acyclic and only join vertices the connectivity
    graph connects.  O(|E| α(|V|)) — full strength, no sampling.
    """
    n = conn_graph.num_vertices
    if mst.n != n:
        return False
    # (2) acyclicity of the stored tree edges.
    tree_ds = DisjointSet(n)
    tree_hist: Dict[int, int] = {}
    for u, v, w in mst.tree_edges():
        if not tree_ds.union(u, v):
            return False
        tree_hist[w] = tree_hist.get(w, 0) + 1
    # (1) Kruskal reference run, heaviest first.
    max_w = conn_graph.max_weight()
    buckets: List[List[Tuple[int, int]]] = [[] for _ in range(max_w + 1)]
    for u, v, w in conn_graph.edges_with_weights():
        buckets[w].append((u, v))
    ref_ds = DisjointSet(n)
    ref_hist: Dict[int, int] = {}
    for w in range(max_w, 0, -1):
        for u, v in buckets[w]:
            if ref_ds.union(u, v):
                ref_hist[w] = ref_hist.get(w, 0) + 1
    if tree_hist != ref_hist:
        return False
    # Same component structure as the connectivity graph.
    for u, v, _ in conn_graph.edges_with_weights():
        if not tree_ds.connected(u, v):
            return False
    return True


# ----------------------------------------------------------------------
# Lemma 4.5 — T_q minimum weight equals sc(q)
# ----------------------------------------------------------------------
def tq_min_weight_matches(mst: "MSTIndex", q: Sequence[int], claimed: int) -> bool:
    """Recompute the minimum weight on ``T_q`` by full BFS and compare.

    Independent of the incremental LCA walk: roots the whole tree
    component at ``q[0]``, takes the union of the root paths of the
    query vertices, and returns the minimum edge weight used.
    """
    query = list(dict.fromkeys(q))
    if len(query) <= 1:
        # Singleton queries reduce to the max incident weight.
        v = query[0]
        return bool(mst.tree_adj[v]) and claimed == max(mst.tree_adj[v].values())
    root = query[0]
    parent: Dict[int, int] = {root: -1}
    parent_weight: Dict[int, int] = {root: 0}
    bfs = deque((root,))
    while bfs:
        u = bfs.popleft()
        for v, w in mst.tree_adj[u].items():
            if v not in parent:
                parent[v] = u
                parent_weight[v] = w
                bfs.append(v)
    if any(v not in parent for v in query[1:]):
        return False  # disconnected queries must raise before the contract
    in_tq = {root}
    best: Optional[int] = None
    for v in query[1:]:
        x = v
        while x not in in_tq:
            w = parent_weight[x]
            if best is None or w < best:
                best = w
            in_tq.add(x)
            x = parent[x]
    return best == claimed


# ----------------------------------------------------------------------
# k-ECC partition validity
# ----------------------------------------------------------------------
def is_partition(groups: Sequence[Sequence[int]], num_vertices: int) -> bool:
    """True when ``groups`` covers ``0 .. num_vertices - 1`` exactly once."""
    seen = [False] * num_vertices
    total = 0
    for group in groups:
        for v in group:
            if not (0 <= v < num_vertices) or seen[v]:
                return False
            seen[v] = True
            total += 1
    return total == num_vertices


# ----------------------------------------------------------------------
# Lemmas A.1 / A.2 — MST* structure
# ----------------------------------------------------------------------
def mst_star_consistent(star: "MSTStar", mst: "MSTIndex") -> bool:
    """Structural validity plus LCA-weight agreement with the MST.

    Runs :meth:`MSTStar.validate` (full binary tree, non-increasing
    weights toward the root), checks the gap table against the tree
    (:func:`gap_table_consistent`), and then checks, for every MST tree
    edge ``(u, v, w)``, that the MST* query answers ``sc(u, v) == w`` —
    adjacent tree vertices have steiner-connectivity exactly the edge
    weight, and together these pairs exercise every internal node.
    """
    try:
        star.validate()
    except AssertionError:
        return False
    if not gap_table_consistent(star):
        return False
    for u, v, w in mst.tree_edges():
        if star.steiner_connectivity([u, v]) != w:
            return False
    return True


def gap_table_consistent(star: "MSTStar") -> bool:
    """The gap row and its sparse table agree with the MST* tree.

    ``leaf_order`` and ``leaf_position`` are inverse permutations; each
    ``gap[i]`` is the weight of the LCA of the leaves at positions ``i``
    and ``i + 1`` (0 when they lie in different trees), found by
    climbing parent pointers from the left leaf to the first ancestor
    whose interval holds position ``i + 1`` — O(|V|) in total, since a
    node is climbed through only from the last leaf of its interval;
    and every sparse-table row is the pairwise minimum of the row below.
    """
    n = star.num_leaves
    order = star.leaf_order
    position = star.leaf_position
    if sorted(order) != list(range(n)):
        return False
    if any(position[v] != i for i, v in enumerate(order)):
        return False
    gap = star.gap
    if gap.shape[0] != max(n - 1, 0):
        return False
    parents = star.parents
    start = star._interval_start
    end = star._interval_end
    weights = star.weights
    for i in range(n - 1):
        node = order[i]
        while node >= 0 and not (start[node] <= i + 1 < end[node]):
            node = parents[node]
        if int(gap[i]) != (weights[node] if node >= 0 else 0):
            return False
    rmq = star._rmq
    if (rmq[0] != gap).any():
        return False
    for j in range(1, rmq.shape[0]):
        width = n - 1 - (1 << j) + 1
        half = 1 << (j - 1)
        expected = np.minimum(rmq[j - 1, :width], rmq[j - 1, half : half + width])
        if (rmq[j, :width] != expected).any():
            return False
    return True


# ----------------------------------------------------------------------
# Dinic flow conservation
# ----------------------------------------------------------------------
def dinic_flow_conserved(dinic: "Dinic") -> bool:
    """The residual capacities encode the feasible flows sent so far.

    Requires the solver to have recorded its initial capacities and the
    ``(source, sink, value)`` history of its ``max_flow`` calls (it does
    so automatically when invariant checking is enabled at
    construction — repeat calls on one residual network accumulate, so
    the expected net balance is summed over the history).  Checks
    per-arc capacity bounds, antisymmetric residual bookkeeping, and
    net flow: ``+value`` at each source, ``-value`` at each sink, 0
    elsewhere.
    """
    orig = dinic._orig_cap
    history = dinic._flow_history
    if orig is None or history is None:
        return True  # capacities were not tracked; nothing to certify
    net = [0] * dinic.n
    for arc in range(0, len(dinic._to), 2):
        flow = orig[arc] - dinic._cap[arc]
        back = orig[arc + 1] - dinic._cap[arc + 1]
        if flow + back != 0:
            return False  # residual pair out of sync
        sent = max(flow, back)
        if sent > max(orig[arc], orig[arc + 1]):
            return False  # capacity exceeded
        u, v = dinic._to[arc + 1], dinic._to[arc]
        net[u] += flow
        net[v] -= flow
    expected = [0] * dinic.n
    for source, sink, value in history:
        expected[source] += value
        expected[sink] -= value
    return net == expected
