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
- :func:`local_input_is_weight_k` — Lemmas 5.2–5.4: index maintenance
  feeds its local KECC run exactly the weight-k edges of ``g_{u,v}``,
  checked against the full induced-edge enumeration.
- :func:`is_partition` — the k-ECC engines return a partition of the
  vertex set (Lemma 4.6's precondition for the pruned BFS).
- :func:`mst_star_consistent` — Lemma A.1/A.2: every MST* gap is the
  MST path minimum between its two leaves, every derived table (sparse
  table, maximal runs, Cartesian parents, jump rows) matches the gap
  row, and the tree-edge steiner-connectivities read back exactly.
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
# Lemmas 5.2-5.4 — the local maintenance input is g_{u,v}'s weight-k edges
# ----------------------------------------------------------------------
def local_input_is_weight_k(
    conn_graph: "ConnectivityGraph",
    vertices: Sequence[int],
    k: int,
    local: Sequence[Tuple[int, int, int]],
) -> bool:
    """Check a local KECC input against the full enumeration of ``g_{u,v}``.

    ``vertices`` is g and ``local`` lists ``(a, b, sc)`` with ``a < b``,
    read after the update edge was removed (delete) or added at weight k
    (insert).  Every listed edge must carry its current sc, and the
    listed weight-k edges must be exactly — no more, no fewer, no
    repeats — the weight-k edges of ``induced_edges(vertices)``.  That
    enumeration is what the write path avoids; it survives here only as
    the reference.
    """
    weights = conn_graph.weights_dict()
    if any(a >= b or weights.get((a, b)) != w for a, b, w in local):
        return False
    claimed = [(a, b) for a, b, w in local if w == k]
    expected = {
        e for e in conn_graph.graph.induced_edges(vertices) if weights[e] == k
    }
    return len(claimed) == len(expected) and set(claimed) == expected


# ----------------------------------------------------------------------
# Lemmas A.1 / A.2 — the MST* gap row and its tables
# ----------------------------------------------------------------------
def mst_star_consistent(star: "MSTStar", mst: "MSTIndex") -> bool:
    """The MST* tables are consistent with each other and with the MST.

    Runs :func:`gap_table_violation` against the MST (every gap is the
    tree-path minimum between its two leaves), then checks that the
    query surface answers ``sc(u, v) == w`` for every tree edge
    ``(u, v, w)`` — adjacent tree vertices have steiner-connectivity
    exactly the edge weight, and together these pairs exercise every
    internal node of MST*.
    """
    if gap_table_violation(star, mst) is not None:
        return False
    for u, v, w in mst.tree_edges():
        if star.steiner_connectivity([u, v]) != w:
            return False
    return True


def gap_table_consistent(star: "MSTStar", mst: Optional["MSTIndex"] = None) -> bool:
    """True when :func:`gap_table_violation` finds nothing."""
    return gap_table_violation(star, mst) is None


def gap_table_violation(
    star: "MSTStar", mst: Optional["MSTIndex"] = None
) -> Optional[str]:
    """The first broken MST* table property, or None when all hold.

    - ``leaf_order`` and ``leaf_position`` are inverse permutations;
    - with ``mst``: each ``gap[i]`` is the minimum weight on the tree
      path between the leaves at positions ``i`` and ``i + 1``, or 0
      when they lie in different trees (:func:`tree_path_minima`);
    - every sparse-table row is the pairwise minimum of the row below;
    - each gap's run is its maximal run of gaps >= itself, recomputed
      with a monotonic stack rather than the table descent;
    - each gap's Cartesian parent is strictly lighter and its run
      strictly contains the child's; zero gaps have none;
    - every jump row composes the row below with itself, and the last
      row reaches past the deepest ancestor;
    - the climb's Python-int copies agree with the arrays.
    """
    n = star.num_leaves
    order = [int(v) for v in star.leaf_order]
    position = [int(p) for p in star.leaf_position]
    if sorted(order) != list(range(n)) or len(position) != n:
        return "leaf_order is not a permutation of the vertices"
    if any(position[v] != i for i, v in enumerate(order)):
        return "leaf_position is not the inverse of leaf_order"
    gap = np.asarray(star.gap)
    m = max(n - 1, 0)
    if gap.shape != (m,):
        return f"gap row has shape {gap.shape}, expected ({m},)"
    if (gap < 0).any():
        return "negative gap"
    if mst is not None:
        pairs = list(zip(order, order[1:]))
        expected = tree_path_minima(mst, pairs)
        for i, (got, want) in enumerate(zip(gap.tolist(), expected)):
            if got != want:
                return (
                    f"gap[{i}] = {got}, but the MST path between "
                    f"{order[i]} and {order[i + 1]} has minimum {want}"
                )
    rmq = np.asarray(star._rmq)
    if rmq.shape[1:] != (m,) or (rmq[0] != gap).any():
        return "sparse table row 0 is not the gap row"
    for j in range(1, rmq.shape[0]):
        width = m - (1 << j) + 1
        half = 1 << (j - 1)
        want_row = np.minimum(rmq[j - 1, :width], rmq[j - 1, half : half + width])
        if (rmq[j, :width] != want_row).any():
            return f"sparse table row {j} is not a window minimum"
    runs = np.asarray(star._runs)
    gaps = gap.tolist()
    if runs.shape != (2, m):
        return f"run table has shape {runs.shape}, expected (2, {m})"
    starts, ends = _maximal_runs(gaps)
    if runs[0].tolist() != starts or runs[1].tolist() != ends:
        return "a run is not the maximal run of gaps >= its gap"
    jump = np.asarray(star._jump_table)
    if jump.ndim != 2 or jump.shape[1] != m:
        return "jump table does not span the gap row"
    parent = jump[0].tolist()
    for i, p in enumerate(parent):
        left, right = starts[i] - 1, ends[i] - 1
        heaviest = max(
            gaps[left] if left >= 0 else 0, gaps[right] if right < m else 0
        )
        if gaps[i] == 0 or heaviest == 0:
            if p != -1:
                return f"gap {i} spans a whole component but has a parent"
            continue
        if (p != left and p != right) or gaps[p] != heaviest:
            return f"the Cartesian parent of gap {i} is not its heavier boundary"
        if not gaps[p] < gaps[i]:
            return f"Cartesian parent {p} of gap {i} is not strictly lighter"
        if not (
            starts[p] <= starts[i]
            and ends[i] <= ends[p]
            and ends[p] - starts[p] > ends[i] - starts[i]
        ):
            return f"the run of gap {p} does not strictly contain gap {i}'s"
    for j in range(1, jump.shape[0]):
        prev = jump[j - 1]
        want_row = np.where(prev >= 0, prev[np.maximum(prev, 0)], -1)
        if (jump[j] != want_row).any():
            return f"jump row {j} is not row {j - 1} composed with itself"
    last = jump[-1]
    if (np.where(last >= 0, last[np.maximum(last, 0)], -1) >= 0).any():
        return "the jump table is too shallow for the hierarchy"
    if (
        list(star._levels) != gaps
        or list(star._run_start) != starts
        or list(star._run_end) != ends
        or [list(row) for row in star._jump] != jump[::-1].tolist()
    ):
        return "the climb's int tables disagree with the arrays"
    return None


def _maximal_runs(gaps: List[int]) -> Tuple[List[int], List[int]]:
    """Leaf interval of each gap's maximal run of gaps >= itself.

    Previous/next strictly smaller gap by one monotonic-stack pass per
    side; the run's leaves run from just after the previous smaller
    gap to just after the gap before the next smaller one.
    """
    m = len(gaps)
    starts = [0] * m
    ends = [m + 1] * m
    stack: List[int] = []
    for i, g in enumerate(gaps):
        while stack and gaps[stack[-1]] >= g:
            stack.pop()
        starts[i] = stack[-1] + 1 if stack else 0
        stack.append(i)
    stack = []
    for i in range(m - 1, -1, -1):
        g = gaps[i]
        while stack and gaps[stack[-1]] >= g:
            stack.pop()
        ends[i] = stack[-1] + 1 if stack else m + 1
        stack.append(i)
    return starts, ends


def tree_path_minima(
    mst: "MSTIndex", pairs: Sequence[Tuple[int, int]]
) -> List[int]:
    """Minimum tree-path weight per vertex pair; 0 across trees.

    Offline: Kruskal over the tree edges in non-increasing weight
    order, with each pair pending at both endpoints' sets.  A union
    scans the smaller pending list; a pair whose other endpoint is
    already in the other set joins at this edge's weight, which is its
    path minimum.  O((|V| + |pairs|) log |V|), independent of path
    lengths.
    """
    n = mst.n
    answer = [0] * len(pairs)
    pending: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        pending[u].append((i, v))
        pending[v].append((i, u))
    ds = DisjointSet(n)
    for u, v, w in sorted(mst.tree_edges(), key=lambda e: -e[2]):
        ru, rv = ds.find(u), ds.find(v)
        if ru == rv:
            continue
        if len(pending[ru]) < len(pending[rv]):
            ru, rv = rv, ru
        kept = pending[ru]
        for i, other in pending[rv]:
            if answer[i]:
                continue
            if ds.find(other) == ru:
                answer[i] = w
            else:
                kept.append((i, other))
        pending[rv] = []
        ds.union(ru, rv)
        root = ds.find(ru)
        if root != ru:
            pending[root], pending[ru] = kept, []
    return answer


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
