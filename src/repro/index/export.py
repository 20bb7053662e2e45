"""Export index structures for inspection and visualization.

Three serializations useful when debugging or presenting results:

- :func:`mst_to_dot` — the MST with edge weights, Graphviz DOT;
- :func:`mst_star_to_dot` — the MST* dendrogram, Graphviz DOT;
- :func:`hierarchy_to_json` — the nested k-ecc hierarchy (which is what
  MST* encodes) as plain dicts: each node carries its connectivity and
  member vertices, children are strictly more connected sub-components.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.index.mst import MSTIndex
from repro.index.mst_star import MSTStar
from repro.util.disjoint_set import DisjointSet


def mst_to_dot(mst: MSTIndex, name: str = "mst") -> str:
    """Graphviz DOT for the maximum spanning forest (weights as labels)."""
    lines = [f"graph {name} {{"]
    for u, v, w in sorted(mst.tree_edges()):
        lines.append(f'  {u} -- {v} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines)


def mst_star_merges(star: MSTStar) -> List[Tuple[int, int, int, int]]:
    """The MST* internal nodes, rebuilt from the gap row.

    Merging the leaf order's clusters across its positive gaps in
    non-increasing gap order replays Algorithm 12: each merge is one
    internal node ``(left, right, weight, size)``, where cluster ids
    ``0 .. n-1`` are the vertices and merge ``r`` creates id ``n + r``.
    Children therefore always precede their parents.
    """
    n = star.num_leaves
    gaps = [int(g) for g in star.gap]
    cluster = [int(v) for v in star.leaf_order]
    size = [1] * n
    ds = DisjointSet(n)
    merges: List[Tuple[int, int, int, int]] = []
    for i in sorted(
        (i for i, g in enumerate(gaps) if g > 0), key=lambda i: -gaps[i]
    ):
        a, b = ds.find(i), ds.find(i + 1)
        merges.append((cluster[a], cluster[b], gaps[i], size[a] + size[b]))
        ds.union(a, b)
        root = ds.find(a)
        cluster[root] = n + len(merges) - 1
        size[root] = merges[-1][3]
    return merges


def mst_star_to_dot(star: MSTStar, name: str = "mst_star") -> str:
    """Graphviz DOT for the MST* dendrogram.

    Leaves are drawn as boxes labeled with the vertex id; internal
    nodes as circles labeled with their weight (the sc of the two
    subtrees they join).
    """
    n = star.num_leaves
    lines = [f"graph {name} {{"]
    for v in range(n):
        lines.append(f'  n{v} [shape=box, label="{v}"];')
    merges = mst_star_merges(star)
    for r, (_, _, weight, _) in enumerate(merges):
        lines.append(f'  n{n + r} [shape=circle, label="{weight}"];')
    for r, (left, right, _, _) in enumerate(merges):
        lines.append(f"  n{n + r} -- n{left};")
        lines.append(f"  n{n + r} -- n{right};")
    lines.append("}")
    return "\n".join(lines)


def hierarchy_dict(mst: MSTIndex, min_size: int = 2) -> List[Dict]:
    """The nested k-ecc hierarchy as plain dictionaries.

    Each node is ``{"connectivity": k, "vertices": [...], "children":
    [...]}`` where the node's vertex set is a k-edge connected component
    and every child is a strictly-more-connected component nested inside
    it.  Roots are the connected components.  Components smaller than
    ``min_size`` are omitted (singletons carry no structure).
    """

    def build(vertex_set: List[int]) -> Optional[Dict]:
        if len(vertex_set) < min_size:
            return None
        members = set(vertex_set)
        internal = [
            w
            for u in vertex_set
            for v, w in mst.tree_adj[u].items()
            if u < v and v in members
        ]
        if not internal:
            return None
        k = min(internal)  # the component's connectivity (Lemma 4.5)
        node: Dict = {
            "connectivity": k,
            "vertices": sorted(vertex_set),
            "children": [],
        }
        if any(w > k for w in internal):
            for child in _split(mst, vertex_set, k + 1):
                child_node = build(child)
                if child_node is not None:
                    node["children"].append(child_node)
        return node

    roots = []
    for comp in _split(mst, list(range(mst.n)), 1):
        root = build(comp)
        if root is not None:
            roots.append(root)
    return roots


def _split(mst: MSTIndex, vertex_set: Sequence[int], k: int) -> List[List[int]]:
    """Components of ``vertex_set`` connected by tree edges of weight >= k."""
    member = set(vertex_set)
    seen = set()
    out: List[List[int]] = []
    for start in vertex_set:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for v, w in mst.tree_adj[u].items():
                if w >= k and v in member and v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        out.append(comp)
    return out


def hierarchy_to_json(mst: MSTIndex, min_size: int = 2, indent: int = 2) -> str:
    """JSON form of :func:`hierarchy_dict`."""
    return json.dumps(hierarchy_dict(mst, min_size), indent=indent)


def to_scipy_linkage(star: MSTStar):
    """The MST* dendrogram as a SciPy hierarchical-clustering linkage.

    MST* *is* a single-linkage-style dendrogram over steiner-
    connectivity: each internal node (:func:`mst_star_merges`) merges
    two clusters at "distance" ``max_sc + 1 - sc``, which is
    non-decreasing toward the root (Lemma A.1), exactly as
    ``scipy.cluster.hierarchy`` requires.  The
    returned ``(n-1) x 4`` float array plugs directly into
    ``scipy.cluster.hierarchy.dendrogram`` / ``fcluster``; cutting the
    dendrogram at distance ``max_sc + 1 - k`` yields the k-edge
    connected components.

    Requires a connected base graph (a forest has no single dendrogram);
    raises :class:`ValueError` otherwise.
    """
    import numpy as np

    n = star.num_leaves
    merges = mst_star_merges(star)
    if len(merges) != n - 1:
        raise ValueError(
            "scipy linkage needs a connected graph (spanning tree, not forest)"
        )
    max_w = max((weight for _, _, weight, _ in merges), default=0)
    linkage = np.zeros((len(merges), 4), dtype=np.float64)
    for row, (left, right, weight, size) in enumerate(merges):
        linkage[row] = (left, right, max_w + 1 - weight, size)
    return linkage
