"""Incremental index maintenance under edge insertions and deletions.

Section 5.2 of the paper.  The key locality result (Observations I/II,
via Lemmas 5.2–5.4): when edge ``(u, v)`` with ``k = sc(u, v)`` changes,

- only edges inside ``g_{u,v}`` — the SMCC of ``{u, v}``, i.e. the
  k-ecc holding both — can change steiner-connectivity, and only
  between ``k`` and ``k ∓ 1``;
- every (k+1)-edge connected component inside ``g_{u,v}`` can be
  *contracted* to a super-vertex before recomputation, because its
  internal edges (sc >= k+1) are unaffected.

So the local KECC input is exactly the weight-k edges of ``g_{u,v}``:
an edge with sc >= k+1 inside g lies inside one super-vertex, and an
edge with sc = k and one endpoint in g has both endpoints there (the
k-eccs partition the vertices).  Neither g's other edges nor the rest
of the graph is ever enumerated:

- one walk from ``u`` over MST edges of weight >= k visits g's vertices
  (Lemma 4.6) and labels its (k+1)-eccs on the way — a step over a
  weight-k edge opens a new super-vertex, a heavier step keeps the
  parent's; g's tree part is a tree, so the labels are exactly the
  classes joined by tree edges of weight >= k+1.  The weight-k tree
  edges the walk crosses are one half of the input;
- the other half is the weight-k bucket of the non-tree edge structure
  ``NT``, filtered to g.

The spanning forest is then repaired inside g alone.  Only g's weight-k
edges change weight (or, for the updated edge, existence), so one
Kruskal pass over them on the super-vertices re-chooses g's
inter-super tree edges; every other tree edge stays.  That one step
covers the four cases of Section 5.2.3 (delete edge, batch decrement,
insert edge, batch increment) and rebuilds no whole-tree structure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.contracts import invariant
from repro.analysis.lemmas import is_maximum_spanning_forest, local_input_is_weight_k
from repro.errors import GraphError
from repro.graph.graph import edge_key
from repro.index.connectivity_graph import ConnectivityGraph
from repro.index.mst import MSTIndex
from repro.kecc import get_engine
from repro.obs import runtime as _obs
from repro.obs.spans import span
from repro.util.disjoint_set import DisjointSet

Edge = Tuple[int, int]
#: one edge of the local KECC input: ``(a, b, sc)`` with ``a < b``
WeightedEdge = Tuple[int, int, int]
#: the local KECC input: ``(vertex -> super id, number of supers, edges)``
LocalInput = Tuple[Dict[int, int], int, List[WeightedEdge]]


class IndexMaintainer:
    """Applies edge updates to ``(G, G_c, MST)`` in lockstep.

    Parameters
    ----------
    conn_graph:
        The connectivity graph (which wraps and mutates the base graph).
    mst:
        The MST index built from ``conn_graph``.
    engine:
        KECC engine name used for local recomputation (default exact).
    """

    def __init__(
        self,
        conn_graph: ConnectivityGraph,
        mst: MSTIndex,
        engine: str = "exact",
        **engine_kwargs,
    ) -> None:
        self.conn = conn_graph
        self.mst = mst
        self._kecc = get_engine(engine)
        self._engine_kwargs = engine_kwargs

    # ------------------------------------------------------------------
    # Edge deletion (Algorithm 7)
    # ------------------------------------------------------------------
    def delete_edge(self, u: int, v: int) -> List[Tuple[int, int, int]]:
        """Delete edge ``(u, v)``; return the sc changes applied.

        The return value lists ``(a, b, new_sc)`` for every *other* edge
        whose steiner-connectivity changed (each drops by exactly 1,
        Observation I).
        """
        conn, mst = self.conn, self.mst
        if not conn.graph.has_edge(u, v):
            raise GraphError(f"cannot delete missing edge ({u}, {v})")
        with span("index.update.delete_edge") as sp:
            k = conn.weight(u, v)
            # Read g's input while the forest still matches it: the
            # repair below may move a weight-k NT edge into the tree.
            super_of, num_supers, local = self._local_input(u, k)
            deleted = edge_key(u, v)
            local = [e for e in local if (e[0], e[1]) != deleted]
            conn.remove_edge(u, v)
            self._check_local_input(super_of, k, local)
            cut = mst.has_tree_edge(u, v)
            if cut:
                mst.remove_tree_edge(u, v)
            else:
                mst.non_tree.remove(u, v)

            # Algorithm 7 lines 3-4: the weight-k edges of g^- that no
            # longer lie inside one k-ecc drop to k - 1.
            ends, owner = self._super_groups(super_of, num_supers, local, k)
            demoted = [
                (a, b)
                for (a, b, _), (sa, sb) in zip(local, ends)
                if owner[sa] != owner[sb]
            ]
            for a, b in demoted:
                conn.set_weight(a, b, k - 1)
            if cut or demoted:
                self._reselect_tree(
                    super_of, num_supers, local, dict.fromkeys(demoted, k - 1)
                )
            sp.set("affected_component", len(super_of))
            sp.set("sc_changes", len(demoted))
        self._check_forest()
        stats = _obs.get_active_stats()
        if stats is not None:
            stats.sc_changes += len(demoted)
        return [(a, b, k - 1) for a, b in demoted]

    # ------------------------------------------------------------------
    # Edge insertion (Algorithm 8)
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> List[Tuple[int, int, int]]:
        """Insert edge ``(u, v)``; return the sc changes applied.

        The return value lists ``(a, b, new_sc)`` for every edge whose
        steiner-connectivity changed, *including* the new edge itself.
        """
        conn, mst = self.conn, self.mst
        graph = conn.graph
        while graph.num_vertices <= max(u, v):
            conn.add_vertex()
            mst.add_vertex()
        if graph.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) already exists")
        if u == v:
            raise GraphError("self-loops are not allowed")

        path = mst.tree_path(u, v)
        if path is None:
            # Bridging two components: the new edge is a bridge, sc = 1;
            # no other edge can change (Lemma 5.4 with k_uv undefined/0).
            conn.add_edge(u, v, 1)
            mst.add_tree_edge(u, v, 1)
            self._check_forest()
            stats = _obs.get_active_stats()
            if stats is not None:
                stats.sc_changes += 1
            return [(u, v, 1)]

        with span("index.update.insert_edge") as sp:
            # sc(u, v) before the insert is its tree path's minimum
            # (Lemma 4.4), so u and v sit in different (k+1)-eccs of g.
            k = min(w for _, _, w in path)
            super_of, num_supers, local = self._local_input(u, k)
            local.append((*edge_key(u, v), k))  # provisional weight
            conn.add_edge(u, v, k)
            mst.non_tree.add(u, v, k)
            self._check_local_input(super_of, k, local)

            # Algorithm 8 lines 3-5: at most one new (k+1)-ecc forms, the
            # one holding u and v, and its weight-k edges rise to k + 1.
            ends, owner = self._super_groups(super_of, num_supers, local, k + 1)
            risen = [
                (a, b)
                for (a, b, w), (sa, sb) in zip(local, ends)
                if w == k and owner[sa] == owner[sb]
            ]
            for a, b in risen:
                conn.set_weight(a, b, k + 1)
            if risen:
                self._reselect_tree(
                    super_of, num_supers, local, dict.fromkeys(risen, k + 1)
                )
            # The new edge is local's last entry; a new (k+1)-ecc holds
            # both its ends, so whenever anything rose it rose last.
            changes = [(u, v, k + 1 if risen else k)]
            changes.extend((a, b, k + 1) for a, b in risen[:-1])
            sp.set("affected_component", len(super_of))
            sp.set("sc_changes", len(changes))
        self._check_forest()
        stats = _obs.get_active_stats()
        if stats is not None:
            stats.sc_changes += len(changes)
        return changes

    # ------------------------------------------------------------------
    # The local input and its KECC run, shared by both directions
    # ------------------------------------------------------------------
    def _local_input(self, source: int, k: int) -> LocalInput:
        """``g_{u,v}``'s super-vertices and weight-k edges, from one walk.

        ``g`` is the component of ``source`` over tree edges of weight
        >= k (Lemma 4.6).  Returns ``(super_of, num_supers, edges)``:
        ``super_of`` maps each vertex of g to its (k+1)-ecc's super id,
        and ``edges`` lists g's weight-k edges as ``(a, b, k)`` with
        ``a < b`` — the tree edges the walk crossed, then the ``NT[k]``
        edges with an endpoint in g.  Reads the current state only.
        """
        tree_adj = self.mst.tree_adj
        super_of = {source: 0}
        num_supers = 1
        edges: List[WeightedEdge] = []
        stack = [source]
        while stack:
            a = stack.pop()
            sa = super_of[a]
            for b, w in tree_adj[a].items():
                if w < k or b in super_of:
                    continue
                if w == k:
                    super_of[b] = num_supers
                    num_supers += 1
                    edges.append((a, b, k) if a < b else (b, a, k))
                else:
                    super_of[b] = sa
                stack.append(b)
        for a, b in self.mst.non_tree.edges_with_weight(k):
            if a in super_of:
                edges.append((a, b, k))
        return super_of, num_supers, edges

    def _super_groups(
        self,
        super_of: Dict[int, int],
        num_supers: int,
        local: List[WeightedEdge],
        k: int,
    ) -> Tuple[List[Edge], List[int]]:
        """The k-eccs of the contracted local graph.

        Returns ``(ends, owner)``: each local edge's super-vertex ends,
        in ``local``'s order, and each super-vertex's k-ecc id.
        """
        ends = [(super_of[a], super_of[b]) for a, b, _ in local]
        owner = [0] * num_supers
        groups = self._kecc(num_supers, ends, k, **self._engine_kwargs)
        for gid, group in enumerate(groups):
            for s in group:
                owner[s] = gid
        return ends, owner

    # ------------------------------------------------------------------
    # Forest repair: the four cases of Section 5.2.3 in one step
    # ------------------------------------------------------------------
    def _reselect_tree(
        self,
        super_of: Dict[int, int],
        num_supers: int,
        local: List[WeightedEdge],
        new_weight: Dict[Edge, int],
    ) -> None:
        """Re-choose g's inter-super tree edges by Kruskal over ``local``.

        ``local`` holds every edge of g that changed (``new_weight``)
        or could take the deleted edge's place, and each (k+1)-ecc keeps
        its internal tree.  A maximum spanning forest of the contracted
        graph under the new weights — heaviest first, current tree edges
        first among equals, so an unchanged choice stays — plus the
        untouched rest of the forest is a maximum spanning forest again.
        A non-tree edge not in ``local`` either lies inside one
        super-vertex, whose internal tree is unchanged, or has an end
        outside g and so sc <= k - 1; its tree path still crosses g, if
        at all, over weights no lighter than itself.  A replacement for
        a deleted tree edge comes from ``NT[k]`` (or a demoted edge),
        never from a heavier bucket: by the cycle property no heavier
        non-tree edge crosses its cut.
        """
        mst = self.mst
        tree_adj, non_tree = mst.tree_adj, mst.non_tree
        ranked: Dict[Tuple[int, bool], List[WeightedEdge]] = {}
        for a, b, w in local:
            rank = (new_weight.get((a, b), w), b in tree_adj[a])
            ranked.setdefault(rank, []).append((a, b, w))
        forest = DisjointSet(num_supers)
        for new, in_tree in sorted(ranked, reverse=True):
            for a, b, w in ranked[new, in_tree]:
                if forest.union(super_of[a], super_of[b]):
                    if not in_tree:
                        non_tree.remove(a, b)
                        mst.add_tree_edge(a, b, new)
                    elif new != w:
                        mst.set_tree_weight(a, b, new)
                elif in_tree:
                    mst.remove_tree_edge(a, b)
                    non_tree.add(a, b, new)
                elif new != w:
                    non_tree.relocate(a, b, new)

    # ------------------------------------------------------------------
    # Contracts (REPRO_CHECK_INVARIANTS)
    # ------------------------------------------------------------------
    def _check_local_input(
        self, super_of: Dict[int, int], k: int, local: List[WeightedEdge]
    ) -> None:
        invariant(
            "lemma-5.2-local-input",
            lambda: local_input_is_weight_k(self.conn, list(super_of), k, local),
            "local KECC input is not exactly g_{u,v}'s weight-k edges",
        )

    def _check_forest(self) -> None:
        invariant(
            "lemma-4.4-mst-maintained",
            lambda: is_maximum_spanning_forest(self.mst, self.conn),
            "maintained tree is not a maximum spanning forest",
        )
