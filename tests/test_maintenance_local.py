"""Index maintenance touches only g_{u,v} and its weight-k edges.

Differential tests at a few hundred vertices (every step against a
from-scratch connectivity graph), the forest repair's choice of
replacement edge, the structural promise that the write path never
rebuilds a whole-tree structure nor enumerates g's edges, and the
Lemma 5.2 local-input contract.
"""

import random

import pytest

from conftest import random_connected_graph
from repro.analysis import contracts
from repro.analysis.lemmas import is_maximum_spanning_forest
from repro.core.queries import SMCCIndex
from repro.errors import ContractViolationError
from repro.graph.generators import paper_example_graph, real_graph_analog, ssca_graph
from repro.graph.graph import Graph, edge_key
from repro.index.connectivity_graph import conn_graph_sharing
from repro.index.maintenance import IndexMaintainer
from repro.index.mst import MSTIndex, build_mst
from repro.serve.serving import ServingIndex


def fresh(graph):
    conn = conn_graph_sharing(graph)
    mst = build_mst(conn)
    return conn, mst, IndexMaintainer(conn, mst)


def tree_edge_set(mst):
    return {(u, v): w for u, v, w in mst.tree_edges()}


def tree_side(mst, source, cut):
    """Vertices reachable from ``source`` in ``mst`` without crossing ``cut``."""
    side = {source}
    stack = [source]
    while stack:
        a = stack.pop()
        for b in mst.tree_adj[a]:
            if b not in side and edge_key(a, b) != cut:
                side.add(b)
                stack.append(b)
    return side


class TestAtScale:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ssca_graph(300, seed=3),
            lambda: real_graph_analog(400, 1600, seed=3),
        ],
        ids=["ssca-300", "rga-400"],
    )
    def test_every_step_matches_a_rebuild(self, make):
        graph = make()
        conn, mst, maintainer = fresh(graph)
        rng = random.Random(11)
        n = graph.num_vertices
        removed = []
        weight_k_replacements = promoting_inserts = 0
        for step in range(40):
            before = conn.weights_dict()
            if step % 2 == 0:
                # Favour tree edges so some deletions need a replacement.
                edges = graph.edge_list()
                tree = [e for e in edges if mst.has_tree_edge(*e)]
                u, v = rng.choice(tree if tree and rng.random() < 0.6 else edges)
                k = before[edge_key(u, v)]
                tree_before = tree_edge_set(mst)
                changes = maintainer.delete_edge(u, v)
                removed.append((u, v))
                added = set(tree_edge_set(mst)) - set(tree_before)
                if (u, v) in tree_before or (v, u) in tree_before:
                    if any(conn.weight(*e) == k for e in added):
                        weight_k_replacements += 1
            else:
                if removed and rng.random() < 0.7:
                    u, v = removed.pop(rng.randrange(len(removed)))
                else:
                    while True:
                        u, v = rng.randrange(n), rng.randrange(n)
                        if u != v and not graph.has_edge(u, v):
                            break
                changes = maintainer.insert_edge(u, v)
                promoting_inserts += len(changes) > 1
            after = conn.weights_dict()
            assert after == conn_graph_sharing(graph.copy()).weights_dict(), step
            diff = {e: w for e, w in after.items() if before.get(e) != w}
            reported = {edge_key(a, b): w for a, b, w in changes}
            assert len(reported) == len(changes), step
            assert reported == diff, step
        assert weight_k_replacements > 0
        assert promoting_inserts > 0


class TestReplacement:
    @pytest.mark.parametrize("seed", range(8))
    def test_replacement_is_a_heaviest_crossing_edge(self, seed):
        rng = random.Random(seed)
        graph = random_connected_graph(seed + 700, max_n=30)
        conn, mst, maintainer = fresh(graph)
        for _ in range(6):
            tree = list(tree_edge_set(mst))
            u, v = tree[rng.randrange(len(tree))]
            k = conn.weight(u, v)
            side = tree_side(mst, u, (u, v))
            maintainer.delete_edge(u, v)
            crossing = [
                w for (a, b), w in conn.weights_dict().items() if (a in side) != (b in side)
            ]
            bridges = [
                w for (a, b), w in tree_edge_set(mst).items() if (a in side) != (b in side)
            ]
            if not crossing:
                assert not bridges  # the graph itself split
                continue
            # Cut property of a maximum spanning forest, and the cycle
            # property's bound: nothing heavier than k could cross.
            assert max(bridges) == max(crossing) <= k

    def test_nt_weight_k_edge_replaces_a_deleted_tree_edge(self):
        # Three 4-cliques (sc 3 inside) in a ring of weight-2 edges, A-B
        # doubled: deleting A-B's tree edge leaves the ring 2-edge
        # connected, so nothing drops and an NT[2] edge takes its place.
        cliques = [range(0, 4), range(4, 8), range(8, 12)]
        edges = [(a, b) for c in cliques for a in c for b in c if a < b]
        ring = [(0, 4), (1, 5), (6, 8), (2, 9)]
        conn = conn_graph_sharing(Graph.from_edges(edges + ring))
        tree = {(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (8, 9), (8, 10),
                (8, 11), (0, 4), (6, 8)}
        mst = MSTIndex(12)
        for u, v, w in conn.edges_with_weights():
            if (u, v) in tree:
                mst.add_tree_edge(u, v, w)
            else:
                mst.non_tree.add(u, v, w)
        assert is_maximum_spanning_forest(mst, conn)
        assert [conn.weight(*e) for e in ring] == [2, 2, 2, 2]
        assert IndexMaintainer(conn, mst).delete_edge(0, 4) == []
        replaced = set(tree_edge_set(mst)) - tree
        assert len(replaced) == 1 and replaced <= {(1, 5), (2, 9)}
        assert mst.tree_weight(*replaced.pop()) == 2
        assert is_maximum_spanning_forest(mst, conn)


class TestWritePathIsLocal:
    def test_apply_updates_never_rebuilds_or_enumerates(self, monkeypatch):
        serving = ServingIndex(SMCCIndex.build(ssca_graph(200, seed=5)))
        graph = serving.publisher.index.graph
        rng = random.Random(3)
        edges = graph.edge_list()
        picks = [edges[i] for i in rng.sample(range(len(edges)), 8)]

        def forbidden(*args, **kwargs):
            raise AssertionError("the write path called a whole-structure pass")

        monkeypatch.setattr(MSTIndex, "_ensure_derived", forbidden)
        monkeypatch.setattr(Graph, "induced_edges", forbidden)
        # The Lemma 5.2 contract re-derives the input with induced_edges
        # on purpose, as the reference; this test is about the write path.
        previous = contracts.set_invariants_enabled(False)
        try:
            for u, v in picks:
                serving.apply_updates(deletes=[(u, v)])
            report = serving.apply_updates(inserts=picks)
        finally:
            contracts.set_invariants_enabled(previous)
        assert len(report.applied) == len(picks)


class TestLocalInputContract:
    def test_a_dropped_input_edge_is_caught(self, monkeypatch):
        conn, mst, maintainer = fresh(paper_example_graph())
        original = IndexMaintainer._local_input

        def short_by_one(self, source, k):
            super_of, num_supers, edges = original(self, source, k)
            return super_of, num_supers, edges[1:]

        monkeypatch.setattr(IndexMaintainer, "_local_input", short_by_one)
        previous = contracts.set_invariants_enabled(True)
        try:
            with pytest.raises(ContractViolationError, match="lemma-5.2"):
                maintainer.insert_edge(6, 9)
        finally:
            contracts.set_invariants_enabled(previous)
