"""Unit tests for the MST index: construction and the three queries."""

import pytest

from conftest import brute_force_sc_pairs, random_connected_graph
from repro.errors import (
    DisconnectedQueryError,
    EmptyQueryError,
    InfeasibleSizeConstraintError,
    VertexNotFoundError,
)
from repro.graph.generators import (
    clique_chain_graph,
    paper_example_graph,
)
from repro.graph.graph import Graph
from repro.index.connectivity_graph import ConnectivityGraph, conn_graph_sharing
from repro.index.mst import build_mst


def index_for(graph):
    return build_mst(conn_graph_sharing(graph))


class TestConstruction:
    def test_spanning_tree_edge_count(self):
        mst = index_for(paper_example_graph())
        assert mst.num_tree_edges() == 12  # n - 1
        assert len(mst.non_tree) == 27 - 12

    def test_forest_on_disconnected_graph(self):
        graph = Graph.from_edges([(0, 1), (2, 3)], num_vertices=5)
        mst = index_for(graph)
        assert mst.num_tree_edges() == 2

    def test_maximality_cycle_property(self):
        # Every non-tree edge's weight must be <= the min weight on its
        # tree path (cycle property of maximum spanning trees).
        for seed in range(5):
            graph = random_connected_graph(seed)
            conn = conn_graph_sharing(graph)
            mst = build_mst(conn)
            for u, v, w in mst.non_tree.iter_non_increasing():
                path = mst.tree_path(u, v)
                assert path is not None
                assert min(e[2] for e in path) >= w

    def test_path_min_equals_sc(self):
        # Lemma 4.4: min weight on the tree path equals sc(u, v).
        graph = random_connected_graph(11, max_n=14)
        conn = conn_graph_sharing(graph)
        mst = build_mst(conn)
        oracle = brute_force_sc_pairs(graph)
        n = graph.num_vertices
        for u in range(n):
            for v in range(u + 1, n):
                path = mst.tree_path(u, v)
                assert min(e[2] for e in path) == oracle[(u, v)]


class TestSteinerConnectivity:
    def test_paper_queries(self):
        mst = index_for(paper_example_graph())
        assert mst.steiner_connectivity([0, 3, 4]) == 4   # {v1,v4,v5}
        assert mst.steiner_connectivity([0, 3, 6]) == 3   # {v1,v4,v7}
        assert mst.steiner_connectivity([0, 11]) == 2     # crosses to g3
        assert mst.steiner_connectivity([7, 12, 6]) == 2  # {v8,v13,v7} (Ex 1.1)

    def test_pairwise_matches_oracle(self):
        graph = random_connected_graph(21, max_n=14)
        mst = index_for(graph)
        oracle = brute_force_sc_pairs(graph)
        n = graph.num_vertices
        for u in range(n):
            for v in range(u + 1, n):
                assert mst.steiner_connectivity([u, v]) == oracle[(u, v)]

    def test_order_invariance(self):
        mst = index_for(paper_example_graph())
        assert mst.steiner_connectivity([4, 0, 3]) == mst.steiner_connectivity([3, 4, 0])

    def test_duplicates_ignored(self):
        mst = index_for(paper_example_graph())
        assert mst.steiner_connectivity([0, 0, 3, 3]) == mst.steiner_connectivity([0, 3])

    def test_singleton_query(self):
        mst = index_for(clique_chain_graph([5, 3]))
        # vertex 0 is in the K5: sc({0}) = 4
        assert mst.steiner_connectivity([0]) == 4
        # vertex 5 is in the K3 (attached to bridge): sc = 2
        assert mst.steiner_connectivity([5]) == 2

    def test_empty_query_raises(self):
        mst = index_for(paper_example_graph())
        with pytest.raises(EmptyQueryError):
            mst.steiner_connectivity([])

    def test_unknown_vertex_raises(self):
        mst = index_for(paper_example_graph())
        with pytest.raises(VertexNotFoundError):
            mst.steiner_connectivity([0, 99])

    def test_disconnected_query_raises(self):
        graph = Graph.from_edges([(0, 1), (2, 3)])
        mst = index_for(graph)
        with pytest.raises(DisconnectedQueryError):
            mst.steiner_connectivity([0, 3])

    def test_isolated_singleton_raises(self):
        graph = Graph.from_edges([(0, 1)], num_vertices=3)
        mst = index_for(graph)
        with pytest.raises(DisconnectedQueryError):
            mst.steiner_connectivity([2])


class TestSMCC:
    def test_paper_smcc_queries(self):
        mst = index_for(paper_example_graph())
        verts, sc = mst.smcc([0, 3, 4])
        assert sorted(verts) == [0, 1, 2, 3, 4] and sc == 4
        verts, sc = mst.smcc([0, 3, 6])
        assert sorted(verts) == list(range(9)) and sc == 3
        verts, sc = mst.smcc([0, 10])
        assert sorted(verts) == list(range(13)) and sc == 2

    def test_smcc_is_k_edge_connected(self):
        from repro.flow import global_edge_connectivity

        graph = random_connected_graph(31, max_n=16)
        mst = index_for(graph)
        import random

        rng = random.Random(31)
        for _ in range(10):
            q = rng.sample(range(graph.num_vertices), 3)
            verts, sc = mst.smcc(q)
            sub, _ = graph.induced_subgraph(verts)
            if len(verts) > 1:
                assert global_edge_connectivity(sub) >= sc

    def test_smcc_contains_query(self):
        graph = random_connected_graph(32)
        mst = index_for(graph)
        q = [0, graph.num_vertices - 1]
        verts, _ = mst.smcc(q)
        assert set(q) <= set(verts)

    def test_vertices_with_connectivity_threshold(self):
        mst = index_for(paper_example_graph())
        assert sorted(mst.vertices_with_connectivity(0, 4)) == [0, 1, 2, 3, 4]
        assert sorted(mst.vertices_with_connectivity(0, 3)) == list(range(9))
        assert sorted(mst.vertices_with_connectivity(0, 1)) == list(range(13))


class TestSMCCL:
    def test_paper_smcc_l(self):
        mst = index_for(paper_example_graph())
        verts, k = mst.smcc_l([0, 3], 4)   # {v1,v4} L=4 -> g1
        assert sorted(verts) == [0, 1, 2, 3, 4] and k == 4
        verts, k = mst.smcc_l([0, 3], 6)   # L=6 -> g1 u g2
        assert sorted(verts) == list(range(9)) and k == 3
        verts, k = mst.smcc_l([0, 3], 10)  # L=10 -> whole graph
        assert sorted(verts) == list(range(13)) and k == 2

    def test_l_not_binding_equals_smcc(self):
        mst = index_for(paper_example_graph())
        smcc_verts, smcc_k = mst.smcc([0, 3])
        l_verts, l_k = mst.smcc_l([0, 3], 2)
        assert sorted(l_verts) == sorted(smcc_verts)
        assert l_k == smcc_k

    def test_infeasible_raises(self):
        mst = index_for(paper_example_graph())
        with pytest.raises(InfeasibleSizeConstraintError):
            mst.smcc_l([0, 3], 14)

    def test_disconnected_raises(self):
        graph = Graph.from_edges([(0, 1), (2, 3)])
        mst = index_for(graph)
        with pytest.raises(DisconnectedQueryError):
            mst.smcc_l([0, 3], 2)

    def test_result_is_superset_of_query(self):
        graph = random_connected_graph(44)
        mst = index_for(graph)
        q = [1, 2]
        verts, k = mst.smcc_l(q, graph.num_vertices // 2)
        assert set(q) <= set(verts)
        assert len(verts) >= graph.num_vertices // 2
        assert k >= 1


class TestTreeHelpers:
    def test_tree_path_endpoints(self):
        mst = index_for(paper_example_graph())
        path = mst.tree_path(0, 12)
        assert path[0][0] == 0
        assert path[-1][1] == 12
        # consecutive edges chain
        for (a, b, _), (c, d, _) in zip(path, path[1:]):
            assert b == c

    def test_tree_path_same_vertex(self):
        mst = index_for(paper_example_graph())
        assert mst.tree_path(3, 3) == []

    def test_tree_path_disconnected_none(self):
        graph = Graph.from_edges([(0, 1), (2, 3)])
        mst = index_for(graph)
        assert mst.tree_path(0, 2) is None
        assert mst.tree_path(0, 1) == [(0, 1, 1)]

    def test_invalidate_and_rebuild(self):
        mst = index_for(paper_example_graph())
        before = mst.steiner_connectivity([0, 3])
        mst.invalidate()
        assert mst.steiner_connectivity([0, 3]) == before
