"""The LCA/RMQ equivalence behind MST*'s gap table.

MST* lists its leaves in DFS order and keeps one gap row,
``gap[i] = weight(LCA(leaf_order[i], leaf_order[i + 1]))`` (0 across
trees), under a sparse table.  A range minimum over the gaps between two
leaves is then the weight of their LCA.  These tests check that against
a naive ancestor-chain LCA on hand-built and random forests, and check
that a delta snapshot's spliced gap row matches a from-scratch rebuild.
"""

import random

import numpy as np
import pytest

from repro import SMCCIndex
from repro.errors import DisconnectedQueryError
from repro.graph.generators import clique_chain_graph
from repro.graph.graph import Graph
from repro.index.mst import MSTIndex
from repro.index.mst_star import build_mst_star
from repro.serve import ServeConfig, ServingIndex
from repro.serve.delta import DeltaStar


def naive_lca(parents, u, v):
    """Reference LCA by walking ancestor chains."""
    anc = set()
    x = u
    while x >= 0:
        anc.add(x)
        x = parents[x]
    x = v
    while x >= 0:
        if x in anc:
            return x
        x = parents[x]
    return None


def naive_sc(star, u, v):
    """Weight of the naive LCA of two leaves; 0 across trees."""
    node = naive_lca(star.parents, u, v)
    return 0 if node is None else star.weights[node]


def star_of(num_vertices, tree_edges):
    mst = MSTIndex(num_vertices)
    for u, v, w in tree_edges:
        mst.add_tree_edge(u, v, w)
    return build_mst_star(mst)


def random_forest(n, num_trees, seed):
    """Tree edges of a random weighted forest; single-vertex trees are
    isolated vertices."""
    rng = random.Random(seed)
    tree_of = [rng.randrange(num_trees) for _ in range(n)]
    seen = {}
    edges = []
    for v in rng.sample(range(n), n):
        members = seen.setdefault(tree_of[v], [])
        if members:
            edges.append((rng.choice(members), v, rng.randint(1, n)))
        members.append(v)
    return edges


def range_sc(star, u, v):
    """sc(u, v) through the batched RMQ (no raise across trees)."""
    return int(star.sc_pairs_batch([u], [v])[0])


class TestBasics:
    def test_single_node(self):
        star = star_of(1, [])
        assert star.gap.shape == (0,)
        assert star.steiner_connectivity_batch([[0], [0, 0]]).tolist() == [0, 0]
        with pytest.raises(DisconnectedQueryError):
            star.steiner_connectivity([0])

    def test_chain(self):
        # Path 0 -3- 1 -2- 2 -1- 3: MST* is a chain of internal nodes.
        star = star_of(4, [(0, 1, 3), (1, 2, 2), (2, 3, 1)])
        assert sorted(star.gap.tolist()) == [1, 2, 3]
        assert star.sc_pair(0, 1) == 3
        assert star.sc_pair(0, 2) == 2
        assert star.sc_pair(3, 0) == 1
        assert star.steiner_connectivity([0, 1, 2]) == 2
        for u in range(4):
            for v in range(4):
                if u != v:
                    assert range_sc(star, u, v) == naive_sc(star, u, v)

    def test_balanced_binary(self):
        #        1
        #    3       3
        #   0 1     2 3
        star = star_of(4, [(0, 1, 3), (2, 3, 3), (1, 2, 1)])
        assert star.sc_pair(0, 1) == 3
        assert star.sc_pair(2, 3) == 3
        assert star.sc_pair(0, 3) == 1
        assert star.steiner_connectivity([1, 2]) == 1
        assert star.steiner_connectivity([3]) == 3

    def test_forest_cross_tree_none(self):
        # Two trees {0, 1} and {2, 3}: no LCA across them, so gap 0.
        star = star_of(4, [(0, 1, 2), (2, 3, 5)])
        assert 0 in star.gap.tolist()
        assert range_sc(star, 1, 3) == 0
        assert star.steiner_connectivity_batch([[0, 2], [2, 3]]).tolist() == [0, 5]
        with pytest.raises(DisconnectedQueryError):
            star.steiner_connectivity([0, 2])
        with pytest.raises(DisconnectedQueryError):
            star.sc_pair(1, 3)
        assert star.vertex_component[0] == star.vertex_component[1]
        assert star.vertex_component[0] != star.vertex_component[2]

    def test_empty(self):
        star = star_of(0, [])
        assert star.num_leaves == 0
        assert star.gap.shape == (0,)
        assert star.steiner_connectivity_batch([]).tolist() == []


class TestRandomized:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_on_random_forests(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 60)
        trees = rng.randint(1, max(1, n // 6))
        star = star_of(n, random_forest(n, trees, seed))
        order = star.leaf_order
        for i in range(n - 1):
            assert star.gap[i] == naive_sc(star, order[i], order[i + 1])
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(200)
        ]
        pairs = [(u, v) for u, v in pairs if u != v]
        got = star.sc_pairs_batch([u for u, _ in pairs], [v for _, v in pairs])
        for (u, v), g in zip(pairs, got.tolist()):
            expected = naive_sc(star, u, v)
            assert g == expected, (u, v)
            if expected:
                assert star.sc_pair(u, v) == expected
            else:
                with pytest.raises(DisconnectedQueryError):
                    star.sc_pair(u, v)
        # A set's sc is the lightest LCA against its first vertex.
        queries = [
            [rng.randrange(n) for _ in range(rng.randint(2, 5))]
            for _ in range(100)
        ]
        batch = star.steiner_connectivity_batch(queries).tolist()
        for q, g in zip(queries, batch):
            distinct = list(dict.fromkeys(q))
            if len(distinct) == 1:
                continue
            expected = min(naive_sc(star, distinct[0], v) for v in distinct[1:])
            assert g == expected, q
            if expected:
                assert star.steiner_connectivity(q) == expected

    def test_singleton_matches_parent_weight(self):
        n = 40
        for seed in range(4):
            star = star_of(n, random_forest(n, 6, 99 + seed))
            batch = star.steiner_connectivity_batch([[v] for v in range(n)])
            for v in range(n):
                parent = star.parents[v]
                expected = star.weights[parent] if parent >= 0 else 0
                assert batch[v] == expected, (seed, v)
                if parent >= 0:
                    assert star.steiner_connectivity([v, v]) == expected
                else:
                    with pytest.raises(DisconnectedQueryError):
                        star.steiner_connectivity([v])

    def test_sparse_table_rows_are_window_minima(self):
        star = star_of(50, random_forest(50, 3, 7))
        gap = star.gap
        for j in range(star._rmq.shape[0]):
            width = 1 << j
            for i in range(gap.shape[0] - width + 1):
                assert star._rmq[j, i] == gap[i : i + width].min()


class TestDeltaSplice:
    def test_spliced_gaps_match_rebuild(self):
        """Every delta publish of a seeded trace splices exact gaps.

        Chords churn inside one clique of a clique chain at a time, so
        regions stay a few leaves wide and most of the row lies outside
        the splice; a region past half the graph falls back to a full
        capture, which starts the next deltas from a fresh base.
        """
        sizes = [6, 5, 7, 4, 6]
        cliques, first = [], 0
        for size in sizes:
            cliques.append(range(first, first + size))
            first += size
        rng = random.Random(23)
        serving = ServingIndex.build(
            clique_chain_graph(sizes),
            config=ServeConfig(region_fraction_limit=0.5),
        )
        present = set(serving.snapshot().edges)
        spliced = 0
        for _ in range(40):
            u, v = sorted(rng.sample(list(rng.choice(cliques)), 2))
            if (u, v) in present:
                serving.apply_updates(deletes=[(u, v)])
                present.discard((u, v))
            else:
                serving.apply_updates(inserts=[(u, v)])
                present.add((u, v))
            snap = serving.publish().snapshot
            star = snap.star
            if not isinstance(star, DeltaStar):
                continue
            rebuilt_graph = Graph(snap.num_vertices)
            for a, b in snap.edges:
                rebuilt_graph.add_edge(a, b)
            rebuilt = SMCCIndex.build(rebuilt_graph).mst_star
            order = star.leaf_order
            for i in range(star.region_start, star.region_end - 1):
                expected = rebuilt.sc_pair(order[i], order[i + 1])
                assert star.gap[i] == expected, (snap.generation, i)
                spliced += 1
            # Outside the splice the row is the base's, value for value.
            outside = np.ones(star.gap.shape[0], dtype=bool)
            outside[star.region_start : star.region_end - 1] = False
            assert np.array_equal(star.gap[outside], star.base.gap[outside])
        assert spliced > 0
