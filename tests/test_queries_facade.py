"""Tests for the SMCCIndex facade and SMCCResult."""

import warnings

import pytest

from repro import Graph, SMCCIndex, VerifyReport
from repro.errors import DisconnectedQueryError, InfeasibleSizeConstraintError
from repro.graph.generators import paper_example_graph


class TestBuildAndQuery:
    def test_build_defaults(self, paper_index):
        assert paper_index.num_vertices == 13
        assert paper_index.num_edges == 27
        assert paper_index.steiner_connectivity([0, 3, 4]) == 4

    def test_walk_and_star_agree(self, paper_index):
        for q in ([0, 3], [0, 3, 6], [7, 12, 6], [0, 11]):
            assert paper_index.steiner_connectivity(q, method="walk") == \
                paper_index.steiner_connectivity(q, method="star")

    def test_unknown_method(self, paper_index):
        with pytest.raises(ValueError):
            paper_index.steiner_connectivity([0, 1], method="oracle")

    def test_build_without_star_is_lazy(self, paper_graph):
        index = SMCCIndex.build(paper_graph, with_star=False)
        assert index._mst_star is None
        assert index.steiner_connectivity([0, 3]) == 4  # builds lazily
        assert index._mst_star is not None

    def test_build_with_batch_method(self, paper_graph):
        index = SMCCIndex.build(paper_graph, method="batch")
        assert index.steiner_connectivity([0, 3, 6]) == 3

    def test_build_with_random_engine(self, paper_graph):
        index = SMCCIndex.build(paper_graph, engine="random", seed=1)
        assert index.steiner_connectivity([0, 3, 4]) == 4

    def test_sc_pair(self, paper_index):
        assert paper_index.sc_pair(0, 3) == 4
        assert paper_index.sc_pair(0, 11) == 2


class TestSMCCResult:
    def test_result_api(self, paper_index):
        result = paper_index.smcc([0, 3, 4])
        assert len(result) == 5
        assert 2 in result
        assert 8 not in result
        assert result.connectivity == 4
        assert result.vertex_set == frozenset([0, 1, 2, 3, 4])

    def test_induced_subgraph(self, paper_index, paper_graph):
        result = paper_index.smcc([0, 3, 4])
        sub, originals = result.induced_subgraph(paper_graph)
        assert sub.num_vertices == 5
        assert sub.num_edges == 10  # K5

    def test_smcc_l_result(self, paper_index):
        result = paper_index.smcc_l([0, 3], size_bound=6)
        assert len(result) == 9
        assert result.connectivity == 3

    def test_smcc_l_infeasible(self, paper_index):
        with pytest.raises(InfeasibleSizeConstraintError):
            paper_index.smcc_l([0, 3], size_bound=100)


class TestSMCCInterval:
    def test_interval_matches_smcc(self, paper_index):
        for q in ([0, 3, 4], [0, 3, 6], [7, 12]):
            interval = paper_index.smcc_interval(q)
            full = paper_index.smcc(q)
            assert interval.connectivity == full.connectivity
            assert len(interval) == len(full)
            assert sorted(interval.vertices) == sorted(full.vertices)

    def test_membership_constant_time_semantics(self, paper_index):
        interval = paper_index.smcc_interval([0, 3, 4])
        assert 2 in interval
        assert 8 not in interval
        assert 99 not in interval
        assert -1 not in interval

    def test_interval_refreshed_after_update(self, paper_index):
        before = len(paper_index.smcc_interval([0, 9]))
        paper_index.insert_edge(6, 9)
        after = paper_index.smcc_interval([0, 9])
        assert after.connectivity == 3
        assert len(after) == 13
        assert before == 13  # SMCC at k=2 was already the whole graph


class TestBulkAnalytics:
    def test_sc_pairs_batch_via_facade(self, paper_index):
        out = paper_index.sc_pairs_batch([0, 0, 7], [3, 11, 12])
        assert isinstance(out, list)
        assert out == [4, 2, 2]

    def test_scipy_linkage_via_facade(self, paper_index):
        from scipy.cluster.hierarchy import is_valid_linkage

        linkage = paper_index.to_scipy_linkage()
        assert is_valid_linkage(linkage)


class TestUpdateFlow:
    def test_update_then_query(self, paper_graph):
        index = SMCCIndex.build(paper_graph)
        assert index.steiner_connectivity([0, 9]) == 2
        index.insert_edge(6, 9)  # (v7, v10) merges g3 into the 3-ecc
        assert index.steiner_connectivity([0, 9]) == 3
        index.delete_edge(6, 9)
        assert index.steiner_connectivity([0, 9]) == 2

    def test_star_invalidated_after_update(self, paper_graph):
        index = SMCCIndex.build(paper_graph)
        _ = index.mst_star
        index.insert_edge(3, 8)
        assert index._mst_star is None
        # Lazy rebuild picks up the new edge.
        assert index.sc_pair(3, 8) == 3

    def test_changes_are_reported(self, paper_graph):
        index = SMCCIndex.build(paper_graph)
        changes = index.delete_edge(4, 8)
        assert sorted(changes) == [(3, 6, 2), (4, 6, 2)]


class TestPersistenceFacade:
    def test_save_load_roundtrip(self, paper_index, tmp_path):
        paper_index.save(tmp_path / "idx")
        loaded = SMCCIndex.load(tmp_path / "idx")
        assert loaded.num_vertices == 13
        assert loaded.steiner_connectivity([0, 3, 4]) == 4
        result = loaded.smcc([0, 3, 6])
        assert sorted(result.vertices) == list(range(9))

    def test_loaded_index_supports_updates(self, paper_index, tmp_path):
        paper_index.save(tmp_path / "idx")
        loaded = SMCCIndex.load(tmp_path / "idx")
        loaded.insert_edge(6, 9)
        assert loaded.steiner_connectivity([0, 9]) == 3


class TestKeywordOnlyOptions:
    """Option arguments are keyword-only: positional use is a TypeError."""

    def test_positional_method_rejected(self, paper_index):
        with pytest.raises(TypeError, match="positional"):
            paper_index.steiner_connectivity([0, 3], "walk")

    def test_positional_size_bound_rejected(self, paper_index):
        with pytest.raises(TypeError, match="positional"):
            paper_index.smcc_l([0, 3], 6)

    def test_positional_build_options_rejected(self, paper_graph):
        with pytest.raises(TypeError, match="positional"):
            SMCCIndex.build(paper_graph, "sharing")

    def test_keyword_form_is_silent(self, paper_index):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            paper_index.steiner_connectivity([0, 3], method="walk")
            paper_index.smcc_l([0, 3], size_bound=6)

    def test_smcc_l_requires_size_bound(self, paper_index):
        with pytest.raises(TypeError, match="size_bound"):
            paper_index.smcc_l([0, 3])

    def test_size_bound_given_twice_rejected(self, paper_index):
        with pytest.raises(TypeError, match="positional"):
            paper_index.smcc_l([0, 3], 6, size_bound=6)

    def test_too_many_positionals_rejected(self, paper_index):
        with pytest.raises(TypeError):
            paper_index.steiner_connectivity([0, 3], "walk", "extra")


class TestReprAndReports:
    def test_repr_shows_state(self, paper_graph):
        index = SMCCIndex.build(paper_graph)
        _ = index.mst_star  # force the derived structure
        text = repr(index)
        assert "n=13" in text and "m=27" in text
        assert "mst_star=built" in text
        assert "engine='exact'" in text
        index.insert_edge(3, 8)  # invalidates MST*
        assert "mst_star=stale" in repr(index)

    def test_verify_returns_report(self, paper_index):
        report = paper_index.verify(sample_pairs=8, seed=1)
        assert isinstance(report, VerifyReport)
        assert report.ok is True
        assert report.num_vertices == 13
        assert report.num_edges == 27
        assert report.pairs_sampled == 8
        assert report.tree_edges_checked == 12
        assert report.elapsed_seconds > 0.0
        as_dict = report.as_dict()
        assert as_dict["ok"] is True and as_dict["num_components"] == 1

    def test_results_carry_stats_only_when_profiling(self, paper_index):
        from repro.obs import runtime
        from repro.obs.stats import collect

        previous = runtime.REGISTRY
        runtime.REGISTRY = None  # REPRO_OBS=1 CI job enables it globally
        try:
            assert paper_index.smcc([0, 3]).query_stats is None
            with collect():
                result = paper_index.smcc([0, 3])
        finally:
            runtime.REGISTRY = previous
        assert result.query_stats is not None
        assert result.query_stats.kind == "smcc"
        assert result.query_stats.vertices_touched > 0


class TestDegenerate:
    def test_two_vertex_graph(self):
        graph = Graph.from_edges([(0, 1)])
        index = SMCCIndex.build(graph)
        assert index.steiner_connectivity([0, 1]) == 1
        result = index.smcc([0, 1])
        assert sorted(result.vertices) == [0, 1]

    def test_disconnected_query(self):
        graph = Graph.from_edges([(0, 1), (2, 3)])
        index = SMCCIndex.build(graph)
        with pytest.raises(DisconnectedQueryError):
            index.smcc([0, 2])
