"""The contract layer: gating, laziness, lemma checkers, and the wiring
into the index / kecc / flow implementations."""

from __future__ import annotations

import pytest

from repro.analysis import contracts
from repro.analysis.contracts import (
    invariant,
    invariants_enabled,
    postcondition,
    require,
    set_invariants_enabled,
)
from repro.analysis.lemmas import (
    dinic_flow_conserved,
    is_maximum_spanning_forest,
    is_partition,
    mst_star_consistent,
    tq_min_weight_matches,
)
from repro.errors import ContractViolationError, InternalInvariantError
from repro.flow.dinic import Dinic
from repro.graph.generators import paper_example_graph
from repro.index.connectivity_graph import build_connectivity_graph
from repro.index.mst import build_mst
from repro.index.mst_star import MSTStar, build_mst_star
from repro.kecc.exact import keccs_exact


@pytest.fixture
def enabled():
    previous = set_invariants_enabled(True)
    yield
    set_invariants_enabled(previous)


@pytest.fixture
def disabled():
    previous = set_invariants_enabled(False)
    yield
    set_invariants_enabled(previous)


def _paper_mst():
    graph = paper_example_graph()
    conn = build_connectivity_graph(graph)
    return conn, build_mst(conn)


class TestRequire:
    def test_passes_silently(self):
        require(True, "never raised")

    def test_raises_internal_invariant_error(self):
        with pytest.raises(InternalInvariantError, match="witness missing"):
            require(False, "witness missing")

    def test_active_regardless_of_gate(self, disabled):
        with pytest.raises(InternalInvariantError):
            require(False, "still fires when invariants are off")


class TestInvariant:
    def test_noop_when_disabled(self, disabled):
        calls = []
        invariant("x", lambda: calls.append(1) or False, "boom")
        assert calls == []  # the check body never ran

    def test_raises_when_enabled(self, enabled):
        with pytest.raises(ContractViolationError) as excinfo:
            invariant("my-lemma", lambda: False, "broken")
        assert excinfo.value.contract == "my-lemma"
        assert "broken" in str(excinfo.value)

    def test_accepts_plain_bool_and_lazy_detail(self, enabled):
        invariant("ok", True)
        with pytest.raises(ContractViolationError, match="lazy detail"):
            invariant("bad", False, lambda: "lazy detail")

    def test_check_work_never_counts_as_query_work(self, enabled):
        # Contract recomputation is verification, not query work: a
        # checker that performs instrumented operations must leave the
        # active QueryStats untouched (regression: the lazy MST* build
        # of a loaded index inflated lca_calls under invariants).
        from repro.obs import runtime
        from repro.obs.stats import collect

        def instrumented_recheck() -> bool:
            active = runtime.get_active_stats()  # what hot paths consult
            if active is not None:
                active.lca_calls += 100
            return True

        with collect() as stats:
            invariant("expensive-recheck", instrumented_recheck)
        assert stats.lca_calls == 0
        # ...and collection resumes once the check is done
        assert runtime.get_active_stats() is None

    def test_stats_pause_does_not_clobber_other_threads(self, enabled):
        # The pause is thread-local: an invariant check running on one
        # thread must not suspend (or later restore over) a collector
        # active on a concurrently serving thread.
        import threading

        from repro.obs import runtime
        from repro.obs.stats import collect

        in_check = threading.Event()
        finish_check = threading.Event()
        observed = {}

        def checker():
            def slow_check() -> bool:
                in_check.set()
                assert finish_check.wait(5)
                return True

            invariant("slow-cross-thread-check", slow_check)

        def collector():
            with collect() as stats:
                assert in_check.wait(5)
                # The other thread is mid-pause right now; ours stays.
                observed["active_is_ours"] = (
                    runtime.get_active_stats() is stats
                )
                finish_check.set()

        threads = [
            threading.Thread(target=checker),
            threading.Thread(target=collector),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert observed["active_is_ours"] is True

    def test_env_parsing(self, monkeypatch):
        for value, expected in [
            ("1", True),
            ("true", True),
            ("", False),
            ("0", False),
            ("false", False),
            ("off", False),
            ("no", False),
        ]:
            monkeypatch.setenv("REPRO_CHECK_INVARIANTS", value)
            assert contracts._read_env() is expected


class TestPostcondition:
    def test_calls_through_when_disabled(self, disabled):
        seen = []

        @postcondition("never-checked", lambda result, x: seen.append(x) or False)
        def double(x: int) -> int:
            return 2 * x

        assert double(4) == 8
        assert seen == []

    def test_checks_when_enabled(self, enabled):
        @postcondition("result-positive", lambda result, x: result > 0)
        def sub(x: int) -> int:
            return x - 10

        assert sub(11) == 1
        with pytest.raises(ContractViolationError, match="result-positive"):
            sub(5)

    def test_contract_name_recorded(self):
        @postcondition("named", lambda result: True)
        def f() -> None:
            return None

        assert f.__contract__ == "named"
        assert f.__name__ == "f"


class TestLemmaCheckers:
    def test_mst_certificate_accepts_real_index(self):
        conn, mst = _paper_mst()
        assert is_maximum_spanning_forest(mst, conn)

    def test_mst_certificate_rejects_corrupted_weight(self):
        conn, mst = _paper_mst()
        u, v, w = next(iter(mst.tree_edges()))
        mst.set_tree_weight(u, v, w + 1)
        assert not is_maximum_spanning_forest(mst, conn)

    def test_tq_checker_agrees_with_algorithm_10(self):
        _, mst = _paper_mst()
        for q in ([0, 1], [0, 5, 9], [2, 12], [3, 7, 11, 1]):
            sc = mst.steiner_connectivity(q)
            assert tq_min_weight_matches(mst, q, sc)
            assert not tq_min_weight_matches(mst, q, sc + 1)

    def test_partition_checker(self):
        assert is_partition([[0, 2], [1]], 3)
        assert not is_partition([[0], [0, 1]], 2)  # duplicate
        assert not is_partition([[0]], 2)  # missing
        assert not is_partition([[0, 2]], 2)  # out of range

    def test_mst_star_checker(self):
        _, mst = _paper_mst()
        star = build_mst_star(mst)
        assert mst_star_consistent(star, mst)

        def corrupted(table, index):
            # A star is read-only, so corrupt a copy of one table and
            # map a star over the copies.
            tables = {
                "rmq": star._rmq.copy(),
                "runs": star._runs.copy(),
                "jump": star._jump_table.copy(),
            }
            tables[table][index] += 1
            return MSTStar.over_arrays(
                star.leaf_order, star.leaf_position, **tables
            )

        for table, index in (
            ("rmq", (0, 0)),  # one gap
            ("rmq", (1, 0)),  # one sparse-table entry
            ("runs", (1, 0)),  # one run-table entry
        ):
            assert not mst_star_consistent(corrupted(table, index), mst)

    def test_dinic_conservation_positive(self, enabled):
        d = Dinic(4)
        d.add_undirected_edge(0, 1)
        d.add_undirected_edge(1, 2)
        d.add_undirected_edge(2, 3)
        d.add_undirected_edge(0, 2)
        assert d.max_flow(0, 3) == 1
        assert dinic_flow_conserved(d)

    def test_dinic_conservation_detects_tampering(self, enabled):
        d = Dinic(3)
        d.add_undirected_edge(0, 1)
        d.add_undirected_edge(1, 2)
        d.max_flow(0, 2)
        d._cap[0] += 1  # corrupt the residual network
        assert not dinic_flow_conserved(d)

    def test_dinic_conservation_untracked_is_vacuous(self, disabled):
        d = Dinic(2)
        d.add_undirected_edge(0, 1)
        d.max_flow(0, 1)
        assert d._orig_cap is None
        assert dinic_flow_conserved(d)


class TestWiring:
    """End-to-end: enabled contracts accept correct runs and catch
    corruption inside the real algorithms."""

    def test_full_pipeline_clean_under_contracts(self, enabled):
        graph = paper_example_graph()
        conn = build_connectivity_graph(graph)
        mst = build_mst(conn)
        star = build_mst_star(mst)
        assert mst.steiner_connectivity([0, 5]) == star.steiner_connectivity([0, 5])
        keccs_exact(graph.num_vertices, list(graph.edges()), 3)

    def test_corrupted_tree_caught_at_query_time(self, enabled):
        _, mst = _paper_mst()
        u, v, w = next(iter(mst.tree_edges()))
        # Silent corruption: bump a weight without going through
        # maintenance.  Algorithm 10 may now disagree with the naive
        # recompute only if the min edge moved — force it by zeroing.
        mst.set_tree_weight(u, v, 0 if w > 1 else w)
        # The certificate rejects the tree against the original graph,
        # and repeated sc queries still self-agree (Lemma 4.5 relates
        # the walk to T_q on the *current* tree), so check the builder
        # contract path instead.
        conn, _ = _paper_mst()
        assert not is_maximum_spanning_forest(mst, conn)

    def test_second_max_flow_on_same_network_allowed(self, enabled):
        d = Dinic(2)
        d.add_edge(0, 1, cap=5)
        assert d.max_flow(0, 1) == 5
        # All capacity consumed; the rerun must not trip conservation.
        assert d.max_flow(0, 1) == 0

    def test_invariants_enabled_reflects_fixture(self, enabled):
        assert invariants_enabled()
