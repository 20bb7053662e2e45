"""Empirical checks of the paper's optimality bounds via QueryStats.

The paper proves *output-sensitive* complexities: ``sc(q)`` in
``O(|q|)`` via MST* (Theorem 4.3), SMCC in ``O(|result|)`` (Theorem
4.1), SMCC_L in ``O(|result|)`` (Theorem 4.2).  With the observability
layer counting the work the hot paths actually perform, these bounds
become executable assertions: on a 10k-vertex SSCA graph the counters
must scale with the *output*, never with the graph.

Also covers the instrumented build/maintenance paths and the CLI
surface (``query --profile``, ``obs``, ``verify --json``).
"""

import json
import random

import pytest

from repro import cli
from repro.core.queries import SMCCIndex
from repro.graph.generators import ssca_graph
from repro.obs import runtime
from repro.obs.stats import collect


@pytest.fixture(scope="module")
def ssca():
    graph = ssca_graph(10_000, seed=7)
    return graph, SMCCIndex.build(graph)


@pytest.fixture(autouse=True)
def _clean_runtime():
    prev_registry = runtime.REGISTRY
    prev_stats = runtime.set_active_stats(None)
    runtime.REGISTRY = None
    yield
    runtime.REGISTRY = prev_registry
    runtime.set_active_stats(prev_stats)


class TestEmpiricalOptimality:
    def test_smcc_work_is_output_sensitive(self, ssca):
        """Theorem 4.1: the pruned BFS touches O(|result|) vertices.

        Clique-local queries keep |result| tiny (one SSCA clique), so a
        non-output-sensitive implementation — anything scanning the
        10k-vertex graph — fails by three orders of magnitude.
        """
        graph, index = ssca
        rng = random.Random(3)
        vertices = list(graph.vertices())
        checked = 0
        for _ in range(40):
            v = rng.choice(vertices)
            neighbors = list(graph.neighbors(v))
            if len(neighbors) < 2:
                continue
            q = [v] + rng.sample(neighbors, 2)
            with collect() as stats:
                result = index.smcc(q)
            assert stats.vertices_touched <= 3 * len(result)
            checked += 1
        assert checked >= 30

    def test_smcc_large_result_still_output_sensitive(self, ssca):
        # A random far pair usually has sc=1 and a component-sized
        # result; the bound must hold there too (c independent of |q|).
        graph, index = ssca
        rng = random.Random(11)
        q = rng.sample(list(graph.vertices()), 2)
        with collect() as stats:
            result = index.smcc(q)
        assert stats.vertices_touched <= 3 * len(result)

    def test_sc_star_is_linear_in_query_size(self, ssca):
        """Theorem 4.3: sc(q) via MST* is one O(1) range-minimum probe
        after an O(|q|) pass over the query's leaf positions."""
        graph, index = ssca
        rng = random.Random(5)
        vertices = list(graph.vertices())
        for size in (2, 4, 8, 16):
            q = rng.sample(vertices, size)
            with collect() as stats:
                index.steiner_connectivity(q)
            assert stats.lca_calls == 1
            assert stats.vertices_touched == size
            assert stats.tree_edges_scanned == 0  # no tree walk at all

    def test_sc_walk_scans_tree_paths_not_the_graph(self, ssca):
        graph, index = ssca
        rng = random.Random(5)
        q = rng.sample(list(graph.vertices()), 8)
        with collect() as stats:
            walk = index.steiner_connectivity(q, method="walk")
        star = index.steiner_connectivity(q, method="star")
        assert walk == star
        assert stats.lca_calls == 0
        # Tree climbs are bounded by the MST size, never |E|.
        assert 0 < stats.tree_edges_scanned < graph.num_vertices

    def test_smcc_l_pops_scale_with_the_result(self, ssca):
        """Theorem 4.2: the prioritized search pops O(|result|) entries."""
        graph, index = ssca
        rng = random.Random(17)
        vertices = list(graph.vertices())
        for bound in (50, 500, 3000):
            q = rng.sample(vertices, 2)
            with collect() as stats:
                result = index.smcc_l(q, size_bound=bound)
            assert len(result) >= bound
            assert stats.queue_pops <= 3 * len(result)
            assert stats.vertices_touched <= 2 * len(result)


class TestInstrumentedBuildAndMaintenance:
    def test_build_emits_phase_spans_and_round_counters(self):
        graph = ssca_graph(400, seed=2)
        previous = runtime.REGISTRY
        registry = runtime.enable()
        try:
            SMCCIndex.build(graph)
        finally:
            runtime.REGISTRY = previous  # keep any REPRO_OBS=1 registry alive
        roots = [r.name for r in registry.span_roots]
        assert roots == ["index.build"]
        build = registry.span_roots[0]
        child_names = [c.name for c in build.children]
        assert child_names == [
            "index.build.connectivity_graph",
            "index.build.mst",
            "index.build.mst_star",
        ]
        assert build.attrs["n"] == graph.num_vertices
        assert registry.counter("conn_graph.sharing.rounds").value > 0

    def test_build_under_collect_counts_kecc_rounds(self):
        graph = ssca_graph(200, seed=4)
        with collect() as stats:
            SMCCIndex.build(graph)
        assert stats.kecc_rounds > 0

    def test_flow_counters_move_with_dinic(self):
        from repro.flow import edge_connectivity_between

        graph = ssca_graph(200, seed=4)
        with collect() as stats:
            value = edge_connectivity_between(graph, 0, graph.num_vertices - 1)
        assert value >= 1
        assert stats.flow_bfs_rounds > 0
        assert stats.flow_augmentations >= value

    def test_maintenance_counts_sc_changes_and_spans(self):
        graph = ssca_graph(300, seed=9)
        index = SMCCIndex.build(graph)
        previous = runtime.REGISTRY
        registry = runtime.enable()
        try:
            with collect() as stats:
                changes = index.insert_edge(0, graph.num_vertices - 1)
                index.delete_edge(0, graph.num_vertices - 1)
        finally:
            runtime.REGISTRY = previous  # keep any REPRO_OBS=1 registry alive
        assert changes
        assert stats.sc_changes >= len(changes)
        names = [r.name for r in registry.span_roots]
        assert "index.update.insert_edge" in names
        assert "index.update.delete_edge" in names


class TestProfileCLI:
    @pytest.fixture(scope="class")
    def index_dir(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("obs_cli")
        graph_file = base / "graph.txt"
        index_dir = base / "index"
        assert cli.main(["generate", "ssca", "-n", "300",
                         "-o", str(graph_file)]) == 0
        assert cli.main(["build", str(graph_file), "-o", str(index_dir)]) == 0
        return str(index_dir)

    def test_profile_emits_one_json_document(self, index_dir, capsys):
        rc = cli.main([
            "query", index_dir,
            "--sc", "1", "2", "3",
            "--smcc", "1", "2", "3",
            "--smcc-l", "1", "2", "3", "--size-bound", "20",
            "--profile",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        kinds = [record["kind"] for record in doc["queries"]]
        assert kinds == ["sc", "smcc", "smcc_l"]
        sc = doc["queries"][0]
        assert sc["result"] >= 1
        assert sc["stats"]["lca_calls"] == 1
        assert sc["stats"]["query_size"] == 3
        smcc = doc["queries"][1]
        assert smcc["stats"]["kind"] == "smcc"
        assert smcc["stats"]["vertices_touched"] <= 3 * smcc["result"]["size"]
        # nested spans: index.load first, then one span per query
        span_names = [s["name"] for s in doc["spans"]]
        assert span_names[0] == "index.load"
        assert {"query.sc", "query.smcc", "query.smcc_l"} <= set(span_names)
        assert doc["metrics"]["counters"]["query.smcc.count"] == 1

    def test_profile_leaves_global_registry_untouched(self, index_dir, capsys):
        assert runtime.REGISTRY is None
        cli.main(["query", index_dir, "--sc", "1", "2", "--profile"])
        capsys.readouterr()
        assert runtime.REGISTRY is None

    def test_plain_query_output_unchanged(self, index_dir, capsys):
        rc = cli.main(["query", index_dir, "--sc", "1", "2", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("sc([1, 2, 3]) = ")

    def test_obs_command_json(self, index_dir, capsys):
        rc = cli.main(["obs", index_dir, "--queries", "10"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["query.sc.count"] == 10
        assert doc["counters"]["query.smcc.count"] == 10
        assert doc["histograms"]["query.smcc.seconds"]["count"] == 10

    def test_obs_command_prometheus(self, index_dir, capsys):
        rc = cli.main(["obs", index_dir, "--queries", "5",
                       "--format", "prometheus"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "# TYPE query_sc_count counter" in lines
        assert "query_sc_count 5" in lines
        assert any(line.startswith("query_smcc_seconds_bucket{le=")
                   for line in lines)

    def test_verify_json_report(self, index_dir, capsys):
        rc = cli.main(["verify", index_dir, "--json", "--samples", "8"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["num_vertices"] == 300
        assert report["pairs_sampled"] == 8
        assert report["tree_edges_checked"] > 0


class TestServeCLI:
    @pytest.fixture(scope="class")
    def index_dir(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("serve_cli")
        graph_file = base / "graph.txt"
        index_dir = base / "index"
        assert cli.main(["generate", "ssca", "-n", "250",
                         "-o", str(graph_file)]) == 0
        assert cli.main(["build", str(graph_file), "-o", str(index_dir)]) == 0
        return str(index_dir)

    def test_serve_workload_json(self, index_dir, capsys):
        rc = cli.main([
            "serve", index_dir,
            "--readers", "2", "--queries", "40",
            "--updates", "4", "--publish-every", "2",
            "--batch-size", "4", "--seed", "9",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["readers"] == 2
        assert doc["queries_answered"] + doc["query_errors"] * 4 >= 80
        assert doc["updates_applied"] == 4
        # At updates 2 and 4; the final flush is a no-op publish (update 4
        # was just published) and no-op publishes are not counted.
        assert doc["publishes"] == 2
        assert doc["serving_stats"]["staleness"] == 0

    def test_serve_obs_flag_embeds_serve_metrics(self, index_dir, capsys):
        assert runtime.REGISTRY is None
        rc = cli.main([
            "serve", index_dir,
            "--readers", "1", "--queries", "20", "--updates", "0",
            "--obs",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        counters = doc["metrics"]["counters"]
        assert all(name.startswith("serve.") for name in counters)
        assert counters["serve.sc.count"] + counters.get("serve.smcc.count", 0) > 0
        assert doc["metrics"]["gauges"]["serve.queue.depth"] == 0
        # the temporary registry never leaks into the process state
        assert runtime.REGISTRY is None

    def test_serve_is_deterministic_given_a_seed(self, index_dir, capsys):
        argv = ["serve", index_dir, "--readers", "2", "--queries", "30",
                "--updates", "0", "--seed", "5"]
        assert cli.main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        for volatile in ("elapsed_seconds", "throughput_qps"):
            first.pop(volatile)
            second.pop(volatile)
        first["serving_stats"].pop("cache")
        second["serving_stats"].pop("cache")
        assert first == second
