"""Experiment harness: regenerate every table and figure of the paper.

Each ``tableN()`` / ``figureN()`` function reproduces one experiment of
Section 6 / Appendix A.4 on the registered dataset analogs, returning a
:class:`~repro.bench.reporting.Table` whose rows mirror the paper's and
include the paper's reported numbers side-by-side.  Absolute times are
not comparable (CPython vs C++ -O3, scaled datasets) — the *shape*
(who wins, by how many orders of magnitude, growth trends) is the
reproduction target; see EXPERIMENTS.md.

``run_all()`` executes the whole evaluation and renders a report.

Workload sizes default to a *quick* profile so the suite finishes in
minutes under CPython; pass ``profile="paper"`` for the paper's 1000
queries per set where you have the patience.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import sc_baseline, smcc_baseline, smcc_l_baseline
from repro.bench import paper_reference as paper
from repro.bench.datasets import (
    ALL_DATASETS,
    DATASETS,
    QUERY_TABLE_DATASETS,
    SCALABILITY_DATASETS,
    dataset_stats,
    get_dataset,
)
from repro.bench.reporting import Table, ratio, time_calls, time_once
from repro.bench.workloads import QUERY_SIZES, generate_queries, generate_update_workload
from repro.core.queries import SMCCIndex
from repro.index.connectivity_graph import conn_graph_batch, conn_graph_sharing
from repro.index.maintenance import IndexMaintainer
from repro.index.mst import build_mst
from repro.index.mst_star import build_mst_star
from repro.index.persistence import (
    connectivity_graph_size_bytes,
    mst_size_bytes,
)
from repro.obs.timing import Stopwatch


@dataclass(frozen=True)
class Profile:
    """Workload sizes for one harness run."""

    opt_queries: int          # queries per set for index-based algorithms
    baseline_queries: int     # queries per set for exact baselines
    blr_queries: int          # queries per set for the randomized baseline
    blr_trials: int           # contraction trials for KECCs-Random
    blr_datasets: Tuple[str, ...]  # where SMCC-BLR runs (paper: smallest only)
    query_size: int
    scale: float
    seed: int


QUICK = Profile(
    opt_queries=200,
    baseline_queries=2,
    blr_queries=1,
    blr_trials=10,
    blr_datasets=("D1", "SSCA1"),
    query_size=10,
    scale=1.0,
    seed=42,
)

FULL = Profile(
    opt_queries=1000,
    baseline_queries=10,
    blr_queries=2,
    blr_trials=50,
    blr_datasets=("D1", "D2", "SSCA1", "SSCA2"),
    query_size=10,
    scale=1.0,
    seed=42,
)

PROFILES: Dict[str, Profile] = {"quick": QUICK, "paper": FULL, "full": FULL}


def _profile(profile) -> Profile:
    if isinstance(profile, Profile):
        return profile
    return PROFILES[profile]


# ----------------------------------------------------------------------
# Shared prepared state (index built once per dataset per process)
# ----------------------------------------------------------------------
@lru_cache(maxsize=64)
def prepared_index(name: str, scale: float = 1.0, seed: int = 42) -> SMCCIndex:
    """Build (and memoize) the full SMCC index for a dataset analog."""
    graph = get_dataset(name, scale, seed)
    return SMCCIndex.build(graph)


def _per_1000(total_seconds: float, count: int) -> float:
    return total_seconds / count * 1000.0


def _size_bound(name: str, scale: float, seed: int) -> int:
    """The L used for SMCC_L experiments: 10% of the graph (min 2)."""
    n, _, _ = dataset_stats(name, scale, seed)
    return max(2, n // 10)


# ----------------------------------------------------------------------
# Tables 1 and 2: dataset statistics
# ----------------------------------------------------------------------
def table1_table2(profile="quick") -> Table:
    """Dataset statistics: paper sizes vs analog sizes and scale factors."""
    prof = _profile(profile)
    table = Table(
        "Tables 1-2: datasets (paper vs generated analogs)",
        ["Graph", "paper |V|", "paper |E|", "analog |V|", "analog |E|",
         "analog d-bar", "paper d-bar", "scale"],
    )
    for name in ALL_DATASETS:
        spec = DATASETS[name]
        n, m, dbar = dataset_stats(name, prof.scale, prof.seed)
        table.add_row(
            name, spec.paper_vertices, spec.paper_edges, n, m,
            round(dbar, 2), spec.avg_degree, f"{m / spec.paper_edges:.2g}",
        )
    return table


# ----------------------------------------------------------------------
# Table 3 + Figure 5: SMCC queries
# ----------------------------------------------------------------------
def table3(profile="quick", datasets: Optional[Sequence[str]] = None) -> Table:
    """SMCC query time: SMCC-OPT vs SMCC-BLE vs SMCC-BLR (paper Table 3)."""
    prof = _profile(profile)
    datasets = list(datasets or QUERY_TABLE_DATASETS)
    table = Table(
        "Table 3: SMCC query time (seconds per 1000 queries)",
        ["Graph", "SMCC-OPT", "SMCC-BLE", "SMCC-BLR",
         "speedup BLE/OPT", "paper BLE/OPT"],
    )
    for name in datasets:
        index = prepared_index(name, prof.scale, prof.seed)
        graph = index.graph
        opt_q = generate_queries(graph, prof.opt_queries, prof.query_size, prof.seed)
        opt = _per_1000(time_calls(index.smcc, opt_q), len(opt_q))
        ble_q = opt_q[: prof.baseline_queries]
        ble = _per_1000(
            time_calls(lambda q: smcc_baseline(graph, q), ble_q), len(ble_q)
        )
        blr = None
        if name in prof.blr_datasets:
            blr_q = opt_q[: prof.blr_queries]
            blr = _per_1000(
                time_calls(
                    lambda q: smcc_baseline(
                        graph, q, engine="random",
                        trials=prof.blr_trials, seed=prof.seed,
                    ),
                    blr_q,
                ),
                len(blr_q),
            )
        ref = paper.PAPER_TABLE3.get(name, {})
        paper_speedup = ratio(ref.get("SMCC-BLE"), ref.get("SMCC-OPT"))
        table.add_row(name, opt, ble, blr, ratio(ble, opt), paper_speedup)
    return table


def figure5(profile="quick", datasets: Sequence[str] = ("D3", "SSCA2")) -> Table:
    """SMCC query time vs |q| (paper Figure 5)."""
    prof = _profile(profile)
    table = Table(
        "Figure 5: SMCC query time vs |q| (seconds per 1000 queries)",
        ["Graph", "|q|", "SMCC-OPT", "SMCC-BLE"],
    )
    for name in datasets:
        index = prepared_index(name, prof.scale, prof.seed)
        graph = index.graph
        for size in QUERY_SIZES:
            queries = generate_queries(graph, prof.opt_queries, size, prof.seed)
            opt = _per_1000(time_calls(index.smcc, queries), len(queries))
            ble_q = queries[: prof.baseline_queries]
            ble = _per_1000(
                time_calls(lambda q: smcc_baseline(graph, q), ble_q), len(ble_q)
            )
            table.add_row(name, size, opt, ble)
    return table


def table4(profile="quick", datasets: Optional[Sequence[str]] = None) -> Table:
    """SMCC-OPT scalability on large graphs (paper Table 4)."""
    prof = _profile(profile)
    datasets = list(datasets or SCALABILITY_DATASETS)
    table = Table(
        "Table 4: SMCC-OPT scalability (seconds per 1000 queries)",
        ["Graph", "SMCC-OPT", "paper SMCC-OPT"],
    )
    for name in datasets:
        index = prepared_index(name, prof.scale, prof.seed)
        queries = generate_queries(index.graph, prof.opt_queries, prof.query_size, prof.seed)
        opt = _per_1000(time_calls(index.smcc, queries), len(queries))
        table.add_row(name, opt, paper.PAPER_TABLE4.get(name))
    return table


# ----------------------------------------------------------------------
# Table 5 + Figure 6 + Table 10: steiner-connectivity queries
# ----------------------------------------------------------------------
def table5(profile="quick", datasets: Optional[Sequence[str]] = None) -> Table:
    """Steiner-connectivity query time: SC-MST* / SC-MST / SC-BL (Table 5).

    The extra non-paper ``DEEP`` row uses a deep clique chain whose MST
    is a long path: there ``|T_q| >> |q|`` even at reduced scale, so the
    asymptotic SC-MST vs SC-MST* separation is visible under CPython
    (the paper-analog rows are too shallow after down-scaling).
    """
    prof = _profile(profile)
    datasets = list(datasets or QUERY_TABLE_DATASETS + ["DEEP"])
    table = Table(
        "Table 5: steiner-connectivity query time (milliseconds per 1000 queries)",
        ["Graph", "SC-MST*", "SC-MST", "SC-BL",
         "speedup MST/MST*", "paper MST/MST*"],
    )
    for name in datasets:
        index = prepared_index(name, prof.scale, prof.seed)
        graph = index.graph
        queries = generate_queries(graph, prof.opt_queries, prof.query_size, prof.seed)
        star = _per_1000(
            time_calls(lambda q: index.steiner_connectivity(q, method="star"), queries),
            len(queries),
        ) * 1000.0
        walk = _per_1000(
            time_calls(lambda q: index.steiner_connectivity(q, method="walk"), queries),
            len(queries),
        ) * 1000.0
        bl_q = queries[: prof.baseline_queries]
        bl = _per_1000(
            time_calls(lambda q: sc_baseline(graph, q), bl_q), len(bl_q)
        ) * 1000.0
        ref = paper.PAPER_TABLE5.get(name, {})
        table.add_row(
            name, star, walk, bl, ratio(walk, star),
            ratio(ref.get("SC-MST"), ref.get("SC-MST*")),
        )
    return table


def figure6(profile="quick", datasets: Sequence[str] = ("D3", "SSCA2", "DEEP")) -> Table:
    """Steiner-connectivity query time vs |q| (paper Figure 6)."""
    prof = _profile(profile)
    table = Table(
        "Figure 6: steiner-connectivity time vs |q| (milliseconds per 1000 queries)",
        ["Graph", "|q|", "SC-MST*", "SC-MST"],
    )
    for name in datasets:
        index = prepared_index(name, prof.scale, prof.seed)
        for size in QUERY_SIZES:
            queries = generate_queries(index.graph, prof.opt_queries, size, prof.seed)
            star = _per_1000(
                time_calls(lambda q: index.steiner_connectivity(q, method="star"), queries),
                len(queries),
            ) * 1000.0
            walk = _per_1000(
                time_calls(lambda q: index.steiner_connectivity(q, method="walk"), queries),
                len(queries),
            ) * 1000.0
            table.add_row(name, size, star, walk)
    return table


def table10(profile="quick", datasets: Optional[Sequence[str]] = None) -> Table:
    """SC-MST* / SC-MST scalability on large graphs (paper Table 10)."""
    prof = _profile(profile)
    datasets = list(datasets or SCALABILITY_DATASETS)
    table = Table(
        "Table 10: SC scalability (milliseconds per 1000 queries)",
        ["Graph", "SC-MST*", "SC-MST", "paper SC-MST*", "paper SC-MST"],
    )
    for name in datasets:
        index = prepared_index(name, prof.scale, prof.seed)
        queries = generate_queries(index.graph, prof.opt_queries, prof.query_size, prof.seed)
        star = _per_1000(
            time_calls(lambda q: index.steiner_connectivity(q, method="star"), queries),
            len(queries),
        ) * 1000.0
        walk = _per_1000(
            time_calls(lambda q: index.steiner_connectivity(q, method="walk"), queries),
            len(queries),
        ) * 1000.0
        ref = paper.PAPER_TABLE10.get(name, {})
        table.add_row(name, star, walk, ref.get("SC-MST*"), ref.get("SC-MST"))
    return table


# ----------------------------------------------------------------------
# Table 6 + Table 11: SMCC_L queries
# ----------------------------------------------------------------------
def table6(profile="quick", datasets: Optional[Sequence[str]] = None) -> Table:
    """SMCC_L query time: SMCC_L-OPT vs SMCC_L-BL (paper Table 6)."""
    prof = _profile(profile)
    datasets = list(datasets or QUERY_TABLE_DATASETS)
    table = Table(
        "Table 6: SMCC_L query time (seconds per 1000 queries)",
        ["Graph", "L", "SMCCL-OPT", "SMCCL-BL",
         "speedup BL/OPT", "paper BL/OPT"],
    )
    for name in datasets:
        index = prepared_index(name, prof.scale, prof.seed)
        graph = index.graph
        bound = _size_bound(name, prof.scale, prof.seed)
        queries = generate_queries(graph, prof.opt_queries, prof.query_size, prof.seed)
        opt = _per_1000(
            time_calls(lambda q: index.smcc_l(q, size_bound=bound), queries),
            len(queries),
        )
        bl_q = queries[: prof.baseline_queries]
        bl = _per_1000(
            time_calls(lambda q: smcc_l_baseline(graph, q, bound), bl_q), len(bl_q)
        )
        ref = paper.PAPER_TABLE6.get(name, {})
        table.add_row(
            name, bound, opt, bl, ratio(bl, opt),
            ratio(ref.get("SMCCL-BL"), ref.get("SMCCL-OPT")),
        )
    return table


def table11(profile="quick", datasets: Optional[Sequence[str]] = None) -> Table:
    """SMCC_L-OPT scalability on large graphs (paper Table 11)."""
    prof = _profile(profile)
    datasets = list(datasets or SCALABILITY_DATASETS)
    table = Table(
        "Table 11: SMCC_L-OPT scalability (seconds per 1000 queries)",
        ["Graph", "L", "SMCCL-OPT", "paper SMCCL-OPT"],
    )
    for name in datasets:
        index = prepared_index(name, prof.scale, prof.seed)
        bound = _size_bound(name, prof.scale, prof.seed)
        queries = generate_queries(index.graph, prof.opt_queries, prof.query_size, prof.seed)
        opt = _per_1000(
            time_calls(lambda q: index.smcc_l(q, size_bound=bound), queries),
            len(queries),
        )
        table.add_row(name, bound, opt, paper.PAPER_TABLE11.get(name))
    return table


# ----------------------------------------------------------------------
# Table 7: indexing time
# ----------------------------------------------------------------------
def table7(profile="quick", datasets: Optional[Sequence[str]] = None) -> Table:
    """Indexing time: ConnGraph-B / ConnGraph-BS / MST / MST* (Table 7)."""
    prof = _profile(profile)
    datasets = list(datasets or ALL_DATASETS)
    table = Table(
        "Table 7: indexing time (seconds)",
        ["Graph", "ConnGraph-B", "ConnGraph-BS", "MST", "MST*",
         "B/BS", "paper B/BS"],
    )
    for name in datasets:
        graph = get_dataset(name, prof.scale, prof.seed)
        t_batch = time_once(conn_graph_batch, graph.copy())
        watch = Stopwatch()
        conn = conn_graph_sharing(graph)
        t_share = watch.lap()
        mst = build_mst(conn)
        t_mst = watch.lap()
        t_star = time_once(build_mst_star, mst)
        ref = paper.PAPER_TABLE7.get(name, {})
        table.add_row(
            name, t_batch, t_share, t_mst, t_star,
            ratio(t_batch, t_share),
            ratio(ref.get("ConnGraph-B"), ref.get("ConnGraph-BS")),
        )
    return table


# ----------------------------------------------------------------------
# Table 8: index size
# ----------------------------------------------------------------------
def table8(profile="quick", datasets: Optional[Sequence[str]] = None) -> Table:
    """Index size: MST vs connectivity graph (paper Table 8)."""
    prof = _profile(profile)
    datasets = list(datasets or ALL_DATASETS)
    table = Table(
        "Table 8: index size (bytes)",
        ["Graph", "MST", "|Gc|", "MST/|Gc|", "paper MST/|Gc|"],
    )
    for name in datasets:
        index = prepared_index(name, prof.scale, prof.seed)
        mst_bytes = mst_size_bytes(index.mst)
        gc_bytes = connectivity_graph_size_bytes(index.conn_graph)
        ref = paper.PAPER_TABLE8.get(name, {})
        table.add_row(
            name, mst_bytes, gc_bytes, ratio(mst_bytes, gc_bytes),
            ratio(ref.get("MST"), ref.get("Gc")),
        )
    return table


# ----------------------------------------------------------------------
# Table 9: index maintenance
# ----------------------------------------------------------------------
def table9(profile="quick", datasets: Optional[Sequence[str]] = None) -> Table:
    """Average index maintenance time over 40 mixed updates (Table 9)."""
    prof = _profile(profile)
    datasets = list(datasets or [d for d in ALL_DATASETS])
    table = Table(
        "Table 9: average index update time (milliseconds per update)",
        ["Graph", "updates", "avg ms/update", "rebuild ms", "rebuild/update"],
    )
    for name in datasets:
        base_graph = get_dataset(name, prof.scale, prof.seed)
        graph = base_graph.copy()
        watch = Stopwatch()
        conn = conn_graph_sharing(graph)
        mst = build_mst(conn)
        rebuild_ms = watch.lap() * 1000.0
        maintainer = IndexMaintainer(conn, mst)
        ops = generate_update_workload(graph, 20, 20, prof.seed)
        watch.lap()
        for op, u, v in ops:
            if op == "delete":
                maintainer.delete_edge(u, v)
            else:
                maintainer.insert_edge(u, v)
        elapsed = watch.lap()
        avg_ms = elapsed / max(len(ops), 1) * 1000.0
        table.add_row(name, len(ops), avg_ms, rebuild_ms, ratio(rebuild_ms, avg_ms))
    return table


# ----------------------------------------------------------------------
# Ablations (extra, non-paper): each design choice in isolation
# ----------------------------------------------------------------------
def ablations(profile="quick", dataset: str = "SSCA1") -> Table:
    """Quantify the paper's design choices one at a time (DESIGN.md §5).

    Rows compare the optimized implementation against an
    answer-identical variant with exactly one optimization disabled.
    """
    from repro.bench.ablations import (
        NoContractionMaintainer,
        sc_full_bfs,
        smcc_l_heap,
        smcc_unsorted_adjacency,
    )
    from repro.kecc import keccs_exact, keccs_with_core_pruning

    prof = _profile(profile)
    index = prepared_index(dataset, prof.scale, prof.seed)
    graph = index.graph
    mst = index.mst
    queries = generate_queries(graph, prof.opt_queries, prof.query_size, prof.seed)
    bound = _size_bound(dataset, prof.scale, prof.seed)
    table = Table(
        f"Ablations on {dataset} (microseconds per query; lower is better)",
        ["design choice", "optimized", "ablated", "ablation factor"],
    )

    def per_query(fn) -> float:
        return time_calls(fn, queries) / len(queries) * 1e6

    opt = per_query(lambda q: mst.smcc(q))
    abl = per_query(lambda q: smcc_unsorted_adjacency(mst, q))
    table.add_row("SMCC: weight-sorted adjacency", opt, abl, ratio(abl, opt))

    opt = per_query(lambda q: mst.smcc_l(q, bound))
    abl = per_query(lambda q: smcc_l_heap(mst, q, bound))
    table.add_row("SMCC_L: bucket queue vs heap", opt, abl, ratio(abl, opt))

    opt = per_query(lambda q: mst.steiner_connectivity(q))
    abl = per_query(lambda q: sc_full_bfs(mst, q))
    table.add_row("sc: LCA walk vs full BFS", opt, abl, ratio(abl, opt))

    edges = graph.edge_list()
    t_plain = time_once(keccs_exact, graph.num_vertices, edges, 3) * 1e6
    t_pruned = time_once(
        keccs_with_core_pruning, graph.num_vertices, edges, 3, keccs_exact
    ) * 1e6
    table.add_row("KECC: k-core pruning (one k=3 run)", t_pruned, t_plain,
                  ratio(t_plain, t_pruned))

    def run_updates(maintainer_cls) -> float:
        work = graph.copy()
        conn = conn_graph_sharing(work)
        tree = build_mst(conn)
        maintainer = maintainer_cls(conn, tree)
        ops = generate_update_workload(work, 10, 10, prof.seed)
        watch = Stopwatch()
        for op, u, v in ops:
            if op == "delete":
                maintainer.delete_edge(u, v)
            else:
                maintainer.insert_edge(u, v)
        return watch.lap() / max(len(ops), 1) * 1e6

    opt = run_updates(IndexMaintainer)
    abl = run_updates(NoContractionMaintainer)
    table.add_row("maintenance: (k+1)-ecc contraction", opt, abl, ratio(abl, opt))
    return table


# ----------------------------------------------------------------------
# The whole evaluation
# ----------------------------------------------------------------------
EXPERIMENTS: Dict[str, Callable[..., Table]] = {
    "table1_table2": table1_table2,
    "table3": table3,
    "figure5": figure5,
    "table4": table4,
    "table5": table5,
    "figure6": figure6,
    "table6": table6,
    "table7": table7,
    "table8": table8,
    "table9": table9,
    "table10": table10,
    "table11": table11,
    "ablations": ablations,
}


def run_all(profile="quick", names: Optional[Sequence[str]] = None) -> List[Table]:
    """Run every experiment (or the named subset); return the tables."""
    names = list(names or EXPERIMENTS)
    tables = []
    for name in names:
        tables.append(EXPERIMENTS[name](profile))
    return tables


def render_report(tables: Sequence[Table], markdown: bool = False) -> str:
    """Render a list of tables as one report string."""
    if markdown:
        return "\n\n".join(t.to_markdown() for t in tables)
    return "\n\n".join(t.render() for t in tables)
