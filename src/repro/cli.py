"""Command-line interface: ``python -m repro <command>``.

Commands
--------
stats     print size statistics of an edge-list graph
generate  write a synthetic graph (power-law / ssca / gnm) as an edge list
build     build the SMCC index for an edge-list graph and save it
query     run smcc / sc / smcc-l queries against a saved index
update    apply edge insertions/deletions to a saved index
verify    integrity-check a saved index (fsck)
obs       run a workload with observability on; dump the metrics registry
serve     run a serving workload (readers vs writer) on an index;
          --workers N shards it over N worker processes
bench     run the paper-evaluation harness experiments

Examples
--------
    python -m repro generate ssca -n 2000 -o graph.txt
    python -m repro build graph.txt -o index_dir
    python -m repro query index_dir --sc 1 2 3
    python -m repro query index_dir --smcc 1 2 3 --profile
    python -m repro query index_dir --smcc-l 1 2 3 --size-bound 50
    python -m repro update index_dir --insert 5 99 --delete 1 2
    python -m repro obs index_dir --queries 100 --format prometheus
    python -m repro serve index_dir --readers 4 --queries 500 --obs
    python -m repro serve index_dir --workers 2 --readers 4 --obs
    python -m repro bench table3 figure5
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import List, Optional, Sequence

from repro import SMCCIndex
from repro.errors import ReproError
from repro.graph.generators import gnm_random_graph, power_law_graph, ssca_graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.obs import runtime as obs_runtime
from repro.obs.stats import collect
from repro.obs.timing import Stopwatch


def _cmd_stats(args) -> int:
    graph = read_edge_list(args.graph, relabel=args.relabel)
    degrees = [graph.degree(u) for u in graph.vertices()]
    avg = sum(degrees) / len(degrees) if degrees else 0.0
    print(f"vertices:   {graph.num_vertices}")
    print(f"edges:      {graph.num_edges}")
    print(f"avg degree: {avg:.2f}")
    print(f"max degree: {max(degrees, default=0)}")
    from repro.graph.traversal import connected_components

    comps = connected_components(graph)
    print(f"components: {len(comps)} (largest: {max(map(len, comps), default=0)})")
    return 0


def _cmd_generate(args) -> int:
    if args.model == "ssca":
        graph = ssca_graph(args.vertices, max_clique_size=args.max_clique, seed=args.seed)
    elif args.model == "power-law":
        edges = args.edges or 6 * args.vertices
        graph = power_law_graph(args.vertices, edges, seed=args.seed)
    else:  # gnm
        edges = args.edges or 4 * args.vertices
        graph = gnm_random_graph(args.vertices, edges, seed=args.seed)
    write_edge_list(graph, args.output)
    print(f"wrote {args.model} graph: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges -> {args.output}")
    return 0


def _cmd_build(args) -> int:
    graph = read_edge_list(args.graph, relabel=args.relabel)
    print(f"building index for {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges ...")
    watch = Stopwatch()
    index = SMCCIndex.build(
        graph, method=args.method, engine=args.engine, jobs=args.jobs
    )
    elapsed = watch.lap()
    index.save(args.output)
    print(f"built in {elapsed:.2f}s; saved to {args.output}")
    return 0


def _parse_query(values: Sequence[str]) -> List[int]:
    return [int(v) for v in values]


def _cmd_query(args) -> int:
    if args.profile:
        return _cmd_query_profiled(args)
    index = SMCCIndex.load(args.index)
    ran = False
    if args.sc is not None:
        q = _parse_query(args.sc)
        print(f"sc({q}) = {index.steiner_connectivity(q)}")
        ran = True
    if args.smcc is not None:
        q = _parse_query(args.smcc)
        result = index.smcc(q)
        print(f"SMCC({q}): {len(result)} vertices, "
              f"connectivity {result.connectivity}")
        print(" ".join(map(str, sorted(result.vertices))))
        ran = True
    if args.smcc_l is not None:
        q = _parse_query(args.smcc_l)
        result = index.smcc_l(q, size_bound=args.size_bound)
        print(f"SMCC_L({q}, L={args.size_bound}): {len(result)} vertices, "
              f"connectivity {result.connectivity}")
        print(" ".join(map(str, sorted(result.vertices))))
        ran = True
    if not ran:
        print("nothing to do: pass --sc, --smcc, or --smcc-l", file=sys.stderr)
        return 2
    return 0


def _cmd_query_profiled(args) -> int:
    """``query --profile``: run the queries and emit one JSON document.

    The document carries, per query, the result summary and the
    :class:`~repro.obs.stats.QueryStats` work counters, plus the nested
    span trees and the full metrics snapshot of the run (index load
    included).
    """
    previous = obs_runtime.REGISTRY
    registry = obs_runtime.enable()
    try:
        index = SMCCIndex.load(args.index)
        records = []
        if args.sc is not None:
            q = _parse_query(args.sc)
            with collect() as stats:
                value = index.steiner_connectivity(q)
            stats.query_size = len(q)
            records.append(
                {"kind": "sc", "q": q, "result": value, "stats": stats.as_dict()}
            )
        if args.smcc is not None:
            q = _parse_query(args.smcc)
            result = index.smcc(q)
            records.append({
                "kind": "smcc",
                "q": q,
                "result": {
                    "size": len(result),
                    "connectivity": result.connectivity,
                    "vertices": sorted(result.vertices),
                },
                "stats": result.query_stats.as_dict() if result.query_stats else None,
            })
        if args.smcc_l is not None:
            q = _parse_query(args.smcc_l)
            result = index.smcc_l(q, size_bound=args.size_bound)
            records.append({
                "kind": "smcc_l",
                "q": q,
                "size_bound": args.size_bound,
                "result": {
                    "size": len(result),
                    "connectivity": result.connectivity,
                    "vertices": sorted(result.vertices),
                },
                "stats": result.query_stats.as_dict() if result.query_stats else None,
            })
        if not records:
            print("nothing to do: pass --sc, --smcc, or --smcc-l", file=sys.stderr)
            return 2
        snapshot = registry.snapshot()
        print(json.dumps(
            {
                "index": args.index,
                "queries": records,
                "spans": snapshot.pop("spans"),
                "metrics": snapshot,
            },
            indent=2,
        ))
        return 0
    finally:
        obs_runtime.REGISTRY = previous


def _cmd_update(args) -> int:
    index = SMCCIndex.load(args.index)
    total_changes = 0
    for u, v in args.insert or []:
        changes = index.insert_edge(int(u), int(v))
        total_changes += len(changes)
        print(f"insert ({u}, {v}): {len(changes)} sc changes")
    for u, v in args.delete or []:
        changes = index.delete_edge(int(u), int(v))
        total_changes += len(changes)
        print(f"delete ({u}, {v}): {len(changes)} sc changes")
    index.save(args.index)
    print(f"index updated in place ({total_changes} total sc changes)")
    return 0


def _cmd_verify(args) -> int:
    index = SMCCIndex.load(args.index)
    report = index.verify(sample_pairs=args.samples)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    print(
        f"index OK: {report.num_vertices} vertices, {report.num_edges} edges, "
        f"{report.num_components} components, "
        f"max connectivity {index.max_connectivity()}"
    )
    print(
        f"checked: {report.tree_edges_checked} tree edges, "
        f"{report.non_tree_edges_checked} non-tree edges, "
        f"{report.weights_checked} weights, "
        f"{report.pairs_sampled} sampled sc pairs "
        f"({report.elapsed_seconds:.3f}s)"
    )
    return 0


def _cmd_obs(args) -> int:
    """Run a synthetic query workload with observability on; dump metrics."""
    import random

    from repro.obs.export import to_json, to_prometheus

    previous = obs_runtime.REGISTRY
    registry = obs_runtime.enable()
    try:
        index = SMCCIndex.load(args.index)
        vertices = list(index.graph.vertices())
        if not vertices:
            print("error: empty graph", file=sys.stderr)
            return 1
        rng = random.Random(args.seed)
        for _ in range(args.queries):
            q = rng.sample(vertices, min(3, len(vertices)))
            index.steiner_connectivity(q)
            index.smcc(q)
        if args.format == "prometheus":
            print(to_prometheus(registry), end="")
        else:
            print(to_json(registry))
        return 0
    finally:
        obs_runtime.REGISTRY = previous


def _cmd_serve(args) -> int:
    """Run a serving workload against an index; emit one JSON doc.

    ``--workers N`` (N > 0) routes the workload through the sharded
    multi-process tier instead of the threaded single-process one.
    """
    from repro.serve import (
        ServeConfig,
        ServeWorkloadSpec,
        ServingIndex,
        ShardWorkloadSpec,
        run_serve_workload,
        run_shard_workload,
    )

    previous = obs_runtime.REGISTRY
    registry = obs_runtime.enable() if args.obs else obs_runtime.REGISTRY
    try:
        index = SMCCIndex.load(args.index)
        with warnings.catch_warnings():
            # Show the --delta/--no-delta deprecation on stderr.
            warnings.simplefilter("default", DeprecationWarning)
            config = ServeConfig(
                cache_capacity=args.cache_capacity,
                invalidation=args.invalidation,
                default_timeout=args.timeout,
                default_max_staleness=args.max_staleness,
                delta_publish=args.delta,
            )
        serving = ServingIndex(index, config=config)
        if args.workers > 0:
            shard_spec = ShardWorkloadSpec(
                workers=args.workers,
                clients=args.readers,
                queries_per_client=args.queries,
                query_size=args.query_size,
                smcc_fraction=args.smcc_fraction,
                batch_size=args.batch_size,
                query_pool=args.query_pool,
                updates=args.updates,
                publish_every=args.publish_every,
                seed=args.seed,
                timeout=args.timeout,
                max_staleness=args.max_staleness,
            )
            result = run_shard_workload(serving, shard_spec)
        else:
            spec = ServeWorkloadSpec(
                readers=args.readers,
                queries_per_reader=args.queries,
                query_size=args.query_size,
                smcc_fraction=args.smcc_fraction,
                batch_size=args.batch_size,
                query_pool=args.query_pool,
                updates=args.updates,
                publish_every=args.publish_every,
                seed=args.seed,
            )
            result = run_serve_workload(serving, spec)
        if args.obs and registry is not None:
            snapshot = registry.snapshot()
            result["metrics"] = {
                "counters": {
                    k: v for k, v in snapshot["counters"].items()
                    if k.startswith("serve.")
                },
                "gauges": {
                    k: v for k, v in snapshot["gauges"].items()
                    if k.startswith("serve.")
                },
            }
        print(json.dumps(result, indent=2))
        return 0
    finally:
        obs_runtime.REGISTRY = previous


def _cmd_bench(args) -> int:
    from repro.bench.harness import EXPERIMENTS

    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    for name in names:
        table = EXPERIMENTS[name](args.profile)
        print(table.render())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMCC queries over graphs (SIGMOD'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print statistics of an edge-list graph")
    p.add_argument("graph", help="edge-list file (SNAP format)")
    p.add_argument("--relabel", action="store_true",
                   help="compact sparse vertex ids to 0..n-1")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("generate", help="generate a synthetic graph")
    p.add_argument("model", choices=["ssca", "power-law", "gnm"])
    p.add_argument("-n", "--vertices", type=int, default=1000)
    p.add_argument("-m", "--edges", type=int, default=None)
    p.add_argument("--max-clique", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("build", help="build and save the SMCC index")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("-o", "--output", required=True, help="index directory")
    p.add_argument("--relabel", action="store_true",
                   help="compact sparse vertex ids to 0..n-1 "
                        "(default keeps file ids, so queries use them)")
    p.add_argument("--method", choices=["sharing", "batch"], default="sharing")
    p.add_argument("--engine", choices=["exact", "random", "cut"], default="exact")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for ConnGraph-BS piece fan-out "
                        "(default: $REPRO_JOBS, else 1 = serial)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="query a saved index")
    p.add_argument("index", help="index directory from `build`")
    p.add_argument("--sc", nargs="+", metavar="V", help="steiner-connectivity query")
    p.add_argument("--smcc", nargs="+", metavar="V", help="SMCC query")
    p.add_argument("--smcc-l", nargs="+", metavar="V", help="SMCC_L query")
    p.add_argument("--size-bound", type=int, default=2, help="L for --smcc-l")
    p.add_argument("--profile", action="store_true",
                   help="emit per-query work counters, nested spans, and the "
                        "metrics registry as one JSON document")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("update", help="apply edge updates to a saved index")
    p.add_argument("index", help="index directory")
    p.add_argument("--insert", nargs=2, action="append", metavar=("U", "V"))
    p.add_argument("--delete", nargs=2, action="append", metavar=("U", "V"))
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("verify", help="integrity-check a saved index (fsck)")
    p.add_argument("index", help="index directory")
    p.add_argument("--samples", type=int, default=64,
                   help="random sc pairs to recompute from scratch")
    p.add_argument("--json", action="store_true",
                   help="emit the VerifyReport as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "obs",
        help="run a synthetic workload with observability on; dump metrics",
    )
    p.add_argument("index", help="index directory")
    p.add_argument("--queries", type=int, default=100,
                   help="number of sc+smcc query pairs to run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "prometheus"], default="json")
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "serve",
        help="run a serving workload (readers vs writer) on an index; "
             "--workers N shards it over N worker processes",
    )
    p.add_argument("index", help="index directory from `build`")
    p.add_argument("--readers", type=int, default=4,
                   help="concurrent reader threads")
    p.add_argument("--queries", type=int, default=500,
                   help="queries per reader (the --workload size)")
    p.add_argument("--query-size", type=int, default=3)
    p.add_argument("--smcc-fraction", type=float, default=0.25,
                   help="fraction of reader ops that are SMCC queries")
    p.add_argument("--batch-size", type=int, default=0,
                   help=">0 groups sc queries into batches of this size")
    p.add_argument("--query-pool", type=int, default=0,
                   help=">0 draws queries from a shared pool of this many "
                        "sets (repeat-heavy stream; exercises the cache)")
    p.add_argument("--updates", type=int, default=20,
                   help="writer updates applied while readers run")
    p.add_argument("--publish-every", type=int, default=5,
                   help="publish a new snapshot after this many updates")
    p.add_argument("--cache-capacity", type=int, default=4096)
    p.add_argument("--invalidation", choices=["region", "wholesale"],
                   default="region")
    p.add_argument("--delta", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="deprecated and ignored: a publish reuses the "
                        "previous MST* when the spanning forest is "
                        "unchanged and captures it fully otherwise")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-query deadline in seconds")
    p.add_argument("--max-staleness", type=int, default=None,
                   help="updates an answer may lag; beyond it queries "
                        "degrade to the direct online engine")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--obs", action="store_true",
                   help="include the serve.* metrics in the JSON output")
    p.add_argument("--workers", type=int, default=0,
                   help=">0 serves through the sharded multi-process tier "
                        "(this many worker processes mapping shared-memory "
                        "snapshots); --readers then counts async clients")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("bench", help="run paper-evaluation experiments")
    p.add_argument("experiments", nargs="*", help="e.g. table3 figure5 (default: all)")
    p.add_argument("--profile", choices=["quick", "paper"], default="quick")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
