"""The bench gates: three measurements and the one table they must pass.

perfbench (``BENCHMARK.json``) measures the served read path end to
end, pinned to one CPU.  This module keeps what it cannot see:

- ``build`` — ConnGraph-BS built serially and with ``N`` worker
  processes on a multi-community SSCA graph (the parallel-build ratio);
- ``query`` — each batched read kernel against its scalar per-query
  loop on the same probes (the kernel speedups);
- ``shard`` — the sharded tier's throughput at 1 and 2 worker processes
  on a union of SSCA islands (multi-worker scaling).

Every measurement returns a JSON-ready artifact.  :data:`GATES` is the
one table of rules an artifact must pass: correctness bits compared
exactly, speedup floors, floors that apply only where two CPUs are
usable, and drift bounds against the committed baseline
``BENCH_<kind>.json``.

Usage::

    python -m repro.bench.gates {build,query,shard} -o FRESH.json \\
        --baseline BENCH_<kind>.json

measures, writes the artifact, and applies every row of that kind.
Exit status 0 = every gate passed, 1 = a gate failed, 2 = bad
invocation or unreadable baseline.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import repro.index.mst as _mst_mod
from repro.core.queries import SMCCIndex
from repro.graph.generators import ssca_graph
from repro.graph.graph import Graph
from repro.index.connectivity_graph import conn_graph_sharing
from repro.obs.timing import Stopwatch, monotonic
from repro.parallel import cpu_count
from repro.serve import ServeConfig, ServingIndex, ShardWorkloadSpec, run_shard_workload

SEED = 42


# ----------------------------------------------------------------------
# build: serial vs parallel ConnGraph-BS
# ----------------------------------------------------------------------
#: ConnGraph-BS rounds over this SSCA graph fracture into several large
#: pieces, the shape piece fan-out accelerates (a single monolithic
#: k-core keeps every round at one piece and parallelism idle)
BUILD_N = 6000
#: timing repetitions per side (best-of)
BUILD_REPEATS = 2


def run_build_bench(n: int = BUILD_N) -> Dict[str, Any]:
    """Time serial vs parallel connectivity-graph builds of one graph.

    The parallel side uses ``min(4, max(2, cpus))`` jobs: piece fan-out
    saturates quickly because every round has one dominant piece.
    ``speedup`` is serial over parallel time; ``identical_weights``
    says both builds produced the same sc map.
    """
    cpus = cpu_count()
    jobs = min(4, max(2, cpus))
    graph = ssca_graph(n, seed=SEED)
    watch = Stopwatch()
    serial_s = parallel_s = float("inf")
    serial_weights: Dict[Tuple[int, int], int] = {}
    parallel_weights: Dict[Tuple[int, int], int] = {}
    for _ in range(BUILD_REPEATS):
        watch.lap()
        serial_weights = conn_graph_sharing(graph, jobs=1).weights_dict()
        serial_s = min(serial_s, watch.lap())
        parallel_weights = conn_graph_sharing(graph, jobs=jobs).weights_dict()
        parallel_s = min(parallel_s, watch.lap())
    return {
        "bench": "build",
        "workload": {
            "generator": "ssca",
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "seed": SEED,
        },
        "cpu_count": cpus,
        "jobs": jobs,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
        "identical_weights": serial_weights == parallel_weights,
    }


# ----------------------------------------------------------------------
# query: scalar loops vs batched kernels
# ----------------------------------------------------------------------
QUERY_N = 3000
#: probes per batched family; the larger batch amortizes per-call
#: setup, which is what the batch API is for
QUERY_BATCH = 4096
#: timed repetitions per engine (p50/p99 come from these samples)
QUERY_REPS = 15
#: probes for the per-query smcc families — their scalar engines are
#: output-linear, so a full batch would dominate the runtime without
#: changing the comparison
SMCC_PROBES = 256


def _time_reps(fn: Callable[[], object], reps: int) -> List[float]:
    """Timed samples of ``fn`` (one warmup call first), sorted ascending."""
    fn()
    samples: List[float] = []
    for _ in range(reps):
        started = monotonic()
        fn()
        samples.append(monotonic() - started)
    samples.sort()
    return samples


def _percentile(samples: List[float], q: float) -> float:
    return samples[min(len(samples) - 1, int(q * len(samples)))]


def _family_record(
    scalar: Callable[[], object],
    batched: Callable[[], object],
    probes: int,
    gated: bool,
    reps: int,
) -> Dict[str, Any]:
    scalar_samples = _time_reps(scalar, reps)
    batched_samples = _time_reps(batched, reps)
    scalar_p50 = _percentile(scalar_samples, 0.5)
    batched_p50 = _percentile(batched_samples, 0.5)
    return {
        "gated": gated,
        "probes": probes,
        "scalar_p50_seconds": scalar_p50,
        "scalar_p99_seconds": _percentile(scalar_samples, 0.99),
        "batched_p50_seconds": batched_p50,
        "batched_p99_seconds": _percentile(batched_samples, 0.99),
        "speedup": (scalar_p50 / batched_p50) if batched_p50 else 0.0,
    }


def run_query_bench() -> Dict[str, Any]:
    """Scalar-vs-batched latency for four query families.

    ``sc_pairs`` and ``sc`` (gated) time the :class:`MSTStar` scalar
    loops against one batched call; ``smcc_extract`` (the pure-Python
    pruned BFS against the hybrid pointer-jump dispatch) and ``smcc_l``
    (Algorithm 5's walk against the interval climb) are advisory.
    ``identical_answers`` says every batched answer equalled its scalar
    answer on the full probe set, checked before any timing.
    """
    n, batch, reps = QUERY_N, QUERY_BATCH, QUERY_REPS
    graph = ssca_graph(n, seed=SEED)
    index = SMCCIndex.build(graph)
    star = index.mst_star
    mst = index.mst
    mst._ensure_derived()
    rng = random.Random(SEED * 31 + 3)
    us = [rng.randrange(n) for _ in range(batch)]
    vs = [rng.randrange(n) for _ in range(batch)]
    vs = [v if v != u else (v + 1) % n for u, v in zip(us, vs)]
    queries = [
        tuple(rng.randrange(n) for _ in range(rng.randint(1, 4)))
        for _ in range(batch)
    ]

    identical = star.sc_pairs_batch(us, vs).tolist() == [
        star.sc_pair(u, v) for u, v in zip(us, vs)
    ] and star.steiner_connectivity_batch(queries).tolist() == [
        star.steiner_connectivity(q) for q in queries
    ]

    max_w = mst.max_connectivity()
    rng = random.Random(SEED * 31 + 5)
    extract_probes = [
        (rng.randrange(n), rng.randint(1, max(max_w, 1)))
        for _ in range(SMCC_PROBES)
    ]

    def _extract_pure_python() -> List[List[int]]:
        saved = _mst_mod.ARRAY_KERNEL_MIN_VERTICES
        _mst_mod.ARRAY_KERNEL_MIN_VERTICES = n + 1
        try:
            return [
                mst.vertices_with_connectivity(s, k) for s, k in extract_probes
            ]
        finally:
            _mst_mod.ARRAY_KERNEL_MIN_VERTICES = saved

    def _extract_hybrid() -> List[List[int]]:
        return [mst.vertices_with_connectivity(s, k) for s, k in extract_probes]

    identical = identical and all(
        sorted(before) == sorted(after)
        for before, after in zip(_extract_pure_python(), _extract_hybrid())
    )

    comp = mst.component
    comp_size: Dict[int, int] = {}
    for c in comp:
        comp_size[c] = comp_size.get(c, 0) + 1
    rng = random.Random(SEED * 31 + 11)
    smcc_l_probes: List[Tuple[Tuple[int, int], int]] = []
    while len(smcc_l_probes) < SMCC_PROBES:
        a, b = rng.randrange(n), rng.randrange(n)
        bound = rng.randint(2, 8)
        # Probes stay feasible: the walk raises on components smaller
        # than the bound, which is not what this family measures.
        if a != b and comp[a] == comp[b] and comp_size[comp[a]] >= bound:
            smcc_l_probes.append(((a, b), bound))

    def _smcc_l_walk() -> List[Tuple[List[int], int]]:
        return [mst.smcc_l(q, bound) for q, bound in smcc_l_probes]

    def _smcc_l_interval() -> List[Tuple[List[int], int]]:
        out = []
        leaf_order = star.leaf_order
        for q, bound in smcc_l_probes:
            k, start, end = star.smcc_l_interval(q, bound)
            out.append((leaf_order[start:end], k))
        return out

    identical = identical and all(
        walk_k == intv_k and sorted(walk_v) == sorted(intv_v)
        for (walk_v, walk_k), (intv_v, intv_k) in zip(
            _smcc_l_walk(), _smcc_l_interval()
        )
    )

    smcc_reps = max(3, reps // 3)
    return {
        "bench": "query",
        "workload": {
            "generator": "ssca",
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "seed": SEED,
            "batch": batch,
            "smcc_probes": SMCC_PROBES,
            "reps": reps,
        },
        "identical_answers": identical,
        "families": {
            "sc_pairs": _family_record(
                lambda: [star.sc_pair(u, v) for u, v in zip(us, vs)],
                lambda: star.sc_pairs_batch(us, vs),
                batch, True, reps,
            ),
            "sc": _family_record(
                lambda: [star.steiner_connectivity(q) for q in queries],
                lambda: star.steiner_connectivity_batch(queries),
                batch, True, reps,
            ),
            "smcc_extract": _family_record(
                _extract_pure_python, _extract_hybrid,
                SMCC_PROBES, False, smcc_reps,
            ),
            "smcc_l": _family_record(
                _smcc_l_walk, _smcc_l_interval, SMCC_PROBES, False, smcc_reps,
            ),
        },
    }


# ----------------------------------------------------------------------
# shard: sharded-tier throughput at 1 and 2 workers
# ----------------------------------------------------------------------
SHARD_N = 3000
SHARD_WORKERS = (1, 2)
#: component-affine routing spreads load across workers only when the
#: MST forest has more than one component, so the graph is a union of
#: disjoint SSCA islands
SHARD_ISLANDS = 4
SHARD_CLIENTS = 4
SHARD_QUERIES_PER_CLIENT = 400
SHARD_BATCH_SIZE = 16
SHARD_UPDATES = 8
SHARD_PUBLISH_EVERY = 4


def _island_graph(n: int) -> Graph:
    """:data:`SHARD_ISLANDS` disjoint SSCA communities, each its own range."""
    per = max(30, n // SHARD_ISLANDS)
    islands = [ssca_graph(per, seed=SEED + i) for i in range(SHARD_ISLANDS)]
    graph = Graph(sum(g.num_vertices for g in islands))
    offset = 0
    for island in islands:
        for u, v in island.edges():
            graph.add_edge(u + offset, v + offset)
        offset += island.num_vertices
    return graph


def run_shard_bench() -> Dict[str, Any]:
    """The same seeded workload at each of :data:`SHARD_WORKERS` workers.

    Every point replays identical client streams (all-batch ops, so
    cross-island queries answer 0 instead of erroring) against a fresh
    :class:`ServingIndex` over the same island graph; only ``workers``
    varies.  ``scaling_ratio`` is the top worker count's throughput
    over the single-worker point's.
    """
    graph = _island_graph(SHARD_N)
    points: Dict[str, Dict[str, Any]] = {}
    for workers in SHARD_WORKERS:
        serving = ServingIndex.build(
            graph.copy(), config=ServeConfig(region_fraction_limit=1.0)
        )
        spec = ShardWorkloadSpec(
            workers=workers,
            clients=SHARD_CLIENTS,
            queries_per_client=SHARD_QUERIES_PER_CLIENT,
            query_size=3,
            smcc_fraction=0.0,
            batch_size=SHARD_BATCH_SIZE,
            updates=SHARD_UPDATES,
            publish_every=SHARD_PUBLISH_EVERY,
            seed=SEED,
        )
        record = run_shard_workload(serving, spec)
        stats = record["shard_stats"]
        points[f"workers_{workers}"] = {
            "workers": workers,
            "throughput_qps": record["throughput_qps"],
            "elapsed_seconds": record["elapsed_seconds"],
            "queries_answered": record["queries_answered"],
            "query_errors": record["query_errors"],
            "publishes": record["publishes"],
            "final_generation": record["final_generation"],
            "restarts": stats["restarts"],
            "per_worker_answered": [w["answered"] for w in stats["per_worker"]],
        }
    base = points[f"workers_{SHARD_WORKERS[0]}"]["throughput_qps"] or 0.0
    top = points[f"workers_{SHARD_WORKERS[-1]}"]["throughput_qps"] or 0.0
    return {
        "bench": "shard",
        "workload": {
            "generator": "ssca-islands",
            "islands": SHARD_ISLANDS,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "seed": SEED,
            "clients": SHARD_CLIENTS,
            "queries_per_client": SHARD_QUERIES_PER_CLIENT,
            "batch_size": SHARD_BATCH_SIZE,
            "updates": SHARD_UPDATES,
            "publish_every": SHARD_PUBLISH_EVERY,
        },
        "cpu_count": cpu_count(),
        "points": points,
        "scaling_ratio": (top / base) if base else 0.0,
    }


MEASUREMENTS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "build": run_build_bench,
    "query": run_query_bench,
    "shard": run_shard_bench,
}


# ----------------------------------------------------------------------
# The gate table
# ----------------------------------------------------------------------
class Gate(NamedTuple):
    """One rule an artifact of ``kind`` must pass.

    ``rule`` is one of

    - ``exact`` — the value equals ``threshold`` (same type);
    - ``at_least`` — the value is ``>= threshold``;
    - ``at_least_if_2_cpus`` — as ``at_least`` where the artifact's
      ``cpu_count`` is at least 2, skipped otherwise (two processes
      cannot beat one on one CPU);
    - ``drift`` — the value is no worse than the baseline's by more
      than the fraction ``threshold``, in the ``better`` direction.
    """

    kind: str
    pointer: str
    rule: str
    threshold: Any
    better: str = "higher"


GATES: Tuple[Gate, ...] = (
    Gate("build", "/identical_weights", "exact", True),
    Gate("build", "/speedup", "at_least_if_2_cpus", 1.5),
    Gate("query", "/identical_answers", "exact", True),
    *(
        Gate("query", f"/families/{family}/speedup", "at_least", 5.0)
        for family in ("sc_pairs", "sc")
    ),
    *(
        gate
        for workers in SHARD_WORKERS
        for gate in (
            Gate("shard", f"/points/workers_{workers}/query_errors", "exact", 0),
            Gate("shard", f"/points/workers_{workers}/restarts", "exact", 0),
            Gate(
                "shard",
                f"/points/workers_{workers}/queries_answered",
                "at_least",
                SHARD_CLIENTS * SHARD_QUERIES_PER_CLIENT,
            ),
        )
    ),
    Gate("shard", "/scaling_ratio", "at_least_if_2_cpus", 1.5),
    # Timing on shared boxes is noisy: a candidate may be up to 2x
    # worse than the baseline before a drift row fails.
    *(
        Gate(kind, pointer, "drift", 0.5, better)
        for kind, pointer, better in (
            ("build", "/speedup", "higher"),
            ("build", "/serial_seconds", "lower"),
            ("build", "/parallel_seconds", "lower"),
            ("query", "/families/sc_pairs/speedup", "higher"),
            ("query", "/families/sc/speedup", "higher"),
            ("query", "/families/sc_pairs/batched_p50_seconds", "lower"),
            ("query", "/families/sc/batched_p50_seconds", "lower"),
            ("query", "/families/smcc_extract/batched_p50_seconds", "lower"),
            ("query", "/families/smcc_l/batched_p50_seconds", "lower"),
            ("shard", "/points/workers_1/throughput_qps", "higher"),
            ("shard", "/points/workers_2/throughput_qps", "higher"),
        )
    ),
)


class Outcome(NamedTuple):
    """The verdict on one check: ``status`` is ``pass``, ``FAIL`` or ``skip``."""

    name: str
    status: str
    detail: str


_MISSING = object()


def resolve(doc: Any, pointer: str) -> Any:
    """The value at a JSON pointer (``/a/b``), or a sentinel when absent."""
    for key in pointer.split("/")[1:]:
        if not isinstance(doc, dict) or key not in doc:
            return _MISSING
        doc = doc[key]
    return doc


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _apply(gate: Gate, candidate: Any, baseline: Any) -> Outcome:
    value = resolve(candidate, gate.pointer)
    name = f"{gate.rule} {gate.pointer}"
    if value is _MISSING:
        return Outcome(name, "FAIL", "missing from the candidate")
    if gate.rule == "exact":
        ok = type(value) is type(gate.threshold) and value == gate.threshold
        return Outcome(name, "pass" if ok else "FAIL",
                       f"{value!r} (want {gate.threshold!r})")
    if gate.rule in ("at_least", "at_least_if_2_cpus"):
        if gate.rule == "at_least_if_2_cpus":
            cpus = resolve(candidate, "/cpu_count")
            if not _is_number(cpus):
                return Outcome(name, "FAIL", "cpu_count missing from the candidate")
            if cpus < 2:
                return Outcome(name, "skip", f"{value!r} on {cpus} cpu")
        ok = _is_number(value) and value >= gate.threshold
        return Outcome(name, "pass" if ok else "FAIL",
                       f"{value!r} (want >= {gate.threshold!r})")
    if gate.rule == "drift":
        base = resolve(baseline, gate.pointer)
        if not (_is_number(base) and _is_number(value)):
            return Outcome(name, "FAIL", "not a number in the baseline or candidate")
        if base <= 0:
            return Outcome(name, "skip", f"degenerate baseline {base!r}")
        ratio = value / base if gate.better == "higher" else base / max(value, 1e-12)
        ok = ratio >= 1.0 - gate.threshold
        return Outcome(name, "pass" if ok else "FAIL",
                       f"{value:.4g} vs baseline {base:.4g}: {ratio:.2f}x "
                       f"(floor {1.0 - gate.threshold:.2f}x)")
    raise ValueError(f"unknown gate rule {gate.rule!r}")


def check(kind: str, candidate: Any, baseline: Any) -> List[Outcome]:
    """Every verdict on ``candidate`` against ``baseline`` for ``kind``.

    Both artifacts must be of ``kind`` and record the same workload —
    a drifted workload makes the timing comparison meaningless — and
    the candidate must pass every :data:`GATES` row of ``kind``.
    """
    outcomes = []
    for doc, role in ((baseline, "baseline"), (candidate, "candidate")):
        found = resolve(doc, "/bench")
        outcomes.append(Outcome(
            f"{role} kind", "pass" if found == kind else "FAIL",
            f"{found!r} (want {kind!r})" if found is not _MISSING else "missing",
        ))
    base_workload = resolve(baseline, "/workload")
    cand_workload = resolve(candidate, "/workload")
    same = base_workload is not _MISSING and base_workload == cand_workload
    outcomes.append(Outcome(
        "workload", "pass" if same else "FAIL",
        "unchanged" if same else f"{base_workload!r} -> {cand_workload!r}",
    ))
    outcomes += [_apply(g, candidate, baseline) for g in GATES if g.kind == kind]
    return outcomes


def write_artifact(path: str, result: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure one bench kind and apply its gates."
    )
    parser.add_argument("kind", choices=sorted(MEASUREMENTS))
    parser.add_argument("-o", "--output", default=None,
                        help="where to write the fresh artifact "
                             "(default: fresh_<kind>.json)")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline, BENCH_<kind>.json")
    args = parser.parse_args(argv)
    try:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.baseline}: {exc}", file=sys.stderr)
        return 2
    output = args.output or f"fresh_{args.kind}.json"
    result = MEASUREMENTS[args.kind]()
    write_artifact(output, result)
    print(f"bench {args.kind}: artifact written to {output}")
    outcomes = check(args.kind, result, baseline)
    for outcome in outcomes:
        print(f"  {outcome.status:4s}  {outcome.name:52s} {outcome.detail}")
    failed = sum(o.status == "FAIL" for o in outcomes)
    print(f"{failed} gate(s) failed" if failed else "all gates passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
