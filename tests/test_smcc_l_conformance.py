"""SMCC_L conformance: every answering path against Algorithm 5.

Every path that serves ``smcc_l`` — a full snapshot, a delta snapshot
whose patch region is non-empty, a shared-memory worker view, the
caching :class:`ServingIndex`, the :class:`ShardGateway` and the
:class:`SMCCIndex` facade — reads one gap table with the same climb
(:meth:`MSTStar.smcc_l_interval`).  Each answer must equal
:meth:`MSTIndex.smcc_l` (the paper's Algorithm 5 walk) on an index
rebuilt from scratch on that generation's edge set, in ``k`` and in the
vertex set, at the bounds {1, 2, |SMCC(q)|, |SMCC(q)| + 1, |component|,
|component| + 1}.  Singleton, isolated, disconnected and infeasible
queries must raise the reference's error type, with the same message
on every answering path (and the reference's message for infeasible
bounds).  ``components_at`` (k = 0 included) and ``max_connectivity``
get the same treatment on every path that serves them.

All answers are collected once per module (the gateway forks worker
processes) and every path closes before the first test runs, so the
per-test zero-leak sweep sees a clean ``/dev/shm``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.core.queries import SMCCIndex
from repro.errors import ReproError
from repro.graph.generators import clique_chain_graph
from repro.graph.graph import Graph
from repro.index.connectivity_graph import build_connectivity_graph
from repro.index.mst import MSTIndex, build_mst
from repro.serve import (
    ServeConfig,
    ServingIndex,
    ShardGateway,
    SharedSnapshotStore,
    SharedSnapshotView,
)
from repro.serve.delta import DeltaStar


@pytest.fixture(autouse=True)
def _zero_leak(shm_leak_sweep):
    yield


GENERATIONS = ("full", "delta")
PATHS = ("snapshot", "view", "serving", "gateway", "facade")
STRUCTURE_PATHS = ("snapshot", "view", "facade")

#: a query's outcome: ("ok", k, sorted vertices) or ("err", type, message)
Outcome = Tuple[object, ...]


def _graph() -> Graph:
    """Two clique chains, one isolated vertex (25), one spare edge slot.

    Vertices 0..17 are K6-K5-K7, 18..24 are K4-K3; inserting the chord
    (1, 7) later grafts a delta whose region is a proper subtree.
    """
    first = clique_chain_graph([6, 5, 7])
    second = clique_chain_graph([4, 3])
    offset = first.num_vertices
    edges = list(first.edges()) + [
        (u + offset, v + offset) for u, v in second.edges()
    ]
    return Graph.from_edges(edges, num_vertices=offset + second.num_vertices + 1)


def _rebuild(edges, num_vertices: int) -> MSTIndex:
    graph = Graph.from_edges(edges, num_vertices=num_vertices)
    return build_mst(build_connectivity_graph(graph))


def _outcome(call, *args, **kwargs) -> Outcome:
    try:
        result = call(*args, **kwargs)
    except ReproError as exc:
        return ("err", type(exc).__name__, str(exc))
    if isinstance(result, tuple):
        vertices, k = result
    else:
        vertices, k = result.vertices, result.connectivity
    return ("ok", int(k), sorted(int(v) for v in vertices))


def _cases(reference: MSTIndex) -> List[Tuple[Tuple[int, ...], int]]:
    """(query, bound) pairs: every bound kind for every query kind."""
    n = reference.n
    component_of = {}
    for comp in reference.components_at(0):
        for v in comp:
            component_of[v] = len(comp)
    queries = [
        (1,), (19,), (25,),  # singletons, the last one isolated
        (0, 1), (1, 7), (2, 12), (0, 17), (18, 24), (3, 9, 14),
        (5, 6, 11), (20, 21, 22),
        (0, 18), (4, 25),  # disconnected
    ]
    cases = []
    for q in queries:
        bounds = {1, 2, component_of[q[0]], component_of[q[0]] + 1, n + 1}
        try:
            smcc_size = len(reference.smcc_l(q, 1)[0])
        except ReproError:
            smcc_size = 1
        bounds |= {smcc_size, smcc_size + 1}
        cases.extend((q, bound) for bound in sorted(bounds))
    return cases


def _answers(answer, cases) -> Dict[Tuple[Tuple[int, ...], int], Outcome]:
    return {(q, bound): answer(list(q), bound) for q, bound in cases}


@pytest.fixture(scope="module")
def collected():
    """Answers, structure reads and references of both generations."""
    serving = ServingIndex.build(
        _graph(), config=ServeConfig(region_fraction_limit=1.0)
    )
    snaps = {"full": serving.snapshot()}
    out: Dict[Tuple[str, str], Dict] = {}
    structure: Dict[Tuple[str, str], Dict] = {}
    references = {
        "full": _rebuild(snaps["full"].edges, snaps["full"].num_vertices)
    }
    cases = _cases(references["full"])

    def structure_of(star_or_index) -> Dict:
        top = star_or_index.max_connectivity()
        found = {
            k: sorted(
                sorted(int(v) for v in c) for c in star_or_index.components_at(k)
            )
            for k in range(top + 2)
        }
        found["max"] = top
        return found

    def collect(kind: str, gateway: ShardGateway) -> None:
        snap = snaps[kind]
        out[(kind, "snapshot")] = _answers(
            lambda q, b: _outcome(snap.smcc_l, q, b), cases
        )
        out[(kind, "serving")] = _answers(
            lambda q, b: _outcome(serving.smcc_l, q, size_bound=b), cases
        )
        out[(kind, "gateway")] = _answers(
            lambda q, b: _outcome(gateway.smcc_l, q, size_bound=b), cases
        )
        facade = SMCCIndex.build(
            Graph.from_edges(snap.edges, num_vertices=snap.num_vertices)
        )
        out[(kind, "facade")] = _answers(
            lambda q, b: _outcome(facade.smcc_l, q, size_bound=b), cases
        )
        structure[(kind, "snapshot")] = structure_of(snap)
        structure[(kind, "facade")] = structure_of(facade)
        with SharedSnapshotStore() as store:
            store.publish_snapshot(snap)
            view = SharedSnapshotView.attach(store.prefix, snap.generation)
            try:
                out[(kind, "view")] = _answers(
                    lambda q, b: _outcome(view.smcc_l, q, b), cases
                )
                structure[(kind, "view")] = structure_of(view.star)
            finally:
                view.close()

    with ShardGateway(serving, 2) as gateway:
        collect("full", gateway)
        serving.apply_updates(inserts=[(1, 7)])
        report = serving.publish()
        assert report.mode == "delta"
        snaps["delta"] = report.snapshot
        references["delta"] = _rebuild(
            report.snapshot.edges, report.snapshot.num_vertices
        )
        collect("delta", gateway)
    delta_star = snaps["delta"].star
    assert isinstance(delta_star, DeltaStar)
    region = delta_star.region_end - delta_star.region_start
    assert 1 < region < delta_star.num_leaves
    expected = {
        kind: _answers(
            lambda q, b, ref=ref: _outcome(ref.smcc_l, q, b), cases
        )
        for kind, ref in references.items()
    }
    expected_structure = {
        kind: structure_of(ref) for kind, ref in references.items()
    }
    return out, expected, structure, expected_structure


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("generation", GENERATIONS)
def test_smcc_l_matches_algorithm_5(collected, generation, path):
    out, expected, _, _ = collected
    got = out[(generation, path)]
    reference = expected[generation]
    assert got.keys() == reference.keys()
    for case, want in reference.items():
        have = got[case]
        if want[0] == "ok":
            assert have == want, case
            continue
        # Errors: the reference's type; infeasible bounds also carry
        # the reference's message (bound and component size).
        assert have[:2] == want[:2], (case, have, want)
        if want[1] == "InfeasibleSizeConstraintError":
            assert have == want, case


@pytest.mark.parametrize("generation", GENERATIONS)
def test_every_path_raises_the_same_errors(collected, generation):
    out, _, _, _ = collected
    first = out[(generation, PATHS[0])]
    for path in PATHS[1:]:
        for case, outcome in out[(generation, path)].items():
            if outcome[0] == "err" or first[case][0] == "err":
                assert outcome == first[case], (path, case)


@pytest.mark.parametrize("generation", GENERATIONS)
def test_cases_cover_every_query_kind(collected, generation):
    _, expected, _, _ = collected
    kinds = {outcome[1] for outcome in expected[generation].values()}
    assert {
        0, "DisconnectedQueryError", "InfeasibleSizeConstraintError"
    } <= kinds


@pytest.mark.parametrize("path", STRUCTURE_PATHS)
@pytest.mark.parametrize("generation", GENERATIONS)
def test_components_at_and_max_connectivity(collected, generation, path):
    _, _, structure, expected_structure = collected
    assert structure[(generation, path)] == expected_structure[generation]
    assert 0 in expected_structure[generation]
