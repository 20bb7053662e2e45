"""Conformance: every query family on every answering path vs a rebuild.

Every path that answers queries reads one MST* gap table with the same
code: a full snapshot, a star-reuse snapshot (a publish whose spanning
forest did not move shares the previous MST*), a shared-memory worker
view attached after a full swap and after a reuse (the store re-points
the reused star's segments), the caching :class:`ServingIndex`, the
:class:`ShardGateway` and the :class:`SMCCIndex` facade.  Each answer
must equal the paper's MST walks on an index rebuilt from scratch on
that generation's edge set:

- ``sc`` (scalar), ``pair`` and ``batch`` against Algorithm 10
  (:meth:`MSTIndex.steiner_connectivity`), with the batch answering 0
  where the scalar paths raise;
- ``smcc`` against Algorithm 4 (:meth:`MSTIndex.smcc`);
- ``smcc_l`` against Algorithm 5 (:meth:`MSTIndex.smcc_l`) at the
  bounds {1, 2, |SMCC(q)|, |SMCC(q)| + 1, |component|,
  |component| + 1, |V| + 1};
- ``components_at`` (k = 0 included) and ``max_connectivity`` on
  every path that serves them.

Singleton, isolated, disconnected and infeasible queries must raise
the reference's error type, with the same message on every answering
path (and the reference's message for infeasible bounds).

All answers are collected once per module (the gateway forks worker
processes) and every path closes before the first test runs, so the
per-test zero-leak sweep sees a clean ``/dev/shm``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import pytest

from repro.core.queries import SMCCIndex
from repro.errors import DisconnectedQueryError, ReproError
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


@pytest.fixture(autouse=True)
def _zero_leak(shm_leak_sweep):
    yield


#: "full": a publish that moved the spanning forest (a full capture);
#: "delta": the next publish, which kept it and reused the star
GENERATIONS = ("full", "delta")
PATHS = ("snapshot", "view", "serving", "gateway", "facade")
STRUCTURE_PATHS = ("snapshot", "view", "facade")
FAMILIES = ("sc", "pair", "batch", "smcc", "smcc_l")

#: the chord between the K6 and the K5: it moves the spanning forest
FOREST_CHORD = (1, 7)
#: a chord of the 6-cycle (26..31): it changes no sc
CYCLE_CHORD = (26, 29)

#: a query's outcome: ("ok", value) or ("err", type, message)
Outcome = Tuple[object, ...]


def _graph() -> Graph:
    """Two clique chains, an isolated vertex (25) and a 6-cycle (26..31).

    Vertices 0..17 are K6-K5-K7, 18..24 are K4-K3.  Inserting
    FOREST_CHORD moves the spanning forest (a full capture); inserting
    CYCLE_CHORD afterwards does not (a star reuse).
    """
    first = clique_chain_graph([6, 5, 7])
    second = clique_chain_graph([4, 3])
    offset = first.num_vertices
    edges = list(first.edges()) + [
        (u + offset, v + offset) for u, v in second.edges()
    ]
    edges += [(26 + i, 26 + (i + 1) % 6) for i in range(6)]
    return Graph.from_edges(edges, num_vertices=32)


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
    elif hasattr(result, "connectivity"):
        vertices, k = result.vertices, result.connectivity
    elif isinstance(result, list):
        return ("ok", [int(x) for x in result])
    else:
        return ("ok", int(result))
    return ("ok", int(k), sorted(int(v) for v in vertices))


QUERIES = [
    (1,), (19,), (25,), (28,),  # singletons, 25 isolated
    (0, 1), (1, 7), (2, 12), (0, 17), (18, 24), (3, 9, 14),
    (5, 6, 11), (20, 21, 22), (26, 29), (27, 30, 31), (26, 27),
    (0, 18), (4, 25), (26, 0),  # disconnected
]
PAIRS = [q for q in QUERIES if len(q) == 2]
BATCHES = [
    QUERIES[:6],
    [(0, 1), (0, 1), (1, 0)],  # duplicates: cache hits inside one batch
    [(25,), (0, 18), (26, 29, 27)],  # batch convention: 0, not an error
    [(3, 3, 9)],
]


def _cases(reference: MSTIndex) -> Dict[str, List[tuple]]:
    """Every family's cases; smcc_l gets every bound kind per query."""
    n = reference.n
    component_of = {}
    for comp in reference.components_at(0):
        for v in comp:
            component_of[v] = len(comp)
    smcc_l = []
    for q in QUERIES:
        bounds = {1, 2, component_of[q[0]], component_of[q[0]] + 1, n + 1}
        try:
            smcc_size = len(reference.smcc_l(q, 1)[0])
        except ReproError:
            smcc_size = 1
        bounds |= {smcc_size, smcc_size + 1}
        smcc_l.extend((q, bound) for bound in sorted(bounds))
    return {
        "sc": [(q,) for q in QUERIES],
        "pair": PAIRS,
        "batch": [(tuple(batch),) for batch in BATCHES],
        "smcc": [(q,) for q in QUERIES],
        "smcc_l": smcc_l,
    }


def _reference_batch(reference: MSTIndex, batch) -> List[int]:
    answers = []
    for q in batch:
        try:
            answers.append(reference.steiner_connectivity(list(q)))
        except DisconnectedQueryError:
            answers.append(0)
    return answers


#: family -> path -> how the path answers one case
Callers = Dict[str, Callable[..., Outcome]]


def _snapshot_callers(snap) -> Callers:
    return {
        "sc": lambda q: _outcome(snap.steiner_connectivity, list(q)),
        "pair": lambda u, v: _outcome(snap.sc_pair, u, v),
        "batch": lambda b: _outcome(snap.steiner_connectivity_batch, list(b)),
        "smcc": lambda q: _outcome(snap.smcc, list(q)),
        "smcc_l": lambda q, b: _outcome(snap.smcc_l, list(q), b),
    }


def _view_callers(view) -> Callers:
    return {
        "sc": lambda q: _outcome(view.sc, list(q)),
        "pair": lambda u, v: _outcome(view.star.sc_pair, u, v),
        "batch": lambda b: _outcome(view.sc_batch, list(b)),
        "smcc": lambda q: _outcome(view.smcc, list(q)),
        "smcc_l": lambda q, b: _outcome(view.smcc_l, list(q), b),
    }


def _served_callers(front) -> Callers:
    """ServingIndex and ShardGateway share the serving surface."""
    return {
        "sc": lambda q: _outcome(front.sc, list(q)),
        "pair": lambda u, v: _outcome(front.sc, [u, v]),
        "batch": lambda b: _outcome(front.sc_batch, list(b)),
        "smcc": lambda q: _outcome(front.smcc, list(q)),
        "smcc_l": lambda q, b: _outcome(front.smcc_l, list(q), size_bound=b),
    }


def _facade_callers(facade: SMCCIndex) -> Callers:
    return {
        "sc": lambda q: _outcome(facade.steiner_connectivity, list(q)),
        "pair": lambda u, v: _outcome(facade.sc_pair, u, v),
        "batch": lambda b: _outcome(facade.steiner_connectivity_batch, list(b)),
        "smcc": lambda q: _outcome(facade.smcc, list(q)),
        "smcc_l": lambda q, b: _outcome(facade.smcc_l, list(q), size_bound=b),
    }


def _reference_callers(ref: MSTIndex) -> Callers:
    return {
        "sc": lambda q: _outcome(ref.steiner_connectivity, list(q)),
        "pair": lambda u, v: _outcome(ref.steiner_connectivity, [u, v]),
        "batch": lambda b: ("ok", _reference_batch(ref, b)),
        "smcc": lambda q: _outcome(ref.smcc, list(q)),
        "smcc_l": lambda q, b: _outcome(ref.smcc_l, list(q), b),
    }


def _answer_all(callers: Callers, cases) -> Dict[str, Dict[tuple, Outcome]]:
    return {
        family: {case: callers[family](*case) for case in cases[family]}
        for family in FAMILIES
    }


def _structure_of(star_or_index) -> Dict:
    top = star_or_index.max_connectivity()
    found = {
        k: sorted(
            sorted(int(v) for v in c) for c in star_or_index.components_at(k)
        )
        for k in range(top + 2)
    }
    found["max"] = top
    return found


@pytest.fixture(scope="module")
def collected():
    """Answers, structure reads and references of both generations."""
    serving = ServingIndex.build(
        _graph(), config=ServeConfig(region_fraction_limit=1.0)
    )
    snaps = {}
    out: Dict[Tuple[str, str], Dict] = {}
    structure: Dict[Tuple[str, str], Dict] = {}
    references: Dict[str, MSTIndex] = {}
    cases: Dict[str, Dict] = {}
    docs: Dict[str, Dict] = {}

    def collect(kind: str, gateway, store) -> None:
        snap = snaps[kind]
        references[kind] = _rebuild(snap.edges, snap.num_vertices)
        cases[kind] = case_set = _cases(references[kind])
        out[(kind, "snapshot")] = _answer_all(_snapshot_callers(snap), case_set)
        out[(kind, "serving")] = _answer_all(_served_callers(serving), case_set)
        out[(kind, "gateway")] = _answer_all(_served_callers(gateway), case_set)
        facade = SMCCIndex.build(
            Graph.from_edges(snap.edges, num_vertices=snap.num_vertices)
        )
        out[(kind, "facade")] = _answer_all(_facade_callers(facade), case_set)
        structure[(kind, "snapshot")] = _structure_of(snap)
        structure[(kind, "facade")] = _structure_of(facade)
        docs[kind] = store.publish_snapshot(snap)
        view = SharedSnapshotView.attach(store.prefix, snap.generation)
        try:
            out[(kind, "view")] = _answer_all(_view_callers(view), case_set)
            structure[(kind, "view")] = _structure_of(view.star)
        finally:
            view.close()

    with ShardGateway(serving, 2) as gateway, SharedSnapshotStore() as store:
        serving.apply_updates(inserts=[FOREST_CHORD])
        report = serving.publish()
        assert report.mode == "full"
        snaps["full"] = report.snapshot
        collect("full", gateway, store)
        serving.apply_updates(inserts=[CYCLE_CHORD])
        report = serving.publish()
        assert report.mode == "delta" and report.region_size == 0
        snaps["delta"] = report.snapshot
        collect("delta", gateway, store)
    assert snaps["delta"].star is snaps["full"].star
    assert snaps["delta"].edges != snaps["full"].edges
    expected = {
        kind: _answer_all(_reference_callers(ref), cases[kind])
        for kind, ref in references.items()
    }
    expected_structure = {
        kind: _structure_of(ref) for kind, ref in references.items()
    }
    return out, expected, structure, expected_structure, docs


def _assert_matches(got: Dict[tuple, Outcome], want: Dict[tuple, Outcome]):
    assert got.keys() == want.keys()
    for case, reference in want.items():
        have = got[case]
        if reference[0] == "ok":
            assert have == reference, case
            continue
        # Errors: the reference's type; infeasible bounds also carry
        # the reference's message (bound and component size).
        assert have[:2] == reference[:2], (case, have, reference)
        if reference[1] == "InfeasibleSizeConstraintError":
            assert have == reference, case


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("generation", GENERATIONS)
def test_smcc_l_matches_algorithm_5(collected, generation, path):
    out, expected, _, _, _ = collected
    _assert_matches(
        out[(generation, path)]["smcc_l"], expected[generation]["smcc_l"]
    )


@pytest.mark.parametrize("family", ("sc", "pair", "batch", "smcc"))
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("generation", GENERATIONS)
def test_family_matches_rebuild(collected, generation, path, family):
    out, expected, _, _, _ = collected
    _assert_matches(
        out[(generation, path)][family], expected[generation][family]
    )


@pytest.mark.parametrize("generation", GENERATIONS)
def test_every_path_raises_the_same_errors(collected, generation):
    out, _, _, _, _ = collected
    first = out[(generation, PATHS[0])]
    for path in PATHS[1:]:
        for family in FAMILIES:
            for case, outcome in out[(generation, path)][family].items():
                if outcome[0] == "err" or first[family][case][0] == "err":
                    assert outcome == first[family][case], (path, family, case)


@pytest.mark.parametrize("generation", GENERATIONS)
def test_cases_cover_every_query_kind(collected, generation):
    _, expected, _, _, _ = collected
    smcc_l = {outcome[1] for outcome in expected[generation]["smcc_l"].values()}
    assert {
        0, "DisconnectedQueryError", "InfeasibleSizeConstraintError"
    } <= smcc_l
    sc = {outcome[1] for outcome in expected[generation]["sc"].values()}
    assert "DisconnectedQueryError" in sc
    batches = [o[1] for o in expected[generation]["batch"].values()]
    assert any(0 in answers for answers in batches)


@pytest.mark.parametrize("path", STRUCTURE_PATHS)
@pytest.mark.parametrize("generation", GENERATIONS)
def test_components_at_and_max_connectivity(collected, generation, path):
    _, _, structure, expected_structure, _ = collected
    assert structure[(generation, path)] == expected_structure[generation]
    assert 0 in expected_structure[generation]


def test_reuse_generation_repoints_the_star_segments(collected):
    """The view after a reuse mapped the full generation's star segments."""
    *_, docs = collected
    full, reuse = docs["full"]["segments"], docs["delta"]["segments"]
    assert set(full) == set(reuse)
    for name in full:
        same = full[name]["segment"] == reuse[name]["segment"]
        assert same == name.startswith("star."), name
