"""Model-based stateful test for the concurrent serving layer.

Each *interleaving* races reader threads (sc / smcc / batched sc, both
snapshot-direct and through the caching facade) against one writer
applying a random insert/delete/publish schedule.  The writer logs the
exact edge set of every published generation (``IndexSnapshot.edges``);
after the threads join, every recorded answer is checked against an
index **rebuilt from scratch** on the edge set of some single generation
that was live during the call.

This is the serving analogue of the paper's maintenance correctness
argument: an answer derived from a mix of two generations (a torn read,
a stale cache entry surviving an invalidation it should not have) will
match *no* single-generation rebuild and fail the round.

The default suite runs 210 interleavings; the ``serve_stress``-marked
variant scales up readers, operations, and graph size for the CI serve
job.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Optional, Tuple

import pytest
from conftest import CYCLE_CHORD, chain_with_cycle_graph, random_connected_graph

from repro.core.queries import SMCCIndex
from repro.errors import DisconnectedQueryError, InfeasibleSizeConstraintError
from repro.graph.generators import clique_chain_graph
from repro.graph.graph import Graph
from repro.serve import QueryCache, ServeConfig, ServingIndex

@pytest.fixture(autouse=True)
def _zero_leak(shm_leak_sweep):
    """No interleaving may leave /dev/shm dirtier than it found it.

    The threaded rounds allocate no segments (the diff is empty); the
    cross-process shard rounds at the bottom of this module are the real
    audience.
    """
    yield


#: sentinel answer for a query that spans components (per-query paths raise)
DISC = "DISC"

Edge = Tuple[int, int]
#: (generation window low, high, kind, payload, observed answer)
Record = Tuple[int, int, str, object, object]


def _graph_from_edges(num_vertices: int, edges: Tuple[Edge, ...]) -> Graph:
    graph = Graph(num_vertices)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


class _Oracle:
    """From-scratch rebuilt indexes, one per published generation."""

    def __init__(
        self, num_vertices: int, gen_edges: Dict[int, Tuple[Edge, ...]]
    ) -> None:
        self.num_vertices = num_vertices
        self.gen_edges = gen_edges
        self._indexes: Dict[int, SMCCIndex] = {}

    def _index_at(self, generation: int) -> SMCCIndex:
        index = self._indexes.get(generation)
        if index is None:
            graph = _graph_from_edges(
                self.num_vertices, self.gen_edges[generation]
            )
            index = self._indexes[generation] = SMCCIndex.build(graph)
        return index

    def answer(self, generation: int, kind: str, payload: object) -> object:
        """The ground-truth answer at one generation."""
        index = self._index_at(generation)
        if kind == "sc":
            try:
                return index.steiner_connectivity(list(payload))  # type: ignore[call-overload]
            except DisconnectedQueryError:
                return DISC
        if kind == "smcc":
            try:
                result = index.smcc(list(payload))  # type: ignore[call-overload]
            except DisconnectedQueryError:
                return DISC
            return (result.connectivity, tuple(sorted(result.vertices)))
        assert kind == "batch"
        answers: List[int] = []
        for q in payload:  # type: ignore[attr-defined]
            try:
                answers.append(index.steiner_connectivity(list(q)))
            except DisconnectedQueryError:
                answers.append(0)  # the batch convention
        return answers


def _run_reader(
    serving: ServingIndex,
    seed: int,
    ops: int,
    start: threading.Barrier,
    records: List[Record],
    failures: List[str],
) -> None:
    rng = random.Random(seed)
    n = serving.snapshot().num_vertices
    size_cap = min(3, n)
    start.wait()
    for _ in range(ops):
        q = rng.sample(range(n), rng.randint(2, size_cap))
        roll = rng.random()
        g0 = serving.generation
        try:
            if roll < 0.35:
                # Snapshot-direct read: the generation is known exactly.
                snap = serving.snapshot()
                try:
                    value: object = snap.steiner_connectivity(q)
                except DisconnectedQueryError:
                    value = DISC
                records.append(
                    (snap.generation, snap.generation, "sc", tuple(q), value)
                )
                continue
            if roll < 0.65:
                kind = "sc"
                payload: object = tuple(q)
                try:
                    value = serving.sc(q)
                except DisconnectedQueryError:
                    value = DISC
            elif roll < 0.85:
                kind = "smcc"
                payload = tuple(q)
                try:
                    result = serving.smcc(q)
                    value = (
                        result.connectivity,
                        tuple(sorted(result.vertices)),
                    )
                except DisconnectedQueryError:
                    value = DISC
            else:
                kind = "batch"
                qs = [
                    rng.sample(range(n), rng.randint(2, size_cap))
                    for _ in range(3)
                ]
                payload = tuple(tuple(x) for x in qs)
                value = serving.sc_batch(qs)
            records.append((g0, serving.generation, kind, payload, value))
        except Exception as exc:  # noqa: BLE001 - report, don't hang the join
            failures.append(f"reader(seed={seed}) raised {exc!r}")
            return


def _check_edge_log(serving: ServingIndex, report) -> None:
    """The publisher's incremental edge log is the live sorted edge set.

    Full captures and star reuses both publish ``tuple(_edges_list)`` instead
    of re-sorting the graph, so after every publish that list — and the
    snapshot's ``edges`` — must equal ``sorted(graph.edges())``.
    """
    publisher = serving.publisher
    with publisher.lock:
        live = sorted(publisher.index.graph.edges())
        assert publisher._edges_list == live
    assert list(report.snapshot.edges) == live


def _run_writer(
    serving: ServingIndex,
    seed: int,
    updates: int,
    start: threading.Barrier,
    gen_edges: Dict[int, Tuple[Edge, ...]],
    gen_lock: threading.Lock,
    failures: List[str],
    modes: Optional[Dict[str, int]] = None,
) -> None:
    rng = random.Random(seed)
    present = sorted(serving.snapshot().edges)
    removed: List[Edge] = []

    def _publish() -> None:
        report = serving.publish()
        _check_edge_log(serving, report)
        with gen_lock:
            gen_edges[report.generation] = report.snapshot.edges
            if modes is not None:
                modes[report.mode] = modes.get(report.mode, 0) + 1

    start.wait()
    try:
        for _ in range(updates):
            do_insert = bool(removed) and (rng.random() < 0.5 or not present)
            if do_insert:
                u, v = removed.pop(rng.randrange(len(removed)))
                serving.apply_updates(inserts=[(u, v)])
                present.append((u, v))
            else:
                index = rng.randrange(len(present))
                u, v = present.pop(index)
                serving.apply_updates(deletes=[(u, v)])
                removed.append((u, v))
            if rng.random() < 0.4:
                _publish()
        _publish()
    except Exception as exc:  # noqa: BLE001 - report, don't hang the join
        failures.append(f"writer(seed={seed}) raised {exc!r}")


def _run_round(
    seed: int,
    *,
    readers: int = 2,
    reader_ops: int = 10,
    updates: int = 8,
    min_n: int = 10,
    max_n: int = 14,
    config: Optional[ServeConfig] = None,
    modes: Optional[Dict[str, int]] = None,
) -> int:
    """One interleaving; returns the number of verified answers."""
    graph = random_connected_graph(seed * 31 + 7, min_n=min_n, max_n=max_n)
    if config is None:
        # Rotate invalidation strategies so both are raced; lift the
        # region fraction limit to stress cache carry-over as hard as
        # possible.
        config = ServeConfig(
            cache_capacity=64,
            invalidation="region" if seed % 3 else "wholesale",
            region_fraction_limit=1.0,
        )
    serving = ServingIndex.build(graph, config=config)
    gen_edges: Dict[int, Tuple[Edge, ...]] = {0: serving.snapshot().edges}
    gen_lock = threading.Lock()
    failures: List[str] = []
    reader_records: List[List[Record]] = [[] for _ in range(readers)]
    start = threading.Barrier(readers + 1)
    threads = [
        threading.Thread(
            target=_run_reader,
            args=(serving, seed * 1009 + i, reader_ops, start,
                  reader_records[i], failures),
            name=f"stateful-reader-{i}",
        )
        for i in range(readers)
    ]
    threads.append(
        threading.Thread(
            target=_run_writer,
            args=(serving, seed * 977 + 5, updates, start, gen_edges,
                  gen_lock, failures, modes),
            name="stateful-writer",
        )
    )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures

    oracle = _Oracle(graph.num_vertices, gen_edges)
    verified = 0
    for records in reader_records:
        for g0, g1, kind, payload, value in records:
            window = range(g0, g1 + 1)
            matches = {g: oracle.answer(g, kind, payload) for g in window}
            assert any(answer == value for answer in matches.values()), (
                f"seed={seed}: {kind}({payload!r}) answered {value!r}, "
                f"but no single generation in {g0}..{g1} agrees: {matches!r} "
                "(mixed-generation or stale-cache answer)"
            )
            verified += 1
    return verified


# 7 blocks x 30 seeds = 210 interleavings (> the 200 the issue demands).
INTERLEAVINGS_PER_BLOCK = 30
BLOCKS = 7


@pytest.mark.parametrize("block", range(BLOCKS))
def test_serve_stateful_interleavings(block):
    verified = 0
    modes: Dict[str, int] = {}
    for offset in range(INTERLEAVINGS_PER_BLOCK):
        verified += _run_round(
            block * INTERLEAVINGS_PER_BLOCK + offset, modes=modes
        )
    assert verified > 0  # every round produced and verified answers
    # The block raced both publish modes: writes that moved the tree
    # captured full snapshots, and writes that did not reused the star.
    assert modes.get("full", 0) > 0, modes
    assert modes.get("delta", 0) > 0, modes


def test_final_generation_matches_live_graph():
    """After the race, the last published edge log is the live graph."""
    seed = 4242
    graph = random_connected_graph(seed, min_n=10, max_n=14)
    serving = ServingIndex.build(graph)
    gen_edges = {0: serving.snapshot().edges}
    start = threading.Barrier(2)
    failures: List[str] = []
    writer = threading.Thread(
        target=_run_writer,
        args=(serving, seed, 12, start, gen_edges, threading.Lock(), failures),
    )
    writer.start()
    start.wait()
    writer.join()
    assert not failures, failures
    snap = serving.snapshot()
    with serving.publisher.lock:
        live_edges = tuple(sorted(serving.publisher.index.graph.edges()))
    assert snap.edges == live_edges
    assert gen_edges[snap.generation] == snap.edges
    assert serving.staleness() == 0


def test_round_under_lock_sanitizer():
    """One full interleaving with the runtime lock sanitizer armed.

    Programmatic ``enable()`` arms the lock factories, so every lock a
    fresh :class:`ServingIndex` creates is instrumented: a lock-order
    inversion or a guard violation on this schedule raises
    :class:`TsanError` inside a thread and fails the round.  (The CI
    concurrency job additionally runs the whole suite with
    ``REPRO_TSAN=1``, which also arms the per-attribute guard checks —
    those bind at import time.)
    """
    from repro.analysis import tsan

    was_enabled = tsan.enabled()
    if not was_enabled:
        tsan.enable()
    try:
        verified = _run_round(777)
        assert verified > 0
        graph = random_connected_graph(778, min_n=8, max_n=10)
        serving = ServingIndex.build(graph)
        assert isinstance(serving.cache._lock, tsan.SanitizedLock)
        assert isinstance(serving.publisher.lock, tsan.SanitizedRLock)
    finally:
        if not was_enabled:
            tsan.disable()
            tsan.reset()


def _check_snapshot_against_rebuild(snap, queries) -> None:
    """Every answer of one published snapshot vs a from-scratch rebuild."""
    graph = _graph_from_edges(snap.num_vertices, snap.edges)
    rebuilt = SMCCIndex.build(graph)
    for q in queries:
        try:
            expected: object = rebuilt.steiner_connectivity(list(q))
        except DisconnectedQueryError:
            expected = DISC
        try:
            got: object = snap.steiner_connectivity(list(q))
        except DisconnectedQueryError:
            got = DISC
        assert got == expected, (
            f"gen {snap.generation}: sc({q!r}) = {got!r}, rebuild says "
            f"{expected!r}"
        )


def test_alternating_delta_and_full_publishes_match_rebuild():
    """Deterministic reuse/full alternation on one serving index.

    The cycle chord changes no steiner-connectivity, so its insert and
    delete keep the spanning forest and the publisher reuses the star
    (mode ``"delta"``); fresh chords between cliques, and dropping the
    bridge that disconnects the graph, move the tree and publish a
    full capture.  Every published generation — whichever mode
    produced it — must agree with an index rebuilt from scratch on
    that generation's edge log.
    """
    queries = (
        [0, 1], [1, 2, 3], [5, 6], [9, 10, 11], [0, 9], [2, 13],
        [15, 18], [16, 17, 20], [14, 19],
    )
    serving = ServingIndex.build(
        chain_with_cycle_graph(),
        config=ServeConfig(region_fraction_limit=1.0),
    )
    modes: List[str] = []

    def publish_and_check():
        report = serving.publish()
        modes.append(report.mode)
        _check_edge_log(serving, report)
        _check_snapshot_against_rebuild(report.snapshot, queries)

    for u, v in ((1, 6), (2, 7), (3, 10), (6, 11)):
        for batch in (
            {"inserts": [CYCLE_CHORD]},
            {"inserts": [(u, v)]},
            {"deletes": [CYCLE_CHORD]},
            {"deletes": [(u, v)]},
        ):
            report_u = serving.apply_updates(**batch)
            assert report_u.num_applied == 1 and report_u.num_noops == 0
            publish_and_check()
        # Structural churn: drop the K5-K4 bridge (disconnects), then
        # restore it.
        serving.apply_updates(deletes=[(0, 5)])
        publish_and_check()
        serving.apply_updates(inserts=[(0, 5)])
        publish_and_check()
        # The caching facade agrees with the current snapshot.
        for q in queries:
            try:
                expected = serving.snapshot().steiner_connectivity(list(q))
            except DisconnectedQueryError:
                expected = None
            if expected is not None:
                assert serving.sc(list(q)) == expected
    assert modes.count("delta") == 8, modes  # every cycle-chord write
    assert "full" in modes, modes


def test_delta_publish_shares_untouched_buffers():
    """A star reuse shares every star buffer: the *same objects*."""
    from repro.serve import named_buffers, shared_fraction

    serving = ServingIndex.build(chain_with_cycle_graph())
    prev = serving.snapshot()
    serving.apply_updates(inserts=[CYCLE_CHORD])
    report = serving.publish()
    assert report.mode == "delta"
    assert shared_fraction(prev, report.snapshot) == report.shared_fraction
    before = named_buffers(prev)
    after = named_buffers(report.snapshot)
    assert sorted(after) == sorted(before)
    for name in before:
        if name.startswith("star."):
            assert after[name] is before[name], name
    # The edge log is the one per-generation buffer; a snapshot
    # carries no MST working copy (no read path walks one).
    assert after["edges"] is not before["edges"]
    assert not [name for name in after if name.startswith("mst.")]
    assert report.shared_fraction == 5 / 6


def test_delta_publish_stays_read_only():
    """A star-reuse publish shares read-only buffers, with no switch set.

    The reused MST* is shared by object identity, and every buffer of
    it rejects writes at the call site: the leaf order is a tuple, the
    tables are read-only arrays and the climb's rows read-only
    memoryviews, so no generation can corrupt another through them.
    """
    from repro.serve import named_buffers

    serving = ServingIndex.build(chain_with_cycle_graph())
    prev = serving.snapshot()
    serving.apply_updates(inserts=[CYCLE_CHORD])
    report = serving.publish()
    assert report.mode == "delta"
    assert report.shared_fraction >= 0.5
    before = named_buffers(prev)
    after = named_buffers(report.snapshot)
    for name in before:
        if name.startswith("star."):
            assert after[name] is before[name], name
    with pytest.raises(TypeError):
        after["star.leaf_order"][0] = -1
    with pytest.raises(TypeError):
        report.snapshot.star._jump[0][0] = 99
    with pytest.raises(TypeError):
        report.snapshot.star._jump[0] = None
    for name in ("star.rmq", "star.runs", "star.jump"):
        with pytest.raises(ValueError, match="read-only"):
            after[name][0, 0] = 99
    _check_snapshot_against_rebuild(
        report.snapshot,
        ([0, 1], [1, 6], [9, 10, 11], [2, 13], [15, 18], [16, 19]),
    )


class _TwinCache:
    """The serving cache plus a reference fed the same puts.

    The live cache receives the touch sets the serving layer builds
    (leaf intervals where an interval exists); the reference receives
    the explicit frozensets the interval encoding replaced: the
    answer's component plus the query vertices.  After every
    :meth:`advance` both must hold the same keys.
    """

    def __init__(self, *, capacity: int, generation: int) -> None:
        self.live = QueryCache(capacity=capacity, generation=generation)
        self.reference = QueryCache(capacity=capacity, generation=generation)
        self.serving: Optional[ServingIndex] = None
        #: live touch encoding -> puts, as ("interval" | "set", kind, mode)
        self.puts: Dict[Tuple[str, str, str], int] = {}
        #: the star each generation served, to tell star reuses apart
        self.stars: Dict[int, object] = {}
        self.carried = 0
        self.dropped = 0

    def get(self, key, generation):
        return self.live.get(key, generation)

    def put(self, key, value, generation, touch=frozenset()):
        assert self.serving is not None
        snapshot = self.serving.snapshot()
        assert snapshot.generation == generation  # sequential replay
        self.stars.setdefault(generation, snapshot.star)
        vertex_touch = _vertex_touch(snapshot, key, value)
        if isinstance(touch, tuple):
            leaf_position, start, end = touch
            assert leaf_position is snapshot.star.leaf_position
            named = {
                v for v, pos in enumerate(leaf_position) if start <= pos < end
            }
            assert named == vertex_touch, (key, value)
        else:
            assert touch == vertex_touch, (key, value)
        self.live.put(key, value, generation, touch)
        self.reference.put(key, value, generation, vertex_touch)
        tag = (
            "set" if isinstance(touch, frozenset) else "interval",
            key[0],
            "delta"
            if any(
                star is snapshot.star
                for g, star in self.stars.items()
                if g < generation
            )
            else "full",
        )
        self.puts[tag] = self.puts.get(tag, 0) + 1

    def advance(self, new_generation, affected=None):
        self.stars.setdefault(new_generation, self.serving.snapshot().star)
        before = _resident_keys(self.live)
        dropped = self.live.advance(new_generation, affected)
        assert self.reference.advance(new_generation, affected) == dropped
        after = _resident_keys(self.live)
        assert after == _resident_keys(self.reference), (
            f"advance to {new_generation} with affected={sorted(affected or ())}: "
            f"interval touches kept {sorted(after)}, vertex-set touches "
            f"kept {sorted(_resident_keys(self.reference))}"
        )
        self.carried += len(after)
        self.dropped += len(before) - len(after)
        return dropped

    def stats(self):
        return self.live.stats()


def _vertex_touch(snapshot, key, value) -> frozenset:
    """An answer's touch set as an explicit vertex set."""
    kind, q, _ = key
    if kind == "sc":
        if value <= 0:
            return frozenset(q)
        start, end = snapshot.star.component_interval(q[0], value)
        return frozenset(snapshot.star.leaf_order[start:end]).union(q)
    return frozenset(value.vertices).union(q)


def _resident_keys(cache: QueryCache) -> frozenset:
    with cache._lock:
        return frozenset(cache._entries)


def _replay_twin(seed: int, monkeypatch, ops: int = 60) -> _TwinCache:
    """One stateful trace, replayed sequentially through a twin cache.

    The reads and writes of :func:`_run_round`, plus ``smcc_l``, run in
    one seeded sequence instead of racing threads, so both caches see
    the same puts and advances.  Every served answer is also checked
    against the snapshot it was served at.  A few inserts attach new
    vertex ids, growing the graph past older generations' leaf orders.
    """
    import repro.serve.serving as serving_module

    shape = seed % 4
    if shape == 0:
        graph = random_connected_graph(seed * 31 + 7, min_n=10, max_n=14)
    elif shape == 1:
        graph = _union_graph(seed)  # churn in one component spares the other
    else:
        graph = clique_chain_graph([5, 4, 6] if shape == 2 else [4, 6, 4, 5])
    monkeypatch.setattr(serving_module, "QueryCache", _TwinCache)
    serving = ServingIndex.build(
        graph,
        config=ServeConfig(cache_capacity=64, region_fraction_limit=1.0),
    )
    monkeypatch.undo()
    twin = serving.cache
    assert isinstance(twin, _TwinCache)
    twin.serving = serving
    rng = random.Random(seed)
    n = graph.num_vertices
    grown = n
    present = sorted(serving.snapshot().edges)
    removed: List[Edge] = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.25:
            if grown < n + 3 and rng.random() < 0.1:
                serving.apply_updates(inserts=[(rng.randrange(n), grown)])
                grown += 1
            elif removed and (rng.random() < 0.5 or not present):
                edge = removed.pop(rng.randrange(len(removed)))
                serving.apply_updates(inserts=[edge])
                present.append(edge)
            else:
                edge = present.pop(rng.randrange(len(present)))
                serving.apply_updates(deletes=[edge])
                removed.append(edge)
            continue
        if roll < 0.35:
            serving.publish()
            continue
        q = rng.sample(range(n), rng.randint(1, 3))
        snap = serving.snapshot()
        kind = rng.choice(("sc", "smcc", "smcc_l", "batch"))
        if kind == "batch":
            qs = [q, rng.sample(range(n), 2)]
            assert serving.sc_batch(qs) == snap.steiner_connectivity_batch(qs)
            continue
        if kind == "sc":
            served = _outcome(serving.sc, q)
            direct = _outcome(snap.steiner_connectivity, q)
        elif kind == "smcc":
            served, direct = _outcome(serving.smcc, q), _outcome(snap.smcc, q)
        else:
            bound = rng.randint(1, n)
            served = _outcome(serving.smcc_l, q, size_bound=bound)
            direct = _outcome(snap.smcc_l, q, bound)
        assert served == direct, (seed, kind, q)
    serving.publish()
    return twin


def _outcome(call, *args, **kwargs) -> object:
    """A comparable answer, or the name of the error raised."""
    try:
        result = call(*args, **kwargs)
    except (DisconnectedQueryError, InfeasibleSizeConstraintError) as exc:
        return type(exc).__name__
    if isinstance(result, int):
        return result
    return result.connectivity, sorted(result.vertices)


def test_interval_and_vertex_set_touches_carry_the_same_entries(monkeypatch):
    """Differential: interval touch sets drop exactly what vertex sets did.

    Replays seeded traces through two caches fed the same puts — one
    storing the serving layer's leaf-interval touches, one storing the
    equivalent explicit vertex sets — and requires the same carried
    key set after every advance, across full and star-reuse generations.
    """
    carried = dropped = 0
    puts: Dict[Tuple[str, str, str], int] = {}
    for seed in range(48):
        twin = _replay_twin(seed, monkeypatch)
        carried += twin.carried
        dropped += twin.dropped
        for tag, count in twin.puts.items():
            puts[tag] = puts.get(tag, 0) + count
    assert carried > 0 and dropped > 0, (carried, dropped)
    for tag in (
        ("interval", "sc", "full"),
        ("interval", "sc", "delta"),
        ("interval", "smcc", "delta"),
        ("interval", "smcc_l", "full"),
        ("interval", "smcc_l", "delta"),
    ):
        assert puts.get(tag, 0) > 0, (tag, puts)


@pytest.mark.serve_stress
@pytest.mark.parametrize("seed", range(1000, 1020))
def test_serve_stateful_stress(seed):
    """Heavier interleavings for the CI serve job: 4 readers, more churn."""
    verified = _run_round(
        seed,
        readers=4,
        reader_ops=40,
        updates=24,
        min_n=16,
        max_n=24,
    )
    assert verified >= 4  # every reader recorded work


# ----------------------------------------------------------------------
# Cross-process model suite: the sharded tier against the same oracle
# ----------------------------------------------------------------------
#
# The clients now talk to worker *processes* mapping shared-memory
# snapshots, racing a writer that publishes through the store's
# exporter hook.  The invariant is unchanged: every recorded answer
# must equal a from-scratch rebuild at some single generation that was
# live during the call.  The generation window is read off the shared
# head segment (monotonic, seqlock-protected), so a worker serving a
# torn manifest, a stale mapping, or a half-retired generation matches
# no window entry and fails the round.

from repro.serve import ShardGateway  # noqa: E402


def _union_graph(seed: int, *, min_n: int = 8, max_n: int = 12) -> Graph:
    """Two random connected components in one vertex space.

    Sharding is component-affine, so a single-component graph pins every
    query to one worker; two components exercise both workers *and* the
    cross-component DISC paths.
    """
    a = random_connected_graph(seed, min_n=min_n, max_n=max_n)
    b = random_connected_graph(seed + 1, min_n=min_n, max_n=max_n)
    graph = Graph(a.num_vertices + b.num_vertices)
    for u, v in a.edges():
        graph.add_edge(u, v)
    for u, v in b.edges():
        graph.add_edge(u + a.num_vertices, v + a.num_vertices)
    return graph


def _run_shard_client(
    gateway: ShardGateway,
    seed: int,
    ops: int,
    start: threading.Barrier,
    records: List[Record],
    failures: List[str],
) -> None:
    rng = random.Random(seed)
    n = gateway.serving.snapshot().num_vertices
    size_cap = min(3, n)
    head = gateway.store.head_generation
    start.wait()
    for _ in range(ops):
        q = rng.sample(range(n), rng.randint(2, size_cap))
        roll = rng.random()
        g0 = head()
        try:
            if roll < 0.45:
                kind, payload = "sc", tuple(q)
                try:
                    value: object = gateway.sc(q)
                except DisconnectedQueryError:
                    value = DISC
            elif roll < 0.75:
                kind, payload = "smcc", tuple(q)
                try:
                    result = gateway.smcc(q)
                    value = (
                        result.connectivity,
                        tuple(sorted(result.vertices)),
                    )
                except DisconnectedQueryError:
                    value = DISC
            else:
                kind = "batch"
                qs = [
                    rng.sample(range(n), rng.randint(2, size_cap))
                    for _ in range(3)
                ]
                payload = tuple(tuple(x) for x in qs)
                value = gateway.sc_batch(qs)
            records.append((g0, head(), kind, payload, value))
        except Exception as exc:  # noqa: BLE001 - report, don't hang the join
            failures.append(f"shard-client(seed={seed}) raised {exc!r}")
            return


def _run_shard_round(
    seed: int,
    *,
    workers: int = 2,
    clients: int = 2,
    client_ops: int = 8,
    updates: int = 6,
    min_n: int = 8,
    max_n: int = 12,
) -> Tuple[int, Dict[str, object]]:
    """One cross-process interleaving; returns (verified, shard stats)."""
    graph = _union_graph(seed * 53 + 13, min_n=min_n, max_n=max_n)
    config = ServeConfig(
        invalidation="region" if seed % 3 else "wholesale",
        region_fraction_limit=1.0,
    )
    serving = ServingIndex.build(graph, config=config)
    gen_edges: Dict[int, Tuple[Edge, ...]] = {0: serving.snapshot().edges}
    gen_lock = threading.Lock()
    failures: List[str] = []
    client_records: List[List[Record]] = [[] for _ in range(clients)]
    with ShardGateway(serving, workers) as gateway:
        start = threading.Barrier(clients + 1)
        threads = [
            threading.Thread(
                target=_run_shard_client,
                args=(gateway, seed * 1013 + i, client_ops, start,
                      client_records[i], failures),
                name=f"shard-client-{i}",
            )
            for i in range(clients)
        ]
        threads.append(
            threading.Thread(
                target=_run_writer,
                args=(serving, seed * 983 + 3, updates, start, gen_edges,
                      gen_lock, failures),
                name="shard-writer",
            )
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = gateway.stats()
    assert not failures, failures

    oracle = _Oracle(graph.num_vertices, gen_edges)
    verified = 0
    for records in client_records:
        for g0, g1, kind, payload, value in records:
            window = range(g0, g1 + 1)
            matches = {g: oracle.answer(g, kind, payload) for g in window}
            assert any(answer == value for answer in matches.values()), (
                f"seed={seed}: shard {kind}({payload!r}) answered {value!r}, "
                f"but no single generation in {g0}..{g1} agrees: {matches!r} "
                "(torn manifest, stale mapping, or half-retired generation)"
            )
            verified += 1
    return verified, stats


@pytest.mark.parametrize("seed", range(4))
def test_shard_serve_stateful_interleavings(seed):
    verified, stats = _run_shard_round(seed)
    assert verified > 0
    assert stats["worker_totals"]["answered"] > 0  # type: ignore[index]
    assert stats["restarts"] == 0, stats


def test_shard_round_spreads_over_both_workers():
    """Component-affine routing loads both workers on a 2-component graph."""
    _, stats = _run_shard_round(2, clients=3, client_ops=12, updates=4)
    answering = [
        w for w in stats["per_worker"]  # type: ignore[index]
        if w["answered"] > 0
    ]
    assert len(answering) == 2, stats["per_worker"]  # type: ignore[index]


def test_shard_async_coalesced_answers_match_some_generation():
    """The asyncio front under churn: every coalesced answer has a home.

    ``sc_async`` uses the batch convention (disconnected -> 0), so the
    oracle kind is ``batch`` with singleton queries.  The writer
    publishes between flush ticks; a coalesced batch answered from a
    mix of generations would fail the window check.
    """
    import asyncio

    seed = 97
    graph = _union_graph(seed, min_n=8, max_n=12)
    serving = ServingIndex.build(
        graph, config=ServeConfig(region_fraction_limit=1.0)
    )
    gen_edges: Dict[int, Tuple[Edge, ...]] = {0: serving.snapshot().edges}
    records: List[Record] = []
    n = graph.num_vertices

    with ShardGateway(serving, 2) as gateway:
        head = gateway.store.head_generation

        async def client(client_seed: int) -> None:
            rng = random.Random(client_seed)
            for _ in range(12):
                q = rng.sample(range(n), rng.randint(2, 3))
                g0 = head()
                value = await gateway.sc_async(q)
                records.append((g0, head(), "batch", (tuple(q),), [value]))

        async def writer() -> None:
            rng = random.Random(seed * 7 + 1)
            present = sorted(serving.snapshot().edges)
            for _ in range(4):
                await asyncio.sleep(0)  # yield: let enqueues interleave
                u, v = present.pop(rng.randrange(len(present)))
                serving.apply_updates(deletes=[(u, v)])
                report = serving.publish()
                gen_edges[report.generation] = report.snapshot.edges

        async def main() -> None:
            await asyncio.gather(
                client(seed * 11 + 1), client(seed * 11 + 2), writer()
            )

        asyncio.run(main())
        stats = gateway.stats()

    oracle = _Oracle(n, gen_edges)
    for g0, g1, kind, payload, value in records:
        matches = {
            g: oracle.answer(g, kind, payload) for g in range(g0, g1 + 1)
        }
        assert any(answer == value for answer in matches.values()), (
            f"async {kind}({payload!r}) answered {value!r}; "
            f"no generation in {g0}..{g1} agrees: {matches!r}"
        )
    assert stats["worker_totals"]["answered"] >= 24  # type: ignore[index]


@pytest.mark.serve_stress
@pytest.mark.parametrize("seed", range(2000, 2008))
def test_shard_serve_stateful_stress(seed):
    """Heavier cross-process interleavings for the CI shard job."""
    verified, stats = _run_shard_round(
        seed,
        clients=4,
        client_ops=20,
        updates=12,
        min_n=10,
        max_n=16,
    )
    assert verified >= 4
    assert stats["worker_totals"]["answered"] > 0  # type: ignore[index]
