"""Published serving state is read-only by construction.

A reader holds an :class:`~repro.serve.snapshot.IndexSnapshot` and the
result cache hands every hit the same :class:`~repro.serve.cache.CacheEntry`
value, so anything either can reach must be impossible to change in
place.  :func:`writeable_paths` walks that object graph and names every
reachable value a reader could write.  Allowed leaves are ints, strs and
None; tuples and frozensets (walked element by element); read-only
memoryviews; and ndarrays with ``writeable=False``.  The numpy array a
memoryview or array view sits on must be read-only too: a write into a
writeable base shows through every read-only view of it.  Any
object of this library is walked attribute by attribute; any other
object (a list, a dict, a lock, ...) is a violation.

The walk runs on every way a snapshot comes to exist: a full publish, a
star-reuse publish, a snapshot of an index loaded from disk, and the
star of a shared-memory worker view.
"""

import random

import numpy as np
import pytest
from conftest import CYCLE_CHORD, chain_with_cycle_graph

import repro.serve.snapshot as snapshot_module
from repro.core.queries import SMCCIndex
from repro.errors import ReproError
from repro.graph.generators import ssca_graph
from repro.index.connectivity_graph import build_connectivity_graph
from repro.index.mst import build_mst
from repro.serve import (
    ServingIndex,
    SharedSnapshotStore,
    SharedSnapshotView,
    capture_snapshot,
)


@pytest.fixture(autouse=True)
def _zero_leak(shm_leak_sweep):
    yield


def _attributes(obj):
    attrs = dict(vars(obj)) if hasattr(obj, "__dict__") else {}
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot not in attrs and hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
    return attrs


def writeable_paths(root, name="root"):
    """Paths from ``root`` to every reachable value that can be written."""
    bad = []
    seen = set()
    stack = [(name, root)]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if obj is None or isinstance(obj, (int, str)):
            continue
        if isinstance(obj, (tuple, frozenset)):
            stack.extend((f"{path}[{i}]", x) for i, x in enumerate(obj))
        elif isinstance(obj, memoryview):
            if not obj.readonly:
                bad.append(f"{path} (writeable memoryview)")
            elif isinstance(obj.obj, np.ndarray):
                stack.append((f"{path}.obj", obj.obj))
        elif isinstance(obj, np.ndarray):
            if obj.flags.writeable or obj.dtype.hasobject:
                bad.append(f"{path} (writeable ndarray)")
            elif isinstance(obj.base, np.ndarray):
                stack.append((f"{path}.base", obj.base))
        elif type(obj).__module__.startswith("repro."):
            stack.extend(
                (f"{path}.{attr}", value)
                for attr, value in _attributes(obj).items()
            )
        else:
            bad.append(f"{path} ({type(obj).__name__})")
    return bad


def _serve_queries(serving, seed):
    """Misses then hits of every cached family, so the cache fills."""
    rng = random.Random(seed)
    n = serving.snapshot().num_vertices
    queries = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(12)]
    for _ in range(2):
        for q in queries:
            for call in (
                lambda: serving.sc(q),
                lambda: serving.smcc(q),
                lambda: serving.smcc_l(q, size_bound=2),
            ):
                try:
                    call()
                except ReproError:
                    pass  # disconnected / infeasible: nothing cached
        serving.sc_batch(queries)


def _assert_serving_read_only(serving, seed):
    _serve_queries(serving, seed)
    assert writeable_paths(serving.snapshot(), "snapshot") == []
    entries = list(serving.cache._entries.values())
    assert entries, "the query stream cached nothing"
    kinds = {type(entry.value).__name__ for entry in entries}
    assert {"int", "SMCCResult"} <= kinds
    for i, entry in enumerate(entries):
        assert writeable_paths(entry, f"entry[{i}]") == []


class TestEveryPublishPathIsReadOnly:
    def test_full_publish(self):
        serving = ServingIndex.build(chain_with_cycle_graph())
        serving.apply_updates(inserts=[(2, 17)])
        report = serving.publish()
        assert report.mode == "full"
        _assert_serving_read_only(serving, 1)

    def test_star_reuse_publish(self):
        serving = ServingIndex.build(chain_with_cycle_graph())
        prev = serving.snapshot()
        serving.apply_updates(inserts=[CYCLE_CHORD])
        report = serving.publish()
        assert report.mode == "delta"
        assert report.snapshot.star is prev.star
        _assert_serving_read_only(serving, 2)

    def test_loaded_index(self, tmp_path):
        SMCCIndex.build(ssca_graph(120, seed=3)).save(tmp_path / "idx")
        serving = ServingIndex(SMCCIndex.load(tmp_path / "idx"))
        _assert_serving_read_only(serving, 3)
        serving.apply_updates(inserts=[(0, 7)], deletes=[])
        serving.publish()
        _assert_serving_read_only(serving, 4)

    def test_shared_memory_view(self):
        serving = ServingIndex.build(chain_with_cycle_graph())
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            view = SharedSnapshotView.attach(store.prefix, 0)
            try:
                assert writeable_paths(view.star, "view.star") == []
                vertices, _ = view.smcc([0, 1])
                assert vertices == sorted(serving.smcc([0, 1]).vertices)
            finally:
                view.close()


class TestTheWalkCatchesWriterAliasing:
    """The historical aliasing bug: the snapshot holds the writer's index."""

    @staticmethod
    def _capture(source):
        namespace = {"__name__": "repro.serve.snapshot_mutant"}
        exec(compile(source, snapshot_module.__file__, "exec"), namespace)
        graph = chain_with_cycle_graph()
        conn = build_connectivity_graph(graph)
        return namespace["capture_snapshot"](conn, build_mst(conn), generation=0)

    @staticmethod
    def _source():
        with open(snapshot_module.__file__, encoding="utf-8") as handle:
            return handle.read()

    def test_star_is_mst_mutant_is_caught(self):
        source = self._source()
        defense = "star=build_mst_star(mst),"
        assert source.count(defense) == 1, "capture_snapshot was refactored"
        snap = self._capture(source.replace(defense, "star=mst,"))
        bad = writeable_paths(snap, "snapshot")
        assert bad
        assert any(path.startswith("snapshot.star.tree_adj") for path in bad)

    def test_pristine_capture_passes(self):
        assert writeable_paths(self._capture(self._source()), "snapshot") == []

    def test_capture_leaves_the_writer_mutable(self):
        conn = build_connectivity_graph(chain_with_cycle_graph())
        mst = build_mst(conn)
        snap = capture_snapshot(conn, mst, generation=0)
        before = snap.sc_pair(0, 5)
        mst.add_tree_edge(0, 15, 9)
        mst.remove_tree_edge(0, 15)
        assert snap.sc_pair(0, 5) == before


class TestCachedAnswersCannotBeChanged:
    """A reader that mutates its answer must not corrupt later hits."""

    @pytest.mark.parametrize("family", ["smcc", "smcc_l"])
    def test_mutating_a_served_result_raises(self, family):
        serving = ServingIndex.build(chain_with_cycle_graph())
        q = [0, 1]

        def ask():
            if family == "smcc":
                return serving.smcc(q)
            return serving.smcc_l(q, size_bound=3)

        result = ask()
        original = list(result.vertices)
        with pytest.raises(AttributeError):
            result.vertices.append(-1)
        with pytest.raises(TypeError):
            result.vertices[0] = -1
        hits = serving.cache.hits
        again = ask()
        assert serving.cache.hits == hits + 1
        assert list(again.vertices) == original
        assert again.connectivity == result.connectivity
