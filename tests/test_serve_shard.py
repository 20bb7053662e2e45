"""Unit tests for the sharded serving tier's shared-memory plumbing.

Covers the layers below the cross-process model suite
(``test_serve_stateful.py``) and the fault-injection matrix
(``test_errors_and_failure_injection.py``): the manifest wire codec,
the generation-head seqlock, store refcounting across star-reuse
re-pointing, retirement/unlink discipline (the leak invariants), view
lifecycle, worker-pool lifecycle, and the gateway's admission-control
propagation.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import textwrap
import weakref
import zlib

import numpy as np
import pytest
from conftest import CYCLE_CHORD, chain_with_cycle_graph, random_connected_graph

from repro.errors import (
    DeadlineExceededError,
    ManifestError,
)
from repro.graph.generators import clique_chain_graph
from repro.serve import (
    ServeConfig,
    ServingIndex,
    ShardGateway,
    SharedSnapshotStore,
    SharedSnapshotView,
    WorkerPool,
)
from repro.serve.shard import (
    _HEAD_DTYPE,
    _HEAD_SLOTS,
    _MANIFEST_HEADER,
    _MANIFEST_MAGIC,
    _STAR_SUFFIXES,
    _attach_segment,
    _decode_manifest,
    _encode_manifest,
    _HeadReader,
    read_manifest,
    system_segments,
)


@pytest.fixture(autouse=True)
def _zero_leak(shm_leak_sweep):
    """Every test in this module must leave /dev/shm the way it found it."""
    yield


@pytest.fixture
def serving():
    return ServingIndex.build(
        clique_chain_graph([5, 4, 6]),
        config=ServeConfig(region_fraction_limit=1.0),
    )


@pytest.fixture
def reuse_serving():
    """A serving index whose CYCLE_CHORD write keeps the spanning forest."""
    return ServingIndex.build(chain_with_cycle_graph())


def _publish_reuse(serving, store):
    """Export generation 0, then publish the chord as a star reuse."""
    doc0 = store.publish_snapshot(serving.snapshot())
    serving.publisher.set_exporter(store.publish_snapshot)
    serving.apply_updates(inserts=[CYCLE_CHORD])
    report = serving.publish()
    serving.publisher.set_exporter(None)
    assert report.mode == "delta"
    return doc0, report


def _minimal_full_doc():
    """The smallest manifest the validator accepts."""
    buffers = ["star." + s for s in _STAR_SUFFIXES] + ["edges"]
    return {
        "generation": 3,
        "num_vertices": 7,
        "num_edges": 9,
        "segments": {
            buffer: {
                "segment": f"rshXs{i}",
                "dtype": "int64",
                "shape": [7],
            }
            for i, buffer in enumerate(buffers)
        },
    }


class TestManifestCodec:
    DOC = _minimal_full_doc()

    def test_round_trip(self):
        raw = _encode_manifest(self.DOC)
        assert _decode_manifest(raw, "t") == self.DOC

    def test_encoding_is_deterministic(self):
        # sort_keys: the same doc always serializes to the same bytes,
        # so a manifest can be compared byte-wise across publishes.
        assert _encode_manifest(self.DOC) == _encode_manifest(dict(self.DOC))

    def test_trailing_segment_padding_is_ignored(self):
        # Segments round up to at least one byte (and the kernel may
        # round to pages); the decoder must trust the header length.
        raw = _encode_manifest(self.DOC) + b"\x00" * 512
        assert _decode_manifest(raw, "t") == self.DOC

    def test_missing_required_key_rejected(self):
        doc = dict(self.DOC)
        del doc["segments"]
        with pytest.raises(ManifestError, match="missing"):
            _decode_manifest(_encode_manifest(doc), "t")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ManifestError, match="not an object"):
            _decode_manifest(_encode_manifest([1, 2, 3]), "t")

    def test_short_segment_rejected(self):
        with pytest.raises(ManifestError, match="shorter than its header"):
            _decode_manifest(b"RS", "t")

    def test_version_three_manifest_rejected(self):
        # A well-formed manifest of the node-tree layout: version 3,
        # with a kind and the star.parents / interval / jump buffers.
        doc = _minimal_full_doc()
        doc["kind"] = "full"
        for i, name in enumerate(("star.parents", "star.interval_start")):
            doc["segments"][name] = {
                "segment": f"rshXt{i}", "dtype": "int64", "shape": [7],
            }
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        raw = _MANIFEST_HEADER.pack(
            _MANIFEST_MAGIC, 3, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(ManifestError, match="unsupported manifest version 3"):
            _decode_manifest(raw, "t")

    def test_version_two_manifest_rejected(self):
        # A well-formed manifest of the previous layout: version 2, with
        # the mst.parent / mst.parent_weight buffers the Algorithm 5
        # fallback read.  Workers must refuse it outright.
        doc = _minimal_full_doc()
        for i, name in enumerate(("mst.parent", "mst.parent_weight")):
            doc["segments"][name] = {
                "segment": f"rshXp{i}", "dtype": "int64", "shape": [7],
            }
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        raw = _MANIFEST_HEADER.pack(
            _MANIFEST_MAGIC, 2, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(ManifestError, match="unsupported manifest version 2"):
            _decode_manifest(raw, "t")

    def test_version_one_manifest_rejected(self):
        # A well-formed manifest of the Euler-tour layout: version 1,
        # lca.* buffers, no star.rmq.  Workers must refuse it outright
        # rather than map buffers they no longer know how to read.
        doc = _minimal_full_doc()
        segments = {
            name: spec
            for name, spec in doc["segments"].items()
            if name != "star.rmq"
        }
        for i, suffix in enumerate(
            ("first", "component", "euler", "depth", "log", "table2d")
        ):
            segments["lca." + suffix] = {
                "segment": f"rshXl{i}", "dtype": "int64", "shape": [7],
            }
        doc["segments"] = segments
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        raw = _MANIFEST_HEADER.pack(
            _MANIFEST_MAGIC, 1, len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(ManifestError, match="unsupported manifest version 1"):
            _decode_manifest(raw, "t")


class TestHeadSeqlock:
    def test_head_is_even_and_monotonic_across_publishes(self, serving):
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            serving.publisher.set_exporter(store.publish_snapshot)
            reader = _HeadReader(store.prefix)
            try:
                shm = _attach_segment(f"{store.prefix}head")
                try:
                    arr = np.ndarray(
                        (_HEAD_SLOTS,), dtype=_HEAD_DTYPE, buffer=shm.buf
                    )
                    seq_before = int(arr[0])
                    assert seq_before % 2 == 0  # writes are never torn
                    assert int(arr[0]) == int(arr[2])  # mirror agrees
                    assert reader.generation() == 0
                    serving.apply_updates(inserts=[(1, 6)])
                    serving.publish()
                    assert reader.generation() == 1
                    assert store.head_generation() == 1
                    # One publish = one seqlock write = sequence + 2.
                    assert int(arr[0]) == seq_before + 2
                    assert int(arr[0]) % 2 == 0
                    arr = None
                finally:
                    shm.close()
            finally:
                reader.close()
                serving.publisher.set_exporter(None)


class TestHeadReaderLifecycle:
    def test_close_is_idempotent(self, serving):
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            reader = _HeadReader(store.prefix)
            assert reader.generation() == 0
            reader.close()
            reader.close()  # second close must be a no-op, not an error

    def test_close_after_store_unlink(self, serving):
        # The store unlinking the head does not invalidate an already
        # attached reader's close path (Linux unlink-vs-mapping rules).
        store = SharedSnapshotStore()
        store.publish_snapshot(serving.snapshot())
        reader = _HeadReader(store.prefix)
        store.close()
        reader.close()
        reader.close()


class TestStoreRefcounting:
    def test_delta_repoints_base_segments_by_name(self, reuse_serving):
        with SharedSnapshotStore() as store:
            doc0, report = _publish_reuse(reuse_serving, store)
            doc1 = read_manifest(store.prefix, report.generation)
            # Every generation exports the same buffer set.
            assert set(doc1["segments"]) == set(doc0["segments"])
            # The reused star is re-pointed, not re-copied; only the
            # edge log is new.
            for buffer in ("star." + suffix for suffix in _STAR_SUFFIXES):
                assert (
                    doc1["segments"][buffer]["segment"]
                    == doc0["segments"][buffer]["segment"]
                ), buffer
            assert (
                doc1["segments"]["edges"]["segment"]
                != doc0["segments"]["edges"]["segment"]
            )

    def test_publish_retires_older_generations(self, serving):
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            serving.publisher.set_exporter(store.publish_snapshot)
            serving.apply_updates(inserts=[(1, 6)])
            report = serving.publish()
            serving.publisher.set_exporter(None)
            assert store.generations() == [report.generation]
            # The retired manifest is unlinked; its shared base data
            # segments survive because generation 1 still refs them.
            with pytest.raises(FileNotFoundError):
                read_manifest(store.prefix, 0)
            doc1 = read_manifest(store.prefix, 1)
            live = set(store.live_segment_names())
            for spec in doc1["segments"].values():
                assert spec["segment"] in live, spec

    def test_retiring_the_last_generation_drains_every_refcount(
        self, serving
    ):
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            serving.publisher.set_exporter(store.publish_snapshot)
            serving.apply_updates(inserts=[(1, 6)])
            serving.publish()
            serving.publisher.set_exporter(None)
            store.retire(1)
            head = f"{store.prefix}head"
            assert store.live_segment_names() == [head]
            assert system_segments(store.prefix) == [head]
            assert store.generations() == []

    def test_close_unlinks_everything_and_is_idempotent(self, serving):
        store = SharedSnapshotStore()
        store.publish_snapshot(serving.snapshot())
        prefix = store.prefix
        assert system_segments(prefix)  # segments exist while open
        store.close()
        store.close()  # second close is a no-op
        assert system_segments(prefix) == []
        assert store.live_segment_names() == []

    def test_existing_mappings_survive_retirement(self, serving):
        # Linux semantics: unlink removes the name, not the memory —
        # a view attached before retirement keeps answering.
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            snap = serving.snapshot()
            view = SharedSnapshotView.attach(store.prefix, 0)
            try:
                serving.publisher.set_exporter(store.publish_snapshot)
                serving.apply_updates(inserts=[(1, 6)])
                serving.publish()
                serving.publisher.set_exporter(None)
                with pytest.raises(FileNotFoundError):
                    read_manifest(store.prefix, 0)
                assert view.sc([0, 1]) == snap.steiner_connectivity([0, 1])
            finally:
                view.close()


class TestViewLifecycle:
    def test_attach_unknown_generation_raises_file_not_found(self, serving):
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            with pytest.raises(FileNotFoundError):
                SharedSnapshotView.attach(store.prefix, 7)

    def test_view_buffers_are_read_only(self, serving):
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            view = SharedSnapshotView.attach(store.prefix, 0)
            try:
                with pytest.raises(ValueError):
                    view.star.gap[0] = -1
                with pytest.raises(TypeError):
                    view.star._run_start[0] = -1
                for name, arr in view._arrays.items():
                    assert not arr.flags.writeable, name
            finally:
                view.close()

    def test_delta_view_close_unmaps_every_segment_without_gc(
        self, reuse_serving
    ):
        """A star-reuse view holds its mapped arrays in no reference cycle.

        With the collector off, close() must still free every ndarray
        over the mapped buffers before it unmaps them: an array kept
        alive past the unmap (by a cycle only the collector breaks)
        would point into released memory.  Every segment must also end
        up unmapped.
        """
        with SharedSnapshotStore() as store:
            _, report = _publish_reuse(reuse_serving, store)
            view = SharedSnapshotView.attach(store.prefix, report.generation)
            snap = report.snapshot
            assert view.sc([1, 6]) == snap.steiner_connectivity([1, 6])
            assert view.sc_batch([[1, 6], [0]]) == (
                snap.steiner_connectivity_batch([[1, 6], [0]])
            )
            assert view.smcc([1, 6])[1] == snap.smcc([1, 6]).connectivity
            assert view.smcc_l([1, 6], 3)[1] == snap.smcc_l([1, 6], 3).connectivity
            mapped = [weakref.ref(arr) for arr in view._arrays.values()]
            segments = list(view._segments.values())
            assert mapped and segments
            gc.disable()
            try:
                view.close()
                assert all(ref() is None for ref in mapped)
            finally:
                gc.enable()
            assert all(shm.buf is None for shm in segments)

    def test_star_kept_past_close_reads_mapped_memory(self):
        """A ``view.star`` kept past ``close()`` still reads valid memory.

        numpy 2 arrays over ``shm.buf`` hold no buffer export, so a
        close that unmapped eagerly would leave the kept star reading
        released memory.  Runs in a subprocess: such a read kills the
        interpreter (SIGSEGV, exit 139), which must fail this test
        rather than the whole run.  The segments unmap once the kept
        arrays die, and with ``REPRO_LEAKTRACK=1`` inherited the tracker
        must then hold no attached segment.
        """
        script = textwrap.dedent(
            """
            from repro.analysis import leaktrack
            from repro.graph.generators import clique_chain_graph
            from repro.serve import ServingIndex, SharedSnapshotStore
            from repro.serve import SharedSnapshotView

            serving = ServingIndex.build(clique_chain_graph([5, 4, 6]))
            snap = serving.snapshot()
            with SharedSnapshotStore() as store:
                store.publish_snapshot(snap)
                view = SharedSnapshotView.attach(store.prefix, 0)
                segments = list(view._segments.values())
                star = view.star
                view.close()
                assert star.gap.tolist() == snap.star.gap.tolist()
                assert star.sc_pair(0, 12) == snap.sc_pair(0, 12)
                # The star keeps its five buffers mapped; the edge log
                # had no array left, so its segment unmapped at close.
                mapped = [shm for shm in segments if shm.buf is not None]
                assert len(mapped) == len(segments) - 1 == 5
                del star
                assert all(shm.buf is None for shm in segments)
                assert not leaktrack.live(label_prefixes=("attached:",))
            print("kept-star-ok")
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, (result.returncode, result.stderr)
        assert "kept-star-ok" in result.stdout

    def test_view_close_is_idempotent(self, serving):
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            view = SharedSnapshotView.attach(store.prefix, 0)
            assert view.sc([0, 1]) >= 1
            view.close()
            view.close()


class TestWorkerPoolLifecycle:
    def test_pool_shutdown_leaves_zero_segments(self, serving):
        store = SharedSnapshotStore()
        prefix = store.prefix
        store.publish_snapshot(serving.snapshot())
        snap = serving.snapshot()
        with WorkerPool(prefix, 2) as pool:
            for worker in range(pool.size):
                generation, value = pool.request(
                    worker, ("sc", [0, 1], None)
                )
                assert generation == 0
                assert value == snap.steiner_connectivity([0, 1])
            stats = pool.worker_stats()
            assert [s["answered"] for s in stats] == [1, 1]
            assert pool.restarts == 0
        # Workers detached on stop; the store owns the final unlink.
        store.close()
        assert system_segments(prefix) == []

    def test_batch_request_counts_batches(self, serving):
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            snap = serving.snapshot()
            queries = [[0, 1], [5, 6], [9, 10, 11]]
            with WorkerPool(store.prefix, 1) as pool:
                _, answers = pool.request(0, ("sc_batch", queries, None))
                assert answers == snap.steiner_connectivity_batch(queries)
                stats = pool.worker_stats()[0]
                assert stats["batches"] == 1
                assert stats["answered"] == len(queries)


class TestGatewayAdmission:
    def test_staleness_budget_degrades_to_direct_path(self, serving):
        with ShardGateway(serving, 2) as gateway:
            # Unpublished churn: the snapshot lags by one update.
            serving.apply_updates(inserts=[(1, 6)])
            assert serving.staleness() == 1
            value = gateway.sc([1, 6], max_staleness=0)
            # Only the direct engine sees the unpublished edge's effect;
            # the fresh answer must match a fresh rebuild.
            rebuilt = ServingIndex.build(
                _current_graph(serving)
            ).snapshot()
            assert value == rebuilt.steiner_connectivity([1, 6])
            assert gateway.stats()["gateway"]["degraded"] >= 1

    def test_expired_deadline_raises_before_dispatch(self, serving):
        with ShardGateway(serving, 2) as gateway:
            with pytest.raises(DeadlineExceededError):
                gateway.sc([0, 1], timeout=0.0)
            assert gateway.stats()["gateway"]["dispatched"] == 0

    def test_gateway_shuts_down_leak_free_after_random_traffic(self):
        import random

        graph = random_connected_graph(19, min_n=10, max_n=14)
        serving = ServingIndex.build(
            graph, config=ServeConfig(region_fraction_limit=1.0)
        )
        rng = random.Random(3)
        n = graph.num_vertices
        with ShardGateway(serving, 2) as gateway:
            prefix = gateway.store.prefix
            snap = serving.snapshot()
            for _ in range(15):
                q = rng.sample(range(n), rng.randint(2, 3))
                assert gateway.sc(q) == snap.steiner_connectivity(q)
        assert system_segments(prefix) == []
        # The exporter hook was uninstalled: later publishes are local.
        serving.apply_updates(deletes=[next(iter(graph.edges()))])
        serving.publish()
        assert system_segments(prefix) == []


def _current_graph(serving):
    """The live (possibly unpublished) graph under a serving index."""
    from repro.graph.graph import Graph

    with serving.publisher.lock:
        index = serving.publisher.index
        graph = Graph(index.graph.num_vertices)
        for u, v in index.graph.edges():
            graph.add_edge(u, v)
    return graph


class TestLeakSweep:
    """The zero-leak sweep sees only the stores its own test created."""

    def test_reports_only_segments_of_stores_created_in_the_window(self):
        import uuid

        from conftest import StoreSegmentSweep

        foreign = f"rsh{uuid.uuid4().hex[:8]}"
        # Another process on the host leaves an rsh* segment behind
        # mid-window (unregistered, so its exit does not unlink it).
        create = textwrap.dedent(
            f"""
            from multiprocessing import resource_tracker, shared_memory

            shm = shared_memory.SharedMemory(
                name={foreign!r}, create=True, size=8
            )
            resource_tracker.unregister(shm._name, "shared_memory")
            shm.close()
            """
        )
        store = None
        try:
            with StoreSegmentSweep() as sweep:
                subprocess.run([sys.executable, "-c", create], check=True)
                store = SharedSnapshotStore()
            assert system_segments(foreign) == [foreign]
            # The store was created in the window and never closed: its
            # head segment is reported; the foreign segment is not.
            assert sweep.leaked() == [f"{store.prefix}head"]
            store.close()
            assert sweep.leaked() == []
        finally:
            if store is not None:
                store.close()
            if system_segments(foreign):
                os.unlink(os.path.join("/dev/shm", foreign))
