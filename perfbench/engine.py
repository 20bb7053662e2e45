"""One benchmark run: set-up, the measured closed loop, checks, metrics.

The client is a single closed loop: it sends the next operation only
after the previous one returned.  A run repeats whole rounds of
:mod:`inputs` until ``seconds`` of round time have passed (and at least
``MIN_ROUNDS`` rounds and ``MIN_SC`` single ``sc`` calls ran, so that
``sc_p99_us`` has ten samples beyond it).  Every time it reports is
scaled to the reference machine speed by :class:`stats.Speed`, which
calibrates between operations, outside their timing.

With ``trace=False`` the run reports the end-to-end metrics.  With
``trace=True`` it records spans around every call into a layer, probes
the layers the operation stream does not reach by itself (the kernel
behind each served answer, the planner, the in-process tier behind a
sharded answer), and reports the per-layer metrics.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import resource
import shutil
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.queries import SMCCIndex
from repro.graph.io import read_edge_list, write_edge_list
from repro.index import build_connectivity_graph, build_mst, build_mst_star
from repro.serve import ServingIndex, ShardGateway, capture_snapshot, plan_batch

import checks
from inputs import SPECS, Inputs, Op, make_graph
from stats import NullTracer, Speed, Tracer, clock, median, tail

MIN_ROUNDS = 2
MIN_SC = 1000
#: operations of round 0 whose answers are kept for the checks
SAMPLE = 160
#: restarts from the last saved index after the set-ups: more load_s
#: samples without more builds
RESTARTS = 3

END_TO_END = {
    "setup_s": "s",
    "load_s": "s",
    "index_mb": "MB",
    "peak_rss_mb": "MB",
    "ops_per_s": "ops/s",
    "sc_p50_us": "us",
    "sc_p99_us": "us",
    "batch_p50_us": "us",
    "smcc_p50_us": "us",
    "smcc_l_p50_us": "us",
    "update_p50_ms": "ms",
    "fresh_p50_ms": "ms",
}

PER_LAYER = {
    "io.read_s": "s",
    "build.conn_graph_s": "s",
    "build.mst_s": "s",
    "build.mst_star_s": "s",
    "load.first_answer_s": "s",
    "persist.save_s": "s",
    "persist.load_s": "s",
    "persist.bytes": "bytes",
    "snapshot.capture_ms": "ms",
    "kernel.sc_us": "us",
    "kernel.batch_us": "us",
    "kernel.smcc_us": "us",
    "kernel.smcc_l_full_us": "us",
    "kernel.smcc_l_delta_us": "us",
    "serving.sc_miss_overhead_us": "us",
    "serving.smcc_miss_overhead_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.invalidations": "count",
    "cache.carried_over": "count",
    "cache.evictions": "count",
    "planner.plan_us": "us",
    "planner.probes_saved": "count",
    "update.apply_ms": "ms",
    "update.sc_changes": "count",
    "publish.full_ms": "ms",
    "publish.delta_ms": "ms",
    "publish.delta_share": "ratio",
    "publish.region_size_mean": "vertices",
    "publish.shared_fraction_mean": "ratio",
    "shard.open_s": "s",
    "shard.export_ms": "ms",
    "shard.hop_us": "us",
    "shard.swap_ms": "ms",
    "shard.coalesced": "count",
    "shard.batches": "count",
    "shard.restarts": "count",
}


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def _stop_resource_tracker() -> None:
    """End the resource-tracker process that shared memory starts."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Run:
    """State of one run; :meth:`execute` returns the result document."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: str, work_dir: str, log: Callable[[str], None]) -> None:
        self.spec = SPECS[size][workload]
        self.seed = seed
        self.seconds = seconds
        self.tracer: Tracer = Tracer() if trace else NullTracer()
        self.speed = Speed()
        self.work_dir = work_dir
        self.log = log
        self.workers = min(self.spec.workers, os.cpu_count() or 1)
        self.serving: Optional[ServingIndex] = None
        self.gateway: Optional[ShardGateway] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        #: mode ("full" / "delta") of the generation now published
        self.mode = "full"
        self.lat: Dict[str, List[float]] = defaultdict(list)
        self.setup: Dict[str, List[float]] = defaultdict(list)
        self.layer: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        #: summed scaled durations of the completed operations
        self.busy = 0.0
        self.errors: Dict[str, int] = defaultdict(int)
        self.samples: List[checks.Sample] = []

    # ------------------------------------------------------------------
    def execute(self) -> Dict[str, Any]:
        graph_path = os.path.join(self.work_dir, "graph.txt")
        write_edge_list(make_graph(self.spec), graph_path)
        # Inputs are drawn on the graph exactly as the program reads it.
        self.inputs = Inputs(self.spec, read_edge_list(graph_path), self.seed)
        self.comp_size = [0] * self.inputs.graph.num_vertices
        for comp in self.inputs.comps:
            for v in comp:
                self.comp_size[v] = len(comp)
        try:
            for i in range(self.spec.setups):
                self._set_up(graph_path, i, last=i == self.spec.setups - 1)
            self.measured = self._measure()
        finally:
            self._close_gateway()
        self.peak_rss_mb = self._peak_rss_mb()
        speed = self.speed.summary()
        self.log(f"measured {self.measured:.1f}s, {self.attempted} ops; speed factor "
                 f"{speed['factor_min']:.2f} / {speed['factor_median']:.2f} / "
                 f"{speed['factor_max']:.2f}; checking")
        bad = checks.run_checks(self.samples, self.spec.size_bound, self.log)
        self.failed += len(bad)
        result = {
            "correct": not bad,
            "attempted": self.attempted,
            "failed": self.failed,
        }
        if self.tracer.enabled:
            metrics = self._per_layer()
            units = PER_LAYER
        else:
            metrics = self._end_to_end()
            units = END_TO_END
        result["metrics"] = {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        }
        return result

    # ------------------------------------------------------------------
    # Set-up: edge-list file -> ... -> first served answer
    # ------------------------------------------------------------------
    def _set_up(self, graph_path: str, i: int, last: bool) -> None:
        rec, step = self.tracer.record, self.speed.step
        index_dir = os.path.join(self.work_dir, f"index{i}")
        gc.collect()  # every set-up starts from the same heap state
        graph, *read = step(read_edge_list, graph_path)
        conn, *built = step(build_connectivity_graph, graph, jobs=1)
        mst, *spanned = step(build_mst, conn)
        star, *starred = step(build_mst_star, mst)
        _, *saved = step(SMCCIndex(conn, mst, star).save, index_dir)
        # What follows is a restart from the saved index: nothing built
        # above stays alive.
        del graph, conn, mst, star
        serving, gateway, restart = self._restart(index_dir)
        setup = sum(part[2] for part in (read, built, spanned, starred, saved)) + restart
        top = rec("setup", read[0], clock())
        for name, (a, b, _) in (("graph.io.read_edge_list", read),
                                ("index.connectivity_graph", built),
                                ("index.mst", spanned), ("index.mst_star", starred),
                                ("index.persistence.save", saved)):
            rec(name, a, b, parent=top)
        s = self.setup
        s["setup_s"].append(setup)
        s["io.read_s"].append(read[2])
        s["build.conn_graph_s"].append(built[2])
        s["build.mst_s"].append(spanned[2])
        s["build.mst_star_s"].append(starred[2])
        s["persist.save_s"].append(saved[2])
        s["index_bytes"].append(dir_bytes(index_dir))
        self.log(f"setup {i}: {setup:.2f}s at reference speed")
        if not last:
            if gateway is not None:
                gateway.close()
            shutil.rmtree(index_dir)
            return
        # More restarts from the same saved index, for load_s only.
        for _ in range(RESTARTS):
            extra = self._restart(index_dir)[1]
            if extra is not None:
                extra.close()
        shutil.rmtree(index_dir)
        self.serving, self.gateway = serving, gateway
        if gateway is not None:
            self.loop = asyncio.new_event_loop()
            if self.tracer.enabled:
                self._wrap_exporter()

    def _restart(
        self, index_dir: str
    ) -> Tuple[ServingIndex, Optional[ShardGateway], float]:
        """``SMCCIndex.load`` -> ``ServingIndex`` (-> ``ShardGateway``) ->
        first answer, recorded as one ``load_s`` sample (also returned)."""
        rec, s, step = self.tracer.record, self.setup, self.speed.step
        loaded, *load = step(SMCCIndex.load, index_dir)
        serving, *opened = step(ServingIndex, loaded)
        gateway, *sharded = step(
            lambda: ShardGateway(serving, self.workers) if self.workers else None)
        try:
            _, *first = step((gateway or serving).sc, self.inputs.first_query)
        except BaseException:
            if gateway is not None:
                gateway.close()
            raise
        parts = (load, opened, sharded, first)
        total = sum(part[2] for part in parts)
        top = rec("restart", load[0], first[1])
        for name, (a, b, _) in zip(("index.persistence.load", "serve.serving.open",
                                    "serve.shard.open", "first_answer"), parts):
            rec(name, a, b, parent=top)
        s["load_s"].append(total)
        s["persist.load_s"].append(load[2])
        s["load.first_answer_s"].append(total - load[2])
        if gateway is not None:
            s["shard.open_s"].append(sharded[2])
        if self.tracer.enabled:
            _, *captured = step(capture_snapshot, loaded.conn_graph, loaded.mst,
                                generation=0)
            s["snapshot.capture_ms"].append(captured[2] * 1e3)
        return serving, gateway, total

    def _wrap_exporter(self) -> None:
        """Time the shard store's export hook from outside."""
        assert self.gateway is not None and self.serving is not None
        export = self.gateway.store.publish_snapshot
        tracer, layer, speed = self.tracer, self.layer, self.speed

        def timed_export(snapshot: Any) -> Any:
            t0 = clock()
            out = export(snapshot)
            t1 = clock()
            tracer.record("serve.shard.export", t0, t1)
            layer["shard.export_ms"].append(speed.scaled(t1 - t0) * 1e3)
            return out

        self.serving.publisher.set_exporter(timed_export)

    def _close_gateway(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
            self.gateway = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.workers:
            _stop_resource_tracker()

    # ------------------------------------------------------------------
    # The measured closed loop
    # ------------------------------------------------------------------
    def _measure(self) -> float:
        serving = self.serving
        assert serving is not None
        cache0 = serving.cache.stats()
        gc.collect()
        measured = 0.0
        rounds = 0
        while measured < self.seconds or rounds < MIN_ROUNDS or len(self.lat["sc"]) < MIN_SC:
            ops = self.inputs.round(rounds)
            sample_at = self._sample_at(ops) if rounds == 0 else {}
            started = clock()
            self._run_round(ops, sample_at)
            measured += clock() - started
            rounds += 1
        cache1 = serving.cache.stats()
        for key in ("hits", "misses", "invalidations", "carried_over", "evictions"):
            self.counts[f"cache.{key}"] += cache1[key] - cache0[key]
        if self.gateway is not None:
            self._count_shard(self.gateway)
        self.counts["rounds"] = rounds
        return measured

    def _sample_at(self, ops: List[Op]) -> Dict[int, Tuple[bool, bool]]:
        """Sampled positions of a round -> (deep, baseline) flags."""
        rng = random.Random(self.seed)
        reads = [i for i, op in enumerate(ops) if op[0] != "write"]
        picked = sorted(rng.sample(reads, min(SAMPLE, len(reads))))
        flags = dict.fromkeys(picked, (False, False))
        for kind in ("sc", "smcc", "smcc_l"):
            of_kind = [i for i in picked if ops[i][0] == kind]
            deep = sorted(rng.sample(of_kind, min(checks.PROPERTY_CHECKS, len(of_kind))))
            for rank, i in enumerate(deep):
                flags[i] = (True, rank == 0)
        return flags

    def _run_round(self, ops: List[Op], sample_at: Dict[int, Tuple[bool, bool]]) -> None:
        serving = self.serving
        assert serving is not None
        tier: Any = self.gateway or serving
        trace = self.tracer.enabled
        rec, speed = self.tracer.record, self.speed
        lat = self.lat
        fresh_from: Optional[float] = None
        for at, op in enumerate(ops):
            kind = op[0]
            rid = self.attempted
            self.attempted += 1
            if fresh_from is None:
                # Never between a write and its first answer: ``fresh``
                # spans that gap.
                speed.tick()
            if kind == "write":
                fresh_from = self._write(op, rid)
                continue
            hits0 = serving.cache.hits if trace else 0
            t0 = clock()
            try:
                answer = self._read(tier, op)
            except Exception as exc:  # counted, reported, never fatal
                self.failed += 1
                self.errors[type(exc).__name__] += 1
                continue
            t1 = clock()
            factor = speed.factor()
            lat[kind].append((t1 - t0) * factor)
            self.busy += (t1 - t0) * factor
            if fresh_from is not None:
                lat["fresh"].append((t1 - fresh_from) * factor)
                fresh_from = None
            if trace:
                top = rec(f"op.{kind}", t0, t1, rid)
                self._probe(op, (t1 - t0) * factor, serving.cache.hits == hits0, rid, top)
            if at in sample_at:
                deep, baseline = sample_at[at]
                self.samples.append(checks.take(
                    op, answer, serving.snapshot(), self.spec.size_bound, deep, baseline))

    def _read(self, tier: Any, op: Op) -> Any:
        kind, arg = op[0], op[1]
        if kind == "sc":
            return tier.sc(arg)
        if kind == "batch":
            return tier.sc_batch(arg)
        if kind == "smcc":
            return tier.smcc(arg)
        if kind == "smcc_l":
            return tier.smcc_l(arg, size_bound=self.spec.size_bound)
        assert self.loop is not None
        return self.loop.run_until_complete(self._gather(arg))

    async def _gather(self, queries: List[Tuple[int, ...]]) -> List[int]:
        assert self.gateway is not None
        return list(await asyncio.gather(*(self.gateway.sc_async(q) for q in queries)))

    def _write(self, op: Op, rid: int) -> Optional[float]:
        """Apply and publish one batch; returns its start for ``fresh``."""
        serving = self.serving
        assert serving is not None
        _, inserts, deletes = op
        t0 = clock()
        try:
            report = serving.apply_updates(inserts=inserts, deletes=deletes)
            t1 = clock()
            published = serving.publish()
            t2 = clock()
        except Exception as exc:
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            return None
        if report.num_noops:
            # Every write of a round is possible by construction.
            self.failed += 1
            self.errors["unexpected no-op update"] += 1
        self.mode = published.mode
        factor = self.speed.factor()
        self.lat["update"].append((t1 - t0) * factor)
        self.busy += (t2 - t0) * factor
        layer = self.layer
        if self.tracer.enabled:
            rec = self.tracer.record
            top = rec("op.write", t0, t2, rid)
            rec("index.maintenance.apply_updates", t0, t1, rid, top)
            rec(f"serve.publish.{published.mode}", t1, t2, rid, top)
            layer["update.sc_changes"].append(len(report.sc_changes))
            layer[f"publish.{published.mode}_ms"].append((t2 - t1) * factor * 1e3)
            layer["publish.region_size"].append(published.region_size)
            layer["publish.shared_fraction"].append(published.shared_fraction)
            if self.gateway is not None:
                self._probe_swap(rid, top)
        return t0

    # ------------------------------------------------------------------
    # Layer probes (traced runs only)
    # ------------------------------------------------------------------
    def _probe(self, op: Op, served: float, miss: bool, rid: int, top: int) -> None:
        """Time the kernel behind a served answer (``served`` seconds,
        scaled) on the same snapshot."""
        serving = self.serving
        assert serving is not None
        snap = serving.snapshot()
        kind, arg = op[0], op[1]
        rec, layer, f = self.tracer.record, self.layer, self.speed.factor()
        if kind in ("batch", "gather"):
            p0 = clock()
            plan = plan_batch(arg)
            p1 = clock()
            snap.steiner_connectivity_batch(arg)
            p2 = clock()
            rec("serve.planner.plan_batch", p0, p1, rid, top)
            rec("kernel.batch", p1, p2, rid, top)
            layer["planner.plan_us"].append((p1 - p0) * f * 1e6)
            layer["kernel.batch_us"].append((p2 - p1) * f * 1e6)
            self.counts["planner.probes_saved"] += plan.probes_saved
            if self.gateway is not None:
                layer["shard.hop_us"].append((served - (p2 - p1) * f) * 1e6)
            return
        # Share of queries whose SMCC covers half the graph (or half the
        # query's connected component), for the workload description.
        _, start, end = snap.smcc_interval(arg)
        self.counts["queries.single"] += 1
        self.counts["queries.half_graph"] += 2 * (end - start) >= snap.num_vertices
        self.counts["queries.half_component"] += 2 * (end - start) >= self.comp_size[arg[0]]
        k0 = clock()
        if kind == "sc":
            snap.steiner_connectivity(arg)
        elif kind == "smcc":
            snap.smcc(arg)
        else:
            snap.smcc_l(arg, self.spec.size_bound)
        k1 = clock()
        name = kind if kind != "smcc_l" else f"smcc_l_{self.mode}"
        rec(f"kernel.{name}", k0, k1, rid, top)
        kernel = (k1 - k0) * f
        layer[f"kernel.{name}_us"].append(kernel * 1e6)
        if kind in ("sc", "smcc") and miss and self.gateway is None:
            layer[f"serving.{kind}_miss_overhead_us"].append((served - kernel) * 1e6)
        if kind in ("sc", "smcc") and self.gateway is not None:
            # The in-process tier on the same query, for the serving layer;
            # its cache traffic stays out of the workload's cache counts.
            before = serving.cache.stats()
            s0 = clock()
            getattr(serving, kind)(arg)
            s1 = clock()
            serving.cache.clear()  # the sharded path never fills it
            after = serving.cache.stats()
            for key in ("hits", "misses", "invalidations", "carried_over", "evictions"):
                self.counts[f"cache.{key}"] -= after[key] - before[key]
            rec(f"serve.serving.{kind}", s0, s1, rid, top)
            layer[f"serving.{kind}_miss_overhead_us"].append(((s1 - s0) * f - kernel) * 1e6)

    def _count_shard(self, gateway: ShardGateway) -> None:
        stats = gateway.stats()
        self.counts["shard.coalesced"] += stats["gateway"]["coalesced"]
        self.counts["shard.batches"] += stats["gateway"]["batches"]
        self.counts["shard.restarts"] += stats["restarts"]

    def _probe_swap(self, rid: int, top: int) -> None:
        """First request per worker after a publish, minus a steady one."""
        gateway = self.gateway
        assert gateway is not None
        rec, f = self.tracer.record, self.speed.factor()
        for q in self._query_per_worker():
            t0 = clock()
            gateway.sc(q)
            t1 = clock()
            gateway.sc(q)
            t2 = clock()
            rec("serve.shard.swap", t0, t1, rid, top)
            self.layer["shard.swap_ms"].append(((t1 - t0) - (t2 - t1)) * f * 1e3)

    def _query_per_worker(self) -> List[Tuple[int, ...]]:
        gateway = self.gateway
        assert gateway is not None
        found: Dict[int, Tuple[int, ...]] = {}
        for comp in self.inputs.comps:
            q = (comp[0], comp[-1])
            found.setdefault(gateway.shard_of(q) % gateway.pool.size, q)
        return [found[w] for w in sorted(found)]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _peak_rss_mb(self) -> float:
        """Peak resident memory of this process plus, on the sharded tier,
        its workers (each counted at the largest ended child's peak)."""
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.workers:
            kb += self.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return kb * 1024 / 1e6

    def _end_to_end(self) -> Dict[str, float]:
        lat, s = self.lat, self.setup
        reads = sum(len(v) for k, v in lat.items() if k not in ("fresh", "update"))
        writes = len(lat["update"])
        us = 1e6
        return {
            "setup_s": median(s["setup_s"]),
            "load_s": median(s["load_s"]),
            "index_mb": median(s["index_bytes"]) / 1e6,
            "peak_rss_mb": self.peak_rss_mb,
            "ops_per_s": (reads + writes) / self.busy,
            "sc_p50_us": _scaled(median(lat["sc"]), us),
            "sc_p99_us": _scaled(tail(lat["sc"], 99), us),
            "batch_p50_us": _scaled(median(lat["batch"]), us),
            "smcc_p50_us": _scaled(median(lat["smcc"]), us),
            "smcc_l_p50_us": _scaled(median(lat["smcc_l"]), us),
            "update_p50_ms": _scaled(median(lat["update"]), 1e3),
            "fresh_p50_ms": _scaled(median(lat["fresh"]), 1e3),
        }

    def _per_layer(self) -> Dict[str, float]:
        s, layer, counts = self.setup, self.layer, self.counts
        out: Dict[str, float] = {}
        for name in ("io.read_s", "build.conn_graph_s", "build.mst_s", "build.mst_star_s",
                     "load.first_answer_s", "persist.save_s", "persist.load_s",
                     "snapshot.capture_ms", "shard.open_s"):
            out[name] = median(s[name])
        out["persist.bytes"] = median(s["index_bytes"])
        for name in ("kernel.sc_us", "kernel.batch_us", "kernel.smcc_us",
                     "kernel.smcc_l_full_us", "kernel.smcc_l_delta_us",
                     "serving.sc_miss_overhead_us", "serving.smcc_miss_overhead_us",
                     "planner.plan_us", "update.sc_changes", "publish.full_ms",
                     "publish.delta_ms", "shard.export_ms", "shard.hop_us", "shard.swap_ms"):
            out[name] = median(layer[name])
        hits, misses = counts["cache.hits"], counts["cache.misses"]
        out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for name in ("cache.invalidations", "cache.carried_over", "cache.evictions",
                     "planner.probes_saved", "shard.coalesced", "shard.batches",
                     "shard.restarts"):
            out[name] = counts[name]
        out["update.apply_ms"] = median(self.lat["update"]) * 1e3
        publishes = len(layer["publish.full_ms"]) + len(layer["publish.delta_ms"])
        out["publish.delta_share"] = len(layer["publish.delta_ms"]) / publishes
        out["publish.region_size_mean"] = _mean(layer["publish.region_size"])
        out["publish.shared_fraction_mean"] = _mean(layer["publish.shared_fraction"])
        missing = sorted(k for k, v in out.items() if v is None)
        if missing:
            self.log(f"per-layer metrics without samples: {missing}")
        return {k: (0.0 if v is None else v) for k, v in out.items()}

    def trace_summary(self, result: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "end_to_end": self._end_to_end(),
            "workload": self.spec.name,
            "seed": self.seed,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": dict(self.errors),
            "rounds": self.counts["rounds"],
            "measured_s": self.measured,
            "speed": self.speed.summary(),
            "queries_half_graph_share":
                self.counts["queries.half_graph"] / max(1.0, self.counts["queries.single"]),
            "queries_half_component_share":
                self.counts["queries.half_component"] / max(1.0, self.counts["queries.single"]),
            "ops": {k: len(v) for k, v in self.lat.items()},
            "latency_us_p10_p25_p50_p75_p90": {
                k: [sorted(v)[int(len(v) * q)] * 1e6 for q in (0.1, 0.25, 0.5, 0.75, 0.9)]
                for k, v in self.lat.items() if v},
            "metrics": result["metrics"],
        }


def _scaled(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def log_stderr(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
