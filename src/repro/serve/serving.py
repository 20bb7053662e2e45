"""The concurrent query-serving facade: :class:`ServingIndex`.

Composes the three serving mechanisms into one object:

- **snapshot isolation** — reads run against the immutable
  :class:`~repro.serve.snapshot.IndexSnapshot` published by the
  :class:`~repro.serve.publisher.SnapshotPublisher`; writers mutate the
  live index under the publisher's lock and publish explicitly (or
  automatically every ``auto_publish_every`` updates);
- **result caching** — a generation-aware LRU
  (:class:`~repro.serve.cache.QueryCache`) shortcuts repeated queries;
  on publish, entries provably untouched by the updates carry over;
- **admission control** — every query may carry a ``timeout`` (seconds)
  and a ``max_staleness`` (updates the answer may lag the live graph).
  A query whose staleness budget is exhausted degrades to a *direct
  online* computation against the live graph (the index-free baseline
  algorithms of Section 3), trading latency for freshness; a query
  whose deadline expires raises
  :class:`~repro.errors.DeadlineExceededError`.

All serve-side metrics land in the :mod:`repro.obs` registry under the
``serve.*`` namespace when observability is enabled (see
``docs/SERVING.md`` for the full table).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.tsan import monitored, new_lock
from repro.baselines import sc_baseline, smcc_baseline, smcc_l_baseline
from repro.core.queries import SMCCIndex, SMCCResult
from repro.errors import DeadlineExceededError, DisconnectedQueryError
from repro.graph.graph import Graph
from repro.obs import runtime as _obs
from repro.obs.timing import monotonic
from repro.serve.cache import CacheKey, QueryCache, Touch, canonical_query
from repro.serve.planner import canonicalize
from repro.serve.publisher import SnapshotPublisher
from repro.serve.reports import PublishReport, UpdateReport
from repro.serve.snapshot import IndexSnapshot

__all__ = ["Deadline", "ServeConfig", "ServingIndex"]


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for one :class:`ServingIndex`."""

    #: LRU result-cache capacity (entries)
    cache_capacity: int = 4096
    #: ``"region"`` carries provably unaffected entries across publishes;
    #: ``"wholesale"`` drops the whole cache on every publish
    invalidation: str = "region"
    #: region tracking is abandoned for a publish window once the
    #: affected set covers more than this fraction of the vertices
    #: (scanning the cache costs more than refilling it at that point)
    region_fraction_limit: float = 0.25
    #: default per-query deadline in seconds (None = no deadline)
    default_timeout: Optional[float] = None
    #: default staleness budget in updates (None = snapshot always OK)
    default_max_staleness: Optional[int] = None
    #: publish automatically after this many updates (None = manual)
    auto_publish_every: Optional[int] = None
    #: KECC engine for the degraded direct path
    direct_engine: str = "exact"
    #: deprecated and ignored: a publish reuses the previous MST* when
    #: the spanning forest is unchanged and rebuilds it otherwise
    delta_publish: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.delta_publish is not None:
            warnings.warn(
                "ServeConfig.delta_publish is deprecated and ignored: a "
                "publish reuses the previous MST* when the spanning "
                "forest is unchanged and captures it fully otherwise",
                DeprecationWarning,
                stacklevel=3,
            )
        if self.invalidation not in ("region", "wholesale"):
            raise ValueError(
                f"invalidation must be 'region' or 'wholesale', "
                f"got {self.invalidation!r}"
            )


class _Deadline:
    """Admission-control deadline for one query (no-op when disabled)."""

    __slots__ = ("timeout", "started")

    def __init__(self, timeout: Optional[float]) -> None:
        self.timeout = timeout
        self.started = monotonic() if timeout is not None else 0.0

    def check(self) -> None:
        if self.timeout is None:
            return
        elapsed = monotonic() - self.started
        if elapsed > self.timeout:
            registry = _obs.REGISTRY
            if registry is not None:
                registry.counter("serve.deadline_exceeded").inc()
            raise DeadlineExceededError(self.timeout, elapsed - self.timeout)

    def remaining(self) -> Optional[float]:
        """Unspent budget in seconds (None = no deadline, floor 0).

        This is what crosses a process hop: the shard gateway arms a
        deadline at admission and forwards ``remaining()`` so the worker
        re-arms it with only the *unspent* budget.
        """
        if self.timeout is None:
            return None
        return max(0.0, self.timeout - (monotonic() - self.started))


#: Public alias: the shard worker tier re-arms deadlines from the
#: remaining budget forwarded across the process hop.
Deadline = _Deadline


@monitored
class ServingIndex:
    """Concurrent, cached, deadline-aware SMCC query serving."""

    def __init__(
        self,
        index: SMCCIndex,
        *,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.config = config or ServeConfig()  # guarded-by: immutable-after-publish
        # guarded-by: immutable-after-publish
        self.publisher = SnapshotPublisher(index)
        # guarded-by: immutable-after-publish
        self.cache = QueryCache(
            capacity=self.config.cache_capacity,
            generation=self.publisher.generation,
        )
        #: bumped on the degraded path under the publisher lock; read
        #: lock-free by stats() — an advisory health counter
        self._degraded_queries = 0  # guarded-by: publisher.lock [writes]
        #: guards _inflight: _admit/_release run concurrently from every
        #: reader thread and += is not atomic
        self._inflight_lock = new_lock("ServingIndex._inflight_lock")
        self._inflight = 0  # guarded-by: _inflight_lock

    @classmethod
    def build(
        cls,
        graph: Graph,
        *,
        config: Optional[ServeConfig] = None,
        **build_kwargs: object,
    ) -> "ServingIndex":
        """Build the underlying index and wrap it for serving."""
        index = SMCCIndex.build(graph, **build_kwargs)  # type: ignore[arg-type]
        return cls(index, config=config)

    # ------------------------------------------------------------------
    # Snapshot / generation plumbing
    # ------------------------------------------------------------------
    def snapshot(self) -> IndexSnapshot:
        """The current published snapshot; hold it for consistent reads."""
        return self.publisher.snapshot()

    @property
    def generation(self) -> int:
        return self.publisher.generation

    def staleness(self) -> int:
        """Updates the published snapshot lags behind the live graph."""
        return self.publisher.staleness()

    # ------------------------------------------------------------------
    # Writer API
    # ------------------------------------------------------------------
    def apply_updates(
        self,
        *,
        inserts: Optional[Iterable[Tuple[int, int]]] = None,
        deletes: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> UpdateReport:
        """Apply one batch of edge updates to the live index.

        Deletes run before inserts; impossible operations (missing
        delete, duplicate insert, self-loop) are reported as no-ops.
        The batch is applied transactionally under the writer lock but
        not published — call :meth:`publish`, or configure
        ``auto_publish_every``.
        """
        report = self.publisher.apply_updates(inserts=inserts, deletes=deletes)
        self._maybe_auto_publish()
        return report

    def _maybe_auto_publish(self) -> None:
        every = self.config.auto_publish_every
        if every is not None and self.publisher.staleness() >= every:
            self.publish()

    def publish(self) -> PublishReport:
        """Publish pending updates as a new snapshot generation.

        Invalidate the result cache per affected tree region when the
        region stayed small (and region invalidation is configured),
        wholesale otherwise.  Returns the publisher's
        :class:`~repro.serve.reports.PublishReport`; read the published
        generation through its ``snapshot``.
        """
        report = self.publisher.publish()
        if report.mode == "noop":
            return report  # nothing changed; cache generation holds
        snapshot = report.snapshot  # borrowed-resource
        affected = self._effective_region(snapshot, report.affected)
        self.cache.advance(snapshot.generation, affected)
        self._mirror_cache_metrics()
        return report

    def _effective_region(
        self, snapshot: IndexSnapshot, affected: Optional[FrozenSet[int]]
    ) -> Optional[FrozenSet[int]]:
        if self.config.invalidation == "wholesale" or affected is None:
            return None
        limit = self.config.region_fraction_limit * max(snapshot.num_vertices, 1)
        if len(affected) > limit:
            return None
        return affected

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    def sc(
        self,
        q: Sequence[int],
        *,
        timeout: Optional[float] = None,
        max_staleness: Optional[int] = None,
    ) -> int:
        """``sc(q)`` with caching, staleness control, and a deadline."""
        deadline = self._admit("sc", timeout)
        try:
            if self._needs_direct(max_staleness):
                return self._direct_sc(q, deadline)
            snapshot = self.snapshot()  # borrowed-resource
            key = canonical_query("sc", tuple(q))
            entry = self.cache.get(key, snapshot.generation)
            if entry is not None:
                self._count("serve.cache.hit")
                return entry.value  # type: ignore[return-value]
            self._count("serve.cache.miss")
            deadline.check()
            value = snapshot.steiner_connectivity(q)
            self.cache.put(
                key, value, snapshot.generation, self._touch(snapshot, q, value)
            )
            return value
        finally:
            self._release()

    def smcc(
        self,
        q: Sequence[int],
        *,
        timeout: Optional[float] = None,
        max_staleness: Optional[int] = None,
    ) -> SMCCResult:
        """The SMCC of ``q`` with caching, staleness control, deadline."""
        deadline = self._admit("smcc", timeout)
        try:
            if self._needs_direct(max_staleness):
                deadline.check()
                with self.publisher.lock:
                    self._count("serve.degraded")
                    self._degraded_queries += 1
                    vertices, sc = smcc_baseline(
                        self.publisher.index.graph, q,
                        engine=self.config.direct_engine,
                    )
                return SMCCResult(vertices, sc)
            snapshot = self.snapshot()
            key = canonical_query("smcc", tuple(q))
            entry = self.cache.get(key, snapshot.generation)
            if entry is not None:
                self._count("serve.cache.hit")
                return entry.value  # type: ignore[return-value]
            self._count("serve.cache.miss")
            deadline.check()
            result = snapshot.smcc(q)
            self.cache.put(
                key,
                result,
                snapshot.generation,
                self._touch(snapshot, q, result.connectivity),
            )
            return result
        finally:
            self._release()

    def smcc_l(
        self,
        q: Sequence[int],
        *,
        size_bound: int,
        timeout: Optional[float] = None,
        max_staleness: Optional[int] = None,
    ) -> SMCCResult:
        """The SMCC_L of ``q`` with caching, staleness control, deadline."""
        deadline = self._admit("smcc_l", timeout)
        try:
            if self._needs_direct(max_staleness):
                deadline.check()
                with self.publisher.lock:
                    self._count("serve.degraded")
                    self._degraded_queries += 1
                    vertices, k = smcc_l_baseline(
                        self.publisher.index.graph, q, size_bound,
                        engine=self.config.direct_engine,
                    )
                return SMCCResult(vertices, k)
            snapshot = self.snapshot()
            key = canonical_query("smcc_l", tuple(q), extra=size_bound)
            entry = self.cache.get(key, snapshot.generation)
            if entry is not None:
                self._count("serve.cache.hit")
                return entry.value  # type: ignore[return-value]
            self._count("serve.cache.miss")
            deadline.check()
            result = snapshot.smcc_l(q, size_bound)
            self.cache.put(
                key,
                result,
                snapshot.generation,
                self._touch(snapshot, q, result.connectivity),
            )
            return result
        finally:
            self._release()

    def sc_batch(
        self,
        queries: Sequence[Sequence[int]],
        *,
        timeout: Optional[float] = None,
        max_staleness: Optional[int] = None,
    ) -> List[int]:
        """Batched ``sc``: cache hits, then one vectorized kernel call.

        Queries are canonicalized by
        :func:`~repro.serve.planner.canonicalize` (the cache keys); the
        misses go to
        :meth:`~repro.index.mst_star.MSTStar.steiner_connectivity_batch`
        in one call.  Answers align with ``queries``; a query spanning
        multiple connected components answers 0 (the batch convention)
        instead of raising.
        """
        deadline = self._admit("batch", timeout)
        try:
            if self._needs_direct(max_staleness):
                return [self._direct_sc(q, deadline, batch=True) for q in queries]
            snapshot = self.snapshot()
            canonical = canonicalize(queries)
            answers: List[int] = [0] * len(canonical)
            uncached: List[Tuple[int, Tuple[int, ...], CacheKey]] = []
            for i, cq in enumerate(canonical):
                key = canonical_query("sc", cq)
                entry = self.cache.get(key, snapshot.generation)
                if entry is not None:
                    self._count("serve.cache.hit")
                    answers[i] = entry.value  # type: ignore[assignment]
                else:
                    self._count("serve.cache.miss")
                    uncached.append((i, cq, key))
            deadline.check()
            if uncached:
                values = snapshot.steiner_connectivity_batch(
                    [cq for _, cq, _ in uncached]
                )
                for (i, cq, key), value in zip(uncached, values):
                    answers[i] = value
                    if value > 0:
                        # 0 = disconnected/isolated: the per-query path
                        # raises there, so the conventions would clash.
                        self.cache.put(
                            key,
                            value,
                            snapshot.generation,
                            self._touch(snapshot, cq, value),
                        )
            return answers
        finally:
            self._release()

    # ------------------------------------------------------------------
    # Degraded (direct online) path
    # ------------------------------------------------------------------
    def _needs_direct(self, max_staleness: Optional[int]) -> bool:
        budget = (
            max_staleness
            if max_staleness is not None
            else self.config.default_max_staleness
        )
        return budget is not None and self.publisher.staleness() > budget

    def _direct_sc(
        self, q: Sequence[int], deadline: _Deadline, batch: bool = False
    ) -> int:
        """Index-free sc against the live graph (fresh but slow)."""
        deadline.check()
        with self.publisher.lock:
            self._count("serve.degraded")
            self._degraded_queries += 1
            try:
                return sc_baseline(
                    self.publisher.index.graph, q,
                    engine=self.config.direct_engine,
                )
            except DisconnectedQueryError:
                if batch:
                    return 0
                raise

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _touch(snapshot: IndexSnapshot, q: Sequence[int], k: int) -> Touch:
        """Invalidation region of an answer at connectivity ``k``.

        That is the maximal k-ecc containing q: the SMCC for ``sc`` and
        ``smcc`` answers, and the SMCC_L itself for ``smcc_l`` (Algorithm
        5 expands while weights are >= k).  sc(q) is the min edge weight
        on tree paths inside that component; any update that changes it
        must change the sc of an edge with an endpoint in it (Lemmas
        5.2–5.4), so the component — one leaf interval, which holds q —
        is a sound touch set.  ``k <= 0`` has no component; q itself is
        the set.
        """
        if k <= 0:
            return frozenset(q)
        star = snapshot.star
        start, end = star.component_interval(next(iter(q)), k)
        return (star.leaf_position, start, end)

    def _admit(self, kind: str, timeout: Optional[float]) -> _Deadline:
        with self._inflight_lock:
            self._inflight += 1
            inflight = self._inflight
        registry = _obs.REGISTRY
        if registry is not None:
            registry.counter(f"serve.{kind}.count").inc()
            registry.gauge("serve.queue.depth").set(inflight)
            registry.gauge("serve.snapshot.staleness").set(
                self.publisher.staleness()
            )
        deadline = _Deadline(
            timeout if timeout is not None else self.config.default_timeout
        )
        try:
            deadline.check()
        except DeadlineExceededError:
            # The caller's try/finally is not armed yet; release here.
            self._release()
            raise
        return deadline

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            inflight = self._inflight
        registry = _obs.REGISTRY
        if registry is not None:
            registry.gauge("serve.queue.depth").set(inflight)

    def _count(self, name: str, amount: int = 1) -> None:
        registry = _obs.REGISTRY
        if registry is not None and amount:
            registry.counter(name).inc(amount)

    def _mirror_cache_metrics(self) -> None:
        registry = _obs.REGISTRY
        if registry is not None:
            stats = self.cache.stats()
            registry.gauge("serve.cache.size").set(stats["size"])
            registry.gauge("serve.cache.invalidations").set(
                stats["invalidations"]
            )
            registry.gauge("serve.cache.carried_over").set(
                stats["carried_over"]
            )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One JSON-ready dict of serving-side health."""
        with self._inflight_lock:
            inflight = self._inflight
        return {
            "generation": self.generation,
            "staleness": self.staleness(),
            "inflight": inflight,
            "degraded_queries": self._degraded_queries,
            "cache": self.cache.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"ServingIndex(generation={self.generation}, "
            f"staleness={self.staleness()}, cache={self.cache!r})"
        )
