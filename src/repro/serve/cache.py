"""Generation-aware LRU result cache for the serving layer.

Query results are tiny (an integer, or a component descriptor) and the
workload the paper targets is read-dominated, so caching pays for
itself immediately — but only if staleness is impossible by
construction.  Two mechanisms guarantee that:

- every entry records the snapshot **generation** it was computed
  against, and a lookup only hits when the requested generation
  matches;
- on publish the writer calls :meth:`QueryCache.advance` with the set
  of vertices affected by the updates folded into the new generation.
  Entries whose *touch set* (query vertices plus answer component) is
  disjoint from the affected set are carried over to the new
  generation — their answers are provably unchanged, because sc only
  changes on edges inside the SMCC of the updated edge (Lemmas
  5.2–5.4), and any membership change of a component must change the
  sc of an edge incident to one of its vertices.  Entries that
  intersect the affected region are dropped.  When the affected set is
  unknown (or region tracking is disabled) the cache is invalidated
  wholesale, which is always safe.

A touch set is stored as a **leaf interval** of the answering
generation wherever one exists: every k-ecc is one MST* subtree, hence
one contiguous slice ``[start, end)`` of that generation's leaf order,
and the query vertices lie inside it.  The entry keeps
``(leaf_position, start, end)``, where ``leaf_position`` is the
answering star's own vertex-to-position array, shared by identity.  An
entry thus costs O(1) memory whatever the component size, while the
cache pins one O(|V|) ``leaf_position`` list per distinct answering
generation among its live entries (every publish builds a fresh one,
so a carried entry keeps its generation's list alive).
:meth:`QueryCache.advance` maps the affected set to positions once per
distinct array and tests each interval entry with one bisection.  A
carried entry keeps its older generation's interval: its answer did
not change, so that interval still names the same vertex set.  A plain
frozenset remains only for answers with connectivity ``<= 0``, which
have no component: the query itself is the touch set.

Readers insert results *outside* the publisher lock, so an insert and
a publish can race.  The cache therefore tracks its own current
generation and enforces a strict discipline:

- :meth:`QueryCache.put` discards any insert stamped with a
  generation other than the cache's current one — a result computed
  against generation N that lands after the advance to N+1 was never
  checked against that publish's affected set, so accepting it (and
  letting a later advance re-stamp it) would serve stale answers;
- :meth:`QueryCache.advance` only carries over entries validated at
  the immediately preceding generation, rejects non-monotonic
  generations outright (publish and advance are not one atomic step,
  so notifications can arrive reordered), and falls back to wholesale
  invalidation on a generation gap.

Together these make every resident entry provably valid at the
cache's current generation, whatever the interleaving.

The cache is a plain lock-guarded ``OrderedDict`` LRU: the serving
layer's critical sections are a handful of dict operations, far cheaper
than the queries they shortcut.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, Union

from repro.analysis.tsan import monitored, new_lock

__all__ = ["CacheEntry", "QueryCache", "Touch", "canonical_query"]

CacheKey = Tuple[str, Tuple[int, ...], Hashable]

#: An entry's invalidation region: ``(leaf_position, start, end)`` — the
#: vertices whose position in the answering generation's leaf order
#: lies in ``[start, end)`` — or an explicit vertex set.
Touch = Union[Tuple[Sequence[int], int, int], FrozenSet[int]]


def canonical_query(kind: str, q: Tuple[int, ...], extra: Hashable = None) -> CacheKey:
    """The cache key for a query: kind + sorted unique vertices + options.

    Sorting makes ``sc([3, 1, 2])`` and ``sc([2, 3, 1, 3])`` share one
    entry — sc and SMCC answers are set functions of the query.
    """
    return (kind, tuple(sorted(set(q))), extra)


@monitored
class CacheEntry:
    """One cached answer plus the metadata needed for invalidation."""

    __slots__ = ("value", "generation", "touch")

    def __init__(
        self,
        value: object,
        generation: int,
        touch: Touch,
    ) -> None:
        #: the answer: an int or an SMCCResult over a tuple slice of
        #: the answering star's leaf order, so readers sharing a hit
        #: cannot change it in place
        self.value = value  # guarded-by: immutable-after-publish
        #: re-stamped by :meth:`QueryCache.advance` under the owning
        #: cache's lock when the entry provably carries over a publish
        self.generation = generation  # guarded-by: external:QueryCache._lock
        #: vertices whose sc changes invalidate this answer (query
        #: vertices plus the answer component): a leaf interval
        #: ``(leaf_position, start, end)`` of the answering generation,
        #: or a frozenset of the query where there is no component
        #: (connectivity <= 0); an empty frozenset =
        #: always dropped on publish rather than carried over.  The
        #: interval shares the star's read-only leaf_position memoryview.
        self.touch = touch  # guarded-by: immutable-after-publish


@monitored
class QueryCache:
    """A thread-safe, generation-aware LRU mapping query keys to answers."""

    def __init__(self, *, capacity: int = 4096, generation: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = new_lock("QueryCache._lock")
        # guarded-by: _lock
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        #: the generation the cache currently accepts inserts for;
        #: advanced monotonically by :meth:`advance`
        self._generation = generation  # guarded-by: _lock
        # Counters (mirrored into the obs registry by the serving layer).
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self.invalidations = 0  # guarded-by: _lock
        self.carried_over = 0  # guarded-by: _lock
        self.stale_puts = 0  # guarded-by: _lock

    @property
    def generation(self) -> int:
        """The generation the cache currently accepts inserts for."""
        with self._lock:
            return self._generation

    # ------------------------------------------------------------------
    def get(self, key: CacheKey, generation: int) -> Optional[CacheEntry]:
        """The entry for ``key`` at ``generation``, or None on a miss.

        Every resident entry is stamped with the cache's current
        generation (older entries survive ``advance`` only when proven
        unaffected, which bumps their stamp), so a reader holding an
        older snapshot simply misses — the entry stays for current
        readers.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.generation != generation:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(
        self,
        key: CacheKey,
        value: object,
        generation: int,
        touch: Touch = frozenset(),
    ) -> None:
        """Insert an answer computed against ``generation``.

        Discarded when ``generation`` is not the cache's current one:
        readers insert outside the publisher lock, so a result computed
        against generation N can arrive after the advance to N+1 — its
        validity was never checked against that publish's affected set,
        and a later advance would re-stamp it as current, serving stale
        answers.  Dropping it is always safe (worst case: one redundant
        recomputation).
        """
        with self._lock:
            if generation != self._generation:
                self.stale_puts += 1
                return
            self._entries[key] = CacheEntry(value, generation, touch)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    # ------------------------------------------------------------------
    def advance(
        self, new_generation: int, affected: Optional[FrozenSet[int]] = None
    ) -> int:
        """Invalidate for a newly published generation; returns drops.

        ``affected=None`` means the affected region is unknown: drop
        everything (wholesale).  Otherwise drop the entries whose touch
        set intersects ``affected`` and re-stamp the rest to
        ``new_generation`` (their answers carry over unchanged).

        Only entries validated at ``new_generation - 1`` are eligible
        to carry over — anything else was never checked against every
        intervening publish.  A ``new_generation`` at or below the
        cache's current one is rejected as a no-op: the publisher's
        publish and this advance are not one atomic step, so
        notifications can arrive reordered, and by the time an older
        one lands a newer advance has already dropped everything that
        publish could have invalidated.  A generation *gap* (the
        predecessor's advance never arrived) falls back to wholesale.
        """
        with self._lock:
            if new_generation <= self._generation:
                return 0
            previous = self._generation
            self._generation = new_generation
            if affected is None or new_generation != previous + 1:
                dropped = len(self._entries)
                self._entries.clear()
                self.invalidations += dropped
                return dropped
            dead = []
            carried = 0
            #: id(leaf_position) -> sorted positions of ``affected`` in
            #: it; the entries hold the arrays, so the ids stay unique
            hit_positions: Dict[int, List[int]] = {}
            for key, entry in self._entries.items():
                touch = entry.touch
                if entry.generation != previous or not touch:
                    hit = True
                elif isinstance(touch, tuple):
                    leaf_position, start, end = touch
                    positions = hit_positions.get(id(leaf_position))
                    if positions is None:
                        positions = _sorted_positions(leaf_position, affected)
                        hit_positions[id(leaf_position)] = positions
                    i = bisect_left(positions, start)
                    hit = i < len(positions) and positions[i] < end
                else:
                    hit = not touch.isdisjoint(affected)
                if hit:
                    dead.append(key)
                else:
                    entry.generation = new_generation
                    carried += 1
            for key in dead:
                del self._entries[key]
            self.invalidations += len(dead)
            self.carried_over += carried
            return len(dead)

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "generation": self._generation,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "carried_over": self.carried_over,
                "stale_puts": self.stale_puts,
            }

    def __repr__(self) -> str:
        # Snapshot once under the lock: reading the counters directly
        # here would race with concurrent get/put.
        stats = self.stats()
        return (
            f"QueryCache(size={stats['size']}, "
            f"capacity={stats['capacity']}, "
            f"hits={stats['hits']}, misses={stats['misses']})"
        )


def _sorted_positions(
    leaf_position: Sequence[int], affected: FrozenSet[int]
) -> List[int]:
    """The leaf positions of ``affected``, sorted.

    Vertices past the end of ``leaf_position`` were added after its
    generation was captured, so they lie in none of its intervals.
    """
    n = len(leaf_position)
    return sorted(leaf_position[v] for v in affected if v < n)
