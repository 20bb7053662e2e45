"""Summary statistics, machine speed and the span recorder of the benchmark.

Percentile rule: a tail percentile is reported only when at least
``MIN_BEYOND`` samples lie beyond it (p99 needs >= 1000 samples);
otherwise :func:`tail` returns None and the caller reports the median
alone.

Machine speed: on a shared machine the same work takes up to twice as
long from one few-second spell to the next, on wall-clock and CPU time
alike, because neighbours share the cores.  :class:`Speed` runs a fixed
calibration snippet between operations and scales every time by how
much slower than :data:`REFERENCE_S` the snippet ran just before (and,
around long steps, just after).  Times are therefore reported at the
reference speed; the scale factors go into the trace summary.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10

clock = time.perf_counter


def median(values: Sequence[float]) -> Optional[float]:
    """The median, or None for no samples."""
    return statistics.median(values) if values else None


def tail(values: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct`` percentile (nearest rank), or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (100.0 - pct) / 100.0 < MIN_BEYOND:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
#: median duration of :func:`calibration` on the machine the README's
#: figures come from, in a quiet spell
REFERENCE_S = 0.0005
#: calibration samples a scale factor is the median of
RECENT = 8
#: the closed loop calibrates again once this long has passed
INTERVAL_S = 0.04

_CAL_TABLE = {i: (i * 7919) & 1023 for i in range(1024)}
_CAL_KEYS = list(range(0, 21000, 7))
_CAL_VALUES = np.random.default_rng(0).integers(0, 1 << 20, 1 << 16)
_CAL_INDEX = np.random.default_rng(1).integers(0, 1 << 16, 1 << 14)


def calibration() -> int:
    """Fixed work like the serving path's: interpreted dictionary lookups
    and integer arithmetic, then a numpy gather and sort.  It creates no
    container the garbage collector tracks, so it never triggers a
    collection of the program's heap."""
    table, acc = _CAL_TABLE, 0
    for key in _CAL_KEYS:
        acc += table[key & 1023] ^ key
    gathered = _CAL_VALUES[_CAL_INDEX]
    gathered.sort()
    return acc + int(gathered[-1])


class Speed:
    """Scale factors from calibration samples taken between operations."""

    def __init__(self) -> None:
        self.costs: List[float] = []
        self.factors: List[float] = []
        self.last = -math.inf

    def measure(self, reps: int = 1) -> None:
        """Time ``reps`` runs of the snippet after one untimed run, so that
        the samples see a warm cache whatever the program's footprint."""
        calibration()
        for _ in range(reps):
            t0 = clock()
            calibration()
            t1 = clock()
            self.costs.append(t1 - t0)
        self.last = t1

    def tick(self) -> None:
        """Calibrate if :data:`INTERVAL_S` passed since the last sample."""
        if clock() - self.last >= INTERVAL_S:
            self.measure()

    def factor(self, recent: int = RECENT) -> float:
        """Reference over the median of the last ``recent`` samples."""
        value = REFERENCE_S / statistics.median(self.costs[-recent:])
        self.factors.append(value)
        return value

    def scaled(self, seconds: float) -> float:
        return seconds * self.factor()

    def step(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float, float, float]:
        """Calibrate, call ``fn``, calibrate again; returns the result, its
        start and end, and its duration scaled by the samples on both
        sides."""
        self.measure(RECENT)
        t0 = clock()
        out = fn(*args, **kwargs)
        t1 = clock()
        self.measure(RECENT)
        return out, t0, t1, (t1 - t0) * self.factor(2 * RECENT)

    def summary(self) -> Dict[str, float]:
        f = self.factors
        return {"samples": len(self.costs),
                "factor_min": min(f) if f else 0.0,
                "factor_median": median(f) or 0.0,
                "factor_max": max(f) if f else 0.0}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """Records spans ``(name, start, end, parent, request)`` in memory.

    Spans are kept in a flat list and written once, when the run ends.
    ``parent`` is the index of the enclosing span in that list (-1 at
    top level); spans of one operation share its request id.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []

    def record(
        self, name: str, start: float, end: float, request: int = -1, parent: int = -1
    ) -> int:
        self.spans.append((name, start, end, parent, request))
        return len(self.spans) - 1

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: str, summary: Dict[str, object]) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "summary": summary,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


class NullTracer(Tracer):
    """The untraced run: records nothing."""

    enabled = False

    def record(
        self, name: str, start: float, end: float, request: int = -1, parent: int = -1
    ) -> int:
        return -1
