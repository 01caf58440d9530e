"""Counters and histograms — the flight recorder's gauges.

Unlike spans (sampled intervals, off by default), metrics are **always
on**: monotonic counters and summary histograms cost one small lock
acquisition per update, which the <2% overhead budget absorbs.  The
instrumented layers register:

* ``query_cache.*`` — hits, misses, evictions, analysis hits/misses
  (:class:`~repro.query.cache.QueryCache`);
* ``provider.compile_lock.contended`` — waits on a per-shape compile
  lock (:class:`~repro.query.shape.ShapeRecord`);
* ``compile.<engine>.*`` — codegen and compile wall seconds per engine
  (provider + :func:`~repro.codegen.compiler.compile_source`);
* ``recycler.*`` — result-buffer reuse
  (:class:`~repro.query.recycler.RecyclingProvider`);
* ``parallel.*`` — morsel dispatch counts and merge seconds
  (:class:`~repro.runtime.parallel.ParallelQuery`);
* ``runtime.kernels.dense`` / ``runtime.kernels.sorted`` (+
  ``.sorted.<reason>``) — one per factorization or join build, by the
  path it took (:mod:`~repro.runtime.vectorized`).

Everything exports as a plain dict (:meth:`MetricsRegistry.snapshot`) or
JSON lines (:meth:`MetricsRegistry.to_json_lines`).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Optional

__all__ = ["Counter", "Histogram", "MetricsRegistry", "METRICS"]


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> int:
        return self.value


class Histogram:
    """A thread-safe summary histogram: count / sum / min / max / mean.

    Full distributions are overkill for phase timings; the four moments
    above are what the regression gate and the §7.4 compile-cost report
    actually consume.
    """

    __slots__ = ("name", "_lock", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            mean = self._sum / self._count if self._count else 0.0
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": mean,
            }


class MetricsRegistry:
    """Name → instrument map with get-or-create semantics.

    A process-wide instance (:data:`METRICS`) backs the instrumented
    layers; tests inject private registries to assert exact counts
    without cross-talk from other queries in the process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
            return instrument

    def snapshot(self) -> Dict[str, Any]:
        """Every instrument's current value, as one plain dict."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        out: Dict[str, Any] = {}
        for name in sorted(counters):
            out[name] = counters[name].snapshot()
        for name in sorted(histograms):
            out[name] = histograms[name].snapshot()
        return out

    def to_json_lines(self) -> str:
        """One ``{"metric": name, ...}`` JSON object per line."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                lines.append(json.dumps({"metric": name, **value}))
            else:
                lines.append(json.dumps({"metric": name, "value": value}))
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every instrument (tests and benchmark reruns)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


#: the process-wide registry every instrumented layer shares
METRICS = MetricsRegistry()
