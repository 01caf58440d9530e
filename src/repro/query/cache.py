"""The query cache (paper §3, Figure 3): one LRU of per-shape records.

"After replacing all constant parts, we consult a cache that contains
compiled code of previous queries ... Queries in the cache are identified
by their expression tree.  The system also supports reusing compiled code
if the expression trees are essentially the same, but one or more
parameters in the query differ."

The canonicalizer guarantees the second property (constants are lifted to
parameters before keying), so a cache entry is a
:class:`~repro.query.shape.ShapeRecord`: everything the provider has
derived from one query shape — analysis, optimized plan, pipeline IR,
tier-split verdicts, dataflow facts, and the compiled artifacts of every
engine and tier that ran it.  Evicting a record is the only eviction
there is; nothing else holds per-shape state.

The budget counts *compiled artifacts* (sequential + partial-kernel,
summed over records), which is what dominates memory: the oldest records
go until at most ``max_entries`` artifacts, in at most ``max_entries``
records, remain.

The cache is shared between every thread that executes queries, so the
LRU, the artifact tables and the statistics all change under one internal
lock.  Compilation itself is *not* serialized here: each record carries
its own lock, so two threads never duplicate one shape's compilation
while distinct shapes compile concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..observability.metrics import METRICS, MetricsRegistry
from .shape import ShapeRecord

__all__ = ["QueryCache", "CacheStats"]


@dataclass
class CacheStats:
    #: sequential-artifact lookups, one per execution / ``compile_info``
    hits: int = 0
    misses: int = 0
    #: compiled artifacts dropped to stay within the budget
    evictions: int = 0
    #: static-analysis results found on / derived for a record
    analysis_hits: int = 0
    analysis_misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class QueryCache:
    """Bounded LRU of :class:`ShapeRecord` keyed by canonical query shape.

    Thread-safe: every operation holds the cache's internal lock.
    """

    def __init__(
        self,
        max_entries: int = 256,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_entries <= 0:
            raise ValueError("cache size must be positive")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._records: "OrderedDict[Any, ShapeRecord]" = OrderedDict()
        self._artifacts = 0
        self.stats = CacheStats()
        # the same accounting, mirrored into the observability registry
        # (process-global by default; tests inject private registries)
        registry = metrics if metrics is not None else METRICS
        self._m_hits = registry.counter("query_cache.hits")
        self._m_misses = registry.counter("query_cache.misses")
        self._m_evictions = registry.counter("query_cache.evictions")
        self._m_analysis_hits = registry.counter("query_cache.analysis_hits")
        self._m_analysis_misses = registry.counter(
            "query_cache.analysis_misses"
        )

    def record(self, key: Any) -> ShapeRecord:
        """The record for *key* (created empty on first sight), refreshed
        to most-recently-used."""
        with self._lock:
            record = self._records.get(key)
            if record is None:
                record = self._records[key] = ShapeRecord(key)
                self._trim()
            else:
                self._records.move_to_end(key)
            return record

    def find(self, record: ShapeRecord, artifact_key: tuple) -> Optional[Any]:
        """Look up one artifact of *record*, refreshing its LRU position.
        Lookups do not count; see :meth:`count`."""
        with self._lock:
            artifact = record.artifacts.get(artifact_key)
            if artifact is not None:
                record.artifacts.move_to_end(artifact_key)
            return artifact

    def admit(self, record: ShapeRecord, artifact_key: tuple, artifact: Any) -> None:
        """Store a freshly compiled artifact and evict down to budget."""
        with self._lock:
            current = self._records.get(record.key)
            if current is not record:
                # evicted while it compiled: reinstate it, superseding
                # any successor created for the same shape meanwhile
                if current is not None:
                    self._drop(current)
                self._records[record.key] = record
            self._records.move_to_end(record.key)
            if artifact_key not in record.artifacts:
                self._artifacts += 1
            record.artifacts[artifact_key] = artifact
            record.artifacts.move_to_end(artifact_key)
            self._trim()

    def count(self, hit: bool) -> None:
        """Account one sequential-artifact lookup as a hit or a miss."""
        with self._lock:
            if hit:
                self.stats.hits += 1
                self._m_hits.add()
            else:
                self.stats.misses += 1
                self._m_misses.add()

    def count_analysis(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.stats.analysis_hits += 1
                self._m_analysis_hits.add()
            else:
                self.stats.analysis_misses += 1
                self._m_analysis_misses.add()

    def _drop(self, record: ShapeRecord) -> None:
        """Evict *record* whole.  Its artifact table is emptied in place,
        so a thread still holding the record recompiles, not resurrects."""
        self._records.pop(record.key, None)
        self._evicted(len(record.artifacts))
        record.artifacts.clear()

    def _evicted(self, artifacts: int) -> None:
        self._artifacts -= artifacts
        self.stats.evictions += artifacts
        self._m_evictions.add(artifacts)

    def _trim(self) -> None:
        limit = self._max_entries
        while self._artifacts > limit or len(self._records) > limit:
            oldest = next(iter(self._records.values()))
            if len(self._records) > 1:
                self._drop(oldest)
            else:
                # one shape alone overflows the budget (many engines or
                # facts tokens): shed its least recently used artifacts
                oldest.artifacts.popitem(last=False)
                self._evicted(1)

    def resident(self) -> List[Tuple[Tuple[str, str], ...]]:
        """Per record, oldest first: the ``(engine, kind)`` of every
        artifact it holds (kind ``sequential | threads | processes``)."""
        with self._lock:
            return [
                tuple(key[:2] for key in record.artifacts)
                for record in self._records.values()
            ]

    def __len__(self) -> int:
        """Resident compiled artifacts — the quantity the budget bounds."""
        with self._lock:
            return self._artifacts

    def clear(self) -> None:
        with self._lock:
            for record in self._records.values():
                record.artifacts.clear()
            self._records.clear()
            self._artifacts = 0
            self.stats = CacheStats()
