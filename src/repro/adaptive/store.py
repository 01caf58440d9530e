"""The persistent profile store — the adaptive loop's memory.

Every adaptive execution appends one observation to a JSON-lines file:
which query (by profile key), which configuration ran (engine, workers,
morsel size), how long it took, and what cardinality came out versus what
the optimizer estimated.  On load the records aggregate into per-key
:class:`QueryProfile` objects the chooser consults; the raw lines stay on
disk so profiles survive the process and accumulate across runs.

Design constraints, in order:

1. **Fail-open.**  A missing file, a truncated line, a permission error,
   a schema-version skew — none of these may ever surface as a query
   error.  Every disk interaction is wrapped; failures increment
   ``adaptive.store_errors`` (or ``adaptive.store_skew`` for version
   mismatches) and degrade to the in-memory profile, which itself
   degrades to the static defaults.
2. **Thread safety.**  One lock serializes the in-memory aggregates and
   the append handle; records are written as single ``write()`` calls of
   one full line, so concurrent writers never interleave bytes.
3. **Versioned.**  Every record carries ``{"v": SCHEMA_VERSION}``.
   Records from other versions are counted and skipped — an old store
   file never poisons a new chooser, and vice versa.
4. **Deterministic serialization.**  Records serialize with sorted keys,
   so identical observation sequences produce byte-identical files — the
   determinism tests diff them directly.
"""

from __future__ import annotations

import io
import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..observability.metrics import METRICS, MetricsRegistry

__all__ = [
    "SCHEMA_VERSION",
    "ConfigStats",
    "QueryProfile",
    "ProfileStore",
]

#: bump when the record layout changes; other versions are skipped on load
SCHEMA_VERSION = 1

#: EWMA weight of the newest observation (0.3 ≈ remember ~the last few runs)
EWMA_ALPHA = 0.3

#: degradation ratios retained for seeding the load factor across processes
MAX_DEGRADE_RATIOS = 16

#: pseudo-key for service-wide (not per-query) records, e.g. degradations
SERVICE_KEY = "__service__"


@dataclass
class ConfigStats:
    """Runtime summary of one (engine, workers, morsel) configuration.

    ``distributed`` is the worker-*process* count for multi-process runs
    (0 = in-process); records written before the field existed load as 0,
    so old store files keep aggregating cleanly.
    """

    engine: str
    workers: int
    morsel: int
    distributed: int = 0
    runs: int = 0
    ewma_ms: float = 0.0

    @property
    def config(self) -> Tuple[str, int, int]:
        return (self.engine, self.workers, self.morsel)

    def observe(self, ms: float) -> None:
        if self.runs == 0:
            self.ewma_ms = ms
        else:
            self.ewma_ms += EWMA_ALPHA * (ms - self.ewma_ms)
        self.runs += 1


@dataclass
class QueryProfile:
    """Everything learned about one query shape (one profile key)."""

    key: str
    configs: Dict[Tuple[str, int, int, int], ConfigStats] = field(
        default_factory=dict
    )
    runs: int = 0
    #: EWMA of the observed output cardinality
    observed_rows: float = 0.0
    #: last optimizer estimate recorded alongside an observation
    estimated_rows: Optional[int] = None

    def observe(
        self,
        engine: str,
        workers: int,
        morsel: int,
        ms: float,
        rows: Optional[int],
        estimated: Optional[int],
        distributed: int = 0,
    ) -> None:
        config = (engine, workers, morsel, distributed)
        stats = self.configs.get(config)
        if stats is None:
            stats = self.configs[config] = ConfigStats(
                engine, workers, morsel, distributed
            )
        stats.observe(ms)
        if rows is not None:
            if self.runs == 0:
                self.observed_rows = float(rows)
            else:
                self.observed_rows += EWMA_ALPHA * (rows - self.observed_rows)
        if estimated is not None:
            self.estimated_rows = estimated
        self.runs += 1

    def best(self, allow_distributed: bool = True) -> Optional[ConfigStats]:
        """The fastest known configuration, deterministically tie-broken.

        Ties (and near-ties) break on the configuration tuple itself, so
        two processes replaying the same observations always agree.
        ``allow_distributed=False`` restricts the search to in-process
        configurations — the chooser must not revive multi-process runs
        the environment has switched off.
        """
        candidates = [
            s
            for s in self.configs.values()
            if allow_distributed or not s.distributed
        ]
        if not candidates:
            return None
        return min(
            candidates, key=lambda s: (s.ewma_ms, s.config, s.distributed)
        )


class ProfileStore:
    """Aggregated runtime profiles, persisted as append-only JSON lines."""

    def __init__(
        self,
        path: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.path = path
        self._metrics = metrics if metrics is not None else METRICS
        self._lock = threading.Lock()
        self._profiles: Dict[str, QueryProfile] = {}
        self._degrade_ratios: Deque[float] = deque(maxlen=MAX_DEGRADE_RATIOS)
        self._handle: Optional[io.TextIOBase] = None
        self._write_failed = False
        self._load()

    # -- error accounting (the fail-open contract) ------------------------------

    def _store_error(self) -> None:
        self._metrics.counter("adaptive.store_errors").add()

    def _store_skew(self) -> None:
        self._metrics.counter("adaptive.store_skew").add()

    # -- load -------------------------------------------------------------------

    def _load(self) -> None:
        """Aggregate the on-disk lines; any failure degrades to empty."""
        if self.path is None:
            return
        try:
            if not os.path.exists(self.path):
                return
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        # truncated or corrupt line (e.g. a crash mid-
                        # append): skip it, keep the rest of the file
                        self._store_error()
                        continue
                    self._apply(record)
        except Exception:  # noqa: BLE001 - fail-open by contract
            self._store_error()

    def _apply(self, record: Any) -> None:
        if not isinstance(record, dict):
            self._store_error()
            return
        if record.get("v") != SCHEMA_VERSION:
            self._store_skew()
            return
        kind = record.get("kind")
        try:
            if kind == "run":
                profile = self._profile(record["key"])
                profile.observe(
                    engine=record["engine"],
                    workers=int(record["workers"]),
                    morsel=int(record["morsel"]),
                    ms=float(record["ms"]),
                    rows=record.get("rows"),
                    estimated=record.get("est"),
                    # pre-distribution records have no key: load as 0
                    distributed=int(record.get("dist", 0) or 0),
                )
            elif kind == "degrade":
                requested = max(1, int(record["requested"]))
                granted = max(1, int(record["granted"]))
                self._degrade_ratios.append(granted / requested)
            else:
                self._store_skew()
        except (KeyError, TypeError, ValueError):
            self._store_error()

    def _profile(self, key: str) -> QueryProfile:
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._profiles[key] = QueryProfile(key)
        return profile

    # -- read -------------------------------------------------------------------

    def profile(self, key: str) -> Optional[QueryProfile]:
        with self._lock:
            return self._profiles.get(key)

    def degrade_ratios(self) -> List[float]:
        with self._lock:
            return list(self._degrade_ratios)

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)

    # -- write ------------------------------------------------------------------

    def record_run(
        self,
        key: str,
        engine: str,
        workers: int,
        morsel: int,
        ms: float,
        rows: Optional[int] = None,
        estimated: Optional[int] = None,
        degraded: bool = False,
        distributed: int = 0,
    ) -> None:
        """Record one observed execution (and persist it, best-effort)."""
        record = {
            "v": SCHEMA_VERSION,
            "kind": "run",
            "key": key,
            "engine": engine,
            "workers": int(workers),
            "morsel": int(morsel),
            "ms": round(float(ms), 4),
            "rows": rows,
            "est": estimated,
            "degraded": bool(degraded),
        }
        # only multi-process runs carry the key: in-process records stay
        # byte-identical to pre-distribution stores
        if distributed:
            record["dist"] = int(distributed)
        with self._lock:
            self._apply(record)
            self._append(record)

    def record_degrade(self, requested: int, granted: int) -> None:
        """Record an admission-control parallelism downgrade."""
        record = {
            "v": SCHEMA_VERSION,
            "kind": "degrade",
            "key": SERVICE_KEY,
            "requested": int(requested),
            "granted": int(granted),
        }
        with self._lock:
            self._apply(record)
            self._append(record)

    def _append(self, record: Dict[str, Any]) -> None:
        """One line to disk under the lock; failures count and disarm."""
        if self.path is None or self._write_failed:
            return
        try:
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
        except Exception:  # noqa: BLE001 - fail-open by contract
            self._store_error()
            # stop retrying a dead file, keep serving in-memory profiles
            self._write_failed = True
            try:
                if self._handle is not None:
                    self._handle.close()
            except Exception:  # noqa: BLE001
                pass
            self._handle = None

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except Exception:  # noqa: BLE001
                    self._store_error()
                self._handle = None
