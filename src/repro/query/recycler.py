"""Query result recycling — a §9 future-work extension, now delta-aware.

The paper's conclusion lists "query result caching [15]" (Nagel, Boncz,
Viglas: *Recycling in pipelined query evaluation*) as a further
optimization beyond compiled-code caching.  The code cache amortizes
*compilation*; the recycler amortizes *evaluation*: a repeated query with
identical parameters over unchanged sources returns the materialized
result without running at all.

With versioned storage the recycler goes one step further than the
wholesale invalidation of its first incarnation.  Entries over versioned
:class:`~repro.storage.struct_array.StructArray` sources are keyed by
source *identity* and carry the ``(version, length)`` watermarks they
were computed at.  On re-execution of a cached query whose driver source
only **grew** (sanctioned appends bump the version monotonically), the
plan's morsel-merge classification decides what happens:

* **delta** — the plan splits into morsel kernels (``Shape.split``) whose
  partials merge associatively (rows-concat, scalar folds with the
  avg→sum+count decomposition, partial group tables through
  :class:`~repro.runtime.streaming.StreamingGroupAggregator`), so the
  already-compiled kernels run over only the ``[old_watermark,
  new_watermark)`` morsel range and fold into the cached partial state.
  Sort/top-n/limit/distinct tails re-apply managed-side on the merged
  core rows, exactly as under morsel parallelism.
* **full** — non-mergeable shapes (left/set-op builds, impure lambdas,
  unsupported aggregates, …) re-execute from scratch; the reason is
  surfaced on the ``query.recycle`` span and in ``explain_analyze()``.

Plain Python collections keep the original contract: entries are keyed
by object identity + length, so replaced collections and length changes
miss (and re-run) automatically.  **Out-of-band mutation remains
invisible for both kinds of source**: writing elements of a list in
place, or poking a StructArray's buffer directly (``arr.data[i] = ...``),
changes neither the length nor the version, so cached results go stale
silently — call :meth:`RecyclingProvider.invalidate` after any mutation
that bypasses the sanctioned ``append_rows`` / ``append_objects`` API,
exactly the contract the paper's recycler has with its update stream.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..analysis import expression_effects
from ..expressions.nodes import Expr
from ..observability.metrics import METRICS
from ..observability.tracer import TRACER
from ..options import ExecutionOptions
from ..runtime.cancellation import CANCEL_PARAM
from ..runtime.parallel import MORSEL_START, MORSEL_STOP, ParallelQuery
from ..storage.struct_array import StructArray
from .provider import QueryProvider, pin_sources
from .shape import Shape, _freeze_binding_value

__all__ = ["RecyclingProvider", "RecyclerStats"]

#: runtime-plumbing parameters (cancellation token, morsel bounds) never
#: affect *what* a query computes, so they must not key the result cache —
#: a fresh per-request token would otherwise defeat recycling entirely
_EPHEMERAL_PARAMS = frozenset((CANCEL_PARAM, MORSEL_START, MORSEL_STOP))


@dataclass
class RecyclerStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    #: stale entries refreshed by running kernels over only the delta
    #: morsel range and merging with the cached partial state
    delta_hits: int = 0
    #: stale entries that had to re-execute from scratch (non-mergeable
    #: shape or non-growth change)
    full_reruns: int = 0
    #: superseded entries evicted when a newer entry for the same
    #: (engine, query, params, source identities) landed — e.g. a plain
    #: collection that grew, whose old-length entry can never hit again
    compactions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _DeltaState:
    """The pre-finalization partial state of one delta-mergeable entry."""

    artifact: ParallelQuery
    bindings: Dict[str, Any]
    #: mode-dependent: core rows (rows), merged slot list (scalar), or
    #: the flat merged group table (group) — each itself a valid partial
    state: Any


@dataclass
class _Entry:
    """One cached result: the materialized rows plus enough provenance
    (per-source watermarks, partial state) to refresh incrementally."""

    rows: List[Any]
    marks: Tuple[Any, ...]
    delta: Optional[_DeltaState] = None
    #: why this entry cannot refresh incrementally (shown on fallback)
    delta_reason: str = ""


def _versioned(source: Any) -> bool:
    return isinstance(source, StructArray)


def _source_static(source: Any) -> tuple:
    """The per-source key component.

    Versioned arrays key by identity alone — their watermarks live on the
    entry, so growth maps to the *same* key and can refresh it in place.
    Plain collections keep identity + length: any length change is a new
    key (wholesale miss), the original recycler contract.
    """
    if _versioned(source):
        return ("v", id(source))
    try:
        length = len(source)
    except TypeError:
        length = -1
    return ("p", id(source), length)


def _source_mark(source: Any) -> Any:
    """The per-source watermark stored on the entry (None = unversioned,
    already pinned by the key)."""
    return source.watermark if _versioned(source) else None


class RecyclingProvider(QueryProvider):
    """A provider whose fully-evaluated results are themselves cached,
    and — over versioned sources — refreshed incrementally on growth."""

    def __init__(self, *args: Any, max_results: int = 128, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if max_results <= 0:
            raise ValueError("result cache size must be positive")
        self._max_results = max_results
        self._results: "OrderedDict[Any, _Entry]" = OrderedDict()
        self.recycler_stats = RecyclerStats()

    # -- key construction --------------------------------------------------------

    def _result_key(
        self,
        expr: Expr,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        shape: Optional[Shape] = None,
    ) -> Tuple[Optional[Any], Optional[Shape]]:
        """(result key, shape) — the key is None when this execution must
        not recycle; the shape is None only when nothing was canonicalized.

        The key names the *live* sources (their identity outlasts any one
        execution); a *shape* passed in — bound to the pinned snapshots,
        or held by a prepared statement — is used as it is.
        """
        effects = expression_effects(expr)
        if effects.nondeterministic:
            # a lambda that reads the clock/RNG can return a different
            # value per run; replaying a cached result would be a lie
            METRICS.counter("recycler.nondeterministic_skips").add()
            return None, shape
        if shape is None:
            shape = self.shape(expr, sources)
        merged = {
            k: v
            for k, v in {**shape.bindings, **params}.items()
            if k not in _EPHEMERAL_PARAMS
        }
        try:
            frozen_params = tuple(
                sorted((k, _freeze_binding_value(v)) for k, v in merged.items())
            )
            statics = tuple(_source_static(s) for s in sources)
            key = (engine, shape.canonical.key, frozen_params, statics)
            hash(key)
        except TypeError:
            return None, shape  # unhashable parameter: not recyclable
        return key, shape

    # -- the one execution body, recycled ------------------------------------------

    def _execute(
        self,
        expr: Expr,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        scalar: bool,
        options: ExecutionOptions,
        shape: Optional[Shape] = None,
    ) -> Any:
        # pin every live versioned array *before* reading watermarks: the
        # watermarks stored on the entry then describe exactly the prefix
        # the kernels saw, even with writers appending concurrently
        pinned = pin_sources(sources)
        shape = self._current(expr, pinned, shape)
        # the options are deliberately absent from the result key: every
        # tier's result is bit-identical to the sequential one, so
        # recycling across worker counts is sound
        key, shape = self._result_key(expr, sources, engine, params, shape)
        if key is None:
            return super()._execute(
                expr, pinned, engine, params, scalar, options, shape
            )
        rows = self._recycled(
            key, shape, expr, pinned, engine, params, scalar, options
        )
        return rows[0] if scalar else rows

    def _recycled(
        self,
        key: Any,
        shape: Shape,
        expr: Expr,
        pinned: List[Any],
        engine: str,
        params: Dict[str, Any],
        scalar: bool,
        options: ExecutionOptions,
    ) -> List[Any]:
        marks = tuple(_source_mark(s) for s in pinned)
        entry = self._results.get(key)
        if entry is not None and entry.marks == marks:
            self._results.move_to_end(key)
            self.recycler_stats.hits += 1
            METRICS.counter("recycler.hits").add()
            with TRACER.span("query.recycle", mode="hit", reason=""):
                pass
            return entry.rows
        mode, reason = "miss", ""
        if entry is None:
            self.recycler_stats.misses += 1
            METRICS.counter("recycler.misses").add()
        else:
            window = self._growth_window(entry, marks)
            if window is not None:
                with TRACER.span(
                    "query.recycle",
                    mode="delta",
                    reason="",
                    window_start=window[0],
                    window_stop=window[1],
                ):
                    entry.rows, entry.delta = self._fold_window(
                        entry.delta, pinned, params, options, *window
                    )
                entry.marks = marks
                self._results.move_to_end(key)
                self.recycler_stats.delta_hits += 1
                METRICS.counter("recycler.delta_hits").add()
                return entry.rows
            # full re-execution replaces the stale entry
            mode, reason = "full", self._fallback_reason(entry)
            self.recycler_stats.full_reruns += 1
            METRICS.counter("recycler.full_reruns").add()
        artifact, delta_reason = self._delta_artifact(shape, engine, scalar)
        with TRACER.span("query.recycle", mode=mode, reason=reason):
            if artifact is None:
                rows = super()._execute(
                    expr, pinned, engine, params, scalar, options, shape
                )
                rows = [rows] if scalar else list(rows)
                entry = _Entry(rows, marks, None, delta_reason)
            else:
                # capture the partial state too, so the *next* growth
                # refreshes incrementally
                rows, delta = self._fold_window(
                    _DeltaState(artifact, shape.bindings, None),
                    pinned,
                    params,
                    options,
                )
                entry = _Entry(rows, marks, delta)
        self._store(key, entry)
        return rows

    def _fold_window(
        self,
        delta: _DeltaState,
        pinned: List[Any],
        params: Dict[str, Any],
        options: ExecutionOptions,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> Tuple[List[Any], _DeltaState]:
        """Run the partial kernels over ``[start, stop)`` of the driver
        (default: all of it) and fold the partials into *delta*'s state:
        a cold delta-mergeable execution and a delta refresh are the same
        code, differing only in window and prior state."""
        artifact = delta.artifact
        options = options.resolved()
        merged = {**delta.bindings, **params}
        with TRACER.span("query.execute", parallel=True):
            partials = artifact.run_window(
                pinned,
                merged,
                options.parallelism,
                options.morsel_size,
                start=start,
                stop=stop,
            )
            with TRACER.span("parallel.merge", mode=artifact.mode):
                state = artifact.fold(delta.state, partials)
                rows = artifact.finish(state, merged)
        if artifact.scalar:
            rows = [rows]
        return rows, _DeltaState(artifact, delta.bindings, state)

    def _growth_window(
        self, entry: _Entry, marks: Tuple[Any, ...]
    ) -> Optional[Tuple[int, int]]:
        """``[old_watermark, new_watermark)`` of the driver when the entry
        can refresh incrementally; None when only a full re-execution is
        sound (no partial state, or the change was not growth-only)."""
        if entry.delta is None:
            return None
        driver = entry.delta.artifact.morsel_ordinal
        for i, (old, now) in enumerate(zip(entry.marks, marks)):
            if i != driver and old != now:
                return None  # a non-driver source changed: not a pure delta
        old, now = entry.marks[driver], marks[driver]
        if old is None or now is None:
            return None
        old_version, old_len = old
        new_version, new_len = now
        if new_version <= old_version or new_len < old_len:
            return None  # replaced/rewound, not grown
        return old_len, new_len

    def _fallback_reason(self, entry: _Entry) -> str:
        if entry.delta is None:
            return entry.delta_reason or "plan is not delta-mergeable"
        return "source change was not growth-only"

    def _delta_artifact(
        self, shape: Shape, engine: str, scalar: bool
    ) -> Tuple[Optional[ParallelQuery], str]:
        """The morsel artifact powering incremental refresh, or (None,
        reason) when this query must recycle wholesale.

        The sequential artifact always compiles first — exact error
        parity with the plain provider (a query the engine rejects is
        rejected identically whether or not it recycles).
        """
        if engine == "linq":
            # the interpreted baseline never compiles; recycle wholesale
            return None, "engine 'linq' emits no morsel kernels"
        if shape.compiled(engine).scalar != scalar:
            # the plain provider raises its misuse error on the way through
            return None, ""
        if not any(_versioned(s) for s in shape.sources):
            # plain collections recycle wholesale (length-keyed); don't
            # pay morsel-kernel compilation for sources that cannot grow
            # in a version-observable way
            return None, "no versioned StructArray sources"
        artifact = shape.partial(engine, "threads")
        if artifact is None or artifact.scalar != scalar:
            return None, shape.refusal(engine, "threads")
        if not _versioned(shape.sources[artifact.morsel_ordinal]):
            return None, "driver source is not a versioned StructArray"
        return artifact, ""

    # -- maintenance -----------------------------------------------------------------

    def _store(self, key: Any, entry: _Entry) -> None:
        self._compact(key)
        self._results[key] = entry
        self._results.move_to_end(key)
        while len(self._results) > self._max_results:
            self._results.popitem(last=False)

    def _compact(self, key: Any) -> None:
        """Evict entries this one supersedes.

        A plain collection keys by (identity, length), so growth lands on
        a *new* key while the old-length entry — rows and partial state —
        lingers until LRU pressure.  Versioned arrays refresh in place
        (identity-only key), so only the plain-source statics can differ:
        any cached entry for the same engine, canonical query, params,
        and source identities with different statics can never hit again
        and is dropped now, not ``max_results`` queries later.
        """
        engine, canonical_key, frozen_params, statics = key
        idents = tuple(static[1] for static in statics)
        superseded = [
            k
            for k in self._results
            if k != key
            and k[0] == engine
            and k[1] == canonical_key
            and k[2] == frozen_params
            and tuple(static[1] for static in k[3]) == idents
        ]
        for k in superseded:
            del self._results[k]
        if superseded:
            self.recycler_stats.compactions += len(superseded)
            METRICS.counter("recycler.compactions").add(len(superseded))

    def invalidate(self, source: Any = None) -> int:
        """Drop cached results (for *source*, or everything).

        Call after mutating elements out of band — in-place list element
        writes or direct buffer pokes bypass both the length fingerprint
        and the version counter, so no automatic path can observe them.
        """
        if source is None:
            dropped = len(self._results)
            self._results.clear()
        else:
            marker = id(source)
            doomed = [
                key
                for key in self._results
                if any(static[1] == marker for static in key[3])
            ]
            for key in doomed:
                del self._results[key]
            dropped = len(doomed)
        self.recycler_stats.invalidations += dropped
        METRICS.counter("recycler.invalidations").add(dropped)
        return dropped

    @property
    def cached_results(self) -> int:
        return len(self._results)
