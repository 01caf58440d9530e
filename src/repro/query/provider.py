"""The query provider: canonicalize → per-shape record → compile → execute.

This is the paper's Figure 3 pipeline.  When a query's result is first
consumed, the provider

1. reduces the expression tree to canonical form (constants folded, the
   survivors lifted to parameters — ``ConstantEvaluator``), which a
   re-executed tree already carries;
2. looks up the shape's :class:`~repro.query.cache.ShapeRecord` in the
   :class:`~repro.query.cache.QueryCache`, keyed by the canonical tree +
   optimizer options + the sources' physical design;
3. derives what the record still lacks — analysis, optimized plan,
   pipeline IR, dataflow facts — and hands the plan to the engine's code
   generator (``ExpressionTreeTranslator`` → ``CodeTreeTranslator`` →
   ``StringCompiler``), each at most once per shape;
4. resolves the execution tier — inline, threads(n, morsel) or
   processes(n) — and runs the compiled artifact against the actual
   sources with the merged parameter bindings.

The ``linq`` engine short-circuits all of this: LINQ-to-objects neither
optimizes nor compiles, and the baseline must not either.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterator, List, NamedTuple, Optional

from ..adaptive.chooser import Decision, static_fallback
from ..adaptive.controller import AdaptiveController
from ..adaptive.controller import default_controller as _default_adaptive
from ..adaptive.cost import RowEstimate, estimate_plan_rows
from ..codegen.compiler import CompiledQuery
from ..errors import ExecutionError, UnsupportedQueryError
from ..expressions.canonical import canonicalize
from ..expressions.nodes import Expr
from ..observability.metrics import METRICS
from ..observability.tracer import TRACER, traced_rows
from ..options import DEFAULT_MORSEL_ROWS, NO_OPTIONS, ExecutionOptions
from ..plans.logical import plan_to_text
from ..plans.optimizer import OptimizeOptions
from ..plans.translate import TranslateOptions
from ..storage.struct_array import StructArray
from ..runtime.parallel import source_length
from .cache import QueryCache
from .enumerable import enumerate_query, scalar_query
from .shape import ENGINES, Shape

__all__ = [
    "QueryProvider",
    "Tier",
    "default_provider",
    "pin_sources",
    "ENGINES",
    "LINQ_PLAN",
]

#: what the interpreted baseline shows where the other engines show a plan
LINQ_PLAN = "(linq engine: interpreted operator chain, no plan)"


class Tier(NamedTuple):
    """Where one execution runs, as resolved by :meth:`QueryProvider.tier`."""

    kind: str  # "inline" | "threads" | "processes"
    #: ParallelQuery (threads) / DistributedQuery (processes); None inline
    artifact: Any = None
    workers: int = 1
    morsel: int = 0
    #: why the execution runs below a tier its options asked for ("" when
    #: it does not); one refusal per tier refused, processes first
    reason: str = ""


#: the ``query.execute`` span attribute marking a non-inline tier
_TIER_SPAN_FLAG = {"threads": "parallel", "processes": "distributed"}


class QueryProvider:
    """Compiles and executes queries for every non-baseline engine."""

    def __init__(
        self,
        cache: Optional[QueryCache] = None,
        translate_options: Optional[TranslateOptions] = None,
        optimize_options: Optional[OptimizeOptions] = None,
    ):
        # explicit None test: an empty QueryCache is falsy (len() == 0)
        self.cache = cache if cache is not None else QueryCache()
        self.translate_options = translate_options or TranslateOptions()
        self.optimize_options = optimize_options or OptimizeOptions()
        self._lock = threading.Lock()
        #: schema token → TableStats (§9 extension), read by every layer
        #: that plans; written only through :meth:`register_statistics`,
        #: which versions it for the record key
        self.statistics: Dict[str, Any] = {}
        self._statistics_version = 0

    def register_statistics(self, token: str, statistics: Any) -> None:
        """Attach :class:`~repro.plans.statistics.TableStats` to a schema
        token; subsequent compilations order predicates by selectivity."""
        with self._lock:
            self.statistics[token] = statistics
            self._statistics_version += 1

    # -- public API --------------------------------------------------------------

    def shape(self, expr: Expr, sources: List[Any]) -> Shape:
        """Canonicalize *expr* and return the handle on its per-shape
        record — the one way to read (or trigger) what the provider
        derives from a query."""
        with TRACER.span("query.canonicalize"):
            canonical = canonicalize(expr)
        topts = self.translate_options
        options = (
            topts.fuse_aggregates,
            topts.share_aggregates,
            self._statistics_version,
        ) + self.optimize_options.token
        key = (canonical.key, options, _source_signature(sources))
        return Shape(self, self.cache.record(key), canonical, sources)

    def execute(
        self,
        expr: Expr,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        options: ExecutionOptions = NO_OPTIONS,
        shape: Optional[Shape] = None,
    ) -> Iterator[Any]:
        """Run *expr* and return a lazy iterator over its results.

        *shape*, a handle from :meth:`shape` on the same *expr*, skips
        canonicalization while the sources keep the physical design it
        was derived for — a prepared statement holds one."""
        return iter(self._run(expr, sources, engine, params, False, options, shape))

    def execute_scalar(
        self,
        expr: Expr,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        options: ExecutionOptions = NO_OPTIONS,
        shape: Optional[Shape] = None,
    ) -> Any:
        """Run a terminal aggregate and return its single value."""
        return self._run(expr, sources, engine, params, True, options, shape)

    def explain(self, expr: Expr, engine: str) -> str:
        """The optimized logical plan, as indented text."""
        if engine == "linq":
            return LINQ_PLAN
        return plan_to_text(self.shape(expr, []).plan())

    def compile_info(
        self, expr: Expr, sources: List[Any], engine: str
    ) -> CompiledQuery:
        """Compile (or fetch) the artifact without executing — bench hook."""
        return self.shape(expr, sources).compiled(engine)

    # -- the one execution body ---------------------------------------------------

    def _run(
        self,
        expr: Expr,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        scalar: bool,
        options: ExecutionOptions,
        shape: Optional[Shape],
    ) -> Any:
        """Execute one query — every entry point passes through here —
        under its per-query trace override, if it has one."""
        if options.trace is None:
            return self._execute(expr, sources, engine, params, scalar, options, shape)
        with TRACER.scope(options.trace):
            result = self._execute(
                expr, sources, engine, params, scalar, options, shape
            )
            # the override must cover the drain, not just the dispatch
            # (a lazy result records its execute span at exhaustion)
            return result if scalar else list(result)

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
        """The scalar value, or the rows (a lazy iterator when they
        stream out of the inline sequential artifact, a list when a tier
        merged them)."""
        sources = pin_sources(sources)
        shape = self._current(expr, sources, shape)
        if engine == "linq":
            # the interpreted baseline skips codegen but not analysis: an
            # ill-typed query fails the same way on every engine (its
            # tier knobs are no-ops: interpretation stays sequential)
            shape.analysis()
            if scalar:
                with TRACER.span("query.execute", engine="linq", scalar=True):
                    return scalar_query(expr, sources, params)
            iterator = enumerate_query(expr, sources, params)
            if TRACER.active:
                return traced_rows(TRACER, iterator, engine="linq")
            return iterator
        requested, options = options, options.resolved()
        controller = _adaptive_controller(options.adaptive, engine)
        decision: Optional[Decision] = None
        adaptive_key, estimate = "", None
        if controller is not None:
            adaptive_key, estimate, decision = self._decide(
                shape, engine, controller
            )
            # the decision ranks beneath every caller-set knob and above
            # the environment
            decided = ExecutionOptions(
                decision.workers, decision.morsel, None, decision.distributed
            )
            options = requested.over(decided).over(options)
        # the *requested* engine's sequential artifact always compiles
        # first: it is the fallback, and it guarantees exact error parity
        # (a query the engine rejects is rejected identically with or
        # without workers, recycling or adaptivity — profile-driven
        # switching may make supported queries faster, but it never
        # widens engine capability)
        compiled = shape.compiled(engine)
        run_engine = engine
        if decision is not None and decision.engine != engine:
            try:
                compiled = shape.compiled(decision.engine)
                run_engine = decision.engine
            except UnsupportedQueryError:
                METRICS.counter("adaptive.fallbacks").add()
        if compiled.scalar != scalar:
            raise ExecutionError(
                "not a scalar query"
                if scalar
                else "this query is a scalar aggregate; use the terminal method"
            )
        merged = {**shape.bindings, **params}
        tier = self.tier(shape, run_engine, merged, options)
        flags: Dict[str, Any] = {"scalar": True} if scalar else {}
        if tier.kind != "inline":
            flags[_TIER_SPAN_FLAG[tier.kind]] = True
        if tier.reason:
            flags["fallback"] = tier.reason
        started = time.perf_counter()
        if tier.kind == "inline" and not scalar:
            iterator = iter(compiled.execute(sources, merged))
            if TRACER.active:
                iterator = traced_rows(TRACER, iterator, engine=run_engine, **flags)
            if controller is not None:
                # wall time and cardinality land in the profile when the
                # caller exhausts (or abandons) the lazy result
                iterator = _observe_rows(
                    iterator,
                    controller,
                    adaptive_key,
                    decision,
                    run_engine,
                    estimate,
                    started,
                )
            return iterator
        with TRACER.span("query.execute", engine=run_engine, **flags) as span:
            if tier.kind == "inline":
                result = compiled.execute(sources, merged)
            else:
                redecide = None
                if controller is not None and tier.kind == "threads":
                    driver = sources[tier.artifact.morsel_ordinal]
                    redecide = controller.redecider(
                        estimate, source_length(driver)
                    )
                result = tier.artifact.execute(
                    sources, merged, tier.workers, tier.morsel, redecide=redecide
                )
            if not scalar:
                span.set(rows=len(result))
        if controller is not None:
            controller.observe(
                adaptive_key,
                decision,
                run_engine,
                tier.workers,
                tier.morsel,
                (time.perf_counter() - started) * 1e3,
                None if scalar else len(result),
                estimate,
                distributed=tier.workers if tier.kind == "processes" else 0,
            )
        return result

    def _current(
        self, expr: Expr, pinned: List[Any], held: Optional[Shape]
    ) -> Shape:
        """The shape an execution over the *pinned* sources runs: *held*
        (a prepared statement's) unless the sources' physical design moved
        since it was derived — an index created, clustering gone stale by
        appends — which its artifacts were specialised for."""
        if held is not None and held.record.key[2] == _source_signature(pinned):
            return held
        return self.shape(expr, pinned)

    def tier(
        self,
        shape: Shape,
        engine: str,
        params: Dict[str, Any],
        options: ExecutionOptions,
    ) -> Tier:
        """Resolve where one execution runs — the single place that does.

        processes(n) when worker processes were asked for and the shape
        distributes, else threads(n, morsel) when workers were asked for
        and the shape splits into morsels, else inline.  Every refusal
        downgrades to the next tier rather than erroring — asking for
        workers never makes a supported query fail — and is named on
        :attr:`Tier.reason`.  Call after ``shape.compiled(engine)``
        succeeded; *params* are the merged bindings, *options*
        :meth:`~repro.options.ExecutionOptions.resolved`.
        """
        sources = shape.sources
        refusals = []
        if options.distributed >= 2:
            # shards own column buffers, so every source must be a
            # StructArray, and parameters must survive the process boundary
            if not sources or not all(isinstance(s, StructArray) for s in sources):
                refusals.append(
                    "sources are not all StructArrays; shards own column buffers"
                )
            else:
                artifact = shape.partial(engine, "processes")
                if artifact is None:
                    refusals.append(shape.refusal(engine, "processes"))
                else:
                    from ..distributed import wire

                    try:
                        wire.encode_params(params)
                        return Tier("processes", artifact, options.distributed)
                    except wire.UnshippableError as exc:
                        METRICS.counter("dist.fallbacks").add()
                        refusals.append(str(exc))
        if options.parallelism >= 2:
            artifact = shape.partial(engine, "threads")
            if artifact is None:
                refusals.append(shape.refusal(engine, "threads"))
            elif source_length(sources[artifact.morsel_ordinal]) is None:
                refusals.append(
                    f"driver source {artifact.morsel_ordinal} has no length "
                    f"to cut into morsels"
                )
            else:
                return Tier(
                    "threads",
                    artifact,
                    options.parallelism,
                    options.morsel_size,
                    "; ".join(refusals),
                )
        return Tier("inline", reason="; ".join(refusals))

    # -- adaptive execution (profile-driven engine/tier choice) -------------------

    def peek_decision(
        self, shape: Shape, engine: str, adaptive: Any
    ) -> Optional[Decision]:
        """The decision the chooser would make right now, or None when
        execution is static — EXPLAIN's dry run: no exploration, no
        observation, no profile mutation.  *adaptive* is resolved."""
        controller = _adaptive_controller(adaptive, engine)
        if controller is None:
            return None
        return self._decide(shape, engine, controller, explore=False)[2]

    def _decide(
        self,
        shape: Shape,
        engine: str,
        controller: AdaptiveController,
        explore: bool = True,
    ) -> tuple:
        """(profile key, row estimate, decision) under a ``query.decide``
        span; any failure lands on the static fallback, never an error."""
        with TRACER.span("query.decide", engine=engine) as span:
            try:
                sources = shape.sources
                tree_key, _, signature = shape.record.key
                # an object list and a StructArray of one schema share a
                # record key, but no arm's timing carries over between them
                # (the compiled engine decodes StructArray rows one by one)
                representation = tuple(isinstance(s, StructArray) for s in sources)
                key = controller.profile_key(
                    ("::adaptive", signature, representation, tree_key)
                )
                estimate = controller.estimated_rows(
                    key,
                    lambda: estimate_plan_rows(
                        shape.plan(), sources, self.statistics
                    ),
                )
                choose = controller.decide if explore else controller.peek
                decision = choose(
                    key,
                    engine,
                    _candidate_engines(engine, sources),
                    estimate,
                    DEFAULT_MORSEL_ROWS,
                )
            except Exception:  # noqa: BLE001 - fail-open by contract
                METRICS.counter("adaptive.errors").add()
                key, estimate = "", None
                decision = static_fallback(engine, "decision error")
            span.set(
                source=decision.source,
                chosen_engine=decision.engine,
                workers=decision.workers,
                morsel=decision.morsel,
                decision=decision.describe(),
            )
        return key, estimate, decision


def _adaptive_controller(
    adaptive: Any, engine: str
) -> Optional[AdaptiveController]:
    """Resolve the controller for one execution (or None = static).

    ``adaptive`` is the resolved option: an
    :class:`~repro.adaptive.AdaptiveController` instance, True
    (use/create the process-wide controller) or False (static).  The
    interpreted baseline never adapts.
    """
    if engine == "linq" or not adaptive:
        return None
    if isinstance(adaptive, AdaptiveController):
        return adaptive
    try:
        return _default_adaptive(force=True)
    except Exception:  # noqa: BLE001 - fail-open by contract
        METRICS.counter("adaptive.errors").add()
        return None


def _candidate_engines(engine: str, sources: List[Any]) -> tuple:
    """Engines the chooser may pick for these sources.

    The requested engine always leads; the other compiling engines follow
    (native only when every source is a StructArray — its scans read
    native buffers directly).
    """
    native_ok = all(isinstance(s, StructArray) for s in sources)
    return (engine,) + tuple(
        alternative
        for alternative in ENGINES[1:]
        if alternative != engine and (alternative != "native" or native_ok)
    )


def _observe_rows(
    iterator: Iterator[Any],
    controller: AdaptiveController,
    key: str,
    decision: Decision,
    engine: str,
    estimate: Optional[RowEstimate],
    started: float,
) -> Iterator[Any]:
    """Yield through *iterator*, feeding the profile once it finishes.

    The observation covers kernel invocation plus consumption (the lazy
    sequential path does its work while being drained); an abandoned
    iterator still records whatever it produced.
    """
    count = 0
    try:
        for row in iterator:
            count += 1
            yield row
    finally:
        controller.observe(
            key,
            decision,
            engine,
            1,
            0,
            (time.perf_counter() - started) * 1e3,
            count,
            estimate,
        )


def _source_signature(sources: List[Any]) -> tuple:
    """Physical-design fingerprint of the sources (indexes, clustering).

    Compiled code can depend on which indexes exist, so the record key must
    too — creating an index after a query was compiled must trigger a
    recompilation, not reuse of the scan-based code.  Clustering is read
    through the version-aware ``clustering`` property: an array whose
    clustering went stale (appends since ``cluster_by``) must not reuse
    binary-search code compiled for the sorted prefix.
    """
    signature = []
    for source in sources:
        index_fields = getattr(source, "index_fields", None)
        names = index_fields() if index_fields is not None else ()
        signature.append((names, getattr(source, "clustering", None)))
    return tuple(signature)


def pin_sources(sources: List[Any]) -> List[Any]:
    """Replace live versioned arrays with O(1) snapshots for one execution.

    Pinning a watermark up front makes every scan of the same ordinal see
    one consistent prefix even while writers append concurrently — the
    generated code is byte-identical, only the length it observes is
    frozen.  Non-versioned sources (plain collections, already-pinned
    snapshots) pass through untouched.
    """
    pinned = None
    for i, source in enumerate(sources):
        if isinstance(source, StructArray) and not source.frozen:
            if pinned is None:
                pinned = list(sources)
            pinned[i] = source.snapshot()
    return pinned if pinned is not None else sources


_DEFAULT_PROVIDER: Optional[QueryProvider] = None
_DEFAULT_LOCK = threading.Lock()


def default_provider() -> QueryProvider:
    """The process-wide provider (shared cache), created on first use."""
    global _DEFAULT_PROVIDER
    if _DEFAULT_PROVIDER is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_PROVIDER is None:
                _DEFAULT_PROVIDER = QueryProvider()
    return _DEFAULT_PROVIDER
