"""The per-shape record and the handle one query holds on it.

Everything the provider derives from a query shape — analysis, optimized
plan, pipeline IR, tier-split verdicts, dataflow facts, compiled
artifacts — accumulates on one :class:`ShapeRecord`, the entry type of
the :class:`~repro.query.cache.QueryCache`.  A :class:`Shape` binds a
record to one call's bindings and sources and is the only code that
fills it in.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from ..analysis import analyze_ir, elision_enabled
from ..codegen.compiler import CompiledQuery
from ..codegen.ir import QueryIR
from ..codegen.lower import lower_plan
from ..codegen.verifier import check_facts, check_ir, verification_enabled
from ..errors import DistributedError, UnsupportedQueryError
from ..expressions.canonical import CanonicalQuery
from ..expressions.typing import QueryAnalysis, analyze_query
from ..observability.metrics import METRICS
from ..observability.tracer import TRACER
from ..plans.logical import Plan, plan_to_text
from ..plans.optimizer import optimize
from ..plans.translate import translate
from ..plans.validate import (
    ParallelSplit,
    capability_report,
    distributed_split,
    parallel_split,
    validate_plan,
)
from ..runtime.parallel import build_parallel_query

if TYPE_CHECKING:
    from .provider import QueryProvider

__all__ = ["ENGINES", "PARALLEL_ENGINES", "Shape", "ShapeRecord"]

#: all execution strategies, in the order the paper presents them
ENGINES = (
    "linq",
    "compiled",
    "native",
    "hybrid",
    "hybrid_buffered",
    "hybrid_min",
    "hybrid_min_buffered",
)

#: engines whose backends emit morsel-parameterized kernels — which is
#: also what a shard task of the process tier runs; linq stays the
#: interpreted yardstick and the Min hybrids retain whole-source object
#: identity, so both always run inline
PARALLEL_ENGINES = ("compiled", "native", "hybrid", "hybrid_buffered")


class ShapeRecord:
    """Everything derived from one query shape.

    The provider fills the fields in lazily, under :meth:`compiling`; the
    engine-independent ones (``analysis``, ``plan``, ``ir``, ``splits``)
    are derived once from the bindings the shape was first seen with.
    """

    #: binding sets whose dataflow facts are remembered per record
    FACTS_MEMO = 32

    __slots__ = (
        "key",
        "lock",
        "analysis",
        "plan",
        "ir",
        "splits",
        "facts",
        "artifacts",
        "refusals",
    )

    def __init__(self, key: Any):
        self.key = key
        self.lock = threading.RLock()
        self.analysis: Any = None
        self.plan: Any = None
        self.ir: Any = None
        #: tier kind ("threads" | "processes") → ParallelSplit verdict
        self.splits: Dict[str, Any] = {}
        #: frozen binding set → DataflowFacts (facts look *through*
        #: auto-lifted parameter values, so they are per binding set)
        self.facts: Dict[Any, Any] = {}
        #: (engine, kind, elision flag, facts token) → compiled artifact;
        #: kind "sequential" holds a CompiledQuery, "threads" a
        #: ParallelQuery, "processes" a DistributedQuery.  Mutated only
        #: by the owning :class:`QueryCache`, under its lock
        self.artifacts: "OrderedDict[tuple, Any]" = OrderedDict()
        #: artifact key → why that partial-kernel artifact cannot exist
        self.refusals: Dict[tuple, str] = {}

    @contextmanager
    def compiling(self) -> Iterator[None]:
        """Hold the per-shape compile lock (re-entrant); a wait behind
        another thread counts in ``provider.compile_lock.contended``."""
        if not self.lock.acquire(blocking=False):
            METRICS.counter("provider.compile_lock.contended").add()
            self.lock.acquire()
        try:
            yield
        finally:
            self.lock.release()

    def remember_facts(self, frozen: Any, facts: Any) -> None:
        if frozen is None:
            return  # unhashable binding values: derived afresh each time
        while len(self.facts) >= self.FACTS_MEMO:
            del self.facts[next(iter(self.facts))]
        self.facts[frozen] = facts


def _freeze_binding_value(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_binding_value(v) for v in value)
    if isinstance(value, dict):
        return tuple(
            sorted((k, _freeze_binding_value(v)) for k, v in value.items())
        )
    if isinstance(value, set):
        return frozenset(value)
    return value


def _frozen_bindings(bindings: Dict[str, Any]) -> Optional[tuple]:
    """Hashable snapshot of the binding values, or None if unhashable."""
    try:
        frozen = tuple(
            sorted((k, _freeze_binding_value(v)) for k, v in bindings.items())
        )
        hash(frozen)
    except TypeError:
        return None
    return frozen


class Shape:
    """One query's handle on its per-shape record.

    :meth:`QueryProvider.shape` canonicalizes once and binds the shared
    :class:`ShapeRecord` to this call's bindings and sources.  Everything
    the provider derives from a query is read through the methods below,
    which derive on first use (under the record's lock) and afterwards
    return what the record holds — the one way in for ``explain``,
    prepared statements, the recycler and the tools.

    The engine-independent parts (analysis, plan, IR, splits) are those
    derived at first sight of the shape; only :meth:`facts`, and through
    them the artifact choice, follow this call's bindings.
    """

    __slots__ = ("_provider", "record", "canonical", "sources", "_facts")

    def __init__(
        self,
        provider: "QueryProvider",
        record: ShapeRecord,
        canonical: CanonicalQuery,
        sources: List[Any],
    ):
        self._provider = provider
        self.record = record
        self.canonical = canonical
        self.sources = sources
        self._facts: Any = None

    @property
    def bindings(self) -> Dict[str, Any]:
        """Values of the auto-lifted parameters of *this* call."""
        return self.canonical.bindings

    def _derived(self, field: str, derive: Any) -> Any:
        record = self.record
        value = getattr(record, field)
        if value is None:
            with record.compiling():
                value = getattr(record, field)
                if value is None:
                    value = derive()
                    setattr(record, field, value)
        return value

    def analysis(self) -> QueryAnalysis:
        """Type-check the canonical tree (once per shape).

        Raises :class:`~repro.errors.QueryAnalysisError` for ill-typed
        queries — the same error on every engine, before any codegen.
        """
        record = self.record
        with TRACER.span("query.analyze") as span, record.compiling():
            cached = record.analysis is not None
            self._provider.cache.count_analysis(cached)
            span.set(cached=cached)
            if not cached:
                record.analysis = analyze_query(
                    self.canonical.tree, self.sources, params=self.bindings
                )
        return record.analysis

    def plan(self) -> Plan:
        """The optimized logical plan."""
        return self._derived("plan", self._optimize)

    def _optimize(self) -> Plan:
        provider = self._provider
        with TRACER.span("query.optimize"):
            return optimize(
                translate(self.canonical.tree, provider.translate_options),
                provider.optimize_options,
                statistics=provider.statistics,
                param_values=self.bindings,
            )

    def ir(self) -> QueryIR:
        """The sequential pipeline IR — engine-independent (morsel
        parameterization happens on the partial plans), so one lowering
        serves every backend."""
        return self._derived("ir", self._lower)

    def _lower(self) -> QueryIR:
        plan = self.plan()
        with TRACER.span("query.lower"):
            ir = lower_plan(
                plan,
                statistics=self._provider.statistics,
                param_values=self.bindings,
            )
            if verification_enabled():
                check_ir(ir)
        return ir

    def facts(self) -> Any:
        """Dataflow facts for this call's bindings.

        Facts look through auto-lifted parameter values (divisor proofs,
        contradictions), so unlike the IR they are memoized per binding
        set; re-executions with a remembered set hit the record.
        """
        facts = self._remembered_facts()
        if facts is None:
            ir = self.ir()
            with self.record.compiling():
                facts = self._facts = self._analyze_dataflow(ir)
                self.record.remember_facts(
                    _frozen_bindings(self.bindings), facts
                )
        return facts

    def _remembered_facts(self) -> Any:
        """This binding set's facts if the record (or this handle)
        already has them — never derives."""
        if self._facts is None:
            frozen = _frozen_bindings(self.bindings)
            if frozen is not None:
                self._facts = self.record.facts.get(frozen)
        return self._facts

    def _analyze_dataflow(self, ir: QueryIR) -> Any:
        statistics = self._provider.statistics
        with TRACER.span("query.analyze_dataflow"):
            facts = analyze_ir(
                ir, param_values=self.bindings, statistics=statistics
            )
            if verification_enabled():
                check_facts(ir, self.bindings, statistics, facts=facts)
        METRICS.counter("analysis.facts_derived").add()
        if elision_enabled():
            elidable = facts.guards_elidable()
            if elidable:
                METRICS.counter("analysis.guards_elided").add(elidable)
            if facts.dead_pipelines:
                METRICS.counter("analysis.pipelines_killed").add(
                    len(facts.dead_pipelines)
                )
        if facts.effects.impure:
            METRICS.counter("analysis.impure_downgrades").add()
        return facts

    def split(self, kind: str) -> ParallelSplit:
        """The engine-independent verdict on splitting this plan for tier
        *kind* (``"threads"`` | ``"processes"``), with its reasons."""
        record = self.record
        split = record.splits.get(kind)
        if split is None:
            decide = distributed_split if kind == "processes" else parallel_split
            split = record.splits[kind] = decide(self.plan())
        return split

    def _artifact_key(self, engine: str, kind: str) -> tuple:
        """Artifacts are keyed by the facts'
        :meth:`~repro.analysis.DataflowFacts.cache_token` — not the raw
        bindings — so parameterized queries keep sharing compiled code
        unless a proof outcome actually changed.  The elision flag joins
        the key so flipping ``REPRO_GUARD_ELISION`` mid-process never
        reuses elided code."""
        return (engine, kind, elision_enabled(), self.facts().cache_token())

    def compiled(self, engine: str) -> CompiledQuery:
        """The engine's sequential artifact, compiled on first use.

        Counts exactly one cache hit or miss, decided by whether the
        artifact was resident.  Concurrent calls for one shape block on
        the record's lock until its single compilation finishes;
        unrelated shapes compile in parallel.
        """
        record, cache = self.record, self._provider.cache
        compiled = None
        with TRACER.span("query.cache_lookup", engine=engine) as span:
            # only a remembered binding set can hit without deriving;
            # anything else re-checks under the lock in _compile
            if self._remembered_facts() is not None:
                compiled = cache.find(
                    record, self._artifact_key(engine, "sequential")
                )
            span.set(hit=compiled is not None)
        hit = compiled is not None
        try:
            if not hit:
                with record.compiling():
                    compiled, hit = self._compile(engine)
        finally:
            cache.count(hit)
        return compiled

    def _compile(self, engine: str) -> Tuple[CompiledQuery, bool]:
        """(artifact, was it resident) — called under the record's lock."""
        # layer 1: expression-tree type inference (QueryAnalysisError on
        # ill-typed queries, before any plan or source exists)
        analysis = self.analysis()
        plan = self.plan()
        backend = _make_backend(engine)  # raises for unknown engines
        # layer 2: operator preconditions + one capability report per
        # engine (replaces scattered in-backend fragment checks)
        with TRACER.span("query.validate", engine=engine):
            plan_types = validate_plan(
                plan, analysis.source_types, params=self.bindings
            )
            report = capability_report(plan, engine, self.sources, plan_types)
        if not report.supported:
            raise UnsupportedQueryError(report.describe())
        key = self._artifact_key(engine, "sequential")
        cache = self._provider.cache
        compiled = cache.find(self.record, key)
        if compiled is not None:
            return compiled, True
        # the record's IR is shared across binding sets whose facts
        # differ, so the facts ride on a per-compilation shallow copy
        ir = copy.copy(self.ir())
        ir.facts = self.facts()
        with TRACER.span("query.compile", engine=engine) as span:
            compiled = backend.compile(plan, self.sources, ir=ir)
            span.set(
                codegen_seconds=compiled.codegen_seconds,
                compile_seconds=compiled.compile_seconds,
            )
        METRICS.counter(f"compile.{engine}.count").add()
        METRICS.histogram(f"compile.{engine}.codegen_seconds").observe(
            compiled.codegen_seconds
        )
        METRICS.histogram(f"compile.{engine}.compile_seconds").observe(
            compiled.compile_seconds
        )
        compiled.plan_text = plan_to_text(plan)
        compiled.engine = engine
        compiled.analysis = analysis
        compiled.capability = report
        # layer 3 ran inside compile_source; recover the verifier report
        if compiled.verifier_report is None and compiled.fn is not None:
            compiled.verifier_report = getattr(
                compiled.fn, "__globals__", {}
            ).get("__verifier_report__")
        cache.admit(self.record, key, compiled)
        return compiled, False

    def partial(self, engine: str, kind: str) -> Optional[Any]:
        """The partial-kernel artifact for tier *kind* — a
        :class:`~repro.runtime.parallel.ParallelQuery` for ``"threads"``,
        wrapped with its broadcast payload into a
        :class:`~repro.distributed.DistributedQuery` for ``"processes"``
        — or None when this shape/engine has none (see :meth:`refusal`).

        Call after :meth:`compiled` succeeded for *engine*: the plan is
        then analyzed, validated and inside the engine's fragment, and a
        refusal downgrades the tier instead of raising.  Keyed by shape,
        engine and kind only — never by worker count; lookups do not
        count as cache hits or misses.
        """
        record, cache = self.record, self._provider.cache
        key = self._artifact_key(engine, kind)
        artifact = cache.find(record, key)
        if artifact is None and key not in record.refusals:
            with record.compiling():
                artifact = cache.find(record, key)
                if artifact is None and key not in record.refusals:
                    artifact = self._build_partial(engine, kind, key)
        return artifact

    def refusal(self, engine: str, kind: str) -> str:
        """Why :meth:`partial` returned None ("" when it did not)."""
        return self.record.refusals.get(self._artifact_key(engine, kind), "")

    def _build_partial(self, engine: str, kind: str, key: tuple) -> Optional[Any]:
        record = self.record
        if engine not in PARALLEL_ENGINES:
            record.refusals[key] = f"engine {engine!r} emits no morsel kernels"
            return None
        split = self.split(kind)
        if not split.parallel:
            record.refusals[key] = (
                split.reasons[0]
                if split.reasons
                else "plan has no morsel-mergeable split"
            )
            return None
        backend = _make_backend(engine)
        statistics, bindings = self._provider.statistics, self.bindings

        def compile_kernel(partial: Plan) -> CompiledQuery:
            # partial plans differ from the sequential IR, so each lowers
            # its own — with the same statistics, so conjunct order (and
            # therefore kernel code) matches the sequential artifact
            partial_ir = lower_plan(
                partial,
                morsel_ordinal=split.morsel_ordinal,
                statistics=statistics,
                param_values=bindings,
            )
            partial_ir.facts = analyze_ir(
                partial_ir, param_values=bindings, statistics=statistics
            )
            return backend.compile(
                partial,
                self.sources,
                morsel_ordinal=split.morsel_ordinal,
                ir=partial_ir,
            )

        try:
            artifact = build_parallel_query(split, compile_kernel)
            if kind == "processes":
                # imported on demand: the spawn machinery loads only for
                # callers that ask for worker processes
                from ..distributed.coordinator import build_distributed_query

                digest = hashlib.sha256(repr((record.key, key)).encode())
                artifact = build_distributed_query(
                    artifact, digest.hexdigest()[:16]
                )
        except (UnsupportedQueryError, DistributedError) as exc:
            # something the *partial* plans still trip over, or a kernel
            # namespace that cannot cross processes: downgrade, never fail
            if kind == "processes":
                METRICS.counter("dist.fallbacks").add()
            record.refusals[key] = str(exc)
            return None
        self._provider.cache.admit(record, key, artifact)
        return artifact


def _make_backend(engine: str):
    if engine == "compiled":
        from ..codegen.python_backend import PythonBackend

        return PythonBackend()
    if engine == "native":
        from ..codegen.native_backend import NativeBackend

        return NativeBackend()
    if engine.startswith("hybrid"):
        from ..codegen.hybrid_backend import HybridBackend

        return HybridBackend(
            buffered="buffered" in engine,
            minimal="min" in engine.split("_"),
        )
    raise UnsupportedQueryError(
        f"unknown engine {engine!r}; available: {', '.join(ENGINES)}"
    )
