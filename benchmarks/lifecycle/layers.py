"""Staged replays: one op performed as calls into each layer's public
function, every call inside a harness span named ``<layer>.<call>``.

The provider performs the same calls internally; replaying them from
outside is what makes the ledger independent of the program's own
tracing.  ``query.compile_info`` is the one public call that contains
another staged call (it canonicalizes again), which the per-workload
layer arithmetic subtracts.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import analyze_ir
from repro.codegen.compiler import CompiledQuery, compile_source
from repro.codegen.hybrid_backend import HybridBackend
from repro.codegen.lower import lower_plan
from repro.codegen.native_backend import NativeBackend
from repro.codegen.python_backend import PythonBackend
from repro.codegen.verifier import check_facts, check_ir
from repro.errors import UnsupportedQueryError
from repro.expressions.canonical import canonicalize
from repro.expressions.typing import analyze_query
from repro.plans.optimizer import OptimizeOptions, optimize
from repro.plans.translate import TranslateOptions, translate
from repro.plans.validate import capability_report, validate_plan
from repro.query.provider import pin_sources

from harness import SpanTracer

ENGINES = ("compiled", "native", "hybrid")


def backend_for(engine: str) -> Any:
    if engine == "compiled":
        return PythonBackend()
    if engine == "native":
        return NativeBackend()
    if engine == "hybrid":
        return HybridBackend(buffered=False, minimal=False)
    raise ValueError(f"no staged backend for engine {engine!r}")


def warm_path(tracer: SpanTracer, provider: Any, query: Any) -> List[Any]:
    """A warm op: canonicalize → compiled-code lookup → kernel drain."""
    sources = list(query.sources)
    with tracer.span("expressions.canonicalize"):
        canonical = canonicalize(query.expr)
    with tracer.span("query.compile_info"):
        compiled = provider.compile_info(query.expr, sources, query.engine)
    return kernel(tracer, compiled, sources, {**canonical.bindings, **query.params})


def kernel(
    tracer: SpanTracer, compiled: CompiledQuery, sources: List[Any], params: Dict[str, Any]
) -> List[Any]:
    """The compiled artifact executed directly, provider bypassed."""
    with tracer.span("runtime.kernel"):
        return list(compiled.execute(pin_sources(sources), params))


class Lowered:
    """The engine-independent half of one shape's compilation."""

    def __init__(self, canonical: Any, analysis: Any, plan: Any, ir: Any, facts: Any):
        self.canonical = canonical
        self.analysis = analysis
        self.plan = plan
        self.ir = ir
        self.facts = facts


def lower_stages(tracer: SpanTracer, query: Any) -> Lowered:
    """canonicalize → analyze → translate+optimize → lower → dataflow."""
    sources = list(query.sources)
    with tracer.span("expressions.canonicalize"):
        canonical = canonicalize(query.expr)
    bindings = canonical.bindings
    with tracer.span("expressions.analyze"):
        analysis = analyze_query(canonical.tree, sources, params=bindings)
    with tracer.span("plans.translate_optimize"):
        plan = optimize(
            translate(canonical.tree, TranslateOptions()),
            OptimizeOptions(),
            statistics={},
            param_values=bindings,
        )
    with tracer.span("codegen.lower"):
        ir = lower_plan(plan, statistics={}, param_values=bindings)
        check_ir(ir)
    with tracer.span("analysis.dataflow"):
        facts = analyze_ir(ir, param_values=bindings, statistics={})
    with tracer.span("codegen.check_facts"):
        check_facts(ir, bindings, {}, facts=facts)
    return Lowered(canonical, analysis, plan, ir, facts)


def compile_stages(
    tracer: SpanTracer, query: Any, lowered: Optional[Lowered] = None
) -> Tuple[CompiledQuery, Lowered]:
    """validate → generate → compile for *query*'s engine.

    The first engine of a shape lowers it; the others pass *lowered* in
    and only canonicalize, as the provider's shared IR cache has them do.
    """
    sources = list(query.sources)
    if lowered is None:
        lowered = lower_stages(tracer, query)
    else:
        with tracer.span("expressions.canonicalize"):
            canonicalize(query.expr)
    bindings = lowered.canonical.bindings
    with tracer.span("plans.validate"):
        plan_types = validate_plan(
            lowered.plan, lowered.analysis.source_types, params=bindings
        )
        report = capability_report(lowered.plan, query.engine, sources, plan_types)
    if not report.supported:
        raise UnsupportedQueryError(report.describe())
    ir = copy.copy(lowered.ir)
    ir.facts = lowered.facts
    with tracer.span("codegen.backend_compile") as span:
        compiled = backend_for(query.engine).compile(lowered.plan, sources, ir=ir)
    # generate / compile_source are the backend's own split of that call
    span.attrs["generate_seconds"] = compiled.codegen_seconds
    span.attrs["compile_source_seconds"] = compiled.compile_seconds
    return compiled, lowered


def verify_cost(tracer: SpanTracer, compiled: CompiledQuery) -> None:
    """Re-compile the emitted module with the AST verifier on, then off."""
    namespace = compiled.fn.__globals__
    with tracer.span("codegen.compile_source.verified"):
        compile_source(compiled.source_code, dict(namespace), verify=True)
    with tracer.span("codegen.compile_source.unverified"):
        compile_source(compiled.source_code, dict(namespace), verify=False)
