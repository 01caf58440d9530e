"""EXPLAIN and EXPLAIN ANALYZE for the query lifecycle.

``Query.explain()`` answers *what would run*: the optimized logical plan,
the chosen engine, its capability verdict (with the fallback reasons from
:mod:`repro.plans.validate`), and the morsel-parallelism decision.

``Query.explain_analyze()`` answers *what actually ran*: the same tree
annotated with measured per-phase wall times (captured through
:mod:`repro.observability.tracer`), the result row count, the
compiled-code cache status, and — under parallel execution — the morsel
dispatch/merge accounting.  The query **is executed** to produce it,
exactly like SQL's ``EXPLAIN ANALYZE``.

The first line of both outputs is the plan root, preserving the
pre-observability ``explain()`` contract (callers that slice
``splitlines()[0]`` keep seeing the plan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..codegen.lower import hybrid_placements
from ..errors import UnsupportedQueryError
from ..plans.logical import plan_to_text
from ..plans.validate import capability_report, validate_plan
from .metrics import METRICS
from .tracer import TRACER, SpanRecord

__all__ = [
    "PhaseStat",
    "ExplainReport",
    "ExplainAnalysis",
    "explain_report",
    "explain_analyze",
]

_LINQ_PLAN = "(linq engine: interpreted operator chain, no plan)"

#: canonical lifecycle ordering for the phase table; unknown span names
#: sort after these, by first appearance
_PHASE_ORDER = (
    "service.queue_wait",
    "query.decide",
    "query.canonicalize",
    "query.recycle",
    "query.cache_lookup",
    "query.analyze",
    "query.optimize",
    "query.validate",
    "query.lower",
    "query.analyze_dataflow",
    "codegen.generate",
    "codegen.compile_source",
    "query.compile",
    "query.execute",
    "parallel.execute",
    "parallel.dispatch",
    "parallel.morsel",
    "parallel.merge",
    "dist.execute",
    "dist.scatter",
    "dist.worker",
    "dist.gather",
    "dist.merge",
    "service.execute",
)


@dataclass
class PhaseStat:
    """Aggregated spans of one name: call count and total wall time."""

    name: str
    calls: int = 0
    seconds: float = 0.0

    def add(self, record: SpanRecord) -> None:
        self.calls += 1
        self.seconds += record.duration


def _parallel_verdict(shape: Any, engine: str, parallelism: Optional[int]) -> str:
    from ..query.provider import PARALLEL_ENGINES, resolve_parallelism

    workers = resolve_parallelism(parallelism)
    if workers < 2:
        return (
            "sequential (workers=1; request workers with in_parallel(n), "
            "using(parallelism=n) or REPRO_PARALLELISM)"
        )
    if engine not in PARALLEL_ENGINES:
        return f"sequential (engine {engine!r} emits no morsel kernels)"
    split = shape.split("threads")
    if split.parallel:
        return (
            f"eligible (mode={split.mode}, driver=source "
            f"{split.morsel_ordinal}, workers={workers})"
        )
    reason = split.reasons[0] if split.reasons else "outside the parallel fragment"
    return f"sequential — {reason}"


def _distributed_verdict(
    shape: Any, engine: str, distributed: Optional[int]
) -> str:
    """The multi-process decision — empty (line omitted) when nobody
    asked for distribution, so pre-distribution reports stay byte-exact."""
    from ..query.provider import PARALLEL_ENGINES, resolve_distributed
    from ..storage.struct_array import StructArray

    workers = resolve_distributed(distributed)
    if workers < 2:
        return ""
    if engine not in PARALLEL_ENGINES:
        return f"in-process (engine {engine!r} emits no broadcastable kernels)"
    sources = shape.sources
    if not sources or not all(isinstance(s, StructArray) for s in sources):
        return (
            "in-process (sources are not all StructArrays; "
            "shards own column buffers)"
        )
    split = shape.split("processes")
    if split.parallel:
        return (
            f"eligible (mode={split.mode}, driver=source "
            f"{split.morsel_ordinal}, workers={workers})"
        )
    reason = (
        split.reasons[0] if split.reasons else "outside the distributable fragment"
    )
    return f"in-process — {reason}"


def _pipeline_section(
    shape: Any, engine: str
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Render the pipeline schedule of the shared IR, one line per
    pipeline (id, driver, fused operators, sink breaker), plus the
    dataflow-fact lines; the hybrid engines additionally show each
    pipeline's managed/native placement."""
    from ..analysis import elision_enabled

    try:
        ir = shape.ir()
    except UnsupportedQueryError:
        return (), ()
    placements: Dict[int, str] = (
        hybrid_placements(ir)
        if engine in ("hybrid", "hybrid_buffered")
        else {}
    )
    lines = []
    for pipeline in ir.pipelines:
        text = f"p{pipeline.pid}: {pipeline.describe()}"
        placement = placements.get(pipeline.pid)
        if placement is not None:
            text += f" [{placement}]"
        lines.append(text)
    try:
        facts_lines = tuple(shape.facts().render_lines(elision_enabled()))
    except UnsupportedQueryError:
        facts_lines = ()
    return tuple(lines), facts_lines


@dataclass
class ExplainReport:
    """What *would* run: plan, engine, capability, parallel decision."""

    engine: str
    plan_text: str
    supported: bool
    capability_reasons: Tuple[str, ...] = ()
    pipelines: Tuple[str, ...] = ()
    facts: Tuple[str, ...] = ()
    parallel: str = ""
    adaptive: str = ""
    #: multi-process decision; empty = nobody requested distribution
    distributed: str = ""

    def render(self) -> str:
        lines = [self.plan_text.rstrip("\n")]
        lines.append(f"engine: {self.engine}")
        if self.supported:
            lines.append("capability: supported")
        else:
            lines.append("capability: unsupported")
            for reason in self.capability_reasons:
                lines.append(f"  - {reason}")
        if self.pipelines:
            lines.append("pipelines:")
            for line in self.pipelines:
                lines.append(f"  {line}")
        if self.facts:
            lines.append("facts:")
            for line in self.facts:
                lines.append(f"  {line}")
        if self.parallel:
            lines.append(f"parallel: {self.parallel}")
        if self.distributed:
            lines.append(f"distributed: {self.distributed}")
        if self.adaptive:
            lines.append(f"adaptive: {self.adaptive}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def explain_report(
    provider: Any,
    expr: Any,
    sources: List[Any],
    engine: str,
    parallelism: Optional[int] = None,
    adaptive: Any = None,
    distributed: Optional[int] = None,
) -> ExplainReport:
    """Build the static EXPLAIN report for one query/engine pairing."""
    if engine == "linq":
        return ExplainReport(
            engine="linq",
            plan_text=_LINQ_PLAN,
            supported=True,
            parallel="sequential (the interpreted baseline never parallelizes)",
        )
    shape = provider.shape(expr, sources)
    plan = shape.plan()
    plan_types = validate_plan(
        plan, shape.analysis().source_types, params=shape.bindings
    )
    report = capability_report(plan, engine, sources, plan_types)
    pipelines, facts = _pipeline_section(shape, engine)
    # EXPLAIN is a dry run: the decision is peeked, never explored
    decision = provider.peek_decision(shape, engine, adaptive)
    return ExplainReport(
        engine=engine,
        plan_text=plan_to_text(plan),
        supported=report.supported,
        capability_reasons=tuple(report.reasons),
        pipelines=pipelines,
        facts=facts,
        parallel=_parallel_verdict(shape, engine, parallelism),
        adaptive=decision.describe() if decision is not None else "",
        distributed=_distributed_verdict(shape, engine, distributed),
    )


@dataclass
class ExplainAnalysis:
    """What actually ran: the plan annotated with measured spans."""

    engine: str
    plan_text: str
    rows: int
    cache: str
    #: result-recycler verdict (``hit|delta|full|miss`` + fallback
    #: reason), empty when the provider does not recycle
    recycle: str = ""
    phases: Dict[str, PhaseStat] = field(default_factory=dict)
    parallel: str = ""
    adaptive: str = ""
    #: multi-process accounting; empty = the run was in-process
    distributed: str = ""
    #: which path the vectorized kernels took in this process (worker
    #: processes keep their own counters); empty when none ran
    kernels: str = ""
    morsels: int = 0
    spans: List[SpanRecord] = field(default_factory=list)

    def phase_seconds(self, name: str) -> float:
        stat = self.phases.get(name)
        return stat.seconds if stat else 0.0

    def render(self) -> str:
        lines = [self.plan_text.rstrip("\n")]
        lines.append(f"engine: {self.engine}")
        lines.append(f"rows: {self.rows}")
        lines.append(f"cache: {self.cache}")
        if self.recycle:
            lines.append(f"recycle: {self.recycle}")
        if self.parallel:
            lines.append(f"parallel: {self.parallel}")
        if self.distributed:
            lines.append(f"distributed: {self.distributed}")
        if self.adaptive:
            lines.append(f"adaptive: {self.adaptive}")
        if self.kernels:
            lines.append(f"kernels: {self.kernels}")
        lines.append("phases (wall ms):")
        for stat in self.phases.values():
            lines.append(
                f"  {stat.name:<24s} {stat.seconds * 1e3:>10.3f}  x{stat.calls}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fold_phases(spans: List[SpanRecord]) -> Dict[str, PhaseStat]:
    order = {name: i for i, name in enumerate(_PHASE_ORDER)}
    stats: Dict[str, PhaseStat] = {}
    for record in spans:
        stat = stats.get(record.name)
        if stat is None:
            stat = stats[record.name] = PhaseStat(record.name)
        stat.add(record)
    ranked = sorted(stats.values(), key=lambda s: order.get(s.name, len(order)))
    return {stat.name: stat for stat in ranked}


_KERNEL_COUNTERS = "runtime.kernels."


def _kernel_counts() -> Dict[str, int]:
    return {
        name[len(_KERNEL_COUNTERS) :]: value
        for name, value in METRICS.snapshot().items()
        if name.startswith(_KERNEL_COUNTERS)
    }


def _kernels_line(before: Dict[str, int], after: Dict[str, int]) -> str:
    """``dense=3 sorted=1 (dtype=1)`` — the kernels' own account of which
    factorizations and join builds addressed a table and which sorted."""
    ran = {k: after[k] - before.get(k, 0) for k in after}
    dense, sorted_ = ran.get("dense", 0), ran.get("sorted", 0)
    if not (dense or sorted_):
        return ""
    reasons = ", ".join(
        f"{name[len('sorted.'):]}={count}"
        for name, count in sorted(ran.items())
        if name.startswith("sorted.") and count
    )
    return f"dense={dense} sorted={sorted_}" + (f" ({reasons})" if reasons else "")


def explain_analyze(
    provider: Any,
    expr: Any,
    sources: List[Any],
    engine: str,
    params: Dict[str, Any],
    parallelism: Optional[int] = None,
    morsel_size: Optional[int] = None,
    adaptive: Any = None,
    distributed: Optional[int] = None,
    runner: Optional[Any] = None,
) -> ExplainAnalysis:
    """Execute the query under a span capture and fold the evidence.

    Works for every engine including ``linq`` (whose phases are analysis
    and interpreted execution).  Spans from worker threads — morsel
    kernels — land in the same capture, so parallel runs report their
    dispatch/merge accounting too.

    *runner*, when given, replaces the direct ``provider.execute`` call
    with an arbitrary zero-argument callable returning the materialized
    rows — ``QuerySession.explain_analyze`` passes its serving path
    here, so the phase table gains the ``service.queue_wait`` /
    ``service.execute`` rows.
    """
    kernels_before = _kernel_counts()
    with TRACER.capture() as spans:
        if runner is not None:
            rows = len(runner())
        else:
            iterator = provider.execute(
                expr,
                sources,
                engine,
                params,
                parallelism=parallelism,
                morsel_size=morsel_size,
                adaptive=adaptive,
                distributed=distributed,
            )
            rows = 0
            for _ in iterator:
                rows += 1
    phases = _fold_phases(spans)

    cache = "n/a (linq never compiles)" if engine == "linq" else "miss"
    adaptive_line = ""
    recycle = ""
    for record in spans:
        if record.name == "query.cache_lookup":
            cache = "hit" if record.attrs.get("hit") else "miss"
        elif record.name == "query.decide":
            adaptive_line = record.attrs.get("decision", "")
        elif record.name == "query.recycle":
            mode = record.attrs.get("mode", "")
            reason = record.attrs.get("reason", "")
            recycle = f"{mode} — {reason}" if reason else mode
    morsels = sum(1 for r in spans if r.name == "parallel.morsel")

    if engine == "linq":
        plan_text = _LINQ_PLAN
        parallel = ""
        distributed_line = ""
    else:
        shape = provider.shape(expr, sources)
        plan_text = plan_to_text(shape.plan())
        parallel = ""
        distributed_line = ""
        for record in spans:
            if record.name == "parallel.execute":
                parallel = (
                    f"{record.attrs.get('workers', '?')} workers x "
                    f"{record.attrs.get('morsels', '?')} morsels "
                    f"(mode={record.attrs.get('mode', '?')})"
                )
            elif record.name == "dist.execute":
                distributed_line = (
                    f"{record.attrs.get('workers', '?')} worker processes x "
                    f"{record.attrs.get('grant', '?')} shards "
                    f"(mode={record.attrs.get('mode', '?')})"
                )
        if not parallel:
            parallel = _parallel_verdict(shape, engine, parallelism)
        if not distributed_line:
            distributed_line = _distributed_verdict(shape, engine, distributed)

    return ExplainAnalysis(
        engine=engine,
        plan_text=plan_text,
        rows=rows,
        cache=cache,
        recycle=recycle,
        phases=phases,
        parallel=parallel,
        adaptive=adaptive_line,
        distributed=distributed_line,
        kernels=_kernels_line(kernels_before, _kernel_counts()),
        morsels=morsels,
        spans=list(spans),
    )
