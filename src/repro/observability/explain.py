"""EXPLAIN and EXPLAIN ANALYZE for the query lifecycle.

``Query.explain()`` answers *what would run*: the optimized logical plan,
the chosen engine, its capability verdict — the compiler's own, with its
refusal as the reason — and the tier :meth:`QueryProvider.tier
<repro.query.provider.QueryProvider.tier>` resolves, with the refusal
that kept the query below a tier it asked for.

``Query.explain_analyze()`` answers *what actually ran*: the same tree
annotated with measured per-phase wall times (captured through
:mod:`repro.observability.tracer`), the result row count, the
compiled-code cache status, and — under parallel execution — the morsel
dispatch/merge accounting, or the fallback reason the executed
``query.execute`` span carries.  The query **is executed** to produce
it, exactly like SQL's ``EXPLAIN ANALYZE``.

The first line of both outputs is the plan root, preserving the
pre-observability ``explain()`` contract (callers that slice
``splitlines()[0]`` keep seeing the plan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import UnsupportedQueryError
from ..options import NO_OPTIONS, ExecutionOptions, env
from ..plans.logical import Scan, plan_to_text
from ..query.provider import LINQ_PLAN, Tier
from .metrics import METRICS
from .tracer import TRACER, SpanRecord

__all__ = [
    "PhaseStat",
    "ExplainReport",
    "ExplainAnalysis",
    "explain_report",
    "explain_analyze",
]

#: the parallel line when no thread workers were asked for
_NO_WORKERS = (
    "sequential (workers=1; request workers with in_parallel(n), "
    "using(parallelism=n) or REPRO_PARALLELISM)"
)

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


def _eligible(tier: Tier) -> str:
    artifact = tier.artifact
    return (
        f"eligible (mode={artifact.mode}, driver=source "
        f"{artifact.morsel_ordinal}, workers={tier.workers})"
    )


def _pipeline_section(
    shape: Any, engine: str
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Render the pipeline schedule of the shared IR, one line per
    pipeline (id, driver, fused operators, sink breaker), plus the
    dataflow-fact lines.  The pipeline the thread tier would morselize
    is marked parallel-eligible; a hybrid additionally shows each
    pipeline's placement: scan-driven pipelines start in the managed
    staging loop, breaker-driven ones run native end to end."""
    try:
        ir = shape.ir()
    except UnsupportedQueryError:
        return (), ()
    split = shape.split("threads")
    lines = []
    for pipeline in ir.pipelines:
        text = f"p{pipeline.pid}: {pipeline.describe()}"
        if (
            split.parallel
            and not pipeline.morsel_driver
            and pipeline.driver_ordinal == split.morsel_ordinal
        ):
            text += " [parallel-eligible]"
        if engine == "hybrid":
            staged = isinstance(pipeline.driver, Scan)
            text += " [managed staging -> native]" if staged else " [native]"
        lines.append(text)
    try:
        facts_lines = tuple(shape.facts().render_lines(env("REPRO_GUARD_ELISION")))
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
    params: Dict[str, Any],
    options: ExecutionOptions = NO_OPTIONS,
) -> ExplainReport:
    """Build the static EXPLAIN report for one query/engine pairing.

    Compiles the engine's sequential artifact (a cached one is reused)
    and asks :meth:`~repro.query.provider.QueryProvider.tier` about each
    tier requested, one at a time, so each line carries its own refusal.
    """
    if engine == "linq":
        return ExplainReport(
            engine="linq",
            plan_text=LINQ_PLAN,
            supported=True,
            parallel="sequential (the interpreted baseline never parallelizes)",
        )
    shape = provider.shape(expr, sources)
    try:
        shape.compiled(engine)
        refusal = ""
    except UnsupportedQueryError as exc:
        refusal = str(exc)
    pipelines, facts = _pipeline_section(shape, engine)
    options = options.resolved()
    # EXPLAIN is a dry run: the decision is peeked, never explored
    decision = provider.peek_decision(shape, engine, options.adaptive)
    parallel = distributed = ""
    if not refusal:  # a plan the engine refuses runs on no tier at all
        merged = {**shape.bindings, **params}
        parallel = _NO_WORKERS
        if options.parallelism >= 2:
            tier = provider.tier(
                shape, engine, merged, options._replace(distributed=0)
            )
            parallel = (
                _eligible(tier)
                if tier.kind == "threads"
                else f"sequential — {tier.reason}"
            )
        if options.distributed >= 2:
            tier = provider.tier(
                shape, engine, merged, options._replace(parallelism=1)
            )
            distributed = (
                _eligible(tier)
                if tier.kind == "processes"
                else f"in-process — {tier.reason}"
            )
    return ExplainReport(
        engine=engine,
        plan_text=plan_to_text(shape.plan()),
        supported=not refusal,
        capability_reasons=(refusal,) if refusal else (),
        pipelines=pipelines,
        facts=facts,
        parallel=parallel,
        adaptive=decision.describe() if decision is not None else "",
        distributed=distributed,
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
    options: ExecutionOptions = NO_OPTIONS,
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
    ``service.execute`` rows; *options* must then be the ones that path
    runs with.
    """
    kernels_before = _kernel_counts()
    with TRACER.capture() as spans:
        if runner is not None:
            rows = len(runner())
        else:
            rows = 0
            for _ in provider.execute(expr, sources, engine, params, options):
                rows += 1
    phases = _fold_phases(spans)

    cache = "n/a (linq never compiles)" if engine == "linq" else "miss"
    adaptive_line = recycle = parallel = distributed_line = fallback = ""
    for record in spans:
        attrs = record.attrs
        if record.name == "query.cache_lookup":
            cache = "hit" if attrs.get("hit") else "miss"
        elif record.name == "query.decide":
            adaptive_line = attrs.get("decision", "")
        elif record.name == "query.recycle":
            mode = attrs.get("mode", "")
            reason = attrs.get("reason", "")
            recycle = f"{mode} — {reason}" if reason else mode
        elif record.name == "query.execute":
            fallback = attrs.get("fallback", fallback)
        elif record.name == "parallel.execute":
            parallel = (
                f"{attrs.get('workers', '?')} workers x "
                f"{attrs.get('morsels', '?')} morsels "
                f"(mode={attrs.get('mode', '?')})"
            )
        elif record.name == "dist.execute":
            distributed_line = (
                f"{attrs.get('workers', '?')} worker processes x "
                f"{attrs.get('grant', '?')} shards "
                f"(mode={attrs.get('mode', '?')})"
            )
    morsels = sum(1 for r in spans if r.name == "parallel.morsel")

    if engine == "linq":
        plan_text = LINQ_PLAN
    else:
        plan_text = plan_to_text(provider.shape(expr, sources).plan())
        # a tier that was asked for and did not run says why not
        options = options.resolved()
        why = f" — {fallback}" if fallback else ""
        if not parallel:
            if options.parallelism < 2:
                parallel = _NO_WORKERS
            elif not distributed_line:
                parallel = "sequential" + why
        if not distributed_line and options.distributed >= 2:
            distributed_line = "in-process" + why

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
