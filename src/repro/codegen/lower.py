"""Lowering: optimized logical plan → pipeline IR.

:func:`lower_plan` runs the passes every backend used to re-implement
privately, once, in a fixed order.  It takes the plan as the optimizer
left it: conjunct order is the optimizer's (or the caller's, for a plan
handed directly to a backend) and is not re-sorted here.

1. **common-subexpression elimination** — repeated subexpressions inside
   filter predicates and projection selectors hoist into per-lambda
   ``__cse<N>`` bindings (see :mod:`repro.codegen.ir`), evaluated once
   per element by every backend.  The same walk rejects plan nodes no
   pass understands.
2. **predicate decomposition** — multi-conjunct filters split into a
   cascade of single-conjunct filters (conjunct order preserved), so
   vectorized backends evaluate later conjuncts over already-shrunk
   intermediates.  Scan-adjacent filters stay fused: their conjunction
   participates in access-path selection (index/cluster fast paths) and
   forms the hybrid staging predicate; filters that gained CSE bindings
   also stay fused so the binding spans its conjuncts.
3. **segmentation** — the plan splits into :class:`~repro.codegen.ir.
   Pipeline` objects at blocking operators, in dependency order (the
   paper's "each loop either produces the final result of a query or an
   intermediate result of a blocking operation").
4. **annotation** — each pipeline gets its required-fields set (the
   shared field-usage pass of ``ir``) and its morsel-slice point.

Whether a plan splits across morsels or shards is not a lowering pass:
:func:`decide_parallel` / :func:`decide_distributed` judge the optimized
plan once per tier, and the provider memoises the verdict on the shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.effects import plan_effects
from ..errors import CodegenError
from ..expressions.analysis import conjuncts, contains_aggregate
from ..expressions.nodes import Lambda
from ..plans.logical import (
    Concat,
    Distinct,
    Filter,
    FlatMap,
    GroupAggregate,
    GroupBy,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    ScalarAggregate,
    SetOp,
    Sort,
    TopN,
    is_blocking,
    plan_children,
)
from .ir import (
    CseAllocator,
    Pipeline,
    PipelineBreaker,
    QueryIR,
    breaker_kind,
    eliminate_common_subexpressions,
    rebuild_plan,
    required_source_fields,
)

__all__ = [
    "lower_plan",
    "decide_parallel",
    "ParallelSplit",
    "PARALLEL_MERGEABLE_AGGREGATES",
]

#: every plan node kind the lowering passes understand
_KNOWN_NODES = (
    Scan,
    Filter,
    Project,
    FlatMap,
    Join,
    GroupBy,
    GroupAggregate,
    ScalarAggregate,
    Sort,
    TopN,
    Limit,
    Distinct,
    Concat,
    SetOp,
)


def _check_known(node: Plan) -> None:
    if not isinstance(node, _KNOWN_NODES):
        raise CodegenError(
            f"no pipeline lowering for plan node {type(node).__name__}"
        )


def lower_plan(
    plan: Plan,
    morsel_ordinal: Optional[int] = None,
    statistics: Optional[Dict[str, Any]] = None,
    param_values: Optional[Dict[str, Any]] = None,
) -> QueryIR:
    """Lower an optimized plan into the pipeline IR all backends consume.

    *statistics* and *param_values* are accepted and ignored: lowering
    keeps the plan's conjunct order, and some callers still pass the
    optimizer's inputs along.
    """
    plan, cse = _eliminate_subexpressions(plan)
    plan = _decompose_filters(plan, cse)
    pipelines, breakers = _segment(plan)
    source_fields = required_source_fields(plan, cse)
    for pipeline in pipelines:
        # every pipeline head is a cancellation checkpoint: the coarsest
        # granularity that still bounds how long a cancelled query keeps
        # running (one fused loop) without touching any per-element path
        pipeline.cancel_checkpoint = True
        if isinstance(pipeline.driver, Scan):
            ordinal = pipeline.driver.ordinal
            pipeline.driver_ordinal = ordinal
            pipeline.required_fields = source_fields.get(ordinal)
            pipeline.morsel_driver = (
                morsel_ordinal is not None and ordinal == morsel_ordinal
            )
    return QueryIR(
        plan=plan,
        pipelines=tuple(pipelines),
        breakers=tuple(breakers),
        cse=cse,
        source_fields=source_fields,
        morsel_ordinal=morsel_ordinal,
        scalar=isinstance(plan, ScalarAggregate),
    )


# ---------------------------------------------------------------------------
# Pass 1: common-subexpression elimination
# ---------------------------------------------------------------------------


def _eliminate_subexpressions(plan: Plan) -> Tuple[Plan, Dict[int, tuple]]:
    """Hoist repeated subexpressions in predicates and selectors.

    Applied to filter predicates and aggregate-free projection selectors
    (the 1-ary lambdas every backend inlines per element).  Returns the
    rewritten plan plus the binding table keyed by the identity of the
    rewritten lambdas.  Raises :class:`~repro.errors.CodegenError` on a
    plan node no lowering pass understands.
    """
    allocator = CseAllocator()
    cse: Dict[int, tuple] = {}

    def rewrite(lam: Lambda) -> Lambda:
        new_lam, bindings = eliminate_common_subexpressions(lam, allocator)
        if bindings:
            cse[id(new_lam)] = bindings
        return new_lam

    def visit(node: Plan) -> Plan:
        _check_known(node)
        children = [visit(c) for c in plan_children(node)]
        if isinstance(node, Filter):
            return Filter(children[0], rewrite(node.predicate))
        if isinstance(node, Project) and not contains_aggregate(
            node.selector.body
        ):
            return Project(children[0], rewrite(node.selector))
        if isinstance(node, Scan):
            return node
        return rebuild_plan(node, children)

    return visit(plan), cse


# ---------------------------------------------------------------------------
# Pass 2: predicate decomposition
# ---------------------------------------------------------------------------


def _decompose_filters(plan: Plan, cse: Dict[int, tuple]) -> Plan:
    """Split multi-conjunct filters into single-conjunct cascades.

    Conjunct order (the optimizer's) is preserved: the first
    conjunct becomes the innermost filter.  Scan-adjacent filters and
    filters carrying CSE bindings stay fused (see module docstring).
    """

    def visit(node: Plan) -> Plan:
        if isinstance(node, Scan):
            return node
        node = rebuild_plan(node, [visit(c) for c in plan_children(node)])
        if (
            isinstance(node, Filter)
            and not isinstance(node.child, Scan)
            and id(node.predicate) not in cse
        ):
            parts = conjuncts(node.predicate.body)
            if len(parts) > 1:
                rebuilt = node.child
                for part in parts:
                    rebuilt = Filter(
                        rebuilt,
                        Lambda(
                            node.predicate.params,
                            part,
                            node.predicate.effects,
                        ),
                    )
                return rebuilt
        return node

    return visit(plan)


# ---------------------------------------------------------------------------
# Pass 3: segmentation into pipelines
# ---------------------------------------------------------------------------

#: non-blocking operators that fuse into a pipeline's operator chain
_CHAIN_OPS = (Filter, Project, FlatMap, Limit)


def _segment(
    plan: Plan,
) -> Tuple[List[Pipeline], List[PipelineBreaker]]:
    """Split *plan* into pipelines at blocking operators.

    Pipelines are created in dependency order (producers before their
    consumer), which is also the schedule every backend emits: pipeline
    ids are a topological order of the DAG.
    """
    pipelines: List[Pipeline] = []
    breakers: List[PipelineBreaker] = []
    breaker_of: Dict[int, PipelineBreaker] = {}

    def new_breaker(node: Plan) -> PipelineBreaker:
        breaker = PipelineBreaker(
            bid=len(breakers), kind=breaker_kind(node), node=node
        )
        breakers.append(breaker)
        breaker_of[id(node)] = breaker
        return breaker

    def make_pipeline(
        driver: Any,
        ops: List[Plan],
        sink: Optional[PipelineBreaker],
        inputs: List[int],
    ) -> Pipeline:
        if isinstance(driver, PipelineBreaker):
            inputs = inputs + driver.producers
        pipeline = Pipeline(
            pid=len(pipelines),
            driver=driver,
            operators=tuple(ops),
            sink=sink,
            inputs=tuple(sorted(set(inputs))),
        )
        pipelines.append(pipeline)
        if sink is not None:
            sink.producers.append(pipeline.pid)
        if isinstance(driver, PipelineBreaker):
            driver.consumer = pipeline.pid
        for op in ops:
            if isinstance(op, (Join, SetOp)):
                breaker_of[id(op)].consumer = pipeline.pid
        return pipeline

    def chains(node: Plan) -> List[Tuple[Any, List[Plan], List[int]]]:
        """(driver, operator chain innermost-first, dependency pids)."""
        if isinstance(node, Scan):
            return [(node, [], [])]
        if isinstance(node, ScalarAggregate):
            raise CodegenError(
                "scalar aggregates must be the plan root; found one mid-plan"
            )
        if is_blocking(node):
            breaker = breaker_of.get(id(node))
            if breaker is None:
                breaker = new_breaker(node)
                for driver, ops, inputs in chains(node.child):
                    make_pipeline(driver, ops, breaker, inputs)
            return [(breaker, [], [])]
        if isinstance(node, (Join, SetOp)):
            # both build their right side into a breaker and fuse the
            # probe into the left chain
            breaker = breaker_of.get(id(node))
            if breaker is None:
                breaker = new_breaker(node)
                for driver, ops, inputs in chains(node.right):
                    make_pipeline(driver, ops, breaker, inputs)
            build_pids = list(breaker.producers)
            return [
                (driver, ops + [node], inputs + build_pids)
                for driver, ops, inputs in chains(node.left)
            ]
        if isinstance(node, Concat):
            return chains(node.left) + chains(node.right)
        if isinstance(node, _CHAIN_OPS):
            return [
                (driver, ops + [node], inputs)
                for driver, ops, inputs in chains(node.child)
            ]
        raise CodegenError(
            f"no pipeline lowering for plan node {type(node).__name__}"
        )

    if isinstance(plan, ScalarAggregate):
        breaker = new_breaker(plan)
        for driver, ops, inputs in chains(plan.child):
            make_pipeline(driver, ops, breaker, inputs)
    else:
        for driver, ops, inputs in chains(plan):
            make_pipeline(driver, ops, None, inputs)
    return pipelines, breakers


# ---------------------------------------------------------------------------
# Parallel eligibility
# ---------------------------------------------------------------------------

#: aggregate kinds with a deterministic partial-merge (avg via sum+count)
PARALLEL_MERGEABLE_AGGREGATES = frozenset({"sum", "count", "min", "max", "avg"})


@dataclass(frozen=True)
class ParallelSplit:
    """Decision of the per-operator parallel-safety check
    (:func:`decide_parallel` / :func:`decide_distributed`).

    When ``parallel`` is True the plan decomposes into a morsel kernel
    (``core`` minus any aggregate root) plus ``post_ops`` — the
    order-sensitive root operators, outermost first, that the parallel
    runtime re-applies managed-side after the deterministic merge.
    ``mode`` names the merge algebra: ``"rows"`` (concatenate in morsel
    order), ``"scalar"`` (fold partial aggregates), or ``"group"``
    (StreamingGroupAggregator over partial group tables).  When False,
    ``reasons`` explains the fallback to sequential execution.
    """

    parallel: bool
    mode: str = ""
    core: Optional[Plan] = None
    post_ops: Tuple[Plan, ...] = ()
    morsel_ordinal: int = -1
    reasons: Tuple[str, ...] = ()


def decide_parallel(plan: Plan) -> ParallelSplit:
    """Classify *plan* for morsel-driven execution, operator by operator.

    The morselized scan is the driver: the leftmost-deepest scan of the
    core pipeline, which must occur exactly once in the whole plan.
    Pipelined operators (filter/project/flat-map) are trivially
    parallel-safe; blocking roots are safe when their partials merge
    deterministically (group/scalar aggregation); everything else —
    order-sensitive operators without a merge, joins (build side not yet
    shared across morsels), direct group materialization, concatenation —
    falls back to sequential execution.
    """
    return _decide_split(plan, distributed=False)


def decide_distributed(plan: Plan) -> ParallelSplit:
    """Classify *plan* for sharded multi-process execution.

    Same decomposition as :func:`decide_parallel` — the shard is just a
    very large morsel, and the merge algebra is identical — with one
    extra allowance: **inner joins** distribute under the broadcast-build
    strategy.  The build side ships whole to every worker and is built
    once per shard task — one per worker and query, not once per morsel,
    the cost that keeps inner joins sequential on the thread tier — while
    the probe side is sharded; per-shard probe outputs concatenate in shard order,
    reproducing the sequential probe order.  Left/outer joins and set
    operations still fall back, with reasons surfaced on ``explain()``.
    """
    return _decide_split(plan, distributed=True)


def _decide_split(plan: Plan, distributed: bool):
    effects = plan_effects(plan)
    if effects.impure:
        return ParallelSplit(
            False,
            reasons=(f"impure lambda: {effects.describe()}",),
        )

    #: order-sensitive root operators with a deterministic managed-side
    #: merge: peeled off the morsel kernel, re-applied after concatenation
    post_op_types = (Sort, TopN, Limit, Distinct)

    post_ops: List[Plan] = []
    node = plan
    while isinstance(node, post_op_types):
        post_ops.append(node)
        node = node.child

    if isinstance(node, ScalarAggregate):
        mode, pipeline = "scalar", node.child
    elif isinstance(node, GroupAggregate):
        if not node.fused:
            return ParallelSplit(
                False,
                reasons=(
                    "unfused group aggregation re-scans materialized groups; "
                    "no deterministic partial merge",
                ),
            )
        mode, pipeline = "group", node.child
    else:
        mode, pipeline = "rows", node

    if mode in ("scalar", "group"):
        for spec in node.aggregates:
            if spec.kind not in PARALLEL_MERGEABLE_AGGREGATES:
                return ParallelSplit(
                    False,
                    reasons=(
                        f"aggregate {spec.kind!r} has no deterministic "
                        f"partial merge",
                    ),
                )

    blocker = _pipeline_blocker(pipeline, distributed=distributed)
    if blocker is not None:
        if isinstance(blocker, Join):
            detail = (
                f"{blocker.kind} join has no distributed merge "
                f"(unmatched-row accounting spans shards)"
                if distributed
                else f"{blocker.kind} join rebuilds its hash state per "
                f"morsel; no shared build phase"
            )
        elif isinstance(blocker, SetOp):
            detail = (
                f"set operation {blocker.op!r} compares whole inputs; "
                f"no per-{'shard' if distributed else 'morsel'} "
                f"decomposition"
            )
        else:
            detail = (
                f"plan node {type(blocker).__name__} inside the "
                f"{'shard' if distributed else 'morsel'} pipeline is "
                f"order-sensitive or blocking; no per-"
                f"{'shard' if distributed else 'morsel'} decomposition"
            )
        return ParallelSplit(False, reasons=(detail,))

    ordinal = _driver_ordinal(pipeline)
    occurrences = sum(
        1
        for n in _walk_plan(plan)
        if isinstance(n, Scan) and n.ordinal == ordinal
    )
    if occurrences != 1:
        return ParallelSplit(
            False,
            reasons=(
                f"source {ordinal} is scanned {occurrences} times; "
                f"morselizing one scan would desynchronize the others",
            ),
        )
    return ParallelSplit(
        True,
        mode=mode,
        core=node,
        post_ops=tuple(post_ops),
        morsel_ordinal=ordinal,
    )


def _walk_plan(plan: Plan):
    yield plan
    for child in plan_children(plan):
        yield from _walk_plan(child)


def _pipeline_blocker(node: Plan, distributed: bool = False) -> Optional[Plan]:
    """First operator on the morsel path that cannot run per-morsel.

    Joins are correct to morselize (probe side sliced, build side
    recomputed per morsel) but a morsel kernel is monolithic, so every
    invocation would rebuild the build-side hash state from scratch —
    measured 3–20× slower than one sequential pass.  Until the build
    phase is shared across morsels, inner joins fall back to sequential
    on the thread tier.  The distributed tier runs one kernel invocation
    per *shard*, so the build side is built once per worker and query
    (broadcast-build) and inner joins distribute; left joins stay
    blocked everywhere — their unmatched-row default handling is still
    per-probe-row, but keeping the thread and process tiers' join
    surfaces aligned with the documented capability matrix matters more
    than one extra operator.
    """
    if isinstance(node, Scan):
        return None
    if isinstance(node, (Filter, Project, FlatMap)):
        return _pipeline_blocker(node.child, distributed)
    if isinstance(node, Join) and node.kind in ("semi", "anti"):
        # existence probes are stateless row masks over the probe side;
        # the build-side key set is rebuilt per morsel (kernels receive
        # full sources — only the morsel scan is sliced), so per-morsel
        # results concatenate deterministically
        return _pipeline_blocker(node.left, distributed)
    if distributed and isinstance(node, Join) and node.kind == "inner":
        # broadcast-build: the probe (left) side is sharded, the build
        # side ships whole to each worker and is built once per shard task
        return _pipeline_blocker(node.left, distributed)
    return node


def _driver_ordinal(node: Plan) -> int:
    """Ordinal of the leftmost-deepest scan: the morselized driver."""
    while not isinstance(node, Scan):
        node = node.left if isinstance(node, (Join, SetOp)) else node.child
    return node.ordinal
