"""Plan validation: schema threading and per-engine capability reports.

Two jobs, both running between the optimizer and the backends:

* :func:`validate_plan` threads element types through every logical
  operator (Scan → … → TopN).  It re-proves nothing: the operator
  preconditions (boolean predicates, summable aggregate values,
  comparable sort keys, integer counts, matching join keys and set-op
  shapes) are :mod:`repro.expressions.typing`'s, checked on the same
  canonical tree before any plan exists.  The per-node output types it
  returns feed :func:`capability_report`'s native checks, which refuse
  lambdas that handle a whole record as a value.

* :func:`capability_report` answers "can this engine run this plan?" in
  one place, replacing the ad-hoc fragment checks previously scattered
  through the backends.  The backends keep their own checks as
  defense-in-depth (they are still exercised when used directly), but the
  provider consults the report first, so users get one uniform error
  surface.  Reports are deliberately conservative: only clear-cut
  violations are reported; borderline plans pass through and the backend
  gives the precise error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryAnalysisError
from ..expressions.analysis import member_usage
from ..expressions.nodes import Expr, Lambda, Member, walk
from ..expressions.typing import (
    GroupType,
    RecordType,
    ScalarType,
    SequenceType,
    Type,
    UNKNOWN,
    infer_expr,
    scalar_kind,
    type_from_token,
)
from .logical import (
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
    plan_children,
)

__all__ = [
    "PlanTypes",
    "validate_plan",
    "CapabilityReport",
    "capability_report",
    "ParallelSplit",
    "PARALLEL_MERGEABLE_AGGREGATES",
]


# ---------------------------------------------------------------------------
# Schema threading
# ---------------------------------------------------------------------------


@dataclass
class PlanTypes:
    """Output element types per plan node (keyed by object identity)."""

    types: Dict[int, Type]
    result: Type
    scalar: bool
    source_types: Tuple[Type, ...]

    def output_type(self, plan: Plan) -> Type:
        return self.types.get(id(plan), UNKNOWN)


def validate_plan(
    plan: Plan,
    source_types: Sequence[Type] = (),
    params: Optional[Dict[str, Any]] = None,
) -> PlanTypes:
    """Thread element types through *plan*; unknown types flow through
    as :data:`~repro.expressions.typing.UNKNOWN`."""
    params = dict(params or {})
    types: Dict[int, Type] = {}
    result = _thread(plan, tuple(source_types), params, types)
    return PlanTypes(
        types=types,
        result=result,
        scalar=isinstance(plan, ScalarAggregate),
        source_types=tuple(source_types),
    )


def _value(expr: Expr, env: Dict[str, Type], params: Dict[str, Any]) -> Type:
    return infer_expr(expr, env, params)


def _thread(
    plan: Plan,
    source_types: Tuple[Type, ...],
    params: Dict[str, Any],
    types: Dict[int, Type],
) -> Type:
    out = _thread_node(plan, source_types, params, types)
    types[id(plan)] = out
    return out


def _thread_node(
    plan: Plan,
    source_types: Tuple[Type, ...],
    params: Dict[str, Any],
    types: Dict[int, Type],
) -> Type:
    if isinstance(plan, Scan):
        if 0 <= plan.ordinal < len(source_types):
            known = source_types[plan.ordinal]
            if known is not UNKNOWN:
                return known
        return type_from_token(plan.schema_token)
    if isinstance(plan, (Filter, Sort, TopN, Limit, Distinct)):
        return _thread(plan.child, source_types, params, types)
    if isinstance(plan, Project):
        elem = _thread(plan.child, source_types, params, types)
        (var,) = plan.selector.params
        return _value(plan.selector.body, {var: elem}, params)
    if isinstance(plan, FlatMap):
        elem = _thread(plan.child, source_types, params, types)
        (var,) = plan.collection.params
        coll = _value(plan.collection.body, {var: elem}, params)
        inner = coll.element if isinstance(coll, SequenceType) else UNKNOWN
        if plan.result is not None:
            outer_var, inner_var = plan.result.params
            return _value(
                plan.result.body, {outer_var: elem, inner_var: inner}, params
            )
        return inner
    if isinstance(plan, Join):
        left = _thread(plan.left, source_types, params, types)
        right = _thread(plan.right, source_types, params, types)
        if plan.kind in ("semi", "anti"):
            # existence joins pass the probe element through unchanged
            return left
        lvar, rvar = plan.result.params
        return _value(plan.result.body, {lvar: left, rvar: right}, params)
    if isinstance(plan, GroupBy):
        elem = _thread(plan.child, source_types, params, types)
        (var,) = plan.key.params
        key = _value(plan.key.body, {var: elem}, params)
        return GroupType(key, elem)
    if isinstance(plan, GroupAggregate):
        elem = _thread(plan.child, source_types, params, types)
        (var,) = plan.key.params
        key = _value(plan.key.body, {var: elem}, params)
        env: Dict[str, Type] = {"__key": key}
        for i, spec in enumerate(plan.aggregates):
            env[f"__agg{i}"] = _aggregate_type(spec, elem, params)
        return _value(plan.output, env, params)
    if isinstance(plan, ScalarAggregate):
        elem = _thread(plan.child, source_types, params, types)
        env = {
            f"__agg{i}": _aggregate_type(spec, elem, params)
            for i, spec in enumerate(plan.aggregates)
        }
        return _value(plan.output, env, params)
    if isinstance(plan, (Concat, SetOp)):
        left = _thread(plan.left, source_types, params, types)
        right = _thread(plan.right, source_types, params, types)
        return left if left is not UNKNOWN else right
    # unknown plan node kinds flow through untyped
    for child in plan_children(plan):
        _thread(child, source_types, params, types)
    return UNKNOWN


def _aggregate_type(spec, elem: Type, params: Dict[str, Any]) -> Type:
    if spec.selector is None:  # count
        return ScalarType("int")
    (var,) = spec.selector.params
    value = _value(spec.selector.body, {var: elem}, params)
    value_kind = scalar_kind(value)
    if spec.kind == "avg":
        return ScalarType("float")
    if spec.kind == "sum":
        if value_kind in ("int", "int32", "bool"):
            return ScalarType("int")
        if value_kind == "float":
            return ScalarType("float")
        return UNKNOWN
    return value


# ---------------------------------------------------------------------------
# Per-engine capability reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapabilityReport:
    """Whether *engine* can run a plan, and why not if it cannot."""

    engine: str
    supported: bool
    reasons: Tuple[str, ...] = ()

    def describe(self) -> str:
        if self.supported:
            return f"engine {self.engine!r} supports this plan"
        return self.reasons[0] if self.reasons else (
            f"engine {self.engine!r} cannot run this plan"
        )


def capability_report(
    plan: Plan,
    engine: str,
    sources: Sequence[Any] = (),
    plan_types: Optional[PlanTypes] = None,
) -> CapabilityReport:
    """One capability check per engine, consulted by the provider.

    Conservative: reports only clear-cut violations.  A supported report
    does not guarantee compilation succeeds — the backends keep their own
    checks — but an unsupported report is always a real restriction.
    """
    if engine in ("linq", "compiled"):
        return CapabilityReport(engine, True)
    if plan_types is None:
        try:
            plan_types = validate_plan(plan)
        except QueryAnalysisError:
            plan_types = None
    if engine == "native":
        reasons = _native_reasons(plan, sources, plan_types)
    elif engine in ("hybrid_min", "hybrid_min_buffered"):
        reasons = _min_reasons(plan)
    elif engine.startswith("hybrid"):
        reasons = _hybrid_reasons(plan)
    else:
        return CapabilityReport(engine, True)
    return CapabilityReport(engine, not reasons, tuple(reasons))


#: plan node kinds the vectorized emitters (§5 / §6 max) cannot generate
_NON_VECTOR_NODES = (FlatMap, GroupBy)


def _walk_plan(plan: Plan):
    yield plan
    for child in plan_children(plan):
        yield from _walk_plan(child)


def _plan_lambdas(plan: Plan) -> List[Tuple[Lambda, Plan, Tuple[Plan, ...]]]:
    """Every (lambda, owner, element-producing children) triple in a plan."""
    out: List[Tuple[Lambda, Plan, Tuple[Plan, ...]]] = []
    for node in _walk_plan(plan):
        if isinstance(node, Filter):
            out.append((node.predicate, node, (node.child,)))
        elif isinstance(node, Project):
            out.append((node.selector, node, (node.child,)))
        elif isinstance(node, FlatMap):
            out.append((node.collection, node, (node.child,)))
            if node.result is not None:
                out.append((node.result, node, (node.child, node.child)))
        elif isinstance(node, Join):
            out.append((node.left_key, node, (node.left,)))
            out.append((node.right_key, node, (node.right,)))
            if node.result is not None:
                out.append((node.result, node, (node.left, node.right)))
        elif isinstance(node, (GroupBy, GroupAggregate)):
            out.append((node.key, node, (node.child,)))
            if isinstance(node, GroupAggregate):
                for spec in node.aggregates:
                    if spec.selector is not None:
                        out.append((spec.selector, node, (node.child,)))
        elif isinstance(node, ScalarAggregate):
            for spec in node.aggregates:
                if spec.selector is not None:
                    out.append((spec.selector, node, (node.child,)))
        elif isinstance(node, (Sort, TopN)):
            for key in node.keys:
                out.append((key, node, (node.child,)))
    return out


def _native_reasons(
    plan: Plan, sources: Sequence[Any], plan_types: Optional[PlanTypes]
) -> List[str]:
    reasons: List[str] = []
    from ..storage.struct_array import StructArray

    for i, source in enumerate(sources):
        if not isinstance(source, StructArray):
            reasons.append(
                f"the native engine requires StructArray sources; source_{i} "
                f"is {type(source).__name__} (use the compiled or hybrid "
                f"engine for object collections)"
            )
    reasons.extend(_vector_fragment_reasons(plan, plan_types))
    return reasons


def _hybrid_reasons(plan: Plan) -> List[str]:
    """Max-variant staging: reuse the staging split as a pure dry-run."""
    from ..errors import UnsupportedQueryError

    reasons: List[str] = []
    for node in _walk_plan(plan):
        if isinstance(node, _NON_VECTOR_NODES):
            reasons.append(
                f"plan node {type(node).__name__} is outside the native "
                f"fragment (§5 restrictions); use the compiled engine"
            )
    if not reasons:
        from ..codegen.mapping import split_staging

        try:
            split_staging(plan)
        except UnsupportedQueryError as exc:
            reasons.append(str(exc))
    return reasons


def _min_reasons(plan: Plan) -> List[str]:
    """Min-variant shape: post ops over one Sort/TopN/Join over scan chains."""
    node = plan
    while True:
        if isinstance(node, Project):
            node = node.child
        elif isinstance(node, Filter) and isinstance(node.child, Join):
            node = node.child
        else:
            break
    if not isinstance(node, (Sort, TopN, Join)):
        return [
            "Min staging only supports a single sort/top-N or inner join as "
            "the native operation (the paper's §7.4 restriction); use "
            "the Max variant for complex queries"
        ]
    if isinstance(node, (Sort, TopN)):
        subtrees = (node.child,)
    else:
        subtrees = (node.left, node.right)
    for subtree in subtrees:
        if not _min_subtree_ok(subtree):
            return [
                "Min staging only supports (filtered) scans and joins below "
                "the native operator"
            ]
    return []


def _min_subtree_ok(node: Plan) -> bool:
    while isinstance(node, Filter):
        node = node.child
    if isinstance(node, Scan):
        return True
    if isinstance(node, Join):
        return _min_subtree_ok(node.left) and _min_subtree_ok(node.right)
    return False


# ---------------------------------------------------------------------------
# Parallel-safety capability check (morsel-driven execution)
# ---------------------------------------------------------------------------

#: aggregate kinds with a deterministic partial-merge (avg via sum+count)
PARALLEL_MERGEABLE_AGGREGATES = frozenset({"sum", "count", "min", "max", "avg"})


@dataclass(frozen=True)
class ParallelSplit:
    """Decision of the per-operator parallel-safety check
    (:func:`repro.codegen.lower.decide_parallel` /
    :func:`~repro.codegen.lower.decide_distributed`).

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


def _vector_fragment_reasons(
    plan: Plan, plan_types: Optional[PlanTypes]
) -> List[str]:
    """§5 restrictions shared by the native checks: node support, flat
    layouts, no whole-record values."""
    reasons: List[str] = []
    for node in _walk_plan(plan):
        if isinstance(node, _NON_VECTOR_NODES):
            reasons.append(
                f"plan node {type(node).__name__} is outside the native "
                f"fragment (§5 restrictions); use the compiled engine"
            )
    for lam, owner, children_of in _plan_lambdas(plan):
        for node in walk(lam.body):
            if isinstance(node, Member) and isinstance(node.target, Member):
                reasons.append(
                    f"nested member access {node.name!r} is not representable "
                    f"in the flat native layout (the §5 'no references' rule)"
                )
        usage = member_usage(lam.body)
        for param, producer in zip(lam.params, children_of):
            if "" not in usage.get(param, set()):
                continue
            elem = (
                plan_types.output_type(producer)
                if plan_types is not None
                else UNKNOWN
            )
            if not isinstance(elem, RecordType):
                continue  # single-value frames may use the bare variable
            if isinstance(owner, Join):
                reasons.append(
                    "native join results cannot embed whole input records "
                    "(the §5 'no references' rule); project explicit fields"
                )
            else:
                reasons.append(
                    "native code cannot manipulate whole records as values; "
                    "access their fields instead (the §5 'no references' rule)"
                )
    return reasons
