"""The pipeline IR shared by every codegen backend.

The paper's three code generators (§4 host code, §5 native code, §6
hybrid staging) share one conceptual core: segment the plan into
*pipelines* at blocking operators, then emit one fused loop per pipeline.
This module makes that core explicit.  :func:`repro.codegen.lower.lower_plan`
turns an optimized logical plan into a :class:`QueryIR` — a DAG of
:class:`Pipeline` objects separated by :class:`PipelineBreaker` nodes —
and all three backends *lower* that IR instead of re-deriving loop
boundaries privately.

Three shared analyses live here so no backend re-implements them:

* **required fields** — the ``member_usage``-based pass
  (:func:`required_source_fields`) that drives native column pruning and
  hybrid's implicit projection;
* **common-subexpression elimination** — per-lambda hoisting of repeated
  subexpressions into ``__cse<N>`` bindings, applied once during lowering
  and inherited by every backend;
* **physical slot planning** — avg → sum+count decomposition with slot
  sharing, previously duplicated between ``python_backend._plan_slots``
  and ``runtime.parallel._physical_slots``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import UnsupportedQueryError
from ..expressions.analysis import member_usage
from ..expressions.nodes import (
    AggCall,
    Binary,
    Call,
    Conditional,
    Expr,
    Lambda,
    Member,
    Method,
    New,
    Unary,
    Var,
    children as _expr_children,
    structural_key,
    walk,
)
from ..expressions.visitor import Transformer
from ..plans.logical import (
    AggregateSpec,
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
    "CSE_PREFIX",
    "CseBinding",
    "PipelineBreaker",
    "Pipeline",
    "QueryIR",
    "BREAKER_KINDS",
    "breaker_kind",
    "op_label",
    "lambda_usage",
    "lambda_fields",
    "paths_to_fields",
    "merge_fields",
    "ROW",
    "required_source_fields",
    "strip_scan_filters",
    "rebuild_plan",
    "eliminate_common_subexpressions",
    "physical_slots",
    "MORSEL_START",
    "MORSEL_STOP",
    "morsel_slice",
]


# ---------------------------------------------------------------------------
# Shared field analysis (the one member_usage pass)
# ---------------------------------------------------------------------------

#: prefix of CSE-introduced variables; field analysis resolves them through
#: their binding expressions instead of treating them as free variables
CSE_PREFIX = "__cse"

CseTable = Dict[int, Tuple["CseBinding", ...]]


def lambda_usage(
    lam: Lambda, cse: Optional[CseTable] = None
) -> Dict[str, Set[str]]:
    """Member paths per free variable of *lam*, CSE-aware.

    ``__cse<N>`` variables introduced by :func:`eliminate_common_
    subexpressions` are resolved through their binding expressions (which
    close over the same lambda parameters), so field analysis of a CSE'd
    lambda reports exactly what the original read.
    """
    usage: Dict[str, Set[str]] = {}

    def merge_expr(expr: Expr) -> None:
        for var, paths in member_usage(expr).items():
            if var.startswith(CSE_PREFIX):
                continue
            usage.setdefault(var, set()).update(paths)

    merge_expr(lam.body)
    for binding in (cse or {}).get(id(lam), ()):
        merge_expr(binding.expr)
    return usage


def paths_to_fields(paths: Set[str]) -> Optional[Set[str]]:
    """Dotted member paths → first-level field names (None = whole element)."""
    fields: Set[str] = set()
    for path in paths:
        if path == "":
            return None
        fields.add(path.split(".")[0])
    return fields


def lambda_fields(
    lam: Lambda, param_index: int = 0, cse: Optional[CseTable] = None
) -> Optional[Set[str]]:
    """First-level fields one parameter of *lam* is accessed through.

    ``None`` means the whole element is needed (a bare use of the
    variable).  This is the raw material of the paper's source mapping
    (Figure 6) and of native column pruning.
    """
    paths = lambda_usage(lam, cse).get(lam.params[param_index], set())
    return paths_to_fields(paths)


def merge_fields(
    a: Optional[Set[str]], b: Optional[Set[str]]
) -> Optional[Set[str]]:
    """Union of two field sets where ``None`` (whole element) absorbs."""
    if a is None or b is None:
        return None
    return a | b


#: the row-index pseudo-field: a source element that only escapes the
#: native half — is returned, or embedded whole in a join or projection
#: result — crosses the hybrid staging boundary as its position in the
#: staged object list, and delivery looks the object back up (§6)
ROW = "__row"


def required_source_fields(
    plan: Plan,
    cse: Optional[CseTable] = None,
    carry: bool = False,
    defer: bool = False,
) -> Dict[int, Optional[Set[str]]]:
    """Map scan ordinal → fields the plan reads above it (None = whole).

    The per-source *source mapping* of Figure 6, shared by native column
    pruning (materialize exactly these columns) and hybrid staging (copy
    exactly these fields).  ``None`` absorbs: an element that an operator
    compares, hashes or computes with is needed whole.  With *carry*, an
    element that only escapes adds :data:`ROW` instead.  *defer* (with
    *carry*) also ships a result field copied straight from an element as
    ROW, unless a later operator reads it: it is read from the object at
    delivery (Min result construction, §6).
    """
    usage: Dict[int, Optional[Set[str]]] = {}

    def lam_fields(lam: Lambda, index: int = 0) -> Optional[Set[str]]:
        return lambda_fields(lam, index, cse)

    def merge(ordinal: int, fields: Optional[Set[str]]) -> None:
        if ordinal in usage and usage[ordinal] is None:
            return
        if fields is None:
            usage[ordinal] = None
        else:
            usage.setdefault(ordinal, set())
            usage[ordinal] |= fields  # type: ignore[operator]

    def result_fields(
        lam: Lambda, index: int, needed: Optional[Set[str]], defer: bool = defer
    ) -> Optional[Set[str]]:
        """Fields of parameter *index* that a projection or join result
        reads; an escaping result (*needed* not None) carries a bare
        element, or a deferred field copy, as ROW."""
        if not carry:
            return lam_fields(lam, index)
        param = Var(lam.params[index])
        body = lam.body
        entries = body.fields if isinstance(body, New) else ((None, body),)
        paths: Set[str] = set()
        carried = False
        for name, expr in entries:
            if needed is not None and (
                expr == param
                or defer
                and isinstance(expr, Member)
                and expr.target == param
                and (name is None or name not in needed)
            ):
                carried = True
            else:
                paths |= member_usage(expr).get(param.name, set())
        for binding in (cse or {}).get(id(lam), ()):
            paths |= member_usage(binding.expr).get(param.name, set())
        fields = paths_to_fields(paths)
        return fields | {ROW} if carried and fields is not None else fields

    def visit(plan: Plan, needed: Optional[Set[str]]) -> None:
        if isinstance(plan, Scan):
            merge(plan.ordinal, needed)
            return
        if isinstance(plan, Filter):
            visit(plan.child, merge_fields(needed, lam_fields(plan.predicate)))
            return
        if isinstance(plan, Project):
            visit(plan.child, result_fields(plan.selector, 0, needed))
            return
        if isinstance(plan, FlatMap):
            inner = lam_fields(plan.collection)
            if plan.result is not None:
                inner = merge_fields(inner, lam_fields(plan.result, 0))
            visit(plan.child, inner)
            return
        if isinstance(plan, Join):
            if plan.kind in ("semi", "anti"):
                # output IS the left element: downstream needs plus the
                # probe key on the left; only the key on the build side
                visit(plan.left, merge_fields(needed, lam_fields(plan.left_key)))
                visit(plan.right, lam_fields(plan.right_key))
                return
            left_fields = result_fields(plan.result, 0, needed)
            # an unmatched left-join row reads its fields off the default
            right_fields = result_fields(
                plan.result, 1, needed, defer and plan.kind == "inner"
            )
            visit(plan.left, merge_fields(left_fields, lam_fields(plan.left_key)))
            visit(
                plan.right, merge_fields(right_fields, lam_fields(plan.right_key))
            )
            return
        if isinstance(plan, GroupAggregate):
            fields = lam_fields(plan.key)
            for spec in plan.aggregates:
                if spec.selector is not None:
                    fields = merge_fields(fields, lam_fields(spec.selector))
            visit(plan.child, fields)
            return
        if isinstance(plan, GroupBy):
            visit(plan.child, None)  # groups carry whole elements
            return
        if isinstance(plan, ScalarAggregate):
            fields: Optional[Set[str]] = set()
            for spec in plan.aggregates:
                if spec.selector is not None:
                    fields = merge_fields(fields, lam_fields(spec.selector))
            visit(plan.child, fields)
            return
        if isinstance(plan, (Sort, TopN)):
            fields = needed
            for key in plan.keys:
                fields = merge_fields(fields, lam_fields(key))
            visit(plan.child, fields)
            return
        if isinstance(plan, Limit):
            visit(plan.child, needed)
            return
        if isinstance(plan, Distinct):
            visit(plan.child, None)  # value semantics need every field
            return
        if isinstance(plan, Concat):
            visit(plan.left, needed)
            visit(plan.right, needed)
            return
        if isinstance(plan, SetOp):
            visit(plan.left, None)  # bag equality compares whole elements
            visit(plan.right, None)
            return
        for child in plan_children(plan):
            visit(child, None)

    visit(plan, {ROW} if carry else None)
    return usage


def strip_scan_filters(plan: Plan) -> Tuple[Plan, Dict[int, Tuple[Lambda, ...]]]:
    """Peel scan-adjacent Filter chains off the plan.

    Returns the stripped plan plus ordinal → peeled predicates (innermost
    first).  This is the hybrid staging boundary: the peeled predicates
    run managed-side, everything else natively over staged arrays.
    """
    peeled: Dict[int, Tuple[Lambda, ...]] = {}

    def strip(node: Plan) -> Plan:
        if isinstance(node, Filter):
            chain = node
            predicates: List[Lambda] = []
            while isinstance(chain, Filter):
                predicates.append(chain.predicate)
                chain = chain.child
            if isinstance(chain, Scan):
                peeled[chain.ordinal] = tuple(reversed(predicates))
                return chain
            return Filter(strip(node.child), node.predicate)
        if isinstance(node, Scan):
            peeled.setdefault(node.ordinal, ())
            return node
        return rebuild_plan(node, [strip(c) for c in plan_children(node)])

    return strip(plan), peeled


def rebuild_plan(node: Plan, children: List[Plan]) -> Plan:
    """Reconstruct *node* with new children (same arity/order)."""
    if isinstance(node, Join):
        return Join(
            children[0],
            children[1],
            node.left_key,
            node.right_key,
            node.result,
            node.kind,
            node.default,
        )
    if isinstance(node, Concat):
        return Concat(children[0], children[1])
    if isinstance(node, SetOp):
        return SetOp(children[0], children[1], node.op)
    if isinstance(node, Filter):
        return Filter(children[0], node.predicate)
    if isinstance(node, Project):
        return Project(children[0], node.selector)
    if isinstance(node, FlatMap):
        return FlatMap(children[0], node.collection, node.result)
    if isinstance(node, GroupBy):
        return GroupBy(children[0], node.key)
    if isinstance(node, GroupAggregate):
        return GroupAggregate(
            children[0], node.key, node.aggregates, node.output, node.fused, node.share
        )
    if isinstance(node, ScalarAggregate):
        return ScalarAggregate(children[0], node.aggregates, node.output)
    if isinstance(node, Sort):
        return Sort(children[0], node.keys, node.descending)
    if isinstance(node, TopN):
        return TopN(children[0], node.keys, node.descending, node.count)
    if isinstance(node, Limit):
        return Limit(children[0], node.count, node.offset)
    if isinstance(node, Distinct):
        return Distinct(children[0])
    raise UnsupportedQueryError(f"cannot rebuild plan node {type(node).__name__}")


# ---------------------------------------------------------------------------
# Common-subexpression elimination (per-lambda, applied during lowering)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CseBinding:
    """One hoisted subexpression: ``name = expr``, evaluated per element.

    ``expr`` closes over the owning lambda's parameters; it may reference
    earlier bindings of the same lambda (nested elimination), so backends
    must emit bindings in list order.
    """

    name: str
    expr: Expr


#: node kinds worth hoisting — compound computations, not bare leaves
_CSE_CANDIDATES = (Binary, Unary, Method, Call, Conditional)


def _cse_eligible(node: Expr) -> bool:
    """Hoistable: no aggregates, no nested lambdas inside the subtree."""
    return not any(isinstance(sub, (AggCall, Lambda)) for sub in walk(node))


def _subtree_size(node: Expr) -> int:
    return sum(1 for _ in walk(node))


def _always_evaluated_keys(expr: Expr) -> Set[Any]:
    """Structural keys of subtrees evaluated on *every* element.

    Hoisting is only sound when at least one occurrence already runs
    unconditionally: subtrees reached only through short-circuited
    operands (``and``/``or`` right sides) or conditional branches must
    not be evaluated eagerly (e.g. a guarded division).
    """
    keys: Set[Any] = set()

    def visit(node: Expr) -> None:
        if isinstance(node, _CSE_CANDIDATES):
            keys.add(structural_key(node))
        if isinstance(node, Binary) and node.op in ("and", "or"):
            visit(node.left)
            return
        if isinstance(node, Conditional):
            visit(node.cond)
            return
        if isinstance(node, Lambda):
            return
        for child in _expr_children(node):
            visit(child)

    visit(expr)
    return keys


class _ReplaceSubtree(Transformer):
    """Swap every occurrence of one structural key for a variable."""

    def __init__(self, key: Any, name: str) -> None:
        self._key = key
        self._var = Var(name)

    def visit(self, expr: Expr) -> Expr:
        if isinstance(expr, _CSE_CANDIDATES) and structural_key(expr) == self._key:
            return self._var
        return self.generic_visit(expr)


class CseAllocator:
    """Deterministic ``__cse<N>`` name source, shared across one lowering."""

    def __init__(self) -> None:
        self._count = 0

    def fresh(self) -> str:
        name = f"{CSE_PREFIX}{self._count}"
        self._count += 1
        return name


def eliminate_common_subexpressions(
    lam: Lambda, allocator: CseAllocator
) -> Tuple[Lambda, Tuple[CseBinding, ...]]:
    """Hoist repeated subexpressions of one lambda into bindings.

    Innermost (smallest) repeats are hoisted first, so outer repeats are
    re-counted over the rewritten body and their binding expressions may
    reference earlier ``__cse`` variables.  Only subtrees with at least
    one unconditionally-evaluated occurrence are hoisted (see
    :func:`_always_evaluated_keys`), preserving short-circuit guards.
    """
    body = lam.body
    bindings: List[CseBinding] = []
    while True:
        counts: Dict[Any, int] = {}
        first_pos: Dict[Any, int] = {}
        exemplar: Dict[Any, Expr] = {}
        for pos, node in enumerate(walk(body)):
            if isinstance(node, _CSE_CANDIDATES) and _cse_eligible(node):
                key = structural_key(node)
                counts[key] = counts.get(key, 0) + 1
                if key not in first_pos:
                    first_pos[key] = pos
                    exemplar[key] = node
        anchored = _always_evaluated_keys(body)
        repeated = [k for k, c in counts.items() if c >= 2 and k in anchored]
        if not repeated:
            break
        key = min(
            repeated, key=lambda k: (_subtree_size(exemplar[k]), first_pos[k])
        )
        name = allocator.fresh()
        bindings.append(CseBinding(name, exemplar[key]))
        body = _ReplaceSubtree(key, name).visit(body)
    if not bindings:
        return lam, ()
    return Lambda(lam.params, body, lam.effects), tuple(bindings)


# ---------------------------------------------------------------------------
# Physical aggregate slot planning (shared: python backend + parallel merge)
# ---------------------------------------------------------------------------


def physical_slots(
    specs: Sequence[AggregateSpec], share: bool = True
) -> Tuple[List[Tuple[str, Optional[Lambda]]], List[Tuple[str, int, int]]]:
    """Mergeable physical slots + per-spec extraction recipe.

    ``avg`` has no direct accumulator (and cannot merge across morsels),
    so it decomposes into a ``sum`` slot and a shared ``count`` slot,
    re-divided at finalization.  Identical (kind, selector) pairs share
    one slot unless ``share`` is False (the §2.3 duplicate-computation
    ablation).  Each extraction entry is ``("direct", slot, -1)`` or
    ``("avg", sum_slot, count_slot)``.
    """
    slots: List[Tuple[str, Optional[Lambda]]] = []
    index_of: Dict[Any, int] = {}

    def slot_for(kind: str, selector: Optional[Lambda]) -> int:
        if not share:
            slots.append((kind, selector))
            return len(slots) - 1
        sel_key = structural_key(selector) if selector is not None else None
        key = (kind, sel_key)
        if key not in index_of:
            index_of[key] = len(slots)
            slots.append((kind, selector))
        return index_of[key]

    extract: List[Tuple[str, int, int]] = []
    for spec in specs:
        if spec.kind == "avg":
            extract.append(
                ("avg", slot_for("sum", spec.selector), slot_for("count", None))
            )
        else:
            extract.append(("direct", slot_for(spec.kind, spec.selector), -1))
    return slots, extract


# ---------------------------------------------------------------------------
# The pipeline IR itself
# ---------------------------------------------------------------------------

#: blocking plan node → breaker kind (Join build sides are "join-build")
BREAKER_KINDS = {
    GroupBy: "group-materialize",
    GroupAggregate: "group-aggregate",
    ScalarAggregate: "scalar-aggregate",
    Sort: "sort",
    TopN: "topn",
    Distinct: "distinct-materialize",
}

_OP_LABELS = {
    Filter: "filter",
    Project: "project",
    FlatMap: "flatmap",
    Join: "join-probe",
    Limit: "limit",
}


def breaker_kind(node: Plan) -> str:
    if isinstance(node, Join):
        # every join kind builds the same keyed table; probes differ
        return "join-build"
    if isinstance(node, SetOp):
        return "setop-build"
    return BREAKER_KINDS[type(node)]


def op_label(node: Plan) -> str:
    if isinstance(node, Join) and node.kind != "inner":
        return f"join-probe({node.kind})"
    if isinstance(node, SetOp):
        return f"setop-probe({node.op})"
    return _OP_LABELS.get(type(node), type(node).__name__.lower())


@dataclass
class PipelineBreaker:
    """A materialization point between pipelines.

    Exactly one breaker exists per blocking plan node (and per join build
    side); the pipelines feeding it are its ``producers``, the single
    pipeline reading the materialized result is its ``consumer``.
    """

    bid: int
    kind: str
    node: Plan
    producers: List[int] = dc_field(default_factory=list)
    consumer: Optional[int] = None

    def label(self) -> str:
        return f"{self.kind}#{self.bid}"


@dataclass
class Pipeline:
    """One fused loop: a driver, a chain of pipelined operators, a sink.

    ``driver`` is either a :class:`~repro.plans.logical.Scan` or the
    :class:`PipelineBreaker` whose materialized output this pipeline
    re-reads.  ``operators`` is the non-blocking chain, innermost first
    (Filter/Project/FlatMap/Limit and Join probes).  ``sink`` is the
    breaker this pipeline materializes into, or None for the terminal
    pipeline that produces query results.
    """

    pid: int
    driver: Union[Scan, PipelineBreaker]
    operators: Tuple[Plan, ...]
    sink: Optional[PipelineBreaker]
    inputs: Tuple[int, ...] = ()
    #: fields of the driver scan's elements this pipeline's subtree reads
    #: (None = whole elements, or a breaker-driven pipeline)
    required_fields: Optional[Set[str]] = None
    #: ordinal of the driver scan (None when driven by a breaker)
    driver_ordinal: Optional[int] = None
    #: True when the driver scan is the morsel-sliced one
    morsel_driver: bool = False
    #: True when backends should emit a cooperative-cancellation
    #: checkpoint (``_cancel_check(_params)``) at this pipeline's head;
    #: deliberately excluded from :meth:`describe` so EXPLAIN output —
    #: and its byte-exact goldens — stay unchanged
    cancel_checkpoint: bool = False

    def driver_label(self) -> str:
        if isinstance(self.driver, PipelineBreaker):
            return self.driver.label()
        return f"scan(source_{self.driver.ordinal})"

    def sink_label(self) -> str:
        return self.sink.label() if self.sink is not None else "result"

    def describe(self) -> str:
        parts = [self.driver_label()]
        parts.extend(op_label(op) for op in self.operators)
        text = " | ".join(parts) + f" => {self.sink_label()}"
        if self.morsel_driver:
            text += " [morsel-driver]"
        return text


@dataclass
class QueryIR:
    """A lowered query: the rewritten plan plus its pipeline schedule.

    ``pipelines`` is in execution order (producers before consumers —
    creation order is a topological order of the DAG).  ``plan`` is the
    plan the backends actually emit: the optimized plan with repeated
    subexpressions hoisted (``cse``) and multi-conjunct filters
    decomposed.
    """

    plan: Plan
    pipelines: Tuple[Pipeline, ...]
    breakers: Tuple[PipelineBreaker, ...]
    #: id(lambda in plan) → CSE bindings to emit before evaluating it
    cse: CseTable
    #: whole-plan scan ordinal → fields read (None = whole elements)
    source_fields: Dict[int, Optional[Set[str]]]
    morsel_ordinal: Optional[int]
    scalar: bool
    #: dataflow facts (repro.analysis.DataflowFacts), attached by the
    #: provider after lowering; backends fall back to deriving their own
    facts: Optional[Any] = None

    def bindings_for(self, lam: Optional[Lambda]) -> Tuple[CseBinding, ...]:
        if lam is None:
            return ()
        return self.cse.get(id(lam), ())

    def breaker_for(self, node: Plan) -> Optional[PipelineBreaker]:
        """The breaker materializing *node* (blocking nodes, join builds)."""
        for breaker in self.breakers:
            if breaker.node is node:
                return breaker
        return None

    def describe(self) -> List[str]:
        return [f"p{p.pid}: {p.describe()}" for p in self.pipelines]


# ---------------------------------------------------------------------------
# Morsel parameters (the slice a morsel-parameterized kernel reads)
# ---------------------------------------------------------------------------

#: reserved parameter names the morsel-parameterized kernels slice with
MORSEL_START = "__morsel_start"
MORSEL_STOP = "__morsel_stop"


def morsel_slice(source: Any, start: int, stop: int) -> Any:
    """One morsel of *source*, used by generated managed staging loops.

    Struct arrays slice their native data (zero-copy view); ordinary
    sequences slice; anything merely re-iterable falls back to islice.
    """
    data = getattr(source, "data", None)
    schema = getattr(source, "schema", None)
    if data is not None and schema is not None and hasattr(schema, "decode_row"):
        return type(source)(schema, data[start:stop])
    try:
        return source[start:stop]
    except TypeError:
        return itertools.islice(iter(source), start, stop)
