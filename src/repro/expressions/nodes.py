"""Expression tree nodes.

The paper's query provider receives the query as a C# *expression tree*
(Figure 1) and drives all code generation from it.  This module defines the
Python analogue: a small algebra of immutable, hashable AST nodes.

Nodes never overload arithmetic or comparison operators — tree *building*
happens on the proxy wrappers in :mod:`repro.expressions.builder`.  Keeping
nodes plain means structural equality (``==``) and hashing behave normally,
which the query cache relies on.

Two families of nodes exist:

* **scalar expressions** — evaluated once per element (``Constant``,
  ``Param``, ``Var``, ``Member``, ``Binary``, ``Unary``, ``Call``,
  ``Method``, ``Conditional``, ``New``, ``AggCall``, ``Lambda``);
* **query expressions** — the operator chain itself (``SourceExpr``,
  ``QueryOp``), mirroring the ``MethodCallExpression`` spine of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

__all__ = [
    "Expr",
    "Constant",
    "Param",
    "Var",
    "Member",
    "Binary",
    "Unary",
    "Call",
    "Method",
    "Conditional",
    "New",
    "Lambda",
    "AggCall",
    "SourceExpr",
    "QueryOp",
    "BINARY_OPS",
    "UNARY_OPS",
    "COMPARISON_OPS",
    "LOGICAL_OPS",
    "ARITHMETIC_OPS",
    "AGGREGATE_KINDS",
    "structural_key",
    "children",
    "walk",
]


#: Binary operator names, keyed by the token emitted in generated source.
ARITHMETIC_OPS = frozenset({"add", "sub", "mul", "truediv", "floordiv", "mod", "pow"})
COMPARISON_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})
LOGICAL_OPS = frozenset({"and", "or"})
BINARY_OPS = ARITHMETIC_OPS | COMPARISON_OPS | LOGICAL_OPS
UNARY_OPS = frozenset({"neg", "pos", "not", "abs"})

#: Aggregate kinds usable inside a group result selector.
AGGREGATE_KINDS = frozenset({"sum", "count", "avg", "min", "max"})


class Expr:
    """Abstract base for all expression nodes."""

    __slots__ = ()

    #: the tree's :class:`~repro.expressions.canonical.CanonicalQuery`,
    #: memoised on the root it was computed for; not a field, so never
    #: compared, hashed or printed
    _canonical = None


@dataclass(frozen=True)
class Constant(Expr):
    """A literal embedded in the query (``ConstantExpression``)."""

    value: Any

    def __hash__(self) -> int:  # values may be unhashable (lists, etc.)
        return hash(_freeze(self.value))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return _freeze(self.value) == _freeze(other.value)


@dataclass(frozen=True)
class Param(Expr):
    """A named query parameter, bound at execution time.

    Parameters are the unit of compiled-code reuse: the query cache stores
    code keyed by trees whose varying constants have been lifted to
    ``Param`` nodes (paper §3, "essentially the same" trees).
    """

    name: str


@dataclass(frozen=True)
class Var(Expr):
    """A lambda-bound variable reference (``ParameterExpression``)."""

    name: str


@dataclass(frozen=True)
class Member(Expr):
    """Attribute access, e.g. ``s.population`` (``MemberExpression``)."""

    target: Expr
    name: str


@dataclass(frozen=True)
class Binary(Expr):
    """A binary operation (``BinaryExpression``)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator: {self.op!r}")


@dataclass(frozen=True)
class Unary(Expr):
    """A unary operation."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator: {self.op!r}")


@dataclass(frozen=True)
class Call(Expr):
    """A call to a whitelisted pure function, e.g. ``len(x)``."""

    name: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Method(Expr):
    """A whitelisted method call on a value, e.g. ``s.name.startswith(p)``."""

    target: Expr
    name: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Conditional(Expr):
    """``then if cond else other`` — built via ``if_then_else``."""

    cond: Expr
    then: Expr
    other: Expr


@dataclass(frozen=True)
class New(Expr):
    """Construction of a result record: ``new(id=..., total=...)``.

    ``fields`` is an ordered tuple of ``(name, expression)`` pairs.  The
    engines materialize these as generated named-tuple types, the analogue
    of the anonymous types C# synthesizes for ``select new {...}``.
    """

    fields: Tuple[Tuple[str, Expr], ...]
    type_name: Optional[str] = None

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.fields)


@dataclass(frozen=True)
class Lambda(Expr):
    """A captured lambda (``LambdaExpression``).

    ``effects`` carries the purity/effect verdict derived from the
    original Python callable at trace time (see
    :mod:`repro.analysis.effects`).  It is advisory metadata — excluded
    from equality, hashing and :func:`structural_key`, so cache keys and
    structural sharing are unaffected.
    """

    params: Tuple[str, ...]
    body: Expr
    effects: Optional[Any] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class AggCall(Expr):
    """An aggregate over the current group inside a group result selector.

    ``g.sum(lambda s: s.price)`` traces to ``AggCall('sum', Lambda(...))``;
    ``g.count()`` traces to ``AggCall('count', None)``.  The optimizer fuses
    all ``AggCall`` nodes of one selector into a single pass (paper §2.3).
    """

    kind: str
    arg: Optional[Lambda]
    group: Expr = field(default_factory=lambda: Var("g"))

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATE_KINDS:
            raise ValueError(f"unknown aggregate kind: {self.kind!r}")
        if self.kind != "count" and self.arg is None:
            raise ValueError(f"aggregate {self.kind!r} requires a selector lambda")


@dataclass(frozen=True)
class SourceExpr(Expr):
    """A reference to an input collection.

    The actual data is *not* stored in the tree (unlike C#'s
    ``ConstantExpression`` holding the collection); it is carried separately
    so identical query shapes over different collections share cached code.
    ``schema_token`` identifies the element type — two sources with equal
    tokens are interchangeable for code generation purposes.
    """

    ordinal: int
    schema_token: str


#: Query operators understood by the translator.  Mirrors the LINQ standard
#: query operators the paper exercises.
QUERY_OPS = frozenset(
    {
        "where",
        "select",
        "select_many",
        "join",
        "left_outer_join",
        "join_semi",
        "join_anti",
        "group_by",
        "group_join",
        "order_by",
        "order_by_desc",
        "then_by",
        "then_by_desc",
        "take",
        "skip",
        "distinct",
        "count",
        "sum",
        "min",
        "max",
        "average",
        "any",
        "all",
        "first",
        "first_or_default",
        "single",
        "element_at",
        "contains",
        "to_list",
        "concat",
        "union",
        "union_all",
        "intersect",
        "except_",
        "reverse",
        "aggregate",
    }
)


@dataclass(frozen=True)
class QueryOp(Expr):
    """One standard query operator application (``MethodCallExpression``).

    ``source`` is the upstream query expression; ``args`` holds lambdas,
    inner sources (for joins) and scalar arguments in operator-specific
    positions, documented in :mod:`repro.query.operators`.
    """

    name: str
    source: Expr
    args: Tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in QUERY_OPS:
            raise ValueError(f"unknown query operator: {self.name!r}")


def _freeze(value: Any) -> Any:
    """Convert a constant value into a hashable, order-stable form."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (str, bytes, int, float, bool, type(None))):
        return value
    try:
        hash(value)
    except TypeError:
        return (type(value).__name__, id(value))
    return value


def children(expr: Expr) -> Tuple[Expr, ...]:
    """Return the direct child expressions of *expr* in a stable order."""
    if isinstance(expr, (Constant, Param, Var, SourceExpr)):
        return ()
    if isinstance(expr, Member):
        return (expr.target,)
    if isinstance(expr, Binary):
        return (expr.left, expr.right)
    if isinstance(expr, Unary):
        return (expr.operand,)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, Method):
        return (expr.target, *expr.args)
    if isinstance(expr, Conditional):
        return (expr.cond, expr.then, expr.other)
    if isinstance(expr, New):
        return tuple(e for _, e in expr.fields)
    if isinstance(expr, Lambda):
        return (expr.body,)
    if isinstance(expr, AggCall):
        return (expr.arg,) if expr.arg is not None else ()
    if isinstance(expr, QueryOp):
        return (expr.source, *expr.args)
    raise TypeError(f"not an expression node: {expr!r}")


def walk(expr: Expr):
    """Yield *expr* and all its descendants, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def structural_key(expr: Expr) -> Any:
    """Return a nested-tuple key capturing the exact structure of *expr*.

    Two expressions have equal keys iff they are structurally identical.
    Used by the query cache; constants are frozen to hashable forms.
    """
    if isinstance(expr, Constant):
        return ("const", _freeze(expr.value))
    if isinstance(expr, Param):
        return ("param", expr.name)
    if isinstance(expr, Var):
        return ("var", expr.name)
    if isinstance(expr, SourceExpr):
        return ("source", expr.ordinal, expr.schema_token)
    if isinstance(expr, Member):
        return ("member", expr.name, structural_key(expr.target))
    if isinstance(expr, Binary):
        return (
            "binary",
            expr.op,
            structural_key(expr.left),
            structural_key(expr.right),
        )
    if isinstance(expr, Unary):
        return ("unary", expr.op, structural_key(expr.operand))
    if isinstance(expr, Call):
        return ("call", expr.name, tuple(structural_key(a) for a in expr.args))
    if isinstance(expr, Method):
        return (
            "method",
            expr.name,
            structural_key(expr.target),
            tuple(structural_key(a) for a in expr.args),
        )
    if isinstance(expr, Conditional):
        return (
            "cond",
            structural_key(expr.cond),
            structural_key(expr.then),
            structural_key(expr.other),
        )
    if isinstance(expr, New):
        return (
            "new",
            expr.type_name,
            tuple((name, structural_key(e)) for name, e in expr.fields),
        )
    if isinstance(expr, Lambda):
        return ("lambda", expr.params, structural_key(expr.body))
    if isinstance(expr, AggCall):
        arg_key = structural_key(expr.arg) if expr.arg is not None else None
        return ("agg", expr.kind, arg_key)
    if isinstance(expr, QueryOp):
        return (
            "op",
            expr.name,
            structural_key(expr.source),
            tuple(structural_key(a) for a in expr.args),
        )
    raise TypeError(f"not an expression node: {expr!r}")
