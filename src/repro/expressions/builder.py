"""Building expression trees from Python lambdas.

C# quotes lambdas into expression trees at compile time.  Python has no
compiler hook, so we *trace* instead: the lambda is called once with proxy
arguments whose operators record, rather than perform, each operation.  The
returned proxy then carries the full expression tree.  This is the same
technique used by Polars, PySpark and SQLAlchemy expressions.

The price of tracing is the usual one:

* use ``&`` / ``|`` / ``~`` instead of ``and`` / ``or`` / ``not``
  (Python routes the latter through ``__bool__``, which cannot be traced);
* use :func:`if_then_else` instead of a conditional expression;
* only whitelisted methods may be called on traced values.

Violations raise :class:`~repro.errors.TraceError` at query-definition time,
never silently misbehave at execution time.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from ..analysis.effects import analyze_callable
from ..errors import TraceError
from .nodes import (
    AGGREGATE_KINDS,
    AggCall,
    Binary,
    Conditional,
    Constant,
    Expr,
    Lambda,
    Member,
    Method,
    New,
    Param,
    Unary,
    Var,
)

__all__ = [
    "ExprProxy",
    "P",
    "arg",
    "new",
    "if_then_else",
    "unwrap",
    "trace_lambda",
    "SCALAR_METHODS",
]

#: Methods callable on traced scalar values.  All are pure; string methods
#: mirror what the paper's queries need (LIKE-style predicates in Q2).
SCALAR_METHODS = frozenset(
    {
        "startswith",
        "endswith",
        "contains",
        "lower",
        "upper",
        "strip",
        "round",
    }
)

#: Attributes that are reserved on proxies (not turned into Member nodes).
_PROXY_INTERNAL = frozenset({"_node", "_is_group"})


class ExprProxy:
    """A value stand-in that records operations as expression nodes.

    Instances are created by :func:`trace_lambda` for lambda arguments and
    flow through the user's lambda body.  Every supported operation returns
    a new proxy wrapping the corresponding node.
    """

    __slots__ = ("_node", "_is_group")

    #: proxies must never be used as dict keys / set members
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, node: Expr, is_group: bool = False):
        object.__setattr__(self, "_node", node)
        object.__setattr__(self, "_is_group", is_group)

    # -- structure ---------------------------------------------------------

    def __getattr__(self, name: str) -> "ExprProxy":
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        if name in _PROXY_INTERNAL:
            raise AttributeError(name)
        return ExprProxy(Member(self._node, name))

    def __setattr__(self, name: str, value: Any) -> None:
        raise TraceError("traced values are immutable; build results with new(...)")

    def __call__(self, *args: Any, **kwargs: Any) -> "ExprProxy":
        node = self._node
        if not isinstance(node, Member):
            raise TraceError(f"cannot call a non-method traced value: {node!r}")
        target, name = node.target, node.name
        if name in AGGREGATE_KINDS:
            return self._trace_aggregate(target, name, args, kwargs)
        if name not in SCALAR_METHODS:
            raise TraceError(
                f"method {name!r} is not supported in traced lambdas; "
                f"supported methods: {sorted(SCALAR_METHODS)} "
                f"and group aggregates {sorted(AGGREGATE_KINDS)}"
            )
        if kwargs:
            raise TraceError(
                f"keyword arguments are not supported in traced call to {name!r}"
            )
        return ExprProxy(Method(target, name, tuple(unwrap(a) for a in args)))

    @staticmethod
    def _trace_aggregate(
        group: Expr, kind: str, args: tuple, kwargs: dict
    ) -> "ExprProxy":
        if kwargs:
            raise TraceError(f"aggregate {kind!r} takes no keyword arguments")
        if kind == "count":
            if args:
                raise TraceError("count() takes no arguments; filter before grouping")
            return ExprProxy(AggCall("count", None, group=group))
        if len(args) != 1 or not callable(args[0]):
            raise TraceError(f"aggregate {kind!r} requires exactly one selector lambda")
        selector = trace_lambda(args[0])
        return ExprProxy(AggCall(kind, selector, group=group))

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: Any) -> "ExprProxy":  # type: ignore[override]
        return ExprProxy(Binary("eq", self._node, unwrap(other)))

    def __ne__(self, other: Any) -> "ExprProxy":  # type: ignore[override]
        return ExprProxy(Binary("ne", self._node, unwrap(other)))

    def __lt__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("lt", self._node, unwrap(other)))

    def __le__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("le", self._node, unwrap(other)))

    def __gt__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("gt", self._node, unwrap(other)))

    def __ge__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("ge", self._node, unwrap(other)))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("add", self._node, unwrap(other)))

    def __radd__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("add", unwrap(other), self._node))

    def __sub__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("sub", self._node, unwrap(other)))

    def __rsub__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("sub", unwrap(other), self._node))

    def __mul__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("mul", self._node, unwrap(other)))

    def __rmul__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("mul", unwrap(other), self._node))

    def __truediv__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("truediv", self._node, unwrap(other)))

    def __rtruediv__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("truediv", unwrap(other), self._node))

    def __floordiv__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("floordiv", self._node, unwrap(other)))

    def __rfloordiv__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("floordiv", unwrap(other), self._node))

    def __mod__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("mod", self._node, unwrap(other)))

    def __rmod__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("mod", unwrap(other), self._node))

    def __pow__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("pow", self._node, unwrap(other)))

    def __neg__(self) -> "ExprProxy":
        return ExprProxy(Unary("neg", self._node))

    def __pos__(self) -> "ExprProxy":
        return ExprProxy(Unary("pos", self._node))

    def __abs__(self) -> "ExprProxy":
        return ExprProxy(Unary("abs", self._node))

    # -- boolean combinators -----------------------------------------------

    def __and__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("and", self._node, unwrap(other)))

    def __rand__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("and", unwrap(other), self._node))

    def __or__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("or", self._node, unwrap(other)))

    def __ror__(self, other: Any) -> "ExprProxy":
        return ExprProxy(Binary("or", unwrap(other), self._node))

    def __invert__(self) -> "ExprProxy":
        return ExprProxy(Unary("not", self._node))

    # -- guard rails ---------------------------------------------------------

    def __bool__(self) -> bool:
        raise TraceError(
            "a traced expression has no truth value; use '&' / '|' / '~' "
            "instead of 'and' / 'or' / 'not', and if_then_else(...) instead "
            "of conditional expressions"
        )

    def __iter__(self):
        raise TraceError("traced values cannot be iterated inside a query lambda")

    def __repr__(self) -> str:
        return f"ExprProxy({self._node!r})"


def unwrap(value: Any) -> Expr:
    """Convert *value* into an expression node.

    Proxies yield their node; raw Python values become :class:`Constant`.
    """
    if isinstance(value, ExprProxy):
        return value._node
    if isinstance(value, Expr):
        return value
    return Constant(value)


def P(name: str) -> ExprProxy:
    """A named query parameter, bound at execution time.

    Queries written with explicit parameters share one cache entry across
    all bindings — the paper's main amortization of compilation cost.
    """
    return ExprProxy(Param(name))


def arg(name: str) -> ExprProxy:
    """A free variable for building lambdas without tracing."""
    return ExprProxy(Var(name))


def new(**fields: Any) -> ExprProxy:
    """Construct a result record, e.g. ``new(id=g.key, total=g.sum(...))``."""
    return ExprProxy(New(tuple((k, unwrap(v)) for k, v in fields.items())))


def if_then_else(cond: Any, then: Any, other: Any) -> ExprProxy:
    """Traceable conditional: ``then if cond else other``."""
    return ExprProxy(Conditional(unwrap(cond), unwrap(then), unwrap(other)))


def _param_names(fn: Callable, arity: int) -> Tuple[str, ...]:
    code = getattr(fn, "__code__", None)
    if code is not None and code.co_argcount == arity:
        return code.co_varnames[:arity]
    return tuple(f"x{i}" for i in range(arity))


def trace_lambda(
    fn: Callable,
    arity: int | None = None,
    group_params: Tuple[int, ...] = (),
) -> Lambda:
    """Capture *fn* as a :class:`Lambda` node by tracing.

    ``arity`` defaults to the function's own argument count.  Positions in
    ``group_params`` receive group proxies, whose ``key`` member and
    aggregate methods are meaningful.
    """
    if isinstance(fn, Lambda):
        return fn
    if not callable(fn):
        raise TraceError(f"expected a callable, got {type(fn).__name__}")
    if arity is None:
        code = getattr(fn, "__code__", None)
        arity = code.co_argcount if code is not None else 1
    names = _param_names(fn, arity)
    proxies = [
        ExprProxy(Var(name), is_group=(i in group_params))
        for i, name in enumerate(names)
    ]
    try:
        result = fn(*proxies)
    except TraceError:
        raise
    except Exception as exc:
        raise TraceError(
            f"failed to trace lambda {getattr(fn, '__name__', fn)!r}: {exc}"
        ) from exc
    return Lambda(names, unwrap(result), analyze_callable(fn))
