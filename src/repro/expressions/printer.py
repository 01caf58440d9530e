"""Emit Python source fragments for scalar expressions.

The code-generating engines walk a logical plan and ask a printer for the
source text of each inlined predicate / selector — the step the paper calls
``CodeTreeTranslator`` (§4.2).  The base printer emits per-element Python;
the native backend subclasses it to emit vectorized NumPy (see
:mod:`repro.codegen.native_backend`).

Output is always fully parenthesized: generated code favours obvious
correctness over prettiness, and the paper's generated C follows the same
convention.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

from ..errors import UnsupportedExpressionError
from .evaluator import guarded_floordiv, guarded_mod, guarded_truediv
from .nodes import (
    AggCall,
    Binary,
    Call,
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

__all__ = ["ScalarPrinter", "expression_to_text"]

_BINARY_TOKENS = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "truediv": "/",
    "floordiv": "//",
    "mod": "%",
    "pow": "**",
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "and": "and",
    "or": "or",
}

_UNARY_TOKENS = {"neg": "-", "pos": "+", "not": "not "}

#: namespace name of ``tuple.__new__``: a record is built as
#: ``_tuple_new(RT, (a, b))`` — what the named tuple's own Python-level
#: ``__new__`` does, minus that frame
_TUPLE_NEW = "_tuple_new"

#: division operators → the namespace helper that guards their divisor
_DIVISION_GUARDS = {
    "truediv": ("_guard_truediv", guarded_truediv),
    "floordiv": ("_guard_floordiv", guarded_floordiv),
    "mod": ("_guard_mod", guarded_mod),
}


class ScalarPrinter:
    """Renders a scalar expression tree as a Python source fragment.

    Parameters
    ----------
    var_map:
        Maps lambda variable names to the code identifiers that hold them in
        the generated function (e.g. ``{'s': 'elem_1'}``).
    param_render:
        Renders a :class:`Param` reference; defaults to indexing a local
        dict called ``_params``.
    namespace:
        Mutable mapping that accumulates runtime objects the fragment needs
        (record types, helper functions).  Passed as the globals of the
        generated module by the compiler.

    ``tuple_defs`` maps code variables known to hold a tuple to its field
    names (raco's ``saveTupleDef``): ``Member(v, f)`` on one renders as
    ``v[i]``.  A record is a named tuple, so this holds for records and
    for the plain tuples a module keeps to itself alike.
    """

    #: emit divisions through ``_guard_*`` helpers that raise a typed
    #: ExecutionError on zero divisors.  Backends flip this to False per
    #: generated module when the dataflow pass proved every divisor in
    #: the query nonzero (proof-driven guard elision).
    guard_divisions = True

    def __init__(
        self,
        var_map: Mapping[str, str] | None = None,
        param_render: Callable[[str], str] | None = None,
        namespace: Dict[str, Any] | None = None,
    ):
        self.var_map = dict(var_map or {})
        self._param_render = param_render or (lambda name: f"_params[{name!r}]")
        self.namespace = namespace if namespace is not None else {}
        self.tuple_defs: Dict[str, Tuple[str, ...]] = {}
        self._bound_counter = 0

    # -- namespace management ------------------------------------------------

    def bind(self, obj: Any, hint: str = "obj") -> str:
        """Store *obj* in the generated module's namespace, return its name."""
        for name, existing in self.namespace.items():
            if existing is obj:
                return name
        # several printers may share one namespace: never reuse a name
        while True:
            name = f"_rt_{hint}_{self._bound_counter}"
            self._bound_counter += 1
            if name not in self.namespace:
                break
        self.namespace[name] = obj
        return name

    # -- dispatch --------------------------------------------------------------

    def emit(self, expr: Expr) -> str:
        if isinstance(expr, Constant):
            return self.emit_constant(expr)
        if isinstance(expr, Param):
            return self._param_render(expr.name)
        if isinstance(expr, Var):
            return self.emit_var(expr)
        if isinstance(expr, Member):
            return self.emit_member(expr)
        if isinstance(expr, Binary):
            return self.emit_binary(expr)
        if isinstance(expr, Unary):
            return self.emit_unary(expr)
        if isinstance(expr, Call):
            return self.emit_call(expr)
        if isinstance(expr, Method):
            return self.emit_method(expr)
        if isinstance(expr, Conditional):
            return self.emit_conditional(expr)
        if isinstance(expr, New):
            return self.emit_new(expr)
        if isinstance(expr, AggCall):
            raise UnsupportedExpressionError(
                "aggregate calls must be rewritten by the translator before printing"
            )
        if isinstance(expr, Lambda):
            raise UnsupportedExpressionError(
                "lambdas must be inlined (substitute their variables) before printing"
            )
        raise UnsupportedExpressionError(f"cannot print node: {type(expr).__name__}")

    # -- node renderers (overridable) -------------------------------------------

    def emit_constant(self, expr: Constant) -> str:
        value = expr.value
        if isinstance(value, (int, float, bool, str, bytes, type(None))):
            return repr(value)
        return self.bind(value, hint="const")

    def emit_var(self, expr: Var) -> str:
        try:
            return self.var_map[expr.name]
        except KeyError:
            raise UnsupportedExpressionError(
                f"variable {expr.name!r} has no code binding; known: "
                f"{sorted(self.var_map)}"
            ) from None

    def emit_member(self, expr: Member) -> str:
        target = self.emit(expr.target)
        fields = self.tuple_defs.get(target, ())
        if expr.name in fields:
            return f"{target}[{fields.index(expr.name)}]"
        return f"{target}.{expr.name}"

    def emit_binary(self, expr: Binary) -> str:
        if self.guard_divisions and expr.op in _DIVISION_GUARDS:
            name, impl = _DIVISION_GUARDS[expr.op]
            self.namespace.setdefault(name, impl)
            return f"{name}({self.emit(expr.left)}, {self.emit(expr.right)})"
        token = _BINARY_TOKENS[expr.op]
        return f"({self.emit(expr.left)} {token} {self.emit(expr.right)})"

    def emit_unary(self, expr: Unary) -> str:
        if expr.op == "abs":
            return f"abs({self.emit(expr.operand)})"
        return f"({_UNARY_TOKENS[expr.op]}{self.emit(expr.operand)})"

    def emit_call(self, expr: Call) -> str:
        args = ", ".join(self.emit(a) for a in expr.args)
        return f"{expr.name}({args})"

    def emit_method(self, expr: Method) -> str:
        target = self.emit(expr.target)
        args = ", ".join(self.emit(a) for a in expr.args)
        if expr.name == "contains":
            return f"({args} in {target})"
        return f"{target}.{expr.name}({args})"

    def emit_conditional(self, expr: Conditional) -> str:
        return (
            f"({self.emit(expr.then)} if {self.emit(expr.cond)} "
            f"else {self.emit(expr.other)})"
        )

    def emit_new(self, expr: New) -> str:
        return self.emit_record(expr, self.emit_tuple(expr))

    def emit_tuple(self, expr: New) -> str:
        """The record's field values as a plain tuple display."""
        args = [self.emit(e) for _, e in expr.fields]
        if len(args) == 1:
            return f"({args[0]},)"
        return f"({', '.join(args)})"

    def emit_record(self, expr: New, values: str) -> str:
        """Build *expr*'s record type from the tuple code *values*."""
        from .evaluator import make_record_type

        record_type = make_record_type(expr.field_names, expr.type_name)
        rowtype = self.bind(record_type, hint="rowtype")
        self.namespace.setdefault(_TUPLE_NEW, tuple.__new__)
        return f"{_TUPLE_NEW}({rowtype}, {values})"


def expression_to_text(expr: Expr, indent: int = 0) -> str:
    """Render an expression tree one node per line (the paper's Figure 1).

    Debugging/EXPLAIN aid: shows the exact AST the query provider consumes,
    with node kinds and their distinguishing attribute.
    """
    from .nodes import (
        AggCall,
        QueryOp,
        SourceExpr,
        children,
    )

    pad = "  " * indent
    label = type(expr).__name__
    detail = ""
    if isinstance(expr, Constant):
        detail = f" {expr.value!r}"
    elif isinstance(expr, Param):
        detail = f" ${expr.name}"
    elif isinstance(expr, Var):
        detail = f" {expr.name}"
    elif isinstance(expr, Member):
        detail = f" .{expr.name}"
    elif isinstance(expr, (Binary, Unary)):
        detail = f" {expr.op!r}"
    elif isinstance(expr, (Call, Method)):
        detail = f" {expr.name!r}"
    elif isinstance(expr, Lambda):
        detail = f" ({', '.join(expr.params)})"
    elif isinstance(expr, New):
        detail = f" ({', '.join(expr.field_names)})"
    elif isinstance(expr, AggCall):
        detail = f" {expr.kind!r}"
    elif isinstance(expr, QueryOp):
        detail = f" {expr.name!r}"
    elif isinstance(expr, SourceExpr):
        detail = f" source_{expr.ordinal}: {expr.schema_token.split('(')[0]}"
    lines = [f"{pad}{label}{detail}"]
    for child in children(expr):
        lines.append(expression_to_text(child, indent + 1))
    return "\n".join(lines)
