"""Canonical query form: constant evaluation and auto-parameterization.

The paper's query provider (Figure 3) first runs a ``ConstantEvaluator``
that collapses data-independent subtrees, then consults the query cache.
Two queries that differ only in embedded constant values (e.g. a selection
threshold driven by a GUI) must share one compiled artifact, so after
folding we *lift* every remaining constant into a named parameter.  The
parameterized tree is the cache key; the lifted values are bound at
execution time.

:func:`canonicalize` does all three — fold, lift, key — in one bottom-up
walk, and memoises the result on the tree it was given: a tree is
immutable, so its canonical form is too.  The one exception is a tree
holding a constant that can change after the query was built (a list a
caller keeps appending to); such a tree is canonicalized afresh on every
call.  :func:`fold_constants` and :func:`parameterize` are the two-pass
reference the walk is tested against.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from .evaluator import interpret
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
    QueryOp,
    SourceExpr,
    Unary,
    Var,
)
from .analysis import is_constant
from .visitor import Transformer

__all__ = [
    "CanonicalQuery",
    "fold_constants",
    "parameterize",
    "canonicalize",
    "cache_key",
]

#: prefix for auto-generated parameter names; user parameters never collide
#: because ``P('__cN')`` is reserved.
_AUTO_PREFIX = "__c"

#: constant types whose value cannot change once a tree holds it
_SCALAR_TYPES = frozenset(
    {bool, bytes, float, int, str, type(None), datetime.date, datetime.datetime}
)


@dataclass(frozen=True)
class CanonicalQuery:
    """A query reduced to its canonical, cache-keyable form."""

    tree: Expr
    #: values for auto-lifted parameters, keyed by generated name; shared
    #: by every execution of a memoised tree, so read, never written
    bindings: Dict[str, Any]
    #: ``structural_key(tree)``, computed during the walk
    key: Any


#: one walk step's result: (rebuilt node, data-independent?, structural key)
_Visited = Tuple[Expr, bool, Any]


class _Canonicalizer:
    """Folds, lifts and keys a tree in one bottom-up walk.

    Each constant is lifted to ``__cN`` the moment the walk reaches it, so
    ``N`` follows traversal order.  A data-independent node that folds
    drops the parameters its subtree lifted — always the newest ones — and
    lifts its value in their place, which is exactly the numbering that
    folding first and lifting afterwards produces.
    """

    __slots__ = ("bindings", "memoisable")

    def __init__(self) -> None:
        self.bindings: Dict[str, Any] = {}
        #: False once a constant that could change after building is seen
        self.memoisable = True

    def visit(self, expr: Expr) -> _Visited:
        visitor = _VISITORS.get(type(expr))
        if visitor is None:
            raise TypeError(f"not an expression node: {expr!r}")
        return visitor(self, expr)

    def lift(self, value: Any) -> _Visited:
        if type(value) not in _SCALAR_TYPES:
            self.memoisable = False
        name = f"{_AUTO_PREFIX}{len(self.bindings)}"
        self.bindings[name] = value
        return Param(name), True, ("param", name)

    def fold(self, start: int, node: Expr, key: Any) -> _Visited:
        """Collapse the data-independent *node*, whose subtree lifted
        every parameter numbered from *start* on."""
        bindings = self.bindings
        try:
            value = interpret(node, params=bindings)
        except Exception:
            # leave unfoldable expressions intact; they will be evaluated
            # (and fail, if they must) at execution time
            return node, True, key
        while len(bindings) > start:
            bindings.popitem()
        return self.lift(value)

    def visit_all(self, exprs: Tuple[Expr, ...]) -> Tuple[tuple, bool, tuple, bool]:
        """(rebuilt exprs, all data-independent?, their keys, unchanged?)"""
        nodes, keys, constant = [], [], True
        for expr in exprs:
            node, node_constant, key = self.visit(expr)
            nodes.append(node)
            keys.append(key)
            constant = constant and node_constant
        unchanged = all(a is b for a, b in zip(nodes, exprs))
        return tuple(nodes), constant, tuple(keys), unchanged


def _visit_constant(walker: _Canonicalizer, expr: Constant) -> _Visited:
    return walker.lift(expr.value)


def _visit_param(walker: _Canonicalizer, expr: Param) -> _Visited:
    return expr, False, ("param", expr.name)


def _visit_var(walker: _Canonicalizer, expr: Var) -> _Visited:
    return expr, False, ("var", expr.name)


def _visit_source(walker: _Canonicalizer, expr: SourceExpr) -> _Visited:
    return expr, True, ("source", expr.ordinal, expr.schema_token)


def _visit_member(walker: _Canonicalizer, expr: Member) -> _Visited:
    start = len(walker.bindings)
    target, constant, target_key = walker.visit(expr.target)
    if target is not expr.target:
        expr = Member(target, expr.name)
    key = ("member", expr.name, target_key)
    if constant:
        return walker.fold(start, expr, key)
    return expr, False, key


def _visit_binary(walker: _Canonicalizer, expr: Binary) -> _Visited:
    start = len(walker.bindings)
    left, left_constant, left_key = walker.visit(expr.left)
    right, right_constant, right_key = walker.visit(expr.right)
    if left is not expr.left or right is not expr.right:
        expr = Binary(expr.op, left, right)
    key = ("binary", expr.op, left_key, right_key)
    if left_constant and right_constant:
        return walker.fold(start, expr, key)
    return expr, False, key


def _visit_unary(walker: _Canonicalizer, expr: Unary) -> _Visited:
    start = len(walker.bindings)
    operand, constant, operand_key = walker.visit(expr.operand)
    if operand is not expr.operand:
        expr = Unary(expr.op, operand)
    key = ("unary", expr.op, operand_key)
    if constant:
        return walker.fold(start, expr, key)
    return expr, False, key


def _visit_call(walker: _Canonicalizer, expr: Call) -> _Visited:
    start = len(walker.bindings)
    args, constant, arg_keys, unchanged = walker.visit_all(expr.args)
    if not unchanged:
        expr = Call(expr.name, args)
    key = ("call", expr.name, arg_keys)
    if constant:
        return walker.fold(start, expr, key)
    return expr, False, key


def _visit_method(walker: _Canonicalizer, expr: Method) -> _Visited:
    start = len(walker.bindings)
    target, target_constant, target_key = walker.visit(expr.target)
    args, args_constant, arg_keys, unchanged = walker.visit_all(expr.args)
    if target is not expr.target or not unchanged:
        expr = Method(target, expr.name, args)
    key = ("method", expr.name, target_key, arg_keys)
    if target_constant and args_constant:
        return walker.fold(start, expr, key)
    return expr, False, key


def _visit_conditional(walker: _Canonicalizer, expr: Conditional) -> _Visited:
    start = len(walker.bindings)
    (cond, then, other), constant, keys, unchanged = walker.visit_all(
        (expr.cond, expr.then, expr.other)
    )
    if not unchanged:
        expr = Conditional(cond, then, other)
    key = ("cond",) + keys
    if constant:
        return walker.fold(start, expr, key)
    return expr, False, key


def _visit_new(walker: _Canonicalizer, expr: New) -> _Visited:
    names = expr.field_names
    values, constant, keys, unchanged = walker.visit_all(
        tuple(e for _, e in expr.fields)
    )
    if not unchanged:
        expr = New(tuple(zip(names, values)), expr.type_name)
    return expr, constant, ("new", expr.type_name, tuple(zip(names, keys)))


def _visit_lambda(walker: _Canonicalizer, expr: Lambda) -> _Visited:
    body, _, body_key = walker.visit(expr.body)
    if body is not expr.body:
        expr = Lambda(expr.params, body, expr.effects)
    return expr, False, ("lambda", expr.params, body_key)


def _visit_aggregate(walker: _Canonicalizer, expr: AggCall) -> _Visited:
    arg, arg_key = None, None
    if expr.arg is not None:
        arg, _, arg_key = walker.visit(expr.arg)
    # the group is rewritten like any subtree but, as in structural_key,
    # is not part of the key
    group, _, _ = walker.visit(expr.group)
    if arg is not expr.arg or group is not expr.group:
        expr = AggCall(expr.kind, arg, group=group)
    return expr, False, ("agg", expr.kind, arg_key)


def _visit_query_op(walker: _Canonicalizer, expr: QueryOp) -> _Visited:
    # operator arguments that are raw constants (e.g. take counts) are
    # parameterized too: `take(10)` and `take(20)` share code
    source, source_constant, source_key = walker.visit(expr.source)
    args, args_constant, arg_keys, unchanged = walker.visit_all(expr.args)
    if source is not expr.source or not unchanged:
        expr = QueryOp(expr.name, source, args)
    key = ("op", expr.name, source_key, arg_keys)
    return expr, source_constant and args_constant, key


_VISITORS: Dict[type, Callable[[_Canonicalizer, Any], _Visited]] = {
    Constant: _visit_constant,
    Param: _visit_param,
    Var: _visit_var,
    SourceExpr: _visit_source,
    Member: _visit_member,
    Binary: _visit_binary,
    Unary: _visit_unary,
    Call: _visit_call,
    Method: _visit_method,
    Conditional: _visit_conditional,
    New: _visit_new,
    Lambda: _visit_lambda,
    AggCall: _visit_aggregate,
    QueryOp: _visit_query_op,
}


def canonicalize(expr: Expr) -> CanonicalQuery:
    """Fold constants, lift the survivors into parameters and key the
    result — once per tree unless a constant in it could still change."""
    canonical = expr._canonical
    if canonical is not None:
        return canonical
    walker = _Canonicalizer()
    tree, _, key = walker.visit(expr)
    canonical = CanonicalQuery(tree, walker.bindings, key)
    if walker.memoisable:
        # nodes are frozen; the memo is not a field, so this write
        # changes no node's value
        object.__setattr__(expr, "_canonical", canonical)
    return canonical


def cache_key(canonical: CanonicalQuery, engine: str, options: Tuple = ()) -> Any:
    """Cache key: engine identity + options + canonical tree structure."""
    return (engine, options, canonical.key)


# -- the two-pass reference ---------------------------------------------------------


class _ConstantFolder(Transformer):
    """Bottom-up partial evaluation of data-independent subtrees."""

    _FOLDABLE = (Binary, Unary, Call, Method, Conditional, Member)

    def visit(self, expr: Expr) -> Expr:
        rebuilt = self.generic_visit(expr)
        if isinstance(rebuilt, self._FOLDABLE) and is_constant(rebuilt):
            try:
                return Constant(interpret(rebuilt))
            except Exception:
                return rebuilt
        return rebuilt


def fold_constants(expr: Expr) -> Expr:
    """Evaluate and collapse every data-independent subtree of *expr*."""
    return _ConstantFolder().visit(expr)


class _Parameterizer(Transformer):
    """Replaces constants with auto-named parameters, collecting values.

    Traversal order is deterministic (the transformer visits children in
    node-definition order), so structurally identical queries always produce
    the same parameter names — a requirement for cache hits.
    """

    def __init__(self) -> None:
        self.bindings: Dict[str, Any] = {}

    def visit_Constant(self, expr: Constant) -> Expr:
        name = f"{_AUTO_PREFIX}{len(self.bindings)}"
        self.bindings[name] = expr.value
        return Param(name)


def parameterize(expr: Expr) -> Tuple[Expr, Dict[str, Any]]:
    """Lift all constants in *expr* to parameters.

    Returns the rewritten tree and the name → value bindings.
    """
    rewriter = _Parameterizer()
    tree = rewriter.visit(expr)
    return tree, rewriter.bindings
