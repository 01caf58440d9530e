"""AST verifier for generated query modules.

Every backend emits a Python module as a string and ``exec``s it.  The C#
original got a safety net for free — the host compiler type-checks the
generated source (§4.2).  ``exec`` checks nothing, so a printer bug
surfaces as a ``NameError`` deep inside query execution.  This module is
the replacement net: before a generated module is executed, its AST is
checked for

* **module shape** — a docstring plus exactly one top-level
  ``def execute(sources, _params)`` with two positional parameters;
* **no unbound names** — every ``Name`` load resolves to a function
  parameter, a local binding, a namespace binding supplied by the
  printer, or a whitelisted builtin;
* **hygiene** — no local binding shadows a namespace binding (printers
  emit counter-suffixed locals precisely so this cannot happen);
* **no escape hatches** — no ``import``/``global``/``nonlocal`` and no
  calls to ``eval``/``exec``/``compile``/``__import__``/``open`` & co.
  Generated code must be a closed straight-line program over the
  namespace the printer bound.

:func:`verify_source` returns a :class:`VerifierReport`;
:func:`check_generated` raises
:class:`~repro.errors.GeneratedCodeViolation` on any finding.  The gate
is wired into :func:`repro.codegen.compiler.compile_source` and is on by
default (set ``REPRO_VERIFY_GENERATED=0`` to skip it in benchmarks).

The same net covers the layer *above* the printers: :func:`verify_ir`
checks the pipeline IR every backend lowers from (every breaker
materializes exactly once and is consumed downstream exactly once, the
schedule is topologically ordered, and no pipeline reads a source field
outside its required-field annotation).

``python -m repro.codegen.verifier --selftest`` generates TPC-H Q1–Q3 on
every codegen engine, verifies each emitted module, and exercises the IR
invariants (including deliberately corrupted IRs that must be caught).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import GeneratedCodeViolation
from ..plans.logical import (
    Filter,
    FlatMap,
    GroupAggregate,
    GroupBy,
    Join,
    Limit,
    Project,
    ScalarAggregate,
    SetOp,
    Sort,
    TopN,
)
from .ir import PipelineBreaker, lambda_fields, merge_fields

__all__ = [
    "VerifierReport",
    "verify_source",
    "verify_ir",
    "verify_facts",
    "check_generated",
    "check_ir",
    "check_facts",
    "verification_enabled",
    "SAFE_BUILTINS",
]

#: builtins generated code may legitimately reference
SAFE_BUILTINS = frozenset(
    {
        "abs", "bool", "bytes", "dict", "divmod", "enumerate", "float",
        "frozenset", "getattr", "hasattr", "int", "isinstance", "iter",
        "len", "list", "max", "min", "next", "range", "repr", "reversed",
        "round", "set", "sorted", "str", "sum", "tuple", "zip",
        # exception types generated guards may raise or catch
        "StopIteration", "ValueError", "TypeError", "KeyError",
        "IndexError", "ZeroDivisionError",
    }
)

#: names whose *call* (or mere load) is an escape hatch out of the sandbox
_FORBIDDEN_NAMES = frozenset(
    {
        "eval", "exec", "compile", "__import__", "open", "input",
        "globals", "locals", "vars", "breakpoint", "exit", "quit",
    }
)

_ENV_FLAG = "REPRO_VERIFY_GENERATED"


def verification_enabled() -> bool:
    """The default for the compile-time gate (env-overridable)."""
    return os.environ.get(_ENV_FLAG, "1") not in ("0", "false", "no")


@dataclass
class VerifierReport:
    """Result of verifying one generated module."""

    violations: Tuple[str, ...] = ()
    entry_point: str = "execute"
    source: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "generated module passed verification"
        lines = [f"generated module failed verification "
                 f"({len(self.violations)} violation(s)):"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def verify_source(
    source: str,
    namespace: Optional[Dict[str, Any]] = None,
    entry_point: str = "execute",
) -> VerifierReport:
    """Verify a generated module; never raises, returns the report."""
    violations: List[str] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return VerifierReport(
            (f"generated source does not parse: {exc}",), entry_point, source
        )
    _check_module_shape(tree, entry_point, violations)
    _check_forbidden_nodes(tree, violations)
    namespace_names = set(namespace or ())
    _ScopeChecker(namespace_names, entry_point, violations).check_module(tree)
    return VerifierReport(tuple(violations), entry_point, source)


def check_generated(
    source: str,
    namespace: Optional[Dict[str, Any]] = None,
    entry_point: str = "execute",
) -> VerifierReport:
    """Verify and raise :class:`GeneratedCodeViolation` on any finding."""
    report = verify_source(source, namespace, entry_point)
    if not report.ok:
        raise GeneratedCodeViolation(
            f"{report.describe()}\n--- generated source ---\n{source}",
            violations=report.violations,
            source=source,
        )
    return report


# ---------------------------------------------------------------------------
# Pipeline IR invariants
# ---------------------------------------------------------------------------


def _pipeline_reads(pipeline: Any, cse: Any) -> Optional[Set[str]]:
    """Fields *pipeline* reads from its driver scan's elements.

    ``None`` means the whole element is used.  Collection stops at the
    first element-transforming operator (Project/FlatMap/Join probe) —
    beyond it the stream no longer carries driver elements — so this is
    a sound under-approximation of the pipeline's true driver demand.
    """
    reads: Optional[Set[str]] = set()

    def add(lam: Any, param_index: int = 0) -> None:
        nonlocal reads
        if lam is None:
            return
        reads = merge_fields(reads, lambda_fields(lam, param_index, cse))

    for op in pipeline.operators:
        if isinstance(op, Filter):
            add(op.predicate)
            continue
        if isinstance(op, Limit):
            continue
        if isinstance(op, Project):
            add(op.selector)
            return reads
        if isinstance(op, Join):  # probe: driver elements are the left side
            add(op.left_key)
            if op.kind in ("semi", "anti"):
                continue  # existence probes keep streaming driver elements
            add(op.result, 0)
            return reads
        if isinstance(op, SetOp):
            continue  # bag probe passes driver elements through verbatim
        if isinstance(op, FlatMap):
            add(op.collection)
            return reads
        return reads  # unknown operator: stop collecting
    sink = pipeline.sink
    if sink is None:
        return reads
    node = sink.node
    if isinstance(node, Join):  # build: driver elements are the right side
        add(node.right_key)
        if node.result is not None:
            add(node.result, 1)
    elif isinstance(node, SetOp):
        reads = None  # the multiset build keys on whole elements
    elif isinstance(node, GroupAggregate):
        add(node.key)
        for spec in node.aggregates:
            add(spec.selector)
    elif isinstance(node, ScalarAggregate):
        for spec in node.aggregates:
            add(spec.selector)
    elif isinstance(node, (Sort, TopN)):
        for key in node.keys:
            add(key)
    elif isinstance(node, GroupBy):
        reads = None  # group-materialize keeps whole elements
    return reads


def verify_ir(ir: Any) -> VerifierReport:
    """Check the structural invariants of a lowered :class:`QueryIR`.

    * every breaker is materialized exactly once: it is the sink of the
      pipelines its ``producers`` list names (at least one), and its
      materialized output is read by exactly one downstream pipeline;
    * the schedule is topological — every producer runs before the
      consumer that re-reads the materialization;
    * field closure — no scan-driven pipeline reads a field of its
      driver's elements outside its ``required_fields`` annotation.
    """
    violations: List[str] = []
    pids = {p.pid for p in ir.pipelines}

    sink_of: Dict[int, List[int]] = {}
    for pipeline in ir.pipelines:
        if pipeline.sink is not None:
            sink_of.setdefault(pipeline.sink.bid, []).append(pipeline.pid)

    driver_consumers: Dict[int, List[int]] = {}
    for pipeline in ir.pipelines:
        if isinstance(pipeline.driver, PipelineBreaker):
            driver_consumers.setdefault(
                pipeline.driver.bid, []
            ).append(pipeline.pid)

    for breaker in ir.breakers:
        producers = sorted(sink_of.get(breaker.bid, []))
        if not producers:
            violations.append(
                f"breaker {breaker.label()} is never materialized: no "
                f"pipeline has it as sink"
            )
        if producers != sorted(breaker.producers):
            violations.append(
                f"breaker {breaker.label()} claims producers "
                f"{sorted(breaker.producers)} but is the sink of "
                f"{producers}"
            )
        read_by = driver_consumers.get(breaker.bid, [])
        if len(read_by) > 1:
            violations.append(
                f"breaker {breaker.label()} drives multiple pipelines "
                f"{read_by}; a materialization is consumed exactly once"
            )
        if breaker.consumer is None:
            if not (ir.scalar and breaker.node is ir.plan):
                violations.append(
                    f"breaker {breaker.label()} has no consumer pipeline "
                    f"(only the root breaker of a scalar query may)"
                )
        elif breaker.consumer not in pids:
            violations.append(
                f"breaker {breaker.label()} names unknown consumer "
                f"p{breaker.consumer}"
            )
        else:
            late = [pid for pid in producers if pid >= breaker.consumer]
            if late:
                violations.append(
                    f"breaker {breaker.label()} is consumed by "
                    f"p{breaker.consumer} before producer(s) "
                    f"{late} have run (schedule is not topological)"
                )

    for pipeline in ir.pipelines:
        if pipeline.driver_ordinal is None:
            continue
        if pipeline.required_fields is None:
            continue  # whole elements: everything is in the required set
        reads = _pipeline_reads(pipeline, ir.cse)
        if reads is None:
            violations.append(
                f"pipeline p{pipeline.pid} uses whole elements of "
                f"source_{pipeline.driver_ordinal} but its required-field "
                f"set is {sorted(pipeline.required_fields)}"
            )
        else:
            extra = reads - pipeline.required_fields
            if extra:
                violations.append(
                    f"pipeline p{pipeline.pid} reads fields "
                    f"{sorted(extra)} of source_{pipeline.driver_ordinal} "
                    f"outside its required set "
                    f"{sorted(pipeline.required_fields)}"
                )

    return VerifierReport(tuple(violations), entry_point="<ir>")


def check_ir(ir: Any) -> VerifierReport:
    """Verify and raise :class:`GeneratedCodeViolation` on any finding."""
    report = verify_ir(ir)
    if not report.ok:
        details = "\n".join(f"  - {v}" for v in report.violations)
        raise GeneratedCodeViolation(
            f"pipeline IR failed verification "
            f"({len(report.violations)} violation(s)):\n{details}",
            violations=report.violations,
            source="",
        )
    return report


# ---------------------------------------------------------------------------
# Dataflow-fact invariants
# ---------------------------------------------------------------------------

#: DataflowFacts fields compared during re-derivation (everything the
#: backends act on; ``notes`` rides along for exactness)
_FACT_FIELDS = (
    "effects",
    "division_sites",
    "divisions_proven",
    "avg_guards",
    "scalar_guards",
    "dead_pipelines",
    "proven_filters",
    "notes",
)


def verify_facts(
    ir: Any,
    param_values: Optional[Dict[str, Any]] = None,
    statistics: Any = None,
    facts: Any = None,
) -> VerifierReport:
    """Independently re-derive the dataflow facts attached to *ir*.

    Guard elision trusts the analysis pass completely: an optimistic
    fact removes a runtime check from generated code.  This gate fails
    closed — the facts must be present (on ``ir.facts`` or passed
    explicitly) and must match a fresh derivation over the same IR,
    bindings, and statistics field for field.
    """
    from ..analysis import analyze_ir

    violations: List[str] = []
    if facts is None:
        facts = getattr(ir, "facts", None)
    if facts is None:
        violations.append(
            "IR carries no dataflow facts; the provider must attach them "
            "before backends make elision decisions"
        )
        return VerifierReport(tuple(violations), entry_point="<facts>")
    rederived = analyze_ir(
        ir, param_values=param_values, statistics=statistics
    )
    for name in _FACT_FIELDS:
        attached = getattr(facts, name)
        fresh = getattr(rederived, name)
        if attached != fresh:
            violations.append(
                f"dataflow facts disagree on {name}: attached "
                f"{attached!r}, re-derived {fresh!r}"
            )
    return VerifierReport(tuple(violations), entry_point="<facts>")


def check_facts(
    ir: Any,
    param_values: Optional[Dict[str, Any]] = None,
    statistics: Any = None,
    facts: Any = None,
) -> VerifierReport:
    """Verify facts and raise :class:`GeneratedCodeViolation` on mismatch."""
    report = verify_facts(ir, param_values, statistics, facts)
    if not report.ok:
        details = "\n".join(f"  - {v}" for v in report.violations)
        raise GeneratedCodeViolation(
            f"dataflow facts failed verification "
            f"({len(report.violations)} violation(s)):\n{details}",
            violations=report.violations,
            source="",
        )
    return report


# ---------------------------------------------------------------------------
# Module shape
# ---------------------------------------------------------------------------


def _check_module_shape(
    tree: ast.Module, entry_point: str, violations: List[str]
) -> None:
    entries = []
    for i, stmt in enumerate(tree.body):
        if (
            i == 0
            and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            continue  # module docstring
        if isinstance(stmt, ast.FunctionDef):
            entries.append(stmt)
            continue
        violations.append(
            f"top-level statement {type(stmt).__name__} at line "
            f"{stmt.lineno}; generated modules may only contain a "
            f"docstring and function definitions"
        )
    named = [f for f in entries if f.name == entry_point]
    if not named:
        violations.append(
            f"generated module defines no {entry_point!r} entry point"
        )
        return
    entry = named[0]
    args = entry.args
    if (
        len(args.args) != 2
        or args.vararg is not None
        or args.kwarg is not None
        or args.kwonlyargs
        or args.posonlyargs
        or args.defaults
    ):
        got = [a.arg for a in args.posonlyargs + args.args]
        violations.append(
            f"entry point must take exactly (sources, params); got "
            f"parameters {got}"
        )
    if entry.decorator_list:
        violations.append("entry point must not be decorated")


# ---------------------------------------------------------------------------
# Forbidden constructs
# ---------------------------------------------------------------------------


def _check_forbidden_nodes(tree: ast.Module, violations: List[str]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            violations.append(
                f"import statement at line {node.lineno}; generated code "
                f"must receive every runtime object through its namespace"
            )
        elif isinstance(node, ast.Global):
            violations.append(
                f"'global' declaration at line {node.lineno} breaks "
                f"hygiene of generated locals"
            )
        elif isinstance(node, ast.Nonlocal):
            violations.append(
                f"'nonlocal' declaration at line {node.lineno} breaks "
                f"hygiene of generated locals"
            )
        elif isinstance(node, ast.Name) and node.id in _FORBIDDEN_NAMES:
            violations.append(
                f"reference to forbidden builtin {node.id!r} at line "
                f"{node.lineno}"
            )


# ---------------------------------------------------------------------------
# Scope analysis: unbound names and namespace shadowing
# ---------------------------------------------------------------------------


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.bound: Set[str] = set()

    def resolves(self, name: str) -> bool:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.bound:
                return True
            scope = scope.parent
        return False


class _ScopeChecker:
    """Resolve every Name load against locals, namespace, or builtins.

    Python scoping is flat per function (a name assigned anywhere in a
    function is local throughout), so bindings are collected per function
    scope in a first pass, then loads are checked.  Comprehensions get
    their own scope for their targets, matching Python 3 semantics.
    """

    def __init__(
        self,
        namespace: Set[str],
        entry_point: str,
        violations: List[str],
    ):
        self.namespace = namespace
        self.entry_point = entry_point
        self.violations = violations

    def check_module(self, tree: ast.Module) -> None:
        module_scope = _Scope()
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                module_scope.bound.add(stmt.name)
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                self._check_function(stmt, module_scope)

    # -- binding collection ------------------------------------------------

    def _collect_bindings(
        self, body: Sequence[ast.stmt], scope: _Scope
    ) -> None:
        """Names bound anywhere in *body*, not descending into nested
        function/lambda/comprehension scopes."""
        for stmt in body:
            self._collect_stmt(stmt, scope)

    def _collect_stmt(self, stmt: ast.stmt, scope: _Scope) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._bind(stmt.name, scope, stmt.lineno)
            return  # nested scope handled separately
        if isinstance(stmt, ast.ClassDef):
            self._bind(stmt.name, scope, stmt.lineno)
            return
        for node in ast.iter_child_nodes(stmt):
            self._collect_node(node, scope)

    def _collect_node(self, node: ast.AST, scope: _Scope) -> None:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self._bind(node.id, scope, node.lineno)
            return
        if isinstance(node, ast.ExceptHandler):
            if node.name:
                self._bind(node.name, scope, node.lineno)
        if isinstance(node, ast.NamedExpr):
            self._bind(node.target.id, scope, node.lineno)
            self._collect_node(node.value, scope)
            return
        if isinstance(
            node,
            (
                ast.FunctionDef,
                ast.AsyncFunctionDef,
                ast.Lambda,
                ast.ListComp,
                ast.SetComp,
                ast.DictComp,
                ast.GeneratorExp,
            ),
        ):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._bind(node.name, scope, node.lineno)
            return  # their bindings live in their own scope
        if isinstance(node, ast.stmt):
            self._collect_stmt(node, scope)
            return
        for child in ast.iter_child_nodes(node):
            self._collect_node(child, scope)

    def _bind(self, name: str, scope: _Scope, lineno: int) -> None:
        if name in self.namespace:
            self.violations.append(
                f"local binding {name!r} at line {lineno} shadows a "
                f"namespace binding; generated locals must be hygienic"
            )
        scope.bound.add(name)

    # -- load checking -----------------------------------------------------

    def _check_function(
        self, fn: ast.FunctionDef, parent: _Scope
    ) -> None:
        scope = _Scope(parent)
        args = fn.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            scope.bound.add(arg.arg)
        if args.vararg:
            scope.bound.add(args.vararg.arg)
        if args.kwarg:
            scope.bound.add(args.kwarg.arg)
        self._collect_bindings(fn.body, scope)
        for stmt in fn.body:
            self._check_node(stmt, scope)

    def _check_lambda(self, node: ast.Lambda, parent: _Scope) -> None:
        scope = _Scope(parent)
        for arg in list(node.args.posonlyargs) + list(node.args.args):
            scope.bound.add(arg.arg)
        self._check_node(node.body, scope)

    def _check_comprehension(self, node: ast.AST, parent: _Scope) -> None:
        scope = _Scope(parent)
        for comp in node.generators:
            self._collect_node(comp.target, scope)
        # first iterable evaluates in the enclosing scope
        first = True
        for comp in node.generators:
            self._check_node(comp.iter, parent if first else scope)
            first = False
            for cond in comp.ifs:
                self._check_node(cond, scope)
        if isinstance(node, ast.DictComp):
            self._check_node(node.key, scope)
            self._check_node(node.value, scope)
        else:
            self._check_node(node.elt, scope)

    def _check_node(self, node: ast.AST, scope: _Scope) -> None:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self._check_load(node, scope)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_function(node, scope)
            return
        if isinstance(node, ast.Lambda):
            self._check_lambda(node, scope)
            return
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            self._check_comprehension(node, scope)
            return
        if isinstance(node, ast.Attribute):
            self._check_node(node.value, scope)
            return
        for child in ast.iter_child_nodes(node):
            self._check_node(child, scope)

    def _check_load(self, node: ast.Name, scope: _Scope) -> None:
        name = node.id
        if (
            scope.resolves(name)
            or name in self.namespace
            or name in SAFE_BUILTINS
            or name == self.entry_point
        ):
            return
        self.violations.append(
            f"unbound name {name!r} at line {node.lineno}: it is not a "
            f"parameter, a local, a namespace binding, or a safe builtin"
        )


# ---------------------------------------------------------------------------
# Self-test CLI: verify every backend's TPC-H output
# ---------------------------------------------------------------------------


def _ir_selftest() -> int:
    """Verify the lowered IR of Q1–Q3 and catch deliberately broken IRs."""
    from ..query.provider import QueryProvider
    from ..tpch.datagen import TPCHData
    from ..tpch import queries as tpch_queries

    data = TPCHData(scale=0.01, seed=7)
    provider = QueryProvider()
    failures = 0
    irs = []
    for label, builder in (
        ("Q1", tpch_queries.q1),
        ("Q2", tpch_queries.q2),
        ("Q3", tpch_queries.q3),
    ):
        query = builder(data, "native", provider=provider)
        ir = provider.shape(query.expr, list(query.sources)).ir()
        report = verify_ir(ir)
        status = "ok" if report.ok else "FAIL"
        print(f"{label} IR invariants       {status}")
        if not report.ok:
            failures += 1
            for violation in report.violations:
                print(f"    {violation}")
        irs.append((label, ir))

    # corrupted IRs must be caught: mutate one invariant at a time, check,
    # then restore the original value
    label, ir = irs[0]
    cases = []

    breaker = ir.breakers[0]
    saved_producers = breaker.producers
    breaker.producers = list(saved_producers) + [99]
    cases.append(("phantom producer", verify_ir(ir)))
    breaker.producers = saved_producers

    saved_consumer = breaker.consumer
    breaker.consumer = None
    cases.append(("missing consumer", verify_ir(ir)))
    breaker.consumer = saved_consumer

    scan_pipe = next(
        p for p in ir.pipelines
        if p.driver_ordinal is not None and p.required_fields
    )
    saved_fields = scan_pipe.required_fields
    scan_pipe.required_fields = set()
    cases.append(("field read outside required set", verify_ir(ir)))
    scan_pipe.required_fields = saved_fields

    for name, report in cases:
        caught = not report.ok
        status = "ok" if caught else "FAIL"
        print(f"{label} IR corruption: {name:32s} {status}")
        if not caught:
            failures += 1
            print("    corrupted IR passed verification")

    # dataflow facts: honest facts must verify, doctored facts must not
    import dataclasses

    from ..analysis import analyze_ir

    for label, ir in irs:
        ir.facts = analyze_ir(ir)
        report = verify_facts(ir)
        status = "ok" if report.ok else "FAIL"
        print(f"{label} dataflow facts       {status}")
        if not report.ok:
            failures += 1
            for violation in report.violations:
                print(f"    {violation}")

    label, ir = irs[0]
    honest = ir.facts
    fact_cases = (
        (
            "divisions claimed proven",
            dataclasses.replace(
                honest, division_sites=3, divisions_proven=3
            ),
        ),
        (
            "phantom dead pipeline",
            dataclasses.replace(
                honest, dead_pipelines=((0, "fabricated"),)
            ),
        ),
        (
            "phantom proven filter",
            dataclasses.replace(honest, proven_filters=((0, 0),)),
        ),
        ("facts missing entirely", None),
    )
    for name, doctored in fact_cases:
        ir.facts = doctored
        report = verify_facts(ir)
        caught = not report.ok
        status = "ok" if caught else "FAIL"
        print(f"{label} facts corruption: {name:29s} {status}")
        if not caught:
            failures += 1
            print("    doctored facts passed verification")
    ir.facts = honest
    return failures


def _selftest() -> int:
    """Generate TPC-H Q1–Q3 on every codegen engine and verify each module."""
    from ..query.provider import QueryProvider
    from ..tpch.datagen import TPCHData
    from ..tpch import queries as tpch_queries

    data = TPCHData(scale=0.01, seed=7)
    engines = ("compiled", "native", "hybrid", "hybrid_buffered")
    builders = (
        ("Q1", tpch_queries.q1),
        ("Q2", tpch_queries.q2),
        ("Q3", tpch_queries.q3),
    )
    failures = 0
    for engine in engines:
        provider = QueryProvider()
        for label, builder in builders:
            query = builder(data, engine, provider=provider)
            compiled = provider.compile_info(
                query.expr, query.sources, engine
            )
            report = verify_source(
                compiled.source_code,
                getattr(compiled.fn, "__globals__", {}),
            )
            status = "ok" if report.ok else "FAIL"
            print(f"{label} × {engine:16s} {status}")
            if not report.ok:
                failures += 1
                for violation in report.violations:
                    print(f"    {violation}")
    failures += _ir_selftest()
    if failures:
        print(f"selftest: {failures} check(s) failed verification")
        return 1
    print("selftest: all generated modules and IR invariants verified clean")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.codegen.verifier",
        description="Verify generated query modules.",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="generate TPC-H Q1-Q3 on every codegen engine and verify",
    )
    options = parser.parse_args(argv)
    if options.selftest:
        return _selftest()
    parser.print_help()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
