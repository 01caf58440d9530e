"""Verifier for generated query modules.

Every backend emits a Python module as a string and ``exec``s it.  The C#
original got a safety net for free — the host compiler type-checks the
generated source (§4.2).  ``exec`` checks nothing, so a printer bug
surfaces as a ``NameError`` deep inside query execution.  This module is
the replacement net: before a generated module is executed, it is
checked for

* **module shape** — a docstring plus top-level function definitions,
  one of them ``def execute(sources, _params)`` with two positional
  parameters;
* **no unbound names** — every name load resolves to a function
  parameter, a local binding, a namespace binding supplied by the
  printer, or a whitelisted builtin;
* **hygiene** — no local binding shadows a namespace binding (printers
  emit counter-suffixed locals precisely so this cannot happen);
* **no escape hatches** — no ``import``/``global``/``nonlocal`` and no
  calls to ``eval``/``exec``/``compile``/``__import__``/``open`` & co.
  Generated code must be a closed straight-line program over the
  namespace the printer bound.

There is one verifier, :func:`verify_code`, and it judges the code object
``compile()`` already built, so a first execution parses its module once.
It reads each code object's names, locals and opcodes (no disassembly),
which is what the interpreter will actually run, and names the line of
each finding through ``co_lines()`` — looked up only once a finding
exists.  A statement that compiles to nothing — an unused ``global``
declaration, a bare constant — runs nothing and is not judged.

:func:`check_generated` raises :class:`~repro.errors.GeneratedCodeViolation`
on any finding.  The gate is wired into
:func:`repro.codegen.compiler.compile_source` and is on by default (set
``REPRO_VERIFY_GENERATED=0``, or pass ``verify=False``, to skip it).

The same net covers the layer *above* the printers: :func:`verify_ir`
checks the pipeline IR every backend lowers from (every breaker
materializes exactly once and is consumed downstream exactly once, the
schedule is topologically ordered, and no pipeline reads a source field
outside its required-field annotation), and :func:`verify_facts` re-derives
the dataflow facts.  Both run off the hot path — in the tests, the
selftest below and ``scripts/analyze_query.py`` — never in the provider.

``python -m repro.codegen.verifier --selftest`` generates TPC-H Q1–Q3 on
every codegen engine, checks that the gate accepts each emitted module and
rejects every violation class planted in Q1's, naming the planted line,
and exercises the IR invariants (including deliberately corrupted IRs
that must be caught).
"""

from __future__ import annotations

import inspect
import opcode
import sys
from dataclasses import dataclass
from types import CodeType
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

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
    "verify_code",
    "verify_ir",
    "verify_facts",
    "check_generated",
    "check_ir",
    "check_facts",
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

@dataclass
class VerifierReport:
    """Findings of one IR or dataflow-fact check."""

    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _raise_on(violations: Tuple[str, ...], what: str, source: str = "") -> None:
    if violations:
        details = "".join(f"\n  - {v}" for v in violations)
        raise GeneratedCodeViolation(
            f"{what} failed verification "
            f"({len(violations)} violation(s)):{details}"
            + (f"\n--- generated source ---\n{source}" if source else ""),
            violations=violations,
            source=source,
        )


def check_generated(
    source: str,
    namespace: Optional[Dict[str, Any]] = None,
    entry_point: str = "execute",
    code: Optional[CodeType] = None,
) -> None:
    """Gate *source* — judged on *code*, its compiled module, when the
    caller already has it — and raise :class:`GeneratedCodeViolation` on
    any finding."""
    try:
        if code is None:
            code = compile(source, "<repro-generated>", "exec")
        findings = verify_code(code, namespace, entry_point)
    except SyntaxError as exc:
        findings = (f"generated source does not parse: {exc}",)
    _raise_on(findings, "generated module", source)


# ---------------------------------------------------------------------------
# The gate: what compile() built
# ---------------------------------------------------------------------------

_OP = opcode.opmap
_EXTENDED_ARG = _OP["EXTENDED_ARG"]
_LOAD_GLOBAL = _OP["LOAD_GLOBAL"]
_MAKE_FUNCTION = _OP["MAKE_FUNCTION"]
_STORE_NAME = _OP["STORE_NAME"]
_DEREF_WRITES = (_OP["STORE_DEREF"], _OP["DELETE_DEREF"])
_LOCAL_WRITES = (_OP["STORE_FAST"], _OP["DELETE_FAST"]) + _DEREF_WRITES
#: since 3.11 LOAD_GLOBAL's oparg is the name index shifted left by one
#: (the low bit says whether to push NULL first)
_GLOBAL_SHIFT = 1 if sys.version_info >= (3, 11) else 0

#: everything a module of a docstring and plain ``def``s compiles to
_MODULE_OPS = bytes(
    _OP[name]
    for name in (
        "CACHE", "RESUME", "NOP", "EXTENDED_ARG", "LOAD_CONST",
        "MAKE_FUNCTION", "STORE_NAME", "RETURN_CONST", "RETURN_VALUE",
    )
    if name in _OP
)

#: opcodes that reach past a function's locals and the namespace it reads
_ESCAPES = tuple(
    (_OP[name], reason)
    for name, reason in (
        ("IMPORT_NAME", "import statement"),
        ("IMPORT_FROM", "import statement"),
        ("IMPORT_STAR", "import statement"),
        ("STORE_GLOBAL", "'global' declaration"),
        ("DELETE_GLOBAL", "'global' declaration"),
    )
    if name in _OP
)


def _opargs(raw: bytes, ops: bytes, op: int) -> Iterator[Tuple[int, int]]:
    """(instruction index, oparg) of every *op* in *raw* (``ops`` is
    ``raw[::2]``), with its EXTENDED_ARG prefixes applied."""
    at = ops.find(op)
    while at >= 0:
        arg, prefix, shift = raw[2 * at + 1], at - 1, 8
        while prefix >= 0 and ops[prefix] == _EXTENDED_ARG:
            arg |= raw[2 * prefix + 1] << shift
            prefix, shift = prefix - 1, shift + 8
        yield at, arg
        at = ops.find(op, at + 1)


def _at(code: CodeType, index: Optional[int]) -> str:
    """`` at line N`` for instruction *index* of *code* (with no index,
    its first line); called only for a finding, so a clean module never
    maps an instruction to its line."""
    if index is not None:
        for start, end, line in code.co_lines():
            if start <= 2 * index < end and line is not None:
                return f" at line {line}"
    return f" at line {code.co_firstlineno}"


def _param_count(code: CodeType) -> int:
    return (
        code.co_argcount
        + code.co_kwonlyargcount
        + bool(code.co_flags & inspect.CO_VARARGS)
        + bool(code.co_flags & inspect.CO_VARKEYWORDS)
    )


def _local_name(code: CodeType, op: int, arg: int) -> str:
    if sys.version_info >= (3, 11):  # one index space over all locals
        return code._varname_from_oparg(arg)
    if op in _DEREF_WRITES:
        return (code.co_cellvars + code.co_freevars)[arg]
    return code.co_varnames[arg]


def _first_store(code: CodeType, name: str) -> Optional[int]:
    raw = code.co_code
    ops = raw[::2]
    return min(
        (
            at
            for op in _LOCAL_WRITES
            for at, arg in _opargs(raw, ops, op)
            if _local_name(code, op, arg) == name
        ),
        default=None,
    )


def _functions(code: CodeType) -> List[CodeType]:
    return [c for c in code.co_consts if isinstance(c, CodeType)]


def verify_code(
    code: CodeType,
    namespace: Optional[Dict[str, Any]] = None,
    entry_point: str = "execute",
) -> Tuple[str, ...]:
    """The gate: the findings on one compiled module (empty when clean).

    Judges the code objects ``compile()`` built — module and every nested
    function, lambda and comprehension — from their names, locals, flags
    and opcodes, without disassembling them.  Each finding names its
    line: the offending instruction's, a local's first store, or the
    first line of an entry point or class body.  Only a missing entry
    point has no line.
    """
    findings: List[str] = []
    raw = code.co_code
    ops = raw[::2]
    stray = ops.translate(None, _MODULE_OPS)
    if stray:
        what, at = opcode.opname[stray[0]], ops.find(stray[0])
    else:
        what = "a decorated or defaulted def"
        at = next((i for i, arg in _opargs(raw, ops, _MAKE_FUNCTION) if arg), None)
    if at is not None:
        findings.append(
            f"top-level code runs {what}{_at(code, at)}; generated modules "
            f"may only contain a docstring and function definitions"
        )
    functions = _functions(code)
    defined = {function.co_name for function in functions}
    for index, name in enumerate(code.co_names):
        if name != "__doc__" and name not in defined:
            # bound by a STORE_NAME, or else only read by the stray ops
            store = next(
                (i for i, arg in _opargs(raw, ops, _STORE_NAME) if arg == index),
                at,
            )
            findings.append(
                f"top-level binding {name!r}{_at(code, store)} is not a "
                f"function definition"
            )
    entries = [f for f in functions if f.co_name == entry_point]
    if not entries or entry_point not in code.co_names:
        findings.append(
            f"generated module defines no {entry_point!r} entry point"
        )
    for entry in entries:
        if (
            entry.co_argcount != 2
            or entry.co_posonlyargcount
            or entry.co_kwonlyargcount
            or entry.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
        ):
            got = list(entry.co_varnames[: _param_count(entry)])
            findings.append(
                f"entry point{_at(entry, None)} must take exactly "
                f"(sources, params); got parameters {got}"
            )
    stack = functions
    while stack:
        function = stack.pop()
        _verify_function(function, namespace or {}, defined, findings)
        stack.extend(_functions(function))
    return tuple(dict.fromkeys(findings))


def _verify_function(
    code: CodeType,
    namespace: Dict[str, Any],
    defined: Set[str],
    findings: List[str],
) -> None:
    if not code.co_flags & inspect.CO_OPTIMIZED:
        # a class body: its name lookups would escape the global-load check
        findings.append(
            f"class body {code.co_name!r}{_at(code, None)}; generated code "
            f"defines functions only"
        )
        return
    raw = code.co_code
    ops = raw[::2]
    for op, reason in _ESCAPES:
        if op in ops:
            findings.append(f"{reason}{_at(code, ops.find(op))} in {code.co_name!r}")
    if code.co_freevars:
        for op in _DEREF_WRITES:
            for at, arg in _opargs(raw, ops, op):
                name = _local_name(code, op, arg)
                if name in code.co_freevars:
                    findings.append(
                        f"'nonlocal' write to {name!r}{_at(code, at)} in "
                        f"{code.co_name!r} breaks hygiene of generated locals"
                    )
    names = code.co_names
    for at, arg in _opargs(raw, ops, _LOAD_GLOBAL):
        name = names[arg >> _GLOBAL_SHIFT]
        if name in _FORBIDDEN_NAMES:
            findings.append(
                f"reference to forbidden builtin {name!r}{_at(code, at)}"
            )
        elif not (
            name in namespace or name in SAFE_BUILTINS or name in defined
        ):
            findings.append(
                f"unbound name {name!r}{_at(code, at)}: it is not a "
                f"parameter, a local, a namespace binding, or a safe builtin"
            )
    params = code.co_varnames[: _param_count(code)]
    for name in code.co_varnames[len(params):] + code.co_cellvars:
        if name in params:
            continue  # a parameter some nested scope closes over
        if name in _FORBIDDEN_NAMES:
            findings.append(
                f"reference to forbidden builtin {name!r}"
                f"{_at(code, _first_store(code, name))}"
            )
        if name in namespace:
            findings.append(
                f"local binding {name!r}{_at(code, _first_store(code, name))} "
                f"shadows a namespace binding; generated locals must be "
                f"hygienic"
            )


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

    return VerifierReport(tuple(violations))


def check_ir(ir: Any) -> VerifierReport:
    """Verify and raise :class:`GeneratedCodeViolation` on any finding."""
    report = verify_ir(ir)
    _raise_on(report.violations, "pipeline IR")
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
        return VerifierReport(tuple(violations))
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
    return VerifierReport(tuple(violations))


def check_facts(
    ir: Any,
    param_values: Optional[Dict[str, Any]] = None,
    statistics: Any = None,
    facts: Any = None,
) -> VerifierReport:
    """Verify facts and raise :class:`GeneratedCodeViolation` on mismatch."""
    report = verify_facts(ir, param_values, statistics, facts)
    _raise_on(report.violations, "dataflow facts")
    return report


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


_HEADER = "def execute(sources, _params):\n"


def _body(text: str) -> Tuple[str, str]:
    """The edit that plants *text* first in ``execute``'s body."""
    return _HEADER, f"{_HEADER}    {text}\n"


#: (what the gate's finding says, an (old, new) edit of the module — an
#: empty old appends —, the planted line the finding names or None when
#: it has no line) — one case per violation class the gate must catch
_PLANTED = (
    ("unbound name", _body("_unbound_1"), "_unbound_1"),
    ("forbidden builtin", _body("eval('1')"), "eval('1')"),
    ("import statement", _body("import os"), "import os"),
    ("'global'", _body("global leak_1\n    leak_1 = 1"), "leak_1 = 1"),
    (
        "'nonlocal'",
        _body(
            "leak_1 = 0\n    def _inner_1():\n        nonlocal leak_1\n"
            "        leak_1 = 1"
        ),
        "leak_1 = 1",
    ),
    ("shadows a namespace binding", _body("{shadow} = 0"), "{shadow} = 0"),
    ("top-level", ("", "\nSTATE = {}\n"), "STATE = {}"),
    ("entry point", ("def execute(", "def run("), None),
    (
        "exactly (sources, params)",
        (_HEADER, "def execute(sources, _params, x):\n"),
        "def execute(sources, _params, x):",
    ),
)


def _module_selftest(
    label: str, engine: str, source: str, namespace: Dict[str, Any]
) -> int:
    """The gate accepts *source*; in Q1's module it rejects each planted
    violation and names the planted line."""
    import re

    findings = verify_code(compile(source, "<selftest>", "exec"), namespace)
    failures = int(bool(findings))
    print(f"{label} × {engine:16s} {'FAIL' if failures else 'ok'}")
    for violation in findings:
        print(f"    {violation}")
    if label != "Q1":
        return failures
    shadow = next(name for name in namespace if not name.startswith("__"))
    for says, (old, new), mark in _PLANTED:
        new = new.replace("{shadow}", shadow)
        mark = mark and mark.replace("{shadow}", shadow)
        planted = source.replace(old, new, 1) if old else source + new
        caught = verify_code(compile(planted, "<selftest>", "exec"), namespace)
        lines = [line.strip() for line in planted.splitlines()]
        where = rf" at line {lines.index(mark) + 1}\b" if mark else ""
        ok = any(says in finding and re.search(where, finding) for finding in caught)
        print(f"{label} × {engine:8s} planted: {says:27s} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures += 1
            print(f"    gate: {caught}")
    return failures


def _selftest() -> int:
    """Generate TPC-H Q1–Q3 on every codegen engine and verify each module."""
    from ..query.provider import ENGINES, QueryProvider
    from ..tpch.datagen import TPCHData
    from ..tpch import queries as tpch_queries

    data = TPCHData(scale=0.01, seed=7)
    builders = (
        ("Q1", tpch_queries.q1),
        ("Q2", tpch_queries.q2),
        ("Q3", tpch_queries.q3),
    )
    failures = 0
    for engine in ENGINES[1:]:  # every engine after linq generates code
        provider = QueryProvider()
        for label, builder in builders:
            query = builder(data, engine, provider=provider)
            compiled = provider.compile_info(
                query.expr, query.sources, engine
            )
            failures += _module_selftest(
                label,
                engine,
                compiled.source_code,
                getattr(compiled.fn, "__globals__", {}),
            )
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
