"""Lambda purity/effect analysis.

The paper assumes query lambdas are pure: the generated loops reorder,
fuse, parallelize and cache them freely.  Nothing in Python enforces
that, so this module inspects the *original* callables (before tracing
erases them into expression trees) and produces an :class:`EffectReport`
per lambda:

* **mutation** — ``STORE_GLOBAL``/``DELETE_GLOBAL`` bytecodes, writes to
  closure cells, or a captured mutable container (list/dict/set) combined
  with a mutating method name;
* **I/O** — references to ``print``/``open``/file-object methods;
* **nondeterminism** — references to ``random``/``time``/``uuid`` style
  names whose value varies across calls, and to the builtin ``id`` (a
  *field* named ``id`` is an attribute access and does not count).

The verdict is advisory metadata about *intent*: tracing bakes each
lambda's behaviour into a fixed expression tree, so the tree itself is
always deterministic.  The gates keyed off the verdict are therefore
conservative scheduling/caching decisions — an impure lambda hard-gates
:func:`repro.codegen.lower.decide_parallel` to sequential, and a
nondeterministic one makes the query inadmissible to the result
recycler — not semantic transformations.

Reports ride on :class:`repro.expressions.nodes.Lambda` in a
compare-excluded field, so structural equality, hashing and cache keys
are unaffected.

A code object never changes, so everything read from it — the bytecode
scan — is memoised per code object in a bounded LRU.  What a closure
*captures* does change from one closure to the next (two closures made by
one ``def`` share their code), so the captured-container check runs on
every call, and only when the scan found a mutating method name.
"""

from __future__ import annotations

import dis
import functools
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from typing import Any, Iterable, NamedTuple, Optional, Tuple

from ..expressions.nodes import Expr, Lambda, walk
from ..plans.logical import Plan, plan_children

__all__ = [
    "EffectReport",
    "PURE",
    "analyze_callable",
    "merge_effects",
    "expression_effects",
    "plan_effects",
]

#: names whose mere reference marks a lambda nondeterministic
_NONDET_NAMES = frozenset(
    {
        "random", "randint", "randrange", "uniform", "gauss", "choice",
        "choices", "sample", "shuffle", "getrandbits", "secrets",
        "token_bytes", "token_hex", "urandom",
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "now", "today", "utcnow",
        "uuid1", "uuid4", "id",
    }
)

#: names whose reference marks a lambda as performing I/O
_IO_NAMES = frozenset(
    {
        "print", "open", "input", "write", "writelines", "flush",
        "readline", "readlines", "stdout", "stderr", "stdin", "urlopen",
        "connect", "send", "sendall", "recv",
    }
)

#: method names that mutate the container they are called on
_MUTATOR_NAMES = frozenset(
    {
        "append", "extend", "insert", "remove", "clear", "update", "add",
        "discard", "setdefault", "popitem", "sort", "reverse",
        "__setitem__", "__delitem__",
    }
)

_MUTABLE_TYPES = (list, dict, set, bytearray)


@dataclass(frozen=True)
class EffectReport:
    """Effect verdict for one user lambda (or a merge over several)."""

    nondeterministic: bool = False
    mutates: bool = False
    io: bool = False
    reasons: Tuple[str, ...] = ()

    @property
    def pure(self) -> bool:
        return not (self.nondeterministic or self.mutates or self.io)

    @property
    def impure(self) -> bool:
        """Side-effecting (mutation or I/O) — gates parallel execution."""
        return self.mutates or self.io

    def describe(self) -> str:
        if self.pure:
            return "pure"
        tags = [
            tag
            for flagged, tag in (
                (self.mutates, "mutating"),
                (self.io, "io"),
                (self.nondeterministic, "nondeterministic"),
            )
            if flagged
        ]
        head = "+".join(tags)
        if self.reasons:
            return f"{head} ({self.reasons[0]})"
        return head


PURE = EffectReport()

#: distinct code objects whose bytecode scan is kept
SCAN_CACHE_SIZE = 1024


class _CodeScan(NamedTuple):
    """What one code object's bytecode says, whatever its closure holds."""

    #: the verdict before the captured-container check
    report: EffectReport
    #: how many of ``report.reasons`` are write reasons; a captured
    #: container's reason goes right after them
    writes: int
    #: the first mutating method name the code calls, if any
    mutator: Optional[str]


@functools.lru_cache(maxsize=SCAN_CACHE_SIZE)
def _scan_code(code: Any) -> _CodeScan:
    global_writes = []
    closure_writes = []
    global_loads = set()
    for instruction in dis.get_instructions(code):
        if instruction.opname in ("STORE_GLOBAL", "DELETE_GLOBAL"):
            global_writes.append(str(instruction.argval))
        elif instruction.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
            global_loads.add(instruction.argval)
        elif (
            instruction.opname == "STORE_DEREF"
            and instruction.argval in code.co_freevars
        ):
            closure_writes.append(str(instruction.argval))
    reasons = []
    if global_writes:
        reasons.append(f"writes global {global_writes[0]!r}")
    if closure_writes:
        reasons.append(f"writes closed-over variable {closure_writes[0]!r}")
    writes = len(reasons)

    names = set(code.co_names)
    mutator_hits = sorted(names & _MUTATOR_NAMES)
    io_hits = sorted(names & _IO_NAMES)
    if io_hits:
        reasons.append(f"performs I/O via {io_hits[0]!r}")

    # ``id`` is also an everyday field name: only the builtin — a global
    # load, never an attribute access like ``r.id`` — varies across runs
    nondet_hits = sorted(
        name
        for name in names & _NONDET_NAMES
        if name != "id" or name in global_loads
    )
    if nondet_hits:
        reasons.append(f"references nondeterministic name {nondet_hits[0]!r}")

    report = PURE
    if reasons:
        report = EffectReport(
            bool(nondet_hits), bool(writes), bool(io_hits), tuple(reasons)
        )
    return _CodeScan(report, writes, mutator_hits[0] if mutator_hits else None)


def analyze_callable(fn: Any) -> EffectReport:
    """Inspect a Python callable's code object for effects.

    Callables without a code object (builtins, already-traced
    :class:`Lambda` nodes) are reported pure.
    """
    code = getattr(fn, "__code__", None)
    if code is None:
        return PURE
    scan = _scan_code(code)
    if scan.mutator is None:
        return scan.report
    closure = getattr(fn, "__closure__", None) or ()
    for var_name, cell in zip(code.co_freevars, closure):
        try:
            value = cell.cell_contents
        except ValueError:
            continue
        if isinstance(value, _MUTABLE_TYPES):
            report = scan.report
            reasons = report.reasons
            captured = (
                f"captures mutable {type(value).__name__} "
                f"{var_name!r} and calls {scan.mutator!r}"
            )
            return EffectReport(
                report.nondeterministic,
                True,
                report.io,
                reasons[: scan.writes] + (captured,) + reasons[scan.writes :],
            )
    return scan.report


def merge_effects(
    reports: Iterable[Optional[EffectReport]],
) -> EffectReport:
    """Join several reports (missing reports count as pure)."""
    nondeterministic = mutates = io = False
    reasons = []
    for report in reports:
        if report is None:
            continue
        nondeterministic |= report.nondeterministic
        mutates |= report.mutates
        io |= report.io
        for reason in report.reasons:
            if reason not in reasons:
                reasons.append(reason)
    if not (nondeterministic or mutates or io):
        return PURE
    return EffectReport(nondeterministic, mutates, io, tuple(reasons))


def expression_effects(expr: Optional[Expr]) -> EffectReport:
    """Merged effects of every lambda inside *expr* (pre-order stable)."""
    if expr is None:
        return PURE
    return merge_effects(
        node.effects for node in walk(expr) if isinstance(node, Lambda)
    )


def _exprs_in(value: Any):
    if isinstance(value, Plan):
        return  # children are walked separately
    if isinstance(value, Expr):
        yield value
        return
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _exprs_in(item)
        return
    if is_dataclass(value) and not isinstance(value, type):
        for spec_field in dataclass_fields(value):
            yield from _exprs_in(getattr(value, spec_field.name))


def iter_plan_exprs(plan: Plan):
    """Yield every expression attached to *plan* or its descendants."""
    stack = [plan]
    while stack:
        node = stack.pop()
        stack.extend(plan_children(node))
        for plan_field in dataclass_fields(node):
            yield from _exprs_in(getattr(node, plan_field.name))


def plan_effects(plan: Plan) -> EffectReport:
    """Merged effects of every lambda anywhere in a logical plan."""
    return merge_effects(
        node.effects
        for expr in iter_plan_exprs(plan)
        for node in walk(expr)
        if isinstance(node, Lambda)
    )
