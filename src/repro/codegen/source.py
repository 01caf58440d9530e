"""Source-construction utilities shared by all code generators.

The paper builds a *code tree* whose nodes are code fragments and whose
nesting mirrors loop bodies (Figure 4), then walks it emitting text.  A
:class:`SourceWriter` is the emission half: an indentation-aware line
buffer with block helpers, so backends can write structured code without
string surgery.  :class:`NameAllocator` hands out the ``elem_1`` /
``data_1`` style identifiers the paper's generated code uses.

:class:`EmitState` is the state one module's emission threads through
every operator (raco's ``CompileState``): the writer, the names, the
module namespace, the params, the guard-elision verdicts and the module
assembly.  Every backend's emitter subclasses it and adds only its
per-operator code, an ``_emit_body()`` and a ``RUNTIME`` table;
:class:`Backend` is the one ``compile`` body they all share.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis import analyze_ir
from ..expressions.nodes import Var
from ..expressions.printer import ScalarPrinter
from ..observability.tracer import TRACER
from ..options import env
from .compiler import CompiledQuery, compile_source, timed
from .ir import MORSEL_START, MORSEL_STOP, Pipeline, QueryIR
from .lower import lower_plan

__all__ = [
    "SourceWriter",
    "NameAllocator",
    "Elision",
    "elision",
    "EmitState",
    "Backend",
]

_INDENT = "    "


class SourceWriter:
    """An indentation-aware source text builder."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._depth = 0

    def line(self, text: str = "") -> None:
        """Emit one line at the current indentation (blank lines unindented)."""
        if text:
            self._lines.append(_INDENT * self._depth + text)
        else:
            self._lines.append("")

    def lines(self, texts: Iterator[str] | List[str]) -> None:
        for text in texts:
            self.line(text)

    @contextmanager
    def block(self, header: str):
        """Emit ``header`` then indent the enclosed lines one level.

        >>> w = SourceWriter()
        >>> with w.block("for x in xs:"):
        ...     w.line("total += x")
        >>> print(w.text())
        for x in xs:
            total += x
        """
        self.line(header)
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1

    def text(self) -> str:
        return "\n".join(self._lines) + ("\n" if self._lines else "")


class NameAllocator:
    """Allocates unique, readable identifiers per prefix.

    Mirrors the paper's naming discipline: "we track the names of all
    variables that we assign to the inputs of the loop (using numerical
    identifiers)".
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def fresh(self, prefix: str) -> str:
        count = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = count
        return f"{prefix}_{count}"


class _CodeVarPrinter(ScalarPrinter):
    """Printer whose Vars are already code identifiers (post-substitution)."""

    def emit_var(self, expr: Var) -> str:
        return expr.name


@dataclass(frozen=True)
class Elision:
    """What the dataflow facts license one module to leave out."""

    #: every divisor is proven nonzero: divisions need no guard
    division: bool = False
    #: a group's count is >= 1 by construction: its average needs no clamp
    avg: bool = False
    #: pid → reason, for pipelines proven statically empty
    dead: Mapping[int, str] = field(default_factory=dict)
    #: (pid, operator index) of the filters whose conjuncts are all proven
    filters: FrozenSet[Tuple[int, int]] = frozenset()


def elision(facts: Any) -> Elision:
    """Decode the dataflow *facts* once: nothing is elided without facts
    or with ``REPRO_GUARD_ELISION`` off."""
    if facts is None or not env("REPRO_GUARD_ELISION"):
        return Elision()
    return Elision(
        division=facts.division_sites > 0 and facts.all_divisions_proven,
        avg=True,
        dead=dict(facts.dead_pipelines),
        filters=frozenset(facts.proven_filters),
    )


class EmitState:
    """The emission state of one generated module, shared by every backend.

    Owns the writer, the names, the module namespace, the params and the
    elision verdicts, and assembles ``execute(sources, _params)`` around
    the body :meth:`_emit_body` writes.  A backend adds its per-operator
    code and a ``RUNTIME`` table of the helpers its modules call.
    """

    #: runtime helpers every module of this backend binds
    RUNTIME: Dict[str, Any] = {}

    def __init__(self, ir: QueryIR) -> None:
        self.ir = ir
        self.names = NameAllocator()
        self.writer = SourceWriter()
        self.namespace: Dict[str, Any] = {}
        self.elide = elision(ir.facts)
        self._param_names: Dict[str, str] = {}

    def emit_module(self) -> Tuple[str, Dict[str, Any], bool]:
        """(source, namespace, scalar) of the whole module."""
        self._emit_body()
        module = SourceWriter()
        module.line(f'"""Query code generated by {type(self).__module__}."""')
        module.line()
        with module.block("def execute(sources, _params):"):
            for param_name, code_name in self._param_names.items():
                module.line(f"{code_name} = _params[{param_name!r}]")
            module.lines(self.writer.text().splitlines())
        return module.text(), {**self.namespace, **self.RUNTIME}, self.ir.scalar

    def _emit_body(self) -> None:
        raise NotImplementedError

    def render_param(self, name: str) -> str:
        """The local a param is read into once, at the top of ``execute``."""
        code_name = self._param_names.get(name)
        if code_name is None:
            sanitized = "".join(c if c.isalnum() else "_" for c in name)
            code_name = f"_param_{sanitized}"
            self._param_names[name] = code_name
        return code_name

    def bind(self, obj: Any, hint: str) -> str:
        """Bind *obj* in the namespace once (by identity); its name."""
        for name, existing in self.namespace.items():
            if existing is obj:
                return name
        name = f"_rt_{hint}_{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def scalar_printer(self, cls: type = _CodeVarPrinter, env: Any = None) -> Any:
        """A printer wired to this module's params, namespace and
        division verdict; *env* is its first constructor argument."""
        printer = cls(env, self.render_param, self.namespace)
        printer.guard_divisions = not self.elide.division
        return printer

    def morsel_source(self, ordinal: int, morsel: bool, data: bool = False) -> str:
        """``sources[k]`` (its ``.data`` array when *data*), cut to the
        morsel's ``[start, stop)`` on a morsel driver."""
        source = f"sources[{ordinal}]" + (".data" if data else "")
        if not morsel:
            return source
        lo = self.render_param(MORSEL_START)
        hi = self.render_param(MORSEL_STOP)
        if data:
            return f"{source}[{lo}:{hi}]"
        return f"_morsel_slice({source}, {lo}, {hi})"

    def begin_pipeline(self, pipeline: Pipeline, dead: Optional[str] = None) -> None:
        """A pipeline's header comment, then its cancellation checkpoint —
        or, for a pipeline proven empty, why it emits no loop."""
        self.writer.line(f"# pipeline p{pipeline.pid}: {pipeline.describe()}")
        if dead is not None:
            self.writer.line(f"# statically empty ({dead}); scan elided")
        elif pipeline.cancel_checkpoint:
            self.cancel_point()

    def cancel_point(self) -> None:
        self.writer.line("_cancel_check(_params)")


class Backend:
    """The one ``compile`` body: lower the plan when no IR is given,
    analyse it, emit through :meth:`emitter` and compile the module."""

    name = ""

    def compile(
        self, plan: Any, sources: Sequence[Any], ir: Optional[QueryIR] = None
    ) -> CompiledQuery:
        with TRACER.span("codegen.generate", engine=self.name), timed() as gen_time:
            if ir is None:
                ir = lower_plan(plan)
            if ir.facts is None:
                ir.facts = analyze_ir(ir)
            source_code, namespace, scalar = self.emitter(ir, sources).emit_module()
        entry, compile_seconds = compile_source(source_code, namespace)
        return CompiledQuery(
            source_code=source_code,
            fn=entry,
            engine=self.name,
            codegen_seconds=gen_time.seconds,
            compile_seconds=compile_seconds,
            scalar=scalar,
        )

    def emitter(self, ir: QueryIR, sources: Sequence[Any]) -> EmitState:
        raise NotImplementedError
