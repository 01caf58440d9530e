"""In-memory compilation of generated source, with cost accounting.

The analogue of ``CSharpCodeProvider.CompileAssemblyFromSource()`` (§4.2):
generated Python source is compiled and executed in a fresh module
namespace "in-memory, without having to utilize any external processes".
Each :class:`CompiledQuery` records how long generation and compilation
took, feeding the paper's §7.4 cost report (source generation 30–60 ms, C#
compile ~75 ms, C compile ~720 ms — ours are measured by
``bench_compile_cost``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import CodegenError
from ..observability.metrics import METRICS
from ..observability.tracer import TRACER
from ..options import env
from . import verifier as _verifier

__all__ = ["CompiledQuery", "compile_source", "timed"]

#: name of the generated entry point, mirroring the paper's ``Execute``
ENTRY_POINT = "execute"


@dataclass
class CompiledQuery:
    """A ready-to-run compiled query: the unit stored in the query cache."""

    #: generated module source (kept for inspection / EXPLAIN CODE)
    source_code: str
    #: ``execute(sources, params)`` → iterator (or scalar for aggregates)
    fn: Callable[[List[Any], Dict[str, Any]], Any]
    #: which backend produced it
    engine: str
    #: plan text for explain output
    plan_text: str = ""
    codegen_seconds: float = 0.0
    compile_seconds: float = 0.0
    #: True when fn returns a scalar instead of an iterator
    scalar: bool = False
    #: static analysis of the originating query (set by the provider)
    analysis: Any = None

    def execute(self, sources: List[Any], params: Dict[str, Any]) -> Any:
        return self.fn(sources, params)


def compile_source(
    source: str,
    namespace: Dict[str, Any],
    entry_point: str = ENTRY_POINT,
    filename: str = "<repro-generated>",
    verify: Optional[bool] = None,
) -> tuple:
    """Compile *source* into *namespace* and return (entry_fn, seconds).

    The namespace already holds every runtime object the printer bound
    (record types, helper functions, numpy); it becomes the module globals
    of the generated function.

    The source is parsed once.  Between compiling and executing, the
    gate (:func:`repro.codegen.verifier.verify_code`) judges the code
    object that compile built — on by default; skip it for one call with
    ``verify=False`` or for the process with ``REPRO_VERIFY_GENERATED=0``.
    A finding raises :class:`~repro.errors.GeneratedCodeViolation` (a
    ``CodegenError``) carrying the findings, each naming its line, and the
    offending source.  The returned seconds time compiling and executing
    the module, not the gate.
    """
    if verify is None:
        verify = env("REPRO_VERIFY_GENERATED")
    with TRACER.span("codegen.compile_source", entry=entry_point):
        started = time.perf_counter()
        try:
            code = compile(source, filename, "exec")
        except SyntaxError as exc:
            raise CodegenError(
                f"generated source does not parse: {exc}"
                f"\n--- source ---\n{source}"
            ) from exc
        elapsed = time.perf_counter() - started
        if verify:
            _verifier.check_generated(source, namespace, entry_point, code)
        started = time.perf_counter()
        exec(code, namespace)  # noqa: S102 - executing our own generated code
        elapsed += time.perf_counter() - started
    METRICS.counter("compile_source.count").add()
    METRICS.histogram("compile_source.seconds").observe(elapsed)
    entry = namespace.get(entry_point)
    if entry is None:
        raise CodegenError(
            f"generated source defines no {entry_point!r} entry point"
        )
    return entry, elapsed


@dataclass
class timed:
    """Tiny context manager for phase timing: ``with timed() as t: ...``."""

    seconds: float = field(default=0.0)
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.seconds = time.perf_counter() - self._start
