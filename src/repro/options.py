"""Execution options: every ``REPRO_*`` variable declared once, and the
one per-execution value the query layers hand down to the tier.

:data:`VARIABLES` gives each environment variable a parser, a default and
a one-line doc (the README's table mirrors it row for row).  :func:`env`
reads a variable *live* on every call — no import-time snapshot, no memo
— because harnesses scrub ``REPRO_*`` after import and tests flip them
mid-process.  One grammar per kind of value, after ``strip()``:

* booleans: ``1/true/on/yes`` and ``0/false/off/no``, case-insensitive;
* integers: clamped to the declared minimum;
* anything unset, empty or unparsable gives the declared default.

:class:`ExecutionOptions` carries the five per-query knobs, ``None``
meaning unset.  The layers stack with :meth:`~ExecutionOptions.over` —
call argument > query (``using`` / ``in_parallel`` / ``distributed``) >
session defaults > adaptive decision — and the provider's execution
body fills what is still unset from the environment with
:meth:`~ExecutionOptions.resolved`, once per execution; an admission
grant caps ``parallelism``.  No option enters a record key: every
tier returns the sequential result bit for bit.  (The guard-elision
flag does key compiled artifacts, but it is read through :func:`env` at
compile time, not carried here.)
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Callable, Dict, NamedTuple, Optional

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "ExecutionOptions",
    "NO_OPTIONS",
    "Variable",
    "VARIABLES",
    "env",
]

#: default morsel size, in driver rows.  Chosen so the per-morsel working
#: set of a typical aggregation stays cache-resident (the source of the
#: single-socket speedup measured by ``bench_parallel_scaling``).
DEFAULT_MORSEL_ROWS = 65536

_TRUE = frozenset(("1", "true", "on", "yes"))
_FALSE = frozenset(("0", "false", "off", "no"))


def _flag(text: str) -> bool:
    word = text.lower()
    if word in _TRUE:
        return True
    if word in _FALSE:
        return False
    raise ValueError(text)


def _count(minimum: int) -> Callable[[str], int]:
    return lambda text: max(minimum, int(text))


def _seconds(text: str) -> Optional[float]:
    seconds = float(text)
    return seconds if seconds > 0 else None


def _rate(text: str) -> float:
    return min(1.0, max(0.0, float(text)))


def _store(text: str) -> Optional[str]:
    return None if text == ":memory:" else text


def _processes(text: str) -> int:
    """``REPRO_DISTRIBUTED``: a boolean switch (on = ``REPRO_DIST_WORKERS``
    workers) or itself a worker count."""
    try:
        return env("REPRO_DIST_WORKERS") if _flag(text) else 0
    except ValueError:
        return max(0, int(text))


class Variable(NamedTuple):
    """One declared environment variable."""

    name: str
    #: text (stripped, non-empty) → value; ValueError means "use default"
    parse: Callable[[str], Any]
    default: Any
    doc: str


#: a per-user file under the system temp directory: persistent across
#: processes on one machine, no repository or home pollution
_UID = getattr(os, "getuid", lambda: "all")()
_STORE = os.path.join(tempfile.gettempdir(), f"repro-adaptive-{_UID}.jsonl")

_DECLARED = (
    Variable("REPRO_PARALLELISM", _count(1), 1, "thread workers (1 = sequential)"),
    Variable("REPRO_DISTRIBUTED", _processes, 0, "worker processes: on/off or a count"),
    Variable("REPRO_DIST_WORKERS", _count(2), 2, "processes when DISTRIBUTED is on"),
    Variable("REPRO_ADAPTIVE", _flag, False, "profile-driven engine / tier choice"),
    Variable("REPRO_ADAPTIVE_STORE", _store, _STORE, "profile store path, or :memory:"),
    Variable("REPRO_ADAPTIVE_EPSILON", _rate, 0.05, "chooser exploration rate"),
    Variable("REPRO_TRACE", _flag, False, "process-wide tracing (read at startup)"),
    Variable("REPRO_GUARD_ELISION", _flag, True, "proof-driven guard elision"),
    Variable("REPRO_VERIFY_GENERATED", _flag, True, "gate every generated module"),
    Variable("REPRO_SERVICE_SLOTS", _count(1), 4, "admission run slots"),
    Variable("REPRO_INGEST_SLOTS", _count(1), 2, "ingest write slots"),
    Variable("REPRO_QUERY_TIMEOUT", _seconds, None, "default deadline in seconds"),
)

VARIABLES: Dict[str, Variable] = {var.name: var for var in _DECLARED}


def env(name: str) -> Any:
    """The current value of the declared variable *name*."""
    var = VARIABLES[name]
    text = os.environ.get(name, "").strip()
    if text:
        try:
            return var.parse(text)
        except ValueError:
            pass
    return var.default


class ExecutionOptions(NamedTuple):
    """The per-query knobs of one execution; ``None`` means unset.

    None of them changes a result — only where and how it is computed.
    """

    #: thread workers for morsel-driven execution (1 = sequential)
    parallelism: Optional[int] = None
    #: driver rows per morsel
    morsel_size: Optional[int] = None
    #: True / False, or an AdaptiveController scoping the profiles
    adaptive: Any = None
    #: worker processes (0 = in-process)
    distributed: Optional[int] = None
    #: per-query tracer override
    trace: Optional[bool] = None

    def over(self, lower: "ExecutionOptions") -> "ExecutionOptions":
        """Fields set on *self* win; unset ones come from *lower*."""
        return ExecutionOptions(
            *[a if a is not None else b for a, b in zip(self, lower)]
        )

    def resolved(self) -> "ExecutionOptions":
        """Every tier knob concrete: unset ones from the environment.

        ``trace`` stays as it is — unset defers to the tracer's own
        switch (``REPRO_TRACE`` at startup, or ``TRACER.enable()``).
        """
        parallelism, morsel_size, adaptive, distributed, trace = self
        if parallelism is None:
            parallelism = env("REPRO_PARALLELISM")
        if adaptive is None:
            adaptive = env("REPRO_ADAPTIVE")
        if distributed is None:
            distributed = env("REPRO_DISTRIBUTED")
        return ExecutionOptions(
            max(1, int(parallelism)),
            morsel_size or DEFAULT_MORSEL_ROWS,
            adaptive,
            max(0, int(distributed)),
            trace,
        )


#: no option set: every knob defers to the layers below
NO_OPTIONS = ExecutionOptions()
