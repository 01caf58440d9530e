"""Prepared statements: pay the Figure-3 pipeline once, execute many.

The canonicalizer already lifts every constant to a parameter, so two
executions of the same query shape share one cache record — but each
execution still canonicalizes its tree to find that record.  A
:class:`PreparedStatement` does that once, at *prepare* time: it holds
the query's :class:`~repro.query.shape.Shape` and compiles the engine's
sequential artifact there, so ``execute()`` only re-binds parameters and
hands the held shape to the provider's one execution body.
``compile.<engine>.count`` moves once per prepare, never per execute —
the artifact lives in the query cache, inside its budget, so a record
evicted by cache pressure recompiles on its next execution.

``prepare`` → ``bind`` → ``execute``::

    session = QuerySession()
    stmt = session.prepare(
        session.query(orders).where(lambda o: o.total > P("floor"))
    )
    big = stmt.bind(floor=1000).execute()
    small = stmt.bind(floor=10).execute()      # no second compilation

Each execution is an ordinary one — session → admission → deadline
executor → provider — under the query's options over the session's:
threads, worker processes, adaptivity, tracing and a recycling
provider's result cache apply exactly as to ``session.execute``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import ExecutionError
from ..plans.logical import plan_to_text
from ..query.provider import LINQ_PLAN
from .executor import UNSET as _UNSET

__all__ = ["PreparedStatement", "BoundStatement"]


class PreparedStatement:
    """A query shape canonicalized and compiled once, executable many
    times with fresh bindings."""

    def __init__(self, session: Any, query: Any):
        self._session = session
        self._engine = query.engine
        self._expr = query.expr
        self._sources = list(query.sources)
        self._params = dict(query.params)
        self._options = query.options.over(session.options)
        self._shape = session.provider.shape(query.expr, self._sources)
        if self._engine == "linq":
            # the baseline never compiles, but preparation still hoists
            # canonicalization and static analysis out of execute()
            self._scalar = self._shape.analysis().scalar
        else:
            self._scalar = self._shape.compiled(self._engine).scalar

    # -- introspection ------------------------------------------------------------

    @property
    def engine(self) -> str:
        return self._engine

    @property
    def scalar(self) -> bool:
        return self._scalar

    @property
    def bind_names(self) -> tuple:
        """Bindable parameter names, sorted: the canonicalizer's lifted
        constants (``__c0``, ``__c1``, ...) — user ``P(...)`` names pass
        through ``execute(**params)`` as well."""
        return tuple(sorted(self._shape.bindings))

    @property
    def source_code(self) -> str:
        """The generated module (empty for the interpreted baseline)."""
        if self._engine == "linq":
            return ""
        return self._shape.compiled(self._engine).source_code

    def explain(self) -> str:
        if self._engine == "linq":
            return LINQ_PLAN
        return plan_to_text(self._shape.plan())

    # -- the prepare/bind/execute surface ----------------------------------------

    def bind(self, **params: Any) -> "BoundStatement":
        """Fix parameter values; returns an executable bound statement."""
        return BoundStatement(self, params)

    def execute(
        self,
        timeout: Any = _UNSET,
        priority: Optional[int] = None,
        **params: Any,
    ) -> Any:
        """Run with *params* through the session's admission + executor."""
        return self._session._serve(
            self._expr,
            self._sources,
            self._engine,
            {**self._params, **params},
            self._options,
            timeout,
            priority,
            self._shape,
            self._scalar,
        )


class BoundStatement:
    """A prepared statement plus a fixed set of parameter bindings."""

    __slots__ = ("_statement", "_params")

    def __init__(self, statement: PreparedStatement, params: Dict[str, Any]):
        self._statement = statement
        self._params = dict(params)

    def bind(self, **params: Any) -> "BoundStatement":
        """Layer further bindings on top (later bindings win)."""
        return BoundStatement(self._statement, {**self._params, **params})

    def execute(
        self, timeout: Any = _UNSET, priority: Optional[int] = None
    ) -> Any:
        return self._statement.execute(
            timeout=timeout, priority=priority, **self._params
        )

    def to_list(self) -> List[Any]:
        result = self.execute()
        if not isinstance(result, list):
            raise ExecutionError("bound statement is scalar; use execute()")
        return result
