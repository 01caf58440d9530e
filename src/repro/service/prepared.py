"""Prepared statements: pay the Figure-3 pipeline once, execute many.

The canonicalizer already lifts every constant to a parameter, so two
executions of the same query shape share one cache entry — but each
execution still walks canonicalize → cache-lookup → (analysis) on the
hot path.  A :class:`PreparedStatement` hoists all of that to *prepare*
time: it captures the compiled artifact, the canonical parameter
bindings, and (when requested) the morsel-parallel artifact, and its
``execute()`` jumps straight to the generated code with the merged
bindings.  Re-executing with new bindings therefore skips canonicalize,
analyze, lower, *and* compile entirely — ``compile.<engine>.count``
moves exactly once per prepare, never per execute.

``prepare`` → ``bind`` → ``execute``::

    session = QuerySession()
    stmt = session.prepare(
        session.query(orders).where(lambda o: o.total > P("floor"))
    )
    big = stmt.bind(floor=1000).execute()
    small = stmt.bind(floor=10).execute()      # no second compilation

Executions still pass through the session's admission controller and
deadline executor — preparation skips compilation, not workload
management.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import ExecutionError
from ..query.enumerable import enumerate_query
from ..query.provider import pin_sources
from ..runtime.cancellation import CANCEL_PARAM, CancellationToken
from .executor import UNSET as _UNSET
from .executor import drain

__all__ = ["PreparedStatement", "BoundStatement"]


class PreparedStatement:
    """A query compiled once, executable many times with fresh bindings."""

    def __init__(self, session: Any, query: Any):
        self._session = session
        self._engine = query.engine
        self._sources = list(query.sources)
        self._base_params = dict(query.params)
        self._morsel_size = query.morsel_size
        requested = (
            query.parallelism
            if query.parallelism is not None
            else session.parallelism
        )
        self._parallelism = requested
        self._expr = query.expr
        shape = session.provider.shape(query.expr, self._sources)
        self._bindings = shape.bindings
        self._compiled = None
        self._parallel = None
        if self._engine == "linq":
            # the baseline never compiles, but preparation still hoists
            # canonicalization and static analysis out of execute()
            shape.analysis()
        else:
            self._compiled = shape.compiled(self._engine)
            if requested is not None and requested > 1:
                # the morsel artifact is worker-count independent;
                # resolve the thread tier once here (distributed=0: a
                # prepared statement never leaves the process)
                tier = session.provider.tier(
                    shape,
                    self._engine,
                    self._compiled.scalar,
                    {},
                    parallelism=requested,
                    distributed=0,
                )
                if tier.artifact is not None:
                    self._parallel = tier

    # -- introspection ------------------------------------------------------------

    @property
    def engine(self) -> str:
        return self._engine

    @property
    def scalar(self) -> bool:
        return bool(self._compiled is not None and self._compiled.scalar)

    @property
    def bind_names(self) -> tuple:
        """Bindable parameter names, sorted: the canonicalizer's lifted
        constants (``__c0``, ``__c1``, ...) — user ``P(...)`` names pass
        through ``execute(**params)`` as well."""
        return tuple(sorted(self._bindings))

    @property
    def source_code(self) -> str:
        """The generated module (empty for the interpreted baseline)."""
        return self._compiled.source_code if self._compiled else ""

    def explain(self) -> str:
        if self._compiled is None:
            return "(linq engine: interpreted operator chain, no plan)"
        return self._compiled.plan_text

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
        return self._session._run_prepared(
            self, dict(params), timeout=timeout, priority=priority
        )

    # -- the compile-free execution body (called by the session) -------------------

    def _invoke(
        self,
        params: Dict[str, Any],
        token: Optional[CancellationToken],
        parallelism: Optional[int],
    ) -> Any:
        merged = {**self._bindings, **self._base_params, **params}
        if token is not None:
            merged[CANCEL_PARAM] = token
        # pin live versioned arrays at one watermark for the whole
        # execution: readers on prepared statements never observe a
        # torn length while ingest appends concurrently
        sources = pin_sources(self._sources)
        if self._compiled is None:  # linq: interpret, but skip re-analysis
            return drain(
                enumerate_query(self._expr, sources, merged), token
            )
        workers = parallelism if parallelism is not None else 1
        if self._parallel is not None and workers > 1:
            tier = self._parallel
            rows = tier.artifact.execute(
                sources,
                merged,
                min(workers, tier.workers),
                self._morsel_size or tier.morsel,
            )
            if tier.artifact.scalar:
                return rows
            return drain(iter(rows), token)
        result = self._compiled.execute(sources, merged)
        if self._compiled.scalar:
            return result
        return drain(iter(result), token)


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
