"""Query sessions: per-client defaults, lifecycle, and the serving path.

A :class:`QuerySession` is one client's view of the serving subsystem.
It carries the client's defaults (engine, parallelism, tracing, deadline,
priority), shares a :class:`~repro.query.provider.QueryProvider` (and
therefore the compiled-plan cache) with every other session, and routes
each execution through the shared :class:`~repro.service.admission.
AdmissionController` and :class:`~repro.service.executor.QueryExecutor`:

    session → admission (slot + priority queue) → executor (deadline,
    cancellation token) → provider (cache → codegen → execute)

Sessions are context managers; a closed session refuses further work
with :class:`~repro.errors.SessionClosed`.  ``prepare()`` returns a
:class:`~repro.service.prepared.PreparedStatement`, which holds its
query's shape so executions skip canonicalization and compilation while
taking the same path as ``execute()``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ExecutionError, SessionClosed
from ..observability.metrics import METRICS
from ..observability.tracer import TRACER
from ..options import ExecutionOptions, env
from ..query.provider import default_provider
from ..query.queryable import DEFAULT_ENGINE, Query, from_iterable
from ..runtime.cancellation import CANCEL_PARAM, CancellationToken
from .admission import AdmissionController
from .executor import UNSET as _UNSET
from .executor import QueryExecutor, drain
from .prepared import PreparedStatement

__all__ = ["QuerySession", "QueryService"]


class QueryService:
    """The shared serving backplane: provider + admission + executor.

    One service typically exists per process; every session opened on it
    shares the compiled-plan cache and competes for the same run slots.
    """

    def __init__(
        self,
        provider: Any = None,
        admission: Optional[AdmissionController] = None,
        executor: Optional[QueryExecutor] = None,
        ingest_admission: Optional[AdmissionController] = None,
    ):
        self.provider = provider if provider is not None else default_provider()
        self.admission = admission if admission is not None else AdmissionController()
        self.executor = executor if executor is not None else QueryExecutor()
        #: a separate, smaller slot pool for writes: ingest competes with
        #: ingest, never with queries (REPRO_INGEST_SLOTS)
        self.ingest_admission = (
            ingest_admission
            if ingest_admission is not None
            else AdmissionController(slots=env("REPRO_INGEST_SLOTS"))
        )

    def session(self, **defaults: Any) -> "QuerySession":
        """Open a session against this service (kwargs = session defaults)."""
        return QuerySession(service=self, **defaults)


class QuerySession:
    """One client's defaults and lifecycle over the shared service."""

    def __init__(
        self,
        service: Optional[QueryService] = None,
        provider: Any = None,
        engine: str = DEFAULT_ENGINE,
        parallelism: Optional[int] = None,
        morsel_size: Optional[int] = None,
        trace: Optional[bool] = None,
        adaptive: Any = None,
        timeout: Any = _UNSET,
        priority: int = 0,
    ):
        if service is None:
            service = QueryService(provider=provider)
        elif provider is not None and provider is not service.provider:
            raise ValueError(
                "pass either a service or a provider, not conflicting both"
            )
        self._service = service
        self.engine = engine
        #: the session's defaults, beneath every query's own options (no
        #: ``distributed`` default: only a query can ask for processes)
        self.options = ExecutionOptions(parallelism, morsel_size, adaptive, None, trace)
        #: session default deadline in seconds; UNSET defers to the
        #: executor's REPRO_QUERY_TIMEOUT default, None disables
        self.timeout = (
            service.executor.default_timeout if timeout is _UNSET else timeout
        )
        self.priority = priority
        self._closed = False
        self._lock = threading.Lock()
        #: tokens of in-flight requests, for close() to cancel
        self._inflight: set = set()
        METRICS.counter("service.sessions_opened").add()

    # -- plumbing accessors --------------------------------------------------------

    @property
    def service(self) -> QueryService:
        return self._service

    @property
    def provider(self) -> Any:
        return self._service.provider

    @property
    def admission(self) -> AdmissionController:
        return self._service.admission

    @property
    def executor(self) -> QueryExecutor:
        return self._service.executor

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Close the session; cancel whatever it still has in flight."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            inflight = list(self._inflight)
        for token in inflight:
            token.cancel("session closed")
        METRICS.counter("service.sessions_closed").add()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionClosed("session is closed")

    # -- building queries with session defaults --------------------------------------

    def query(
        self,
        items: Sequence[Any],
        token: Optional[str] = None,
        schema: Any = None,
    ) -> Query:
        """Wrap a collection as a Query carrying this session's defaults."""
        self._ensure_open()
        return from_iterable(items, token=token, schema=schema)._replace(
            engine=self.engine, provider=self.provider, options=self.options
        )

    # -- serving path ----------------------------------------------------------------

    def execute(
        self,
        query: Query,
        timeout: Any = _UNSET,
        priority: Optional[int] = None,
        parallelism: Optional[int] = None,
    ) -> List[Any]:
        """Run *query* through admission and the deadline executor.

        Returns the materialized rows.  Raises
        :class:`~repro.errors.AdmissionRejected` under backpressure,
        :class:`~repro.errors.QueryTimeoutError` past the deadline
        (which covers queue wait *plus* execution), and
        :class:`~repro.errors.QueryCancelled` after an explicit cancel.
        """
        # call argument > query > session; the environment fills the rest
        options = ExecutionOptions(parallelism).over(query.options).over(self.options)
        return self._serve(
            query.expr,
            list(query.sources),
            query.engine,
            query.params,
            options,
            timeout,
            priority,
        )

    def ingest(
        self,
        table: Any,
        rows: Sequence[Any],
        timeout: Any = _UNSET,
        priority: Optional[int] = None,
    ) -> int:
        """Append *rows* to a versioned table under a write slot.

        *rows* holds positional value sequences (tuples/lists in schema
        field order) or record objects exposing the schema's fields —
        the two encodings of :meth:`StructArray.append_rows` /
        :meth:`~StructArray.append_objects`.  Returns the table's new
        version.

        Writes pass through a **separate** admission pool
        (``REPRO_INGEST_SLOTS`` write slots): a burst of ingest never
        occupies query slots, and vice versa.  The append itself
        publishes buffer-then-watermark atomically, so cancellation (or
        session close) between admission and append aborts cleanly, and
        cancelling *queries* mid-ingest is always safe — in-flight
        readers keep iterating the snapshot prefix they pinned, never a
        torn length.  An empty batch admits, appends nothing, and
        returns the current version.
        """
        self._ensure_open()
        if not hasattr(table, "append_rows"):
            raise ExecutionError(
                "ingest requires a versioned StructArray table "
                f"(got {type(table).__name__})"
            )
        batch = list(rows)
        seconds = self.timeout if timeout is _UNSET else timeout
        priority = self.priority if priority is None else priority
        token = CancellationToken.with_timeout(seconds)
        METRICS.counter("ingest.requests").add()
        # register before queueing: close() must be able to doom a write
        # that is still waiting for a slot, not only one already granted
        with self._lock:
            self._inflight.add(token)
        try:
            with TRACER.span("ingest.queue_wait", priority=priority) as span:
                ticket = self.service.ingest_admission.acquire(
                    priority=priority, timeout=token.remaining()
                )
                span.set(wait_seconds=ticket.wait_seconds)
            try:
                # last cancellation point before mutating: past here the
                # append either publishes completely or raises having
                # published nothing — there is no partial state to cancel
                token.check()
                with TRACER.span("ingest.append", rows=len(batch)) as span:
                    if batch and not isinstance(batch[0], (tuple, list)):
                        version = table.append_objects(batch)
                    else:
                        version = table.append_rows(batch)
                    span.set(version=version, total=len(table))
                METRICS.counter("ingest.rows").add(len(batch))
                return version
            finally:
                ticket.release()
        finally:
            with self._lock:
                self._inflight.discard(token)

    def prepare(self, query: Query) -> PreparedStatement:
        """Compile now; execute later (many times) with fresh bindings."""
        self._ensure_open()
        return PreparedStatement(self, query)

    def explain_analyze(self, query: Query) -> Any:
        """Execute through the serving path and fold the span evidence.

        Identical to ``Query.explain_analyze`` plus the serving phases:
        the report's table gains ``service.queue_wait`` (time spent in
        the admission queue) and ``service.execute`` rows.
        """
        self._ensure_open()
        from ..observability.explain import explain_analyze

        return explain_analyze(
            self.provider,
            query.expr,
            list(query.sources),
            query.engine,
            query.params,
            query.options.over(self.options),
            runner=lambda: self.execute(query),
        )

    # -- the one serving path ---------------------------------------------------------

    def _serve(
        self,
        expr: Any,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        options: ExecutionOptions,
        timeout: Any,
        priority: Optional[int],
        shape: Any = None,
        scalar: bool = False,
    ) -> Any:
        """Admission → deadline executor → provider, for every execution
        of the session — ad hoc, or prepared with its held *shape*."""
        self._ensure_open()
        seconds = self.timeout if timeout is _UNSET else timeout
        priority = self.priority if priority is None else priority
        token = CancellationToken.with_timeout(seconds)
        with TRACER.span("service.queue_wait", priority=priority) as span:
            ticket = self.admission.acquire(
                priority=priority,
                parallelism=options.parallelism,
                timeout=token.remaining(),
            )
            span.set(
                wait_seconds=ticket.wait_seconds,
                granted_parallelism=ticket.parallelism,
            )
        with self._lock:
            self._inflight.add(token)

        def cleanup() -> None:
            ticket.release()
            with self._lock:
                self._inflight.discard(token)

        def invoke() -> Any:
            run = self.provider.execute_scalar if scalar else self.provider.execute
            # the admission grant caps the requested parallelism
            result = run(
                expr,
                sources,
                engine,
                {**params, CANCEL_PARAM: token},
                options._replace(parallelism=ticket.parallelism),
                shape,
            )
            return result if scalar else drain(result, token)

        return self.executor.run(invoke, token=token, cleanup=cleanup)
