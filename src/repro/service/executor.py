"""Deadline-bounded query execution with cooperative cancellation.

Generated query code cannot be preempted — it is straight-line Python or
one long NumPy expression — so a deadline needs two cooperating halves:

* the **caller half** waits at most the remaining deadline and raises
  :class:`~repro.errors.QueryTimeoutError` the moment it expires, which
  bounds the caller-visible latency for *every* engine (including the
  native one, whose vectorized kernels have no interruptible loops);
* the **query half** — the shared :class:`~repro.runtime.cancellation.
  CancellationToken` travelling in the parameter dictionary — stops the
  abandoned worker at its next checkpoint (pipeline head, morsel
  boundary, or result-drain stride), releasing its admission slot from
  the worker's ``finally``.

Nothing in the provider needs unwinding on a timeout: the per-shape
compile locks are released by the ``finally`` blocks the provider
already has, the query cache only ever stores *completed* artifacts, and
the recycler materializes before storing (an aborted execution stores
nothing).  A query with no deadline runs inline on the caller's thread —
no thread hop, exactly the pre-service behaviour.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Iterable, Iterator, List, Optional

from ..errors import QueryCancelled, QueryTimeoutError
from ..observability.metrics import METRICS
from ..observability.tracer import TRACER
from ..runtime.cancellation import CancellationToken

__all__ = ["QueryExecutor", "UNSET", "drain", "query_timeout_from_env"]

#: sentinel distinguishing "argument omitted" from an explicit ``None``
#: (None means *no deadline*, omitted means *use the session default*)
UNSET: Any = object()

#: token checks while draining a lazy result iterator happen every this
#: many rows — frequent enough to stop an interpreted (linq) query
#: promptly, rare enough to be invisible in the row loop
DRAIN_CHECK_STRIDE = 256


def query_timeout_from_env() -> Optional[float]:
    """Default per-request deadline from ``REPRO_QUERY_TIMEOUT`` seconds.

    Unset, empty, zero, or unparsable → no default deadline.
    """
    env = os.environ.get("REPRO_QUERY_TIMEOUT", "").strip()
    if not env:
        return None
    try:
        seconds = float(env)
    except ValueError:
        return None
    return seconds if seconds > 0 else None


def drain(
    iterator: Iterable[Any],
    token: Optional[CancellationToken],
    stride: int = DRAIN_CHECK_STRIDE,
) -> List[Any]:
    """Materialize *iterator*, checking the token every *stride* rows.

    The interpreted ``linq`` engine (and the compiled engine's lazy
    generators) produce rows one at a time; this is their cancellation
    checkpoint.
    """
    if token is None:
        return list(iterator)
    rows: List[Any] = []
    for i, row in enumerate(iterator):
        if not i % stride:
            token.check()
        rows.append(row)
    token.check()
    return rows


class QueryExecutor:
    """Runs one request under a deadline, with slot-safe cleanup.

    ``run()`` takes the request body as a zero-argument callable plus the
    request's :class:`CancellationToken` and an optional *cleanup*
    callable (the admission ticket's ``release``).  Cleanup runs exactly
    once, on the thread that actually executed the query — so a
    timed-out worker holds its slot until it really stops.
    """

    def __init__(self, default_timeout: Optional[float] = None):
        self.default_timeout = (
            default_timeout
            if default_timeout is not None
            else query_timeout_from_env()
        )

    def run(
        self,
        invoke: Callable[[], Any],
        token: Optional[CancellationToken] = None,
        cleanup: Optional[Callable[[], None]] = None,
    ) -> Any:
        """Execute *invoke*; enforce the token's deadline if it has one."""
        if token is None:
            token = CancellationToken.with_timeout(self.default_timeout)
        if token.deadline is None:
            try:
                with TRACER.span("service.execute"):
                    return self._observed(invoke, token)
            finally:
                if cleanup is not None:
                    cleanup()

        # deadline path: run on a worker, wait at most the remaining
        # budget, and leave the worker to stop at its next checkpoint
        done = threading.Event()
        outcome: dict = {}

        def work() -> None:
            try:
                with TRACER.span("service.execute"):
                    outcome["result"] = self._observed(invoke, token)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                outcome["error"] = exc
            finally:
                if cleanup is not None:
                    cleanup()
                done.set()

        worker = threading.Thread(
            target=work, name="repro-service-worker", daemon=True
        )
        worker.start()
        if not done.wait(timeout=token.remaining()):
            token.cancel("deadline")
            # give the worker one checkpoint's grace to finish anyway
            # (it may have been a hair from done); then abandon it
            if not done.wait(timeout=0.001):
                METRICS.counter("service.timeouts").add()
                raise QueryTimeoutError()
        if "error" in outcome:
            raise outcome["error"]
        return outcome["result"]

    def _observed(
        self, invoke: Callable[[], Any], token: CancellationToken
    ) -> Any:
        """Run the body, translating self-observed expiry into metrics."""
        METRICS.counter("service.executions").add()
        try:
            return invoke()
        except QueryTimeoutError:
            METRICS.counter("service.timeouts").add()
            raise
        except QueryCancelled:
            METRICS.counter("service.cancelled").add()
            raise


def iter_with_checks(
    iterator: Iterator[Any],
    token: CancellationToken,
    stride: int = DRAIN_CHECK_STRIDE,
) -> Iterator[Any]:
    """Lazy variant of :func:`drain` for callers that stream results."""
    for i, row in enumerate(iterator):
        if not i % stride:
            token.check()
        yield row
