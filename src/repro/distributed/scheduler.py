"""The cluster scheduler: slots, placement, loss detection, resubmission.

:class:`ClusterScheduler` promotes the service tier's
:class:`~repro.service.admission.AdmissionController` from "how many
queries may run" to "how much of the worker pool may one query take":
each distributed query acquires a slot whose queue-depth-aware
degradation shrinks its *shard fan-out* — a saturated pool admits more
queries at lower per-query parallelism, the same policy the thread tier
applies to morsel workers.

Placement is load-first: a shard task goes to the live worker with the
fewest tasks in flight, ties broken by residency — the worker that
already holds the most of the task's table payloads — then by worker
index, deterministic for tests.  The dispatch lock admits one scatter at
a time, so in-flight work is always this scatter's own: a query's shards
spread one per worker, and a warm query (the same shards on the same
workers) ships no table bytes at all.  A cold query ships its broadcast
tables to every worker that runs one of its shards.

Failure handling: every worker has a *private* result queue (a SIGKILL
mid-``put`` can only ever corrupt the dead worker's own channel, never
a shared one).  The gather loop polls result queues and process
liveness together; when a worker dies its in-flight tasks are re-shipped
to survivors — payloads are re-sliced from the coordinator's pinned
snapshot via the ``payload_for`` callback, not retained in memory — and
the partials slot into the same shard positions, so a resubmitted query
is still bit-identical.  When no workers survive, the query fails with
a typed :class:`~repro.errors.DistributedError`.

Workers are spawn-context (fork would duplicate locks and the whole
coordinator heap) and long-lived: pools are process-wide, keyed by
worker count, healed lazily (dead slots respawn at the next query) and
torn down atexit.
"""

from __future__ import annotations

import atexit
import itertools
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import errors as errors_module
from ..errors import DistributedError, ExecutionError, ReproError
from ..observability.metrics import METRICS
from ..service.admission import AdmissionController, AdmissionTicket
from .worker import worker_main

__all__ = [
    "ClusterScheduler",
    "DistTask",
    "get_pool",
    "shutdown_pools",
]

#: how often the gather loop re-checks worker liveness (seconds)
_LIVENESS_INTERVAL = 0.05
#: gather poll sleep when no result is ready (seconds)
_POLL_SLEEP = 0.002


@dataclass
class DistTask:
    """One shard task: which artifact over which resident tables."""

    task_id: int
    index: int  # shard position — partials merge in this order
    artifact_key: str
    tokens: Tuple[tuple, ...]
    params_blob: bytes


@dataclass(eq=False)  # identity semantics: handles live in sets
class _WorkerHandle:
    worker_id: int
    process: Any
    tasks: Any
    results: Any
    artifacts: set = field(default_factory=set)
    tables: set = field(default_factory=set)
    inflight: Dict[int, DistTask] = field(default_factory=dict)

    def alive(self) -> bool:
        return self.process.is_alive()


def _repro_src_dir() -> str:
    # src/repro/distributed/scheduler.py -> src
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )


class ClusterScheduler:
    """A pool of spawn-context worker processes plus the dispatch logic."""

    def __init__(self, workers: int):
        if workers < 1:
            raise DistributedError("a worker pool needs at least one worker")
        self.size = workers
        self._ctx = get_context("spawn")
        self._handles: List[_WorkerHandle] = []
        self._worker_ids = itertools.count()
        self._task_ids = itertools.count()
        self._lock = threading.Lock()
        #: one query scatters/gathers at a time; concurrency between
        #: queries comes from the admission queue in front
        self._dispatch_lock = threading.Lock()
        self._closed = False
        #: the promoted admission controller: slots bound concurrent
        #: distributed queries, queue depth degrades shard fan-out
        self.admission = AdmissionController(slots=workers, max_queue=8 * workers)

    # -- pool lifecycle -----------------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        worker_id = next(self._worker_ids)
        tasks = self._ctx.Queue()
        results = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, tasks, results),
            daemon=True,
            name=f"repro-dist-worker-{worker_id}",
        )
        # the spawned interpreter must be able to import repro: prepend
        # the package's src dir for the duration of the start() call
        src_dir = _repro_src_dir()
        previous = os.environ.get("PYTHONPATH")
        parts = [src_dir] + ([previous] if previous else [])
        os.environ["PYTHONPATH"] = os.pathsep.join(parts)
        try:
            process.start()
        finally:
            if previous is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = previous
        METRICS.counter("dist.workers_spawned").add()
        return _WorkerHandle(worker_id, process, tasks, results)

    def ensure_workers(self) -> List[_WorkerHandle]:
        """Heal the pool: drop dead handles, respawn up to ``size``."""
        with self._lock:
            if self._closed:
                raise DistributedError("worker pool is shut down")
            dead = [h for h in self._handles if not h.alive()]
            for handle in dead:
                self._handles.remove(handle)
                self._reap(handle)
            while len(self._handles) < self.size:
                self._handles.append(self._spawn())
            return list(self._handles)

    @staticmethod
    def _reap(handle: _WorkerHandle) -> None:
        # drop the queues first, and never join their feeder threads: a
        # dead worker's task pipe may be full (nobody drains it), which
        # would block a joining feeder — and this process — forever
        for q in (handle.tasks, handle.results):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass
        try:
            handle.process.join(timeout=1.0)
            handle.process.close()
        except Exception:  # noqa: BLE001 - best-effort cleanup
            pass

    def live_handles(self) -> List[_WorkerHandle]:
        with self._lock:
            return [h for h in self._handles if h.alive()]

    def shutdown(self) -> None:
        with self._lock:
            self._closed = True
            handles, self._handles = self._handles, []
        for handle in handles:
            try:
                if handle.alive():
                    handle.tasks.put(("stop",))
            except Exception:  # noqa: BLE001
                pass
        deadline = time.monotonic() + 5.0
        for handle in handles:
            try:
                handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
            except Exception:  # noqa: BLE001
                pass
        for handle in handles:
            self._reap(handle)

    # -- admission ----------------------------------------------------------------

    def acquire(self, requested: int) -> AdmissionTicket:
        """A run slot whose (degraded) grant is this query's shard count."""
        return self.admission.acquire(parallelism=requested)

    # -- shipping -----------------------------------------------------------------

    def _ship_artifact(
        self, handle: _WorkerHandle, key: str, payload: Dict[str, Any]
    ) -> None:
        if key not in handle.artifacts:
            handle.tasks.put(("artifact", key, payload))
            handle.artifacts.add(key)
            METRICS.counter("dist.artifacts_broadcast").add()

    def _ship_tables(
        self,
        handle: _WorkerHandle,
        tokens: Tuple[tuple, ...],
        payload_for: Callable[[tuple], Any],
    ) -> None:
        for token in tokens:
            if token in handle.tables:
                METRICS.counter("dist.table_hits").add()
                continue
            uid, version, length = token[:3]
            # mirror the worker's shard-ownership rule: a newer watermark
            # for the same table supersedes every older resident
            handle.tables = {
                t
                for t in handle.tables
                if t[0] != uid or (t[1], t[2]) == (version, length)
            }
            handle.tasks.put(("table", payload_for(token)))
            handle.tables.add(token)
            METRICS.counter("dist.tables_shipped").add()

    # -- placement ----------------------------------------------------------------

    @staticmethod
    def _place(
        handles: List[_WorkerHandle], tokens: Tuple[tuple, ...]
    ) -> _WorkerHandle:
        def score(handle: _WorkerHandle) -> tuple:
            resident = sum(1 for t in tokens if t in handle.tables)
            return (len(handle.inflight), -resident, handle.worker_id)

        return min(handles, key=score)

    # -- scatter / gather ---------------------------------------------------------

    def run_tasks(
        self,
        artifact_key: str,
        artifact_payload: Dict[str, Any],
        token_plans: List[Tuple[tuple, ...]],
        params_blob: bytes,
        payload_for: Callable[[tuple], Any],
        cancel: Optional[Callable[[], None]] = None,
    ) -> Tuple[List[Any], float]:
        """Scatter one task per token plan, gather partials in plan order.

        Returns ``(partials, worker_seconds)`` where *worker_seconds*
        sums the kernel wall time the workers reported — the remote half
        of the ``dist.worker`` phase in ``explain_analyze``.
        """
        with self._dispatch_lock:
            handles = self.ensure_workers()
            tasks = [
                DistTask(
                    task_id=next(self._task_ids),
                    index=i,
                    artifact_key=artifact_key,
                    tokens=tuple(tokens),
                    params_blob=params_blob,
                )
                for i, tokens in enumerate(token_plans)
            ]
            assigned: Dict[int, _WorkerHandle] = {}
            for task in tasks:
                handle = self._place(handles, task.tokens)
                self._submit(handle, task, artifact_payload, payload_for)
                assigned[task.task_id] = handle
            METRICS.counter("dist.tasks_dispatched").add(len(tasks))
            try:
                return self._gather(
                    tasks, assigned, artifact_payload, payload_for, cancel
                )
            finally:
                # a failed/cancelled gather leaves no accounting behind:
                # late results are ignored by task-id, so only the
                # in-flight bookkeeping needs scrubbing
                for handle in set(assigned.values()):
                    for task in tasks:
                        handle.inflight.pop(task.task_id, None)

    def _submit(
        self,
        handle: _WorkerHandle,
        task: DistTask,
        artifact_payload: Dict[str, Any],
        payload_for: Callable[[tuple], Any],
    ) -> None:
        self._ship_artifact(handle, task.artifact_key, artifact_payload)
        self._ship_tables(handle, task.tokens, payload_for)
        handle.inflight[task.task_id] = task
        handle.tasks.put(
            ("task", task.task_id, task.artifact_key, task.tokens, task.params_blob)
        )

    def _gather(
        self,
        tasks: List[DistTask],
        assigned: Dict[int, _WorkerHandle],
        artifact_payload: Dict[str, Any],
        payload_for: Callable[[tuple], Any],
        cancel: Optional[Callable[[], None]],
    ) -> Tuple[List[Any], float]:
        pending = {task.task_id: task for task in tasks}
        partials: Dict[int, Any] = {}
        worker_seconds = 0.0
        next_liveness = time.monotonic() + _LIVENESS_INTERVAL
        while pending:
            if cancel is not None:
                cancel()
            progressed = False
            for handle in set(assigned.values()):
                while True:
                    try:
                        message = handle.results.get_nowait()
                    except queue_module.Empty:
                        break
                    except (EOFError, OSError):
                        break
                    progressed = True
                    kind, worker_id, task_id = message[0], message[1], message[2]
                    task = pending.get(task_id)
                    if task is None:
                        continue  # duplicate after resubmission, or stale
                    worker_seconds += float(message[3])
                    if kind == "done":
                        partials[task.index] = message[4]
                        del pending[task_id]
                        handle.inflight.pop(task_id, None)
                    else:
                        handle.inflight.pop(task_id, None)
                        self._raise_worker_error(message[4], message[5])
            if not pending:
                break
            now = time.monotonic()
            if not progressed and now >= next_liveness:
                next_liveness = now + _LIVENESS_INTERVAL
                self._resubmit_lost(
                    pending, assigned, artifact_payload, payload_for
                )
            if not progressed:
                time.sleep(_POLL_SLEEP)
        ordered = [partials[i] for i in range(len(tasks))]
        return ordered, worker_seconds

    def _resubmit_lost(
        self,
        pending: Dict[int, DistTask],
        assigned: Dict[int, _WorkerHandle],
        artifact_payload: Dict[str, Any],
        payload_for: Callable[[tuple], Any],
    ) -> None:
        dead = {
            h for h in set(assigned.values()) if h.inflight and not h.alive()
        }
        if not dead:
            return
        with self._lock:
            for handle in dead:
                if handle in self._handles:
                    self._handles.remove(handle)
            survivors = [h for h in self._handles if h.alive()]
        for handle in dead:
            self._reap(handle)
        METRICS.counter("dist.worker_losses").add(len(dead))
        orphaned = [
            task
            for task_id, task in sorted(pending.items())
            if assigned[task_id] in dead
        ]
        if not orphaned:
            return
        if not survivors:
            raise DistributedError(
                f"all workers died with {len(orphaned)} shard task(s) "
                f"outstanding; no survivors to resubmit to"
            )
        for task in orphaned:
            handle = self._place(survivors, task.tokens)
            self._submit(handle, task, artifact_payload, payload_for)
            assigned[task.task_id] = handle
            METRICS.counter("dist.resubmissions").add()

    @staticmethod
    def _raise_worker_error(error_type: str, message: str) -> None:
        """Re-raise a worker-side failure under its sequential type."""
        cls = getattr(errors_module, error_type, None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            try:
                error = cls(message)
            except TypeError:
                error = None
            if error is not None:
                raise error
        raise ExecutionError(f"distributed worker failed: {error_type}: {message}")


# ---------------------------------------------------------------------------
# Process-wide pools (keyed by worker count, torn down atexit)
# ---------------------------------------------------------------------------

_POOLS: Dict[int, ClusterScheduler] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(workers: int) -> ClusterScheduler:
    """The process-wide pool for *workers*, created/replaced on demand."""
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is not None and pool._closed:
            pool = None
        if pool is None:
            pool = ClusterScheduler(workers)
            _POOLS[workers] = pool
        return pool


def shutdown_pools() -> None:
    """Stop every pool and join its workers (idempotent; atexit hook)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)
