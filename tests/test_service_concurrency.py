"""Service-layer stress: many threads against a small slot pool.

Runs in CI's service-stress leg.  The scenarios inject slow queries
(slowness comes from data volume — predicates are traced once, so a
sleeping lambda cannot slow a query down) and assert the *counts* of
each outcome class: completed, timed out, cancelled, rejected.  After
every scenario the pool must be fully drained — no leaked slots, no
stuck waiters, no held compile locks.
"""

import threading
import time

import numpy as np

from repro import from_struct_array
from repro.errors import (
    AdmissionRejected,
    QueryCancelled,
    QueryTimeoutError,
)
from repro.observability.metrics import METRICS
from repro.query import QueryProvider
from repro.service import AdmissionController, QueryService
from repro.storage import Field, Schema, StructArray

SCHEMA = Schema([Field("x", "int"), Field("y", "float")], name="Stress")


def _array(n, seed=0):
    data = np.zeros(n, dtype=SCHEMA.numpy_dtype())
    rng = np.random.default_rng(seed)
    data["x"] = rng.integers(0, n, n)
    data["y"] = rng.random(n)
    return StructArray(SCHEMA, data)


FAST_ROWS = _array(200)
SLOW_ROWS = _array(100_000)  # ~0.5s on the row-at-a-time compiled engine


def _fast_query(provider):
    return (
        from_struct_array(FAST_ROWS)
        .using("compiled", provider)
        .where(lambda r: r.x % 3 == 1)
        .select(lambda r: r.y)
    )


def _slow_query(provider):
    return (
        from_struct_array(SLOW_ROWS)
        .using("compiled", provider)
        .where(lambda r: r.x % 7 > 2)
        .select(lambda r: r.y)
    )


def _service(slots, max_queue=None):
    return QueryService(
        provider=QueryProvider(),
        admission=AdmissionController(slots=slots, max_queue=max_queue),
    )


def _run_all(threads):
    for t in threads:
        t.start()
    _join_all(threads)


def _join_all(threads):
    for t in threads:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads), "stress thread hung"


def _drained(service):
    # timed-out workers release their slots at the next checkpoint,
    # which may trail the caller's QueryTimeoutError — poll briefly
    for _ in range(600):
        if (
            service.admission.running == 0
            and service.admission.queue_depth == 0
        ):
            break
        time.sleep(0.05)
    assert service.admission.running == 0
    assert service.admission.queue_depth == 0
    assert _compile_locks_free(service.provider)


def _compile_locks_free(provider):
    """Analysis takes its shape's compile lock, so a lock leaked by a
    timed-out or cancelled worker would hang this probe."""

    def probe():
        for query in (_fast_query(provider), _slow_query(provider)):
            provider.shape(query.expr, list(query.sources)).analysis()

    thread = threading.Thread(target=probe, daemon=True)
    thread.start()
    thread.join(timeout=30.0)
    return not thread.is_alive()


class Outcomes:
    """Thread-safe outcome tally for one scenario."""

    def __init__(self):
        self._lock = threading.Lock()
        self.completed = 0
        self.timeouts = 0
        self.cancelled = 0
        self.rejected = 0
        self.errors = []

    def record(self, fn):
        try:
            fn()
        except QueryTimeoutError:
            kind = "timeouts"
        except QueryCancelled:
            kind = "cancelled"
        except AdmissionRejected:
            kind = "rejected"
        except Exception as exc:  # pragma: no cover - surfaced in asserts
            with self._lock:
                self.errors.append(exc)
            return
        else:
            kind = "completed"
        with self._lock:
            setattr(self, kind, getattr(self, kind) + 1)

    @property
    def total(self):
        return self.completed + self.timeouts + self.cancelled + self.rejected


def _hold_slot_until(controller, depth_reached, then_release_after=0.0):
    """Acquire the only slot; release once *depth_reached* waiters queue."""
    ticket = controller.acquire()

    def watch():
        for _ in range(2000):
            if controller.queue_depth >= depth_reached:
                break
            time.sleep(0.005)
        if then_release_after:
            time.sleep(then_release_after)
        ticket.release()

    thread = threading.Thread(target=watch)
    thread.start()
    return thread


class TestBackpressure:
    def test_exact_rejection_count_when_queue_full(self):
        # one slot held, queue of 2: six arrivals → 2 wait (and complete
        # once the slot frees), 4 fast-fail with AdmissionRejected
        service = _service(slots=1, max_queue=2)
        rejected_before = METRICS.counter("service.rejected").value
        # hold the only slot with an explicit ticket: releasing on
        # depth-reached would race the overflow arrivals below (a seated
        # waiter could dequeue first, freeing a queue seat)
        ticket = service.admission.acquire()
        outcomes = Outcomes()

        # fill the two queue seats first, deterministically
        seated = []
        for _ in range(2):
            t = threading.Thread(
                target=outcomes.record,
                args=(
                    lambda: _service_execute(service, _fast_query, timeout=30.0),
                ),
            )
            t.start()
            seated.append(t)
        for _ in range(2000):
            if service.admission.queue_depth == 2:
                break
            time.sleep(0.005)
        assert service.admission.queue_depth == 2

        # every further arrival must bounce immediately
        overflow = [
            threading.Thread(
                target=outcomes.record,
                args=(
                    lambda: _service_execute(service, _fast_query, timeout=30.0),
                ),
            )
            for _ in range(4)
        ]
        _run_all(overflow)
        assert outcomes.rejected == 4

        ticket.release()
        _join_all(seated)
        assert outcomes.completed == 2
        assert outcomes.total == 6
        assert not outcomes.errors
        assert (
            METRICS.counter("service.rejected").value - rejected_before == 4
        )
        _drained(service)


class TestQueueTimeouts:
    def test_waiters_expire_in_queue(self):
        # the slot is held longer than every waiter's deadline: all three
        # time out *in the queue*, never execute, and leave it clean
        service = _service(slots=1)
        holder = _hold_slot_until(
            service.admission, depth_reached=3, then_release_after=0.5
        )
        outcomes = Outcomes()
        waiters = [
            threading.Thread(
                target=outcomes.record,
                args=(
                    lambda: _service_execute(service, _fast_query, timeout=0.1),
                ),
            )
            for _ in range(3)
        ]
        _run_all(waiters)
        holder.join(timeout=30.0)
        assert outcomes.timeouts == 3
        assert outcomes.total == 3
        assert not outcomes.errors
        # after release the pool serves again
        assert len(_service_execute(service, _fast_query, timeout=30.0)) > 0
        _drained(service)


class TestSessionCloseCancels:
    def test_close_cancels_queued_work(self):
        service = _service(slots=1)
        session = service.session()
        holder = _hold_slot_until(
            service.admission, depth_reached=2, then_release_after=0.2
        )
        outcomes = Outcomes()

        def queued_run():
            q = _fast_query(service.provider)
            outcomes.record(lambda: session.execute(q, timeout=30.0))

        runners = [threading.Thread(target=queued_run) for _ in range(2)]
        for t in runners:
            t.start()
        for _ in range(2000):
            if service.admission.queue_depth == 2:
                break
            time.sleep(0.005)
        session.close()
        # close() cancels the *tokens*; waiters notice when granted (the
        # drain checkpoint) or at the queue-wait deadline — either way
        # they must resolve as cancellations, not completions
        _join_all(runners)
        holder.join(timeout=30.0)
        assert outcomes.cancelled + outcomes.completed == 2
        assert not outcomes.errors
        _drained(service)


class TestMixedStress:
    def test_mixed_workload_accounts_every_request(self):
        # 16 threads over 2 slots and a queue of 3: doomed slow queries
        # (tight deadline), healthy fast ones (generous deadline), and
        # raw backpressure — every request resolves into exactly one
        # outcome class and the pool drains
        service = _service(slots=2, max_queue=3)
        executions_before = METRICS.counter("service.executions").value
        outcomes = Outcomes()

        def doomed():
            outcomes.record(
                lambda: _service_execute(service, _slow_query, timeout=0.05)
            )

        def healthy():
            outcomes.record(
                lambda: _service_execute(service, _fast_query, timeout=60.0)
            )

        threads = []
        for i in range(16):
            threads.append(
                threading.Thread(target=doomed if i % 4 == 0 else healthy)
            )
        _run_all(threads)

        assert outcomes.total == 16
        assert not outcomes.errors
        # the doomed class must actually produce timeouts (4 requests
        # with a 50ms deadline against ~0.5s queries cannot all finish)
        assert outcomes.timeouts >= 1
        assert outcomes.completed >= 1
        # every non-rejected request entered the executor
        assert (
            METRICS.counter("service.executions").value - executions_before
            >= outcomes.completed
        )
        _drained(service)

    def test_sustained_churn_leaks_nothing(self):
        # several waves through a tiny pool; between waves everything
        # must return to zero — slots, queue, compile locks, sessions
        service = _service(slots=2, max_queue=8)
        for wave in range(3):
            outcomes = Outcomes()
            threads = [
                threading.Thread(
                    target=outcomes.record,
                    args=(
                        lambda: _service_execute(
                            service, _fast_query, timeout=60.0
                        ),
                    ),
                )
                for _ in range(8)
            ]
            _run_all(threads)
            assert outcomes.completed + outcomes.rejected == 8
            assert not outcomes.errors
            _drained(service)
        # the query compiled exactly once across all waves
        assert service.provider.cache.stats.misses == 1


def _service_execute(service, query_factory, timeout):
    with service.session() as session:
        return session.execute(query_factory(service.provider), timeout=timeout)
