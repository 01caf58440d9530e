"""The query serving layer: sessions, prepared statements, admission,
deadlines, and cooperative cancellation.

Covers each component in isolation (token, admission controller,
executor) and the assembled serving path, including the two headline
guarantees:

* a prepared statement executed many times with different bindings
  compiles exactly once (``compile.<engine>.count`` moves by one), and
  otherwise executes like any other query on the provider;
* a query that exceeds its deadline raises ``QueryTimeoutError`` from
  *every* engine within 2x the deadline, while a concurrent query on the
  same provider completes normally.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    AdmissionRejected,
    ExecutionError,
    QueryCancelled,
    QueryTimeoutError,
    SessionClosed,
)
from repro.observability.metrics import METRICS
from repro.query import QueryCache, QueryProvider, RecyclingProvider
from repro.runtime.cancellation import (
    CANCEL_PARAM,
    CancellationToken,
    cancel_check,
)
from repro.service import (
    AdmissionController,
    QueryExecutor,
    QueryService,
    QuerySession,
    drain,
)
from repro.storage import Field, Schema, StructArray

SCHEMA = Schema([Field("x", "int"), Field("y", "float")], name="Svc")
OBJECTS = StructArray.from_rows(
    SCHEMA, [(i, i * 0.5) for i in range(200)]
).to_objects()

#: every engine family the deadline guarantee must hold for
DEADLINE_ENGINES = ("linq", "compiled", "native", "hybrid")


def _session(**kw):
    kw.setdefault("provider", QueryProvider())
    return QuerySession(**kw)


class TestCancellationToken:
    def test_fresh_token_passes_checks(self):
        token = CancellationToken()
        assert not token.cancelled
        token.check()  # no raise
        assert token.remaining() is None

    def test_cancel_sets_reason_and_check_raises(self):
        token = CancellationToken()
        token.cancel("client gone")
        assert token.cancelled and token.reason == "client gone"
        with pytest.raises(QueryCancelled):
            token.check()

    def test_deadline_raises_timeout_subclass(self):
        token = CancellationToken.with_timeout(0.001)
        time.sleep(0.01)
        assert token.cancelled
        with pytest.raises(QueryTimeoutError):
            token.check()

    def test_timeout_is_a_cancellation(self):
        assert issubclass(QueryTimeoutError, QueryCancelled)

    def test_none_timeout_means_no_deadline(self):
        token = CancellationToken.with_timeout(None)
        assert token.remaining() is None
        token.check()

    def test_remaining_counts_down(self):
        token = CancellationToken.with_timeout(10.0)
        assert 9.0 < token.remaining() <= 10.0

    def test_cancel_check_helper_reads_params(self):
        token = CancellationToken()
        cancel_check({})  # no token: no-op
        cancel_check({CANCEL_PARAM: token})
        token.cancel()
        with pytest.raises(QueryCancelled):
            cancel_check({CANCEL_PARAM: token})


class TestAdmissionController:
    def test_grant_within_slots_is_immediate(self):
        ctl = AdmissionController(slots=2)
        t1 = ctl.acquire()
        t2 = ctl.acquire()
        assert ctl.running == 2 and ctl.queue_depth == 0
        t1.release()
        t2.release()
        assert ctl.running == 0

    def test_release_is_idempotent(self):
        ctl = AdmissionController(slots=1)
        ticket = ctl.acquire()
        ticket.release()
        ticket.release()
        assert ctl.running == 0

    def test_queue_full_fast_fails(self):
        ctl = AdmissionController(slots=1, max_queue=0)
        held = ctl.acquire()
        with pytest.raises(AdmissionRejected):
            ctl.acquire()
        held.release()
        ctl.acquire().release()  # slot freed: admission works again

    def test_waiter_admitted_on_release(self):
        ctl = AdmissionController(slots=1)
        held = ctl.acquire()
        admitted = []

        def wait_then_record():
            ticket = ctl.acquire(timeout=5.0)
            admitted.append(ticket)
            ticket.release()

        thread = threading.Thread(target=wait_then_record)
        thread.start()
        for _ in range(100):
            if ctl.queue_depth == 1:
                break
            time.sleep(0.005)
        assert ctl.queue_depth == 1
        held.release()
        thread.join(timeout=5.0)
        assert len(admitted) == 1
        assert admitted[0].wait_seconds > 0.0

    def test_priority_orders_the_queue(self):
        ctl = AdmissionController(slots=1)
        held = ctl.acquire()
        order = []
        started = threading.Barrier(3)

        def waiter(priority):
            started.wait()
            # deterministic queue arrival: low priority enqueues first
            time.sleep(0.05 * (10 - priority))
            ticket = ctl.acquire(priority=priority, timeout=10.0)
            order.append(priority)
            time.sleep(0.01)
            ticket.release()

        threads = [
            threading.Thread(target=waiter, args=(p,)) for p in (0, 5, 9)
        ]
        for t in threads:
            t.start()
        for _ in range(200):
            if ctl.queue_depth == 3:
                break
            time.sleep(0.01)
        held.release()
        for t in threads:
            t.join(timeout=10.0)
        assert order == [9, 5, 0]

    def test_queue_wait_deadline_raises_timeout(self):
        ctl = AdmissionController(slots=1)
        held = ctl.acquire()
        with pytest.raises(QueryTimeoutError):
            ctl.acquire(timeout=0.05)
        held.release()
        assert ctl.queue_depth == 0  # the expired waiter left the queue

    def test_degradation_under_load(self):
        ctl = AdmissionController(slots=1)
        # empty queue: the request keeps its full parallelism
        ticket = ctl.acquire(parallelism=8)
        assert ticket.parallelism == 8
        # now one waiter queues; the next grant is downgraded
        results = []

        def contender():
            t = ctl.acquire(parallelism=8, timeout=10.0)
            results.append(t.parallelism)
            t.release()

        threads = [threading.Thread(target=contender) for _ in range(2)]
        for t in threads:
            t.start()
        for _ in range(200):
            if ctl.queue_depth == 2:
                break
            time.sleep(0.01)
        ticket.release()
        for t in threads:
            t.join(timeout=10.0)
        # first contender granted while one more still waited: 8 // 2 = 4;
        # the last one granted alone keeps 8
        assert sorted(results) == [4, 8]


class TestQueryExecutor:
    def test_plain_run_returns_result(self):
        executor = QueryExecutor()
        assert executor.run(lambda: 42) == 42

    def test_deadline_bounds_a_stuck_worker(self):
        executor = QueryExecutor()
        token = CancellationToken.with_timeout(0.05)
        release = threading.Event()
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            executor.run(lambda: release.wait(5.0), token=token)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.05 * 2 + 0.5  # 2x deadline plus scheduling slack
        release.set()  # unblock the worker thread

    def test_cleanup_runs_on_success_and_failure(self):
        executor = QueryExecutor()
        calls = []
        executor.run(lambda: 1, cleanup=lambda: calls.append("ok"))
        with pytest.raises(RuntimeError):
            executor.run(
                lambda: (_ for _ in ()).throw(RuntimeError("boom")),
                cleanup=lambda: calls.append("err"),
            )
        assert calls == ["ok", "err"]

    def test_worker_error_propagates(self):
        executor = QueryExecutor()
        token = CancellationToken.with_timeout(5.0)
        with pytest.raises(ZeroDivisionError):
            executor.run(lambda: 1 / 0, token=token)

    def test_drain_checks_token_mid_iteration(self):
        token = CancellationToken()

        def rows():
            for i in range(10_000):
                if i == 500:
                    token.cancel()
                yield i

        with pytest.raises(QueryCancelled):
            drain(rows(), token, stride=256)


class TestSessionLifecycle:
    def test_session_defaults_flow_into_queries(self):
        session = _session(engine="compiled", parallelism=1)
        q = session.query(OBJECTS, schema=SCHEMA)
        assert q.engine == "compiled"
        assert q.provider is session.provider

    def test_execute_returns_rows(self):
        with _session(engine="compiled") as session:
            q = session.query(OBJECTS, schema=SCHEMA).where(lambda r: r.x < 5)
            assert len(session.execute(q)) == 5

    def test_closed_session_refuses_work(self):
        session = _session()
        session.close()
        with pytest.raises(SessionClosed):
            session.query(OBJECTS, schema=SCHEMA)
        with pytest.raises(SessionClosed):
            session.prepare(None)

    def test_context_manager_closes(self):
        with _session() as session:
            assert not session.closed
        assert session.closed
        session.close()  # idempotent

    def test_conflicting_service_and_provider_rejected(self):
        service = QueryService(provider=QueryProvider())
        with pytest.raises(ValueError):
            QuerySession(service=service, provider=QueryProvider())

    def test_sessions_share_the_service_cache(self):
        service = QueryService(provider=QueryProvider())
        with service.session(engine="compiled", parallelism=1) as one:
            q = one.query(OBJECTS, schema=SCHEMA).where(lambda r: r.x < 5)
            one.execute(q)
        with service.session(engine="compiled", parallelism=1) as two:
            q = two.query(OBJECTS, schema=SCHEMA).where(lambda r: r.x < 5)
            two.execute(q)
        stats = service.provider.cache.stats
        assert stats.misses == 1 and stats.hits == 1


class TestPreparedStatements:
    def test_prepare_once_execute_many_compiles_once(self):
        # the acceptance criterion: two executions with different
        # bindings move compile.<engine>.count by exactly one
        with _session(engine="compiled", parallelism=1) as session:
            before = METRICS.counter("compile.compiled.count").value
            limit = 7  # captured constant becomes a canonical parameter
            statement = session.prepare(
                session.query(OBJECTS, schema=SCHEMA)
                .where(lambda r: r.x < limit)
                .select(lambda r: r.x)
            )
            first = statement.execute(**{statement.bind_names[0]: 5})
            second = statement.execute(**{statement.bind_names[0]: 11})
            assert METRICS.counter("compile.compiled.count").value == before + 1
        assert len(first) == 5
        assert len(second) == 11

    def test_bound_statement_layers_bindings(self):
        with _session(engine="compiled", parallelism=1) as session:
            limit = 3
            statement = session.prepare(
                session.query(OBJECTS, schema=SCHEMA).where(
                    lambda r: r.x < limit
                )
            )
            name = statement.bind_names[0]
            bound = statement.bind(**{name: 4})
            assert len(bound.execute()) == 4
            assert len(bound.to_list()) == 4
            rebound = bound.bind(**{name: 6})
            assert len(rebound.execute()) == 6
            assert len(bound.execute()) == 4  # original unchanged

    def test_prepared_linq_engine(self):
        with _session(engine="linq") as session:
            statement = session.prepare(
                session.query(OBJECTS, schema=SCHEMA).where(lambda r: r.x < 5)
            )
            assert statement.engine == "linq"
            assert len(statement.execute()) == 5

    def test_prepared_reads_the_recycling_result_cache(self):
        provider = RecyclingProvider()
        with _session(provider=provider, engine="compiled", parallelism=1) as session:
            statement = session.prepare(
                session.query(OBJECTS, schema=SCHEMA).where(lambda r: r.x < 5)
            )
            first = statement.execute()
            assert statement.execute() == first
        assert len(first) == 5
        assert provider.recycler_stats.misses == 1
        assert provider.recycler_stats.hits == 1

    def test_evicted_record_recompiles_inside_the_cache_budget(self):
        provider = QueryProvider(cache=QueryCache(max_entries=1))
        with _session(provider=provider, engine="compiled", parallelism=1) as session:
            statement = session.prepare(
                session.query(OBJECTS, schema=SCHEMA).where(lambda r: r.x < 5)
            )
            # another shape takes the whole one-artifact budget
            session.execute(session.query(OBJECTS, schema=SCHEMA).select(lambda r: r.y))
            before = METRICS.counter("compile.compiled.count").value
            assert len(statement.execute()) == 5
            assert METRICS.counter("compile.compiled.count").value == before + 1
        assert len(provider.cache) == 1

    def test_prepared_follows_clustering_gone_stale(self):
        from repro import P, from_struct_array

        schema = Schema([Field("k", "int"), Field("v", "float")], name="Clu")
        array = StructArray.from_rows(schema, [(i, float(i)) for i in range(10)])
        clustered = array.cluster_by("v")
        with _session(engine="native", parallelism=1) as session:
            statement = session.prepare(
                from_struct_array(clustered)
                .using("native", session.provider)
                .where(lambda r: r.v > P("c"))
                .select(lambda r: r.k)
                .with_params(c=5.0)
            )
            assert statement.execute() == [6, 7, 8, 9]
            # out of sorted order: code compiled for the clustering would
            # take binary-search bounds over an unsorted tail
            clustered.append_rows([(100, 100.0), (200, 0.0), (300, 1.0)])
            assert statement.execute() == [6, 7, 8, 9, 100]

    def test_prepared_respects_deadline(self):
        with _session(engine="compiled") as session:
            statement = session.prepare(
                _slow_query(session.provider, "compiled")
            )
            with pytest.raises(QueryTimeoutError):
                statement.execute(timeout=0.05)


class TestServingObservability:
    def test_explain_analyze_gains_queue_wait_phase(self):
        with _session(engine="compiled", parallelism=1) as session:
            q = session.query(OBJECTS, schema=SCHEMA).where(lambda r: r.x < 5)
            report = session.explain_analyze(q)
        assert "service.queue_wait" in report.phases
        assert "service.execute" in report.phases
        assert report.rows == 5
        rendered = report.render()
        assert "service.queue_wait" in rendered


# -- deadline acceptance: every engine, bounded at 2x, no collateral damage --
#
# Slowness comes from data volume, not the predicate: the expression
# builder traces callables once (symbolically), so per-row sleeps never
# run per row.  The row-at-a-time engines (linq, compiled, hybrid) take
# ~0.5-1.5s over 100k struct-array rows; the vectorized native engine
# needs a 2M-row sort to exceed the deadline reliably.

SLOW_SCHEMA = Schema([Field("x", "int"), Field("y", "float")], name="Slow")


def _slow_array(n, seed=0):
    data = np.zeros(n, dtype=SLOW_SCHEMA.numpy_dtype())
    rng = np.random.default_rng(seed)
    data["x"] = rng.integers(0, n, n)
    data["y"] = rng.random(n)
    return StructArray(SLOW_SCHEMA, data)


SLOW_ROWS = _slow_array(100_000)
SLOW_ROWS_NATIVE = _slow_array(2_000_000)


def _slow_query(provider, engine):
    """A query that takes well over any test deadline on *engine*."""
    from repro import from_struct_array

    if engine == "native":
        return (
            from_struct_array(SLOW_ROWS_NATIVE)
            .using("native", provider)
            .where(lambda r: r.y > 0.1)
            .order_by(lambda r: r.y)
            .select(lambda r: r.x)
        )
    return (
        from_struct_array(SLOW_ROWS)
        .using(engine, provider)
        .where(lambda r: r.x % 7 > 2)
        .select(lambda r: r.y)
    )


class TestDeadlineAcrossEngines:
    @pytest.mark.parametrize("engine", DEADLINE_ENGINES)
    def test_deadline_raises_within_2x_everywhere(self, engine):
        deadline = 0.05
        with _session(engine=engine) as session:
            q = _slow_query(session.provider, engine)
            started = time.perf_counter()
            with pytest.raises(QueryTimeoutError):
                session.execute(q, timeout=deadline)
            elapsed = time.perf_counter() - started
        # 2x the deadline, plus fixed scheduling slack for thread startup
        assert elapsed < deadline * 2 + 1.0

    def test_concurrent_query_survives_neighbor_timeout(self):
        provider = QueryProvider()
        service = QueryService(provider=provider)
        outcome = {}

        def doomed():
            with service.session() as session:
                try:
                    session.execute(
                        _slow_query(provider, "compiled"), timeout=0.05
                    )
                    outcome["doomed"] = "finished"
                except QueryTimeoutError:
                    outcome["doomed"] = "timeout"

        def healthy():
            with service.session(engine="compiled") as session:
                q = session.query(OBJECTS, schema=SCHEMA).where(
                    lambda r: r.x < 100
                )
                outcome["healthy"] = len(session.execute(q, timeout=None))

        threads = [
            threading.Thread(target=doomed),
            threading.Thread(target=healthy),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert outcome == {"doomed": "timeout", "healthy": 100}
        # the provider's compile locks and slot pool survived the timeout;
        # the doomed *worker* releases its slot at its next checkpoint,
        # which can be after the caller already got its QueryTimeoutError
        for _ in range(600):
            if service.admission.running == 0:
                break
            time.sleep(0.05)
        assert service.admission.running == 0
        # analysis takes the shape's compile lock: a lock leaked by the
        # timed-out worker would hang this probe
        doomed_query = _slow_query(provider, "compiled")
        probe = threading.Thread(
            target=provider.shape(
                doomed_query.expr, list(doomed_query.sources)
            ).analysis,
            daemon=True,
        )
        probe.start()
        probe.join(timeout=30.0)
        assert not probe.is_alive()

    def test_session_close_cancels_inflight(self):
        service = QueryService(provider=QueryProvider())
        session = service.session()
        q = _slow_query(service.provider, "linq")
        result = {}

        def run():
            try:
                session.execute(q, timeout=None)
                result["run"] = "finished"
            except QueryCancelled as exc:
                result["run"] = exc.reason

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.1)  # let it get past admission and into execution
        session.close()
        thread.join(timeout=60.0)
        assert result["run"] in ("session closed", "finished")


class TestScalarGuard:
    def test_bound_to_list_returns_rows(self):
        with _session(engine="compiled", parallelism=1) as session:
            statement = session.prepare(
                session.query(OBJECTS, schema=SCHEMA).select(lambda r: r.y)
            )
            assert not statement.scalar
            assert statement.source_code  # generated module captured
            assert len(statement.bind().to_list()) == len(OBJECTS)

    def test_bound_to_list_refuses_non_list_results(self):
        with _session(engine="compiled", parallelism=1) as session:
            statement = session.prepare(
                session.query(OBJECTS, schema=SCHEMA).select(lambda r: r.y)
            )
            bound = statement.bind()
            # scalar shapes come back as bare values; to_list must refuse
            statement.execute = lambda **kw: 42
            with pytest.raises(ExecutionError):
                bound.to_list()
