"""Serving queries: sessions, prepared statements, and deadlines.

Run with:  python examples/serving.py

The paper's application pattern (§1) is a fixed set of query shapes
re-executed with parameters chosen "via GUI elements".  The query cache
already makes re-compilation free; the serving layer removes the rest of
the per-request overhead and adds workload management:

* **ad-hoc**: every ``session.execute`` walks canonicalize →
  cache-lookup → execute (the lookup hits, but it still runs);
* **prepared**: ``session.prepare`` canonicalizes and compiles once and
  holds the query's shape, so every ``bind(...).execute()`` skips both
  and runs the provider's one execution path on it —
  ``compile.<engine>.count`` moves exactly once;
* every execution passes through admission control and can carry a
  deadline that cancels it cooperatively.
"""

import time

from repro import P
from repro.observability.metrics import METRICS
from repro.query import QueryProvider, from_iterable
from repro.service import QueryService

ROWS = 40_000
THRESHOLDS = [100 * i for i in range(1, 21)]


class Reading:
    __slots__ = ("sensor", "value")

    def __init__(self, sensor, value):
        self.sensor = sensor
        self.value = value


def generate(n=ROWS):
    return [Reading(sensor=i % 50, value=(i * 7919) % 10_000) for i in range(n)]


def main() -> None:
    provider = QueryProvider()
    service = QueryService(provider=provider)
    readings = generate()

    def shape(session):
        return (
            session.query(readings)
            .where(lambda r: r.value > P("floor"))
            .select(lambda r: r.value)
        )

    # -- ad-hoc: one execute per parameter choice -----------------------------
    with service.session(engine="compiled") as session:
        compile_before = METRICS.counter("compile.compiled.count").value
        started = time.perf_counter()
        adhoc_rows = 0
        for floor in THRESHOLDS:
            adhoc_rows += len(
                session.execute(shape(session).with_params(floor=floor))
            )
        adhoc_seconds = time.perf_counter() - started
        stats = provider.cache.stats
        print(
            f"ad-hoc: {len(THRESHOLDS)} executions, {adhoc_rows} rows, "
            f"{adhoc_seconds * 1e3:.1f} ms"
        )
        print(
            f"  query cache: {stats.hits} hits / {stats.misses} misses "
            f"(hit rate {stats.hit_rate:.0%}) — "
            f"compilations: "
            f"{METRICS.counter('compile.compiled.count').value - compile_before}"
        )

    # -- prepared: compile once, bind many ------------------------------------
    with service.session(engine="compiled") as session:
        compile_before = METRICS.counter("compile.compiled.count").value
        statement = session.prepare(shape(session))
        started = time.perf_counter()
        prepared_rows = 0
        for floor in THRESHOLDS:
            prepared_rows += len(statement.bind(floor=floor).execute())
        prepared_seconds = time.perf_counter() - started
        compiles = METRICS.counter("compile.compiled.count").value - compile_before
        print(
            f"prepared: {len(THRESHOLDS)} executions, {prepared_rows} rows, "
            f"{prepared_seconds * 1e3:.1f} ms"
        )
        print(
            f"  compiled once: {compiles == 0} "
            "(the prepare itself reused the ad-hoc cache entry); "
            f"speedup vs ad-hoc {adhoc_seconds / prepared_seconds:.2f}x"
        )
        assert prepared_rows == adhoc_rows, "prepared must agree with ad-hoc"

    # -- deadlines: a query that exceeds its budget is cancelled ---------------
    with service.session(engine="linq") as session:
        doomed = (
            session.query(generate(200_000))
            .where(lambda r: r.value % 7 > 2)
            .select(lambda r: r.value)
        )
        from repro.errors import QueryTimeoutError

        started = time.perf_counter()
        try:
            session.execute(doomed, timeout=0.02)
            print("deadline: query finished inside its budget")
        except QueryTimeoutError:
            elapsed = time.perf_counter() - started
            print(
                f"deadline: QueryTimeoutError after {elapsed * 1e3:.1f} ms "
                "(budget was 20 ms)"
            )

    queue_wait = METRICS.histogram("service.queue_wait_seconds")
    print(
        f"admission: {METRICS.counter('service.admitted').value} admitted, "
        f"mean queue wait "
        f"{(queue_wait.sum / queue_wait.count if queue_wait.count else 0.0) * 1e3:.2f} ms"
    )


if __name__ == "__main__":
    main()
