"""Concurrency stress: one shared QueryProvider hammered from many threads.

The provider's find-or-compile sequence and the QueryCache's LRU state are
shared mutable state; these tests drive them from 8+ threads with a mix of
cache-hitting and cache-missing queries and assert

* every thread always observes correct results (no torn artifacts),
* ``CacheStats`` counters stay exactly consistent (no lost updates), and
* a query compiles exactly once no matter how many threads race to it
  (per-shape compile locking — no duplicate-compilation races).
"""

import threading

import pytest

from repro import new
from repro.observability.metrics import METRICS
from repro.query import QueryCache, QueryProvider, from_iterable
from repro.storage import Field, Schema, StructArray

SCHEMA = Schema(
    [Field("x", "int"), Field("y", "float"), Field("tag", "str", 4)],
    name="Stress",
)

ROWS = [(i, (i % 13) * 0.5, ["aa", "bb", "cc"][i % 3]) for i in range(300)]
OBJECTS = StructArray.from_rows(SCHEMA, ROWS).to_objects()

#: distinct query shapes; thresholds canonicalize to parameters, so every
#: shape is exactly one cache entry regardless of the constant used
SHAPE_COUNT = 6


def _query(provider, shape, threshold):
    # pinned sequential: the exact artifact counts below would otherwise
    # include the partial kernels REPRO_PARALLELISM asks for
    base = (
        from_iterable(OBJECTS, schema=SCHEMA)
        .using("compiled", provider)
        .in_parallel(1)
    )
    if shape == 0:
        return ("rows", base.where(lambda r: r.x > threshold))
    if shape == 1:
        return ("rows", base.select(lambda r: new(x=r.x, z=r.y + r.y)))
    if shape == 2:
        return (
            "rows",
            base.group_by(
                lambda r: r.tag, lambda g: new(k=g.key, n=g.count())
            ),
        )
    if shape == 3:
        return ("rows", base.select(lambda r: r.tag).distinct())
    if shape == 4:
        return ("scalar", base.where(lambda r: r.x < threshold))
    return ("scalar", base.where(lambda r: r.tag == "aa"))


def _expected(shape, threshold):
    if shape == 0:
        return [o for o in OBJECTS if o.x > threshold]
    if shape == 1:
        return [(o.x, o.y + o.y) for o in OBJECTS]
    if shape == 2:
        counts = {}
        for o in OBJECTS:
            counts[o.tag] = counts.get(o.tag, 0) + 1
        return list(counts.items())
    if shape == 3:
        seen = []
        for o in OBJECTS:
            if o.tag not in seen:
                seen.append(o.tag)
        return seen
    if shape == 4:
        return sum(1 for o in OBJECTS if o.x < threshold)
    return sum(o.y for o in OBJECTS if o.tag == "aa")


def _run_one(provider, shape, threshold):
    kind, q = _query(provider, shape, threshold)
    if kind == "scalar":
        if shape == 4:
            return q.count()
        return q.sum(lambda r: r.y)
    result = list(q)
    if shape == 1:
        return [(row.x, row.z) for row in result]
    if shape == 2:
        return [(row.k, row.n) for row in result]
    return result


class _CompileCount:
    """Compilations since construction, by the program's own counter
    (``compile.compiled.count`` moves once per backend compilation)."""

    def __init__(self):
        self._counter = METRICS.counter("compile.compiled.count")
        self._before = self._counter.value

    @property
    def n(self):
        return self._counter.value - self._before


@pytest.mark.parametrize("repetition", range(3))
def test_shared_provider_stress(repetition):
    provider = QueryProvider()
    compiles = _CompileCount()
    n_threads = 10
    iterations = 25
    failures = []
    barrier = threading.Barrier(n_threads)

    def worker(tid):
        barrier.wait()  # maximize racing on the cold cache
        for i in range(iterations):
            shape = (tid + i) % SHAPE_COUNT
            threshold = (tid * 31 + i * 7) % 250
            try:
                got = _run_one(provider, shape, threshold)
                want = _expected(shape, threshold)
                if got != want:
                    failures.append((tid, shape, threshold, got, want))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append((tid, shape, threshold, repr(exc)))

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not failures, failures[:5]

    stats = provider.cache.stats
    executions = n_threads * iterations
    # exactly one cache probe per execution — hits + misses must balance
    # even under contention (a lost update would break this sum)
    assert stats.hits + stats.misses == executions
    # per-shape locking: each of the 6 shapes compiled exactly once, no
    # matter that 10 threads raced to a cold cache
    assert compiles.n == SHAPE_COUNT
    assert stats.misses == SHAPE_COUNT
    assert stats.hits == executions - SHAPE_COUNT
    assert stats.evictions == 0
    assert len(provider.cache) == SHAPE_COUNT


def test_cold_cache_single_compilation_race():
    """All threads race to one uncompiled query: exactly one compile."""
    provider = QueryProvider()
    compiles = _CompileCount()
    n_threads = 12
    barrier = threading.Barrier(n_threads)
    results = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        got = _run_one(provider, 0, 150)
        with lock:
            results.append(got)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    want = _expected(0, 150)
    assert all(r == want for r in results)
    assert compiles.n == 1
    assert provider.cache.stats.misses == 1
    assert provider.cache.stats.hits == n_threads - 1


@pytest.mark.parametrize("repetition", range(2))
def test_stress_under_eviction(repetition):
    """A tiny cache forces evict/recompile churn; stats stay consistent."""
    provider = QueryProvider(cache=QueryCache(max_entries=3))
    compiles = _CompileCount()
    n_threads = 8
    iterations = 20
    failures = []
    barrier = threading.Barrier(n_threads)

    def worker(tid):
        barrier.wait()
        for i in range(iterations):
            shape = (tid * 5 + i) % SHAPE_COUNT
            threshold = (tid + i * 11) % 250
            try:
                got = _run_one(provider, shape, threshold)
                want = _expected(shape, threshold)
                if got != want:
                    failures.append((tid, shape, threshold))
            except Exception as exc:  # noqa: BLE001
                failures.append((tid, shape, threshold, repr(exc)))

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not failures, failures[:5]
    stats = provider.cache.stats
    executions = n_threads * iterations
    assert stats.hits + stats.misses == executions
    # every miss compiled (eviction forces recompilation, never corruption)
    assert compiles.n == stats.misses
    assert len(provider.cache) <= 3
    # eviction accounting is exact: artifacts compiled minus artifacts
    # still resident equals artifacts evicted
    assert sum(len(held) for held in provider.cache.resident()) == len(
        provider.cache
    )
    assert stats.evictions == stats.misses - len(provider.cache)


def test_parallel_execution_from_many_threads():
    """Threads running *parallel* queries nest worker pools safely."""
    provider = QueryProvider()
    n_threads = 8
    failures = []
    barrier = threading.Barrier(n_threads)
    base = from_iterable(OBJECTS, schema=SCHEMA).using("compiled", provider)
    q = base.group_by(
        lambda r: r.tag, lambda g: new(k=g.key, t=g.sum(lambda r: r.y))
    )
    want = list(q)

    def worker(tid):
        barrier.wait()
        for _ in range(10):
            got = list(q.in_parallel(2 + tid % 3, 29))
            if got != want:
                failures.append((tid, got))

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures, failures[:3]
