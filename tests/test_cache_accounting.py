"""The query cache as one LRU of per-shape records, on its public surface.

``QueryCache`` bounds *compiled artifacts* (sequential + partial-kernel,
summed over records); ``len``, ``stats`` and ``resident()`` are everything
these tests read.  Pinned here: hit/miss/eviction accounting at the unit
and the provider level, that a record — analysis, plan, IR, facts and every
engine's artifacts — is the unit of eviction, that each stage of the
pipeline runs once per shape however many engines ask, that nothing
per-shape survives outside the bounded cache, and that a tree's canonical
form lives on that tree and nowhere else.
"""

import gc
import operator
import threading
import weakref

import repro.expressions.canonical as canonical_module
import repro.query.provider as provider_module
from repro import P, new
from repro.expressions import Constant, ExprProxy
from repro.observability.tracer import TRACER
from repro.query import QueryCache, QueryProvider, from_iterable
from repro.storage import Field, Schema, StructArray

SCHEMA = Schema([Field("x", "int"), Field("y", "float")], name="Acct")
ARRAY = StructArray.from_rows(SCHEMA, [(i, i * 0.5) for i in range(20)])
OBJECTS = ARRAY.to_objects()

SEQ = ("compiled", "sequential", True, ())


class _FakeCompiled:
    """Stand-in artifact; the cache never inspects what it stores."""


def _admit(cache, key, artifact_key=SEQ):
    record = cache.record(key)
    cache.admit(record, artifact_key, _FakeCompiled())
    return record


def _names(spans):
    return [s.name for s in spans]


_OPS = (operator.gt, operator.lt, operator.ge, operator.le, operator.ne)


def _distinct_shape(base, i):
    """The *i*-th of 300 structurally distinct queries (5 comparison
    operators x 6 projection widths x 10 filter depths)."""
    op, width, depth = _OPS[i % 5], (i // 5) % 6 + 1, i // 30 + 1
    query = base
    for _ in range(depth):
        query = query.where(lambda r: op(r.x, 3))
    return query.select(lambda r: new(**{f"c{j}": r.y for j in range(width)}))


class TestRecordLRU:
    def test_admit_then_find(self):
        cache = QueryCache()
        record = cache.record("k")
        assert cache.find(record, SEQ) is None
        cache.admit(record, SEQ, _FakeCompiled())
        assert cache.find(record, SEQ) is not None
        assert cache.record("k") is record
        # lookups themselves never count; the provider accounts one
        # hit-or-miss per execution through count()
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        cache.count(hit=False)
        cache.count(hit=True)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_eviction_counted_per_artifact(self):
        cache = QueryCache(max_entries=2)
        for i in range(5):
            _admit(cache, i)
        assert len(cache) == 2
        assert cache.stats.evictions == 3
        assert len(cache.resident()) == 2

    def test_lru_refresh_protects_from_eviction(self):
        cache = QueryCache(max_entries=2)
        a = _admit(cache, "a")
        b = _admit(cache, "b")
        cache.record("a")  # refresh: b is now the LRU victim
        _admit(cache, "c")
        assert cache.find(a, SEQ) is not None
        assert cache.find(b, SEQ) is None
        assert cache.stats.evictions == 1

    def test_budget_counts_artifacts_not_records(self):
        # one record holding three engines' artifacts fills a budget of
        # three; the next shape evicts that record whole
        cache = QueryCache(max_entries=3)
        record = cache.record("s")
        for engine in ("compiled", "native", "hybrid"):
            cache.admit(record, (engine, "sequential", True, ()), _FakeCompiled())
        assert len(cache) == 3
        _admit(cache, "t")
        assert len(cache) == 1
        assert cache.stats.evictions == 3
        assert cache.resident() == [(("compiled", "sequential"),)]

    def test_one_oversized_record_sheds_its_oldest_artifacts(self):
        cache = QueryCache(max_entries=2)
        record = cache.record("s")
        for engine in ("compiled", "native", "hybrid"):
            cache.admit(record, (engine, "sequential", True, ()), _FakeCompiled())
        assert cache.resident() == [
            (("native", "sequential"), ("hybrid", "sequential"))
        ]
        assert cache.stats.evictions == 1

    def test_artifactless_records_are_bounded_too(self):
        # linq-only (or failing) shapes hold an analysis but no artifact;
        # they must not accumulate past the budget either
        cache = QueryCache(max_entries=4)
        for i in range(50):
            cache.record(i)
        assert len(cache.resident()) == 4
        assert len(cache) == 0

    def test_record_evicted_while_compiling_is_reinstated(self):
        cache = QueryCache(max_entries=1)
        held = cache.record("a")
        _admit(cache, "b")  # evicts the empty record "a"
        cache.admit(held, SEQ, _FakeCompiled())
        assert cache.record("a") is held
        assert cache.find(held, SEQ) is not None
        assert len(cache) == 1


class TestStatsLifecycle:
    def test_hit_rate(self):
        cache = QueryCache()
        cache.count(hit=False)
        cache.count(hit=True)
        assert cache.stats.hit_rate == 0.5

    def test_hit_rate_empty(self):
        assert QueryCache().stats.hit_rate == 0.0

    def test_clear_resets_everything(self):
        cache = QueryCache(max_entries=1)
        _admit(cache, "a")
        _admit(cache, "b")
        cache.count(hit=True)
        cache.count_analysis(hit=False)
        cache.clear()
        assert len(cache) == 0
        assert cache.resident() == []
        stats = cache.stats
        assert (
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.analysis_hits,
            stats.analysis_misses,
        ) == (0, 0, 0, 0, 0)


class TestProviderLevelAccounting:
    def test_linq_reuses_cached_analysis(self):
        provider = QueryProvider()
        q = (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("linq", provider)
            .where(lambda r: r.x > 3)
        )
        list(q)
        list(q)
        stats = provider.cache.stats
        assert stats.analysis_misses == 1
        assert stats.analysis_hits == 1
        assert stats.misses == 0  # linq never asks for a compiled artifact
        assert provider.cache.resident() == [()]  # a record, no artifact

    def test_compiled_engine_counts_both_kinds(self):
        provider = QueryProvider()
        q = (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider)
            .where(lambda r: r.x > 3)
            .in_parallel(1)
        )
        list(q)  # compiled miss + analysis miss (inside the compilation)
        list(q)  # compiled hit; analysis not consulted again
        stats = provider.cache.stats
        assert (stats.misses, stats.hits) == (1, 1)
        assert (stats.analysis_misses, stats.analysis_hits) == (1, 0)

    def test_analysis_shared_across_engines(self):
        provider = QueryProvider()

        def q(engine):
            return (
                from_iterable(OBJECTS, schema=SCHEMA)
                .using(engine, provider)
                .where(lambda r: r.x > 3)
                .select(lambda r: r.y)
                .in_parallel(1)
            )

        list(q("compiled"))
        list(q("hybrid"))  # second engine: new compilation, cached analysis
        stats = provider.cache.stats
        assert stats.misses == 2
        assert stats.analysis_misses == 1
        assert stats.analysis_hits == 1
        assert provider.cache.resident() == [
            (("compiled", "sequential"), ("hybrid", "sequential"))
        ]

    def test_a_record_lacking_the_engines_artifact_is_a_miss(self):
        provider = QueryProvider()
        query = from_iterable(ARRAY).using("compiled", provider).where(
            lambda r: r.x > 3
        )
        provider.compile_info(query.expr, list(query.sources), "compiled")
        provider.compile_info(query.expr, list(query.sources), "native")
        provider.compile_info(query.expr, list(query.sources), "native")
        stats = provider.cache.stats
        assert (stats.misses, stats.hits) == (2, 1)

    def test_each_stage_runs_once_per_shape(self):
        # one shape, three engines: the engine-independent stages run
        # once; only codegen runs per engine
        provider = QueryProvider()
        with TRACER.capture() as spans:
            for engine in ("compiled", "native", "hybrid"):
                (
                    from_iterable(ARRAY)
                    .using(engine, provider)
                    .where(lambda r: r.x > 3)
                    .select(lambda r: r.y)
                    .in_parallel(1)
                    .to_list()
                )
        names = _names(spans)
        assert names.count("query.optimize") == 1
        assert names.count("query.lower") == 1
        assert names.count("query.analyze_dataflow") == 1
        assert names.count("query.compile") == 3

    def test_warm_parallel_execution_canonicalizes_once(self, monkeypatch):
        provider = QueryProvider()
        query = (
            from_iterable(ARRAY)
            .using("compiled", provider)
            .select(lambda r: r.y)
            .in_parallel(2, 7)
        )
        query.to_list()
        calls = []
        original = provider_module.canonicalize

        def counting(expr):
            calls.append(expr)
            return original(expr)

        monkeypatch.setattr(provider_module, "canonicalize", counting)
        query.to_list()
        assert len(calls) == 1

    def test_one_compilation_under_contention(self):
        # ten threads race the same cold query: the record's lock
        # serializes them (one compile, everyone else hits)
        provider = QueryProvider()
        query = (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider)
            .where(lambda r: r.x > 3)
            .in_parallel(1)
        )
        barrier = threading.Barrier(10)
        errors = []

        def run():
            try:
                barrier.wait(timeout=30)
                assert query.to_list()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert provider.cache.stats.misses == 1
        assert provider.cache.stats.hits == 9
        assert len(provider.cache) == 1


class TestRecordIsTheUnitOfEviction:
    """Evicting a record drops everything derived from its shape — there
    is no side table to keep coherent, and so none to leak."""

    def _base(self, provider, engine="compiled"):
        return (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using(engine, provider)
            .in_parallel(1)
        )

    def test_records_bounded_by_the_artifact_budget(self):
        provider = QueryProvider(cache=QueryCache(max_entries=2))
        shapes = [
            lambda q: q.where(lambda r: r.x > 3),
            lambda q: q.where(lambda r: r.x < 3),
            lambda q: q.select(lambda r: r.y),
            lambda q: q.where(lambda r: r.x >= 3).select(lambda r: r.y),
            lambda q: q.order_by(lambda r: r.y),
        ]
        for shape in shapes:
            shape(self._base(provider)).to_list()
        assert len(provider.cache) == 2
        assert provider.cache.resident() == [(("compiled", "sequential"),)] * 2
        assert provider.cache.stats.evictions == 3

    def test_evicted_shape_derives_everything_again(self):
        provider = QueryProvider(cache=QueryCache(max_entries=1))
        query = self._base(provider).where(lambda r: r.x > 3)
        query.to_list()
        with TRACER.capture() as warm:
            query.to_list()
        assert "query.lower" not in _names(warm)
        self._base(provider).select(lambda r: r.y).to_list()  # evicts it
        with TRACER.capture() as cold:
            query.to_list()
        names = _names(cold)
        for stage in ("query.analyze", "query.optimize", "query.lower"):
            assert names.count(stage) == 1
        assert provider.cache.stats.misses == 3
        assert len(provider.cache.resident()) == 1

    def test_engines_of_one_shape_leave_together(self):
        provider = QueryProvider(cache=QueryCache(max_entries=2))

        def same_query(engine):
            # a shape the hybrid engine accepts (flat field access)
            return (
                self._base(provider, engine)
                .where(lambda r: r.x > 3)
                .select(lambda r: r.y)
            )

        same_query("compiled").to_list()
        same_query("hybrid").to_list()
        assert len(provider.cache.resident()) == 1
        # a third artifact overflows the budget of two: the older record
        # goes whole, both engines with it
        self._base(provider).select(lambda r: r.y).to_list()
        assert provider.cache.resident() == [(("compiled", "sequential"),)]
        assert provider.cache.stats.evictions == 2
        misses = provider.cache.stats.misses
        same_query("hybrid").to_list()
        assert provider.cache.stats.misses == misses + 1

    def test_no_per_shape_state_outside_the_bounded_cache(self):
        # 300 distinct shapes, each run with thread workers (a sequential
        # and a partial artifact apiece) through a budget of eight
        provider = QueryProvider(cache=QueryCache(max_entries=8))
        base = from_iterable(ARRAY).using("compiled", provider)
        seen = set()
        for i in range(300):
            query = _distinct_shape(base, i).in_parallel(2, 7)
            seen.add(provider.shape(query.expr, list(query.sources)).record.key)
            assert query.to_list()
        assert len(seen) == 300
        cache = provider.cache
        assert len(cache) <= 8
        assert len(cache.resident()) <= 8
        assert sum(len(held) for held in cache.resident()) == len(cache)
        assert {kind for held in cache.resident() for _, kind in held} == {
            "sequential",
            "threads",
        }
        # ... and the provider itself holds nothing that grows with the
        # number of shapes it has seen
        for name, value in vars(provider).items():
            if name != "cache" and hasattr(value, "__len__"):
                assert len(value) == 0, name


class TestCanonicalMemo:
    """A tree keeps its canonical form: re-executing it (``with_params``,
    reuse) reads the memo instead of walking the tree again."""

    def test_a_mutated_list_constant_is_refolded(self):
        provider = QueryProvider()
        wanted = []
        # `7 in wanted` folds to a constant: a memo would freeze it
        query = (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider)
            .in_parallel(1)
            .where(lambda r: (r.x > 15) & ExprProxy(Constant(wanted)).contains(7))
        )
        assert query.to_list() == []
        wanted.append(7)
        assert [r.x for r in query.to_list()] == [16, 17, 18, 19]
        assert query.expr._canonical is None

    def test_with_params_reexecutions_hit_without_rewalking(self, monkeypatch):
        provider = QueryProvider()
        base = (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider)
            .in_parallel(1)
            .where(lambda r: (r.x > P("t")) & (r.y < 100.0))
        )
        base.with_params(t=0).to_list()
        walks = []

        class Counting(canonical_module._Canonicalizer):
            def __init__(self):
                walks.append(1)
                super().__init__()

        monkeypatch.setattr(canonical_module, "_Canonicalizer", Counting)
        for t in range(5):
            assert len(base.with_params(t=t).to_list()) == 19 - t
        stats = provider.cache.stats
        assert (stats.misses, stats.hits) == (1, 5)
        assert walks == []

    def test_memo_dies_with_its_tree(self):
        provider = QueryProvider()
        base = from_iterable(ARRAY).using("compiled", provider).in_parallel(1)
        memos = []
        for i in range(1000):
            query = base.where(lambda r: r.x > i % 7).select(lambda r: r.y * 2.0)
            assert query.to_list()
            memos.append(weakref.ref(query.expr._canonical))
            del query
        gc.collect()
        assert [ref for ref in memos if ref() is not None] == []
