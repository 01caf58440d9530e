"""Tests for the Query surface, QList, provider dispatch and the cache."""

from types import SimpleNamespace

import pytest

from repro.errors import ExecutionError, TraceError, TranslationError
from repro.expressions import P, new
from repro.query import (
    ENGINES,
    QList,
    QueryCache,
    QueryProvider,
    from_iterable,
    from_struct_array,
)
from repro.storage import Field, Schema, StructArray


def item(**kw):
    return SimpleNamespace(**kw)


ITEMS = [item(x=1, name="a"), item(x=2, name="b"), item(x=3, name="a")]


class TestSources:
    def test_from_iterable_rejects_one_shot_iterators(self):
        with pytest.raises(ExecutionError, match="re-iterable"):
            from_iterable(iter(ITEMS))

    def test_token_derived_from_element_type(self):
        q = from_iterable(ITEMS)
        assert q.expr.schema_token == "obj:SimpleNamespace"

    def test_explicit_token_wins(self):
        q = from_iterable(ITEMS, token="my:token")
        assert q.expr.schema_token == "my:token"

    def test_empty_collection_token(self):
        assert from_iterable([]).expr.schema_token == "obj:empty"

    def test_struct_array_token_is_schema_token(self):
        schema = Schema([Field("x", "int")], name="T")
        array = StructArray.from_rows(schema, [(1,)])
        assert from_struct_array(array).expr.schema_token == schema.token


class TestQList:
    def test_wraps_and_queries(self):
        ql = QList(ITEMS)
        assert ql.where(lambda s: s.x > 1).count() == 2
        assert ql.select(lambda s: s.x).to_list() == [1, 2, 3]
        assert [r.x for r in ql.order_by(lambda s: -s.x)] == [3, 2, 1]

    def test_group_by_shortcut(self):
        rows = QList(ITEMS).group_by(
            lambda s: s.name, lambda g: new(name=g.key, n=g.count())
        ).to_list()
        assert {(r.name, r.n) for r in rows} == {("a", 2), ("b", 1)}

    def test_is_still_a_list(self):
        ql = QList([1, 2, 3])
        ql.append(4)
        assert len(ql) == 4


class TestImmutability:
    def test_operators_return_new_queries(self):
        q = from_iterable(ITEMS)
        filtered = q.where(lambda s: s.x > 1)
        assert q is not filtered
        assert q.count() == 3 and filtered.count() == 2

    def test_with_params_does_not_mutate(self):
        q = from_iterable(ITEMS).where(lambda s: s.x > P("t"))
        bound = q.with_params(t=1)
        assert bound.params == {"t": 1}
        assert q.params == {}

    def test_using_switches_engine(self):
        q = from_iterable(ITEMS)
        assert q.engine == "compiled"
        assert q.using("linq").engine == "linq"


class TestJoinSourceMerging:
    def test_ordinals_shift(self):
        left = from_iterable(ITEMS, token="t:L")
        right = from_iterable([item(x=1, y=9)], token="t:R")
        joined = left.join(
            right, lambda a: a.x, lambda b: b.x, lambda a, b: new(x=a.x, y=b.y)
        )
        assert len(joined.sources) == 2
        rows = joined.to_list()
        assert [(r.x, r.y) for r in rows] == [(1, 9)]

    def test_three_way_join_sources(self):
        a = from_iterable([item(k=1)], token="t:A")
        b = from_iterable([item(k=1)], token="t:B")
        c = from_iterable([item(k=1)], token="t:C")
        joined = a.join(
            b.join(c, lambda x: x.k, lambda y: y.k, lambda x, y: new(k=x.k)),
            lambda x: x.k,
            lambda y: y.k,
            lambda x, y: new(k=x.k),
        )
        assert len(joined.sources) == 3
        assert joined.count() == 1

    def test_join_non_query_rejected(self):
        with pytest.raises(TranslationError, match="must be a Query"):
            from_iterable(ITEMS).join(
                [1, 2], lambda a: a.x, lambda b: b, lambda a, b: a
            )


class TestProviderDispatch:
    def test_explain_shows_plan(self):
        q = from_iterable(ITEMS).where(lambda s: s.x > 1).take(1)
        text = q.explain()
        assert "Filter" in text and "Limit" in text

    def test_explain_linq(self):
        assert "interpreted" in from_iterable(ITEMS).using("linq").explain()

    def test_scalar_query_through_iteration_rejected(self):
        provider = QueryProvider()
        from repro.expressions.nodes import QueryOp

        q = from_iterable(ITEMS).using("compiled", provider)
        count_expr = QueryOp("count", q.expr, ())
        with pytest.raises(ExecutionError, match="scalar"):
            provider.execute(count_expr, list(q.sources), "compiled", {})

    def test_engines_constant_lists_all(self):
        assert set(ENGINES) >= {
            "linq", "compiled", "native", "hybrid", "hybrid_buffered",
        }


class TestCacheBehaviour:
    def test_same_shape_different_constants_one_compile(self):
        provider = QueryProvider()
        base = from_iterable(ITEMS, token="t:C").using("compiled", provider)
        base.where(lambda s: s.x > 1).to_list()
        base.where(lambda s: s.x > 2).to_list()
        base.where(lambda s: s.x > 999).to_list()
        assert provider.cache.stats.misses == 1
        assert provider.cache.stats.hits == 2

    def test_different_engines_separate_entries(self):
        provider = QueryProvider()
        objs = from_iterable(ITEMS, token="t:E").using("compiled", provider)
        assert objs.sum(lambda s: s.x) == objs.using("hybrid", provider).sum(
            lambda s: s.x
        )
        assert provider.cache.stats.misses == 2

    def test_different_shapes_separate_entries(self):
        provider = QueryProvider()
        base = from_iterable(ITEMS, token="t:S").using("compiled", provider)
        base.where(lambda s: s.x > 1).to_list()
        base.where(lambda s: s.x < 1).to_list()
        assert provider.cache.stats.misses == 2

    def test_lru_eviction(self):
        cache = QueryCache(max_entries=2)
        provider = QueryProvider(cache=cache)
        # pinned sequential: REPRO_PARALLELISM would add partial kernels,
        # which the artifact budget counts too
        base = (
            from_iterable(ITEMS, token="t:LRU")
            .using("compiled", provider)
            .in_parallel(1)
        )
        base.where(lambda s: s.x > 1).to_list()       # A
        base.select(lambda s: s.x).to_list()          # B
        base.order_by(lambda s: s.x).to_list()        # C evicts A
        # one eviction: A's record went whole, and it held one artifact
        assert cache.stats.evictions == 1
        base.where(lambda s: s.x > 1).to_list()       # A again: miss
        assert cache.stats.misses == 4

    def test_cache_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=0)

    def test_clear_resets(self):
        cache = QueryCache()
        provider = QueryProvider(cache=cache)
        from_iterable(ITEMS, token="t:clear").using("compiled", provider).count()
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 0


class TestErrorPropagation:
    def test_trace_error_at_definition_time(self):
        q = from_iterable(ITEMS)
        with pytest.raises(TraceError):
            q.where(lambda s: s.x > 1 and s.x < 3)  # `and` is untraceable

    def test_missing_param_at_execution(self):
        q = from_iterable(ITEMS).where(lambda s: s.x > P("missing"))
        with pytest.raises(KeyError):
            q.to_list()

    def test_missing_attribute_at_analysis(self):
        # the static analyzer rejects the unknown member before codegen
        # (previously this surfaced as an AttributeError out of the
        # generated code at execution time)
        from repro.errors import QueryAnalysisError

        q = from_iterable(ITEMS).using("compiled").select(lambda s: s.nope)
        with pytest.raises(QueryAnalysisError, match="no member 'nope'"):
            q.to_list()

    def test_repr(self):
        q = from_iterable(ITEMS)
        assert "Query(" in repr(q)


class TestSelectMany:
    def test_flattens(self):
        data = [item(name="a", tags=["x", "y"]), item(name="b", tags=["z"])]
        for engine in ("linq", "compiled"):
            q = from_iterable(data, token="t:sm").using(engine)
            flat = q.select_many(lambda s: s.tags).to_list()
            assert flat == ["x", "y", "z"], engine

    def test_result_selector(self):
        data = [item(name="a", tags=["x", "y"])]
        for engine in ("linq", "compiled"):
            q = from_iterable(data, token="t:sm2").using(engine)
            rows = q.select_many(
                lambda s: s.tags, lambda s, t: new(name=s.name, tag=t)
            ).to_list()
            assert [(r.name, r.tag) for r in rows] == [("a", "x"), ("a", "y")], engine


class TestConcatUnion:
    def test_concat(self):
        a = from_iterable([item(x=1)], token="t:ca")
        b = from_iterable([item(x=2)], token="t:cb")
        for engine in ("linq", "compiled"):
            assert [r.x for r in a.using(engine).concat(b)] == [1, 2], engine

    def test_union_deduplicates(self):
        a = from_iterable([1, 2], token="t:ua")
        b = from_iterable([2, 3], token="t:ub")
        for engine in ("linq", "compiled"):
            assert a.using(engine).union(b).to_list() == [1, 2, 3], engine

    def test_union_all_keeps_duplicates(self):
        a = from_iterable([1, 2, 2], token="t:uaa")
        b = from_iterable([2, 3], token="t:uab")
        for engine in ("linq", "compiled"):
            got = a.using(engine).union_all(b).to_list()
            assert got == [1, 2, 2, 2, 3], engine

    def test_union_and_union_all_differ_on_duplicates(self):
        # the regression the explicit bag/set split exists for: the two
        # spellings must never silently alias each other
        a = from_iterable([1, 1, 2], token="t:uda")
        b = from_iterable([1, 3], token="t:udb")
        distinct = a.union(b).to_list()
        bag = a.union_all(b).to_list()
        assert distinct == [1, 2, 3]
        assert bag == [1, 1, 2, 1, 3]

    def test_union_all_true_kwarg_deprecated(self):
        a = from_iterable([1, 2], token="t:uka")
        b = from_iterable([2, 3], token="t:ukb")
        with pytest.warns(DeprecationWarning, match="union_all"):
            got = a.union(b, all=True).to_list()
        assert got == [1, 2, 2, 3]

    def test_union_default_emits_no_warning(self):
        import warnings

        a = from_iterable([1, 2], token="t:uwa")
        b = from_iterable([2, 3], token="t:uwb")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert a.union(b).to_list() == [1, 2, 3]

    def test_intersect_and_except_bag_counts(self):
        a = from_iterable([1, 1, 2, 3, 3, 3], token="t:iba")
        b = from_iterable([1, 3, 3], token="t:ibb")
        for engine in ("linq", "compiled"):
            assert a.using(engine).intersect(b).to_list() == [1, 3, 3], engine
            assert a.using(engine).except_(b).to_list() == [1, 2, 3], engine

    def test_setop_non_query_operand_rejected(self):
        a = from_iterable([1, 2], token="t:sqa")
        with pytest.raises(TranslationError):
            a.union_all([3, 4])


class TestMoreTerminals:
    def _q(self, engine="compiled"):
        return from_iterable(ITEMS, token="t:more").using(engine)

    def test_single(self):
        assert self._q().single(lambda s: s.x == 2).name == "b"

    def test_single_rejects_multiple(self):
        with pytest.raises(ExecutionError, match="more than one"):
            self._q().single(lambda s: s.name == "a")

    def test_single_rejects_empty(self):
        with pytest.raises(ExecutionError, match="no matching"):
            self._q().single(lambda s: s.x == 99)

    def test_element_at(self):
        assert self._q().select(lambda s: s.x).element_at(1) == 2

    def test_element_at_out_of_range(self):
        with pytest.raises(ExecutionError, match="no element at index"):
            self._q().element_at(99)

    def test_element_at_negative(self):
        with pytest.raises(ExecutionError, match="non-negative"):
            self._q().element_at(-1)

    def test_reverse(self):
        assert self._q().select(lambda s: s.x).reverse() == [3, 2, 1]

    def test_to_dict(self):
        mapping = self._q().where(lambda s: s.x < 3).to_dict(
            key=lambda r: r.x, value=lambda r: r.name
        )
        assert mapping == {1: "a", 2: "b"}

    def test_to_dict_duplicate_keys(self):
        with pytest.raises(ExecutionError, match="duplicate key"):
            self._q().to_dict(key=lambda r: r.name)

    def test_aggregate_fold(self):
        total = self._q().select(lambda s: s.x).aggregate(0, lambda acc, x: acc + x)
        assert total == 6


class TestProviderThreadSafety:
    def test_concurrent_first_compilations_share_one_entry(self):
        import threading

        provider = QueryProvider()
        source = [item(x=i) for i in range(1000)]
        results = []
        errors = []

        def work():
            try:
                q = (
                    from_iterable(source, token="t:threads")
                    .using("compiled", provider)
                    .where(lambda s: s.x > 500)
                )
                results.append(q.count())
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == [499] * 8
        # the lock serialized compilation: one record, compiled once
        assert len(provider.cache.resident()) == 1
        assert provider.cache.stats.misses == 1
