"""Tests for the §9 future-work extensions: indexes, statistics, recycling."""

import datetime
from types import SimpleNamespace

import pytest

from repro import P
from repro.plans import ColumnStats, TableStats, estimate_selectivity
from repro.plans.optimizer import optimize
from repro.plans.translate import translate
from repro.query import QueryProvider, from_iterable, from_struct_array
from repro.query.recycler import RecyclingProvider
from repro.storage import Field, HashIndex, Schema, StructArray


def item(**kw):
    return SimpleNamespace(**kw)


ROW = Schema(
    [Field("k", "int"), Field("tag", "str", 4), Field("v", "float")],
    name="Row",
)


def make_array(n=1000):
    return StructArray.from_rows(
        ROW, [(i % 50, ["aa", "bb"][i % 2], float(i)) for i in range(n)]
    )


# ---------------------------------------------------------------------------
# hash indexes
# ---------------------------------------------------------------------------


class TestHashIndex:
    def test_lookup_positions(self):
        array = make_array(200)
        index = HashIndex(array, "k")
        positions = index.lookup(7)
        assert list(positions) == [7, 57, 107, 157]
        assert len(index) == 50

    def test_lookup_miss(self):
        index = HashIndex(make_array(10), "k")
        assert len(index.lookup(999)) == 0

    def test_string_lookup_encodes(self):
        index = HashIndex(make_array(10), "tag")
        assert list(index.lookup("aa")) == [0, 2, 4, 6, 8]

    def test_create_index_registers_and_caches(self):
        array = make_array(10)
        first = array.create_index("k")
        second = array.create_index("k")
        assert first is second
        assert array.get_index("k") is first
        assert array.get_index("v") is None

    def test_native_filter_uses_index(self):
        array = make_array(1000)
        array.create_index("k")
        provider = QueryProvider()
        query = (
            from_struct_array(array)
            .using("native", provider)
            .where(lambda s: s.k == P("key"))
            .with_params(key=3)
        )
        info = provider.compile_info(query.expr, [array], "native")
        assert ".lookup(" in info.source_code
        assert query.count() == 20

    def test_index_with_residual_predicate(self):
        array = make_array(1000)
        array.create_index("k")
        query = (
            from_struct_array(array)
            .where(lambda s: (s.k == P("key")) & (s.v < 500))
            .with_params(key=3)
        )
        expected = sum(1 for i in range(1000) if i % 50 == 3 and i < 500)
        assert query.count() == expected

    def test_results_identical_with_and_without_index(self):
        plain = make_array(500)
        indexed = make_array(500)
        indexed.create_index("k")
        provider = QueryProvider()

        def run(array):
            return (
                from_struct_array(array)
                .using("native", provider)
                .where(lambda s: s.k == P("key"))
                .select(lambda s: s.v)
                .with_params(key=11)
                .to_list()
            )

        assert run(plain) == run(indexed)

    def test_creating_index_invalidates_compiled_plan(self):
        array = make_array(300)
        provider = QueryProvider()
        query = (
            from_struct_array(array)
            .using("native", provider)
            .where(lambda s: s.k == P("key"))
        )
        before = provider.compile_info(query.expr, [array], "native")
        assert ".lookup(" not in before.source_code
        array.create_index("k")
        after = provider.compile_info(query.expr, [array], "native")
        assert ".lookup(" in after.source_code


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


class TestTableStats:
    def test_collect_from_struct_array(self):
        stats = TableStats.collect(make_array(100))
        assert stats.row_count == 100
        assert stats.column("k").distinct == 50
        assert stats.column("v").minimum == 0.0
        assert stats.column("v").maximum == 99.0
        assert stats.column("tag").distinct == 2

    def test_collect_from_objects(self):
        items = [item(a=i % 3, b=float(i)) for i in range(30)]
        stats = TableStats.collect(items)
        assert stats.column("a").distinct == 3
        assert stats.column("b").maximum == 29.0

    def test_date_bounds(self):
        items = [
            item(d=datetime.date(2020, 1, 1) + datetime.timedelta(days=i))
            for i in range(10)
        ]
        stats = TableStats.collect(items)
        column = stats.column("d")
        assert column.maximum - column.minimum == 9

    def test_equality_selectivity(self):
        assert ColumnStats(100, 50).equality_selectivity == pytest.approx(0.02)

    def test_range_selectivity(self):
        column = ColumnStats(100, 100, minimum=0.0, maximum=100.0)
        assert column.range_selectivity("lt", 25.0) == pytest.approx(0.25)
        assert column.range_selectivity("gt", 25.0) == pytest.approx(0.75)
        assert column.range_selectivity("lt", -5.0) == 0.0
        assert column.range_selectivity("gt", 999.0) == 0.0


class TestSelectivityEstimation:
    def _stats(self):
        return TableStats(
            {
                "k": ColumnStats(1000, 500, 0, 499),
                "flag": ColumnStats(1000, 2),
                "v": ColumnStats(1000, 1000, 0.0, 1000.0),
            },
            1000,
        )

    def _conjunct(self, fn):
        from repro.expressions import trace_lambda

        return trace_lambda(fn).body

    def test_equality_uses_ndv(self):
        sel = estimate_selectivity(
            self._conjunct(lambda s: s.k == 5), "s", self._stats()
        )
        assert sel == pytest.approx(1 / 500)

    def test_high_vs_low_cardinality(self):
        stats = self._stats()
        selective = estimate_selectivity(self._conjunct(lambda s: s.k == 5), "s", stats)
        broad = estimate_selectivity(self._conjunct(lambda s: s.flag == 1), "s", stats)
        assert selective < broad

    def test_range_with_constant(self):
        sel = estimate_selectivity(
            self._conjunct(lambda s: s.v < 100), "s", self._stats()
        )
        assert sel == pytest.approx(0.1)

    def test_flipped_operands(self):
        sel = estimate_selectivity(
            self._conjunct(lambda s: 100 > s.v), "s", self._stats()
        )
        assert sel == pytest.approx(0.1)

    def test_negation(self):
        sel = estimate_selectivity(
            self._conjunct(lambda s: ~(s.v < 100)), "s", self._stats()
        )
        assert sel == pytest.approx(0.9)

    def test_unknown_column_defaults(self):
        sel = estimate_selectivity(
            self._conjunct(lambda s: s.zz == 1), "s", self._stats()
        )
        assert sel == pytest.approx(1 / 3)


class TestStatisticsDrivenReordering:
    def test_most_selective_conjunct_first(self):
        from repro.expressions.nodes import QueryOp, SourceExpr
        from repro.expressions import trace_lambda

        stats = {
            "T": TableStats(
                {
                    "rare": ColumnStats(1000, 1000),
                    "common": ColumnStats(1000, 2),
                },
                1000,
            )
        }
        expr = QueryOp(
            "where",
            SourceExpr(0, "T"),
            (trace_lambda(lambda s: (s.common == 1) & (s.rare == 42)),),
        )
        plan = optimize(translate(expr), statistics=stats)
        first = plan.predicate.body.left
        assert first.left.name == "rare"  # 1/1000 ranked before 1/2

    def test_parameter_sniffing_resolves_ranges(self):
        from repro.expressions.nodes import QueryOp, SourceExpr
        from repro.expressions import trace_lambda

        stats = {
            "T": TableStats({"v": ColumnStats(1000, 1000, 0.0, 1000.0)}, 1000)
        }
        expr = QueryOp(
            "where",
            SourceExpr(0, "T"),
            (trace_lambda(lambda s: (s.v < P("hi")) & (s.v > P("lo"))),),
        )
        # hi=999 keeps almost everything; lo=999 keeps almost nothing
        plan = optimize(
            translate(expr),
            statistics=stats,
            param_values={"hi": 999.0, "lo": 999.0},
        )
        assert plan.predicate.body.left.op == "gt"  # the selective one first

    def test_provider_registration_changes_plan(self):
        provider = QueryProvider()
        items = [item(rare=i, common=i % 2) for i in range(100)]
        base = from_iterable(items, token="stats:T").using("compiled", provider)
        query = base.where(lambda s: (s.common == 1) & (s.rare == 43))
        # cost heuristic: written order retained (both cheap comparisons)
        assert "common" in query.explain().split("rare")[0]
        provider.register_statistics("stats:T", TableStats.collect(items))
        assert query.count() == 1  # still correct
        explained = provider.explain(query.expr, "compiled")
        assert "rare" in explained.split("common")[0]


# ---------------------------------------------------------------------------
# result recycling
# ---------------------------------------------------------------------------


class TestRecyclingProvider:
    def _query(self, provider, items):
        return (
            from_iterable(items, token="rec:T")
            .using("compiled", provider)
            .where(lambda s: s.k > P("t"))
            .select(lambda s: s.v)
        )

    def test_repeat_execution_recycles(self):
        provider = RecyclingProvider()
        items = [item(k=i, v=float(i)) for i in range(100)]
        query = self._query(provider, items).with_params(t=50)
        first = query.to_list()
        second = query.to_list()
        assert first == second
        assert provider.recycler_stats.hits == 1
        assert provider.recycler_stats.misses == 1

    def test_different_params_not_recycled(self):
        provider = RecyclingProvider()
        items = [item(k=i, v=float(i)) for i in range(100)]
        query = self._query(provider, items)
        a = query.with_params(t=10).to_list()
        b = query.with_params(t=90).to_list()
        assert len(a) != len(b)
        assert provider.recycler_stats.hits == 0
        # but the *code* cache still shares one compilation
        assert provider.cache.stats.misses == 1

    def test_scalar_recycling(self):
        provider = RecyclingProvider()
        items = [item(k=i, v=float(i)) for i in range(100)]
        base = from_iterable(items, token="rec:S").using("compiled", provider)
        assert base.sum(lambda s: s.v) == base.sum(lambda s: s.v)
        assert provider.recycler_stats.hits == 1

    def test_appending_to_source_invalidates_by_length(self):
        provider = RecyclingProvider()
        items = [item(k=i, v=float(i)) for i in range(10)]
        query = self._query(provider, items).with_params(t=-1)
        assert len(query.to_list()) == 10
        items.append(item(k=99, v=99.0))
        assert len(query.to_list()) == 11  # fingerprint changed: re-ran

    def test_in_place_mutation_requires_invalidate(self):
        provider = RecyclingProvider()
        items = [item(k=1, v=1.0)]
        query = self._query(provider, items).with_params(t=0)
        assert query.to_list() == [1.0]
        items[0].v = 2.0  # invisible to the fingerprint
        assert query.to_list() == [1.0]  # stale, by documented contract
        provider.invalidate(items)
        assert query.to_list() == [2.0]

    def test_invalidate_all(self):
        provider = RecyclingProvider()
        items = [item(k=1, v=1.0)]
        self._query(provider, items).with_params(t=0).to_list()
        assert provider.cached_results == 1
        assert provider.invalidate() == 1
        assert provider.cached_results == 0

    def test_lru_bound(self):
        provider = RecyclingProvider(max_results=2)
        items = [item(k=i, v=float(i)) for i in range(5)]
        query = self._query(provider, items)
        for t in (0, 1, 2):
            query.with_params(t=t).to_list()
        assert provider.cached_results == 2

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            RecyclingProvider(max_results=0)

    def test_unhashable_params_bypass(self):
        provider = RecyclingProvider()
        items = [item(k=1, v=1.0)]
        base = from_iterable(items, token="rec:U").using("linq", provider)
        query = base.where(lambda s: s.k.contains(P("xs")))  # never executed

        class Weird:
            __hash__ = None

        key, _ = provider._result_key(
            query.expr, list(query.sources), "linq", {"xs": Weird()}
        )
        assert key is None
