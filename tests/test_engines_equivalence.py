"""Cross-engine equivalence: every execution strategy, same results.

The correctness spine of the reproduction: each query shape runs on the
interpreted baseline (`linq`), the compiled-Python engine (§4), the native
engine (§5) and the hybrid variants (§6), and all must agree with a
straightforward hand-written Python computation.
"""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinned_hybrids import pinned_hybrids  # noqa: F401 - fixture
from repro import P, new
from repro.codegen.hybrid_backend import HybridBackend
from repro.errors import ExecutionError, UnsupportedQueryError
from repro.query import QueryProvider, from_iterable, from_struct_array
from repro.storage import Field, Schema, StructArray

SALE = Schema(
    [
        Field("region", "str", 12),
        Field("product", "str", 12),
        Field("qty", "int"),
        Field("price", "float"),
        Field("sold", "date"),
    ],
    name="Sale",
)

ROWS = [
    ("east", "apple", 5, 1.25, datetime.date(1995, 1, 10)),
    ("west", "pear", 2, 2.50, datetime.date(1995, 3, 5)),
    ("east", "pear", 7, 2.40, datetime.date(1996, 6, 1)),
    ("north", "apple", 1, 1.10, datetime.date(1996, 7, 9)),
    ("east", "apple", 3, 1.30, datetime.date(1997, 2, 14)),
    ("west", "plum", 9, 3.10, datetime.date(1997, 11, 30)),
    ("north", "pear", 4, 2.60, datetime.date(1998, 4, 22)),
    ("west", "apple", 6, 1.15, datetime.date(1998, 9, 18)),
]

#: the object-source engines, plus the pinned buffered-Max hybrid column
OBJECT_ENGINES = ("linq", "compiled", "hybrid", "hybrid_buffered")
ALL_ENGINES = OBJECT_ENGINES + ("native",)


@pytest.fixture(scope="module")
def sales_array():
    return StructArray.from_rows(SALE, ROWS)


@pytest.fixture(scope="module")
def sales_objects(sales_array):
    return sales_array.to_objects()


@pytest.fixture()
def provider():
    return QueryProvider()


def make_query(engine, sales_objects, sales_array, provider):
    if engine == "native":
        return from_struct_array(sales_array).using(engine, provider)
    return from_iterable(sales_objects, token="obj:Sale").using(engine, provider)


@pytest.mark.usefixtures("pinned_hybrids")
@pytest.mark.parametrize("engine", ALL_ENGINES)
class TestFilterProject:
    def test_filter_by_string(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = q.where(lambda s: s.region == "east").select(lambda s: s.qty).to_list()
        assert result == [5, 7, 3]

    def test_filter_conjunction(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = (
            q.where(lambda s: (s.qty > 2) & (s.price < 2.0))
            .select(lambda s: s.product)
            .to_list()
        )
        assert result == ["apple", "apple", "apple"]

    def test_filter_disjunction_negation(
        self, engine, sales_objects, sales_array, provider
    ):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = q.where(lambda s: (s.region == "north") | ~(s.qty < 6)).count()
        assert result == 5

    def test_date_comparison(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        cutoff = datetime.date(1996, 12, 31)
        result = (
            q.where(lambda s: s.sold <= P("cutoff")).with_params(cutoff=cutoff).count()
        )
        assert result == 4

    def test_arithmetic_projection(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = (
            q.where(lambda s: s.region == "west")
            .select(lambda s: new(revenue=s.qty * s.price))
            .to_list()
        )
        assert [round(r.revenue, 2) for r in result] == [5.0, 27.9, 6.9]

    def test_string_method(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        assert q.where(lambda s: s.product.startswith("p")).count() == 4


@pytest.mark.usefixtures("pinned_hybrids")
@pytest.mark.parametrize("engine", ALL_ENGINES)
class TestAggregation:
    def test_scalar_aggregates(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        assert q.count() == 8
        assert q.sum(lambda s: s.qty) == 37
        assert q.min(lambda s: s.qty) == 1
        assert q.max(lambda s: s.qty) == 9
        assert q.average(lambda s: s.qty) == pytest.approx(37 / 8)

    def test_filtered_sum(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        total = q.where(lambda s: s.region == "east").sum(lambda s: s.qty * s.price)
        assert total == pytest.approx(5 * 1.25 + 7 * 2.40 + 3 * 1.30)

    def test_group_aggregate(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = q.group_by(
            lambda s: s.region,
            lambda g: new(
                region=g.key,
                total_qty=g.sum(lambda s: s.qty),
                n=g.count(),
                avg_price=g.avg(lambda s: s.price),
            ),
        ).to_list()
        by_region = {r.region: r for r in result}
        assert [r.region for r in result] == ["east", "west", "north"]  # first-seen
        assert by_region["east"].total_qty == 15
        assert by_region["east"].n == 3
        assert by_region["west"].avg_price == pytest.approx((2.5 + 3.1 + 1.15) / 3)

    def test_composite_group_key(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = q.group_by(
            lambda s: new(region=s.region, product=s.product),
            lambda g: new(region=g.key.region, product=g.key.product, n=g.count()),
        ).to_list()
        assert len(result) == 7  # east/apple occurs twice
        pairs = {(r.region, r.product): r.n for r in result}
        assert pairs[("east", "apple")] == 2

    def test_empty_min_raises(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        with pytest.raises(ExecutionError):
            q.where(lambda s: s.qty > 1000).min(lambda s: s.qty)

    def test_empty_sum_is_zero(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        assert q.where(lambda s: s.qty > 1000).sum(lambda s: s.qty) == 0


@pytest.mark.parametrize("engine", ("linq", "compiled", "native"))
class TestOrdering:
    def test_order_by(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = q.order_by(lambda s: s.qty).select(lambda s: s.qty).to_list()
        assert result == sorted(r[2] for r in ROWS)

    def test_order_by_desc(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = q.order_by_desc(lambda s: s.price).select(lambda s: s.price).to_list()
        assert result == sorted((r[3] for r in ROWS), reverse=True)

    def test_multi_key_sort(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = (
            q.order_by(lambda s: s.region)
            .then_by_desc(lambda s: s.qty)
            .select(lambda s: new(region=s.region, qty=s.qty))
            .to_list()
        )
        expected = sorted(
            [(r[0], r[2]) for r in ROWS], key=lambda t: (t[0], -t[1])
        )
        assert [(r.region, r.qty) for r in result] == expected

    def test_topn(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = (
            q.order_by_desc(lambda s: s.qty).take(3).select(lambda s: s.qty).to_list()
        )
        assert result == [9, 7, 6]

    def test_skip_take(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        ordered = q.order_by(lambda s: s.qty).skip(2).take(2)
        result = ordered.select(lambda s: s.qty).to_list()
        assert result == [3, 4]


@pytest.mark.parametrize("engine", ("linq", "compiled", "native"))
class TestDistinctConcat:
    def test_distinct(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        result = q.select(lambda s: s.region).distinct().to_list()
        assert result == ["east", "west", "north"]

    def test_sort_min_variant(self, engine, sales_objects, sales_array, provider):
        # the hybrid engine sorts object sources too; compare against others
        if engine == "native":
            pytest.skip("min variant is an object-source strategy")
        expected = (
            make_query(engine, sales_objects, sales_array, provider)
            .order_by(lambda s: s.price)
            .select(lambda s: s.product)
            .to_list()
        )
        got = (
            from_iterable(sales_objects, token="obj:Sale")
            .using("hybrid", provider)
            .order_by(lambda s: s.price)
            .select(lambda s: s.product)
            .to_list()
        )
        assert got == expected


@pytest.mark.usefixtures("pinned_hybrids")
@pytest.mark.parametrize("engine", ALL_ENGINES)
class TestJoin:
    def _targets(self, engine, provider):
        region_rows = [("east", 1.0), ("west", 2.0), ("north", 3.0)]
        schema = Schema(
            [Field("name", "str", 12), Field("tax", "float")], name="Region"
        )
        arr = StructArray.from_rows(schema, region_rows)
        if engine == "native":
            return from_struct_array(arr).using(engine, provider)
        return from_iterable(arr.to_objects(), token="obj:Region").using(
            engine, provider
        )

    def test_join_with_aggregation(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        regions = self._targets(engine, provider)
        result = (
            q.join(
                regions,
                lambda s: s.region,
                lambda r: r.name,
                lambda s, r: new(region=s.region, taxed=s.qty * r.tax),
            )
            .group_by(
                lambda x: x.region,
                lambda g: new(region=g.key, total=g.sum(lambda x: x.taxed)),
            )
            .to_list()
        )
        by_region = {r.region: r.total for r in result}
        assert by_region["east"] == pytest.approx(15.0)
        assert by_region["west"] == pytest.approx(34.0)
        assert by_region["north"] == pytest.approx(15.0)

    def test_join_preserves_probe_order(
        self, engine, sales_objects, sales_array, provider
    ):
        q = make_query(engine, sales_objects, sales_array, provider)
        regions = self._targets(engine, provider)
        result = q.join(
            regions,
            lambda s: s.region,
            lambda r: r.name,
            lambda s, r: new(product=s.product, tax=r.tax),
        ).to_list()
        assert [r.product for r in result] == [r[1] for r in ROWS]


class TestEngineRestrictions:
    def test_native_requires_struct_arrays(self, sales_objects, provider):
        q = from_iterable(sales_objects, token="obj:Sale").using("native", provider)
        with pytest.raises(UnsupportedQueryError, match="StructArray"):
            q.where(lambda s: s.qty > 1).to_list()

    def test_native_rejects_whole_record_results(self, sales_array, provider):
        other = from_struct_array(sales_array)
        q = (
            from_struct_array(sales_array)
            .using("native", provider)
            .join(
                other,
                lambda a: a.region,
                lambda b: b.region,
                lambda a, b: new(a=a, b=b),
            )
        )
        with pytest.raises(UnsupportedQueryError, match="whole input records"):
            q.to_list()

    def test_min_variant_builds_aggregation(self, sales_objects, provider):
        # Min ships row indexes only where elements escape: an aggregation
        # has none, so it builds like Max
        q = (
            from_iterable(sales_objects, token="obj:Sale")
            .using("hybrid", provider)
            .group_by(lambda s: s.region, lambda g: new(r=g.key, n=g.count()))
        )
        shape = provider.shape(q.expr, list(q.sources))
        compiled = shape.compile_with(HybridBackend(minimal=True))
        assert compiled.source_code == shape.compiled("hybrid").source_code
        rows = list(compiled.execute(shape.sources, shape.bindings))
        assert rows == q.using("linq", provider).to_list()

    def test_unknown_engine(self, sales_objects, provider):
        q = from_iterable(sales_objects).using("quantum", provider)
        with pytest.raises(UnsupportedQueryError, match="unknown engine"):
            q.to_list()


class TestDeferredExecution:
    @pytest.mark.parametrize("engine", ("linq", "compiled"))
    def test_source_mutations_visible_until_execution(self, engine, provider):
        from types import SimpleNamespace

        data = [SimpleNamespace(x=1)]
        q = from_iterable(data, token="obj:T").using(engine, provider).select(
            lambda s: s.x
        )
        data.append(SimpleNamespace(x=2))  # after query definition
        assert q.to_list() == [1, 2]

    @pytest.mark.parametrize("engine", ("linq", "compiled"))
    def test_first_pulls_lazily(self, engine, provider):
        from types import SimpleNamespace

        pulled = []

        class Spy:
            def __init__(self, items):
                self._items = items

            def __iter__(self):
                for item in self._items:
                    pulled.append(item.x)
                    yield item

        data = Spy([SimpleNamespace(x=i) for i in range(100)])
        q = from_iterable(data, token="obj:T").using(engine, provider)
        assert q.where(lambda s: s.x > 4).first().x == 5
        assert len(pulled) <= 6  # stopped as soon as the first match appeared


class TestTerminalAccessors:
    @pytest.mark.parametrize("engine", ("linq", "compiled"))
    def test_first_any_all_contains(self, engine, sales_objects, sales_array, provider):
        q = make_query(engine, sales_objects, sales_array, provider)
        assert q.first(lambda s: s.region == "west").product == "pear"
        assert q.first_or_default(lambda s: s.qty > 99) is None
        assert q.any(lambda s: s.qty == 9)
        assert not q.any(lambda s: s.qty == 99)
        assert q.all(lambda s: s.qty >= 1)
        assert not q.all(lambda s: s.qty > 1)
        assert q.select(lambda s: s.region).contains("north")

    def test_first_raises_when_empty(self, sales_objects, provider):
        q = from_iterable(sales_objects, token="obj:Sale").using("compiled", provider)
        with pytest.raises(ExecutionError, match="no matching element"):
            q.first(lambda s: s.qty > 99)


@st.composite
def _random_rows(draw):
    n = draw(st.integers(0, 60))
    regions = ["east", "west", "north", "south"]
    rows = []
    for _ in range(n):
        rows.append(
            (
                draw(st.sampled_from(regions)),
                draw(st.sampled_from(["apple", "pear", "plum"])),
                draw(st.integers(0, 100)),
                round(draw(st.floats(0.1, 99.0, allow_nan=False)), 2),
                datetime.date(1995, 1, 1)
                + datetime.timedelta(days=draw(st.integers(0, 1000))),
            )
        )
    return rows


class TestPropertyEquivalence:
    @given(_random_rows(), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_filter_sum_all_engines(self, rows, threshold):
        arr = StructArray.from_rows(SALE, rows)
        objs = arr.to_objects()
        expected = sum(r[2] for r in rows if r[2] > threshold)
        provider = QueryProvider()
        for engine in ("linq", "compiled", "hybrid"):
            q = from_iterable(objs, token="obj:Sale").using(engine, provider)
            assert q.where(lambda s: s.qty > P("t")).with_params(t=threshold).sum(
                lambda s: s.qty
            ) == expected, engine
        qn = from_struct_array(arr).using("native", provider)
        assert qn.where(lambda s: s.qty > P("t")).with_params(t=threshold).sum(
            lambda s: s.qty
        ) == expected

    @given(_random_rows())
    @settings(max_examples=25, deadline=None)
    def test_group_count_all_engines(self, rows):
        arr = StructArray.from_rows(SALE, rows)
        objs = arr.to_objects()
        expected = {}
        for r in rows:
            expected[r[0]] = expected.get(r[0], 0) + 1
        provider = QueryProvider()

        def run(q):
            result = q.group_by(
                lambda s: s.region, lambda g: new(region=g.key, n=g.count())
            ).to_list()
            return {r.region: r.n for r in result}

        for engine in ("linq", "compiled", "hybrid"):
            if engine == "hybrid" and not rows:
                continue  # schema inference needs at least one element
            q = from_iterable(objs, token="obj:Sale").using(engine, provider)
            assert run(q) == expected, engine
        assert run(from_struct_array(arr).using("native", provider)) == expected

    @given(_random_rows(), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_topn_all_engines(self, rows, n):
        arr = StructArray.from_rows(SALE, rows)
        objs = arr.to_objects()
        expected = [
            r[3]
            for _, r in sorted(enumerate(rows), key=lambda t: (-t[1][3], t[0]))[:n]
        ]
        provider = QueryProvider()
        for engine in ("linq", "compiled"):
            q = from_iterable(objs, token="obj:Sale").using(engine, provider)
            ordered = q.order_by_desc(lambda s: s.price).take(n)
            got = ordered.select(lambda s: s.price).to_list()
            assert got == pytest.approx(expected), engine
        qn = from_struct_array(arr).using("native", provider)
        ordered = qn.order_by_desc(lambda s: s.price).take(n)
        got = ordered.select(lambda s: s.price).to_list()
        assert got == pytest.approx(expected)
