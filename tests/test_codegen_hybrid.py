"""Unit tests for the §6 backend: staging split, mappings, hybrid codegen."""

import datetime
from types import SimpleNamespace

import numpy as np
import pytest

from repro.codegen.hybrid_backend import (
    HybridBackend,
    _find_stream_target,
    _native_page,
    _staging_from_ir,
    _string_widths,
)
from repro.codegen.ir import ROW, required_source_fields
from repro.codegen.lower import lower_plan
from repro.codegen.mapping import (
    StagedSource,
    infer_object_schema,
    staged_schema_for,
)
from repro.errors import SchemaError, UnsupportedQueryError
from repro.expressions import Var, new, trace_lambda
from repro.plans import (
    AggregateSpec,
    Distinct,
    Filter,
    Join,
    Project,
    Scan,
    ScalarAggregate,
    Sort,
)
from repro.storage import Field, Schema, StructArray


def item(**kw):
    return SimpleNamespace(**kw)


SCAN = Scan(0, "T")


def _pinned_rows(query, backend):
    """Run *query* compiled with an explicit backend (a pinned policy)."""
    shape = query.provider.shape(query.expr, list(query.sources))
    compiled = shape.compile_with(backend)
    return list(compiled.execute(shape.sources, {**shape.bindings, **query.params}))


class TestSchemaInference:
    def test_basic_kinds(self):
        items = [item(a=1, b=2.5, c="hello", d=True, e=datetime.date(2020, 1, 1))]
        schema = infer_object_schema(items)
        kinds = {f.name: f.kind for f in schema.fields}
        assert kinds == {"a": "int", "b": "float", "c": "str", "d": "bool", "e": "date"}

    def test_string_width_sampled_with_margin(self):
        items = [item(s="ab"), item(s="abcdefgh")]
        schema = infer_object_schema(items, {"s"})
        assert schema["s"].size >= 16  # max sampled width × 2

    def test_int_promotes_to_float_when_mixed(self):
        items = [item(x=1), item(x=2.5)]
        schema = infer_object_schema(items, {"x"})
        assert schema["x"].kind == "float"

    def test_restricted_fields(self):
        items = [item(a=1, b="x")]
        schema = infer_object_schema(items, {"a"})
        assert schema.field_names == ("a",)

    def test_missing_attribute_raises(self):
        with pytest.raises(SchemaError, match="lacks attribute"):
            infer_object_schema([item(a=1)], {"zz"})

    def test_unsupported_type_raises(self):
        with pytest.raises(SchemaError, match="no flat native representation"):
            infer_object_schema([item(a=[1, 2])], {"a"})

    def test_empty_with_fields_gets_placeholder(self):
        schema = infer_object_schema([], {"x", "y"})
        assert schema.field_names == ("x", "y")

    def test_empty_without_fields_raises(self):
        with pytest.raises(SchemaError, match="empty collection"):
            infer_object_schema([])

    def test_namedtuple_attributes(self):
        from collections import namedtuple

        T = namedtuple("T", ["a", "b"])
        schema = infer_object_schema([T(1, "x")])
        assert set(schema.field_names) == {"a", "b"}


class TestSourceFieldUsage:
    def test_project_narrows(self):
        plan = Project(SCAN, trace_lambda(lambda s: s.a + s.b))
        assert required_source_fields(plan) == {0: {"a", "b"}}

    def test_filter_adds_predicate_fields(self):
        plan = Project(
            Filter(SCAN, trace_lambda(lambda s: s.c > 1)),
            trace_lambda(lambda s: s.a),
        )
        assert required_source_fields(plan)[0] == {"a", "c"}

    def test_join_separates_sides(self):
        plan = Join(
            Scan(0, "L"),
            Scan(1, "R"),
            trace_lambda(lambda l: l.lk),
            trace_lambda(lambda r: r.rk),
            trace_lambda(lambda l, r: new(x=l.a, y=r.b)),
        )
        usage = required_source_fields(plan)
        assert usage[0] == {"lk", "a"}
        assert usage[1] == {"rk", "b"}

    def test_whole_element_use_is_none(self):
        plan = Project(SCAN, trace_lambda(lambda s: s))
        assert required_source_fields(plan)[0] is None

    def test_escaping_element_is_carried_as_row(self):
        plan = Project(SCAN, trace_lambda(lambda s: new(a=s, b=s.k)))
        assert required_source_fields(plan, carry=True) == {0: {ROW, "k"}}
        # an element a later operator compares stays absorbing
        assert required_source_fields(Distinct(plan), carry=True) == {0: None}

    def test_compared_element_stays_absorbing(self):
        plan = Project(SCAN, trace_lambda(lambda s: new(same=s == s)))
        assert required_source_fields(plan, carry=True) == {0: None}

    def test_defer_ships_unread_result_fields_as_row(self):
        plan = Sort(
            Project(SCAN, trace_lambda(lambda s: new(a=s.a, b=s.b, c=s.c + 1))),
            (trace_lambda(lambda r: r.b),),
            (False,),
        )
        assert required_source_fields(plan, carry=True) == {0: {"a", "b", "c"}}
        # only the sort key and the computed field are read natively
        assert required_source_fields(plan, carry=True, defer=True) == {
            0: {ROW, "b", "c"}
        }

    def test_aggregates_contribute(self):
        plan = ScalarAggregate(
            SCAN,
            (AggregateSpec("sum", trace_lambda(lambda s: s.v * s.w)),),
            Var("__agg0"),
        )
        assert required_source_fields(plan)[0] == {"v", "w"}


class TestSplitStaging:
    def test_scan_adjacent_filters_peel(self):
        plan = ScalarAggregate(
            Filter(SCAN, trace_lambda(lambda s: s.a > 1)),
            (AggregateSpec("sum", trace_lambda(lambda s: s.v)),),
            Var("__agg0"),
        )
        ir = lower_plan(plan)
        staged, peeled = _staging_from_ir(ir)
        assert peeled == {0: 1}
        assert len(staged[0].predicates) == 1
        # predicate fields dropped from staging: only the aggregate's field
        assert staged[0].fields == ("v",)
        assert not staged[0].carries

    def test_non_adjacent_filter_stays(self):
        plan = Filter(
            Project(SCAN, trace_lambda(lambda s: new(x=s.a))),
            trace_lambda(lambda r: r.x > 1),
        )
        staged, peeled = _staging_from_ir(lower_plan(plan))
        assert peeled == {0: 0}
        assert staged[0].predicates == ()

    def test_whole_element_beyond_boundary_rejected(self):
        # Distinct compares whole elements: no row index can stand in
        ir = lower_plan(Distinct(SCAN))
        with pytest.raises(UnsupportedQueryError, match="whole elements"):
            _staging_from_ir(ir)

    def test_escaping_element_stages_a_row_index(self):
        ir = lower_plan(Project(SCAN, trace_lambda(lambda s: s)))
        staged, _ = _staging_from_ir(ir)
        assert staged[0].fields == () and staged[0].carries

    def test_staged_schema_from_struct_array(self):
        schema = Schema([Field("a", "int"), Field("b", "float")], name="T")
        array = StructArray.from_rows(schema, [(1, 2.0)])
        spec = StagedSource(0, (), ("b",))
        staged = staged_schema_for(array, spec)
        assert staged.field_names == ("b",)

    def test_staged_schema_missing_field(self):
        schema = Schema([Field("a", "int")], name="T")
        array = StructArray.from_rows(schema, [(1,)])
        spec = StagedSource(0, (), ("zz",))
        with pytest.raises(SchemaError, match="lacks staged fields"):
            staged_schema_for(array, spec)


class TestStreamTarget:
    def _staged(self, *ordinals):
        return {
            o: StagedSource(o, (), ("v",), schema=None) for o in ordinals
        }

    def test_scalar_aggregate_over_scan_streams(self):
        plan = ScalarAggregate(
            SCAN, (AggregateSpec("sum", trace_lambda(lambda s: s.v)),), Var("__agg0")
        )
        node, ordinal = _find_stream_target(plan, self._staged(0))
        assert node is plan and ordinal == 0

    def test_join_probe_side_streams(self):
        plan = Join(
            Scan(0, "L"),
            Scan(1, "R"),
            trace_lambda(lambda l: l.k),
            trace_lambda(lambda r: r.k),
            trace_lambda(lambda l, r: new(a=l.v, b=r.v)),
        )
        node, ordinal = _find_stream_target(plan, self._staged(0, 1))
        assert node is plan and ordinal == 0  # the probe (left) side

    def test_sort_cannot_stream(self):
        plan = Sort(SCAN, (trace_lambda(lambda s: s.v),), (False,))
        node, ordinal = _find_stream_target(plan, self._staged(0))
        assert node is None and ordinal is None

    def test_self_join_does_not_stream(self):
        plan = Join(
            Scan(0, "T"),
            Scan(0, "T"),
            trace_lambda(lambda l: l.k),
            trace_lambda(lambda r: r.k),
            trace_lambda(lambda l, r: new(a=l.v, b=r.v)),
        )
        node, _ = _find_stream_target(plan, self._staged(0))
        assert node is None


#: a declared four-byte string field, so the staged width is exactly 4
WIDTH4 = Schema([Field("s", "str", 4), Field("v", "float")], name="W4")


def _staged_sums(values, backend):
    """Group ``values`` (one element each) by themselves through *backend*."""
    from repro.query import QList, from_iterable

    items = QList([item(s=s, v=1.0) for s in values], schema=WIDTH4)
    query = (
        from_iterable(items, token="t:w4")
        .using("hybrid")
        .group_by(lambda i: i.s, lambda g: new(s=g.key, t=g.sum(lambda i: i.v)))
    )
    return [(r.s, r.t) for r in _pinned_rows(query, backend)]


#: full staging, and buffered pages of three rows (12-byte rows, 36 bytes)
STAGINGS = {
    "full": HybridBackend,
    "buffered": lambda: HybridBackend(buffered=True, page_bytes=36),
}


class TestStagingSafety:
    def test_staging_rejects_overflow(self):
        assert _staged_sums(["abc"], HybridBackend()) == [("abc", 1.0)]
        with pytest.raises(SchemaError, match="exceeds the staged width"):
            _staged_sums(["a" * 99], HybridBackend())

    @pytest.mark.parametrize("staging", sorted(STAGINGS))
    @pytest.mark.parametrize(
        "value, fits",
        [
            ("abcd", True),  # w bytes
            ("ab\u00e9", True),  # a two-byte character ending at w
            ("abcde", False),  # w + 1
            ("x" * 13, False),  # 2w + 5
            ("abc\u00e9", False),  # a two-byte character straddling w
            ("abcd\x00e", False),  # NUL at byte w, more bytes after it
        ],
    )
    def test_overflow_at_the_width(self, staging, value, fits):
        values = ["ab", "cd", "ef", "gh", value, "ab"]
        if fits:
            got = dict(_staged_sums(values, STAGINGS[staging]()))
            assert got[value] == 1.0 and got["ab"] == 2.0
            return
        message = (
            f"string {value!r} exceeds the staged width 4; the sampled schema "
            f"underestimated this field"
        )
        with pytest.raises(SchemaError) as caught:
            _staged_sums(values, STAGINGS[staging]())
        assert str(caught.value) == message

    @pytest.mark.parametrize("staging", sorted(STAGINGS))
    def test_overflow_names_the_first_element(self, staging):
        values = ["ab", "first!", "cd", "second"]
        with pytest.raises(SchemaError, match="'first!'"):
            _staged_sums(values, STAGINGS[staging]())

    @pytest.mark.parametrize("staging", sorted(STAGINGS))
    def test_nul_bytes_past_the_width_overflow(self, staging):
        # the encoded length counts, not the bytes a page would keep: a
        # value whose bytes past w are all NUL overflows like any other
        with pytest.raises(SchemaError, match="exceeds the staged width 4"):
            _staged_sums(["ab", "abcd\x00\x00"], STAGINGS[staging]())

    def test_page_is_the_packed_struct_layout(self):
        dtype = WIDTH4.numpy_dtype()
        widths = _string_widths(WIDTH4)
        assert widths == ((0, 4),)
        page = _native_page([(b"abcd", 1.5)], dtype, widths)
        assert page.dtype == dtype and page.dtype.itemsize == 12
        assert page["s"][0] == b"abcd" and page["v"][0] == 1.5
        assert _native_page([], dtype, widths).shape == (0,)

    def test_page_conversions_match_np_array(self):
        schema = Schema([Field("n", "int"), Field("x", "float")], name="N")
        dtype = schema.numpy_dtype()
        rows = [(1.9, 2), (-3.5, True)]  # a float into an int field, and back
        got = _native_page(rows, dtype, ())
        want = np.array(rows, dtype=dtype)
        for name in dtype.names:
            assert got[name].tolist() == want[name].tolist()
        for bad, error in (((2**70, 0.0), OverflowError), ((None, 0.0), TypeError)):
            with pytest.raises(error):
                np.array([bad], dtype=dtype)
            with pytest.raises(error):
                _native_page([bad], dtype, ())

    def test_datetime_in_a_date_field_raises_type_error(self):
        from repro.query import from_iterable

        items = [item(d=datetime.datetime(2020, 1, 1), v=1.0)]
        query = (
            from_iterable(items, token="t:datetime")
            .using("hybrid")
            .group_by(lambda i: i.d, lambda g: new(d=g.key, n=g.count()))
        )
        with pytest.raises(TypeError):
            query.to_list()

    def test_none_in_a_string_field_raises_attribute_error(self):
        # as the per-row helper did: None has no .encode()
        with pytest.raises(AttributeError):
            _staged_sums(["ab", None], HybridBackend())

    def test_string_growth_beyond_sample_raises_not_truncates(self):
        # first 1000 elements short; a later element overflows the sampled
        # width — staging must fail loudly, never corrupt data
        items = [item(s="ab", v=1.0) for _ in range(1000)]
        items.append(item(s="x" * 200, v=2.0))
        from repro.query import from_iterable

        query = (
            from_iterable(items, token="t:grow")
            .using("hybrid")
            .group_by(lambda i: i.s, lambda g: new(s=g.key, t=g.sum(lambda i: i.v)))
        )
        with pytest.raises(SchemaError, match="exceeds the staged width"):
            query.to_list()


class TestBufferedFallback:
    def test_sort_falls_back_to_full_staging(self):
        """Buffering is inapplicable to sorting (quicksort requires full
        arrays — §7.2); the buffered engine silently uses full staging."""
        items = [item(k=i % 3, v=float(i)) for i in range(50)]
        from repro.query import from_iterable

        q = (
            from_iterable(items, token="t:sortbuf")
            .using("hybrid")
            .group_by(lambda i: i.k, lambda g: new(k=g.key, t=g.sum(lambda i: i.v)))
            .order_by(lambda r: r.k)
        )
        rows = _pinned_rows(q, HybridBackend(buffered=True))
        assert [r.k for r in rows] == [0, 1, 2]

    def test_page_size_controls_flush_count(self):
        from repro.plans import translate, optimize
        from repro.expressions.nodes import QueryOp, SourceExpr

        items = [item(k=1, v=float(i)) for i in range(100)]
        expr = QueryOp(
            "sum", SourceExpr(0, "t:page"), (trace_lambda(lambda s: s.v),)
        )
        plan = optimize(translate(expr))
        small = HybridBackend(buffered=True, page_bytes=64)
        compiled = small.compile(plan, [items])
        assert compiled.execute([items], {}) == pytest.approx(sum(range(100)))
        # the capacity constant derived from the page size appears in code
        assert ">= 8" in compiled.source_code  # 64B / 8B float rows


class TestMinVariantShapes:
    def _items(self, n=60):
        from types import SimpleNamespace

        return [
            SimpleNamespace(a=i % 4, b=float(n - i), name=f"x{i % 5}")
            for i in range(n)
        ]

    def test_multi_key_sort_min(self):
        from repro.query import from_iterable

        items = self._items()
        expected = sorted(items, key=lambda s: (s.a, -s.b))
        got = (
            from_iterable(items, token="min:multi")
            .using("hybrid")
            .order_by(lambda s: s.a)
            .then_by_desc(lambda s: s.b)
            .to_list()
        )
        assert [(r.a, r.b) for r in got] == [(r.a, r.b) for r in expected]

    def test_min_sort_yields_original_objects(self):
        from repro.query import from_iterable

        items = self._items(10)
        got = (
            from_iterable(items, token="min:ident")
            .using("hybrid")
            .order_by(lambda s: s.b)
            .to_list()
        )
        assert all(any(r is original for original in items) for r in got)

    def test_min_topn_with_projection(self):
        from repro.query import from_iterable

        items = self._items()
        query = (
            from_iterable(items, token="min:topn")
            .using("hybrid")
            .order_by_desc(lambda s: s.b)
            .take(3)
            .select(lambda s: s.b)
        )
        got = _pinned_rows(query, HybridBackend(minimal=True))
        assert got == sorted((s.b for s in items), reverse=True)[:3]

    def test_min_three_way_join(self):
        from types import SimpleNamespace

        from repro.query import from_iterable

        a = [SimpleNamespace(k=i % 3, tag=i) for i in range(9)]
        b = [SimpleNamespace(k=i, label=f"b{i}") for i in range(3)]
        c = [SimpleNamespace(k=i, extra=i * 10) for i in range(3)]
        inner = from_iterable(b, token="min:b").join(
            from_iterable(c, token="min:c"),
            lambda x: x.k,
            lambda y: y.k,
            lambda x, y: new(k=x.k, label=x.label, extra=y.extra),
        )
        query = (
            from_iterable(a, token="min:a")
            .using("hybrid")
            .join(
                inner,
                lambda x: x.k,
                lambda y: y.k,
                lambda x, y: new(tag=x.tag, label=y.label, extra=y.extra),
            )
        )
        rows = _pinned_rows(query, HybridBackend(minimal=True))
        assert len(rows) == 9
        assert {(r.tag, r.label) for r in rows} == {
            (i, f"b{i % 3}") for i in range(9)
        }


class TestMinJoinKinds:
    def test_direct_min_left_join_keeps_unmatched_rows(self):
        # an inner-join program would drop the two unmatched probe rows
        from repro.plans import optimize, translate
        from repro.query import from_iterable

        probe = from_iterable([item(k=k) for k in (1, 2, 3)], token="min:probe")
        build = from_iterable([item(k=1, w=10.0)], token="min:build")
        query = probe.left_outer_join(
            build,
            lambda p: p.k,
            lambda b: b.k,
            lambda p, b: new(k=p.k, w=b.w),
            {"k": 0, "w": 0.0},
        )
        expected = query.using("linq").to_list()
        assert len(expected) == 3
        plan = optimize(translate(query.expr))
        compiled = HybridBackend(minimal=True).compile(plan, list(query.sources))
        assert list(compiled.execute(list(query.sources), {})) == expected


class TestMinRowIndex:
    """``minimal=True`` carries one row-index column per source, however
    many deferred result fields read through it."""

    ITEMS = [item(a=i % 3, s=f"s{i}", b=float(i)) for i in range(20)]

    def test_deferred_fields_share_one_index_column(self):
        from repro.query import QueryProvider, from_iterable

        query = (
            from_iterable(self.ITEMS, token="min:one-index")
            .using("hybrid", QueryProvider())
            .where(lambda r: r.a == 1)
            .select(lambda r: new(e=r, s=r.s, b=r.b))
            .take(3)
        )
        shape = query.provider.shape(query.expr, list(query.sources))
        source = shape.compile_with(HybridBackend(minimal=True)).source_code
        lines = [line.strip() for line in source.splitlines()]
        assert [line for line in lines if line.endswith("= row_1")] == [
            "vec_1 = row_1"
        ]
        assert [line for line in lines if "[0:" in line] == [
            "col_1 = vec_1[0:(0) + (_param___c1)]"
        ]
        rows = _pinned_rows(query, HybridBackend(minimal=True))
        kept = [o for o in self.ITEMS if o.a == 1][:3]
        assert len(rows) == len(kept) == 3
        for row, obj in zip(rows, kept):
            assert row.e is obj and row.s is obj.s and row.b is obj.b


class TestMinMaxRule:
    """`hybrid` stages fields (Max); a whole element that escapes crosses
    as its row index, and the result holds the source object (Min)."""

    ITEMS = [item(a=i % 4, b=float(20 - i)) for i in range(20)]
    OTHER = [item(a=k, w=k * 10) for k in range(4)]

    def _pair(self, build):
        from repro.query import QueryProvider, from_iterable

        provider = QueryProvider()
        base = from_iterable(self.ITEMS, token="rule:items")
        hybrid = build(base.using("hybrid", provider))
        compiled = build(base.using("compiled", provider))
        return hybrid, compiled

    @staticmethod
    def _source(query):
        shape = query.provider.shape(query.expr, list(query.sources))
        return shape.compiled("hybrid").source_code

    def _assert_min_original_objects(self, build):
        hybrid, compiled = self._pair(build)
        rows = hybrid.to_list()
        assert rows == compiled.to_list()
        assert "_gather_objects(" in self._source(hybrid)
        return rows

    def test_whole_element_sort(self):
        rows = self._assert_min_original_objects(lambda q: q.order_by(lambda r: r.b))
        assert all(any(r is o for o in self.ITEMS) for r in rows)

    def test_take_after_order_by_desc(self):
        rows = self._assert_min_original_objects(
            lambda q: q.order_by_desc(lambda r: r.b).take(3)
        )
        assert all(any(r is o for o in self.ITEMS) for r in rows)

    def test_inner_join_embedding_both_elements(self):
        from repro.query import from_iterable

        other = from_iterable(self.OTHER, token="rule:other")
        rows = self._assert_min_original_objects(
            lambda q: q.join(
                other, lambda l: l.a, lambda r: r.a, lambda l, r: new(l=l, r=r)
            )
        )
        assert len(rows) == len(self.ITEMS)
        assert all(any(x.l is o for o in self.ITEMS) for x in rows)
        assert all(any(x.r is o for o in self.OTHER) for x in rows)

    def test_flat_fields_keep_max(self):
        hybrid, compiled = self._pair(
            lambda q: q.order_by(lambda r: r.b).select(lambda r: r.a)
        )
        assert hybrid.to_list() == compiled.to_list()
        assert "_np.arange" not in self._source(hybrid)

    def test_retired_min_spelling_shares_the_artifact(self):
        from repro.observability import METRICS
        from repro.query import QueryProvider, from_iterable

        provider = QueryProvider()
        base = from_iterable(self.ITEMS, token="rule:alias")
        before = METRICS.counter("compile.hybrid.count").value
        old = base.using("hybrid_min", provider).order_by(lambda r: r.b).to_list()
        new_ = base.using("hybrid", provider).order_by(lambda r: r.b).to_list()
        assert METRICS.counter("compile.hybrid.count").value - before == 1
        assert old == new_

    def test_candidate_engines_are_the_compiling_engines(self):
        from repro.query.provider import _candidate_engines

        array = StructArray.from_rows(Schema([Field("x", "int")], name="X"), [(1,)])
        assert _candidate_engines("compiled", [array]) == (
            "compiled",
            "native",
            "hybrid",
        )

    def test_explain_shows_placements_for_whole_elements(self):
        hybrid, _ = self._pair(lambda q: q.order_by(lambda r: r.b))
        text = hybrid.in_parallel(1).explain()
        assert text.splitlines()[2] == "engine: hybrid"
        assert "  p0: scan(source_0) => sort#0" in text
        assert "[managed staging -> native]" in text
        assert "  p1: sort#0 => result [native]" in text


def _types(value):
    """The value's type, and its fields' types for a record."""
    if isinstance(value, tuple):
        return (type(value),) + tuple(_types(v) for v in value)
    return type(value)


#: whole source elements escaping the native half; each builder takes the
#: probe-side and build-side queries
WHOLE_ELEMENT_SHAPES = {
    "sort": lambda q, o: q.order_by(lambda r: r.b),
    "topn": lambda q, o: q.order_by_desc(lambda r: r.b).take(4),
    "limit-over-sort": lambda q, o: q.order_by(lambda r: r.a).then_by(lambda r: r.b)
    .skip(3)
    .take(5),
    "inner-join": lambda q, o: q.join(
        o, lambda l: l.a, lambda r: r.a, lambda l, r: new(l=l, r=r)
    ),
    "left-outer-join": lambda q, o: q.left_outer_join(
        o.where(lambda r: r.a < 2),
        lambda l: l.a,
        lambda r: r.a,
        lambda l, r: new(l=l, r=r, w=r.w),
        {"a": -1, "w": -10},
    ),
    "filter-over-join": lambda q, o: q.join(
        o, lambda l: l.a, lambda r: r.a, lambda l, r: new(l=l, w=r.w)
    ).where(lambda x: x.w > 5),
    "projected-element": lambda q, o: q.where(lambda r: r.a > 0).select(
        lambda r: new(e=r, a=r.a)
    ),
    # no element escapes, but under minimal=True `a` is read off the object
    "sorted-projection": lambda q, o: q.order_by(lambda r: r.b).select(
        lambda r: new(a=r.a, b2=r.b * 2)
    ),
}


class TestWholeElements:
    """A whole element crosses as its row index: results equal linq's,
    with linq's types, and hold the source objects themselves."""

    ITEMS = [item(a=i % 4, b=float(20 - i)) for i in range(20)]
    OTHER = [item(a=k, w=k * 10) for k in range(3)]

    def _queries(self, build, engine):
        from repro.query import QueryProvider, from_iterable

        provider = QueryProvider()
        probe = from_iterable(self.ITEMS, token="whole:probe")
        build_side = from_iterable(self.OTHER, token="whole:build")
        return build(probe.using(engine, provider), build_side)

    @pytest.mark.parametrize("name", sorted(WHOLE_ELEMENT_SHAPES))
    @pytest.mark.parametrize("minimal", (False, True), ids=("max", "min"))
    def test_equals_linq_and_returns_the_source_objects(self, name, minimal):
        build = WHOLE_ELEMENT_SHAPES[name]
        query = self._queries(build, "hybrid")
        rows = _pinned_rows(query, HybridBackend(minimal=minimal))
        expected = self._queries(build, "linq").to_list()
        assert rows == expected
        assert [_types(r) for r in rows] == [_types(r) for r in expected]
        if minimal:
            assert rows == query.to_list()  # the engine's own build agrees
        originals = {id(o) for o in self.ITEMS + self.OTHER}
        defaults = 0
        for row in rows:
            if isinstance(row, SimpleNamespace):
                elements = [row]
            else:
                elements = [v for v in row if not isinstance(v, (int, float))]
            for element in elements:
                if id(element) not in originals:
                    # an unmatched probe row pairs with the default record
                    assert name == "left-outer-join" and element == (-1, -10)
                    defaults += 1
        assert defaults == (10 if name == "left-outer-join" else 0)

    @pytest.mark.parametrize(
        "build",
        (
            lambda q, o: q.distinct(),
            lambda q, o: q.union(q.where(lambda r: r.a > 1)),
            lambda q, o: q.select(lambda r: new(e=r)).distinct(),
            lambda q, o: q.order_by(lambda r: r),
            lambda q, o: q.join(
                o, lambda l: l.a, lambda r: r.a, lambda l, r: new(l=l, w=r.w)
            ).where(lambda x: x.l.b > x.w),
            # indexes into two object lists cannot share one column
            lambda q, o: q.concat(q.where(lambda r: r.a > 1)),
            # no default stands in for an element carried in a column
            lambda q, o: q.left_outer_join(
                o.select(lambda r: new(e=r, a=r.a)),
                lambda l: l.a,
                lambda r: r.a,
                lambda l, r: new(x=r.e, b=l.b),
                {"e": 0, "a": 0},
            ),
        ),
        ids=(
            "distinct",
            "union",
            "distinct-projection",
            "element-key",
            "read-through",
            "concat",
            "left-join-default",
        ),
    )
    def test_uncarried_elements_refuse(self, build):
        query = self._queries(build, "hybrid")
        with pytest.raises(UnsupportedQueryError, match="whole elements of source_"):
            query.to_list()

    def test_morsel_kernels_refuse(self):
        from repro.plans import optimize, translate

        query = self._queries(WHOLE_ELEMENT_SHAPES["sort"], "hybrid")
        plan = optimize(translate(query.expr))
        ir = lower_plan(plan, morsel_ordinal=0)
        with pytest.raises(UnsupportedQueryError, match="stage row indexes"):
            HybridBackend().compile(plan, list(query.sources), ir=ir)


class TestPinnedPolicies:
    """The pinned policies the figure sweeps use: buffered Max and Min."""

    @pytest.fixture(scope="class")
    def data(self):
        from repro.tpch import TPCHData

        return TPCHData(scale=0.002, seed=3)

    @staticmethod
    def _close(rows, expected):
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert tuple(row) == pytest.approx(tuple(want))

    def _queries(self, data):
        from repro.tpch import join_micro, q1, q3, q4, sorting_micro

        return {
            "q1": lambda e: q1(data, e),
            "q3": lambda e: q3(data, e),
            "q4": lambda e: q4(data, e),
            "sort": lambda e: sorting_micro(data, e, 0.3),
            "join": lambda e: join_micro(data, e, 0.5),
        }

    @pytest.mark.parametrize("name", ("q1", "q3", "q4", "sort", "join"))
    def test_buffered_equals_linq(self, data, name):
        build = self._queries(data)[name]
        rows = _pinned_rows(build("hybrid"), HybridBackend(buffered=True))
        expected = build("linq").to_list()
        if name == "join":  # a bag: compare in one order
            rows, expected = sorted(map(tuple, rows)), sorted(map(tuple, expected))
        self._close(rows, expected)

    @pytest.mark.parametrize("name", ("sort", "join"))
    def test_min_equals_linq(self, data, name):
        build = self._queries(data)[name]
        rows = _pinned_rows(build("hybrid"), HybridBackend(minimal=True))
        expected = build("linq").to_list()
        if name == "join":
            rows, expected = sorted(map(tuple, rows)), sorted(map(tuple, expected))
        self._close(rows, expected)

    def test_sort_cell_gathers_only_the_row_index(self, data):
        # delivery reads the row index alone, so the sort key it was
        # ordered by is not gathered again
        query = self._queries(data)["sort"]("hybrid")
        shape = query.provider.shape(query.expr, list(query.sources))
        source = shape.compiled("hybrid").source_code
        gathers = [line.strip() for line in source.splitlines() if "[order_1]" in line]
        assert gathers == ["col_1 = row_1[order_1]"]
        assert source.rstrip().endswith("return _gather_objects(objs_1, col_1)")

    @pytest.mark.parametrize("name", ("q1", "q3", "q4"))
    def test_min_aggregations_equal_linq(self, data, name):
        build = self._queries(data)[name]
        rows = _pinned_rows(build("hybrid"), HybridBackend(minimal=True))
        self._close(rows, build("linq").to_list())


class TestStagedKeys:
    def test_q1_groups_its_staged_flags_densely(self):
        # q1's one-character flags stage as S8 (the sampled width's floor);
        # their shared NUL padding is shifted off, so the range is dense
        from repro.observability import METRICS
        from repro.tpch import TPCHData, q1

        query = q1(TPCHData(scale=0.002, seed=3), "hybrid")
        names = ("runtime.kernels.dense", "runtime.kernels.sorted.sparse")
        before = [METRICS.counter(name).value for name in names]
        query.to_list()
        dense, sparse = (
            METRICS.counter(name).value - was for name, was in zip(names, before)
        )
        assert dense > 0 and sparse == 0
