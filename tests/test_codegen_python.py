"""Unit tests for the §4 backend: generated fused-loop Python."""

import re
from types import SimpleNamespace

import pytest

from repro.codegen.python_backend import PythonBackend
from repro.errors import CodegenError
from repro.expressions import Constant, Lambda, Var, new, trace_lambda
from repro.plans import (
    AggregateSpec,
    Concat,
    Distinct,
    Filter,
    GroupAggregate,
    GroupBy,
    Join,
    Limit,
    Project,
    Scan,
    ScalarAggregate,
    Sort,
    TopN,
    translate,
)
from repro.expressions.builder import ExprProxy, unwrap
from repro.expressions.nodes import New, QueryOp, SourceExpr
from repro.query import QueryProvider, RecyclingProvider, from_iterable
from repro.storage import Field, Schema, StructArray
from repro.tpch import TPCHData, aggregation_micro, join_micro, q1, q3


def item(**kw):
    return SimpleNamespace(**kw)


def compile_plan(plan):
    return PythonBackend().compile(plan, sources=[])


def run(plan, *sources, params=None):
    compiled = compile_plan(plan)
    result = compiled.execute(list(sources), params or {})
    return result if compiled.scalar else list(result)


SCAN = Scan(0, "T")


class TestGeneratedStructure:
    def test_single_fused_loop_for_filter_project(self):
        plan = Project(
            Filter(SCAN, trace_lambda(lambda s: s.x > 1)),
            trace_lambda(lambda s: s.x * 2),
        )
        compiled = compile_plan(plan)
        # exactly one loop over the source: pipelined operators fuse
        assert compiled.source_code.count("for elem") == 1
        assert "yield" in compiled.source_code

    def test_no_interpreter_calls_in_generated_code(self):
        plan = Filter(SCAN, trace_lambda(lambda s: s.x > 1))
        compiled = compile_plan(plan)
        assert "interpret" not in compiled.source_code
        assert "make_callable" not in compiled.source_code

    def test_blocking_operator_splits_loops(self):
        plan = Sort(
            Filter(SCAN, trace_lambda(lambda s: s.x > 0)),
            (trace_lambda(lambda s: s.x),),
            (False,),
        )
        compiled = compile_plan(plan)
        assert compiled.source_code.count("for ") >= 2  # input loop + output loop

    def test_scalar_plan_returns_not_yields(self):
        plan = ScalarAggregate(
            SCAN,
            (AggregateSpec("count", None),),
            Var("__agg0"),
        )
        compiled = compile_plan(plan)
        assert compiled.scalar
        assert "yield" not in compiled.source_code
        assert "return" in compiled.source_code

    def test_unknown_plan_node_raises(self):
        class Alien:
            pass

        with pytest.raises(CodegenError, match="no pipeline lowering"):
            compile_plan(Alien())


class TestExecutionSemantics:
    def test_filter_project(self):
        plan = Project(
            Filter(SCAN, trace_lambda(lambda s: s.x > 1)),
            trace_lambda(lambda s: s.x * 10),
        )
        assert run(plan, [item(x=1), item(x=2), item(x=3)]) == [20, 30]

    def test_join_probe_order(self):
        plan = Join(
            Scan(0, "L"),
            Scan(1, "R"),
            trace_lambda(lambda l: l.k),
            trace_lambda(lambda r: r.k),
            trace_lambda(lambda l, r: new(a=l.a, b=r.b)),
        )
        left = [item(k=1, a="x"), item(k=2, a="y"), item(k=1, a="z")]
        right = [item(k=1, b=10), item(k=1, b=20)]
        rows = run(plan, left, right)
        assert [(r.a, r.b) for r in rows] == [
            ("x", 10), ("x", 20), ("z", 10), ("z", 20)
        ]

    def test_group_aggregate_first_seen_order(self):
        plan = GroupAggregate(
            SCAN,
            trace_lambda(lambda s: s.g),
            (AggregateSpec("sum", trace_lambda(lambda s: s.v)),),
            new(g=Var("__key"), total=Var("__agg0"))._node,
        )
        rows = run(plan, [item(g="b", v=1), item(g="a", v=2), item(g="b", v=3)])
        assert [(r.g, r.total) for r in rows] == [("b", 4), ("a", 2)]

    def test_unfused_groupby_project_with_aggregates(self):
        # Project-over-GroupBy with AggCalls: the ablation codegen path
        expr = QueryOp(
            "select",
            QueryOp("group_by", SourceExpr(0, "T"), (trace_lambda(lambda s: s.g),)),
            (
                trace_lambda(
                    lambda g: new(g=g.key, n=g.count(), t=g.sum(lambda s: s.v))
                ),
            ),
        )
        from repro.plans.translate import TranslateOptions

        plan = translate(expr, TranslateOptions(fuse_aggregates=False))
        rows = run(plan, [item(g=1, v=5), item(g=1, v=7), item(g=2, v=1)])
        assert [(r.g, r.n, r.t) for r in rows] == [(1, 2, 12), (2, 1, 1)]

    def test_unfused_avg(self):
        expr = QueryOp(
            "select",
            QueryOp("group_by", SourceExpr(0, "T"), (trace_lambda(lambda s: s.g),)),
            (trace_lambda(lambda g: new(a=g.avg(lambda s: s.v))),),
        )
        from repro.plans.translate import TranslateOptions

        plan = translate(expr, TranslateOptions(fuse_aggregates=False))
        rows = run(plan, [item(g=1, v=2.0), item(g=1, v=4.0)])
        assert rows[0].a == pytest.approx(3.0)

    def test_unfused_min_max(self):
        expr = QueryOp(
            "select",
            QueryOp("group_by", SourceExpr(0, "T"), (trace_lambda(lambda s: s.g),)),
            (
                trace_lambda(
                    lambda g: new(lo=g.min(lambda s: s.v), hi=g.max(lambda s: s.v))
                ),
            ),
        )
        from repro.plans.translate import TranslateOptions

        plan = translate(expr, TranslateOptions(fuse_aggregates=False))
        rows = run(plan, [item(g=1, v=3), item(g=1, v=9)])
        assert (rows[0].lo, rows[0].hi) == (3, 9)

    def test_limit_mid_pipeline(self):
        plan = Project(
            Limit(SCAN, count=Constant(2)),
            trace_lambda(lambda s: s.x),
        )
        assert run(plan, [item(x=i) for i in range(5)]) == [0, 1]

    def test_limit_offset(self):
        plan = Limit(SCAN, count=Constant(2), offset=Constant(1))
        rows = run(plan, [item(x=i) for i in range(5)])
        assert [r.x for r in rows] == [1, 2]

    def test_distinct(self):
        plan = Distinct(Project(SCAN, trace_lambda(lambda s: s.x)))
        assert run(plan, [item(x=1), item(x=2), item(x=1)]) == [1, 2]

    def test_concat(self):
        plan = Concat(Scan(0, "A"), Scan(1, "B"))
        rows = run(plan, [item(x=1)], [item(x=2)])
        assert [r.x for r in rows] == [1, 2]

    def test_topn_with_param_count(self):
        from repro.expressions import Param

        plan = TopN(SCAN, (trace_lambda(lambda s: s.x),), (False,), Param("n"))
        compiled = compile_plan(plan)
        rows = list(compiled.execute([[item(x=3), item(x=1), item(x=2)]], {"n": 2}))
        assert [r.x for r in rows] == [1, 2]

    def test_groupby_yields_groupings(self):
        plan = GroupBy(SCAN, trace_lambda(lambda s: s.g))
        groups = run(plan, [item(g=1), item(g=2), item(g=1)])
        assert [g.key for g in groups] == [1, 2]
        assert len(list(groups[0])) == 2

    def test_scalar_sum_filtered(self):
        plan = ScalarAggregate(
            Filter(SCAN, trace_lambda(lambda s: s.x > 1)),
            (AggregateSpec("sum", trace_lambda(lambda s: s.x)),),
            Var("__agg0"),
        )
        assert run(plan, [item(x=1), item(x=2), item(x=3)]) == 5

    def test_multi_key_sort_directions(self):
        plan = Sort(
            SCAN,
            (trace_lambda(lambda s: s.a), trace_lambda(lambda s: s.b)),
            (False, True),
        )
        rows = run(
            plan,
            [item(a=1, b=1), item(a=0, b=1), item(a=1, b=9), item(a=0, b=5)],
        )
        assert [(r.a, r.b) for r in rows] == [(0, 5), (0, 1), (1, 9), (1, 1)]

    def test_params_bound_once_in_preamble(self):
        from repro.expressions import Param, Binary, Member

        predicate = Lambda(
            ("s",),
            Binary(
                "and",
                Binary("gt", Member(Var("s"), "x"), Param("t")),
                Binary("lt", Member(Var("s"), "x"), Param("t")),
            ),
        )
        compiled = compile_plan(Filter(SCAN, predicate))
        # the parameter is fetched from _params exactly once
        assert compiled.source_code.count("_params['t']") == 1


class TestCompiledQueryMetadata:
    def test_timings_recorded(self):
        compiled = compile_plan(Filter(SCAN, trace_lambda(lambda s: s.x > 1)))
        assert compiled.codegen_seconds > 0
        assert compiled.compile_seconds > 0
        assert compiled.engine == "compiled"

    def test_source_is_valid_python(self):
        import ast

        compiled = compile_plan(
            Sort(SCAN, (trace_lambda(lambda s: s.x),), (True,))
        )
        ast.parse(compiled.source_code)


# ---------------------------------------------------------------------------
# Records: keys are plain tuples, every record is built frame-free
# ---------------------------------------------------------------------------

REC_A = Schema(
    [Field("id", "int"), Field("g", "int"), Field("v", "float"), Field("s", "str", 4)],
    name="RecA",
)
REC_B = Schema(
    [Field("k", "int"), Field("t", "str", 4), Field("w", "float")], name="RecB"
)
REC_ROWS_A = [(i, i % 4, (i % 7) * 0.5, "ab"[i % 2]) for i in range(90)]
REC_ROWS_B = [(k % 5, "ab"[k % 3 % 2], k * 0.25) for k in range(24)]
ESCAPE_PROVIDER = QueryProvider()


def typed_new(type_name, **fields):
    """``new(...)`` whose record type carries its own type name."""
    return ExprProxy(
        New(tuple((k, unwrap(v)) for k, v in fields.items()), type_name)
    )


def _escape_whole_key(a, b):
    return a.group_by(
        lambda r: new(g=r.g, s=r.s),
        lambda grp: new(key=grp.key, n=grp.count(), t=grp.sum(lambda r: r.v)),
    )


def _escape_bare_key(a, b):
    return a.where(lambda r: r.v > 0.5).group_by(
        lambda r: new(g=r.g, s=r.s), lambda grp: grp.key
    )


def _escape_grouping(a, b):
    return a.group_by(lambda r: new(g=r.g, s=r.s))


def _escape_select_sort(a, b):
    return a.select(lambda r: new(i=r.id, v=r.v, s=r.s)).order_by(lambda x: x.v)


def _escape_typed_join_keys(a, b):
    return a.join(
        b,
        lambda r: typed_new("LeftKey", g=r.g, s=r.s),
        lambda x: typed_new("RightKey", k=x.k, t=x.t),
        lambda r, x: new(i=r.id, w=x.w),
    )


def _escape_join_rows(a, b):
    # the build side's projected rows are records the probe reads by field
    return a.join(
        b.select(lambda x: new(k=x.k, w=x.w)),
        lambda r: r.g,
        lambda x: x.k,
        lambda r, x: new(i=r.id, w=x.w, s=r.s),
    ).where(lambda j: j.w > 1.0)


def _escape_distinct(a, b):
    return a.select(lambda r: new(g=r.g, s=r.s)).distinct()


def _escape_union(a, b):
    return a.select(lambda r: new(g=r.g, s=r.s)).union(
        b.select(lambda x: new(g=x.k, s=x.t))
    )


ESCAPE_SHAPES = (
    _escape_whole_key,
    _escape_bare_key,
    _escape_grouping,
    _escape_select_sort,
    _escape_typed_join_keys,
    _escape_join_rows,
    _escape_distinct,
    _escape_union,
)


def _types(value):
    """A value's type, and its fields' types when it is a tuple."""
    if isinstance(value, tuple):
        return type(value), tuple(_types(field) for field in value)
    return type(value)


def _typed(rows):
    """Rows with their (nested) types; a grouping with its key's."""
    out = []
    for row in rows:
        if isinstance(row, tuple):
            out.append((_types(row), row))
        else:
            out.append((type(row), _types(row.key), row.key, list(row)))
    return out


def _escape_query(shape, engine, a_source, b_source, provider):
    a = from_iterable(a_source, schema=REC_A).using(engine, provider)
    b = from_iterable(b_source, schema=REC_B).using(engine, provider)
    return shape(a, b)


@pytest.mark.parametrize("shape", ESCAPE_SHAPES, ids=lambda s: s.__name__)
@pytest.mark.parametrize("parallel", [None, (2, 17)], ids=["seq", "par2"])
def test_escaping_records_match_linq_in_value_and_type(shape, parallel):
    a_objs = StructArray.from_rows(REC_A, REC_ROWS_A).to_objects()
    b_objs = StructArray.from_rows(REC_B, REC_ROWS_B).to_objects()
    expected = _typed(
        _escape_query(shape, "linq", a_objs, b_objs, ESCAPE_PROVIDER).to_list()
    )
    query = _escape_query(shape, "compiled", a_objs, b_objs, ESCAPE_PROVIDER)
    if parallel is not None:
        query = query.in_parallel(*parallel)
    got = _typed(query.to_list())
    assert got == expected
    assert expected  # the shape produces rows at all


def test_recycled_whole_key_matches_linq_after_append():
    arr = StructArray.from_rows(REC_A, REC_ROWS_A)
    b_arr = StructArray.from_rows(REC_B, REC_ROWS_B)
    provider = RecyclingProvider()
    query = _escape_query(_escape_whole_key, "compiled", arr, b_arr, provider)
    query.to_list()
    arr.append_rows([(1000 + i, i % 6, 0.25 * i, "ba"[i % 2]) for i in range(11)])
    got = _typed(query.to_list())
    expected = _typed(
        _escape_query(_escape_whole_key, "linq", arr, b_arr, QueryProvider()).to_list()
    )
    assert got == expected


def _record_type_calls(compiled):
    """Lines of a generated module that call a record type.  ``RT(...)``
    runs the named tuple's Python-level ``__new__`` once per record; the
    names come from the module's namespace, whatever they were bound as."""
    names = [
        name
        for name, value in compiled.fn.__globals__.items()
        if isinstance(value, type)
        and issubclass(value, tuple)
        and hasattr(value, "_fields")
    ]
    assert names  # the module builds records at all
    calls = re.compile(r"(?<![\w.])(%s)\(" % "|".join(map(re.escape, names)))
    return [
        line.strip()
        for line in compiled.source_code.splitlines()
        if calls.search(line)
    ]


@pytest.mark.parametrize("shape", ESCAPE_SHAPES, ids=lambda s: s.__name__)
def test_frame_free_escape_modules(shape):
    a_objs = StructArray.from_rows(REC_A, REC_ROWS_A).to_objects()
    b_objs = StructArray.from_rows(REC_B, REC_ROWS_B).to_objects()
    query = _escape_query(shape, "compiled", a_objs, b_objs, ESCAPE_PROVIDER)
    compiled = ESCAPE_PROVIDER.compile_info(query.expr, query.sources, "compiled")
    assert not _record_type_calls(compiled), compiled.source_code


def _scan_loop_lines(source):
    """Lines inside ``for <elem> in sources[...]`` loops of a module."""
    inside, depth = [], None
    for line in source.splitlines():
        indent = len(line) - len(line.lstrip())
        if depth is not None and line.strip() and indent <= depth:
            depth = None
        if depth is not None:
            inside.append(line)
        elif line.lstrip().startswith("for ") and "sources[" in line:
            depth = indent
    return inside


@pytest.fixture(scope="module")
def tpch_small():
    return TPCHData(scale=0.001)


@pytest.mark.parametrize(
    "build, builds_in_loop",
    [
        (q1, False),
        (lambda d, e, p: aggregation_micro(d, e, 0.6, p), False),
        (q3, True),  # the join's result rows
        (lambda d, e, p: join_micro(d, e, 0.6, p), True),  # yields records
    ],
    ids=["q1", "agg", "q3", "join"],
)
def test_frame_free_tpch_modules(tpch_small, build, builds_in_loop):
    provider = QueryProvider()
    query = build(tpch_small, "compiled", provider)
    compiled = provider.compile_info(query.expr, query.sources, "compiled")
    assert not _record_type_calls(compiled), compiled.source_code
    # a group key is a plain tuple: q1's and agg's scan loops build no
    # record at all
    loops = "\n".join(_scan_loop_lines(compiled.source_code))
    assert loops
    assert ("_tuple_new(" in loops) == builds_in_loop, compiled.source_code
