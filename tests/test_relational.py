"""Tests for the mini relational engine (Table-1 stand-ins)."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.expressions import Constant, Lambda, Member, Var, new, trace_lambda
from repro.plans import (
    AggregateSpec,
    Filter,
    GroupAggregate,
    Join,
    Project,
    Scan,
    ScalarAggregate,
    Sort,
    TopN,
)
from repro.relational import (
    CompiledExecutor,
    VBatch,
    VectorizedExecutor,
    VolcanoExecutor,
    tpch_bundle,
    vec_eval,
)
from repro.storage import Field, Schema, StructArray
from repro.tpch import TPCHData, reference_q1, reference_q2, reference_q3

ITEM = Schema(
    [Field("k", "int"), Field("name", "str", 8), Field("v", "float")],
    name="Item",
)
ROWS = [(1, "aa", 1.5), (2, "bb", 2.5), (1, "cc", 3.5), (3, "aa", 4.5)]

EXECUTORS = [VolcanoExecutor(), CompiledExecutor(), VectorizedExecutor(batch_size=2)]


def sources_for(executor, array):
    if isinstance(executor, VectorizedExecutor):
        return [array]
    return [array.to_objects()]


@pytest.fixture(scope="module")
def items():
    return StructArray.from_rows(ITEM, ROWS)


@pytest.mark.parametrize("executor", EXECUTORS, ids=lambda e: e.name)
class TestExecutors:
    def test_filter(self, executor, items):
        plan = Filter(Scan(0, ITEM.token), trace_lambda(lambda r: r.k == 1))
        rows = list(executor.execute(plan, sources_for(executor, items), {}))
        assert [r.name for r in rows] == ["aa", "cc"]

    def test_group_aggregate(self, executor, items):
        plan = GroupAggregate(
            Scan(0, ITEM.token),
            key=trace_lambda(lambda r: r.k),
            aggregates=(
                AggregateSpec("sum", trace_lambda(lambda r: r.v)),
                AggregateSpec("count", None),
            ),
            output=new(k=Var("__key"), total=Var("__agg0"), n=Var("__agg1"))._node,
        )
        rows = list(executor.execute(plan, sources_for(executor, items), {}))
        got = {r.k: (round(r.total, 2), r.n) for r in rows}
        assert got == {1: (5.0, 2), 2: (2.5, 1), 3: (4.5, 1)}

    def test_scalar_aggregate(self, executor, items):
        plan = ScalarAggregate(
            Scan(0, ITEM.token),
            aggregates=(AggregateSpec("sum", trace_lambda(lambda r: r.v)),),
            output=Var("__agg0"),
        )
        total = executor.execute_scalar(plan, sources_for(executor, items), {})
        assert total == pytest.approx(12.0)

    def test_sort(self, executor, items):
        plan = Sort(Scan(0, ITEM.token), (trace_lambda(lambda r: r.v),), (True,))
        rows = list(executor.execute(plan, sources_for(executor, items), {}))
        assert [r.v for r in rows] == [4.5, 3.5, 2.5, 1.5]

    def test_topn(self, executor, items):
        plan = TopN(
            Scan(0, ITEM.token),
            (trace_lambda(lambda r: r.v),),
            (False,),
            Constant(2),
        )
        rows = list(executor.execute(plan, sources_for(executor, items), {}))
        assert [r.v for r in rows] == [1.5, 2.5]

    def test_scalar_guard(self, executor, items):
        plan = ScalarAggregate(
            Filter(Scan(0, ITEM.token), trace_lambda(lambda r: r.k > 99)),
            aggregates=(AggregateSpec("min", trace_lambda(lambda r: r.v)),),
            output=Var("__agg0"),
        )
        with pytest.raises(ExecutionError):
            executor.execute_scalar(plan, sources_for(executor, items), {})


class TestVecEval:
    def _batch(self):
        return VBatch(
            {"x": np.array([1.0, 2.0, 3.0]), "s": np.array([b"ab", b"cd", b"ae"])},
            {"x": "float", "s": "str"},
        )

    def test_arithmetic(self):
        lam = trace_lambda(lambda r: r.x * 2 + 1)
        out = vec_eval(lam.body, {"r": self._batch()}, {})
        assert out.tolist() == [3.0, 5.0, 7.0]

    def test_string_coercion(self):
        lam = trace_lambda(lambda r: r.s == "ab")
        out = vec_eval(lam.body, {"r": self._batch()}, {})
        assert out.tolist() == [True, False, False]

    def test_startswith(self):
        lam = trace_lambda(lambda r: r.s.startswith("a"))
        out = vec_eval(lam.body, {"r": self._batch()}, {})
        assert out.tolist() == [True, False, True]

    def test_unbound_param(self):
        from repro.expressions import Param

        with pytest.raises(ExecutionError, match="unbound query parameter"):
            vec_eval(Param("p"), {}, {})

    def test_missing_column(self):
        lam = trace_lambda(lambda r: r.zzz)
        with pytest.raises(ExecutionError, match="no column"):
            vec_eval(lam.body, {"r": self._batch()}, {})


class TestTable1Bundles:
    @pytest.fixture(scope="class")
    def data(self):
        return TPCHData(scale=0.002)

    @pytest.mark.parametrize("executor", EXECUTORS, ids=lambda e: e.name)
    def test_q1_matches_reference(self, data, executor):
        bundle = tpch_bundle(data, "q1")
        rows = bundle.run(executor)
        expected = reference_q1(data)
        got = [
            (r.l_returnflag, r.l_linestatus, round(r.sum_qty, 2), r.count_order)
            for r in rows
        ]
        exp = [(r[0], r[1], round(r[2], 2), r[9]) for r in expected]
        assert got == exp

    @pytest.mark.parametrize("executor", EXECUTORS, ids=lambda e: e.name)
    def test_q3_matches_reference(self, data, executor):
        bundle = tpch_bundle(data, "q3")
        rows = bundle.run(executor)
        expected = reference_q3(data)
        got = [(r.l_orderkey, round(r.revenue, 2)) for r in rows]
        exp = [(a, round(b, 2)) for a, b, _, _ in expected]
        assert got == exp

    def test_q2_all_executors_agree(self, data):
        bundle = tpch_bundle(data, "q2")
        results = []
        for executor in EXECUTORS:
            rows = bundle.run(executor)
            results.append([(round(r.s_acctbal, 2), r.p_partkey) for r in rows])
        assert results[0] == results[1] == results[2]
        expected = [(round(a, 2), d) for a, _, _, d, _ in reference_q2(data)]
        assert results[0] == expected

    def test_unknown_bundle(self, data):
        with pytest.raises(ValueError, match="unknown TPC-H query"):
            tpch_bundle(data, "q99")


PLAIN_ROWS = [(1, "aa", 1.5), (2, "bb", 2.5), (1, "cc", 3.5), (3, "aa", 4.5)]


@pytest.mark.parametrize("executor", EXECUTORS, ids=lambda e: e.name)
class TestMoreOperators:
    def test_project(self, executor, items):
        plan = Project(
            Scan(0, ITEM.token), trace_lambda(lambda r: new(twice=r.v * 2))
        )
        rows = list(executor.execute(plan, sources_for(executor, items), {}))
        assert [round(r.twice, 1) for r in rows] == [3.0, 5.0, 7.0, 9.0]

    def test_limit_with_offset(self, executor, items):
        from repro.plans import Limit

        plan = Limit(Scan(0, ITEM.token), count=Constant(2), offset=Constant(1))
        rows = list(executor.execute(plan, sources_for(executor, items), {}))
        assert [r.name for r in rows] == ["bb", "cc"]

    def test_distinct(self, executor, items):
        from repro.plans import Distinct

        plan = Distinct(
            Project(Scan(0, ITEM.token), trace_lambda(lambda r: new(k=r.k)))
        )
        rows = list(executor.execute(plan, sources_for(executor, items), {}))
        assert [r.k for r in rows] == [1, 2, 3]

    def test_concat(self, executor, items):
        from repro.plans import Concat

        plan = Concat(Scan(0, ITEM.token), Scan(1, ITEM.token))
        sources = sources_for(executor, items) * 2
        rows = list(executor.execute(plan, sources, {}))
        assert len(rows) == 8

    def test_join(self, executor, items):
        plan = Join(
            Scan(0, ITEM.token),
            Scan(1, ITEM.token),
            trace_lambda(lambda l: l.k),
            trace_lambda(lambda r: r.k),
            trace_lambda(lambda l, r: new(k=l.k, a=l.v, b=r.v)),
        )
        sources = sources_for(executor, items) * 2
        rows = list(executor.execute(plan, sources, {}))
        # key 1 matches 2x2, keys 2 and 3 match 1x1 each
        assert len(rows) == 6

    def test_parameterized_filter(self, executor, items):
        from repro.expressions import Param, Binary, Member, Var, Lambda

        predicate = Lambda(("r",), Binary("ge", Member(Var("r"), "v"), Param("lo")))
        plan = Filter(Scan(0, ITEM.token), predicate)
        rows = list(
            executor.execute(plan, sources_for(executor, items), {"lo": 3.0})
        )
        assert [r.name for r in rows] == ["cc", "aa"]

    def test_avg_scalar(self, executor, items):
        plan = ScalarAggregate(
            Scan(0, ITEM.token),
            aggregates=(AggregateSpec("avg", trace_lambda(lambda r: r.v)),),
            output=Var("__agg0"),
        )
        value = executor.execute_scalar(plan, sources_for(executor, items), {})
        assert value == pytest.approx(3.0)

    def test_composite_group_key(self, executor, items):
        plan = GroupAggregate(
            Scan(0, ITEM.token),
            key=trace_lambda(lambda r: new(k=r.k, name=r.name)),
            aggregates=(AggregateSpec("count", None),),
            output=new(
                k=Member(Var("__key"), "k"),
                name=Member(Var("__key"), "name"),
                n=Var("__agg0"),
            )._node,
        )
        rows = list(executor.execute(plan, sources_for(executor, items), {}))
        assert len(rows) == 4  # all (k, name) pairs distinct

    def test_multi_key_sort(self, executor, items):
        plan = Sort(
            Scan(0, ITEM.token),
            (trace_lambda(lambda r: r.name), trace_lambda(lambda r: r.v)),
            (False, True),
        )
        rows = list(executor.execute(plan, sources_for(executor, items), {}))
        assert [(r.name, r.v) for r in rows] == [
            ("aa", 4.5), ("aa", 1.5), ("bb", 2.5), ("cc", 3.5),
        ]
