"""Tests for the reference interpreter and printer round-trips."""

from types import SimpleNamespace

import pytest

from repro.errors import ExecutionError, UnsupportedExpressionError
from repro.expressions import (
    Call,
    Constant,
    Member,
    Param,
    ScalarPrinter,
    Var,
    interpret,
    make_callable,
    make_record_type,
    trace_lambda,
    new,
    if_then_else,
    P,
    substitute,
)


def make_item(**kw):
    return SimpleNamespace(**kw)


class TestInterpreter:
    def test_constant(self):
        assert interpret(Constant(42)) == 42

    def test_var_binding(self):
        assert interpret(Var("x"), env={"x": 7}) == 7

    def test_unbound_var_raises(self):
        with pytest.raises(ExecutionError, match="unbound variable"):
            interpret(Var("x"))

    def test_param_binding(self):
        assert interpret(Param("p"), params={"p": "London"}) == "London"

    def test_unbound_param_raises(self):
        with pytest.raises(ExecutionError, match="unbound query parameter"):
            interpret(Param("p"))

    def test_member_on_object(self):
        item = make_item(name="London")
        assert interpret(Member(Var("s"), "name"), env={"s": item}) == "London"

    def test_member_on_mapping(self):
        assert interpret(Member(Var("s"), "name"), env={"s": {"name": "x"}}) == "x"

    def test_traced_predicate_semantics(self):
        lam = trace_lambda(lambda s: (s.x > 1) & (s.y < 5))
        f = make_callable(lam)
        assert f(make_item(x=2, y=3)) is True
        assert f(make_item(x=0, y=3)) is False
        assert f(make_item(x=2, y=9)) is False

    def test_traced_arithmetic(self):
        lam = trace_lambda(lambda s: s.price * (1 - s.discount))
        f = make_callable(lam)
        assert f(make_item(price=100.0, discount=0.25)) == pytest.approx(75.0)

    def test_conditional(self):
        lam = trace_lambda(lambda s: if_then_else(s.x > 0, s.x, -s.x))
        f = make_callable(lam)
        assert f(make_item(x=-4)) == 4
        assert f(make_item(x=3)) == 3

    def test_string_methods(self):
        lam = trace_lambda(lambda s: s.name.startswith("Lo"))
        assert make_callable(lam)(make_item(name="London")) is True
        lam2 = trace_lambda(lambda s: s.name.contains("ondo"))
        assert make_callable(lam2)(make_item(name="London")) is True
        assert make_callable(lam2)(make_item(name="Paris")) is False

    def test_unknown_function_raises(self):
        with pytest.raises(UnsupportedExpressionError):
            interpret(Call("mystery", (Constant(1),)))

    def test_new_builds_record(self):
        lam = trace_lambda(lambda s: new(a=s.x, b=s.x + 1))
        row = make_callable(lam)(make_item(x=5))
        assert (row.a, row.b) == (5, 6)

    def test_params_flow_through_callable(self):
        lam = trace_lambda(lambda s: s.name == P("city"))
        f = make_callable(lam, params={"city": "London"})
        assert f(make_item(name="London")) is True


class TestAggregateInterpretation:
    def _group(self, key, items):
        from repro.runtime.hashtable import Grouping

        return Grouping(key, items)

    def test_sum_over_group(self):
        lam = trace_lambda(lambda g: new(total=g.sum(lambda s: s.v)))
        g = self._group("k", [make_item(v=1), make_item(v=2), make_item(v=3)])
        assert make_callable(lam)(g).total == 6

    def test_count_avg_min_max(self):
        lam = trace_lambda(
            lambda g: new(
                n=g.count(),
                a=g.avg(lambda s: s.v),
                lo=g.min(lambda s: s.v),
                hi=g.max(lambda s: s.v),
            )
        )
        g = self._group("k", [make_item(v=2), make_item(v=4)])
        row = make_callable(lam)(g)
        assert (row.n, row.a, row.lo, row.hi) == (2, 3.0, 2, 4)

    def test_group_key_access(self):
        lam = trace_lambda(lambda g: new(k=g.key, n=g.count()))
        g = self._group("london", [make_item(v=1)])
        assert make_callable(lam)(g).k == "london"


class TestRecordTypes:
    def test_same_fields_share_type(self):
        t1 = make_record_type(("a", "b"))
        t2 = make_record_type(("a", "b"))
        assert t1 is t2

    def test_different_fields_get_distinct_types(self):
        assert make_record_type(("a",)) is not make_record_type(("b",))

    def test_records_compare_by_value(self):
        t = make_record_type(("a", "b"))
        assert t(1, 2) == t(1, 2)


class TestPrinter:
    def _roundtrip(self, fn, env, params=None):
        """Emit source for a traced lambda and compare eval with interpret."""
        lam = trace_lambda(fn)
        var_map = {name: f"elem_{i}" for i, name in enumerate(lam.params)}
        printer = ScalarPrinter(var_map=var_map)
        src = printer.emit(lam.body)
        scope = dict(printer.namespace)
        scope["_params"] = params or {}
        scope.update({var_map[n]: v for n, v in env.items()})
        compiled = eval(src, scope)  # noqa: S307 - test-only eval of our own codegen
        interpreted = interpret(lam.body, env=env, params=params or {})
        assert compiled == interpreted
        return src

    def test_comparison_roundtrip(self):
        src = self._roundtrip(lambda s: s.x > 3, {"s": make_item(x=5)})
        assert "elem_0.x" in src

    def test_arithmetic_roundtrip(self):
        self._roundtrip(
            lambda s: s.price * (1 - s.discount) + 2,
            {"s": make_item(price=10.0, discount=0.5)},
        )

    def test_logic_roundtrip(self):
        self._roundtrip(
            lambda s: (s.x > 1) & ((s.y < 5) | ~(s.z == 0)),
            {"s": make_item(x=2, y=9, z=1)},
        )

    def test_param_rendering(self):
        src = self._roundtrip(
            lambda s: s.name == P("city"),
            {"s": make_item(name="London")},
            params={"city": "London"},
        )
        assert "_params['city']" in src

    def test_method_and_conditional_roundtrip(self):
        self._roundtrip(
            lambda s: if_then_else(s.name.startswith("L"), 1, 0),
            {"s": make_item(name="London")},
        )

    def test_contains_renders_as_in(self):
        lam = trace_lambda(lambda s: s.name.contains("ond"))
        printer = ScalarPrinter(var_map={"s": "e"})
        assert printer.emit(lam.body) == "('ond' in e.name)"

    def test_new_binds_record_type(self):
        lam = trace_lambda(lambda s: new(a=s.x))
        printer = ScalarPrinter(var_map={"s": "e"})
        src = printer.emit(lam.body)
        # built frame-free: tuple.__new__ on the bound type, not RT(...)
        assert src == "_tuple_new(_rt_rowtype_0, (e.x,))"
        record_type = printer.namespace["_rt_rowtype_0"]
        assert record_type._fields == ("a",)
        assert printer.namespace["_tuple_new"] is tuple.__new__
        row = eval(src, dict(printer.namespace), {"e": make_item(x=7)})
        assert type(row) is record_type and row == (7,)

    def test_unknown_var_raises(self):
        printer = ScalarPrinter(var_map={})
        with pytest.raises(UnsupportedExpressionError, match="no code binding"):
            printer.emit(Var("mystery"))

    def test_substitute_then_print(self):
        lam = trace_lambda(lambda s: s.x + 1)
        inlined = substitute(lam.body, {"s": Var("row")})
        printer = ScalarPrinter(var_map={"row": "row"})
        assert printer.emit(inlined) == "(row.x + 1)"
