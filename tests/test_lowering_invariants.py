"""What the provider derives once, checked here instead of on every run.

The provider lowers a shape and derives its dataflow facts exactly once,
and trusts both: it neither re-walks the IR with ``verify_ir`` nor
re-derives the facts with ``verify_facts``, and lowering takes the
optimizer's conjunct order as it is.  These tests hold the properties
that trust rests on, over TPC-H and a seeded stream of distinct shapes,
on every code-generating engine:

* ``analyze_ir`` is deterministic and leaves the IR it reads unchanged;
* every lowered IR satisfies ``verify_ir``'s structural invariants;
* the optimizer's output is a fixed point of predicate reordering, with
  and without table statistics;
* lowering rejects a plan node it does not understand, wherever it
  sits, with a typed ``CodegenError``.
"""

import copy
import operator
import random
from functools import reduce

import pytest

from repro.codegen.lower import lower_plan
from repro.codegen.verifier import verify_facts, verify_ir
from repro.errors import CodegenError
from repro.expressions import new, trace_lambda
from repro.plans.logical import Filter, Project, Scan, plan_children
from repro.plans.optimizer import (
    OptimizeOptions,
    _Context,
    _reorder_predicates,
    optimize,
)
from repro.plans.statistics import TableStats
from repro.plans.translate import translate
from repro.query import ENGINES, QueryProvider, from_iterable, from_struct_array
from repro.storage import Field, Schema, StructArray
from repro.tpch import queries as tpch
from repro.tpch.datagen import TPCHData

CODEGEN_ENGINES = ENGINES[1:]

TPCH_QUERIES = ("q1", "q2", "q3", "q4", "q13", "q16", "q21", "q22")

#: distinct shapes drawn per seed; every one runs on every engine
SHAPES_PER_SEED = 16
SEEDS = (1, 2, 3)


# ---------------------------------------------------------------------------
# A seeded stream of distinct shapes: filters of one to four conjuncts over
# int, float and string fields, under a projection, a group aggregation, a
# top-n or a join
# ---------------------------------------------------------------------------

ITEM = Schema(
    [
        Field("k", "int"),
        Field("g", "int"),
        Field("x", "float"),
        Field("y", "float"),
        Field("s", "str", 4),
    ],
    name="ColdItem",
)
PART = Schema(
    [Field("k", "int"), Field("w", "float"), Field("t", "str", 4)],
    name="ColdPart",
)
_WORDS = ("ab", "cd", "ef")
_COMPARE = (operator.lt, operator.le, operator.gt, operator.ge, operator.ne)


def _tables():
    rng = random.Random(97)
    items = [
        (i, rng.randrange(5), rng.randrange(-40, 40) * 0.25,
         rng.randrange(1, 40) * 0.25, rng.choice(_WORDS))
        for i in range(96)
    ]
    parts = [(i, rng.randrange(1, 40) * 0.25, rng.choice(_WORDS)) for i in range(24)]
    return StructArray.from_rows(ITEM, items), StructArray.from_rows(PART, parts)


ITEMS, PARTS = _tables()


def _sources(engine, provider):
    if engine == "native":
        return (
            from_struct_array(ITEMS).using(engine, provider),
            from_struct_array(PARTS).using(engine, provider),
        )
    return (
        from_iterable(ITEMS.to_objects(), schema=ITEM).using(engine, provider),
        from_iterable(PARTS.to_objects(), schema=PART).using(engine, provider),
    )


def _draw_atom(rng):
    field = rng.choice(("k", "g", "x", "y", "s", "xy"))
    if field == "s":
        word = rng.choice(_WORDS)
        return lambda r: r.s == word
    compare = rng.choice(_COMPARE)
    const = rng.randrange(-20, 60) * 0.25
    if field == "xy":
        return lambda r: compare(r.x * 2.0 + r.y, const)
    return lambda r: compare(getattr(r, field), const)


def _draw_shape(rng):
    """A builder ``(items, parts) -> query``."""
    atoms = [_draw_atom(rng) for _ in range(rng.randrange(1, 5))]
    family = rng.choice(("project", "group", "topn", "join"))

    def filtered(items):
        return items.where(lambda r: reduce(operator.and_, [a(r) for a in atoms]))

    def build(items, parts):
        q = filtered(items)
        if family == "project":
            return q.select(lambda r: new(k=r.k, z=r.x + r.y, s=r.s))
        if family == "group":
            return q.group_by(
                lambda r: r.g,
                lambda g: new(g=g.key, n=g.count(), t=g.sum(lambda r: r.y)),
            )
        if family == "topn":
            return q.order_by_desc(lambda r: r.x).then_by(lambda r: r.k).take(7)
        return q.join(
            parts.where(lambda p: p.w > 2.0),
            lambda r: r.g,
            lambda p: p.k,
            lambda r, p: new(k=r.k, w=p.w, t=p.t),
        )

    return build


def _cold_queries(engine, provider):
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(SHAPES_PER_SEED):
            yield _draw_shape(rng)(*_sources(engine, provider))


@pytest.fixture(scope="module")
def tpch_data():
    return TPCHData(scale=0.001)


def _corpus(engine, data):
    """Every query of the corpus on *engine*, each on a fresh provider."""
    provider = QueryProvider()
    for name in TPCH_QUERIES:
        yield name, getattr(tpch, name)(data, engine, provider)
    for i, query in enumerate(_cold_queries(engine, provider)):
        yield f"cold{i}", query


def _shape(query):
    return query.provider.shape(query.expr, list(query.sources))


def _walk(plan):
    yield plan
    for child in plan_children(plan):
        yield from _walk(child)


# ---------------------------------------------------------------------------
# The checks that left the provider
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", CODEGEN_ENGINES)
def test_dataflow_facts_rederive_equal_and_leave_the_ir_alone(engine, tpch_data):
    for name, query in _corpus(engine, tpch_data):
        shape = _shape(query)
        ir = shape.ir()
        described = ir.describe()
        source_fields = copy.deepcopy(ir.source_fields)
        required = [copy.deepcopy(p.required_fields) for p in ir.pipelines]
        facts = shape.facts()
        statistics = query.provider.statistics
        for _ in range(2):  # field for field against a fresh analyze_ir
            report = verify_facts(ir, shape.bindings, statistics, facts)
            assert report.violations == (), name
        assert ir.describe() == described, name
        assert ir.source_fields == source_fields, name
        assert [p.required_fields for p in ir.pipelines] == required, name


@pytest.mark.parametrize("engine", CODEGEN_ENGINES)
def test_every_lowered_ir_verifies(engine, tpch_data):
    for name, query in _corpus(engine, tpch_data):
        shape = _shape(query)
        assert verify_ir(shape.ir()).violations == (), name
        split = shape.split("threads")
        if split.parallel:
            kernel = lower_plan(split.core, morsel_ordinal=split.morsel_ordinal)
            assert verify_ir(kernel).violations == (), name


def _statistics(plan, sources):
    return {
        scan.schema_token: TableStats.collect(sources[scan.ordinal])
        for scan in _walk(plan)
        if isinstance(scan, Scan)
    }


@pytest.mark.parametrize("engine", CODEGEN_ENGINES)
def test_optimized_plans_are_a_fixed_point_of_predicate_order(engine, tpch_data):
    filters = 0
    for name, query in _corpus(engine, tpch_data):
        shape = _shape(query)
        plan = translate(shape.canonical.tree, query.provider.translate_options)
        for statistics in ({}, _statistics(plan, shape.sources)):
            optimized = optimize(
                plan, OptimizeOptions(), statistics, param_values=shape.bindings
            )
            context = _Context(OptimizeOptions(), statistics, shape.bindings)
            for node in _walk(optimized):
                if isinstance(node, Filter):
                    filters += 1
                    assert _reorder_predicates(node, context) is node, name
    assert filters > len(TPCH_QUERIES)


class _Alien:
    """A plan node no lowering pass knows."""


def test_unknown_plan_node_below_the_root_raises_codegen_error():
    with pytest.raises(CodegenError, match="no pipeline lowering for plan node _Alien"):
        lower_plan(Project(_Alien(), trace_lambda(lambda v: v.k)))

