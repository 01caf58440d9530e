"""The emission state every backend shares (``codegen/source.py``): the
guard-elision decoder and the one ``compile`` body's lowering fallback."""

import pytest

from repro.analysis import DataflowFacts
from repro.codegen.hybrid_backend import HybridBackend
from repro.codegen.lower import lower_plan
from repro.codegen.native_backend import NativeBackend
from repro.codegen.python_backend import PythonBackend
from repro.codegen.source import Elision, elision
from repro.plans import optimize, translate
from repro.tpch import TPCHData, aggregation_micro, q3, sorting_micro

DEAD = ((1, "contradiction"),)
PROVEN = ((0, 0), (2, 1))


def _facts(**fields):
    return DataflowFacts(effects=None, **fields)


ELISION_TABLE = {
    "option-off": (
        "0",
        _facts(
            division_sites=2,
            divisions_proven=2,
            dead_pipelines=DEAD,
            proven_filters=PROVEN,
        ),
        Elision(),
    ),
    "no-facts": ("1", None, Elision()),
    "no-division-sites": ("1", _facts(), Elision(avg=True)),
    "divisions-unproven": (
        "1",
        _facts(division_sites=2, divisions_proven=1),
        Elision(avg=True),
    ),
    "divisions-proven": (
        "1",
        _facts(division_sites=2, divisions_proven=2),
        Elision(division=True, avg=True),
    ),
    "dead-and-proven-filters": (
        "1",
        _facts(dead_pipelines=DEAD, proven_filters=PROVEN),
        Elision(avg=True, dead={1: "contradiction"}, filters=frozenset(PROVEN)),
    ),
}


@pytest.mark.parametrize("case", sorted(ELISION_TABLE))
def test_elision_decodes_the_facts_once(monkeypatch, case):
    option, facts, expected = ELISION_TABLE[case]
    monkeypatch.setenv("REPRO_GUARD_ELISION", option)
    assert elision(facts) == expected


@pytest.fixture(scope="module")
def data():
    return TPCHData(scale=0.001)


BACKENDS = {
    "compiled": PythonBackend,
    "native": NativeBackend,
    "hybrid": HybridBackend,
}
BUILDERS = {
    "agg": lambda data, engine: aggregation_micro(data, engine, 0.6),
    "q3": q3,
    "sort": lambda data, engine: sorting_micro(data, engine, 0.2),
}


@pytest.mark.parametrize("engine", sorted(BACKENDS))
@pytest.mark.parametrize("query", sorted(BUILDERS))
def test_compile_without_ir_lowers_the_plan_itself(data, engine, query):
    """``compile(plan, sources)`` emits what the lowered IR emits."""
    built = BUILDERS[query](data, engine)
    plan = optimize(translate(built.expr))
    sources = list(built.sources)
    backend = BACKENDS[engine]()
    fallback = backend.compile(plan, sources)
    lowered = backend.compile(plan, sources, ir=lower_plan(plan))
    assert fallback.source_code == lowered.source_code
