"""Golden-source determinism: codegen is a pure function of the query.

Two fresh providers (separate caches, separate name allocators) given the
same query must emit byte-identical modules on every codegen engine.  This
pins down the whole lowering path — canonicalization, optimization, the
shared pipeline IR (CSE binding order, conjunct order, pipeline
numbering), and the printers — as deterministic, which the EXPLAIN goldens
and the compiled-artifact cache both rely on.
"""

import pytest

from pinned_hybrids import pinned_hybrids  # noqa: F401 - fixture
from repro import new
from repro.query import ENGINES as REPRO_ENGINES
from repro.query import QueryProvider, from_iterable, from_struct_array
from repro.storage import Field, Schema, StructArray
from repro.tpch.datagen import TPCHData
from repro.tpch.queries import q1, q3

#: every codegen engine, plus the pinned buffered-Max hybrid column
ENGINES = REPRO_ENGINES[1:] + ("hybrid_buffered",)

pytestmark = pytest.mark.usefixtures("pinned_hybrids")

SCHEMA = Schema(
    [
        Field("id", "int"),
        Field("g", "int"),
        Field("v", "float"),
        Field("s", "str", 4),
    ],
    name="Det",
)
ARRAY = StructArray.from_rows(
    SCHEMA, [(i, i % 5, i * 0.25, "ab") for i in range(64)]
)
OBJECTS = ARRAY.to_objects()


@pytest.fixture(scope="module")
def tpch():
    return TPCHData(scale=0.01, seed=7)


def _source(engine, provider):
    if engine == "native":
        return from_struct_array(ARRAY).using(engine, provider)
    return from_iterable(OBJECTS, schema=SCHEMA).using(engine, provider)


def _shapes(engine, provider):
    base = _source(engine, provider)
    return {
        "filter-project": base.where(lambda r: r.g > 1).select(
            lambda r: new(i=r.id, y=r.v + r.v)
        ),
        "cse-conjuncts": base.where(
            lambda r: ((r.v + r.v) > 1.0) & ((r.v + r.v) < 20.0)
        ).select(lambda r: r.id),
        "group-sort": base.where(lambda r: r.id >= 3)
        .group_by(
            lambda r: r.g,
            lambda grp: new(k=grp.key, t=grp.sum(lambda r: r.v)),
        )
        .order_by(lambda p: p.k),
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_fresh_providers_emit_identical_modules(engine):
    sources = {}
    for run in range(2):
        provider = QueryProvider()
        for name, query in _shapes(engine, provider).items():
            compiled = provider.compile_info(query.expr, query.sources, engine)
            sources.setdefault(name, []).append(compiled.source_code)
    for name, (first, second) in sources.items():
        assert first == second, (
            f"{engine}/{name}: generated source differs across fresh "
            f"providers"
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_tpch_modules_deterministic(engine, tpch):
    emitted = []
    for run in range(2):
        provider = QueryProvider()
        for builder in (q1, q3):
            query = builder(tpch, engine, provider=provider)
            compiled = provider.compile_info(query.expr, query.sources, engine)
            emitted.append(compiled.source_code)
    half = len(emitted) // 2
    assert emitted[:half] == emitted[half:]
