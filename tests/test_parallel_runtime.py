"""Determinism tests for the morsel-driven parallel merge edge cases.

Each case pins down one way a partial-result merge could diverge from
sequential execution: empty morsels, more morsels than rows, group keys
spanning morsel boundaries, sort and top-n ties, and the ``avg`` → ``sum``
+ ``count`` decomposition.  Every assertion is exact equality against the
sequential result of the same engine.
"""

import datetime
import os
import subprocess
import sys

import pytest

from repro import new
from repro.errors import ExecutionError
from repro.observability.tracer import TRACER
from repro.query import QueryProvider, from_iterable, from_struct_array
from repro.query.provider import ENGINES
from repro.runtime.parallel import (
    DEFAULT_MORSEL_ROWS,
    morsel_bounds,
    morsel_slice,
)
from repro.plans.translate import TranslateOptions
from repro.storage import Field, Schema, StructArray

SCHEMA = Schema(
    [
        Field("id", "int"),
        Field("g", "int"),
        Field("v", "float"),
        Field("s", "str", 8),
        Field("d", "date"),
    ],
    name="Par",
)

PROVIDER = QueryProvider()


def _rows(n, key=lambda i: i % 3, word=lambda i: "aa"):
    epoch = datetime.date(2020, 1, 1)
    return [
        (
            i,
            key(i),
            (i % 7) * 0.25,
            word(i),
            epoch + datetime.timedelta(days=i % 11),
        )
        for i in range(n)
    ]


def _query_pair(rows, engine):
    array = StructArray.from_rows(SCHEMA, rows)
    if engine == "native":
        return from_struct_array(array).using(engine, PROVIDER)
    return from_iterable(array.to_objects(), schema=SCHEMA).using(
        engine, PROVIDER
    )


def _assert_identical(build, rows, configs=((2, 1), (3, 4), (4, 7), (5, None))):
    """build(query) runs on every parallel engine; every worker/morsel
    combination must reproduce that engine's sequential result exactly."""
    for engine in ENGINES[1:]:
        base = _query_pair(rows, engine)
        try:
            sequential = build(base)
        except ExecutionError as sequential_error:
            for workers, morsel in configs:
                with pytest.raises(ExecutionError) as caught:
                    build(base.in_parallel(workers, morsel))
                assert str(caught.value) == str(sequential_error), engine
            continue
        if not isinstance(sequential, (int, float, str, datetime.date)):
            sequential = list(sequential)
        for workers, morsel in configs:
            parallel = build(base.in_parallel(workers, morsel))
            if not isinstance(parallel, (int, float, str, datetime.date)):
                parallel = list(parallel)
            assert parallel == sequential, (engine, workers, morsel)


# ---------------------------------------------------------------------------
# partitioning primitives
# ---------------------------------------------------------------------------


class TestMorselBounds:
    def test_exact_multiple(self):
        assert morsel_bounds(10, 5) == [(0, 5), (5, 10)]

    def test_straggler(self):
        assert morsel_bounds(11, 5) == [(0, 5), (5, 10), (10, 11)]

    def test_more_morsels_than_rows(self):
        assert morsel_bounds(3, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_single_covering_morsel(self):
        assert morsel_bounds(3, 1000) == [(0, 3)]

    def test_empty_source_still_yields_one_morsel(self):
        assert morsel_bounds(0, 64) == [(0, 0)]

    def test_non_positive_morsel_rejected(self):
        with pytest.raises(ExecutionError):
            morsel_bounds(10, 0)


class TestMorselSlice:
    def test_struct_array_slices_native_data(self):
        array = StructArray.from_rows(SCHEMA, _rows(10))
        part = morsel_slice(array, 2, 5)
        assert isinstance(part, StructArray)
        assert len(part) == 3
        assert list(part) == list(array)[2:5]

    def test_list_slices(self):
        assert morsel_slice([1, 2, 3, 4], 1, 3) == [2, 3]

    def test_unsliceable_iterable_falls_back_to_islice(self):
        class Bag:
            def __iter__(self):
                return iter(range(6))

        assert list(morsel_slice(Bag(), 2, 4)) == [2, 3]


# ---------------------------------------------------------------------------
# merge edge cases, engine × worker × morsel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "module",
    [
        "repro.runtime",
        "repro.runtime.parallel",
        "repro.codegen.source",
        "repro.codegen.hybrid_backend",
        "repro.distributed.worker",
    ],
)
def test_imports_first_in_a_fresh_interpreter(module):
    # the morsel names live in codegen.ir, so no import order between the
    # runtime and codegen packages can meet a half-initialised module
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True
    )
    assert done.returncode == 0, done.stderr.decode()


class TestEmptyMorsels:
    def test_empty_source_rows(self):
        _assert_identical(
            lambda q: q.where(lambda r: r.g > 0).select(lambda r: r.id),
            [],
        )

    def test_empty_source_group(self):
        _assert_identical(
            lambda q: q.group_by(
                lambda r: r.g, lambda g: new(k=g.key, n=g.count())
            ),
            [],
        )

    def test_empty_source_count_and_sum(self):
        _assert_identical(lambda q: q.count(), [])
        _assert_identical(lambda q: q.sum(lambda r: r.v), [])

    def test_empty_source_min_raises_everywhere(self):
        # sequential raises "aggregate of an empty sequence has no value";
        # the parallel merge must re-raise it, not crash on _NO_VALUE
        _assert_identical(lambda q: q.min(lambda r: r.v), [])

    def test_filter_empties_some_morsels_only(self):
        # rows 0..9 survive; morsels past row 9 contribute nothing
        rows = _rows(50)
        _assert_identical(
            lambda q: q.where(lambda r: r.id < 10).max(lambda r: r.v), rows
        )
        _assert_identical(
            lambda q: q.where(lambda r: r.id < 10).select(lambda r: r.id),
            rows,
        )


class TestMorselCountExceedsRows:
    def test_morsel_size_one(self):
        _assert_identical(
            lambda q: q.group_by(
                lambda r: r.g, lambda g: new(k=g.key, t=g.sum(lambda r: r.v))
            ),
            _rows(9),
            configs=((4, 1),),
        )

    def test_workers_exceed_morsels(self):
        _assert_identical(
            lambda q: q.select(lambda r: r.id),
            _rows(3),
            configs=((8, 2), (8, 1000)),
        )


class TestGroupBoundaries:
    def test_keys_spanning_every_morsel(self):
        # key i % 3 recurs in every 7-row morsel: partial tables overlap
        # completely and must merge, not concatenate
        _assert_identical(
            lambda q: q.group_by(
                lambda r: r.g,
                lambda g: new(k=g.key, n=g.count(), t=g.sum(lambda r: r.v)),
            ),
            _rows(100),
        )

    def test_first_seen_order_with_late_new_key(self):
        # key 9 first appears at row 90: sequential first-seen order puts
        # it last, and the morsel-order merge must too
        rows = _rows(100, key=lambda i: 9 if i >= 90 else i % 3)
        _assert_identical(
            lambda q: q.group_by(
                lambda r: r.g, lambda g: new(k=g.key, n=g.count())
            ),
            rows,
        )

    def test_string_widths_varying_across_morsels(self):
        # first morsels only see 1-char keys; a later morsel introduces an
        # 8-char key — the merge dtype must widen, not truncate
        rows = _rows(60, word=lambda i: "widekey8" if i >= 40 else "a")
        _assert_identical(
            lambda q: q.group_by(
                lambda r: r.s, lambda g: new(k=g.key, n=g.count())
            ),
            rows,
            configs=((3, 10),),
        )

    def test_date_keys_and_aggregates(self):
        _assert_identical(
            lambda q: q.group_by(
                lambda r: r.d,
                lambda g: new(k=g.key, lo=g.min(lambda r: r.v)),
            ),
            _rows(50),
        )
        _assert_identical(lambda q: q.min(lambda r: r.d), _rows(50))


class TestOrderSensitivePostOps:
    def test_sort_ties_keep_sequential_order(self):
        # only three distinct sort keys over 80 rows: almost all ties
        _assert_identical(
            lambda q: q.select(lambda r: new(g=r.g, i=r.id)).order_by(
                lambda p: p.g
            ),
            _rows(80),
        )

    def test_topn_ties_cut_mid_run(self):
        # take(10) slices through a tie run; the heap's stable tiebreak
        # must match the managed merge's stable sort
        _assert_identical(
            lambda q: q.select(lambda r: new(g=r.g, i=r.id))
            .order_by(lambda p: p.g)
            .take(10),
            _rows(80),
        )

    def test_sort_desc_with_secondary_key(self):
        _assert_identical(
            lambda q: q.select(lambda r: new(g=r.g, v=r.v, i=r.id))
            .order_by_desc(lambda p: p.g)
            .then_by(lambda p: p.v),
            _rows(90),
        )

    def test_skip_and_take(self):
        _assert_identical(
            lambda q: q.select(lambda r: r.id).skip(13).take(20), _rows(60)
        )

    def test_distinct_first_occurrence(self):
        _assert_identical(
            lambda q: q.select(lambda r: new(g=r.g)).distinct(), _rows(40)
        )


class TestAvgDecomposition:
    def test_scalar_average_across_morsels(self):
        # per-morsel averages differ from the global average; only the
        # sum+count decomposition merges correctly
        _assert_identical(lambda q: q.average(lambda r: r.v), _rows(101))

    def test_group_avg_shares_count_slot(self):
        _assert_identical(
            lambda q: q.group_by(
                lambda r: r.g,
                lambda g: new(
                    k=g.key,
                    a=g.avg(lambda r: r.v),
                    n=g.count(),
                    t=g.sum(lambda r: r.v),
                ),
            ),
            _rows(100),
        )

    def test_avg_of_uneven_groups(self):
        rows = _rows(97, key=lambda i: 0 if i < 90 else 1)
        _assert_identical(
            lambda q: q.group_by(
                lambda r: r.g, lambda g: new(k=g.key, a=g.avg(lambda r: r.id))
            ),
            rows,
        )


class TestWorkerInvariance:
    def test_worker_sweep_identical(self):
        rows = _rows(120)
        results = []
        for engine in ENGINES[1:]:
            base = _query_pair(rows, engine)
            def build(q):
                return list(
                    q.group_by(
                        lambda r: r.s, lambda g: new(k=g.key, t=g.sum(lambda r: r.v))
                    )
                )
            outcomes = [build(base)] + [
                build(base.in_parallel(w, 17)) for w in range(1, 6)
            ]
            assert all(o == outcomes[0] for o in outcomes), engine
            results.append(outcomes[0])


# ---------------------------------------------------------------------------
# fallback + routing behaviour
# ---------------------------------------------------------------------------


class TestFallbacks:
    def test_parallelism_one_is_sequential(self):
        provider = QueryProvider()
        q = from_iterable(
            StructArray.from_rows(SCHEMA, _rows(10)).to_objects(), schema=SCHEMA
        ).using("compiled", provider)
        explicit_one = list(q.in_parallel(1))
        # no morsel kernels were built for workers=1 (checked before the
        # plain query runs: REPRO_PARALLELISM may parallelize that one)
        assert provider.cache.resident() == [(("compiled", "sequential"),)]
        assert explicit_one == list(q)

    def test_linq_ignores_parallelism(self):
        q = from_iterable(
            StructArray.from_rows(SCHEMA, _rows(10)).to_objects(), schema=SCHEMA
        ).using("linq", PROVIDER)
        assert list(q.in_parallel(4, 3)) == list(q)

    def test_hybrid_min_runs_sequentially(self):
        # a whole-element sort stages row indexes, which emit no morsel
        # kernels: the threads tier refuses it and names why
        rows = _rows(30)
        array = StructArray.from_rows(SCHEMA, rows)
        q = (
            from_iterable(array.to_objects(), schema=SCHEMA)
            .using("hybrid", PROVIDER)
            .order_by(lambda r: r.v)
        )
        assert list(q.in_parallel(4, 7)) == list(q)
        shape = PROVIDER.shape(q.expr, list(q.sources))
        options = q.in_parallel(4, 7).options.resolved()
        tier = PROVIDER.tier(shape, "hybrid", shape.bindings, options)
        assert tier.kind == "inline"
        assert tier.reason == (
            "the hybrid engine emits no morsel-parameterized kernels for plans "
            "that stage row indexes (their staging loop is generated Python)"
        )

    def test_join_falls_back_but_stays_correct(self):
        # joins are excluded from the morsel path (a monolithic kernel
        # would rebuild the build-side hash once per morsel); the parallel
        # API must still return exactly the sequential result
        provider = QueryProvider()
        left = _rows(50)
        right_schema = Schema(
            [Field("k", "int"), Field("w", "float")], name="ParRight"
        )
        right = StructArray.from_rows(
            right_schema, [(i % 4, i * 0.5) for i in range(12)]
        ).to_objects()
        q = (
            from_iterable(
                StructArray.from_rows(SCHEMA, left).to_objects(), schema=SCHEMA
            )
            .using("compiled", provider)
            .join(
                from_iterable(right, schema=right_schema),
                lambda r: r.g,
                lambda b: b.k,
                lambda r, b: new(i=r.id, w=b.w),
            )
        )
        sequential = [(row.i, row.w) for row in q]
        parallel = [(row.i, row.w) for row in q.in_parallel(4, 7)]
        assert parallel == sequential
        # the split refused the plan: a refusal with its reason on the
        # record, never a built morsel artifact
        assert provider.cache.resident() == [(("compiled", "sequential"),)]
        shape = provider.shape(q.expr, list(q.sources))
        assert shape.partial("compiled", "threads") is None
        assert "join" in shape.refusal("compiled", "threads")

    def test_unfused_group_falls_back_but_stays_correct(self):
        provider = QueryProvider(
            translate_options=TranslateOptions(fuse_aggregates=False)
        )
        rows = _rows(40)
        q = (
            from_iterable(
                StructArray.from_rows(SCHEMA, rows).to_objects(), schema=SCHEMA
            )
            .using("compiled", provider)
            .group_by(lambda r: r.g, lambda g: new(k=g.key, n=g.count()))
        )
        assert list(q.in_parallel(4, 7)) == list(q)

    def test_env_variable_routes_parallelism(self, monkeypatch):
        provider = QueryProvider()
        rows = _rows(50)
        q = (
            from_iterable(
                StructArray.from_rows(SCHEMA, rows).to_objects(), schema=SCHEMA
            )
            .using("compiled", provider)
            .select(lambda r: r.id)
        )
        monkeypatch.setenv("REPRO_PARALLELISM", "4")
        with_env = list(q)
        # morsel kernels built
        assert ("compiled", "threads") in provider.cache.resident()[0]
        monkeypatch.delenv("REPRO_PARALLELISM")
        assert list(q) == with_env

    def test_explicit_parallelism_overrides_env(self, monkeypatch):
        provider = QueryProvider()
        rows = _rows(20)
        q = (
            from_iterable(
                StructArray.from_rows(SCHEMA, rows).to_objects(), schema=SCHEMA
            )
            .using("compiled", provider)
            .select(lambda r: r.id)
        )
        monkeypatch.setenv("REPRO_PARALLELISM", "4")
        assert list(q.in_parallel(1)) == list(range(20))
        assert provider.cache.resident() == [(("compiled", "sequential"),)]

    def test_default_morsel_size_is_cache_blocked(self):
        assert DEFAULT_MORSEL_ROWS == 65536

    def test_parallel_artifact_is_cached(self):
        provider = QueryProvider()
        rows = _rows(30)
        q = (
            from_iterable(
                StructArray.from_rows(SCHEMA, rows).to_objects(), schema=SCHEMA
            )
            .using("compiled", provider)
            .select(lambda r: r.v)
            .in_parallel(3, 7)
        )
        with TRACER.capture() as cold:
            first = list(q)
        assert provider.cache.resident() == [
            (("compiled", "sequential"), ("compiled", "threads"))
        ]
        with TRACER.capture() as warm:
            assert list(q) == first
        assert "codegen.generate" in [s.name for s in cold]
        assert "codegen.generate" not in [s.name for s in warm]
        assert len(provider.cache) == 2
