"""Delta-aware result recycling: incremental ≡ full re-execution.

The tentpole invariant of the versioned-storage PR: for any cached query
over a versioned :class:`StructArray` whose source only *grew*,

    (run; append; delta-recycle)  ≡  (append; full re-run from cold)

— on every engine, sequential and parallel, for empty deltas, delta-only
sources (empty base), and shapes that must fall back to full re-execution
(left/set-op builds, impure lambdas).  A seeded corpus checks ≥50 query
shapes; targeted tests pin the delta path actually engaging (morsel span
counts over only the ``[old, new)`` window) and the fallback reasons.
"""

import random

import pytest

from repro import new
from repro.errors import ExecutionError, UnsupportedQueryError
from repro.observability import METRICS, TRACER
from repro.query import QueryProvider, RecyclingProvider, from_iterable
from repro.storage import Field, Schema, StructArray

T1 = Schema(
    [
        Field("rid", "int"),
        Field("g", "int"),
        Field("v", "float"),
        Field("s", "str", 4),
    ],
    name="DeltaA",
)
T2 = Schema(
    [Field("k", "int"), Field("w", "float"), Field("t", "str", 4)],
    name="DeltaB",
)

_VOCAB = ["aa", "bb", "cc", "dd"]

ENGINES = ("compiled", "native", "hybrid", "hybrid_buffered")
WORKER_CONFIGS = (None, 2)

#: shared providers so the corpus reuses compiled artifacts the way the
#: main differential fuzz does; recycler entries key on source identity,
#: and each case builds fresh arrays, so cases never collide
REC_PROVIDER = RecyclingProvider(max_results=512)
COLD_PROVIDER = QueryProvider()


def _exact_float(rng: random.Random) -> float:
    # multiples of 0.25: every sum is exactly representable, so merge
    # order cannot perturb float results (same convention as the main
    # differential fuzz)
    return rng.randrange(-200, 200) * 0.25


def _rows_a(rng, n):
    return [
        (rng.randrange(10_000), rng.randrange(6), _exact_float(rng), rng.choice(_VOCAB))
        for _ in range(n)
    ]


def _rows_b(rng, n):
    return [
        (rng.randrange(9), _exact_float(rng), rng.choice(_VOCAB)) for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Query shapes over one mutable outer source (+ one static inner source).
# All randomness is drawn inside shape(rng) so the same structure applies
# to the incremental and the cold runs.
# ---------------------------------------------------------------------------


def _shape_filter_select(rng):
    c = rng.randrange(-1, 7)
    x = _exact_float(rng)
    out_mode = rng.randrange(3)

    def apply(outer, inner):
        q = outer.where(lambda r: (r.g > c) | (r.v <= x))
        if out_mode == 0:
            return q, None
        if out_mode == 1:
            return q.select(lambda r: new(i=r.rid, y=r.v + r.v)), None
        return q.select(lambda r: r.v), None

    return apply


def _shape_group(rng):
    key_on_str = rng.randrange(2)
    c = rng.randrange(0, 6)

    def apply(outer, inner):
        key = (lambda r: r.s) if key_on_str else (lambda r: r.g)
        return (
            outer.where(lambda r: r.g != c).group_by(
                key,
                lambda grp: new(
                    k=grp.key,
                    n=grp.count(),
                    t=grp.sum(lambda r: r.v),
                    a=grp.avg(lambda r: r.v),
                ),
            ),
            None,
        )

    return apply


def _shape_scalar(rng):
    terminal = rng.choice(["count", "sum", "min", "max", "average"])
    c = rng.randrange(-1, 8)

    def apply(outer, inner):
        q = outer.where(lambda r: r.g < c)
        selector = None if terminal == "count" else (lambda r: r.v)
        return q, (terminal, selector)

    return apply


def _shape_sort_tail(rng):
    x = _exact_float(rng)
    n = rng.randrange(1, 30)
    tail = rng.randrange(3)

    def apply(outer, inner):
        q = outer.where(lambda r: r.v > x).select(
            lambda r: new(g=r.g, v=r.v, i=r.rid)
        )
        q = q.order_by(lambda p: p.g).then_by(lambda p: p.i)
        if tail == 1:
            q = q.take(n)  # top-n tail
        elif tail == 2:
            q = q.skip(n // 2).take(n)
        return q, None

    return apply


def _shape_distinct_tail(rng):
    pick = rng.randrange(2)

    def apply(outer, inner):
        if pick:
            return outer.select(lambda r: new(g=r.g, s=r.s)).distinct(), None
        return outer.select(lambda r: r.g).distinct(), None

    return apply


def _shape_inner_join(rng):
    c = rng.randrange(0, 6)

    def apply(outer, inner):
        return (
            outer.where(lambda r: r.g >= c).join(
                inner,
                lambda r: r.g,
                lambda b: b.k,
                lambda r, b: new(i=r.rid, v=r.v, w=b.w),
            ),
            None,
        )

    return apply


def _shape_left_join(rng):
    # left outer builds have no stable delta re-apply: must fall back
    sentinel = rng.randrange(-9, -1)

    def apply(outer, inner):
        return (
            outer.left_outer_join(
                inner,
                lambda r: r.g,
                lambda b: b.k,
                lambda r, b: new(i=r.rid, w=b.w, t=b.t),
                default={"k": sentinel, "w": -0.25, "t": "zz"},
            ),
            None,
        )

    return apply


def _shape_setop(rng):
    # set-operation builds have no stable delta re-apply: must fall back
    op = rng.randrange(3)
    c = rng.randrange(0, 6)

    def apply(outer, inner):
        left = outer.where(lambda r: r.g >= c).select(lambda r: new(a=r.g, s=r.s))
        right = inner.select(lambda b: new(a=b.k, s=b.t))
        if op == 0:
            return left.intersect(right), None
        if op == 1:
            return left.except_(right), None
        return left.union(right), None

    return apply


SHAPES = (
    _shape_filter_select,
    _shape_group,
    _shape_scalar,
    _shape_sort_tail,
    _shape_distinct_tail,
    _shape_inner_join,
    _shape_left_join,
    _shape_setop,
)

#: delta regimes cycled deterministically: normal growth, empty delta
#: (version unchanged — must hit the cache), and delta-only (empty base)
_DELTA_MODES = ("grow", "empty", "delta_only")

SEEDS = range(8)
CASES_PER_SEED = 8  # 8 × 8 = 64 ≥ the ~50-shape floor

_COVERAGE = []


def _run(query, terminal, workers=None):
    if workers is not None:
        query = query.in_parallel(workers)
    try:
        if terminal is None:
            return ("rows", list(query))
        name, selector = terminal
        args = [selector] if selector is not None else []
        return ("scalar", getattr(query, name)(*args))
    except UnsupportedQueryError:
        return ("unsupported", None)
    except ExecutionError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_recycle_equals_full_rerun(seed):
    rng = random.Random(7000 + seed)
    for case in range(CASES_PER_SEED):
        shape = SHAPES[(seed * CASES_PER_SEED + case) % len(SHAPES)]
        mode = _DELTA_MODES[(seed + case) % len(_DELTA_MODES)]
        apply = shape(rng)
        base = _rows_a(rng, 0 if mode == "delta_only" else rng.randrange(40, 120))
        delta = _rows_a(rng, 0 if mode == "empty" else rng.randrange(1, 40))
        inner_rows = _rows_b(rng, 50)
        inner_static = StructArray.from_rows(T2, inner_rows)

        for engine in ENGINES:
            for workers in WORKER_CONFIGS:
                # incremental: run, append, re-run through the recycler
                arr = StructArray.from_rows(T1, base)
                outer = from_iterable(arr).using(engine, REC_PROVIDER)
                inner = from_iterable(inner_static).using(engine, REC_PROVIDER)
                query, term = apply(outer, inner)
                warm = _run(query, term, workers)
                if warm[0] == "unsupported":
                    continue
                arr.append_rows(delta)
                incremental = _run(query, term, workers)

                # cold: the already-grown source, full re-execution
                cold_arr = StructArray.from_rows(T1, base + delta)
                cold_outer = from_iterable(cold_arr).using(engine, COLD_PROVIDER)
                cold_inner = from_iterable(inner_static).using(
                    engine, COLD_PROVIDER
                )
                cold_query, cold_term = apply(cold_outer, cold_inner)
                cold = _run(cold_query, cold_term, workers)

                assert incremental == cold, (
                    f"seed={seed} case={case} shape={shape.__name__} "
                    f"mode={mode} engine={engine} workers={workers}: "
                    f"incremental {incremental!r} != cold {cold!r}"
                )
        _COVERAGE.append((seed, shape.__name__, mode))


def test_corpus_size():
    """Runs after the corpus (file order): coverage floor + families."""
    assert len(_COVERAGE) >= 50, len(_COVERAGE)
    assert {name for _, name, _ in _COVERAGE} == {s.__name__ for s in SHAPES}
    assert {mode for _, _, mode in _COVERAGE} == set(_DELTA_MODES)


# ---------------------------------------------------------------------------
# The delta path actually engages: acceptance assertion via span counts
# ---------------------------------------------------------------------------


def _spans_named(spans, name):
    return [r for r in spans if r.name == name]


@pytest.mark.parametrize("engine", ENGINES)
def test_cached_aggregation_runs_only_delta_morsels(engine):
    """ISSUE acceptance: 100k-row source, append ≤5%, re-execution of a
    cached aggregation touches only the delta morsel range."""
    rng = random.Random(31337)
    total, appended, morsel = 100_000, 5_000, 10_000
    arr = StructArray.from_rows(T1, _rows_a(rng, total))
    provider = RecyclingProvider()
    query = (
        from_iterable(arr)
        .using(engine, provider)
        .where(lambda r: r.g >= 0)
        .group_by(
            lambda r: r.g,
            lambda grp: new(k=grp.key, t=grp.sum(lambda r: r.v), n=grp.count()),
        )
        .in_parallel(2, morsel)
    )
    with TRACER.capture() as cold_spans:
        first = query.to_list()
    # the cold run covered the whole source in kernels
    assert len(_spans_named(cold_spans, "parallel.morsel")) == total // morsel

    delta_before = METRICS.counter("recycler.delta_hits").value
    arr.append_rows(_rows_a(rng, appended))
    with TRACER.capture() as warm_spans:
        second = query.to_list()
    morsels = _spans_named(warm_spans, "parallel.morsel")
    # ... the re-execution ran kernels over only [100k, 105k): one morsel
    assert len(morsels) == 1
    assert morsels[0].attrs["start"] == total
    assert morsels[0].attrs["stop"] == total + appended
    assert provider.recycler_stats.delta_hits == 1
    assert METRICS.counter("recycler.delta_hits").value == delta_before + 1

    # identical to a cold full run over the grown source
    cold = (
        from_iterable(arr)
        .using(engine, QueryProvider())
        .where(lambda r: r.g >= 0)
        .group_by(
            lambda r: r.g,
            lambda grp: new(k=grp.key, t=grp.sum(lambda r: r.v), n=grp.count()),
        )
        .to_list()
    )
    assert second == cold
    assert first != second  # the delta actually changed the aggregates


# ---------------------------------------------------------------------------
# Fallback classification: reasons surface, wrong answers never
# ---------------------------------------------------------------------------


def _recycle_modes(spans):
    return [
        (r.attrs.get("mode"), r.attrs.get("reason"))
        for r in _spans_named(spans, "query.recycle")
    ]


def test_left_join_falls_back_to_full_rerun():
    rng = random.Random(5)
    arr = StructArray.from_rows(T1, _rows_a(rng, 60))
    inner = StructArray.from_rows(T2, _rows_b(rng, 20))
    provider = RecyclingProvider()
    query = (
        from_iterable(arr)
        .using("compiled", provider)
        .left_outer_join(
            from_iterable(inner).using("compiled", provider),
            lambda r: r.g,
            lambda b: b.k,
            lambda r, b: new(i=r.rid, w=b.w),
            default={"k": -1, "w": -0.25, "t": "zz"},
        )
    )
    query.to_list()
    full_before = provider.recycler_stats.full_reruns
    arr.append_rows(_rows_a(rng, 6))
    with TRACER.capture() as spans:
        query.to_list()
    assert provider.recycler_stats.full_reruns == full_before + 1
    modes = _recycle_modes(spans)
    assert len(modes) == 1
    mode, reason = modes[0]
    assert mode == "full"
    assert reason  # the classification reason is surfaced

    analysis = query.explain_analyze()
    assert analysis.recycle.startswith("hit")  # unchanged source: hit


def test_escape_hatch_disables_delta(monkeypatch):
    monkeypatch.setenv("REPRO_DELTA_RECYCLE", "0")
    rng = random.Random(6)
    arr = StructArray.from_rows(T1, _rows_a(rng, 60))
    provider = RecyclingProvider()
    query = (
        from_iterable(arr)
        .using("compiled", provider)
        .where(lambda r: r.g >= 0)
        .select(lambda r: r.v)
    )
    query.to_list()
    arr.append_rows(_rows_a(rng, 6))
    with TRACER.capture() as spans:
        rows = query.to_list()
    assert provider.recycler_stats.delta_hits == 0
    assert provider.recycler_stats.full_reruns == 1
    (entry,) = _recycle_modes(spans)
    assert entry[0] == "full"
    assert "REPRO_DELTA_RECYCLE" in entry[1]
    assert rows == [r.v for r in arr]


def test_non_growth_change_falls_back():
    """A second versioned source changing (not the driver) is not a pure
    delta: full re-execution, never a wrong merge."""
    rng = random.Random(7)
    arr = StructArray.from_rows(T1, _rows_a(rng, 60))
    inner = StructArray.from_rows(T2, _rows_b(rng, 20))
    provider = RecyclingProvider()
    query = (
        from_iterable(arr)
        .using("compiled", provider)
        .join(
            from_iterable(inner).using("compiled", provider),
            lambda r: r.g,
            lambda b: b.k,
            lambda r, b: new(i=r.rid, w=b.w),
        )
    )
    query.to_list()
    inner.append_rows(_rows_b(rng, 5))  # the build side grew
    with TRACER.capture() as spans:
        warm = query.to_list()
    cold = (
        from_iterable(arr)
        .using("compiled", QueryProvider())
        .join(
            from_iterable(inner).using("compiled", QueryProvider()),
            lambda r: r.g,
            lambda b: b.k,
            lambda r, b: new(i=r.rid, w=b.w),
        )
        .to_list()
    )
    assert warm == cold
    modes = _recycle_modes(spans)
    assert modes and modes[0][0] == "full"


def test_explain_analyze_shows_delta():
    rng = random.Random(8)
    arr = StructArray.from_rows(T1, _rows_a(rng, 60))
    provider = RecyclingProvider()
    query = (
        from_iterable(arr)
        .using("compiled", provider)
        .where(lambda r: r.g >= 0)
        .select(lambda r: r.v)
    )
    assert query.explain_analyze().recycle == "miss"
    assert query.explain_analyze().recycle == "hit"
    arr.append_rows(_rows_a(rng, 6))
    analysis = query.explain_analyze()
    assert analysis.recycle == "delta"
    assert "recycle: delta" in str(analysis)


def test_plain_growth_compacts_superseded_entries():
    """A plain collection keys by (identity, length), so growth lands on
    a new key; storing the new entry must evict the old-length one (its
    rows and partial state can never hit again) instead of letting it
    squat in the LRU."""
    rng = random.Random(9)
    arr = StructArray.from_rows(T1, _rows_a(rng, 40))
    # a plain list, not a StructArray: the query's source IS this object,
    # so in-place growth changes its length (and hence its cache key)
    items = list(arr.to_objects())
    provider = RecyclingProvider()
    query = (
        from_iterable(items)
        .using("compiled", provider)
        .where(lambda r: r.g != 1)
        .select(lambda r: new(i=r.rid, v=r.v))
    )
    query.to_list()
    assert provider.cached_results == 1
    before = provider.recycler_stats.compactions
    metric_before = METRICS.counter("recycler.compactions").value
    items.extend(list(arr.to_objects())[:7])  # same identity, new length
    second = query.to_list()
    assert provider.cached_results == 1  # superseded entry compacted away
    assert provider.recycler_stats.compactions == before + 1
    assert METRICS.counter("recycler.compactions").value == metric_before + 1
    # the surviving entry still serves hits
    hits = provider.recycler_stats.hits
    assert query.to_list() == second
    assert provider.recycler_stats.hits == hits + 1
    # distinct queries over the same source are untouched by compaction
    other = (
        from_iterable(items)
        .using("compiled", provider)
        .select(lambda r: r.rid)
    )
    other.to_list()
    assert provider.cached_results == 2


# ---------------------------------------------------------------------------
# the recycler on the provider's one execution body and one record
# ---------------------------------------------------------------------------


def test_recycler_accepts_the_process_tier_knob():
    """``.distributed(n)`` through a RecyclingProvider used to raise
    ``TypeError`` (its execute lacked the parameter); it now overrides
    the one execution body, so every knob of the plain provider works.
    Plain rows do not shard, so this runs in-process."""
    rng = random.Random(12)
    rows = list(StructArray.from_rows(T1, _rows_a(rng, 50)).to_objects())

    def query(provider):
        return (
            from_iterable(rows)
            .using("compiled", provider)
            .where(lambda r: r.g != 1)
            .select(lambda r: new(i=r.rid, v=r.v))
        )

    expected = query(QueryProvider()).to_list()
    provider = RecyclingProvider()
    assert query(provider).distributed(2).to_list() == expected
    assert query(provider).distributed(2).to_list() == expected
    assert provider.recycler_stats.hits == 1
    assert query(provider).where(lambda r: r.v > 0).distributed(2).count() == len(
        [r for r in expected if r.v > 0]
    )


def test_partial_kernels_are_keyed_by_shape_not_worker_count():
    """One compilation of the morsel kernels serves every worker count
    and the recycler's delta refresh (the parent keyed them by worker
    count, and the recycler asked for its own copy under ``2``)."""
    rng = random.Random(13)
    arr = StructArray.from_rows(T1, _rows_a(rng, 200))
    cache = QueryProvider().cache

    def query(provider):
        return (
            from_iterable(arr)
            .using("native", provider)
            .where(lambda r: r.g >= 0)
            .group_by(
                lambda r: r.g,
                lambda grp: new(k=grp.key, t=grp.sum(lambda r: r.v)),
            )
        )

    plain = QueryProvider(cache=cache)
    with TRACER.capture() as cold:
        first = query(plain).in_parallel(2, 50).to_list()
    assert _spans_named(cold, "codegen.generate")
    recycling = RecyclingProvider(cache=cache)
    with TRACER.capture() as warm:
        assert query(plain).in_parallel(3, 50).to_list() == first
        assert query(recycling).to_list() == first
        arr.append_rows(_rows_a(rng, 20))
        refreshed = query(recycling).to_list()
    assert recycling.recycler_stats.delta_hits == 1
    assert refreshed == query(QueryProvider()).to_list()
    assert _spans_named(warm, "codegen.generate") == []


def test_field_named_id_recycles():
    """A *field* called ``id`` is an attribute access, not the builtin:
    the lambda is deterministic and its result recycles."""
    schema = Schema([Field("id", "int"), Field("v", "float")], name="WithId")
    arr = StructArray.from_rows(schema, [(i, i * 0.5) for i in range(30)])
    provider = RecyclingProvider()
    query = (
        from_iterable(arr)
        .using("compiled", provider)
        .where(lambda r: r.id > 3)
        .select(lambda r: r.v)
    )
    hits = METRICS.counter("recycler.hits").value
    skips = METRICS.counter("recycler.nondeterministic_skips").value
    assert query.to_list() == query.to_list() == [i * 0.5 for i in range(4, 30)]
    assert METRICS.counter("recycler.hits").value == hits + 1
    assert METRICS.counter("recycler.nondeterministic_skips").value == skips
