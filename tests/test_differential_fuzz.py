"""Differential fuzz harness: every engine × every parallelism agrees.

A seeded random query generator draws shapes over the expression builder
(filters, projections, inner/outer/semi/anti joins, bag-semantics set
operations, group-by + aggregates, sort, take, distinct, scalar terminals,
whole source elements returned or embedded in results)
and executes each query on all four compiled engines and
every parallelism / morsel-size combination, asserting **exact** agreement
with the interpreted ``linq`` baseline.  Seeds are deterministic, so a CI
failure reproduces locally by running the same test id.

Float columns hold multiples of 0.25 in a small range, so every sum any
engine can form is exactly representable and summation order cannot perturb
results — bit-identity across morsel boundaries is a fair requirement.
"""

import random
import time

import pytest

from repro import new
from repro.errors import ExecutionError, UnsupportedQueryError
from repro.query import ENGINES as REPRO_ENGINES
from repro.query import QueryProvider, from_iterable, from_struct_array
from repro.runtime.vectorized import RowView
from repro.storage import Field, Schema, StructArray

# ---------------------------------------------------------------------------
# Fixed datasets (one seeded draw at import; the corpus varies queries)
# ---------------------------------------------------------------------------

T1 = Schema(
    [
        Field("id", "int"),
        Field("g", "int"),
        Field("v", "float"),
        Field("s", "str", 4),
    ],
    name="FuzzA",
)
T2 = Schema(
    [Field("k", "int"), Field("w", "float"), Field("t", "str", 4)],
    name="FuzzB",
)

_VOCAB = ["aa", "bb", "cc", "dd"]


def _exact_float(rng: random.Random) -> float:
    return rng.randrange(-200, 200) * 0.25


def _build_datasets():
    rng = random.Random(1234)
    rows_a = [
        (i, rng.randrange(6), _exact_float(rng), rng.choice(_VOCAB))
        for i in range(160)
    ]
    rows_b = [
        (rng.randrange(9), _exact_float(rng), rng.choice(_VOCAB))
        for _ in range(80)
    ]
    return StructArray.from_rows(T1, rows_a), StructArray.from_rows(T2, rows_b)


ARR_A, ARR_B = _build_datasets()
OBJ_A, OBJ_B = ARR_A.to_objects(), ARR_B.to_objects()

PROVIDER = QueryProvider()

ENGINES = REPRO_ENGINES[1:]

#: (workers, morsel_size); morsel sizes deliberately coprime-ish with the
#: dataset sizes so boundaries fall mid-group, mid-tie, mid-everything
PARALLEL_CONFIGS = ((2, 37), (3, 64), (4, 13), (5, None))

SEEDS = range(60)
QUERIES_PER_SEED = 4  # 60 × 4 = 240 ≥ the 200-query acceptance floor

#: populated by the corpus test, asserted by test_corpus_size at the end
_COVERAGE = []


def _sources(engine):
    if engine == "native":
        outer = from_struct_array(ARR_A).using(engine, PROVIDER)
        inner = from_struct_array(ARR_B).using(engine, PROVIDER)
    else:
        outer = from_iterable(OBJ_A, schema=T1).using(engine, PROVIDER)
        inner = from_iterable(OBJ_B, schema=T2).using(engine, PROVIDER)
    return outer, inner


# ---------------------------------------------------------------------------
# Random query shapes — ALL randomness is drawn inside shape(rng), so the
# returned builder applies identical structure to every engine's sources
# ---------------------------------------------------------------------------


def _shape_filter(rng):
    c = rng.randrange(-1, 7)
    x = _exact_float(rng)
    word = rng.choice(_VOCAB)
    pred_mode = rng.randrange(3)
    out_mode = rng.randrange(3)

    def apply(outer, inner):
        if pred_mode == 0:
            q = outer.where(lambda r: r.g > c)
        elif pred_mode == 1:
            q = outer.where(lambda r: (r.v <= x) & (r.g != c))
        else:
            q = outer.where(lambda r: (r.v > x) | (r.s == word))
        if out_mode == 0:
            return q, None  # whole rows
        if out_mode == 1:
            return q.select(lambda r: new(i=r.id, y=r.v + r.v, s=r.s)), None
        return q.select(lambda r: r.v), None

    return apply


def _shape_join(rng):
    c = rng.randrange(0, 6)
    x = _exact_float(rng)
    filter_side = rng.randrange(3)

    def apply(outer, inner):
        left = outer.where(lambda r: r.g >= c) if filter_side == 0 else outer
        right = inner.where(lambda b: b.w < x) if filter_side == 1 else inner
        return (
            left.join(
                right,
                lambda r: r.g,
                lambda b: b.k,
                lambda r, b: new(i=r.id, v=r.v, w=b.w, t=b.t),
            ),
            None,
        )

    return apply


def _shape_group(rng):
    key_mode = rng.randrange(3)
    with_filter = rng.randrange(2)
    c = rng.randrange(0, 6)
    agg_mode = rng.randrange(3)

    def apply(outer, inner):
        q = outer.where(lambda r: r.g != c) if with_filter else outer
        key = (
            (lambda r: r.g)
            if key_mode == 0
            else (lambda r: r.s)
            if key_mode == 1
            else (lambda r: new(a=r.g, b=r.s))
        )
        if agg_mode == 0:

            def result(grp):
                return new(k=grp.key, n=grp.count(), t=grp.sum(lambda r: r.v))

        elif agg_mode == 1:

            def result(grp):
                return new(
                    k=grp.key,
                    lo=grp.min(lambda r: r.v),
                    hi=grp.max(lambda r: r.id),
                )

        else:

            def result(grp):
                return new(
                    k=grp.key,
                    a=grp.avg(lambda r: r.v),
                    t=grp.sum(lambda r: r.v),
                    n=grp.count(),
                )
        return q.group_by(key, result), None

    return apply


def _shape_sort(rng):
    x = _exact_float(rng)
    n = rng.randrange(1, 40)
    desc = rng.randrange(2)
    with_take = rng.randrange(2)

    def apply(outer, inner):
        q = outer.where(lambda r: r.v > x).select(
            lambda r: new(g=r.g, v=r.v, i=r.id)
        )
        # ties abound: g has six values, so morsel merges must preserve
        # the sequential tie order exactly
        q = q.order_by_desc(lambda p: p.g) if desc else q.order_by(lambda p: p.g)
        q = q.then_by(lambda p: p.v)
        return (q.take(n) if with_take else q), None

    return apply


def _shape_scalar(rng):
    terminal = rng.choice(["count", "sum", "min", "max", "average"])
    field = rng.randrange(2)
    c = rng.randrange(-1, 8)

    def apply(outer, inner):
        q = outer.where(lambda r: r.g < c)
        selector = None
        if terminal != "count":
            selector = (lambda r: r.v) if field else (lambda r: r.id)
        return q, (terminal, selector)

    return apply


def _shape_distinct(rng):
    pick = rng.randrange(2)

    def apply(outer, inner):
        if pick:
            return outer.select(lambda r: new(g=r.g, s=r.s)).distinct(), None
        return outer.select(lambda r: r.g).distinct(), None

    return apply


def _shape_group_sorted(rng):
    c = rng.randrange(0, 6)

    def apply(outer, inner):
        return (
            outer.where(lambda r: r.g <= c)
            .group_by(
                lambda r: r.s,
                lambda grp: new(k=grp.key, t=grp.sum(lambda r: r.v)),
            )
            .order_by(lambda p: p.k),
            None,
        )

    return apply


# -- dataflow-analysis stressors: divisions, sentinels, effectful lambdas --

_FUZZ_SINK = 0


def _impure_pred(r):
    # mutating on purpose: the effect analysis must force this query
    # sequential, yet the traced predicate itself stays deterministic
    global _FUZZ_SINK
    _FUZZ_SINK += 1
    return r.g >= 2


def _nondet_weight(r):
    # reads the clock but contributes exactly 0.0: value-stable across
    # engines while the effect analysis must still flag it
    return r.v + time.time() * 0.0


def _shape_division(rng):
    """Zero-crossing divisors: ``g - c`` hits zero for in-range ``c``, so
    every engine must raise the shared division-by-zero error; the guarded
    variant screens the zero out first (and may prove the guard away)."""
    c = rng.randrange(0, 6)
    guarded = rng.randrange(3)

    def apply(outer, inner):
        if guarded == 1:
            q = outer.where(lambda r: r.g > c)  # interval proof: g - c > 0
        elif guarded == 2:
            q = outer.where(lambda r: r.g != c)
        else:
            q = outer  # some row has g == c: division by zero
        return q.select(lambda r: new(i=r.id, q=r.v / (r.g - c))), None

    return apply


def _shape_sentinel(rng):
    """Nullable-ish sentinel columns: 0.0 in ``v`` marks a missing value;
    screened queries divide safely, unscreened ones hit the sentinel."""
    screened = rng.randrange(2)
    scale = rng.randrange(1, 5) * 0.25

    def apply(outer, inner):
        q = outer.where(lambda r: r.v > 0.0) if screened else outer
        return q.select(lambda r: new(i=r.id, u=(r.g * scale) / r.v)), None

    return apply


def _shape_effectful(rng):
    """Impure / nondeterministic lambdas: downgraded, never wrong."""
    use_nondet = rng.randrange(2)

    def apply(outer, inner):
        if use_nondet:
            return outer.select(_nondet_weight), None
        q = outer.where(_impure_pred)
        return q.select(lambda r: new(i=r.id, v=r.v)), None

    return apply


def _shape_outer_join(rng):
    """Left outer joins: defaults must appear exactly where probes miss.

    ``build_mode`` sweeps the build side from full through heavily
    filtered to empty — the empty build (every probe row unmatched,
    every output row the default record) is the classic kernel edge.
    """
    build_mode = rng.randrange(3)
    x = _exact_float(rng)
    sentinel = rng.randrange(-9, -1)

    def apply(outer, inner):
        if build_mode == 0:
            right = inner
        elif build_mode == 1:
            right = inner.where(lambda b: b.w < x)
        else:
            right = inner.where(lambda b: b.w < -1000.0)  # provably empty
        return (
            outer.left_outer_join(
                right,
                lambda r: r.g,
                lambda b: b.k,
                lambda r, b: new(i=r.id, w=b.w, t=b.t),
                default={"k": sentinel, "w": -0.25, "t": "zz"},
            ),
            None,
        )

    return apply


def _shape_semi_anti(rng):
    """Semi/anti joins: existence masks under skew.

    ``key_mode == 1`` collapses both key columns to a constant — the
    all-duplicate extreme where one build key decides every probe row —
    and ``build_mode == 2`` empties the build side (semi keeps nothing,
    anti keeps everything).
    """
    anti = rng.randrange(2)
    key_mode = rng.randrange(2)
    build_mode = rng.randrange(3)
    x = _exact_float(rng)

    def apply(outer, inner):
        if build_mode == 0:
            right = inner
        elif build_mode == 1:
            right = inner.where(lambda b: b.w >= x)
        else:
            right = inner.where(lambda b: b.w < -1000.0)  # provably empty
        if key_mode:
            lk, rk = (lambda r: r.g - r.g), (lambda b: b.k - b.k)
        else:
            lk, rk = (lambda r: r.g), (lambda b: b.k)
        method = outer.join_anti if anti else outer.join_semi
        q = method(right, lk, rk)
        return q.select(lambda r: new(i=r.id, v=r.v)), None

    return apply


def _shape_setop(rng):
    """Bag-semantics set operations over duplicate-heavy projections.

    Both sides project to the same record shape; the tiny key domains
    make every multiset count > 1, so probe-and-decrement order is fully
    exercised.  One arm empties the right side (intersect drops all,
    except keeps all); ``union`` (distinct) rides along via the shim.
    """
    op = rng.randrange(4)
    c = rng.randrange(0, 6)
    empty_right = rng.randrange(4) == 0

    def apply(outer, inner):
        left = outer.where(lambda r: r.g >= c).select(
            lambda r: new(a=r.g, s=r.s)
        )
        right = inner.where(lambda b: b.w < -1000.0) if empty_right else inner
        right = right.select(lambda b: new(a=b.k, s=b.t))
        if op == 0:
            return left.union_all(right), None
        if op == 1:
            return left.intersect(right), None
        if op == 2:
            return left.except_(right), None
        return left.union(right), None

    return apply


def _shape_whole_elements(rng):
    """Whole source elements escape: returned after a sort, a top-N or a
    sorted limit, or embedded in inner / left outer join results, also
    under a filter over the join's projection.  The hybrid carries each
    as its row index and hands back the source objects themselves."""
    mode = rng.randrange(6)
    c = rng.randrange(0, 6)
    x = _exact_float(rng)
    n = rng.randrange(1, 40)
    sentinel = rng.randrange(-9, -1)

    def apply(outer, inner):
        q = outer.where(lambda r: r.g >= c)
        if mode == 0:
            return q.order_by(lambda r: r.v).then_by(lambda r: r.id), None
        if mode == 1:
            return q.order_by_desc(lambda r: r.v).then_by(lambda r: r.id).take(n), None
        if mode == 2:
            q = q.order_by(lambda r: r.s).then_by(lambda r: r.id)
            return q.skip(n).take(7), None
        if mode == 3:
            return (
                q.join(inner, lambda r: r.g, lambda b: b.k, lambda r, b: new(r=r, b=b)),
                None,
            )
        if mode == 4:
            return (
                q.left_outer_join(
                    inner.where(lambda b: b.w < x),
                    lambda r: r.g,
                    lambda b: b.k,
                    lambda r, b: new(r=r, b=b, w=b.w),
                    default={"k": sentinel, "w": -0.25, "t": "zz"},
                ),
                None,
            )
        return (
            q.join(inner, lambda r: r.g, lambda b: b.k, lambda r, b: new(r=r, w=b.w))
            .where(lambda p: p.w > x)
            .select(lambda p: new(e=p.r, w=p.w)),
            None,
        )

    return apply


SHAPES = (
    _shape_filter,
    _shape_join,
    _shape_group,
    _shape_sort,
    _shape_scalar,
    _shape_distinct,
    _shape_group_sorted,
    _shape_division,
    _shape_sentinel,
    _shape_effectful,
    _shape_outer_join,
    _shape_semi_anti,
    _shape_setop,
    _shape_whole_elements,
)


# ---------------------------------------------------------------------------
# Execution + comparison
# ---------------------------------------------------------------------------


def _run(query, terminal, workers=None, morsel=None):
    """Outcome triple: kind + payload, errors folded in deterministically."""
    if workers is not None:
        query = query.in_parallel(workers, morsel)
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


def _assert_same_types(outcome, baseline, where):
    """``==`` lets a plain tuple pass for the record it equals: compare
    each row's type with linq's too.  Native's ``RowView`` surface (a
    pointer into result memory, not a copy) is the one exemption."""
    if outcome[0] == baseline[0] == "rows":
        got = [type(row) for row in outcome[1]]
        want = [type(row) for row in baseline[1]]
    elif outcome[0] == baseline[0] == "scalar":
        got, want = [type(outcome[1])], [type(baseline[1])]
    else:
        return
    differing = [
        (g.__name__, w.__name__)
        for g, w in zip(got, want)
        if g is not w and g is not RowView
    ]
    assert not differing, f"{where}: types {differing[:3]} differ from linq's"


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_corpus(seed):
    rng = random.Random(seed)
    for _ in range(QUERIES_PER_SEED):
        shape = rng.choice(SHAPES)
        apply = shape(rng)

        baseline_outer, baseline_inner = _sources("linq")
        baseline_q, baseline_t = apply(baseline_outer, baseline_inner)
        baseline = _run(baseline_q, baseline_t)
        assert baseline[0] in ("rows", "scalar", "error")

        for engine in ENGINES:
            outer, inner = _sources(engine)
            query, term = apply(outer, inner)
            sequential = _run(query, term)
            where = f"seed={seed} shape={shape.__name__} engine={engine}"
            _assert_same_types(sequential, baseline, where)
            for workers, morsel in PARALLEL_CONFIGS:
                parallel = _run(query, term, workers, morsel)
                # the tentpole invariant: bit-identical to sequential for
                # every engine, worker count, and morsel size
                assert parallel == sequential, (
                    f"seed={seed} shape={shape.__name__} engine={engine} "
                    f"workers={workers} morsel={morsel}: "
                    f"parallel {parallel!r} != sequential {sequential!r}"
                )
                _assert_same_types(
                    parallel, baseline, f"{where} workers={workers} morsel={morsel}"
                )
            if sequential[0] == "error":
                # errors agree with the baseline by class; messages are
                # engine-worded except the shared empty-aggregate one
                assert baseline[0] == "error", (
                    f"seed={seed} shape={shape.__name__} engine={engine}: "
                    f"raised {sequential[1]!r} but linq returned {baseline!r}"
                )
            elif sequential[0] != "unsupported":
                assert sequential == baseline, (
                    f"seed={seed} shape={shape.__name__} engine={engine}: "
                    f"{sequential!r} != linq {baseline!r}"
                )
        _COVERAGE.append((seed, shape.__name__))


def test_corpus_size():
    """Runs after the corpus (file order): the acceptance floor held."""
    assert len(_COVERAGE) >= 200, len(_COVERAGE)
    # every shape family actually exercised
    assert {name for _, name in _COVERAGE} == {s.__name__ for s in SHAPES}


# ---------------------------------------------------------------------------
# Guard elision on/off equivalence — the proof-driven elision pass
# (REPRO_GUARD_ELISION) must never change results or error behaviour
# ---------------------------------------------------------------------------

ELISION_SHAPES = (_shape_division, _shape_sentinel, _shape_group)
ELISION_SEEDS = range(8)


@pytest.mark.parametrize("seed", ELISION_SEEDS)
def test_guard_elision_on_off_equivalence(seed, monkeypatch):
    """Acceptance batch: every engine × parallel config agrees with linq
    both with elision enabled and disabled, and the two settings agree
    with each other — including on queries that actually divide by zero."""
    rng = random.Random(9000 + seed)
    for shape in ELISION_SHAPES:
        apply = shape(rng)
        per_setting = []
        for setting in ("1", "0"):
            monkeypatch.setenv("REPRO_GUARD_ELISION", setting)
            baseline_q, baseline_t = apply(*_sources("linq"))
            baseline = _run(baseline_q, baseline_t)
            assert baseline[0] in ("rows", "scalar", "error")
            for engine in ENGINES:
                query, term = apply(*_sources(engine))
                sequential = _run(query, term)
                if sequential[0] == "unsupported":
                    continue
                if sequential[0] == "error":
                    assert baseline[0] == "error", (
                        f"seed={seed} shape={shape.__name__} engine={engine} "
                        f"elision={setting}: raised {sequential[1]!r} but "
                        f"linq returned {baseline!r}"
                    )
                else:
                    assert sequential == baseline, (
                        f"seed={seed} shape={shape.__name__} engine={engine} "
                        f"elision={setting}: {sequential!r} != {baseline!r}"
                    )
                for workers, morsel in PARALLEL_CONFIGS:
                    parallel = _run(query, term, workers, morsel)
                    assert parallel == sequential, (
                        f"seed={seed} shape={shape.__name__} engine={engine} "
                        f"elision={setting} workers={workers}: "
                        f"parallel {parallel!r} != {sequential!r}"
                    )
            per_setting.append(baseline)
        assert per_setting[0] == per_setting[1], (
            f"seed={seed} shape={shape.__name__}: elision flipped the result"
        )


# ---------------------------------------------------------------------------
# Effect-analysis acceptance: impure => sequential (reason visible),
# nondeterministic => uncacheable in the recycler
# ---------------------------------------------------------------------------


def test_impure_lambda_forced_sequential_with_reason():
    outer, _ = _sources("compiled")
    text = outer.where(_impure_pred).in_parallel(4).explain()
    assert "effects: mutating (writes global '_FUZZ_SINK')" in text
    assert (
        "parallel: sequential — impure lambda: "
        "mutating (writes global '_FUZZ_SINK')" in text
    )


def test_nondeterministic_lambda_visible_in_explain():
    outer, _ = _sources("compiled")
    text = outer.select(_nondet_weight).explain()
    assert (
        "effects: nondeterministic "
        "(references nondeterministic name 'time')" in text
    )


def test_nondeterministic_lambda_uncacheable_in_recycler():
    from repro.observability import METRICS
    from repro.query import RecyclingProvider

    provider = RecyclingProvider()
    skips = METRICS.counter("recycler.nondeterministic_skips").value
    query = (
        from_iterable(OBJ_A, schema=T1)
        .using("compiled", provider)
        .select(_nondet_weight)
    )
    first, second = list(query), list(query)
    assert first == second  # value-stable by construction
    assert provider.recycler_stats.hits == 0
    assert provider.recycler_stats.misses == 0
    assert (
        METRICS.counter("recycler.nondeterministic_skips").value == skips + 2
    )

    # a pure twin of the same shape recycles normally
    pure = (
        from_iterable(OBJ_A, schema=T1)
        .using("compiled", provider)
        .select(lambda r: r.v + 0.0)
    )
    list(pure), list(pure)
    assert provider.recycler_stats.misses == 1
    assert provider.recycler_stats.hits == 1


# ---------------------------------------------------------------------------
# CSE + predicate-reorder equivalence — the shared-IR optimization pass
# (subexpression hoisting, conjunct decomposition, cost-based reordering)
# must never change results on any engine
# ---------------------------------------------------------------------------


def _shape_cse(rng):
    """Shared-subexpression predicates and selectors."""
    x = _exact_float(rng)
    c = rng.randrange(0, 6)
    hi = x + rng.randrange(1, 80) * 0.25
    mode = rng.randrange(3)

    def apply(outer, inner):
        if mode == 0:
            # the same subexpression across two conjuncts of one predicate
            q = outer.where(
                lambda r: ((r.v + r.v) > x) & ((r.v + r.v) < hi)
            )
            return q.select(lambda r: r.id), None
        if mode == 1:
            # a subexpression repeated inside one conjunct
            q = outer.where(
                lambda r: ((r.v * 0.5 + r.g) > x) & ((r.v * 0.5 + r.g) != hi)
            )
            return q.select(lambda r: new(i=r.id, v=r.v)), None
        # duplicated subexpression inside one projection selector
        q = outer.where(lambda r: r.g != c)
        return (
            q.select(lambda r: new(a=(r.v + r.v) * 0.25, b=(r.v + r.v) * 0.5)),
            None,
        )

    return apply


def _shape_multi_conjunct(rng):
    """Many-conjunct predicates: decomposition + cheapest-first reorder."""
    c = rng.randrange(0, 6)
    x = _exact_float(rng)
    word = rng.choice(_VOCAB)
    lo = rng.randrange(0, 120)

    def apply(outer, inner):
        # mixes string equality (expensive) with integer/float comparisons
        # (cheap): the reorder pass runs the cheap conjuncts first
        q = outer.where(
            lambda r: (r.s == word) & (r.v > x) & (r.g != c) & (r.id >= lo)
        )
        return q.select(lambda r: new(i=r.id, v=r.v, s=r.s)), None

    return apply


CSE_SHAPES = (_shape_cse, _shape_multi_conjunct)
CSE_SEEDS = range(12)


@pytest.mark.parametrize("seed", CSE_SEEDS)
def test_cse_and_reorder_equivalence(seed):
    """Seeded batch: every engine agrees with linq on CSE/reorder shapes."""
    rng = random.Random(7000 + seed)
    for shape in CSE_SHAPES:
        apply = shape(rng)
        baseline_q, baseline_t = apply(*_sources("linq"))
        baseline = _run(baseline_q, baseline_t)
        assert baseline[0] in ("rows", "scalar", "error")
        for engine in ENGINES:
            query, term = apply(*_sources(engine))
            sequential = _run(query, term)
            if sequential[0] == "unsupported":
                continue
            assert sequential == baseline, (
                f"seed={seed} shape={shape.__name__} engine={engine}: "
                f"{sequential!r} != linq {baseline!r}"
            )
            for workers, morsel in PARALLEL_CONFIGS[:2]:
                parallel = _run(query, term, workers, morsel)
                assert parallel == sequential, (
                    f"seed={seed} shape={shape.__name__} engine={engine} "
                    f"workers={workers}: parallel disagrees"
                )


def test_cse_temp_hoisted_in_generated_source():
    """Acceptance: a duplicated subexpression is hoisted once in both the
    python (``__cse`` temp) and the native (single bound vector) module."""
    import re

    def build(engine):
        outer, _ = _sources(engine)
        return outer.where(
            lambda r: ((r.v + r.v) > 1.0) & ((r.v + r.v) < 50.0)
        ).select(lambda r: r.id)

    q = build("compiled")
    compiled = PROVIDER.compile_info(q.expr, q.sources, "compiled")
    assert re.search(r"__cse\d+ = ", compiled.source_code), compiled.source_code
    # the subexpression itself is emitted exactly once
    assert compiled.source_code.count(".v + ") == 1, compiled.source_code

    q = build("native")
    native = PROVIDER.compile_info(q.expr, q.sources, "native")
    # without CSE the column 'v' would be gathered four times; the hoisted
    # vector reads it twice (the two operands of the one shared addition)
    assert len(re.findall(r"\['v'\]", native.source_code)) == 2, (
        native.source_code
    )


# ---------------------------------------------------------------------------
# Adaptive-execution equivalence — the profile-driven engine/parallelism
# chooser (REPRO_ADAPTIVE) is an optimization layer and must never change
# results, on any engine, any parallel config, or any decision tier
# ---------------------------------------------------------------------------

ADAPTIVE_SHAPES = (
    _shape_filter,
    _shape_join,
    _shape_group,
    _shape_scalar,
    _shape_outer_join,
    _shape_setop,
)
ADAPTIVE_SEEDS = range(10)


@pytest.mark.parametrize("seed", ADAPTIVE_SEEDS)
def test_adaptive_equivalence(seed):
    """Seeded batch: adaptive execution agrees with static execution.

    Each query runs statically first, then three times through one
    shared adaptive controller — exercising the estimate tier, the
    profile tier (repeat runs), and, with epsilon forced high and a
    seeded RNG, the exploration tier (random engine/worker/morsel
    draws).  Every outcome, including the parallel configs, must equal
    the static one bit for bit.
    """
    from repro.adaptive import AdaptiveChooser, AdaptiveController, ProfileStore

    rng = random.Random(4000 + seed)
    store = ProfileStore(None)
    controller = AdaptiveController(
        store=store,
        chooser=AdaptiveChooser(store, epsilon=0.5, seed=4000 + seed),
    )
    for shape in ADAPTIVE_SHAPES:
        apply = shape(rng)
        for engine in ENGINES:
            outer, inner = _sources(engine)
            query, term = apply(outer, inner)
            static = _run(query, term)
            adaptive_query = query.using(engine, PROVIDER, adaptive=controller)
            for _ in range(3):
                got = _run(adaptive_query, term)
                assert got == static, (
                    f"seed={seed} shape={shape.__name__} engine={engine}: "
                    f"adaptive {got!r} != static {static!r}"
                )
            for workers, morsel in PARALLEL_CONFIGS[:2]:
                got = _run(adaptive_query, term, workers, morsel)
                assert got == static, (
                    f"seed={seed} shape={shape.__name__} engine={engine} "
                    f"workers={workers}: adaptive parallel {got!r} != "
                    f"static {static!r}"
                )
