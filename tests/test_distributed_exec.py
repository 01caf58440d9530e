"""Distributed execution ≡ sequential, bit for bit.

A seeded corpus (30 seeds × 4 draws = 120 queries ≥ the 100-query
acceptance floor) runs every query shape — filters, projections, inner
joins, fused group-by aggregates, scalar folds, sort/top-n tails — on
the compiled and native engines, sequentially and on {2, 4} worker
processes, asserting **exact** agreement.  Shards are just very large
morsels and the merge algebra is the thread tier's, so bit-identity is
a fair requirement, not an aspiration.

Fault-injection tests use a kernel gated on a flag file: workers block
while the flag exists, which makes "killed mid-query" deterministic —
no sleeps racing real kernels.  A worker killed with survivors left
triggers resubmission; a pool with every worker dead raises a typed
:class:`~repro.errors.DistributedError`.  Either way: no hangs, no
orphan processes.

Float columns hold multiples of 0.25 so any summation order yields the
same bits (same convention as the main differential fuzz).
"""

import datetime
import multiprocessing
import os
import pickle
import random
import threading
import time

import numpy as np
import pytest

from repro import new
from repro.distributed import ClusterScheduler, shutdown_pools
from repro.distributed import shards as shards_mod
from repro.distributed import wire
from repro.errors import DistributedError, ExecutionError, UnsupportedQueryError
from repro.expressions import make_record_type
from repro.observability import METRICS
from repro.query import QueryProvider, from_struct_array
from repro.runtime.parallel import _NO_VALUE
from repro.storage import Field, Schema, StructArray

T1 = Schema(
    [
        Field("id", "int"),
        Field("g", "int"),
        Field("v", "float"),
        Field("s", "str", 4),
    ],
    name="DistA",
)
T2 = Schema(
    [Field("k", "int"), Field("w", "float"), Field("t", "str", 4)],
    name="DistB",
)

_VOCAB = ["aa", "bb", "cc", "dd"]


def _exact_float(rng: random.Random) -> float:
    return rng.randrange(-200, 200) * 0.25


def _build_datasets():
    rng = random.Random(4321)
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

PROVIDER = QueryProvider()

#: distribution requires StructArray sources, which both engines accept
ENGINES = ("compiled", "native")
WORKER_COUNTS = (2, 4)

SEEDS = range(30)
QUERIES_PER_SEED = 4  # 30 × 4 = 120 ≥ the 100-query acceptance floor

_COVERAGE = []


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_pools()
    # the no-orphan acceptance criterion: every worker process reaped
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


def _sources(engine):
    outer = from_struct_array(ARR_A).using(engine, PROVIDER)
    inner = from_struct_array(ARR_B).using(engine, PROVIDER)
    return outer, inner


# ---------------------------------------------------------------------------
# Query shapes — all randomness drawn inside shape(rng) so the builder
# applies identical structure to every engine's sources; outputs always
# project explicit fields (the native §5 'no references' rule)
# ---------------------------------------------------------------------------


def _shape_filter(rng):
    c = rng.randrange(-1, 7)
    x = _exact_float(rng)
    word = rng.choice(_VOCAB)
    pred_mode = rng.randrange(3)
    out_mode = rng.randrange(2)

    def apply(outer, inner):
        if pred_mode == 0:
            q = outer.where(lambda r: r.g > c)
        elif pred_mode == 1:
            q = outer.where(lambda r: (r.v <= x) & (r.g != c))
        else:
            q = outer.where(lambda r: (r.v > x) | (r.s == word))
        if out_mode == 0:
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
    key_mode = rng.randrange(2)
    with_filter = rng.randrange(2)
    c = rng.randrange(0, 6)
    agg_mode = rng.randrange(3)

    def apply(outer, inner):
        q = outer.where(lambda r: r.g != c) if with_filter else outer
        key = (lambda r: r.g) if key_mode == 0 else (lambda r: r.s)
        # fused new(...) outputs: the shape the group merge algebra (and
        # the native engine) requires
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
        # ties abound (g has six values): shard merges must reproduce the
        # sequential tie order exactly
        q = q.order_by_desc(lambda p: p.g) if desc else q.order_by(lambda p: p.g)
        q = q.then_by(lambda p: p.v)
        return (q.take(n) if with_take else q), None

    return apply


def _shape_scalar(rng):
    terminal = rng.choice(["count", "sum", "min", "max", "average"])
    field = rng.randrange(2)
    c = rng.randrange(-1, 8)  # c = -1 empties the input: error parity too

    def apply(outer, inner):
        q = outer.where(lambda r: r.g < c)
        selector = None
        if terminal != "count":
            selector = (lambda r: r.v) if field else (lambda r: r.id)
        return q, (terminal, selector)

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


SHAPES = (
    _shape_filter,
    _shape_join,
    _shape_group,
    _shape_sort,
    _shape_scalar,
    _shape_group_sorted,
)


def _run(query, terminal, workers=None):
    """Outcome pair: kind + payload, errors folded in deterministically."""
    if workers is not None:
        query = query.distributed(workers)
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


# ---------------------------------------------------------------------------
# The differential corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_distributed_corpus(seed, monkeypatch):
    monkeypatch.delenv("REPRO_DISTRIBUTED", raising=False)
    rng = random.Random(seed)
    for _ in range(QUERIES_PER_SEED):
        shape = rng.choice(SHAPES)
        apply = shape(rng)
        for engine in ENGINES:
            outer, inner = _sources(engine)
            query, term = apply(outer, inner)
            sequential = _run(query, term)
            for workers in WORKER_COUNTS:
                distributed = _run(query, term, workers)
                assert distributed == sequential, (
                    f"seed={seed} shape={shape.__name__} engine={engine} "
                    f"workers={workers}: distributed {distributed!r} != "
                    f"sequential {sequential!r}"
                )
        _COVERAGE.append((seed, shape.__name__))


def test_corpus_size_and_engagement():
    """Runs after the corpus (file order): floor held, and the corpus
    actually dispatched shard tasks — a silent fallback to in-process
    would pass the equivalence vacuously."""
    assert len(_COVERAGE) >= 100, len(_COVERAGE)
    assert {name for _, name in _COVERAGE} == {s.__name__ for s in SHAPES}
    assert METRICS.counter("dist.tasks_dispatched").value > 0


# ---------------------------------------------------------------------------
# Wire framing of partials: one frame for flat records, per value otherwise
# ---------------------------------------------------------------------------


def _roundtrip(partial):
    encoded = wire.encode_value(partial)
    return encoded, wire.decode_value(pickle.loads(pickle.dumps(encoded)))


def test_flat_record_partial_ships_as_one_frame():
    Row = make_record_type(("k", "v", "s", "d"))
    rows = [
        Row(1, 0.25, "aa", datetime.date(1995, 3, 1)),
        Row(np.int64(2), np.float64(-0.0), "", datetime.date(1970, 1, 1)),
    ]
    encoded, decoded = _roundtrip(rows)
    assert encoded[:3] == ("__recs__", "Row", ("k", "v", "s", "d"))
    assert all(type(row) is tuple for row in encoded[3])
    assert decoded == rows
    assert [type(row) for row in decoded] == [Row, Row]
    assert [type(v) for v in decoded[1]] == [type(v) for v in rows[1]]

    named = make_record_type(("a",), "Named")
    encoded, decoded = _roundtrip([named(1), named(2)])
    assert encoded[:2] == ("__recs__", "Named")
    assert [type(row) for row in decoded] == [named, named]

    # anything irregular keeps the per-value tagging, and still round-trips
    other = make_record_type(("k", "v"))
    irregular = [
        [],  # nothing to frame
        [Row(1, (2, 3), "x", None)],  # nested tuple
        [Row(1, [other(1, 2)], "x", None)],  # nested list
        [Row(1, 2, 3, 4), other(1, 2)],  # two record types
        [Row(1, 2, 3, 4), (1, 2, 3, 4)],  # a plain tuple among records
        [(1, 2), (3, 4)],  # plain tuples only
        [Row(1, _NO_VALUE, 3, 4)],  # the merge sentinel inside a record
        [_NO_VALUE, 1.5, None],  # a scalar partial
        [3, 4],  # scalar rows
    ]
    for partial in irregular:
        encoded, decoded = _roundtrip(partial)
        assert isinstance(encoded, list), partial
        assert len(encoded) == len(partial)
        assert decoded == partial, partial
        assert [type(v) for v in decoded] == [type(v) for v in partial]
    assert _roundtrip([Row(1, _NO_VALUE, 3, 4)])[1][0].v is _NO_VALUE


# ---------------------------------------------------------------------------
# Capability fallbacks surface on explain()
# ---------------------------------------------------------------------------


def test_explain_shows_eligibility_and_fallback_reasons():
    outer, inner = _sources("compiled")
    eligible = outer.join(
        inner, lambda r: r.g, lambda b: b.k, lambda r, b: new(i=r.id, w=b.w)
    ).distributed(2)
    text = str(eligible.explain())
    assert "distributed: eligible" in text
    assert "workers=2" in text

    left = outer.left_outer_join(
        inner,
        lambda r: r.g,
        lambda b: b.k,
        lambda r, b: new(i=r.id, w=b.w),
        {"k": 0, "w": 0.0, "t": ""},
    ).distributed(2)
    assert "distributed: in-process" in str(left.explain())

    setop = (
        outer.select(lambda r: r.g)
        .union(inner.select(lambda b: b.k))
        .distributed(2)
    )
    assert "distributed: in-process" in str(setop.explain())

    # nobody asked for distribution: the line is omitted entirely
    plain = outer.select(lambda r: r.g)
    assert "distributed:" not in str(plain.explain())


def test_fallback_shapes_still_execute_correctly():
    outer, inner = _sources("compiled")
    left = outer.left_outer_join(
        inner,
        lambda r: r.g,
        lambda b: b.k,
        lambda r, b: new(i=r.id, w=b.w),
        {"k": 0, "w": 0.0, "t": ""},
    )
    assert list(left.distributed(2)) == list(left)
    setop = outer.select(lambda r: r.g).union(inner.select(lambda b: b.k))
    assert list(setop.distributed(2)) == list(setop)


# ---------------------------------------------------------------------------
# Fault injection: worker loss mid-query
# ---------------------------------------------------------------------------

#: a kernel the test can hold open: workers spin while the flag file
#: exists (30 s ceiling so a test bug cannot hang the suite), then
#: report their shard length
_GATED_SOURCE = """\
def execute(sources, params):
    import os
    import time
    deadline = time.time() + 30.0
    while os.path.exists(params["flag"]) and time.time() < deadline:
        time.sleep(0.01)
    return [len(sources[0])]
"""


def _gated_run(scheduler, flag_path, shard_count=2):
    """Dispatch one gated task per shard; returns thread + outcome box."""
    snap = shards_mod.pin(ARR_A)
    bounds = shards_mod.shard_bounds(len(snap), shard_count)
    tokens = [
        shards_mod.table_token(snap, ("shard", lo, hi)) for lo, hi in bounds
    ]
    by_token = {
        token: (lo, hi) for token, (lo, hi) in zip(tokens, bounds)
    }

    def payload_for(token):
        lo, hi = by_token[token]
        return shards_mod.shard_payload(snap, lo, hi)

    payload = {
        "mode": "rows",
        "morsel_ordinal": 0,
        "slot_kinds": (),
        "kernels": [(_GATED_SOURCE, [])],
    }
    params_blob = pickle.dumps({"flag": str(flag_path)})
    outcome = {}

    def run():
        try:
            outcome["result"] = scheduler.run_tasks(
                "gated-artifact",
                payload,
                [(token,) for token in tokens],
                params_blob,
                payload_for,
            )
        except BaseException as exc:  # noqa: BLE001 - re-asserted by caller
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    expected = [hi - lo for lo, hi in bounds]
    return thread, outcome, expected


def _wait_for_inflight(scheduler, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        busy = [h for h in scheduler.live_handles() if h.inflight]
        if len(busy) >= count:
            return busy
        time.sleep(0.02)
    raise AssertionError(f"never saw {count} workers with inflight tasks")


def test_worker_kill_resubmits_to_survivor(tmp_path):
    flag = tmp_path / "gate"
    flag.write_text("hold")
    scheduler = ClusterScheduler(2)
    losses = METRICS.counter("dist.worker_losses").value
    resubs = METRICS.counter("dist.resubmissions").value
    try:
        thread, outcome, expected = _gated_run(scheduler, flag)
        busy = _wait_for_inflight(scheduler, 2)
        busy[0].process.terminate()  # one worker dies mid-task
        time.sleep(0.3)  # let the liveness probe notice
        flag.unlink()  # release the survivor
        thread.join(timeout=20.0)
        assert not thread.is_alive(), "gather hung after worker loss"
        assert "error" not in outcome, outcome.get("error")
        partials, _ = outcome["result"]
        values = [wire.decode_value(p[0]) for p in partials]
        assert values == expected  # plan order, resubmitted shard included
        assert METRICS.counter("dist.worker_losses").value >= losses + 1
        assert METRICS.counter("dist.resubmissions").value >= resubs + 1
    finally:
        if flag.exists():
            flag.unlink()
        scheduler.shutdown()


def test_all_workers_dead_raises_typed_error(tmp_path):
    flag = tmp_path / "gate"
    flag.write_text("hold")
    scheduler = ClusterScheduler(2)
    try:
        thread, outcome, _ = _gated_run(scheduler, flag)
        busy = _wait_for_inflight(scheduler, 2)
        for handle in busy:
            handle.process.terminate()  # no survivors to resubmit to
        thread.join(timeout=20.0)
        assert not thread.is_alive(), "gather hung after total worker loss"
        assert isinstance(outcome.get("error"), DistributedError)
        assert "no survivors" in str(outcome["error"])
    finally:
        if flag.exists():
            flag.unlink()
        scheduler.shutdown()


#: reports which worker process ran the task
_PID_SOURCE = """\
def execute(sources, params):
    import os
    return [os.getpid()]
"""


def test_broadcast_join_scatter_puts_one_task_per_worker():
    """A two-shard broadcast-join scatter runs one task per worker, cold
    and warm.  Placement scores load before residency: the cold run ships
    the build table to both workers, so the warm run finds every token
    resident and ships nothing."""
    probe, build = shards_mod.pin(ARR_A), shards_mod.pin(ARR_B)
    build_token = shards_mod.table_token(build, ("full",))
    recipes = {build_token: lambda: shards_mod.shard_payload_full(build)}
    plans = []
    for lo, hi in shards_mod.shard_bounds(len(probe), 2):
        token = shards_mod.table_token(probe, ("shard", lo, hi))
        recipes[token] = lambda lo=lo, hi=hi: shards_mod.shard_payload(probe, lo, hi)
        plans.append((token, build_token))
    payload = {
        "mode": "rows",
        "morsel_ordinal": 0,
        "slot_kinds": (),
        "kernels": [(_PID_SOURCE, [])],
    }
    shipped = METRICS.counter("dist.tables_shipped")
    scheduler = ClusterScheduler(2)
    try:
        runs = []
        for _ in range(2):  # cold, then warm
            before = shipped.value
            partials, _ = scheduler.run_tasks(
                "pid-artifact",
                payload,
                plans,
                pickle.dumps({}),
                lambda token: recipes[token](),
            )
            pids = [wire.decode_value(part)[0] for part in partials]
            runs.append((pids, shipped.value - before))
        workers = {handle.process.pid for handle in scheduler.live_handles()}
    finally:
        scheduler.shutdown()
    (cold_pids, cold_shipped), (warm_pids, warm_shipped) = runs
    assert len(set(cold_pids)) == 2 and set(cold_pids) == workers
    assert warm_pids == cold_pids
    assert cold_shipped == 2 + 2  # a shard per worker, the build table twice
    assert warm_shipped == 0


def test_worker_churn_under_real_queries():
    """Kill a shared-pool worker while real queries stream through: every
    result stays correct (heal or resubmit, gather never corrupts)."""
    outer, _ = _sources("compiled")
    query = outer.group_by(
        lambda r: r.g,
        lambda grp: new(k=grp.key, n=grp.count(), t=grp.sum(lambda r: r.v)),
    )
    expected = list(query)
    from repro.distributed.scheduler import get_pool

    pool = get_pool(2)
    killed = {}

    def killer():
        time.sleep(0.02)
        handles = pool.live_handles()
        if handles:
            handles[0].process.terminate()
            killed["done"] = True

    thread = threading.Thread(target=killer)
    thread.start()
    try:
        for _ in range(20):
            assert list(query.distributed(2)) == expected
    finally:
        thread.join()
    assert killed.get("done")


def test_pid_changes_after_kill_and_heal():
    """ensure_workers replaces dead processes rather than resurrecting
    handles; the healed pool serves queries again."""
    scheduler = ClusterScheduler(2)
    try:
        first = {h.process.pid for h in scheduler.ensure_workers()}
        for handle in list(scheduler.live_handles()):
            handle.process.terminate()
        deadline = time.monotonic() + 5.0
        while scheduler.live_handles() and time.monotonic() < deadline:
            time.sleep(0.02)
        healed = {h.process.pid for h in scheduler.ensure_workers()}
        assert len(healed) == 2
        assert healed.isdisjoint(first)
    finally:
        scheduler.shutdown()
