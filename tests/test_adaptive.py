"""The adaptive execution layer: store durability, chooser determinism,
fail-open behavior, and the feedback wiring into the serving stack.

The profile store's contract is load-bearing for everything else here:
it must survive concurrent writers (thread-safety), garbage on disk
(fail-open), records from other schema versions (skew tolerance), and it
must serialize deterministically (two processes replaying the same
observations produce byte-identical files — asserted via subprocesses).
On top of that, the decision tiers are exercised end to end: estimate →
profile across repeated runs, the rendered ``source=profile`` evidence
in ``explain_analyze``, admission-degradation feedback, and the
mid-flight morsel re-decision.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import repro
from repro.adaptive import (
    AdaptiveChooser,
    AdaptiveController,
    ProfileStore,
    RowEstimate,
    SCHEMA_VERSION,
    redecide_morsel,
    seed_configuration,
)
from repro.observability.metrics import METRICS, MetricsRegistry
from repro.query import QueryProvider, from_iterable, from_struct_array
from repro.service.admission import AdmissionController
from repro.storage import Field, Schema, StructArray

KEY = "deadbeefdeadbeefcafe"


def _rows(n=400):
    return [SimpleNamespace(a=i, g=i % 7, v=i * 0.25) for i in range(n)]


def _query(provider, controller, rows=None):
    return (
        from_iterable(rows if rows is not None else _rows())
        .where(lambda r: r.g > 2)
        .select(lambda r: r.a)
        .using("compiled", provider, adaptive=controller)
    )


# ---------------------------------------------------------------------------
# Store durability
# ---------------------------------------------------------------------------


def test_store_concurrent_writers(tmp_path):
    """10 threads x 50 records interleave without losing or mangling any."""
    path = tmp_path / "store.jsonl"
    store = ProfileStore(str(path))
    threads = [
        threading.Thread(
            target=lambda tid=tid: [
                store.record_run(
                    f"key-{tid % 3}", "compiled", 1, 0, 1.0 + i, rows=i
                )
                for i in range(50)
            ]
        )
        for tid in range(10)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    store.close()

    # every line is one complete JSON record (single-write appends)
    lines = path.read_text().splitlines()
    assert len(lines) == 500
    for line in lines:
        assert json.loads(line)["v"] == SCHEMA_VERSION

    reloaded = ProfileStore(str(path))
    assert len(reloaded) == 3
    assert sum(reloaded.profile(f"key-{k}").runs for k in range(3)) == 500


def test_store_corrupt_and_truncated_lines(tmp_path):
    """Garbage lines are skipped and counted; intact records still load."""
    path = tmp_path / "store.jsonl"
    seed = ProfileStore(str(path))
    seed.record_run(KEY, "compiled", 1, 0, 2.5, rows=10, estimated=12)
    seed.record_run(KEY, "compiled", 2, 8192, 0.9, rows=10, estimated=12)
    seed.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "kind": "run", "key"\n')  # crash mid-append
        handle.write("not json at all\n")

    registry = MetricsRegistry()
    store = ProfileStore(str(path), metrics=registry)
    assert registry.counter("adaptive.store_errors").value == 2
    profile = store.profile(KEY)
    assert profile is not None and profile.runs == 2
    assert profile.best().config == ("compiled", 2, 8192)

    # and the chooser still decides from what survived
    decision = AdaptiveChooser(store, epsilon=0.0, metrics=registry).decide(
        KEY, "compiled", ("compiled",), None, 65536
    )
    assert decision.source == "profile"
    assert decision.workers == 2 and decision.morsel == 8192


def test_store_unreadable_path_fails_open(tmp_path):
    """A store pointed at a directory serves memory-only, never raises."""
    registry = MetricsRegistry()
    store = ProfileStore(str(tmp_path), metrics=registry)  # path IS a dir
    assert registry.counter("adaptive.store_errors").value == 1
    store.record_run(KEY, "compiled", 1, 0, 1.5, rows=5)
    # the append failed (counted), but the in-memory profile took the run
    assert registry.counter("adaptive.store_errors").value == 2
    assert store.profile(KEY).runs == 1
    chooser = AdaptiveChooser(store, epsilon=0.0, metrics=registry)
    assert chooser.decide(KEY, "compiled", ("compiled",), None, 65536).source == (
        "profile"
    )
    # unknown key, no estimate: the static landing pad
    assert chooser.decide("nope", "compiled", ("compiled",), None, 65536).source == (
        "static-fallback"
    )


def test_store_schema_version_skew(tmp_path):
    """Records from another schema version are counted and skipped."""
    path = tmp_path / "store.jsonl"
    future = {
        "v": SCHEMA_VERSION + 1,
        "kind": "run",
        "key": KEY,
        "engine": "compiled",
        "workers": 64,
        "morsel": 1,
        "ms": 0.001,
    }
    good = {
        "v": SCHEMA_VERSION,
        "kind": "run",
        "key": KEY,
        "engine": "compiled",
        "workers": 2,
        "morsel": 8192,
        "ms": 1.5,
    }
    path.write_text(
        json.dumps(future) + "\n" + json.dumps(good) + "\n", encoding="utf-8"
    )
    registry = MetricsRegistry()
    store = ProfileStore(str(path), metrics=registry)
    assert registry.counter("adaptive.store_skew").value == 1
    assert registry.counter("adaptive.store_errors").value == 0
    profile = store.profile(KEY)
    assert profile.runs == 1 and profile.best().workers == 2


# ---------------------------------------------------------------------------
# Determinism across processes
# ---------------------------------------------------------------------------

_DETERMINISM_SCRIPT = """
import sys
from repro.adaptive import AdaptiveChooser, AdaptiveController, ProfileStore

store = ProfileStore(sys.argv[1])
controller = AdaptiveController(
    store=store, chooser=AdaptiveChooser(store, epsilon=0.0, max_workers=8)
)
key = "deadbeefdeadbeefcafe"
for i, (engine, workers, morsel, ms) in enumerate(
    [
        ("compiled", 1, 0, 2.5),
        ("compiled", 2, 8192, 1.25),
        ("hybrid", 2, 8192, 1.75),
        ("compiled", 2, 8192, 1.0),
    ]
):
    store.record_run(key, engine, workers, morsel, ms, rows=64 + i, estimated=50)
decision = controller.peek(
    key, "compiled", ("compiled", "hybrid"), None, 65536
)
store.close()
sys.stdout.write(decision.describe())
"""


def _run_determinism_process(store_path: Path) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_ADAPTIVE_EPSILON", None)
    result = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_SCRIPT, str(store_path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout


def test_chooser_deterministic_across_processes(tmp_path):
    """epsilon=0: identical observations => byte-identical store files and
    identical decisions, in two separate interpreter processes."""
    out_a = _run_determinism_process(tmp_path / "a.jsonl")
    out_b = _run_determinism_process(tmp_path / "b.jsonl")
    assert out_a == out_b
    assert "source=profile" in out_a
    assert "engine=compiled workers=2 morsel=8192" in out_a
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# Decision tiers and cost seeding
# ---------------------------------------------------------------------------


def test_decision_tiers_estimate_then_profile():
    store = ProfileStore(None)
    controller = AdaptiveController(
        store=store, chooser=AdaptiveChooser(store, epsilon=0.0, max_workers=8)
    )
    estimate = RowEstimate(driver_rows=200_000, output_rows=50_000)
    first = controller.decide(KEY, "compiled", ("compiled",), estimate, 65536)
    assert first.source == "estimate"
    assert first.workers and first.workers > 1  # large input: fan out
    controller.observe(
        KEY, first, "compiled", first.workers, first.morsel or 0, 3.5, 50_000,
        estimate,
    )
    second = controller.decide(KEY, "compiled", ("compiled",), estimate, 65536)
    assert second.source == "profile"
    assert second.workers == first.workers


def test_profiles_are_kept_per_source_representation():
    """An object list and a StructArray of one schema share a record key
    but not a profile: arms timed on one never steer the other (the
    compiled engine decodes StructArray rows one at a time)."""
    schema = Schema([Field("a", "int"), Field("g", "int")], name="Rep")
    array = StructArray.from_rows(schema, [(i, i % 7) for i in range(400)])
    provider = QueryProvider()
    store = ProfileStore(None)
    controller = AdaptiveController(
        store=store, chooser=AdaptiveChooser(store, epsilon=0.0)
    )

    def query(source, engine):
        return (
            source.where(lambda r: r.g > 2)
            .select(lambda r: r.a)
            .using(engine, provider, adaptive=controller)
        )

    on_objects = query(from_iterable(array.to_objects(), schema=schema), "compiled")
    on_arrays = query(from_struct_array(array), "native")
    array_shape = provider.shape(on_arrays.expr, list(on_arrays.sources))
    assert (
        provider.shape(on_objects.expr, list(on_objects.sources)).record
        is array_shape.record
    )
    for _ in range(3):
        on_objects.to_list()
    (object_key,) = store._profiles
    first = provider.peek_decision(array_shape, "native", controller)
    assert (first.engine, first.source) == ("native", "estimate")
    for _ in range(3):
        on_arrays.to_list()
    (array_key,) = set(store._profiles) - {object_key}
    assert store.profile(object_key).runs == 3
    assert {c.engine for c in store.profile(array_key).configs.values()} == {"native"}
    again = provider.peek_decision(array_shape, "native", controller)
    assert (again.engine, again.source) == ("native", "profile")


def test_seed_configuration_small_inputs_stay_sequential():
    workers, morsel = seed_configuration(
        RowEstimate(driver_rows=1000, output_rows=500), 8, 65536
    )
    assert (workers, morsel) == (1, 65536)
    workers, _ = seed_configuration(
        RowEstimate(driver_rows=1_000_000, output_rows=100), 8, 65536
    )
    assert workers == 8


def test_redecide_morsel_divergence():
    # within 4x of the estimate: keep the current size
    assert (
        redecide_morsel(65536, 0.5, 0.3, remaining_rows=10**7, workers=2) is None
    )
    # output far denser than estimated: shrink the morsels
    shrunk = redecide_morsel(65536, 0.9, 0.05, remaining_rows=10**7, workers=2)
    assert shrunk is not None and shrunk < 65536
    # output far sparser than estimated: grow them
    grown = redecide_morsel(65536, 0.001, 0.5, remaining_rows=10**7, workers=2)
    assert grown is not None and grown > 65536


def test_parallel_morsel_redecision_end_to_end():
    """An estimate off by >4x re-partitions mid-flight; results unchanged."""
    provider = QueryProvider()
    store = ProfileStore(None)
    controller = AdaptiveController(
        store=store, chooser=AdaptiveChooser(store, epsilon=0.0)
    )
    rows = _rows(400)
    # the default selectivity estimate expects ~a third of the rows; this
    # predicate keeps none, so observed/estimated diverges far beyond 4x
    static = (
        from_iterable(rows)
        .where(lambda r: r.g > 100)
        .select(lambda r: r.a)
        .using("compiled", provider)
        .to_list()
    )
    before = METRICS.counter("parallel.morsels_redecided").value
    adaptive = (
        from_iterable(rows)
        .where(lambda r: r.g > 100)
        .select(lambda r: r.a)
        .using("compiled", provider, adaptive=controller)
        .in_parallel(2, 37)
        .to_list()
    )
    assert adaptive == static == []
    assert METRICS.counter("parallel.morsels_redecided").value == before + 1


# ---------------------------------------------------------------------------
# Feedback wiring: admission degradation
# ---------------------------------------------------------------------------


def test_admission_degradation_feeds_the_profile():
    store = ProfileStore(None)
    controller = AdaptiveController(store=store)
    admission = AdmissionController(
        slots=1, metrics=MetricsRegistry(), adaptive_controller=controller
    )
    held = admission.acquire()
    grants = []
    ready = threading.Event()

    def degraded_waiter():
        ticket = admission.acquire(parallelism=8)
        grants.append(ticket.parallelism)
        ticket.release()

    def queue_filler():
        ready.wait()
        ticket = admission.acquire()
        ticket.release()

    first = threading.Thread(target=degraded_waiter)
    second = threading.Thread(target=queue_filler)
    first.start()
    while admission.queue_depth < 1:
        pass
    second.start()
    ready.set()
    while admission.queue_depth < 2:
        pass
    held.release()  # admits the waiter with one request still queued
    first.join()
    second.join()

    assert grants == [4]  # 8 requested, halved by the queue behind it
    assert store.degrade_ratios() == [0.5]
    assert controller.load_factor < 1.0
    # a fresh controller over the same store starts out load-aware
    assert AdaptiveController(store=store).load_factor < 1.0


# ---------------------------------------------------------------------------
# The serving surface: explain evidence and env plumbing
# ---------------------------------------------------------------------------


def test_explain_analyze_shows_profile_informed_decision():
    """The acceptance check: a repeated query's report says where the
    decision came from, and repetition moves it onto the profile tier."""
    provider = QueryProvider()
    store = ProfileStore(None)
    controller = AdaptiveController(
        store=store, chooser=AdaptiveChooser(store, epsilon=0.0)
    )
    query = _query(provider, controller)

    first = query.explain_analyze()
    assert "source=estimate" in first.adaptive or (
        "source=static-fallback" in first.adaptive
    )
    second = query.explain_analyze()
    assert "source=profile" in second.adaptive
    assert "adaptive: engine=" in second.render()
    assert "query.decide" in second.phases

    # the dry-run EXPLAIN peeks at the same decision without mutating it
    rendered = query.explain()
    assert "adaptive: engine=" in rendered and "source=profile" in rendered
    runs = store.profile(next(iter(store._profiles))).runs
    assert query.explain() == rendered
    assert store.profile(next(iter(store._profiles))).runs == runs


def test_adaptive_false_forces_static(tmp_path):
    provider = QueryProvider()
    store = ProfileStore(str(tmp_path / "p.jsonl"))
    controller = AdaptiveController(store=store)
    query = _query(provider, controller)
    assert query.using("compiled", provider, adaptive=False).to_list() == (
        query.to_list()
    )
    # only the adaptive=controller execution observed anything
    assert len(store) == 1

