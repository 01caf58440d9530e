"""Tests of the lifecycle benchmark's own machinery.

    PYTHONPATH=src python -m pytest benchmarks/lifecycle/test_harness.py -q

Everything runs at the ``--quick`` scale; the one subprocess is
``run.py --all --quick``, whose document the first tests validate
against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
from cold_shapes import ColdShapes  # noqa: E402
from shapes import Tables, draw_shapes  # noqa: E402
from tiers_2way import Tiers2Way  # noqa: E402

from repro.expressions.canonical import canonicalize  # noqa: E402
from repro.query import QueryProvider  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_all():
    """``run.py --all --quick`` with an ambient switch that must be scrubbed."""
    env = dict(os.environ, REPRO_TRACE="1", REPRO_PARALLELISM="4")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--quick", "--seed", "7"],
        capture_output=True, text=True, env=env, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


# -- BENCHMARK.json and the output contract -------------------------------------


def test_spec_is_well_formed(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/lifecycle"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert NAME.match(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_metric_reported_for_every_workload(spec, quick_all):
    assert set(quick_all) == {w["name"] for w in spec["workloads"]}
    for name, entry in quick_all.items():
        for label in ("end_to_end", "per_layer"):
            result = entry[label]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, entry["failures"]
            assert result["failed"] == 0 and result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in spec[label]}
            assert set(result["metrics"]) == set(declared), (name, label)
            for metric, value in result["metrics"].items():
                assert value["unit"] == declared[metric]
                assert isinstance(value["value"], (int, float))
        for metric in spec["end_to_end"]:
            assert entry["end_to_end"]["metrics"][metric["name"]]["value"] > 0


def test_layer_split_matches_the_design(quick_all):
    """Each workload stresses the layers it was chosen to stress."""

    def share(workload, *layer_names):
        metrics = quick_all[workload]["per_layer"]["metrics"]
        return sum(metrics[f"ledger.share.{n}"]["value"] for n in layer_names)

    assert share("cold_shapes", "expressions", "plans", "codegen", "analysis") > 0.5
    assert share("hot_small", "expressions", "query", "service") > 0.5
    assert share("warm_scan", "runtime") > 0.5
    hit_ratio = "query.cache.hit_ratio"
    assert quick_all["hot_small"]["per_layer"]["metrics"][hit_ratio]["value"] == 1.0
    assert quick_all["cold_shapes"]["per_layer"]["metrics"][hit_ratio]["value"] == 0.0
    tiers = quick_all["tiers_2way"]["per_layer"]["metrics"]
    assert tiers["distributed.worker_losses"]["value"] == 0
    assert tiers["distributed.table_hits"]["value"] > 0


def test_ambient_switches_are_scrubbed(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_DISTRIBUTED", "2")
    monkeypatch.setenv("UNRELATED", "kept")
    removed = harness.scrub_environment()
    assert removed == {"REPRO_TRACE": "1", "REPRO_DISTRIBUTED": "2"}
    assert not [key for key in os.environ if key.startswith("REPRO_")]
    assert os.environ["UNRELATED"] == "kept"


def test_empty_checkout_exits_nonzero_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: nothing to measure."""
    target = tmp_path / "benchmarks" / "lifecycle"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/lifecycle/run.py", "--workload", "hot_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, check=False, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- seeds, shapes and determinism --------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_shapes():
    one = [s.spec for s in draw_shapes(11, 64)]
    again = [s.spec for s in draw_shapes(11, 64)]
    other = [s.spec for s in draw_shapes(12, 64)]
    assert harness.digest(one) == harness.digest(again)
    assert harness.digest(one) != harness.digest(other)
    assert Tables(11).plain == Tables(11).plain
    assert Tables(11).plain != Tables(12).plain


def test_workload_op_list_and_source_bytes_repeat_exactly():
    workload = ColdShapes()
    hashes, counts = [], []
    for seed in (5, 5, 6):
        state = workload.setup(seed, quick=True)
        hashes.append(harness.digest(state.op_list))
        counts.append(workload._exact_counts(state))
    assert hashes[0] == hashes[1] != hashes[2]
    assert counts[0] == counts[1] != counts[2]
    assert set(counts[0]) == {
        "analysis.guards_elided",
        *(f"codegen.source_bytes.{engine}" for engine in layers.ENGINES),
    }


def test_shapes_are_distinct_by_cache_key_and_avoid_id():
    tables, provider = Tables(3), QueryProvider()
    sources = tables.sources("compiled", provider)
    shapes = draw_shapes(3, 400)
    keys = {canonicalize(shape.build(sources).expr).key for shape in shapes}
    assert len(keys) == len(shapes)
    for schema in tables.schemas.values():
        assert "id" not in [f.name for f in schema.fields]


def test_every_family_matches_its_plain_python_reference():
    tables, provider = Tables(9), QueryProvider()
    seen = set()
    for shape in draw_shapes(9, 40):
        seen.add(shape.family)
        expected = shape.reference(tables.plain)
        for engine in layers.ENGINES:
            rows = shape.build(tables.sources(engine, provider)).to_list()
            assert harness.rows_equal(harness.as_tuples(rows), expected, shape.ordered)
    assert seen == {"filter", "group", "topn", "join"}


# -- spans and statistics ---------------------------------------------------------------


def test_span_self_time_is_duration_minus_covered_children():
    tracer = harness.SpanTracer()
    spans = [
        harness.Span(1, None, "op", 0.0, 10.0, cell="c", op=1),
        harness.Span(2, 1, "a", 1.0, 4.0, cell="c", op=1),
        harness.Span(3, 1, "b", 3.0, 6.0, cell="c", op=1),  # overlaps a: union 1..6
        harness.Span(4, 3, "b.inner", 3.5, 4.5, cell="c", op=1),
        harness.Span(5, 1, "c", 8.0, 9.0, cell="c", op=1),
    ]
    tracer.spans.extend(spans)
    own = tracer.self_times()
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(1.0)
    assert tracer.totals()[("c", "op")] == pytest.approx(4.0)
    assert tracer.medians("op") == {"c": pytest.approx(10.0)}


def test_spans_nest_and_inherit_cell_and_op():
    tracer = harness.SpanTracer()
    with tracer.span("staged", cell="x.y", op=7):
        with tracer.span("runtime.kernel"):
            pass
    inner, outer = tracer.spans
    assert (inner.name, inner.parent_id, inner.cell, inner.op) == (
        "runtime.kernel", outer.span_id, "x.y", 7,
    )
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_traced_rounds_rotate_plain_op_replay():
    replayed = []

    def make(cell):
        return harness.Op(
            cell=cell,
            run=lambda: cell,
            check=lambda value: value == cell,
            staged=lambda tracer: replayed.append(cell),
        )

    tracer = harness.SpanTracer()
    loop = harness.run_rounds(
        ([make("a"), make("b")] for _ in range(100)), 0, tracer, min_rounds=6
    )
    assert loop.rounds == 6 and loop.attempted == 8 and loop.failed == 0
    assert {c: len(v) for c, v in loop.samples.items()} == {"a": 2, "b": 2}
    assert {c: len(v) for c, v in loop.plain_samples.items()} == {"a": 2, "b": 2}
    assert replayed == ["a", "b", "a", "b"]
    assert sum(1 for s in tracer.spans if s.name == "op") == 4


def test_failed_ops_are_counted_not_timed():
    def boom():
        raise RuntimeError("no")

    ops = [
        harness.Op("ok", lambda: 1, lambda v: v == 1),
        harness.Op("wrong", lambda: 2, lambda v: v == 1),
        harness.Op("raises", boom, lambda v: True),
    ]
    loop = harness.run_rounds([ops], 0, min_rounds=1)
    assert (loop.attempted, loop.failed) == (3, 2)
    assert list(loop.samples) == ["ok"]
    assert len(loop.failures) == 2


def test_statistics():
    assert harness.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert harness.percentile(list(range(1, 101)), 95) == 95
    # the median window ignores a slow minority
    loop = harness.LoopResult(round_log=[(10, 1.0)] * 6 + [(10, 5.0)] * 2, probes=[(0, 1.0)])
    assert harness.windowed_rate(loop) == pytest.approx(10.0)
    short = harness.LoopResult(round_log=[(3, 0.1)], probes=[(0, 1.0)])
    assert harness.windowed_rate(short) == pytest.approx(30.0)
    assert harness.rows_equal([(2, 1.0), (1, 2.0)], [(1, 2.0 + 1e-9), (2, 1.0)], False)
    assert not harness.rows_equal([(1, 2.0), (2, 1.0)], [(2, 1.0), (1, 2.0)], True)
    assert not harness.rows_equal([(1, "a")], [(1, "b")], True)


def test_times_are_divided_by_the_host_factor_of_their_window():
    """Two 1 s windows doing the same work, the host twice as slow in the
    second: corrected, both report the first one's speed."""
    loop = harness.LoopResult(
        round_log=[(10, 1.0), (10, 2.0)],
        probes=[(0, 1.0), (0, 1.1), (0, 0.9), (1, 2.0)],
    )
    loop.samples["cell"] = [0.1] * 10 + [0.2] * 10
    loop.sample_rounds["cell"] = [0] * 10 + [1] * 10
    assert [w[4] for w in harness.windows(loop)] == [1.0, 2.0]
    values = harness.end_to_end(loop)
    assert values["ops_per_s"] == pytest.approx(10.0)
    assert values["cell_ms_geomean"] == pytest.approx(100.0)
    # left-over rounds join the last window; a window without a probe
    # takes the run's median factor
    loop.round_log.append((1, 0.2))
    assert [w[:4] for w in harness.windows(loop)] == [(0, 1, 10, 1.0), (1, 3, 11, 2.2)]
    bare = harness.LoopResult(round_log=[(5, 1.0), (5, 1.0)], probes=[(0, 1.5)])
    assert [w[4] for w in harness.windows(bare)] == [1.5, 1.5]


def test_a_host_probe_follows_every_stretch_of_busy_time():
    import time

    op = harness.Op(cell="c", run=lambda: time.sleep(0.03), check=lambda _: True)
    loop = harness.run_rounds(([op, op] for _ in range(3)), 0.0, min_rounds=3)
    assert len(loop.probes) == 6 and all(f > 0 for _, f in loop.probes)
    assert [at for at, _ in loop.probes] == [0, 0, 1, 1, 2, 2]
    assert loop.sample_rounds["c"] == [0, 0, 1, 1, 2, 2]
    assert harness.host_factor(3) > 0


# -- compare.py -----------------------------------------------------------------------


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [v * 0.9 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 105.0]
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, slower, "higher", 0.1)[0] == "improved"
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    summary = compare.summary(parent)
    assert summary["n"] == 10 and summary["q1"] < summary["median"] < summary["q3"]


# -- processes ---------------------------------------------------------------------------


def test_tiers_2way_leaves_no_worker_processes():
    workload = Tiers2Way()
    state = workload.setup(4, quick=True)
    try:
        assert state.warm.failed == 0, state.warm.failures
        assert len(multiprocessing.active_children()) == 2
    finally:
        workload.teardown(state)
    assert multiprocessing.active_children() == []


def _session_members(sid: int) -> list:
    """Processes of session *sid* other than its leader, zombies included."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) != sid:
            try:
                stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
                if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
                    found.append(int(entry))
            except (OSError, IndexError):
                pass
    return found


def test_a_run_leaves_nothing_behind_not_even_the_resource_tracker():
    """As the driver looks: the moment the command has exited, its session
    is empty (spawn's resource tracker used to outlive it by a moment)."""
    done = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiers_2way",
         "--quick", "--seed", "5", "--seconds", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = done.communicate(timeout=120)
    left = _session_members(done.pid)
    assert done.returncode == 0, err[-2000:]
    assert left == []
    assert json.loads(out.splitlines()[-1])["correct"] is True


def test_stop_processes_kills_and_reaps_a_stray_child():
    stray = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert harness.stop_processes() == [stray.pid]
    assert harness._children() == []
    stray.wait()  # already reaped: returns at once


def test_stop_processes_leaves_nothing_that_restarts_the_resource_tracker():
    """A queue dropped the way the pools drop theirs: its feeder thread
    holds its semaphores until it ends, and unlinking one after the
    tracker has stopped would start a second tracker."""
    import gc
    import threading
    from multiprocessing import resource_tracker

    queue = multiprocessing.get_context("spawn").Queue()
    queue.put(1)  # starts the feeder thread
    queue.cancel_join_thread()
    queue.close()
    del queue
    harness.stop_processes()
    gc.collect()
    assert not [t for t in threading.enumerate() if t.name == "QueueFeederThread"]
    assert resource_tracker._resource_tracker._fd is None
    assert harness._children() == []
