"""The query flight recorder: spans, metrics, EXPLAIN, and its cost.

Four contracts pinned here:

* **Tracer** — spans nest correctly (parent/depth links never cross
  threads), the buffer survives a 10-thread stress run, and the disabled
  fast path is cheap enough that default-off tracing costs <2% of a
  fig07-style query.
* **Metrics** — counters registered by :class:`QueryCache` agree exactly
  with its own ``CacheStats`` accounting (same locks, same increments).
* **explain()** — byte-exact goldens for TPC-H Q1/Q3 across all four
  engines (parallelism pinned to 1; the text is deterministic); its
  capability and tier lines are what compilation and ``provider.tier()``
  decide.
* **explain_analyze()** — executes the query and reports measured
  per-phase wall times, row counts, cache status, and morsel accounting.
"""

import threading
import time

import pytest

from repro import P, new
from repro.errors import UnsupportedQueryError
from repro.observability import METRICS, TRACER, MetricsRegistry, Tracer
from repro.observability.tracer import traced_rows
from repro.query import QueryCache, QueryProvider, from_iterable, from_struct_array
from repro.storage import Field, Schema, StructArray
from repro.tpch import TPCHData, aggregation_micro
from repro.tpch.queries import q1, q3, relation_query

ENGINES = ("linq", "compiled", "native", "hybrid")

SCHEMA = Schema([Field("x", "int"), Field("y", "float")], name="Obs")
OBJECTS = StructArray.from_rows(
    SCHEMA, [(i, i * 0.5) for i in range(40)]
).to_objects()

_SINK = None


def _leak(r):
    # impure on purpose: the effect analysis must flag the global write
    global _SINK
    _SINK = r.x
    return True


@pytest.fixture(scope="module")
def tpch():
    return TPCHData(scale=0.001)


# ---------------------------------------------------------------------------
# tracer mechanics
# ---------------------------------------------------------------------------


class TestTracerSpans:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a"):
            pass
        assert tracer.spans() == []

    def test_disabled_span_is_the_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")

    def test_nesting_links(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans()  # inner closes first
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.parent_id == outer.span_id
        assert (outer.depth, inner.depth) == (0, 1)
        assert outer.parent_id is None

    def test_durations_are_monotonic_and_ordered(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.001)
        inner, outer = tracer.spans()
        assert inner.duration >= 0.001
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert outer.duration >= inner.duration

    def test_attrs_via_set(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s", engine="native") as sp:
            sp.set(rows=7)
        (record,) = tracer.spans()
        assert record.attrs == {"engine": "native", "rows": 7}

    def test_buffer_is_bounded(self):
        tracer = Tracer(enabled=True, max_records=10)
        for _ in range(25):
            with tracer.span("s"):
                pass
        assert len(tracer.spans()) == 10

    def test_scope_restores_previous_state(self):
        tracer = Tracer(enabled=False)
        with tracer.scope(True):
            with tracer.span("on"):
                pass
        with tracer.span("off"):
            pass
        assert [r.name for r in tracer.spans()] == ["on"]
        assert not tracer.enabled

    def test_capture_sees_spans_without_enabling(self):
        tracer = Tracer(enabled=False)
        with tracer.capture() as sink:
            with tracer.span("observed"):
                pass
        assert [r.name for r in sink] == ["observed"]
        assert tracer.spans() == []  # retained buffer untouched when off

    def test_traced_rows_counts_and_flags_completion(self):
        tracer = Tracer(enabled=True)
        assert list(traced_rows(tracer, iter(range(5)))) == list(range(5))
        (record,) = tracer.spans()
        assert record.attrs["rows"] == 5
        assert record.attrs["complete"] is True

    def test_traced_rows_partial_drain(self):
        tracer = Tracer(enabled=True)
        it = traced_rows(tracer, iter(range(100)))
        next(it), next(it)
        it.close()
        (record,) = tracer.spans()
        assert record.attrs["rows"] == 2
        assert record.attrs["complete"] is False

    def test_to_json_lines(self):
        import json

        tracer = Tracer(enabled=True)
        with tracer.span("a", k=1):
            pass
        (line,) = tracer.to_json_lines().splitlines()
        decoded = json.loads(line)
        assert decoded["name"] == "a"
        assert decoded["attrs"] == {"k": 1}
        assert decoded["duration"] >= 0


class TestTracerThreadSafety:
    def test_ten_thread_stress_preserves_per_thread_nesting(self):
        tracer = Tracer(enabled=True)
        n_threads, reps = 10, 200
        barrier = threading.Barrier(n_threads)
        errors = []

        def work():
            try:
                barrier.wait()
                for _ in range(reps):
                    with tracer.span("a"):
                        with tracer.span("b"):
                            with tracer.span("c"):
                                pass
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        records = tracer.spans()
        assert len(records) == n_threads * reps * 3
        by_id = {r.span_id: r for r in records}
        for r in records:
            # parent links never cross threads, depths follow the nesting
            expected_depth = {"a": 0, "b": 1, "c": 2}[r.name]
            assert r.depth == expected_depth
            if r.parent_id is None:
                assert r.name == "a"
            else:
                parent = by_id[r.parent_id]
                assert parent.thread == r.thread
                assert parent.name == {"b": "a", "c": "b"}[r.name]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").add()
        reg.counter("c").add(4)
        reg.histogram("h").observe(2.0)
        reg.histogram("h").observe(4.0)
        snap = reg.snapshot()
        assert snap["c"] == 5
        assert snap["h"] == {
            "count": 2,
            "sum": 6.0,
            "min": 2.0,
            "max": 4.0,
            "mean": 3.0,
        }

    def test_counter_thread_safety(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")

        def work():
            for _ in range(10_000):
                counter.add()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 80_000

    def test_json_lines_roundtrip(self):
        import json

        reg = MetricsRegistry()
        reg.counter("a.count").add(3)
        reg.histogram("a.seconds").observe(0.5)
        lines = [json.loads(line) for line in reg.to_json_lines().splitlines()]
        by_name = {entry["metric"]: entry for entry in lines}
        assert by_name["a.count"]["value"] == 3
        assert by_name["a.seconds"]["count"] == 1

    def test_cache_counters_match_cache_stats_exactly(self):
        # the acceptance contract: METRICS mirrors CacheStats 1:1 because
        # both are incremented under the same lock, in the same branch
        reg = MetricsRegistry()
        cache = QueryCache(max_entries=2, metrics=reg)
        cache.count(hit=False)
        cache.count(hit=True)
        for i in range(5):  # 3 evictions at max_entries=2
            cache.admit(cache.record(i), ("compiled", "sequential"), object())
        cache.count_analysis(hit=False)
        cache.count_analysis(hit=True)

        stats = cache.stats
        snap = reg.snapshot()
        assert snap["query_cache.hits"] == stats.hits == 1
        assert snap["query_cache.misses"] == stats.misses == 1
        assert snap["query_cache.evictions"] == stats.evictions == 3
        assert snap["query_cache.analysis_hits"] == stats.analysis_hits == 1
        assert snap["query_cache.analysis_misses"] == stats.analysis_misses == 1

    def test_provider_level_cache_metrics_accuracy(self):
        reg = MetricsRegistry()
        provider = QueryProvider(cache=QueryCache(metrics=reg))
        query = (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider)
            .where(lambda r: r.x > 3)
            .in_parallel(1)
        )
        query.to_list()
        query.to_list()
        stats = provider.cache.stats
        snap = reg.snapshot()
        assert snap["query_cache.hits"] == stats.hits == 1
        assert snap["query_cache.misses"] == stats.misses == 1

    def test_compile_metrics_registered_per_engine(self):
        from repro.query import from_struct_array

        array = StructArray.from_rows(SCHEMA, [(i, i * 0.5) for i in range(40)])
        provider = QueryProvider()
        before = METRICS.counter("compile.native.count").value
        (
            from_struct_array(array)
            .using("native", provider)
            .where(lambda r: r.x > 3)
            .to_list()
        )
        assert METRICS.counter("compile.native.count").value == before + 1
        hist = METRICS.histogram("compile.native.compile_seconds").snapshot()
        assert hist["count"] >= 1
        assert hist["sum"] > 0

    def test_recycler_counters_match_recycler_stats_exactly(self):
        # the acceptance contract: METRICS mirrors RecyclerStats 1:1 —
        # every stats field moves in the same branch as its counter,
        # including the delta-recycling outcomes
        from repro.query.recycler import RecyclingProvider

        provider = RecyclingProvider()
        array = StructArray.from_rows(SCHEMA, [(i, i * 0.5) for i in range(100)])
        names = ("hits", "misses", "invalidations", "delta_hits", "full_reruns")
        before = {n: METRICS.counter(f"recycler.{n}").value for n in names}
        query = (
            from_iterable(array, token="obs:rec")
            .using("compiled", provider)
            .where(lambda r: r.x >= 0)
            .select(lambda r: r.y)
        )
        query.to_list()  # miss (captures delta-merge state)
        query.to_list()  # hit
        array.append_rows([(100, 50.0)])
        query.to_list()  # delta: kernels over [100, 101) only
        # a concatenation has no per-morsel decomposition: no delta state
        unmergeable = query.concat(query)
        unmergeable.to_list()  # miss
        array.append_rows([(101, 50.5)])
        unmergeable.to_list()  # stale, not delta-mergeable: full re-execution
        provider.invalidate(array)  # both entries name the array

        stats = provider.recycler_stats
        moved = {
            n: METRICS.counter(f"recycler.{n}").value - before[n] for n in names
        }
        assert moved["hits"] == stats.hits == 1
        assert moved["misses"] == stats.misses == 2
        assert moved["delta_hits"] == stats.delta_hits == 1
        assert moved["full_reruns"] == stats.full_reruns == 1
        assert moved["invalidations"] == stats.invalidations == 2


class TestAnalysisMetrics:
    """The ``analysis.*`` counters, recorded once per facts derivation."""

    def test_facts_derived_and_guards_elided(self):
        derived = METRICS.counter("analysis.facts_derived").value
        elided = METRICS.counter("analysis.guards_elided").value
        provider = QueryProvider()
        (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider)
            .where(lambda r: r.x > 0)
            .select(lambda r: r.y / r.x)
            .to_list()
        )
        assert METRICS.counter("analysis.facts_derived").value == derived + 1
        # the filter proves the divisor nonzero: one zero-guard elided
        assert METRICS.counter("analysis.guards_elided").value == elided + 1

    def test_pipelines_killed_on_contradiction(self):
        before = METRICS.counter("analysis.pipelines_killed").value
        provider = QueryProvider()
        rows = (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider)
            .where(lambda r: (r.x > 5) & (r.x < 3))
            .to_list()
        )
        assert rows == []
        assert METRICS.counter("analysis.pipelines_killed").value == before + 1

    def test_impure_lambda_counted_once(self):
        before = METRICS.counter("analysis.impure_downgrades").value
        provider = QueryProvider()
        query = (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider)
            .where(_leak)
        )
        query.to_list()
        query.to_list()  # warm run: facts cached, counted once
        assert METRICS.counter("analysis.impure_downgrades").value == before + 1


# ---------------------------------------------------------------------------
# explain() goldens — deterministic text, parallelism pinned to 1
# ---------------------------------------------------------------------------

_SEQ = (
    "parallel: sequential (workers=1; request workers with in_parallel(n), "
    "using(parallelism=n) or REPRO_PARALLELISM)"
)

# pipeline segmentation from the shared IR: id, driver, fused chain, sink
# breaker — plus, on the hybrid engines, per-pipeline placement
_Q1_PIPELINES = (
    "pipelines:\n"
    "  p0: scan(source_0) | filter => group-aggregate#1 [parallel-eligible]\n"
    "  p1: group-aggregate#1 => sort#0\n"
    "  p2: sort#0 => result\n"
)
_Q1_PIPELINES_HYBRID = (
    "pipelines:\n"
    "  p0: scan(source_0) | filter => group-aggregate#1 [parallel-eligible]"
    " [managed staging -> native]\n"
    "  p1: group-aggregate#1 => sort#0 [native]\n"
    "  p2: sort#0 => result [native]\n"
)

# dataflow facts from the shared analysis pass: Q1's three avg aggregates
# drop their group-count guards (a group always has >= 1 row)
_Q1_FACTS = (
    "facts:\n"
    "  effects: pure\n"
    "  avg guards: 3 group-count guard(s) elided (group count >= 1)\n"
)
_Q3_FACTS = "facts:\n  effects: pure\n"

Q1_GOLDENS = {
    "linq": (
        "(linq engine: interpreted operator chain, no plan)\n"
        "engine: linq\n"
        "capability: supported\n"
        "parallel: sequential (the interpreted baseline never parallelizes)"
    ),
    "compiled": (
        "Sort(keys=2, desc=(False, False))\n"
        "  GroupAggregate(aggs=[sum,sum,sum,sum,avg,avg,avg,count], fused=True)\n"
        "    Filter(on l_shipdate)\n"
        "      Scan(source_0: tpch:lineitem)\n"
        "engine: compiled\n"
        "capability: supported\n" + _Q1_PIPELINES + _Q1_FACTS + _SEQ
    ),
    "native": (
        "Sort(keys=2, desc=(False, False))\n"
        "  GroupAggregate(aggs=[sum,sum,sum,sum,avg,avg,avg,count], fused=True)\n"
        "    Filter(on l_shipdate)\n"
        "      Scan(source_0: Lineitem)\n"
        "engine: native\n"
        "capability: supported\n" + _Q1_PIPELINES + _Q1_FACTS + _SEQ
    ),
    "hybrid": (
        "Sort(keys=2, desc=(False, False))\n"
        "  GroupAggregate(aggs=[sum,sum,sum,sum,avg,avg,avg,count], fused=True)\n"
        "    Filter(on l_shipdate)\n"
        "      Scan(source_0: tpch:lineitem)\n"
        "engine: hybrid\n"
        "capability: supported\n" + _Q1_PIPELINES_HYBRID + _Q1_FACTS + _SEQ
    ),
}

_Q3_PLAN = (
    "TopN(keys=2, desc=(True, False))\n"
    "  GroupAggregate(aggs=[sum], fused=True)\n"
    "    Join\n"
    "      Filter(on l_shipdate)\n"
    "        Scan(source_0: {lineitem})\n"
    "      Join\n"
    "        Filter(on o_orderdate)\n"
    "          Scan(source_1: {orders})\n"
    "        Filter(on c_mktsegment)\n"
    "          Scan(source_2: {customer})\n"
)

_Q3_PIPELINES = (
    "pipelines:\n"
    "  p0: scan(source_2) | filter => join-build#3\n"
    "  p1: scan(source_1) | filter | join-probe => join-build#2\n"
    "  p2: scan(source_0) | filter | join-probe => group-aggregate#1\n"
    "  p3: group-aggregate#1 => topn#0\n"
    "  p4: topn#0 => result\n"
)
_Q3_PIPELINES_HYBRID = (
    "pipelines:\n"
    "  p0: scan(source_2) | filter => join-build#3"
    " [managed staging -> native]\n"
    "  p1: scan(source_1) | filter | join-probe => join-build#2"
    " [managed staging -> native]\n"
    "  p2: scan(source_0) | filter | join-probe => group-aggregate#1"
    " [managed staging -> native]\n"
    "  p3: group-aggregate#1 => topn#0 [native]\n"
    "  p4: topn#0 => result [native]\n"
)

Q3_GOLDENS = {
    "linq": Q1_GOLDENS["linq"],
    "compiled": _Q3_PLAN.format(
        lineitem="tpch:lineitem", orders="tpch:orders", customer="tpch:customer"
    )
    + "engine: compiled\ncapability: supported\n"
    + _Q3_PIPELINES + _Q3_FACTS + _SEQ,
    "native": _Q3_PLAN.format(
        lineitem="Lineitem", orders="Orders", customer="Customer"
    )
    + "engine: native\ncapability: supported\n"
    + _Q3_PIPELINES + _Q3_FACTS + _SEQ,
    "hybrid": _Q3_PLAN.format(
        lineitem="tpch:lineitem", orders="tpch:orders", customer="tpch:customer"
    )
    + "engine: hybrid\ncapability: supported\n"
    + _Q3_PIPELINES_HYBRID + _Q3_FACTS + _SEQ,
}


class TestExplainGoldens:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_q1(self, tpch, engine):
        query = q1(tpch, engine=engine, provider=QueryProvider()).in_parallel(1)
        assert query.explain() == Q1_GOLDENS[engine]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_q3(self, tpch, engine):
        query = q3(tpch, engine=engine, provider=QueryProvider()).in_parallel(1)
        assert query.explain() == Q3_GOLDENS[engine]

    def test_first_line_remains_the_plan_root(self, tpch):
        # pre-observability contract: callers slice splitlines()[0]
        query = q1(tpch, engine="compiled", provider=QueryProvider())
        assert query.explain().splitlines()[0].startswith("Sort(")

    def test_parallel_eligibility_reported(self, tpch):
        query = q1(tpch, engine="compiled", provider=QueryProvider())
        text = query.in_parallel(4).explain()
        assert "parallel: eligible (mode=group" in text
        assert "workers=4" in text

    def test_unsupported_engine_lists_reasons(self):
        provider = QueryProvider()
        query = (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("native", provider)
            .select(lambda r: (r.x, r.y))  # tuples aren't native-layout
        )
        text = query.explain()
        assert "capability: unsupported" in text
        assert "\n  - " in text  # at least one reason line


class _Unsized:
    """Re-iterable, but with no length to cut morsels from."""

    def __init__(self, items):
        self._items = items

    def __iter__(self):
        return iter(self._items)


def _unpicklable(value):
    class Local(float):  # a class local to a function does not pickle
        pass

    return Local(value)


class TestExplainReadsTheDecisions:
    """The capability and tier lines are the compiler's and ``tier()``'s
    own verdicts, not a re-derivation."""

    def test_unsized_driver_reports_why_it_stays_sequential(self):
        query = (
            from_iterable(_Unsized(OBJECTS))
            .using("compiled", QueryProvider())
            .where(lambda r: r.x > 3)
            .in_parallel(2)
        )
        reason = "sequential — driver source 0 has no length to cut into morsels"
        assert f"\nparallel: {reason}" in query.explain()
        # explain_analyze reads the same reason off the executed span
        analysis = query.explain_analyze()
        assert analysis.rows == 36
        assert analysis.parallel == reason

    def test_unshippable_parameters_report_why_they_stay_in_process(self):
        query = (
            from_struct_array(StructArray.from_objects(SCHEMA, OBJECTS))
            .using("native", QueryProvider())
            .where(lambda r: r.y > P("floor"))
            .with_params(floor=_unpicklable(3.0))
            .distributed(2)
        )
        reason = "in-process — query parameters cannot cross the process boundary"
        assert f"\ndistributed: {reason}" in query.explain()
        analysis = query.explain_analyze()  # in-process: nothing spawns
        assert analysis.rows == 33
        assert analysis.distributed.startswith(reason)

    def test_capability_is_the_backends_verdict(self):
        query = (
            from_struct_array(StructArray.from_objects(SCHEMA, OBJECTS))
            .using("native", QueryProvider())
            .group_by(
                lambda r: new(a=r.x % 2, b=r.x % 3),
                lambda grp: new(k=grp.key, n=grp.count()),
            )
        )
        message = "native code cannot manipulate whole records as values"
        assert f"\ncapability: unsupported\n  - {message}" in query.explain()
        with pytest.raises(UnsupportedQueryError, match=message):
            query.to_list()


# ---------------------------------------------------------------------------
# explain_analyze() — the acceptance criterion
# ---------------------------------------------------------------------------


class TestExplainAnalyze:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_q1_reports_per_phase_timings(self, tpch, engine):
        query = q1(tpch, engine=engine, provider=QueryProvider()).in_parallel(1)
        analysis = query.explain_analyze()
        assert analysis.engine == engine
        assert analysis.rows == 4  # Q1's four (returnflag, linestatus) groups
        assert analysis.phase_seconds("query.execute") > 0
        if engine == "linq":
            assert analysis.cache == "n/a (linq never compiles)"
        else:
            assert analysis.cache == "miss"
            for phase in (
                "query.canonicalize",
                "query.cache_lookup",
                "query.optimize",
                "codegen.generate",
                "codegen.compile_source",
                "query.compile",
            ):
                assert analysis.phase_seconds(phase) > 0, phase
        rendered = analysis.render()
        assert "phases (wall ms):" in rendered
        assert "query.execute" in rendered

    def test_warm_cache_reported_as_hit(self, tpch):
        provider = QueryProvider()
        query = q1(tpch, engine="compiled", provider=provider).in_parallel(1)
        query.explain_analyze()
        warm = query.explain_analyze()
        assert warm.cache == "hit"
        assert warm.phase_seconds("query.compile") == 0  # nothing recompiled

    def test_parallel_run_reports_morsels(self, tpch):
        provider = QueryProvider()
        query = q1(tpch, engine="compiled", provider=provider)
        analysis = query.in_parallel(2, 1000).explain_analyze()
        assert analysis.morsels >= 1
        assert "workers x" in analysis.parallel
        assert analysis.phase_seconds("parallel.merge") > 0

    def test_rows_match_actual_execution(self, tpch):
        provider = QueryProvider()
        query = q3(tpch, engine="native", provider=provider)
        assert query.explain_analyze().rows == len(query.to_list())

    def test_kernels_line_says_which_path_ran(self, tpch):
        provider = QueryProvider()
        # the sequential path is the one asserted: pin the tier (threads
        # merge partial group tables through a different kernel path)
        # two S1 keys and the re-rank of their combination: all addressed
        dense = q1(tpch, "native", provider).in_parallel(1).explain_analyze()
        assert dense.kernels == "dense=3 sorted=0"
        assert "\nkernels: dense=3 sorted=0\n" in dense.render()
        # a float key cannot be addressed; the reason is on the line
        lineitem = relation_query(tpch, "lineitem", "native", provider)
        by_float = (
            lineitem.group_by(
                lambda l: l.l_discount, lambda g: new(d=g.key, n=g.count())
            )
            .in_parallel(1)
            .explain_analyze()
        )
        assert by_float.kernels == "dense=0 sorted=1 (dtype=1)"
        # engines that never call a vectorized kernel have no such line
        compiled = q1(tpch, "compiled", provider).in_parallel(1).explain_analyze()
        assert compiled.kernels == ""
        assert "kernels:" not in compiled.render()


# ---------------------------------------------------------------------------
# the trace switch and its cost
# ---------------------------------------------------------------------------


class TestTraceSwitch:
    def test_using_trace_records_spans(self):
        TRACER.reset()
        provider = QueryProvider()
        (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider, trace=True)
            .where(lambda r: r.x > 3)
            .to_list()
        )
        names = {r.name for r in TRACER.spans()}
        assert "query.execute" in names
        TRACER.reset()

    def test_trace_includes_dataflow_analysis_span(self):
        TRACER.reset()
        provider = QueryProvider()
        (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider, trace=True)
            .where(lambda r: r.x > 3)
            .to_list()
        )
        names = {r.name for r in TRACER.spans()}
        assert "query.lower" in names
        assert "query.analyze_dataflow" in names
        TRACER.reset()

    def test_untraced_query_records_nothing(self):
        TRACER.reset()
        provider = QueryProvider()
        (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", provider)
            .where(lambda r: r.x > 3)
            .to_list()
        )
        assert TRACER.spans() == []

    def test_default_off_overhead_under_two_percent(self, tpch):
        # The disabled fast path costs one attribute read + one `or` per
        # span() call.  Comparing two noisy end-to-end timings would flake,
        # so bound the overhead analytically: (cost of a no-op span) x
        # (spans per query) must be <2% of a fig07 query's wall time.
        provider = QueryProvider()
        query = aggregation_micro(tpch, "compiled", 0.6, provider).in_parallel(1)
        query.to_list()  # warm: compile once, like the fig07 harness

        # spans a warm traced run would emit
        with TRACER.capture() as spans:
            query.to_list()
        spans_per_query = len(spans)
        assert spans_per_query >= 3  # canonicalize, cache lookup, execute

        # per-call cost of the disabled span() fast path
        reps = 50_000
        start = time.perf_counter()
        for _ in range(reps):
            with TRACER.span("noop"):
                pass
        per_span = (time.perf_counter() - start) / reps

        # wall time of the untraced query (median of 5)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            query.to_list()
            times.append(time.perf_counter() - start)
        query_time = sorted(times)[2]

        overhead = per_span * spans_per_query
        assert overhead < 0.02 * query_time, (
            f"tracing overhead {overhead * 1e6:.2f}us exceeds 2% of "
            f"query time {query_time * 1e3:.3f}ms"
        )

    def test_kernel_counters_stay_inside_the_same_budget(self, tpch):
        # The kernels' dense/sorted counters are always on.  Same analytic
        # bound as above: (counter updates per query) x (cost of one) must
        # be <2% of the fig07 query on the engine that runs the kernels.
        provider = QueryProvider()
        query = aggregation_micro(tpch, "native", 0.6, provider).in_parallel(1)
        query.to_list()

        def updates():
            return sum(
                value
                for name, value in METRICS.snapshot().items()
                if name.startswith("runtime.kernels.")
            )

        before = updates()
        query.to_list()
        updates_per_query = updates() - before
        assert updates_per_query >= 3  # two key columns + their combination

        registry = MetricsRegistry()  # same code, not the shared counts
        reps = 50_000
        start = time.perf_counter()
        for _ in range(reps):
            registry.counter("runtime.kernels.dense").add()
        per_update = (time.perf_counter() - start) / reps

        times = []
        for _ in range(5):
            start = time.perf_counter()
            query.to_list()
            times.append(time.perf_counter() - start)
        query_time = sorted(times)[2]

        overhead = per_update * updates_per_query
        assert overhead < 0.02 * query_time, (
            f"kernel counters cost {overhead * 1e6:.2f}us, over 2% of "
            f"query time {query_time * 1e3:.3f}ms"
        )
