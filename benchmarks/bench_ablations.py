"""Ablations — design choices DESIGN.md calls out, plus the §9 extensions.

Not a paper figure; these quantify the individual decisions:

* TopN fusion (bounded heap) vs full sort + take           (§2.3)
* buffer page size sensitivity for the buffered hybrid      (§7.1: "did
  not find any significant impact ... settled for 64KB")
* hash-index point lookups vs full scans                    (§9 indexes)
* statistics-driven predicate ordering vs cost heuristic    (§9 histograms)
* result recycling vs re-evaluation                          (§9 caching)
"""

import time

import pytest

from repro import P, new
from repro.plans import TableStats
from repro.plans.optimizer import OptimizeOptions
from repro.query import QueryProvider, from_struct_array
from repro.query.recycler import RecyclingProvider
from repro.tpch import relation_query

from conftest import Pinned, drain, write_report


# -- TopN fusion -----------------------------------------------------------------


@pytest.mark.parametrize("fused", (True, False), ids=("topn_heap", "full_sort"))
def test_ablation_topn_fusion(benchmark, data, fused):
    provider = QueryProvider(optimize_options=OptimizeOptions(fuse_topn=fused))
    query = (
        relation_query(data, "lineitem", "compiled", provider)
        .order_by_desc(lambda l: l.l_extendedprice)
        .take(10)
        .select(lambda l: l.l_extendedprice)
    )
    benchmark.pedantic(drain, args=(query,), rounds=3, iterations=1, warmup_rounds=1)


# -- buffer page size ------------------------------------------------------------


@pytest.mark.parametrize("page_kb", (4, 64, 1024))
def test_ablation_buffer_page_size(benchmark, data, page_kb):
    from repro.codegen.hybrid_backend import HybridBackend
    from repro.expressions.builder import trace_lambda
    from repro.expressions.nodes import QueryOp

    filtered = relation_query(data, "lineitem", "hybrid").where(
        lambda l: l.l_quantity <= 40.0
    )
    expr = QueryOp(
        "sum", filtered.expr, (trace_lambda(lambda l: l.l_extendedprice),)
    )
    backend = HybridBackend(buffered=True, page_bytes=page_kb * 1024)
    pinned = Pinned(QueryProvider(), expr, filtered.sources, backend)
    benchmark.pedantic(pinned.run, rounds=3, iterations=1, warmup_rounds=1)


# -- hash index ----------------------------------------------------------------------


@pytest.mark.parametrize("indexed", (False, True), ids=("scan", "index"))
def test_ablation_index_point_lookup(benchmark, data, indexed):

    array = data.arrays("orders")
    if indexed:
        array = type(array)(array.schema, array.data)  # fresh, own index store
        array.create_index("o_orderkey")
    provider = QueryProvider()
    query = (
        from_struct_array(array)
        .using("native", provider)
        .where(lambda o: o.o_orderkey == P("key"))
        .select(lambda o: o.o_totalprice)
        .with_params(key=42)
    )
    benchmark.pedantic(drain, args=(query,), rounds=5, iterations=5, warmup_rounds=1)


# -- statistics-driven predicate ordering ----------------------------------------------


@pytest.mark.parametrize("with_stats", (False, True), ids=("cost_order", "stats_order"))
def test_ablation_statistics_ordering(benchmark, data, with_stats):
    provider = QueryProvider()
    if with_stats:
        provider.register_statistics(
            "tpch:lineitem", TableStats.collect(data.arrays("lineitem"))
        )
    from repro.expressions.builder import trace_lambda
    from repro.expressions.nodes import QueryOp

    # written with the broad predicate first; statistics should flip it
    filtered = relation_query(data, "lineitem", "compiled", provider).where(
        lambda l: (l.l_quantity <= 49.0)                 # ~98% pass
        & (l.l_linenumber == 7)                           # ~2% pass
    )
    expr = QueryOp(
        "sum", filtered.expr, (trace_lambda(lambda l: l.l_extendedprice),)
    )
    sources = list(filtered.sources)

    def run():
        return provider.execute_scalar(expr, sources, "compiled", {})

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)


# -- result recycling ----------------------------------------------------------------------


@pytest.mark.parametrize("recycled", (False, True), ids=("reevaluate", "recycle"))
def test_ablation_result_recycling(benchmark, data, recycled):
    provider = RecyclingProvider() if recycled else QueryProvider()
    query = (
        relation_query(data, "lineitem", "compiled", provider)
        .where(lambda l: l.l_quantity > 25.0)
        .group_by(
            lambda l: l.l_returnflag,
            lambda g: new(flag=g.key, revenue=g.sum(lambda l: l.l_extendedprice)),
        )
    )
    drain(query)  # compile (and, if recycling, populate the result cache)
    benchmark.pedantic(drain, args=(query,), rounds=5, iterations=1)


def test_ablations_report(benchmark, data, results_dir):
    def run():
        lines = ["Ablations (median of 3, ms)"]

        def best_of(fn, rounds=3):
            samples = []
            for _ in range(rounds):
                started = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - started)
            return sorted(samples)[len(samples) // 2] * 1e3

        # TopN fusion
        times = {}
        for fused in (True, False):
            provider = QueryProvider(
                optimize_options=OptimizeOptions(fuse_topn=fused)
            )
            query = (
                relation_query(data, "lineitem", "compiled", provider)
                .order_by_desc(lambda l: l.l_extendedprice)
                .take(10)
            )
            drain(query)
            times[fused] = best_of(lambda q=query: drain(q))
        lines.append(
            f"  order_by+take(10): heap {times[True]:.1f} vs "
            f"full sort {times[False]:.1f} "
            f"({times[False] / times[True]:.1f}× — §2.3 'Independent operators')"
        )

        # index
        array = data.arrays("lineitem")
        fresh = type(array)(array.schema, array.data)
        provider = QueryProvider()

        def point(source):
            return (
                from_struct_array(source)
                .using("native", provider)
                .where(lambda l: l.l_orderkey == P("key"))
                .with_params(key=42)
                .sum(lambda l: l.l_extendedprice)
            )

        point(fresh)
        scan_ms = best_of(lambda: point(fresh), rounds=5)
        fresh.create_index("l_orderkey")
        point(fresh)
        index_ms = best_of(lambda: point(fresh), rounds=5)
        lines.append(
            f"  point lookup on lineitem: scan {scan_ms:.3f} vs index "
            f"{index_ms:.3f} ({scan_ms / max(index_ms, 1e-9):.1f}×)"
        )

        # clustering
        array = data.arrays("lineitem")
        fresh = type(array)(array.schema, array.data)
        clustered = fresh.cluster_by("l_quantity")
        provider = QueryProvider()

        def range_sum(source):
            return (
                from_struct_array(source)
                .using("native", provider)
                .where(lambda l: l.l_quantity < P("q"))
                .with_params(q=10.0)
                .sum(lambda l: l.l_extendedprice)
            )

        range_sum(fresh)
        mask_ms = best_of(lambda: range_sum(fresh), rounds=5)
        range_sum(clustered)
        slice_ms = best_of(lambda: range_sum(clustered), rounds=5)
        lines.append(
            f"  range scan on lineitem: mask {mask_ms:.3f} vs clustered slice "
            f"{slice_ms:.3f} ({mask_ms / max(slice_ms, 1e-9):.1f}×)"
        )

        # recycling
        provider = RecyclingProvider()
        query = (
            relation_query(data, "lineitem", "compiled", provider)
            .where(lambda l: l.l_quantity > 25.0)
            .sum(lambda l: l.l_extendedprice)
        )
        # scalar executes eagerly; re-running hits the result cache
        cold = best_of(
            lambda: relation_query(data, "lineitem", "compiled", QueryProvider())
            .where(lambda l: l.l_quantity > 25.0)
            .sum(lambda l: l.l_extendedprice),
            rounds=3,
        )
        warm = best_of(
            lambda: relation_query(data, "lineitem", "compiled", provider)
            .where(lambda l: l.l_quantity > 25.0)
            .sum(lambda l: l.l_extendedprice),
            rounds=3,
        )
        lines.append(
            f"  repeated aggregate: evaluate {cold:.1f} vs recycle {warm:.2f} "
            f"({cold / max(warm, 1e-9):.0f}×)"
        )
        return lines

    lines = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(results_dir, "ablations", lines)
