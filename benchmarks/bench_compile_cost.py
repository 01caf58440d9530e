"""§7.4 — code generation and compilation cost, and cache amortization.

Paper: "Source code generation takes between 30ms and 60ms; C# code
compilation needs around 75ms; and C code compilation takes around 720ms
... caching and reusing the compiled code" makes these one-off costs.
Our generation+``compile()`` costs are measured here, together with the
cache-hit fast path that amortizes them.
"""

import statistics
import time

import pytest

from repro.codegen.hybrid_backend import HybridBackend
from repro.query import ENGINES, QueryCache, QueryProvider
from repro.tpch import q1, q3

from conftest import PINNED_HYBRIDS, Pinned, write_report

#: every code-generating engine, plus the pinned buffered-Max hybrid
CODEGEN_ENGINES = ENGINES[1:] + ("hybrid:buffered",)


def _fresh_provider() -> QueryProvider:
    return QueryProvider(cache=QueryCache())


@pytest.mark.parametrize("engine", CODEGEN_ENGINES)
def test_compile_cost_q1(benchmark, data, engine):
    """Time one cold compile (canonicalize + translate + codegen + exec)."""

    def compile_cold():
        return _compile(_build(q1, data, engine, _fresh_provider()), engine)

    info = benchmark.pedantic(compile_cold, rounds=3, iterations=1)
    assert info.source_code


def _build(builder, data, column, provider):
    return builder(data, "hybrid" if column in PINNED_HYBRIDS else column, provider)


def _compile(query, column):
    """Compile *query* for *column*: an engine, or a pinned hybrid policy."""
    policy = PINNED_HYBRIDS.get(column)
    if policy is None:
        return query.provider.compile_info(query.expr, list(query.sources), column)
    backend = HybridBackend(**policy)
    return Pinned(query.provider, query.expr, query.sources, backend).compiled


def test_cache_hit_fast_path(benchmark, data):
    """A cache hit must cost microseconds, not a recompilation."""
    provider = _fresh_provider()
    query = q1(data, "compiled", provider)
    provider.compile_info(query.expr, list(query.sources), "compiled")

    def lookup():
        return provider.compile_info(query.expr, list(query.sources), "compiled")

    benchmark.pedantic(lookup, rounds=5, iterations=10)
    assert provider.cache.stats.hits >= 50


#: cold compiles per cell; the report takes each column's median
ROUNDS = 7


def test_compile_cost_report(benchmark, data, results_dir):
    """Median of :data:`ROUNDS` cold compiles per cell, each on a fresh
    provider, with every (query, engine) cell timed once per round so
    that drift spreads over all of them alike."""
    queries = ((q1, "Q1"), (q3, "Q3"))

    def run():
        samples = {}
        for _ in range(ROUNDS):
            for builder, name in queries:
                for engine in CODEGEN_ENGINES:
                    query = _build(builder, data, engine, _fresh_provider())
                    started = time.perf_counter()
                    info = _compile(query, engine)
                    cold = time.perf_counter() - started
                    hit = None
                    if engine not in PINNED_HYBRIDS:
                        started = time.perf_counter()
                        _compile(query, engine)
                        hit = time.perf_counter() - started
                    samples.setdefault((name, engine), []).append(
                        (info.codegen_seconds, info.compile_seconds, cold, hit)
                    )
        lines = [
            "§7.4: per-engine code generation / compilation cost (TPC-H Q1, Q3)",
            f"median of {ROUNDS} rounds per cell, each on a fresh provider, "
            f"engines interleaved",
            f"{'engine':18s} {'query':>5s} {'codegen':>10s} {'compile':>10s} "
            f"{'cold total':>11s} {'cache hit':>10s}",
        ]
        for _, name in queries:
            for engine in CODEGEN_ENGINES:
                codegen, compile_, cold, hit = zip(*samples[name, engine])
                if engine in PINNED_HYBRIDS:
                    hit_text = "uncached"  # a pinned policy bypasses the cache
                else:
                    hit_text = f"{statistics.median(hit) * 1e6:.1f}µs"
                lines.append(
                    f"{engine:18s} {name:>5s} "
                    f"{statistics.median(codegen) * 1e3:>8.2f}ms "
                    f"{statistics.median(compile_) * 1e3:>8.2f}ms "
                    f"{statistics.median(cold) * 1e3:>9.2f}ms {hit_text:>10s}"
                )
        lines.append("")
        lines.append(
            "paper: codegen 30-60ms; C# compile ≈75ms; C compile ≈720ms — all"
        )
        lines.append(
            "amortized by the query cache across parameter-varying executions"
        )
        return lines

    lines = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(results_dir, "compile_cost", lines)
