"""Figure 11 — join over selections, varying selectivity.

Paper: all four combined-C#/C variants (Min/Max × full/buffered) "perform
very similarly, with buffering performing slightly better and full-staging
marginally outperforming key/index joins"; the generated C code performs
best overall and generated C# beats LINQ-to-objects.  Three of the four
variants are columns here (Max full is plain ``hybrid``; the other two are
pinned through ``column_query``): a plan staging row indexes is staged
fully, so Min-buffered would time the Min program again.
"""

import time

import pytest

from repro.tpch import join_micro

from conftest import column_query, drain, write_report

ENGINES = (
    "linq",
    "compiled",
    "native",
    "hybrid",  # Max, full staging (the rule's choice for this join)
    "hybrid:buffered",  # Max, buffered
    "hybrid:min",  # Min, full staging
)
SWEEP = tuple(round(0.1 * i, 1) for i in range(1, 11))


@pytest.mark.parametrize("selectivity", (0.2, 0.6, 1.0))
@pytest.mark.parametrize("engine", ENGINES)
def test_fig11_joins(benchmark, data, provider, engine, selectivity):
    query = column_query(join_micro, data, engine, selectivity, provider)
    benchmark.pedantic(drain, args=(query,), rounds=3, iterations=1, warmup_rounds=1)


def test_fig11_report(benchmark, data, provider, results_dir):
    def sweep():
        lines = [
            "Figure 11: join over selections; evaluation time (ms) by selectivity",
            "selectivity  " + "  ".join(f"{e:>19s}" for e in ENGINES),
        ]
        for selectivity in SWEEP:
            cells = []
            for engine in ENGINES:
                query = column_query(join_micro, data, engine, selectivity, provider)
                drain(query)
                started = time.perf_counter()
                drain(query)
                ms = (time.perf_counter() - started) * 1e3
                cells.append(ms)
            lines.append(
                f"{selectivity:>11.1f}  " + "  ".join(f"{c:>19.1f}" for c in cells)
            )
        return lines

    lines = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(results_dir, "fig11_joins", lines)
