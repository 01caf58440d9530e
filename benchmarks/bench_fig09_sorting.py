"""Figure 9 — sorting over selection, varying selectivity.

Paper: "LINQ-to-objects performs the worst, though it tracks the
performance of C# code much closer this time" (both run the same quicksort
in the managed runtime).  Generated C and the combined approach perform
similarly; the hybrid for sorting is the **Min** variant — it must return
references to the original elements, so only keys and indexes cross into
native memory.  The ``hybrid`` engine builds Min here: the result is the
whole source elements, which cross as a row-index column.
"""

import time

import pytest

from repro.tpch import sorting_micro

from conftest import drain, write_report

#: the applicable strategies for a query returning original elements
ENGINES = ("linq", "compiled", "native", "hybrid")
SWEEP = tuple(round(0.1 * i, 1) for i in range(1, 11))


@pytest.mark.parametrize("selectivity", (0.2, 0.6, 1.0))
@pytest.mark.parametrize("engine", ENGINES)
def test_fig09_sorting(benchmark, data, provider, engine, selectivity):
    query = sorting_micro(data, engine, selectivity, provider)
    benchmark.pedantic(drain, args=(query,), rounds=3, iterations=1, warmup_rounds=1)


def test_fig09_report(benchmark, data, provider, results_dir):
    def sweep():
        lines = [
            "Figure 9: sorting over selection; evaluation time (ms) by selectivity",
            "selectivity  " + "  ".join(f"{e:>14s}" for e in ENGINES),
        ]
        for selectivity in SWEEP:
            cells = []
            for engine in ENGINES:
                query = sorting_micro(data, engine, selectivity, provider)
                drain(query)
                started = time.perf_counter()
                drain(query)
                cells.append((time.perf_counter() - started) * 1e3)
            lines.append(
                f"{selectivity:>11.1f}  " + "  ".join(f"{c:>14.1f}" for c in cells)
            )
        return lines

    lines = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(results_dir, "fig09_sorting", lines)
