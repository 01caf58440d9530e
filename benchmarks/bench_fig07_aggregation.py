"""Figure 7 — aggregation over selection, varying selectivity.

Paper: "all our approaches perform significantly better than
LINQ-to-objects; in the case of generated C code even up to one order of
magnitude better.  As the volume of data to be aggregated grows,
LINQ-to-objects looses ground even further."  Combined C#/C lands between
the host-only and native extremes (30–70% behind pure C).
"""

import statistics
import time

import pytest

from repro.tpch import aggregation_micro

from conftest import column_query, drain, write_report

ENGINES = ("linq", "compiled", "native", "hybrid", "hybrid:buffered")
SWEEP = tuple(round(0.1 * i, 1) for i in range(1, 11))
SPOT_SELECTIVITIES = (0.2, 0.6, 1.0)


@pytest.mark.parametrize("selectivity", SPOT_SELECTIVITIES)
@pytest.mark.parametrize("engine", ENGINES)
def test_fig07_aggregation(benchmark, data, provider, engine, selectivity):
    query = column_query(aggregation_micro, data, engine, selectivity, provider)
    benchmark.pedantic(drain, args=(query,), rounds=3, iterations=1, warmup_rounds=1)


#: timed drains per report cell; the report takes their median
ROUNDS = 7


def test_fig07_report(benchmark, data, provider, results_dir):
    """One full selectivity sweep; writes results/fig07_aggregation.txt.

    Each cell is the median of :data:`ROUNDS` warm drains.  Every round
    drains each engine once, so drift spreads over the engines alike.
    """

    def sweep():
        lines = [
            "Figure 7: aggregation over selection; evaluation time (ms) by selectivity",
            f"median of {ROUNDS} warm rounds per cell, engines interleaved",
            "selectivity  " + "  ".join(f"{e:>16s}" for e in ENGINES),
        ]
        for selectivity in SWEEP:
            queries = [
                column_query(aggregation_micro, data, engine, selectivity, provider)
                for engine in ENGINES
            ]
            for query in queries:
                drain(query)  # warm the query cache / compile once
            times = [[] for _ in ENGINES]
            for _ in range(ROUNDS):
                for query, cell in zip(queries, times):
                    started = time.perf_counter()
                    drain(query)
                    cell.append((time.perf_counter() - started) * 1e3)
            lines.append(
                f"{selectivity:>11.1f}  "
                + "  ".join(f"{statistics.median(c):>16.1f}" for c in times)
            )
        return lines

    lines = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(results_dir, "fig07_aggregation", lines)


#: ablation cell: the same aggregation with proof-driven guard elision
#: enabled vs disabled (REPRO_GUARD_ELISION); linq rides along as the
#: reference column (it generates no code, so elision cannot move it)
_ELISION_SETTINGS = (("1", "elision=on"), ("0", "elision=off"))


def test_fig07_elision_report(benchmark, data, provider, results_dir, monkeypatch):
    """Guard-elision ablation sweep; writes results/fig07_elision.txt."""

    def sweep():
        lines = [
            "Figure 7 ablation: guard elision on/off; evaluation time (ms)",
            "setting      selectivity  "
            + "  ".join(f"{e:>16s}" for e in ENGINES),
        ]
        for setting, label in _ELISION_SETTINGS:
            monkeypatch.setenv("REPRO_GUARD_ELISION", setting)
            for selectivity in SPOT_SELECTIVITIES:
                cells = []
                for engine in ENGINES:
                    query = column_query(
                        aggregation_micro, data, engine, selectivity, provider
                    )
                    drain(query)  # warm: compile under this elision setting
                    # sub-2ms cells at smoke scale: a single drain is all
                    # timer noise, so each cell is a median of five
                    times = []
                    for _ in range(5):
                        started = time.perf_counter()
                        drain(query)
                        times.append((time.perf_counter() - started) * 1e3)
                    ms = statistics.median(times)
                    cells.append(ms)
                lines.append(
                    f"{label:<11s}  {selectivity:>11.1f}  "
                    + "  ".join(f"{c:>16.1f}" for c in cells)
                )
        return lines

    lines = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(results_dir, "fig07_elision", lines)
