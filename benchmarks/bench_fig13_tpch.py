"""Figure 13 — TPC-H Q1, Q2, Q3: evaluation time relative to LINQ.

Paper: "The generated C code performs best, followed by the combination of
generated C# and C code.  The generated C# code comes third before
LINQ-to-objects.  As the queries contain more operations, LINQ-to-objects
... transfers more objects through the pipeline and materializes more
intermediate result objects, which gives our approaches an additional
advantage."
"""

import time

import pytest

from repro.tpch import q1, q2, q3, q4

from conftest import column_query, drain, write_report

ENGINES = ("linq", "compiled", "native", "hybrid", "hybrid:buffered")
# Q4 extends the paper's figure: the semi-join (EXISTS) probe exercises
# the join/set-operation surface the conformance suite proves
QUERIES = {"Q1": q1, "Q2": q2, "Q3": q3, "Q4": q4}


@pytest.mark.parametrize("query_name", tuple(QUERIES))
@pytest.mark.parametrize("engine", ENGINES)
def test_fig13_tpch(benchmark, data, provider, engine, query_name):
    query = column_query(QUERIES[query_name], data, engine, provider)
    benchmark.pedantic(drain, args=(query,), rounds=3, iterations=1, warmup_rounds=1)


def test_fig13_report(benchmark, data, provider, results_dir):
    def sweep():
        lines = [
            "Figure 13: TPC-H queries; evaluation time as percentage of LINQ-to-objects",
            "query  " + "  ".join(f"{e:>16s}" for e in ENGINES),
        ]
        absolute = ["(absolute ms)"]
        for name, builder in QUERIES.items():
            times = {}
            for engine in ENGINES:
                query = column_query(builder, data, engine, provider)
                drain(query)
                started = time.perf_counter()
                drain(query)
                times[engine] = time.perf_counter() - started
            base = times["linq"]
            lines.append(
                f"{name:>5s}  "
                + "  ".join(f"{100 * times[e] / base:>15.1f}%" for e in ENGINES)
            )
            absolute.append(
                f"{name:>5s}  "
                + "  ".join(f"{times[e] * 1e3:>15.1f} " for e in ENGINES)
            )
        return lines + absolute

    lines = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(results_dir, "fig13_tpch", lines)
