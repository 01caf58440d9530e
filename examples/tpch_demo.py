"""TPC-H demo: the paper's evaluation workload end to end.

Run with:  python examples/tpch_demo.py [scale]

Generates a deterministic TPC-H dataset, runs Q1/Q2/Q3 on every engine,
verifies all engines agree, and prints per-engine wall-clock times — a
miniature of the paper's §7 evaluation.
"""

import sys
import time

from repro.query import ENGINES, QueryProvider
from repro.tpch import TPCHData, q1, q2, q3


def _digest(rows):
    return [tuple(row) for row in rows]


def _agrees(rows, reference) -> bool:
    """Equal modulo float summation order (page-wise vs single-pass)."""
    import math

    if len(rows) != len(reference):
        return False
    for row, expected in zip(rows, reference):
        for value, target in zip(row, expected):
            if isinstance(value, float):
                if not math.isclose(value, target, rel_tol=1e-6, abs_tol=1e-9):
                    return False
            elif value != target:
                return False
    return True


def run_query(name, builder, data, provider):
    print(f"\nTPC-H {name}")
    print(f"  {'engine':18s} {'time':>9s}  result")
    reference = None
    for engine in ENGINES:
        query = builder(data, engine, provider)
        started = time.perf_counter()
        rows = query.to_list()
        elapsed = time.perf_counter() - started
        digest = _digest(rows)
        if reference is None:
            reference = digest
            status = f"{len(rows)} rows"
        else:
            status = "agrees ✓" if _agrees(digest, reference) else "MISMATCH ✗"
        first = f"{digest[0][0]!r}, ..." if digest else "(empty)"
        print(f"  {engine:18s} {elapsed * 1e3:8.1f}ms  {status} [{first}]")


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    print(f"generating TPC-H data at scale factor {scale} ...")
    data = TPCHData(scale=scale)
    print(
        "  "
        + ", ".join(
            f"{name}={data.row_count(name):,}"
            for name in ("customer", "orders", "lineitem")
        )
    )
    provider = QueryProvider()
    run_query("Q1 (aggregation)", q1, data, provider)
    run_query("Q2 (min-cost supplier)", q2, data, provider)
    run_query("Q3 (shipping priority)", q3, data, provider)


if __name__ == "__main__":
    main()
