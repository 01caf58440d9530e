"""Shared fixtures for the benchmark harness.

Every figure/table of the paper's §7 has one ``bench_*.py`` file here.
Each file contains

* a handful of *parameterized* pytest-benchmark entries (statistically
  sound timings for representative points), and
* one ``..._report`` benchmark that runs the figure's full sweep once and
  writes the paper-style table to ``results/<figure>.txt`` (also printed).

Scale the workload with ``REPRO_TPCH_SCALE`` (default 0.003 ≈ 18k lineitem
rows, laptop-friendly; the shapes already show clearly there — use 0.01+
for slower, smoother curves).
"""

import os
import pathlib

import pytest

from repro.codegen.hybrid_backend import HybridBackend
from repro.query import QueryProvider
from repro.tpch import TPCHData

DEFAULT_SCALE = 0.003


def tpch_scale() -> float:
    return float(os.environ.get("REPRO_TPCH_SCALE", DEFAULT_SCALE))


@pytest.fixture(scope="session")
def data():
    return TPCHData(scale=tpch_scale())


@pytest.fixture(scope="session")
def provider():
    return QueryProvider(cache=None)


@pytest.fixture(scope="session")
def results_dir():
    path = pathlib.Path(__file__).resolve().parent.parent / "results"
    path.mkdir(exist_ok=True)
    return path


def write_report(results_dir, name: str, lines) -> None:
    """Print a figure table and persist it under results/."""
    text = "\n".join(lines)
    print(f"\n{text}\n")
    (results_dir / f"{name}.txt").write_text(text + "\n")


def drain(query) -> int:
    """Fully consume a query (deferred execution ⇒ this is the evaluation)."""
    count = 0
    for _ in query:
        count += 1
    return count


#: figure columns that pin one of the paper's hybrid policies (§6) instead
#: of the hybrid backend's own staging: label → arguments
PINNED_HYBRIDS = {
    "hybrid:buffered": {"buffered": True},  # Max, page-by-page staging
    "hybrid:min": {"minimal": True},  # Min, full staging
}


class Pinned:
    """One query compiled with an explicit backend: the provider's compile
    body (``Shape.compile_with``), uncached.  Iterating runs the artifact."""

    def __init__(self, provider, expr, sources, backend, params=None):
        shape = provider.shape(expr, list(sources))
        self.compiled = shape.compile_with(backend)
        self.sources = shape.sources
        self.params = {**shape.bindings, **(params or {})}

    def run(self):
        return self.compiled.execute(self.sources, self.params)

    def __iter__(self):
        return iter(self.run())


def column_query(builder, data, column, *args):
    """One figure column's query.

    An engine name builds through the provider as usual; a
    :data:`PINNED_HYBRIDS` label builds the ``hybrid`` query and compiles
    it with that policy's backend.
    """
    policy = PINNED_HYBRIDS.get(column)
    if policy is None:
        return builder(data, column, *args)
    query = builder(data, "hybrid", *args)
    return Pinned(
        query.provider, query.expr, query.sources, HybridBackend(**policy), query.params
    )
