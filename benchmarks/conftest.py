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
