"""Smoke tests: every shipped example runs to completion."""

import pathlib
import runpy
import sys

from repro.query import ENGINES

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    saved_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "compiled engine agrees" in out
        assert "native engine" in out

    def test_sales_analytics(self, capsys):
        run_example("sales_analytics.py")
        out = capsys.readouterr().out
        assert "query cache" in out
        assert "hit rate" in out

    def test_tpch_demo_tiny(self, capsys):
        run_example("tpch_demo.py", argv=["0.002"])
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        # every engine after the linq reference agrees, on each of 3 queries
        assert out.count("agrees ✓") == 3 * (len(ENGINES) - 1)

    def test_engine_tour(self, capsys):
        run_example("engine_tour.py")
        out = capsys.readouterr().out
        assert "optimized logical plan" in out
        assert "def execute" in out  # generated sources printed

    def test_physical_tuning(self, capsys):
        run_example("physical_tuning.py")
        out = capsys.readouterr().out
        assert "index lookup" in out
        assert "recycled" in out

    def test_serving(self, capsys):
        run_example("serving.py")
        out = capsys.readouterr().out
        assert "ad-hoc: 20 executions" in out
        assert "compiled once: True" in out
        assert "admission:" in out
        assert "prepared must agree" not in out
