#!/usr/bin/env python3
"""Run the benchmark as independent sets of runs and record their spread.

    python3 benchmarks/lifecycle/calibrate.py --sets 2 --runs 5 \
        --out benchmarks/lifecycle/calibration.json

Each run is one ``run.py --workload <w> --seed <s> --trace 0`` child
process, every run of a set with another seed, the sets alternating
workload by workload so drift hits both alike.  The file records every
value, and per set x workload x metric the median, the quartiles and the
quartile distance as a share of the median — the quantity the bounds in
``BENCHMARK.json`` are set from (``compare.py`` reads the same file).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List

import numpy

import compare

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def one_run(workload: str, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ] + (["--quick"] if quick else [])
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    final = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "workload": workload,
        "seed": seed,
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "wall_s": time.perf_counter() - started,
        "metrics": {name: m["value"] for name, m in final["metrics"].items()},
    }


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        )
        return done.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or (1.0 if args.quick else float(spec["run_seconds"]))
    sets: List[Dict[str, Any]] = [
        {"label": chr(ord("A") + i), "runs": []} for i in range(args.sets)
    ]
    for workload in (w["name"] for w in spec["workloads"]):
        for run_index in range(args.runs):
            for set_index, entry in enumerate(sets):
                seed = args.first_seed + set_index * args.runs + run_index
                run = one_run(workload, seed, seconds, args.quick)
                entry["runs"].append(run)
                print(
                    f"set {entry['label']} {workload} seed {seed}: "
                    f"{run['wall_s']:.1f}s correct={run['correct']}",
                    file=sys.stderr,
                )
    for entry in sets:
        entry["summary"] = {
            workload: {name: compare.summary(values) for name, values in metrics.items()}
            for workload, metrics in compare.by_workload(entry["runs"]).items()
        }
    document = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "run_seconds": seconds,
        "quick": args.quick,
        "sets": sets,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if all(run["correct"] for entry in sets for run in entry["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
