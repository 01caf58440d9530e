#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload x metric.

    python3 benchmarks/lifecycle/compare.py PARENT.json CHANGE.json
    python3 benchmarks/lifecycle/compare.py calibration.json

A result set is what ``calibrate.py`` writes: ``{"runs": [{"workload",
"seed", "metrics": {name: value}}, ...]}``; a calibration file holds two
of them under ``"sets"`` and is compared against itself.  Runs are paired
in order (the i-th run of a workload on each side), so produce both sides
with the same seeds, alternating which side runs first.

Verdicts, per the choosing-metrics guide:

* ``regressed`` — the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes for the metric;
* ``improved`` — the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the parent's own quartiles;
* ``unresolved`` — neither, and the parent's quartile spread is wider
  than the bound, so "no regression" cannot be told from noise;
* ``unchanged`` — otherwise.

Exit status is 1 if any row regressed.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]

WIN_SHARE = 0.9


def load_sets(paths: List[str]) -> Tuple[List[dict], List[dict]]:
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    if len(documents) == 1:
        sets = documents[0]["sets"]
        return sets[0]["runs"], sets[1]["runs"]
    sides = []
    for document in documents:
        if "sets" in document:
            sides.append([run for s in document["sets"] for run in s["runs"]])
        else:
            sides.append(document["runs"])
    return sides[0], sides[1]


def by_workload(runs: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """workload → metric → values, in run order."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        metrics = table.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            metrics.setdefault(name, []).append(value)
    return table


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the median."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def verdict(
    parent: List[float], change: List[float], better: str, bound: float
) -> Tuple[str, float, float]:
    """(verdict, change/parent ratio of medians, share of pairs the change won)."""
    a, b = summary(parent), summary(change)
    ratio = b["median"] / a["median"]
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if better == "lower" else c > p))
    won = wins / len(pairs) if pairs else 0.0
    if worse_by > bound:
        return "regressed", ratio, won
    beyond_spread = abs(b["median"] - a["median"]) > (a["q3"] - a["q1"])
    if worse_by < 0 and won >= WIN_SHARE and beyond_spread:
        return "improved", ratio, won
    if a["spread"] > bound:
        return "unresolved", ratio, won
    return "unchanged", ratio, won


def compare(parent_runs: List[dict], change_runs: List[dict], spec: Dict[str, Any]) -> List[dict]:
    parent, change = by_workload(parent_runs), by_workload(change_runs)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in parent.get(workload, {}) or name not in change.get(workload, {}):
                continue
            a, b = parent[workload][name], change[workload][name]
            outcome, ratio, won = verdict(a, b, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "better": metric["better"],
                    "bound": metric["bound"],
                    "parent": summary(a),
                    "change": summary(b),
                    "ratio": ratio,
                    "pairs_won": won,
                    "verdict": outcome,
                }
            )
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':15s} {'metric':22s} {'parent median [q1, q3]':>36s} "
        f"{'change median [q1, q3]':>36s} {'change/parent':>13s} {'won':>5s}  verdict"
    ]
    for row in rows:
        sides = []
        for side in (row["parent"], row["change"]):
            sides.append(
                f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}] n={side['n']}"
            )
        lines.append(
            f"{row['workload']:15s} {row['metric'] + ' (' + row['unit'] + ')':22s} "
            f"{sides[0]:>36s} {sides[1]:>36s} "
            f"{row['ratio']:>8.3f} of 1 {row['pairs_won']:>5.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parent_runs, change_runs = load_sets(argv)
    rows = compare(parent_runs, change_runs, spec)
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
