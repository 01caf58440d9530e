#!/usr/bin/env python3
"""The lifecycle benchmark's one command.

    python3 benchmarks/lifecycle/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

generates the workload's inputs from the seed, checks every result against
a plain-Python reference, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name → value and unit).  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, measured with tracing off; ``--trace 1`` reports its
per-layer metrics, measured by a second pass under the harness's own spans.

``--all`` runs every workload both ways (one child process each) and
prints one combined document; ``--check-only`` runs one checked op per
cell and exits non-zero on any mismatch; ``--quick`` shrinks every scale.

This must stay a real file with a ``__main__`` guard: the distributed
tier spawns workers that re-import the main module.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: seconds of ledger pass for the workloads a traced run does not own
GUEST_SECONDS = 0.6


def _bootstrap() -> None:
    """Make ``repro`` and the harness importable here and in spawned workers."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {SRC / 'repro'} is missing")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else [])
    )


def workloads() -> Dict[str, Any]:
    from cold_shapes import ColdShapes
    from hot_small import HotSmall
    from ingest_requery import IngestRequery
    from tiers_2way import Tiers2Way
    from warm_scan import WarmScan

    return {
        w.name: w
        for w in (WarmScan(), HotSmall(), ColdShapes(), IngestRequery(), Tiers2Way())
    }


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _with_units(values: Dict[str, float], declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Exactly the declared metrics, each with its declared unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"harness did not measure: {', '.join(missing)}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }


def run_untraced(name: str, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    import base

    return base.untraced_run(workloads()[name], seed, seconds, quick)


def ledger_passes(plan: Dict[str, tuple], seed: int) -> Dict[str, Dict[str, Any]]:
    """One ledger pass per workload of *plan* (name → (seconds, quick))."""
    import base

    registry = workloads()
    return {
        name: base.ledger_pass(registry[name], seed, seconds, quick)
        for name, (seconds, quick) in plan.items()
    }


def traced_result(name: str, passes: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Workload *name*'s traced result: every pass's owned metrics, plus
    the workload-wide ones (cache counts, layer shares, tail) of its own."""
    own = passes[name]
    values: Dict[str, float] = {}
    for passed in passes.values():
        values.update(passed["owned"])
    values.update(own["common"])
    return {
        "attempted": sum(p["attempted"] for p in passes.values()),
        "failed": sum(p["failed"] for p in passes.values()),
        "failures": [m for p in passes.values() for m in p["failures"]],
        "spans": len(own["tracer"].spans),
        "values": values,
    }


def run_traced(name: str, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """The owner's ledger at its real scale first; then every other
    workload's at the quick scale, so each traced run reports the whole
    ledger (read a metric on the row of the workload that owns it)."""
    plan = {name: (seconds, quick)}
    plan.update(
        {other: (GUEST_SECONDS, True) for other in workloads() if other != name}
    )
    passes = ledger_passes(plan, seed)
    passes[name]["tracer"].write(str(HERE / "out" / "trace.jsonl"))
    return traced_result(name, passes)


def _emit(result: Dict[str, Any], declared: List[Dict[str, Any]], scrubbed: Dict[str, str]) -> None:
    details = {k: v for k, v in result.items() if k not in ("values",)}
    details["scrubbed_environment"] = scrubbed
    details["undeclared"] = sorted(
        set(result["values"]) - {m["name"] for m in declared}
    )
    print(json.dumps({"details": details}))
    for message in result["failures"]:
        print(f"run.py: {message}", file=sys.stderr)
    print(json.dumps(_result_line(result, declared)))


def _result_line(result: Dict[str, Any], declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _with_units(result["values"], declared),
    }


def run_all(names: List[str], seed: int, seconds: float, quick: bool, spec: Dict[str, Any]) -> int:
    """Every workload, untraced then traced.

    At full scale each run is its own child process, as the driver runs
    them: peak memory and the process-wide caches must not leak from one
    workload into the next.  ``--quick`` is a smoke test where ten
    interpreter start-ups would be most of the time, so it stays in this
    process and computes each workload's ledger pass once.
    """
    document: Dict[str, Any] = {}
    status = 0
    if quick:
        passes = ledger_passes({name: (seconds, True) for name in names}, seed)
        for name in names:
            untraced = run_untraced(name, seed, seconds, True)
            traced = traced_result(name, passes)
            document[name] = {
                "end_to_end": _result_line(untraced, spec["end_to_end"]),
                "per_layer": _result_line(traced, spec["per_layer"]),
                "op_list_hash": untraced["op_list_hash"],
                "failures": untraced["failures"] + traced["failures"],
            }
    else:
        for name in names:
            document[name] = {}
            for trace, label in ((0, "end_to_end"), (1, "per_layer")):
                command = [
                    sys.executable,
                    str(HERE / "run.py"),
                    "--workload", name,
                    "--seed", str(seed),
                    "--seconds", str(seconds),
                    "--trace", str(trace),
                ]
                done = subprocess.run(command, capture_output=True, text=True, check=False)
                sys.stderr.write(done.stderr)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or len(lines) < 2:
                    print(f"run.py: {name} --trace {trace} failed", file=sys.stderr)
                    status = 1
                    continue
                document[name][label] = json.loads(lines[-1])
                document[name][label + "_details"] = json.loads(lines[-2])["details"]
    for name, entry in document.items():
        for label in ("end_to_end", "per_layer"):
            if not entry.get(label, {}).get("correct", False):
                status = 1
    print(json.dumps(document, indent=1, sort_keys=True))
    return status


def check_only(names: List[str], seed: int, quick: bool) -> int:
    """One fully checked op per cell; non-zero on any mismatch."""
    registry = workloads()
    status = 0
    for name in names:
        workload = registry[name]
        state = workload.setup(seed, quick)
        try:
            failures = state.warm.failures + workload.finish(state)
        finally:
            workload.teardown(state)
        verdict = "ok" if not failures else "MISMATCH"
        print(f"{name}: {state.warm.attempted} ops checked: {verdict}")
        for message in failures:
            print(f"  {message}")
            status = 1
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--check-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    _bootstrap()
    import harness

    # a driver's time-out arrives as SIGTERM: leave through ``finally`` too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _dispatch(parser, args)
    finally:
        harness.stop_processes()


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    import harness

    scrubbed = harness.scrub_environment()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(spec["run_seconds"])
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.check_only:
        return check_only([args.workload] if args.workload else names, args.seed, args.quick)
    if args.all:
        return run_all(names, args.seed, seconds, args.quick, spec)
    if args.workload is None:
        parser.error("give --workload <name>, --all or --check-only")
    if args.trace:
        result = run_traced(args.workload, args.seed, seconds, args.quick)
        _emit(result, spec["per_layer"], scrubbed)
    else:
        result = run_untraced(args.workload, args.seed, seconds, args.quick)
        _emit(result, spec["end_to_end"], scrubbed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
