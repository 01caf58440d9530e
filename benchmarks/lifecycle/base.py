"""What every workload shares: its interface and the two kinds of run.

An *untraced run* sets the workload up (several times, for a steady
``setup_s``), drives the closed loop with tracing off and reports the
end-to-end metrics.  A *ledger pass* drives the same loop under the
harness's spans, rotating plain rounds, rounds inside ``op`` spans and
rounds that replay each op stage by stage, and reports the per-layer
metrics that workload owns.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

import harness
from harness import LoopResult, Op, SpanTracer

#: set-ups per untraced run, whose median is ``setup_s``: at least MIN,
#: and cheap ones repeat (up to MAX) until they add up to SETUP_SECONDS,
#: so a 40 ms set-up is judged on fifteen samples, not three
SETUP_REPEATS_MIN = 3
SETUP_REPEATS_MAX = 15
SETUP_SECONDS = 1.5

#: host probes before and after each set-up
SETUP_PROBES = 5


class Stopwatch:
    """Accumulates the program's share of set-up (oracles are ours)."""

    def __init__(self) -> None:
        self.seconds = 0.0

    @contextmanager
    def running(self) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - started


class Workload:
    """One closed-loop workload: one client, one process."""

    name = ""
    why = ""

    def __init__(self) -> None:
        #: oracles depend on (seed, scale) only, so repeated set-ups of
        #: one run share them
        self._oracles: Dict[Tuple[int, bool], Any] = {}

    # -- what a workload provides -------------------------------------------------

    def setup(self, seed: int, quick: bool) -> Any:
        """Generate inputs, build sources, start pools, warm up.

        Returns a state object with at least ``setup_seconds`` (program
        work only), ``warm`` (the warm-up's :class:`LoopResult`, every
        cell fully checked), ``provider`` and ``op_list`` (a JSON-able
        description of the generated inputs, for the determinism hash).
        """
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Stop whatever ``setup`` started."""

    def rounds(self, state: Any) -> Iterator[List[Op]]:
        """The op stream, one interleaved round of cells at a time."""
        while True:
            yield self._round(state)

    def _round(self, state: Any) -> List[Op]:
        """One op per cell (the next literals, batch or shape)."""
        raise NotImplementedError

    def finish(self, state: Any) -> List[str]:
        """Checks that need the whole run; returns failure messages."""
        return []

    def audit(self, owned: Dict[str, float]) -> List[str]:
        """Limits on this workload's own ledger at full scale."""
        return []

    def owned(self, state: Any, tracer: SpanTracer, traced: LoopResult) -> Dict[str, float]:
        """The per-layer metrics this workload is the owner of."""
        raise NotImplementedError

    def layer_seconds(self, totals: Dict[tuple, float]) -> Dict[str, float]:
        """layer → seconds of the traced ops attributed to it, worked out
        from *totals* (``SpanTracer.totals()``).

        Besides the names in ``harness.LAYERS`` the mapping holds
        ``residual``: op time no staged call accounts for.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def untraced_run(workload: Workload, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """Set up, time the closed loop with tracing off, report end to end."""
    setups: List[float] = []
    state = None
    while not setups or (
        not quick
        and len(setups) < SETUP_REPEATS_MAX
        and (len(setups) < SETUP_REPEATS_MIN or sum(setups) < SETUP_SECONDS)
    ):
        if state is not None:
            workload.teardown(state)
            state = None
        before = harness.host_factor(SETUP_PROBES)
        state = workload.setup(seed, quick)
        # at the nominal host speed, as every time end to end is
        factor = (before + harness.host_factor(SETUP_PROBES)) / 2.0
        setups.append(state.setup_seconds / factor)
    try:
        harness.settle()
        loop = harness.run_rounds(workload.rounds(state), seconds)
        values = harness.end_to_end(loop)
        values["setup_s"] = statistics.median(setups)
        # before finish(): its from-scratch oracles are the harness's memory
        values["peak_rss_mb"] = harness.peak_rss_mb()
        finish = workload.finish(state)
    finally:
        harness.unsettle()
        workload.teardown(state)
    return {
        "attempted": state.warm.attempted + loop.attempted + len(finish),
        "failed": state.warm.failed + loop.failed + len(finish),
        "failures": state.warm.failures + loop.failures + finish,
        "values": values,
        "samples": {cell: len(v) for cell, v in loop.samples.items()},
        "rounds": loop.rounds,
        "host_factor": _host_factor(loop),
        "op_list_hash": harness.digest(state.op_list),
    }


def ledger_pass(
    workload: Workload, seed: int, seconds: float, quick: bool
) -> Dict[str, Any]:
    """One traced pass: (owned metrics, workload-wide metrics, spans)."""
    state = workload.setup(seed, quick)
    try:
        harness.settle()
        cache = state.provider.cache.stats
        before = (cache.hits, cache.misses, cache.evictions)
        tracer = SpanTracer()
        loop = harness.run_rounds(workload.rounds(state), seconds, tracer, min_rounds=3)
        hits, misses, evictions = (
            now - then
            for now, then in zip((cache.hits, cache.misses, cache.evictions), before)
        )
        # every staged compile_info is one more lookup that hit: not the ops'
        hits -= sum(1 for span in tracer.spans if span.name == "query.compile_info")
        owned = workload.owned(state, tracer, loop)
        totals = tracer.totals()
        layer_seconds = workload.layer_seconds(totals)
        finish = workload.finish(state)
        if not quick:
            finish = finish + workload.audit(owned)
    finally:
        harness.unsettle()
        workload.teardown(state)
    both = LoopResult()
    for samples in (loop.samples, loop.plain_samples):
        for cell, values in samples.items():
            both.samples[cell].extend(values)
    common = {
        "query.cache.hits": hits,
        "query.cache.misses": misses,
        "query.cache.evictions": evictions,
        "query.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        # how much slower the same cells ran inside the harness's spans
        "observability.harness_trace_share": harness.geomean(
            statistics.median(loop.samples[cell]) / statistics.median(plain)
            for cell, plain in loop.plain_samples.items()
        )
        - 1.0,
        "tail.cell_p95_ms_geomean": harness.tail_ms(both),
        # the ledger's times are as measured: divide by this to compare runs
        "harness.host_factor": _host_factor(loop)["median"],
    }
    common.update(harness.shares(layer_seconds, span_sum(totals, "op")))
    return {
        "owned": owned,
        "common": common,
        "tracer": tracer,
        "attempted": state.warm.attempted + loop.attempted + len(finish),
        "failed": state.warm.failed + loop.failed + len(finish),
        "failures": state.warm.failures + loop.failures + finish,
    }


# ---------------------------------------------------------------------------
# Helpers for the workloads' ledger arithmetic
# ---------------------------------------------------------------------------


def _host_factor(loop: LoopResult) -> Dict[str, float]:
    """What the host probes of *loop* saw (1.0 is the host left alone)."""
    factors = [factor for _, factor in loop.probes]
    return {
        "median": statistics.median(factors),
        "min": min(factors),
        "max": max(factors),
        "probes": len(factors),
    }


def cells_geomean(by_cell: Dict[str, float], scale: float = 1.0) -> float:
    """Geometric mean over cells of a per-cell median, times *scale*."""
    return harness.geomean(by_cell.values()) * scale


def span_sum(totals: Dict[tuple, float], name: str, cells: Any = None) -> float:
    """Summed duration of spans called *name* (optionally some cells only)."""
    return sum(
        seconds
        for (cell, span_name), seconds in totals.items()
        if span_name == name and (cells is None or cell in cells)
    )
