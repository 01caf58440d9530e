"""``tiers_2way`` — the three execution tiers (sequential, two threads,
two worker processes) over the same native scans."""

from __future__ import annotations

import pickle
from types import SimpleNamespace
from typing import Any, Callable, Dict, List

from repro.distributed import shutdown_pools, wire
from repro.observability.metrics import METRICS
from repro.query import QueryProvider
from repro.tpch import TPCHData

import harness
import layers
import tpch_cells
from base import Stopwatch, Workload, span_sum
from harness import LoopResult, Op, SpanTracer

QUERIES = ("q1", "agg_full", "agg_sel", "join")
RELATIONS = ("lineitem", "orders", "customer")
WORKERS = 2

TIERS: Dict[str, Callable[[Any], Any]] = {
    "seq": lambda query: query,
    "thr2": lambda query: query.in_parallel(WORKERS),
    "dist2": lambda query: query.distributed(WORKERS),
}

_DIST_COUNTERS = (
    "tables_shipped",
    "table_hits",
    "artifacts_broadcast",
    "worker_losses",
)


def _counter(name: str) -> int:
    return METRICS.counter(name).value


class Tiers2Way(Workload):
    name = "tiers_2way"
    why = (
        "the three execution tiers on the same native scans: sequential, 2 threads, "
        "2 worker processes; morsel dispatch, sharding, wire and merge costs show"
    )

    #: TPC-H scale factors (0.05 is ~300 k lineitem rows: five morsels)
    SCALE = {False: 0.05, True: 0.005}

    def setup(self, seed: int, quick: bool) -> Any:
        clock = Stopwatch()
        with clock.running():
            data = TPCHData(scale=self.SCALE[quick], seed=seed)
            for relation in RELATIONS:
                data.arrays(relation)
            provider = QueryProvider()
        key = (seed, quick)
        if key not in self._oracles:
            self._oracles[key] = {
                q: tpch_cells.checker(data, q, decoded=False) for q in QUERIES
            }
        state = SimpleNamespace(
            data=data,
            provider=provider,
            checks=self._oracles[key],
            quick=quick,
            morsels_before=_counter("parallel.morsels_dispatched"),
            op_list=[
                [seed, self.SCALE[quick]]
                + [data.row_count(relation) for relation in RELATIONS]
            ],
        )
        # the first distributed query spawns the pool, broadcasts the
        # artifact and ships the table shards: all of it set-up
        first = [self._op(state, "q1", "dist2", full=True)]
        state.warm = harness.run_rounds(
            [first, self._round(state, full=True)], 0, min_rounds=2
        )
        state.cold_start_seconds = (state.warm.samples["q1.dist2"] or [0.0])[0]
        state.setup_seconds = clock.seconds + state.warm.busy_seconds
        return state

    def teardown(self, state: Any) -> None:
        shutdown_pools()

    def finish(self, state: Any) -> List[str]:
        losses = _counter("dist.worker_losses")
        if losses:
            return [f"tiers_2way: {losses} worker process(es) were lost"]
        return []

    def _round(self, state: Any, full: bool = False) -> List[Op]:
        return [
            self._op(state, query, tier, full) for query in QUERIES for tier in TIERS
        ]

    def _op(self, state: Any, query: str, tier: str, full: bool) -> Op:
        data, provider = state.data, state.provider
        check = state.checks[query]
        via = TIERS[tier]

        def staged(tracer: SpanTracer) -> None:
            with tracer.span("expressions.trace"):
                built = tpch_cells.build(data, query, "native", provider)
            if tier == "seq":
                layers.warm_path(tracer, provider, built)

        return Op(
            cell=f"{query}.{tier}",
            run=lambda: via(tpch_cells.build(data, query, "native", provider)).to_list(),
            check=lambda rows: check(rows, full=full),
            staged=staged,
        )

    # -- the ledger ------------------------------------------------------------------

    def owned(self, state: Any, tracer: SpanTracer, traced: LoopResult) -> Dict[str, float]:
        ops = tracer.medians("op")
        out: Dict[str, float] = {}
        for query in QUERIES:
            out[f"runtime.parallel.thr2_speedup.{query}"] = (
                ops[f"{query}.seq"] / ops[f"{query}.thr2"]
            )
            out[f"distributed.dist2_speedup.{query}"] = (
                ops[f"{query}.seq"] / ops[f"{query}.dist2"]
            )
        out["runtime.parallel.morsels_dispatched"] = (
            _counter("parallel.morsels_dispatched") - state.morsels_before
        )
        out["distributed.cold_start_ms"] = state.cold_start_seconds * 1e3
        for name in _DIST_COUNTERS:
            out[f"distributed.{name}"] = _counter(f"dist.{name}")
        # one gathered partial through the process-boundary encoding
        rows = tpch_cells.build(state.data, "join", "native", state.provider).to_list()
        with tracer.span("distributed.wire_roundtrip") as span:
            blob = pickle.dumps([wire.encode_value(row) for row in rows])
            [wire.decode_value(value) for value in pickle.loads(blob)]
        out["distributed.wire_roundtrip_ms"] = span.duration * 1e3
        return out

    def layer_seconds(self, totals: Dict[tuple, float]) -> Dict[str, float]:
        cells = {tier: {f"{q}.{tier}" for q in QUERIES} for tier in TIERS}
        trace = span_sum(totals, "expressions.trace")
        canonicalize = span_sum(totals, "expressions.canonicalize")
        lookup = span_sum(totals, "query.compile_info")
        kernel = span_sum(totals, "runtime.kernel")

        def beyond_trace(tier: str) -> float:
            return span_sum(totals, "op", cells[tier]) - span_sum(
                totals, "expressions.trace", cells[tier]
            )

        return {
            "expressions": trace + canonicalize,
            "query": lookup - canonicalize,
            # a threaded op past its tracing is morsel dispatch + merge
            "runtime": kernel + beyond_trace("thr2"),
            # a distributed op past its tracing is scatter, wire, gather
            "distributed": beyond_trace("dist2"),
            "residual": beyond_trace("seq") - lookup - kernel,
        }

