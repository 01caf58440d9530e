"""``warm_scan`` — execute-dominated TPC-H cells over warm compiled code."""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Any, Dict, List

from repro.query import QueryProvider
from repro.storage import StructArray
from repro.tpch import TPCH_SCHEMAS, TPCHData

import harness
import layers
import tpch_cells
from base import Stopwatch, Workload, span_sum
from harness import LoopResult, Op, SpanTracer

QUERIES = ("q1", "q3", "q4", "agg", "join", "sort")
RELATIONS = ("lineitem", "orders", "customer")

#: a later change may not push unattributed op time past this share
RESIDUAL_LIMIT = 0.05


class WarmScan(Workload):
    name = "warm_scan"
    why = (
        "execute-dominated: 18 TPC-H cells (6 queries x 3 engines) over warm compiled "
        "code; backend, runtime and materialisation work shows, cache and provider "
        "work must not"
    )

    #: TPC-H scale factors (0.01 is ~60 k lineitem rows, cells 2-60 ms)
    SCALE = {False: 0.01, True: 0.002}

    def setup(self, seed: int, quick: bool) -> Any:
        clock = Stopwatch()
        with clock.running():
            started = time.perf_counter()
            data = TPCHData(scale=self.SCALE[quick], seed=seed)
            for relation in RELATIONS:
                data.arrays(relation)
            datagen_seconds = time.perf_counter() - started
            for relation in RELATIONS:
                data.objects(relation)
            provider = QueryProvider()
        key = (seed, quick)
        if key not in self._oracles:
            self._oracles[key] = {
                q: tpch_cells.checker(data, q, decoded=True) for q in QUERIES
            }
        state = SimpleNamespace(
            data=data,
            provider=provider,
            checks=self._oracles[key],
            quick=quick,
            datagen_seconds=datagen_seconds,
            op_list=[
                [seed, self.SCALE[quick]]
                + [data.row_count(relation) for relation in RELATIONS]
            ],
        )
        state.warm = harness.run_rounds([self._round(state, full=True)], 0, min_rounds=1)
        state.setup_seconds = clock.seconds + state.warm.busy_seconds
        return state

    def _round(self, state: Any, full: bool = False) -> List[Op]:
        ops = []
        for query in QUERIES:
            for engine in layers.ENGINES:
                ops.append(self._op(state, query, engine, full))
        return ops

    def _op(self, state: Any, query: str, engine: str, full: bool) -> Op:
        data, provider = state.data, state.provider
        check = state.checks[query]

        def staged(tracer: SpanTracer) -> None:
            with tracer.span("expressions.trace"):
                built = tpch_cells.build(data, query, engine, provider)
            layers.warm_path(tracer, provider, built)

        return Op(
            cell=f"{query}.{engine}",
            run=lambda: tpch_cells.build(data, query, engine, provider).to_list(),
            check=lambda rows: check(rows, full=full),
            staged=staged,
        )

    # -- the ledger ------------------------------------------------------------------

    def owned(self, state: Any, tracer: SpanTracer, traced: LoopResult) -> Dict[str, float]:
        data = state.data
        kernel = tracer.medians("runtime.kernel")
        ops = tracer.medians("op")
        out: Dict[str, float] = {}
        for cell, seconds in kernel.items():
            out[f"runtime.kernel_ms.{cell}"] = seconds * 1e3
        for engine in layers.ENGINES:
            out[f"runtime.rows_per_s.{engine}"] = sum(
                tpch_cells.input_rows(data, q) for q in QUERIES
            ) / sum(kernel[f"{q}.{engine}"] for q in QUERIES)
        # the interpreted baseline, once each: the paper's headline ratio
        for query in QUERIES:
            with tracer.span("query.enumerable.linq", cell=query) as span:
                rows = tpch_cells.build(data, query, "linq", state.provider).to_list()
            if not state.checks[query](rows):
                raise RuntimeError(f"linq baseline of {query} differs from reference")
            out[f"query.enumerable.linq_ms.{query}"] = span.duration * 1e3
        for engine in layers.ENGINES:
            out[f"query.enumerable.speedup_geomean.{engine}"] = harness.geomean(
                out[f"query.enumerable.linq_ms.{q}"] / (ops[f"{q}.{engine}"] * 1e3)
                for q in QUERIES
            )
        # op time no staged call explains, on per-cell medians (a slow
        # phase of the sandbox moves totals, hardly medians)
        trace = tracer.medians("expressions.trace")
        lookup = tracer.medians("query.compile_info")
        out["query.provider.residual_share"] = sum(
            ops[c] - trace[c] - lookup[c] - kernel[c] for c in kernel
        ) / sum(ops[c] for c in kernel)
        out["tpch.datagen_s"] = state.datagen_seconds
        sample = data.objects("lineitem")[:20_000]
        with tracer.span("storage.from_objects") as span:
            StructArray.from_objects(TPCH_SCHEMAS["lineitem"], sample)
        out["storage.from_objects_rows_per_s"] = len(sample) / span.duration
        return out

    def audit(self, owned: Dict[str, float]) -> List[str]:
        share = owned["query.provider.residual_share"]
        if share > RESIDUAL_LIMIT:
            return [
                f"query.provider.residual_share {share:.3f} exceeds {RESIDUAL_LIMIT}: "
                "a layer we cannot name is a layer we cannot fix"
            ]
        return []

    def layer_seconds(self, totals: Dict[tuple, float]) -> Dict[str, float]:
        trace = span_sum(totals, "expressions.trace")
        canonicalize = span_sum(totals, "expressions.canonicalize")
        lookup = span_sum(totals, "query.compile_info")
        kernel = span_sum(totals, "runtime.kernel")
        return {
            "expressions": trace + canonicalize,
            # compile_info canonicalizes again; the rest of it is the
            # provider's key building, facts lookup, lock and cache find
            "query": lookup - canonicalize,
            "runtime": kernel,
            "residual": span_sum(totals, "op") - trace - lookup - kernel,
        }
