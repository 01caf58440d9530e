"""``cold_shapes`` — compile-pipeline-dominated: every op is the first
execution of a structurally new query, against one long-lived provider
whose 256-entry cache the shape stream overflows many times over."""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List

from repro.expressions.canonical import canonicalize
from repro.query import default_provider

import harness
import layers
from base import Stopwatch, Workload, cells_geomean, span_sum
from harness import LoopResult, Op, SpanTracer
from shapes import Shape, Tables, draw_shapes

#: shapes whose first execution warms imports and first-call paths
WARM_SHAPES = 6

#: the fixed prefix compiled once more for the exact counts
#: (``codegen.source_bytes.*``, ``analysis.guards_elided``)
COUNT_SHAPES = {False: 48, True: 6}

#: every n-th shape also pays for a verify-on/verify-off recompile
VERIFY_EVERY = {False: 8, True: 1}

#: shapes drawn per batch; a run draws as many batches as its seconds need
BATCH = 256


def _shape_stream(seed: int) -> Iterator[Shape]:
    """An endless stream of pairwise distinct shapes."""
    seen = set()
    for batch in itertools.count():
        for shape in draw_shapes(seed * 1000 + batch, BATCH):
            signature = shape.signature()
            if signature not in seen:
                seen.add(signature)
                yield shape


class ColdShapes(Workload):
    name = "cold_shapes"
    why = (
        "compile-pipeline-dominated: a seeded stream of structurally distinct shapes, "
        "each run once per engine; every op is a first execution and the set overflows "
        "the 256-entry cache"
    )

    def setup(self, seed: int, quick: bool) -> Any:
        clock = Stopwatch()
        with clock.running():
            tables = Tables(seed)
            provider = default_provider()
            sources = {e: tables.sources(e, provider) for e in layers.ENGINES}
        state = SimpleNamespace(
            tables=tables,
            provider=provider,
            sources=sources,
            quick=quick,
            seed=seed,
            stream=_shape_stream(seed),
            seen_keys=set(),
            round_index=0,
            replayed=0,
            op_list=[[seed, s.spec] for s in draw_shapes(seed * 1000, 32)],
        )
        warm_rounds = itertools.islice(self.rounds(state), WARM_SHAPES)
        state.warm = harness.run_rounds(warm_rounds, 0, min_rounds=WARM_SHAPES)
        state.setup_seconds = clock.seconds + state.warm.busy_seconds
        return state

    def rounds(self, state: Any) -> Iterator[List[Op]]:
        for shape in state.stream:
            yield self._round(state, shape)

    def _round(self, state: Any, shape: Shape) -> List[Op]:
        # rotate which engine goes first: it pays analyze + lower, the
        # other two find the shared analysis and IR
        shift = state.round_index % len(layers.ENGINES)
        state.round_index += 1
        engines = layers.ENGINES[shift:] + layers.ENGINES[:shift]
        key = canonicalize(shape.build(state.sources["compiled"]).expr).key
        fresh = key not in state.seen_keys
        state.seen_keys.add(key)
        expected = shape.reference(state.tables.plain)
        shared: Dict[str, Any] = {}

        def check(rows: Any) -> bool:
            return fresh and harness.rows_equal(
                harness.as_tuples(rows), expected, shape.ordered
            )

        return [self._op(state, shape, engine, check, shared) for engine in engines]

    def _op(self, state: Any, shape: Shape, engine: str, check: Any, shared: Dict[str, Any]) -> Op:
        sources = state.sources[engine]

        def staged(tracer: SpanTracer) -> None:
            if "verify" not in shared:  # first engine of a replayed shape
                state.replayed += 1
                shared["verify"] = state.replayed % VERIFY_EVERY[state.quick] == 0
            with tracer.span("expressions.trace"):
                query = shape.build(sources)
            compiled, shared["lowered"] = layers.compile_stages(
                tracer, query, shared.get("lowered")
            )
            layers.kernel(
                tracer,
                compiled,
                list(query.sources),
                {**shared["lowered"].canonical.bindings, **query.params},
            )
            if shared["verify"]:
                layers.verify_cost(tracer, compiled)

        return Op(
            cell=engine,
            run=lambda: shape.build(sources).to_list(),
            check=check,
            staged=staged,
        )

    # -- the ledger ------------------------------------------------------------------

    def owned(self, state: Any, tracer: SpanTracer, traced: LoopResult) -> Dict[str, float]:
        def us(name: str) -> float:
            return cells_geomean(tracer.medians(name), 1e6)

        out = {
            "expressions.analyze_us": us("expressions.analyze"),
            "plans.translate_optimize_us": us("plans.translate_optimize"),
            "plans.validate_us": us("plans.validate"),
            "codegen.lower_us": us("codegen.lower"),
            "analysis.dataflow_us": us("analysis.dataflow"),
            "codegen.verify_share": 1.0
            - us("codegen.compile_source.unverified")
            / us("codegen.compile_source.verified"),
        }
        generate = tracer.attr_medians("codegen.backend_compile", "generate_seconds")
        compile_source = tracer.attr_medians(
            "codegen.backend_compile", "compile_source_seconds"
        )
        for engine in layers.ENGINES:
            out[f"codegen.generate_us.{engine}"] = generate[engine] * 1e6
            out[f"codegen.compile_source_us.{engine}"] = compile_source[engine] * 1e6
        out.update(self._exact_counts(state))
        return out

    def _exact_counts(self, state: Any) -> Dict[str, float]:
        """Bytes emitted and guards elided over a fixed shape prefix.

        The prefix depends on the seed alone, never on how many shapes the
        timed loop reached, so the counts repeat exactly run to run.
        """
        scratch = SpanTracer()  # compile_stages wants one; its spans are unused
        out = {f"codegen.source_bytes.{engine}": 0 for engine in layers.ENGINES}
        elided = 0
        for shape in draw_shapes(state.seed * 1000, COUNT_SHAPES[state.quick]):
            lowered = None
            for engine in layers.ENGINES:
                compiled, lowered = layers.compile_stages(
                    scratch, shape.build(state.sources[engine]), lowered
                )
                out[f"codegen.source_bytes.{engine}"] += len(
                    compiled.source_code.encode("utf-8")
                )
            elided += lowered.facts.guards_elidable()
        out["analysis.guards_elided"] = elided
        return out

    def layer_seconds(self, totals: Dict[tuple, float]) -> Dict[str, float]:
        def total(*names: str) -> float:
            return sum(span_sum(totals, name) for name in names)

        layer = {
            "expressions": total(
                "expressions.trace", "expressions.canonicalize", "expressions.analyze"
            ),
            "plans": total("plans.translate_optimize", "plans.validate"),
            "codegen": total(
                "codegen.lower", "codegen.check_facts", "codegen.backend_compile"
            ),
            "analysis": total("analysis.dataflow"),
            "runtime": total("runtime.kernel"),
        }
        # what the provider spends beyond one pass over the pipeline: cache
        # keys, locks, eviction listeners and any stage it runs twice
        layer["query"] = total("op") - sum(layer.values())
        return layer
