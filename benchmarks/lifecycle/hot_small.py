"""``hot_small`` — fixed-overhead-dominated ops whose working set fits
every cache: four shapes, two engines, three ways through the layers."""

from __future__ import annotations

import statistics
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Tuple

from repro.adaptive import AdaptiveChooser, AdaptiveController, ProfileStore
from repro.expressions.canonical import canonicalize
from repro.observability.tracer import TRACER
from repro.query import QueryProvider
from repro.service import QueryService

import harness
import layers
from base import Stopwatch, Workload, cells_geomean, span_sum
from harness import LoopResult, Op, SpanTracer
from shapes import HOT_SHAPES, Tables, hot_literals

ENGINES = ("compiled", "native")
PATHS = ("rebuild", "reuse", "prepared")

#: ops per cell in each on/off probe of the traced run
PROBE_OPS = {False: 150, True: 10}


def _mean_gap(on: Dict[str, float], off: Dict[str, float]) -> float:
    return statistics.mean(on[c] - off[c] for c in on)


class HotSmall(Workload):
    name = "hot_small"
    why = (
        "fixed-overhead-dominated: 256-row tables, 4 shapes x 2 engines x 3 paths fit "
        "every cache; provider, cache, expressions and service layers do most of the work"
    )

    def setup(self, seed: int, quick: bool) -> Any:
        clock = Stopwatch()
        with clock.running():
            tables = Tables(seed)
            provider = QueryProvider()
            session = QueryService(provider=provider).session()
            plans = {}
            for shape in HOT_SHAPES:
                for engine in ENGINES:
                    sources = tables.sources(engine, provider)
                    base = shape.build(sources)
                    plans[(shape.family, engine)] = SimpleNamespace(
                        shape=shape,
                        sources=sources,
                        base=base,
                        prepared=session.prepare(base.with_params(c=0.0)),
                        compiled=provider.compile_info(
                            base.expr, list(base.sources), engine
                        ),
                        bindings=canonicalize(base.expr).bindings,
                    )
        state = SimpleNamespace(
            tables=tables,
            provider=provider,
            session=session,
            plans=plans,
            quick=quick,
            literal=hot_literals(seed),
            expected={},
            op_list=[[seed, shape.spec] for shape in HOT_SHAPES],
        )
        state.warm = harness.run_rounds([self._round(state)], 0, min_rounds=1)
        state.setup_seconds = clock.seconds + state.warm.busy_seconds
        return state

    def _checker(self, state: Any, shape: Any, literal: float) -> Callable[[Any], bool]:
        key = (shape.family, literal)
        if key not in state.expected:
            state.expected[key] = shape.reference(state.tables.plain, literal)
        expected = state.expected[key]
        return lambda rows: harness.rows_equal(
            harness.as_tuples(rows), expected, shape.ordered
        )

    def _round(self, state: Any) -> List[Op]:
        ops = []
        for (_, engine), plan in state.plans.items():
            for path in PATHS:
                ops.append(self._op(state, plan, engine, path, state.literal()))
        return ops

    def _op(self, state: Any, plan: Any, engine: str, path: str, literal: float) -> Op:
        provider, shape = state.provider, plan.shape
        if path == "rebuild":
            # trace the lambdas into a fresh Query each op, as LINQ does

            def run() -> Any:
                return shape.build(plan.sources, literal=literal).to_list()

            def staged(tracer: SpanTracer) -> None:
                with tracer.span("expressions.trace"):
                    built = shape.build(plan.sources, literal=literal)
                layers.warm_path(tracer, provider, built)

        elif path == "reuse":

            def run() -> Any:
                return plan.base.with_params(c=literal).to_list()

            def staged(tracer: SpanTracer) -> None:
                layers.warm_path(tracer, provider, plan.base.with_params(c=literal))

        else:

            def run() -> Any:
                return plan.prepared.bind(c=literal).to_list()

            def staged(tracer: SpanTracer) -> None:
                layers.kernel(
                    tracer,
                    plan.compiled,
                    list(plan.base.sources),
                    {**plan.bindings, "c": literal},
                )

        return Op(
            cell=f"{shape.family}.{engine}.{path}",
            run=run,
            check=self._checker(state, shape, literal),
            staged=staged,
        )

    # -- the ledger ------------------------------------------------------------------

    def owned(self, state: Any, tracer: SpanTracer, traced: LoopResult) -> Dict[str, float]:
        ops = tracer.medians("op")
        trace = tracer.medians("expressions.trace")
        lookup = tracer.medians("query.compile_info")
        kernel = tracer.medians("runtime.kernel")
        adhoc = [c for c in ops if not c.endswith(".prepared")]
        prepared = [c for c in ops if c.endswith(".prepared")]
        out = {
            "expressions.trace_us": cells_geomean(trace, 1e6),
            "expressions.canonicalize_us": cells_geomean(
                tracer.medians("expressions.canonicalize"), 1e6
            ),
            "query.cache.hit_us": cells_geomean(lookup, 1e6),
            # what the provider spends around its own staged calls: pinning
            # sources, option parsing, the parallel/distributed plan checks
            "query.provider.glue_us": statistics.mean(
                ops[c] - trace.get(c, 0.0) - lookup[c] - kernel[c] for c in adhoc
            )
            * 1e6,
            "service.prepared_us": statistics.mean(ops[c] - kernel[c] for c in prepared)
            * 1e6,
        }
        count = PROBE_OPS[state.quick]
        on, off = self._probe(
            state, tracer, "service.session_execute", state.session.execute, count
        )
        out["service.admission_us"] = _mean_gap(on, off) * 1e6
        store = ProfileStore(None)
        controller = AdaptiveController(
            store=store, chooser=AdaptiveChooser(store, epsilon=0.0)
        )
        on, off = self._probe(
            state,
            tracer,
            "adaptive.on",
            lambda q: q.using(q.engine, adaptive=controller).to_list(),
            count,
        )
        out["adaptive.decide_overhead_us"] = _mean_gap(on, off) * 1e6

        def under_program_tracer(query: Any) -> Any:
            with TRACER.scope(True):
                return query.to_list()

        on, off = self._probe(
            state, tracer, "observability.tracer_on", under_program_tracer, count
        )
        TRACER.reset()
        out["observability.tracer_enabled_share"] = (
            harness.geomean(on[c] / off[c] for c in on) - 1.0
        )
        return out

    def _probe(
        self,
        state: Any,
        tracer: SpanTracer,
        name: str,
        variant: Callable[[Any], Any],
        count: int,
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per (shape, engine): median seconds of *variant* and of the bare
        ``to_list`` on the same ``reuse`` queries.

        The two alternate op by op so drift hits both alike.
        """
        bare = name + ".bare"
        for (family, engine), plan in state.plans.items():
            cell = f"{family}.{engine}"
            for _ in range(count):
                query = plan.base.with_params(c=state.literal())
                with tracer.span(name, cell=cell):
                    variant(query)
                with tracer.span(bare, cell=cell):
                    query.to_list()
        return tracer.medians(name), tracer.medians(bare)

    def layer_seconds(self, totals: Dict[tuple, float]) -> Dict[str, float]:
        prepared = {c for c, _ in totals if c.endswith(".prepared")}
        adhoc = {c for c, _ in totals if c.endswith((".rebuild", ".reuse"))}
        trace = span_sum(totals, "expressions.trace")
        canonicalize = span_sum(totals, "expressions.canonicalize")
        lookup = span_sum(totals, "query.compile_info")
        kernel = span_sum(totals, "runtime.kernel")
        adhoc_ops = span_sum(totals, "op", adhoc)
        adhoc_kernel = span_sum(totals, "runtime.kernel", adhoc)
        return {
            "expressions": trace + canonicalize,
            # lookup minus its own canonicalize, plus the provider's glue
            "query": (lookup - canonicalize)
            + (adhoc_ops - trace - lookup - adhoc_kernel),
            "runtime": kernel,
            # a prepared op is its kernel plus admission, deadline
            # executor and bind: all of it the service layer's
            "service": span_sum(totals, "op", prepared)
            - span_sum(totals, "runtime.kernel", prepared),
        }
