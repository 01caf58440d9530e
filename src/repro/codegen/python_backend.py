"""§4 — generating pure host-language (Python) code.

One generated function evaluates the whole query.  The per-operator
enumerable pipeline of the baseline is replaced by *fused loops*: the
backend lowers the shared pipeline IR (:mod:`repro.codegen.ir`) and emits
exactly one ``for`` loop per :class:`~repro.codegen.ir.Pipeline` — the
paper's loop-segmentation rule ("each loop either produces the final
result of a query or an intermediate result of a blocking operation").
Pipelined operators (filter, project, join probes) nest inside their
pipeline's loop; every :class:`~repro.codegen.ir.PipelineBreaker`
materializes exactly once, as the sink of its producer pipelines and the
driver of its consumer.  All lambdas are inlined at their use sites, so
the generated code contains no interpretation, no dispatch, and no
per-element allocation beyond the result objects themselves.

Within a pipeline the emitter still uses the produce/consume scheme,
but driven by the IR's operator chain rather than by walking the plan:
``produce(i, consume)`` generates the loop nest for the chain prefix
``operators[:i]`` and invokes *consume* with the variable holding the
current element inside the innermost block.

Hash keys (of group aggregation, grouping, join build and probe) never
leave the module and are plain tuples: a named tuple hashes and compares
as its tuple.  The group-aggregate key's field layout is kept on the
printer (``tuple_defs``), so ``g.key.f`` renders as ``k[i]``; a key
handed out whole becomes one record per group.  Every other
``new {...}`` is built with ``_tuple_new(RT, (...))``, skipping the
named tuple's Python ``__new__``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import CodegenError, ExecutionError
from ..expressions.analysis import member_usage
from ..expressions.nodes import (
    AggCall,
    Expr,
    Lambda,
    New,
    Var,
    structural_key,
)
from ..expressions.visitor import Transformer, collect, substitute
from ..plans.logical import (
    Distinct,
    Filter,
    FlatMap,
    GroupAggregate,
    GroupBy,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    ScalarAggregate,
    SetOp,
    Sort,
    TopN,
)
from ..runtime.cancellation import cancel_check
from ..runtime.hashtable import Grouping
from ..runtime.sorting import CompositeKey, quicksort_indexes
from ..runtime.topn import TopNHeap
from .ir import Pipeline, PipelineBreaker, QueryIR, morsel_slice, physical_slots
from .source import Backend, EmitState, _CodeVarPrinter

__all__ = ["PythonBackend"]

Consume = Callable[[str], None]


def _scalar_guard(value: Any) -> Any:
    """Raise (like LINQ) when an empty input left a scalar aggregate unset."""
    if value is None:
        raise ExecutionError("aggregate of an empty sequence has no value")
    return value


class PythonBackend(Backend):
    """Lowers the pipeline IR into one fused-loop Python function."""

    name = "compiled"

    def emitter(self, ir: QueryIR, sources: List[Any]) -> "_Emitter":
        return _Emitter(ir)


class _Emitter(EmitState):
    RUNTIME: Dict[str, Any] = dict(
        _EMPTY=(),
        _scalar_guard=_scalar_guard,
        _islice=itertools.islice,
        _quicksort_indexes=quicksort_indexes,
        _CompositeKey=CompositeKey,
        _TopNHeap=TopNHeap,
        _Grouping=Grouping,
        _morsel_slice=morsel_slice,
        _cancel_check=cancel_check,
    )

    def __init__(self, ir: QueryIR) -> None:
        super().__init__(ir)
        self.printer = self.scalar_printer()
        #: breaker bid → names of the variables materializing its state
        self._state: Dict[int, Dict[str, Any]] = {}
        #: id(Filter op) for filters whose conjuncts are all provably true
        self._stripped_filters = {
            id(ir.pipelines[pid].operators[index]) for pid, index in self.elide.filters
        }

    def _emit_body(self) -> None:
        for pipeline in self.ir.pipelines:
            self._emit_pipeline(pipeline)
        if self.ir.scalar:
            self._emit_scalar_final(self.ir.plan)

    # -- expression plumbing ---------------------------------------------------

    def _inline(self, lam: Lambda, *arg_vars: str) -> Expr:
        if len(lam.params) != len(arg_vars):
            raise CodegenError(
                f"lambda arity {len(lam.params)} != {len(arg_vars)} arguments"
            )
        return substitute(lam.body, {p: Var(v) for p, v in zip(lam.params, arg_vars)})

    def _code(self, lam: Lambda, *arg_vars: str) -> str:
        return self.printer.emit(self._inline(lam, *arg_vars))

    def _key_code(self, lam: Lambda, *arg_vars: str) -> str:
        """A hash key never leaves the module: a record key is a plain tuple."""
        body = self._inline(lam, *arg_vars)
        if isinstance(body, New):
            return self.printer.emit_tuple(body)
        return self.printer.emit(body)

    def _emit_bindings(self, lam: Optional[Lambda], *arg_vars: str) -> None:
        """Emit this lambda's CSE bindings (``__cseN = ...``) before its use."""
        for binding in self.ir.bindings_for(lam):
            bound = substitute(
                binding.expr,
                {p: Var(v) for p, v in zip(lam.params, arg_vars)},
            )
            self.writer.line(f"{binding.name} = {self.printer.emit(bound)}")

    # -- pipeline emission -------------------------------------------------------

    def _emit_pipeline(self, pipeline: Pipeline) -> None:
        dead_reason = self.elide.dead.get(pipeline.pid)
        self.begin_pipeline(pipeline, dead_reason)
        if dead_reason is not None:
            # statically empty: initialize the sink's state (consumers
            # reference it) but emit no scan loop at all
            if pipeline.sink is None:
                self.writer.line("yield from _EMPTY")
            else:
                self._sink_consume(pipeline)
            return
        final = self._sink_consume(pipeline)
        ops = pipeline.operators

        def produce(i: int, consume: Consume) -> None:
            if i == 0:
                self._emit_driver(pipeline, consume)
            else:
                self._emit_op(ops[i - 1], lambda c: produce(i - 1, c), consume)

        produce(len(ops), final)

    def _sink_consume(self, pipeline: Pipeline) -> Consume:
        """Prepare the sink's state (once) and return its per-element code."""
        if pipeline.sink is None:
            return lambda var: self.writer.line(f"yield {var}")
        breaker = pipeline.sink
        state = self._breaker_state(breaker)
        sink = getattr(self, f"_sink_{breaker.kind.replace('-', '_')}")
        return lambda var: sink(breaker.node, state, var)

    def _breaker_state(self, breaker: PipelineBreaker) -> Dict[str, Any]:
        state = self._state.get(breaker.bid)
        if state is None:
            prepare = getattr(self, f"_prepare_{breaker.kind.replace('-', '_')}")
            state = prepare(breaker.node)
            self._state[breaker.bid] = state
        return state

    def _emit_driver(self, pipeline: Pipeline, consume: Consume) -> None:
        driver = pipeline.driver
        if isinstance(driver, Scan):
            elem = self.names.fresh("elem")
            source = self.morsel_source(driver.ordinal, pipeline.morsel_driver)
            with self.writer.block(f"for {elem} in {source}:"):
                consume(elem)
            return
        state = self._state[driver.bid]
        drive = getattr(self, f"_drive_{driver.kind.replace('-', '_')}")
        drive(driver.node, state, consume)

    # -- pipelined (chain) operators ---------------------------------------------

    def _emit_op(
        self,
        op: Plan,
        produce_inner: Callable[[Consume], None],
        consume: Consume,
    ) -> None:
        handler = getattr(self, f"_op_{type(op).__name__}", None)
        if handler is None:
            raise CodegenError(
                f"no python codegen for pipelined operator {type(op).__name__}"
            )
        handler(op, produce_inner, consume)

    def _op_Filter(
        self, op: Filter, produce_inner: Callable[[Consume], None], consume: Consume
    ) -> None:
        if id(op) in self._stripped_filters:
            # every conjunct is provably true: the test (and its CSE
            # bindings, used only by the test) disappears entirely
            produce_inner(consume)
            return

        def filtered(var: str) -> None:
            self._emit_bindings(op.predicate, var)
            with self.writer.block(f"if {self._code(op.predicate, var)}:"):
                consume(var)

        produce_inner(filtered)

    def _op_Project(
        self, op: Project, produce_inner: Callable[[Consume], None], consume: Consume
    ) -> None:
        aggs = collect(op.selector.body, lambda n: isinstance(n, AggCall))
        if aggs:
            self._op_project_over_groups(op, produce_inner, consume)
            return

        def projected(var: str) -> None:
            self._emit_bindings(op.selector, var)
            out = self.names.fresh("val")
            self.writer.line(f"{out} = {self._code(op.selector, var)}")
            consume(out)

        produce_inner(projected)

    def _op_FlatMap(
        self, op: FlatMap, produce_inner: Callable[[Consume], None], consume: Consume
    ) -> None:
        def flattened(var: str) -> None:
            inner = self.names.fresh("inner")
            with self.writer.block(
                f"for {inner} in {self._code(op.collection, var)}:"
            ):
                if op.result is not None:
                    out = self.names.fresh("val")
                    self.writer.line(f"{out} = {self._code(op.result, var, inner)}")
                    consume(out)
                else:
                    consume(inner)

        produce_inner(flattened)

    def _op_Join(
        self, op: Join, produce_inner: Callable[[Consume], None], consume: Consume
    ) -> None:
        """Probe side only; the build side is this join's breaker pipeline."""
        breaker = self.ir.breaker_for(op)
        state = self._state[breaker.bid]
        table = state["table"]

        def probe(var: str) -> None:
            key = self._key_code(op.left_key, var)
            if op.kind in ("semi", "anti"):
                test = "in" if op.kind == "semi" else "not in"
                with self.writer.block(f"if {key} {test} {table}:"):
                    consume(var)
                return
            if op.kind == "left":
                matches = self.names.fresh("matches")
                match = self.names.fresh("match")
                self.writer.line(f"{matches} = {table}.get({key})")
                with self.writer.block(f"if {matches} is not None:"):
                    with self.writer.block(f"for {match} in {matches}:"):
                        out = self.names.fresh("val")
                        self.writer.line(
                            f"{out} = {self._code(op.result, var, match)}"
                        )
                        consume(out)
                with self.writer.block("else:"):
                    out = self.names.fresh("val")
                    self.writer.line(
                        f"{out} = {self._code(op.result, var, state['default'])}"
                    )
                    consume(out)
                return
            match = self.names.fresh("match")
            with self.writer.block(f"for {match} in {table}.get({key}, _EMPTY):"):
                out = self.names.fresh("val")
                self.writer.line(f"{out} = {self._code(op.result, var, match)}")
                consume(out)

        produce_inner(probe)

    def _op_SetOp(
        self, op: SetOp, produce_inner: Callable[[Consume], None], consume: Consume
    ) -> None:
        """Probe-and-decrement against the right side's multiset counts."""
        breaker = self.ir.breaker_for(op)
        table = self._state[breaker.bid]["table"]

        def probe(var: str) -> None:
            remaining = self.names.fresh("rem")
            self.writer.line(f"{remaining} = {table}.get({var}, 0)")
            if op.op == "intersect":
                with self.writer.block(f"if {remaining} > 0:"):
                    self.writer.line(f"{table}[{var}] = {remaining} - 1")
                    consume(var)
            else:  # except: survivors are the copies beyond the right count
                with self.writer.block(f"if {remaining} > 0:"):
                    self.writer.line(f"{table}[{var}] = {remaining} - 1")
                with self.writer.block("else:"):
                    consume(var)

        produce_inner(probe)

    def _op_Limit(
        self, op: Limit, produce_inner: Callable[[Consume], None], consume: Consume
    ) -> None:
        sub = self.names.fresh("_limited")
        with self.writer.block(f"def {sub}():"):
            produce_inner(lambda var: self.writer.line(f"yield {var}"))
        offset = self.printer.emit(op.offset) if op.offset is not None else "0"
        if op.count is not None:
            count = self.printer.emit(op.count)
            stop = f"({offset}) + ({count})"
        else:
            stop = "None"
        elem = self.names.fresh("lim_elem")
        with self.writer.block(f"for {elem} in _islice({sub}(), {offset}, {stop}):"):
            consume(elem)

    def _op_project_over_groups(
        self, op: Project, produce_inner: Callable[[Consume], None], consume: Consume
    ) -> None:
        """Unfused aggregation: one loop per aggregate over each group.

        Generated only when translation ran with ``fuse_aggregates=False``;
        this is the §2.3 ablation showing what per-aggregate passes cost
        even in compiled code.
        """

        def per_group(group_var: str) -> None:
            body = op.selector.body
            (selector_param,) = op.selector.params
            body = substitute(body, {selector_param: Var(group_var)})
            replacements: Dict[Any, str] = {}
            for agg in collect(body, lambda n: isinstance(n, AggCall)):
                agg_key = structural_key(agg)
                if agg_key in replacements:
                    continue
                slot = self.names.fresh("agg")
                self._emit_group_scan(agg, group_var, slot)
                replacements[agg_key] = slot
            rewritten = _ReplaceAggs(replacements).visit(body)
            out = self.names.fresh("val")
            self.writer.line(f"{out} = {self.printer.emit(rewritten)}")
            consume(out)

        produce_inner(per_group)

    def _emit_group_scan(self, agg: AggCall, group_var: str, slot: str) -> None:
        """One dedicated pass over the group for one aggregate."""
        elem = self.names.fresh("ge")
        if agg.kind == "count":
            self.writer.line(f"{slot} = 0")
            with self.writer.block(f"for {elem} in {group_var}:"):
                self.writer.line(f"{slot} += 1")
            return
        value = self._code(agg.arg, elem)
        if agg.kind == "sum":
            self.writer.line(f"{slot} = 0")
            with self.writer.block(f"for {elem} in {group_var}:"):
                self.writer.line(f"{slot} += {value}")
        elif agg.kind in ("min", "max"):
            self.writer.line(f"{slot} = None")
            op = "<" if agg.kind == "min" else ">"
            with self.writer.block(f"for {elem} in {group_var}:"):
                tmp = self.names.fresh("v")
                self.writer.line(f"{tmp} = {value}")
                with self.writer.block(f"if {slot} is None or {tmp} {op} {slot}:"):
                    self.writer.line(f"{slot} = {tmp}")
        elif agg.kind == "avg":
            total = self.names.fresh("total")
            count = self.names.fresh("cnt")
            self.writer.line(f"{total} = 0")
            self.writer.line(f"{count} = 0")
            with self.writer.block(f"for {elem} in {group_var}:"):
                self.writer.line(f"{total} += {value}")
                self.writer.line(f"{count} += 1")
            if self.elide.avg:
                # materialized groups are never empty
                self.writer.line(f"{slot} = {total} / {count}")
            else:
                self.writer.line(
                    f"{slot} = {total} / {count} if {count} else None"
                )
        else:
            raise CodegenError(f"unknown aggregate kind {agg.kind!r}")

    # -- fused aggregation (slot planning shared via codegen.ir) -----------------

    def _emit_slot_updates(
        self, slots: List[Tuple[str, Optional[Lambda]]], acc: str, elem: str
    ) -> None:
        for i, (kind, selector) in enumerate(slots):
            if kind == "count":
                self.writer.line(f"{acc}[{i}] += 1")
            elif kind == "sum":
                self.writer.line(f"{acc}[{i}] += {self._code(selector, elem)}")
            elif kind in ("min", "max"):
                op = "<" if kind == "min" else ">"
                tmp = self.names.fresh("v")
                self.writer.line(f"{tmp} = {self._code(selector, elem)}")
                with self.writer.block(
                    f"if {acc}[{i}] is None or {tmp} {op} {acc}[{i}]:"
                ):
                    self.writer.line(f"{acc}[{i}] = {tmp}")
            else:
                raise CodegenError(f"unexpected physical slot kind {kind!r}")

    @staticmethod
    def _slot_inits(slots: List[Tuple[str, Optional[Lambda]]]) -> str:
        inits = ["0" if kind in ("sum", "count") else "None" for kind, _ in slots]
        return f"[{', '.join(inits)}]"

    @staticmethod
    def _extract_code(
        entry: Tuple[str, int, int], acc: str, elide_avg: bool = False
    ) -> str:
        tag, a, b = entry
        if tag == "avg":
            if elide_avg:
                # proven: a group accumulator exists only after its first
                # element, so the count slot is always >= 1
                return f"({acc}[{a}] / {acc}[{b}])"
            return f"({acc}[{a}] / {acc}[{b}] if {acc}[{b}] else None)"
        return f"{acc}[{a}]"

    def _render_agg_output(
        self,
        output: Expr,
        key_var: str,
        acc_var: str,
        extract: List[Tuple[str, int, int]],
        elide_avg: bool = False,
    ) -> str:
        mapping: Dict[str, Expr] = {"__key": Var(key_var)}
        rewritten = substitute(output, mapping)
        extract_code = self._extract_code

        class AggVarPrinter(_CodeVarPrinter):
            def emit_var(inner_self, expr: Var) -> str:  # noqa: N805
                if expr.name.startswith("__agg"):
                    index = int(expr.name[5:])
                    return extract_code(extract[index], acc_var, elide_avg)
                return super().emit_var(expr)

        printer = self.scalar_printer(AggVarPrinter)
        printer.tuple_defs = self.printer.tuple_defs
        printer._bound_counter = self.printer._bound_counter
        code = printer.emit(rewritten)
        self.printer._bound_counter = printer._bound_counter
        return code

    # -- breaker state: prepare / sink / drive -----------------------------------

    # join build: the breaker materializes the probe hash table

    def _prepare_join_build(self, node: Join) -> Dict[str, Any]:
        table = self.names.fresh("jtable")
        self.writer.line(f"{table} = {{}}")
        state: Dict[str, Any] = {"table": table}
        if node.kind == "left":
            # the default element is loop-invariant: bind it once
            default = self.names.fresh("jdefault")
            self.writer.line(f"{default} = {self.printer.emit(node.default)}")
            state["default"] = default
        return state

    def _sink_join_build(self, node: Join, state: Dict[str, Any], var: str) -> None:
        key = self._key_code(node.right_key, var)
        if node.kind in ("semi", "anti"):
            # existence probes only test membership; skip the bucket lists
            self.writer.line(f"{state['table']}[{key}] = True")
            return
        self.writer.line(f"{state['table']}.setdefault({key}, []).append({var})")

    # setop build: the breaker materializes the right side's multiset counts

    def _prepare_setop_build(self, node: SetOp) -> Dict[str, Any]:
        table = self.names.fresh("stable")
        self.writer.line(f"{table} = {{}}")
        return {"table": table}

    def _sink_setop_build(self, node: SetOp, state: Dict[str, Any], var: str) -> None:
        table = state["table"]
        self.writer.line(f"{table}[{var}] = {table}.get({var}, 0) + 1")

    # group materialization (GroupBy): key → list of elements

    def _prepare_group_materialize(self, node: GroupBy) -> Dict[str, Any]:
        groups = self.names.fresh("groups")
        self.writer.line(f"{groups} = {{}}")
        return {"groups": groups}

    def _sink_group_materialize(
        self, node: GroupBy, state: Dict[str, Any], var: str
    ) -> None:
        key = self._key_code(node.key, var)
        self.writer.line(f"{state['groups']}.setdefault({key}, []).append({var})")

    def _drive_group_materialize(
        self, node: GroupBy, state: Dict[str, Any], consume: Consume
    ) -> None:
        key_var = self.names.fresh("gkey")
        items_var = self.names.fresh("gitems")
        group_var = self.names.fresh("group")
        with self.writer.block(
            f"for {key_var}, {items_var} in {state['groups']}.items():"
        ):
            key = key_var
            if isinstance(node.key.body, New):
                # the grouping hands its key out: one record per group
                key = self.printer.emit_record(node.key.body, key_var)
            self.writer.line(f"{group_var} = _Grouping({key}, {items_var})")
            consume(group_var)

    # fused group aggregation: key → accumulator slot list

    def _prepare_group_aggregate(self, node: GroupAggregate) -> Dict[str, Any]:
        slots, extract = physical_slots(node.aggregates, share=node.share)
        groups = self.names.fresh("groups")
        self.writer.line(f"{groups} = {{}}")
        return {"groups": groups, "slots": slots, "extract": extract}

    def _sink_group_aggregate(
        self, node: GroupAggregate, state: Dict[str, Any], var: str
    ) -> None:
        key = self.names.fresh("k")
        acc = self.names.fresh("acc")
        groups = state["groups"]
        self.writer.line(f"{key} = {self._key_code(node.key, var)}")
        self.writer.line(f"{acc} = {groups}.get({key})")
        with self.writer.block(f"if {acc} is None:"):
            self.writer.line(
                f"{acc} = {groups}[{key}] = {self._slot_inits(state['slots'])}"
            )
        self._emit_slot_updates(state["slots"], acc, var)

    def _drive_group_aggregate(
        self, node: GroupAggregate, state: Dict[str, Any], consume: Consume
    ) -> None:
        key_var = self.names.fresh("gkey")
        acc_var = self.names.fresh("gacc")
        with self.writer.block(
            f"for {key_var}, {acc_var} in {state['groups']}.items():"
        ):
            key_body = node.key.body
            if isinstance(key_body, New):
                self.printer.tuple_defs[key_var] = key_body.field_names
                if "" in member_usage(node.output).get("__key", ()):
                    # the output hands the whole key out: one record per group
                    record = self.names.fresh("gkey")
                    code = self.printer.emit_record(key_body, key_var)
                    self.writer.line(f"{record} = {code}")
                    key_var = record
            out = self.names.fresh("val")
            output_code = self._render_agg_output(
                node.output,
                key_var,
                acc_var,
                state["extract"],
                elide_avg=self.elide.avg,
            )
            self.writer.line(f"{out} = {output_code}")
            consume(out)

    # scalar aggregation: one accumulator, finalized after all pipelines

    def _prepare_scalar_aggregate(self, node: ScalarAggregate) -> Dict[str, Any]:
        slots, extract = physical_slots(node.aggregates)
        acc = self.names.fresh("acc")
        self.writer.line(f"{acc} = {self._slot_inits(slots)}")
        return {"acc": acc, "slots": slots, "extract": extract}

    def _sink_scalar_aggregate(
        self, node: ScalarAggregate, state: Dict[str, Any], var: str
    ) -> None:
        self._emit_slot_updates(state["slots"], state["acc"], var)

    def _emit_scalar_final(self, plan: Plan) -> None:
        breaker = self.ir.breaker_for(plan)
        state = self._breaker_state(breaker)
        acc = state["acc"]
        output_code = self._render_agg_output(
            plan.output, acc, acc, state["extract"]
        )
        # min/max/avg of an empty input have no value: surface it as an
        # error (matching LINQ), instead of silently yielding None
        guard = any(kind in ("min", "max") for kind, _ in state["slots"]) or any(
            spec.kind == "avg" for spec in plan.aggregates
        )
        if guard:
            self.writer.line(f"return _scalar_guard({output_code})")
        else:
            self.writer.line(f"return {output_code}")

    # -- ordering breakers --------------------------------------------------------

    def _prepare_sort(self, node: Sort) -> Dict[str, Any]:
        buf = self.names.fresh("buf")
        keys = self.names.fresh("keys")
        self.writer.line(f"{buf} = []")
        self.writer.line(f"{keys} = []")
        return {"buf": buf, "keys": keys}

    def _sink_sort(self, node: Sort, state: Dict[str, Any], var: str) -> None:
        buf, keys = state["buf"], state["keys"]
        self.writer.line(f"{buf}.append({var})")
        if len(node.keys) > 1:
            key_tuple = ", ".join(self._code(k, var) for k in node.keys)
            dirs = repr(tuple(node.descending))
            self.writer.line(
                f"{keys}.append((_CompositeKey(({key_tuple}), {dirs}), len({keys})))"
            )
        else:
            self.writer.line(f"{keys}.append({self._code(node.keys[0], var)})")

    def _drive_sort(
        self, node: Sort, state: Dict[str, Any], consume: Consume
    ) -> None:
        buf, keys = state["buf"], state["keys"]
        index = self.names.fresh("i")
        if len(node.keys) > 1:
            order = f"_quicksort_indexes({keys})"
        else:
            order = f"_quicksort_indexes({keys}, descending={node.descending[0]!r})"
        with self.writer.block(f"for {index} in {order}:"):
            elem = self.names.fresh("sorted_elem")
            self.writer.line(f"{elem} = {buf}[{index}]")
            consume(elem)

    def _prepare_topn(self, node: TopN) -> Dict[str, Any]:
        heap = self.names.fresh("heap")
        count_code = self.printer.emit(node.count)
        dirs = repr(tuple(node.descending))
        self.writer.line(f"{heap} = _TopNHeap({count_code}, {dirs})")
        return {"heap": heap}

    def _sink_topn(self, node: TopN, state: Dict[str, Any], var: str) -> None:
        key_tuple = ", ".join(self._code(k, var) for k in node.keys)
        trailing = "," if len(node.keys) == 1 else ""
        self.writer.line(f"{state['heap']}.offer(({key_tuple}{trailing}), {var})")

    def _drive_topn(
        self, node: TopN, state: Dict[str, Any], consume: Consume
    ) -> None:
        elem = self.names.fresh("top_elem")
        with self.writer.block(f"for {elem} in {state['heap']}.results():"):
            consume(elem)

    # -- dedup breaker ------------------------------------------------------------

    def _prepare_distinct_materialize(self, node: Distinct) -> Dict[str, Any]:
        seen = self.names.fresh("seen")
        out = self.names.fresh("dedup")
        self.writer.line(f"{seen} = set()")
        self.writer.line(f"{out} = []")
        return {"seen": seen, "out": out}

    def _sink_distinct_materialize(
        self, node: Distinct, state: Dict[str, Any], var: str
    ) -> None:
        with self.writer.block(f"if {var} not in {state['seen']}:"):
            self.writer.line(f"{state['seen']}.add({var})")
            self.writer.line(f"{state['out']}.append({var})")

    def _drive_distinct_materialize(
        self, node: Distinct, state: Dict[str, Any], consume: Consume
    ) -> None:
        elem = self.names.fresh("d_elem")
        with self.writer.block(f"for {elem} in {state['out']}:"):
            consume(elem)


class _ReplaceAggs(Transformer):
    """Swap AggCall nodes for the local variables their loops computed."""

    def __init__(self, replacements: Dict[Any, str]):
        self._replacements = replacements

    def visit_AggCall(self, expr: AggCall) -> Expr:
        return Var(self._replacements[structural_key(expr)])
