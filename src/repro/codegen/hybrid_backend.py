"""§6 — combining host-language and native code.

Arbitrary object collections cannot be handed to native code, so the
generated program has two halves:

* a **managed staging loop** (plain Python over the objects) that applies
  every scan-adjacent filter and copies exactly the fields the rest of the
  query needs (the implicit projection of §6.2) into native buffer pages;
* the **native half** — the same vectorized NumPy codegen as the §5
  backend — running over the staged arrays.

Both halves are derived from the shared pipeline IR
(:mod:`repro.codegen.ir`): every scan-driven pipeline's leading
scan-adjacent filters become the managed staging predicates, its staging
buffer layout comes from the IR's shared required-fields annotation
(``staging_fields``), and the rest of the pipeline chain lowers through
the same frame/kernel emitter as the native backend.  Each pipeline thus
has a *placement*: scan-driven pipelines start managed (staging) and
finish native; breaker-driven pipelines are fully native.

Materialization policy (paper §6.1):

* ``buffered=False`` → full materialization: every page is kept
  (``BufferList``) and the native half runs once, after staging.
* ``buffered=True`` → one reusable page (``StreamingBuffer``); the native
  half's *first blocking operator* consumes each page as it fills
  (streaming group/scalar aggregation, streaming join probe).  Plans whose
  first native operator cannot stream fall back to full materialization —
  exactly the paper's concession that "we would rather copy everything to
  unmanaged memory before processing it in C".

Result construction policy (paper §6), chosen by rule:

* **Max** → everything needed to build results is copied; results are
  decoded from native arrays.  The default.
* **Min** → only keys (plus row indexes) cross into native memory; the
  original objects are retained managed-side and results are built from
  them.  Built when whole source elements cross the staging boundary
  (which Max cannot stage) and the plan is one sort / top-N or an
  inner-join tree over filtered scans (§7.4); otherwise Max's refusal
  stands.  Min never buffers and emits no morsel-parameterized kernels.
  ``minimal=True`` pins it.
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis import analyze_ir
from ..errors import ExecutionError, SchemaError, UnsupportedQueryError
from ..observability.tracer import TRACER
from ..options import env
from ..expressions.nodes import Lambda, New, Var
from ..expressions.visitor import substitute
from ..plans.logical import (
    Filter,
    FlatMap,
    GroupAggregate,
    GroupBy,
    Join,
    Plan,
    Project,
    Scan,
    ScalarAggregate,
    Sort,
    TopN,
    plan_children,
)
from ..runtime import vectorized as _vec
from ..runtime.cancellation import cancel_check
from ..runtime.parallel import MORSEL_START as _MORSEL_START
from ..runtime.parallel import MORSEL_STOP as _MORSEL_STOP
from ..runtime.parallel import morsel_slice
from ..runtime.streaming import StreamingGroupAggregator, StreamingJoinProbe
from ..storage.buffers import DEFAULT_PAGE_BYTES, BufferList, StreamingBuffer
from ..storage.schema import date_to_days, days_to_date
from .compiler import CompiledQuery, compile_source, timed
from .ir import Pipeline, PipelineBreaker, QueryIR, physical_slots
from .lower import lower_plan
from .mapping import StagedSource, staged_schema_for
from .native_backend import (
    ColumnRef,
    Frame,
    _outside_fragment,
    _VectorEmitter,
)
from .python_backend import _CodeVarPrinter
from .source import NameAllocator, SourceWriter

__all__ = ["HybridBackend"]


def _enc_str(value: str, width: int) -> bytes:
    """Encode one string for staging; overflow is an error, not truncation."""
    encoded = value.encode("utf-8")
    if len(encoded) > width:
        raise SchemaError(
            f"string {value!r} exceeds the staged width {width}; the sampled "
            f"schema underestimated this field"
        )
    return encoded


class HybridBackend:
    """Compiles a plan into staged-managed + vectorized-native code."""

    name = "hybrid"

    def __init__(
        self,
        buffered: bool = False,
        minimal: bool = False,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ):
        self.buffered = buffered
        self.minimal = minimal
        self.page_bytes = page_bytes

    def compile(
        self,
        plan: Plan,
        sources: Sequence[Any],
        morsel_ordinal: Optional[int] = None,
        ir: Optional[QueryIR] = None,
    ) -> CompiledQuery:
        with TRACER.span("codegen.generate", engine=self.name), timed() as gen_time:
            minimal, module = self._emit(plan, sources, morsel_ordinal, ir)
        source_code, namespace, scalar = module
        entry, compile_seconds = compile_source(source_code, namespace)
        return CompiledQuery(
            source_code=source_code,
            fn=entry,
            engine=self.name,
            codegen_seconds=gen_time.seconds,
            compile_seconds=compile_seconds,
            scalar=scalar,
            minimal=minimal,
        )

    def _emit(
        self,
        plan: Plan,
        sources: Sequence[Any],
        morsel_ordinal: Optional[int],
        ir: Optional[QueryIR],
    ) -> Tuple[bool, Tuple[str, Dict[str, Any], bool]]:
        """(built with Min?, module): Max, unless Min is pinned or whole
        elements cross the staging boundary — then Min, and a plan Min
        refuses keeps Max's refusal."""
        max_refusal = None
        if not self.minimal:
            if ir is None:
                ir = lower_plan(plan, morsel_ordinal=morsel_ordinal)
            if ir.facts is None:
                ir.facts = analyze_ir(ir)
            try:
                staged, peeled = _staging_from_ir(ir)
            except _WholeElements as whole:
                max_refusal = str(whole)  # Min ships only the elements' keys
            else:
                for ordinal, spec in staged.items():
                    if spec.fields:  # field-less sources only stage a count
                        spec.schema = staged_schema_for(sources[ordinal], spec)
                emitter = _HybridEmitter(
                    staged, peeled, self.buffered, self.page_bytes, ir
                )
                return False, emitter.emit_module()
        if morsel_ordinal is not None:
            raise UnsupportedQueryError(
                "the minimal hybrid engines do not emit "
                "morsel-parameterized kernels"
            )
        try:
            return True, _MinEmitter().emit_module(plan, sources)
        except UnsupportedQueryError:
            if max_refusal is None:
                raise
            raise UnsupportedQueryError(max_refusal) from None


class _WholeElements(UnsupportedQueryError):
    """Max's refusal of a source whose whole elements cross the staging
    boundary — the one refusal the Min/Max rule answers with Min."""


def _staging_from_ir(
    ir: QueryIR,
) -> Tuple[Dict[int, StagedSource], Dict[int, int]]:
    """Derive the staging specs from the shared IR annotations.

    A scan-driven pipeline's leading scan-adjacent filters run managed-side
    (they are *peeled* out of the native chain), and the staging buffer
    copies exactly the IR's ``staging_fields`` for that source — the
    implicit projection of §6.2, computed once by the shared
    required-fields pass.  Returns the specs plus pid → peeled-op count.
    """
    # the native half has no form for these nodes; name them before the
    # whole-element check below, which their outputs would trip first
    chained = [op for p in ir.pipelines for op in p.operators]
    for node in chained + [b.node for b in ir.breakers]:
        if isinstance(node, (FlatMap, GroupBy)):
            raise _outside_fragment(node)
    staged: Dict[int, StagedSource] = {}
    peeled: Dict[int, int] = {}
    for pipeline in ir.pipelines:
        if not isinstance(pipeline.driver, Scan):
            continue
        ops = pipeline.operators
        prev: Plan = pipeline.driver
        predicates: List[Lambda] = []
        n = 0
        while n < len(ops) and isinstance(ops[n], Filter) and ops[n].child is prev:
            predicates.append(ops[n].predicate)
            prev = ops[n]
            n += 1
        peeled[pipeline.pid] = n
        ordinal = pipeline.driver.ordinal
        fields = ir.staging_fields.get(ordinal, set())
        if fields is None:
            raise _WholeElements(
                f"the query uses whole elements of source_{ordinal} beyond "
                f"the staging boundary; the hybrid engine requires flat "
                f"field access (use the compiled engine)"
            )
        if ordinal not in staged:
            staged[ordinal] = StagedSource(
                ordinal=ordinal,
                predicates=tuple(predicates),
                fields=tuple(sorted(fields)),
            )
    return staged, peeled


# ---------------------------------------------------------------------------
# Max (full + buffered)
# ---------------------------------------------------------------------------


class _HybridEmitter(_VectorEmitter):
    """Vector emitter whose scan-driven pipelines start managed.

    Scans read staged arrays instead of sources; the peeled leading
    filters of each pipeline become the staging loop's predicate.
    """

    def __init__(
        self,
        staged: Dict[int, StagedSource],
        peeled: Dict[int, int],
        buffered: bool,
        page_bytes: int,
        ir: QueryIR,
    ):
        schemas = {ordinal: spec.schema for ordinal, spec in staged.items()}
        super().__init__(schemas, exemplars=(), ir=ir)
        # group counts are >= 1 by construction, so the facts pass always
        # licenses dropping the divide-clamp in streamed group averages
        self._elide_avg_guards = ir.facts is not None and env("REPRO_GUARD_ELISION")
        self._staged = staged
        self._peeled = peeled
        self._buffered = buffered
        self._page_bytes = page_bytes
        #: ordinal → ("array", var) or ("count", var)
        self._bindings: Dict[int, Tuple[str, str]] = {}
        self._stream_node: Optional[Plan] = None
        self._stream_ordinal: Optional[int] = None

    # -- module assembly --------------------------------------------------------

    def emit_module(self) -> Tuple[str, Dict[str, Any], bool]:
        if self._buffered:
            self._stream_node, self._stream_ordinal = _find_stream_target(
                self.ir.plan, self._staged
            )

        body = SourceWriter()
        self.writer = body
        for ordinal, spec in sorted(self._staged.items()):
            if ordinal == self._stream_ordinal:
                continue  # staged page-by-page inside the stream operator
            self._emit_full_staging(spec)
        for pipeline in self.ir.pipelines:
            self._emit_pipeline(pipeline)
        if self.ir.scalar:
            body.line(f"return {self._scalar_result(self.ir.plan)}")
        else:
            frame = self._concat_frames(self._terminal_frames)
            body.line(f"return {self._emit_result(frame)}")

        header = SourceWriter()
        header.line('"""Query code generated by repro.codegen.hybrid_backend."""')
        header.line()
        with header.block("def execute(sources, _params):"):
            for param_name, code_name in self._param_names.items():
                header.line(f"{code_name} = _params[{param_name!r}]")
            for line in body.text().splitlines():
                header.line(line) if line.strip() else header.line()

        namespace = self._base_namespace()
        return header.text(), namespace, self.ir.scalar

    def _base_namespace(self) -> Dict[str, Any]:
        namespace = dict(self.namespace)
        namespace.update(
            _np=np,
            _group_aggregate=_vec.group_aggregate,
            _hash_join=_vec.hash_join_indexes,
            _left_join=_vec.left_join_indexes,
            _semi_mask=_vec.semi_join_mask,
            _gather_defaulted=_vec.gather_defaulted,
            _multiset_mask=_vec.multiset_mask,
            _sort_indexes=_vec.sort_indexes,
            _topn_indexes=_vec.topn_indexes,
            _distinct_indexes=_vec.distinct_indexes,
            _decode_rows=_vec.decode_rows,
            _decode_values=_vec.decode_values,
            _coerce_str=_vec.coerce_str,
            _coerce_date=_vec.coerce_date,
            _EmptyAggregateError=_hybrid_empty_error,
            _days_to_date=days_to_date,
            _BufferList=BufferList,
            _StreamingBuffer=StreamingBuffer,
            _StreamingGroupAggregator=StreamingGroupAggregator,
            _StreamingJoinProbe=StreamingJoinProbe,
            _enc_str=_enc_str,
            _to_days=date_to_days,
            _morsel_slice=morsel_slice,
            _cancel_check=cancel_check,
        )
        return namespace

    def _staging_source(self, ordinal: int) -> str:
        """The managed iterable staging reads: morsel-sliced on the driver."""
        source = f"sources[{ordinal}]"
        if ordinal == self._morsel_ordinal:
            lo = self._render_param(_MORSEL_START)
            hi = self._render_param(_MORSEL_STOP)
            source = f"_morsel_slice({source}, {lo}, {hi})"
        return source

    # -- staging ---------------------------------------------------------------

    def _python_printer(self) -> _CodeVarPrinter:
        printer = _CodeVarPrinter(param_render=self._render_param)
        printer.namespace = self.namespace
        # staging predicates share the query's division-proof verdict
        printer.guard_divisions = not self._elide_division_guards
        return printer

    def _staging_predicate(
        self, spec: StagedSource, elem: str
    ) -> Optional[Tuple[List[str], str]]:
        """CSE binding lines + combined predicate expression, or None.

        The staged predicates inherit the IR's per-pipeline CSE pass: each
        hoisted subexpression is assigned once per element, before the
        combined test.
        """
        if not spec.predicates:
            return None
        printer = self._python_printer()
        lines: List[str] = []
        parts: List[str] = []
        for predicate in spec.predicates:
            mapping = {predicate.params[0]: Var(elem)}
            for binding in self.ir.bindings_for(predicate):
                code = printer.emit(substitute(binding.expr, mapping))
                lines.append(f"{binding.name} = {code}")
            parts.append(printer.emit(substitute(predicate.body, mapping)))
        return lines, " and ".join(parts)

    def _encoded_fields(self, spec: StagedSource, elem: str) -> str:
        parts = []
        for field in spec.schema.fields:
            access = f"{elem}.{field.name}"
            if field.kind == "str":
                parts.append(f"_enc_str({access}, {field.size})")
            elif field.kind == "date":
                parts.append(f"_to_days({access})")
            else:
                parts.append(access)
        trailing = "," if len(parts) == 1 else ""
        return f"({', '.join(parts)}{trailing})"

    def _emit_full_staging(self, spec: StagedSource) -> None:
        """Stage one source completely into a page list (§6.1.1)."""
        # staging precedes every pipeline (and can dominate the runtime),
        # so it gets its own cancellation checkpoint
        self.writer.line("_cancel_check(_params)")
        elem = self.names.fresh("elem")
        predicate = self._staging_predicate(spec, elem)
        if not spec.fields:
            # nothing to copy: only the qualifying-row count survives
            counter = self.names.fresh("count")
            self.writer.line(f"{counter} = 0")
            with self.writer.block(
                f"for {elem} in {self._staging_source(spec.ordinal)}:"
            ):
                if predicate:
                    lines, test = predicate
                    for line in lines:
                        self.writer.line(line)
                    with self.writer.block(f"if {test}:"):
                        self.writer.line(f"{counter} += 1")
                else:
                    self.writer.line(f"{counter} += 1")
            self._bindings[spec.ordinal] = ("count", counter)
            return
        dtype_var = self._bind(spec.schema.numpy_dtype(), "dtype")
        rows = self.names.fresh("rows")
        append = self.names.fresh("append")
        self.writer.line(f"{rows} = []")
        self.writer.line(f"{append} = {rows}.append")
        with self.writer.block(f"for {elem} in {self._staging_source(spec.ordinal)}:"):
            stage = f"{append}({self._encoded_fields(spec, elem)})"
            if predicate:
                lines, test = predicate
                for line in lines:
                    self.writer.line(line)
                with self.writer.block(f"if {test}:"):
                    self.writer.line(stage)
            else:
                self.writer.line(stage)
        staged_var = self.names.fresh("staged")
        # the bulk conversion is the copy into native memory (§6.1.1)
        self.writer.line(
            f"{staged_var} = _np.array({rows}, dtype={dtype_var}) "
            f"if {rows} else _np.zeros(0, dtype={dtype_var})"
        )
        self._bindings[spec.ordinal] = ("array", staged_var)

    def _emit_streaming_staging(self, spec: StagedSource, consumer: str) -> None:
        """Stage one source page-by-page through *consumer* (§6.1.2).

        One page worth of rows accumulates managed-side; filling it
        triggers the bulk copy to native memory plus the consumer call, so
        the staging footprint stays fixed at one page.
        """
        dtype_var = self._bind(spec.schema.numpy_dtype(), "dtype")
        capacity = max(1, self._page_bytes // spec.schema.struct_size())
        page = self.names.fresh("page")
        append = self.names.fresh("append")
        self.writer.line(f"{page} = []")
        self.writer.line(f"{append} = {page}.append")
        elem = self.names.fresh("elem")
        predicate = self._staging_predicate(spec, elem)
        with self.writer.block(f"for {elem} in {self._staging_source(spec.ordinal)}:"):
            def emit_stage() -> None:
                self.writer.line(f"{append}({self._encoded_fields(spec, elem)})")
                with self.writer.block(f"if len({page}) >= {capacity}:"):
                    self.writer.line(
                        f"{consumer}(_np.array({page}, dtype={dtype_var}))"
                    )
                    self.writer.line(f"del {page}[:]")

            if predicate:
                lines, test = predicate
                for line in lines:
                    self.writer.line(line)
                with self.writer.block(f"if {test}:"):
                    emit_stage()
            else:
                emit_stage()
        with self.writer.block(f"if {page}:"):
            self.writer.line(f"{consumer}(_np.array({page}, dtype={dtype_var}))")

    # -- pipeline head: placement of the managed→native boundary --------------------

    def _skip_pipeline(self, pipeline: Pipeline) -> bool:
        """The stream target's feed pipeline is emitted *inside* the
        streaming operator (page-by-page), not as a separate loop."""
        return (
            self._stream_node is not None
            and pipeline.sink is not None
            and pipeline.sink.node is self._stream_node
            and isinstance(pipeline.driver, Scan)
            and pipeline.driver.ordinal == self._stream_ordinal
        )

    def _pipeline_head(
        self, pipeline: Pipeline, demands: List[Optional[Set[str]]]
    ) -> Tuple[int, Frame]:
        if not isinstance(pipeline.driver, Scan):
            return super()._pipeline_head(pipeline, demands)
        start = self._peeled.get(pipeline.pid, 0)
        ops = pipeline.operators
        if (
            self._stream_node is not None
            and start < len(ops)
            and ops[start] is self._stream_node
        ):
            # streaming join probe: staging pages feed the probe directly
            return start + 1, self._emit_stream_join(ops[start], demands[start + 1])
        return start, self._scan_frame(pipeline.driver, pipeline, demands[start])

    def _scan_frame(
        self, scan: Scan, pipeline: Pipeline, needed: Optional[Set[str]]
    ) -> Frame:
        kind, var = self._bindings[scan.ordinal]
        if kind == "count":
            return Frame({}, var)
        schema = self._staged[scan.ordinal].schema
        columns = {
            f.name: ColumnRef(f"{var}[{f.name!r}]", f.kind)
            for f in schema.fields
            if needed is None or f.name in needed
        }
        return Frame(columns, f"{var}.shape[0]")

    # -- page frames (shared by the streaming operators) ---------------------------

    def _page_frame(self, spec: StagedSource, rows_var: str) -> Frame:
        columns = {
            f.name: ColumnRef(f"{rows_var}[{f.name!r}]", f.kind)
            for f in spec.schema.fields
        }
        return Frame(columns, f"{rows_var}.shape[0]")

    # -- streaming group aggregation -------------------------------------------------

    def _breaker_output(
        self, breaker: PipelineBreaker, need: Optional[Set[str]]
    ) -> Frame:
        if breaker.node is self._stream_node and breaker.kind == "group-aggregate":
            frame = self._breaker_frames.get(breaker.bid)
            if frame is None:
                frame = self._emit_stream_group(breaker.node, need)
                self._breaker_frames[breaker.bid] = frame
            return frame
        return super()._breaker_output(breaker, need)

    def _emit_stream_group(
        self, plan: GroupAggregate, needed: Optional[Set[str]]
    ) -> Frame:
        spec = self._staged[self._stream_ordinal]

        # decompose avg into mergeable sum + shared count (page merging);
        # the slot plan is the shared one used by the parallel merge too
        physical, extract = physical_slots(plan.aggregates)

        key_body = plan.key.body
        key_fields = (
            list(key_body.fields)
            if isinstance(key_body, New)
            else [(Frame.SINGLE, key_body)]
        )

        sagg = self.names.fresh("sagg")
        kinds = [kind for kind, _ in physical]
        self.writer.line(
            f"{sagg} = _StreamingGroupAggregator({len(key_fields)}, {kinds!r})"
        )
        consumer = self.names.fresh("_consume")
        rows = self.names.fresh("rows")
        with self.writer.block(f"def {consumer}({rows}):"):
            page = self._page_frame(spec, rows)
            printer = self._printer({plan.key.params[0]: (page, None)})
            key_codes = [printer.emit(expr) for _, expr in key_fields]
            value_codes = []
            for kind, selector in physical:
                if selector is None:
                    value_codes.append("None")
                else:
                    p = self._printer({selector.params[0]: (page, None)})
                    value_codes.append(p.emit(selector.body))
            keys_tuple = ", ".join(key_codes)
            self.writer.line(
                f"{sagg}.consume_page(({keys_tuple},), [{', '.join(value_codes)}])"
            )
        self._emit_streaming_staging(spec, consumer)

        gkeys = self.names.fresh("gkeys")
        gaggs = self.names.fresh("gaggs")
        self.writer.line(f"{gkeys}, {gaggs} = {sagg}.finalize()")

        # expose keys and extracted aggregates as a frame for the output expr
        key_printer = self._printer(
            {plan.key.params[0]: (self._page_frame(spec, "_unused"), None)}
        )
        key_cols = {
            name: ColumnRef(f"{gkeys}[{i}]", key_printer.kind_of(expr))
            for i, (name, expr) in enumerate(key_fields)
        }
        key_frame = Frame(key_cols, f"{gkeys}[0].shape[0]")
        env: Dict[str, Tuple[Frame, Optional[str]]] = {"__key": (key_frame, None)}
        for i, (mode, a, b) in enumerate(extract):
            if mode == "avg":
                if self._elide_avg_guards:
                    code = f"({gaggs}[{a}] / {gaggs}[{b}])"
                else:
                    code = f"({gaggs}[{a}] / _np.maximum({gaggs}[{b}], 1))"
                kind = "float"
            else:
                code = f"{gaggs}[{a}]"
                kind = self._spec_kind(plan.aggregates[i], spec)
            env[f"__agg{i}"] = (
                Frame({Frame.SINGLE: ColumnRef(code, kind)}, f"{gkeys}[0].shape[0]"),
                None,
            )
        printer = self._printer(env)
        return self._build_output_frame(
            plan.output, printer, f"{gkeys}[0].shape[0]", needed
        )

    def _spec_kind(self, spec_agg, staged_spec: StagedSource) -> str:
        if spec_agg.selector is None:
            return "int"
        printer = self._printer(
            {
                spec_agg.selector.params[0]: (
                    self._page_frame(staged_spec, "_unused"),
                    None,
                )
            }
        )
        return printer.kind_of(spec_agg.selector.body)

    # -- streaming scalar aggregation ----------------------------------------------

    def _scalar_result(self, plan: ScalarAggregate) -> str:
        if plan is not self._stream_node:
            return super()._scalar_result(plan)
        spec = self._staged[self._stream_ordinal]
        if len(plan.aggregates) != 1:
            raise UnsupportedQueryError("streaming scalar supports one aggregate")
        (agg,) = plan.aggregates
        acc = self.names.fresh("acc")
        # slots: [count, sum, min, max] — only what the aggregate needs
        self.writer.line(f"{acc} = [0, 0.0, None, None]")
        consumer = self.names.fresh("_consume")
        rows = self.names.fresh("rows")
        with self.writer.block(f"def {consumer}({rows}):"):
            page = self._page_frame(spec, rows)
            with self.writer.block(f"if {rows}.shape[0]:"):
                self.writer.line(f"{acc}[0] += {rows}.shape[0]")
                if agg.selector is not None:
                    printer = self._printer(
                        {agg.selector.params[0]: (page, None)}
                    )
                    values = self.names.fresh("vals")
                    self.writer.line(
                        f"{values} = {printer.emit(agg.selector.body)}"
                    )
                    if agg.kind in ("sum", "avg"):
                        self.writer.line(f"{acc}[1] += {values}.sum()")
                    if agg.kind == "min":
                        pmin = self.names.fresh("pm")
                        self.writer.line(f"{pmin} = {values}.min()")
                        self.writer.line(
                            f"{acc}[2] = {pmin} if {acc}[2] is None "
                            f"else min({acc}[2], {pmin})"
                        )
                    if agg.kind == "max":
                        pmax = self.names.fresh("pm")
                        self.writer.line(f"{pmax} = {values}.max()")
                        self.writer.line(
                            f"{acc}[3] = {pmax} if {acc}[3] is None "
                            f"else max({acc}[3], {pmax})"
                        )
        self._emit_streaming_staging(spec, consumer)
        if agg.kind == "count":
            return f"{acc}[0]"
        if agg.kind == "sum":
            return f"({acc}[1] if {acc}[0] else 0)"
        if agg.kind == "avg":
            with self.writer.block(f"if not {acc}[0]:"):
                self.writer.line("raise _EmptyAggregateError()")
            return f"({acc}[1] / {acc}[0])"
        index = 2 if agg.kind == "min" else 3
        with self.writer.block(f"if {acc}[{index}] is None:"):
            self.writer.line("raise _EmptyAggregateError()")
        return f"{acc}[{index}].item()"

    # -- streaming join probe ---------------------------------------------------------

    def _emit_stream_join(
        self, plan: Join, needed: Optional[Set[str]]
    ) -> Frame:
        spec = self._staged[self._stream_ordinal]
        left_var, right_var = plan.result.params
        if not isinstance(plan.result.body, New):
            raise UnsupportedQueryError(
                "streaming joins require a record-constructing result selector"
            )

        right = self._join_build_frame(self.ir.breaker_for(plan))
        rk = self._vector(
            self._printer({plan.right_key.params[0]: (right, None)}).emit(
                plan.right_key.body
            )
        )
        probe = self.names.fresh("jprobe")
        self.writer.line(f"{probe} = _StreamingJoinProbe({rk})")

        out_fields = [
            (name, expr)
            for name, expr in plan.result.body.fields
            if needed is None or name in needed
        ]
        pieces = self.names.fresh("pieces")
        self.writer.line(f"{pieces} = {[[] for _ in out_fields]!r}")
        consumer = self.names.fresh("_consume")
        rows = self.names.fresh("rows")
        with self.writer.block(f"def {consumer}({rows}):"):
            page = self._page_frame(spec, rows)
            key_printer = self._printer({plan.left_key.params[0]: (page, None)})
            pk = self.names.fresh("pk")
            self.writer.line(f"{pk} = {key_printer.emit(plan.left_key.body)}")
            li = self.names.fresh("li")
            ri = self.names.fresh("ri")
            self.writer.line(f"{li}, {ri} = {probe}.probe({pk})")
            out_printer = self._printer(
                {left_var: (page, li), right_var: (right, ri)}
            )
            for j, (_, expr) in enumerate(out_fields):
                self.writer.line(f"{pieces}[{j}].append({out_printer.emit(expr)})")
        self._emit_streaming_staging(spec, consumer)

        page_probe = self._page_frame(spec, "_unused")
        kind_printer = self._printer(
            {left_var: (page_probe, None), right_var: (right, None)}
        )
        columns: Dict[str, ColumnRef] = {}
        for j, (name, expr) in enumerate(out_fields):
            kind = kind_printer.kind_of(expr)
            var = self.names.fresh("col")
            placeholder = _placeholder_dtype(kind)
            self.writer.line(
                f"{var} = _np.concatenate({pieces}[{j}]) if {pieces}[{j}] "
                f"else _np.zeros(0, dtype={placeholder!r})"
            )
            columns[name] = ColumnRef(var, kind)
        first = next(iter(columns.values()))
        return Frame(columns, f"{first.code}.shape[0]")


def _placeholder_dtype(kind: str) -> str:
    return {
        "int": "int64",
        "int32": "int32",
        "float": "float64",
        "bool": "bool",
        "str": "S1",
        "date": "int32",
    }.get(kind, "float64")


def _hybrid_empty_error():
    return ExecutionError("aggregate of an empty sequence has no value")


def _find_stream_target(
    plan: Plan, staged: Dict[int, StagedSource]
) -> Tuple[Optional[Plan], Optional[int]]:
    """Pick the blocking operator (and its scan) that consumes pages.

    Only a scan feeding its parent *directly* (any scan-adjacent filters
    run in staging) can stream, and only when the parent merges across
    pages: group/scalar aggregation, or a join probing that scan.
    """
    scan_counts: Dict[int, int] = {}

    def count(node: Plan) -> None:
        if isinstance(node, Scan):
            scan_counts[node.ordinal] = scan_counts.get(node.ordinal, 0) + 1
        for child in plan_children(node):
            count(child)

    count(plan)

    def scan_below(node: Plan) -> Optional[Scan]:
        while isinstance(node, Filter):
            node = node.child
        return node if isinstance(node, Scan) else None

    def streamable(scan: Optional[Scan]) -> bool:
        if scan is None or scan_counts.get(scan.ordinal) != 1:
            return False
        spec = staged.get(scan.ordinal)
        return spec is not None and bool(spec.fields)

    def find(node: Plan) -> Tuple[Optional[Plan], Optional[int]]:
        if isinstance(node, (GroupAggregate, ScalarAggregate)):
            scan = scan_below(node.child)
            if streamable(scan):
                return node, scan.ordinal
        if isinstance(node, Join) and node.kind == "inner":
            # only the inner probe streams page-by-page; outer/semi/anti
            # probes fall back to full materialization
            scan = scan_below(node.left)
            if streamable(scan):
                return node, scan.ordinal
        for child in plan_children(node):
            found = find(child)
            if found[0] is not None:
                return found
        return None, None

    return find(plan)


# ---------------------------------------------------------------------------
# Min — ship keys and indexes only, build results from objects
# ---------------------------------------------------------------------------


class _MinEmitter:
    """Generates the Min-staging program for the supported plan shapes."""

    def __init__(self):
        self.writer = SourceWriter()
        self.namespace: Dict[str, Any] = {}
        self._param_names: Dict[str, str] = {}
        self.names = NameAllocator()

    def _render_param(self, name: str) -> str:
        code_name = self._param_names.get(name)
        if code_name is None:
            sanitized = "".join(c if c.isalnum() else "_" for c in name)
            code_name = f"_param_{sanitized}"
            self._param_names[name] = code_name
        return code_name

    def _printer(self) -> _CodeVarPrinter:
        printer = _CodeVarPrinter(param_render=self._render_param)
        printer.namespace = self.namespace
        return printer

    # -- shape detection --------------------------------------------------------

    def emit_module(
        self, plan: Plan, sources: Sequence[Any]
    ) -> Tuple[str, Dict[str, Any], bool]:
        post_ops: List[Tuple[str, Lambda]] = []
        node = plan
        while True:
            if isinstance(node, Project):
                post_ops.append(("project", node.selector))
                node = node.child
            elif isinstance(node, Filter) and isinstance(node.child, (Join,)):
                post_ops.append(("filter", node.predicate))
                node = node.child
            else:
                break
        post_ops.reverse()

        body = SourceWriter()
        self.writer = body
        # the Min program is one staged native operation; a single
        # entry checkpoint keeps it cancellable like the IR pipelines
        body.line("_cancel_check(_params)")
        if isinstance(node, (Sort, TopN)):
            self._emit_sort_min(node, post_ops)
        elif isinstance(node, Join):
            self._emit_join_min(node, post_ops)
        else:
            raise UnsupportedQueryError(
                "Min staging only supports a single sort/top-N or inner join "
                "as the native operation (the paper's §7.4 restriction); use "
                "the Max variant for complex queries"
            )

        header = SourceWriter()
        header.line('"""Query code generated by repro.codegen.hybrid_backend (Min)."""')
        header.line()
        with header.block("def execute(sources, _params):"):
            for param_name, code_name in self._param_names.items():
                header.line(f"{code_name} = _params[{param_name!r}]")
            for line in body.text().splitlines():
                header.line(line) if line.strip() else header.line()

        namespace = dict(self.namespace)
        namespace.update(
            _np=np,
            _sort_indexes=_vec.sort_indexes,
            _topn_indexes=_vec.topn_indexes,
            _hash_join=_vec.hash_join_indexes,
            _native_key=_native_key,
            _cancel_check=cancel_check,
        )
        return header.text(), namespace, False

    # -- helpers -------------------------------------------------------------------

    def _scan_chain(self, node: Plan) -> Tuple[int, List[Lambda]]:
        predicates: List[Lambda] = []
        while isinstance(node, Filter):
            predicates.append(node.predicate)
            node = node.child
        if not isinstance(node, Scan):
            raise UnsupportedQueryError(
                "Min staging only supports (filtered) scans and joins below "
                "the native operator"
            )
        return node.ordinal, list(reversed(predicates))

    def _materialize_min(self, node: Plan) -> str:
        """Emit code producing a Python list of this subtree's elements.

        Scan chains filter managed-side and retain object references; join
        subtrees ship keys to the native kernel and build result records
        managed-side — recursively, so the Figure-11 three-relation join
        works under Min staging too.
        """
        if isinstance(node, (Filter, Scan)):
            ordinal, predicates = self._scan_chain(node)
            objs, _ = self._stage_objects_and_keys(ordinal, predicates, [])
            return objs
        if isinstance(node, Join):
            out = self.names.fresh("joined")
            self.writer.line(f"{out} = []")
            self._emit_join_matches(
                node,
                lambda lo, ro: self.writer.line(
                    f"{out}.append("
                    + self._printer().emit(
                        substitute(
                            node.result.body,
                            {
                                node.result.params[0]: Var(lo),
                                node.result.params[1]: Var(ro),
                            },
                        )
                    )
                    + ")"
                ),
            )
            return out
        raise UnsupportedQueryError(
            "Min staging only supports (filtered) scans and joins below the "
            "native operator"
        )

    def _emit_join_matches(self, node: Join, consume) -> None:
        """Stage both sides, run the native join kernel, loop the matches."""
        if node.kind != "inner":
            # the kernel reports matching pairs only: no unmatched-row
            # defaults (left) and no existence tests (semi / anti)
            raise UnsupportedQueryError(
                f"Min staging only supports inner joins, not {node.kind} "
                f"joins; use the Max variant"
            )
        left_objs = self._materialize_min(node.left)
        right_objs = self._materialize_min(node.right)
        larr = self._key_array(left_objs, node.left_key)
        rarr = self._key_array(right_objs, node.right_key)
        li = self.names.fresh("li")
        ri = self.names.fresh("ri")
        self.writer.line(f"{li}, {ri} = _hash_join({larr}, {rarr})")
        k = self.names.fresh("k")
        with self.writer.block(f"for {k} in range({li}.shape[0]):"):
            lo = self.names.fresh("lo")
            ro = self.names.fresh("ro")
            self.writer.line(f"{lo} = {left_objs}[{li}[{k}]]")
            self.writer.line(f"{ro} = {right_objs}[{ri}[{k}]]")
            consume(lo, ro)

    def _key_array(self, objs_var: str, key: Lambda) -> str:
        """Extract one key per retained object into a native array."""
        printer = self._printer()
        keys = self.names.fresh("keys")
        elem = self.names.fresh("elem")
        body = substitute(key.body, {key.params[0]: Var(elem)})
        self.writer.line(
            f"{keys} = [_native_key({printer.emit(body)}) "
            f"for {elem} in {objs_var}]"
        )
        arr = self.names.fresh("karr")
        self.writer.line(f"{arr} = _np.asarray({keys})")
        return arr

    def _stage_objects_and_keys(
        self, ordinal: int, predicates: List[Lambda], key_lambdas: List[Lambda]
    ) -> Tuple[str, List[str]]:
        """Managed loop retaining objects and collecting native key lists."""
        printer = self._printer()
        objs = self.names.fresh("objs")
        key_lists = [self.names.fresh("keys") for _ in key_lambdas]
        self.writer.line(f"{objs} = []")
        for kl in key_lists:
            self.writer.line(f"{kl} = []")
        elem = self.names.fresh("elem")
        with self.writer.block(f"for {elem} in sources[{ordinal}]:"):
            emitters = []
            for lam in key_lambdas:
                body = substitute(lam.body, {lam.params[0]: Var(elem)})
                emitters.append(printer.emit(body))
            appends = [f"{objs}.append({elem})"] + [
                f"{kl}.append(_native_key({code}))"
                for kl, code in zip(key_lists, emitters)
            ]
            if predicates:
                parts = [
                    printer.emit(substitute(p.body, {p.params[0]: Var(elem)}))
                    for p in predicates
                ]
                with self.writer.block(f"if {' and '.join(parts)}:"):
                    for line in appends:
                        self.writer.line(line)
            else:
                for line in appends:
                    self.writer.line(line)
        return objs, key_lists

    def _emit_post_ops(self, element_code: str, post_ops: List[Tuple[str, Lambda]]):
        """Apply trailing filters/projections in managed code, then yield."""
        printer = self._printer()
        current = self.names.fresh("out")
        self.writer.line(f"{current} = {element_code}")
        for op, lam in post_ops:
            body = substitute(lam.body, {lam.params[0]: Var(current)})
            if op == "filter":
                with self.writer.block(f"if not ({printer.emit(body)}):"):
                    self.writer.line("continue")
            else:
                nxt = self.names.fresh("out")
                self.writer.line(f"{nxt} = {printer.emit(body)}")
                current = nxt
        self.writer.line(f"yield {current}")

    # -- sort / top-N -------------------------------------------------------------------

    def _emit_sort_min(self, node: Plan, post_ops: List[Tuple[str, Lambda]]) -> None:
        objs = self._materialize_min(node.child)
        arrays = [self._key_array(objs, key) for key in node.keys]
        dirs = repr(tuple(node.descending))
        order = self.names.fresh("order")
        if isinstance(node, TopN):
            count_code = self._printer().emit(node.count)
            self.writer.line(
                f"{order} = _topn_indexes(({', '.join(arrays)},), {dirs}, {count_code})"
            )
        else:
            self.writer.line(
                f"{order} = _sort_indexes(({', '.join(arrays)},), {dirs})"
            )
        i = self.names.fresh("i")
        with self.writer.block(f"for {i} in {order}:"):
            self._emit_post_ops(f"{objs}[{i}]", post_ops)

    # -- join ---------------------------------------------------------------------------

    def _emit_join_min(self, node: Join, post_ops: List[Tuple[str, Lambda]]) -> None:
        printer = self._printer()

        def consume(lo: str, ro: str) -> None:
            result_body = substitute(
                node.result.body,
                {node.result.params[0]: Var(lo), node.result.params[1]: Var(ro)},
            )
            self._emit_post_ops(printer.emit(result_body), post_ops)

        self._emit_join_matches(node, consume)


def _native_key(value: Any) -> Any:
    """Convert a managed key value to its native (sortable) form."""
    if isinstance(value, datetime.date):
        return date_to_days(value)
    return value
