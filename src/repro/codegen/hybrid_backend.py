"""§6 — combining host-language and native code.

Arbitrary object collections cannot be handed to native code, so the
generated program has two halves:

* a **managed staging loop** (plain Python over the objects) that applies
  every scan-adjacent filter and copies exactly the fields the rest of the
  query needs (the implicit projection of §6.2) into a native page.  Its
  row tuple encodes strings and dates inline, with no per-row helper
  frame; one check per string column turns an overflow into an error,
  and one ``np.fromiter`` pass builds the page (:func:`_native_page`);
* the **native half** — the same vectorized NumPy codegen as the §5
  backend — running over the staged arrays.

Both halves are derived from the shared pipeline IR
(:mod:`repro.codegen.ir`): every scan-driven pipeline's leading
scan-adjacent filters become the managed staging predicates, its staging
layout comes from the shared required-fields pass, and the rest of the
pipeline chain lowers through the same frame/kernel emitter as the native
backend.  That emitter is an :class:`~repro.codegen.source.EmitState`, so
the staging loop's printer, params and elision verdicts are the module's
own; this module adds staging code and the helpers of its ``RUNTIME``.
Each pipeline thus has a *placement*: scan-driven pipelines start managed
(staging) and finish native; breaker-driven pipelines are fully native.

Materialization policy (paper §6.1):

* ``buffered=False`` → full materialization: each source is staged into
  one array and the native half runs once, after staging.
* ``buffered=True`` → one reusable page of ``page_bytes``; the native
  half's *first blocking operator* consumes each page as it fills
  (streaming group/scalar aggregation, streaming join probe).  Plans whose
  first native operator cannot stream fall back to full materialization —
  exactly the paper's concession that "we would rather copy everything to
  unmanaged memory before processing it in C".

Result construction (paper §6): results are decoded from native arrays
(Max), except where a source element escapes whole — is returned, or
embedded in a join or projection result.  Such a source also lists its
kept objects managed-side, and each element crosses as its row index
(:data:`~repro.codegen.ir.ROW`), one more column the native half carries
through filters, joins, sorts, top-N and limits; delivery looks the
objects back up, so results are the source objects themselves (Min), and
a result of whole elements gathers the index alone.  An element an
operator compares or hashes stays refused.  ``minimal=True`` also reads
a result field copied straight from an element off the object at
delivery, through the one index column of its source.  A plan that
stages an index is staged fully and emits no morsel-parameterized
kernels.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import SchemaError, UnsupportedQueryError
from ..expressions.nodes import Expr, Lambda, Member, New, Var
from ..expressions.visitor import substitute
from ..plans.logical import (
    Filter,
    FlatMap,
    GroupAggregate,
    GroupBy,
    Join,
    Plan,
    Scan,
    ScalarAggregate,
    plan_children,
)
from ..runtime.streaming import StreamingGroupAggregator, StreamingJoinProbe
from ..storage.buffers import DEFAULT_PAGE_BYTES
from ..storage.schema import EPOCH, Schema
from .ir import (
    ROW,
    Pipeline,
    PipelineBreaker,
    QueryIR,
    morsel_slice,
    physical_slots,
    required_source_fields,
    strip_scan_filters,
)
from .mapping import StagedSource, staged_schema_for
from .native_backend import (
    ColumnRef,
    Frame,
    VectorPrinter,
    _outside_fragment,
    _preserves_rows,
    _VectorEmitter,
)
from .source import Backend

__all__ = ["HybridBackend"]


def _native_page(
    rows: list, dtype: np.dtype, widths: Tuple[Tuple[int, int], ...]
) -> np.ndarray:
    """Copy staged rows into one native page (§6.1.1).

    ``np.fromiter`` would cut a string past its ``S{w}`` field, so each
    string column's longest encoded value is checked against its staged
    width first; *widths* holds ``(tuple position, w)`` per string field.
    """
    if any(
        max(map(len, map(itemgetter(position), rows)), default=0) > width
        for position, width in widths
    ):
        for row in rows:  # name the first overflowing element, as staged
            for position, width in widths:
                if len(row[position]) > width:
                    raise SchemaError(
                        f"string {row[position].decode('utf-8')!r} exceeds the "
                        f"staged width {width}; the sampled schema "
                        f"underestimated this field"
                    )
    return np.fromiter(rows, dtype, count=len(rows))


def _string_widths(schema: Schema) -> Tuple[Tuple[int, int], ...]:
    """``(tuple position, w)`` of each string field of a staged row."""
    return tuple((i, f.size) for i, f in enumerate(schema.fields) if f.kind == "str")


class HybridBackend(Backend):
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

    def emitter(self, ir: QueryIR, sources: Sequence[Any]) -> "_HybridEmitter":
        staged, peeled = _staging_from_ir(ir, defer=self.minimal)
        if ir.morsel_ordinal is not None and any(s.carries for s in staged.values()):
            raise UnsupportedQueryError(
                "the hybrid engine emits no morsel-parameterized kernels for "
                "plans that stage row indexes (their staging loop is "
                "generated Python)"
            )
        for ordinal, spec in staged.items():
            if spec.fields:  # field-less sources only stage a count
                spec.schema = staged_schema_for(sources[ordinal], spec)
        return _HybridEmitter(ir, staged, peeled, self.buffered, self.page_bytes)


def _whole_elements(ordinal: int) -> UnsupportedQueryError:
    return UnsupportedQueryError(
        f"the query uses whole elements of source_{ordinal} beyond the "
        f"staging boundary; the hybrid engine requires flat field access "
        f"(use the compiled engine)"
    )


def _row_ref(kind: str) -> Optional[Tuple[int, Optional[str]]]:
    """(ordinal, field) of a row-index column's kind ``row:<ordinal>``, or
    ``row:<ordinal>:<field>`` for one field read off the object; None for
    a native kind."""
    if not kind.startswith("row:"):
        return None
    _, ordinal, *field = kind.split(":")
    return int(ordinal), field[0] if field else None


def _refuse_carried(col: Optional[ColumnRef]) -> None:
    """A row-index column cannot stand in where values are computed with."""
    ref = _row_ref(col.kind) if col is not None else None
    if ref is not None:
        raise _whole_elements(ref[0])


def _gather_objects(objects: list, index: np.ndarray, field: Optional[str] = None):
    """The kept objects a row-index column addresses, or one field of each."""
    found = map(objects.__getitem__, index.tolist())
    return list(found if field is None else map(attrgetter(field), found))


def _staging_from_ir(
    ir: QueryIR, defer: bool = False
) -> Tuple[Dict[int, StagedSource], Dict[int, int]]:
    """Derive the staging specs from the shared IR.

    A scan-driven pipeline's leading scan-adjacent filters run managed-side
    (they are *peeled* out of the native chain), and the staging buffer
    copies exactly the fields the rest of the plan reads — the implicit
    projection of §6.2, computed by the shared required-fields pass —
    plus the row index where whole elements escape.  Returns the specs
    plus pid → peeled-op count.
    """
    # the native half has no form for these nodes; name them before the
    # whole-element check below, which their outputs would trip first
    chained = [op for p in ir.pipelines for op in p.operators]
    for node in chained + [b.node for b in ir.breakers]:
        if isinstance(node, (FlatMap, GroupBy)):
            raise _outside_fragment(node)
    stripped, _ = strip_scan_filters(ir.plan)
    required = required_source_fields(stripped, ir.cse, carry=True, defer=defer)
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
        fields = required.get(ordinal, set())
        if fields is None:
            raise _whole_elements(ordinal)
        if ordinal not in staged:
            staged[ordinal] = StagedSource(
                ordinal=ordinal,
                predicates=tuple(predicates),
                fields=tuple(sorted(fields - {ROW})),
                carries=ROW in fields,
            )
    return staged, peeled


class _StagedPrinter(VectorPrinter):
    """Vector printer over staged frames: a row-index column is carried
    into results (:meth:`_HybridEmitter._output_column`), never computed
    with — comparing, hashing or reading through an element refuses."""

    def _emit(self, expr: Expr) -> str:
        if isinstance(expr, Var):
            self._refuse_rows(expr)
        return super()._emit(expr)

    def _resolve_var(self, expr: Member) -> Tuple[Frame, Optional[str]]:
        self._refuse_rows(expr)
        return super()._resolve_var(expr)

    def _refuse_rows(self, expr: Expr) -> None:
        while isinstance(expr, Member) and isinstance(expr.target, Member):
            expr = expr.target  # a field read through a carried element
        owner = expr.target if isinstance(expr, Member) else expr
        frame, _ = self.env.get(getattr(owner, "name", None), (None, None))
        if frame is not None:
            col = frame.columns.get(expr.name) if isinstance(expr, Member) else None
            _refuse_carried(col or frame.columns.get(Frame.SINGLE))


class _HybridEmitter(_VectorEmitter):
    """Vector emitter whose scan-driven pipelines start managed.

    Scans read staged arrays instead of sources; the peeled leading
    filters of each pipeline become the staging loop's predicate.
    """

    printer_type = _StagedPrinter

    RUNTIME: Dict[str, Any] = dict(
        _VectorEmitter.RUNTIME,
        _StreamingGroupAggregator=StreamingGroupAggregator,
        _StreamingJoinProbe=StreamingJoinProbe,
        _native_page=_native_page,
        _EPOCH=EPOCH,
        _morsel_slice=morsel_slice,
    )

    def __init__(
        self,
        ir: QueryIR,
        staged: Dict[int, StagedSource],
        peeled: Dict[int, int],
        buffered: bool,
        page_bytes: int,
    ):
        schemas = {ordinal: spec.schema for ordinal, spec in staged.items()}
        super().__init__(ir, schemas)
        self._staged = staged
        self._peeled = peeled
        self._buffered = buffered
        self._page_bytes = page_bytes
        #: ordinal → ("array", var) or ("count", var)
        self._bindings: Dict[int, Tuple[str, str]] = {}
        #: ordinal → (kept-objects list, row-index column) of carrying sources
        self._kept: Dict[int, Tuple[str, str]] = {}
        #: gathered row-index code → the one vector every result field
        #: read through that index shares
        self._row_vectors: Dict[str, str] = {}
        self._stream_node: Optional[Plan] = None
        self._stream_ordinal: Optional[int] = None

    def _emit_body(self) -> None:
        if self._buffered and not any(s.carries for s in self._staged.values()):
            self._stream_node, self._stream_ordinal = _find_stream_target(
                self.ir.plan, self._staged
            )
        for ordinal, spec in sorted(self._staged.items()):
            if ordinal == self._stream_ordinal:
                continue  # staged page-by-page inside the stream operator
            self._emit_full_staging(spec)
        super()._emit_body()

    # -- staging ---------------------------------------------------------------

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
        printer = self.scalar_printer()
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
                parts.append(f"{access}.encode()")
            elif field.kind == "date":
                parts.append(f"({access} - _EPOCH).days")
            else:
                parts.append(access)
        trailing = "," if len(parts) == 1 else ""
        return f"({', '.join(parts)}{trailing})"

    def _page_args(self, spec: StagedSource) -> str:
        """The page dtype and string widths :func:`_native_page` takes."""
        dtype = self.bind(spec.schema.numpy_dtype(), "dtype")
        return f"{dtype}, {_string_widths(spec.schema)!r}"

    def _staging_loop(
        self, spec: StagedSource, elem: str, predicate, emit_stage
    ) -> None:
        """The managed loop over one source: the peeled predicate (and its
        CSE bindings), then *emit_stage* for each kept element."""
        morsel = spec.ordinal == self.ir.morsel_ordinal
        source = self.morsel_source(spec.ordinal, morsel)
        with self.writer.block(f"for {elem} in {source}:"):
            if predicate:
                lines, test = predicate
                self.writer.lines(lines)
                with self.writer.block(f"if {test}:"):
                    emit_stage()
            else:
                emit_stage()

    def _emit_full_staging(self, spec: StagedSource) -> None:
        """Stage one source completely into one array (§6.1.1)."""
        # staging precedes every pipeline (and can dominate the runtime),
        # so it gets its own cancellation checkpoint
        self.cancel_point()
        elem = self.names.fresh("elem")
        predicate = self._staging_predicate(spec, elem)
        stage: List[str] = []  # the statements run per kept element
        if spec.fields:
            page_args = self._page_args(spec)
            rows = self.names.fresh("rows")
            append = self.names.fresh("append")
            self.writer.line(f"{rows} = []")
            self.writer.line(f"{append} = {rows}.append")
            stage.append(f"{append}({self._encoded_fields(spec, elem)})")
        if spec.carries:
            objs = self.names.fresh("objs")
            keep = self.names.fresh("keep")
            self.writer.line(f"{objs} = []")
            self.writer.line(f"{keep} = {objs}.append")
            stage.append(f"{keep}({elem})")
        if not stage:
            # nothing to copy: only the qualifying-row count survives
            counter = self.names.fresh("count")
            self.writer.line(f"{counter} = 0")
            stage.append(f"{counter} += 1")
        self._staging_loop(spec, elem, predicate, lambda: self.writer.lines(stage))
        if spec.carries:
            row = self.names.fresh("row")
            self.writer.line(f"{row} = _np.arange(len({objs}))")
            self._kept[spec.ordinal] = (objs, row)
        if not spec.fields:
            length = f"{row}.shape[0]" if spec.carries else counter
            self._bindings[spec.ordinal] = ("count", length)
            return
        staged_var = self.names.fresh("staged")
        self.writer.line(f"{staged_var} = _native_page({rows}, {page_args})")
        self._bindings[spec.ordinal] = ("array", staged_var)

    def _emit_streaming_staging(self, spec: StagedSource, consumer: str) -> None:
        """Stage one source page-by-page through *consumer* (§6.1.2).

        One page worth of rows accumulates managed-side; filling it
        triggers the bulk copy to native memory plus the consumer call, so
        the staging footprint stays fixed at one page.
        """
        page_args = self._page_args(spec)
        capacity = max(1, self._page_bytes // spec.schema.struct_size())
        page = self.names.fresh("page")
        append = self.names.fresh("append")
        self.writer.line(f"{page} = []")
        self.writer.line(f"{append} = {page}.append")
        elem = self.names.fresh("elem")
        predicate = self._staging_predicate(spec, elem)

        def emit_stage() -> None:
            self.writer.line(f"{append}({self._encoded_fields(spec, elem)})")
            with self.writer.block(f"if len({page}) >= {capacity}:"):
                self.writer.line(f"{consumer}(_native_page({page}, {page_args}))")
                self.writer.line(f"del {page}[:]")

        self._staging_loop(spec, elem, predicate, emit_stage)
        with self.writer.block(f"if {page}:"):
            self.writer.line(f"{consumer}(_native_page({page}, {page_args}))")

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
            frame = Frame({}, var)
        else:
            schema = self._staged[scan.ordinal].schema
            columns = {
                f.name: ColumnRef(f"{var}[{f.name!r}]", f.kind)
                for f in schema.fields
                if needed is None or f.name in needed
            }
            frame = Frame(columns, f"{var}.shape[0]")
        if scan.ordinal in self._kept:
            _, row = self._kept[scan.ordinal]
            frame.columns[ROW] = ColumnRef(row, f"row:{scan.ordinal}")
        return frame

    # -- row indexes: whole elements carried through the native half ---------------

    def _materialize(
        self, frame: Frame, suffix: str, needed: Optional[Set[str]]
    ) -> Frame:
        if needed is not None and ROW in frame.columns:
            needed = needed | {ROW}  # the element travels with its fields
        return super()._materialize(frame, suffix, needed)

    def _concat_frames(self, frames: List[Frame]) -> Frame:
        if len(frames) > 1:  # indexes into different object lists
            for frame in frames:
                for col in frame.columns.values():
                    _refuse_carried(col)
        return super()._concat_frames(frames)

    def _output_column(self, expr: Expr, printer: VectorPrinter) -> ColumnRef:
        """A whole element a result embeds crosses as its row index; so
        does a field copied from one that no native operator reads (it was
        not staged: ``minimal``), read off the object at delivery."""
        if isinstance(expr, Var):
            owner, name = expr, ROW
        elif isinstance(expr, Member) and isinstance(expr.target, Var):
            owner, name = expr.target, expr.name
        else:
            return super()._output_column(expr, printer)
        frame, index = printer.env.get(owner.name, (None, None))
        if frame is None:
            return super()._output_column(expr, printer)
        if name == ROW and frame.is_single:
            name = Frame.SINGLE
        col = frame.columns.get(name)
        if col is None and ROW in frame.columns:
            row = frame.columns[ROW]
            col = ColumnRef(row.code, f"{row.kind}:{name}")
        if col is None or _row_ref(col.kind) is None:
            return super()._output_column(expr, printer)
        code = printer._gather(col.code, index)
        if code not in self._row_vectors:
            self._row_vectors[code] = self._vector(code)
        return ColumnRef(self._row_vectors[code], col.kind)

    def _sink_demand(self, pipeline: Pipeline) -> Optional[Set[str]]:
        """Whole elements are delivered by their row index alone."""
        if pipeline.sink is None and _preserves_rows(self.ir.plan):
            if any(spec.carries for spec in self._staged.values()):
                return {ROW}
        return super()._sink_demand(pipeline)

    def _result_columns(
        self, frame: Frame, paths: Set[str]
    ) -> Optional[Set[str]]:
        if ROW not in frame.columns:
            return super()._result_columns(frame, paths)
        fields = {path.split(".")[0] for path in paths}
        return {f if f in frame.columns else ROW for f in fields}

    def _default_codes(
        self, op: Join, right: Frame, right_needed: Set[str]
    ) -> Dict[str, str]:
        """An unmatched probe row pairs with the default element: it is
        appended to the build side's kept objects, where the row index of
        an unmatched row points."""
        flat = right_needed - {ROW}
        for name in flat:  # no default stands in for a carried column
            _refuse_carried(right.column(name))
        codes = super()._default_codes(op, right, flat) if flat else {}
        if ROW in right_needed:
            objs, _ = self._kept[_row_ref(right.columns[ROW].kind)[0]]
            codes[ROW] = self.names.fresh("dflt")
            self.writer.line(f"{codes[ROW]} = len({objs})")
            default = self.scalar_printer().emit(op.default)
            self.writer.line(f"{objs}.append({default})")
        return codes

    def _emit_result(self, frame: Frame, whole_rows: bool = False) -> str:
        """Results carrying row indexes look the kept objects back up."""
        if ROW in frame.columns:  # the source elements themselves
            return self._look_up(frame.columns[ROW])
        columns = {
            name: ColumnRef(self._look_up(col), "object")
            if _row_ref(col.kind)
            else col
            for name, col in frame.columns.items()
        }
        return super()._emit_result(Frame(columns, frame.length_code))

    def _look_up(self, col: ColumnRef) -> str:
        ordinal, field = _row_ref(col.kind)
        objs, _ = self._kept[ordinal]
        self.namespace["_gather_objects"] = _gather_objects
        extra = f", {field!r}" if field is not None else ""
        return f"_gather_objects({objs}, {col.code}{extra})"

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
                if self.elide.avg:
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
