"""§5 — substituting native (vectorized NumPy) code for the host language.

When the source data lives in :class:`~repro.storage.struct_array.StructArray`
(fixed-layout arrays of structs, no references), the entire query can run
in the native runtime.  The generated source is straight-line NumPy: inline
vectorized expressions plus calls into the compiled kernels of
:mod:`repro.runtime.vectorized` — no per-element Python between kernel
calls, mirroring "all query processing is performed in C without any data
staging".

The paper restricts this engine (§5): only supported flat value types, no
calls to application methods, no references in intermediate results.  The
same restrictions hold here and are enforced at code-generation time with
:class:`~repro.errors.UnsupportedQueryError` — queries outside the fragment
must use the compiled or hybrid engines.

Codegen model: the backend lowers the shared pipeline IR
(:mod:`repro.codegen.ir`).  Every pipeline maps to a frame/kernel
sequence: the driver yields a *frame* — a set of named, symbolic column
expressions plus a row-count expression — the chain operators transform
it, and the sink either materializes a :class:`~repro.codegen.ir.
PipelineBreaker` (one kernel call: sort/top-N/distinct indexes, grouped
aggregation, join build) or delivers the terminal result.  Materializing
operators produce exactly the columns their consumers need — the demand
sets are propagated over the IR DAG with the shared required-fields
analysis (the same pass that drives §6's implicit projection).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from functools import reduce
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ExecutionError, UnsupportedQueryError
from ..runtime.guards import ensure_nonzero_array
from ..expressions.analysis import conjuncts
from ..expressions.nodes import (
    Binary,
    Call,
    Conditional,
    Constant,
    Expr,
    Lambda,
    Member,
    Method,
    New,
    Param,
    Unary,
    Var,
)
from ..expressions.evaluator import make_record_type
from ..plans.logical import (
    AggregateSpec,
    Concat,
    Distinct,
    Filter,
    GroupAggregate,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    ScalarAggregate,
    SetOp,
    Sort,
    TopN,
    plan_children,
)
from ..runtime import vectorized as _vec
from ..runtime.cancellation import cancel_check
from ..storage.schema import Schema, date_to_days, days_to_date
from ..storage.struct_array import StructArray
from .ir import (
    Pipeline,
    PipelineBreaker,
    QueryIR,
    lambda_fields,
    lambda_usage,
    merge_fields,
    paths_to_fields,
)
from .source import Backend, EmitState

__all__ = ["NativeBackend", "VectorPrinter", "ColumnRef", "Frame", "schema_for_sources"]

_BOOL_OPS = {"eq", "ne", "lt", "le", "gt", "ge", "and", "or"}

#: kinds whose numpy arithmetic widens to int64
_INT_FAMILY = {"int", "int32", "bool"}
_NUMERIC_RESULT = {"add", "sub", "mul", "truediv", "floordiv", "mod", "pow"}


@dataclass
class ColumnRef:
    """One symbolic column: a NumPy source expression plus a value kind."""

    code: str
    kind: str  # int / int32 / float / bool / str / date / unknown


@dataclass
class Frame:
    """Symbolic result of a plan stage: named columns + a row count."""

    columns: Dict[str, ColumnRef]
    length_code: str

    SINGLE = "__value"

    @property
    def is_single(self) -> bool:
        return list(self.columns) == [Frame.SINGLE]

    def column(self, name: str) -> ColumnRef:
        try:
            return self.columns[name]
        except KeyError:
            raise UnsupportedQueryError(
                f"native frame has no column {name!r}; available: "
                f"{sorted(self.columns)}"
            ) from None


def schema_for_sources(sources: Sequence[Any]) -> List[Schema]:
    """Validate that every source is a StructArray and collect schemas."""
    schemas = []
    for i, source in enumerate(sources):
        if not isinstance(source, StructArray):
            raise UnsupportedQueryError(
                f"the native engine requires StructArray sources; source_{i} "
                f"is {type(source).__name__} (use the compiled or hybrid "
                f"engine for object collections)"
            )
        schemas.append(source.schema)
    return schemas


class VectorPrinter:
    """Renders scalar expressions as vectorized NumPy source.

    ``env`` maps lambda variable names to ``(frame, index_code)``: member
    access becomes a column expression, optionally gathered through an
    index array (used on join outputs).  Comparisons against ``str`` /
    ``date`` columns coerce the scalar operand to the native representation
    (bytes / days-since-epoch), at codegen time for constants and via
    ``_coerce_*`` helpers for parameters.
    """

    #: wrap divisors in ``_nz`` (raises on any zero) unless the dataflow
    #: pass proved every divisor in the query nonzero
    guard_divisions = True

    def __init__(
        self,
        env: Dict[str, Tuple[Frame, Optional[str]]],
        param_render,
        namespace: Dict[str, Any],
    ):
        self.env = env
        self._param_render = param_render
        self.namespace = namespace

    # -- kinds ------------------------------------------------------------------

    def kind_of(self, expr: Expr) -> str:
        if isinstance(expr, Member):
            frame, _ = self._resolve_var(expr)
            return frame.column(expr.name).kind
        if isinstance(expr, Var):
            frame, _ = self.env.get(expr.name, (None, None))
            if frame is not None and frame.is_single:
                return frame.column(Frame.SINGLE).kind
            return "unknown"
        if isinstance(expr, Constant):
            return _kind_of_value(expr.value)
        if isinstance(expr, Binary):
            if expr.op in _BOOL_OPS:
                return "bool"
            left, right = self.kind_of(expr.left), self.kind_of(expr.right)
            if expr.op == "truediv" or "float" in (left, right):
                return "float"
            if left in _INT_FAMILY and right in _INT_FAMILY:
                # int32 + int32 etc. widen to int64 under numpy arithmetic
                return "int"
            if left == "int" or right == "int":
                return "int"
            return "unknown"
        if isinstance(expr, Unary):
            return "bool" if expr.op == "not" else self.kind_of(expr.operand)
        if isinstance(expr, Conditional):
            then = self.kind_of(expr.then)
            return then if then != "unknown" else self.kind_of(expr.other)
        if isinstance(expr, Method):
            if expr.name in ("lower", "upper", "strip"):
                return "str"
            return "bool"
        if isinstance(expr, Call):
            return "float" if expr.name in ("float", "round") else "unknown"
        return "unknown"

    # -- emission -----------------------------------------------------------------

    def emit(self, expr: Expr, coerce_to: Optional[str] = None) -> str:
        code = self._emit(expr)
        if coerce_to in ("str", "date") and not self._already_native(expr):
            code = self._wrap_coercion(expr, code, coerce_to)
        return code

    @staticmethod
    def _already_native(expr: Expr) -> bool:
        """Columns and vectorized string-method results are already in the
        native representation (bytes / days); everything else — constants,
        parameters, computed scalars — needs coercion."""
        return isinstance(expr, (Member, Method))

    def _wrap_coercion(self, expr: Expr, code: str, target_kind: str) -> str:
        if isinstance(expr, Constant):
            return repr(_encode_constant(expr.value, target_kind))
        helper = "_coerce_str" if target_kind == "str" else "_coerce_date"
        return f"{helper}({code})"

    def _emit(self, expr: Expr) -> str:
        if isinstance(expr, Constant):
            value = expr.value
            if isinstance(value, (int, float, bool, str, bytes)):
                return repr(value)
            if isinstance(value, datetime.date):
                return repr(date_to_days(value))
            raise UnsupportedQueryError(
                f"constant of type {type(value).__name__} is not representable "
                f"in native code"
            )
        if isinstance(expr, Param):
            return self._param_render(expr.name)
        if isinstance(expr, Var):
            frame, index = self.env.get(expr.name, (None, None))
            if frame is None:
                raise UnsupportedQueryError(f"unbound variable {expr.name!r}")
            if frame.is_single:
                return self._gather(frame.column(Frame.SINGLE).code, index)
            raise UnsupportedQueryError(
                "native code cannot manipulate whole records as values; "
                "access their fields instead (the §5 'no references' rule)"
            )
        if isinstance(expr, Member):
            frame, index = self._resolve_var(expr)
            return self._gather(frame.column(expr.name).code, index)
        if isinstance(expr, Binary):
            return self._emit_binary(expr)
        if isinstance(expr, Unary):
            if expr.op == "not":
                return f"(~({self._emit(expr.operand)}))"
            if expr.op == "abs":
                return f"_np.abs({self._emit(expr.operand)})"
            token = "-" if expr.op == "neg" else "+"
            return f"({token}{self._emit(expr.operand)})"
        if isinstance(expr, Conditional):
            return (
                f"_np.where({self._emit(expr.cond)}, "
                f"{self._emit(expr.then)}, {self._emit(expr.other)})"
            )
        if isinstance(expr, Method):
            return self._emit_method(expr)
        if isinstance(expr, Call):
            if expr.name == "abs":
                return f"_np.abs({self._emit(expr.args[0])})"
            raise UnsupportedQueryError(
                f"function {expr.name!r} has no vectorized form"
            )
        if isinstance(expr, New):
            raise UnsupportedQueryError(
                "record construction must be handled by the frame builder, "
                "not the vector printer"
            )
        raise UnsupportedQueryError(
            f"cannot vectorize expression node {type(expr).__name__}"
        )

    def _emit_binary(self, expr: Binary) -> str:
        left_kind = self.kind_of(expr.left)
        right_kind = self.kind_of(expr.right)
        coerce = None
        if left_kind in ("str", "date") or right_kind in ("str", "date"):
            coerce = left_kind if left_kind in ("str", "date") else right_kind
        left = self.emit(expr.left, coerce_to=coerce)
        right = self.emit(expr.right, coerce_to=coerce)
        token = {
            "and": "&",
            "or": "|",
            "eq": "==",
            "ne": "!=",
            "lt": "<",
            "le": "<=",
            "gt": ">",
            "ge": ">=",
            "add": "+",
            "sub": "-",
            "mul": "*",
            "truediv": "/",
            "floordiv": "//",
            "mod": "%",
            "pow": "**",
        }[expr.op]
        if self.guard_divisions and expr.op in ("truediv", "floordiv", "mod"):
            self.namespace.setdefault("_nz", ensure_nonzero_array)
            return f"({left} {token} _nz({right}))"
        return f"({left} {token} {right})"

    def _emit_method(self, expr: Method) -> str:
        target = self._emit(expr.target)
        target_kind = self.kind_of(expr.target)
        args = [
            self.emit(a, coerce_to="str" if target_kind == "str" else None)
            for a in expr.args
        ]
        if expr.name == "startswith":
            return f"_np.char.startswith({target}, {args[0]})"
        if expr.name == "endswith":
            return f"_np.char.endswith({target}, {args[0]})"
        if expr.name == "contains":
            return f"(_np.char.find({target}, {args[0]}) >= 0)"
        if expr.name in ("lower", "upper", "strip"):
            return f"_np.char.{expr.name}({target})"
        raise UnsupportedQueryError(f"method {expr.name!r} has no vectorized form")

    def _resolve_var(self, expr: Member) -> Tuple[Frame, Optional[str]]:
        target = expr.target
        if isinstance(target, Member):
            raise UnsupportedQueryError(
                f"nested member access {expr.name!r} is not representable in "
                f"the flat native layout (the §5 'no references' rule)"
            )
        if not isinstance(target, Var):
            raise UnsupportedQueryError(
                "member access on a computed value is not supported natively"
            )
        frame_index = self.env.get(target.name)
        if frame_index is None:
            raise UnsupportedQueryError(f"unbound variable {target.name!r}")
        return frame_index

    @staticmethod
    def _gather(code: str, index: Optional[str]) -> str:
        return f"{code}[{index}]" if index else code


def _kind_of_value(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, (str, bytes)):
        return "str"
    if isinstance(value, datetime.date):
        return "date"
    return "unknown"


def _encode_constant(value: Any, target_kind: str) -> Any:
    if target_kind == "str" and isinstance(value, str):
        return value.encode("utf-8")
    if target_kind == "date" and isinstance(value, datetime.date):
        return date_to_days(value)
    return value


class NativeBackend(Backend):
    """Lowers the pipeline IR into vectorized NumPy source."""

    name = "native"

    def emitter(self, ir: QueryIR, sources: Sequence[Any]) -> "_VectorEmitter":
        return _VectorEmitter(ir, schema_for_sources(sources), exemplars=sources)


def _empty_aggregate_error():
    return ExecutionError("aggregate of an empty sequence has no value")


class _VectorEmitter(EmitState):
    """Walks the IR pipelines in schedule order, one frame sequence each."""

    printer_type = VectorPrinter

    #: runtime helpers every vector module's namespace binds
    RUNTIME: Dict[str, Any] = dict(
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
        _view_rows=_vec.view_rows,
        _coerce_str=_vec.coerce_str,
        _coerce_date=_vec.coerce_date,
        _EmptyAggregateError=_empty_aggregate_error,
        _days_to_date=days_to_date,
        _cancel_check=cancel_check,
    )

    def __init__(self, ir: QueryIR, schemas, exemplars: Sequence[Any] = ()):
        super().__init__(ir)
        self._schemas = schemas
        self._exemplars = exemplars
        #: breaker bid → frames fed by its producer pipelines
        self._feeds: Dict[int, List[Frame]] = {}
        #: breaker bid → materialized output frame (memoized)
        self._breaker_frames: Dict[int, Frame] = {}
        #: frames of terminal (sink-less) pipelines, concatenated at the end
        self._terminal_frames: List[Frame] = []
        self._demand_cache: Dict[int, List[Optional[Set[str]]]] = {}

    def _emit_body(self) -> None:
        for pipeline in self.ir.pipelines:
            self._emit_pipeline(pipeline)
        if self.ir.scalar:
            self.writer.line(f"return {self._scalar_result(self.ir.plan)}")
        else:
            frame = self._concat_frames(self._terminal_frames)
            whole_rows = _preserves_rows(self.ir.plan)
            self.writer.line(f"return {self._emit_result(frame, whole_rows)}")

    def _printer(self, env: Dict[str, Tuple[Frame, Optional[str]]]) -> VectorPrinter:
        return self.scalar_printer(self.printer_type, env)

    # -- frame helpers -------------------------------------------------------------

    def _materialize(
        self, frame: Frame, suffix: str, needed: Optional[Set[str]]
    ) -> Frame:
        """Apply an index/mask/slice to the needed columns, assigning vars
        (once per vector several columns share)."""
        columns = {}
        done: Dict[str, str] = {}
        for name, col in frame.columns.items():
            if needed is not None and name not in needed:
                continue
            var = done.get(col.code)
            if var is None:
                var = done[col.code] = self.names.fresh("col")
                self.writer.line(f"{var} = {col.code}{suffix}")
            columns[name] = ColumnRef(var, col.kind)
        if columns:
            first = next(iter(columns.values()))
            length = f"{first.code}.shape[0]"
        else:
            length = frame.length_code  # caller must override when it shrinks
        return Frame(columns, length)

    def _vector(self, code: str) -> str:
        var = self.names.fresh("vec")
        self.writer.line(f"{var} = {code}")
        return var

    def _concat_frames(self, frames: List[Frame]) -> Frame:
        """Merge producer frames column-wise (the Concat path of the IR)."""
        if not frames:
            raise UnsupportedQueryError("pipeline produced no native frame")
        if len(frames) == 1:
            return frames[0]
        columns: Dict[str, ColumnRef] = {}
        for name, col in frames[0].columns.items():
            parts = ", ".join(f.column(name).code for f in frames)
            var = self.names.fresh("col")
            self.writer.line(f"{var} = _np.concatenate([{parts}])")
            columns[name] = ColumnRef(var, col.kind)
        if not columns:
            raise UnsupportedQueryError("concat of empty projections")
        first = next(iter(columns.values()))
        return Frame(columns, f"{first.code}.shape[0]")

    # -- demand propagation (shared required-fields pass over the IR DAG) -----------

    def _fields_of(
        self, lam: Lambda, param_index: int = 0
    ) -> Optional[Set[str]]:
        return lambda_fields(lam, param_index, self.ir.cse)

    def _demands(self, pipeline: Pipeline) -> List[Optional[Set[str]]]:
        """``demands[i]`` = fields needed of the frame entering operator *i*
        (``demands[0]`` is the demand on the driver frame, the last entry
        the demand on the pipeline's output)."""
        cached = self._demand_cache.get(pipeline.pid)
        if cached is not None:
            return cached
        need = self._sink_demand(pipeline)
        out: List[Optional[Set[str]]] = [need]
        for op in reversed(pipeline.operators):
            need = self._op_demand(op, need)
            out.append(need)
        out.reverse()
        self._demand_cache[pipeline.pid] = out
        return out

    def _op_demand(
        self, op: Plan, need: Optional[Set[str]]
    ) -> Optional[Set[str]]:
        if isinstance(op, Filter):
            return merge_fields(need, self._fields_of(op.predicate))
        if isinstance(op, Project):
            return self._fields_of(op.selector)
        if isinstance(op, Join):
            if op.kind in ("semi", "anti"):
                # existence probes pass the element through: keep the
                # downstream demand and add the probe key's fields
                return merge_fields(need, self._fields_of(op.left_key))
            usage = lambda_usage(op.result, self.ir.cse)
            left_fields = paths_to_fields(usage.get(op.result.params[0], set()))
            return merge_fields(left_fields, self._fields_of(op.left_key))
        if isinstance(op, SetOp):
            return None  # bag equality compares whole rows
        if isinstance(op, Limit):
            return need
        return None

    def _sink_demand(self, pipeline: Pipeline) -> Optional[Set[str]]:
        breaker = pipeline.sink
        if breaker is None:
            return None  # terminal results may take the whole-row path
        node = breaker.node
        if breaker.kind == "join-build":
            if node.kind in ("semi", "anti"):
                return self._fields_of(node.right_key)
            usage = lambda_usage(node.result, self.ir.cse)
            right_fields = paths_to_fields(
                usage.get(node.result.params[1], set())
            )
            return merge_fields(right_fields, self._fields_of(node.right_key))
        if breaker.kind == "setop-build":
            return None  # bag equality compares whole rows
        if breaker.kind == "group-aggregate":
            fields = self._fields_of(node.key)
            for spec in node.aggregates:
                if spec.selector is not None:
                    fields = merge_fields(fields, self._fields_of(spec.selector))
            return fields
        if breaker.kind == "scalar-aggregate":
            fields: Optional[Set[str]] = set()
            for spec in node.aggregates:
                if spec.selector is not None:
                    fields = merge_fields(fields, self._fields_of(spec.selector))
            return fields
        if breaker.kind in ("sort", "topn"):
            need = self._consumer_demand(breaker)
            for key in node.keys:
                need = merge_fields(need, self._fields_of(key))
            return need
        if breaker.kind == "distinct-materialize":
            return None  # distinct compares whole rows: every column participates
        raise _outside_fragment(node)

    def _consumer_demand(self, breaker: PipelineBreaker) -> Optional[Set[str]]:
        if breaker.consumer is None:
            return None
        return self._demands(self.ir.pipelines[breaker.consumer])[0]

    # -- pipeline emission ----------------------------------------------------------

    def _emit_pipeline(self, pipeline: Pipeline) -> None:
        if self._skip_pipeline(pipeline):
            return
        self.begin_pipeline(pipeline)
        demands = self._demands(pipeline)
        start, frame = self._pipeline_head(pipeline, demands)
        for i in range(start, len(pipeline.operators)):
            frame = self._apply_op(pipeline.operators[i], frame, demands[i + 1])
        self._deliver(pipeline, frame)

    def _skip_pipeline(self, pipeline: Pipeline) -> bool:
        return False  # hook for the hybrid streaming feeds

    def _pipeline_head(
        self, pipeline: Pipeline, demands: List[Optional[Set[str]]]
    ) -> Tuple[int, Frame]:
        """Emit the driver (plus any fused scan-adjacent fast path)."""
        ops = pipeline.operators
        if (
            isinstance(pipeline.driver, Scan)
            and ops
            and isinstance(ops[0], Filter)
            and isinstance(ops[0].child, Scan)
            and not pipeline.morsel_driver
        ):
            # the index/cluster fast paths re-read the whole source, so they
            # are disabled on the morsel-sliced driver scan
            opportunity = self._index_opportunity(ops[0])
            if opportunity is not None:
                return 1, self._emit_index_filter(ops[0], opportunity, demands[1])
            clustered = self._cluster_opportunity(ops[0])
            if clustered is not None:
                return 1, self._emit_cluster_filter(ops[0], clustered, demands[1])
        if isinstance(pipeline.driver, Scan):
            return 0, self._scan_frame(pipeline.driver, pipeline, demands[0])
        return 0, self._breaker_output(pipeline.driver, demands[0])

    def _deliver(self, pipeline: Pipeline, frame: Frame) -> None:
        if pipeline.sink is None:
            self._terminal_frames.append(frame)
        else:
            self._feeds.setdefault(pipeline.sink.bid, []).append(frame)

    def _scan_frame(
        self, scan: Scan, pipeline: Pipeline, needed: Optional[Set[str]]
    ) -> Frame:
        schema = self._schemas[scan.ordinal]
        src = self.names.fresh("src")
        source = self.morsel_source(scan.ordinal, pipeline.morsel_driver, data=True)
        self.writer.line(f"{src} = {source}")
        columns = {
            f.name: ColumnRef(f"{src}[{f.name!r}]", f.kind)
            for f in schema.fields
            if needed is None or f.name in needed
        }
        return Frame(columns, f"{src}.shape[0]")

    # -- pipelined (chain) operators -------------------------------------------------

    def _apply_op(
        self, op: Plan, frame: Frame, need: Optional[Set[str]]
    ) -> Frame:
        handler = getattr(self, f"_apply_{type(op).__name__}", None)
        if handler is None:
            raise _outside_fragment(op)
        return handler(op, frame, need)

    def _bind_cse(
        self, lam: Lambda, env: Dict[str, Tuple[Frame, Optional[str]]]
    ) -> Dict[str, Tuple[Frame, Optional[str]]]:
        """Emit this lambda's CSE bindings as vectors and extend the env."""
        for binding in self.ir.bindings_for(lam):
            printer = self._printer(env)
            var = self._vector(printer.emit(binding.expr))
            single = Frame(
                {Frame.SINGLE: ColumnRef(var, printer.kind_of(binding.expr))},
                f"{var}.shape[0]",
            )
            env = {**env, binding.name: (single, None)}
        return env

    def _apply_Filter(
        self, op: Filter, frame: Frame, need: Optional[Set[str]]
    ) -> Frame:
        (param,) = op.predicate.params
        env = self._bind_cse(op.predicate, {param: (frame, None)})
        printer = self._printer(env)
        mask = self._vector(printer.emit(op.predicate.body))
        out = self._materialize(frame, f"[{mask}]", need)
        if not out.columns:
            out.length_code = f"int({mask}.sum())"
        return out

    def _apply_Project(
        self, op: Project, frame: Frame, need: Optional[Set[str]]
    ) -> Frame:
        (param,) = op.selector.params
        env = self._bind_cse(op.selector, {param: (frame, None)})
        printer = self._printer(env)
        return self._build_output_frame(
            op.selector.body, printer, frame.length_code, need
        )

    def _apply_Join(
        self, op: Join, frame: Frame, need: Optional[Set[str]]
    ) -> Frame:
        """Probe the hash table materialized by this join's build pipeline."""
        breaker = self.ir.breaker_for(op)
        right = self._join_build_frame(breaker)
        lk = self._vector(
            self._printer({op.left_key.params[0]: (frame, None)}).emit(
                op.left_key.body
            )
        )
        rk = self._vector(
            self._printer({op.right_key.params[0]: (right, None)}).emit(
                op.right_key.body
            )
        )
        if op.kind in ("semi", "anti"):
            # existence probe: a boolean mask over the probe frame
            mask = self.names.fresh("mask")
            code = f"_semi_mask({lk}, {rk})"
            if op.kind == "anti":
                code = f"(~{code})"
            self.writer.line(f"{mask} = {code}")
            out = self._materialize(frame, f"[{mask}]", need)
            if not out.columns:
                out.length_code = f"int({mask}.sum())"
            return out
        left_var, right_var = op.result.params
        usage = lambda_usage(op.result, self.ir.cse)
        right_needed = self._result_columns(right, usage.get(right_var, set()))
        if self._result_columns(frame, usage.get(left_var, set())) is None or (
            right_needed is None
        ):
            raise UnsupportedQueryError(
                "native join results cannot embed whole input records "
                "(the §5 'no references' rule); project explicit fields"
            )
        if op.kind == "left":
            li = self.names.fresh("li")
            ri = self.names.fresh("ri")
            matched = self.names.fresh("matched")
            self.writer.line(
                f"{li}, {ri}, {matched} = _left_join({lk}, {rk})"
            )
            defaults = self._default_codes(op, right, right_needed)
            gathered: Dict[str, ColumnRef] = {}
            for name in sorted(right_needed):
                col = right.column(name)
                var = self.names.fresh("col")
                self.writer.line(
                    f"{var} = _gather_defaulted({col.code}, {ri}, {matched}, "
                    f"{defaults[name]}, {col.kind!r})"
                )
                gathered[name] = ColumnRef(var, col.kind)
            right_frame = Frame(gathered, f"{li}.shape[0]")
            printer = self._printer(
                {left_var: (frame, li), right_var: (right_frame, None)}
            )
            return self._build_output_frame(
                op.result.body, printer, f"{li}.shape[0]", need
            )
        li = self.names.fresh("li")
        ri = self.names.fresh("ri")
        self.writer.line(f"{li}, {ri} = _hash_join({lk}, {rk})")
        printer = self._printer({left_var: (frame, li), right_var: (right, ri)})
        return self._build_output_frame(
            op.result.body, printer, f"{li}.shape[0]", need
        )

    def _result_columns(
        self, frame: Frame, paths: Set[str]
    ) -> Optional[Set[str]]:
        """Columns of *frame* a join result reads (None = whole records)."""
        return paths_to_fields(paths)

    def _default_codes(
        self, op: Join, right: Frame, right_needed: Set[str]
    ) -> Dict[str, str]:
        """Scalar code for each needed right column's unmatched default."""
        printer = self._printer({})
        body = op.default
        if not isinstance(body, New):
            raise UnsupportedQueryError(
                "native left joins need a record-shaped default (a dict of "
                "field defaults) matching the build side's columns"
            )
        fields = dict(body.fields)
        codes: Dict[str, str] = {}
        for name in sorted(right_needed):
            expr = fields.get(name)
            if expr is None:
                raise UnsupportedQueryError(
                    f"native left join default does not provide field "
                    f"{name!r} used by the result selector"
                )
            codes[name] = printer.emit(expr)
        return codes

    def _apply_SetOp(
        self, op: SetOp, frame: Frame, need: Optional[Set[str]]
    ) -> Frame:
        """Mask the probe frame by bag membership in the build frame."""
        breaker = self.ir.breaker_for(op)
        right = self._join_build_frame(breaker)
        names = list(frame.columns)
        left_cols = ", ".join(frame.columns[n].code for n in names)
        right_cols = ", ".join(right.column(n).code for n in names)
        mask = self.names.fresh("mask")
        keep = repr(op.op == "intersect")
        self.writer.line(
            f"{mask} = _multiset_mask(({left_cols},), ({right_cols},), {keep})"
        )
        out = self._materialize(frame, f"[{mask}]", need)
        if not out.columns:
            out.length_code = f"int({mask}.sum())"
        return out

    def _join_build_frame(self, breaker: PipelineBreaker) -> Frame:
        frame = self._breaker_frames.get(breaker.bid)
        if frame is None:
            frame = self._concat_frames(self._feeds.get(breaker.bid, []))
            self._breaker_frames[breaker.bid] = frame
        return frame

    def _apply_Limit(
        self, op: Limit, frame: Frame, need: Optional[Set[str]]
    ) -> Frame:
        printer = self._printer({})
        start = printer.emit(op.offset) if op.offset is not None else "0"
        if op.count is not None:
            stop = f"({start}) + ({printer.emit(op.count)})"
        else:
            stop = ""
        out = self._materialize(
            frame, f"[{start}:{stop}]" if stop else f"[{start}:]", need
        )
        if not out.columns:
            # e.g. take(n).count(): compute the surviving row count directly
            length = self.names.fresh("n")
            child_len = frame.length_code
            if op.count is not None:
                self.writer.line(
                    f"{length} = max(0, min(({child_len}) - ({start}), "
                    f"{printer.emit(op.count)}))"
                )
            else:
                self.writer.line(f"{length} = max(0, ({child_len}) - ({start}))")
            out.length_code = length
        return out

    def _build_output_frame(
        self,
        body: Expr,
        printer: VectorPrinter,
        length_code: str,
        needed: Optional[Set[str]],
    ) -> Frame:
        if isinstance(body, New):
            columns = {}
            for name, expr in body.fields:
                if needed is not None and name not in needed:
                    continue
                columns[name] = self._output_column(expr, printer)
            return Frame(columns, length_code)
        return Frame({Frame.SINGLE: self._output_column(body, printer)}, length_code)

    def _output_column(self, expr: Expr, printer: VectorPrinter) -> ColumnRef:
        """One column of a projection or join result, as a fresh vector."""
        var = self._vector(printer.emit(expr))
        return ColumnRef(var, printer.kind_of(expr))

    # -- index-accelerated point selection (§9 extension) -------------------------

    def _index_opportunity(self, plan: Filter):
        """Find an equality conjunct on an indexed column of the scan.

        Returns (field_name, value_expr, remaining_conjuncts) or None.
        The value side must be data-independent (Param/Constant) so the
        lookup can run once per execution.
        """
        scan: Scan = plan.child  # type: ignore[assignment]
        if scan.ordinal >= len(self._exemplars):
            return None
        exemplar = self._exemplars[scan.ordinal]
        get_index = getattr(exemplar, "get_index", None)
        if get_index is None:
            return None
        (var,) = plan.predicate.params
        parts = conjuncts(plan.predicate.body)
        for i, part in enumerate(parts):
            if not (isinstance(part, Binary) and part.op == "eq"):
                continue
            for member, value in ((part.left, part.right), (part.right, part.left)):
                is_column = (
                    isinstance(member, Member)
                    and member.target == Var(var)
                    and get_index(member.name) is not None
                )
                if is_column and isinstance(value, (Constant, Param)):
                    remaining = parts[:i] + parts[i + 1 :]
                    return member.name, value, remaining
        return None

    def _cluster_opportunity(self, plan: Filter):
        """Find a comparison on the scan's clustering column (§9).

        Returns (field, op, value_expr, remaining_conjuncts) or None; the
        comparison compiles to binary-search bounds on the physically
        ordered data instead of a full mask.
        """
        scan: Scan = plan.child  # type: ignore[assignment]
        if scan.ordinal >= len(self._exemplars):
            return None
        clustering = getattr(self._exemplars[scan.ordinal], "clustering", None)
        if clustering is None:
            return None
        comparisons = {"lt", "le", "gt", "ge", "eq"}
        flipped = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq"}
        (var,) = plan.predicate.params
        parts = conjuncts(plan.predicate.body)
        for i, part in enumerate(parts):
            if not (isinstance(part, Binary) and part.op in comparisons):
                continue
            for member, value, op in (
                (part.left, part.right, part.op),
                (part.right, part.left, flipped[part.op]),
            ):
                is_clustered_column = (
                    isinstance(member, Member)
                    and member.target == Var(var)
                    and member.name == clustering
                )
                if is_clustered_column and isinstance(value, (Constant, Param)):
                    remaining = parts[:i] + parts[i + 1 :]
                    return clustering, op, value, remaining
        return None

    def _emit_cluster_filter(
        self, plan: Filter, opportunity, needed: Optional[Set[str]]
    ) -> Frame:
        field_name, op, value_expr, remaining = opportunity
        scan: Scan = plan.child  # type: ignore[assignment]
        schema = self._schemas[scan.ordinal]
        field_kind = schema[field_name].kind
        src = self.names.fresh("src")
        self.writer.line(f"{src} = sources[{scan.ordinal}].data")
        if isinstance(value_expr, Param):
            value_code = self.render_param(value_expr.name)
            if field_kind == "str":
                value_code = f"_coerce_str({value_code})"
            elif field_kind == "date":
                value_code = f"_coerce_date({value_code})"
        else:
            value_code = repr(_encode_constant(value_expr.value, field_kind))
        column = f"{src}[{field_name!r}]"
        start = self.names.fresh("lo")
        stop = self.names.fresh("hi")
        if op in ("lt", "le"):
            side = "left" if op == "lt" else "right"
            self.writer.line(f"{start} = 0")
            self.writer.line(
                f"{stop} = int(_np.searchsorted({column}, {value_code}, side={side!r}))"
            )
        elif op in ("gt", "ge"):
            side = "right" if op == "gt" else "left"
            self.writer.line(
                f"{start} = int(_np.searchsorted({column}, {value_code}, side={side!r}))"
            )
            self.writer.line(f"{stop} = {column}.shape[0]")
        else:  # eq: both bounds
            self.writer.line(
                f"{start} = int(_np.searchsorted({column}, {value_code}, side='left'))"
            )
            self.writer.line(
                f"{stop} = int(_np.searchsorted({column}, {value_code}, side='right'))"
            )
        rows, length = f"{start}:{stop}", f"({stop} - {start})"
        return self._access_path_tail(plan, src, rows, length, remaining, needed)

    def _emit_index_filter(
        self, plan: Filter, opportunity, needed: Optional[Set[str]]
    ) -> Frame:
        field_name, value_expr, remaining = opportunity
        scan: Scan = plan.child  # type: ignore[assignment]
        src = self.names.fresh("src")
        self.writer.line(f"{src} = sources[{scan.ordinal}].data")
        if isinstance(value_expr, Param):
            value_code = self.render_param(value_expr.name)
        else:
            value_code = repr(value_expr.value)
        sel = self.names.fresh("sel")
        self.writer.line(
            f"{sel} = sources[{scan.ordinal}].get_index({field_name!r})"
            f".lookup({value_code})"
        )
        length = f"{sel}.shape[0]"
        return self._access_path_tail(plan, src, sel, length, remaining, needed)

    def _access_path_tail(
        self,
        plan: Filter,
        src: str,
        rows: str,
        length: str,
        remaining: List[Expr],
        needed: Optional[Set[str]],
    ) -> Frame:
        """The scan's columns at *rows* (a slice or an index vector,
        *length* long), then the conjuncts the access path left as a mask."""
        schema = self._schemas[plan.child.ordinal]
        child_needed = merge_fields(needed, self._fields_of(plan.predicate))
        frame = Frame(
            {
                f.name: ColumnRef(f"{src}[{f.name!r}][{rows}]", f.kind)
                for f in schema.fields
                if child_needed is None or f.name in child_needed
            },
            length,
        )
        if not remaining:
            out = self._materialize(frame, "", needed)
            if not out.columns:
                out.length_code = frame.length_code
            return out
        (var,) = plan.predicate.params
        rest = reduce(lambda a, b: Binary("and", a, b), remaining)
        env = self._bind_cse(plan.predicate, {var: (frame, None)})
        mask = self._vector(self._printer(env).emit(rest))
        out = self._materialize(frame, f"[{mask}]", needed)
        if not out.columns:
            out.length_code = f"int({mask}.sum())"
        return out

    # -- breaker materialization ----------------------------------------------------

    def _breaker_output(
        self, breaker: PipelineBreaker, need: Optional[Set[str]]
    ) -> Frame:
        frame = self._breaker_frames.get(breaker.bid)
        if frame is None:
            handler = getattr(self, f"_out_{breaker.kind.replace('-', '_')}", None)
            if handler is None:
                raise _outside_fragment(breaker.node)
            fed = self._concat_frames(self._feeds.get(breaker.bid, []))
            frame = handler(breaker.node, fed, need)
            self._breaker_frames[breaker.bid] = frame
        return frame

    def _out_sort(
        self, node: Sort, fed: Frame, need: Optional[Set[str]]
    ) -> Frame:
        key_vars = []
        for key in node.keys:
            printer = self._printer({key.params[0]: (fed, None)})
            key_vars.append(self._vector(printer.emit(key.body)))
        order = self.names.fresh("order")
        dirs = repr(tuple(node.descending))
        self.writer.line(
            f"{order} = _sort_indexes(({', '.join(key_vars)},), {dirs})"
        )
        out = self._materialize(fed, f"[{order}]", need)
        if not out.columns:
            out.length_code = f"{order}.shape[0]"
        return out

    def _out_topn(
        self, node: TopN, fed: Frame, need: Optional[Set[str]]
    ) -> Frame:
        key_vars = []
        for key in node.keys:
            printer = self._printer({key.params[0]: (fed, None)})
            key_vars.append(self._vector(printer.emit(key.body)))
        count_code = self._printer({}).emit(node.count)
        idx = self.names.fresh("topidx")
        dirs = repr(tuple(node.descending))
        self.writer.line(
            f"{idx} = _topn_indexes(({', '.join(key_vars)},), {dirs}, {count_code})"
        )
        out = self._materialize(fed, f"[{idx}]", need)
        if not out.columns:
            out.length_code = f"{idx}.shape[0]"
        return out

    def _out_distinct_materialize(
        self, node: Distinct, fed: Frame, need: Optional[Set[str]]
    ) -> Frame:
        cols = ", ".join(col.code for col in fed.columns.values())
        idx = self.names.fresh("didx")
        self.writer.line(f"{idx} = _distinct_indexes(({cols},))")
        return self._materialize(fed, f"[{idx}]", need)

    def _out_group_aggregate(
        self, node: GroupAggregate, fed: Frame, need: Optional[Set[str]]
    ) -> Frame:
        (key_param,) = node.key.params
        key_printer = self._printer({key_param: (fed, None)})

        key_body = node.key.body
        if isinstance(key_body, New):
            key_fields = [(name, expr) for name, expr in key_body.fields]
        else:
            key_fields = [(Frame.SINGLE, key_body)]
        key_vars = []
        key_kinds = []
        for _, expr in key_fields:
            key_vars.append(self._vector(key_printer.emit(expr)))
            key_kinds.append(key_printer.kind_of(expr))

        agg_args = []
        agg_kinds = []
        for spec in node.aggregates:
            if spec.selector is None:
                agg_args.append(f"({spec.kind!r}, None)")
                agg_kinds.append("int")
            else:
                (p,) = spec.selector.params
                printer = self._printer({p: (fed, None)})
                values = self._vector(printer.emit(spec.selector.body))
                agg_args.append(f"({spec.kind!r}, {values})")
                value_kind = printer.kind_of(spec.selector.body)
                agg_kinds.append("float" if spec.kind == "avg" else value_kind)

        gkeys = self.names.fresh("gkeys")
        gaggs = self.names.fresh("gaggs")
        keys_tuple = ", ".join(key_vars)
        self.writer.line(
            f"{gkeys}, {gaggs} = _group_aggregate(({keys_tuple},), [{', '.join(agg_args)}])"
        )

        # expose group keys and aggregate slots as a frame for the output expr
        key_frame_cols = {
            name: ColumnRef(f"{gkeys}[{i}]", key_kinds[i])
            for i, (name, _) in enumerate(key_fields)
        }
        key_frame = Frame(key_frame_cols, f"{gkeys}[0].shape[0]")
        env: Dict[str, Tuple[Frame, Optional[str]]] = {"__key": (key_frame, None)}
        for i, kind in enumerate(agg_kinds):
            slot_frame = Frame(
                {Frame.SINGLE: ColumnRef(f"{gaggs}[{i}]", kind)},
                f"{gaggs}[{i}].shape[0]",
            )
            env[f"__agg{i}"] = (slot_frame, None)
        printer = self._printer(env)
        return self._build_output_frame(
            node.output, printer, f"{gkeys}[0].shape[0]", need
        )

    # -- scalar finalization ---------------------------------------------------------

    def _scalar_result(self, plan: ScalarAggregate) -> str:
        breaker = self.ir.breaker_for(plan)
        child = self._concat_frames(self._feeds.get(breaker.bid, []))
        slot_codes = []
        for spec in plan.aggregates:
            slot_codes.append(self._emit_scalar_agg(spec, child))
        if plan.output == Var("__agg0"):
            return slot_codes[0]
        raise UnsupportedQueryError(
            "composite scalar outputs are not supported natively"
        )

    def _emit_scalar_agg(self, spec: AggregateSpec, child: Frame) -> str:
        if spec.kind == "count":
            return f"int({child.length_code})"
        (p,) = spec.selector.params
        printer = self._printer({p: (child, None)})
        values = self._vector(printer.emit(spec.selector.body))
        kind = printer.kind_of(spec.selector.body)
        if spec.kind == "sum":
            zero = "0.0" if kind == "float" else "0"
            return f"({values}.sum().item() if {values}.shape[0] else {zero})"
        guard = self.names.fresh("n")
        self.writer.line(f"{guard} = {values}.shape[0]")
        with self.writer.block(f"if not {guard}:"):
            self.writer.line("raise _EmptyAggregateError()")
        if spec.kind == "avg":
            return f"({values}.mean().item())"
        fn = "min" if spec.kind == "min" else "max"
        result = f"{values}.{fn}()"
        if kind == "str":
            return f"{result}.decode('utf-8')"
        if kind == "date":
            return f"_days_to_date(int({result}))"
        return f"{result}.item()"

    # -- result delivery ---------------------------------------------------------

    def _emit_result(self, frame: Frame, whole_rows: bool = False) -> str:
        if self.ir.morsel_ordinal is not None and not isinstance(
            self.ir.plan, GroupAggregate
        ):
            return self._emit_partial(frame, whole_rows)
        if frame.is_single:
            col = frame.column(Frame.SINGLE)
            return f"_decode_values({col.code}, {col.kind!r})"
        names = tuple(frame.columns)
        if whole_rows:
            # §5 pointer-return path: results are views into native memory,
            # decoded per accessed field — nothing is copied up front
            columns = ", ".join(
                f"{name!r}: {col.code}" for name, col in frame.columns.items()
            )
            kinds = ", ".join(
                f"{name!r}: {col.kind!r}" for name, col in frame.columns.items()
            )
            return f"_view_rows({{{columns}}}, {{{kinds}}}, {names!r})"
        record_type = make_record_type(names)
        type_name = self.bind(record_type, "rowtype")
        cols = ", ".join(col.code for col in frame.columns.values())
        kinds = ", ".join(repr(col.kind) for col in frame.columns.values())
        return f"_decode_rows(({cols},), ({kinds},), {type_name})"

    def _emit_partial(self, frame: Frame, whole_rows: bool) -> str:
        """A rows-mode morsel kernel's return (a group-mode kernel's root is
        its GroupAggregate): the arguments :meth:`_emit_result` would hand
        its surface, undecoded — partials are decoded once, where they are
        folded."""
        cols = ", ".join(col.code for col in frame.columns.values())
        kinds = ", ".join(repr(col.kind) for col in frame.columns.values())
        if frame.is_single:
            surface, record = "values", "None"
        elif whole_rows:
            surface, record = "view", repr(tuple(frame.columns))
        else:
            surface = "rows"
            record = self.bind(make_record_type(tuple(frame.columns)), "rowtype")
        self.namespace["_vector_partial"] = _vec.VectorPartial
        return f"_vector_partial({surface!r}, ({cols},), ({kinds},), {record})"


def _preserves_rows(plan: Plan) -> bool:
    """True when every result element is a whole (unprojected) source row.

    Such results take the pointer-return path: queries that only filter,
    sort, limit or deduplicate hand back views into the arrays instead of
    materialized record copies.
    """
    row_preserving = (Scan, Filter, Sort, TopN, Limit, Distinct, Concat)
    if not isinstance(plan, row_preserving):
        return False
    return all(_preserves_rows(child) for child in plan_children(plan))


def _outside_fragment(node: Plan) -> UnsupportedQueryError:
    return UnsupportedQueryError(
        f"plan node {type(node).__name__} is outside the native "
        f"fragment (§5 restrictions); use the compiled engine"
    )
