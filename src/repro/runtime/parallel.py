"""Morsel-driven parallel execution (a departure from the paper).

The paper's generated code is single-threaded; this module adds a
HyPer-style scheduler on top of it.  The source driving a query is
partitioned into fixed-size **morsels**; the compiled kernel — generated
with ``morsel_ordinal`` so its driver scan takes ``[start:stop)`` slice
parameters — runs once per morsel on a thread pool (the NumPy kernels in
:mod:`repro.runtime.vectorized` release the GIL), and the partial results
merge deterministically in morsel order:

* **rows** — pipelined plans (scan/filter/project/flat-map/join probes)
  concatenate their morsel outputs; the probe order of
  :func:`~repro.runtime.vectorized.hash_join_indexes` is preserved, so the
  concatenation reproduces the sequential row order exactly.  A vector
  kernel's partial stays columnar (a
  :class:`~repro.runtime.vectorized.VectorPartial`) on a worker thread,
  across the process boundary and in the recycler's window; each is
  decoded once, at the fold, in morsel order, by the result surface the
  sequential module would call.
* **scalar** — one partial kernel per physical aggregate slot (``avg``
  decomposed into ``sum`` + ``count`` first, exactly like the §6.1.2
  streaming decomposition); partials fold with ``+`` / ``min`` / ``max``.
* **group** — the per-morsel kernel emits its group table flat
  (``k0..kn, s0..sm``); partial tables merge through the *existing*
  :class:`~repro.runtime.streaming.StreamingGroupAggregator` — the paper's
  buffered-materialization state is precisely a partial-result algebra —
  and the group output expression is re-evaluated per merged group with
  the tree-walking interpreter.  First-seen group order is preserved
  across morsels, matching every sequential engine.

Order-sensitive root operators (sort / top-n / limit / distinct) are
peeled off before the kernel is built (see
:func:`~repro.codegen.lower.decide_parallel`) and re-applied managed-side
on the merged rows with stable, engine-equivalent semantics.

Results are bit-identical to sequential execution for any worker count
and morsel size whenever the arithmetic itself is order-independent
(integers always; floats when exactly representable — the differential
fuzz harness pins this down).
"""

from __future__ import annotations

import datetime
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..expressions.evaluator import interpret, make_record_type
from ..observability.metrics import METRICS
from ..observability.tracer import TRACER
from ..options import DEFAULT_MORSEL_ROWS
from ..codegen.ir import MORSEL_START, MORSEL_STOP, morsel_slice, physical_slots
from ..expressions.nodes import Expr, Lambda, Member, New, Var
from ..plans.logical import (
    AggregateSpec,
    Distinct,
    GroupAggregate,
    Limit,
    Plan,
    ScalarAggregate,
    Sort,
    TopN,
)
from ..codegen.lower import ParallelSplit
from ..storage.schema import date_to_days, days_to_date
from .cancellation import cancel_check
from .streaming import StreamingGroupAggregator
from .vectorized import VectorPartial

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "MORSEL_START",
    "MORSEL_STOP",
    "GroupMergeSpec",
    "ParallelQuery",
    "ScalarMergeSpec",
    "apply_post_ops",
    "build_parallel_query",
    "finalize_group_table",
    "finalize_scalar",
    "merge_group_table",
    "merge_scalar_slots",
    "morsel_bounds",
    "morsel_slice",
    "rows_partial",
    "source_length",
]

_EMPTY_AGGREGATE_MSG = "aggregate of an empty sequence has no value"

#: sentinel for a min/max partial over an empty morsel
_NO_VALUE = object()


def rows_partial(result: Any) -> Any:
    """A rows- or group-mode kernel's result as a partial: a rows-mode
    vector kernel's :class:`~repro.runtime.vectorized.VectorPartial` as it
    is (decoded at the fold), any other result — a generator — materialized
    where the kernel ran."""
    return result if isinstance(result, VectorPartial) else list(result)


def source_length(source: Any) -> Optional[int]:
    """Row count of a source, or None when it cannot be partitioned."""
    try:
        return len(source)
    except TypeError:
        return None


def morsel_bounds(
    total: int, morsel_rows: int, start: int = 0
) -> List[Tuple[int, int]]:
    """Partition ``[start, total)`` into fixed-size half-open morsels.

    With the default ``start=0`` an empty source still yields one empty
    morsel so aggregate kernels run and reproduce the sequential
    empty-input behaviour (``sum() == 0``, ``min()`` raising).  A positive
    *start* is the delta-recycling window (``[old_watermark,
    new_watermark)``): an empty window there yields no morsels — the
    cached partial state already covers everything.
    """
    if morsel_rows <= 0:
        raise ExecutionError("morsel size must be positive")
    if start < 0:
        raise ExecutionError("morsel window start must be non-negative")
    if total <= start:
        return [(0, 0)] if start == 0 else []
    return [
        (lo, min(lo + morsel_rows, total))
        for lo in range(start, total, morsel_rows)
    ]


# ---------------------------------------------------------------------------
# The compiled parallel artifact
# ---------------------------------------------------------------------------


@dataclass
class GroupMergeSpec:
    """Everything the group merge needs about the partial table layout."""

    nkeys: int
    key_is_record: bool
    key_field_names: Tuple[str, ...]
    key_type_name: Optional[str]
    #: merge kind per physical slot ("count" partials merge by summing)
    merge_kinds: List[str]
    extract: List[Tuple[str, int, int]]


@dataclass
class ScalarMergeSpec:
    slot_kinds: List[str]
    extract: List[Tuple[str, int, int]]



# ---------------------------------------------------------------------------
# The merge algebra, as pure functions over partial states
# ---------------------------------------------------------------------------
#
# Both executors — the in-process thread pool below and the multi-process
# coordinator in :mod:`repro.distributed` — feed partials through these
# same functions, so there is exactly one definition of what a merge
# means.  They take only specs, partial states and params (no provider,
# no executor), which is also what lets the result recycler hold a cached
# *pre-finalization* state and fold fresh delta partials into it: each
# merge is associative per mode.


def merge_scalar_slots(
    slot_kinds: Sequence[str], partials: List[List[Any]]
) -> List[Any]:
    """Fold slot-wise partials (each a value per physical slot) into one
    merged slot list.  The result is itself a valid partial — the scalar
    state the delta recycler caches."""
    merged: List[Any] = []
    for j, kind in enumerate(slot_kinds):
        values = [part[j] for part in partials]
        if kind in ("sum", "count"):
            total = values[0]
            for value in values[1:]:
                total = total + value
            merged.append(total)
        else:
            present = [v for v in values if v is not _NO_VALUE]
            if not present:
                merged.append(_NO_VALUE)
            else:
                merged.append(min(present) if kind == "min" else max(present))
    return merged


def finalize_scalar(
    spec: ScalarMergeSpec,
    output: Optional[Expr],
    merged: List[Any],
    params: Dict[str, Any],
) -> Any:
    """Extract the aggregate values from merged slots and evaluate the
    output expression (raising for empty-input min/max/avg, matching
    every sequential engine)."""
    env: Dict[str, Any] = {}
    for i, (mode, a, b) in enumerate(spec.extract):
        if mode == "avg":
            if not merged[b]:
                raise ExecutionError(_EMPTY_AGGREGATE_MSG)
            env[f"__agg{i}"] = merged[a] / merged[b]
        else:
            if merged[a] is _NO_VALUE:
                raise ExecutionError(_EMPTY_AGGREGATE_MSG)
            env[f"__agg{i}"] = merged[a]
    return interpret(output, env, params)


def merge_group_table(
    spec: GroupMergeSpec, partials: List[List[Any]]
) -> List[tuple]:
    """Merge flat partial group tables into one flat table.

    Rows are plain tuples ``(k0..kn, s0..sm)`` holding managed-side
    values — the same shape the kernels emit, so a merged table is
    itself a valid partial: the group state the delta recycler caches
    and later re-merges with fresh delta partials.  First-seen group
    order is preserved (earlier partials first), matching sequential
    execution.
    """
    nkeys = spec.nkeys
    nslots = len(spec.merge_kinds)
    key_cols_spec = [_ColumnSpec.scan(partials, c) for c in range(nkeys)]
    val_cols_spec = [
        _ColumnSpec.scan(partials, nkeys + j) for j in range(nslots)
    ]
    aggregator = StreamingGroupAggregator(nkeys, spec.merge_kinds)
    for part in partials:
        if not part:
            continue
        keys = tuple(
            key_cols_spec[c].array([row[c] for row in part])
            for c in range(nkeys)
        )
        values = [
            val_cols_spec[j].array([row[nkeys + j] for row in part])
            for j in range(nslots)
        ]
        aggregator.consume_page(keys, values)
    key_cols, agg_cols = aggregator.finalize()
    ngroups = len(key_cols[0]) if key_cols else 0
    table: List[tuple] = []
    for g in range(ngroups):
        table.append(
            tuple(
                [key_cols_spec[c].decode(key_cols[c][g]) for c in range(nkeys)]
                + [val_cols_spec[j].decode(agg_cols[j][g]) for j in range(nslots)]
            )
        )
    return table


def finalize_group_table(
    spec: GroupMergeSpec,
    output: Optional[Expr],
    table: List[tuple],
    params: Dict[str, Any],
) -> List[Any]:
    """Evaluate the group output expression once per merged group."""
    nkeys = spec.nkeys
    if not table:
        return []
    key_record = (
        make_record_type(spec.key_field_names, spec.key_type_name)
        if spec.key_is_record
        else None
    )
    rows: List[Any] = []
    for entry in table:
        env: Dict[str, Any] = {
            "__key": key_record(*entry[:nkeys]) if key_record else entry[0]
        }
        for i, (mode, a, b) in enumerate(spec.extract):
            if mode == "avg":
                env[f"__agg{i}"] = _as_python(entry[nkeys + a] / entry[nkeys + b])
            else:
                env[f"__agg{i}"] = entry[nkeys + a]
        rows.append(interpret(output, env, params))
    return rows


def apply_post_ops(
    post_ops: Sequence[Plan], rows: List[Any], params: Dict[str, Any]
) -> List[Any]:
    """Re-apply the peeled root operators (sort/top-n/limit/distinct)
    managed-side, in plan order, with stable engine-equivalent
    semantics."""
    for op in reversed(post_ops):
        rows = _apply_post_op(op, rows, params)
    return rows


@dataclass
class ParallelQuery:
    """A morsel-parameterized query: kernels plus a deterministic merge.

    Cached by the provider exactly like a :class:`CompiledQuery`; executing
    it dispatches the kernels across a worker pool and merges partials in
    morsel-index order.
    """

    mode: str  # "rows" | "scalar" | "group"
    morsel_ordinal: int
    kernels: List[Any]  # CompiledQuery per kernel
    post_ops: Tuple[Plan, ...] = ()
    output: Optional[Expr] = None
    group_spec: Optional[GroupMergeSpec] = None
    scalar_spec: Optional[ScalarMergeSpec] = None

    @property
    def scalar(self) -> bool:
        return self.mode == "scalar"

    @property
    def source_code(self) -> str:
        return "\n\n".join(k.source_code for k in self.kernels)

    def execute(
        self,
        sources: List[Any],
        params: Dict[str, Any],
        workers: int,
        morsel_rows: int,
        redecide: Optional[Callable[..., Optional[int]]] = None,
    ) -> Any:
        METRICS.counter("parallel.executions").add()
        partials = self.run_window(
            sources, params, workers, morsel_rows, redecide=redecide
        )
        with TRACER.span("parallel.merge", mode=self.mode):
            return self.finish(self.fold(None, partials), params)

    def run_window(
        self,
        sources: List[Any],
        params: Dict[str, Any],
        workers: int,
        morsel_rows: int,
        start: int = 0,
        stop: Optional[int] = None,
        redecide: Optional[Callable[..., Optional[int]]] = None,
    ) -> List[Any]:
        """Run the morsel kernels over ``[start, stop)`` of the driver
        (default: all of it) and return the raw per-morsel partials, one
        ``parallel.morsel`` span each."""
        if stop is None:
            stop = source_length(sources[self.morsel_ordinal])
            if stop is None:
                raise ExecutionError(
                    "parallel execution requires sized sources; the provider "
                    "should have fallen back to sequential execution"
                )
        bounds = morsel_bounds(stop, morsel_rows, start=start)
        METRICS.counter("parallel.morsels_dispatched").add(len(bounds))
        with TRACER.span(
            "parallel.execute",
            mode=self.mode,
            workers=workers,
            morsels=len(bounds),
        ):
            with TRACER.span("parallel.dispatch", morsels=len(bounds)):
                return self._run_morsels(
                    sources,
                    params,
                    bounds,
                    workers,
                    redecide=redecide,
                    morsel_rows=morsel_rows,
                    total=stop,
                )

    # -- the merge seam ----------------------------------------------------------
    #
    # Every executor — the thread pool above, the delta recycler, the
    # multi-process coordinator — folds its partials through this one
    # pair.  ``fold`` is associative per mode (concat / slot folds / the
    # streaming group aggregator) and its result is itself a valid
    # partial, so the recycler can keep the *pre-finalization* state of a
    # cached query and fold fresh delta partials into it:
    # ``fold(old_state, delta_partials)`` equals a full re-merge.

    def fold(self, state: Any, partials: List[Any]) -> Any:
        """Merge *partials* (in window order) into *state* — ``None`` for
        no prior state — and return the new pre-finalization state.  In
        rows mode that state is decoded rows: this is where a
        :class:`~repro.runtime.vectorized.VectorPartial` is decoded, so a
        delta window decodes only its own partials."""
        if self.mode == "rows":
            rows = [] if state is None else list(state)
            for part in partials:
                rows.extend(part.decode() if isinstance(part, VectorPartial) else part)
            return rows
        parts = partials if state is None else [state] + partials
        if self.mode == "scalar":
            return merge_scalar_slots(self.scalar_spec.slot_kinds, parts)
        return merge_group_table(self.group_spec, parts)

    def finish(self, state: Any, params: Dict[str, Any]) -> Any:
        """Finalize a folded state into the query's result: the scalar
        value, or the rows with the peeled root operators re-applied."""
        if self.mode == "scalar":
            return finalize_scalar(self.scalar_spec, self.output, state, params)
        if self.mode == "group":
            rows = finalize_group_table(
                self.group_spec, self.output, state, params
            )
        else:
            rows = list(state)
        return apply_post_ops(self.post_ops, rows, params)

    # -- dispatch ---------------------------------------------------------------

    def _run_morsels(
        self,
        sources: List[Any],
        params: Dict[str, Any],
        bounds: List[Tuple[int, int]],
        workers: int,
        redecide: Optional[Callable[..., Optional[int]]] = None,
        morsel_rows: int = 0,
        total: int = 0,
    ) -> List[Any]:
        def run(bound: Tuple[int, int]) -> Any:
            # morsel boundaries are cancellation checkpoints: a cancelled
            # query stops dispatching work within one morsel's runtime
            # (kernels already queued finish their own checkpoints)
            cancel_check(params)
            start, stop = bound
            morsel_params = dict(params)
            morsel_params[MORSEL_START] = start
            morsel_params[MORSEL_STOP] = stop
            with TRACER.span(
                "parallel.morsel", start=start, stop=stop, mode=self.mode
            ):
                if self.mode == "scalar":
                    return [
                        self._run_scalar_kernel(
                            kernel, kind, sources, morsel_params
                        )
                        for kernel, kind in zip(
                            self.kernels, self.scalar_spec.slot_kinds
                        )
                    ]
                # the kernel (and any generator it returns) runs off the
                # main thread; a vector partial stays undecoded until fold
                return rows_partial(self.kernels[0].execute(sources, morsel_params))

        if redecide is not None and len(bounds) > 1 and self.mode != "scalar":
            # mid-flight re-decision at the first pipeline-breaker
            # boundary: the first morsel's partial has materialized, so
            # its observed cardinality can re-partition the remainder.
            # Results stay bit-identical — the merge only depends on
            # morsel *order*, never on morsel *size*.
            first = run(bounds[0])
            stop0 = bounds[0][1]
            rest = bounds[1:]
            try:
                new_size = redecide(
                    stop0 - bounds[0][0],
                    len(first),
                    morsel_rows,
                    total - stop0,
                    workers,
                )
            except Exception:  # noqa: BLE001 - adaptivity is advisory
                new_size = None
            if new_size and new_size > 0:
                rest = morsel_bounds(total, new_size, start=stop0)
                METRICS.counter("parallel.morsels_redecided").add()
            return [first] + self._dispatch(run, rest, workers)
        return self._dispatch(run, bounds, workers)

    @staticmethod
    def _dispatch(
        run: Callable[[Tuple[int, int]], Any],
        bounds: List[Tuple[int, int]],
        workers: int,
    ) -> List[Any]:
        if not bounds:
            return []
        if workers <= 1 or len(bounds) <= 1:
            return [run(bound) for bound in bounds]
        with ThreadPoolExecutor(
            max_workers=min(workers, len(bounds))
        ) as pool:
            # pool.map preserves submission order: partials arrive in
            # morsel-index order regardless of completion order
            return list(pool.map(run, bounds))

    @staticmethod
    def _run_scalar_kernel(
        kernel: Any, kind: str, sources: List[Any], params: Dict[str, Any]
    ) -> Any:
        if kind not in ("min", "max"):
            return kernel.execute(sources, params)
        try:
            return kernel.execute(sources, params)
        except ExecutionError as exc:
            # an empty *morsel* has no min/max but the whole input may;
            # only re-raise after the merge finds every partial empty
            if str(exc) == _EMPTY_AGGREGATE_MSG:
                return _NO_VALUE
            raise


@dataclass
class _ColumnSpec:
    """Native representation of one partial-table column for merging.

    Dates travel as days-since-epoch (the engines' own native form) and
    strings get one consistent width across all partials — per-page widths
    would truncate in the aggregator's finalization arrays.
    """

    is_date: bool = False
    str_width: int = 0

    @classmethod
    def scan(cls, partials: List[List[Any]], index: int) -> "_ColumnSpec":
        spec = cls()
        for part in partials:
            for row in part:
                value = row[index]
                if isinstance(value, datetime.date):
                    spec.is_date = True
                elif isinstance(value, str):
                    spec.str_width = max(spec.str_width, len(value), 1)
        return spec

    def array(self, values: List[Any]) -> np.ndarray:
        if self.is_date:
            return np.asarray(
                [date_to_days(v) for v in values], dtype=np.int64
            )
        if self.str_width:
            return np.asarray(values, dtype=f"<U{self.str_width}")
        return np.asarray(values)

    def decode(self, value: Any) -> Any:
        if isinstance(value, np.generic):
            value = value.item()
        if self.is_date:
            return days_to_date(int(value))
        return value


def _as_python(value: Any) -> Any:
    return value.item() if isinstance(value, np.generic) else value


# ---------------------------------------------------------------------------
# Managed-side post-operators (deterministic, engine-equivalent semantics)
# ---------------------------------------------------------------------------


def _apply_post_op(op: Plan, rows: List[Any], params: Dict[str, Any]) -> List[Any]:
    if isinstance(op, Sort):
        return _stable_sort(rows, op.keys, op.descending, params)
    if isinstance(op, TopN):
        count = max(0, int(interpret(op.count, {}, params)))
        # every engine's top-n (heap or boundary-widened argpartition) is
        # equivalent to a stable sort followed by take
        return _stable_sort(rows, op.keys, op.descending, params)[:count]
    if isinstance(op, Limit):
        start = (
            int(interpret(op.offset, {}, params)) if op.offset is not None else 0
        )
        if op.count is None:
            return rows[start:]
        count = max(0, int(interpret(op.count, {}, params)))
        return rows[start : start + count]
    if isinstance(op, Distinct):
        seen = set()
        out = []
        for row in rows:
            try:
                key = row
                duplicate = key in seen
            except TypeError:  # unhashable row views compare as tuples
                key = tuple(row)
                duplicate = key in seen
            if not duplicate:
                seen.add(key)
                out.append(row)
        return out
    raise ExecutionError(
        f"no managed merge for post-operator {type(op).__name__}"
    )


def _stable_sort(
    rows: List[Any],
    keys: Tuple[Lambda, ...],
    descending: Tuple[bool, ...],
    params: Dict[str, Any],
) -> List[Any]:
    """Multi-key sort as successive stable passes, last key first.

    Equivalent to every engine's stable comparator (quicksort with index
    tiebreak, numpy lexsort): ties keep the merged (sequential) row order.
    """
    order = list(range(len(rows)))
    for key, desc in list(zip(keys, descending))[::-1]:
        (param,) = key.params
        key_values = [interpret(key.body, {param: row}, params) for row in rows]
        order.sort(key=key_values.__getitem__, reverse=bool(desc))
    return [rows[i] for i in order]


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


def build_parallel_query(
    split: ParallelSplit,
    compile_kernel: Callable[[Plan], Any],
) -> ParallelQuery:
    """Build the morsel kernels and merge recipe for a parallel-safe plan.

    ``compile_kernel`` compiles one (partial) plan with the split's morsel
    ordinal — supplied by the provider so engine selection, verification
    and cache accounting stay in one place.
    """
    core = split.core
    if split.mode == "rows":
        return ParallelQuery(
            mode="rows",
            morsel_ordinal=split.morsel_ordinal,
            kernels=[compile_kernel(core)],
            post_ops=split.post_ops,
        )

    # the shared slot plan (avg → sum + shared count), so the merge layout
    # always matches the backends'
    slots, extract = physical_slots(core.aggregates)
    if split.mode == "scalar":
        kernels = [
            compile_kernel(
                ScalarAggregate(
                    child=core.child,
                    aggregates=(AggregateSpec(kind, selector),),
                    output=Var("__agg0"),
                )
            )
            for kind, selector in slots
        ]
        return ParallelQuery(
            mode="scalar",
            morsel_ordinal=split.morsel_ordinal,
            kernels=kernels,
            post_ops=split.post_ops,
            output=core.output,
            scalar_spec=ScalarMergeSpec(
                slot_kinds=[kind for kind, _ in slots], extract=extract
            ),
        )

    # group: one kernel emitting the morsel's group table flat
    key_body = core.key.body
    if isinstance(key_body, New):
        key_field_names = key_body.field_names
        key_type_name = key_body.type_name
        key_exprs = [Member(Var("__key"), name) for name in key_field_names]
        key_is_record = True
    else:
        key_field_names = ("k0",)
        key_type_name = None
        key_exprs = [Var("__key")]
        key_is_record = False
    out_fields = tuple(
        (f"k{c}", expr) for c, expr in enumerate(key_exprs)
    ) + tuple((f"s{j}", Var(f"__agg{j}")) for j in range(len(slots)))
    partial_plan = GroupAggregate(
        child=core.child,
        key=core.key,
        aggregates=tuple(AggregateSpec(kind, sel) for kind, sel in slots),
        output=New(out_fields),
        fused=True,
        share=True,
    )
    merge_kinds = ["sum" if kind == "count" else kind for kind, _ in slots]
    return ParallelQuery(
        mode="group",
        morsel_ordinal=split.morsel_ordinal,
        kernels=[compile_kernel(partial_plan)],
        post_ops=split.post_ops,
        output=core.output,
        group_spec=GroupMergeSpec(
            nkeys=len(key_exprs),
            key_is_record=key_is_record,
            key_field_names=tuple(key_field_names),
            key_type_name=key_type_name,
            merge_kinds=merge_kinds,
            extract=extract,
        ),
    )
