"""Vectorized (NumPy) kernels called by generated native code.

These are the Python stand-ins for the paper's generated C: compiled,
whole-array routines over contiguous memory.  The native backend's
generated source composes them with inline vectorized expressions; no
per-element Python executes between kernel calls.

Kernel design notes:

* the paper's §5 native code groups and joins through hash tables — one
  O(n) pass.  When the key domain is dense and known a hash map lowers
  to a plain array (LegoBase makes the same move), and that is what the
  kernels here do: a key column that is integer-like (``int64``,
  ``int32``, ``bool``, dates as day numbers, and byte strings of 1/2/4/8
  bytes read through a big-endian unsigned view, whose integer order is
  the bytewise order) is shifted by its minimum and addressed directly;
* grouping (:func:`_dense_codes` → :func:`_combined_codes`) marks a
  presence table, numbers the occupied slots in ascending order and
  gathers — codes are ranks in sorted unique order exactly as
  ``np.unique(return_inverse=True)`` would give them, in O(n + span).
  Composite keys combine per-key codes mixed-radix and are re-ranked the
  same way; first-occurrence rows come from one reversed scatter.
  Aggregates are ``np.bincount`` / ``ufunc.at`` — one pass per physical
  aggregate, accumulating in row order within a group, so sums do not
  depend on how groups are numbered;
* the join (:class:`_JoinTable`) scatters build-row positions into a
  table indexed by ``key - min``; a probe is one range mask and one
  gather.  A build side with duplicate keys keeps per-slot counts and
  offsets plus one stable argsort of the build side, and multi-matches
  expand with ``np.repeat`` in build order;
* **only when the keys cannot be densely coded** — floats, byte strings
  of other widths, or a key range wider than :data:`_DENSE_SPAN_FACTOR`
  times the row count — do the kernels sort: ``np.unique`` for grouping,
  a stable ``argsort`` of the build side probed by ``np.searchsorted``
  (:func:`probe_sorted`) for joins.  Which path ran is counted in
  ``runtime.kernels.dense`` / ``runtime.kernels.sorted`` (and
  ``runtime.kernels.sorted.<reason>``) and shown by
  ``explain_analyze()``.  :func:`semi_join_mask` stays ``np.isin``, which
  already addresses a table directly for integer keys of modest range;
* multi-key ordering uses ``np.lexsort`` after mapping each key to an
  ascending-sortable form (descending numeric keys negate; descending
  byte-string keys negate their factorized codes).
"""

from __future__ import annotations

import datetime
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..observability.metrics import METRICS

__all__ = [
    "factorize",
    "group_aggregate",
    "hash_join_indexes",
    "left_join_indexes",
    "gather_defaulted",
    "multiset_mask",
    "probe_sorted",
    "semi_join_mask",
    "sort_indexes",
    "topn_indexes",
    "distinct_indexes",
    "decode_rows",
    "decode_values",
    "coerce_str",
    "coerce_date",
]

#: widest key range, as a multiple of the row count, that is still
#: addressed directly.  Measured on the benchmark host (NumPy 2.4, int64
#: keys, a quarter of the rows distinct, best of 7): at 300 k rows the
#: presence-table factorization takes 3.8 / 7.5 / 11.5 / 18.9 / 38.2 ms at
#: span = 1 / 8 / 16 / 32 / 64 x n against 29-39 ms for ``np.unique``; at
#: 256 rows 13 / 13 / 14 / 15 / 17 us against 17-20 us.  The join table
#: wins at every ratio tried (29 ms against 565 ms at 16 x, 300 k build
#: rows, 1.2 M probes).  16 keeps a factor of two in hand everywhere and
#: bounds the temporaries at 16 table slots per row.
_DENSE_SPAN_FACTOR = 16

#: mixed-radix combinations are re-ranked before they could pass this
_MAX_RADIX = 2**62


def _note_kernel(reason: Optional[str] = None) -> None:
    """Count one factorization / join build: dense, or sorted for *reason*."""
    if reason is None:
        METRICS.counter("runtime.kernels.dense").add()
    else:
        METRICS.counter("runtime.kernels.sorted").add()
        METRICS.counter(f"runtime.kernels.sorted.{reason}").add()


def _ordered_ints(column: np.ndarray) -> Optional[np.ndarray]:
    """*column* viewed as integers that order as the column does, or None."""
    kind = column.dtype.kind
    if kind in "iu":
        return column
    if kind == "b":
        return column.view(np.uint8)
    if kind == "S" and column.dtype.itemsize in (1, 2, 4, 8):
        return column.view(f">u{column.dtype.itemsize}")
    return None


def _dense_offsets(ints: np.ndarray) -> Optional[Tuple[np.ndarray, int, int]]:
    """``(ints - lo, lo, span)`` for a non-empty integer array whose range is
    narrow enough to address directly, else None.

    ``lo`` and ``span`` are Python ints, so a range wider than int64 is
    seen as wide instead of wrapping; the offsets are int64.
    """
    lo, hi = int(ints.min()), int(ints.max())
    span = hi - lo + 1
    if span > _DENSE_SPAN_FACTOR * len(ints):
        return None
    if ints.dtype.kind == "u" and ints.dtype.itemsize == 8:
        # lo may exceed int64; the differences do not
        offsets = (ints - np.uint64(lo)).view(np.int64)
    else:
        offsets = np.subtract(ints, lo, dtype=np.int64)
    return offsets, lo, span


def _sorted_codes(column: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(codes, cardinality)`` by sorting — for what cannot be addressed."""
    uniques, codes = np.unique(column, return_inverse=True)
    return codes.astype(np.int64, copy=False), len(uniques)


def _rank(offsets: np.ndarray, span: int) -> Tuple[np.ndarray, int]:
    """Order-preserving dense codes for values in ``[0, span)``.

    Direct-addressed while *span* stays within the factor, sorted beyond
    it.  Only occupied slots of the remap table are written or read.
    """
    if span > _DENSE_SPAN_FACTOR * len(offsets):
        _note_kernel("sparse")
        return _sorted_codes(offsets)
    _note_kernel()
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    occupied = np.flatnonzero(present)
    if len(occupied) == span:
        return offsets, span
    remap = np.empty(span, dtype=np.int64)
    remap[occupied] = np.arange(len(occupied), dtype=np.int64)
    return remap[offsets], len(occupied)


def _dense_codes(column: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """``(codes, cardinality)`` with codes the ranks of *column*'s values in
    sorted unique order, in O(n + span) — or None, with the reason counted,
    when the column is not integer-like or its range is too wide."""
    ints = _ordered_ints(column)
    if ints is None:
        _note_kernel("dtype")
        return None
    if len(ints) == 0:
        return np.zeros(0, dtype=np.int64), 0
    dense = _dense_offsets(ints)
    if dense is None:
        _note_kernel("sparse")
        return None
    offsets, _, span = dense
    return _rank(offsets, span)


def _first_rows(codes: np.ndarray, ngroups: int) -> np.ndarray:
    """First row of each group: scatter row numbers back to front, so the
    earliest row is the last write to its group's slot."""
    first = np.empty(ngroups, dtype=np.int64)
    first[codes[::-1]] = np.arange(len(codes) - 1, -1, -1, dtype=np.int64)
    return first


def factorize(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return (codes, uniques): codes are ranks in sorted unique order."""
    dense = _dense_codes(values)
    if dense is not None:
        codes, cardinality = dense
        return codes, values[_first_rows(codes, cardinality)]
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64, copy=False), uniques


def _combined_codes(
    keys: Sequence[np.ndarray],
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], np.ndarray]:
    """Factorize a composite key: dense codes, per-key group values, and the
    first-occurrence row of each group.

    Combines per-key codes positionally (mixed radix), then re-ranks the
    combination so codes are dense — and re-ranks early whenever one more
    key could carry the radix past int64.
    """
    if len(keys) == 1:
        dense = _dense_codes(keys[0])
        if dense is None:
            uniques, first_rows, inverse = np.unique(
                keys[0], return_index=True, return_inverse=True
            )
            return inverse.astype(np.int64, copy=False), (uniques,), first_rows
        codes, cardinality = dense
    else:
        ranked = [_dense_codes(key) or _sorted_codes(key) for key in keys]
        codes, cardinality = ranked[0]
        for key_codes, key_cardinality in ranked[1:]:
            if cardinality * key_cardinality > _MAX_RADIX:
                codes, cardinality = _rank(codes, cardinality)
            codes = codes * key_cardinality + key_codes
            cardinality *= key_cardinality
        codes, cardinality = _rank(codes, cardinality)
    first_rows = _first_rows(codes, cardinality)
    return codes, tuple(k[first_rows] for k in keys), first_rows


def _group_sum(
    codes: np.ndarray, values: np.ndarray, ngroups: int
) -> np.ndarray:
    """Per-group sums with a dtype-exact accumulator.

    ``np.bincount(weights=...)`` always accumulates in float64, which
    silently loses exactness for int64 values above 2**53.  Integer and
    boolean inputs therefore get an int64 accumulator instead; floats
    keep the bincount fast path.
    """
    assert values is not None
    if np.issubdtype(values.dtype, np.integer) or values.dtype == np.bool_:
        out = np.zeros(ngroups, dtype=np.int64)
        np.add.at(out, codes, values)
        return out
    return np.bincount(codes, weights=values, minlength=ngroups)


def group_aggregate(
    keys: Sequence[np.ndarray],
    aggs: Sequence[Tuple[str, Optional[np.ndarray]]],
) -> Tuple[Tuple[np.ndarray, ...], List[np.ndarray]]:
    """Group rows by composite *keys* and compute *aggs* per group.

    ``aggs`` entries are ``(kind, values)`` with ``values`` None only for
    ``count``.  Returns per-key group-value arrays and one result array per
    aggregate, groups in first-seen order.
    """
    if not keys:
        raise ValueError("group_aggregate requires at least one key")
    codes, key_values, first_rows = _combined_codes(keys)
    ngroups = len(key_values[0])
    results: List[np.ndarray] = []
    counts: Optional[np.ndarray] = None
    for kind, values in aggs:
        if kind == "count":
            if counts is None:
                counts = np.bincount(codes, minlength=ngroups)
            results.append(counts)
        elif kind == "sum":
            results.append(_group_sum(codes, values, ngroups))
        elif kind == "avg":
            if counts is None:
                counts = np.bincount(codes, minlength=ngroups)
            sums = np.bincount(codes, weights=values, minlength=ngroups)
            results.append(sums / counts)
        elif kind in ("min", "max"):
            assert values is not None
            if np.issubdtype(values.dtype, np.number):
                fill = (
                    (np.inf if kind == "min" else -np.inf)
                    if np.issubdtype(values.dtype, np.floating)
                    else (
                        np.iinfo(values.dtype).max
                        if kind == "min"
                        else np.iinfo(values.dtype).min
                    )
                )
                out = np.full(ngroups, fill, dtype=values.dtype)
                ufunc = np.minimum if kind == "min" else np.maximum
                ufunc.at(out, codes, values)
                results.append(out)
            else:
                # byte-string min/max: sort by (code, value) and slice edges
                order = np.lexsort((values, codes))
                boundaries = np.searchsorted(codes[order], np.arange(ngroups))
                if kind == "min":
                    results.append(values[order][boundaries])
                else:
                    ends = np.append(boundaries[1:], len(values)) - 1
                    results.append(values[order][ends])
        else:
            raise ValueError(f"unknown aggregate kind {kind!r}")
    # reorder groups to first-seen order, matching the hash-table engines
    perm = np.argsort(first_rows, kind="stable")
    key_values = tuple(k[perm] for k in key_values)
    results = [r[perm] for r in results]
    return key_values, results


_NO_MATCHES = np.zeros(0, dtype=np.int64)


def _expand_matches(
    probe_rows: np.ndarray, starts: np.ndarray, counts: np.ndarray, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten per-probe-row runs ``order[start : start + count]`` in probe
    order, ties in build order."""
    left_idx = np.repeat(probe_rows, counts)
    if len(left_idx) == 0:
        return left_idx, left_idx.copy()
    within = np.arange(len(left_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
    return left_idx, order[np.repeat(starts, counts) + within]


class _JoinTable:
    """The build side of an equi-join, prepared once and probed many times.

    Integer keys of narrow range get a direct-address table: the row
    position per key when build keys are unique, else per-key counts and
    offsets into one stable argsort of the build side.  Everything else
    sorts the build side and probes by binary search.
    """

    __slots__ = (
        "_keys",
        "_lo",
        "_hi",
        "_positions",
        "_counts",
        "_starts",
        "_order",
        "_sorted_keys",
    )

    def __init__(self, build_keys: np.ndarray):
        self._keys = build_keys
        self._positions = self._counts = self._order = self._sorted_keys = None
        if len(build_keys) == 0:
            return
        integer = build_keys.dtype.kind == "i"
        dense = _dense_offsets(build_keys) if integer else None
        if dense is None:
            _note_kernel("sparse" if integer else "dtype")
            self._sort_build()
            return
        _note_kernel()
        offsets, self._lo, span = dense
        self._hi = self._lo + span - 1
        positions = np.full(span, -1, dtype=np.int64)
        positions[offsets] = np.arange(len(offsets), dtype=np.int64)
        if np.count_nonzero(positions >= 0) == len(offsets):
            self._positions = positions
            return
        self._counts = np.bincount(offsets, minlength=span)
        self._starts = np.cumsum(self._counts) - self._counts
        self._order = np.argsort(offsets, kind="stable")

    def _sort_build(self) -> None:
        if self._order is None:
            self._order = np.argsort(self._keys, kind="stable")
        self._sorted_keys = self._keys[self._order]

    def probe(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Aligned ``(probe_idx, build_idx)`` of every match."""
        if len(probe_keys) == 0 or len(self._keys) == 0:
            return _NO_MATCHES, _NO_MATCHES
        if self._sorted_keys is None and probe_keys.dtype.kind != "i":
            self._sort_build()
        if self._sorted_keys is not None:
            return probe_sorted(self._sorted_keys, self._order, probe_keys)
        rows = np.flatnonzero((probe_keys >= self._lo) & (probe_keys <= self._hi))
        slots = np.subtract(probe_keys[rows], self._lo, dtype=np.int64)
        if self._positions is not None:
            build_idx = self._positions[slots]
            found = build_idx >= 0
            return rows[found], build_idx[found]
        return _expand_matches(
            rows, self._starts[slots], self._counts[slots], self._order
        )


def hash_join_indexes(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Equi-join: return aligned (left_idx, right_idx) for all matches.

    Output preserves left (probe) order; ties on the build side expand in
    build order — matching the row-order contract of the hash-join the
    other engines use.
    """
    if len(left_keys) == 0 or len(right_keys) == 0:
        return _NO_MATCHES, _NO_MATCHES
    return _JoinTable(right_keys).probe(left_keys)


def probe_sorted(
    sorted_right: np.ndarray, order: np.ndarray, left_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Probe a pre-sorted build side by binary search (the fallback of
    :class:`_JoinTable` for keys it cannot address directly)."""
    if len(left_keys) == 0 or len(sorted_right) == 0:
        return _NO_MATCHES, _NO_MATCHES
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    return _expand_matches(
        np.arange(len(left_keys), dtype=np.int64), lo, hi - lo, order
    )


def semi_join_mask(left_keys: np.ndarray, right_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of left rows whose key appears in right_keys."""
    if len(right_keys) == 0:
        return np.zeros(len(left_keys), dtype=bool)
    return np.isin(left_keys, right_keys)


def left_join_indexes(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-outer equi-join: aligned ``(left_idx, right_idx, matched)``.

    Matched rows expand exactly like :func:`hash_join_indexes`; each
    unmatched probe row appears once with ``matched`` False and a
    placeholder ``right_idx`` of 0 (never dereference it — gather through
    :func:`gather_defaulted` instead).  Probe order is preserved.
    """
    li, ri = hash_join_indexes(left_keys, right_keys)
    matched_probe = np.zeros(len(left_keys), dtype=bool)
    matched_probe[li] = True
    missing = np.flatnonzero(~matched_probe)
    if len(missing) == 0:
        return li, ri, np.ones(len(li), dtype=bool)
    all_li = np.concatenate([li, missing])
    all_ri = np.concatenate([ri, np.zeros(len(missing), dtype=np.int64)])
    matched = np.concatenate(
        [np.ones(len(li), dtype=bool), np.zeros(len(missing), dtype=bool)]
    )
    # a probe row is either matched or unmatched, never both, so a stable
    # sort on the left index restores probe order without reordering ties
    order = np.argsort(all_li, kind="stable")
    return all_li[order], all_ri[order], matched[order]


def gather_defaulted(
    column: np.ndarray, indexes: np.ndarray, matched: np.ndarray, default, kind: str
) -> np.ndarray:
    """Gather ``column[indexes]`` but substitute *default* where unmatched.

    The build column may be empty (every probe row unmatched), a constant
    projection may hand us a scalar instead of an array, and a byte-string
    default may be wider than the column's fixed itemsize — all widen or
    broadcast instead of faulting.
    """
    if kind == "str":
        default = coerce_str(default)
    elif kind == "date":
        default = coerce_date(default)
    n = len(indexes)
    if not isinstance(column, np.ndarray):
        if kind == "str":
            column = coerce_str(column)
        elif kind == "date":
            column = coerce_date(column)
        return np.where(matched, column, default)
    if len(column) == 0:
        return np.full(n, default)
    out = column[np.where(matched, indexes, 0)]
    if matched.all():
        return out
    if isinstance(default, bytes) and out.dtype.itemsize < len(default):
        out = out.astype(f"S{len(default)}")
    elif isinstance(default, float) and not np.issubdtype(
        out.dtype, np.floating
    ):
        out = out.astype(np.float64)
    out[~matched] = default
    return out


def multiset_mask(
    left_cols: Sequence[np.ndarray],
    right_cols: Sequence[np.ndarray],
    keep_matched: bool,
) -> np.ndarray:
    """Bag-semantics intersect/except mask over whole rows.

    Counts each distinct right row, then keeps a left row when its
    occurrence rank (0-based, in input order) is below the right count
    (``keep_matched`` — INTERSECT ALL) or at/after it (EXCEPT ALL).
    Matches the probe-and-decrement order the row engines use: the
    *first* ``min(l, r)`` copies survive an intersect, the copies beyond
    the right count survive an except.
    """
    nleft = len(left_cols[0]) if left_cols else 0
    nright = len(right_cols[0]) if right_cols else 0
    if nleft == 0:
        return np.zeros(0, dtype=bool)
    if nright == 0:
        fill = not keep_matched
        return np.full(nleft, fill, dtype=bool)
    # factorize both sides on a shared code space
    joint = [np.concatenate([l, r]) for l, r in zip(left_cols, right_cols)]
    codes, _, _ = _combined_codes(joint)
    lcodes, rcodes = codes[:nleft], codes[nleft:]
    ncodes = int(codes.max()) + 1
    counts = np.bincount(rcodes, minlength=ncodes)
    # occurrence rank of each left row among equal rows, in input order
    order = np.argsort(lcodes, kind="stable")
    sorted_codes = lcodes[order]
    starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
    run_lengths = np.diff(np.r_[starts, nleft])
    ranks_sorted = np.arange(nleft) - np.repeat(starts, run_lengths)
    ranks = np.empty(nleft, dtype=np.int64)
    ranks[order] = ranks_sorted
    if keep_matched:
        return ranks < counts[lcodes]
    return ranks >= counts[lcodes]


def _ascending_form(key: np.ndarray, descending: bool) -> np.ndarray:
    """Map *key* to an array whose ascending order realizes the direction."""
    if not descending:
        return key
    if np.issubdtype(key.dtype, np.number):
        return (
            -key.astype(np.float64)
            if np.issubdtype(key.dtype, np.unsignedinteger)
            else -key
        )
    codes, _ = factorize(key)
    return -codes


def sort_indexes(
    keys: Sequence[np.ndarray], descending: Sequence[bool]
) -> np.ndarray:
    """Stable multi-key, mixed-direction argsort (primary key first)."""
    transformed = [
        _ascending_form(k, d) for k, d in zip(keys, descending)
    ]
    if len(transformed) == 1:
        return np.argsort(transformed[0], kind="stable")
    # lexsort treats the LAST key as primary
    return np.lexsort(tuple(reversed(transformed)))


def topn_indexes(
    keys: Sequence[np.ndarray], descending: Sequence[bool], n: int
) -> np.ndarray:
    """Indexes of the top-*n* rows under the requested ordering.

    Uses ``argpartition`` to shrink the candidate set before the full sort
    — the vectorized counterpart of the bounded heap.
    """
    total = len(keys[0])
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    if n >= total:
        return sort_indexes(keys, descending)
    if len(keys) == 1 and np.issubdtype(keys[0].dtype, np.number):
        primary = _ascending_form(keys[0], descending[0])
        partitioned = np.argpartition(primary, n - 1)
        # widen to every row tied with the boundary value so the stable
        # (original-index) tie-break matches the heap's semantics
        boundary = primary[partitioned[n - 1]]
        candidates = np.flatnonzero(primary <= boundary)
        order = np.lexsort((candidates, primary[candidates]))
        return candidates[order][:n]
    full = sort_indexes(keys, descending)
    return full[:n]


#: rows decoded per native→managed crossing; one "EvaluateQuery call"
#: hands back a block of results rather than a single element
_DECODE_CHUNK = 1024


#: ``date.fromordinal`` argument of day 0 of the native date encoding
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


def _decode_column(column: np.ndarray, kind: str) -> list:
    """Bulk-convert one native column chunk to managed values."""
    if kind == "str":
        return [raw.rstrip(b"\x00").decode("utf-8") for raw in column.tolist()]
    if kind == "date":
        from_ordinal = datetime.date.fromordinal
        return [from_ordinal(_EPOCH_ORDINAL + days) for days in column.tolist()]
    # tolist() converts numeric/bool dtypes to Python scalars natively
    return column.tolist()


def decode_rows(columns: Sequence[np.ndarray], kinds: Sequence[str], record_type):
    """Yield result records from column arrays, a chunk at a time.

    The native result surface: each chunk boundary is a crossing back into
    the managed (Python) world — the "return result" cost the breakdown
    figures report — while within a chunk conversion stays in compiled
    code.  Lazy beyond the current chunk, preserving deferred execution.
    """
    n = len(columns[0]) if columns else 0
    # what ``record_type._make`` does, minus its Python frame and a length
    # check the zip already guarantees
    record_types = repeat(record_type)
    for start in range(0, n, _DECODE_CHUNK):
        stop = min(start + _DECODE_CHUNK, n)
        decoded = [
            _decode_column(col[start:stop], kind)
            for col, kind in zip(columns, kinds)
        ]
        yield from map(tuple.__new__, record_types, zip(*decoded))


def decode_values(column: np.ndarray, kind: str):
    """Yield scalar results (projection to a single value), chunked."""
    for start in range(0, len(column), _DECODE_CHUNK):
        stop = min(start + _DECODE_CHUNK, len(column))
        yield from _decode_column(column[start:stop], kind)


class RowView:
    """A pointer into native result memory — nothing is copied up front.

    The paper's §5 avoids copying result structs: "we return a pointer to
    the result element as IntPtr ... and cast it to the correct type in
    the caller.  This significantly reduces the cost of queries with huge
    results."  A RowView is that pointer: field access decodes exactly the
    cell touched.
    """

    __slots__ = ("_columns", "_kinds", "_names", "_index")

    def __init__(self, columns: dict, kinds: dict, names: tuple, index: int):
        self._columns = columns
        self._kinds = kinds
        self._names = names
        self._index = index

    def __getattr__(self, name: str):
        columns = object.__getattribute__(self, "_columns")
        try:
            column = columns[name]
        except KeyError:
            raise AttributeError(name) from None
        kinds = object.__getattribute__(self, "_kinds")
        index = object.__getattribute__(self, "_index")
        return _decode_column(column[index : index + 1], kinds[name])[0]

    def __iter__(self):
        for name in object.__getattribute__(self, "_names"):
            yield getattr(self, name)

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._names)
        return f"RowView({fields})"


def view_rows(columns: dict, kinds: dict, names: tuple):
    """Yield one :class:`RowView` per result row (the no-copy path)."""
    n = len(next(iter(columns.values()))) if columns else 0
    for index in range(n):
        yield RowView(columns, kinds, names, index)


def coerce_str(value) -> bytes:
    """Managed str → native fixed-width-bytes comparison operand."""
    if isinstance(value, str):
        return value.encode("utf-8")
    return value


def coerce_date(value):
    """Managed date → native days-since-epoch comparison operand."""
    if isinstance(value, datetime.date):
        from ..storage.schema import date_to_days

        return date_to_days(value)
    return value


def distinct_indexes(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Indexes of the first occurrence of each distinct row, in input order."""
    if not columns:
        raise ValueError("distinct_indexes requires at least one column")
    _, _, first_rows = _combined_codes(columns)
    return np.sort(first_rows)
