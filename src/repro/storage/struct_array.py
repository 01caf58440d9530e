"""StructArray — the array-of-structs row store of paper §5.

"In C#, structs are considered value types.  Hence, an array of structs
stores the data elements at each array position instead of a reference.
Storing the source data in fixed-length arrays of structs without
references leads to consecutive storage of data in memory and to a flat
representation of each data element, comparable to a row-store in a
database system."

A :class:`StructArray` wraps a NumPy structured array (which has exactly
that memory layout) together with its :class:`~repro.storage.schema.Schema`.
The native engine generates vectorized code against the raw array; the
managed side can still read individual rows as record objects — the
two-runtime access the paper exploits.

Beyond the paper's static-collection setting, a StructArray is
**append-only mutable with snapshot isolation**: :meth:`append_rows` /
:meth:`append_objects` grow the array past a *watermark* published
atomically as one ``(buffer, length, version)`` state tuple, so readers
never observe a torn length — every read sees a fully-written prefix.
:meth:`snapshot` is O(1): it pins the current state tuple, sharing the
backing buffer zero-copy (rows below the watermark are never mutated
again).  The monotonically increasing :attr:`version` lets the result
recycler distinguish "grew by appends" from "unchanged" and re-run
compiled kernels over only the ``[old_watermark, new_watermark)`` range.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import ExecutionError, SchemaError
from .schema import Schema

__all__ = ["StructArray"]

#: smallest capacity the append path over-allocates to (rows)
_MIN_GROW_ROWS = 64


class StructArray:
    """Fixed-layout, contiguous row storage over a schema.

    Thread-safety contract: appends serialize on a writer lock; readers
    are lock-free.  The backing state is one ``(buffer, length, version)``
    tuple swapped atomically, so any reader sees a consistent prefix —
    rows ``[0, length)`` are immutable once published.
    """

    def __init__(self, schema: Schema, data: np.ndarray):
        expected = schema.numpy_dtype()
        if data.dtype != expected:
            raise SchemaError(
                f"array dtype {data.dtype} does not match schema layout {expected}"
            )
        self.schema = schema
        #: single atomically-published (buffer, length, version) tuple;
        #: readers read it once and never see a half-applied append
        self._state = (data, len(data), 0)
        self._write_lock = threading.Lock()
        #: snapshots refuse appends — their watermark is their identity
        self._frozen = False
        #: field name → HashIndex; always starts empty, even on derived
        #: arrays (take/filter/cluster_by) — indexes describe *this*
        #: array's physical design, never a parent's
        self._index_store: dict = {}
        #: clustering column + the version it was established at; stale
        #: clustering (appends since) is bypassed, never trusted
        self._cluster_field: Optional[str] = None
        self._clustered_version = -1
        #: the live array a snapshot was pinned from (None on live arrays);
        #: lets the snapshot inherit the parent's *logical* index design
        #: while materializing prefix-correct indexes on demand
        self._parent: Optional["StructArray"] = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema, length: int) -> "StructArray":
        return cls(schema, np.zeros(length, dtype=schema.numpy_dtype()))

    @classmethod
    def from_objects(cls, schema: Schema, objects: Iterable[Any]) -> "StructArray":
        """Build from objects exposing the schema's fields as attributes."""
        rows = [schema.encode_row(obj) for obj in objects]
        return cls._from_encoded(schema, rows)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[Any]]) -> "StructArray":
        """Build from positional value sequences in schema field order."""
        encoded = [schema.encode_values(row) for row in rows]
        return cls._from_encoded(schema, encoded)

    @classmethod
    def from_columns(cls, schema: Schema, columns: dict) -> "StructArray":
        """Build from per-field arrays (already in native representation)."""
        missing = [n for n in schema.field_names if n not in columns]
        if missing:
            raise SchemaError(f"missing columns: {missing}")
        lengths = {len(columns[n]) for n in schema.field_names}
        if len(lengths) > 1:
            raise SchemaError(f"column length mismatch: {sorted(lengths)}")
        (length,) = lengths or {0}
        data = np.zeros(length, dtype=schema.numpy_dtype())
        for name in schema.field_names:
            data[name] = columns[name]
        return cls(schema, data)

    @classmethod
    def _from_encoded(cls, schema: Schema, rows: List[tuple]) -> "StructArray":
        data = np.array(rows, dtype=schema.numpy_dtype()) if rows else np.zeros(
            0, dtype=schema.numpy_dtype()
        )
        return cls(schema, data)

    # -- versioned state ---------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The published rows as one contiguous structured array.

        Zero-copy: when the backing buffer is exactly full this is the
        buffer itself; an over-allocated buffer yields a prefix *view*.
        """
        buffer, length, _ = self._state
        return buffer if len(buffer) == length else buffer[:length]

    @property
    def version(self) -> int:
        """Monotonic append counter; bumps exactly once per non-empty
        sanctioned append.  Out-of-band writes (``arr.data[i] = ...``) do
        not bump it — see :meth:`append_rows`."""
        return self._state[2]

    @property
    def watermark(self) -> tuple:
        """Consistent ``(version, length)`` pair for cache keying."""
        _, length, version = self._state
        return (version, length)

    # -- ingest (append path) ----------------------------------------------------

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append positional value sequences; returns the new version.

        The sanctioned mutation API: encodes outside the lock, publishes
        buffer-then-watermark so concurrent readers (including pinned
        snapshots and in-flight morsel kernels) keep iterating their own
        prefix untouched.  An empty batch is a no-op (no version bump).
        """
        encoded = [self.schema.encode_values(row) for row in rows]
        return self._append_encoded(encoded)

    def append_objects(self, objects: Iterable[Any]) -> int:
        """Append objects exposing the schema's fields as attributes."""
        encoded = [self.schema.encode_row(obj) for obj in objects]
        return self._append_encoded(encoded)

    def _append_encoded(self, encoded: List[tuple]) -> int:
        from .buffers import encode_chunks

        if self._frozen:
            raise ExecutionError(
                "cannot append to a snapshot; append to the live array"
            )
        if not encoded:
            return self.version
        chunk = encode_chunks(self.schema, encoded)
        with self._write_lock:
            buffer, length, version = self._state
            need = length + len(chunk)
            if need > len(buffer):
                capacity = max(need, 2 * len(buffer), _MIN_GROW_ROWS)
                grown = np.zeros(capacity, dtype=buffer.dtype)
                grown[:length] = buffer[:length]
                buffer = grown
            # write the new rows *before* publishing the state: a reader
            # that still sees the old tuple reads the old prefix; one
            # that sees the new tuple finds its rows fully written
            buffer[length:need] = chunk
            self._state = (buffer, need, version + 1)
            return version + 1

    def snapshot(self) -> "StructArray":
        """An O(1) immutable view pinned at the current watermark.

        Shares the backing buffer (rows below the watermark never change);
        refuses further appends.  Clustering metadata carries over only
        when still valid at the pinned version; indexes do not carry over
        — they belong to the live array's physical design.
        """
        if self._frozen:
            return self
        snap = StructArray.__new__(StructArray)
        snap.schema = self.schema
        state = self._state
        snap._state = state
        snap._write_lock = threading.Lock()
        snap._frozen = True
        snap._index_store = {}
        snap._parent = self
        if self._cluster_field is not None and self._clustered_version == state[2]:
            snap._cluster_field = self._cluster_field
            snap._clustered_version = state[2]
        else:
            snap._cluster_field = None
            snap._clustered_version = -1
        return snap

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- access ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._state[1]

    def column(self, name: str) -> np.ndarray:
        """Zero-copy view of one field across all rows."""
        self.schema[name]  # validates the field exists
        return self.data[name]

    def row(self, index: int) -> Any:
        """Decode one row into a managed-side record object."""
        return self.schema.decode_row(self.data[index])

    def __iter__(self) -> Iterator[Any]:
        decode = self.schema.decode_row
        for native_row in self.data:
            yield decode(native_row)

    def to_objects(self) -> List[Any]:
        """Materialize every row as a record object (managed representation)."""
        return list(self)

    def take(self, indexes: np.ndarray) -> "StructArray":
        """Row subset / reordering by index array (copy, stays contiguous).

        The result is a fresh array: version 0, no indexes, no clustering
        — derived physical design never aliases the parent's.
        """
        return StructArray(self.schema, self.data[indexes])

    def filter(self, mask: np.ndarray) -> "StructArray":
        """Row subset by boolean mask (copy, stays contiguous; fresh
        version and empty index table, like :meth:`take`)."""
        return StructArray(self.schema, self.data[mask])

    def nbytes(self) -> int:
        return int(self.data.nbytes)

    # -- clustering (§9 future-work extension) ------------------------------------

    def cluster_by(self, field_name: str) -> "StructArray":
        """A copy physically ordered by *field_name* (§9 "clustering").

        Range predicates on the clustering column compile to binary-search
        bounds instead of full-array masks (see the native backend).  The
        clustering column is recorded on the result at its current
        version; appending past it makes the clustering *stale* and the
        :attr:`clustering` property stops reporting it (bypass — appended
        rows are not in sorted position, so binary search would lie).
        """
        self.schema[field_name]  # validates
        order = np.argsort(self.data[field_name], kind="stable")
        clustered = StructArray(self.schema, self.data[order])
        clustered._cluster_field = field_name
        clustered._clustered_version = clustered.version
        return clustered

    @property
    def clustering(self) -> str | None:
        """The column this array is physically ordered by, if that fact
        is still current (no appends since :meth:`cluster_by`)."""
        if self._cluster_field is None:
            return None
        return self._cluster_field if self._clustered_version == self.version else None

    # -- indexes (§9 future-work extension) --------------------------------------

    def create_index(self, field_name: str):
        """Build (and register) a hash index on *field_name*.

        Registered indexes are found by the native code generator, which
        compiles equality predicates on indexed columns into lookups.
        A stale registered index (the array grew since it was built) is
        rebuilt in place.
        """
        from .index import HashIndex

        index = self._index_store.get(field_name)
        if index is None or index.stale():
            index = HashIndex(self, field_name)
            self._index_store[field_name] = index
        return index

    def get_index(self, field_name: str):
        """The registered index on *field_name*, or None.

        Called by *generated* native code at kernel runtime: a stale
        index is rebuilt here (rebuild-or-bypass, never wrong answers),
        so compiled index-lookup artifacts stay correct across appends.
        A snapshot inherits the parent's registered index columns and
        materializes a prefix-correct index on first use (reusing the
        parent's object when the watermarks still agree).
        """
        index = self._index_store.get(field_name)
        if index is not None and index.stale():
            index = self.create_index(field_name)
        if (
            index is None
            and self._parent is not None
            and field_name in self._parent._index_store
        ):
            parent_index = self._parent.get_index(field_name)
            if parent_index is not None and parent_index.built_at != self.watermark:
                from .index import HashIndex

                parent_index = HashIndex(self, field_name)
            index = self._index_store[field_name] = parent_index
        return index

    def index_fields(self) -> tuple:
        """Sorted names of the indexed columns (the physical-design
        component of the provider's source signature); a snapshot reports
        its parent's registered columns."""
        names = set(self._index_store)
        if self._parent is not None:
            names.update(self._parent._index_store)
        return tuple(sorted(names))

    @property
    def _indexes(self) -> dict:
        return self._index_store

    def __repr__(self) -> str:
        return (
            f"StructArray({self.schema.name}, n={len(self)}, "
            f"v{self.version}, {self.nbytes()} bytes)"
        )
