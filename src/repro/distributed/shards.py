"""Shard ownership: partitioning pinned StructArray snapshots for workers.

A shard is built in three steps, each chosen to keep the distributed
results bit-identical to sequential execution:

1. **Pin** — the live array's atomic ``(buffer, length, version)`` state
   is captured with :meth:`~repro.storage.struct_array.StructArray.
   snapshot` (O(1), shares the buffer).  Concurrent appends after the
   pin are invisible to every shard, exactly like the sequential and
   thread-parallel paths.
2. **Slice** — ``data[lo:hi]`` of the pinned prefix is a zero-copy NumPy
   view; pickling it across the spawn boundary copies just those rows
   (column buffers travel as one contiguous structured block, no
   per-row encode/decode).
3. **Token** — every payload carries a stable identity
   ``(table_uid, version, length, part)``.  Workers cache materialized
   tables by token, so a warm query ships only small task messages;
   ``table_uid`` comes from a weak registry (not a raw ``id()``, whose
   values the allocator reuses) and is anchored on the *live* array, so
   successive snapshots of one table share cache residency.

Physical design travels with the payload: indexed column names (the
worker rebuilds prefix-correct hash indexes locally — shipping index
dicts would be larger than the data) and the clustering column (a
contiguous slice of a sorted array is still sorted, so binary-search
range scans stay valid per shard).
"""

from __future__ import annotations

import pickle
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, List, Tuple

import numpy as np

from ..storage.struct_array import StructArray

__all__ = [
    "TableShard",
    "broadcast_payload",
    "materialize",
    "pin",
    "probe_shard",
    "shard_bounds",
    "shard_payload",
    "table_token",
    "table_uid",
]


#: weak registry assigning process-unique table ids (id() values recycle)
_UID_LOCK = threading.Lock()
_UIDS: "weakref.WeakValueDictionary[int, StructArray]" = (
    weakref.WeakValueDictionary()
)
_UID_BY_TABLE: "weakref.WeakKeyDictionary[StructArray, int]" = (
    weakref.WeakKeyDictionary()
)
_NEXT_UID = [0]


def pin(source: StructArray) -> StructArray:
    """An immutable snapshot of *source* (the source itself if frozen)."""
    return source if source.frozen else source.snapshot()


def table_uid(source: StructArray) -> int:
    """Process-unique id of the *live* table behind a snapshot.

    Anchored on the snapshot's parent so that two snapshots of the same
    table — or the same snapshot pinned twice — share one uid, which is
    what lets workers keep shards resident across queries.
    """
    anchor = source
    if source.frozen and source._parent is not None:
        anchor = source._parent
    with _UID_LOCK:
        uid = _UID_BY_TABLE.get(anchor)
        if uid is None:
            _NEXT_UID[0] += 1
            uid = _NEXT_UID[0]
            _UID_BY_TABLE[anchor] = uid
            _UIDS[uid] = anchor
        return uid


def table_token(snapshot: StructArray, part: Tuple[Any, ...]) -> tuple:
    """Worker-cache identity of one payload: uid + watermark + part."""
    version, length = snapshot.watermark
    return (table_uid(snapshot), version, length, part)


def shard_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Deterministic contiguous split of ``[0, total)`` into *shards*.

    Mirrors :func:`~repro.runtime.parallel.morsel_bounds`: an empty
    driver still yields one empty shard so aggregate kernels run and
    reproduce sequential empty-input semantics.  Earlier shards get the
    remainder rows, so the split depends only on ``(total, shards)`` —
    a resubmitted task re-slices to identical bounds.
    """
    shards = max(1, shards)
    if total <= 0:
        return [(0, 0)]
    shards = min(shards, total)
    base, extra = divmod(total, shards)
    bounds = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


@dataclass
class TableShard:
    """One picklable table payload: rows plus physical-design metadata."""

    token: tuple
    schema: Any
    raw: np.ndarray
    version: int
    index_fields: Tuple[str, ...] = ()
    clustering: Any = None
    #: original [lo, hi) window in the pinned snapshot (for diagnostics)
    window: Tuple[int, int] = field(default=(0, 0))


def shard_payload(snapshot: StructArray, lo: int, hi: int) -> TableShard:
    """Payload for rows ``[lo, hi)`` of a pinned snapshot."""
    return TableShard(
        token=table_token(snapshot, ("shard", lo, hi)),
        schema=snapshot.schema,
        # np.array copies the zero-copy view into one contiguous block
        # sized exactly to the shard, which is what pickle transmits
        raw=np.array(snapshot.data[lo:hi]),
        version=snapshot.version,
        index_fields=tuple(snapshot.index_fields()),
        clustering=snapshot.clustering,
        window=(lo, hi),
    )


def broadcast_payload(snapshot: StructArray) -> TableShard:
    """Payload for a whole pinned snapshot (join build sides)."""
    return shard_payload_full(snapshot)


def shard_payload_full(snapshot: StructArray) -> TableShard:
    length = len(snapshot)
    shard = shard_payload(snapshot, 0, length)
    return TableShard(
        token=table_token(snapshot, ("full",)),
        schema=shard.schema,
        raw=shard.raw,
        version=shard.version,
        index_fields=shard.index_fields,
        clustering=shard.clustering,
        window=(0, length),
    )


def materialize(shard: TableShard) -> StructArray:
    """Rebuild a worker-local StructArray from a shipped payload.

    The array is frozen at the shipped version (shards are immutable
    snapshots), indexes are rebuilt locally over the shard's own rows,
    and clustering metadata is pinned at that version so the staleness
    rules behave exactly as they would on the coordinator's snapshot.
    """
    array = StructArray(shard.schema, shard.raw)
    array._state = (shard.raw, len(shard.raw), shard.version)
    array._frozen = True
    if shard.clustering:
        array._cluster_field = shard.clustering
        array._clustered_version = shard.version
    for name in shard.index_fields:
        array.create_index(name)
    return array


def probe_shard(blob: bytes) -> dict:
    """Round-trip diagnostic: unpickle + materialize + describe.

    Module-level so a spawn-context child process can import and run it
    (``tests/test_distributed_shards.py`` asserts the result against the
    parent-side snapshot).
    """
    shard = pickle.loads(blob)
    array = materialize(shard)
    index_ok = all(
        array.get_index(name) is not None and not array.get_index(name).stale()
        for name in shard.index_fields
    )
    return {
        "token": shard.token,
        "dtype": str(array.data.dtype),
        "length": len(array),
        "version": array.version,
        "watermark": array.watermark,
        "frozen": array.frozen,
        "index_fields": tuple(array.index_fields()),
        "indexes_fresh": index_ok,
        "clustering": array.clustering,
        "first_row": tuple(array.data[0].item()) if len(array) else None,
        "last_row": tuple(array.data[-1].item()) if len(array) else None,
    }
