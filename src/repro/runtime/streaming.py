"""Streaming (buffered-materialization) runtime structures — paper §6.1.2.

Full materialization stages everything before native code runs; buffered
materialization processes each page as it fills, keeping the staging
footprint at one page.  These classes are the merge state that lives
across page boundaries:

* :class:`StreamingGroupAggregator` — merges per-page vectorized group
  aggregates into a running table ("the generated C code contains a
  blocking operation and does not return a result before all input is
  consumed");
* :class:`StreamingJoinProbe` — a build side prepared once and probed one
  page at a time ("transferring data in a single buffer" for the probe
  relation while "the hash tables require full materialization").

``avg`` cannot merge across pages, so aggregate specs must be decomposed
into ``sum`` + shared ``count`` *before* streaming — the code generator
does this and re-derives the average at finalization.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from .vectorized import _JoinTable, group_aggregate

__all__ = ["StreamingGroupAggregator", "StreamingJoinProbe"]

_MERGEABLE = {"sum", "count", "min", "max"}


class StreamingGroupAggregator:
    """Merges per-page group-aggregate results into one running table."""

    def __init__(self, nkeys: int, agg_kinds: Sequence[str]):
        for kind in agg_kinds:
            if kind not in _MERGEABLE:
                raise ExecutionError(
                    f"aggregate {kind!r} cannot merge across pages; decompose "
                    f"it before streaming (avg = sum/count)"
                )
        self._nkeys = nkeys
        self._agg_kinds = list(agg_kinds)
        # dtypes captured from the first page; placeholders if input is empty
        self._key_dtypes: Optional[List[np.dtype]] = None
        self._agg_dtypes: Optional[List[np.dtype]] = None
        self._groups: Dict[Tuple, List] = {}

    def consume_page(
        self,
        keys: Sequence[np.ndarray],
        values: Sequence[Optional[np.ndarray]],
    ) -> None:
        """Aggregate one staged page vectorized, then merge its few groups."""
        if len(keys[0]) == 0:
            return
        page_keys, page_results = group_aggregate(
            keys, list(zip(self._agg_kinds, values))
        )
        if self._key_dtypes is None:
            self._key_dtypes = [k.dtype for k in page_keys]
            self._agg_dtypes = [r.dtype for r in page_results]
        ngroups = len(page_keys[0])
        for g in range(ngroups):
            group_key = tuple(k[g] for k in page_keys)
            slots = self._groups.get(group_key)
            if slots is None:
                self._groups[group_key] = [r[g] for r in page_results]
                continue
            for i, kind in enumerate(self._agg_kinds):
                if kind in ("sum", "count"):
                    slots[i] += page_results[i][g]
                elif kind == "min":
                    slots[i] = min(slots[i], page_results[i][g])
                else:  # max
                    slots[i] = max(slots[i], page_results[i][g])

    def finalize(self) -> Tuple[Tuple[np.ndarray, ...], List[np.ndarray]]:
        """Running table → column arrays, groups in first-seen order."""
        n = len(self._groups)
        key_dtypes = self._key_dtypes or [np.dtype(np.float64)] * self._nkeys
        agg_dtypes = self._agg_dtypes or [np.dtype(np.float64)] * len(self._agg_kinds)
        key_cols = tuple(np.zeros(n, dtype=dt) for dt in key_dtypes)
        agg_cols = [np.zeros(n, dtype=dt) for dt in agg_dtypes]
        for row, (group_key, slots) in enumerate(self._groups.items()):
            for c, value in enumerate(group_key):
                key_cols[c][row] = value
            for c, value in enumerate(slots):
                agg_cols[c][row] = value
        return key_cols, agg_cols


class StreamingJoinProbe:
    """Build side prepared once — a direct-address table, or sorted when
    the keys cannot be addressed directly; pages probe it one at a time."""

    def __init__(self, build_keys: np.ndarray):
        self._table = _JoinTable(build_keys)

    def probe(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return (page-local probe indexes, build indexes) for all matches."""
        return self._table.probe(probe_keys)
