"""The sort-based kernels this repository ran before the direct-address
ones — kept verbatim as the reference the Hypothesis suite in
``test_vectorized_kernels.py`` compares the live kernels against.

``np.unique`` factorization and a stable ``argsort`` + ``searchsorted``
join: O(n log n), dtype-agnostic, and obviously right.  Known limits,
which the suite steers around and tests separately: ``_combined_codes``
multiplies radixes in int64 without a guard, and ``left_join_indexes``
asks ``np.isin`` (NaN never equal) about rows ``searchsorted`` (NaN
equal) has already matched, so a NaN key comes back twice.
"""

from typing import Sequence, Tuple

import numpy as np


def factorize(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64, copy=False), uniques


def _combined_codes(
    keys: Sequence[np.ndarray],
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], np.ndarray]:
    if len(keys) == 1:
        uniques, first_rows, codes = np.unique(
            keys[0], return_index=True, return_inverse=True
        )
        return codes.astype(np.int64, copy=False), (uniques,), first_rows
    per_key = [factorize(k) for k in keys]
    combined = np.zeros(len(keys[0]), dtype=np.int64)
    for codes, uniques in per_key:
        combined *= max(len(uniques), 1)
        combined += codes
    dense, first_rows = np.unique(combined, return_index=True)
    lookup = np.searchsorted(dense, combined)
    key_values = tuple(k[first_rows] for k in keys)
    return lookup, key_values, first_rows


def hash_join_indexes(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    if len(left_keys) == 0 or len(right_keys) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(right_keys, kind="stable")
    return probe_sorted(right_keys[order], order, left_keys)


def probe_sorted(
    sorted_right: np.ndarray, order: np.ndarray, left_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    if len(left_keys) == 0 or len(sorted_right) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    counts = hi - lo
    left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64), counts)
    if len(left_idx) == 0:
        return left_idx, left_idx.copy()
    offsets = np.repeat(lo, counts)
    within = np.arange(len(left_idx)) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    right_idx = order[offsets + within]
    return left_idx, right_idx


def semi_join_mask(left_keys: np.ndarray, right_keys: np.ndarray) -> np.ndarray:
    if len(right_keys) == 0:
        return np.zeros(len(left_keys), dtype=bool)
    return np.isin(left_keys, right_keys)


def left_join_indexes(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    li, ri = hash_join_indexes(left_keys, right_keys)
    matched_probe = semi_join_mask(left_keys, right_keys)
    missing = np.flatnonzero(~matched_probe)
    if len(missing) == 0:
        return li, ri, np.ones(len(li), dtype=bool)
    all_li = np.concatenate([li, missing])
    all_ri = np.concatenate([ri, np.zeros(len(missing), dtype=np.int64)])
    matched = np.concatenate(
        [np.ones(len(li), dtype=bool), np.zeros(len(missing), dtype=bool)]
    )
    order = np.argsort(all_li, kind="stable")
    return all_li[order], all_ri[order], matched[order]
