"""Tests for the NumPy kernels used by generated native code."""

import contextlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sorted_kernel_oracles as oracle
from repro.observability.metrics import METRICS
from repro.runtime import vectorized
from repro.runtime.streaming import StreamingJoinProbe
from repro.runtime.vectorized import (
    distinct_indexes,
    factorize,
    group_aggregate,
    hash_join_indexes,
    left_join_indexes,
    multiset_mask,
    semi_join_mask,
    sort_indexes,
    topn_indexes,
)


class TestFactorize:
    def test_codes_rank_in_sorted_order(self):
        codes, uniques = factorize(np.array([30, 10, 30, 20]))
        assert list(uniques) == [10, 20, 30]
        assert list(codes) == [2, 0, 2, 1]

    def test_bytes(self):
        codes, uniques = factorize(np.array([b"b", b"a", b"b"]))
        assert list(uniques) == [b"a", b"b"]
        assert list(codes) == [1, 0, 1]


class TestGroupAggregate:
    def test_single_key_sum_count(self):
        keys = np.array([2, 1, 2, 1, 2])
        vals = np.array([1.0, 10.0, 2.0, 20.0, 3.0])
        (gk,), (sums, counts) = group_aggregate(
            [keys], [("sum", vals), ("count", None)]
        )
        # first-seen order: group 2 first, then group 1
        assert list(gk) == [2, 1]
        assert list(sums) == [6.0, 30.0]
        assert list(counts) == [3, 2]

    def test_avg_min_max(self):
        keys = np.array([1, 1, 2])
        vals = np.array([4.0, 8.0, 5.0])
        _, (avgs, lows, highs) = group_aggregate(
            [keys], [("avg", vals), ("min", vals), ("max", vals)]
        )
        assert list(avgs) == [6.0, 5.0]
        assert list(lows) == [4.0, 5.0]
        assert list(highs) == [8.0, 5.0]

    def test_int_min_max(self):
        keys = np.array([1, 1, 2])
        vals = np.array([4, 8, 5], dtype=np.int64)
        _, (lows, highs) = group_aggregate([keys], [("min", vals), ("max", vals)])
        assert list(lows) == [4, 5]
        assert list(highs) == [8, 5]

    def test_bytes_min_max(self):
        keys = np.array([1, 1, 2])
        vals = np.array([b"x", b"a", b"m"])
        _, (lows, highs) = group_aggregate([keys], [("min", vals), ("max", vals)])
        assert list(lows) == [b"a", b"m"]
        assert list(highs) == [b"x", b"m"]

    def test_composite_key(self):
        k1 = np.array([1, 1, 2, 1])
        k2 = np.array([b"a", b"b", b"a", b"a"])
        (g1, g2), (counts,) = group_aggregate([k1, k2], [("count", None)])
        groups = list(zip(g1.tolist(), g2.tolist()))
        assert groups == [(1, b"a"), (1, b"b"), (2, b"a")]
        assert list(counts) == [2, 1, 1]

    def test_requires_key(self):
        with pytest.raises(ValueError):
            group_aggregate([], [("count", None)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(-100, 100)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_python_grouping(self, pairs):
        keys = np.array([k for k, _ in pairs])
        vals = np.array([v for _, v in pairs], dtype=np.float64)
        (gk,), (sums,) = group_aggregate([keys], [("sum", vals)])
        expected = {}
        order = []
        for k, v in pairs:
            if k not in expected:
                order.append(k)
                expected[k] = 0.0
            expected[k] += v
        assert list(gk) == order
        assert [round(s, 6) for s in sums] == [round(expected[k], 6) for k in order]


class TestHashJoin:
    def test_basic_match(self):
        li, ri = hash_join_indexes(np.array([1, 2, 3]), np.array([2, 3, 3]))
        pairs = list(zip(li.tolist(), ri.tolist()))
        assert pairs == [(1, 0), (2, 1), (2, 2)]

    def test_preserves_probe_order_and_build_order(self):
        left = np.array([5, 1, 5])
        right = np.array([5, 9, 5])
        li, ri = hash_join_indexes(left, right)
        assert li.tolist() == [0, 0, 2, 2]
        assert ri.tolist() == [0, 2, 0, 2]

    def test_empty_inputs(self):
        li, ri = hash_join_indexes(np.array([], dtype=np.int64), np.array([1]))
        assert len(li) == 0 and len(ri) == 0
        li, ri = hash_join_indexes(np.array([1]), np.array([], dtype=np.int64))
        assert len(li) == 0 and len(ri) == 0

    def test_bytes_keys(self):
        li, ri = hash_join_indexes(np.array([b"a", b"b"]), np.array([b"b"]))
        assert li.tolist() == [1] and ri.tolist() == [0]

    @given(
        st.lists(st.integers(0, 8), max_size=40),
        st.lists(st.integers(0, 8), max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_nested_loop(self, left, right):
        la, ra = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        li, ri = hash_join_indexes(la, ra)
        got = list(zip(li.tolist(), ri.tolist()))
        expected = [
            (i, j)
            for i, lv in enumerate(left)
            for j, rv in enumerate(right)
            if lv == rv
        ]
        assert got == expected


class TestSemiJoin:
    def test_mask(self):
        mask = semi_join_mask(np.array([1, 2, 3]), np.array([2, 9]))
        assert mask.tolist() == [False, True, False]

    def test_empty_right(self):
        mask = semi_join_mask(np.array([1, 2]), np.array([], dtype=np.int64))
        assert mask.tolist() == [False, False]


class TestSortIndexes:
    def test_single_ascending(self):
        order = sort_indexes([np.array([3, 1, 2])], [False])
        assert order.tolist() == [1, 2, 0]

    def test_single_descending(self):
        order = sort_indexes([np.array([3, 1, 2])], [True])
        assert order.tolist() == [0, 2, 1]

    def test_descending_bytes(self):
        order = sort_indexes([np.array([b"a", b"c", b"b"])], [True])
        assert order.tolist() == [1, 2, 0]

    def test_multi_key_mixed_directions(self):
        k1 = np.array([1, 0, 1, 0])
        k2 = np.array([10.0, 20.0, 30.0, 40.0])
        order = sort_indexes([k1, k2], [False, True])
        assert order.tolist() == [3, 1, 2, 0]

    def test_stability(self):
        k = np.array([1, 1, 0])
        order = sort_indexes([k], [False])
        assert order.tolist() == [2, 0, 1]


class TestTopN:
    def test_numeric_fast_path(self):
        keys = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        idx = topn_indexes([keys], [False], 2)
        assert idx.tolist() == [1, 3]

    def test_descending(self):
        keys = np.array([5.0, 1.0, 4.0])
        idx = topn_indexes([keys], [True], 2)
        assert idx.tolist() == [0, 2]

    def test_n_larger_than_input(self):
        keys = np.array([2, 1])
        assert topn_indexes([keys], [False], 10).tolist() == [1, 0]

    def test_zero(self):
        assert len(topn_indexes([np.array([1, 2])], [False], 0)) == 0

    def test_ties_stable(self):
        keys = np.array([1.0, 1.0, 1.0, 0.0])
        idx = topn_indexes([keys], [False], 3)
        assert idx.tolist() == [3, 0, 1]

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=60), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_sorted_prefix(self, values, n):
        keys = np.array(values, dtype=np.int64)
        idx = topn_indexes([keys], [False], n)
        expected = sorted(range(len(values)), key=lambda i: (values[i], i))[:n]
        assert idx.tolist() == expected


class TestDistinct:
    def test_first_occurrences(self):
        cols = [np.array([1, 2, 1, 3, 2])]
        assert distinct_indexes(cols).tolist() == [0, 1, 3]

    def test_composite(self):
        c1 = np.array([1, 1, 1])
        c2 = np.array([b"a", b"b", b"a"])
        assert distinct_indexes([c1, c2]).tolist() == [0, 1]

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            distinct_indexes([])


# -- the direct-address kernels against the sort-based oracles ------------------
#
# Everything below compares bit for bit: same dtype, same bytes.  A column
# strategy draws a small pool of values of one dtype and samples rows from
# it, so groups repeat and join keys meet.

_I64 = np.iinfo(np.int64)
_I32 = np.iinfo(np.int32)


def _pool(dtype, elements, **kwargs):
    return st.lists(elements, min_size=1, max_size=6, **kwargs).map(
        lambda values: np.array(values, dtype=dtype)
    )


def _byte_strings(width):
    """Pools of ``S<width>`` values: arbitrary bytes (so >= 0x80 and
    embedded / trailing NULs occur, and the range is usually too wide to
    address), or one shared prefix with a varying last byte (narrow)."""
    anything = _pool(f"S{width}", st.binary(min_size=0, max_size=width))
    clustered = st.binary(min_size=width - 1, max_size=width - 1).flatmap(
        lambda prefix: _pool(
            f"S{width}", st.binary(min_size=0, max_size=1).map(prefix.__add__)
        )
    )
    return st.one_of(anything, clustered)


_POOLS = {
    "int64.small": _pool(np.int64, st.integers(-20, 20)),
    "int64.extreme": _pool(
        np.int64,
        st.one_of(
            st.integers(_I64.min, _I64.min + 3),
            st.integers(_I64.max - 3, _I64.max),
            st.integers(-2, 2),
        ),
    ),
    "int64.sparse": _pool(np.int64, st.integers(-(10**12), 10**12)),
    "int32": _pool(
        np.int32,
        st.one_of(st.integers(-50, 50), st.integers(_I32.max - 3, _I32.max)),
    ),
    "bool": _pool(np.bool_, st.booleans()),
    "date": _pool(np.int32, st.integers(8000, 8060)),
    "float": _pool(
        np.float64,
        st.one_of(
            st.sampled_from([0.0, -0.0, float("nan"), 1.5, -1.5, float("inf")]),
            st.floats(allow_nan=False, width=32),
        ),
    ),
    **{f"S{w}": _byte_strings(w) for w in (1, 2, 3, 4, 8, 9, 12)},
}
#: pools whose columns must take the sort fallback whatever the values
_FALLBACK_POOLS = ("float", "S3", "S9", "S12")


@st.composite
def _columns(draw, kinds=tuple(_POOLS), ncols=(1, 4), nrows=(0, 40)):
    """A list of equally long key columns of independently drawn dtypes."""
    n = draw(st.integers(*nrows))
    columns = []
    for _ in range(draw(st.integers(*ncols))):
        pool = draw(_POOLS[draw(st.sampled_from(kinds))])
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        columns.append(pool[np.array(picks, dtype=np.int64)])
    return columns


def _same(got, want):
    """Bit-identical arrays: dtype, shape and bytes (NaN, -0.0 included)."""
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    assert got.shape == want.shape, (got.shape, want.shape)
    assert got.tobytes() == want.tobytes(), (got, want)


def _kernel_counts():
    return {
        name: METRICS.counter(f"runtime.kernels.{name}").value
        for name in ("dense", "sorted", "sorted.dtype", "sorted.sparse")
    }


@contextlib.contextmanager
def _sorted_factorization():
    """Run the live kernels on top of the oracle's ``_combined_codes``."""
    live = vectorized._combined_codes
    vectorized._combined_codes = oracle._combined_codes
    try:
        yield
    finally:
        vectorized._combined_codes = live


class TestAgainstSortedOracles:
    @given(_columns(ncols=(1, 1)))
    @settings(max_examples=150, deadline=None)
    def test_factorize(self, columns):
        codes, uniques = factorize(columns[0])
        want_codes, want_uniques = oracle.factorize(columns[0])
        _same(codes, want_codes)
        _same(uniques, want_uniques)

    @given(_columns())
    @settings(max_examples=300, deadline=None)
    def test_combined_codes(self, columns):
        codes, key_values, first_rows = vectorized._combined_codes(columns)
        want_codes, want_values, want_first = oracle._combined_codes(columns)
        _same(codes, want_codes)
        _same(first_rows, want_first)
        assert len(key_values) == len(want_values)
        for got, want in zip(key_values, want_values):
            _same(got, want)

    @given(_columns(nrows=(1, 40)), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_group_aggregate_sums_bit_for_bit(self, columns, rnd):
        n = len(columns[0])
        floats = np.array([rnd.uniform(-1e6, 1e6) for _ in range(n)])
        ints = np.array([rnd.randint(-(2**60), 2**60) for _ in range(n)])
        texts = np.array([rnd.choice([b"x", b"yy", b"\xffz"]) for _ in range(n)])
        aggs = [
            ("sum", floats), ("avg", floats), ("count", None), ("sum", ints),
            ("min", floats), ("max", ints), ("min", texts), ("max", texts),
        ]  # fmt: skip
        got_keys, got = group_aggregate(columns, aggs)
        with _sorted_factorization():
            want_keys, want = group_aggregate(columns, aggs)
        for a, b in zip(got_keys + tuple(got), want_keys + tuple(want)):
            _same(a, b)

    @given(_columns(ncols=(1, 3)))
    @settings(max_examples=100, deadline=None)
    def test_distinct_and_multiset(self, columns):
        _, _, want_first = oracle._combined_codes(columns)
        _same(distinct_indexes(columns), np.sort(want_first))
        n = len(columns[0])
        left = [c[: n // 2] for c in columns]
        right = [c[n // 2 :] for c in columns]
        for keep in (True, False):
            got = multiset_mask(left, right, keep)
            with _sorted_factorization():
                want = multiset_mask(left, right, keep)
            _same(got, want)

    #: join keys: both sides from one pool (so they meet), any dtype
    _join_kinds = tuple(k for k in _POOLS if k != "bool")

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_joins(self, data):
        kind = data.draw(st.sampled_from(self._join_kinds))
        pool = data.draw(_POOLS[kind])
        unique_build = data.draw(st.booleans())

        def side(max_rows):
            rows = st.lists(st.integers(0, len(pool) - 1), max_size=max_rows)
            picks = data.draw(rows)
            return pool[np.array(picks, dtype=np.int64)]

        left, right = side(40), side(25)
        if unique_build and len(right):
            right = right[np.sort(np.unique(right, return_index=True)[1])]
        if kind in ("int64.small", "date") and data.draw(st.booleans()):
            left = left.astype(np.int32 if left.dtype == np.int64 else np.int64)

        for got, want in zip(
            hash_join_indexes(left, right), oracle.hash_join_indexes(left, right)
        ):
            _same(got, want)
        _same(semi_join_mask(left, right), oracle.semi_join_mask(left, right))
        # the oracle reports a NaN probe key as matched *and* missing
        if not (kind == "float" and np.isnan(left).any()):
            for got, want in zip(
                left_join_indexes(left, right), oracle.left_join_indexes(left, right)
            ):
                _same(got, want)
        # a build side prepared once, probed page by page
        probe = StreamingJoinProbe(right)
        cut = len(left) // 2
        for page in (left[:cut], left[cut:]):
            want_pairs = oracle.hash_join_indexes(page, right)
            for got, want in zip(probe.probe(page), want_pairs):
                _same(got, want)

    def test_empty_and_single_row(self):
        for dtype in (np.int64, np.int32, np.bool_, np.float64, "S1", "S5"):
            for n in (0, 1):
                column = np.zeros(n, dtype=dtype)
                got = vectorized._combined_codes([column, column])
                want = oracle._combined_codes([column, column])
                _same(got[0], want[0])
                _same(got[2], want[2])
                _same(factorize(column)[1], oracle.factorize(column)[1])
                for a, b in zip(
                    left_join_indexes(column, column),
                    oracle.left_join_indexes(column, column),
                ):
                    _same(a, b)


class TestPathTaken:
    """The counters are the evidence of which path a call took."""

    def _ran(self, call):
        before = _kernel_counts()
        call()
        after = _kernel_counts()
        return {k: after[k] - before[k] for k in after if after[k] != before[k]}

    def test_dense_integer_keys(self):
        keys = np.arange(100, dtype=np.int64) % 7 - 3
        assert self._ran(lambda: group_aggregate([keys], [("count", None)])) == {
            "dense": 1
        }
        assert self._ran(lambda: hash_join_indexes(keys, keys)) == {"dense": 1}

    def test_short_byte_strings_are_dense(self):
        flags = np.tile(np.array([b"A", b"\xff", b"N", b"A"], dtype="S1"), 8)
        words = np.array([b"abc", b"abcd", b"abc\x80", b"abc\x00"], dtype="S4")
        words = np.tile(words, 8)
        # two per-key factorizations and the re-rank of their combination
        assert self._ran(
            lambda: group_aggregate([flags, words], [("count", None)])
        ) == {"dense": 3}

    def test_sparse_range_falls_back(self):
        keys = np.array([0, 10**9, 5, 10**9], dtype=np.int64)
        assert self._ran(lambda: factorize(keys)) == {"sorted": 1, "sorted.sparse": 1}
        assert self._ran(lambda: hash_join_indexes(keys, keys)) == {
            "sorted": 1,
            "sorted.sparse": 1,
        }

    def test_range_wider_than_int64_falls_back(self):
        keys = np.array([_I64.min, _I64.max, 0], dtype=np.int64)
        assert self._ran(lambda: factorize(keys)) == {"sorted": 1, "sorted.sparse": 1}
        codes, uniques = factorize(keys)
        assert codes.tolist() == [0, 2, 1]
        assert uniques.tolist() == [_I64.min, 0, _I64.max]

    @pytest.mark.parametrize("kind", _FALLBACK_POOLS)
    def test_float_and_wide_strings_fall_back(self, kind):
        column = np.zeros(8, dtype=np.float64 if kind == "float" else kind)
        assert self._ran(lambda: factorize(column)) == {"sorted": 1, "sorted.dtype": 1}

    def test_offsets_at_the_int64_edge(self):
        keys = np.array([_I64.max, _I64.max - 2, _I64.max], dtype=np.int64)
        probe = np.array([_I64.min, _I64.max - 2, _I64.max - 1, _I64.max])
        li, ri = hash_join_indexes(probe, keys)
        assert self._ran(lambda: hash_join_indexes(probe, keys)) == {"dense": 1}
        assert list(zip(li.tolist(), ri.tolist())) == [(1, 1), (3, 0), (3, 2)]


class TestMixedRadixOverflow:
    def test_five_high_cardinality_keys_do_not_merge_groups(self):
        """Five keys of 2**13 distinct values: the radix product is 2**65.

        Rows 2j and 2j+1 agree on the last four keys and differ by 2**12
        in the first, so an unguarded int64 product (first key weighted
        2**52) gives both the same combined code.
        """
        k = 2**13
        pair = np.arange(2 * k) // 2
        first = (pair + (np.arange(2 * k) % 2) * (k // 2)) % k
        keys = [first, pair, pair, pair, pair]
        key_values, (counts,) = group_aggregate(keys, [("count", None)])
        assert len(counts) == 2 * k and counts.tolist() == [1] * (2 * k)
        assert key_values[0].tolist() == first.tolist()
        assert len(distinct_indexes(keys)) == 2 * k

    def test_guard_rerank_keeps_sorted_group_numbering(self):
        k = 2**13
        rng = np.random.default_rng(7)
        keys = [rng.permutation(2 * k) % k for _ in range(5)]
        codes, key_values, first_rows = vectorized._combined_codes(keys)
        # reference ranks: lexsort (last key is primary), number the runs
        order = np.lexsort(tuple(reversed(keys)))
        ordered = np.stack([key[order] for key in keys], axis=1)
        starts = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
        want = np.empty(2 * k, dtype=np.int64)
        want[order] = np.cumsum(starts) - 1
        _same(codes, want)
        want_first = np.full(int(want.max()) + 1, 2 * k, dtype=np.int64)
        np.minimum.at(want_first, want, np.arange(2 * k))
        _same(first_rows, want_first)
        for key, values in zip(keys, key_values):
            _same(values, key[want_first])


class TestSmallInputCost:
    def test_group_aggregate_at_256_rows_is_not_slower_than_the_oracle(self):
        """256 rows is the ``hot_small`` / ``cold_shapes`` table size: the
        dense path must not cost those workloads anything."""
        rng = np.random.default_rng(0)
        keys = [
            rng.integers(0, 8, 256),
            rng.choice(np.array([b"A", b"N", b"R"], dtype="S1"), 256),
        ]
        aggs = [("sum", rng.random(256)), ("count", None)]

        def best_of(runs=300):
            best = float("inf")
            for _ in range(runs):
                start = time.perf_counter()
                group_aggregate(keys, aggs)
                best = min(best, time.perf_counter() - start)
            return best

        dense = sorted_ = float("inf")
        for _ in range(5):  # interleaved, so a slow phase hits both
            dense = min(dense, best_of())
            with _sorted_factorization():
                sorted_ = min(sorted_, best_of())
        # best-of-1500 on both sides; 10 % + 2 us is timer noise here
        assert dense <= sorted_ * 1.10 + 2e-6, (dense, sorted_)
