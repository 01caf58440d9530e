"""Tests for the storage substrate: schema, StructArray, ColumnSet, buffers."""

import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, SchemaError
from repro.storage import (
    BufferList,
    BufferPage,
    ColumnSet,
    Field,
    Schema,
    StreamingBuffer,
    StructArray,
    date_to_days,
    days_to_date,
)


CITY = Schema(
    [Field("name", "str", 16), Field("population", "int"), Field("area", "float")],
    name="City",
)


class TestField:
    def test_str_requires_size(self):
        with pytest.raises(SchemaError, match="requires a positive size"):
            Field("name", "str")

    def test_non_str_rejects_size(self):
        with pytest.raises(SchemaError, match="takes no size"):
            Field("x", "int", 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown field kind"):
            Field("x", "decimal")

    @pytest.mark.parametrize(
        "kind, expected",
        [
            ("int", np.int64),
            ("int32", np.int32),
            ("float", np.float64),
            ("bool", np.bool_),
            ("date", np.int32),
        ],
    )
    def test_dtypes(self, kind, expected):
        assert Field("x", kind).dtype == np.dtype(expected)

    def test_str_dtype_width(self):
        assert Field("x", "str", 10).dtype == np.dtype("S10")


class TestSchema:
    def test_rejects_empty(self):
        with pytest.raises(SchemaError, match="at least one field"):
            Schema([])

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Field("a", "int"), Field("a", "float")])

    def test_lookup_missing_field(self):
        with pytest.raises(SchemaError, match="no field"):
            CITY["elevation"]

    def test_numpy_dtype_layout(self):
        dt = CITY.numpy_dtype()
        assert dt.names == ("name", "population", "area")
        assert dt.itemsize == 16 + 8 + 8

    def test_token_captures_structure(self):
        other = Schema(
            [
                Field("name", "str", 16),
                Field("population", "int"),
                Field("area", "float"),
            ],
            name="City",
        )
        assert CITY.token == other.token
        renamed = Schema(
            [
                Field("name", "str", 8),
                Field("population", "int"),
                Field("area", "float"),
            ],
            name="City",
        )
        assert CITY.token != renamed.token

    def test_project_preserves_order(self):
        proj = CITY.project(["area", "name"])
        assert proj.field_names == ("area", "name")

    def test_record_type_round_trip(self):
        record = CITY.record_type()("London", 9_000_000, 1572.0)
        encoded = CITY.encode_row(record)
        decoded = CITY.decode_row(np.array([encoded], dtype=CITY.numpy_dtype())[0])
        assert decoded == record

    def test_encode_values_length_check(self):
        with pytest.raises(SchemaError, match="expected 3 values"):
            CITY.encode_values(("London", 1))

    def test_str_overflow_rejected(self):
        with pytest.raises(SchemaError, match="exceeds declared width"):
            CITY.encode_values(("a" * 17, 1, 1.0))

    def test_none_rejected(self):
        with pytest.raises(SchemaError, match="cannot be None"):
            CITY.encode_values((None, 1, 1.0))


class TestDates:
    def test_epoch(self):
        assert date_to_days(datetime.date(1970, 1, 1)) == 0

    def test_round_trip(self):
        d = datetime.date(1998, 12, 1)
        assert days_to_date(date_to_days(d)) == d

    def test_date_field_round_trip(self):
        schema = Schema([Field("shipped", "date")])
        arr = StructArray.from_rows(schema, [(datetime.date(1995, 3, 15),)])
        assert arr.row(0).shipped == datetime.date(1995, 3, 15)

    def test_dates_compare_as_ints_natively(self):
        schema = Schema([Field("d", "date")])
        arr = StructArray.from_rows(
            schema, [(datetime.date(1995, 1, 1),), (datetime.date(1999, 1, 1),)]
        )
        cutoff = date_to_days(datetime.date(1997, 1, 1))
        mask = arr.column("d") <= cutoff
        assert list(mask) == [True, False]


class TestStructArray:
    def _sample(self):
        return StructArray.from_rows(
            CITY,
            [
                ("London", 9_000_000, 1572.0),
                ("Paris", 2_100_000, 105.4),
                ("Rome", 2_800_000, 1285.0),
            ],
        )

    def test_from_rows_and_len(self):
        assert len(self._sample()) == 3

    def test_column_is_view(self):
        arr = self._sample()
        col = arr.column("population")
        col[0] = 1
        assert arr.row(0).population == 1

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            self._sample().column("nope")

    def test_row_decoding_strips_padding(self):
        assert self._sample().row(1).name == "Paris"

    def test_iteration_matches_rows(self):
        arr = self._sample()
        assert [r.name for r in arr] == ["London", "Paris", "Rome"]

    def test_from_objects(self):
        objs = self._sample().to_objects()
        rebuilt = StructArray.from_objects(CITY, objs)
        assert rebuilt.to_objects() == objs

    def test_take_and_filter(self):
        arr = self._sample()
        assert [r.name for r in arr.take(np.array([2, 0]))] == ["Rome", "London"]
        mask = arr.column("population") > 2_500_000
        assert [r.name for r in arr.filter(mask)] == ["London", "Rome"]

    def test_empty_array(self):
        arr = StructArray.from_rows(CITY, [])
        assert len(arr) == 0
        assert arr.to_objects() == []

    def test_dtype_mismatch_rejected(self):
        data = np.zeros(2, dtype=[("x", "i8")])
        with pytest.raises(SchemaError, match="does not match"):
            StructArray(CITY, data)

    def test_from_columns(self):
        arr = StructArray.from_columns(
            CITY,
            {
                "name": np.array([b"A", b"B"], dtype="S16"),
                "population": np.array([1, 2], dtype=np.int64),
                "area": np.array([0.5, 1.5]),
            },
        )
        assert arr.row(1).name == "B"

    def test_from_columns_length_mismatch(self):
        with pytest.raises(SchemaError, match="length mismatch"):
            StructArray.from_columns(
                CITY,
                {
                    "name": np.array([b"A"], dtype="S16"),
                    "population": np.array([1, 2], dtype=np.int64),
                    "area": np.array([0.5, 1.5]),
                },
            )

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcdef", max_size=8),
                st.integers(0, 10**9),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_round_trip(self, rows):
        arr = StructArray.from_rows(CITY, rows)
        decoded = [(r.name, r.population, r.area) for r in arr]
        assert [(n, p) for n, p, _ in decoded] == [(n, p) for n, p, _ in rows]
        for (_, _, a_out), (_, _, a_in) in zip(decoded, rows):
            assert a_out == pytest.approx(a_in, nan_ok=False)


class TestColumnSet:
    def test_round_trip_with_struct_array(self):
        arr = StructArray.from_rows(CITY, [("A", 1, 1.0), ("B", 2, 2.0)])
        cols = ColumnSet.from_struct_array(arr)
        assert len(cols) == 2
        back = cols.to_struct_array()
        assert back.to_objects() == arr.to_objects()

    def test_filter_and_take(self):
        cols = ColumnSet.from_rows(CITY, [("A", 1, 1.0), ("B", 2, 2.0), ("C", 3, 3.0)])
        filtered = cols.filter(cols.column("population") >= 2)
        assert len(filtered) == 2
        taken = cols.take(np.array([1, 0]))
        assert list(taken.column("population")) == [2, 1]

    def test_batches_cover_input(self):
        cols = ColumnSet.from_rows(CITY, [(f"c{i}", i, float(i)) for i in range(10)])
        batches = list(cols.batches(4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert list(batches[-1].column("population")) == [8, 9]

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError, match="missing columns"):
            ColumnSet(CITY, {"name": np.array([b"A"], dtype="S16")})


class TestBufferPage:
    def test_overflow_guard(self):
        schema = Schema([Field("x", "int")])
        page = BufferPage(schema, capacity=1)
        page.append((1,))
        assert page.full
        with pytest.raises(ExecutionError, match="overflow"):
            page.append((2,))

    def test_rows_returns_filled_prefix(self):
        schema = Schema([Field("x", "int")])
        page = BufferPage(schema, capacity=4)
        page.append((7,))
        page.append((8,))
        assert list(page.rows()["x"]) == [7, 8]


class TestBufferList:
    def test_grows_pages_on_demand(self):
        schema = Schema([Field("x", "int")])
        buffers = BufferList(schema, page_bytes=32)  # 4 elements per page
        for i in range(10):
            buffers.append((i,))
        assert buffers.page_count == 3
        assert len(buffers) == 10
        assert list(buffers.materialize()["x"]) == list(range(10))

    def test_pages_stream_in_order(self):
        schema = Schema([Field("x", "int")])
        buffers = BufferList(schema, page_bytes=16)  # 2 per page
        for i in range(5):
            buffers.append((i,))
        pages = list(buffers.pages())
        assert [list(p["x"]) for p in pages] == [[0, 1], [2, 3], [4]]

    def test_empty_materialize(self):
        schema = Schema([Field("x", "int")])
        assert len(BufferList(schema).materialize()) == 0

    def test_staged_bytes_counts_allocation(self):
        schema = Schema([Field("x", "int")])
        buffers = BufferList(schema, page_bytes=32)
        for i in range(5):
            buffers.append((i,))
        assert buffers.staged_bytes() == buffers.page_count * 32


class TestStreamingBuffer:
    def test_flushes_on_fill_and_finish(self):
        schema = Schema([Field("x", "int")])
        seen = []
        stream = StreamingBuffer(
            schema,
            consumer=lambda rows: seen.append(list(rows["x"])),
            page_bytes=24,
        )
        for i in range(7):
            stream.append((i,))
        stream.finish()
        assert seen == [[0, 1, 2], [3, 4, 5], [6]]
        assert stream.staged_total == 7
        assert stream.flushes == 3

    def test_fixed_footprint(self):
        schema = Schema([Field("x", "int")])
        stream = StreamingBuffer(schema, consumer=lambda rows: None, page_bytes=64)
        for i in range(1000):
            stream.append((i,))
        assert stream.footprint_bytes() == 64

    def test_finish_idempotent_when_empty(self):
        schema = Schema([Field("x", "int")])
        calls = []
        stream = StreamingBuffer(schema, consumer=lambda rows: calls.append(1))
        stream.finish()
        stream.finish()
        assert calls == []


class TestVersionedStructArray:
    def _sample(self):
        return StructArray.from_rows(
            CITY,
            [
                ("London", 9_000_000, 1572.0),
                ("Paris", 2_100_000, 105.4),
                ("Rome", 2_800_000, 1285.0),
            ],
        )

    # -- append path / watermarks --------------------------------------------

    def test_append_rows_bumps_version_and_length(self):
        arr = self._sample()
        assert arr.watermark == (0, 3)
        v = arr.append_rows([("Berlin", 3_700_000, 891.8)])
        assert v == 1
        assert arr.watermark == (1, 4)
        assert arr.row(3).name == "Berlin"

    def test_append_objects(self):
        arr = self._sample()
        arr.append_objects(arr.to_objects()[:2])
        assert len(arr) == 5
        assert [r.name for r in arr][-2:] == ["London", "Paris"]

    def test_empty_append_is_noop(self):
        arr = self._sample()
        assert arr.append_rows([]) == 0
        assert arr.watermark == (0, 3)

    def test_append_grows_geometrically(self):
        arr = StructArray.from_rows(CITY, [])
        for i in range(100):
            arr.append_rows([(f"c{i}", i, float(i))])
        assert len(arr) == 100
        assert arr.version == 100
        assert [r.population for r in arr] == list(range(100))

    def test_data_is_published_prefix(self):
        arr = self._sample()
        arr.append_rows([("Oslo", 700_000, 454.0)])
        # the backing buffer over-allocates; data exposes only the prefix
        assert len(arr.data) == 4

    # -- snapshots -----------------------------------------------------------

    def test_snapshot_pins_watermark(self):
        arr = self._sample()
        snap = arr.snapshot()
        arr.append_rows([("Berlin", 3_700_000, 891.8)])
        assert len(snap) == 3
        assert snap.watermark == (0, 3)
        assert len(arr) == 4

    def test_snapshot_is_frozen(self):
        snap = self._sample().snapshot()
        assert snap.frozen
        with pytest.raises(ExecutionError, match="snapshot"):
            snap.append_rows([("X", 1, 1.0)])

    def test_snapshot_of_snapshot_is_itself(self):
        snap = self._sample().snapshot()
        assert snap.snapshot() is snap

    def test_snapshot_shares_buffer_zero_copy(self):
        arr = self._sample()
        snap = arr.snapshot()
        assert snap.data.base is arr.data.base or snap.data is arr.data

    def test_readers_see_consistent_prefix_under_appends(self):
        arr = self._sample()
        snap = arr.snapshot()
        names = [r.name for r in snap]
        arr.append_rows([(f"c{i}", i, float(i)) for i in range(500)])
        assert [r.name for r in snap] == names

    # -- derived arrays: fresh physical design (regression) --------------------

    def test_take_gives_fresh_version_and_empty_indexes(self):
        arr = self._sample()
        arr.append_rows([("Berlin", 3_700_000, 891.8)])
        arr.create_index("name")
        derived = arr.take(np.array([1, 0]))
        assert derived.version == 0
        assert derived._indexes == {}
        assert derived._indexes is not arr._indexes
        assert derived.index_fields() == ()

    def test_filter_gives_fresh_version_and_empty_indexes(self):
        arr = self._sample()
        arr.create_index("population")
        derived = arr.filter(arr.column("population") > 0)
        assert derived.version == 0
        assert derived._indexes == {}
        assert derived._indexes is not arr._indexes

    def test_cluster_by_gives_fresh_version_and_empty_indexes(self):
        arr = self._sample()
        arr.create_index("population")
        clustered = arr.cluster_by("population")
        assert clustered.version == 0
        assert clustered._indexes == {}
        assert clustered._indexes is not arr._indexes
        assert clustered.clustering == "population"

    # -- version-aware physical design -----------------------------------------

    def test_clustering_goes_stale_on_append(self):
        arr = self._sample().cluster_by("population")
        assert arr.clustering == "population"
        arr.append_rows([("Tiny", 1, 0.1)])  # out of sorted position
        assert arr.clustering is None

    def test_stale_index_is_rebuilt_on_get(self):
        arr = self._sample()
        first = arr.create_index("name")
        assert arr.get_index("name") is first  # fresh: same object
        arr.append_rows([("Berlin", 3_700_000, 891.8)])
        rebuilt = arr.get_index("name")
        assert rebuilt is not first
        assert list(rebuilt.lookup("Berlin")) == [3]

    def test_snapshot_reads_through_parent_indexes(self):
        arr = self._sample()
        arr.create_index("name")
        snap = arr.snapshot()
        assert snap.index_fields() == ("name",)
        arr.append_rows([("Berlin", 3_700_000, 891.8)])
        # the parent index is now past the snapshot's watermark: the
        # snapshot materializes a prefix-correct index of its own
        index = snap.get_index("name")
        assert index.lookup("Berlin").size == 0
        assert list(index.lookup("Rome")) == [2]
