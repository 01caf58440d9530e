"""Rows-mode partials of the vector engines stay columnar until the fold.

A native or hybrid (Max) morsel kernel in rows mode returns a
:class:`~repro.runtime.vectorized.VectorPartial` — the columns, kinds and
record its sequential twin would have handed ``decode_rows`` /
``decode_values`` / ``view_rows``.  It crosses the process boundary as one
``__cols__`` wire frame of NumPy arrays and is decoded exactly once, by
:meth:`~repro.runtime.parallel.ParallelQuery.fold`, with the surface the
sequential module calls.  These tests pin:

* the wire round trip of each surface, value for value and type for type
  (NUL-padded byte strings, int32 day numbers, an empty shard);
* thread and process tiers equal to sequential on the vector engines,
  over the join micro, a projection, a single-value select and a
  whole-row filter (the ``view_rows`` path);
* ``len()`` of an undecoded partial feeding the adaptive ``redecide``;
* the recycler's rows-mode delta decoding only its window.
"""

import datetime
import multiprocessing
import pickle
import time

import numpy as np
import pytest

from repro import new
from repro.distributed import shutdown_pools, wire
from repro.expressions import make_record_type
from repro.query import QueryProvider, RecyclingProvider, from_struct_array
from repro.runtime import vectorized
from repro.runtime.parallel import ParallelQuery
from repro.runtime.vectorized import VectorPartial
from repro.storage import Field, Schema, StructArray
from repro.tpch.datagen import TPCHData
from repro.tpch.queries import join_micro

T = Schema(
    [
        Field("id", "int"),
        Field("g", "int"),
        Field("v", "float"),
        Field("s", "str", 6),
        Field("d", "date"),
    ],
    name="VecPart",
)

_DAY0 = datetime.date(1994, 1, 1)


def _rows(start, n):
    words = ["a", "bb", "ccc", "", "dddddd"]
    return [
        (
            i,
            i % 7,
            (i % 40) * 0.25,
            words[i % len(words)],
            _DAY0 + datetime.timedelta(days=i % 365),
        )
        for i in range(start, start + n)
    ]


ARR = StructArray.from_rows(T, _rows(0, 300))


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_pools()
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


def _typed(rows):
    """Rows as (type, field values with their types) — equality that an
    ``np.int64`` standing in for an ``int`` does not pass."""
    out = []
    for row in rows:
        fields = tuple(row) if isinstance(row, (tuple, vectorized.RowView)) else (row,)
        out.append((type(row), tuple((type(v), v) for v in fields)))
    return out


def _roundtrip(partial):
    return wire.decode_value(pickle.loads(pickle.dumps(wire.encode_value(partial))))


# ---------------------------------------------------------------------------
# The wire frame, one surface at a time
# ---------------------------------------------------------------------------

_COLUMNS = (
    np.array([3, -1, 2**40], dtype=np.int64),
    np.array([b"ab", b"", b"abcdef"], dtype="S6"),  # NUL-padded to 6 bytes
    np.array([0, 9131, -1], dtype=np.int32),  # day numbers
    np.array([0.25, -0.0, 1e300]),
)
_KINDS = ("int", "str", "date", "float")
_NAMES = ("i", "s", "d", "f")


@pytest.mark.parametrize("size", [3, 0], ids=["shard", "empty-shard"])
def test_rows_surface_roundtrips_as_one_column_frame(size):
    record = make_record_type(_NAMES)
    columns = tuple(col[:size] for col in _COLUMNS)
    partial = VectorPartial("rows", columns, _KINDS, record)
    encoded = wire.encode_value(partial)
    assert encoded[:3] == ("__cols__", "rows", ("Row", _NAMES))
    assert all(isinstance(col, np.ndarray) for col in encoded[4])
    back = _roundtrip(partial)
    assert len(back) == size
    sequential = list(vectorized.decode_rows(columns, _KINDS, record))
    decoded = list(back.decode())
    assert decoded == sequential
    assert _typed(decoded) == _typed(sequential)
    if size:
        assert decoded[0] == record(3, "ab", datetime.date(1970, 1, 1), 0.25)
        assert type(decoded[2].i) is int and decoded[2].s == "abcdef"


@pytest.mark.parametrize("size", [3, 0], ids=["shard", "empty-shard"])
@pytest.mark.parametrize("column", range(len(_COLUMNS)), ids=_KINDS)
def test_values_surface_roundtrips(column, size):
    col, kind = _COLUMNS[column][:size], _KINDS[column]
    back = _roundtrip(VectorPartial("values", (col,), (kind,)))
    sequential = list(vectorized.decode_values(col, kind))
    decoded = list(back.decode())
    assert decoded == sequential
    assert _typed(decoded) == _typed(sequential)


@pytest.mark.parametrize("size", [3, 0], ids=["shard", "empty-shard"])
def test_view_surface_roundtrips(size):
    columns = tuple(col[:size] for col in _COLUMNS)
    back = _roundtrip(VectorPartial("view", columns, _KINDS, _NAMES))
    sequential = list(
        vectorized.view_rows(
            dict(zip(_NAMES, columns)), dict(zip(_NAMES, _KINDS)), _NAMES
        )
    )
    decoded = list(back.decode())
    assert [type(row) for row in decoded] == [vectorized.RowView] * size
    assert _typed(decoded) == _typed(sequential)
    if size:
        assert decoded[1].s == "" and decoded[2].d == datetime.date(1969, 12, 31)


# ---------------------------------------------------------------------------
# The tiers over real kernels
# ---------------------------------------------------------------------------

SHAPES = {
    "project": lambda q: q.where(lambda r: r.g > 1).select(
        lambda r: new(i=r.id, v=r.v, s=r.s, d=r.d)
    ),
    "value": lambda q: q.where(lambda r: r.v < 5.0).select(lambda r: r.s),
    "whole-row": lambda q: q.where(lambda r: (r.g == 3) | (r.s == "bb")),
}


def _query(engine, shape, provider):
    return SHAPES[shape](from_struct_array(ARR).using(engine, provider))


#: a whole-row hybrid result stages row indexes, which emit no morsels
@pytest.mark.parametrize(
    "engine, shape",
    [("native", shape) for shape in SHAPES]
    + [("hybrid", "project"), ("hybrid", "value")],
)
def test_tiers_equal_sequential_on_vector_engines(engine, shape, monkeypatch):
    provider = QueryProvider()
    sequential = _query(engine, shape, provider).to_list()
    assert sequential
    decoded = []
    real_decode = VectorPartial.decode

    def spy(self):
        decoded.append(self.surface)
        return real_decode(self)

    monkeypatch.setattr(VectorPartial, "decode", spy)
    threaded = _query(engine, shape, provider).in_parallel(2, 64).to_list()
    assert len(decoded) >= 3  # one undecoded partial per morsel
    surface = {"project": "rows", "value": "values", "whole-row": "view"}[shape]
    assert set(decoded) == {surface}
    decoded.clear()
    distributed = _query(engine, shape, provider).distributed(2).to_list()
    assert decoded == [surface, surface]  # one partial per shard
    assert _typed(threaded) == _typed(sequential)
    assert _typed(distributed) == _typed(sequential)


DIM = StructArray.from_rows(
    Schema([Field("k", "int"), Field("name", "str", 4)], name="VecDim"),
    [(k, "n" * (k % 4)) for k in range(0, 7, 2)],
)


def _join_micro(engine, provider):
    # the TPC-H join micro; it reads StructArrays on native only
    return join_micro(TPCHData(scale=0.002, seed=3), engine, 0.5, provider)


def _join_dim(engine, provider):
    return (
        from_struct_array(ARR)
        .using(engine, provider)
        .join(
            from_struct_array(DIM).using(engine, provider),
            lambda r: r.g,
            lambda d: d.k,
            lambda r, d: new(i=r.id, day=r.d, name=d.name),
        )
    )


@pytest.mark.parametrize(
    "engine, build",
    [("native", _join_micro), ("native", _join_dim), ("hybrid", _join_dim)],
)
def test_join_crosses_processes_as_columns(engine, build, monkeypatch):
    provider = QueryProvider()
    sequential = build(engine, provider).to_list()
    assert sequential
    frames = []
    real_decode = wire.decode_value

    def spy(value):
        if isinstance(value, tuple) and value and value[0] == "__cols__":
            frames.append(value[1])
        return real_decode(value)

    monkeypatch.setattr(wire, "decode_value", spy)
    distributed = build(engine, provider).distributed(2).to_list()
    assert frames == ["rows", "rows"]
    assert _typed(distributed) == _typed(sequential)


def test_undecoded_partial_length_feeds_redecide():
    provider = QueryProvider()
    query = _query("native", "project", provider)
    shape = provider.shape(query.expr, list(query.sources))
    shape.compiled("native")
    artifact = shape.partial("native", "threads")
    seen = []

    def redecide(rows_in, rows_out, morsel_rows, remaining, workers):
        seen.append((rows_in, rows_out))
        return 100  # re-partition the rest into larger morsels

    params = shape.bindings  # the lifted constants
    partials = artifact.run_window([ARR], params, 2, 40, redecide=redecide)
    assert all(isinstance(part, VectorPartial) for part in partials)
    first = list(partials[0].decode())
    assert seen == [(40, len(partials[0]))]
    assert len(first) == len(partials[0]) > 0
    assert len(partials) == 1 + 3  # 40 rows, then 260 rows in 100-row morsels
    assert artifact.finish(artifact.fold(None, partials), params) == (
        _query("native", "project", provider).to_list()
    )


def test_recycler_rows_delta_decodes_only_its_window(monkeypatch):
    arr = StructArray.from_rows(T, _rows(0, 200))
    provider = RecyclingProvider()

    def build():
        return SHAPES["project"](from_struct_array(arr).using("native", provider))

    first = build().in_parallel(2, 64).to_list()
    states, decoded = [], []
    real_fold, real_decode_rows = ParallelQuery.fold, vectorized.decode_rows

    def fold(self, state, partials):
        result = real_fold(self, state, partials)
        states.append(result)
        return result

    def decode_rows(columns, kinds, record_type):
        for row in real_decode_rows(columns, kinds, record_type):
            decoded.append(row)
            yield row

    monkeypatch.setattr(ParallelQuery, "fold", fold)
    monkeypatch.setattr(vectorized, "decode_rows", decode_rows)
    arr.append_rows(_rows(200, 50))
    second = build().in_parallel(2, 64).to_list()
    assert provider.recycler_stats.delta_hits == 1
    assert second[: len(first)] == first
    assert decoded == second[len(first) :]
    assert len(decoded) == sum(1 for i in range(200, 250) if i % 7 > 1)
    assert len(states) == 1 and type(states[0]) is list
    assert second == SHAPES["project"](
        from_struct_array(arr).using("native", QueryProvider())
    ).to_list()
