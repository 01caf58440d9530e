"""The TPC-H cells shared by ``warm_scan`` and ``tiers_2way``.

Builders come from ``repro.tpch``; oracles are plain Python.  Q1, Q3 and
Q4 on ``warm_scan`` use ``repro.tpch.reference`` (loops over the decoded
objects).  The micro-benchmarks have no row-level reference there, and
``tiers_2way`` never decodes objects (its setup is charged to
``setup_s``), so the folds below read the arrays' columns as Python lists.
"""

from __future__ import annotations

import datetime
from typing import Any, Callable, Dict, List, Tuple

from repro.storage.schema import date_to_days, days_to_date
from repro.tpch import (
    Q1_DEFAULTS,
    TPCHData,
    aggregation_micro,
    join_micro,
    q1,
    q3,
    q4,
    reference_q1,
    reference_q3,
    reference_q4,
    sorting_micro,
)

from harness import as_tuples, rows_equal

AGG_SELECTIVITY = 0.6
JOIN_SELECTIVITY = 0.6
SORT_SELECTIVITY = 0.2

#: relations a cell scans (its input rows, for rows-per-second)
SCANS = {
    "q1": ("lineitem",),
    "q3": ("lineitem", "orders", "customer"),
    "q4": ("orders", "lineitem"),
    "agg": ("lineitem",),
    "agg_full": ("lineitem",),
    "agg_sel": ("lineitem",),
    "join": ("lineitem", "orders", "customer"),
    "sort": ("lineitem",),
}


def build(data: TPCHData, query: str, engine: str, provider: Any) -> Any:
    """Trace *query*'s lambdas into a fresh ``Query`` for *engine*."""
    if query == "q1":
        return q1(data, engine, provider)
    if query == "q3":
        return q3(data, engine, provider)
    if query == "q4":
        return q4(data, engine, provider)
    if query == "agg":
        return aggregation_micro(data, engine, AGG_SELECTIVITY, provider)
    if query == "agg_full":
        return aggregation_micro(data, engine, 1.0, provider)
    if query == "agg_sel":
        return aggregation_micro(data, engine, 0.2, provider)
    if query == "join":
        return join_micro(data, engine, JOIN_SELECTIVITY, provider)
    if query == "sort":
        # hybrid rejects whole-element sorts; Min returns references
        engine = "hybrid_min" if engine == "hybrid" else engine
        return sorting_micro(data, engine, SORT_SELECTIVITY, provider)
    raise ValueError(f"unknown TPC-H cell query {query!r}")


def _columns(data: TPCHData, relation: str, names: Tuple[str, ...]) -> List[list]:
    array = data.arrays(relation)
    return [array.column(name).tolist() for name in names]


def _text(value: Any) -> Any:
    return value.decode("utf-8") if isinstance(value, bytes) else value


def _fold_pricing(data: TPCHData, keep: Callable[[float, int], bool]) -> Dict[tuple, list]:
    """(returnflag, linestatus) → running sums over the kept lineitems."""
    groups: Dict[tuple, list] = {}
    for rf, ls, qty, price, disc, tax, ship in zip(
        *_columns(
            data,
            "lineitem",
            (
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_tax",
                "l_shipdate",
            ),
        )
    ):
        if not keep(qty, ship):
            continue
        slot = groups.setdefault((_text(rf), _text(ls)), [0.0, 0.0, 0.0, 0.0, 0.0, 0])
        slot[0] += qty
        slot[1] += price
        slot[2] += price * (1 - disc)
        slot[3] += price * (1 - disc) * (1 + tax)
        slot[4] += disc
        slot[5] += 1
    return groups


def _ref_q1_columns(data: TPCHData) -> List[tuple]:
    cutoff = date_to_days(Q1_DEFAULTS["cutoff"])
    groups = _fold_pricing(data, lambda qty, ship: ship <= cutoff)
    return [
        (rf, ls, s[0], s[1], s[2], s[3], s[0] / s[5], s[1] / s[5], s[4] / s[5], s[5])
        for (rf, ls), s in sorted(groups.items())
    ]


def _ref_agg(data: TPCHData, selectivity: float) -> List[tuple]:
    qmax = 50.0 * selectivity
    groups = _fold_pricing(data, lambda qty, ship: qty <= qmax)
    return [(rf, ls, s[0], s[2], s[0] / s[5], s[5]) for (rf, ls), s in groups.items()]


def _ref_join(data: TPCHData, selectivity: float) -> List[tuple]:
    qmax = 50.0 * selectivity
    lo, hi = datetime.date(1992, 1, 1), datetime.date(1998, 8, 2)
    cutoff = date_to_days(lo + datetime.timedelta(days=int((hi - lo).days * selectivity)))
    building = {
        key
        for key, segment in zip(*_columns(data, "customer", ("c_custkey", "c_mktsegment")))
        if _text(segment) == "BUILDING"
    }
    open_orders = {
        key: (day, priority)
        for key, cust, day, priority in zip(
            *_columns(
                data, "orders", ("o_orderkey", "o_custkey", "o_orderdate", "o_shippriority")
            )
        )
        if day < cutoff and cust in building
    }
    out = []
    for key, qty, price, disc in zip(
        *_columns(
            data, "lineitem", ("l_orderkey", "l_quantity", "l_extendedprice", "l_discount")
        )
    ):
        if qty <= qmax and key in open_orders:
            day, priority = open_orders[key]
            out.append((key, days_to_date(day), priority, price, disc))
    return out


def _ref_sort(data: TPCHData, selectivity: float) -> List[tuple]:
    qmax = 50.0 * selectivity
    rows = [
        (key, line, price)
        for key, line, qty, price in zip(
            *_columns(
                data, "lineitem", ("l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice")
            )
        )
        if qty <= qmax
    ]
    rows.sort(key=lambda r: r[2])
    return rows


def reference(data: TPCHData, query: str, decoded: bool) -> Tuple[List[tuple], bool]:
    """(expected rows, whether order is part of the answer).

    *decoded* says the object lists exist already, so the repository's
    own references (which loop over them) cost nothing extra.
    """
    if query == "q1":
        return (reference_q1(data) if decoded else _ref_q1_columns(data)), True
    if query == "q3":
        return reference_q3(data), True
    if query == "q4":
        return reference_q4(data), True
    if query == "agg":
        return _ref_agg(data, AGG_SELECTIVITY), False
    if query == "agg_full":
        return _ref_agg(data, 1.0), False
    if query == "agg_sel":
        return _ref_agg(data, 0.2), False
    if query == "join":
        return _ref_join(data, JOIN_SELECTIVITY), False
    if query == "sort":
        return _ref_sort(data, SORT_SELECTIVITY), True
    raise ValueError(f"unknown TPC-H cell query {query!r}")


#: ordered results longer than this are compared on a stride sample once
#: the cell's full comparison has passed (RowView attribute reads cost more
#: than the sort being timed)
SAMPLE_ABOVE = 1024


def checker(data: TPCHData, query: str, decoded: bool) -> Callable[..., bool]:
    """The oracle for one cell, with its reference computed once.

    ``check(rows)`` compares everything; ``check(rows, full=False)`` — used
    inside the timed loop, after warm-up ran the full comparison on the
    same cell — still compares every row of a bag or a short result, but
    only the length and every n-th row of a long ordered one.
    """
    expected, ordered = reference(data, query, decoded)
    if not ordered:
        expected = sorted(expected)

    def check(rows: List[Any], full: bool = True) -> bool:
        if len(rows) != len(expected):
            return False
        if query != "sort":
            got = as_tuples(rows)
            return rows_equal(got if ordered else sorted(got), expected, True)
        step = 1 if full or len(rows) <= SAMPLE_ABOVE else len(rows) // 512
        got = [
            (r.l_orderkey, r.l_linenumber, r.l_extendedprice) for r in rows[::step]
        ]
        return rows_equal(got, expected[::step], True)

    return check


def input_rows(data: TPCHData, query: str) -> int:
    return sum(data.row_count(relation) for relation in SCANS[query])
