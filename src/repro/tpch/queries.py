"""TPC-H queries Q1–Q3 and the §7 microbenchmark variants, in the LINQ API.

Each builder takes a :class:`~repro.tpch.datagen.TPCHData`, an engine name
and (optionally) a shared provider, and returns an unexecuted
:class:`~repro.query.queryable.Query`.  Builders choose the source
representation to match the engine: ``native`` reads the struct arrays
(§5's premise), everything else reads the managed object lists.

Q2's nested sub-query is hand-decorrelated into a min-cost join — the same
"hand-optimized query plan that eliminates the nested sub-query" the paper
uses for LINQ-to-objects, applied uniformly so every engine runs the same
logical work.

Default parameter values follow the TPC-H reference parameters.
"""

from __future__ import annotations

import datetime
from typing import Optional

from ..expressions.builder import P, new
from ..query.provider import QueryProvider
from ..query.queryable import Query, from_iterable, from_struct_array
from .datagen import TPCHData

__all__ = [
    "relation_query",
    "q1",
    "q2",
    "q3",
    "q4",
    "q13",
    "q16",
    "q21",
    "q22",
    "aggregation_micro",
    "sorting_micro",
    "join_micro",
    "Q1_DEFAULTS",
    "Q2_DEFAULTS",
    "Q3_DEFAULTS",
    "Q4_DEFAULTS",
    "Q13_DEFAULTS",
    "Q16_DEFAULTS",
    "Q21_DEFAULTS",
    "Q22_DEFAULTS",
]

Q1_DEFAULTS = {"cutoff": datetime.date(1998, 12, 1) - datetime.timedelta(days=90)}
Q2_DEFAULTS = {"size": 15, "type_suffix": "BRASS", "region": "EUROPE"}
Q3_DEFAULTS = {"segment": "BUILDING", "date": datetime.date(1995, 3, 15)}
Q4_DEFAULTS = {
    "date_lo": datetime.date(1993, 7, 1),
    "date_hi": datetime.date(1993, 10, 1),
}
Q13_DEFAULTS = {"exclude": "1-URGENT"}
Q16_DEFAULTS = {"brand": "Brand#45", "max_size": 25, "min_bal": 0.0}
Q21_DEFAULTS = {"status": "F"}
Q22_DEFAULTS = {"nations": 10}


def relation_query(
    data: TPCHData,
    name: str,
    engine: str,
    provider: Optional[QueryProvider] = None,
) -> Query:
    """One TPC-H relation as a queryable source for *engine*."""
    if engine == "native":
        return from_struct_array(data.arrays(name)).using(engine, provider)
    token = f"tpch:{name}"
    return from_iterable(data.objects(name), token=token).using(engine, provider)


# ---------------------------------------------------------------------------
# Q1 — pricing summary report (aggregation-heavy)
# ---------------------------------------------------------------------------


def q1(data: TPCHData, engine: str, provider: Optional[QueryProvider] = None) -> Query:
    """TPC-H Q1: eight aggregates over lineitem, grouped by two flags.

    Exercises every §2.3 aggregation inefficiency: shared counts (three
    averages), overlapping sums, and single-pass fusion.
    """
    lineitem = relation_query(data, "lineitem", engine, provider)
    return (
        lineitem.where(lambda l: l.l_shipdate <= P("cutoff"))
        .group_by(
            lambda l: new(rf=l.l_returnflag, ls=l.l_linestatus),
            lambda g: new(
                l_returnflag=g.key.rf,
                l_linestatus=g.key.ls,
                sum_qty=g.sum(lambda l: l.l_quantity),
                sum_base_price=g.sum(lambda l: l.l_extendedprice),
                sum_disc_price=g.sum(
                    lambda l: l.l_extendedprice * (1 - l.l_discount)
                ),
                sum_charge=g.sum(
                    lambda l: l.l_extendedprice
                    * (1 - l.l_discount)
                    * (1 + l.l_tax)
                ),
                avg_qty=g.avg(lambda l: l.l_quantity),
                avg_price=g.avg(lambda l: l.l_extendedprice),
                avg_disc=g.avg(lambda l: l.l_discount),
                count_order=g.count(),
            ),
        )
        .order_by(lambda r: r.l_returnflag)
        .then_by(lambda r: r.l_linestatus)
        .with_params(**Q1_DEFAULTS)
    )


# ---------------------------------------------------------------------------
# Q2 — minimum-cost supplier (decorrelated)
# ---------------------------------------------------------------------------


def q2(data: TPCHData, engine: str, provider: Optional[QueryProvider] = None) -> Query:
    """TPC-H Q2, hand-decorrelated (min supply cost per part in a region)."""
    region = relation_query(data, "region", engine, provider)
    nation = relation_query(data, "nation", engine, provider)
    supplier = relation_query(data, "supplier", engine, provider)
    partsupp = relation_query(data, "partsupp", engine, provider)
    part = relation_query(data, "part", engine, provider)

    target_nations = nation.join(
        region.where(lambda r: r.r_name == P("region")),
        lambda n: n.n_regionkey,
        lambda r: r.r_regionkey,
        lambda n, r: new(nationkey=n.n_nationkey, n_name=n.n_name),
    )
    regional_suppliers = supplier.join(
        target_nations,
        lambda s: s.s_nationkey,
        lambda n: n.nationkey,
        lambda s, n: new(
            suppkey=s.s_suppkey,
            s_name=s.s_name,
            s_acctbal=s.s_acctbal,
            n_name=n.n_name,
        ),
    )
    regional_costs = partsupp.join(
        regional_suppliers,
        lambda ps: ps.ps_suppkey,
        lambda s: s.suppkey,
        lambda ps, s: new(
            partkey=ps.ps_partkey,
            cost=ps.ps_supplycost,
            s_name=s.s_name,
            s_acctbal=s.s_acctbal,
            n_name=s.n_name,
        ),
    )
    # the decorrelated sub-query: cheapest regional cost per part
    min_costs = regional_costs.group_by(
        lambda c: c.partkey,
        lambda g: new(partkey=g.key, min_cost=g.min(lambda c: c.cost)),
    )
    target_parts = part.where(
        lambda p: (p.p_size == P("size")) & p.p_type.endswith(P("type_suffix"))
    )
    candidate = regional_costs.join(
        target_parts,
        lambda c: c.partkey,
        lambda p: p.p_partkey,
        lambda c, p: new(
            partkey=c.partkey,
            cost=c.cost,
            s_name=c.s_name,
            s_acctbal=c.s_acctbal,
            n_name=c.n_name,
            p_mfgr=p.p_mfgr,
        ),
    )
    return (
        candidate.join(
            min_costs,
            lambda c: c.partkey,
            lambda m: m.partkey,
            lambda c, m: new(
                s_acctbal=c.s_acctbal,
                s_name=c.s_name,
                n_name=c.n_name,
                p_partkey=c.partkey,
                p_mfgr=c.p_mfgr,
                cost=c.cost,
                min_cost=m.min_cost,
            ),
        )
        .where(lambda r: r.cost == r.min_cost)
        .select(
            lambda r: new(
                s_acctbal=r.s_acctbal,
                s_name=r.s_name,
                n_name=r.n_name,
                p_partkey=r.p_partkey,
                p_mfgr=r.p_mfgr,
            )
        )
        .order_by_desc(lambda r: r.s_acctbal)
        .then_by(lambda r: r.n_name)
        .then_by(lambda r: r.s_name)
        .then_by(lambda r: r.p_partkey)
        .take(100)
        .with_params(**Q2_DEFAULTS)
    )


# ---------------------------------------------------------------------------
# Q3 — shipping priority (join-heavy)
# ---------------------------------------------------------------------------


def q3(data: TPCHData, engine: str, provider: Optional[QueryProvider] = None) -> Query:
    """TPC-H Q3: customer ⋈ orders ⋈ lineitem, top-10 revenue."""
    customer = relation_query(data, "customer", engine, provider)
    orders = relation_query(data, "orders", engine, provider)
    lineitem = relation_query(data, "lineitem", engine, provider)

    open_orders = orders.where(lambda o: o.o_orderdate < P("date")).join(
        customer.where(lambda c: c.c_mktsegment == P("segment")),
        lambda o: o.o_custkey,
        lambda c: c.c_custkey,
        lambda o, c: new(
            orderkey=o.o_orderkey,
            orderdate=o.o_orderdate,
            shippriority=o.o_shippriority,
        ),
    )
    return (
        lineitem.where(lambda l: l.l_shipdate > P("date"))
        .join(
            open_orders,
            lambda l: l.l_orderkey,
            lambda o: o.orderkey,
            lambda l, o: new(
                orderkey=o.orderkey,
                orderdate=o.orderdate,
                shippriority=o.shippriority,
                revenue=l.l_extendedprice * (1 - l.l_discount),
            ),
        )
        .group_by(
            lambda r: new(
                orderkey=r.orderkey,
                orderdate=r.orderdate,
                shippriority=r.shippriority,
            ),
            lambda g: new(
                l_orderkey=g.key.orderkey,
                revenue=g.sum(lambda r: r.revenue),
                o_orderdate=g.key.orderdate,
                o_shippriority=g.key.shippriority,
            ),
        )
        .order_by_desc(lambda r: r.revenue)
        .then_by(lambda r: r.o_orderdate)
        .take(10)
        .with_params(**Q3_DEFAULTS)
    )


# ---------------------------------------------------------------------------
# Q4 — order priority checking (semi join / EXISTS)
# ---------------------------------------------------------------------------


def q4(data: TPCHData, engine: str, provider: Optional[QueryProvider] = None) -> Query:
    """TPC-H Q4: orders with at least one late lineitem, counted by priority.

    The ``EXISTS`` sub-query is a semi join: each order in the date window
    is kept iff some lineitem of that order committed before it was
    received.
    """
    orders = relation_query(data, "orders", engine, provider)
    lineitem = relation_query(data, "lineitem", engine, provider)
    return (
        orders.where(
            lambda o: (o.o_orderdate >= P("date_lo")) & (o.o_orderdate < P("date_hi"))
        )
        .join_semi(
            lineitem.where(lambda l: l.l_commitdate < l.l_receiptdate),
            lambda o: o.o_orderkey,
            lambda l: l.l_orderkey,
        )
        .group_by(
            lambda o: o.o_orderpriority,
            lambda g: new(o_orderpriority=g.key, order_count=g.count()),
        )
        .order_by(lambda r: r.o_orderpriority)
        .with_params(**Q4_DEFAULTS)
    )


# ---------------------------------------------------------------------------
# Q13 — customer order-count distribution (left outer join)
# ---------------------------------------------------------------------------


def q13(data: TPCHData, engine: str, provider: Optional[QueryProvider] = None) -> Query:
    """TPC-H Q13: how many customers placed 0, 1, 2, … orders.

    Customers with no (qualifying) orders must still appear with a count
    of zero — the defining left-outer-join query.  The matched side
    carries an ``ind=1`` marker and the default record carries ``ind=0``,
    so the per-customer order count is a plain sum (the same trick the
    ``count(o_orderkey)`` null-skipping aggregate plays in SQL).  The
    reference query excludes a comment pattern; our datagen comments are
    fillers, so the exclusion predicate is an order priority instead.
    """
    customer = relation_query(data, "customer", engine, provider)
    orders = relation_query(data, "orders", engine, provider)
    qualifying = orders.where(lambda o: o.o_orderpriority != P("exclude")).select(
        lambda o: new(cust=o.o_custkey, ind=1)
    )
    return (
        customer.left_outer_join(
            qualifying,
            lambda c: c.c_custkey,
            lambda o: o.cust,
            lambda c, o: new(custkey=c.c_custkey, ind=o.ind),
            default={"cust": 0, "ind": 0},
        )
        .group_by(
            lambda r: r.custkey,
            lambda g: new(custkey=g.key, c_count=g.sum(lambda r: r.ind)),
        )
        .group_by(
            lambda r: r.c_count,
            lambda g: new(c_count=g.key, custdist=g.count()),
        )
        .order_by_desc(lambda r: r.custdist)
        .then_by_desc(lambda r: r.c_count)
        .with_params(**Q13_DEFAULTS)
    )


# ---------------------------------------------------------------------------
# Q16 — parts/supplier relationship (anti join / NOT IN + distinct)
# ---------------------------------------------------------------------------


def q16(data: TPCHData, engine: str, provider: Optional[QueryProvider] = None) -> Query:
    """TPC-H Q16: distinct supplier counts per (brand, type, size).

    The ``NOT IN (select s_suppkey …)`` is an anti join against the
    flagged suppliers, and ``count(distinct ps_suppkey)`` is a distinct
    over projected records followed by a group count.  The reference
    query flags suppliers by a comment pattern; our datagen comments are
    fillers, so suppliers in arrears (negative balance) stand in.
    """
    partsupp = relation_query(data, "partsupp", engine, provider)
    part = relation_query(data, "part", engine, provider)
    supplier = relation_query(data, "supplier", engine, provider)
    flagged = supplier.where(lambda s: s.s_acctbal < P("min_bal"))
    return (
        partsupp.join_anti(
            flagged,
            lambda ps: ps.ps_suppkey,
            lambda s: s.s_suppkey,
        )
        .join(
            part.where(
                lambda p: (p.p_brand != P("brand")) & (p.p_size <= P("max_size"))
            ),
            lambda ps: ps.ps_partkey,
            lambda p: p.p_partkey,
            lambda ps, p: new(
                brand=p.p_brand, type=p.p_type, size=p.p_size, suppkey=ps.ps_suppkey
            ),
        )
        .distinct()
        .group_by(
            lambda r: new(brand=r.brand, type=r.type, size=r.size),
            lambda g: new(
                p_brand=g.key.brand,
                p_type=g.key.type,
                p_size=g.key.size,
                supplier_cnt=g.count(),
            ),
        )
        .order_by_desc(lambda r: r.supplier_cnt)
        .then_by(lambda r: r.p_brand)
        .then_by(lambda r: r.p_type)
        .then_by(lambda r: r.p_size)
        .with_params(**Q16_DEFAULTS)
    )


# ---------------------------------------------------------------------------
# Q21 — suppliers who kept orders waiting (semi + anti join)
# ---------------------------------------------------------------------------


def q21(data: TPCHData, engine: str, provider: Optional[QueryProvider] = None) -> Query:
    """TPC-H Q21: suppliers whose late delivery alone held up an order.

    Hand-decorrelated like Q2: the correlated ``EXISTS l2`` (another
    supplier contributed to the order) becomes a semi join against the
    orders with more than one distinct supplier, and ``NOT EXISTS l3``
    (no *other* supplier was late) becomes an anti join against the
    orders with more than one distinct *late* supplier — a late lineitem
    surviving both is the sole late supplier of a multi-supplier order.
    """
    lineitem = relation_query(data, "lineitem", engine, provider)
    orders = relation_query(data, "orders", engine, provider)
    supplier = relation_query(data, "supplier", engine, provider)

    late = lineitem.where(lambda l: l.l_receiptdate > l.l_commitdate)

    def supplier_counts(source: Query) -> Query:
        return (
            source.select(lambda l: new(okey=l.l_orderkey, skey=l.l_suppkey))
            .distinct()
            .group_by(
                lambda r: r.okey,
                lambda g: new(okey=g.key, nsupp=g.count()),
            )
            .where(lambda r: r.nsupp > 1)
        )

    multi_supplier = supplier_counts(lineitem)
    multi_late = supplier_counts(late)
    return (
        late.join_semi(
            orders.where(lambda o: o.o_orderstatus == P("status")),
            lambda l: l.l_orderkey,
            lambda o: o.o_orderkey,
        )
        .join_semi(multi_supplier, lambda l: l.l_orderkey, lambda m: m.okey)
        .join_anti(multi_late, lambda l: l.l_orderkey, lambda m: m.okey)
        .group_by(
            lambda l: l.l_suppkey,
            lambda g: new(skey=g.key, numwait=g.count()),
        )
        .join(
            supplier,
            lambda r: r.skey,
            lambda s: s.s_suppkey,
            lambda r, s: new(s_name=s.s_name, numwait=r.numwait),
        )
        .order_by_desc(lambda r: r.numwait)
        .then_by(lambda r: r.s_name)
        .take(10)
        .with_params(**Q21_DEFAULTS)
    )


# ---------------------------------------------------------------------------
# Q22 — global sales opportunity (anti join + prepared scalar sub-query)
# ---------------------------------------------------------------------------


def q22(data: TPCHData, engine: str, provider: Optional[QueryProvider] = None) -> Query:
    """TPC-H Q22: well-funded customers who never ordered, by country.

    The scalar sub-query (average positive account balance) runs first as
    its own prepared query and feeds the outer query as a parameter —
    composition through ``with_params`` rather than a nested plan.  The
    ``NOT EXISTS (select … from orders)`` is an anti join.  Country codes
    are phone-prefix substrings in the reference query; our datagen keys
    country on ``c_nationkey``, so a nation-key range stands in.
    """
    customer = relation_query(data, "customer", engine, provider)
    orders = relation_query(data, "orders", engine, provider)
    nations = Q22_DEFAULTS["nations"]
    avg_bal = (
        customer.where(
            lambda c: (c.c_acctbal > 0.0) & (c.c_nationkey < P("nations"))
        )
        .with_params(nations=nations)
        .average(lambda c: c.c_acctbal)
    )
    return (
        customer.where(
            lambda c: (c.c_nationkey < P("nations")) & (c.c_acctbal > P("avg_bal"))
        )
        .join_anti(orders, lambda c: c.c_custkey, lambda o: o.o_custkey)
        .group_by(
            lambda c: c.c_nationkey,
            lambda g: new(
                cntrycode=g.key,
                numcust=g.count(),
                totacctbal=g.sum(lambda c: c.c_acctbal),
            ),
        )
        .order_by(lambda r: r.cntrycode)
        .with_params(nations=nations, avg_bal=avg_bal)
    )


# ---------------------------------------------------------------------------
# §7.1–7.3 microbenchmarks (selectivity sweeps)
# ---------------------------------------------------------------------------


def _quantity_threshold(selectivity: float) -> float:
    """l_quantity is uniform on 1..50: threshold = 50·selectivity."""
    return max(0.0, min(50.0, 50.0 * selectivity))


def aggregation_micro(
    data: TPCHData,
    engine: str,
    selectivity: float = 1.0,
    provider: Optional[QueryProvider] = None,
) -> Query:
    """§7.1 / Figure 7: the Q1 aggregation over a selectivity-varied filter."""
    lineitem = relation_query(data, "lineitem", engine, provider)
    return (
        lineitem.where(lambda l: l.l_quantity <= P("qmax"))
        .group_by(
            lambda l: new(rf=l.l_returnflag, ls=l.l_linestatus),
            lambda g: new(
                rf=g.key.rf,
                ls=g.key.ls,
                sum_qty=g.sum(lambda l: l.l_quantity),
                sum_disc_price=g.sum(
                    lambda l: l.l_extendedprice * (1 - l.l_discount)
                ),
                avg_qty=g.avg(lambda l: l.l_quantity),
                count_order=g.count(),
            ),
        )
        .with_params(qmax=_quantity_threshold(selectivity))
    )


def sorting_micro(
    data: TPCHData,
    engine: str,
    selectivity: float = 1.0,
    provider: Optional[QueryProvider] = None,
) -> Query:
    """§7.2 / Figure 9: sort (filtered) lineitem on extendedprice.

    Results are whole lineitem elements, so the hybrid stages the sort key
    plus a row-index column and returns the source objects themselves —
    the paper's Min variant (return references).
    """
    lineitem = relation_query(data, "lineitem", engine, provider)
    return (
        lineitem.where(lambda l: l.l_quantity <= P("qmax"))
        .order_by(lambda l: l.l_extendedprice)
        .with_params(qmax=_quantity_threshold(selectivity))
    )


def join_micro(
    data: TPCHData,
    engine: str,
    selectivity: float = 1.0,
    provider: Optional[QueryProvider] = None,
) -> Query:
    """§7.3 / Figure 11: the Q3 join sub-query with varied selectivities.

    Selections on lineitem and orders scale with *selectivity*; the
    mktsegment selection on customer stays constant (as in the paper).
    """
    customer = relation_query(data, "customer", engine, provider)
    orders = relation_query(data, "orders", engine, provider)
    lineitem = relation_query(data, "lineitem", engine, provider)

    date_lo = datetime.date(1992, 1, 1)
    date_hi = datetime.date(1998, 8, 2)
    cutoff = date_lo + datetime.timedelta(
        days=int((date_hi - date_lo).days * selectivity)
    )
    open_orders = orders.where(lambda o: o.o_orderdate < P("odate")).join(
        customer.where(lambda c: c.c_mktsegment == P("segment")),
        lambda o: o.o_custkey,
        lambda c: c.c_custkey,
        lambda o, c: new(
            orderkey=o.o_orderkey,
            orderdate=o.o_orderdate,
            shippriority=o.o_shippriority,
        ),
    )
    return (
        lineitem.where(lambda l: l.l_quantity <= P("qmax"))
        .join(
            open_orders,
            lambda l: l.l_orderkey,
            lambda o: o.orderkey,
            lambda l, o: new(
                orderkey=o.orderkey,
                orderdate=o.orderdate,
                shippriority=o.shippriority,
                extendedprice=l.l_extendedprice,
                discount=l.l_discount,
            ),
        )
        .with_params(
            qmax=_quantity_threshold(selectivity),
            odate=cutoff,
            segment="BUILDING",
        )
    )
