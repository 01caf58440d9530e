"""TPC-H substrate tests: datagen determinism + conformance on every engine.

Q1–Q3 cover the paper's aggregation/sort/join fragment; Q4, Q13, Q16,
Q21 and Q22 are the join/set-operation conformance suite — semi joins
(EXISTS), left outer joins, anti joins (NOT EXISTS / NOT IN), distinct
counting, and prepared scalar sub-query composition — each checked on
every engine, sequentially and under a 2-worker morsel split.
"""

import datetime

import pytest

from pinned_hybrids import pinned_hybrids  # noqa: F401 - fixture
from repro.query import ENGINES as REPRO_ENGINES
from repro.query import QueryProvider
from repro.tpch import (
    TPCHData,
    aggregation_micro,
    join_micro,
    q1,
    q2,
    q3,
    q4,
    q13,
    q16,
    q21,
    q22,
    reference_join_micro,
    reference_q1,
    reference_q2,
    reference_q3,
    reference_q4,
    reference_q13,
    reference_q16,
    reference_q21,
    reference_q22,
    relation_query,
    sorting_micro,
)

SCALE = 0.003
#: every engine, plus the pinned buffered-Max hybrid column
ENGINES = REPRO_ENGINES + ("hybrid_buffered",)

pytestmark = pytest.mark.usefixtures("pinned_hybrids")


@pytest.fixture(scope="module")
def data():
    return TPCHData(scale=SCALE)


@pytest.fixture(scope="module")
def provider():
    return QueryProvider()


class TestDatagen:
    def test_deterministic_across_instances(self, data):
        other = TPCHData(scale=SCALE)
        for name in ("lineitem", "orders", "part"):
            assert (other.arrays(name).data == data.arrays(name).data).all()

    def test_seed_changes_data(self, data):
        other = TPCHData(scale=SCALE, seed=7)
        a, b = other.arrays("lineitem").data, data.arrays("lineitem").data
        assert len(a) != len(b) or not (a == b).all()

    def test_row_counts_scale(self, data):
        assert data.row_count("region") == 5
        assert data.row_count("nation") == 25
        assert data.row_count("orders") == int(1_500_000 * SCALE)
        # ~4 lineitems per order
        ratio = data.row_count("lineitem") / data.row_count("orders")
        assert 3.0 < ratio < 5.0

    def test_referential_integrity(self, data):
        customers = set(data.arrays("customer").column("c_custkey").tolist())
        for o in data.objects("orders")[:200]:
            assert o.o_custkey in customers
        orders = set(data.arrays("orders").column("o_orderkey").tolist())
        for l in data.objects("lineitem")[:200]:
            assert l.l_orderkey in orders

    def test_date_correlations(self, data):
        for l in data.objects("lineitem")[:200]:
            assert l.l_shipdate < l.l_receiptdate
            assert l.l_shipdate > datetime.date(1992, 1, 1)

    def test_partsupp_pairs_unique(self, data):
        ps = data.arrays("partsupp")
        pairs = list(
            zip(ps.column("ps_partkey").tolist(), ps.column("ps_suppkey").tolist())
        )
        assert len(pairs) == len(set(pairs))

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            TPCHData(scale=0)


class TestQ1:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_reference(self, data, provider, engine):
        expected = reference_q1(data)
        rows = q1(data, engine, provider).to_list()
        assert len(rows) == len(expected)
        for got, exp in zip(rows, expected):
            assert (got.l_returnflag, got.l_linestatus) == (exp[0], exp[1])
            assert got.sum_qty == pytest.approx(exp[2])
            assert got.sum_base_price == pytest.approx(exp[3])
            assert got.sum_disc_price == pytest.approx(exp[4])
            assert got.sum_charge == pytest.approx(exp[5])
            assert got.avg_qty == pytest.approx(exp[6])
            assert got.avg_price == pytest.approx(exp[7])
            assert got.avg_disc == pytest.approx(exp[8])
            assert got.count_order == exp[9]


class TestQ2:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_reference(self, data, provider, engine):
        expected = reference_q2(data)
        rows = q2(data, engine, provider).to_list()
        got = [
            (round(r.s_acctbal, 2), r.s_name, r.n_name, r.p_partkey, r.p_mfgr)
            for r in rows
        ]
        exp = [(round(a, 2), b, c, d, e) for a, b, c, d, e in expected]
        assert got == exp


class TestQ3:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_reference(self, data, provider, engine):
        expected = reference_q3(data)
        rows = q3(data, engine, provider).to_list()
        got = [
            (r.l_orderkey, round(r.revenue, 2), r.o_orderdate, r.o_shippriority)
            for r in rows
        ]
        exp = [(a, round(b, 2), c, d) for a, b, c, d in expected]
        assert got == exp


PARALLELISM = (None, 2)


def _run(builder, data, provider, engine, parallelism):
    query = builder(data, engine, provider)
    if parallelism:
        query = query.in_parallel(parallelism)
    return query.to_list()


class TestQ4:
    """Semi join: EXISTS over late lineitems."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("parallelism", PARALLELISM)
    def test_matches_reference(self, data, provider, engine, parallelism):
        rows = _run(q4, data, provider, engine, parallelism)
        got = [(r.o_orderpriority, r.order_count) for r in rows]
        assert got == reference_q4(data)

    def test_nonempty(self, data, provider):
        assert len(reference_q4(data)) > 1


class TestQ13:
    """Left outer join: customers with zero orders still counted."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("parallelism", PARALLELISM)
    def test_matches_reference(self, data, provider, engine, parallelism):
        rows = _run(q13, data, provider, engine, parallelism)
        got = [(r.c_count, r.custdist) for r in rows]
        assert got == reference_q13(data)

    def test_zero_bucket_present(self, data, provider):
        # the left join's raison d'être: order-less customers appear
        assert any(count == 0 for count, _ in reference_q13(data))


class TestQ16:
    """Anti join (NOT IN flagged suppliers) + distinct supplier count."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("parallelism", PARALLELISM)
    def test_matches_reference(self, data, provider, engine, parallelism):
        rows = _run(q16, data, provider, engine, parallelism)
        got = [(r.p_brand, r.p_type, r.p_size, r.supplier_cnt) for r in rows]
        assert got == reference_q16(data)

    def test_anti_join_excludes_rows(self, data, provider):
        # the flagged-supplier exclusion must actually bite
        strict = reference_q16(data)
        relaxed = reference_q16(data, min_bal=-10_000.0)
        assert sum(r[3] for r in strict) < sum(r[3] for r in relaxed)


class TestQ21:
    """Semi + anti join stack: sole late supplier of multi-supplier orders."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("parallelism", PARALLELISM)
    def test_matches_reference(self, data, provider, engine, parallelism):
        rows = _run(q21, data, provider, engine, parallelism)
        got = [(r.s_name, r.numwait) for r in rows]
        assert got == reference_q21(data)

    def test_nonempty(self, data, provider):
        assert len(reference_q21(data)) > 0


class TestQ22:
    """Anti join + scalar sub-query composed through prepared parameters."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("parallelism", PARALLELISM)
    def test_matches_reference(self, data, provider, engine, parallelism):
        rows = _run(q22, data, provider, engine, parallelism)
        got = [(r.cntrycode, r.numcust, round(r.totacctbal, 2)) for r in rows]
        exp = [(c, n, round(t, 2)) for c, n, t in reference_q22(data)]
        assert got == exp

    def test_nonempty(self, data, provider):
        assert len(reference_q22(data)) > 0


class TestMicros:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("selectivity", (0.2, 1.0))
    def test_aggregation_micro_consistent(self, data, provider, engine, selectivity):
        rows = aggregation_micro(data, engine, selectivity, provider).to_list()
        baseline = aggregation_micro(data, "linq", selectivity, provider).to_list()
        got = {(r.rf, r.ls): (round(r.sum_qty, 2), r.count_order) for r in rows}
        exp = {(r.rf, r.ls): (round(r.sum_qty, 2), r.count_order) for r in baseline}
        assert got == exp

    # "hybrid_min" is the retired spelling Query.using still maps to
    # "hybrid", which stages this whole-element sort's row indexes
    @pytest.mark.parametrize("engine", ("compiled", "native", "hybrid_min"))
    def test_sorting_micro_consistent(self, data, provider, engine):
        got = [r.l_extendedprice for r in sorting_micro(data, engine, 0.3, provider)]
        exp = [r.l_extendedprice for r in sorting_micro(data, "linq", 0.3, provider)]
        assert got == pytest.approx(exp)

    @pytest.mark.parametrize(
        "engine",
        ENGINES + ("hybrid_min", "hybrid_min_buffered"),
    )
    def test_join_micro_row_count(self, data, provider, engine):
        rows = join_micro(data, engine, 0.5, provider).to_list()
        assert len(rows) == reference_join_micro(data, 0.5)

    def test_selectivity_monotone(self, data, provider):
        counts = [
            relation_query(data, "lineitem", "native", provider)
            .where(lambda l: l.l_quantity <= 50.0 * s)
            .count()
            for s in (0.2, 0.5, 1.0)
        ]
        assert counts[0] < counts[1] < counts[2]
        assert counts[2] == data.row_count("lineitem")

    def test_selectivity_approximates_target(self, data, provider):
        total = data.row_count("lineitem")
        for s in (0.1, 0.5, 0.9):
            n = (
                relation_query(data, "lineitem", "native", provider)
                .where(lambda l: l.l_quantity <= 50.0 * s)
                .count()
            )
            assert abs(n / total - s) < 0.05
