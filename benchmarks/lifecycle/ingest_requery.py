"""``ingest_requery`` — writes beside reads on one layer stack: append a
batch, re-run the standing aggregation on the delta path, hit the
recycler, and now and then pay a full re-run the recycler cannot merge."""

from __future__ import annotations

import copy
import datetime
import random
from types import SimpleNamespace
from typing import Any, Dict, List

from repro import P, new
from repro.query import RecyclingProvider, from_iterable, from_struct_array
from repro.service import QueryService
from repro.storage import StructArray
from repro.storage.schema import date_to_days
from repro.tpch import TPCHData

import harness
import layers
from base import Stopwatch, Workload, span_sum
from harness import LoopResult, Op, SpanTracer

QTY_MAX = 40.0  # the standing query keeps l_quantity <= 40
FULL_QTY_MAX = 5.0  # the left join's inner side keeps l_quantity <= 5
FULL_EVERY = 10  # every n-th iteration runs the non-mergeable query
EARLY = datetime.date(1992, 7, 1)  # ... over the orders placed before this
FOLD_CHUNK = 10_000  # rows decoded at a time, so the oracle stays small in RSS
POOL_BATCHES = 20  # appended rows are slices of a pool this many batches long


def _standing(source: Any) -> Any:
    """The Figure-7 aggregation (filter + grouped sums, average, count)."""
    return source.where(lambda l: l.l_quantity <= QTY_MAX).group_by(
        lambda l: new(rf=l.l_returnflag, ls=l.l_linestatus),
        lambda g: new(
            rf=g.key.rf,
            ls=g.key.ls,
            sum_qty=g.sum(lambda l: l.l_quantity),
            sum_disc_price=g.sum(lambda l: l.l_extendedprice * (1 - l.l_discount)),
            avg_qty=g.avg(lambda l: l.l_quantity),
            count_order=g.count(),
        ),
    )


def _left_join(orders: Any, lineitem: Any) -> Any:
    """Early orders with their small lineitems: left joins never merge."""
    return orders.where(lambda o: o.o_orderdate < P("early")).left_outer_join(
        lineitem.where(lambda l: l.l_quantity <= FULL_QTY_MAX),
        lambda o: o.o_orderkey,
        lambda l: l.l_orderkey,
        lambda o, l: new(orderkey=o.o_orderkey, quantity=l.l_quantity),
        default={"l_quantity": 0.0},
    ).with_params(early=EARLY)


class Fold:
    """The oracle: a plain-Python fold over exactly the rows appended."""

    def __init__(self, schema: Any) -> None:
        names = [f.name for f in schema.fields]
        self._at = {name: names.index(name) for name in names}
        self.groups: Dict[tuple, list] = {}
        self.small: Dict[int, List[float]] = {}
        self.rows = 0

    def add(self, rows: List[tuple]) -> None:
        at = self._at
        key, qty, price, disc = (
            at["l_orderkey"],
            at["l_quantity"],
            at["l_extendedprice"],
            at["l_discount"],
        )
        rf, ls = at["l_returnflag"], at["l_linestatus"]
        for row in rows:
            quantity = row[qty]
            if quantity <= FULL_QTY_MAX:
                self.small.setdefault(row[key], []).append(quantity)
            if quantity <= QTY_MAX:
                slot = self.groups.setdefault(
                    (row[rf].decode("utf-8"), row[ls].decode("utf-8")), [0.0, 0.0, 0]
                )
                slot[0] += quantity
                slot[1] += row[price] * (1 - row[disc])
                slot[2] += 1
        self.rows += len(rows)

    def standing(self) -> List[tuple]:
        return sorted(
            (rf, ls, s[0], s[1], s[0] / s[2], s[2]) for (rf, ls), s in self.groups.items()
        )

    def left_join(self, early_orders: List[int]) -> List[tuple]:
        return sorted(
            (key, quantity)
            for key in early_orders
            for quantity in self.small.get(key, (0.0,))
        )


class IngestRequery(Workload):
    name = "ingest_requery"
    why = (
        "writes beside reads: 1000-row ingests into a growing table, the standing "
        "aggregation on the recycler's delta path, a pure hit, and a left join that "
        "forces a full re-run"
    )

    #: (TPC-H scale of the base table, rows per ingest)
    SIZE = {False: (0.02, 1000), True: (0.002, 100)}

    def setup(self, seed: int, quick: bool) -> Any:
        scale, batch = self.SIZE[quick]
        clock = Stopwatch()
        with clock.running():
            data = TPCHData(scale=scale, seed=seed)
            base = data.arrays("lineitem")
            orders = data.arrays("orders")
            table = StructArray(base.schema, base.data.copy())
            provider = RecyclingProvider()
            session = QueryService(provider=provider).session()
            queries = {
                "compiled": _standing(from_iterable(table).using("compiled", provider)),
                "native": _standing(from_struct_array(table).using("native", provider)),
                "full": _left_join(
                    from_struct_array(orders).using("native", provider),
                    from_struct_array(table).using("native", provider),
                ),
            }
        key = (seed, quick)
        if key not in self._oracles:
            fold = Fold(base.schema)
            for start in range(0, len(base), FOLD_CHUNK):
                fold.add(base.data[start : start + FOLD_CHUNK].tolist())
            cutoff = date_to_days(EARLY)
            early = [
                k
                for k, day in zip(
                    orders.column("o_orderkey").tolist(),
                    orders.column("o_orderdate").tolist(),
                )
                if day < cutoff
            ]
            pool = base.data[: batch * POOL_BATCHES].tolist()
            self._oracles[key] = (fold, early, pool)
        pristine, early, pool = self._oracles[key]
        fold = copy.deepcopy(pristine)
        state = SimpleNamespace(
            table=table,
            base=base,
            provider=provider,
            session=session,
            queries=queries,
            fold=fold,
            early=early,
            pool=pool,
            batch=batch,
            quick=quick,
            rng=random.Random(seed),
            iteration=0,
            shadow=None,
            op_list=[[seed, scale, batch, len(base), len(early)]],
        )
        # the first runs are full passes that fill the recycler; then one
        # whole iteration takes every cell through its warm path
        warm_ops = [self._query_op(state, "warm." + n, n) for n in queries]
        state.warm = harness.run_rounds(
            [warm_ops, self._round(state, with_full=True)], 0, min_rounds=2
        )
        state.setup_seconds = clock.seconds + state.warm.busy_seconds
        return state

    def _query_op(self, state: Any, cell: str, name: str) -> Op:
        query, fold = state.queries[name], state.fold

        def check(rows: Any) -> bool:
            got = sorted(harness.as_tuples(rows))
            expected = fold.left_join(state.early) if name == "full" else fold.standing()
            return harness.rows_equal(got, expected, ordered=True)

        staged = None
        if name == "full":

            def staged(tracer: SpanTracer) -> None:
                layers.warm_path(tracer, state.provider, query)

        return Op(cell=cell, run=query.to_list, check=check, staged=staged)

    def _append_op(self, state: Any) -> Op:
        start = state.rng.randrange(len(state.pool) - state.batch + 1)
        rows = state.pool[start : start + state.batch]
        table, fold = state.table, state.fold

        def check(version: Any) -> bool:
            fold.add(rows)
            return len(table) == fold.rows and version == table.version

        def staged(tracer: SpanTracer) -> None:
            # the same batch into a shadow table: bare storage calls
            if state.shadow is None:
                state.shadow = StructArray(table.schema, state.base.data.copy())
            with tracer.span("storage.append_rows"):
                state.shadow.append_rows(rows)
            with tracer.span("storage.snapshot"):
                state.shadow.snapshot()

        return Op(
            cell="append",
            run=lambda: state.session.ingest(table, rows),
            check=check,
            staged=staged,
        )

    def _round(self, state: Any, with_full: bool = False) -> List[Op]:
        state.iteration += 1
        ops = [
            self._append_op(state),
            self._query_op(state, "delta.compiled", "compiled"),
            self._query_op(state, "delta.native", "native"),
            self._query_op(state, "hit", "native"),
        ]
        if with_full or state.iteration % FULL_EVERY == 0:
            ops.append(self._query_op(state, "full.native", "full"))
        return ops

    def finish(self, state: Any) -> List[str]:
        """From scratch: fold every row now in the table, compare both the
        running fold and one last re-run of the standing query to it."""
        scratch = Fold(state.table.schema)
        rows = state.table.snapshot().data
        for start in range(0, len(rows), FOLD_CHUNK):
            scratch.add(rows[start : start + FOLD_CHUNK].tolist())
        last = sorted(harness.as_tuples(state.queries["native"].to_list()))
        failures = []
        if not harness.rows_equal(scratch.standing(), state.fold.standing(), True):
            failures.append("ingest_requery: running fold drifted from a fresh fold")
        if not harness.rows_equal(last, scratch.standing(), True):
            failures.append("ingest_requery: final standing query differs from fold")
        return failures

    # -- the ledger ------------------------------------------------------------------

    def owned(self, state: Any, tracer: SpanTracer, traced: LoopResult) -> Dict[str, float]:
        ops = tracer.medians("op")
        append = tracer.medians("storage.append_rows")["append"]
        stats = state.provider.recycler_stats
        return {
            "query.recycler.hit_us": ops["hit"] * 1e6,
            "query.recycler.delta_us.compiled": ops["delta.compiled"] * 1e6,
            "query.recycler.delta_us.native": ops["delta.native"] * 1e6,
            "query.recycler.delta_hits": stats.delta_hits,
            "query.recycler.full_reruns": stats.full_reruns,
            "query.recycler.compactions": stats.compactions,
            "query.recycler.delta_ratio": stats.delta_hits
            / (stats.delta_hits + stats.full_reruns),
            "storage.append_rows_per_s": state.batch / append,
            "storage.snapshot_us": tracer.medians("storage.snapshot")["append"] * 1e6,
            # admission, token and span bookkeeping around the bare append
            "service.ingest_us": (ops["append"] - append) * 1e6,
        }

    def layer_seconds(self, totals: Dict[tuple, float]) -> Dict[str, float]:
        append = span_sum(totals, "storage.append_rows")
        canonicalize = span_sum(totals, "expressions.canonicalize")
        lookup = span_sum(totals, "query.compile_info")
        kernel = span_sum(totals, "runtime.kernel")
        recycled = span_sum(totals, "op", ("delta.compiled", "delta.native", "hit"))
        return {
            "storage": append,
            "service": span_sum(totals, "op", ("append",)) - append,
            "expressions": canonicalize,
            # delta and hit ops run entirely inside the recycler
            "query": recycled + lookup - canonicalize,
            "runtime": kernel,
            # the full path's materialisation and partial-state capture
            "residual": span_sum(totals, "op", ("full.native",)) - lookup - kernel,
        }
