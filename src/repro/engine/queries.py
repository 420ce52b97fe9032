"""Hand-built engine plans for TPC-H-shaped queries.

Ten queries cover the plan shapes the paper's figures rely on:

* **Q1** — one heavy scan+aggregate pipeline (pricing summary report);
* **Q3** — build/build/probe chain with a top-k (shipping priority);
* **Q4** — existence semi-join of late lineitems into orders;
* **Q6** — a single tight filter+sum scan (forecast revenue change);
* **Q12** — orders build probed by late lineitems, priority split;
* **Q13** — the customer-order distribution with its expensive
  aggregation pipeline (one of the two Figure 5 queries);
* **Q14** — part build probed by a lineitem month (promotion effect);
* **Q18** — a large group-by feeding a having-filter and a semi-join
  (large-volume customers);
* **Q19** — disjunctive predicates over a part probe (discounted revenue);
* **Q22** — wealthy idle customers via an anti-join against orders.

Dates are integer days since 1992-01-01 (see
:mod:`repro.engine.datagen`); the predicates below use the same windows
as the original queries, which yields comparable selectivities.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.engine.datagen import TpchDatabase
from repro.engine.expressions import And, Col, Const, Or
from repro.engine.operators import (
    AntiJoinProbe,
    CollectSink,
    Filter,
    HashAggregateSink,
    HashJoinBuildSink,
    HashJoinProbe,
    LazyJoinTable,
    ScalarAggregateSink,
    SemiJoinProbe,
    TopKSink,
)
from repro.engine.pipeline import EnginePipeline, QueryPlan, materialized_relation
from repro.errors import EngineError

#: Names of the queries with real engine plans.  ``QS`` is not a TPC-H
#: query: it is the streaming scan — the one plan whose final sink
#: emits result rows per morsel (see :func:`_qs`).
ENGINE_QUERIES = (
    "Q1", "Q3", "Q4", "Q6", "Q12", "Q13", "Q14", "Q18", "Q19", "Q22", "QS",
)


def _q1(db: TpchDatabase) -> QueryPlan:
    """Pricing summary report: scan + group by (returnflag, linestatus)."""
    lineitem = db.table("lineitem")
    revenue = Col("l_extendedprice") * (Const(1.0) - Col("l_discount"))
    charge = revenue * (Const(1.0) + Col("l_tax"))
    sink = HashAggregateSink(
        group_columns=["l_returnflag", "l_linestatus"],
        sums={
            "sum_qty": Col("l_quantity"),
            "sum_base_price": Col("l_extendedprice"),
            "sum_disc_price": revenue,
            "sum_charge": charge,
        },
        avgs={
            "avg_qty": Col("l_quantity"),
            "avg_price": Col("l_extendedprice"),
            "avg_disc": Col("l_discount"),
        },
        count_alias="count_order",
    )
    scan = EnginePipeline(
        name="scan-lineitem-aggregate",
        source=lineitem,
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
        transforms=[Filter(Col("l_shipdate") <= 2_467)],
        sink=sink,
    )
    return QueryPlan("Q1", [scan], result_fn=sink.result_rows)


def _q3(db: TpchDatabase) -> QueryPlan:
    """Shipping priority: customer/orders builds, lineitem probe, top-k."""
    cutoff = 1_600  # ~1996-05-18
    customer_table = LazyJoinTable()
    orders_table = LazyJoinTable()
    customer = db.table("customer")
    orders = db.table("orders")
    lineitem = db.table("lineitem")

    build_customer = EnginePipeline(
        name="build-customer",
        source=customer,
        columns=["c_custkey", "c_mktsegment"],
        transforms=[
            Filter(Col("c_mktsegment").equals(customer.encode_value("c_mktsegment", "BUILDING")))
        ],
        sink=HashJoinBuildSink("c_custkey", [], customer_table),
    )
    build_orders = EnginePipeline(
        name="build-orders",
        source=orders,
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        transforms=[
            Filter(Col("o_orderdate") < cutoff),
            SemiJoinProbe(customer_table, "o_custkey"),
        ],
        sink=HashJoinBuildSink("o_orderkey", ["o_orderdate"], orders_table),
    )
    revenue = Col("l_extendedprice") * (Const(1.0) - Col("l_discount"))
    agg = HashAggregateSink(
        group_columns=["l_orderkey"],
        sums={"revenue": revenue},
    )
    probe_lineitem = EnginePipeline(
        name="probe-lineitem-aggregate",
        source=lineitem,
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        transforms=[
            Filter(Col("l_shipdate") > cutoff),
            SemiJoinProbe(orders_table, "l_orderkey"),
        ],
        sink=agg,
    )

    def result() -> List[tuple]:
        columns = agg.result_columns()
        revenue = columns["revenue"]
        # Stable, so ties keep ascending order-key order.
        top = np.argsort(-revenue, kind="stable")[:10]
        return list(zip(columns["l_orderkey"][top].tolist(), revenue[top].tolist()))

    return QueryPlan("Q3", [build_customer, build_orders, probe_lineitem], result)


def _q6(db: TpchDatabase) -> QueryPlan:
    """Forecast revenue change: one filter+sum scan."""
    lineitem = db.table("lineitem")
    sink = ScalarAggregateSink(
        sums={"revenue": Col("l_extendedprice") * Col("l_discount")}
    )
    scan = EnginePipeline(
        name="scan-lineitem-filter-sum",
        source=lineitem,
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
        transforms=[
            Filter(
                And(
                    Col("l_shipdate").between(1_096, 1_460),
                    Col("l_discount").between(0.05, 0.07),
                    Col("l_quantity") < 24,
                )
            )
        ],
        sink=sink,
    )
    return QueryPlan("Q6", [scan], result_fn=lambda: sink.totals["revenue"])


def _q13(db: TpchDatabase) -> QueryPlan:
    """Customer distribution: orders per customer, then a histogram."""
    customer = db.table("customer")
    orders = db.table("orders")
    customer_table = LazyJoinTable()

    build_customer = EnginePipeline(
        name="build-customer",
        source=customer,
        columns=["c_custkey"],
        transforms=[],
        sink=HashJoinBuildSink("c_custkey", [], customer_table),
    )
    per_customer = HashAggregateSink(
        group_columns=["o_custkey"],
        sums={},
        count_alias="order_count",
    )
    probe_orders = EnginePipeline(
        name="probe-orders-outer",
        source=orders,
        columns=["o_custkey"],
        transforms=[SemiJoinProbe(customer_table, "o_custkey")],
        sink=per_customer,
    )

    def result() -> List[tuple]:
        # Histogram: (orders per customer, number of customers); the
        # customers with zero orders come from the difference against
        # the customer cardinality (the LEFT OUTER part of Q13).
        order_counts, n_customers = np.unique(
            per_customer.result_columns()["order_count"], return_counts=True
        )
        counts = dict(zip(order_counts.tolist(), n_customers.tolist()))
        zero = customer.n_rows - int(n_customers.sum())
        if zero > 0:
            counts[0] = counts.get(0, 0) + zero
        return sorted(counts.items(), key=lambda item: (-item[1], -item[0]))

    return QueryPlan("Q13", [build_customer, probe_orders], result)


def _q18(db: TpchDatabase, quantity_threshold: float = 190.0) -> QueryPlan:
    """Large-volume customers: group lineitem, having-filter, semi-join."""
    lineitem = db.table("lineitem")
    orders = db.table("orders")
    group_qty = HashAggregateSink(
        group_columns=["l_orderkey"],
        sums={"sum_qty": Col("l_quantity")},
    )
    group_lineitem = EnginePipeline(
        name="group-lineitem-quantities",
        source=lineitem,
        columns=["l_orderkey", "l_quantity"],
        transforms=[],
        sink=group_qty,
    )

    big_orders = LazyJoinTable()

    def grouped_relation():
        columns = group_qty.result_columns()
        return materialized_relation(
            {"g_orderkey": columns["l_orderkey"], "g_sum_qty": columns["sum_qty"]}
        )

    build_big_orders = EnginePipeline(
        name="build-orders-probe",
        source=grouped_relation,
        columns=["g_orderkey", "g_sum_qty"],
        transforms=[Filter(Col("g_sum_qty") > quantity_threshold)],
        sink=HashJoinBuildSink("g_orderkey", ["g_sum_qty"], big_orders),
        estimated_rows=orders.n_rows,
    )
    topk = TopKSink(
        "o_totalprice", 100, ["o_orderkey", "o_totalprice", "o_custkey", "g_sum_qty"]
    )
    probe_orders = EnginePipeline(
        name="probe-lineitem-join",
        source=orders,
        columns=["o_orderkey", "o_totalprice", "o_custkey"],
        transforms=[
            HashJoinProbe(big_orders, "o_orderkey", ["g_sum_qty"])
        ],
        sink=topk,
    )
    return QueryPlan(
        "Q18", [group_lineitem, build_big_orders, probe_orders], topk.result_rows
    )


def _q4(db: TpchDatabase) -> QueryPlan:
    """Order priority checking: late lineitems semi-join into orders.

    Pipeline 1 builds the set of orders having at least one lineitem
    with ``l_commitdate < l_receiptdate``; pipeline 2 counts qualifying
    orders per priority within a quarter.
    """
    lineitem = db.table("lineitem")
    orders = db.table("orders")
    late_orders = LazyJoinTable()

    collect_late = CollectSink(["l_orderkey"])
    find_late = EnginePipeline(
        name="build-lineitem-semijoin",
        source=lineitem,
        columns=["l_orderkey", "l_commitdate", "l_receiptdate"],
        transforms=[Filter(Col("l_commitdate") < Col("l_receiptdate"))],
        sink=collect_late,
    )

    def late_relation():
        keys = np.unique(np.asarray(collect_late.result["l_orderkey"]))
        return materialized_relation({"lo_orderkey": keys})

    build_late = EnginePipeline(
        name="build-late-orders",
        source=late_relation,
        columns=["lo_orderkey"],
        transforms=[],
        sink=HashJoinBuildSink("lo_orderkey", [], late_orders),
        estimated_rows=orders.n_rows,
    )
    agg = HashAggregateSink(
        group_columns=["o_orderpriority"], sums={}, count_alias="order_count"
    )
    probe_orders = EnginePipeline(
        name="probe-orders-aggregate",
        source=orders,
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        transforms=[
            Filter(Col("o_orderdate").between(800, 891)),
            SemiJoinProbe(late_orders, "o_orderkey"),
        ],
        sink=agg,
    )
    return QueryPlan("Q4", [find_late, build_late, probe_orders], agg.result_rows)


def _q14(db: TpchDatabase) -> QueryPlan:
    """Promotion effect: part build probed by a shipdate-month of lineitem.

    Our part table has no p_type column, so the "promo" class is modelled
    as a brand subset — the plan shape (build + probe + two conditional
    sums) is what matters for scheduling.
    """
    part = db.table("part")
    lineitem = db.table("lineitem")
    parts_table = LazyJoinTable()
    build_part = EnginePipeline(
        name="build-part",
        source=part,
        columns=["p_partkey", "p_brand"],
        transforms=[],
        sink=HashJoinBuildSink("p_partkey", ["p_brand"], parts_table),
    )
    revenue = Col("l_extendedprice") * (Const(1.0) - Col("l_discount"))
    total = ScalarAggregateSink(sums={"revenue": revenue})
    promo = ScalarAggregateSink(sums={"revenue": revenue})

    class _SplitSink(ScalarAggregateSink):
        """Feeds total and promo sums from one probe pass."""

        def __init__(self):
            super().__init__(sums={})

        def consume(self, batch):
            total.consume(batch)
            mask = np.asarray(batch["p_brand"]) < 5  # "PROMO" brands
            promo.consume({k: v[mask] for k, v in batch.items()})

    probe = EnginePipeline(
        name="probe-lineitem",
        source=lineitem,
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        transforms=[
            Filter(Col("l_shipdate").between(1_000, 1_030)),
            HashJoinProbe(parts_table, "l_partkey", ["p_brand"]),
        ],
        sink=_SplitSink(),
    )

    def result() -> float:
        if total.totals["revenue"] == 0.0:
            return 0.0
        return 100.0 * promo.totals["revenue"] / total.totals["revenue"]

    return QueryPlan("Q14", [build_part, probe], result)


def _q19(db: TpchDatabase) -> QueryPlan:
    """Discounted revenue: disjunctive brand/quantity predicates."""
    part = db.table("part")
    lineitem = db.table("lineitem")
    parts_table = LazyJoinTable()
    build_part = EnginePipeline(
        name="build-part-brands",
        source=part,
        columns=["p_partkey", "p_brand"],
        transforms=[Filter(Col("p_brand").isin([1, 7, 13]))],
        sink=HashJoinBuildSink("p_partkey", ["p_brand"], parts_table),
    )
    revenue = Col("l_extendedprice") * (Const(1.0) - Col("l_discount"))
    agg = ScalarAggregateSink(sums={"revenue": revenue})
    probe = EnginePipeline(
        name="probe-lineitem-disjunction",
        source=lineitem,
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        transforms=[
            Filter(
                Or(
                    Col("l_quantity").between(1, 11),
                    Col("l_quantity").between(10, 20),
                    Col("l_quantity").between(20, 30),
                )
            ),
            HashJoinProbe(parts_table, "l_partkey", []),
        ],
        sink=agg,
    )
    return QueryPlan("Q19", [build_part, probe], lambda: agg.totals["revenue"])


def _q12(db: TpchDatabase) -> QueryPlan:
    """Shipping modes and order priority: orders build, lineitem probe.

    Counts urgent/non-urgent orders per ship mode among late-but-shipped
    lineitems in a one-year window.
    """
    orders = db.table("orders")
    lineitem = db.table("lineitem")
    orders_table = LazyJoinTable()
    build_orders = EnginePipeline(
        name="build-orders",
        source=orders,
        columns=["o_orderkey", "o_orderpriority"],
        transforms=[],
        sink=HashJoinBuildSink("o_orderkey", ["o_orderpriority"], orders_table),
    )
    urgent = HashAggregateSink(
        group_columns=["l_shipmode"],
        sums={},
        count_alias="n",
    )
    non_urgent = HashAggregateSink(
        group_columns=["l_shipmode"],
        sums={},
        count_alias="n",
    )

    class _PrioritySplit(ScalarAggregateSink):
        """Routes probed rows into urgent / non-urgent group counts."""

        def __init__(self):
            super().__init__(sums={})

        def consume(self, batch):
            priorities = np.asarray(batch["o_orderpriority"])
            mask = priorities < 2  # "1-URGENT" / "2-HIGH"
            urgent.consume({k: v[mask] for k, v in batch.items()})
            non_urgent.consume({k: v[~mask] for k, v in batch.items()})

    probe = EnginePipeline(
        name="probe-lineitem-aggregate",
        source=lineitem,
        columns=["l_orderkey", "l_shipmode", "l_receiptdate", "l_commitdate"],
        transforms=[
            Filter(
                And(
                    Col("l_commitdate") < Col("l_receiptdate"),
                    Col("l_receiptdate").between(1_096, 1_460),
                    Col("l_shipmode").isin([5, 6]),  # SHIP, TRUCK
                )
            ),
            HashJoinProbe(orders_table, "l_orderkey", ["o_orderpriority"]),
        ],
        sink=_PrioritySplit(),
    )

    def result() -> List[tuple]:
        high = {row[0]: row[1] for row in urgent.result_rows()}
        low = {row[0]: row[1] for row in non_urgent.result_rows()}
        return [
            (mode, high.get(mode, 0), low.get(mode, 0))
            for mode in sorted(set(high) | set(low))
        ]

    return QueryPlan("Q12", [build_orders, probe], result)


def _q22(db: TpchDatabase) -> QueryPlan:
    """Global sales opportunity: wealthy idle customers, anti-join orders.

    Pipeline 1 computes the average positive account balance; pipeline 2
    builds the set of customers with orders; pipeline 3 counts customers
    above the average balance who never ordered.
    """
    customer = db.table("customer")
    orders = db.table("orders")
    average = ScalarAggregateSink(sums={"balance": Col("c_acctbal")})
    scan_average = EnginePipeline(
        name="scan-customer-average",
        source=customer,
        columns=["c_acctbal"],
        transforms=[Filter(Col("c_acctbal") > 0.0)],
        sink=average,
    )
    ordering_customers = LazyJoinTable()
    collect_orderers = CollectSink(["o_custkey"])
    scan_orders = EnginePipeline(
        name="probe-customer-filter",
        source=orders,
        columns=["o_custkey"],
        transforms=[],
        sink=collect_orderers,
    )

    def orderers_relation():
        keys = np.unique(np.asarray(collect_orderers.result["o_custkey"]))
        return materialized_relation({"oc_custkey": keys})

    build_orderers = EnginePipeline(
        name="build-ordering-customers",
        source=orderers_relation,
        columns=["oc_custkey"],
        transforms=[],
        sink=HashJoinBuildSink("oc_custkey", [], ordering_customers),
        estimated_rows=customer.n_rows,
    )
    idle_rich = ScalarAggregateSink(sums={"balance": Col("c_acctbal")})

    def anti_probe_pipeline():
        mean_balance = (
            average.totals["balance"] / average.count if average.count else 0.0
        )
        return EnginePipeline(
            name="anti-join-orders",
            source=customer,
            columns=["c_custkey", "c_acctbal"],
            transforms=[
                Filter(Col("c_acctbal") > mean_balance),
                AntiJoinProbe(ordering_customers, "c_custkey"),
            ],
            sink=idle_rich,
        )

    # The filter constant depends on pipeline 1's result, so the final
    # pipeline is constructed lazily through a thin wrapper pipeline.
    class _DeferredPipeline(EnginePipeline):
        def __init__(self):
            self._inner = None
            super().__init__(
                name="anti-join-orders",
                source=customer,
                columns=["c_custkey", "c_acctbal"],
                transforms=[],
                sink=idle_rich,
            )

        def _ensure_inner(self):
            if self._inner is None:
                self._inner = anti_probe_pipeline()

        def run_morsel(self, rows):
            self._ensure_inner()
            processed = self._inner.run_morsel(rows)
            self.cursor = self._inner.cursor
            self.rows_processed = self._inner.rows_processed
            return processed

        def finalize(self):
            self._ensure_inner()
            if not self._inner.finalized:
                self._inner.finalize()
            self.cursor = self._inner.cursor
            self.finalized = True

    deferred = _DeferredPipeline()

    def result():
        return {"count": idle_rich.count, "total_balance": idle_rich.totals["balance"]}

    return QueryPlan("Q22", [scan_average, scan_orders, build_orderers, deferred], result)


def _qs(db: TpchDatabase) -> QueryPlan:
    """Streaming scan: discounted lineitems collected verbatim.

    Not part of TPC-H — a deliberately wide-output scan whose final
    (only) pipeline terminates in a :class:`CollectSink`, the one sink
    that can stream result rows morsel by morsel.  Every other catalog
    query ends in a pipeline breaker, so this plan is what exercises the
    incremental result path (and the time-to-first-batch benchmark).
    """
    lineitem = db.table("lineitem")
    columns = ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    sink = CollectSink(columns)
    scan = EnginePipeline(
        name="scan-lineitem-collect",
        source=lineitem,
        columns=columns,
        transforms=[Filter(Col("l_discount") >= 0.05)],
        sink=sink,
    )

    def result():
        return sink.result

    return QueryPlan("QS", [scan], result)


_BUILDERS: Dict[str, Callable[[TpchDatabase], QueryPlan]] = {
    "Q1": _q1,
    "Q3": _q3,
    "Q4": _q4,
    "Q6": _q6,
    "Q12": _q12,
    "Q13": _q13,
    "Q14": _q14,
    "Q18": _q18,
    "Q19": _q19,
    "Q22": _q22,
    "QS": _qs,
}


def build_engine_query(name: str, db: TpchDatabase) -> QueryPlan:
    """Build the engine plan for one of :data:`ENGINE_QUERIES`."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise EngineError(
            f"no engine plan for {name!r}; available: {ENGINE_QUERIES}"
        )
    return builder(db)
