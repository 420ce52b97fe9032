"""Independent result oracle: the engine's queries as SQL over sqlite3.

The engine plans in ``repro.engine.queries`` are hand-built operator
pipelines.  This module states each of them a second time as SQL text,
runs that SQL with the standard library's ``sqlite3`` over the same
generated tables, and compares what a query handle returned against it.

Dictionary-encoded string columns are loaded *decoded* (``'BUILDING'``,
``'SHIP'``, ``'Brand#12'`` ...), so the SQL names literals the way the
TPC-H text does and the comparison also covers the plans' code lookups.
Every predicate and date window below mirrors the plan it checks.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Callable, Dict, List, Optional

import numpy as np

#: Relative tolerance for floating-point aggregates.  Summation order
#: differs between sqlite (row order) and the engine (per-morsel partial
#: sums), so sums agree to a few ulps, far inside this bound.
REL_TOL = 1e-9

#: Columns loaded per table: only what the SQL below reads.
_COLUMNS = {
    "lineitem": (
        "l_orderkey", "l_partkey", "l_quantity", "l_extendedprice",
        "l_discount", "l_tax", "l_shipdate", "l_commitdate",
        "l_receiptdate", "l_returnflag", "l_linestatus", "l_shipmode",
    ),
    "orders": (
        "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice",
        "o_orderpriority",
    ),
    "customer": ("c_custkey", "c_mktsegment", "c_acctbal"),
    "part": ("p_partkey", "p_brand"),
}

_PRIMARY_KEYS = {"orders": "o_orderkey", "customer": "c_custkey", "part": "p_partkey"}

_REVENUE = "l_extendedprice * (1.0 - l_discount)"

#: SQL text per engine query.  Q14's "promo" class is the brand subset
#: the plan uses (codes 0-4, i.e. Brand#11..Brand#15); Q19's brands are
#: codes 1, 7 and 13.
SQL = {
    "Q1": f"""
        SELECT l_returnflag, l_linestatus,
               SUM(l_quantity), SUM(l_extendedprice), SUM({_REVENUE}),
               SUM({_REVENUE} * (1.0 + l_tax)),
               AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount),
               COUNT(*)
        FROM lineitem WHERE l_shipdate <= 2467
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus""",
    "Q3": f"""
        SELECT l_orderkey, SUM({_REVENUE})
        FROM lineitem
        WHERE l_shipdate > 1600 AND l_orderkey IN (
            SELECT o_orderkey FROM orders
            WHERE o_orderdate < 1600 AND o_custkey IN (
                SELECT c_custkey FROM customer
                WHERE c_mktsegment = 'BUILDING'))
        GROUP BY l_orderkey""",
    "Q4": """
        SELECT o_orderpriority, COUNT(*)
        FROM orders
        WHERE o_orderdate BETWEEN 800 AND 891 AND o_orderkey IN (
            SELECT l_orderkey FROM lineitem
            WHERE l_commitdate < l_receiptdate)
        GROUP BY o_orderpriority ORDER BY o_orderpriority""",
    "Q6": """
        SELECT SUM(l_extendedprice * l_discount)
        FROM lineitem
        WHERE l_shipdate BETWEEN 1096 AND 1460
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24""",
    "Q12": """
        SELECT l_shipmode,
               SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END),
               SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 0 ELSE 1 END)
        FROM lineitem JOIN orders ON o_orderkey = l_orderkey
        WHERE l_commitdate < l_receiptdate
          AND l_receiptdate BETWEEN 1096 AND 1460
          AND l_shipmode IN ('SHIP', 'TRUCK')
        GROUP BY l_shipmode ORDER BY l_shipmode""",
    "Q13": """
        SELECT c_count, COUNT(*) AS custdist
        FROM (SELECT c_custkey, COUNT(o_orderkey) AS c_count
              FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey
              GROUP BY c_custkey)
        GROUP BY c_count ORDER BY custdist DESC, c_count DESC""",
    "Q14": f"""
        SELECT SUM(CASE WHEN p_brand IN ('Brand#11', 'Brand#12', 'Brand#13',
                                         'Brand#14', 'Brand#15')
                        THEN {_REVENUE} ELSE 0.0 END),
               SUM({_REVENUE})
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE l_shipdate BETWEEN 1000 AND 1030""",
    "Q18": """
        SELECT o_orderkey, o_totalprice, o_custkey, g.sum_qty
        FROM orders JOIN (
            SELECT l_orderkey, SUM(l_quantity) AS sum_qty
            FROM lineitem GROUP BY l_orderkey
            HAVING SUM(l_quantity) > 190.0) AS g
          ON o_orderkey = g.l_orderkey""",
    "Q19": f"""
        SELECT SUM({_REVENUE})
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE p_brand IN ('Brand#12', 'Brand#23', 'Brand#34')
          AND (l_quantity BETWEEN 1 AND 11
               OR l_quantity BETWEEN 10 AND 20
               OR l_quantity BETWEEN 20 AND 30)""",
    "Q22": """
        SELECT COUNT(*), SUM(c_acctbal)
        FROM customer
        WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer
                           WHERE c_acctbal > 0.0)
          AND c_custkey NOT IN (SELECT o_custkey FROM orders)""",
    "QS": """
        SELECT l_orderkey, l_extendedprice, l_discount, l_shipdate
        FROM lineitem WHERE l_discount >= 0.05 ORDER BY rowid""",
}

#: Q3 and Q18 keep the top rows of a ranking; the oracle keeps all rows.
TOP_K = {"Q3": 10, "Q18": 100}


class Mismatch(Exception):
    """An engine result disagrees with the SQL oracle."""


def load_sqlite(db) -> sqlite3.Connection:
    """Copy the generated tables the SQL reads into an in-memory sqlite3."""
    conn = sqlite3.connect(":memory:")
    for table, columns in _COLUMNS.items():
        relation = db.table(table)
        arrays = []
        decls = []
        for name in columns:
            values = relation.column(name)
            dictionary = relation.dictionary(name)
            if dictionary is not None:
                arrays.append([dictionary[int(code)] for code in values])
                kind = "TEXT"
            elif np.issubdtype(values.dtype, np.integer):
                arrays.append(values.tolist())
                kind = "INTEGER"
            else:
                arrays.append(values.tolist())
                kind = "REAL"
            if _PRIMARY_KEYS.get(table) == name:
                kind += " PRIMARY KEY"
            decls.append(f"{name} {kind}")
        conn.execute(f"CREATE TABLE {table} ({', '.join(decls)})")
        marks = ", ".join("?" for _ in columns)
        conn.executemany(
            f"INSERT INTO {table} VALUES ({marks})", zip(*arrays)
        )
    conn.execute("CREATE INDEX orders_custkey ON orders (o_custkey)")
    conn.execute("CREATE INDEX lineitem_orderkey ON lineitem (l_orderkey)")
    return conn


def expected_results(db, names) -> Dict[str, object]:
    """Run the oracle SQL of every name in ``names`` once."""
    conn = load_sqlite(db)
    try:
        expected = {}
        for name in names:
            rows = conn.execute(SQL[name]).fetchall()
            if name == "QS":
                expected[name] = {
                    column: np.array([row[i] for row in rows])
                    for i, column in enumerate(
                        ("l_orderkey", "l_extendedprice", "l_discount", "l_shipdate")
                    )
                }
            else:
                expected[name] = rows
        return expected
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _close(actual, expected) -> bool:
    actual = float(actual)
    expected = 0.0 if expected is None else float(expected)
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=1e-9)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _decoder(db, table: str, column: str) -> Callable[[object], str]:
    dictionary = db.table(table).dictionary(column)
    return lambda code: dictionary[int(code)]


def _check_rows(actual: List[tuple], expected: List[tuple], exact: int) -> None:
    """Row lists in the same order: first ``exact`` columns equal, rest close."""
    _require(len(actual) == len(expected), f"{len(actual)} rows, oracle has {len(expected)}")
    for got, want in zip(actual, expected):
        _require(len(got) == len(want), f"row width {len(got)} != {len(want)}")
        _require(tuple(got[:exact]) == tuple(want[:exact]), f"keys {got[:exact]} != {want[:exact]}")
        for a, b in zip(got[exact:], want[exact:]):
            _require(_close(a, b), f"value {a!r} != oracle {b!r} in row {want[:exact]}")


def _check_top_k(actual, ranking: Dict[int, tuple], value_of, k: int) -> None:
    """A top-k list: its rows exist in the oracle, its values are the top k.

    Ties at the k-th value may be broken either way, so the check compares
    the sorted value lists and each row's own fields, not the key sets.
    """
    want_values = sorted((value_of(row) for row in ranking.values()), reverse=True)[:k]
    _require(len(actual) == len(want_values), f"{len(actual)} rows, expected {len(want_values)}")
    got_values = [value_of(ranking.get(key, (None,) * 4)) for key in (r[0] for r in actual)]
    _require(None not in got_values, "a returned key is not in the oracle's result")
    for a, b in zip(sorted(got_values, reverse=True), want_values):
        _require(_close(a, b), f"top-{k} value {a!r} != oracle {b!r}")
    for i in range(1, len(actual)):
        _require(actual[i - 1][1] >= actual[i][1], "top-k rows not in descending order")


def check(name: str, batches: list, expected, db) -> None:
    """Raise :class:`Mismatch` unless ``batches`` equal the oracle's rows.

    ``batches`` is everything iterating the query's handle yielded: one
    terminal payload for pipeline-breaker queries, the row batches of
    ``QS`` in stream order.
    """
    if name == "QS":
        _require(len(batches) >= 1, "empty stream")
        for column, want in expected.items():
            got = np.concatenate([np.asarray(batch[column]) for batch in batches])
            _require(got.shape == want.shape,
                     f"{column}: {got.shape[0]} rows, oracle {want.shape[0]}")
            _require(bool(np.array_equal(got, want)), f"{column} differs from the oracle")
        return
    _require(len(batches) == 1, f"{len(batches)} payloads, expected one")
    result = batches[0]
    if name == "Q1":
        flag = _decoder(db, "lineitem", "l_returnflag")
        status = _decoder(db, "lineitem", "l_linestatus")
        rows = [(flag(r[0]), status(r[1])) + tuple(r[2:]) for r in result]
        _check_rows(rows, expected, exact=2)
        for got, want in zip(rows, expected):
            _require(int(got[-1]) == int(want[-1]), f"count {got[-1]} != {want[-1]}")
    elif name == "Q3":
        ranking = {int(k): (int(k), v) for k, v in expected}
        _check_top_k([(int(k), float(v)) for k, v in result], ranking,
                     lambda row: row[1], TOP_K["Q3"])
    elif name == "Q4":
        priority = _decoder(db, "orders", "o_orderpriority")
        _check_rows([(priority(k), int(c)) for k, c in result], expected, exact=2)
    elif name in ("Q6", "Q19"):
        _require(_close(result, expected[0][0]), f"{result!r} != oracle {expected[0][0]!r}")
    elif name == "Q12":
        mode = _decoder(db, "lineitem", "l_shipmode")
        _check_rows([(mode(m), int(h), int(lo)) for m, h, lo in result], expected, exact=3)
    elif name == "Q13":
        _check_rows([(int(c), int(n)) for c, n in result], expected, exact=2)
    elif name == "Q14":
        promo, total = expected[0]
        want = 0.0 if not total else 100.0 * promo / total
        _require(_close(result, want), f"{result!r} != oracle {want!r}")
    elif name == "Q18":
        # Engine rows carry the top-k sink's sorted payload columns:
        # (g_sum_qty, o_custkey, o_orderkey, o_totalprice).
        ranking = {int(o): (int(o), float(p), int(c), float(q)) for o, p, c, q in expected}
        rows = [(int(o), float(p), int(c), float(q)) for q, c, o, p in result]
        _check_top_k(rows, ranking, lambda row: row[1], TOP_K["Q18"])
        for row in rows:
            want = ranking[row[0]]
            _require(row[2] == want[2] and _close(row[3], want[3]), f"Q18 row {row} != {want}")
    elif name == "Q22":
        count, total = expected[0]
        _require(int(result["count"]) == int(count), f"count {result['count']} != {count}")
        _require(_close(result["total_balance"], total or 0.0), "total_balance differs")
    else:
        raise Mismatch(f"no oracle for {name!r}")


def mismatch(name: str, batches: list, expected, db) -> Optional[str]:
    """The reason ``batches`` fail the oracle, or ``None`` when they match."""
    try:
        check(name, batches, expected, db)
    except Mismatch as error:
        return str(error)
    except (TypeError, ValueError, KeyError, IndexError) as error:
        return f"malformed result: {type(error).__name__}: {error}"
    return None
