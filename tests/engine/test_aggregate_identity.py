"""Engine query outputs are bit-identical with the columnar aggregate sink.

Every plan in :data:`ENGINE_QUERIES` runs twice per morsel size: once as
built, once with :class:`HashAggregateSink` swapped for the per-group
dict fold in :mod:`tests.engine.reference_aggregate`.  The outputs must
match exactly — same types, same float bits — not approximately.  The
consumers that read aggregate columns (Q3's top-10, Q13's histogram,
Q18's grouped relation) are also checked against their row-based form.
"""

import struct
from typing import Dict

import numpy as np
import pytest

from repro.engine import ENGINE_QUERIES, build_engine_query
from repro.engine import queries
from tests.engine.reference_aggregate import ReferenceHashAggregateSink

MORSEL_SIZES = (997, 4096, 65_536)


def assert_identical(got, want, where="result"):
    """Recursive exact equality: types, dtypes and float bit patterns."""
    assert type(got) is type(want), f"{where}: {type(got)} != {type(want)}"
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_identical(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for index, (g, w) in enumerate(zip(got, want)):
            assert_identical(g, w, f"{where}[{index}]")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, where
        assert np.array_equal(got, want, equal_nan=True), where
        assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("morsel_rows", MORSEL_SIZES)
@pytest.mark.parametrize("name", ENGINE_QUERIES)
def test_output_matches_reference_sink(small_db, monkeypatch, name, morsel_rows):
    columnar = build_engine_query(name, small_db).execute(morsel_rows=morsel_rows)
    monkeypatch.setattr(queries, "HashAggregateSink", ReferenceHashAggregateSink)
    reference = build_engine_query(name, small_db).execute(morsel_rows=morsel_rows)
    assert_identical(columnar, reference, name)


@pytest.mark.parametrize("morsel_rows", MORSEL_SIZES)
class TestColumnConsumers:
    """Column-based consumers equal the row-based code they replaced."""

    def test_q3_top10(self, small_db, morsel_rows):
        plan = build_engine_query("Q3", small_db)
        result = plan.execute(morsel_rows=morsel_rows)
        rows = plan.pipelines[2].sink.result_rows()
        assert_identical(result, sorted(rows, key=lambda row: -row[1])[:10])

    def test_q13_histogram(self, small_db, morsel_rows):
        plan = build_engine_query("Q13", small_db)
        result = plan.execute(morsel_rows=morsel_rows)
        counts: Dict[int, int] = {}
        for _custkey, order_count in plan.pipelines[1].sink.result_rows():
            counts[order_count] = counts.get(order_count, 0) + 1
        zero = small_db.table("customer").n_rows - sum(counts.values())
        if zero > 0:
            counts[0] = counts.get(0, 0) + zero
        expected = sorted(counts.items(), key=lambda item: (-item[1], -item[0]))
        assert_identical(result, expected)

    def test_q18_grouped_relation(self, small_db, morsel_rows):
        plan = build_engine_query("Q18", small_db)
        plan.execute(morsel_rows=morsel_rows)
        rows = plan.pipelines[0].sink.result_rows()
        relation = plan.pipelines[1].relation
        assert_identical(
            relation.column("g_orderkey"),
            np.array([row[0] for row in rows], dtype=np.int64),
        )
        assert_identical(
            relation.column("g_sum_qty"),
            np.array([row[1] for row in rows], dtype=np.float64),
        )
