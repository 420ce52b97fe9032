"""Tests for the morsel-wise physical operators."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import operators
from repro.engine.expressions import Col
from repro.engine.operators import (
    AntiJoinProbe,
    CollectSink,
    Filter,
    HashAggregateSink,
    HashJoinBuildSink,
    HashJoinProbe,
    JoinTable,
    LazyJoinTable,
    Project,
    ScalarAggregateSink,
    SemiJoinProbe,
    TopKSink,
)
from repro.errors import EngineError
from tests.engine.reference_aggregate import ReferenceHashAggregateSink


def batch(**columns):
    return {name: np.asarray(values) for name, values in columns.items()}


class TestTransforms:
    def test_filter(self):
        out = Filter(Col("a") > 2).apply(batch(a=[1, 2, 3, 4], b=[10, 20, 30, 40]))
        assert out["a"].tolist() == [3, 4]
        assert out["b"].tolist() == [30, 40]

    def test_project(self):
        out = Project({"double": Col("a") * 2}).apply(batch(a=[1, 2]))
        assert list(out) == ["double"]
        assert out["double"].tolist() == [2, 4]

    def test_project_requires_outputs(self):
        with pytest.raises(EngineError):
            Project({})


class TestJoinTable:
    def test_lookup(self):
        table = JoinTable("k", batch(k=[5, 1, 3], v=[50, 10, 30]))
        mask, idx = table.lookup(np.array([1, 2, 5]))
        assert mask.tolist() == [True, False, True]
        payload = table.gather(idx, ["v"])
        assert payload["v"].tolist() == [10, 50]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(EngineError):
            JoinTable("k", batch(k=[1, 1], v=[1, 2]))

    def test_empty_table(self):
        table = JoinTable("k", {"k": np.empty(0, dtype=np.int64)})
        mask, idx = table.lookup(np.array([1, 2]))
        assert not mask.any()
        assert len(idx) == 0

    def test_missing_key_column(self):
        with pytest.raises(EngineError):
            JoinTable("k", batch(v=[1]))


class TestJoinProbes:
    def _table(self):
        ref = LazyJoinTable()
        ref.set(JoinTable("k", batch(k=[1, 3], payload=[100, 300])))
        return ref

    def test_inner_probe_extends_payload(self):
        probe = HashJoinProbe(self._table(), "fk", ["payload"])
        out = probe.apply(batch(fk=[1, 2, 3], x=[10, 20, 30]))
        assert out["x"].tolist() == [10, 30]
        assert out["payload"].tolist() == [100, 300]

    def test_semi_join(self):
        probe = SemiJoinProbe(self._table(), "fk")
        out = probe.apply(batch(fk=[1, 2, 3]))
        assert out["fk"].tolist() == [1, 3]

    def test_anti_join(self):
        probe = AntiJoinProbe(self._table(), "fk")
        out = probe.apply(batch(fk=[1, 2, 3]))
        assert out["fk"].tolist() == [2]

    def test_unset_lazy_table_raises(self):
        """Probing before the build pipeline finalized is a plan bug."""
        probe = SemiJoinProbe(LazyJoinTable(), "fk")
        with pytest.raises(EngineError):
            probe.apply(batch(fk=[1]))


class TestBuildSink:
    def test_build_across_morsels(self):
        ref = LazyJoinTable()
        sink = HashJoinBuildSink("k", ["v"], ref)
        sink.consume(batch(k=[1, 2], v=[10, 20]))
        sink.consume(batch(k=[3], v=[30]))
        sink.finalize()
        table = ref.get()
        assert table.n_rows == 3
        mask, idx = table.lookup(np.array([2]))
        assert table.gather(idx, ["v"])["v"].tolist() == [20]

    def test_empty_build(self):
        ref = LazyJoinTable()
        sink = HashJoinBuildSink("k", [], ref)
        sink.finalize()
        assert ref.get().n_rows == 0


class TestHashAggregateSink:
    def test_single_key_sums_and_counts(self):
        sink = HashAggregateSink(["g"], {"total": Col("v")}, count_alias="n")
        sink.consume(batch(g=[1, 1, 2], v=[10.0, 20.0, 5.0]))
        sink.consume(batch(g=[2, 3], v=[5.0, 7.0]))
        rows = sink.result_rows()
        assert rows == [(1, 30.0, 2), (2, 10.0, 2), (3, 7.0, 1)]

    def test_multi_key(self):
        sink = HashAggregateSink(["a", "b"], {"s": Col("v")})
        sink.consume(batch(a=[1, 1, 2], b=[0, 1, 0], v=[1.0, 2.0, 3.0]))
        assert sink.result_rows() == [(1, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]

    def test_requires_group_columns(self):
        with pytest.raises(EngineError):
            HashAggregateSink([], {"s": Col("v")})

    def test_empty_batches_ignored(self):
        sink = HashAggregateSink(["g"], {"s": Col("v")})
        sink.consume(batch(g=[], v=[]))
        assert sink.result_rows() == []

    def test_morsel_independence(self):
        """Results must not depend on how input is split into morsels."""
        g = np.random.default_rng(0).integers(0, 10, 1000)
        v = np.random.default_rng(1).random(1000)
        whole = HashAggregateSink(["g"], {"s": Col("v")})
        whole.consume(batch(g=g, v=v))
        split = HashAggregateSink(["g"], {"s": Col("v")})
        for start in range(0, 1000, 37):
            split.consume(batch(g=g[start : start + 37], v=v[start : start + 37]))
        for (k1, s1), (k2, s2) in zip(whole.result_rows(), split.result_rows()):
            assert k1 == k2
            assert s1 == pytest.approx(s2)

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(EngineError):
            HashAggregateSink(["g"], {"s": Col("v")}, mins={"s": Col("v")})

    def test_result_columns(self):
        sink = HashAggregateSink(
            ["g"], {"s": Col("v")}, avgs={"a": Col("v")}, count_alias="n"
        )
        sink.consume(batch(g=[3, 1, 3], v=[1.0, 2.0, 4.0]))
        columns = sink.result_columns()
        assert list(columns) == ["g", "s", "a", "n"]
        assert columns["g"].dtype == np.int64 and columns["n"].dtype == np.int64
        assert columns["g"].tolist() == [1, 3]
        assert columns["s"].tolist() == [2.0, 5.0]
        assert columns["a"].tolist() == [2.0, 2.5]
        assert columns["n"].tolist() == [1, 2]

    def test_empty_result_columns_are_typed(self):
        columns = HashAggregateSink(["g"], {"s": Col("v")}, count_alias="n").result_columns()
        assert [column.dtype for column in columns.values()] == [
            np.int64, np.float64, np.int64
        ]
        assert all(len(column) == 0 for column in columns.values())


#: Key column value ranges: small dense ranges take the bincount
#: reduction, the widely spaced one forces the ``np.unique`` fallback.
_KEY_VALUES = {
    "dense": st.integers(0, 4),
    "negative": st.integers(-9, -3),
    "sparse": st.integers(-3, 3).map(lambda k: k * 10**12),
}


def _morsels(columns, cuts):
    bounds = [0, *cuts, len(next(iter(columns.values())))]
    return [
        {name: values[lo:hi] for name, values in columns.items()}
        for lo, hi in zip(bounds, bounds[1:])
    ]


@st.composite
def _aggregation_cases(draw):
    n_keys = draw(st.integers(1, 3))
    n = draw(st.integers(0, 60))
    columns = {}
    for i in range(n_keys):
        values = draw(st.sampled_from(sorted(_KEY_VALUES)).flatmap(
            lambda kind: st.lists(_KEY_VALUES[kind], min_size=n, max_size=n)
        ))
        dtype = draw(st.sampled_from([np.int32, np.int64]))
        if max(map(abs, values), default=0) > 2**31:
            dtype = np.int64
        columns[f"k{i}"] = np.array(values, dtype=dtype)
    special = st.sampled_from([0.0, -0.0, 1e16, float("nan"), float("inf"), float("-inf")])
    floats = special | st.floats(-1e3, 1e3) | st.floats(width=64)
    columns["v"] = np.array(
        draw(st.lists(floats, min_size=n, max_size=n)),
        dtype=np.float64,
    )
    columns["w"] = np.array(
        draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)), dtype=np.int64
    )
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=12)))
    morsels = _morsels(columns, cuts)
    read_after = draw(st.integers(0, len(morsels)))
    merge_slack = draw(st.sampled_from([0, 5, operators._MERGE_SLACK_ROWS]))
    spec = dict(
        group_columns=[f"k{i}" for i in range(n_keys)],
        sums={a: e for a, e in [("s", Col("v")), ("si", Col("w"))] if draw(st.booleans())},
        mins={"lo": Col("v")} if draw(st.booleans()) else {},
        maxs={a: e for a, e in [("hi", Col("v")), ("hi_w", Col("w"))] if draw(st.booleans())},
        avgs={"mean": Col("v")} if draw(st.booleans()) else {},
        count_alias="n" if draw(st.booleans()) else None,
    )
    return spec, morsels, read_after, merge_slack


def _bits(value):
    """A float's bit pattern (any NaN payload counts as the same NaN)."""
    if not isinstance(value, float):
        return value
    return "nan" if value != value else struct.pack("<d", value)


def _exact(rows):
    """Rows with every float as its bit pattern, so == means bit-identical."""
    return [tuple((type(value), _bits(value)) for value in row) for row in rows]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestHashAggregateSinkProperty:
    def test_min_max_merge_like_python(self):
        """Across morsels MIN/MAX keep the first of equal values (±0)
        and skip NaN partials, as Python's min()/max() fold does."""
        sink = HashAggregateSink(["g"], {}, mins={"lo": Col("v")}, maxs={"hi": Col("v")})
        for v in (0.0, float("nan"), -0.0, 0.0):
            sink.consume(batch(g=[1], v=[v]))
        ((_, lo, hi),) = sink.result_rows()
        assert struct.pack("<d", lo) == struct.pack("<d", 0.0)
        assert struct.pack("<d", hi) == struct.pack("<d", 0.0)

    @pytest.mark.parametrize("merge_slack", [0, operators._MERGE_SLACK_ROWS])
    def test_sum_is_left_fold_in_morsel_order(self, merge_slack):
        """Each group's sum is 0.0 + p0 + p1 + ... over morsel partials,
        whenever eager merges run: 1e16 + 1.0 rounds back to 1e16, while
        adding the ones first would give 1e16 + 2."""
        sink = HashAggregateSink(["g"], {"s": Col("v")})
        with mock.patch.object(operators, "_MERGE_SLACK_ROWS", merge_slack):
            for v in (1e16, 1.0, 1.0, 1.0, 1.0):
                sink.consume(batch(g=[7], v=[v]))
        assert sink.result_rows() == [(7, 1e16)]

    @settings(max_examples=200, deadline=None)
    @given(_aggregation_cases())
    def test_matches_reference_fold(self, case):
        """The columnar sink equals the per-group dict fold bit for bit,
        for any morsel split and merge schedule (a small merge slack
        forces eager merges), including reads between morsels."""
        spec, morsels, read_after, merge_slack = case
        sink = HashAggregateSink(**spec)
        reference = ReferenceHashAggregateSink(**spec)
        with mock.patch.object(operators, "_MERGE_SLACK_ROWS", merge_slack):
            for index, morsel in enumerate(morsels):
                if index == read_after:
                    expected = _exact(reference.result_rows())
                    assert _exact(sink.result_rows()) == expected
                    assert _exact(sink.result_rows()) == expected
                sink.consume(morsel)
                reference.consume(morsel)
        assert _exact(sink.result_rows()) == _exact(reference.result_rows())
        assert _exact(sink.result_rows()) == _exact(reference.result_rows())


class TestScalarAggregateSink:
    def test_sums_and_count(self):
        sink = ScalarAggregateSink({"s": Col("v")})
        sink.consume(batch(v=[1.0, 2.0]))
        sink.consume(batch(v=[3.0]))
        assert sink.totals["s"] == pytest.approx(6.0)
        assert sink.count == 3


class TestTopKSink:
    def test_keeps_largest(self):
        sink = TopKSink("score", 2, ["id"])
        sink.consume(batch(score=[1.0, 9.0, 5.0], id=[1, 2, 3]))
        sink.consume(batch(score=[7.0], id=[4]))
        rows = sink.result_rows()
        # Columns sorted alphabetically: (id, score); descending by score.
        assert [row[1] for row in rows] == [9.0, 7.0]

    def test_fewer_than_k(self):
        sink = TopKSink("score", 10, ["id"])
        sink.consume(batch(score=[1.0], id=[1]))
        assert len(sink.result_rows()) == 1

    def test_empty(self):
        assert TopKSink("score", 3, []).result_rows() == []

    def test_invalid_k(self):
        with pytest.raises(EngineError):
            TopKSink("score", 0, [])


class TestCollectSink:
    def test_concatenates(self):
        sink = CollectSink(["a"])
        sink.consume(batch(a=[1, 2]))
        sink.consume(batch(a=[3]))
        sink.finalize()
        assert sink.result["a"].tolist() == [1, 2, 3]

    def test_empty(self):
        sink = CollectSink(["a"])
        sink.finalize()
        assert sink.result["a"].tolist() == []


class TestExtendedAggregates:
    def test_min_max_avg(self):
        sink = HashAggregateSink(
            ["g"],
            sums={"s": Col("v")},
            mins={"lo": Col("v")},
            maxs={"hi": Col("v")},
            avgs={"mean": Col("v")},
            count_alias="n",
        )
        sink.consume(batch(g=[1, 1, 2], v=[10.0, 20.0, 5.0]))
        sink.consume(batch(g=[1], v=[1.0]))
        rows = sink.result_rows()
        # (key, sum, min, max, avg, count)
        assert rows[0] == (1, 31.0, 1.0, 20.0, pytest.approx(31.0 / 3), 3)
        assert rows[1] == (2, 5.0, 5.0, 5.0, 5.0, 1)

    def test_avg_merges_across_morsels(self):
        """AVG must be (sum, count)-decomposed, not averaged averages."""
        whole = HashAggregateSink(["g"], sums={}, avgs={"a": Col("v")})
        whole.consume(batch(g=[1, 1, 1], v=[1.0, 2.0, 9.0]))
        split = HashAggregateSink(["g"], sums={}, avgs={"a": Col("v")})
        split.consume(batch(g=[1, 1], v=[1.0, 2.0]))
        split.consume(batch(g=[1], v=[9.0]))
        assert whole.result_rows() == split.result_rows()


class TestSortSink:
    def test_full_sort(self):
        from repro.engine.operators import SortSink

        sink = SortSink(["k"], ["v"])
        sink.consume(batch(k=[3, 1], v=[30, 10]))
        sink.consume(batch(k=[2], v=[20]))
        sink.finalize()
        rows = sink.result_rows()
        assert [row[0] for row in rows] == [1, 2, 3]

    def test_descending_with_limit(self):
        from repro.engine.operators import SortSink

        sink = SortSink(["k"], [], descending=True, limit=2)
        sink.consume(batch(k=[5, 1, 9, 3]))
        sink.finalize()
        assert [row[0] for row in sink.result_rows()] == [9, 5]

    def test_multi_column_lexicographic(self):
        from repro.engine.operators import SortSink

        sink = SortSink(["a", "b"], [])
        sink.consume(batch(a=[1, 1, 0], b=[2, 1, 9]))
        sink.finalize()
        assert sink.result_rows() == [(0, 9), (1, 1), (1, 2)]

    def test_read_before_finalize(self):
        from repro.engine.operators import SortSink

        sink = SortSink(["k"], [])
        with pytest.raises(EngineError):
            sink.result_rows()

    def test_requires_sort_columns(self):
        from repro.engine.operators import SortSink

        with pytest.raises(EngineError):
            SortSink([], [])

    def test_empty_input(self):
        from repro.engine.operators import SortSink

        sink = SortSink(["k"], [])
        sink.finalize()
        assert sink.result_rows() == []
