"""Morsel-wise physical operators.

Operators come in two flavours:

* **transforms** consume a batch and produce a batch (filter, project,
  hash-join probe, semi/anti-join probe);
* **sinks** terminate a pipeline and materialise state for later
  pipelines (hash-join build, hash aggregation, scalar aggregation,
  top-k, plain collection).

All operators are vectorised over numpy arrays.  Join hash tables use
sorted-key binary search (``np.searchsorted``) over unique build keys —
equivalent to a hash table for our primary-key joins and much faster
than per-row Python dict lookups.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.expressions import Expr
from repro.engine.relation import Batch, batch_length, filter_batch
from repro.errors import EngineError


# ----------------------------------------------------------------------
# Transforms
# ----------------------------------------------------------------------
class Transform(abc.ABC):
    """A batch-to-batch operator."""

    @abc.abstractmethod
    def apply(self, batch: Batch) -> Batch:
        """Process one batch; may shrink or extend it."""


class Filter(Transform):
    """Keep rows satisfying a predicate."""

    def __init__(self, predicate: Expr) -> None:
        self.predicate = predicate

    def apply(self, batch: Batch) -> Batch:
        mask = self.predicate.evaluate(batch)
        return filter_batch(batch, mask)


class Project(Transform):
    """Compute a new set of columns from expressions."""

    def __init__(self, outputs: Dict[str, Expr]) -> None:
        if not outputs:
            raise EngineError("projection needs at least one output")
        self.outputs = outputs

    def apply(self, batch: Batch) -> Batch:
        return {name: expr.evaluate(batch) for name, expr in self.outputs.items()}


class JoinTable:
    """A build-side 'hash table' over a unique integer key column.

    Keys are stored sorted; lookups binary-search them.  Payload columns
    are gathered through the matching build-row indices.
    """

    def __init__(self, key_column: str, payload: Batch) -> None:
        keys = payload.get(key_column)
        if keys is None:
            raise EngineError(f"build payload lacks key column {key_column!r}")
        order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[order]
        if len(self.sorted_keys) > 1 and np.any(
            self.sorted_keys[1:] == self.sorted_keys[:-1]
        ):
            raise EngineError(
                f"join key {key_column!r} is not unique on the build side"
            )
        self.key_column = key_column
        self._payload = {name: array[order] for name, array in payload.items()}

    @property
    def n_rows(self) -> int:
        """Build-side cardinality."""
        return len(self.sorted_keys)

    def lookup(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return (probe mask, build-row indices) for matching rows."""
        if len(self.sorted_keys) == 0:
            return np.zeros(len(probe_keys), dtype=bool), np.empty(0, dtype=np.int64)
        positions = np.searchsorted(self.sorted_keys, probe_keys)
        positions_clipped = np.minimum(positions, len(self.sorted_keys) - 1)
        mask = self.sorted_keys[positions_clipped] == probe_keys
        return mask, positions_clipped[mask]

    def contains(self, probe_keys: np.ndarray) -> np.ndarray:
        """Membership mask (for semi/anti joins)."""
        mask, _ = self.lookup(probe_keys)
        return mask

    def gather(self, build_indices: np.ndarray, columns: List[str]) -> Batch:
        """Fetch payload columns for matched build rows."""
        return {name: self._payload[name][build_indices] for name in columns}


class HashJoinProbe(Transform):
    """Inner join: extend probe rows with build-side payload columns."""

    def __init__(
        self,
        table_ref: "LazyJoinTable",
        probe_key: str,
        payload_columns: List[str],
    ) -> None:
        self.table_ref = table_ref
        self.probe_key = probe_key
        self.payload_columns = payload_columns

    def apply(self, batch: Batch) -> Batch:
        table = self.table_ref.get()
        mask, build_indices = table.lookup(batch[self.probe_key])
        result = filter_batch(batch, mask)
        result.update(table.gather(build_indices, self.payload_columns))
        return result


class SemiJoinProbe(Transform):
    """Keep probe rows whose key exists on the build side."""

    def __init__(self, table_ref: "LazyJoinTable", probe_key: str) -> None:
        self.table_ref = table_ref
        self.probe_key = probe_key

    def apply(self, batch: Batch) -> Batch:
        mask = self.table_ref.get().contains(batch[self.probe_key])
        return filter_batch(batch, mask)


class AntiJoinProbe(Transform):
    """Keep probe rows whose key does NOT exist on the build side."""

    def __init__(self, table_ref: "LazyJoinTable", probe_key: str) -> None:
        self.table_ref = table_ref
        self.probe_key = probe_key

    def apply(self, batch: Batch) -> Batch:
        mask = self.table_ref.get().contains(batch[self.probe_key])
        return filter_batch(batch, np.logical_not(mask))


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class Sink(abc.ABC):
    """A pipeline terminator accumulating state across morsels."""

    #: Whether this sink can emit result rows per morsel instead of
    #: materializing them: ``True`` only for sinks whose per-morsel
    #: output *is* final result rows (:class:`CollectSink`).  Pipeline
    #: breakers (joins' build sides, aggregates, sorts, top-k) must see
    #: all input before producing anything and stay ``False``.
    streams_rows = False

    @abc.abstractmethod
    def consume(self, batch: Batch) -> None:
        """Fold one batch into the sink state."""

    def finalize(self) -> None:
        """Hook run during task-set finalization (may be a no-op)."""


class LazyJoinTable:
    """Holder wiring a build sink to the probes of later pipelines."""

    def __init__(self) -> None:
        self._table: Optional[JoinTable] = None

    def set(self, table: JoinTable) -> None:
        self._table = table

    def get(self) -> JoinTable:
        if self._table is None:
            raise EngineError(
                "join table probed before its build pipeline finalized"
            )
        return self._table


class HashJoinBuildSink(Sink):
    """Materialise build-side rows; produce the JoinTable on finalize."""

    def __init__(self, key_column: str, payload_columns: List[str], out: LazyJoinTable) -> None:
        self.key_column = key_column
        self.payload_columns = sorted(set(payload_columns) | {key_column})
        self.out = out
        self._parts: List[Batch] = []

    def consume(self, batch: Batch) -> None:
        if batch_length(batch):
            self._parts.append({name: batch[name] for name in self.payload_columns})

    def finalize(self) -> None:
        if self._parts:
            merged = {
                name: np.concatenate([part[name] for part in self._parts])
                for name in self.payload_columns
            }
        else:
            merged = {name: np.empty(0, dtype=np.int64) for name in self.payload_columns}
        self.out.set(JoinTable(self.key_column, merged))
        self._parts = []


#: The dense key reduction runs when the key columns' value ranges span
#: at most this many codes per input row; wider (sparse) ranges fall
#: back to ``np.unique``.  Bounds the code table at O(rows).
_DENSE_CODES_PER_ROW = 8

#: Pending partial rows always allowed before an eager merge, so that
#: aggregates with few groups do not re-merge after every morsel.
_MERGE_SLACK_ROWS = 4096

#: Identity element of each scatter reduction, per ufunc.
_FOLD_IDENTITY = {np.add: 0.0, np.minimum: np.inf, np.maximum: -np.inf}


def _reduce_keys(columns: List[np.ndarray], n: int):
    """Group ``n`` rows by their key columns.

    Returns ``(uniques, inverse, counts)``: the distinct keys as int64
    columns in lexicographic order (the order ``np.unique`` produces),
    each row's group index, and each group's row count.

    Integer keys whose ranges multiply to at most
    ``_DENSE_CODES_PER_ROW * n`` codes are mixed-radix encoded into one
    non-negative code, first column most significant, so code order is
    key order; ``np.bincount`` over the codes then yields the groups in
    sorted order without sorting.  Other keys go through ``np.unique``.
    Non-integer keys are truncated to int64 as ``int()`` would.
    """
    if all(column.dtype.kind in "biu" for column in columns):
        columns = [column.astype(np.int64, copy=False) for column in columns]
        lows = [int(column.min()) for column in columns]
        spans = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]
        size = math.prod(spans)
        if size <= _DENSE_CODES_PER_ROW * n:
            code = columns[0] - lows[0]
            for column, low, span in zip(columns[1:], lows[1:], spans[1:]):
                code *= span
                code += column - low
            counts = np.bincount(code, minlength=size)
            present = np.flatnonzero(counts)
            lookup = np.empty(size, dtype=np.intp)
            lookup[present] = np.arange(len(present))
            uniques = []
            rest = present
            for low, span in zip(lows[:0:-1], spans[:0:-1]):
                rest, digit = np.divmod(rest, span)
                uniques.append(digit + low)
            uniques.append(rest + lows[0])
            return uniques[::-1], lookup[code], counts[present]
    if len(columns) == 1:
        uniques, inverse, counts = np.unique(
            columns[0], return_inverse=True, return_counts=True
        )
        return [uniques.astype(np.int64, copy=False)], inverse, counts
    composite = np.empty((n, len(columns)), dtype=np.int64)
    for i, column in enumerate(columns):
        composite[:, i] = column
    uniques, inverse, counts = np.unique(
        composite, axis=0, return_inverse=True, return_counts=True
    )
    return list(uniques.T), inverse.reshape(-1), counts


def _fold(ufunc, inverse: np.ndarray, n_groups: int, values) -> np.ndarray:
    """Scatter-reduce one morsel's ``values`` into ``n_groups`` slots.

    Reduces in input order from the identity, exactly as
    ``ufunc.at(np.full(n_groups, identity), inverse, values)`` would.
    """
    if ufunc is np.add:
        return np.bincount(inverse, weights=values, minlength=n_groups)
    acc = np.full(n_groups, _FOLD_IDENTITY[ufunc])
    ufunc.at(acc, inverse, values)
    return acc


def _merge_fold(ufunc, inverse: np.ndarray, n_groups: int, partials) -> np.ndarray:
    """Reduce partial aggregates as a left fold of Python ``+``/``min``/``max``.

    ``np.bincount`` adds in input order.  Python's ``min``/``max`` skip
    NaN and keep the first of two equal values, which numpy's do not:
    ``fmin``/``fmax`` skip NaN, and a group whose extreme is zero takes
    its first zero partial (±0 are the only equal values that differ).
    """
    if ufunc is np.add:
        return np.bincount(inverse, weights=partials, minlength=n_groups)
    acc = np.full(n_groups, _FOLD_IDENTITY[ufunc])
    (np.fmin if ufunc is np.minimum else np.fmax).at(acc, inverse, partials)
    zeros = np.flatnonzero(partials == 0.0)
    groups, first = np.unique(inverse[zeros], return_index=True)
    tied = acc[groups] == 0.0
    acc[groups[tied]] = partials[zeros[first[tied]]]
    return acc


class HashAggregateSink(Sink):
    """Group-by aggregation with SUM / MIN / MAX / AVG / COUNT aggregates.

    State is columnar: a *partial* is a set of key columns plus one
    column per aggregate and a count column, one entry per group.  Each
    morsel is reduced to a partial by one key reduction
    (:func:`_reduce_keys`) and one scatter reduction per aggregate, and
    appended to a pending list — the analogue of thread-local partial
    aggregates.  A merge concatenates the merged partial and the pending
    ones and reduces them the same way; it runs lazily when results are
    read, and eagerly once the pending rows outnumber both the merged
    groups and ``_MERGE_SLACK_ROWS``, so state stays O(groups).  No
    Python code runs per group or per row.

    Sums fold in input order from 0.0 (``np.bincount``), and the merged
    partial always comes first, so each group's sum is the left fold
    ``0.0 + p0 + p1 + ...`` over its morsel partials in morsel order,
    whatever the merge schedule.  ``avgs`` are merged as (sum, count)
    pairs, the only decomposition that merges correctly across morsels.
    """

    def __init__(
        self,
        group_columns: List[str],
        sums: Dict[str, Expr],
        count_alias: Optional[str] = None,
        mins: Optional[Dict[str, Expr]] = None,
        maxs: Optional[Dict[str, Expr]] = None,
        avgs: Optional[Dict[str, Expr]] = None,
    ) -> None:
        if not group_columns:
            raise EngineError("use ScalarAggregateSink for global aggregates")
        self.group_columns = group_columns
        self.sums = sums
        self.mins = mins or {}
        self.maxs = maxs or {}
        self.avgs = avgs or {}
        self.count_alias = count_alias
        names = [*group_columns, *self.sums, *self.mins, *self.maxs, *self.avgs]
        if count_alias is not None:
            names.append(count_alias)
        if len(set(names)) != len(names):
            raise EngineError(f"duplicate aggregate output names in {names}")
        #: (scatter ufunc, input expression) per aggregate column, in
        #: output order; AVG accumulates its sum like SUM.
        self._inputs = (
            [(np.add, expr) for expr in self.sums.values()]
            + [(np.minimum, expr) for expr in self.mins.values()]
            + [(np.maximum, expr) for expr in self.maxs.values()]
            + [(np.add, expr) for expr in self.avgs.values()]
        )
        self._merged: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = None
        self._pending: List[Tuple[List[np.ndarray], List[np.ndarray]]] = []
        self._pending_groups = 0

    def consume(self, batch: Batch) -> None:
        n = batch_length(batch)
        if n == 0:
            return
        keys, inverse, counts = _reduce_keys(
            [np.asarray(batch[column]) for column in self.group_columns], n
        )
        n_groups = len(counts)
        aggregates = [
            _fold(ufunc, inverse, n_groups, expr.evaluate(batch))
            for ufunc, expr in self._inputs
        ]
        aggregates.append(counts)
        self._pending.append((keys, aggregates))
        self._pending_groups += n_groups
        merged_groups = 0 if self._merged is None else len(self._merged[0][0])
        if self._pending_groups > max(merged_groups, _MERGE_SLACK_ROWS):
            self._merge()

    def _merge(self) -> None:
        """Reduce the merged and pending partials into one merged partial."""
        if not self._pending:
            return
        parts = self._pending if self._merged is None else [self._merged, *self._pending]
        keys = [
            np.concatenate([part[0][i] for part in parts])
            for i in range(len(self.group_columns))
        ]
        uniques, inverse, _ = _reduce_keys(keys, len(keys[0]))
        n_groups = len(uniques[0])
        aggregates = [
            _merge_fold(
                ufunc, inverse, n_groups, np.concatenate([part[1][i] for part in parts])
            )
            for i, (ufunc, _expr) in enumerate(self._inputs)
        ]
        counts = np.zeros(n_groups, dtype=np.int64)
        np.add.at(counts, inverse, np.concatenate([part[1][-1] for part in parts]))
        aggregates.append(counts)
        for column in (*uniques, *aggregates):
            column.flags.writeable = False
        self._merged = (uniques, aggregates)
        self._pending = []
        self._pending_groups = 0

    def result_columns(self) -> Dict[str, np.ndarray]:
        """Key and aggregate columns, one entry per group, sorted by key.

        Columns are named after the group columns and the aggregate
        aliases, in the order group keys, sums, mins, maxs, avgs, count;
        keys and the count are int64, the rest float64.  AVG is NaN for a
        zero count.  Arrays that hold the sink's state are read-only.
        """
        self._merge()
        if self._merged is None:
            keys = [np.empty(0, dtype=np.int64) for _ in self.group_columns]
            aggregates = [np.empty(0) for _ in self._inputs]
            aggregates.append(np.empty(0, dtype=np.int64))
        else:
            keys, aggregates = self._merged
        counts = aggregates[-1]
        columns = dict(zip(self.group_columns, keys))
        plain = [*self.sums, *self.mins, *self.maxs]
        columns.update(zip(plain, aggregates))
        for alias, total in zip(self.avgs, aggregates[len(plain):-1]):
            average = np.full(len(counts), np.nan)
            np.divide(total, counts, out=average, where=counts != 0)
            columns[alias] = average
        if self.count_alias is not None:
            columns[self.count_alias] = counts
        return columns

    def result_rows(self) -> List[Tuple]:
        """(group key..., sums..., mins..., maxs..., avgs..., count) rows
        sorted by group key, as Python ``int`` keys and counts and
        ``float`` aggregates."""
        return list(zip(*(column.tolist() for column in self.result_columns().values())))


class ScalarAggregateSink(Sink):
    """Global SUM / COUNT aggregates without grouping."""

    def __init__(self, sums: Dict[str, Expr]) -> None:
        self.sums = sums
        self.totals: Dict[str, float] = {alias: 0.0 for alias in sums}
        self.count = 0

    def consume(self, batch: Batch) -> None:
        n = batch_length(batch)
        if n == 0:
            return
        self.count += n
        for alias, expr in self.sums.items():
            self.totals[alias] += float(np.sum(expr.evaluate(batch)))


class TopKSink(Sink):
    """Keep the k rows with the largest sort-key value."""

    def __init__(self, sort_column: str, k: int, payload_columns: List[str]) -> None:
        if k <= 0:
            raise EngineError("top-k needs k >= 1")
        self.sort_column = sort_column
        self.k = k
        self.payload_columns = sorted(set(payload_columns) | {sort_column})
        self._best: Optional[Batch] = None

    def consume(self, batch: Batch) -> None:
        if batch_length(batch) == 0:
            return
        part = {name: np.asarray(batch[name]) for name in self.payload_columns}
        if self._best is not None:
            part = {
                name: np.concatenate([self._best[name], part[name]])
                for name in self.payload_columns
            }
        keys = part[self.sort_column]
        if len(keys) > self.k:
            top = np.argpartition(keys, len(keys) - self.k)[-self.k:]
            part = {name: array[top] for name, array in part.items()}
        self._best = part

    def result_rows(self) -> List[Tuple]:
        """The top-k rows, sorted descending by the sort key."""
        if self._best is None:
            return []
        order = np.argsort(self._best[self.sort_column])[::-1]
        names = self.payload_columns
        return [
            tuple(self._best[name][i] for name in names) for i in order
        ]


class SortSink(Sink):
    """Materialise all rows and sort them on finalize (full ORDER BY).

    Partial batches are collected during execution; finalization performs
    the sort — the engine analogue of the paper's "shuffling of
    partitions during sorting" finalization step.
    """

    def __init__(
        self,
        sort_columns: List[str],
        payload_columns: List[str],
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> None:
        if not sort_columns:
            raise EngineError("ORDER BY needs at least one sort column")
        self.sort_columns = sort_columns
        self.payload_columns = sorted(set(payload_columns) | set(sort_columns))
        self.descending = descending
        self.limit = limit
        self._parts: List[Batch] = []
        self._sorted: Optional[Batch] = None

    def consume(self, batch: Batch) -> None:
        if batch_length(batch):
            self._parts.append({name: batch[name] for name in self.payload_columns})

    def finalize(self) -> None:
        if self._parts:
            merged = {
                name: np.concatenate([part[name] for part in self._parts])
                for name in self.payload_columns
            }
        else:
            merged = {name: np.empty(0) for name in self.payload_columns}
        keys = [merged[c] for c in reversed(self.sort_columns)]
        order = np.lexsort(keys)
        if self.descending:
            order = order[::-1]
        if self.limit is not None:
            order = order[: self.limit]
        self._sorted = {name: array[order] for name, array in merged.items()}
        self._parts = []

    def result_rows(self) -> List[Tuple]:
        """Rows in sort order, columns in payload order."""
        if self._sorted is None:
            raise EngineError("SortSink read before finalization")
        n = batch_length(self._sorted)
        names = self.payload_columns
        return [tuple(self._sorted[name][i] for name in names) for i in range(n)]


class CollectSink(Sink):
    """Materialise all rows (small results / intermediate views)."""

    streams_rows = True

    def __init__(self, columns: List[str]) -> None:
        self.columns = columns
        self._parts: List[Batch] = []
        self.result: Optional[Batch] = None

    def consume(self, batch: Batch) -> None:
        if batch_length(batch):
            self._parts.append({name: batch[name] for name in self.columns})

    def finalize(self) -> None:
        if self._parts:
            self.result = {
                name: np.concatenate([part[name] for part in self._parts])
                for name in self.columns
            }
        else:
            self.result = {name: np.empty(0) for name in self.columns}
        self._parts = []


class ChannelSink(Sink):
    """Stream result rows into a bounded channel, morsel by morsel.

    Wraps a :class:`CollectSink` of a query's *final* pipeline when the
    caller opened a result channel: each consumed batch leaves the
    engine immediately as one ``rows`` chunk instead of joining a
    private buffer, so peak result memory is bounded by the channel
    capacity regardless of output size.  The chunks are exactly the
    batches the collect sink would have buffered, in the same order —
    reassembling them reproduces its materialized result bit for bit.

    On a full *blocking* channel ``consume`` parks the producing worker
    thread inside the morsel; the stride scheduler keeps charging that
    query's CPU time, so a slow consumer naturally deprioritizes its
    own query (backpressure through the scheduler, §2 resource groups).
    """

    streams_rows = True

    def __init__(self, inner: CollectSink, channel) -> None:
        self.inner = inner
        self.channel = channel

    @property
    def columns(self) -> List[str]:
        return self.inner.columns

    def consume(self, batch: Batch) -> None:
        rows = batch_length(batch)
        if rows:
            self.channel.put_rows(
                {name: batch[name] for name in self.inner.columns}, rows
            )

    def finalize(self) -> None:
        # An empty result still needs one chunk so the assembled value
        # matches CollectSink's empty-column batch.
        if self.channel.chunks_put == 0 and not self.channel.closed:
            self.channel.put_rows(
                {name: np.empty(0) for name in self.inner.columns}, 0
            )
