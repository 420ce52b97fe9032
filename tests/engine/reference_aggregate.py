"""Reference oracle for :class:`repro.engine.operators.HashAggregateSink`.

A plain per-group fold: each morsel is reduced with ``np.unique`` and
``np.add.at``-style scatter reductions, and every partial group is then
merged into a Python dict keyed by the group tuple, one group at a time.
This is the engine's original aggregation code, kept here as the
oracle the columnar sink must match bit for bit.  ``result_columns`` is
built from the rows so that query plans can run on either sink.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.expressions import Expr
from repro.engine.operators import Sink
from repro.engine.relation import Batch, batch_length


class ReferenceHashAggregateSink(Sink):
    """Group-by aggregation merged group by group into a dict."""

    def __init__(
        self,
        group_columns: List[str],
        sums: Dict[str, Expr],
        count_alias: Optional[str] = None,
        mins: Optional[Dict[str, Expr]] = None,
        maxs: Optional[Dict[str, Expr]] = None,
        avgs: Optional[Dict[str, Expr]] = None,
    ) -> None:
        self.group_columns = group_columns
        self.sums = sums
        self.mins = mins or {}
        self.maxs = maxs or {}
        self.avgs = avgs or {}
        self.count_alias = count_alias
        self.groups: Dict[Tuple, Dict[str, float]] = {}

    def _reduce_keys(self, batch: Batch, n: int):
        key_arrays = [np.asarray(batch[c]) for c in self.group_columns]
        if len(key_arrays) == 1:
            flat_uniques, inverse = np.unique(key_arrays[0], return_inverse=True)
            return flat_uniques.reshape(-1, 1), inverse
        composite = np.empty((n, len(key_arrays)), dtype=np.int64)
        for i, keys in enumerate(key_arrays):
            composite[:, i] = keys
        uniques, inverse = np.unique(composite, axis=0, return_inverse=True)
        return uniques, inverse.reshape(-1)

    def consume(self, batch: Batch) -> None:
        n = batch_length(batch)
        if n == 0:
            return
        uniques, inverse = self._reduce_keys(batch, n)
        n_groups = len(uniques)
        partial_sums = {}
        for alias, expr in self.sums.items():
            acc = np.zeros(n_groups)
            np.add.at(acc, inverse, expr.evaluate(batch))
            partial_sums[alias] = acc
        partial_mins = {}
        for alias, expr in self.mins.items():
            acc = np.full(n_groups, np.inf)
            np.minimum.at(acc, inverse, expr.evaluate(batch))
            partial_mins[alias] = acc
        partial_maxs = {}
        for alias, expr in self.maxs.items():
            acc = np.full(n_groups, -np.inf)
            np.maximum.at(acc, inverse, expr.evaluate(batch))
            partial_maxs[alias] = acc
        partial_avgsums = {}
        for alias, expr in self.avgs.items():
            acc = np.zeros(n_groups)
            np.add.at(acc, inverse, expr.evaluate(batch))
            partial_avgsums[alias] = acc
        counts = np.zeros(n_groups, dtype=np.int64)
        np.add.at(counts, inverse, 1)
        for group_index, key_row in enumerate(uniques):
            key = tuple(int(k) for k in key_row)
            entry = self.groups.get(key)
            if entry is None:
                entry = {alias: 0.0 for alias in self.sums}
                entry.update({f"min:{alias}": float("inf") for alias in self.mins})
                entry.update({f"max:{alias}": float("-inf") for alias in self.maxs})
                entry.update({f"avg:{alias}": 0.0 for alias in self.avgs})
                entry["__count__"] = 0
                self.groups[key] = entry
            for alias in self.sums:
                entry[alias] += float(partial_sums[alias][group_index])
            for alias in self.mins:
                entry[f"min:{alias}"] = min(
                    entry[f"min:{alias}"], float(partial_mins[alias][group_index])
                )
            for alias in self.maxs:
                entry[f"max:{alias}"] = max(
                    entry[f"max:{alias}"], float(partial_maxs[alias][group_index])
                )
            for alias in self.avgs:
                entry[f"avg:{alias}"] += float(partial_avgsums[alias][group_index])
            entry["__count__"] += int(counts[group_index])

    def result_rows(self) -> List[Tuple]:
        rows = []
        for key in sorted(self.groups):
            entry = self.groups[key]
            row = list(key) + [entry[alias] for alias in self.sums]
            row += [entry[f"min:{alias}"] for alias in self.mins]
            row += [entry[f"max:{alias}"] for alias in self.maxs]
            count = entry["__count__"]
            row += [
                entry[f"avg:{alias}"] / count if count else float("nan")
                for alias in self.avgs
            ]
            if self.count_alias is not None:
                row.append(count)
            rows.append(tuple(row))
        return rows

    def result_columns(self) -> Dict[str, np.ndarray]:
        names = [*self.group_columns, *self.sums, *self.mins, *self.maxs, *self.avgs]
        dtypes = [np.int64] * len(self.group_columns) + [np.float64] * (
            len(names) - len(self.group_columns)
        )
        if self.count_alias is not None:
            names.append(self.count_alias)
            dtypes.append(np.int64)
        rows = self.result_rows()
        return {
            name: np.array([row[i] for row in rows], dtype=dtype)
            for i, (name, dtype) in enumerate(zip(names, dtypes))
        }
