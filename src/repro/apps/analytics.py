"""SQL-ish bitmap analytics over the bit-serial arithmetic substrate.

:class:`AnalyticsTable` holds two kinds of resident columns:

- **bit-sliced** numeric columns (``load_column``): ``k`` transposed
  planes per column, queried with arbitrary-constant compares
  (``("cmp", col, op, value)``) and SUM aggregation;
- **equality-encoded** bitmap indexes (``load_index``): one disjoint
  bin vector per distinct value, queried with FastBit-style ranges
  (``("range", col, lo, hi)``) and histogram GROUP BY.

``table.filter(*predicates).count() / .sum(col) / .histogram(col)``
executes the whole query in memory through the one analytics query
body, :func:`repro.arith.query.run_query`: predicate masks from the
:mod:`repro.arith.kernels` gate recipes and their conjunction as
**one** planner wave (identical sub-chains inside a query CSE-fold),
then the mask and every aggregate popcount as one to-host stream over
the I/O bus -- every gate priced by the simulated controller.
``verify()`` replays every executed query on the host shadows and
asserts exact agreement.

On a planned+compiled runtime the table additionally runs the
:class:`~repro.arith.compile.AnalyticsCompiler` (see that module for
the honesty rules): a repeated query *shape* compiles into a program
keyed by structure with the comparison constants as runtime
parameters, and steady-state repeats replay with zero planner work --
same answers, same simulated pricing, ~none of the Python.  The
compiler follows the planner's ``compile`` switch: a
``PimRuntime(..., compile=False)`` table interprets every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.arith.bitslice import BitSliceTensor
from repro.arith.compile import AnalyticsCompiler
from repro.arith.kernels import CMP_OPS, ScratchPool
from repro.arith.oracle import (
    oracle_compare_const,
    oracle_histogram,
    oracle_masked_sum,
)

__all__ = ["AnalyticsTable", "AnalyticsResult", "analytics_oracle"]

_Q_QUERIES = telemetry.counter("analytics.queries")


@dataclass(frozen=True)
class AnalyticsResult:
    """One executed analytics query and its honest simulated cost."""

    #: scalar aggregate (count, or masked sum; histogram total)
    value: float
    #: per-bin counts for histogram aggregates, else ``None``
    groups: Optional[Tuple[int, ...]]
    #: rows passing the filter
    popcount: int
    #: simulated seconds / joules consumed by this query
    latency_s: float
    energy_j: float
    #: the (filters, aggregate) spec, for verification replay
    spec: tuple = field(repr=False, default=())


def analytics_oracle(
    columns: Dict[str, np.ndarray],
    filters: Sequence[tuple],
    aggregate: tuple,
) -> Tuple[np.ndarray, float, Optional[Tuple[int, ...]]]:
    """Plain-numpy evaluation of one analytics query.

    ``columns`` maps names to raw host values.  Returns
    ``(mask_bits, value, groups)`` -- exactly what the PIM execution
    must reproduce.
    """
    n = len(next(iter(columns.values())))
    mask = np.ones(n, dtype=np.uint8)
    for pred in filters:
        kind = pred[0]
        if kind == "cmp":
            _, col, op, value = pred[:4]
            mask &= oracle_compare_const(columns[col], op, value)
        elif kind == "range":
            _, col, lo, hi = pred[:4]
            vals = np.asarray(columns[col], dtype=np.int64)
            mask &= ((vals >= lo) & (vals <= hi)).astype(np.uint8)
        else:
            raise ValueError(f"unknown predicate kind {kind!r}")
    if aggregate[0] == "count":
        return mask, float(int(mask.sum())), None
    if aggregate[0] == "sum":
        return mask, float(oracle_masked_sum(columns[aggregate[1]], mask)), None
    if aggregate[0] == "hist":
        col = aggregate[1]
        n_bins = int(np.asarray(columns[col]).max()) + 1
        groups = tuple(oracle_histogram(columns[col], n_bins, mask))
        return mask, float(sum(groups)), groups
    raise ValueError(f"unknown aggregate {aggregate[0]!r}")


class AnalyticsTable:
    """A resident table: bit-sliced numeric columns + bitmap indexes."""

    def __init__(
        self,
        runtime,
        n_rows: int,
        group: str = "analytics",
    ):
        if n_rows < 1:
            raise ValueError("n_rows must be >= 1")
        self.runtime = runtime
        self.n_rows = int(n_rows)
        self.group = group
        self.pool = ScratchPool(runtime, n_rows, group=f"{group}/scratch")
        self._slices: Dict[str, BitSliceTensor] = {}
        self._indexes: Dict[str, List] = {}
        self._host: Dict[str, np.ndarray] = {}
        self.executed: List[AnalyticsResult] = []
        #: whole-query program compiler; self-disables on unplanned /
        #: uncompiled runtimes (``enabled`` False -> pure interpretation)
        self.compiler = AnalyticsCompiler(runtime)

    # -- loading -------------------------------------------------------------

    def load_column(self, name: str, values, n_bits: int) -> None:
        """Load a numeric column bit-sliced (``n_bits`` planes)."""
        self._check_name(name)
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.n_rows,):
            raise ValueError(f"column {name!r} must have {self.n_rows} rows")
        self._slices[name] = BitSliceTensor.from_ints(
            self.runtime, values, n_bits, group=f"{self.group}/{name}"
        )
        self._host[name] = values.copy()

    def load_index(self, name: str, bin_indices, n_bins: int) -> None:
        """Load an equality-encoded bitmap index (one vector per bin)."""
        self._check_name(name)
        idx = np.asarray(bin_indices, dtype=np.int64)
        if idx.shape != (self.n_rows,):
            raise ValueError(f"index {name!r} must have {self.n_rows} rows")
        if idx.min() < 0 or idx.max() >= n_bins:
            raise ValueError(f"index {name!r} values outside [0, {n_bins})")
        bins = []
        for b in range(n_bins):
            handle = self.runtime.pim_malloc(
                self.n_rows, f"{self.group}/{name}"
            )
            self.runtime.pim_write(handle, (idx == b).astype(np.uint8))
            bins.append(handle)
        self._indexes[name] = bins
        self._host[name] = idx.copy()

    def _check_name(self, name: str) -> None:
        if name in self._slices or name in self._indexes:
            raise ValueError(f"column {name!r} already loaded")

    @property
    def columns(self) -> List[str]:
        return sorted(self._host)

    # -- querying ------------------------------------------------------------

    def filter(self, *predicates) -> "AnalyticsQuery":
        """Start a query; predicates are ``("cmp", col, op, K)`` over
        bit-sliced columns or ``("range", col, lo, hi)`` over indexes."""
        for pred in predicates:
            self._check_predicate(pred)
        return AnalyticsQuery(self, tuple(predicates))

    def _check_predicate(self, pred) -> None:
        if not isinstance(pred, tuple) or not pred:
            raise ValueError(f"malformed predicate {pred!r}")
        if pred[0] == "cmp":
            _, col, op, _value = pred[:4]
            if col not in self._slices:
                raise KeyError(
                    f"no bit-sliced column {col!r}; loaded: "
                    f"{sorted(self._slices)}"
                )
            if op not in CMP_OPS:
                raise ValueError(f"unknown comparison {op!r}")
        elif pred[0] == "range":
            _, col, lo, hi = pred[:4]
            bins = self._indexes.get(col)
            if bins is None:
                raise KeyError(
                    f"no bitmap index {col!r}; loaded: "
                    f"{sorted(self._indexes)}"
                )
            if not 0 <= lo <= hi < len(bins):
                raise ValueError(
                    f"range [{lo}, {hi}] outside the {len(bins)} bins "
                    f"of {col!r}"
                )
        else:
            raise ValueError(f"unknown predicate kind {pred[0]!r}")

    def _resolve(self, spec) -> list:
        """The handles one predicate or aggregate reads (see
        :mod:`repro.arith.query`)."""
        kind, column = spec[0], spec[1]
        if kind in ("cmp", "sum"):
            return self._slices[column].planes
        bins = self._indexes[column]
        return bins[spec[2] : spec[3] + 1] if kind == "range" else bins

    def _run(self, predicates, aggregate) -> AnalyticsResult:
        run = self.compiler.run(
            predicates,
            aggregate,
            None,
            lambda: (self.pool, self._resolve),
            keep_bits=False,
        )
        _Q_QUERIES.add()
        result = AnalyticsResult(
            value=run.value,
            groups=run.groups,
            popcount=run.popcount,
            latency_s=run.latency_s,
            energy_j=run.energy_j,
            spec=(tuple(predicates), tuple(aggregate)),
        )
        self.executed.append(result)
        return result

    # -- verification --------------------------------------------------------

    def verify(self) -> int:
        """Replay every executed query on the host shadows; exact match."""
        for i, result in enumerate(self.executed):
            predicates, aggregate = result.spec
            mask, value, groups = analytics_oracle(
                self._host, predicates, aggregate
            )
            ok = (
                result.popcount == int(mask.sum())
                and result.value == value
                and result.groups == groups
            )
            if not ok:
                raise AssertionError(
                    f"query {i} diverged from the numpy oracle: "
                    f"got (popcount={result.popcount}, value={result.value}, "
                    f"groups={result.groups}), expected "
                    f"({int(mask.sum())}, {value}, {groups})"
                )
        return len(self.executed)

    def free(self) -> None:
        for tensor in self._slices.values():
            tensor.free()
        for bins in self._indexes.values():
            for handle in bins:
                self.runtime.pim_free(handle)
        self._slices.clear()
        self._indexes.clear()
        self.pool.free_all()


class AnalyticsQuery:
    """A filtered view of one table, awaiting its aggregate."""

    def __init__(self, table: AnalyticsTable, predicates: tuple):
        self.table = table
        self.predicates = predicates

    def count(self) -> AnalyticsResult:
        """COUNT(*) of rows passing the filter."""
        return self.table._run(self.predicates, ("count",))

    def sum(self, column: str) -> AnalyticsResult:
        """SUM(column) over rows passing the filter."""
        if column not in self.table._slices:
            raise KeyError(
                f"no bit-sliced column {column!r}; loaded: "
                f"{sorted(self.table._slices)}"
            )
        return self.table._run(self.predicates, ("sum", column))

    def histogram(self, column: str) -> AnalyticsResult:
        """GROUP BY an indexed column: per-bin counts under the filter."""
        if column not in self.table._indexes:
            raise KeyError(
                f"no bitmap index {column!r}; loaded: "
                f"{sorted(self.table._indexes)}"
            )
        return self.table._run(self.predicates, ("hist", column))

    def aggregate(self, spec: tuple) -> AnalyticsResult:
        """Run an aggregate given as a spec tuple (service wire form)."""
        if spec[0] == "count":
            return self.count()
        if spec[0] == "sum":
            return self.sum(spec[1])
        if spec[0] == "hist":
            return self.histogram(spec[1])
        raise ValueError(f"unknown aggregate {spec[0]!r}")
