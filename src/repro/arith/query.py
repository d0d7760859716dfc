"""One analytics query body: filters -> mask -> aggregate.

Pinatubo's bitmap-analytics path is filter gates in memory, then the
mask and its counts sent to the I/O bus.  :func:`run_query` is that
path, once, for every front end (``AnalyticsTable`` and the service
engine's ``analyze``):

- every predicate's gate chain plus the mask conjunction go out as
  **one** planner wave (``pim_op_many``), so identical sub-chains fold
  and repeats serve from the sub-result cache;
- the mask read and every aggregate popcount leave as **one** to-host
  stream (``pim_to_host_many``), one marked op each, so a recurring
  query replays one to-host program per stream shape.

Predicates are ``("cmp", column, op, K, ...)`` over a bit-sliced column
or ``("range", column, lo, hi)`` over a bitmap index; the aggregate is
``("count",)``, ``("sum", column, ...)`` or ``("hist", column, ...)``.
Trailing fields (the service wire form's bit widths) are the resolver's
business: ``resolve(spec)`` returns the resident handles a predicate or
aggregate reads -- a column's bit planes, LSB first, for ``cmp`` and
``sum``; bins ``lo..hi`` for ``range``; every bin for ``hist``.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.arith.kernels import (
    ScratchPool,
    combine_masks,
    compare_const,
    copy_plane,
    mask_read,
    masked_reads,
    plane_sum,
)

__all__ = ["AGGREGATES", "QueryOutput", "query_leaves", "run_query"]

AGGREGATES = ("count", "sum", "hist")

#: ``resolve(spec) -> handles`` (see the module docstring)
Resolver = Callable[[tuple], Sequence]


class QueryOutput(NamedTuple):
    """One interpreted query's answer."""

    popcount: int
    value: float
    groups: Optional[Tuple[int, ...]]
    #: the mask bits (uint8 0/1)
    bits: np.ndarray
    #: the scratch planes the gate wave wrote
    written: List


def run_query(
    pool: ScratchPool, filters: Sequence[tuple], aggregate: tuple,
    resolve: Resolver,
) -> QueryOutput:
    """Run one filter+aggregate query on ``pool``'s scratch."""
    kind = aggregate[0]
    if kind not in AGGREGATES:
        raise ValueError(f"unknown aggregate {kind!r}")
    runtime = pool.runtime
    with telemetry.span(
        "analytics.query", filters=len(filters), aggregate=kind
    ):
        requests: list = []
        masks = []
        for pred in filters:
            handles = resolve(pred)
            if pred[0] == "cmp":
                masks.append(
                    compare_const(pool, handles, pred[2], pred[3], requests)
                )
            elif pred[0] == "range":
                dest = pool.take()
                if len(handles) == 1:
                    requests.append(("or", dest, [handles[0], pool.zero]))
                else:
                    requests.append(("or", dest, list(handles)))
                masks.append(dest)
            else:
                raise ValueError(f"unknown predicate kind {pred[0]!r}")
        mask = (
            combine_masks(pool, masks, requests)
            if masks
            else copy_plane(pool, pool.ones, requests)
        )
        runtime.pim_op_many(requests)
        reads = [mask_read(pool, mask)]
        if kind != "count":
            reads += masked_reads(pool, resolve(aggregate), mask)
        bits, *planes = runtime.pim_to_host_many(reads)
        popcount = int(bits.sum())
        groups = None
        if kind == "count":
            value = float(popcount)
        elif kind == "sum":
            value = float(plane_sum(plane.sum() for plane in planes))
        else:
            groups = tuple(int(plane.sum()) for plane in planes)
            value = float(sum(groups))
    return QueryOutput(popcount, value, groups, bits, [req[1] for req in requests])


def query_leaves(
    pool: ScratchPool, filters: Sequence[tuple], aggregate: tuple,
    resolve: Resolver,
) -> list:
    """Every resident handle one query reads: its columns, bins and the
    pool's constants."""
    handles = [h for pred in filters for h in resolve(pred)]
    if aggregate[0] != "count":
        handles.extend(resolve(aggregate))
    return handles + pool.constants
