"""Request/response model of the bitmap-query service.

A :class:`QueryRequest` is one tenant-issued bulk-bitwise query over
*named* bit-vectors the tenant loaded beforehand: a plain bitwise op
(OR/AND/XOR/INV over data vectors) or a FastBit-style range query, which
lowers to a wide OR over the covered bins' bitmap vectors (exactly how
:mod:`repro.apps.fastbit` evaluates range predicates).  The same
record with ``kind="subscribe"`` registers a standing query.
:class:`AnalyticsRequest` (filter + aggregate) and
:class:`UpdateRequest` (an overwrite) complete the set.  Each is the one
record the client builds; the router, service, scheduler and engine all
read it by reference.

A :class:`QueryResult` records what happened to the request on the
simulated timeline: admission outcome, queueing delay, simulated service
time, energy, and the result popcount (plus the raw bits when the
service is configured to keep them, which the parity tests use).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.core.ops import PimOp

__all__ = [
    "AnalyticsRequest",
    "DeltaNotification",
    "QueryRequest",
    "QueryResult",
    "RequestStatus",
    "UpdateRequest",
    "bin_vector_name",
    "bitslice_vector_name",
    "spec_vector_names",
]


class RequestStatus(enum.Enum):
    """Terminal state of one request."""

    COMPLETED = "completed"
    REJECTED = "rejected"


@dataclass(frozen=True)
class QueryRequest:
    """One bulk-bitwise query from one tenant.

    ``kind="subscribe"`` registers the query as a standing query
    instead: once admitted (subscription fan-out is metered per tenant)
    its first evaluation rides a normal coalesced batch, after which
    every batched update touching its input vectors re-evaluates it in
    the same dispatch and pushes a :class:`DeltaNotification` through
    the event loop.
    """

    request_id: int
    tenant: str
    op: str  # "or" / "and" / "xor" / "inv"
    vectors: Tuple[str, ...]  # named bit-vectors of the tenant's dataset
    arrival_s: float  # open-loop arrival time on the simulated clock
    #: "bitwise" | "range" (a lowered FastBit predicate; scatter-eligible
    #: on a cluster) | "subscribe" (a standing query)
    kind: str = "bitwise"

    def __post_init__(self) -> None:
        op = PimOp.parse(self.op).value
        object.__setattr__(self, "op", op)
        if not self.tenant:
            raise ValueError("request needs a tenant")
        if not self.vectors:
            raise ValueError("request needs at least one vector")
        if op == "inv" and len(self.vectors) != 1:
            raise ValueError("inv takes exactly one vector")
        if op != "inv" and len(self.vectors) < 2:
            raise ValueError(f"{op} needs at least two vectors")
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")

    @classmethod
    def bitwise(
        cls, request_id: int, tenant: str, op: str, vectors, arrival_s: float
    ) -> "QueryRequest":
        return cls(request_id, tenant, op, tuple(vectors), arrival_s)

    @classmethod
    def range_query(
        cls,
        request_id: int,
        tenant: str,
        column: str,
        lo: int,
        hi: int,
        arrival_s: float,
    ) -> "QueryRequest":
        """FastBit range predicate: OR over bins ``[lo, hi]`` of a column.

        Bin bitmap vectors are named ``{column}/bin{b}`` by
        ``BitmapQueryService.load_bitmap_index``.
        """
        if lo > hi:
            raise ValueError(f"empty bin range on {column}: [{lo}, {hi}]")
        bins = tuple(bin_vector_name(column, b) for b in range(lo, hi + 1))
        if len(bins) == 1:  # single-bin range: read-through OR with itself
            bins = bins * 2
        return cls(request_id, tenant, "or", bins, arrival_s, kind="range")

    @property
    def fanin(self) -> int:
        return len(self.vectors)


def bin_vector_name(column: str, bin_index: int) -> str:
    """Canonical vector name of one bitmap-index bin."""
    return f"{column}/bin{bin_index}"


def bitslice_vector_name(column: str, plane: int) -> str:
    """Canonical vector name of one bit-slice plane of a numeric column.

    ``BitmapQueryService.load_bitslice_column`` loads plane ``j`` of
    column ``c`` as the ordinary named vector ``c#b{j}``, so the
    arithmetic path rides the existing replication / rebalance /
    update machinery for free.
    """
    return f"{column}#b{plane}"


def spec_vector_names(spec) -> List[str]:
    """The resident vectors one analytics filter or aggregate reads.

    A ``("cmp", column, op, value, n_bits)`` filter and a ``("sum",
    column, n_bits)`` aggregate read the column's bit-slice planes
    ``0..n_bits-1``; a ``("range", column, lo, hi)`` filter reads its
    bins ``lo..hi`` and a ``("hist", column, n_bins)`` aggregate bins
    ``0..n_bins-1``; ``("count",)`` reads nothing.
    """
    kind = spec[0]
    if kind == "cmp" or kind == "sum":
        return [bitslice_vector_name(spec[1], j) for j in range(spec[-1])]
    if kind == "range":
        return [bin_vector_name(spec[1], b) for b in range(spec[2], spec[3] + 1)]
    if kind == "hist":
        return [bin_vector_name(spec[1], b) for b in range(spec[2])]
    return []


@lru_cache(maxsize=4096)
def _read_set(shape: tuple) -> Tuple[str, ...]:
    """Every vector the specs of ``shape`` read, in first-use order.

    Memoized on the specs with each cmp constant dropped (it names no
    vector), so the analytics requests of a stream share one tuple per
    distinct read set instead of holding one each.
    """
    return tuple(dict.fromkeys(
        name for spec in shape for name in spec_vector_names(spec)
    ))


_AGGREGATES = ("count", "sum", "hist")


@dataclass(frozen=True)
class AnalyticsRequest:
    """One SQL-ish filter+aggregate query over a tenant's columns.

    ``filters`` is a conjunction of predicate tuples:

    - ``("cmp", column, op, value, n_bits)`` -- bit-serial compare of a
      bit-sliced numeric column against a constant (``op`` in
      ``lt | le | gt | ge | eq``; the column was loaded as ``n_bits``
      planes via ``load_bitslice_column``);
    - ``("range", column, lo, hi)`` -- FastBit range predicate over an
      equality-encoded bitmap index (bins ``lo..hi`` inclusive).

    ``aggregate`` is one of ``("count",)``, ``("sum", column, n_bits)``
    (bit-sliced column) or ``("hist", column, n_bins)`` (indexed
    column).  The result's ``popcount`` is the filter cardinality;
    ``value``/``groups`` carry the aggregate.
    """

    request_id: int
    tenant: str
    filters: Tuple[tuple, ...]
    aggregate: tuple
    arrival_s: float
    kind: str = "analytics"
    #: every resident vector the query reads, in first-use order
    #: (validation surface and scratch width); derived from ``filters``
    #: and ``aggregate`` here, so ``dataclasses.replace`` re-derives it
    vectors: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("analytics request needs a tenant")
        filters = tuple(tuple(f) for f in self.filters)
        aggregate = tuple(self.aggregate)
        object.__setattr__(self, "filters", filters)
        object.__setattr__(self, "aggregate", aggregate)
        for pred in self.filters:
            if not pred or pred[0] not in ("cmp", "range"):
                raise ValueError(f"malformed predicate {pred!r}")
            if pred[0] == "cmp":
                if len(pred) != 5:
                    raise ValueError(
                        f"cmp predicate needs (cmp, column, op, value, "
                        f"n_bits), got {pred!r}"
                    )
                if pred[2] not in ("lt", "le", "gt", "ge", "eq"):
                    raise ValueError(f"unknown comparison {pred[2]!r}")
                if pred[4] < 1:
                    raise ValueError("cmp predicate needs n_bits >= 1")
            else:
                if len(pred) != 4:
                    raise ValueError(
                        f"range predicate needs (range, column, lo, hi), "
                        f"got {pred!r}"
                    )
                if not 0 <= pred[2] <= pred[3]:
                    raise ValueError(
                        f"empty bin range on {pred[1]}: [{pred[2]}, {pred[3]}]"
                    )
        if not self.aggregate or self.aggregate[0] not in _AGGREGATES:
            raise ValueError(
                f"unknown aggregate {self.aggregate!r}; supported: "
                f"{_AGGREGATES}"
            )
        if self.aggregate[0] in ("sum", "hist") and (
            len(self.aggregate) != 3 or self.aggregate[2] < 1
        ):
            raise ValueError(
                f"{self.aggregate[0]} aggregate needs (kind, column, "
                f"width), got {self.aggregate!r}"
            )
        if not self.filters and self.aggregate[0] == "count":
            raise ValueError(
                "an unfiltered count references no vectors; add a filter "
                "or aggregate over a column"
            )
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        object.__setattr__(self, "vectors", _read_set(tuple(
            pred[:3] + pred[4:] if pred[0] == "cmp" else pred
            for pred in filters
        ) + (aggregate,)))

    # QueryResult.to_dict / admission duck-typing
    @property
    def op(self) -> str:
        return "analyze"

    @property
    def fanin(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True, eq=False)
class UpdateRequest:
    """One tenant-issued overwrite of a resident vector's contents.

    Rides the same admission pipeline and coalesced batches as reads;
    executing it funnels through ``PimRuntime.pim_write``, whose delta
    listener repairs (or drops) every cached sub-result reading the
    vector's rows -- the service-level face of the write path.
    ``eq=False``: identity comparison (the payload is an ndarray).
    """

    request_id: int
    tenant: str
    vector: str  # resident vector to overwrite
    bits: np.ndarray  # full new contents
    arrival_s: float
    kind: str = "update"
    #: replica fan-in copy issued by the cluster router, not a tenant:
    #: skips node-level rate admission (the user-facing write already
    #: passed it on the primary) so replicas cannot diverge
    internal: bool = False

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("update needs a tenant")
        if not self.vector:
            raise ValueError("update needs a vector name")
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        object.__setattr__(
            self, "bits", np.asarray(self.bits, dtype=np.uint8)
        )

    # QueryResult.to_dict duck-typing
    @property
    def op(self) -> str:
        return "write"

    @property
    def vectors(self) -> Tuple[str, ...]:
        return (self.vector,)


@dataclass
class DeltaNotification:
    """One pushed re-evaluation of a standing query.

    ``changed_bits`` is the popcount of ``old XOR new`` over the
    standing query's result -- the delta the subscriber actually sees,
    not the whole bitmap.
    """

    subscription_id: int  # the subscribe request's request_id
    tenant: str
    seq: int  # per-subscription sequence number (0 = initial snapshot)
    emitted_s: float  # completion time on the simulated clock
    popcount: int  # result popcount after re-evaluation
    changed_bits: int  # popcount(old XOR new); 0 for the snapshot
    triggered_by: Tuple[int, ...] = ()  # update request_ids in the batch

    def to_dict(self) -> dict:
        return {
            "subscription_id": self.subscription_id,
            "tenant": self.tenant,
            "seq": self.seq,
            "emitted_s": self.emitted_s,
            "popcount": self.popcount,
            "changed_bits": self.changed_bits,
            "triggered_by": list(self.triggered_by),
        }


@dataclass
class QueryResult:
    """Terminal record of one request on the simulated timeline."""

    request: QueryRequest
    status: RequestStatus
    popcount: int = 0
    dispatched_s: float = 0.0  # when the scheduler issued it
    completed_s: float = 0.0  # when its shard finished it
    service_s: float = 0.0  # simulated execution time of this request alone
    energy_j: float = 0.0
    batch_id: int = -1  # command-stream batch it rode in (-1: never ran)
    reject_reason: str = ""
    #: analytics aggregate: scalar value (count / masked sum / histogram
    #: total); 0.0 for plain bitwise reads
    value: float = 0.0
    #: analytics histogram aggregate: per-bin counts; None otherwise
    groups: Optional[Tuple[int, ...]] = None
    bits: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion simulated latency (0 for rejects)."""
        if self.status is not RequestStatus.COMPLETED:
            return 0.0
        return self.completed_s - self.request.arrival_s

    @property
    def queue_delay_s(self) -> float:
        """Time spent admitted-but-undispatched (includes pacing delay)."""
        if self.status is not RequestStatus.COMPLETED:
            return 0.0
        return self.dispatched_s - self.request.arrival_s

    def to_dict(self) -> dict:
        return {
            "request_id": self.request.request_id,
            "tenant": self.request.tenant,
            "op": self.request.op,
            "kind": self.request.kind,
            "status": self.status.value,
            "popcount": self.popcount,
            "arrival_s": self.request.arrival_s,
            "latency_s": self.latency_s,
            "queue_delay_s": self.queue_delay_s,
            "service_s": self.service_s,
            "energy_j": self.energy_j,
            "batch_id": self.batch_id,
            "reject_reason": self.reject_reason,
            "value": self.value,
            "groups": None if self.groups is None else list(self.groups),
        }
