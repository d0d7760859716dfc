"""`ServiceClient`: the one facade for talking to a serving target.

The client builds the one request record every serving layer reads --
a :class:`~repro.service.request.QueryRequest` (``kind="subscribe"``
for a standing query), an ``AnalyticsRequest`` or an ``UpdateRequest``
-- picking its request id and arrival timestamp, and submits it; the
router, service, scheduler and engine then carry that same object by
reference.  The verbs::

    client = ServiceClient(service_or_cluster)
    client.register_tenant("alice")
    client.load_vectors("alice", {"a": bits_a, "b": bits_b})

    h = client.query("alice", "and", ("a", "b"))      # -> ResultHandle
    u = client.update("alice", "a", new_bits)
    s = client.subscribe("alice", "xor", ("a", "b"))  # -> SubscriptionHandle

    stats = client.run()
    h.result().popcount, u.done, s.notifications

The same client drives a single-node
:class:`~repro.service.service.BitmapQueryService` or a
:class:`~repro.cluster.ClusterRouter` -- anything exposing the small
``ServingTarget`` surface (``submit_request``/``run``/``results``/
``notifications`` plus tenant management).  Request ids are assigned
monotonically by the client (override with ``request_id=`` when a
workload's stream numbering is the determinism contract); arrival times
default to the latest arrival seen, so a sequence of calls without
``at=`` forms a valid non-decreasing open-loop stream.

Handles are *deferred* views: the serving layers run on a simulated
clock, so results exist only after :meth:`ServiceClient.run` drains the
event loop, which resolves every outstanding handle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.service.request import (
    AnalyticsRequest,
    DeltaNotification,
    QueryRequest,
    QueryResult,
    RequestStatus,
    UpdateRequest,
)

__all__ = ["ResultHandle", "ServiceClient", "SubscriptionHandle"]


class ResultHandle:
    """Deferred view of one submitted request's terminal result."""

    def __init__(self, request) -> None:
        self.request = request
        self._result: Optional[QueryResult] = None

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def done(self) -> bool:
        """The request reached a terminal state (completed or rejected)."""
        return self._result is not None

    @property
    def completed(self) -> bool:
        return (
            self._result is not None
            and self._result.status is RequestStatus.COMPLETED
        )

    @property
    def rejected(self) -> bool:
        return (
            self._result is not None
            and self._result.status is RequestStatus.REJECTED
        )

    def result(self) -> QueryResult:
        """The terminal :class:`QueryResult`; raises before ``run()``."""
        if self._result is None:
            raise RuntimeError(
                f"request {self.request_id} has no result yet; "
                f"ServiceClient.run() drains the event loop and resolves "
                f"handles"
            )
        return self._result

    @property
    def popcount(self) -> int:
        return self.result().popcount

    @property
    def latency_s(self) -> float:
        return self.result().latency_s

    def _resolve(self, result: QueryResult) -> None:
        self._result = result

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._result is None
            else self._result.status.value
        )
        return (
            f"{type(self).__name__}(id={self.request_id}, "
            f"tenant={self.request.tenant!r}, {state})"
        )


class SubscriptionHandle(ResultHandle):
    """Deferred view of one standing query and its pushed deltas."""

    def __init__(self, request) -> None:
        super().__init__(request)
        #: every DeltaNotification pushed to this subscription, in
        #: delivery order (seq 0 is the initial snapshot)
        self.notifications: List[DeltaNotification] = []

    @property
    def active(self) -> bool:
        """The registration's initial evaluation completed."""
        return self.completed


class ServiceClient:
    """One facade over a serving target (single node or cluster)."""

    def __init__(self, target) -> None:
        for attr in ("submit_request", "run", "results", "notifications"):
            if not hasattr(target, attr):
                raise TypeError(
                    f"target {type(target).__name__} is not a serving "
                    f"target (missing {attr!r})"
                )
        self.target = target
        self._handles: Dict[int, ResultHandle] = {}
        self._next_id = 0
        self._last_at = 0.0

    # -- tenant/data management (pass-through) -------------------------------

    def register_tenant(self, tenant: str, quota=None, **kwargs) -> None:
        """Create a tenant on the target (``**kwargs``: target extras,
        e.g. the cluster router's ``replicas=``)."""
        self.target.register_tenant(tenant, quota, **kwargs)

    def load_vectors(self, tenant: str, vectors: Dict[str, np.ndarray]) -> None:
        self.target.load_vectors(tenant, vectors)

    def load_bitmap_index(
        self, tenant: str, column: str, bin_indices: np.ndarray, n_bins: int
    ) -> None:
        self.target.load_bitmap_index(tenant, column, bin_indices, n_bins)

    def load_bitslice_column(
        self, tenant: str, column: str, values: np.ndarray, n_bits: int
    ) -> None:
        """Load a numeric column bit-sliced (``n_bits`` plane vectors)."""
        self.target.load_bitslice_column(tenant, column, values, n_bits)

    # -- the three verbs -----------------------------------------------------

    def query(
        self,
        tenant: str,
        op: str,
        vectors: Sequence[str],
        *,
        at: Optional[float] = None,
        request_id: Optional[int] = None,
        kind: str = "bitwise",
    ) -> ResultHandle:
        """Submit a bulk-bitwise query; returns its deferred handle.

        ``kind`` tags the request for stats/routing breakdowns (a range
        predicate already lowered to bin vectors keeps ``kind="range"``,
        which is also what makes it eligible for cluster scatter).
        """
        request = QueryRequest(
            self._claim_id(request_id),
            tenant,
            op,
            tuple(vectors),
            self._arrival(at),
            kind=kind,
        )
        return self._place(request, ResultHandle(request))

    def range_query(
        self,
        tenant: str,
        column: str,
        lo: int,
        hi: int,
        *,
        at: Optional[float] = None,
        request_id: Optional[int] = None,
    ) -> ResultHandle:
        """FastBit range predicate over a loaded bitmap index."""
        request = QueryRequest.range_query(
            self._claim_id(request_id), tenant, column, lo, hi, self._arrival(at)
        )
        return self._place(request, ResultHandle(request))

    def analyze(
        self,
        tenant: str,
        filters: Sequence[tuple],
        aggregate: tuple,
        *,
        at: Optional[float] = None,
        request_id: Optional[int] = None,
    ) -> ResultHandle:
        """Submit a filter+aggregate analytics query.

        ``filters`` is a conjunction of ``("cmp", column, op, value,
        n_bits)`` predicates over bit-sliced columns and
        ``("range", column, lo, hi)`` predicates over bitmap indexes;
        ``aggregate`` is ``("count",)``, ``("sum", column, n_bits)`` or
        ``("hist", column, n_bins)``.  The result's ``popcount`` is the
        filter cardinality; ``value``/``groups`` carry the aggregate.
        """
        request = AnalyticsRequest(
            self._claim_id(request_id),
            tenant,
            tuple(tuple(f) for f in filters),
            tuple(aggregate),
            self._arrival(at),
        )
        return self._place(request, ResultHandle(request))

    def update(
        self,
        tenant: str,
        vector: str,
        bits: np.ndarray,
        *,
        at: Optional[float] = None,
        request_id: Optional[int] = None,
    ) -> ResultHandle:
        """Overwrite a resident vector's contents (the write path)."""
        request = UpdateRequest(
            self._claim_id(request_id), tenant, vector, bits, self._arrival(at)
        )
        return self._place(request, ResultHandle(request))

    def subscribe(
        self,
        tenant: str,
        op: str,
        vectors: Sequence[str],
        *,
        at: Optional[float] = None,
        request_id: Optional[int] = None,
    ) -> SubscriptionHandle:
        """Register a standing query; deltas land on the handle."""
        request = QueryRequest(
            self._claim_id(request_id),
            tenant,
            op,
            tuple(vectors),
            self._arrival(at),
            kind="subscribe",
        )
        handle = SubscriptionHandle(request)
        self._place(request, handle)
        return handle

    # -- running -------------------------------------------------------------

    def run(self, **kwargs):
        """Drain the target's event loop and resolve every handle.

        Returns whatever the target's ``run()`` returns (its stats
        object); call :meth:`ServiceClient.run` again after submitting
        more work -- resolution is idempotent.
        """
        stats = self.target.run(**kwargs)
        self._resolve_handles()
        return stats

    @property
    def stats(self):
        return self.target.stats

    def _resolve_handles(self) -> None:
        for result in self.target.results:
            handle = self._handles.get(result.request.request_id)
            if handle is not None:
                handle._resolve(result)
        # rebuild notification lists from the target's delivery log so a
        # second run() stays idempotent (no duplicate appends)
        for handle in self._handles.values():
            if isinstance(handle, SubscriptionHandle):
                handle.notifications.clear()
        for note in self.target.notifications:
            handle = self._handles.get(note.subscription_id)
            if isinstance(handle, SubscriptionHandle):
                handle.notifications.append(note)

    # -- plumbing ------------------------------------------------------------

    def _claim_id(self, request_id: Optional[int]) -> int:
        if request_id is None:
            request_id = self._next_id
        elif request_id in self._handles:
            raise ValueError(f"request id {request_id} already in use")
        self._next_id = max(self._next_id, request_id + 1)
        return request_id

    def _arrival(self, at: Optional[float]) -> float:
        if at is None:
            at = self._last_at
        if at < 0:
            raise ValueError("arrival time must be non-negative")
        self._last_at = max(self._last_at, at)
        return at

    def _place(
        self,
        request: Union[QueryRequest, AnalyticsRequest, UpdateRequest],
        handle: ResultHandle,
    ) -> ResultHandle:
        self.target.submit_request(request)
        self._handles[request.request_id] = handle
        return handle
