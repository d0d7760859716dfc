"""`BitmapQueryService`: the concurrent multi-tenant serving layer.

Request lifecycle (all timestamps on the deterministic simulated clock)::

    submit_request() ──> arrival event ──> admission ──┬─> tenant queue ──┐
                                                       ├─> paced (DELAY) ─┘
                                                       └─> REJECTED
    server idle + queues non-empty ──> scheduler.collect (round-robin,
        cross-tenant) ──> engine.execute (ONE driver command batch) ──>
        shard-aware pricing ──> completion event ──> results + stats

The service is single-"server" by design: one memory system executes one
coalesced command stream at a time, and concurrency comes from *inside*
the batch (requests on different (channel, bank) shards overlap).  That
is exactly the Pinatubo serving argument: throughput scales with how
densely the scheduler packs independent in-memory operations, not with
host-side threads.

Telemetry: always-live counters under ``service.*`` plus a
``service.scheduler.dispatch`` span per batch carrying the attributed
simulated makespan/energy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.backends.config import SystemConfig
from repro.service.admission import (
    AdmissionController,
    Admit,
    TenantQuota,
)
from repro.service.clock import EventLoop
from repro.service.engine import (
    ServiceEngine,
    build_engine,
    oracle_analytics,
    oracle_bits,
)
from repro.service.request import (
    DeltaNotification,
    QueryRequest,
    QueryResult,
    RequestStatus,
    bin_vector_name,
    bitslice_vector_name,
)
from repro.service.scheduler import CoalescingScheduler
from repro.service.stats import ServiceStats

__all__ = ["BitmapQueryService", "ServiceConfig", "StandingQuery", "check_results"]

# always-live instruments (cheap integer adds; survive telemetry.reset())
_SUBMITTED = telemetry.counter("service.requests.submitted")
_COMPLETED = telemetry.counter("service.requests.completed")
_REJECTED = telemetry.counter("service.requests.rejected")
_DELAYED = telemetry.counter("service.requests.delayed")
_UPDATES = telemetry.counter("service.requests.updates")
_SUBSCRIBED = telemetry.counter("service.subscriptions.registered")
_NOTIFICATIONS = telemetry.counter("service.subscriptions.notifications")
_BATCHES = telemetry.counter("service.scheduler.batches")
_COALESCED = telemetry.counter("service.scheduler.coalesced_requests")
_QUEUE_DEPTH = telemetry.gauge("service.scheduler.queue_depth")
_BATCH_SIZE = telemetry.gauge("service.scheduler.batch_size")


@dataclass
class StandingQuery:
    """Service-side state of one registered subscription.

    Created at admission; ``active`` flips once the initial evaluation
    (which rides a normal coalesced batch) completes.  ``bits`` is the
    last pushed result -- what the next refresh diffs against to compute
    ``changed_bits``.
    """

    request: QueryRequest  # kind == "subscribe"
    active: bool = False
    seq: int = 0
    popcount: int = 0
    bits: Optional[np.ndarray] = field(default=None, repr=False)


@dataclass(frozen=True)
class ServiceConfig:
    """Declarative description of one service instance."""

    #: the execution substrate (any registered backend); the default
    #: places tenants bank-spread so their batches overlap across shards
    system: SystemConfig = field(
        default_factory=lambda: SystemConfig(
            backend="pinatubo", placement="bank_spread"
        )
    )
    #: requests coalesced per dispatch (1 = no-batching baseline)
    max_batch: int = 16
    #: per-dispatch command-stream issue cost (s)
    dispatch_overhead_s: float = 1e-6
    #: quota applied to tenants registered without an explicit one
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: keep per-request result bits on the QueryResult (parity tests;
    #: off by default to bound memory under load)
    keep_bits: bool = False
    #: assumed shard count for host-side engines (the functional
    #: pinatubo engine derives shards from real placement instead)
    host_shards: int = 1

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.dispatch_overhead_s < 0:
            raise ValueError("dispatch_overhead_s must be non-negative")
        if self.host_shards < 1:
            raise ValueError("host_shards must be >= 1")


class BitmapQueryService:
    """Multi-tenant bulk-bitwise query service over one backend."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        engine: Optional[ServiceEngine] = None,
        loop: Optional[EventLoop] = None,
    ):
        self.config = config or ServiceConfig()
        self.engine = engine or build_engine(
            self.config.system, host_shards=self.config.host_shards
        )
        #: the simulated timeline; injectable so N node services can
        #: share one deterministic clock (the cluster layer does this)
        self.loop = loop or EventLoop()
        #: optional completion hooks (the cluster router's gather path);
        #: called synchronously when a result/notification is recorded
        self.on_result: Optional[Callable[[QueryResult], None]] = None
        self.on_notification: Optional[
            Callable[[DeltaNotification], None]
        ] = None
        self.admission = AdmissionController()
        self.scheduler = CoalescingScheduler(self.config, self.engine)
        self.stats = ServiceStats()
        self.results: List[QueryResult] = []
        self.notifications: List[DeltaNotification] = []
        self._queues: Dict[str, Deque[QueryRequest]] = {}
        self._paced: Dict[str, int] = {}  # tenant -> in-flight DELAY count
        self._standing: Dict[int, StandingQuery] = {}  # insertion-ordered
        self._busy = False
        self._batch_id = 0
        self._submitted = 0
        self._n_subscribes = 0

    # -- tenant/data management ----------------------------------------------

    def register_tenant(
        self, tenant: str, quota: Optional[TenantQuota] = None
    ) -> None:
        """Create a tenant: its quota, queue, and placement group."""
        self.admission.register(tenant, quota or self.config.default_quota)
        self._queues[tenant] = deque()
        self._paced[tenant] = 0

    @property
    def tenants(self) -> List[str]:
        return list(self._queues)

    def load_vectors(self, tenant: str, vectors: Dict[str, np.ndarray]) -> None:
        """Load named bit-vectors into the tenant's resident dataset."""
        self._check_tenant(tenant)
        for name, bits in vectors.items():
            self.engine.load_vector(tenant, name, bits)

    def load_bitmap_index(
        self, tenant: str, column: str, bin_indices: np.ndarray, n_bins: int
    ) -> None:
        """Load a FastBit-style equality-encoded bitmap index.

        One bit-vector per bin (``{column}/bin{b}``); range queries OR
        the covered bins (:meth:`QueryRequest.range_query`).
        """
        self._check_tenant(tenant)
        bin_indices = np.asarray(bin_indices)
        if bin_indices.ndim != 1:
            raise ValueError("bin indices must be 1-D")
        if bin_indices.size and int(bin_indices.max()) >= n_bins:
            raise ValueError("bin index out of range")
        events = np.arange(bin_indices.size)
        for b in range(n_bins):
            bitmap = np.zeros(bin_indices.size, dtype=np.uint8)
            bitmap[events[bin_indices == b]] = 1
            self.engine.load_vector(tenant, bin_vector_name(column, b), bitmap)

    def load_bitslice_column(
        self, tenant: str, column: str, values: np.ndarray, n_bits: int
    ) -> None:
        """Load a numeric column in the transposed bit-slice layout.

        Plane ``j`` lands as the ordinary named vector ``{column}#b{j}``
        (see :func:`repro.service.request.bitslice_vector_name`), so
        replication, rebalance and updates treat arithmetic columns like
        any other vectors.  Analytics requests compare against constants
        with bit-serial borrow chains over these planes.
        """
        self._check_tenant(tenant)
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise ValueError("column values must be 1-D")
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if values.size and (
            values.min() < 0 or values.max() >= (1 << n_bits)
        ):
            raise ValueError(
                f"column {column!r} values out of range for {n_bits}-bit "
                f"unsigned integers"
            )
        for j in range(n_bits):
            plane = ((values >> j) & 1).astype(np.uint8)
            self.engine.load_vector(
                tenant, bitslice_vector_name(column, j), plane
            )

    def _check_tenant(self, tenant: str) -> None:
        if tenant not in self._queues:
            raise KeyError(
                f"unknown tenant {tenant!r}; registered: {self.tenants}"
            )

    def deregister_tenant(self, tenant: str) -> int:
        """Remove an idle tenant and free its resident vectors.

        The decommission half of cluster rebalancing: the tenant must be
        quiescent (empty queue, no pacing in flight) -- moving live work
        between nodes would break the deterministic timeline.  Standing
        queries are dropped (subscribers re-subscribe on the new owner).
        Returns the number of vectors unloaded.
        """
        self._check_tenant(tenant)
        if self._queues[tenant] or self._paced[tenant]:
            raise RuntimeError(
                f"tenant {tenant!r} still has queued or paced requests; "
                f"drain the loop before deregistering"
            )
        for sub_id in [
            sub_id
            for sub_id, sq in self._standing.items()
            if sq.request.tenant == tenant
        ]:
            del self._standing[sub_id]
        del self._queues[tenant]
        del self._paced[tenant]
        self.admission.deregister(tenant)
        return self.engine.unload_tenant(tenant)

    # -- submission ----------------------------------------------------------

    def submit_request(self, request) -> None:
        """Validate a request and schedule its arrival on the clock.

        Accepts every request record -- a :class:`QueryRequest` (a read,
        or a standing query when ``kind == "subscribe"``), an
        :class:`AnalyticsRequest` and an :class:`UpdateRequest` -- which
        share one admission pipeline and ride the same coalesced
        batches.  The record itself is what the scheduler queues and the
        engine executes.
        Validation errors (unknown tenant/vector, op the backend cannot
        serve, size-mismatched update payload) raise immediately -- they
        are caller bugs, not load; the admission pipeline only ever sees
        servable requests.

        Prefer the :class:`repro.service.api.ServiceClient` facade,
        which constructs the request objects for you; this is the
        typed-request entrypoint the facade itself drives.
        """
        self._check_tenant(request.tenant)
        if request.kind == "update":
            if not self.engine.has_vector(request.tenant, request.vector):
                raise KeyError(
                    f"tenant {request.tenant!r} has no vector "
                    f"{request.vector!r}"
                )
            loaded = self.engine.host_vector(request.tenant, request.vector)
            if request.bits.size != loaded.size:
                raise ValueError(
                    f"update size {request.bits.size} != loaded size "
                    f"{loaded.size} for {request.vector!r}"
                )
        else:
            # "analyze" is a kernel sequence, not a backend op: it skips
            # check_op, but every referenced plane/bin must be loaded
            if request.kind != "analytics":
                self.engine.check_op(request.op)
            for name in request.vectors:
                if not self.engine.has_vector(request.tenant, name):
                    raise KeyError(
                        f"tenant {request.tenant!r} has no vector {name!r}"
                    )
            if request.kind == "subscribe":
                self._n_subscribes += 1
        self._submitted += 1
        self.loop.schedule(request.arrival_s, lambda: self._on_arrival(request))

    def submit_many(self, requests) -> int:
        count = 0
        for request in requests:
            self.submit_request(request)
            count += 1
        return count

    # -- event handlers ------------------------------------------------------

    def _on_arrival(self, request) -> None:
        tenant = request.tenant
        now = self.loop.now
        if getattr(request, "internal", False):
            # cluster replica fan-in: admission already ran on the
            # primary; the copy is counted as node load but never
            # re-metered (a replica rejecting its copy would diverge)
            self.stats.submitted += 1
            self.stats.tenant(tenant).submitted += 1
            _SUBMITTED.add()
            self._enqueue(request)
            return
        pending = len(self._queues[tenant]) + self._paced[tenant]
        if request.kind == "subscribe":
            # fan-out metering: every write re-evaluates each standing
            # query reading it, so registrations are bounded per tenant
            active = sum(
                1
                for sq in self._standing.values()
                if sq.request.tenant == tenant
            )
            decision = self.admission.decide_subscribe(
                tenant, now, pending, active
            )
        else:
            decision = self.admission.decide(tenant, now, pending)
        self.stats.submitted += 1
        self.stats.tenant(tenant).submitted += 1
        _SUBMITTED.add()
        if decision.outcome is Admit.REJECT:
            self._record_reject(request, decision.reason)
            return
        if request.kind == "subscribe":
            self._standing[request.request_id] = StandingQuery(request)
            self.stats.subscriptions += 1
            self.stats.tenant(tenant).subscriptions += 1
            _SUBSCRIBED.add()
        if decision.outcome is Admit.DELAY:
            self._paced[tenant] += 1
            self.stats.delayed += 1
            self.stats.tenant(tenant).delayed += 1
            _DELAYED.add()
            self.loop.schedule(
                decision.retry_at_s, lambda: self._on_paced_ready(request)
            )
            return
        self._enqueue(request)

    def _on_paced_ready(self, request: QueryRequest) -> None:
        self._paced[request.tenant] -= 1
        self._enqueue(request)

    def _enqueue(self, request: QueryRequest) -> None:
        self._queues[request.tenant].append(request)
        _QUEUE_DEPTH.set(sum(len(q) for q in self._queues.values()))
        self._maybe_dispatch()

    def _maybe_dispatch(self) -> None:
        if self._busy or not any(self._queues.values()):
            return
        with telemetry.span("service.scheduler.dispatch") as sp:
            batch, executed, pricing = self.scheduler.dispatch(self._queues)
            now = self.loop.now
            # standing-query refreshes ride this same dispatch: the
            # batch's updates (executed first, see scheduler.dispatch)
            # re-evaluate every *previously active* subscription reading
            # a rewritten vector, and the combined work is priced as one
            # batch -- shared dispatch overhead, shard-serialised
            updates = [r for r in batch if r.kind == "update"]
            affected: List[StandingQuery] = []
            triggers: List[tuple] = []
            if updates:
                for sq in self._standing.values():
                    if not sq.active:
                        continue
                    ids = tuple(
                        u.request_id
                        for u in updates
                        if u.tenant == sq.request.tenant
                        and u.vector in sq.request.vectors
                    )
                    if ids:
                        affected.append(sq)
                        triggers.append(ids)
            refreshes = [sq.request for sq in affected]
            refreshed = self.scheduler.execute_calls(refreshes)
            if refreshed:
                pricing = self.scheduler.price(
                    batch + refreshes, executed + refreshed
                )
            self._busy = True
            self._batch_id += 1
            batch_id = self._batch_id
            self.stats.batches += 1
            self.stats.busy_s += pricing.makespan_s
            self.stats.first_dispatch_s = min(self.stats.first_dispatch_s, now)
            if len(batch) > 1:
                self.stats.coalesced_requests += len(batch)
                _COALESCED.add(len(batch))
            _BATCHES.add()
            _BATCH_SIZE.set(len(batch))
            _QUEUE_DEPTH.set(sum(len(q) for q in self._queues.values()))
            sp.add(
                latency_s=pricing.makespan_s,
                energy_j=pricing.energy_j,
                requests=len(batch),
                refreshes=len(refreshed),
            )
            results = []
            for request, call, offset in zip(
                batch, executed, pricing.completion_offsets
            ):
                keep = self.config.keep_bits and request.kind != "update"
                results.append(
                    QueryResult(
                        request=request,
                        status=RequestStatus.COMPLETED,
                        popcount=call.popcount,
                        dispatched_s=now,
                        completed_s=now + offset,
                        service_s=call.latency_s,
                        energy_j=call.energy_j,
                        batch_id=batch_id,
                        value=call.value,
                        groups=call.groups,
                        bits=call.bits if keep else None,
                    )
                )
                if request.kind == "subscribe":
                    # initial evaluation done: activate and push the
                    # seq-0 snapshot notification at its completion time
                    sq = self._standing[request.request_id]
                    sq.active = True
                    sq.bits = call.bits.copy()
                    sq.popcount = call.popcount
                    self._push_notification(
                        DeltaNotification(
                            subscription_id=request.request_id,
                            tenant=request.tenant,
                            seq=0,
                            emitted_s=now + offset,
                            popcount=call.popcount,
                            changed_bits=0,
                        )
                    )
            refresh_offsets = pricing.completion_offsets[len(batch):]
            for sq, ids, call, offset in zip(
                affected, triggers, refreshed, refresh_offsets
            ):
                changed = int(np.count_nonzero(sq.bits != call.bits))
                sq.seq += 1
                sq.bits = call.bits.copy()
                sq.popcount = call.popcount
                # the refresh's simulated cost is real batched work,
                # attributed to the subscribing tenant
                tstats = self.stats.tenant(sq.request.tenant)
                self.stats.energy_j += call.energy_j
                tstats.energy_j += call.energy_j
                tstats.service_s += call.latency_s
                self._push_notification(
                    DeltaNotification(
                        subscription_id=sq.request.request_id,
                        tenant=sq.request.tenant,
                        seq=sq.seq,
                        emitted_s=now + offset,
                        popcount=call.popcount,
                        changed_bits=changed,
                        triggered_by=ids,
                    )
                )
            self.loop.schedule(
                now + pricing.makespan_s,
                lambda: self._on_batch_done(results),
            )

    def _push_notification(self, note: DeltaNotification) -> None:
        """Deliver a notification through the event loop at its time."""
        self.loop.schedule(
            note.emitted_s, lambda: self._on_notification(note)
        )

    def _on_notification(self, note: DeltaNotification) -> None:
        self.notifications.append(note)
        self.stats.notifications += 1
        self.stats.tenant(note.tenant).notifications += 1
        _NOTIFICATIONS.add()
        if self.on_notification is not None:
            self.on_notification(note)

    def _on_batch_done(self, results: List[QueryResult]) -> None:
        for result in results:
            self._record_completion(result)
        self._busy = False
        self._maybe_dispatch()

    # -- recording -----------------------------------------------------------

    def _record_reject(self, request: QueryRequest, reason: str) -> None:
        result = QueryResult(
            request=request,
            status=RequestStatus.REJECTED,
            completed_s=self.loop.now,
            reject_reason=reason,
        )
        self.results.append(result)
        self.stats.rejected += 1
        self.stats.tenant(request.tenant).rejected += 1
        _REJECTED.add()
        if self.on_result is not None:
            self.on_result(result)

    def _record_completion(self, result: QueryResult) -> None:
        self.results.append(result)
        tenant = self.stats.tenant(result.request.tenant)
        self.stats.completed += 1
        tenant.completed += 1
        if result.request.kind == "update":
            self.stats.updates += 1
            tenant.updates += 1
            _UPDATES.add()
        self.stats.energy_j += result.energy_j
        tenant.energy_j += result.energy_j
        tenant.service_s += result.service_s
        self.stats.latency.record(result.latency_s)
        tenant.latency.record(result.latency_s)
        self.stats.last_completion_s = max(
            self.stats.last_completion_s, result.completed_s
        )
        _COMPLETED.add()
        if self.on_result is not None:
            self.on_result(result)

    # -- running -------------------------------------------------------------

    def event_budget(self) -> int:
        """Default livelock guard: linear in the submitted request count.

        A cluster router sharing one loop across N nodes sums the
        per-node budgets to bound the combined drain.
        """
        # per request: arrival + paced retry + batch completion share,
        # with headroom; single-request batches are the worst case
        budget = 4 * self._submitted + 64
        if self._n_subscribes:
            # each dispatch can push one notification per standing
            # query (plus one snapshot each); still a bounded guard
            budget += self._n_subscribes * (self._submitted + 1)
        return budget

    def finalize(self) -> ServiceStats:
        """Post-drain bookkeeping: in-flight check + wear publication.

        Split out of :meth:`run` so a cluster router that drains the
        *shared* loop once can still finalize each node service.
        """
        if self._busy:
            raise RuntimeError("event loop drained while a batch was in flight")
        monitor = self.engine.wear_monitor()
        if monitor is not None:
            monitor.publish()
        return self.stats

    def run(self, max_events: Optional[int] = None) -> ServiceStats:
        """Drain the event loop to completion; returns the stats.

        ``max_events`` defaults to a budget linear in the submitted
        request count, so a scheduling bug deadlocks the test, not the
        machine.
        """
        if max_events is None:
            max_events = self.event_budget()
        self.loop.run(max_events=max_events)
        return self.finalize()

    # -- verification --------------------------------------------------------

    def oracle_popcount(self, request: QueryRequest) -> int:
        """Numpy-oracle popcount for a request (parity checks)."""
        return int(
            oracle_bits(
                self.engine, request.tenant, request.op, request.vectors
            ).sum()
        )

    def standing_query(self, subscription_id: int) -> StandingQuery:
        """Look up a registered standing query by its request id."""
        return self._standing[subscription_id]

    def verify_results(self) -> int:
        """Check every completed *read* result against the numpy oracle
        (see :func:`check_results`); returns the number checked."""
        return check_results(self.results, lambda tenant: self.engine)


def check_results(results, engine_of: Callable[[str], ServiceEngine]) -> int:
    """Assert every completed *read* result matches the numpy oracle.

    ``engine_of(tenant)`` is an engine holding the tenant's host
    shadows.  Returns the number of results checked.  A plain read's
    popcount is compared, and its bits when the result kept them
    (``keep_bits``); an analytics read's popcount, value and groups,
    and its mask bits when kept.  Updates and subscription
    registrations are skipped: the oracle reads the *final* host
    shadows, which only reflect a read's inputs when no later update
    rewrote them -- workloads mixing reads and writes verify against a
    live mirror instead (see the repair bench and tests).
    """
    checked = 0
    for result in results:
        request = result.request
        if (
            result.status is not RequestStatus.COMPLETED
            or request.kind in ("update", "subscribe")
        ):
            continue
        engine = engine_of(request.tenant)
        if request.kind == "analytics":
            expected, value, groups = oracle_analytics(
                engine, request.tenant, request.filters, request.aggregate
            )
            if (
                result.popcount != int(expected.sum())
                or result.value != value
                or result.groups != groups
            ):
                raise AssertionError(
                    f"analytics request {request.request_id}: "
                    f"got (popcount={result.popcount}, "
                    f"value={result.value}, groups={result.groups}), "
                    f"oracle ({int(expected.sum())}, {value}, {groups})"
                )
        else:
            expected = oracle_bits(
                engine, request.tenant, request.op, request.vectors
            )
            if result.popcount != int(expected.sum()):
                raise AssertionError(
                    f"request {request.request_id}: popcount "
                    f"{result.popcount} != oracle {int(expected.sum())}"
                )
        if result.bits is not None and not np.array_equal(
            result.bits, expected
        ):
            raise AssertionError(
                f"request {request.request_id}: bits differ from the "
                f"numpy oracle"
            )
        checked += 1
    return checked
