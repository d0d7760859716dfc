"""`ClusterRouter`: scatter/gather front door over N service nodes.

Each node is a full :class:`~repro.service.service.BitmapQueryService`
-- its own ``PimRuntime``/engine, admission controller, coalescing
scheduler, plan cache, stats -- and every node shares ONE deterministic
:class:`~repro.service.clock.EventLoop`.  The router owns placement
(consistent hashing or a range-index table, see
:mod:`repro.cluster.placement`) and forwards each user request to the
owning node(s):

- **reads** go to one replica, chosen round-robin per tenant; wide
  range queries over replicated tenants *scatter*: the bin list splits
  into contiguous chunks, one per replica, and the router gathers the
  partial popcounts (equality-encoded bins are disjoint, so the gather
  is a sum; kept bits OR together);
- **updates** fan in to every replica: the user-visible result is the
  primary's, and the copies sent to secondaries are ``internal`` --
  they skip node-level rate admission (the write already passed it on
  the primary) so replicas cannot diverge;
- **subscriptions** live on the primary only.

A 1-node cluster is a pure pass-through: the router forwards the very
request objects to the single node in submission order on the shared
loop, so results, per-tenant stats, and ``service.*`` telemetry are
byte-identical to a standalone ``BitmapQueryService`` -- the
equivalence that makes this refactor safe (and that the cluster tests
pin).

Node join/leave (:meth:`ClusterRouter.add_node` /
:meth:`ClusterRouter.remove_node`) rebalances deterministically: for
each tenant in registration order, the new owner set is computed from
placement, vector sets are copied from a surviving owner's host
shadows, and old owners deregister.  Membership changes require a
drained loop -- moving live work between nodes would fork the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro import telemetry
from repro.cluster.placement import make_placement
from repro.cluster.stats import ClusterStats
from repro.service.admission import TenantQuota
from repro.service.clock import EventLoop
from repro.service.request import (
    DeltaNotification,
    QueryRequest,
    QueryResult,
    RequestStatus,
    UpdateRequest,
)
from repro.service.service import (
    BitmapQueryService,
    ServiceConfig,
    check_results,
)

__all__ = ["ClusterConfig", "ClusterNode", "ClusterRouter"]

#: router-synthesised request ids (scatter parts, replica write copies)
#: start far above any plausible user id so streams never collide
_INTERNAL_ID_BASE = 1 << 40

# always-live cluster instruments; additive-only so the 1-node
# equivalence tests can strip the ``cluster.*`` prefix and compare the
# remaining ``service.*`` counters byte-for-byte
_C_ROUTED = telemetry.counter("cluster.requests.routed")
_C_SCATTERED = telemetry.counter("cluster.reads.scattered")
_C_GATHERS = telemetry.counter("cluster.gathers.completed")
_C_REPLICA_WRITES = telemetry.counter("cluster.replica.writes")
_C_MOVED = telemetry.counter("cluster.rebalance.vectors_moved")
_C_NODES = telemetry.gauge("cluster.nodes")


@dataclass(frozen=True)
class ClusterConfig:
    """Declarative description of one cluster."""

    #: initial node count (ids 0..n-1)
    n_nodes: int = 1
    #: per-node service configuration (shared; frozen)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: placement strategy: "hash" (consistent hashing) | "range"
    #: (spine-style range-index table)
    placement: str = "hash"
    #: virtual nodes per physical node on the hash ring
    virtual_nodes: int = 64
    #: replica count for tenants registered without an explicit one
    #: (Zipf-head tenants are typically registered with more)
    default_replicas: int = 1
    #: minimum *unique* bin fan-in for a range read over a replicated
    #: tenant to scatter across replicas; 0 disables scatter
    scatter_fanin: int = 8

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        if self.default_replicas < 1:
            raise ValueError("default_replicas must be >= 1")
        if self.scatter_fanin < 0:
            raise ValueError("scatter_fanin must be non-negative")


@dataclass
class ClusterNode:
    """One cluster member: an id and its node-local service."""

    node_id: int
    service: BitmapQueryService


@dataclass
class _TenantPlacement:
    """Router-side placement record of one tenant."""

    quota: Optional[TenantQuota]
    replicas: int
    owners: List[int]  # owners[0] is the primary
    rr: int = 0  # read round-robin cursor


@dataclass
class _Gather:
    """In-flight scatter-gather state of one ranged read."""

    request: QueryRequest
    parts: Dict[int, Optional[QueryResult]]  # sub_id -> part, in chunk order
    remaining: int


class ClusterRouter:
    """Routes user requests across N shared-clock service nodes."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        engine_factory=None,
    ):
        self.config = config or ClusterConfig()
        #: one deterministic timeline shared by every node service
        self.loop = EventLoop()
        #: optional node_id -> ServiceEngine builder (benchmarks inject
        #: custom-geometry runtimes); default: each service builds its
        #: own engine from ``config.service.system``
        self._engine_factory = engine_factory
        self.nodes: Dict[int, ClusterNode] = {}
        self.retired: List[ClusterNode] = []
        self._next_node_id = 0
        self.stats = ClusterStats()
        for _ in range(self.config.n_nodes):
            self._spawn_node()
        self.placement = make_placement(
            self.config.placement,
            sorted(self.nodes),
            virtual_nodes=self.config.virtual_nodes,
        )
        self._tenants: Dict[str, _TenantPlacement] = {}
        #: user-facing terminal results, in completion order
        self.results: List[QueryResult] = []
        #: user-facing delta notifications, in delivery order
        self.notifications: List[DeltaNotification] = []
        self._gathers: Dict[int, _Gather] = {}  # sub_id -> gather
        self._internal_updates: Set[int] = set()
        self._next_internal_id = _INTERNAL_ID_BASE
        _C_NODES.set(len(self.nodes))

    # -- membership ----------------------------------------------------------

    def _spawn_node(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        engine = (
            self._engine_factory(node_id) if self._engine_factory else None
        )
        service = BitmapQueryService(
            self.config.service, engine=engine, loop=self.loop
        )
        service.on_result = (
            lambda result, nid=node_id: self._on_node_result(nid, result)
        )
        service.on_notification = self._on_node_notification
        self.nodes[node_id] = ClusterNode(node_id, service)
        self.stats.attach_node(node_id, service.stats)
        return node_id

    def _check_quiescent(self, action: str) -> None:
        if self.loop.pending:
            raise RuntimeError(
                f"cannot {action} with {self.loop.pending} events in "
                f"flight; drain the loop (run()) first"
            )

    def add_node(self) -> int:
        """Join one node and rebalance tenants onto it; returns its id."""
        self._check_quiescent("add a node")
        node_id = self._spawn_node()
        self.placement.add_node(node_id)
        self.stats.membership_changes += 1
        self._rebalance()
        _C_NODES.set(len(self.nodes))
        return node_id

    def remove_node(self, node_id: int) -> None:
        """Decommission a node: move its tenants off, then retire it."""
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}; alive: {sorted(self.nodes)}")
        if len(self.nodes) == 1:
            raise ValueError("cannot remove the last node")
        self._check_quiescent("remove a node")
        self.placement.remove_node(node_id)
        self.stats.membership_changes += 1
        # rebalance BEFORE retiring: vector sets may need to be copied
        # off the leaving node (it can be a tenant's only owner)
        self._rebalance()
        self.retired.append(self.nodes.pop(node_id))
        _C_NODES.set(len(self.nodes))

    def _rebalance(self) -> int:
        """Re-derive every tenant's owner set; move vector sets to match.

        Deterministic: tenants are visited in registration order and the
        new owners are a pure function of placement state.  Standing
        queries on a deregistered owner are dropped (subscribers
        re-subscribe on the new primary).  Returns vectors moved.
        """
        moved = 0
        for tenant, tp in self._tenants.items():
            new_owners = self.placement.owners(tenant, tp.replicas)
            if new_owners == tp.owners:
                continue
            added = [n for n in new_owners if n not in tp.owners]
            removed = [n for n in tp.owners if n not in new_owners]
            if added:
                source = next(
                    (n for n in tp.owners if n in new_owners), tp.owners[0]
                )
                vectors = self.nodes[source].service.engine.tenant_vectors(
                    tenant
                )
                for node_id in added:
                    node = self.nodes[node_id].service
                    node.register_tenant(tenant, tp.quota)
                    node.load_vectors(tenant, vectors)
                    moved += len(vectors)
            for node_id in removed:
                self.nodes[node_id].service.deregister_tenant(tenant)
            tp.owners = new_owners
            tp.rr = 0  # reset the read cursor so replays stay deterministic
            self.stats.rebalanced_tenants += 1
        self.stats.moved_vectors += moved
        if moved:
            _C_MOVED.add(moved)
        return moved

    # -- tenant/data management ----------------------------------------------

    def register_tenant(
        self,
        tenant: str,
        quota: Optional[TenantQuota] = None,
        *,
        replicas: Optional[int] = None,
    ) -> List[int]:
        """Place a tenant on its owner nodes; returns the owner ids.

        ``replicas`` defaults to the config's ``default_replicas``;
        Zipf-head tenants are typically registered with more so reads
        fan out.  The replica count caps at the node count.
        """
        if tenant in self._tenants:
            raise ValueError(f"tenant {tenant!r} already registered")
        n_replicas = (
            replicas if replicas is not None else self.config.default_replicas
        )
        if n_replicas < 1:
            raise ValueError("replicas must be >= 1")
        owners = self.placement.owners(tenant, n_replicas)
        for node_id in owners:
            self.nodes[node_id].service.register_tenant(tenant, quota)
        self._tenants[tenant] = _TenantPlacement(
            quota=quota, replicas=n_replicas, owners=list(owners)
        )
        return list(owners)

    @property
    def tenants(self) -> List[str]:
        return list(self._tenants)

    def tenant_owners(self, tenant: str) -> List[int]:
        """Current owner node ids of a tenant (primary first)."""
        return list(self._placement_of(tenant).owners)

    def _placement_of(self, tenant: str) -> _TenantPlacement:
        tp = self._tenants.get(tenant)
        if tp is None:
            raise KeyError(
                f"unknown tenant {tenant!r}; registered: {self.tenants}"
            )
        return tp

    def load_vectors(self, tenant: str, vectors: Dict[str, np.ndarray]) -> None:
        """Load named bit-vectors on every replica of the tenant."""
        for node_id in self._placement_of(tenant).owners:
            self.nodes[node_id].service.load_vectors(tenant, vectors)

    def load_bitmap_index(
        self, tenant: str, column: str, bin_indices: np.ndarray, n_bins: int
    ) -> None:
        """Load a FastBit bitmap index on every replica of the tenant."""
        for node_id in self._placement_of(tenant).owners:
            self.nodes[node_id].service.load_bitmap_index(
                tenant, column, bin_indices, n_bins
            )

    def load_bitslice_column(
        self, tenant: str, column: str, values: np.ndarray, n_bits: int
    ) -> None:
        """Load a bit-sliced numeric column on every replica.

        The planes are ordinary named vectors, so rebalance moves them
        with the rest of the tenant's dataset and analytics reads
        round-robin across replicas like any other read.
        """
        for node_id in self._placement_of(tenant).owners:
            self.nodes[node_id].service.load_bitslice_column(
                tenant, column, values, n_bits
            )

    # -- submission / routing ------------------------------------------------

    def submit_request(self, request) -> None:
        """Route one user request to the owning node(s).

        The same typed-request entrypoint as the node service, so the
        :class:`repro.service.api.ServiceClient` facade drives a router
        and a single node interchangeably.
        """
        tp = self._placement_of(request.tenant)
        self.stats.routed += 1
        _C_ROUTED.add()
        if request.kind == "update":
            self._route_update(request, tp)
        elif request.kind == "subscribe":
            # standing queries live on the primary only
            self.nodes[tp.owners[0]].service.submit_request(request)
        else:
            self._route_read(request, tp)

    def submit_many(self, requests) -> int:
        count = 0
        for request in requests:
            self.submit_request(request)
            count += 1
        return count

    def _claim_internal_id(self) -> int:
        request_id = self._next_internal_id
        self._next_internal_id += 1
        return request_id

    def _route_update(self, request, tp: _TenantPlacement) -> None:
        """Primary write + internal fan-in copies to the secondaries."""
        self.nodes[tp.owners[0]].service.submit_request(request)
        for node_id in tp.owners[1:]:
            copy = UpdateRequest(
                self._claim_internal_id(),
                request.tenant,
                request.vector,
                request.bits,
                request.arrival_s,
                internal=True,
            )
            self._internal_updates.add(copy.request_id)
            self.stats.replica_writes += 1
            _C_REPLICA_WRITES.add()
            self.nodes[node_id].service.submit_request(copy)

    def _route_read(self, request: QueryRequest, tp: _TenantPlacement) -> None:
        unique = list(dict.fromkeys(request.vectors))
        if (
            request.kind == "range"
            and request.op == "or"
            and len(tp.owners) > 1
            and self.config.scatter_fanin
            and len(unique) >= self.config.scatter_fanin
        ):
            self._scatter_read(request, tp, unique)
            return
        # round-robin across replicas, per tenant: deterministic cursor
        owner = tp.owners[tp.rr % len(tp.owners)]
        tp.rr += 1
        self.nodes[owner].service.submit_request(request)

    def _scatter_read(
        self, request: QueryRequest, tp: _TenantPlacement, unique: List[str]
    ) -> None:
        """Split a wide range OR into per-replica partial sub-queries.

        Equality-encoded bins are disjoint, so the gathered popcount is
        the sum of the partial popcounts (kept bits OR together).  Each
        part rides its replica's normal admission -- a part rejection
        rejects the whole gathered read.
        """
        n_parts = min(len(tp.owners), len(unique))
        base, extra = divmod(len(unique), n_parts)
        gather = _Gather(request=request, parts={}, remaining=n_parts)
        chunks: List[tuple] = []
        start = 0
        for i in range(n_parts):
            size = base + (1 if i < extra else 0)
            chunk = tuple(unique[start : start + size])
            start += size
            if len(chunk) == 1:  # single-bin part: OR with itself
                chunk = chunk * 2
            chunks.append(chunk)
        self.stats.scattered += 1
        _C_SCATTERED.add()
        for i, chunk in enumerate(chunks):
            part = QueryRequest(
                self._claim_internal_id(),
                request.tenant,
                "or",
                chunk,
                request.arrival_s,
                kind="range",
            )
            gather.parts[part.request_id] = None
            self._gathers[part.request_id] = gather
            self.nodes[tp.owners[i]].service.submit_request(part)

    # -- node callbacks ------------------------------------------------------

    def _on_node_result(self, node_id: int, result: QueryResult) -> None:
        request_id = result.request.request_id
        gather = self._gathers.get(request_id)
        if gather is not None:
            gather.parts[request_id] = result
            gather.remaining -= 1
            if gather.remaining == 0:
                self._finish_gather(gather)
            return
        if request_id in self._internal_updates:
            # replica fan-in copy landed; the user already has the
            # primary's result
            self._internal_updates.discard(request_id)
            return
        self._record_user_result(result)

    def _finish_gather(self, gather: _Gather) -> None:
        parts = list(gather.parts.values())  # chunk order
        for sub_id in gather.parts:
            del self._gathers[sub_id]
        rejected = [
            p for p in parts if p.status is not RequestStatus.COMPLETED
        ]
        if rejected:
            final = QueryResult(
                request=gather.request,
                status=RequestStatus.REJECTED,
                completed_s=max(p.completed_s for p in parts),
                reject_reason=(
                    f"scatter part rejected: {rejected[0].reject_reason}"
                ),
            )
        else:
            bits = None
            if all(p.bits is not None for p in parts):
                bits = parts[0].bits.copy()
                for p in parts[1:]:
                    np.bitwise_or(bits, p.bits, out=bits)
            final = QueryResult(
                request=gather.request,
                status=RequestStatus.COMPLETED,
                # disjoint bins: the gathered popcount is the sum
                popcount=sum(p.popcount for p in parts),
                dispatched_s=min(p.dispatched_s for p in parts),
                completed_s=max(p.completed_s for p in parts),
                service_s=sum(p.service_s for p in parts),
                energy_j=sum(p.energy_j for p in parts),
                batch_id=-1,  # spans batches on several nodes
                bits=bits,
            )
        self.stats.gathers += 1
        _C_GATHERS.add()
        self._record_user_result(final)

    def _record_user_result(self, result: QueryResult) -> None:
        self.results.append(result)
        self.stats.record_result(result)

    def _on_node_notification(self, note: DeltaNotification) -> None:
        # subscriptions are primary-only and never internal: every
        # delivered notification is user-facing
        self.notifications.append(note)
        self.stats.notifications += 1

    # -- running -------------------------------------------------------------

    def event_budget(self) -> int:
        """Livelock guard for the shared loop: summed node budgets."""
        return sum(n.service.event_budget() for n in self.nodes.values()) + 64

    def run(self, max_events: Optional[int] = None) -> ClusterStats:
        """Drain the shared loop, finalize every node; returns stats."""
        self.loop.run(max_events=max_events or self.event_budget())
        for node in self.nodes.values():
            node.service.finalize()
        return self.stats

    # -- verification --------------------------------------------------------

    def verify_results(self) -> int:
        """Check every completed user *read* against the numpy oracle
        (see :func:`~repro.service.service.check_results`).

        The oracle runs on the tenant's primary engine (replicas hold
        identical shadows by construction); gathered range results
        verify against the original, un-split request.
        """
        return check_results(
            self.results,
            lambda t: self.nodes[self._placement_of(t).owners[0]].service.engine,
        )

    def verify_replicas(self) -> int:
        """Assert every replica holds byte-identical host shadows.

        The fan-in write path's invariant; returns vectors compared.
        """
        checked = 0
        for tenant, tp in self._tenants.items():
            primary = self.nodes[tp.owners[0]].service.engine
            reference = primary.tenant_vectors(tenant)
            for node_id in tp.owners[1:]:
                replica = self.nodes[node_id].service.engine
                mirror = replica.tenant_vectors(tenant)
                if list(mirror) != list(reference):
                    raise AssertionError(
                        f"tenant {tenant!r}: replica on node {node_id} "
                        f"holds different vectors than the primary"
                    )
                for name, bits in reference.items():
                    if not np.array_equal(mirror[name], bits):
                        raise AssertionError(
                            f"tenant {tenant!r} vector {name!r}: replica "
                            f"on node {node_id} diverged from the primary"
                        )
                    checked += 1
        return checked
