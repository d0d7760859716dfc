"""`repro.service`: a multi-tenant bitmap-query serving layer.

The serving-side argument of the Pinatubo paper: a bulk-bitwise
substrate earns its keep when a *service* funnels many concurrent
application queries -- bitmap-index range scans, set intersections --
into dense in-memory command streams.  This package is that service,
built entirely on the repo's existing layers:

- **requests** (:mod:`.request`): bitwise ops and FastBit-style range
  queries over named, tenant-resident bit-vectors;
- **admission** (:mod:`.admission`): per-tenant quotas -- bounded
  queues, token-bucket rates, reject-or-pace overload policies;
- **scheduling** (:mod:`.scheduler`): cross-tenant coalescing into
  single driver command batches, priced shard-aware (requests on
  different (channel, bank) shards overlap);
- **execution** (:mod:`.engine`): the functional Pinatubo runtime with
  os_mm tenant placement, or any other registered backend host-side;
- **time** (:mod:`.clock`): a deterministic simulated event loop -- no
  wall clock anywhere, so runs replay byte-identically;
- **accounting** (:mod:`.stats`): per-tenant latency histograms,
  p50/p99, ops/s, energy, in the repo's StatsLike convention.

Quick start (the :class:`~repro.service.api.ServiceClient` facade is
the one front door -- the same client drives a single node or a
:class:`repro.cluster.ClusterRouter`)::

    import numpy as np
    from repro.service import BitmapQueryService, ServiceClient

    client = ServiceClient(BitmapQueryService())
    client.register_tenant("alice")
    client.load_vectors("alice", {"a": np.random.randint(0, 2, 4096),
                                  "b": np.random.randint(0, 2, 4096)})
    handle = client.query("alice", "and", ("a", "b"))
    stats = client.run()
    print(handle.popcount, stats.summary())
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    Admit,
    OverloadPolicy,
    TenantQuota,
    TokenBucket,
)
from repro.service.api import ResultHandle, ServiceClient, SubscriptionHandle
from repro.service.clock import EventLoop
from repro.service.engine import (
    HostOracleEngine,
    ResidentPimEngine,
    ServiceEngine,
    UnsupportedOpError,
    build_engine,
    oracle_analytics,
)
from repro.service.request import (
    AnalyticsRequest,
    DeltaNotification,
    QueryRequest,
    QueryResult,
    RequestStatus,
    UpdateRequest,
    bin_vector_name,
    bitslice_vector_name,
)
from repro.service.scheduler import BatchPricing, CoalescingScheduler
from repro.service.service import (
    BitmapQueryService,
    ServiceConfig,
    StandingQuery,
)
from repro.service.stats import LatencyRecorder, ServiceStats, TenantStats

__all__ = [
    "AdmissionController",
    "AnalyticsRequest",
    "AdmissionDecision",
    "Admit",
    "BatchPricing",
    "BitmapQueryService",
    "CoalescingScheduler",
    "DeltaNotification",
    "EventLoop",
    "HostOracleEngine",
    "LatencyRecorder",
    "OverloadPolicy",
    "QueryRequest",
    "QueryResult",
    "RequestStatus",
    "ResidentPimEngine",
    "ResultHandle",
    "ServiceClient",
    "ServiceConfig",
    "ServiceEngine",
    "ServiceStats",
    "StandingQuery",
    "SubscriptionHandle",
    "TenantQuota",
    "TenantStats",
    "TokenBucket",
    "UnsupportedOpError",
    "UpdateRequest",
    "bin_vector_name",
    "bitslice_vector_name",
    "build_engine",
    "oracle_analytics",
]
