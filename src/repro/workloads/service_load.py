"""Synthetic multi-tenant load for the serving layer.

A :class:`ServiceLoadSpec` describes one experiment: tenant count and
skew, the resident dataset per tenant, the query mix, and an open-loop
arrival process.  ``run_service_load`` builds a
:class:`~repro.service.BitmapQueryService`, plays the load, and returns
the stats -- the same function drives the benchmark, the determinism
tests, and the CI smoke job.

Two classic serving-workload properties are modelled:

- **open-loop arrivals**: request times come from a seeded Poisson
  process (exponential inter-arrivals), independent of service
  completions -- so admission control actually has something to do when
  offered load exceeds capacity;
- **tenant skew**: tenants are drawn from a Zipf-like distribution
  (``P(tenant k) proportional to 1/(k+1)^zipf_s``), so a few hot tenants
  dominate, which is what stresses per-tenant quotas and cross-tenant
  batching fairness.

Everything is driven by one ``numpy`` Generator seeded from the spec, so
a fixed seed replays the identical request stream.

Submission goes through the :class:`~repro.service.api.ServiceClient`
facade (:func:`play_stream` maps each generated request onto the
client's typed verbs with explicit ids/arrivals, so the stream numbering
stays the determinism contract).  The same stream drives a single node
(:func:`run_service_load`) or an N-node cluster
(:func:`run_cluster_load`, which also replicates the Zipf-head tenants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.service.api import ServiceClient
from repro.service.engine import ServiceEngine
from repro.service.request import (
    AnalyticsRequest,
    QueryRequest,
    UpdateRequest,
)
from repro.service.service import BitmapQueryService, ServiceConfig
from repro.service.stats import ServiceStats

__all__ = [
    "ServiceLoadSpec",
    "build_datasets",
    "generate_requests",
    "play_stream",
    "run_cluster_load",
    "run_service_load",
]

#: query mix: (kind, weight); kinds are ops, "range", or "analyze"
_DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("and", 0.35),
    ("or", 0.25),
    ("xor", 0.15),
    ("inv", 0.05),
    ("range", 0.20),
)


@dataclass(frozen=True)
class ServiceLoadSpec:
    """One synthetic serving experiment, fully determined by the seed."""

    n_tenants: int = 16
    #: resident plain bit-vectors per tenant
    vectors_per_tenant: int = 4
    #: bits per resident vector
    vector_bits: int = 4096
    #: bins in each tenant's one bitmap-indexed column
    index_bins: int = 8
    #: events in the bitmap-indexed column
    index_events: int = 2048
    #: total requests offered
    n_requests: int = 256
    #: mean offered rate of the Poisson arrival process (req/simulated s)
    arrival_rate_per_s: float = 2e5
    #: Zipf exponent for tenant selection (0 = uniform)
    zipf_s: float = 1.0
    #: (kind, weight) query mix; kinds are ops, "range", or "analyze"
    #: (filter+aggregate analytics over the bit-sliced ``val`` column)
    mix: Tuple[Tuple[str, float], ...] = field(default=_DEFAULT_MIX)
    #: width of the per-tenant bit-sliced numeric column ``val`` (0 =
    #: not loaded; required >= 1 when the mix includes "analyze").  The
    #: column rides a *separate* seeded RNG, so 0 reproduces the
    #: historical datasets byte-identically.
    value_bits: int = 0
    #: fraction of the stream converted to vector overwrites (the write
    #: path: dirty marking, repair on read + standing-query refresh).  The conversion
    #: uses a *separate* seeded RNG, so 0.0 reproduces the historical
    #: read-only stream byte-identically.
    write_ratio: float = 0.0
    #: standing queries registered per tenant before the stream starts
    subscriptions_per_tenant: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if self.vectors_per_tenant < 2:
            raise ValueError("vectors_per_tenant must be >= 2 (binary ops)")
        if self.vector_bits < 1 or self.index_events < 1:
            raise ValueError("vector_bits/index_events must be positive")
        if self.index_bins < 1:
            raise ValueError("index_bins must be >= 1")
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if not self.arrival_rate_per_s > 0:
            raise ValueError("arrival_rate_per_s must be positive")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")
        if not self.mix or any(w <= 0 for _, w in self.mix):
            raise ValueError("mix must be non-empty with positive weights")
        if self.value_bits < 0:
            raise ValueError("value_bits must be non-negative")
        if any(k == "analyze" for k, _ in self.mix) and self.value_bits < 1:
            raise ValueError(
                "an 'analyze' mix entry needs value_bits >= 1 (the "
                "bit-sliced 'val' column analytics queries filter on)"
            )
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        if self.subscriptions_per_tenant < 0:
            raise ValueError("subscriptions_per_tenant must be non-negative")

    @property
    def tenant_names(self) -> List[str]:
        width = len(str(self.n_tenants - 1))
        return [f"tenant{i:0{width}d}" for i in range(self.n_tenants)]

    def tenant_probabilities(self) -> np.ndarray:
        """Zipf-like tenant weights, normalised."""
        ranks = np.arange(1, self.n_tenants + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_s)
        return weights / weights.sum()


def build_datasets(
    spec: ServiceLoadSpec,
    service,
    *,
    head_tenants: int = 0,
    head_replicas: int = 1,
) -> None:
    """Register every tenant and load its resident dataset.

    Per tenant: ``vectors_per_tenant`` random bit-vectors named ``v0``,
    ``v1``, ... plus one bitmap-indexed column ``col`` with
    ``index_bins`` bins.  Dataset randomness is seeded separately from
    the request stream so the two can be varied independently.

    ``service`` is any target with the tenant-management surface (a
    ``BitmapQueryService``, a ``ClusterRouter``, or the
    ``ServiceClient`` facade over either).  On a cluster, the first
    ``head_tenants`` tenants -- the Zipf head, since tenant rank equals
    index order -- register with ``head_replicas`` replicas.
    """
    rng = np.random.default_rng((spec.seed, 0xDA7A))
    # the bit-sliced column draws from its own stream so value_bits=0
    # replays the historical datasets draw-for-draw
    vrng = np.random.default_rng((spec.seed, 0x5117))
    for i, tenant in enumerate(spec.tenant_names):
        if head_replicas > 1 and i < head_tenants:
            service.register_tenant(tenant, None, replicas=head_replicas)
        else:
            service.register_tenant(tenant)
        service.load_vectors(
            tenant,
            {
                f"v{i}": rng.integers(
                    0, 2, spec.vector_bits, dtype=np.uint8
                )
                for i in range(spec.vectors_per_tenant)
            },
        )
        service.load_bitmap_index(
            tenant,
            "col",
            rng.integers(0, spec.index_bins, spec.index_events),
            spec.index_bins,
        )
        if spec.value_bits > 0:
            service.load_bitslice_column(
                tenant,
                "val",
                vrng.integers(0, 1 << spec.value_bits, spec.index_events),
                spec.value_bits,
            )


def generate_requests(spec: ServiceLoadSpec) -> List[QueryRequest]:
    """The offered request stream: open-loop, skewed, seeded.

    Arrival times are a Poisson process at ``arrival_rate_per_s``;
    tenants are Zipf-drawn; kinds follow the mix.  Request ids number
    the stream in arrival order.
    """
    rng = np.random.default_rng((spec.seed, 0x10AD))
    arrivals = np.cumsum(
        rng.exponential(1.0 / spec.arrival_rate_per_s, spec.n_requests)
    )
    tenants = rng.choice(
        spec.tenant_names, size=spec.n_requests, p=spec.tenant_probabilities()
    )
    kinds = [k for k, _ in spec.mix]
    weights = np.array([w for _, w in spec.mix], dtype=np.float64)
    picks = rng.choice(len(kinds), size=spec.n_requests, p=weights / weights.sum())
    requests: List[QueryRequest] = []
    for i in range(spec.n_requests):
        kind = kinds[picks[i]]
        tenant = str(tenants[i])
        arrival = float(arrivals[i])
        if kind == "range":
            lo = int(rng.integers(0, spec.index_bins))
            hi = int(rng.integers(lo, spec.index_bins))
            requests.append(
                QueryRequest.range_query(i, tenant, "col", lo, hi, arrival)
            )
            continue
        if kind == "analyze":
            cmp_op = str(rng.choice(["lt", "le", "gt", "ge", "eq"]))
            value = int(rng.integers(0, 1 << spec.value_bits))
            filters = [("cmp", "val", cmp_op, value, spec.value_bits)]
            if int(rng.integers(0, 2)):
                lo = int(rng.integers(0, spec.index_bins))
                hi = int(rng.integers(lo, spec.index_bins))
                filters.append(("range", "col", lo, hi))
            agg_pick = str(rng.choice(["count", "sum", "hist"]))
            if agg_pick == "sum":
                aggregate: Tuple = ("sum", "val", spec.value_bits)
            elif agg_pick == "hist":
                aggregate = ("hist", "col", spec.index_bins)
            else:
                aggregate = ("count",)
            requests.append(
                AnalyticsRequest(
                    i, tenant, tuple(filters), aggregate, arrival
                )
            )
            continue
        if kind == "inv":
            names: Tuple[str, ...] = (
                f"v{rng.integers(0, spec.vectors_per_tenant)}",
            )
        else:
            n_ops = int(rng.integers(2, spec.vectors_per_tenant + 1))
            chosen = rng.choice(
                spec.vectors_per_tenant, size=n_ops, replace=False
            )
            names = tuple(f"v{int(v)}" for v in chosen)
        requests.append(
            QueryRequest.bitwise(i, tenant, kind, names, arrival)
        )
    if spec.write_ratio > 0.0:
        requests = _convert_writes(spec, requests)
    return _subscriptions(spec) + requests


def _convert_writes(spec, requests):
    """Convert a seeded fraction of the stream to vector overwrites.

    Conversion happens *after* the read stream is generated, from a
    separate RNG: the kept reads are the exact requests the read-only
    stream would have issued (same ids, tenants, arrivals, operands).
    Each update overwrites one plain vector of the request's tenant with
    fresh random contents.
    """
    rng = np.random.default_rng((spec.seed, 0x3717E))
    n_writes = int(round(spec.write_ratio * len(requests)))
    chosen = set(
        int(i)
        for i in rng.choice(len(requests), size=n_writes, replace=False)
    )
    out = []
    for i, request in enumerate(requests):
        if i not in chosen:
            out.append(request)
            continue
        vector = f"v{int(rng.integers(0, spec.vectors_per_tenant))}"
        bits = rng.integers(0, 2, spec.vector_bits, dtype=np.uint8)
        out.append(
            UpdateRequest(
                request.request_id,
                request.tenant,
                vector,
                bits,
                request.arrival_s,
            )
        )
    return out


def _subscriptions(spec) -> List[QueryRequest]:
    """Per-tenant standing queries, registered ahead of the stream.

    Ids live above the stream's ``0..n_requests-1`` range; arrivals are
    all 0.0 so every registration precedes the first read/write.
    """
    if spec.subscriptions_per_tenant == 0:
        return []
    rng = np.random.default_rng((spec.seed, 0x50B5))
    subs: List[QueryRequest] = []
    next_id = spec.n_requests
    for tenant in spec.tenant_names:
        for _ in range(spec.subscriptions_per_tenant):
            n_ops = int(rng.integers(2, spec.vectors_per_tenant + 1))
            chosen = rng.choice(
                spec.vectors_per_tenant, size=n_ops, replace=False
            )
            names = tuple(f"v{int(v)}" for v in chosen)
            op = str(rng.choice(["or", "and", "xor"]))
            subs.append(
                QueryRequest(next_id, tenant, op, names, 0.0, kind="subscribe")
            )
            next_id += 1
    return subs


def play_stream(client: ServiceClient, requests) -> int:
    """Drive a generated request stream through the facade's verbs.

    Each request replays with its explicit id and arrival time, so the
    submitted stream is byte-identical to what ``submit_many`` over the
    raw request objects produced (ids/arrivals ARE the determinism
    contract of a seeded workload).  Returns the number submitted.
    """
    count = 0
    for request in requests:
        if request.kind == "update":
            client.update(
                request.tenant,
                request.vector,
                request.bits,
                at=request.arrival_s,
                request_id=request.request_id,
            )
        elif request.kind == "subscribe":
            client.subscribe(
                request.tenant,
                request.op,
                request.vectors,
                at=request.arrival_s,
                request_id=request.request_id,
            )
        elif request.kind == "analytics":
            client.analyze(
                request.tenant,
                request.filters,
                request.aggregate,
                at=request.arrival_s,
                request_id=request.request_id,
            )
        else:
            client.query(
                request.tenant,
                request.op,
                request.vectors,
                at=request.arrival_s,
                request_id=request.request_id,
                kind=request.kind,
            )
        count += 1
    return count


def run_service_load(
    spec: ServiceLoadSpec,
    config: Optional[ServiceConfig] = None,
    engine: Optional[ServiceEngine] = None,
) -> Tuple[BitmapQueryService, ServiceStats]:
    """Build a service, load datasets, play the stream, drain the loop."""
    service = BitmapQueryService(config, engine=engine)
    client = ServiceClient(service)
    build_datasets(spec, client)
    play_stream(client, generate_requests(spec))
    stats = client.run()
    return service, stats


def run_cluster_load(
    spec: ServiceLoadSpec,
    cluster_config=None,
    *,
    head_tenants: int = 0,
    head_replicas: int = 2,
    engine_factory=None,
):
    """Play the same seeded stream against an N-node cluster.

    Returns ``(router, cluster_stats)``.  The offered stream is the one
    :func:`generate_requests` yields for the spec -- identical to the
    single-node run -- with the first ``head_tenants`` (hottest) tenants
    replicated ``head_replicas``-way so their reads fan out.
    """
    from repro.cluster.router import ClusterRouter

    router = ClusterRouter(cluster_config, engine_factory=engine_factory)
    client = ServiceClient(router)
    build_datasets(
        spec, client, head_tenants=head_tenants, head_replicas=head_replicas
    )
    play_stream(client, generate_requests(spec))
    stats = client.run()
    return router, stats
