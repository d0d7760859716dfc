"""The coalescing scheduler: cross-tenant batching + shard-aware pricing.

Buddy-RAM and the in-DRAM bulk-bitwise literature make the argument this
module implements: a bulk-bitwise substrate pays off when a scheduler
funnels *many* application queries into dense in-memory command streams.
Two mechanisms here:

- **Cross-tenant coalescing.**  When the server frees up, the scheduler
  drains up to ``max_batch`` admitted requests round-robin across tenant
  queues (deterministic rotation, so no tenant owns the front slot) and
  executes them as **one** driver command batch -- one mode-register
  setup and one command-stream issue instead of one per request.
- **Shard-aware makespan.**  Tenant data is placed by
  :mod:`repro.runtime.os_mm` into per-tenant subarrays, so requests of
  different tenants usually touch different (channel, bank) shards.
  Banks own their row decoders and sense amps; the controller interleaves
  their command streams, so requests on different shards overlap in time.
  The batch's simulated makespan is therefore the *maximum over shards*
  of the per-shard serial sums -- not the total sum a one-at-a-time
  service pays -- plus one ``dispatch_overhead_s`` for the stream issue.

The scheduler is substrate-agnostic: with the default
:class:`~repro.service.engine.ResidentPimEngine` each dispatched batch
runs through the planner's compiled path (sub-result cache serves plus
:mod:`repro.plan.compile` program replay for recurring wave shapes), so
steady-state dispatch wall-clock is dominated by a few vectorized numpy
passes rather than per-op Python.  Inject a ``runtime=`` built with
``compile=False`` (or ``plan=False``) to fall back to interpreted
execution; simulated pricing is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Sequence, Tuple

from repro import telemetry
from repro.service.engine import ExecutedCall, ServiceEngine
from repro.service.request import QueryRequest

if TYPE_CHECKING:
    from repro.service.service import ServiceConfig

__all__ = ["BatchPricing", "CoalescingScheduler"]

#: stays 0 now that content folding is gone; benchmarks/e2e --trace reads it
telemetry.counter("service.scheduler.cse_folds")
#: non-empty batches dispatched, and the size of the most recent one --
#: read next to the plan.compile.* counters to see how much of the
#: dispatch stream the kernel compiler is absorbing
_DISPATCHES = telemetry.counter("service.scheduler.dispatches")
_BATCH_SIZE = telemetry.gauge("service.scheduler.batch_size")
#: analytics reads dispatched.  They ride the same coalesced batches as
#: plain reads; the engine runs each one through the analytics compiler,
#: which replays a steady program after the same planner validity check
#: every replay takes (``plan.analytics.replays``).
_ANALYTICS_CALLS = telemetry.counter("service.scheduler.analytics_calls")


@dataclass
class BatchPricing:
    """Simulated timing of one dispatched batch."""

    #: per-request completion offset from dispatch time (s), in batch order
    completion_offsets: List[float]
    #: dispatch-to-last-completion time; the server is busy this long
    makespan_s: float
    #: total energy of the batch (energy adds across shards)
    energy_j: float


class CoalescingScheduler:
    """Drains tenant queues into shard-priced command-stream batches.

    Reads its policy off the service's config: ``max_batch`` requests
    coalesce into one command-stream dispatch, which pays one
    ``dispatch_overhead_s``.
    """

    def __init__(self, config: "ServiceConfig", engine: ServiceEngine):
        self.config = config
        self.engine = engine
        self._rr_offset = 0  # rotating round-robin start position

    # -- collection ----------------------------------------------------------

    def collect(
        self, queues: Dict[str, Deque[QueryRequest]]
    ) -> List[QueryRequest]:
        """Pop up to ``max_batch`` requests, round-robin across tenants.

        Tenant order is registration order rotated by a per-dispatch
        offset: deterministic, but no tenant permanently owns the first
        slot of every batch.
        """
        tenants = list(queues)
        if not tenants:
            return []
        n = len(tenants)
        start = self._rr_offset % n
        self._rr_offset += 1
        batch: List[QueryRequest] = []
        index = start
        empty_streak = 0
        while len(batch) < self.config.max_batch and empty_streak < n:
            queue = queues[tenants[index % n]]
            if queue:
                batch.append(queue.popleft())
                empty_streak = 0
            else:
                empty_streak += 1
            index += 1
        return batch

    # -- pricing -------------------------------------------------------------

    def price(
        self,
        requests: Sequence[QueryRequest],
        executed: Sequence[ExecutedCall],
    ) -> BatchPricing:
        """Shard-aware batch timing from per-request execution costs.

        Requests on the same shard serialise (prefix sums); different
        shards overlap.  Every request additionally waits out the single
        per-batch dispatch overhead.
        """
        overhead = self.config.dispatch_overhead_s
        shard_elapsed: Dict[int, float] = {}
        offsets: List[float] = []
        for request, call in zip(requests, executed):
            shard = self.engine.shard_of(request.tenant)
            elapsed = shard_elapsed.get(shard, 0.0) + call.latency_s
            shard_elapsed[shard] = elapsed
            offsets.append(overhead + elapsed)
        makespan = overhead + max(shard_elapsed.values(), default=0.0)
        energy = sum(call.energy_j for call in executed)
        return BatchPricing(
            completion_offsets=offsets,
            makespan_s=makespan,
            energy_j=energy,
        )

    # -- one-call dispatch ----------------------------------------------------

    def dispatch(
        self, queues: Dict[str, Deque[QueryRequest]]
    ) -> Tuple[List[QueryRequest], List[ExecutedCall], BatchPricing]:
        """Collect, execute, and price one batch (empty batch = no-op).

        Mixed batches reorder **updates before reads**: within one
        dispatch a write lands before any read executes, so a batch has
        read-your-writes semantics on the simulated timeline (the
        returned batch list reflects the execution order).  On the
        resident engine each update flows through the runtime's write
        listener, which marks the cached sub-results it reaches dirty;
        the following reads of the same coalesced dispatch repair what
        they hit before serving it.
        """
        batch = self.collect(queues)
        if not batch:
            return [], [], BatchPricing([], 0.0, 0.0)
        updates = [r for r in batch if r.kind == "update"]
        reads = [r for r in batch if r.kind != "update"]
        batch = updates + reads
        _DISPATCHES.add()
        _BATCH_SIZE.set(len(batch))
        n_analytics = sum(1 for r in reads if r.kind == "analytics")
        if n_analytics:
            _ANALYTICS_CALLS.add(n_analytics)
        executed = [
            self.engine.update_vector(r.tenant, r.vector, r.bits)
            for r in updates
        ]
        if reads:
            executed += self.engine.execute(reads)
        return batch, executed, self.price(batch, executed)

    def execute_calls(self, requests: List[QueryRequest]) -> List[ExecutedCall]:
        """Execute extra reads riding the current dispatch.

        The service uses this for standing-query refreshes triggered by
        the batch's updates: they are priced by the caller *together
        with* the batch (one combined :meth:`price` call), so a refresh
        shares the dispatch overhead and serialises on its tenant's
        shard like any batched read.
        """
        if not requests:
            return []
        return self.engine.execute(requests)

