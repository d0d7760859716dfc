"""Execution engines: how the service drives a backend.

The scheduler hands an engine one *coalesced batch* of
:class:`ServiceCall`s (possibly from many tenants) and gets back one
:class:`ExecutedCall` per request -- result bits plus the simulated
latency/energy of that request alone.  Two engines cover every
registered backend:

- :class:`ResidentPimEngine` -- the functional Pinatubo runtime.  Tenant
  vectors are *resident*: loaded once through ``pim_malloc`` with a
  per-tenant affinity group, so :mod:`repro.runtime.os_mm` co-locates a
  tenant's vectors in one subarray (ops stay intra-subarray) while
  different tenants land on different subarrays/banks/channels -- the
  shard map the scheduler's makespan model rides on.  Batches execute
  through the driver as **one** command stream.
- :class:`HostOracleEngine` -- any other registered backend
  (cost-model schemes, the functional in-DRAM baseline).  Vectors stay
  host-side; batches go through the backend protocol's
  ``bitwise_many``.

Both keep a host-side shadow copy of every loaded vector, which is what
the service's numpy-oracle parity checks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.config import SystemConfig
from repro.backends.protocol import (
    ALL_OPS,
    BackendCapabilities,
    UnsupportedOpError,
    bitwise_oracle,
)
from repro.backends.registry import registry
from repro.runtime.wear import WearMonitor
from repro.arith.compile import AnalyticsCompiler
from repro.arith.kernels import (
    ScratchPool,
    combine_masks,
    compare_const,
    copy_plane,
    mask_bits,
    masked_histogram,
    masked_sum,
)
from repro.arith.oracle import oracle_compare_const
from repro.service.request import bin_vector_name, bitslice_vector_name

__all__ = [
    "ExecutedCall",
    "HostOracleEngine",
    "ResidentPimEngine",
    "ServiceCall",
    "ServiceEngine",
    # re-exported for compatibility; the class now lives with the
    # backend protocol (repro.backends.UnsupportedOpError)
    "UnsupportedOpError",
    "build_engine",
    "oracle_analytics",
]


@dataclass(frozen=True)
class ServiceCall:
    """One request lowered to engine vocabulary: op over named vectors.

    Analytics requests carry their ``(filters, aggregate)`` spec in
    ``analytics``; plain bitwise reads leave it ``None``.  Both ride the
    same coalesced batches.
    """

    tenant: str
    op: str
    names: Tuple[str, ...]
    analytics: Optional[tuple] = None


@dataclass
class ExecutedCall:
    """Result + per-request simulated cost of one executed call."""

    bits: np.ndarray
    popcount: int
    latency_s: float
    energy_j: float
    steps: int
    in_memory: bool
    #: analytics aggregate value (count / masked sum / histogram total)
    value: float = 0.0
    #: analytics histogram per-bin counts; None otherwise
    groups: Optional[Tuple[int, ...]] = None


class ServiceEngine:
    """What the scheduler needs from an execution substrate."""

    name: str = "engine"

    def capabilities(self) -> BackendCapabilities:
        raise NotImplementedError

    def check_op(self, op: str) -> None:
        """Reject ops the backend cannot serve, with a clear error."""
        caps = self.capabilities()
        if not caps.supports(op):
            raise UnsupportedOpError(
                f"backend {self.name!r} cannot serve op {op!r}; "
                f"supported ops: {', '.join(sorted(caps.ops))} "
                f"(see repro.backends.registry.list() for all backends)"
            )

    def load_vector(self, tenant: str, name: str, bits: np.ndarray) -> None:
        raise NotImplementedError

    def update_vector(
        self, tenant: str, name: str, bits: np.ndarray
    ) -> ExecutedCall:
        """Overwrite a loaded vector's contents (the service write path).

        Returns the priced write: ``popcount`` is the number of bits
        that actually changed (``popcount(old XOR new)``), ``latency_s``
        / ``energy_j`` the full simulated cost of landing the write --
        on the resident engine that includes whatever the planner's
        delta-repair path spent fixing cached sub-results in place.
        """
        raise NotImplementedError

    def host_vector(self, tenant: str, name: str) -> np.ndarray:
        """Host shadow copy (the oracle's input)."""
        raise NotImplementedError

    def has_vector(self, tenant: str, name: str) -> bool:
        raise NotImplementedError

    def tenant_vectors(self, tenant: str) -> Dict[str, np.ndarray]:
        """Host shadows of every vector the tenant has loaded, by name.

        What cluster rebalancing copies when a tenant moves between
        nodes (the insertion order is the original load order, so a
        re-load on another node places vectors identically).
        """
        raise NotImplementedError

    def unload_tenant(self, tenant: str) -> int:
        """Drop a tenant's resident vectors; returns how many were freed.

        The decommission path of cluster rebalancing: after the tenant's
        vector set has been copied to its new owner, the old node
        releases the frames (and any cached sub-results reading them).
        """
        raise NotImplementedError

    def execute(self, calls: Sequence[ServiceCall]) -> List[ExecutedCall]:
        """Run one coalesced batch; one result per call, in call order."""
        raise NotImplementedError

    @property
    def n_shards(self) -> int:
        """Independent placement shards requests can overlap across."""
        return 1

    def shard_of(self, tenant: str) -> int:
        """Which shard the tenant's resident data lives on."""
        return 0

    def wear_monitor(self) -> Optional[WearMonitor]:
        """Endurance monitor of the functional memory, if there is one."""
        return None


class ResidentPimEngine(ServiceEngine):
    """Functional Pinatubo runtime with resident, shard-aware placement.

    The engine builds its runtime with ``plan=True`` and the kernel
    compiler on: request streams go through the
    :class:`~repro.plan.QueryPlanner`, repeated sub-expressions serve
    from the sub-result cache as serves of the planned wave, exec
    waves run through one driver flush, and recurring to-host
    calls and analytics queries replay as compiled programs.  Any other
    planner configuration (e.g. the
    interpreted ``compile=False`` reference) is injected as a prebuilt
    ``runtime=PimRuntime.from_config(config, plan=..., compile=...)``.
    """

    def __init__(self, config: SystemConfig, runtime=None):
        if config.backend != "pinatubo":
            raise ValueError(
                f"ResidentPimEngine serves the 'pinatubo' backend, "
                f"not {config.backend!r}"
            )
        from repro.runtime.api import PimRuntime

        self.config = config
        self.runtime = runtime or PimRuntime.from_config(config, plan=True)
        executor = self.runtime.system.executor
        self.name = f"Pinatubo-{executor.limits.or_rows}"
        self._caps = BackendCapabilities(
            ops=frozenset(ALL_OPS),
            max_fanin=executor.limits.or_rows,
            in_memory=True,
            placement_sensitive=True,
            functional=True,
        )
        self._handles: Dict[Tuple[str, str], object] = {}
        self._host: Dict[Tuple[str, str], np.ndarray] = {}
        self._tenant_shard: Dict[str, int] = {}
        #: per-(tenant, width) scratch pools for the arithmetic path;
        #: scratch allocates in the tenant's affinity group, so masks
        #: and ripple intermediates stay on the tenant's shard
        self._arith_pools: Dict[Tuple[str, int], ScratchPool] = {}
        #: whole-query analytics programs (shape-keyed, constants as
        #: parameters); self-disables on unplanned/uncompiled runtimes
        self.analytics_compiler = AnalyticsCompiler(self.runtime)
        geometry = self.runtime.system.geometry
        #: shards = independent (channel, bank) pairs: banks have their
        #: own row decoders and sense amps, so command streams touching
        #: different banks interleave on the DDR bus and execute
        #: concurrently; subarrays in one bank share the bank's command
        #: path and serialise.
        self._n_shards = geometry.channels * geometry.banks_per_rank

    @staticmethod
    def group_of(tenant: str) -> str:
        """The os_mm affinity group a tenant's vectors allocate under."""
        return f"tenant/{tenant}"

    def capabilities(self) -> BackendCapabilities:
        return self._caps

    def load_vector(self, tenant: str, name: str, bits: np.ndarray) -> None:
        key = (tenant, name)
        if key in self._handles:
            raise ValueError(f"vector {name!r} already loaded for {tenant!r}")
        bits = np.asarray(bits, dtype=np.uint8)
        rt = self.runtime
        handle = rt.pim_malloc(int(bits.size), self.group_of(tenant))
        rt.pim_write(handle, bits)
        self._handles[key] = handle
        self._host[key] = bits.copy()
        if tenant not in self._tenant_shard:
            addr = rt.manager.frame_address(handle.frames[0])
            g = rt.system.geometry
            self._tenant_shard[tenant] = (
                addr.channel * g.banks_per_rank + addr.bank
            )

    def update_vector(
        self, tenant: str, name: str, bits: np.ndarray
    ) -> ExecutedCall:
        key = (tenant, name)
        handle = self._handles.get(key)
        if handle is None:
            raise ValueError(f"vector {name!r} not loaded for {tenant!r}")
        bits = np.asarray(bits, dtype=np.uint8)
        old = self._host[key]
        if bits.size != old.size:
            raise ValueError(
                f"update size {bits.size} != loaded size {old.size} "
                f"for {tenant!r}/{name!r}"
            )
        rt = self.runtime
        lat0, en0 = rt.total_latency(), rt.total_energy()
        # the write lands through the runtime's delta listener: cached
        # sub-results reading these rows repair in place (or fall back
        # to invalidation when recompute prices cheaper), and that cost
        # shows up in the accounting delta below
        rt.pim_write(handle, bits)
        changed = int(np.count_nonzero(old != bits))
        self._host[key] = bits.copy()
        return ExecutedCall(
            bits=np.zeros(0, dtype=np.uint8),
            popcount=changed,
            latency_s=(rt.total_latency() - lat0) * self.config.timing_scale,
            energy_j=(rt.total_energy() - en0) * self.config.energy_scale,
            steps=0,
            in_memory=True,
        )

    def host_vector(self, tenant: str, name: str) -> np.ndarray:
        return self._host[(tenant, name)]

    def has_vector(self, tenant: str, name: str) -> bool:
        return (tenant, name) in self._handles

    def tenant_vectors(self, tenant: str) -> Dict[str, np.ndarray]:
        return {
            name: bits.copy()
            for (owner, name), bits in self._host.items()
            if owner == tenant
        }

    def unload_tenant(self, tenant: str) -> int:
        keys = [key for key in self._handles if key[0] == tenant]
        for key in keys:
            # pim_free runs the allocator's free listeners, so a planned
            # runtime drops every cached sub-result reading these frames
            self.runtime.pim_free(self._handles.pop(key))
            del self._host[key]
        for pool_key in [k for k in self._arith_pools if k[0] == tenant]:
            self._arith_pools.pop(pool_key).free_all()
        self._tenant_shard.pop(tenant, None)
        return len(keys)

    @property
    def n_shards(self) -> int:
        return self._n_shards

    def shard_of(self, tenant: str) -> int:
        return self._tenant_shard.get(tenant, 0)

    def execute(self, calls: Sequence[ServiceCall]) -> List[ExecutedCall]:
        """One driver batch (or planner wave) for the coalesced stream.

        Analytics calls execute inline in call order (each is its own
        multi-gate kernel sequence through the planner); the plain
        bitwise reads of the batch still coalesce into one
        ``pim_op_many`` stream.
        """
        rt = self.runtime
        out: List[Optional[ExecutedCall]] = [None] * len(calls)
        plain_slots = []
        staged = []
        requests = []
        for i, call in enumerate(calls):
            if call.analytics is not None:
                out[i] = self._execute_analytics(call)
                continue
            sources = [self._handles[(call.tenant, n)] for n in call.names]
            n_bits = min(h.n_bits for h in sources)
            dest = rt.pim_malloc(n_bits, self.group_of(call.tenant))
            requests.append((call.op, dest, sources, n_bits))
            staged.append((dest, n_bits))
            plain_slots.append(i)
        # pim_op_many routes through the planner (CSE and cache serves)
        # when the runtime has one, and is plain submit+flush
        # otherwise; results come back in submission order either way
        results = rt.pim_op_many(requests) if requests else []
        for i, (dest, n_bits), result in zip(plain_slots, staged, results):
            bits = rt.pim_read(dest, n_bits)
            rt.pim_free(dest)
            out[i] = ExecutedCall(
                bits=bits,
                popcount=int(bits.sum()),
                latency_s=result.latency * self.config.timing_scale,
                energy_j=result.energy * self.config.energy_scale,
                steps=result.steps,
                in_memory=result.steps > 0,
            )
        return out

    def _arith_pool(self, tenant: str, n_bits: int) -> ScratchPool:
        key = (tenant, n_bits)
        pool = self._arith_pools.get(key)
        if pool is None:
            # scratch must share the tenant's affinity group: in-memory
            # bitwise ops require same-chip placement with the operands
            pool = ScratchPool(
                self.runtime,
                n_bits,
                group=self.group_of(tenant),
            )
            self._arith_pools[key] = pool
        return pool

    def _execute_analytics(self, call: ServiceCall) -> ExecutedCall:
        """Run one filter+aggregate query on the resident vectors.

        Every gate goes through the runtime (priced by the controller,
        planned and compiled like any other stream); the cost of the
        whole kernel sequence is the runtime accounting delta, exactly
        how :meth:`update_vector` prices delta repair.  On a compiled
        runtime a steady repeated query replays its
        :class:`~repro.arith.compile.AnalyticsProgram` instead --
        identical answers, bits and pricing, no planner work.
        """
        filters, aggregate = call.analytics
        run = self.analytics_compiler.run(
            filters, aggregate, call.tenant, partial(self._analytics_body, call)
        )
        return ExecutedCall(
            bits=run.bits,
            popcount=run.popcount,
            latency_s=run.latency_s * self.config.timing_scale,
            energy_j=run.energy_j * self.config.energy_scale,
            steps=run.instructions,
            in_memory=True,
            value=run.value,
            groups=run.groups,
        )

    def _analytics_body(self, call: ServiceCall):
        """``(pool, evaluate, leaves_fn)`` of one interpreted analytics
        call (see :meth:`AnalyticsCompiler.run`)."""
        rt = self.runtime
        tenant = call.tenant
        filters, aggregate = call.analytics
        handles = {n: self._handles[(tenant, n)] for n in call.names}
        pool = self._arith_pool(tenant, min(h.n_bits for h in handles.values()))

        def evaluate():
            masks = []
            requests: list = []
            for pred in filters:
                if pred[0] == "cmp":
                    _, column, op, value, n_bits = pred
                    planes = [
                        handles[bitslice_vector_name(column, j)]
                        for j in range(n_bits)
                    ]
                    masks.append(
                        compare_const(pool, planes, op, value, requests)
                    )
                else:
                    _, column, lo, hi = pred
                    bins = [
                        handles[bin_vector_name(column, b)]
                        for b in range(lo, hi + 1)
                    ]
                    dest = pool.take()
                    if len(bins) == 1:
                        requests.append(("or", dest, [bins[0], pool.zero]))
                    else:
                        requests.append(("or", dest, bins))
                    masks.append(dest)
            mask = (
                combine_masks(pool, masks, requests)
                if masks
                else copy_plane(pool, pool.ones, requests)
            )
            # all predicate chains plus the conjunction land as one wave
            if requests:
                rt.pim_op_many(requests)
            # one to-host stream materialises the mask bits AND its
            # count (the count is free once the bits crossed the bus)
            bits = mask_bits(pool, mask)
            popcount = int(bits.sum())
            groups: Optional[Tuple[int, ...]] = None
            if aggregate[0] == "count":
                value = float(popcount)
            elif aggregate[0] == "sum":
                _, column, n_bits = aggregate
                planes = [
                    handles[bitslice_vector_name(column, j)]
                    for j in range(n_bits)
                ]
                value = float(masked_sum(pool, planes, mask))
            else:
                _, column, n_bins = aggregate
                bins = [
                    handles[bin_vector_name(column, b)]
                    for b in range(n_bins)
                ]
                groups = tuple(masked_histogram(pool, bins, mask))
                value = float(sum(groups))
            return popcount, value, groups, bits

        return pool, evaluate, lambda: list(handles.values()) + pool._constants

    def replay(self, call: ServiceCall, primary: ExecutedCall) -> ExecutedCall:
        """Never called: the scheduler no longer folds equal-content
        calls.  The name stays because ``benchmarks/e2e``'s ledger
        wraps ``ResidentPimEngine.replay``; drop both together."""
        raise NotImplementedError("equal-content calls are not folded")

    def wear_monitor(self) -> WearMonitor:
        return WearMonitor(
            self.runtime.system.memory,
            self.runtime.system.technology,
        )


class HostOracleEngine(ServiceEngine):
    """Any registered backend, with vectors held host-side."""

    def __init__(self, config: SystemConfig, n_shards: int = 1):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.config = config
        self.backend = registry.create(config.backend, config)
        self.name = self.backend.name
        self._vectors: Dict[Tuple[str, str], np.ndarray] = {}
        self._tenant_shard: Dict[str, int] = {}
        self._shards = n_shards

    def capabilities(self) -> BackendCapabilities:
        return self.backend.capabilities()

    def load_vector(self, tenant: str, name: str, bits: np.ndarray) -> None:
        key = (tenant, name)
        if key in self._vectors:
            raise ValueError(f"vector {name!r} already loaded for {tenant!r}")
        self._vectors[key] = np.asarray(bits, dtype=np.uint8).copy()
        if tenant not in self._tenant_shard:
            # registration order round-robin: deterministic and balanced
            self._tenant_shard[tenant] = len(self._tenant_shard) % self._shards

    def update_vector(
        self, tenant: str, name: str, bits: np.ndarray
    ) -> ExecutedCall:
        key = (tenant, name)
        old = self._vectors.get(key)
        if old is None:
            raise ValueError(f"vector {name!r} not loaded for {tenant!r}")
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size != old.size:
            raise ValueError(
                f"update size {bits.size} != loaded size {old.size} "
                f"for {tenant!r}/{name!r}"
            )
        changed = int(np.count_nonzero(old != bits))
        self._vectors[key] = bits.copy()
        # host-side vectors: the overwrite is a host memcpy, free on the
        # simulated device timeline
        return ExecutedCall(
            bits=np.zeros(0, dtype=np.uint8),
            popcount=changed,
            latency_s=0.0,
            energy_j=0.0,
            steps=0,
            in_memory=False,
        )

    def host_vector(self, tenant: str, name: str) -> np.ndarray:
        return self._vectors[(tenant, name)]

    def has_vector(self, tenant: str, name: str) -> bool:
        return (tenant, name) in self._vectors

    def tenant_vectors(self, tenant: str) -> Dict[str, np.ndarray]:
        return {
            name: bits.copy()
            for (owner, name), bits in self._vectors.items()
            if owner == tenant
        }

    def unload_tenant(self, tenant: str) -> int:
        keys = [key for key in self._vectors if key[0] == tenant]
        for key in keys:
            del self._vectors[key]
        self._tenant_shard.pop(tenant, None)
        return len(keys)

    @property
    def n_shards(self) -> int:
        return self._shards

    def shard_of(self, tenant: str) -> int:
        return self._tenant_shard.get(tenant, 0)

    def execute(self, calls: Sequence[ServiceCall]) -> List[ExecutedCall]:
        out: List[Optional[ExecutedCall]] = [None] * len(calls)
        plain_slots = []
        requests = []
        for i, call in enumerate(calls):
            if call.analytics is not None:
                # host-side vectors: analytics evaluates as plain numpy,
                # free on the simulated device timeline (same convention
                # as this engine's updates)
                filters, aggregate = call.analytics
                mask, value, groups = oracle_analytics(
                    self, call.tenant, filters, aggregate
                )
                out[i] = ExecutedCall(
                    bits=mask,
                    popcount=int(mask.sum()),
                    latency_s=0.0,
                    energy_j=0.0,
                    steps=0,
                    in_memory=False,
                    value=value,
                    groups=groups,
                )
                continue
            requests.append(
                (
                    call.op,
                    [self._vectors[(call.tenant, n)] for n in call.names],
                )
            )
            plain_slots.append(i)
        runs = self.backend.bitwise_many(requests) if requests else []
        for i, run in zip(plain_slots, runs):
            out[i] = ExecutedCall(
                bits=run.bits,
                popcount=int(run.bits.sum()),
                latency_s=run.stats.latency,
                energy_j=run.stats.energy,
                steps=run.stats.steps,
                in_memory=run.stats.in_memory,
            )
        return out


def build_engine(
    config: SystemConfig, host_shards: int = 1, runtime=None
) -> ServiceEngine:
    """The engine a :class:`SystemConfig` calls for.

    ``pinatubo`` gets the resident shard-aware engine, planned and
    compiled; a custom planner configuration or a caller-built system
    (e.g. a benchmark geometry) is injected with ``runtime=``.
    Everything else goes through the backend protocol host-side.
    """
    if config.backend == "pinatubo":
        return ResidentPimEngine(config, runtime=runtime)
    if runtime is not None:
        raise ValueError("runtime injection only applies to 'pinatubo'")
    return HostOracleEngine(config, n_shards=host_shards)


def oracle_bits(
    engine: ServiceEngine, tenant: str, op: str, names: Sequence[str]
) -> np.ndarray:
    """Numpy-oracle result for a request, off the host shadow copies."""
    operands = [engine.host_vector(tenant, n) for n in names]
    n_bits = min(o.size for o in operands)
    return bitwise_oracle(op, [o[:n_bits] for o in operands])


def _oracle_column(
    engine: ServiceEngine, tenant: str, column: str, n_bits: int
) -> np.ndarray:
    """Recompose a bit-sliced column's values from its plane shadows."""
    planes = [
        engine.host_vector(tenant, bitslice_vector_name(column, j))
        for j in range(n_bits)
    ]
    n = min(p.size for p in planes)
    values = np.zeros(n, dtype=np.int64)
    for j, plane in enumerate(planes):
        values += plane[:n].astype(np.int64) << j
    return values


def oracle_analytics(
    engine: ServiceEngine, tenant: str, filters, aggregate
) -> Tuple[np.ndarray, float, Optional[Tuple[int, ...]]]:
    """Numpy-oracle evaluation of one analytics query off the shadows.

    Returns ``(mask_bits, value, groups)`` -- the exact triple the PIM
    execution must reproduce (``verify_results`` compares all three).
    """
    mask: Optional[np.ndarray] = None
    for pred in filters:
        if pred[0] == "cmp":
            _, column, op, value, n_bits = pred
            values = _oracle_column(engine, tenant, column, n_bits)
            part = oracle_compare_const(values, op, value)
        else:
            _, column, lo, hi = pred
            bins = [
                engine.host_vector(tenant, bin_vector_name(column, b))
                for b in range(lo, hi + 1)
            ]
            n = min(b.size for b in bins)
            part = np.zeros(n, dtype=np.uint8)
            for b in bins:
                part |= b[:n]
        if mask is None:
            mask = part
        else:
            n = min(mask.size, part.size)
            mask = mask[:n] & part[:n]
    if mask is None:
        # unfiltered aggregate: every row of the referenced column
        if aggregate[0] == "sum":
            n = _oracle_column(
                engine, tenant, aggregate[1], aggregate[2]
            ).size
        else:
            n = engine.host_vector(
                tenant, bin_vector_name(aggregate[1], 0)
            ).size
        mask = np.ones(n, dtype=np.uint8)
    groups: Optional[Tuple[int, ...]] = None
    if aggregate[0] == "count":
        value = float(int(mask.sum()))
    elif aggregate[0] == "sum":
        _, column, n_bits = aggregate
        values = _oracle_column(engine, tenant, column, n_bits)
        n = min(values.size, mask.size)
        value = float(int(values[:n][mask[:n].astype(bool)].sum()))
    else:
        _, column, n_bins = aggregate
        counts = []
        for b in range(n_bins):
            bits = engine.host_vector(tenant, bin_vector_name(column, b))
            n = min(bits.size, mask.size)
            counts.append(int((bits[:n] & mask[:n]).sum()))
        groups = tuple(counts)
        value = float(sum(groups))
    return mask, value, groups
