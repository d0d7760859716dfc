"""Execution engines: how the service drives a backend.

The scheduler hands an engine one *coalesced batch* of the requests the
client built (:class:`~repro.service.request.QueryRequest` and
:class:`~repro.service.request.AnalyticsRequest`, possibly from many
tenants) and gets back one :class:`ExecutedCall` per request -- result
bits plus the simulated latency/energy of that request alone.  Two
engines cover every registered backend:

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

:class:`ServiceEngine` keeps the one host-side shadow copy of every
loaded vector (what the service's numpy-oracle parity checks compare
against) and the tenant -> shard map; an engine adds only how a vector
lands, is overwritten and is released on its substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
from repro.arith.kernels import ScratchPool

# the end-to-end benchmark's ledger times the kernels under the names
# this module imports them by; the analytics query body that calls them
# now lives in repro.arith.query
from repro.arith.kernels import (  # noqa: F401
    combine_masks,
    compare_const,
    copy_plane,
    mask_bits,
    masked_histogram,
    masked_sum,
)
from repro.arith.oracle import oracle_compare_const
from repro.service.request import (
    AnalyticsRequest,
    QueryRequest,
    spec_vector_names,
)

__all__ = [
    "ExecutedCall",
    "HostOracleEngine",
    "ResidentPimEngine",
    "ServiceEngine",
    # re-exported for compatibility; the class now lives with the
    # backend protocol (repro.backends.UnsupportedOpError)
    "UnsupportedOpError",
    "build_engine",
    "oracle_analytics",
]


#: what an engine executes: plain reads and standing queries
#: (``QueryRequest``) and filter+aggregate queries (``AnalyticsRequest``)
ReadRequest = Union[QueryRequest, AnalyticsRequest]


@dataclass
class ExecutedCall:
    """Result + per-request simulated cost of one executed call."""

    bits: np.ndarray
    popcount: int
    latency_s: float
    energy_j: float
    steps: int
    #: analytics aggregate value (count / masked sum / histogram total)
    value: float = 0.0
    #: analytics histogram per-bin counts; None otherwise
    groups: Optional[Tuple[int, ...]] = None


class ServiceEngine:
    """What the scheduler needs from an execution substrate.

    Holds the one host shadow copy of every loaded vector and the
    tenant -> shard map.  A substrate's :meth:`load_vector` checks the
    load with :meth:`_check_load` and shadows it once it has landed; its
    :meth:`update_vector` keeps the shadow through
    :meth:`_shadow_update`, and its :meth:`unload_tenant` frees what it
    holds before this class drops the shadows.
    """

    name: str = "engine"

    def __init__(self) -> None:
        #: (tenant, name) -> host shadow, in load order
        self._host: Dict[Tuple[str, str], np.ndarray] = {}
        #: tenant -> shard, fixed by the tenant's first load
        self._tenant_shard: Dict[str, int] = {}

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
        / ``energy_j`` the full simulated cost of landing the write.
        On the resident engine that is the bus transfer alone: the
        planner only marks the cached sub-results the write reaches
        dirty, and the read that next serves one pays its repair.
        """
        raise NotImplementedError

    def _check_load(self, tenant: str, name: str, bits) -> np.ndarray:
        """A new vector's bits as uint8; rejects a second load of a name."""
        if (tenant, name) in self._host:
            raise ValueError(f"vector {name!r} already loaded for {tenant!r}")
        return np.asarray(bits, dtype=np.uint8)

    def _shadow_update(
        self, tenant: str, name: str, bits
    ) -> Tuple[np.ndarray, int]:
        """Shadow an overwrite; returns ``(bits as uint8, changed)``.

        ``changed`` is ``popcount(old XOR new)``, the write's reported
        popcount.  Rejects unknown vectors and size changes.
        """
        key = (tenant, name)
        old = self._host.get(key)
        if old is None:
            raise ValueError(f"vector {name!r} not loaded for {tenant!r}")
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size != old.size:
            raise ValueError(
                f"update size {bits.size} != loaded size {old.size} "
                f"for {tenant!r}/{name!r}"
            )
        self._host[key] = bits.copy()
        return bits, int(np.count_nonzero(old != bits))

    def host_vector(self, tenant: str, name: str) -> np.ndarray:
        """Host shadow copy (the oracle's input)."""
        return self._host[(tenant, name)]

    def has_vector(self, tenant: str, name: str) -> bool:
        return (tenant, name) in self._host

    def tenant_vectors(self, tenant: str) -> Dict[str, np.ndarray]:
        """Host shadows of every vector the tenant has loaded, by name.

        What cluster rebalancing copies when a tenant moves between
        nodes (the insertion order is the original load order, so a
        re-load on another node places vectors identically).
        """
        return {
            name: bits.copy()
            for (owner, name), bits in self._host.items()
            if owner == tenant
        }

    def unload_tenant(self, tenant: str) -> int:
        """Drop a tenant's resident vectors; returns how many were freed.

        The decommission path of cluster rebalancing: after the tenant's
        vector set has been copied to its new owner, the old node
        releases the frames (and any cached sub-results reading them).
        """
        keys = [key for key in self._host if key[0] == tenant]
        for key in keys:
            del self._host[key]
        self._tenant_shard.pop(tenant, None)
        return len(keys)

    def shard_of(self, tenant: str) -> int:
        """Which shard the tenant's resident data lives on."""
        return self._tenant_shard.get(tenant, 0)

    def execute(self, requests: Sequence[ReadRequest]) -> List[ExecutedCall]:
        """Run one coalesced batch; one result per request, in order.

        ``request.kind == "analytics"`` runs the filter+aggregate query
        over ``request.filters``/``request.aggregate``; every other
        request applies ``request.op`` to ``request.vectors``.
        """
        raise NotImplementedError

    @property
    def n_shards(self) -> int:
        """Independent placement shards requests can overlap across."""
        return 1

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

        super().__init__()
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
        bits = self._check_load(tenant, name, bits)
        rt = self.runtime
        handle = rt.pim_malloc(int(bits.size), self.group_of(tenant))
        rt.pim_write(handle, bits)
        self._handles[(tenant, name)] = handle
        self._host[(tenant, name)] = bits.copy()
        if tenant not in self._tenant_shard:
            addr = rt.manager.frame_address(handle.frames[0])
            self._tenant_shard[tenant] = (
                addr.channel * rt.system.geometry.banks_per_rank + addr.bank
            )

    def update_vector(
        self, tenant: str, name: str, bits: np.ndarray
    ) -> ExecutedCall:
        bits, changed = self._shadow_update(tenant, name, bits)
        rt = self.runtime
        lat0, en0 = rt.total_latency(), rt.total_energy()
        # the write lands through the runtime's write listener: cached
        # sub-results reading these rows are marked dirty (or dropped
        # when repair cannot reach them); nothing is repaired or priced
        # until a read serves them
        rt.pim_write(self._handles[(tenant, name)], bits)
        return ExecutedCall(
            bits=np.zeros(0, dtype=np.uint8),
            popcount=changed,
            latency_s=(rt.total_latency() - lat0) * self.config.timing_scale,
            energy_j=(rt.total_energy() - en0) * self.config.energy_scale,
            steps=0,
        )

    def unload_tenant(self, tenant: str) -> int:
        for key in [key for key in self._handles if key[0] == tenant]:
            # pim_free runs the allocator's free listeners, so a planned
            # runtime drops every cached sub-result reading these frames
            self.runtime.pim_free(self._handles.pop(key))
        for pool_key in [k for k in self._arith_pools if k[0] == tenant]:
            self._arith_pools.pop(pool_key).free_all()
        return super().unload_tenant(tenant)

    @property
    def n_shards(self) -> int:
        return self._n_shards

    def execute(self, requests: Sequence[ReadRequest]) -> List[ExecutedCall]:
        """One driver batch (or planner wave) for the coalesced stream.

        Analytics requests execute inline in batch order (each is its
        own multi-gate kernel sequence through the planner); the plain
        bitwise reads of the batch still coalesce into one
        ``pim_op_many`` stream.
        """
        rt = self.runtime
        out: List[Optional[ExecutedCall]] = [None] * len(requests)
        plain_slots = []
        dests = []
        widths = []
        ops = []
        for i, request in enumerate(requests):
            if request.kind == "analytics":
                out[i] = self._execute_analytics(request)
                continue
            tenant = request.tenant
            sources = [self._handles[(tenant, n)] for n in request.vectors]
            n_bits = min(h.n_bits for h in sources)
            dest = rt.pim_malloc(n_bits, self.group_of(tenant))
            ops.append((request.op, dest, sources, n_bits))
            dests.append(dest)
            widths.append(n_bits)
            plain_slots.append(i)
        # pim_op_many routes through the planner (CSE and cache serves)
        # when the runtime has one, and is plain submit+flush
        # otherwise; results come back in submission order either way
        results = rt.pim_op_many(ops) if ops else []
        # one read-back for every plain result of the dispatch, then
        # the frees in submission order
        read_back = rt.pim_read_many(dests, widths)
        for i, dest, result, bits in zip(plain_slots, dests, results, read_back):
            rt.pim_free(dest)
            out[i] = ExecutedCall(
                bits=bits,
                popcount=int(bits.sum()),
                latency_s=result.latency * self.config.timing_scale,
                energy_j=result.energy * self.config.energy_scale,
                steps=result.steps,
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

    def _execute_analytics(self, request: AnalyticsRequest) -> ExecutedCall:
        """Run one filter+aggregate query on the resident vectors.

        Every gate goes through the runtime (priced by the controller,
        planned and compiled like any other stream); the cost of the
        whole kernel sequence is the runtime accounting delta, exactly
        how :meth:`update_vector` prices a write.  On a compiled
        runtime a steady repeated query replays its
        :class:`~repro.arith.compile.AnalyticsProgram` instead --
        identical answers, bits and pricing, no planner work.
        """
        run = self.analytics_compiler.run(
            request.filters,
            request.aggregate,
            request.tenant,
            partial(self._analytics_operands, request),
        )
        return ExecutedCall(
            bits=run.bits,
            popcount=run.popcount,
            latency_s=run.latency_s * self.config.timing_scale,
            energy_j=run.energy_j * self.config.energy_scale,
            steps=run.instructions,
            value=run.value,
            groups=run.groups,
        )

    def _analytics_operands(self, request: AnalyticsRequest):
        """``(pool, resolve)`` of one interpreted analytics request (see
        :meth:`AnalyticsCompiler.run`)."""
        tenant = request.tenant
        handles = self._handles
        pool = self._arith_pool(
            tenant, min(handles[(tenant, n)].n_bits for n in request.vectors)
        )

        def resolve(spec) -> list:
            return [handles[(tenant, name)] for name in spec_vector_names(spec)]

        return pool, resolve

    def replay(self, request, primary: ExecutedCall) -> ExecutedCall:
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
        super().__init__()
        self.config = config
        self.backend = registry.create(config.backend, config)
        self.name = self.backend.name
        self._shards = n_shards

    def capabilities(self) -> BackendCapabilities:
        return self.backend.capabilities()

    def load_vector(self, tenant: str, name: str, bits: np.ndarray) -> None:
        bits = self._check_load(tenant, name, bits)
        self._host[(tenant, name)] = bits.copy()
        # registration order round-robin: deterministic and balanced
        self._tenant_shard.setdefault(
            tenant, len(self._tenant_shard) % self._shards
        )

    def update_vector(
        self, tenant: str, name: str, bits: np.ndarray
    ) -> ExecutedCall:
        _, changed = self._shadow_update(tenant, name, bits)
        # host-side vectors: the overwrite is a host memcpy, free on the
        # simulated device timeline
        return ExecutedCall(
            bits=np.zeros(0, dtype=np.uint8),
            popcount=changed,
            latency_s=0.0,
            energy_j=0.0,
            steps=0,
        )

    @property
    def n_shards(self) -> int:
        return self._shards

    def execute(self, requests: Sequence[ReadRequest]) -> List[ExecutedCall]:
        out: List[Optional[ExecutedCall]] = [None] * len(requests)
        plain_slots = []
        ops = []
        for i, request in enumerate(requests):
            if request.kind == "analytics":
                # host-side vectors: analytics evaluates as plain numpy,
                # free on the simulated device timeline (same convention
                # as this engine's updates)
                mask, value, groups = oracle_analytics(
                    self, request.tenant, request.filters, request.aggregate
                )
                out[i] = ExecutedCall(
                    bits=mask,
                    popcount=int(mask.sum()),
                    latency_s=0.0,
                    energy_j=0.0,
                    steps=0,
                    value=value,
                    groups=groups,
                )
                continue
            ops.append(
                (
                    request.op,
                    [self._host[(request.tenant, n)] for n in request.vectors],
                )
            )
            plain_slots.append(i)
        runs = self.backend.bitwise_many(ops) if ops else []
        for i, run in zip(plain_slots, runs):
            out[i] = ExecutedCall(
                bits=run.bits,
                popcount=int(run.bits.sum()),
                latency_s=run.stats.latency,
                energy_j=run.stats.energy,
                steps=run.stats.steps,
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


def _oracle_column(planes) -> np.ndarray:
    """Recompose a bit-sliced column's values from its plane shadows."""
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

    def shadows(spec) -> list:
        return [engine.host_vector(tenant, n) for n in spec_vector_names(spec)]

    mask: Optional[np.ndarray] = None
    for pred in filters:
        vectors = shadows(pred)
        if pred[0] == "cmp":
            part = oracle_compare_const(_oracle_column(vectors), pred[2], pred[3])
        else:  # range: the OR of its bins
            n = min(b.size for b in vectors)
            part = np.zeros(n, dtype=np.uint8)
            for b in vectors:
                part |= b[:n]
        if mask is None:
            mask = part
        else:
            n = min(mask.size, part.size)
            mask = mask[:n] & part[:n]
    kind = aggregate[0]
    vectors = shadows(aggregate)
    values = _oracle_column(vectors) if kind == "sum" else None
    if mask is None:
        # unfiltered aggregate: every row of the referenced column
        mask = np.ones((values if kind == "sum" else vectors[0]).size, dtype=np.uint8)
    groups: Optional[Tuple[int, ...]] = None
    if kind == "count":
        value = float(int(mask.sum()))
    elif kind == "sum":
        n = min(values.size, mask.size)
        value = float(int(values[:n][mask[:n].astype(bool)].sum()))
    else:  # hist: one count per bin
        counts = []
        for bits in vectors:
            n = min(bits.size, mask.size)
            counts.append(int((bits[:n] & mask[:n]).sum()))
        groups = tuple(counts)
        value = float(sum(groups))
    return mask, value, groups
