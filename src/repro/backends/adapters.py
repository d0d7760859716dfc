"""Stock backends: every evaluated substrate behind the one protocol.

Registered names (see :data:`repro.backends.registry.registry`):

- ``pinatubo``          functional Pinatubo runtime (driver-batched
                        ``bitwise_many``; ``max_rows=2`` gives Pinatubo-2)
- ``simd``              the SIMD CPU roofline (paper Section 6.1); its
                        main memory follows ``config.cpu_memory``
- ``kernel``            the cache-hierarchy-backed instruction-level SIMD
                        kernel model (port-pressure compute leg)
- ``sdram``             in-DRAM charge-sharing AND/OR, analytical
- ``sdram_functional``  in-DRAM computing executed for real (RowClone +
                        triple-row activation on a functional DRAM)
- ``acpim``             digital accelerator-in-memory
- ``ideal``             zero-cost bitwise ceiling

Cost-model schemes get functional semantics from the numpy oracle and a
loop-based ``bitwise_many``; the Pinatubo backend routes both entry
points through the runtime driver, so the whole stream is priced as one
command batch (the PR 1 engine).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.backends.config import SystemConfig
from repro.backends.protocol import (
    ALL_OPS,
    BackendCapabilities,
    BackendRun,
    BitwiseCall,
    BulkBitwiseBackend,
    RunStats,
    bitwise_oracle,
)
from repro.backends.registry import registry
from repro.baselines.acpim import AcPim
from repro.baselines.base import AccessPattern, BaselineCost, BitwiseBaseline
from repro.baselines.ideal import IdealPim
from repro.baselines.kernel import PortConfig, kernel_compute_time
from repro.baselines.sdram import SDram
from repro.baselines.sdram_functional import SDramExecutor
from repro.baselines.simd import SimdCpu
from repro.core.model import PinatuboModel
from repro.core.ops import PimOp
from repro.energy.cacti import MemorySystemModel
from repro.memsim.geometry import DRAM_GEOMETRY
from repro.memsim.timing import DDR3_1600
from repro.nvm.technology import get_technology


def _scaled(cost: BaselineCost, config: SystemConfig) -> BaselineCost:
    """Apply the config's timing/energy knobs (exact at the 1.0 default)."""
    if config.timing_scale == 1.0 and config.energy_scale == 1.0:
        return cost
    return BaselineCost(
        latency=cost.latency * config.timing_scale,
        energy=cost.energy * config.energy_scale,
        offloaded=cost.offloaded,
    )


def _operand_bits(operands: Sequence[np.ndarray]) -> int:
    """Common length of the operand bit arrays (validated)."""
    if not operands:
        raise ValueError("bitwise op needs at least one operand")
    n_bits = int(np.asarray(operands[0]).size)
    if any(np.asarray(o).size != n_bits for o in operands):
        raise ValueError("operand lengths differ")
    if n_bits < 1:
        raise ValueError("operands must be non-empty")
    return n_bits


class CostModelBackend(BulkBitwiseBackend):
    """Oracle semantics glued to an analytical cost model.

    Wraps any legacy :class:`~repro.baselines.base.BitwiseBaseline`:
    pricing delegates to the model bit-for-bit (the Fig. 10-12 golden
    test rides on this), functional results come from the numpy oracle.
    """

    def __init__(
        self,
        model: BitwiseBaseline,
        capabilities: BackendCapabilities,
        config: SystemConfig,
        name: Optional[str] = None,
    ):
        self.model = model
        self.config = config
        self.name = name or model.name
        self._caps = capabilities

    def capabilities(self) -> BackendCapabilities:
        return self._caps

    def bitwise_cost(
        self,
        op: str,
        n_operands: int,
        vector_bits: int,
        access: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> BaselineCost:
        return _scaled(
            self.model.bitwise_cost(op, n_operands, vector_bits, access),
            self.config,
        )

    def bitwise(
        self,
        op: str,
        operands: Sequence[np.ndarray],
        access: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> BackendRun:
        with telemetry.span(f"backends.{self.name}.bitwise", op=op) as sp:
            bits = bitwise_oracle(op, operands)
            n_bits = _operand_bits(operands)
            cost = self.bitwise_cost(op, len(operands), n_bits, access)
            stats = RunStats(
                backend=self.name,
                op=PimOp.parse(op).value,
                latency=cost.latency,
                energy=cost.energy,
                bits_processed=n_bits * len(operands),
                in_memory=cost.offloaded,
                steps=0,
            )
            # analytic backend: no controller beneath, so the backend
            # span is the leaf that carries the cost attribution
            sp.add(latency_s=stats.latency, energy_j=stats.energy)
            return BackendRun(bits=bits, stats=stats.validate())


class PinatuboBackend(BulkBitwiseBackend):
    """The functional Pinatubo stack behind the backend protocol.

    Functional ops run through the full runtime (allocator -> driver ->
    executor -> controller); :meth:`bitwise_many` submits the whole
    stream and flushes it as **one** driver batch, so the PR 1 batched
    engine is the default path rather than a Pinatubo-only special case.
    Trace pricing delegates to :class:`~repro.core.model.PinatuboModel`
    with the same technology/geometry/row limit.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.pricer = PinatuboModel(
            geometry=config.geometry_object(),
            technology=config.technology_object(),
            max_rows=config.max_rows,
        )
        self.name = self.pricer.name  # "Pinatubo-<rows>"
        self._runtime = None

    @property
    def runtime(self):
        """The lazily-built functional runtime (pricing never needs it)."""
        if self._runtime is None:
            self._runtime = self.build_runtime()
        return self._runtime

    def build_runtime(self, **kwargs):
        """Construct a fresh :class:`~repro.runtime.api.PimRuntime` over
        this backend's configuration.

        The one place a functional runtime is assembled from a
        declarative config: ``PimRuntime.from_config`` routes here
        through :func:`repro.backends.build_system`, so the registry is
        the single source of truth for how a config becomes a system.
        ``kwargs`` (``plan``/``plan_cache_bytes``/``compile``) pass
        through to the :class:`PimRuntime` constructor.
        """
        from repro.core.pinatubo import PinatuboSystem
        from repro.runtime.api import PimRuntime

        return PimRuntime(
            PinatuboSystem.from_config(self.config),
            policy=self.config.placement_policy(),
            **kwargs,
        )

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            ops=frozenset(ALL_OPS),
            max_fanin=self.pricer.limits.or_rows,
            in_memory=True,
            placement_sensitive=True,
            functional=True,
        )

    def bitwise_cost(
        self,
        op: str,
        n_operands: int,
        vector_bits: int,
        access: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> BaselineCost:
        return _scaled(
            self.pricer.bitwise_cost(op, n_operands, vector_bits, access),
            self.config,
        )

    def bitwise(
        self,
        op: str,
        operands: Sequence[np.ndarray],
        access: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> BackendRun:
        return self.bitwise_many([(op, operands)], access)[0]

    def bitwise_many(
        self,
        calls: Sequence[BitwiseCall],
        access: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> List[BackendRun]:
        """Execute a stream as one driver batch (one command batch).

        Placement follows the runtime's allocator policy; the ``access``
        argument is accepted for protocol uniformity (pass a config with
        ``placement="interleaved"`` to model scattered operands).
        """
        rt = self.runtime
        del access  # placement is the allocator's job on this backend
        with telemetry.span(
            f"backends.{self.name}.bitwise_many", calls=len(calls)
        ):
            return self._bitwise_many_batched(rt, calls)

    def _bitwise_many_batched(self, rt, calls) -> List[BackendRun]:
        staged = []
        for op, operands in calls:
            arrays = [np.asarray(o, dtype=np.uint8) for o in operands]
            n_bits = _operand_bits(arrays)
            sources = [rt.pim_malloc(n_bits, "backend") for _ in arrays]
            for handle, bits in zip(sources, arrays):
                rt.pim_write(handle, bits)
            dest = rt.pim_malloc(n_bits, "backend")
            rt.driver.submit(op, dest, sources, n_bits)
            staged.append((op, dest, sources, n_bits))
        results = rt.driver.flush()

        read_back = rt.pim_read_many(
            [dest for _op, dest, _sources, _n in staged],
            [n_bits for _op, _dest, _sources, n_bits in staged],
        )
        runs = []
        for (op, dest, sources, n_bits), result, bits in zip(
            staged, results, read_back
        ):
            acct = result.accounting
            stats = RunStats(
                backend=self.name,
                op=PimOp.parse(op).value,
                latency=acct.latency * self.config.timing_scale,
                energy=acct.energy * self.config.energy_scale,
                bits_processed=acct.bits_processed,
                in_memory=result.steps > 0,
                steps=result.steps,
            )
            runs.append(BackendRun(bits=bits, stats=stats.validate()))
            for handle in sources:
                rt.pim_free(handle)
            rt.pim_free(dest)
        return runs


class KernelCpu(SimdCpu):
    """SIMD CPU whose compute leg is the port-pressure kernel model.

    Refines the roofline's lane bound with the unrolled SSE/AVX loop's
    issue/load/store/ALU port pressure (:mod:`repro.baselines.kernel`)
    over the same cache-backed memory legs.
    """

    name = "SIMD-kernel"

    def __init__(self, *args, ports: PortConfig = PortConfig(), **kwargs):
        super().__init__(*args, **kwargs)
        self.ports = ports

    def _compute_time(self, n_operands: int, vector_bits: int) -> float:
        return kernel_compute_time(
            n_operands, vector_bits, self.config, self.ports
        )


class SDramFunctionalBackend(BulkBitwiseBackend):
    """In-DRAM computing executed for real (RowClone + TRA).

    AND/OR run inside a functional DRAM via
    :class:`~repro.baselines.sdram_functional.SDramExecutor`: operands
    are written into data rows, accumulated pairwise through triple-row
    activations (chunked across subarrays for long vectors), and the
    result row is read back.  XOR/INV fall back to the SIMD CPU over
    DRAM -- exactly the penalty the paper charges the scheme.
    """

    name = "S-DRAM-functional"

    #: per 2-row op: copy in both operands + program the control row +
    #: copy the result out (AAPs), around one triple-row activation
    _AAPS_PER_OP = 4
    _TRAS_PER_OP = 1

    def __init__(self, config: SystemConfig):
        self.config = config
        geometry = (
            DRAM_GEOMETRY
            if config.geometry == "default"
            else config.geometry_object()
        )
        self.executor = SDramExecutor(geometry, DDR3_1600)
        self.cpu = SimdCpu.with_dram()

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            ops=frozenset(("or", "and")),
            max_fanin=2,
            in_memory=True,
            placement_sensitive=False,
            functional=True,
        )

    # -- pricing -------------------------------------------------------------

    def _op_cost(self, chunk_bits: int) -> BaselineCost:
        """Cost of one pairwise in-DRAM op on one (full-row) chunk."""
        timing = self.executor.timing
        primitives = self._AAPS_PER_OP + self._TRAS_PER_OP
        latency = primitives * timing.t_rc
        e_row = self.executor.geometry.row_bits * (
            timing.e_activate_per_bit + timing.e_sense_per_bit
        )
        energy = (2 * self._AAPS_PER_OP + 3 * self._TRAS_PER_OP) * e_row
        del chunk_bits  # whole rows activate regardless of the used bits
        return BaselineCost(latency=latency, energy=energy, offloaded=True)

    def bitwise_cost(
        self,
        op: str,
        n_operands: int,
        vector_bits: int,
        access: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> BaselineCost:
        if not self.supports(op):
            return _scaled(
                self.cpu.bitwise_cost(op, n_operands, vector_bits, access),
                self.config,
            )
        chunks = self.executor.geometry.rows_for_bits(vector_bits)
        per_op = self._op_cost(self.executor.geometry.row_bits)
        n_ops = max(1, n_operands - 1) * chunks
        return _scaled(
            BaselineCost(
                latency=per_op.latency * n_ops,
                energy=per_op.energy * n_ops,
                offloaded=True,
            ),
            self.config,
        )

    # -- functional execution ------------------------------------------------

    def bitwise(
        self,
        op: str,
        operands: Sequence[np.ndarray],
        access: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> BackendRun:
        with telemetry.span(f"backends.{self.name}.bitwise", op=op) as sp:
            arrays = [np.asarray(o, dtype=np.uint8) for o in operands]
            n_bits = _operand_bits(arrays)
            expected = bitwise_oracle(op, arrays)  # validates op/arity too
            op = PimOp.parse(op).value
            if op not in ("or", "and"):
                cost = self.bitwise_cost(op, len(arrays), n_bits, access)
                stats = RunStats(
                    backend=self.name,
                    op=op,
                    latency=cost.latency,
                    energy=cost.energy,
                    bits_processed=n_bits * len(arrays),
                    in_memory=False,
                    steps=0,
                )
                sp.add(latency_s=stats.latency, energy_j=stats.energy)
                return BackendRun(bits=expected, stats=stats.validate())

            g = self.executor.geometry
            row_bits = g.row_bits
            chunks = g.rows_for_bits(n_bits)
            latency = 0.0
            energy = 0.0
            steps = 0
            parts = []
            acc_row = len(arrays)  # data row accumulating the result
            for c in range(chunks):
                lo, hi = c * row_bits, min((c + 1) * row_bits, n_bits)
                for i, bits in enumerate(arrays):
                    self.executor.write_data_row(
                        c, i, _padded(bits[lo:hi], row_bits)
                    )
                self.executor.bitwise(op, acc_row, 0, 1, subarray_index=c)
                steps += 1
                for i in range(2, len(arrays)):
                    self.executor.bitwise(
                        op, acc_row, acc_row, i, subarray_index=c
                    )
                    steps += 1
                per_op = self._op_cost(row_bits)
                latency += per_op.latency * max(1, len(arrays) - 1)
                energy += per_op.energy * max(1, len(arrays) - 1)
                parts.append(self.executor.read_data_row(c, acc_row, hi - lo))
            bits = np.concatenate(parts).astype(np.uint8)
            stats = RunStats(
                backend=self.name,
                op=op,
                latency=latency * self.config.timing_scale,
                energy=energy * self.config.energy_scale,
                bits_processed=n_bits * len(arrays),
                in_memory=True,
                steps=steps,
            )
            sp.add(latency_s=stats.latency, energy_j=stats.energy)
            return BackendRun(bits=bits, stats=stats.validate())


def _padded(bits: np.ndarray, row_bits: int) -> np.ndarray:
    if bits.size == row_bits:
        return bits
    out = np.zeros(row_bits, dtype=np.uint8)
    out[: bits.size] = bits
    return out


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------


def _cpu_for(config: SystemConfig, cls=SimdCpu):
    """A SIMD CPU paired with the config's ``cpu_memory``."""
    if config.cpu_memory == "dram":
        return cls.with_dram()
    if config.cpu_memory == "pcm":
        return cls.with_pcm()
    return cls(memory=MemorySystemModel.nvm(get_technology(config.cpu_memory)))


_CPU_CAPS = BackendCapabilities(
    ops=frozenset(ALL_OPS),
    max_fanin=2,  # pairwise SIMD lanes; wide fan-in is (n-1) lane passes
    in_memory=False,
    placement_sensitive=True,  # row misses at vector boundaries
    functional=False,
)


@registry.register("pinatubo")
def _build_pinatubo(config: SystemConfig) -> PinatuboBackend:
    return PinatuboBackend(config)


@registry.register("simd")
def _build_simd(config: SystemConfig) -> CostModelBackend:
    return CostModelBackend(_cpu_for(config), _CPU_CAPS, config, name="SIMD")


@registry.register("kernel")
def _build_kernel(config: SystemConfig) -> CostModelBackend:
    return CostModelBackend(
        _cpu_for(config, KernelCpu), _CPU_CAPS, config, name="SIMD-kernel"
    )


@registry.register("sdram")
def _build_sdram(config: SystemConfig) -> CostModelBackend:
    caps = BackendCapabilities(
        ops=frozenset(("or", "and")),
        max_fanin=2,
        in_memory=True,
        placement_sensitive=True,
        functional=False,
    )
    return CostModelBackend(SDram(), caps, config, name="S-DRAM")


@registry.register("sdram_functional")
def _build_sdram_functional(config: SystemConfig) -> SDramFunctionalBackend:
    return SDramFunctionalBackend(config)


@registry.register("acpim")
def _build_acpim(config: SystemConfig) -> CostModelBackend:
    caps = BackendCapabilities(
        ops=frozenset(ALL_OPS),
        max_fanin=1,  # every operand is a serial digital row read
        in_memory=True,
        placement_sensitive=False,
        functional=False,
    )
    return CostModelBackend(
        AcPim(technology=config.technology_object()), caps, config,
        name="AC-PIM",
    )


@registry.register("ideal")
def _build_ideal(config: SystemConfig) -> CostModelBackend:
    caps = BackendCapabilities(
        ops=frozenset(ALL_OPS),
        max_fanin=1 << 30,  # no substrate constraint at zero cost
        in_memory=True,
        placement_sensitive=False,
        functional=False,
    )
    return CostModelBackend(IdealPim(), caps, config, name="Ideal")
