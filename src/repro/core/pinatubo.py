"""The :class:`PinatuboSystem` facade.

Bundles geometry, NVM technology, timing, functional memory, controller
and executor into the object most users (and all benchmarks) interact
with.  The evaluation's configurations map directly:

- ``PinatuboSystem.pcm()``             -> Pinatubo-128 (the paper default)
- ``PinatuboSystem.pcm(max_rows=2)``   -> Pinatubo-2
- ``PinatuboSystem.stt()``             -> STT-MRAM (2-row limited)
- ``PinatuboSystem.reram()``           -> ReRAM
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.executor import OpResult, PinatuboExecutor
from repro.core.ops import PimOp
from repro.core.stats import OpAccounting
from repro.memsim.address import AddressMapper, RowAddress
from repro.memsim.controller import MemoryController
from repro.memsim.geometry import DEFAULT_GEOMETRY, MemoryGeometry
from repro.memsim.mainmem import MainMemory
from repro.memsim.timing import nvm_timing
from repro.nvm.technology import NVMTechnology, get_technology


class PinatuboSystem:
    """An NVM main memory with Pinatubo PIM support."""

    def __init__(
        self,
        technology: Optional[NVMTechnology] = None,
        geometry: MemoryGeometry = DEFAULT_GEOMETRY,
        max_rows: Optional[int] = None,
    ):
        self.technology = technology or get_technology("pcm")
        self.geometry = geometry
        self.timing = nvm_timing(self.technology)
        self.memory = MainMemory(geometry)
        self.controller = MemoryController(geometry, self.timing)
        self.executor = PinatuboExecutor(
            geometry=geometry,
            technology=self.technology,
            memory=self.memory,
            controller=self.controller,
            max_rows=max_rows,
        )
        self.mapper = AddressMapper(geometry)

    # -- canned configurations ------------------------------------------------

    @classmethod
    def from_config(cls, config) -> "PinatuboSystem":
        """Build a system from a declarative
        :class:`repro.backends.config.SystemConfig` (technology, geometry
        and multi-row limit are all taken from the config)."""
        return cls(
            technology=config.technology_object(),
            geometry=config.geometry_object(),
            max_rows=config.max_rows,
        )

    @classmethod
    def pcm(
        cls,
        max_rows: Optional[int] = None,
        geometry: MemoryGeometry = DEFAULT_GEOMETRY,
    ) -> "PinatuboSystem":
        """The paper's case study: 1T1R PCM main memory."""
        return cls(get_technology("pcm"), geometry, max_rows)

    @classmethod
    def stt(cls, geometry: MemoryGeometry = DEFAULT_GEOMETRY) -> "PinatuboSystem":
        return cls(get_technology("stt"), geometry)

    @classmethod
    def reram(
        cls,
        max_rows: Optional[int] = None,
        geometry: MemoryGeometry = DEFAULT_GEOMETRY,
    ) -> "PinatuboSystem":
        return cls(get_technology("reram"), geometry, max_rows)

    # -- properties ----------------------------------------------------------

    @property
    def max_or_rows(self) -> int:
        """One-step multi-row OR width (128 for PCM, 2 for Pinatubo-2/STT)."""
        return self.executor.limits.or_rows

    @property
    def row_bits(self) -> int:
        return self.geometry.row_bits

    @property
    def internal_bandwidth(self) -> float:
        """Sense-limited internal bandwidth of one rank (B/s)."""
        return (self.geometry.sense_bits_per_step / 8.0) / self.timing.t_cl

    @property
    def ddr_bus_bandwidth(self) -> float:
        """Peak DDR data bandwidth of one channel (B/s)."""
        return self.timing.bus_bandwidth

    # -- convenience data paths ---------------------------------------------------

    def store(self, frames: Sequence[int], bits: np.ndarray) -> OpAccounting:
        """Write a bit-vector into its frames (host path, bus priced)."""
        return self.executor.write_vector(frames, bits)

    def load(
        self, frames: Sequence[int], n_bits: int
    ) -> Tuple[np.ndarray, OpAccounting]:
        """Read a bit-vector back (host path); returns (bits, accounting)."""
        return self.executor.read_vector(frames, n_bits)

    def bitwise(self, op, dest_frames, source_frame_lists, n_bits: int) -> OpResult:
        """dest = op(sources); see :meth:`PinatuboExecutor.bitwise`."""
        return self.executor.bitwise(op, dest_frames, source_frame_lists, n_bits)

    # -- microbenchmark helper (Fig. 9) ------------------------------------------

    def or_throughput(self, vector_bits: int, n_operands: int) -> OpAccounting:
        """Cost of one n-operand OR over fresh vectors of ``vector_bits``.

        Operands are placed consecutively in one subarray per chunk (the
        allocator's best case) -- exactly the Fig. 9 microbenchmark.
        Returns the accounting; ``throughput_gbps`` is the paper's y-axis.
        """
        if n_operands < 2:
            raise ValueError("an OR needs at least 2 operands")
        g = self.geometry
        n_chunks = g.rows_for_bits(vector_bits)
        rows_needed = (n_operands + 1) * n_chunks
        if rows_needed > g.rows_per_subarray * g.subarrays_per_bank:
            raise ValueError("vector set does not fit in one bank")
        rng = np.random.default_rng(vector_bits * 31 + n_operands)

        # Place chunk c of every operand in subarray c (consecutive rows),
        # so each chunk op is intra-subarray, while chunks serialise.
        sources = [[] for _ in range(n_operands)]
        dest = []
        for c in range(n_chunks):
            sub_frames = self._subarray_frames(c)
            for i in range(n_operands):
                frame = sub_frames[i]
                self.memory.write_frame(
                    frame,
                    rng.integers(0, 256, size=g.row_bytes).astype(np.uint8),
                )
                sources[i].append(frame)
            dest.append(sub_frames[n_operands])
        result = self.bitwise(PimOp.OR, dest, sources, vector_bits)
        return result.accounting

    def _subarray_frames(self, subarray_index: int) -> List[int]:
        """Frame numbers of all rows in one subarray of bank 0, rank 0."""
        g = self.geometry
        n_sub = g.subarrays_per_bank
        bank, sub = divmod(subarray_index, n_sub)
        base = self.mapper.encode(RowAddress(0, 0, bank, sub, 0))
        return list(range(base, base + g.rows_per_subarray))
