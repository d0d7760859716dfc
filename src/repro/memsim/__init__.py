"""Main-memory simulator substrate.

Models the physical/logical hierarchy of paper Fig. 3 (channel / rank /
chip / bank / subarray / mat), DDR bus and timing, a memory controller
that executes command streams, and functional memory modules that store
real bits (packed numpy arrays) so every operation's *data* is exact while
timing/energy are analytical.

- :mod:`repro.memsim.geometry` -- hierarchy dimensions and derived sizes.
- :mod:`repro.memsim.address` -- row-frame address decomposition and
  operation locality classification (intra-subarray / inter-subarray /
  inter-bank / inter-chip).
- :mod:`repro.memsim.timing` -- DDR3-1600 and PCM timing parameter sets.
- :mod:`repro.memsim.bus` -- command/data bus cost accounting.
- :mod:`repro.memsim.mainmem` -- functional NVM and DRAM main memory.
- :mod:`repro.memsim.controller` -- command-stream execution, mode
  registers, per-command latency/energy accounting.
"""

from repro.memsim.geometry import MemoryGeometry, DEFAULT_GEOMETRY, DRAM_GEOMETRY
from repro.memsim.address import (
    RowAddress,
    AddressMapper,
    OpLocality,
    classify_locality,
)
from repro.memsim.timing import DDR3_1600, TimingParams, nvm_timing
from repro.memsim.bus import DDRBus, BusStats
from repro.memsim.mainmem import MainMemory
from repro.memsim.controller import (
    MemoryController,
    Command,
    CommandKind,
    ExecutionStats,
)
from repro.memsim.banks import (
    BankStateMachine,
    HostAccessSimulator,
    StreamReport,
)

__all__ = [
    "MemoryGeometry",
    "DEFAULT_GEOMETRY",
    "DRAM_GEOMETRY",
    "RowAddress",
    "AddressMapper",
    "OpLocality",
    "classify_locality",
    "DDR3_1600",
    "TimingParams",
    "nvm_timing",
    "DDRBus",
    "BusStats",
    "MainMemory",
    "MemoryController",
    "Command",
    "CommandKind",
    "ExecutionStats",
    "BankStateMachine",
    "HostAccessSimulator",
    "StreamReport",
]
