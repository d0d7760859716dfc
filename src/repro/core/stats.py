"""Operation accounting for Pinatubo executions, and the stats contract.

Costs travel from the controller to the client as one fixed-width
record.  :class:`~repro.memsim.controller.ExecutionStats` (one priced
command stream) and :class:`OpAccounting` (a sequence of PIM
operations) keep their scalar totals -- latency, energy, steps, bits,
bus bytes and commands -- as plain Python numbers, and everything
split by category in one float64 vector, ``record``:

- ``record[KIND_CODES[kind]]`` -- commands issued of each
  :class:`~repro.memsim.controller.CommandKind`;
- ``record[N_KINDS + KIND_CODES[kind]]`` -- their energy (J), the
  paper's Fig. 11 split;
- ``record[LOCALITY_BASE + LOCALITY_CODES[locality]]``
  (:class:`OpAccounting` only) -- combine steps per
  :class:`~repro.memsim.address.OpLocality`.

Combining records is a vector add and an accounting delta a vector
subtraction, element by element in the order the costs were added, so
every float is the same as adding the categories one at a time.
``counts``, ``energy_by_kind`` and ``locality_counts`` are read-only
dicts of the categories counted at least once.

Every stats surface in the repro (:class:`~repro.memsim.controller.
ExecutionStats`, :class:`~repro.memsim.controller.PerfCounters`,
:class:`~repro.runtime.driver.DriverStats`, :class:`~repro.backends.
protocol.RunStats`, :class:`OpAccounting`) converges on one convention,
captured by the structural :class:`StatsLike` protocol:

- ``to_dict()`` -- a JSON-ready dict (enum keys serialised to strings)
- ``summary()`` -- a one-line human-readable digest

``StatsLike`` is a :class:`typing.Protocol`, so the concrete stats
classes satisfy it structurally without importing this module (which
matters: this module imports ``memsim.controller``, which sits below
everything else in the import graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Protocol, runtime_checkable

import numpy as np

from repro.memsim.address import OpLocality
from repro.memsim.controller import N_KINDS, CommandKind, ExecutionStats
from repro.memsim.controller import kind_energies, stats_equal

#: an accounting record is an ExecutionStats record (``record[:LOCALITY_BASE]``)
#: then the combine steps at each locality ``loc``, at
#: ``record[LOCALITY_BASE + LOCALITY_CODES[loc]]``
LOCALITY_BASE = 2 * N_KINDS
_LOCALITIES = tuple(OpLocality)
LOCALITY_CODES = {loc: i for i, loc in enumerate(_LOCALITIES)}
_ZERO_RECORD = np.zeros(LOCALITY_BASE + len(_LOCALITIES))


@runtime_checkable
class StatsLike(Protocol):
    """The shared contract of every stats object in the repro."""

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict of the stats (enum keys become strings)."""
        ...

    def summary(self) -> str:
        """One-line human-readable digest."""
        ...


@dataclass(slots=True)
class OpAccounting:
    """Accumulated cost and locality mix of a sequence of PIM operations."""

    latency: float = 0.0  # s
    energy: float = 0.0  # J
    in_memory_steps: int = 0  # sensing/buffer passes issued
    bus_data_bytes: int = 0
    bus_commands: int = 0
    bits_processed: int = 0  # operand bits consumed by the ops
    #: per-kind counts and energies, then per-locality steps
    record: np.ndarray = field(default_factory=_ZERO_RECORD.copy)

    __eq__ = stats_equal

    @property
    def energy_by_kind(self) -> Dict[CommandKind, float]:
        return kind_energies(self.record)

    @property
    def locality_counts(self) -> Dict[OpLocality, int]:
        counts = self.record[LOCALITY_BASE:].tolist()
        return {_LOCALITIES[i]: int(n) for i, n in enumerate(counts) if n > 0}

    def absorb(
        self, stats: ExecutionStats, locality: Optional[OpLocality] = None
    ) -> None:
        """Fold one command-stream execution into the running totals."""
        bus = stats.bus
        self.latency += stats.latency
        self.energy += stats.energy
        self.bus_data_bytes += bus.data_bytes
        self.bus_commands += bus.commands
        kinds = self.record[:LOCALITY_BASE]
        kinds += stats.record
        if locality is not None:
            self.record[LOCALITY_BASE + LOCALITY_CODES[locality]] += 1

    def count_step(self, n: int = 1) -> None:
        self.in_memory_steps += n

    def count_bits(self, n: int) -> None:
        if n < 0:
            raise ValueError("bit count must be non-negative")
        self.bits_processed += n

    @property
    def throughput_bytes_per_s(self) -> float:
        """Operand data processed per second (the paper's GBps metric)."""
        if self.latency <= 0:
            return 0.0
        return (self.bits_processed / 8.0) / self.latency

    @property
    def throughput_gbps(self) -> float:
        return self.throughput_bytes_per_s / 1e9

    @property
    def energy_per_bit(self) -> float:
        """J per operand bit processed."""
        if self.bits_processed == 0:
            return 0.0
        return self.energy / self.bits_processed

    def energy_breakdown(self) -> Dict[str, float]:
        """{command kind name: fraction of array energy}, descending."""
        by_kind = self.energy_by_kind
        total = sum(by_kind.values())
        if total <= 0:
            return {}
        items = sorted(
            ((k.value, e / total) for k, e in by_kind.items()),
            key=lambda kv: kv[1],
            reverse=True,
        )
        return dict(items)

    def merged_all(self, others: Iterable["OpAccounting"]) -> "OpAccounting":
        """``self + a + b + ...`` as a new accounting, added field by
        field in that order; ``self`` is never mutated.  :meth:`copy`
        and :meth:`merge_from` go through it, and :meth:`merged` writes
        out its one-item case."""
        latency, energy, steps = self.latency, self.energy, self.in_memory_steps
        data_bytes, commands = self.bus_data_bytes, self.bus_commands
        bits, record = self.bits_processed, self.record.copy()
        for other in others:
            latency += other.latency
            energy += other.energy
            steps += other.in_memory_steps
            data_bytes += other.bus_data_bytes
            commands += other.bus_commands
            bits += other.bits_processed
            record += other.record
        return OpAccounting(latency, energy, steps, data_bytes, commands, bits, record)

    def merged(self, other: "OpAccounting") -> "OpAccounting":
        """``self.merged_all((other,))``, written out: the hottest merge."""
        return OpAccounting(
            self.latency + other.latency,
            self.energy + other.energy,
            self.in_memory_steps + other.in_memory_steps,
            self.bus_data_bytes + other.bus_data_bytes,
            self.bus_commands + other.bus_commands,
            self.bits_processed + other.bits_processed,
            self.record + other.record,
        )

    def copy(self) -> "OpAccounting":
        return self.merged_all(())

    def merge_from(self, other: "OpAccounting") -> None:
        """In-place :meth:`merged`."""
        total = self.merged(other)
        for name in self.__slots__:
            setattr(self, name, getattr(total, name))

    def minus(self, before: "OpAccounting") -> "OpAccounting":
        """``self - before`` as a new accounting: what was added to
        ``before`` (an earlier :meth:`copy` of this one) since."""
        return OpAccounting(
            self.latency - before.latency,
            self.energy - before.energy,
            self.in_memory_steps - before.in_memory_steps,
            self.bus_data_bytes - before.bus_data_bytes,
            self.bus_commands - before.bus_commands,
            self.bits_processed - before.bits_processed,
            self.record - before.record,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (enum keys become their ``.value`` strings)."""
        return {
            "latency_s": self.latency,
            "energy_j": self.energy,
            "in_memory_steps": self.in_memory_steps,
            "locality_counts": {
                loc.value: n for loc, n in self.locality_counts.items()
            },
            "energy_by_kind": {
                kind.value: e for kind, e in self.energy_by_kind.items()
            },
            "bus_data_bytes": self.bus_data_bytes,
            "bus_commands": self.bus_commands,
            "bits_processed": self.bits_processed,
            "throughput_gbps": self.throughput_gbps,
            "energy_per_bit_j": self.energy_per_bit,
        }

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"OpAccounting: {self.bits_processed} bits in "
            f"{self.in_memory_steps} steps, latency {self.latency:.3e}s, "
            f"energy {self.energy:.3e}J, {self.throughput_gbps:.3f} GB/s"
        )
