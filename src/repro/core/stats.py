"""Operation accounting for Pinatubo executions, and the stats contract.

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

from repro.memsim.address import OpLocality
from repro.memsim.controller import CommandKind, ExecutionStats


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
    locality_counts: Dict[OpLocality, int] = field(default_factory=dict)
    energy_by_kind: Dict[CommandKind, float] = field(default_factory=dict)
    bus_data_bytes: int = 0
    bus_commands: int = 0
    bits_processed: int = 0  # operand bits consumed by the ops

    def absorb(
        self, stats: ExecutionStats, locality: Optional[OpLocality] = None
    ) -> None:
        """Fold one command-stream execution into the running totals."""
        self.latency += stats.latency
        self.energy += stats.energy
        self.bus_data_bytes += stats.bus.data_bytes
        self.bus_commands += stats.bus.commands
        for kind, e in stats.energy_by_kind.items():
            self.energy_by_kind[kind] = self.energy_by_kind.get(kind, 0.0) + e
        if locality is not None:
            self.locality_counts[locality] = (
                self.locality_counts.get(locality, 0) + 1
            )

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
        total = sum(self.energy_by_kind.values())
        if total <= 0:
            return {}
        items = sorted(
            ((k.value, e / total) for k, e in self.energy_by_kind.items()),
            key=lambda kv: kv[1],
            reverse=True,
        )
        return dict(items)

    def merge_from(self, other: "OpAccounting") -> None:
        """In-place :meth:`merged`: same field and dict accumulation
        order, so ``a.merged(x).merged(y)`` and ``t = a.merged(x);
        t.merge_from(y)`` produce bit-identical floats -- :meth:`merged_all`
        relies on that to accumulate a wave without one allocation per
        item."""
        self.latency += other.latency
        self.energy += other.energy
        self.in_memory_steps += other.in_memory_steps
        self.bus_data_bytes += other.bus_data_bytes
        self.bus_commands += other.bus_commands
        self.bits_processed += other.bits_processed
        for loc, n in other.locality_counts.items():
            self.locality_counts[loc] = self.locality_counts.get(loc, 0) + n
        for kind, e in other.energy_by_kind.items():
            self.energy_by_kind[kind] = self.energy_by_kind.get(kind, 0.0) + e

    def merged_all(self, others: Iterable["OpAccounting"]) -> "OpAccounting":
        """``self.merged(a).merged(b)...`` with one allocation: the first
        :meth:`merged` copies, :meth:`merge_from` folds in the rest
        (bit-identical floats).  ``self`` is never mutated; with no
        ``others`` it is returned as is."""
        out = None
        for other in others:
            if out is None:
                out = self.merged(other)
            else:
                out.merge_from(other)
        return self if out is None else out

    def merged(self, other: "OpAccounting") -> "OpAccounting":
        out = OpAccounting(
            latency=self.latency + other.latency,
            energy=self.energy + other.energy,
            in_memory_steps=self.in_memory_steps + other.in_memory_steps,
            locality_counts=dict(self.locality_counts),
            energy_by_kind=dict(self.energy_by_kind),
            bus_data_bytes=self.bus_data_bytes + other.bus_data_bytes,
            bus_commands=self.bus_commands + other.bus_commands,
            bits_processed=self.bits_processed + other.bits_processed,
        )
        for loc, n in other.locality_counts.items():
            out.locality_counts[loc] = out.locality_counts.get(loc, 0) + n
        for kind, e in other.energy_by_kind.items():
            out.energy_by_kind[kind] = out.energy_by_kind.get(kind, 0.0) + e
        return out

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
