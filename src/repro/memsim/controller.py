"""Memory controller: command streams, mode registers, cost accounting.

The paper's hardware-control path (Fig. 4): extended PIM instructions are
translated into DDR commands plus a mode-register (MR4) write that
configures the PIM operation; the controller issues them over the channel
bus.  This module models that path analytically: executors emit
:class:`Command` streams, and :meth:`MemoryController.execute` prices each
command from the channel's :class:`TimingParams`, serialising commands
within a channel and overlapping across channels.

Command kinds map to the paper's operation anatomy:

- ``MRS``           configure PIM mode (reference select, op code)
- ``WL_RESET``      clear the LWL activation latches
- ``ACT``           open a row (first activation pays tRCD)
- ``ACT_EXTRA``     latch one more row (multi-row activation, one slot)
- ``PIM_SENSE``     resolve N serial column steps through the modified SA
- ``RD``            move a row segment to the host over the data bus
- ``WR``            program a row (tWR); optionally with bus transfer in
- ``PIM_WRITEBACK`` program the sensed result locally via the WD bypass
- ``BUF_OP``        add-on logic pass at the global row / IO buffer
- ``PRE``           precharge / close

Two pricing paths produce identical accounting:

- :meth:`MemoryController.execute` walks a Python list of
  :class:`Command` objects, with a **memoized** per-command price
  (command cost is a pure function of
  ``(kind, n_bits, n_steps, transfer_bytes)`` for a fixed timing set);
- :meth:`MemoryController.execute_batch` prices a whole
  :class:`CommandBatch` -- a structure-of-arrays command stream -- with
  numpy reductions per channel, which is what the execution engine uses
  on its hot path (one batch per logical operation instead of one
  ``execute`` call per row frame).

A :class:`CommandBatch` carries *fences*: serialisation barriers that
reproduce the latency semantics of issuing the fenced segments through
separate ``execute`` calls (segment latencies add; within a segment,
channels overlap).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.memsim.bus import BusStats, DDRBus
from repro.memsim.geometry import MemoryGeometry
from repro.memsim.timing import TimingParams


class CommandKind(enum.Enum):
    MRS = "mrs"
    WL_RESET = "wl_reset"
    ACT = "act"
    ACT_EXTRA = "act_extra"
    PIM_SENSE = "pim_sense"
    RD = "rd"
    WR = "wr"
    PIM_WRITEBACK = "pim_writeback"
    BUF_OP = "buf_op"
    PRE = "pre"

    # members are singletons: hash by identity in C, not by name in Python
    __hash__ = object.__hash__


#: stable integer code per kind (index into the price table's arrays
#: and into every cost record)
KIND_CODES: Dict[CommandKind, int] = {k: i for i, k in enumerate(CommandKind)}
_KINDS: Tuple[CommandKind, ...] = tuple(CommandKind)
N_KINDS = len(_KINDS)

#: price-cache entries kept per controller before the cache is dropped
#: (PIM_WRITEBACK widths are data-dependent, so the key space is open)
_PRICE_CACHE_LIMIT = 1 << 16


@dataclass(frozen=True, slots=True)
class Command:
    """One priced command.

    ``n_bits`` is the number of array bits the command touches (activation
    width, sensed bits, programmed bits or buffer-logic width);
    ``n_steps`` is the serial step count for PIM_SENSE;
    ``transfer_bytes`` is data moved over the channel bus (RD/WR only).
    """

    kind: CommandKind
    channel: int = 0
    n_bits: int = 0
    n_steps: int = 1
    transfer_bytes: int = 0

    def __post_init__(self) -> None:
        if self.channel < 0:
            raise ValueError("channel must be non-negative")
        if self.n_bits < 0 or self.n_steps < 1 or self.transfer_bytes < 0:
            raise ValueError("invalid command cost fields")


_ZERO_RECORD = np.zeros(2 * N_KINDS)


def stats_equal(a, b) -> bool:
    """``==`` of two stats objects: same type, equal ``to_dict()``."""
    return type(a) is type(b) and a.to_dict() == b.to_dict()


def kind_energies(record: np.ndarray) -> Dict[CommandKind, float]:
    """{kind: energy (J)} of the kinds a cost record counts."""
    values = record[: 2 * N_KINDS].tolist()
    return {
        _KINDS[i]: values[N_KINDS + i] for i in range(N_KINDS) if values[i] > 0
    }


@dataclass(slots=True)
class ExecutionStats:
    """Aggregated cost of an executed command stream.

    The per-kind split lives in ``record``: one float64 vector holding
    each kind's command count at ``[KIND_CODES[kind]]`` and its energy
    at ``[N_KINDS + KIND_CODES[kind]]``.  ``counts`` and
    ``energy_by_kind`` are read-only dicts of the kinds issued.
    """

    latency: float = 0.0  # s (critical path: max over channels)
    energy: float = 0.0  # J (sum over everything)
    bus: BusStats = field(default_factory=BusStats)
    record: np.ndarray = field(default_factory=_ZERO_RECORD.copy)

    __eq__ = stats_equal

    @property
    def counts(self) -> Dict[CommandKind, int]:
        counts = self.record[:N_KINDS].tolist()
        return {_KINDS[i]: int(n) for i, n in enumerate(counts) if n > 0}

    @property
    def energy_by_kind(self) -> Dict[CommandKind, float]:
        return kind_energies(self.record)

    def add_count(self, kind: CommandKind, n: int = 1) -> None:
        self.record[KIND_CODES[kind]] += n

    def add_energy(self, kind: CommandKind, joules: float) -> None:
        self.record[N_KINDS + KIND_CODES[kind]] += joules

    def merged(self, other: "ExecutionStats", serial: bool = True) -> "ExecutionStats":
        """Combine two stats; serial adds latencies, parallel takes max."""
        return ExecutionStats(
            latency=(self.latency + other.latency)
            if serial
            else max(self.latency, other.latency),
            energy=self.energy + other.energy,
            bus=self.bus.merge(other.bus),
            record=self.record + other.record,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (enum keys become their ``.value`` strings)."""
        return {
            "latency_s": self.latency,
            "energy_j": self.energy,
            "counts": {kind.value: n for kind, n in self.counts.items()},
            "energy_by_kind": {
                kind.value: e for kind, e in self.energy_by_kind.items()
            },
            "bus": {
                "commands": self.bus.commands,
                "data_bytes": self.bus.data_bytes,
                "busy_time_s": self.bus.busy_time,
                "energy_j": self.bus.energy,
            },
        }

    def summary(self) -> str:
        """One-line human-readable digest."""
        n_cmds = int(self.record[:N_KINDS].sum())
        return (
            f"ExecutionStats: {n_cmds} commands, "
            f"latency {self.latency:.3e}s, energy {self.energy:.3e}J, "
            f"bus {self.bus.data_bytes}B/{self.bus.commands} cmds"
        )


# ---------------------------------------------------------------------------
# engine performance instrumentation
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class PerfCounters:
    """Process-wide pricing-engine counters (profiling aid)."""

    scalar_commands: int = 0  # commands priced one at a time
    batch_commands: int = 0  # commands priced through execute_batch
    batches: int = 0  # execute_batch calls
    streams: int = 0  # execute calls
    cache_hits: int = 0  # scalar price-cache hits
    cache_misses: int = 0

    @property
    def commands_priced(self) -> int:
        return self.scalar_commands + self.batch_commands

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict of every counter plus the derived rates."""
        return {
            "scalar_commands": self.scalar_commands,
            "batch_commands": self.batch_commands,
            "batches": self.batches,
            "streams": self.streams,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "commands_priced": self.commands_priced,
            "cache_hit_rate": self.cache_hit_rate,
        }

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"[repro-perf] priced {self.commands_priced} commands "
            f"({self.scalar_commands} scalar / {self.streams} streams, "
            f"{self.batch_commands} batched / {self.batches} batches), "
            f"price-cache hit rate {100.0 * self.cache_hit_rate:.1f}%"
        )


perf_counters = PerfCounters()


# ---------------------------------------------------------------------------
# pricing table: per-kind cost coefficients for one TimingParams
# ---------------------------------------------------------------------------


class PriceTable:
    """Per-kind cost coefficients derived from one :class:`TimingParams`.

    Every command's cost decomposes as::

        array_t    = base_array[kind] + step_array[kind] * n_steps
        bus_t      = bus_cmds[kind] * t_cmd + transfer_bytes' / bandwidth
        energy     = e_fixed[kind] + n_bits * e_per_bit[kind]
        bus_energy = bus_cmds[kind] * e_cmd + 8 * transfer_bytes' * e_bus
        transfer_bytes' = transfer_bytes * has_transfer[kind]

    which is what makes both the scalar memo cache and the vectorized
    batch path possible: the coefficients are a pure function of the
    timing set, the variables come from the command.
    """

    def __init__(self, timing: TimingParams):
        self.timing = timing
        t = timing
        base = np.zeros(N_KINDS)
        step = np.zeros(N_KINDS)
        e_fixed = np.zeros(N_KINDS)
        e_bit = np.zeros(N_KINDS)
        bus_cmds = np.zeros(N_KINDS)
        transfer = np.zeros(N_KINDS)

        def set_row(kind, *, b=0.0, s=0.0, ef=0.0, eb=0.0, bc=0.0, tr=0.0):
            i = KIND_CODES[kind]
            base[i], step[i], e_fixed[i] = b, s, ef
            e_bit[i], bus_cmds[i], transfer[i] = eb, bc, tr

        set_row(CommandKind.MRS, bc=1.0)
        set_row(CommandKind.WL_RESET, ef=t.e_cmd, bc=1.0)
        set_row(CommandKind.ACT, b=t.t_rcd, eb=t.e_activate_per_bit, bc=1.0)
        # Additional latched row: decode overlaps the open rows, so the
        # cost is one command slot plus the wordline energy -- unless a
        # power-delivery activate-to-activate floor (t_rrd) paces the
        # latch sequence.
        set_row(
            CommandKind.ACT_EXTRA,
            b=max(0.0, t.t_rrd - t.t_cmd),
            eb=t.e_activate_per_bit,
            bc=1.0,
        )
        set_row(CommandKind.PIM_SENSE, s=t.t_cl, eb=t.e_sense_per_bit)
        set_row(CommandKind.RD, b=t.t_cl, eb=t.e_sense_per_bit, bc=1.0, tr=1.0)
        set_row(CommandKind.WR, b=t.t_wr, eb=t.e_write_per_bit, bc=1.0, tr=1.0)
        # WD bypass: no bus transfer at all.
        set_row(CommandKind.PIM_WRITEBACK, b=t.t_wr, eb=t.e_write_per_bit)
        # Add-on digital logic at the row/IO buffer: one bus-clock pass.
        set_row(CommandKind.BUF_OP, b=t.t_cmd, eb=t.e_buffer_logic_per_bit)
        set_row(CommandKind.PRE, b=t.t_rp, ef=t.e_cmd, bc=1.0)

        self.base_array = base
        self.step_array = step
        self.e_fixed = e_fixed
        self.e_per_bit = e_bit
        self.bus_cmds = bus_cmds
        self.has_transfer = transfer

    def price(
        self, kind: CommandKind, n_bits: int, n_steps: int, transfer_bytes: int
    ) -> Tuple[float, float, float, int, int, float]:
        """(array_t, bus_t, array_energy, bus_cmds, bus_bytes, bus_energy)."""
        i = KIND_CODES[kind]
        t = self.timing
        array_t = self.base_array[i] + self.step_array[i] * n_steps
        n_cmds = int(self.bus_cmds[i])
        n_bytes = transfer_bytes if self.has_transfer[i] else 0
        bus_t = n_cmds * t.t_cmd + t.transfer_time(n_bytes)
        energy = self.e_fixed[i] + n_bits * self.e_per_bit[i]
        bus_energy = n_cmds * t.e_cmd + t.transfer_energy(n_bytes)
        return (array_t, bus_t, energy, n_cmds, n_bytes, bus_energy)


# ---------------------------------------------------------------------------
# structure-of-arrays command stream
# ---------------------------------------------------------------------------


class CommandBatch:
    """A command stream stored column-wise, with serialisation fences.

    Appending is O(1) list work; :meth:`MemoryController.execute_batch`
    converts the columns to numpy arrays once and prices everything with
    per-channel reductions.  ``fence()`` closes the current segment:
    segments serialise (their latencies add), commands within a segment
    overlap across channels -- exactly the semantics of issuing each
    segment through a separate :meth:`MemoryController.execute` call.

    ``mark()`` records a logical-operation boundary so a multi-op stream
    (see :meth:`PinatuboExecutor.bitwise_many`) can be priced in one pass
    and still split its stats per operation.
    """

    __slots__ = (
        "kinds",
        "channels",
        "n_bits",
        "n_steps",
        "transfer_bytes",
        "segments",
        "_segment",
        "_open",
        "op_starts",
        "op_segment_starts",
        "price_memo",
        "price_memo_ok",
    )

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.channels: List[int] = []
        self.n_bits: List[int] = []
        self.n_steps: List[int] = []
        self.transfer_bytes: List[int] = []
        self.segments: List[int] = []
        self._segment = 0
        self._open = False  # commands appended since the last fence?
        self.op_starts: List[int] = []
        self.op_segment_starts: List[int] = []
        # see MemoryController.execute_batch: immutable (frozen) batches
        # opt into memoized pricing by setting price_memo_ok
        self.price_memo = None
        self.price_memo_ok = False

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def n_segments(self) -> int:
        return self._segment + (1 if self._open else 0)

    def add(
        self,
        kind: CommandKind,
        channel: int = 0,
        n_bits: int = 0,
        n_steps: int = 1,
        transfer_bytes: int = 0,
    ) -> None:
        """Append one command to the current segment."""
        self.kinds.append(KIND_CODES[kind])
        self.channels.append(channel)
        self.n_bits.append(n_bits)
        self.n_steps.append(n_steps)
        self.transfer_bytes.append(transfer_bytes)
        self.segments.append(self._segment)
        self._open = True

    def extend(self, commands: Sequence[Command]) -> None:
        """Append :class:`Command` objects to the current segment."""
        if not commands:
            return
        codes = KIND_CODES
        self.kinds.extend(codes[cmd.kind] for cmd in commands)
        self.channels.extend(cmd.channel for cmd in commands)
        self.n_bits.extend(cmd.n_bits for cmd in commands)
        self.n_steps.extend(cmd.n_steps for cmd in commands)
        self.transfer_bytes.extend(cmd.transfer_bytes for cmd in commands)
        self.segments.extend([self._segment] * len(commands))
        self._open = True

    def extend_rows(
        self, rows: Sequence[Tuple[int, int, int, int, int]]
    ) -> None:
        """Append pre-encoded ``(kind_code, channel, n_bits, n_steps,
        transfer_bytes)`` rows to the current segment.

        The executor's hot path: command templates are cached as these
        tuples, so appending a step is pure list work with no
        :class:`Command` objects in between.
        """
        if not rows:
            return
        kinds, channels, n_bits, n_steps, transfer = zip(*rows)
        self.kinds.extend(kinds)
        self.channels.extend(channels)
        self.n_bits.extend(n_bits)
        self.n_steps.extend(n_steps)
        self.transfer_bytes.extend(transfer)
        self.segments.extend([self._segment] * len(rows))
        self._open = True

    def extend_steps(
        self,
        rows: Sequence[Tuple[int, int, int, int, int]],
        wb_index: int,
        widths: Sequence[int],
        fence_steps: bool,
    ) -> None:
        """Append one copy of the template ``rows`` per entry of
        ``widths``, with copy ``i``'s write-back row (``rows[wb_index]``)
        carrying ``n_bits = widths[i]``.

        The columns equal ``len(widths)`` rounds of
        :meth:`extend_rows` on the patched rows, each followed by
        :meth:`fence` when ``fence_steps`` -- the executor's tiled
        emission of an accumulation pass.
        """
        copies = len(widths)
        if not copies:
            return
        width = len(rows)
        kinds, channels, n_bits, n_steps, transfer = zip(*rows)
        bits = list(n_bits) * copies
        bits[wb_index::width] = widths
        self.kinds.extend(kinds * copies)
        self.channels.extend(channels * copies)
        self.n_bits.extend(bits)
        self.n_steps.extend(n_steps * copies)
        self.transfer_bytes.extend(transfer * copies)
        seg = self._segment
        if fence_steps:
            for s in range(seg, seg + copies):
                self.segments.extend([s] * width)
            self._segment = seg + copies
            self._open = False
        else:
            self.segments.extend([seg] * (width * copies))
            self._open = True

    def fence(self) -> None:
        """Close the current segment (a serialisation barrier)."""
        if self._open:
            self._segment += 1
            self._open = False

    def mark(self) -> None:
        """Record the start of a new logical operation (after a fence)."""
        self.fence()
        self.op_starts.append(len(self.kinds))
        self.op_segment_starts.append(self._segment)


class FrozenBatch:
    """A command batch's columns as preallocated numpy arrays.

    Duck-types exactly the surface :meth:`MemoryController.execute_batch`
    reads (column sequences, ``op_starts``/``op_segment_starts``,
    ``n_segments``, ``__len__``), so it prices through the real
    controller with zero list-to-array conversion cost.  The columns
    never change, so every frozen batch opts into the controller's
    memoized pricing (``price_memo_ok``).
    """

    __slots__ = (
        "kinds", "channels", "n_bits", "n_steps", "transfer_bytes",
        "segments", "op_starts", "op_segment_starts", "n_segments",
        "price_memo", "price_memo_ok",
    )

    def __init__(self, cols, op_starts, op_segment_starts, n_segments):
        (self.kinds, self.channels, self.n_bits, self.n_steps,
         self.transfer_bytes, self.segments) = cols
        self.op_starts = op_starts
        self.op_segment_starts = op_segment_starts
        self.n_segments = n_segments
        self.price_memo = None
        self.price_memo_ok = True

    def __len__(self) -> int:
        return self.kinds.size


def freeze_batch(batch: CommandBatch) -> FrozenBatch:
    """Snapshot a :class:`CommandBatch`'s columns into a frozen batch."""
    return FrozenBatch(
        (
            np.asarray(batch.kinds, dtype=np.intp),
            np.asarray(batch.channels, dtype=np.intp),
            np.asarray(batch.n_bits, dtype=np.float64),
            np.asarray(batch.n_steps, dtype=np.float64),
            np.asarray(batch.transfer_bytes, dtype=np.float64),
            np.asarray(batch.segments, dtype=np.intp),
        ),
        np.asarray(batch.op_starts, dtype=np.intp),
        np.asarray(batch.op_segment_starts, dtype=np.intp),
        batch.n_segments,
    )


#: per-row command sequence of each host row-transfer shape: a served
#: cache result's row-buffer read, a host read over the I/O bus, and a
#: host write from it
ROW_IO_SHAPES: Dict[str, Tuple[CommandKind, ...]] = {
    "serve": (CommandKind.ACT, CommandKind.PIM_SENSE, CommandKind.PRE),
    "read": (CommandKind.ACT, CommandKind.PIM_SENSE, CommandKind.RD, CommandKind.PRE),
    "write": (CommandKind.ACT, CommandKind.WR, CommandKind.PRE),
}


def row_io_template(
    geometry: MemoryGeometry, shape: str, n_bits: int, channels: Sequence[int]
) -> FrozenBatch:
    """The frozen batch of one host row transfer of ``n_bits`` bits over
    rows on ``channels`` (one entry per row, ``rows_for_bits(n_bits)``
    of them).

    One marked operation, one fenced segment per row: the row's
    ``ROW_IO_SHAPES[shape]`` commands on its channel.  ACT, PIM_SENSE,
    RD and WR carry the row's used width (PIM_SENSE also its sense
    steps, RD/WR its bytes over the bus); PRE carries nothing.  Its
    price is a pure function of ``(shape, n_bits, channels)``, so one
    template memo-prices every transfer of that shape.
    """
    kinds = ROW_IO_SHAPES[shape]
    channels = np.asarray(channels, dtype=np.intp)
    n_rows = channels.size
    if n_rows != geometry.rows_for_bits(n_bits):
        raise ValueError(f"{n_bits} bits need {geometry.rows_for_bits(n_bits)} rows")
    row_bits = geometry.row_bits
    bits = np.minimum(n_bits - np.arange(n_rows) * row_bits, row_bits)
    steps = [geometry.sense_steps_for_bits(int(b)) for b in bits]
    n_bytes = -(-bits // 8)
    zeros = np.zeros(n_rows, dtype=np.int64)
    ones = np.ones(n_rows, dtype=np.int64)
    per_kind = {
        CommandKind.ACT: (bits, ones, zeros),
        CommandKind.PIM_SENSE: (bits, steps, zeros),
        CommandKind.RD: (bits, ones, n_bytes),
        CommandKind.WR: (bits, ones, n_bytes),
        CommandKind.PRE: (zeros, ones, zeros),
    }

    def column(field: int) -> np.ndarray:
        # row-major: row r's commands, in shape order, then row r + 1's
        return np.stack(
            [per_kind[kind][field] for kind in kinds], axis=1
        ).reshape(-1).astype(np.float64)

    width = len(kinds)
    zero = np.zeros(1, dtype=np.intp)
    return FrozenBatch(
        (
            np.tile(np.array([KIND_CODES[k] for k in kinds], dtype=np.intp), n_rows),
            np.repeat(channels, width),
            column(0),
            column(1),
            column(2),
            np.repeat(np.arange(n_rows, dtype=np.intp), width),
        ),
        zero,
        zero,
        n_rows,
    )


class MemoryController:
    """Prices command streams against one memory's timing parameters."""

    def __init__(self, geometry: MemoryGeometry, timing: TimingParams):
        self.geometry = geometry
        self.timing = timing
        self.buses = [DDRBus(timing) for _ in range(geometry.channels)]
        self.mode_register = 0  # MR4: current PIM op configuration
        self.price_table = PriceTable(timing)
        self._price_cache: Dict[
            Tuple[int, int, int, int], Tuple[float, float, float, int, int, float]
        ] = {}

    def set_pim_mode(self, mode_code: int, channel: int = 0) -> ExecutionStats:
        """Issue the MRS that configures the PIM operation."""
        self.mode_register = mode_code
        return self.execute([Command(CommandKind.MRS, channel=channel)])

    # -- pricing -------------------------------------------------------------

    def _price(self, cmd: Command) -> Tuple[float, float, float, int, int, float]:
        """Memoized price of one command.

        Cost is a pure function of ``(kind, n_bits, n_steps,
        transfer_bytes)`` for this controller's timing set, so the
        computed tuple is cached; the cache is dropped wholesale if it
        ever exceeds ``_PRICE_CACHE_LIMIT`` entries (write-back widths
        are data-dependent, so the key space is open-ended).
        """
        key = (KIND_CODES[cmd.kind], cmd.n_bits, cmd.n_steps, cmd.transfer_bytes)
        priced = self._price_cache.get(key)
        if priced is None:
            perf_counters.cache_misses += 1
            priced = self.price_table.price(
                cmd.kind, cmd.n_bits, cmd.n_steps, cmd.transfer_bytes
            )
            if len(self._price_cache) >= _PRICE_CACHE_LIMIT:
                self._price_cache.clear()
            self._price_cache[key] = priced
        else:
            perf_counters.cache_hits += 1
        return priced

    def execute(self, commands: Sequence[Command]) -> ExecutionStats:
        """Execute a command stream.

        Commands on the same channel serialise; different channels overlap.
        Bus time and array time for one command overlap is approximated as
        additive for commands with both (RD/WR), which is the conservative
        closed-page assumption.
        """
        with telemetry.span("memsim.controller.execute") as sp:
            stats = ExecutionStats()
            per_channel: Dict[int, float] = {}
            n_buses = len(self.buses)
            bus = stats.bus
            for cmd in commands:
                array_t, bus_t, energy, n_cmds, n_bytes, bus_energy = self._price(cmd)
                ch = cmd.channel % n_buses
                per_channel[ch] = per_channel.get(ch, 0.0) + array_t + bus_t
                stats.energy += energy
                stats.add_count(cmd.kind)
                stats.add_energy(cmd.kind, energy)
                if n_cmds or n_bytes:
                    bus.commands += n_cmds
                    bus.data_bytes += n_bytes
                    bus.busy_time += bus_t
                    bus.energy += bus_energy
                    self.buses[ch].account(n_cmds, n_bytes, bus_t, bus_energy)
            stats.latency = max(per_channel.values(), default=0.0)
            stats.energy += bus.energy
            perf_counters.scalar_commands += len(commands)
            perf_counters.streams += 1
            sp.add(
                latency_s=stats.latency,
                energy_j=stats.energy,
                commands=len(commands),
            )
            return stats

    def execute_batch(
        self, batch: CommandBatch, split_ops: bool = False
    ) -> "ExecutionStats | Tuple[ExecutionStats, List[ExecutionStats]]":
        """Price a whole :class:`CommandBatch` with numpy reductions.

        Produces the same accounting as issuing each fenced segment
        through :meth:`execute`: segment latencies add, channels overlap
        within a segment, and every energy/count/bus total is identical
        (up to float-summation order).

        With ``split_ops=True`` the batch's :meth:`CommandBatch.mark`
        boundaries are honoured and the result is ``(total, per_op)``
        where ``per_op[i]`` is the :class:`ExecutionStats` of the i-th
        marked operation alone.

        Batches whose columns never change (every :class:`FrozenBatch`:
        the row I/O templates and the to-host programs) set
        ``price_memo_ok``: pricing is a pure
        function of the columns, so the first execution caches its stats
        and per-channel bus-ledger deltas on the batch, and every later
        execution replays them -- byte-identical accounting (the exact
        ints/floats the full pass computed) without the numpy reductions.
        Memoized returns are shared objects; callers must not mutate
        them (no caller of this API does).
        """
        n = len(batch)
        if n == 0:
            empty = ExecutionStats()
            if split_ops:
                return empty, [ExecutionStats() for _ in batch.op_starts]
            return empty

        memo = getattr(batch, "price_memo", None)
        if (
            memo is not None
            and memo[0] is self
            and (not split_ops or memo[2] is not None)
        ):
            _, stats, per_op, bus_deltas = memo
            with telemetry.span("memsim.controller.execute_batch") as sp:
                for ch, n_cmds, n_bytes, bus_t, bus_e in bus_deltas:
                    self.buses[ch].account(n_cmds, n_bytes, bus_t, bus_e)
                perf_counters.batch_commands += n
                perf_counters.batches += 1
                sp.add(
                    latency_s=stats.latency,
                    energy_j=stats.energy,
                    commands=n,
                    segments=batch.n_segments,
                )
            if split_ops:
                return stats, per_op
            return stats

        with telemetry.span("memsim.controller.execute_batch") as sp:
            tbl = self.price_table
            t = self.timing
            n_buses = len(self.buses)

            kinds = np.asarray(batch.kinds, dtype=np.intp)
            channels = np.asarray(batch.channels, dtype=np.intp) % n_buses
            n_bits = np.asarray(batch.n_bits, dtype=np.float64)
            n_steps = np.asarray(batch.n_steps, dtype=np.float64)
            transfer = np.asarray(batch.transfer_bytes, dtype=np.float64)
            segments = np.asarray(batch.segments, dtype=np.intp)

            array_t = tbl.base_array[kinds] + tbl.step_array[kinds] * n_steps
            bus_cmds = tbl.bus_cmds[kinds]
            bus_bytes = transfer * tbl.has_transfer[kinds]
            bus_t = bus_cmds * t.t_cmd + bus_bytes / t.bus_bandwidth
            energy = tbl.e_fixed[kinds] + n_bits * tbl.e_per_bit[kinds]
            bus_energy = bus_cmds * t.e_cmd + (8.0 * t.e_bus_per_bit) * bus_bytes
            total_t = array_t + bus_t

            # latency: per (segment, channel) sums; max over channels per
            # segment; segments serialise.
            n_seg = int(segments[-1]) + 1
            seg_ch = segments * n_buses + channels
            per_seg_ch = np.bincount(
                seg_ch, weights=total_t, minlength=n_seg * n_buses
            ).reshape(n_seg, n_buses)
            seg_latency = per_seg_ch.max(axis=1)

            bus_energy_total = float(bus_energy.sum())
            stats = ExecutionStats(
                latency=float(seg_latency.sum()),
                energy=float(energy.sum()) + bus_energy_total,
                bus=BusStats(
                    commands=int(bus_cmds.sum()),
                    data_bytes=int(bus_bytes.sum()),
                    busy_time=float(bus_t.sum()),
                    energy=bus_energy_total,
                ),
                record=np.concatenate((
                    np.bincount(kinds, minlength=N_KINDS),
                    np.bincount(kinds, weights=energy, minlength=N_KINDS),
                )),
            )

            # fold bus activity into the per-channel ledgers
            ch_cmds = np.bincount(channels, weights=bus_cmds, minlength=n_buses)
            ch_bytes = np.bincount(channels, weights=bus_bytes, minlength=n_buses)
            ch_bus_t = np.bincount(channels, weights=bus_t, minlength=n_buses)
            ch_bus_e = np.bincount(channels, weights=bus_energy, minlength=n_buses)
            bus_deltas = []
            for ch in range(n_buses):
                if ch_cmds[ch] or ch_bytes[ch] or ch_bus_t[ch] or ch_bus_e[ch]:
                    delta = (
                        ch,
                        int(ch_cmds[ch]),
                        int(ch_bytes[ch]),
                        float(ch_bus_t[ch]),
                        float(ch_bus_e[ch]),
                    )
                    bus_deltas.append(delta)
                    self.buses[ch].account(*delta[1:])

            perf_counters.batch_commands += n
            perf_counters.batches += 1
            sp.add(
                latency_s=stats.latency,
                energy_j=stats.energy,
                commands=n,
                segments=batch.n_segments,
            )

            per_op = None
            if split_ops:
                per_op = self._split_op_stats(
                    batch, kinds, channels, energy, bus_cmds, bus_bytes,
                    bus_t, bus_energy, seg_latency,
                )
            if getattr(batch, "price_memo_ok", False):
                batch.price_memo = (self, stats, per_op, bus_deltas)
            if not split_ops:
                return stats
            return stats, per_op

    def _split_op_stats(
        self,
        batch: CommandBatch,
        kinds: np.ndarray,
        channels: np.ndarray,
        energy: np.ndarray,
        bus_cmds: np.ndarray,
        bus_bytes: np.ndarray,
        bus_t: np.ndarray,
        bus_energy: np.ndarray,
        seg_latency: np.ndarray,
    ) -> List[ExecutionStats]:
        """Per-operation stats for a marked batch (one numpy pass)."""
        op_starts = np.asarray(batch.op_starts, dtype=np.intp)
        n_ops = op_starts.size
        if n_ops == 0:
            return []
        n = kinds.size
        # command -> op (commands before the first mark belong to op 0)
        op_of_cmd = np.searchsorted(op_starts, np.arange(n), side="right") - 1
        np.clip(op_of_cmd, 0, None, out=op_of_cmd)
        # segment -> op
        op_seg_starts = np.asarray(batch.op_segment_starts, dtype=np.intp)
        seg_ids = np.arange(seg_latency.size)
        op_of_seg = np.searchsorted(op_seg_starts, seg_ids, side="right") - 1
        np.clip(op_of_seg, 0, None, out=op_of_seg)

        op_latency = np.bincount(op_of_seg, weights=seg_latency, minlength=n_ops)
        op_energy = np.bincount(op_of_cmd, weights=energy, minlength=n_ops)
        op_bus_cmds = np.bincount(op_of_cmd, weights=bus_cmds, minlength=n_ops)
        op_bus_bytes = np.bincount(op_of_cmd, weights=bus_bytes, minlength=n_ops)
        op_bus_t = np.bincount(op_of_cmd, weights=bus_t, minlength=n_ops)
        op_bus_e = np.bincount(op_of_cmd, weights=bus_energy, minlength=n_ops)
        # per op: each kind's command count, then its energy
        slot = op_of_cmd * N_KINDS + kinds
        size = n_ops * N_KINDS
        records = np.concatenate((
            np.bincount(slot, minlength=size).reshape(n_ops, N_KINDS),
            np.bincount(slot, weights=energy, minlength=size).reshape(n_ops, N_KINDS),
        ), axis=1)
        return [
            ExecutionStats(lat, e + bus_e, BusStats(cmds, n_bytes, busy, bus_e), record)
            for lat, e, cmds, n_bytes, busy, bus_e, record in zip(
                op_latency.tolist(), op_energy.tolist(),
                op_bus_cmds.astype(np.int64).tolist(),
                op_bus_bytes.astype(np.int64).tolist(),
                op_bus_t.tolist(), op_bus_e.tolist(), records,
            )
        ]
