"""Whole-query analytics programs: shape-keyed, constant-parameterized.

The planner already makes a repeated ``analyze`` query cheap -- every
compare gate serves from the sub-result cache and every popcount
replays as a compiled to-host program -- but the *orchestration* still
runs in Python on every call: the kernel emitters rebuild the gate
request list, the planner re-canonicalises every expression, and each
popcount pays its raw-key lookup.  At bench_arith scale that Python
tax is ~95% of steady-state wall time.

:class:`AnalyticsCompiler` lowers the whole query one level further.
A query's **shape** -- predicate structure (columns, comparison ops,
range bounds), aggregate kind, and the tenant/table scope -- keys an
:class:`AnalyticsProgram` in the plan layer's
:class:`~repro.plan.cache.ProgramCache`.  The comparison **constants**
are runtime parameters: per ``(constants, entry mode)`` the program
holds one pricing record, captured from a genuinely steady interpreted
run (the second sighting, when every sub-expression serves from the
cache), and replays it thereafter with zero planner involvement --
one dict probe, one validity check, one accounting merge.

Honesty rules, in the same spirit as the planner's serve pricing:

- **First sighting** of a ``(constants, entry mode)`` pair always runs
  interpreted: its cache misses are real and must be priced (and they
  fill the cache).  The **second sighting** runs interpreted too and is
  recorded only if it was perfectly steady (zero cache misses, zero
  wave compilations, zero host fallbacks during the run); the third
  and later sightings replay the record.
- A record's accounting delta is exactly what the interpreted steady
  run paid (batch pricing is content-determined, so the delta is
  stable across repeats); replaying merges it into the same driver /
  host accounting the interpreted path feeds, bumps the same
  request/instruction/mode-switch tallies, and restores the
  executor's mode register to the recorded exit state.
- Replays are validated against the planner's write-version vector: a
  program snapshots the version **sum** over every leaf frame it read
  (column planes, bitmap bins, the scratch-pool constants), and a
  replay is only served while that sum -- monotone, so sum equality is
  elementwise equality -- is unchanged (with the planner's write epoch
  as the O(1) fast path).  The planner bumps versions on frees as well
  as writes, so a freed leaf invalidates exactly like a written one;
  the reset also unbinds the leaves, so the next record binds to
  whatever frames the query reads then.  Sub-result-cache *evictions*
  (byte pressure) drop all pricing records too, because the recorded
  serve pricing assumed those entries stayed resident.  A new record
  validates the program first, so it never re-blesses stale ones.

Telemetry lands under ``plan.analytics.*``; per-compiler tallies are
on :class:`AnalyticsStats` (surfaced in BENCH_arith.json).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Set

import numpy as np

from repro import telemetry
from repro.core.stats import OpAccounting
from repro.plan.cache import ProgramCache

__all__ = [
    "AnalyticsCompiler",
    "AnalyticsProgram",
    "AnalyticsStats",
    "analytics_program_key",
]

_PROGRAMS = telemetry.counter("plan.analytics.programs")
_COMPILES = telemetry.counter("plan.analytics.compiles")
_REPLAYS = telemetry.counter("plan.analytics.replays")
_FALLBACKS = telemetry.counter("plan.analytics.fallbacks")
_FUSED_BATCHES = telemetry.counter("plan.analytics.fused_batches")
_FUSED_REQUESTS = telemetry.counter("plan.analytics.fused_requests")
_INVALIDATIONS = telemetry.counter("plan.analytics.invalidations")

#: pricing records kept per program (LRU over (constants, entry mode))
_MAX_RECORDS = 512


def analytics_program_key(filters, aggregate, scope=None):
    """Split a filter+aggregate spec into ``(shape key, constants)``.

    The comparison constant of every ``cmp`` predicate (tuple index 3,
    in both the table's 4-tuple and the service's 5-tuple wire form) is
    a runtime parameter; everything else -- predicate kinds, columns,
    comparison ops, range bounds, bit widths, the aggregate spec and an
    optional caller ``scope`` (e.g. the tenant) -- is shape.
    """
    shape = []
    constants = []
    for pred in filters:
        if pred[0] == "cmp":
            constants.append(int(pred[3]))
            shape.append(("cmp", pred[1], pred[2]) + tuple(pred[4:]))
        else:
            shape.append(tuple(pred))
    return (scope, tuple(shape), tuple(aggregate)), tuple(constants)


class _Record:
    """One replayable steady-state execution of a program instance."""

    __slots__ = (
        "acct",  # driver (PIM) OpAccounting delta
        "host_acct",  # host-side OpAccounting delta, or None if empty
        "requests",  # DriverStats int deltas
        "instructions",
        "mode_switches",
        "mode_out",  # executor mode state after the run (op enum or None)
        "mode_code",  # controller mode register after the run
        "latency_s",  # total (pim + host) latency / energy delta
        "energy_j",
        "popcount",  # the recorded answer triple
        "value",
        "groups",
        "packed_bits",  # np.packbits of the mask, or None (table path)
        "n_bits",  # mask length, for unpacking
    )

    def unpack_bits(self) -> np.ndarray:
        """The recorded mask bits (uint8 0/1), unpacked fresh per call."""
        return np.unpackbits(self.packed_bits, count=self.n_bits)


@dataclass
class AnalyticsStats:
    """Per-compiler tallies (the ``plan.analytics.*`` counters, scoped)."""

    programs: int = 0
    compiles: int = 0
    replays: int = 0
    fallbacks: int = 0
    fused_batches: int = 0
    fused_requests: int = 0
    invalidations: int = 0

    def to_dict(self) -> dict:
        return {
            "programs": self.programs,
            "compiles": self.compiles,
            "replays": self.replays,
            "fallbacks": self.fallbacks,
            "fused_batches": self.fused_batches,
            "fused_requests": self.fused_requests,
            "invalidations": self.invalidations,
        }


class AnalyticsProgram:
    """One compiled query shape and its per-constants pricing records."""

    __slots__ = (
        "key",
        "leaf_farr",  # np.intp array of every frame the query reads
        "vsum",  # planner version sum over leaf_farr at record time
        "epoch",  # planner write epoch at last successful validation
        "evictions",  # SubResultCache eviction count at record time
        "records",  # OrderedDict[(constants, entry_mode)] -> _Record
        "sightings",  # (constants, entry_mode) pairs seen exactly once
        "scratch_high_water",  # peak scratch planes of the fallback runs
        "batch_token",  # fusion: engine batch this program validated in
        "batch_replays",  # fusion: replays inside the current batch
    )

    def __init__(self, key):
        self.key = key
        self.leaf_farr: Optional[np.ndarray] = None
        self.vsum = -1
        self.epoch = -1
        self.evictions = -1
        self.records: "OrderedDict[tuple, _Record]" = OrderedDict()
        self.sightings: Set[tuple] = set()
        self.scratch_high_water = 0
        self.batch_token = -1
        self.batch_replays = 0


class _Tape:
    """Pre-run snapshot of one interpreted fallback, for recording."""

    __slots__ = (
        "compiler",
        "program",
        "entry",
        "recording",
        "leaves_fn",
        "_pim",
        "_host",
        "_requests",
        "_instructions",
        "_mode_switches",
        "_cache_misses",
        "_compilations",
        "_host_fallbacks",
    )

    def __init__(self, compiler, program, entry, recording, leaves_fn):
        self.compiler = compiler
        self.program = program
        self.entry = entry
        self.recording = recording
        self.leaves_fn = leaves_fn
        if recording:
            runtime = compiler.runtime
            self._pim = _acct_snapshot(runtime.driver.stats.accounting)
            self._host = _acct_snapshot(runtime.host_accounting)
            stats = runtime.driver.stats
            self._requests = stats.requests
            self._instructions = stats.instructions
            self._mode_switches = stats.mode_switches
            self._host_fallbacks = stats.host_fallbacks
            plan = compiler.planner.stats
            self._cache_misses = plan.cache_misses
            self._compilations = plan.compilations

    @property
    def scratch_high_water(self) -> int:
        """Recorded scratch footprint of this shape (0 when unknown)."""
        return self.program.scratch_high_water

    def finish(
        self,
        popcount: int,
        value: float,
        groups: Optional[tuple],
        bits: Optional[np.ndarray] = None,
        high_water: int = 0,
    ) -> bool:
        """Close the tape after the interpreted run.

        Returns True when a pricing record was captured; a non-steady
        run (any cache miss, compilation or host fallback happened)
        leaves the sighting marked so the next clean run records.
        """
        program = self.program
        if high_water > program.scratch_high_water:
            program.scratch_high_water = high_water
        if not self.recording:
            return False
        compiler = self.compiler
        runtime = compiler.runtime
        stats = runtime.driver.stats
        plan = compiler.planner.stats
        if (
            plan.cache_misses != self._cache_misses
            or plan.compilations != self._compilations
            or stats.host_fallbacks != self._host_fallbacks
        ):
            return False  # not steady state: stay interpreted, retry later
        rec = _Record()
        rec.acct = _acct_delta(stats.accounting, self._pim)
        host_delta = _acct_delta(runtime.host_accounting, self._host)
        rec.host_acct = (
            host_delta
            if (
                host_delta.latency
                or host_delta.energy
                or host_delta.bus_commands
            )
            else None
        )
        rec.requests = stats.requests - self._requests
        rec.instructions = stats.instructions - self._instructions
        rec.mode_switches = stats.mode_switches - self._mode_switches
        executor = compiler.executor
        rec.mode_out = executor._current_mode
        rec.mode_code = executor.controller.mode_register
        host = rec.host_acct
        rec.latency_s = rec.acct.latency + (host.latency if host else 0.0)
        rec.energy_j = rec.acct.energy + (host.energy if host else 0.0)
        rec.popcount = int(popcount)
        rec.value = value
        rec.groups = groups
        if bits is None:
            rec.packed_bits = None
            rec.n_bits = 0
        else:
            rec.packed_bits = np.packbits(bits)
            rec.n_bits = int(bits.size)
        if program.leaf_farr is None or not compiler._valid(program, None):
            frames: List[int] = []
            for handle in self.leaves_fn():
                frames.extend(handle.frames)
            program.leaf_farr = np.unique(np.asarray(frames, dtype=np.intp))
        program.records[self.entry] = rec
        program.records.move_to_end(self.entry)
        while len(program.records) > _MAX_RECORDS:
            program.records.popitem(last=False)
        program.sightings.discard(self.entry)
        planner = compiler.planner
        program.vsum = int(planner._versions[program.leaf_farr].sum())
        program.epoch = planner._write_epoch
        program.evictions = planner.cache.evictions
        compiler.stats.compiles += 1
        _COMPILES.add()
        return True


def _acct_snapshot(acct: OpAccounting) -> tuple:
    """Value snapshot of an accounting object (it may mutate in place)."""
    return (
        acct.latency,
        acct.energy,
        acct.in_memory_steps,
        acct.bus_data_bytes,
        acct.bus_commands,
        acct.bits_processed,
        dict(acct.locality_counts),
        dict(acct.energy_by_kind),
    )


def _acct_delta(after: OpAccounting, before: tuple) -> OpAccounting:
    """``after - before`` as a fresh OpAccounting (zero entries dropped)."""
    (lat, en, steps, bus_b, bus_c, bits, locs, kinds) = before
    delta = OpAccounting(
        latency=after.latency - lat,
        energy=after.energy - en,
        in_memory_steps=after.in_memory_steps - steps,
        bus_data_bytes=after.bus_data_bytes - bus_b,
        bus_commands=after.bus_commands - bus_c,
        bits_processed=after.bits_processed - bits,
    )
    for loc, n in after.locality_counts.items():
        d = n - locs.get(loc, 0)
        if d:
            delta.locality_counts[loc] = d
    for kind, e in after.energy_by_kind.items():
        d = e - kinds.get(kind, 0.0)
        if d:
            delta.energy_by_kind[kind] = d
    return delta


class AnalyticsCompiler:
    """Shape-keyed whole-query program cache for the ``analyze`` verb.

    Disabled (every call a fast no-op) unless the runtime has a planner
    with wave compilation on -- the compiler sits strictly *above* the
    planner and relies on its version vector for validation and on its
    steady-state serve pricing for the recorded deltas.
    """

    def __init__(self, runtime, max_programs: int = 1024):
        planner = getattr(runtime, "planner", None)
        self.runtime = runtime
        self.planner = planner
        self.enabled = planner is not None and planner.compile_enabled
        self.stats = AnalyticsStats()
        #: shape key -> AnalyticsProgram, bounded LRU (the same store
        #: the wave compiler uses for its programs)
        self.programs = ProgramCache(max_programs)
        self._token = 0
        if self.enabled:
            self.executor = runtime.system.executor

    # -- batching (engine fusion) --------------------------------------------

    def new_batch(self) -> int:
        """Start a fused-replay scope (one scheduler dispatch batch).

        Within one token, a program validates once and every further
        same-program replay rides that validation; two or more replays
        of one program in one batch count as a fused batch.
        """
        self._token += 1
        return self._token

    # -- the hot path --------------------------------------------------------

    def replay(self, key, constants, token: Optional[int] = None):
        """Serve one analyze from its program, or return ``None``.

        On a hit the recorded accounting is already applied: the driver
        and host accounting advance by exactly what the steady
        interpreted run paid, and the executor's mode state is restored
        to the recorded exit state (entry mode is part of the record
        key, so the delta's MRS content always matches).
        """
        if not self.enabled:
            return None
        program = self.programs.get(key)
        if program is None or program.leaf_farr is None:
            return None
        entry = (constants, self.executor._current_mode)
        rec = program.records.get(entry)
        if rec is None or not self._valid(program, token):
            return None
        program.records.move_to_end(entry)
        self._apply(rec)
        if token is not None:
            program.batch_replays += 1
            if program.batch_replays == 2:
                self.stats.fused_batches += 1
                _FUSED_BATCHES.add()
            if program.batch_replays >= 2:
                self.stats.fused_requests += 1
                _FUSED_REQUESTS.add()
        self.stats.replays += 1
        _REPLAYS.add()
        return rec

    def observe(self, key, constants, leaves_fn: Callable[[], list]):
        """Pre-run hook for the interpreted fallback path.

        Creates the program shell on first sight of a shape, marks the
        ``(constants, entry mode)`` sighting, and returns a
        :class:`_Tape` -- recording on the pair's second sighting --
        or ``None`` when the compiler is disabled.  ``leaves_fn`` must
        return every resident handle the query reads (column planes,
        bins, pool constants); it is only called when a record is
        actually captured, after the run, so lazily-created constants
        exist by then.
        """
        if not self.enabled:
            return None
        self.stats.fallbacks += 1
        _FALLBACKS.add()
        program = self.programs.get(key)
        if program is None:
            program = AnalyticsProgram(key)
            self.programs.put(key, program)
            self.stats.programs += 1
            _PROGRAMS.add()
        entry = (constants, self.executor._current_mode)
        recording = entry in program.sightings
        if not recording:
            program.sightings.add(entry)
            if len(program.sightings) > _MAX_RECORDS:
                program.sightings.pop()
        return _Tape(self, program, entry, recording, leaves_fn)

    # -- validation / invalidation -------------------------------------------

    def _valid(self, program: AnalyticsProgram, token: Optional[int]) -> bool:
        if token is not None and program.batch_token == token:
            return True
        planner = self.planner
        if program.evictions != planner.cache.evictions:
            # byte pressure evicted cached sub-results somewhere: the
            # recorded serve pricing may assume entries that are gone
            self._reset(program)
            return False
        if program.epoch != planner._write_epoch:
            vsum = int(planner._versions[program.leaf_farr].sum())
            if vsum != program.vsum:
                self._reset(program)
                return False
            program.epoch = planner._write_epoch
        if token is not None:
            program.batch_token = token
            program.batch_replays = 0
        return True

    def _reset(self, program: AnalyticsProgram) -> None:
        """Drop a program's records and leaf binding (the shape survives)."""
        program.leaf_farr = None
        program.records.clear()
        program.sightings.clear()
        program.vsum = -1
        program.epoch = -1
        program.evictions = -1
        program.batch_token = -1
        self.stats.invalidations += 1
        _INVALIDATIONS.add()

    # -- replay application --------------------------------------------------

    def _apply(self, rec: _Record) -> None:
        runtime = self.runtime
        stats = runtime.driver.stats
        stats.accounting = stats.accounting.merged(rec.acct)
        if rec.host_acct is not None:
            runtime.host_accounting = runtime.host_accounting.merged(
                rec.host_acct
            )
        stats.requests += rec.requests
        stats.instructions += rec.instructions
        stats.mode_switches += rec.mode_switches
        executor = self.executor
        executor._current_mode = rec.mode_out
        executor.controller.mode_register = rec.mode_code

    def to_dict(self) -> dict:
        """JSON-ready tallies: compiler stats + the program cache's."""
        out = self.stats.to_dict()
        out["program_cache"] = self.programs.to_dict()
        return out
