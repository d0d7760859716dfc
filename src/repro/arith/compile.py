"""Whole-query analytics programs: shape-keyed, constant-parameterized.

The planner already makes a repeated ``analyze`` query cheap -- every
compare gate serves from the sub-result cache and the mask read and
aggregate popcounts replay as one compiled to-host stream -- but the
*orchestration* still runs in Python on every call: the query body
rebuilds the gate request list, the planner re-canonicalises every
expression, and the stream pays its raw-key lookup.  At bench_arith
scale that Python tax is ~95% of steady-state wall time.

:class:`AnalyticsCompiler` lowers the whole query one level further.
A query's **shape** -- predicate structure (columns, comparison ops,
range bounds), aggregate kind, and the tenant/table scope -- keys an
:class:`AnalyticsProgram` in the plan layer's
:class:`~repro.plan.cache.ProgramCache`.  The comparison **constants**
are runtime parameters: per ``(constants, entry mode)`` the program
holds one pricing record, captured from a genuinely steady interpreted
run (one where every sub-expression served from the cache), and
replays it thereafter with zero planner involvement -- one dict probe,
one validity check, one accounting merge.

Honesty rules, in the same spirit as the planner's serve pricing:

- A ``(constants, entry mode)`` pair without a record runs interpreted,
  and the run is recorded if it was perfectly steady: zero cache
  misses, zero program compilations, zero host fallbacks and zero
  repairs of dirty cached entries during the run.  That is the only
  gate -- a first sighting whose gates all serve from the cache records
  at once; a run that was not steady (its misses are real, are priced
  and fill the cache) leaves the pair :data:`NOT_STEADY`, and the next
  steady run records.  Later sightings replay the record.
- A record's accounting delta is exactly what the interpreted steady
  run paid (batch pricing is content-determined, so the delta is
  stable across repeats and across sightings); replaying merges it into
  the same driver / host accounting and per-channel bus ledgers the
  interpreted path feeds, bumps the same request/instruction/mode-switch
  tallies, and restores the executor's mode register to the recorded
  exit state.
- A record keeps the rows its run wrote to scratch (the gate wave's
  serves).  A replay queues the record on the pool, and its rows land,
  unpriced and each frame once with its last row, before the pool's
  next interpreted run -- whose differential write-backs are then
  priced against the rows ``compile=False`` would have left there.
- Replays are validated through the planner
  (:meth:`~repro.plan.planner.QueryPlanner.replayable`): a program
  holds one planner stamp over every leaf frame it read (column planes,
  bitmap bins, the scratch-pool constants), and a replay is only served
  while no stamped frame was written or freed and no sub-result was
  evicted (the recorded serve pricing assumed those entries stayed
  resident).  A failed check drops all of the program's records and
  unbinds its leaves, so the next record binds to whatever frames the
  query reads then.  A new record validates the program first, so it
  never re-blesses stale ones.

:meth:`AnalyticsCompiler.run` owns the whole lifecycle of one call:
replay, or else run the one query body (:func:`repro.arith.query.
run_query`) on the caller's scratch pool (its queued replay rows
landed, pre-sized from the shape's recorded footprint), record it when
steady, and drain the pool.

Telemetry lands under ``plan.analytics.*``; per-compiler tallies are
on :class:`AnalyticsStats` (surfaced in BENCH_arith.json).  Every
interpreted call counts one cause under ``plan.analytics.fallback.*``
(:data:`FALLBACK_CAUSES`), so the causes sum to the fallbacks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.arith.query import query_leaves, run_query
from repro.plan.cache import ProgramCache

__all__ = [
    "AnalyticsCompiler",
    "AnalyticsProgram",
    "AnalyticsRun",
    "AnalyticsStats",
    "FALLBACK_CAUSES",
    "NOT_STEADY",
    "analytics_program_key",
]

_PROGRAMS = telemetry.counter("plan.analytics.programs")
_COMPILES = telemetry.counter("plan.analytics.compiles")
_REPLAYS = telemetry.counter("plan.analytics.replays")
_FALLBACKS = telemetry.counter("plan.analytics.fallbacks")
_INVALIDATIONS = telemetry.counter("plan.analytics.invalidations")

#: why an analyze call interpreted instead of replaying a record; every
#: fallback counts exactly one cause
FALLBACK_CAUSES = (
    "new_shape",  # first call of the query shape
    "new_constants",  # shape known, these constants never seen
    "entry_mode",  # constants seen, but under another entry mode
    "not_steady",  # seen before; the last interpreted run was not steady
    "invalidated",  # a stamped frame changed: the records were dropped
)
_FALLBACK_CAUSE_COUNTERS = {
    cause: telemetry.counter(f"plan.analytics.fallback.{cause}")
    for cause in FALLBACK_CAUSES
}


#: record marker: a ``(constants, entry mode)`` pair seen, and its last
#: interpreted run was not steady
NOT_STEADY = object()

#: shapes kept per compiler (LRU)
_MAX_PROGRAMS = 1024
#: pricing records and sightings kept per program (one LRU over
#: (constants, entry mode), oldest first)
_MAX_RECORDS = 512
#: distinct row contents shared across records before the table is
#: dropped (records keep theirs; later ones stop sharing with them)
_MAX_SHARED = 1 << 16


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


def _bus_ledgers(buses) -> list:
    """Every channel's ``(commands, bytes, busy s, J)`` bus ledger."""
    return [
        (s.commands, s.data_bytes, s.busy_time, s.energy)
        for s in (bus.stats for bus in buses)
    ]


class AnalyticsRun(NamedTuple):
    """One analyze call's answer and simulated cost, replayed or not."""

    popcount: int
    value: float
    groups: Optional[Tuple[int, ...]]
    #: mask bits (uint8 0/1) when the caller's evaluation returns them
    bits: Optional[np.ndarray]
    latency_s: float
    energy_j: float
    instructions: int


class _Record:
    """One replayable steady-state execution of a program instance."""

    __slots__ = (
        "run",  # the recorded AnalyticsRun, without mask bits
        "packed_bits",  # bytes of np.packbits(mask), or None (table path)
        "n_bits",  # mask length, for unpacking
        "acct",  # driver (PIM) OpAccounting delta
        "host_acct",  # host-side OpAccounting delta, or None if empty
        "bus",  # per-channel (channel, commands, bytes, busy s, J) deltas
        "requests",  # DriverStats int deltas (instructions: run's)
        "mode_switches",
        "mode_out",  # executor mode state after the run (op enum or None)
        "mode_code",  # controller mode register after the run
        "pool",  # the scratch pool the run took its planes from
        "scratch",  # (frames, packed row bytes) the run wrote to scratch
    )


@dataclass
class AnalyticsStats:
    """Per-compiler tallies (the ``plan.analytics.*`` counters, scoped)."""

    programs: int = 0
    compiles: int = 0
    replays: int = 0
    fallbacks: int = 0
    invalidations: int = 0
    #: cause -> fallbacks (see :data:`FALLBACK_CAUSES`); sums to
    #: ``fallbacks``
    fallback_causes: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FALLBACK_CAUSES, 0)
    )

    def to_dict(self) -> dict:
        return {
            "programs": self.programs,
            "compiles": self.compiles,
            "replays": self.replays,
            "fallbacks": self.fallbacks,
            "fallback_causes": dict(self.fallback_causes),
            "invalidations": self.invalidations,
        }


class AnalyticsProgram:
    """One compiled query shape and its per-constants pricing records."""

    __slots__ = (
        "key",
        "stamp",  # planner stamp over every frame the query reads, or None
        "records",  # OrderedDict[(constants, entry_mode)] -> _Record | NOT_STEADY
        "scratch_high_water",  # peak scratch planes of the fallback runs
    )

    def __init__(self, key):
        self.key = key
        self.stamp = None
        self.records: "OrderedDict[tuple, object]" = OrderedDict()
        self.scratch_high_water = 0


class AnalyticsCompiler:
    """Shape-keyed whole-query program cache for the ``analyze`` verb.

    Disabled (:meth:`run` just interprets) unless the runtime has a
    planner with compilation on -- the compiler sits strictly
    *above* the planner and relies on its stamps for validation and on
    its steady-state serve pricing for the recorded deltas.
    """

    def __init__(self, runtime):
        planner = getattr(runtime, "planner", None)
        self.runtime = runtime
        self.planner = planner
        self.enabled = planner is not None and planner.compile_enabled
        self.stats = AnalyticsStats()
        #: shape key -> AnalyticsProgram, bounded LRU (the same store
        #: the planner uses for its programs)
        self.programs = ProgramCache(_MAX_PROGRAMS)
        #: a record's packed rows (mask, scratch) -> the one equal object
        #: every record shares: most are the same cached sub-results,
        #: recorded again under other constants or entry modes
        self._shared: dict = {}
        if self.enabled:
            self.executor = runtime.system.executor

    def run(
        self, filters, aggregate, scope, prepare: Callable, keep_bits: bool = True
    ) -> AnalyticsRun:
        """Serve one analyze call, replayed or interpreted.

        ``prepare()`` is called only when the call interprets.  It
        returns ``(pool, resolve)``: the scratch pool the query runs on
        and its handle resolver (see :mod:`repro.arith.query`).  An
        interpreted call's cost is the runtime accounting delta it
        caused.  ``keep_bits=False`` drops the mask bits from the
        answer (and from any record).
        """
        program = None
        if self.enabled:
            key, constants = analytics_program_key(filters, aggregate, scope)
            rec, cause = self.replay(key, constants)
            if rec is not None:
                if rec.packed_bits is None:
                    return rec.run
                return rec.run._replace(
                    bits=np.unpackbits(
                        np.frombuffer(rec.packed_bits, dtype=np.uint8),
                        count=rec.n_bits,
                    )
                )
            program, entry, before = self.observe(key, constants, cause)
        pool, resolve = prepare()
        if pool.replayed:
            self._land_replayed(pool)
        if program is not None and program.scratch_high_water:
            pool.preallocate(program.scratch_high_water)
        runtime = self.runtime
        lat0, en0 = runtime.total_latency(), runtime.total_energy()
        instr0 = runtime.driver.stats.instructions
        out = run_query(pool, filters, aggregate, resolve)
        bits = out.bits if keep_bits else None
        if program is not None:
            if pool.high_water > program.scratch_high_water:
                program.scratch_high_water = pool.high_water
            self._record(
                program, entry, before, out, bits, pool,
                partial(query_leaves, pool, filters, aggregate, resolve),
            )
        pool.recycle()
        pool.assert_drained()
        return AnalyticsRun(
            out.popcount,
            out.value,
            out.groups,
            bits,
            runtime.total_latency() - lat0,
            runtime.total_energy() - en0,
            runtime.driver.stats.instructions - instr0,
        )

    def replay(self, key, constants) -> Tuple[Optional[_Record], Optional[str]]:
        """Serve one analyze from its program's record: ``(record,
        None)``, or ``(None, cause)`` with the
        :data:`FALLBACK_CAUSES` entry saying why it cannot.

        On a hit the recorded accounting is already applied: the driver
        and host accounting advance by exactly what the steady
        interpreted run paid, and the executor's mode state is restored
        to the recorded exit state (entry mode is part of the record
        key, so the delta's MRS content always matches).
        """
        program = self.programs.get(key)
        if program is None:
            return None, "new_shape"
        entry = (constants, self.executor._current_mode)
        records = program.records
        rec = records.get(entry)
        if rec is None:
            seen = any(other == constants for other, _mode in records)
            return None, "entry_mode" if seen else "new_constants"
        if rec is NOT_STEADY:
            return None, "not_steady"
        if not self._valid(program):
            return None, "invalidated"
        records.move_to_end(entry)
        self._apply(rec)
        self.stats.replays += 1
        _REPLAYS.add()
        return rec, None

    def observe(self, key, constants, cause: str):
        """Pre-run hook of an interpreted run; ``cause`` is why it
        interprets (from :meth:`replay`).

        Creates the program shell on first sight of a shape.  Returns
        ``(program, entry, before)``: the ``(constants, entry mode)``
        record key and the pre-run snapshot :meth:`_record` checks the
        run's steadiness against and takes its deltas from.
        """
        self.stats.fallbacks += 1
        _FALLBACKS.add()
        self.stats.fallback_causes[cause] += 1
        _FALLBACK_CAUSE_COUNTERS[cause].add()
        program = self.programs.get(key)
        if program is None:
            program = AnalyticsProgram(key)
            self.programs.put(key, program)
            self.stats.programs += 1
            _PROGRAMS.add()
        runtime = self.runtime
        stats = runtime.driver.stats
        plan = self.planner.stats
        before = (
            stats.accounting.copy(),
            runtime.host_accounting.copy(),
            stats.requests,
            stats.instructions,
            stats.mode_switches,
            stats.host_fallbacks,
            plan.cache_misses,
            plan.compilations,
            plan.repairs,
            _bus_ledgers(self.executor.controller.buses),
        )
        return program, (constants, self.executor._current_mode), before

    def _record(self, program, entry, before, out, bits, pool, leaves_fn) -> None:
        """Record one interpreted run as ``entry``'s replay if it was
        steady: no cache miss, compilation, host fallback or repair of
        a dirty cached entry happened during it.  A run that was not
        steady marks ``entry`` :data:`NOT_STEADY`."""
        (pim0, host0, requests0, instr0, switches0, fallbacks0, misses0,
         compilations0, repairs0, _) = before
        runtime = self.runtime
        stats = runtime.driver.stats
        plan = self.planner.stats
        rec = NOT_STEADY
        if (
            plan.cache_misses == misses0
            and plan.compilations == compilations0
            and stats.host_fallbacks == fallbacks0
            and plan.repairs == repairs0
        ):
            rec = self._capture(
                program, before, out, bits, pool, leaves_fn, runtime, stats
            )
        records = program.records
        records[entry] = rec
        records.move_to_end(entry)
        while len(records) > _MAX_RECORDS:
            records.popitem(last=False)

    def _capture(
        self, program, before, out, bits, pool, leaves_fn, runtime, stats
    ) -> _Record:
        """A steady run's record (and the program's stamp, if stale)."""
        pim0, host0, requests0, instr0, switches0 = before[:5]
        rec = _Record()
        rec.acct = acct = stats.accounting.minus(pim0)
        host = runtime.host_accounting.minus(host0)
        if not (host.latency or host.energy or host.bus_commands):
            host = None
        rec.host_acct = host
        rec.requests = stats.requests - requests0
        rec.mode_switches = stats.mode_switches - switches0
        executor = self.executor
        rec.bus = [
            (ch, *(now - then for now, then in zip(after, start)))
            for ch, (after, start) in enumerate(
                zip(_bus_ledgers(executor.controller.buses), before[-1])
            )
            if after != start
        ]
        rec.mode_out = executor._current_mode
        rec.mode_code = executor.controller.mode_register
        rec.pool = pool
        frames = tuple(f for handle in out.written for f in handle.frames)
        shared = self._shared
        if len(shared) >= _MAX_SHARED:
            shared.clear()
        rows = tuple(
            shared.setdefault(row, row)
            for row in map(bytes, executor.memory.gather_rows(frames))
        )
        scratch = (frames, rows)
        rec.scratch = shared.setdefault(scratch, scratch)
        rec.run = AnalyticsRun(
            out.popcount,
            out.value,
            out.groups,
            None,
            acct.latency + (host.latency if host else 0.0),
            acct.energy + (host.energy if host else 0.0),
            stats.instructions - instr0,
        )
        if bits is None:
            rec.packed_bits = None
            rec.n_bits = 0
        else:
            packed = np.packbits(bits).tobytes()
            rec.packed_bits = shared.setdefault(packed, packed)
            rec.n_bits = int(bits.size)
        if program.stamp is None or not self._valid(program):
            frames = []
            for handle in leaves_fn():
                frames.extend(handle.frames)
            program.stamp = self.planner.stamp(
                np.unique(np.asarray(frames, dtype=np.intp))
            )
        self.stats.compiles += 1
        _COMPILES.add()
        return rec

    # -- validation / invalidation -------------------------------------------

    def _valid(self, program: AnalyticsProgram) -> bool:
        if self.planner.replayable(program.stamp):
            return True
        self._reset(program)
        return False

    def _reset(self, program: AnalyticsProgram) -> None:
        """Drop a program's records and leaf binding (the shape survives)."""
        program.stamp = None
        program.records.clear()
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
        stats.instructions += rec.run.instructions
        stats.mode_switches += rec.mode_switches
        executor = self.executor
        executor._current_mode = rec.mode_out
        controller = executor.controller
        controller.mode_register = rec.mode_code
        for ch, commands, data_bytes, busy_time, energy in rec.bus:
            controller.buses[ch].account(commands, data_bytes, busy_time, energy)
        # the recorded run's scratch writes land before the pool next
        # interprets (see _land_replayed)
        replayed = rec.pool.replayed
        replayed.pop(rec, None)
        replayed[rec] = None

    def _land_replayed(self, pool) -> None:
        """Write the scratch rows the pool's replays skipped, once each.

        An interpreted run prices its differential write-backs against
        the rows its scratch planes hold, so they must hold what the
        interpreter would have left there: every frame's row from the
        last replay that wrote it.  The rows land as one unpriced wave
        write (the serves that wrote them in the recorded run priced no
        write), which drops the cached entries reading them.
        """
        last = {}
        for rec in pool.replayed:
            last.update(zip(*rec.scratch))
        pool.replayed.clear()
        rows = np.frombuffer(b"".join(last.values()), dtype=np.uint8)
        self.planner.land_wave_rows(list(last), rows.reshape(len(last), -1))

    def to_dict(self) -> dict:
        """JSON-ready tallies: compiler stats + the program cache's."""
        out = self.stats.to_dict()
        out["program_cache"] = self.programs.to_dict()
        return out
