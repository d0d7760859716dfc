"""Delta repair of cached sub-results (incremental view maintenance).

A write to frames some cached expression reads no longer has to drop
the entry.  The main memory's delta listener hands the planner the
per-frame ``old XOR new`` bitmap (free in the functional model -- the
write path already reads and programs those rows), and the algebra of
the cached op decides how to fix the packed result rows in place:

- **XOR / NOT** are linear over GF(2): flipping input bits flips
  exactly those output bits, so one bulk XOR of the delta row into the
  touched chunk repairs it (NOT is XOR against an implicit all-ones
  mask -- same rule).
- **AND / OR** are not linear; their repair is a *delta-masked
  recompute* limited to the touched chunks, reading the operand rows'
  new contents.  Chunks the write did not reach keep their cached
  value untouched.

A write's popped entries are repaired as one batch.  Each entry is
planned alone: its shape, then a cost gate estimating repair vs.
recomputing the whole entry from the live :class:`PriceTable`.  An
entry out of repair's reach, or whose repair would be strictly worse
(e.g. an XOR whose every chunk took multiple deltas), falls back to
invalidation, counted under its cause (:data:`FALLBACK_CAUSES`).  The
rest share one functional pass and one command stream: each entry's
program, built from the step templates a driver-issued bulk op uses
(:meth:`PimExecutor._step_rows`), is appended in pop order behind a
fence, each mode switch an MRS in a fenced segment of its own.
Segment latencies add, so one ``execute_batch`` prices the write
exactly as pricing each entry separately would.

Repaired entries are re-inserted, in pop order, under their canonical
key at the *new* write versions, so later lookups of the same
expression hit directly.  The compiled and interpreted planners emit
repairs identically: the step templates are already memoized by the
executor, so there is no repair program to cache.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.core.ops import PimOp
from repro.core.stats import OpAccounting
from repro.memsim.address import OpLocality
from repro.memsim.controller import CommandBatch, CommandKind
from repro.core.bitops import popcount_rows

__all__ = ["FALLBACK_CAUSES", "RepairEngine"]

_REPAIRS = telemetry.counter("plan.repair.repairs")
_FALLBACKS = telemetry.counter("plan.repair.fallback_invalidations")
_CHUNKS = telemetry.counter("plan.repair.chunks")
#: simulated latency saved vs. recomputing the repaired entries
_SAVED = telemetry.accumulator("plan.repair.sim_saved_s")

#: why an entry falls back to invalidation (one counter each; they sum
#: to ``plan.repair.fallback_invalidations``)
FALLBACK_CAUSES = ("nested_child", "chunk_mismatch", "inter_chip", "cost_gate")
_FALLBACK_BY_CAUSE = {
    cause: telemetry.counter(f"plan.repair.fallback.{cause}")
    for cause in FALLBACK_CAUSES
}

#: command code -> CommandKind (codes are enum-declaration indices)
_KIND_OF = tuple(CommandKind)

#: one entry's repair: per child its chunk frames and which chunks the
#: write hit; the affected chunks; the shape; seconds saved vs. recompute
_Plan = namedtuple("_Plan", "entry op rep_op frames hits aff shape saved")


class RepairEngine:
    """Applies algebraic delta repair to entries popped from the cache.

    Owned by one :class:`~repro.plan.planner.QueryPlanner`; state is
    pure cost memos, so the engine is safe to drive from the memory's
    write listener (it never writes main memory itself -- repairs land
    in the host-side cached rows).
    """

    __slots__ = ("planner", "_cost_memo", "_recompute_memo")

    def __init__(self, planner):
        self.planner = planner
        #: (op, locality, channel, fanin, chunk_bits) -> serial seconds
        self._cost_memo: Dict[tuple, float] = {}
        #: (op, n_bits, child frame bytes) -> whole-entry recompute seconds
        self._recompute_memo: Dict[tuple, float] = {}

    # -- entry points --------------------------------------------------------

    def on_delta(self, farr: np.ndarray, deltas: np.ndarray) -> None:
        """Repair or invalidate every cached entry reading ``farr``."""
        planner = self.planner
        cache = planner.cache
        entries = cache.pop_frames(farr)
        if not entries:
            return
        delta_map = dict(zip(farr.tolist(), deltas))
        plans = []
        for entry in entries:
            plan = self._plan(entry, delta_map)
            if isinstance(plan, str):
                _FALLBACK_BY_CAUSE[plan].add()
            else:
                plans.append(plan)
        fallbacks = len(entries) - len(plans)
        with telemetry.span(
            "plan.repair.apply", entries=len(plans), fallbacks=fallbacks
        ) as sp:
            if plans:
                sp.add(chunks=self._apply(plans, delta_map))
        if fallbacks:
            planner.stats.repair_fallbacks += fallbacks
            cache.tally_invalidations(fallbacks)
            _FALLBACKS.add(fallbacks)

    # -- one batch per write -------------------------------------------------

    def _plan(self, entry, delta_map):
        """One popped entry's :class:`_Plan`, or its fallback cause."""
        op_value, n_bits, children = entry.key
        if any(ch[0] != "L" for ch in children):
            # a child is itself a sub-expression: its leaf identity is
            # folded into the nested key, out of frame-delta reach
            return "nested_child"
        n_chunks = entry.rows.shape[0]
        frames = [np.frombuffer(ch[1], dtype=np.intp).tolist() for ch in children]
        if any(len(fl) != n_chunks for fl in frames):
            return "chunk_mismatch"
        hits = [[f in delta_map for f in fl] for fl in frames]
        aff = [c for c in range(n_chunks) if any(h[c] for h in hits)]
        if not aff:  # pragma: no cover - the frame index is exact
            return "chunk_mismatch"
        op = PimOp.parse(op_value)
        linear = op is PimOp.XOR or op is PimOp.INV
        rep_op = PimOp.XOR if linear else op
        # per affected chunk: (chunk_bits, groups); a group is one
        # combine step: (fanin, channel, locality)
        channel_of = self.planner.executor.mapper.channel_of
        row_bits = self.planner.geometry.row_bits
        shape = []
        for c in aff:
            if linear:
                # one 2-operand XOR step per written (child, frame)
                # occurrence: cached row ^= delta row
                groups = tuple(
                    (2, channel_of(fl[c]), OpLocality.INTRA_SUBARRAY)
                    for fl, h in zip(frames, hits)
                    if h[c]
                )
            else:
                groups = self._chunk_groups(op, [fl[c] for fl in frames])
                if groups is None:
                    return "inter_chip"
            shape.append((min(n_bits - c * row_bits, row_bits), groups))
        repair_est = sum(
            self._group_cost(rep_op, loc, ch, fanin, chunk_bits)
            for chunk_bits, groups in shape
            for fanin, ch, loc in groups
        )
        recompute_est = self._recompute_estimate(op, n_bits, children, frames)
        if repair_est > recompute_est:
            return "cost_gate"
        return _Plan(
            entry, op, rep_op, frames, hits, aff, shape,
            recompute_est - repair_est,
        )

    def _apply(self, plans, delta_map) -> int:
        """Repair every planned entry with one functional pass, one priced
        batch and one accounting merge; returns the repaired chunks."""
        planner = self.planner

        # -- new contents of the touched chunks (functional model) ----------
        old = [p.entry.rows[p.aff] for p in plans]
        new = [None] * len(plans)
        by_arity: Dict[tuple, List[int]] = {}
        for i, p in enumerate(plans):
            if p.rep_op is not PimOp.XOR:  # AND / OR
                by_arity.setdefault((p.op.value, len(p.frames)), []).append(i)
                continue
            new[i] = old[i].copy()
            for fl, h in zip(p.frames, p.hits):
                for j, c in enumerate(p.aff):
                    if h[c]:
                        new[i][j] ^= delta_map[fl[c]]
        for (op_value, n_ops), members in by_arity.items():
            lists = [
                [plans[i].frames[k][c] for i in members for c in plans[i].aff]
                for k in range(n_ops)
            ]
            if n_ops == 1:
                stacked = planner.memory.gather_rows(lists[0])
            else:
                stacked = planner.memory.bitwise_rows(op_value, lists)
            bounds = np.cumsum([len(plans[i].aff) for i in members])
            for i, part in zip(members, np.split(stacked, bounds[:-1])):
                new[i] = part
        wb_widths = popcount_rows(
            np.bitwise_xor(np.concatenate(old), np.concatenate(new))
        )

        # -- one priced command stream, one accounting merge -----------------
        acct = OpAccounting()
        executor = planner.executor
        step_rows = executor._step_rows
        sink = CommandBatch()
        pos = 0
        for p in plans:
            executor._set_mode(p.rep_op, sink)
            sink.fence()
            # one fenced segment per chunk; its last group programs only
            # the flipped result cells (differential write), earlier
            # accumulation groups the full chunk
            for (chunk_bits, groups), width in zip(
                p.shape, wb_widths[pos:pos + len(p.aff)]
            ):
                last = len(groups) - 1
                for g, (fanin, ch, loc) in enumerate(groups):
                    rows, wb = step_rows(
                        p.rep_op, loc, ch, fanin, chunk_bits, False
                    )
                    sink.extend_steps(
                        rows, wb, (width if g == last else chunk_bits,), False
                    )
                sink.fence()
            pos += len(p.aff)
            acct.count_bits(sum(chunk_bits for chunk_bits, _ in p.shape))
            acct.count_step(sum(len(groups) for _, groups in p.shape))
        acct.absorb(executor.controller.execute_batch(sink))
        driver = planner.driver
        driver.stats.accounting = driver.stats.accounting.merged(acct)

        # -- re-insert under the canonical key at the new versions -----------
        versions = planner._versions
        for p, new_aff in zip(plans, new):
            op_value, n_bits, children = p.entry.key
            new_children = [
                ("L", ch_key[1], versions[fl].tobytes()) if any(h) else ch_key
                for ch_key, fl, h in zip(children, p.frames, p.hits)
            ]
            if p.op is PimOp.OR or p.op is PimOp.AND:
                new_children = sorted(set(new_children))
            elif p.op is PimOp.XOR:
                new_children = sorted(new_children)
            new_rows = p.entry.rows.copy()
            new_rows[p.aff] = new_aff
            planner.cache.put(
                (op_value, n_bits, tuple(new_children)),
                new_rows, n_bits, p.entry.dep_frames,
            )

        stats = planner.stats
        saved = sum(p.saved for p in plans)
        stats.repairs += len(plans)
        stats.repaired_chunks += pos
        stats.repair_latency_s += acct.latency
        stats.repair_energy_j += acct.energy
        stats.repair_saved_s += saved
        _REPAIRS.add(len(plans))
        _CHUNKS.add(pos)
        _SAVED.add(saved)
        return pos

    # -- shape / cost helpers ------------------------------------------------

    def _chunk_groups(self, op, chunk_frames) -> Optional[tuple]:
        """Combine steps of recomputing one chunk in memory; ``None``
        when its operands span chips."""
        mapper = self.planner.executor.mapper
        loc = mapper.classify_frames(chunk_frames)
        if loc is OpLocality.INTER_CHIP:
            return None
        ch = mapper.channel_of(chunk_frames[0])
        fanins = self._group_fanins(op, len(chunk_frames), loc)
        return tuple((fanin, ch, loc) for fanin in fanins)

    def _group_fanins(self, op, n_ops: int, locality) -> tuple:
        """Combine-step fan-ins of one chunk, mirroring
        :meth:`PimExecutor._chunk_bitwise`'s decomposition."""
        if op is PimOp.INV or n_ops == 1:
            return (1,)
        if locality is not OpLocality.INTRA_SUBARRAY:
            return (n_ops,)  # buffered path: one pass over all operands
        limit = max(2, self.planner.executor.limits.single_step_limit(op))
        if n_ops <= limit:
            return (n_ops,)
        fanins = [limit]
        rem = n_ops - limit
        while rem > 0:
            take = min(limit - 1, rem)
            fanins.append(1 + take)
            rem -= take
        return tuple(fanins)

    def _group_cost(self, op, locality, channel, fanin, chunk_bits) -> float:
        """Serial (array + bus) seconds of one combine step, from the
        live PriceTable.  Write-back width does not move command
        latency (only energy), so the memo is width-free."""
        key = (op, locality, channel, fanin, chunk_bits)
        cost = self._cost_memo.get(key)
        if cost is None:
            executor = self.planner.executor
            rows, _wb = executor._step_rows(
                op, locality, channel, fanin, chunk_bits, False
            )
            price = executor.controller.price_table.price
            cost = 0.0
            for k, _ch, b, s, t in rows:
                array_t, bus_t = price(_KIND_OF[k], b, s, t)[:2]
                cost += array_t + bus_t
            self._cost_memo[key] = cost
        return cost

    def _recompute_estimate(self, op, n_bits, children, frames) -> float:
        """Cost of recomputing the whole entry with the same templates
        (a pure function of geometry, op, width and child frames)."""
        key = (op, n_bits, tuple(ch[1] for ch in children))
        total = self._recompute_memo.get(key)
        if total is not None:
            return total
        row_bits = self.planner.geometry.row_bits
        total = 0.0
        for c in range(len(frames[0])):
            groups = self._chunk_groups(op, [fl[c] for fl in frames])
            if groups is None:
                # recompute could not run in memory either; repair wins
                total = float("inf")
                break
            chunk_bits = min(n_bits - c * row_bits, row_bits)
            for fanin, ch, loc in groups:
                total += self._group_cost(op, loc, ch, fanin, chunk_bits)
        if len(self._recompute_memo) >= 1 << 14:  # keys embed frames
            self._recompute_memo.clear()
        self._recompute_memo[key] = total
        return total
