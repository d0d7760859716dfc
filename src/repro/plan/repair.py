"""Repair on read: dirty-chunk marking and lazy repair of cached sub-results.

A host write to frames some cached expression reads neither drops the
entry nor repairs it.  The memory's write listener hands the planner
the written frames, and :meth:`RepairEngine.on_delta` pops every entry
that reads them, adds the chunks the write reached to the entry's
*dirty* set and re-inserts it, in pop order, under its canonical key at
the new write versions -- so later lookups of the same expression still
hit.  Nothing is computed or priced at write time.  An entry out of
repair's reach is invalidated on the spot, counted under its cause
(:data:`FALLBACK_CAUSES`):

- ``nested_child``: a child is itself a sub-expression, whose leaf
  identity is folded into the nested key;
- ``chunk_mismatch``: a child's frame run does not cover the entry's
  chunks;
- ``inter_chip``: a dirty chunk's operands span chips, so it cannot be
  recomputed in memory.

When planning next serves a dirty entry, the serving wave repairs it
(:meth:`RepairEngine.repair`) after its exec flush and before its
serves, once however many of the wave's requests it serves.  Every
dirty chunk is recomputed from the live operand rows, for AND, OR, XOR
and INV alike, and priced from the step templates a driver-issued bulk
op uses (:meth:`PimExecutor._step_rows`): per entry its mode switch (an
MRS in a fenced segment of its own), then one fenced segment per dirty
chunk, whose last combine step programs only the flipped result cells
(differential write) and earlier steps the full chunk.  The repair's
cost is folded into the first serving request's result, so the read
that pulls a repair pays for it and the write pays only its transfer;
writes that land between two reads are repaired once.  A dirty hit is
always repaired: it recomputes a subset of the chunks that executing
the request would, with the same step templates.  The compiled and
interpreted planners repair identically: the step templates are
already memoized by the executor, so there is no repair program to
cache.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List

import numpy as np

from repro import telemetry
from repro.core.bitops import popcount_rows
from repro.core.ops import PimOp
from repro.core.stats import OpAccounting
from repro.memsim.address import OpLocality
from repro.memsim.controller import CommandBatch

__all__ = ["FALLBACK_CAUSES", "RepairEngine"]

_MARKED = telemetry.counter("plan.repair.marked")
_REPAIRS = telemetry.counter("plan.repair.repairs")
_FALLBACKS = telemetry.counter("plan.repair.fallback_invalidations")
_CHUNKS = telemetry.counter("plan.repair.chunks")

#: why an entry falls back to invalidation (one counter each; they sum
#: to ``plan.repair.fallback_invalidations``)
FALLBACK_CAUSES = ("nested_child", "chunk_mismatch", "inter_chip")
_FALLBACK_BY_CAUSE = {
    cause: telemetry.counter(f"plan.repair.fallback.{cause}")
    for cause in FALLBACK_CAUSES
}

#: the recompute shape of one entry, per chunk: its bits and its
#: combine steps (``(fanin, channel, locality)`` groups; ``None`` when
#: the chunk's operands span chips)
_Shape = namedtuple("_Shape", "chunk_bits groups")

#: one dirty entry's repair: its op, dirty chunks (sorted), their new
#: rows and the entry's shape
_Plan = namedtuple("_Plan", "entry op aff new shape")


def _child_frames(children) -> List[List[int]]:
    """Per leaf child of a canonical key, its chunk frames."""
    return [np.frombuffer(ch[1], dtype=np.intp).tolist() for ch in children]


class RepairEngine:
    """Marks the cached entries a host write reaches dirty, and repairs
    a dirty entry when planning serves it.

    Owned by one :class:`~repro.plan.planner.QueryPlanner`; its state
    is a memo of entry shapes.  It never writes main memory: repairs
    land in the host-side cached rows.
    """

    def __init__(self, planner):
        self.planner = planner
        #: (op, n_bits, child frame bytes) -> _Shape
        self._shapes: Dict[tuple, _Shape] = {}

    # -- write time: mark ----------------------------------------------------

    def on_delta(self, frames) -> None:
        """Mark dirty the chunks a host write to ``frames`` reaches in
        every cached entry reading them, re-keyed at the new versions;
        invalidate the entries repair cannot reach."""
        planner = self.planner
        cache = planner.cache
        entries = cache.pop_frames(frames)
        if not entries:
            return
        written = set(frames.tolist() if type(frames) is np.ndarray else frames)
        versions = planner._versions
        # leaf frame bytes -> (chunks, written chunks, leaf key at the
        # new versions): one write's entries mostly share their leaves
        leaves: Dict[bytes, tuple] = {}
        fallbacks = 0
        for entry in entries:
            op_value, n_bits, children = entry.key
            cause = None
            fresh = False  # a chunk newly dirty
            new_children = []
            for ch in children:
                if ch[0] != "L":
                    cause = "nested_child"
                    break
                leaf = leaves.get(ch[1])
                if leaf is None:
                    farr = np.frombuffer(ch[1], dtype=np.intp)
                    hit = [c for c, f in enumerate(farr.tolist()) if f in written]
                    leaf = leaves[ch[1]] = (
                        len(farr), hit,
                        ("L", ch[1], versions[farr].tobytes()) if hit else None,
                    )
                n_frames, hit, new_leaf = leaf
                if n_frames != len(entry.rows):
                    cause = "chunk_mismatch"
                    break
                new_children.append(new_leaf or ch)
                if hit:
                    if entry.dirty is None:
                        entry.dirty = set()
                    if not entry.dirty.issuperset(hit):
                        entry.dirty.update(hit)
                        fresh = True
            if cause is None and fresh:
                groups = self._shape(op_value, n_bits, children).groups
                if any(groups[c] is None for c in entry.dirty):
                    cause = "inter_chip"
            if cause is not None:
                _FALLBACK_BY_CAUSE[cause].add()
                fallbacks += 1
                continue
            # only version bytes changed, and children with distinct
            # frames keep their order: the key stays canonical
            cache.put(
                (op_value, n_bits, tuple(new_children)),
                entry.rows, n_bits, entry.dep_frames, entry.dirty,
            )
        marked = len(entries) - fallbacks
        planner.stats.repairs_marked += marked
        _MARKED.add(marked)
        if fallbacks:
            planner.stats.repair_fallbacks += fallbacks
            cache.tally_invalidations(fallbacks)
            _FALLBACKS.add(fallbacks)

    # -- read time: repair ----------------------------------------------------

    def repair(self, entries) -> List[OpAccounting]:
        """Recompute every dirty chunk of ``entries`` in place, one
        numpy pass per entry and one priced batch for all of them;
        returns each entry's accounting, in order."""
        planner = self.planner
        executor = planner.executor
        memory = planner.memory
        plans = []
        for entry in entries:
            op_value, n_bits, children = entry.key
            op, aff = PimOp.parse(op_value), sorted(entry.dirty)
            # new contents of the dirty chunks (functional model)
            lists = [[fl[c] for c in aff] for fl in _child_frames(children)]
            if len(lists) == 1 and op is not PimOp.INV:
                new = memory.gather_rows(lists[0])
            else:
                new = memory.bitwise_rows(op_value, lists)
            plans.append(_Plan(
                entry, op, aff, new, self._shape(op_value, n_bits, children)
            ))
        n_chunks = sum(len(p.aff) for p in plans)
        with telemetry.span(
            "plan.repair.apply", entries=len(plans), chunks=n_chunks
        ):
            wb_widths = popcount_rows(np.bitwise_xor(
                np.concatenate([p.entry.rows[p.aff] for p in plans]),
                np.concatenate([p.new for p in plans]),
            ))

            # -- one priced command stream, one marked op per entry -------
            step_rows = executor._step_rows
            sink = CommandBatch()
            pos = 0
            for p in plans:
                sink.mark()
                executor._set_mode(p.op, sink)
                sink.fence()
                for c, width in zip(p.aff, wb_widths[pos:pos + len(p.aff)]):
                    chunk_bits, groups = p.shape.chunk_bits[c], p.shape.groups[c]
                    last = len(groups) - 1
                    for g, (fanin, ch, loc) in enumerate(groups):
                        rows, wb = step_rows(p.op, loc, ch, fanin, chunk_bits, False)
                        sink.extend_steps(
                            rows, wb, (width if g == last else chunk_bits,), False
                        )
                    sink.fence()
                pos += len(p.aff)
            total, per_entry = executor.controller.execute_batch(
                sink, split_ops=True
            )

            accts = []
            for p, stats in zip(plans, per_entry):
                shape = p.shape
                acct = OpAccounting()
                acct.absorb(stats)
                acct.count_bits(sum(shape.chunk_bits[c] for c in p.aff))
                acct.count_step(sum(len(shape.groups[c]) for c in p.aff))
                accts.append(acct)
                p.entry.rows[p.aff] = p.new
                p.entry.dirty = None

        stats = planner.stats
        stats.repairs += len(plans)
        stats.repaired_chunks += n_chunks
        stats.repair_latency_s += total.latency
        stats.repair_energy_j += total.energy
        _REPAIRS.add(len(plans))
        _CHUNKS.add(n_chunks)
        return accts

    # -- shape ---------------------------------------------------------------

    def _shape(self, op_value: str, n_bits: int, children) -> _Shape:
        """The recompute shape of an entry with this key's op, width and
        child frames (a pure function of geometry and those)."""
        key = (op_value, n_bits, tuple(ch[1] for ch in children))
        shape = self._shapes.get(key)
        if shape is not None:
            return shape
        op = PimOp.parse(op_value)
        frames = _child_frames(children)
        row_bits = self.planner.geometry.row_bits
        executor = self.planner.executor
        mapper = executor.mapper
        chunk_bits, groups = [], []
        for c in range(len(frames[0])):
            operands = [fl[c] for fl in frames]
            loc = mapper.classify_frames(operands)
            chunk_bits.append(min(n_bits - c * row_bits, row_bits))
            groups.append(None if loc is OpLocality.INTER_CHIP else tuple(
                (fanin, mapper.channel_of(operands[0]), loc)
                for fanin in executor.step_fanins(op, len(operands), loc)
            ))
        shape = _Shape(tuple(chunk_bits), tuple(groups))
        if len(self._shapes) >= 1 << 14:  # keys embed frames
            self._shapes.clear()
        self._shapes[key] = shape
        return shape
