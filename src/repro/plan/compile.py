"""Kernel compiler: planned DAG waves lowered to flat numpy programs.

The planner's interpreted hot path pays Python-level cost per operation
-- command-template lookups, per-chunk list appends, per-op result
objects -- while the *shape* of everything it emits (command kinds,
channels, step counts, segment fences) is a pure function of the wave's
canonical structure: the ops, operand-sharing pattern (dense vector
ids), per-chunk channels/localities, and the executor's mode register
on entry.  Only the ``PIM_WRITEBACK`` differential widths depend on the
data.

This module exploits that: the first time a wave shape repeats, the
interpreted execution is *recorded* (``PinatuboExecutor.record_sink``)
and lowered into a program with

- a **frozen command batch**: the recorded batch's columns as
  preallocated numpy arrays that duck-type
  :class:`~repro.memsim.controller.CommandBatch`, so replay re-prices
  through the *real* ``MemoryController.execute_batch`` -- simulated
  latency/energy is byte-identical to the interpreted path by
  construction.  Data-dependent write-back widths are patched into the
  frozen ``n_bits`` column before each pricing pass;
- a **flat instruction list**: one ``(op, dst, srcs)`` per (item,
  chunk) over a structure-of-arrays slot buffer, topologically leveled
  (RAW *and* WAR edges) and grouped by ``(level, op, arity)`` so each
  group executes as a single ``ufunc.reduce`` over the buffer -- zero
  per-op Python objects on the hot path;
- replicated driver bookkeeping (requests, flushes, mode switches,
  result order), so ``DriverStats`` and telemetry counters agree with
  the interpreted run.

Programs are keyed by canonical shape (see :func:`wave_shape_key`) and
are **frame-agnostic**: slots are resolved to the wave's actual row
frames at replay time, so one program serves every recurrence of the
shape regardless of where the allocator placed the vectors.  Write
invalidation needs no program-level hook -- content correctness rides
on the planner's version-carrying sub-result keys; a write only changes
*which* requests execute, never what a shape's command stream looks
like.

Shapes the interpreter handles but the slot model cannot (multi-step
operand accumulation, duplicate destination rows, host fallbacks) are
marked :data:`UNCOMPILABLE` and stay interpreted forever.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.executor import MODE_CODES, OpResult
from repro.core.ops import BITWISE_UFUNCS, PimOp
from repro.core.stats import OpAccounting
from repro.core.bitops import popcount_rows
from repro.memsim.controller import CommandKind, KIND_CODES

__all__ = [
    "SEEN_ONCE",
    "UNCOMPILABLE",
    "ServeTemplate",
    "ToHostProgram",
    "WaveProgram",
    "build_serve_template",
    "build_to_host_program",
    "build_wave_program",
    "to_host_shape_key",
    "wave_shape_key",
]

PROGRAM_HITS = telemetry.counter("plan.compile.program_hits")
PROGRAM_MISSES = telemetry.counter("plan.compile.program_misses")
COMPILATIONS = telemetry.counter("plan.compile.compilations")
UNCOMPILABLE_SHAPES = telemetry.counter("plan.compile.uncompilable")
COMPILE_SECONDS = telemetry.accumulator("plan.compile.seconds")

_K_ACT = KIND_CODES[CommandKind.ACT]
_K_SENSE = KIND_CODES[CommandKind.PIM_SENSE]
_K_PRE = KIND_CODES[CommandKind.PRE]
_K_WB = KIND_CODES[CommandKind.PIM_WRITEBACK]
_K_WR = KIND_CODES[CommandKind.WR]


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self._name}>"


#: program-cache marker: shape observed once, not yet worth compiling
SEEN_ONCE = _Sentinel("seen-once")
#: program-cache marker: shape needs interpreted semantics forever
UNCOMPILABLE = _Sentinel("uncompilable")


class _FrozenBatch:
    """A recorded command batch's columns as preallocated numpy arrays.

    Duck-types exactly the surface ``MemoryController.execute_batch``
    reads (column sequences, ``op_starts``/``op_segment_starts``,
    ``n_segments``, ``__len__``), so replay prices through the real
    controller with zero list-to-array conversion cost.  ``n_bits`` is
    the one mutable column: write-back widths are patched in place
    before each pricing pass.
    """

    __slots__ = (
        "kinds", "channels", "n_bits", "n_steps", "transfer_bytes",
        "segments", "op_starts", "op_segment_starts", "n_segments",
        "price_memo", "price_memo_ok",
    )

    def __init__(self, cols, op_starts, op_segment_starts, n_segments,
                 memo_ok: bool):
        (self.kinds, self.channels, self.n_bits, self.n_steps,
         self.transfer_bytes, self.segments) = cols
        self.op_starts = op_starts
        self.op_segment_starts = op_segment_starts
        self.n_segments = n_segments
        self.price_memo = None
        self.price_memo_ok = memo_ok

    def __len__(self) -> int:
        return self.kinds.size


def freeze_batch(batch, memo_ok: bool = False) -> _FrozenBatch:
    """Snapshot a :class:`CommandBatch`'s columns into a frozen batch.

    ``memo_ok=True`` marks the columns immutable, opting into the
    controller's memoized batch pricing; leave it False when the replay
    patches widths (wave programs' differential write-backs).
    """
    return _FrozenBatch(
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
        memo_ok,
    )


# -- shape keys ---------------------------------------------------------------


def _mode_token(mode: Optional[PimOp]) -> str:
    return mode.value if mode is not None else ""


def wave_shape_key(mapper, exec_items, mode_in: Optional[PimOp]):
    """Canonical shape of one exec wave, or ``None`` if unkeyable.

    The key captures everything the emitted command stream and the
    functional dataflow depend on: the executor's mode register on
    entry, and per item (submission order) the op, bit width, overlap
    flag, dense vector-id of destination and sources (the
    operand-sharing pattern), and per-chunk channels and locality
    codes.  Frames themselves are *not* in the key -- two waves over
    different allocations with the same shape share one program.

    Returns ``None`` when any chunk classifies inter-chip (the
    interpreted path owns the host-fallback semantics).
    """
    vid_ids: Dict[int, int] = {}
    parts = []
    for it in exec_items:
        req = it.req
        n_chunks = it.n_chunks
        rows = []
        src_ids = []
        for src in req.sources:
            sid = vid_ids.setdefault(src.vid, len(vid_ids))
            src_ids.append(sid)
            rows.append(src.frames[:n_chunks])
        did = vid_ids.setdefault(req.dest.vid, len(vid_ids))
        rows.append(it.dest_frames)
        mat = np.asarray(rows, dtype=np.int64)
        codes = mapper.locality_codes(mat)
        if codes.max(initial=0) == 3:
            return None
        channels = mapper.channels_of(mat[0])
        parts.append((
            req.op.value,
            req.n_bits,
            req.overlap_chunks,
            did,
            tuple(src_ids),
            channels.tobytes(),
            codes.tobytes(),
        ))
    return ("wave", _mode_token(mode_in), tuple(parts))


def to_host_shape_key(
    mapper,
    op: PimOp,
    scratch: Sequence[int],
    sources: Sequence[Sequence[int]],
    n_bits: int,
    n_chunks: int,
    mode_in: Optional[PimOp],
):
    """Canonical shape of one ``bitwise_to_host`` call, or ``None``.

    No vector ids: a to-host op writes nothing, so only the command
    shape matters -- op, width, operand count, entry mode, the first
    operand's per-chunk channels, and the per-chunk locality of the
    (scratch, sources) set, mirroring the interpreted classification.
    """
    rows = [list(s[:n_chunks]) for s in sources]
    rows.append(list(scratch[:n_chunks]))
    mat = np.asarray(rows, dtype=np.int64)
    codes = mapper.locality_codes(mat)
    if codes.max(initial=0) == 3:
        return None
    channels = mapper.channels_of(mat[0])
    return (
        "to_host",
        op.value,
        n_bits,
        len(rows) - 1,
        _mode_token(mode_in),
        channels.tobytes(),
        codes.tobytes(),
    )


# -- serve templates ----------------------------------------------------------


class ServeTemplate:
    """One served result's row-buffer read, for a ``(n_bits, per-chunk
    channels)`` shape.

    ``frozen`` is the memo-priced batch, column-for-column what
    :func:`repro.plan.planner._serve_commands` emits, as one marked
    operation: per chunk a fenced ACT / PIM_SENSE / PRE on the
    destination's channel.  Its pricing is a pure function of those
    columns, so ``results`` keeps, per op, the shared read-only
    ``OpResult`` every serve of the shape returns.
    """

    __slots__ = ("frozen", "results")


def build_serve_template(geometry, n_bits: int, channels: np.ndarray) -> ServeTemplate:
    """Build the serve template of one ``(n_bits, channels)`` shape."""
    row_bits = geometry.row_bits
    n_chunks = int(channels.size)
    chunk_bits = np.minimum(
        n_bits - np.arange(n_chunks, dtype=np.int64) * row_bits, row_bits
    )
    steps = np.array(
        [geometry.sense_steps_for_bits(int(b)) for b in chunk_bits],
        dtype=np.float64,
    )
    chunk_bits = chunk_bits.astype(np.float64)
    zeros = np.zeros(n_chunks)
    ones = np.ones(n_chunks)
    cols = (
        np.tile(np.array([_K_ACT, _K_SENSE, _K_PRE], dtype=np.intp), n_chunks),
        np.repeat(np.asarray(channels, dtype=np.intp), 3),
        np.stack([chunk_bits, chunk_bits, zeros], axis=1).reshape(-1),
        np.stack([ones, steps, ones], axis=1).reshape(-1),
        np.zeros(3 * n_chunks),
        np.repeat(np.arange(n_chunks, dtype=np.intp), 3),
    )
    zero = np.zeros(1, dtype=np.intp)
    t = ServeTemplate()
    t.frozen = _FrozenBatch(cols, zero, zero, n_chunks, True)
    t.results = {}
    return t


# -- to-host programs ---------------------------------------------------------


class ToHostProgram:
    """Replayable ``bitwise_to_host``: frozen pricing + functional compute.

    A to-host op writes no memory and its command stream carries no
    data-dependent widths, so the whole call freezes on first sight:
    replay recomputes the functional result row-parallel, sets the mode
    register, and re-prices the frozen batch.  It returns the packed
    result rows; the caller decides what crosses to the host -- the
    unpacked bits (``pim_op_to_host``) or their set-bit count
    (``pim_popcount``), so both verbs share one program per shape.
    """

    __slots__ = (
        "frozen", "op", "n_chunks", "steps",
        "localities", "locality_counts", "mode_code",
    )

    def replay(
        self, executor, sources: Sequence[Sequence[int]], n_bits: int
    ) -> Tuple[np.ndarray, OpResult]:
        """``(packed result rows, OpResult)``; bits past ``n_bits`` in the
        last row are padding (an INV may have set them)."""
        op = self.op
        n_chunks = self.n_chunks
        operand_lists = (
            [sources[0][:n_chunks]]
            if op is PimOp.INV
            else [s[:n_chunks] for s in sources]
        )
        new_rows = executor.memory.bitwise_rows(op.value, operand_lists)
        executor.controller.mode_register = self.mode_code
        executor._current_mode = op
        acct = OpAccounting()
        acct.locality_counts = dict(self.locality_counts)
        acct.in_memory_steps = self.steps
        acct.absorb(executor.controller.execute_batch(self.frozen))
        acct.count_bits(n_bits * len(sources))
        result = OpResult(
            op=op, accounting=acct, steps=self.steps,
            localities=dict(self.localities),
        )
        return new_rows, result


def build_to_host_program(
    recorded: list, op: PimOp, result: OpResult, n_chunks: int
) -> Optional[ToHostProgram]:
    """Lower one recorded ``bitwise_to_host`` call; ``None`` if it ran
    accumulation passes (their scratch writes are not replayed)."""
    if len(recorded) != 1:
        return None
    flavor, batch = recorded[0]
    if flavor != "to_host" or result.steps != n_chunks:
        return None
    prog = ToHostProgram()
    prog.frozen = freeze_batch(batch, memo_ok=True)
    prog.op = op
    prog.n_chunks = n_chunks
    prog.steps = result.steps
    prog.localities = dict(result.localities)
    prog.locality_counts = dict(result.accounting.locality_counts)
    prog.mode_code = MODE_CODES[op]
    return prog


# -- exec-wave programs -------------------------------------------------------


class WaveProgram:
    """Replayable exec wave: flat instructions + frozen pricing.

    Slots are (vector id, chunk) positions resolved to row frames per
    replay; ``groups`` execute in level order, each as one vectorized
    ufunc pass over the slot buffer.
    """

    __slots__ = (
        "split",        # True: bitwise_many pricing (marked batch, split)
        "frozen",
        "order",        # submission -> execution permutation
        "mode_code", "mode_out",
        "item_meta",    # per item, execution order:
                        # (op, steps, localities, locality_counts,
                        #  n_bits, n_sources)
        "n_requests", "n_switches",
        "n_slots", "row_bytes",
        "slot_refs",    # slot -> (item exec pos, role, chunk); role -1 = dest
        "load_slots",   # np.intp: slots gathered from memory before exec
        "store_slots",  # np.intp: slots written back, in emission order
        "store_refs",   # parallel to store_slots: (item exec pos, chunk)
        "wb_pos",       # np.intp: frozen.n_bits positions of the widths
        "groups",       # [(ufunc | None, dst np.intp, srcs 2-D np.intp)]
    )

    def replay(self, planner, exec_items: list) -> List[OpResult]:
        """Execute the program; returns results in submission order."""
        driver = planner.driver
        executor = planner.executor
        memory = planner.memory
        ordered = [exec_items[i] for i in self.order]

        # resolve slots -> this wave's row frames
        frames = [0] * self.n_slots
        for slot, (pos, role, chunk) in enumerate(self.slot_refs):
            it = ordered[pos]
            if role < 0:
                frames[slot] = it.dest_frames[chunk]
            else:
                frames[slot] = it.req.sources[role].frames[chunk]

        frame_view = memory.frame_view
        buf = np.empty((self.n_slots, self.row_bytes), dtype=np.uint8)
        if self.load_slots.size:
            buf[self.load_slots] = np.stack(
                [frame_view(frames[s]) for s in self.load_slots]
            )
        store_frames = [frames[s] for s in self.store_slots]
        old_rows = np.stack([frame_view(f) for f in store_frames])

        for ufunc, dsts, srcs in self.groups:
            if ufunc is None:  # INV
                buf[dsts] = np.bitwise_not(buf[srcs[:, 0]])
            elif srcs.shape[1] == 2:
                buf[dsts] = ufunc(buf[srcs[:, 0]], buf[srcs[:, 1]])
            else:
                buf[dsts] = ufunc.reduce(buf[srcs], axis=1)

        new_rows = buf[self.store_slots]
        self.frozen.n_bits[self.wb_pos] = np.asarray(
            popcount_rows(np.bitwise_xor(old_rows, new_rows)),
            dtype=np.float64,
        )

        executor.controller.mode_register = self.mode_code
        executor._current_mode = self.mode_out
        if self.split:
            _, per_op = executor.controller.execute_batch(
                self.frozen, split_ops=True
            )
        else:
            per_op = [executor.controller.execute_batch(self.frozen)]

        memory.write_frames(store_frames, new_rows)

        n = self.n_requests
        stats = driver.stats
        stats.requests += n
        _DRIVER_REQUESTS.add(n)
        _DRIVER_FLUSHES.add()
        stats.mode_switches += self.n_switches
        _DRIVER_MODE_SWITCHES.add(self.n_switches)
        driver.last_order = list(self.order)

        exec_results: List[OpResult] = []
        acct_total = None
        for meta, op_stats in zip(self.item_meta, per_op):
            op, steps, localities, locality_counts, n_bits, n_sources = meta
            acct = OpAccounting()
            acct.in_memory_steps = steps
            acct.locality_counts = dict(locality_counts)
            acct.absorb(op_stats)
            acct.count_bits(n_bits * n_sources)
            stats.instructions += 1
            if acct_total is None:
                acct_total = stats.accounting.merged(acct)
            else:
                acct_total.merge_from(acct)
            exec_results.append(
                OpResult(
                    op=op, accounting=acct, steps=steps,
                    localities=dict(localities),
                )
            )
        if acct_total is not None:
            stats.accounting = acct_total

        out: List[Optional[OpResult]] = [None] * n
        for pos, sub in enumerate(self.order):
            out[sub] = exec_results[pos]
        return out


def build_wave_program(
    planner,
    exec_items: list,
    flush_results: List[OpResult],
    recorded: list,
    order: List[int],
) -> Optional[WaveProgram]:
    """Lower one recorded exec wave into a :class:`WaveProgram`.

    Returns ``None`` when the recording reveals interpreted-only
    semantics: a host fallback or per-request retry (recording shape
    mismatch), multi-step operand accumulation (``steps`` above the
    chunk count), duplicate destination rows within an item, or a
    write-back count that does not line up with the stores.
    """
    n = len(exec_items)
    if len(recorded) != 1:
        return None
    flavor, batch = recorded[0][0], recorded[0][1]
    split = n > 1
    if flavor != ("many" if split else "single"):
        return None
    for it, result in zip(exec_items, flush_results):
        if result.steps != it.n_chunks:
            return None
        if len(set(it.dest_frames)) != it.n_chunks:
            return None
        if it.req.op is not PimOp.INV and len(it.req.sources) < 2:
            return None

    prog = WaveProgram()
    prog.split = split
    prog.frozen = freeze_batch(batch)
    prog.order = list(order)
    prog.n_requests = n
    prog.row_bytes = planner.geometry.row_bytes

    ordered = [exec_items[i] for i in order]
    results_ordered = [flush_results[i] for i in order]

    switches = 0  # flush resets last_op, so the first op always switches
    last_op = None
    for it in ordered:
        if it.req.op != last_op:
            switches += 1
            last_op = it.req.op
    prog.n_switches = switches
    prog.mode_out = ordered[-1].req.op
    prog.mode_code = MODE_CODES[prog.mode_out]

    prog.item_meta = [
        (
            it.req.op,
            res.steps,
            dict(res.localities),
            dict(res.accounting.locality_counts),
            it.req.n_bits,
            len(it.req.sources),
        )
        for it, res in zip(ordered, results_ordered)
    ]

    # slots: (vid, chunk) -> slot id; first reference recorded for the
    # replay-time frame resolution
    slot_of: Dict[Tuple[int, int], int] = {}
    slot_refs: List[Tuple[int, int, int]] = []
    produced: set = set()
    needs_load: set = set()
    prod_lvl: Dict[int, int] = {}
    reader_lvl: Dict[int, int] = {}
    store_slots: List[int] = []
    store_refs: List[Tuple[int, int]] = []
    wb_count = 0
    groups: Dict[Tuple[int, str, int], Tuple[list, list]] = {}

    for pos, it in enumerate(ordered):
        op = it.req.op
        n_chunks = it.n_chunks
        operand_handles = (
            it.req.sources[:1] if op is PimOp.INV else it.req.sources
        )
        src_slots_by_chunk: List[List[int]] = []
        for c in range(n_chunks):
            srcs = []
            for role, handle in enumerate(operand_handles):
                key = (handle.vid, c)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(slot_refs)
                    slot_refs.append((pos, role, c))
                if slot not in produced:
                    needs_load.add(slot)
                srcs.append(slot)
            src_slots_by_chunk.append(srcs)
        dvid = it.req.dest.vid
        for c in range(n_chunks):
            key = (dvid, c)
            dst = slot_of.get(key)
            if dst is None:
                dst = slot_of[key] = len(slot_refs)
                slot_refs.append((pos, -1, c))
            srcs = src_slots_by_chunk[c]
            lvl = reader_lvl.get(dst, 0) + 1
            for s in srcs:
                p = prod_lvl.get(s)
                if p is not None and p >= lvl:
                    lvl = p + 1
            produced.add(dst)
            prod_lvl[dst] = lvl
            for s in srcs:
                if reader_lvl.get(s, 0) < lvl:
                    reader_lvl[s] = lvl
            gkey = (lvl, op.value, len(srcs))
            group = groups.get(gkey)
            if group is None:
                group = groups[gkey] = ([], [])
            group[0].append(dst)
            group[1].append(srcs)
            store_slots.append(dst)
            store_refs.append((pos, c))
            wb_count += 1

    kinds = prog.frozen.kinds
    wb_pos = np.flatnonzero(
        (kinds == _K_WB)
        | ((kinds == _K_WR) & (prog.frozen.transfer_bytes == 0.0))
    )
    if wb_pos.size != wb_count:
        return None
    prog.wb_pos = wb_pos.astype(np.intp)

    prog.n_slots = len(slot_refs)
    prog.slot_refs = slot_refs
    prog.load_slots = np.fromiter(
        sorted(needs_load), dtype=np.intp, count=len(needs_load)
    )
    prog.store_slots = np.asarray(store_slots, dtype=np.intp)
    prog.store_refs = store_refs
    prog.groups = [
        (
            BITWISE_UFUNCS.get(PimOp(gop)),
            np.asarray(dsts, dtype=np.intp),
            np.asarray(srcs, dtype=np.intp),
        )
        for (lvl, gop, arity), (dsts, srcs) in sorted(groups.items())
    ]
    return prog


# driver telemetry counters replay must keep in step with the
# interpreted flush (same registry objects the driver module uses)
_DRIVER_REQUESTS = telemetry.counter("runtime.driver.requests")
_DRIVER_FLUSHES = telemetry.counter("runtime.driver.flushes")
_DRIVER_MODE_SWITCHES = telemetry.counter("runtime.driver.mode_switches")
