"""The Pinatubo execution engine.

Routes each bulk bitwise operation by where its operand rows live
(paper Section 4.1), generates the corresponding DDR command stream,
computes the functional result on the packed-bit main memory, and accounts
latency and energy through the memory controller.

Operation anatomy per locality:

*intra-subarray* (modified SA):
    MRS, WL_RESET, ACT, ACT_EXTRA x (n-1), PIM_SENSE (one serial step per
    SA mux group the vector spans; x2 micro-steps for XOR),
    PIM_WRITEBACK (differential, via the WD bypass), PRE.

*inter-subarray* (global row buffer logic):
    first operand: ACT + sense into the global row buffer; each further
    operand: ACT + sense onto the GDL + BUF_OP combine; finally WR the
    latched result to the destination row.  No DDR bus data.

*inter-bank* (I/O buffer logic): same shape, at the chip I/O buffer.

*inter-chip*: not executable in memory -- :class:`PlacementError`; the
runtime's allocator/OS mapper exists to avoid this case (paper Section 5).

Wide operand lists decompose into accumulation passes: multi-row OR
combines ``limit`` rows per step; AND/XOR accumulate pairwise.  A
multi-chunk vector (longer than one rank row) executes its chunks
serially -- the paper's "bit-vectors longer than 2^19 have to be mapped to
multiple ranks that work in serial" (Fig. 9 turning point B).

Functionally, a bulk op is one row-parallel numpy pass over all its
chunks and steps (:meth:`PinatuboExecutor._vector_chunks`): the
operand rows are gathered into one stack, step k's result is a prefix
of ``ufunc.accumulate`` along the operand axis, and one popcount of
``prev XOR out`` sizes every step's differential write.  Each chunk's
steps are emitted as tiled copies of the cached step template, and
the op's programs land with one ``write_frames`` call -- one write
event per op.  The to-host emission shares the
pass (its final step reads out instead of writing back).  The serial
per-step loop (:meth:`PinatuboExecutor._chunk_bitwise`) is kept as the
reference and runs only when an alias would make the step order
observable: a repeated destination, a destination read by another
chunk, or a multi-step chunk reading its own destination.

Command pricing is **batched**: every logical operation (covering all
its chunks and accumulation passes) is emitted as one
:class:`~repro.memsim.controller.CommandBatch` and priced with a single
vectorized :meth:`~repro.memsim.controller.MemoryController.execute_batch`
call, with fences preserving the serial semantics chunk-for-chunk
(``tests/core/test_batch_equivalence.py`` pins the resulting pricing).
:meth:`PinatuboExecutor.bitwise_many` goes one further and prices a
whole stream of operations as one marked batch, splitting the stats per
operation afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.core.bitops import popcount_rows
from repro.core.ops import BITWISE_UFUNCS, OperandLimits, PimOp, operand_limits
from repro.core.stats import LOCALITY_BASE, LOCALITY_CODES, OpAccounting
from repro.memsim.address import AddressMapper, OpLocality
from repro.memsim.controller import (
    KIND_CODES as _CODE,
    CommandBatch,
    CommandKind,
    FrozenBatch,
    MemoryController,
    row_io_template,
)
from repro.memsim.geometry import DEFAULT_GEOMETRY, MemoryGeometry
from repro.memsim.mainmem import MainMemory
from repro.memsim.timing import nvm_timing
from repro.nvm.technology import NVMTechnology, get_technology


class PlacementError(RuntimeError):
    """Operands placed so the operation cannot execute in memory."""


#: row I/O templates, and frame runs' channel layouts, kept per executor
#: before each memo is dropped (both key sets are open-ended)
_MAX_ROW_MEMO = 8192

#: MR4 mode codes per PIM operation (paper Fig. 4 hardware control).
MODE_CODES = {PimOp.OR: 0b001, PimOp.AND: 0b010, PimOp.XOR: 0b011, PimOp.INV: 0b100}

#: one queued logical operation for :meth:`PinatuboExecutor.bitwise_many`:
#: (op, dest_frames, source_frame_lists, n_bits[, overlap_chunks])
BitwiseRequest = Union[
    Tuple[object, Sequence[int], Sequence[Sequence[int]], int],
    Tuple[object, Sequence[int], Sequence[Sequence[int]], int, bool],
]


@dataclass(slots=True)
class OpResult:
    """Outcome of one (possibly decomposed, multi-chunk) PIM operation."""

    op: PimOp
    accounting: OpAccounting
    steps: int  # in-memory combine steps actually issued

    @property
    def localities(self) -> Dict[OpLocality, int]:
        """Combine steps issued per operand locality."""
        return self.accounting.locality_counts

    @property
    def latency(self) -> float:
        return self.accounting.latency

    @property
    def energy(self) -> float:
        return self.accounting.energy


def price_ops(controller: MemoryController, batch, n_ops: int) -> list:
    """Each marked op's :class:`ExecutionStats` of a priced ``batch``.

    A lone op is priced unsplit (its stats are the batch total), exactly
    as a single-op call always was; a stream splits per op.
    """
    if n_ops == 1:
        return [controller.execute_batch(batch)]
    return controller.execute_batch(batch, split_ops=True)[1]


class PinatuboExecutor:
    """Executes bulk bitwise operations on an NVM main memory."""

    def __init__(
        self,
        geometry: MemoryGeometry = DEFAULT_GEOMETRY,
        technology: Optional[NVMTechnology] = None,
        memory: Optional[MainMemory] = None,
        controller: Optional[MemoryController] = None,
        max_rows: Optional[int] = None,
    ):
        self.geometry = geometry
        self.technology = technology or get_technology("pcm")
        self.timing = nvm_timing(self.technology)
        self.memory = memory or MainMemory(geometry)
        self.controller = controller or MemoryController(geometry, self.timing)
        self.mapper = AddressMapper(geometry)
        self.limits: OperandLimits = operand_limits(self.technology, max_rows)
        self._current_mode: Optional[PimOp] = None
        #: combine-step command templates, see :meth:`_step_rows`
        self._step_templates: Dict[tuple, tuple] = {}
        #: host row-transfer templates and the frame runs' packed
        #: channel layouts they are keyed on, see :meth:`_row_template`
        self._row_templates: Dict[tuple, FrozenBatch] = {}
        self._frame_channels: Dict[tuple, bytes] = {}
        #: when set (a list), every bulk op appends its finished command
        #: batch as a ``(flavor, batch)`` tuple so the kernel
        #: compiler (:mod:`repro.plan.compile`) can freeze them
        self.record_sink: Optional[list] = None

    # -- host-side data movement ------------------------------------------------

    def write_vector(self, frames: Sequence[int], bits: np.ndarray) -> OpAccounting:
        """Host write of a bit-vector into its row frames (over the bus).

        Every row lands in one :meth:`MainMemory.write_frames` call
        (one write event; the last row is zero-padded past ``n_bits``,
        as :meth:`MainMemory.write_bits` pads it); the transfer is
        priced from the ``"write"`` row I/O template after the rows
        land.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        row_bits = self.geometry.row_bits
        n_bits = bits.size
        if n_bits > len(frames) * row_bits:
            raise ValueError("frames do not cover n_bits")
        acct = OpAccounting()
        if n_bits == 0:
            return acct
        used = frames[: -(-n_bits // row_bits)]
        template = self._row_template("write", n_bits, used)
        rows = np.packbits(
            np.pad(bits, (0, len(used) * row_bits - n_bits)), bitorder="little"
        )
        self.memory.write_frames(used, rows.reshape(len(used), -1))
        acct.absorb(self.controller.execute_batch(template))
        return acct

    def read_vector(
        self, frames: Sequence[int], n_bits: int
    ) -> Tuple[np.ndarray, OpAccounting]:
        """Host read of a bit-vector; returns (bits, accounting)."""
        return self.read_vectors((frames,), (n_bits,))[0]

    def read_vectors(
        self, frame_lists: Sequence[Sequence[int]], n_bits_list: Sequence[int]
    ) -> List[Tuple[np.ndarray, OpAccounting]]:
        """Host reads of many bit-vectors: ``[(bits, accounting)]`` in
        request order.

        Every request is validated before anything is read or priced.
        All rows come back in one :meth:`MainMemory.gather_rows`, and
        each request is priced on its own from its ``"read"`` row I/O
        template, in request order, so each accounting (and the bus
        ledgers) equals a lone :meth:`read_vector` of it.
        """
        if len(frame_lists) != len(n_bits_list):
            raise ValueError("one n_bits per frame list")
        row_bits = self.geometry.row_bits
        frames_all: List[int] = []
        templates = []
        for frames, n_bits in zip(frame_lists, n_bits_list):
            if n_bits < 1:
                raise ValueError("n_bits must be positive")
            n_rows = -(-n_bits // row_bits)
            if len(frames) < n_rows:
                raise ValueError("frames do not cover n_bits")
            used = frames[:n_rows]
            templates.append(self._row_template("read", n_bits, used))
            frames_all.extend(used)
        flat = np.unpackbits(
            self.memory.gather_rows(frames_all), axis=None, bitorder="little"
        )
        price = self.controller.execute_batch
        out = []
        start = 0
        for n_bits, template in zip(n_bits_list, templates):
            acct = OpAccounting()
            acct.absorb(price(template))
            out.append((flat[start : start + n_bits], acct))
            start += template.n_segments * row_bits
        return out

    def _row_template(
        self, shape: str, n_bits: int, frames: Sequence[int]
    ) -> FrozenBatch:
        """The memo-priced row I/O template of a transfer of ``n_bits``
        bits over ``frames`` (exactly the rows it uses), cached per
        ``(shape, n_bits, per-row channels)``; raises on a frame out of
        range.  A ``"serve"`` is a served cache result's row-buffer
        read, ``"read"`` and ``"write"`` a host transfer over the bus.

        A frame run's channel layout is geometry, not state, and scratch
        and resident vectors reuse the same runs, so it is memoized per
        run as well.
        """
        if type(frames) is not tuple:
            frames = tuple(frames)
        channels = self._frame_channels.get(frames)
        if channels is None:
            if len(self._frame_channels) >= _MAX_ROW_MEMO:
                self._frame_channels.clear()
            channel_of = self.mapper.channel_of
            channels = self._frame_channels[frames] = np.array(
                [channel_of(f) for f in frames], dtype=np.intp
            ).tobytes()
        key = (shape, n_bits, channels)
        template = self._row_templates.get(key)
        if template is None:
            if len(self._row_templates) >= _MAX_ROW_MEMO:
                self._row_templates.clear()
            template = self._row_templates[key] = row_io_template(
                self.geometry, shape, n_bits,
                np.frombuffer(channels, dtype=np.intp),
            )
        return template

    # -- PIM operations -----------------------------------------------------------

    def bitwise(
        self,
        op,
        dest_frames: Sequence[int],
        source_frame_lists: Sequence[Sequence[int]],
        n_bits: int,
        overlap_chunks: bool = False,
    ) -> OpResult:
        """Execute ``dest = op(sources)`` over row-aligned vectors.

        Parameters
        ----------
        op:
            A :class:`PimOp` or its string name.
        dest_frames:
            Row frames of the destination vector, one per chunk.
        source_frame_lists:
            One list of row frames per operand vector (all the same chunk
            count as the destination).
        n_bits:
            Logical vector length in bits.
        overlap_chunks:
            Extension beyond the paper: issue every chunk's command
            stream in one batch so chunks placed on *different channels*
            overlap (the controller serialises per channel and takes the
            critical path across channels).  The paper's configuration
            (and the default here) executes chunks serially, which is
            Fig. 9's turning point B.  Pair with
            ``PlacementPolicy.CHANNEL_STRIPED`` to actually spread a long
            vector's chunks over channels.
        """
        op, dest, sources, n_chunks = self._validate_request(
            op, dest_frames, source_frame_lists, n_bits
        )
        with telemetry.span(
            "core.executor.bitwise", op=op.value, n_bits=n_bits
        ) as sp:
            batch = CommandBatch()
            total_steps, acct, _rows = self._bitwise_into(
                batch, op, dest, sources, n_bits, n_chunks, overlap_chunks,
                self._prevalidate_placement(dest, sources, n_chunks),
            )
            acct.absorb(self.controller.execute_batch(batch))
            if self.record_sink is not None:
                self.record_sink.append(("single", batch))
            acct.count_bits(n_bits * len(sources))
            sp.add(steps=total_steps)
            return OpResult(op=op, accounting=acct, steps=total_steps)

    def bitwise_many(
        self, requests: Sequence[BitwiseRequest]
    ) -> List[OpResult]:
        """Execute a stream of bitwise operations as **one** command batch.

        Each request is ``(op, dest_frames, source_frame_lists, n_bits)``
        with an optional trailing ``overlap_chunks`` flag.  The whole
        stream is emitted into a single marked
        :class:`~repro.memsim.controller.CommandBatch`, priced in one
        vectorized pass, and the stats are split back per operation --
        every returned :class:`OpResult` is identical to what sequential
        :meth:`bitwise` calls would produce.

        Placement is validated for *all* requests up front: a
        :class:`PlacementError` is raised before any memory state is
        mutated or any cost accounted, so callers (the driver) can fall
        back to per-request execution safely.
        """
        parsed = []
        for req in requests:
            op, dest_frames, source_frame_lists, n_bits = req[:4]
            overlap = bool(req[4]) if len(req) > 4 else False
            parsed.append(
                self._validate_request(op, dest_frames, source_frame_lists, n_bits)
                + (n_bits, overlap)
            )
        chunk_locs = [
            self._prevalidate_placement(dest, sources, n_chunks)
            for op, dest, sources, n_chunks, n_bits, _ in parsed
        ]

        with telemetry.span(
            "core.executor.bitwise_many", requests=len(parsed)
        ):
            batch = CommandBatch()
            metas = []
            for (op, dest, sources, n_chunks, n_bits, overlap), locs in zip(
                parsed, chunk_locs
            ):
                batch.mark()
                steps, acct, _rows = self._bitwise_into(
                    batch, op, dest, sources, n_bits, n_chunks, overlap,
                    chunk_localities=locs,
                )
                metas.append((op, steps, acct, n_bits, len(sources)))
            _, per_op = self.controller.execute_batch(batch, split_ops=True)
            if self.record_sink is not None:
                self.record_sink.append(("many", batch))

            results = []
            for (op, steps, acct, n_bits, n_sources), stats in zip(
                metas, per_op
            ):
                acct.absorb(stats)
                acct.count_bits(n_bits * n_sources)
                results.append(OpResult(op=op, accounting=acct, steps=steps))
            return results

    def bitwise_to_host(
        self,
        op,
        scratch_frames: Sequence[int],
        source_frame_lists: Sequence[Sequence[int]],
        n_bits: int,
    ) -> Tuple[np.ndarray, OpResult]:
        """``op(sources)`` with the result streamed to the host I/O bus.

        The paper's alternative emission path: "The results can be sent
        to the I/O bus or written back to another memory row directly."
        The final sensed row of each chunk crosses the DDR bus instead of
        being programmed; when the operand list decomposes into several
        combine steps, the intermediates still accumulate in the
        ``scratch_frames`` rows.

        Returns ``(bits, OpResult)``; nothing is written to the scratch
        row by the final step, so destination wear is avoided entirely
        for single-step operations.  The one-request case of
        :meth:`bitwise_to_host_many`.
        """
        ((rows, result),) = self.bitwise_to_host_many(
            ((op, scratch_frames, source_frame_lists, n_bits),)
        )
        # rows are contiguous chunks of the vector: flatten and truncate
        return np.unpackbits(rows.reshape(-1), bitorder="little")[:n_bits], result

    def bitwise_to_host_many(
        self, requests: Sequence[BitwiseRequest]
    ) -> List[Tuple[np.ndarray, OpResult]]:
        """A stream of to-host ops as **one** command batch.

        Each request is ``(op, scratch_frames, source_frame_lists,
        n_bits)``.  Every op is one marked operation of the batch (its
        mode switch included) and executes in issue order, exactly as
        sequential :meth:`bitwise_to_host` calls would; the stats are
        split back per op (:func:`price_ops`).  Returns ``(packed result
        rows, OpResult)`` per op: ``(n_chunks, row_bytes)`` rows whose
        bits past ``n_bits`` are padding.  Placement is validated for
        every request before anything executes.
        """
        parsed = [
            self._validate_request(*req[:4]) + (req[3],) for req in requests
        ]
        chunk_locs = [
            self._prevalidate_placement(scratch, sources, n_chunks)
            for _op, scratch, sources, n_chunks, _n in parsed
        ]
        with telemetry.span(
            "core.executor.bitwise_to_host", requests=len(parsed)
        ):
            batch = CommandBatch()
            emitted = []
            for (op, scratch, sources, n_chunks, n_bits), locs in zip(
                parsed, chunk_locs
            ):
                batch.mark()
                steps, acct, rows = self._bitwise_into(
                    batch, op, scratch, sources, n_bits, n_chunks, False,
                    locs, emit_host=True,
                )
                acct.count_bits(n_bits * len(sources))
                emitted.append((op, steps, acct, rows))
            per_op = price_ops(self.controller, batch, len(emitted))
            if self.record_sink is not None:
                self.record_sink.append(("to_host", batch))
            out = []
            for (op, steps, acct, rows), stats in zip(emitted, per_op):
                acct.absorb(stats)
                out.append((rows, OpResult(op=op, accounting=acct, steps=steps)))
            return out

    # -- request validation / decomposition -----------------------------------

    def _validate_request(
        self,
        op,
        dest_frames: Sequence[int],
        source_frame_lists: Sequence[Sequence[int]],
        n_bits: int,
    ) -> Tuple[PimOp, List[int], List[List[int]], int]:
        op = PimOp.parse(op)
        sources = [list(frames) for frames in source_frame_lists]
        dest = list(dest_frames)
        self.limits.validate_operand_count(op, len(sources))
        if n_bits < 1:
            raise ValueError("n_bits must be positive")
        n_chunks = self.geometry.rows_for_bits(n_bits)
        if len(dest) < n_chunks or any(len(s) < n_chunks for s in sources):
            raise ValueError("vectors have fewer row frames than n_bits needs")
        return op, dest, sources, n_chunks

    def _prevalidate_placement(
        self, dest: List[int], sources: List[List[int]], n_chunks: int
    ) -> List[OpLocality]:
        """Raise :class:`PlacementError` before any state is touched.

        Returns each chunk's locality so the emission pass does not have
        to classify the same operand sets a second time.
        """
        classify = self.mapper.classify_frames
        localities = []
        for c in range(n_chunks):
            frames = [s[c] for s in sources]
            frames.append(dest[c])
            locality = classify(frames)
            if locality is OpLocality.INTER_CHIP:
                raise PlacementError(
                    "operands/destination span chips or channels; in-memory "
                    "bitwise operations require same-chip placement "
                    "(remap with the PIM-aware allocator)"
                )
            localities.append(locality)
        return localities

    def _bitwise_into(
        self,
        batch: CommandBatch,
        op: PimOp,
        dest: List[int],
        sources: List[List[int]],
        n_bits: int,
        n_chunks: int,
        overlap_chunks: bool,
        chunk_localities: List[OpLocality],
        emit_host: bool = False,
    ) -> Tuple[int, OpAccounting, np.ndarray]:
        """Emit one logical operation's commands into ``batch``.

        The batch is fenced per combine step unless ``overlap_chunks``;
        ``chunk_localities`` come from :meth:`_prevalidate_placement`.
        Returns ``(steps, accounting, rows)`` where ``rows`` is each
        chunk's final packed result, ``(n_chunks, row_bytes)``.  With
        ``emit_host`` every chunk's final step streams to the host and
        ``dest`` only holds accumulation intermediates.
        """
        acct = OpAccounting()
        fence_steps = not overlap_chunks
        vectorized = self._vector_chunks(
            batch, op, dest, sources, n_bits, n_chunks, fence_steps,
            chunk_localities, acct, emit_host,
        )
        if vectorized is not None:
            steps, rows = vectorized
            return steps, acct, rows
        total_steps = 0
        finals: List[np.ndarray] = []
        row_bits = self.geometry.row_bits
        for c in range(n_chunks):
            chunk_bits = min(n_bits - c * row_bits, row_bits)
            chunk_sources = [s[c] for s in sources]
            total_steps += self._chunk_bitwise(
                op, dest[c], chunk_sources, chunk_bits, acct, batch,
                chunk_localities[c], emit_host, finals, fence_steps,
            )
        return total_steps, acct, np.stack(finals)

    def _vector_chunks(
        self,
        batch: CommandBatch,
        op: PimOp,
        dest: List[int],
        sources: List[List[int]],
        n_bits: int,
        n_chunks: int,
        fence_steps: bool,
        chunk_localities: List[OpLocality],
        acct: OpAccounting,
        emit_host: bool,
    ) -> Optional[Tuple[int, np.ndarray]]:
        """Row-parallel path: one numpy pass over every chunk and step.

        Every operand row, then every destination row, lands in one
        ``(n_src + 1, n_chunks, row_bytes)`` stack.  An intra-subarray
        chunk wider than the one-step limit runs accumulation passes
        whose outputs are prefixes of ``ufunc.accumulate`` along the
        operand axis, so every step's result and differential write
        width (the popcount of ``prev XOR out``) come from one array
        pass; each chunk's steps are emitted as tiled copies of the
        cached step template and the op's programs land with one
        ``write_frames`` call (one write event).  Emitted commands,
        accounting and memory state equal the serial
        :meth:`_chunk_bitwise` loop.  Returns ``(steps, final rows)``,
        or ``None`` when aliasing would make the serial order
        observable: repeated destination frames, a destination frame
        read by another chunk, or a multi-step chunk reading its own
        destination.
        """
        n_src = len(sources)
        intra = OpLocality.INTRA_SUBARRAY
        fanins = self.step_fanins(op, n_src, intra)
        multi = [False] * n_chunks
        if len(fanins) > 1:
            multi = [loc is intra for loc in chunk_localities]
        any_multi = True in multi
        writers = (
            [c for c in range(n_chunks) if multi[c]]
            if emit_host
            else range(n_chunks)
        )
        if writers:
            dest_pos = {dest[c]: c for c in writers}
            if len(dest_pos) != len(writers):
                return None
            get = dest_pos.get
            for s in sources:
                for c in range(n_chunks):
                    hit = get(s[c])
                    if hit is not None and (hit != c or multi[c]):
                        return None

        mem = self.memory
        frames = [f for s in sources for f in s[:n_chunks]]
        if writers:
            frames += dest[:n_chunks]
        stack = mem.gather_rows(frames).reshape(-1, n_chunks, self.geometry.row_bytes)
        tail = ()
        if op is PimOp.INV:
            outs = np.bitwise_not(stack[:1])
        elif any_multi:
            # step k's output is the prefix through its last operand:
            # step 1 reads fanins[0] operands, each later step the
            # destination plus fanins[k] - 1 new ones
            k = len(fanins)
            ends = np.cumsum(fanins) - np.arange(1, k + 1)
            outs = BITWISE_UFUNCS[op].accumulate(stack[:n_src], axis=0)[ends]
            # steps 2..K as (n_operands, emit_host, first, end) runs
            limit, last_n = fanins[0], fanins[-1]
            full = k if last_n == limit and not emit_host else k - 1
            tail = [(limit, False, 1, full)] if full > 1 else []
            if full < k:
                tail.append((last_n, emit_host, k - 1, k))
        else:
            outs = BITWISE_UFUNCS[op].reduce(stack[:n_src], axis=0)[None]
        n_steps = len(outs)
        final = outs[-1]
        widths = step_widths = ()
        if writers:
            # differential write widths; prev of step 1 is the old
            # destination row
            old = stack[n_src]
            if any_multi:
                prev = np.concatenate((old[None], outs[:-1]))
                prev ^= outs
                # step_widths[k * n_chunks + c]: step k + 1 of chunk c
                step_widths = popcount_rows(prev.reshape(n_steps * n_chunks, -1))
            if not emit_host and False in multi:
                widths = popcount_rows(old ^ final)

        self._set_mode(op, batch)
        first_src = sources[0]
        row_bits = self.geometry.row_bits
        channel_of = self.mapper.channel_of
        step_rows = self._step_rows
        record = acct.record
        store_frames: List[int] = []
        store_index: List[int] = []
        total_steps = 0
        for c in range(n_chunks):
            locality = chunk_localities[c]
            chunk_bits = min(n_bits - c * row_bits, row_bits)
            ch = channel_of(first_src[c])
            if multi[c]:
                k_c = n_steps
                ws = step_widths[c::n_chunks]
                ch_dest = channel_of(dest[c])
                runs = [(ch, fanins[0], False, 0, 1)]
                runs += [(ch_dest, *run) for run in tail]
            else:
                k_c = 1
                ws = widths[c : c + 1]
                runs = ((ch, n_src, emit_host, 0, 1),)
            for run_ch, n_operands, host, lo, hi in runs:
                rows, wb = step_rows(
                    op, locality, run_ch, n_operands, chunk_bits, host
                )
                if host:
                    batch.extend_rows(rows)
                    if fence_steps:
                        batch.fence()
                else:
                    batch.extend_steps(rows, wb, ws[lo:hi], fence_steps)
            # programmed steps: all but a streamed final one; a
            # single-step chunk's result is the last row of ``outs``
            first = (n_steps - k_c) * n_chunks + c
            n_stored = k_c - emit_host
            store_frames += [dest[c]] * n_stored
            store_index += range(first, first + n_stored * n_chunks, n_chunks)
            record[LOCALITY_BASE + LOCALITY_CODES[locality]] += k_c
            total_steps += k_c
        acct.count_step(total_steps)
        if store_frames:
            flat = outs.reshape(-1, outs.shape[2])
            mem.write_frames(store_frames, flat[store_index])
        return total_steps, final

    # -- chunk-level execution ------------------------------------------------

    def step_fanins(
        self, op: PimOp, n_operands: int, locality: OpLocality
    ) -> Tuple[int, ...]:
        """Operand count of each combine step of one chunk.

        INV reads one operand.  The buffered paths (inter-subarray,
        inter-bank) fold every operand in one pass -- the multi-row
        activation limit is a sensing constraint and does not apply
        there.  Intra-subarray, the first step combines up to the op's
        single-step limit of operands and each later step the
        destination plus up to ``limit - 1`` new ones.
        """
        if op is PimOp.INV:
            return (1,)
        limit = max(2, self.limits.single_step_limit(op))
        if locality is not OpLocality.INTRA_SUBARRAY or n_operands <= limit:
            return (n_operands,)
        full, last = divmod(n_operands - limit, limit - 1)
        return (limit,) * (1 + full) + ((1 + last,) if last else ())

    def _chunk_bitwise(
        self,
        op: PimOp,
        dest: int,
        srcs: Sequence[int],
        chunk_bits: int,
        acct: OpAccounting,
        batch: CommandBatch,
        locality: OpLocality,
        emit_host: bool,
        finals: List[np.ndarray],
        fence_steps: bool,
    ) -> int:
        """One rank-row chunk, one combine step at a time: the serial
        reference :meth:`_vector_chunks` matches, and its fallback when
        aliasing makes the step order observable.

        Folds locality tallies into ``acct`` in place, emits the steps
        into ``batch``, appends the chunk's final packed row to
        ``finals`` and returns the number of combine steps issued.
        ``locality`` is the chunk's classification from
        :meth:`_prevalidate_placement`.

        A step after the first reads the destination as its
        accumulator, so a destination that is also a later operand
        would be read overwritten.  AND, OR and XOR commute: such a
        destination is read once, in the first step, and its other
        copies are dropped (all of them for the idempotent AND and OR,
        in cancelling pairs for XOR).
        """
        self._set_mode(op, batch)
        operands = [srcs[0]] if op is PimOp.INV else list(srcs)
        fanins = self.step_fanins(op, len(operands), locality)
        if dest in operands[fanins[0]:]:
            others = [f for f in operands if f != dest]
            copies = len(operands) - len(others)
            keep = copies % 2 if op is PimOp.XOR else 1
            # nothing left but cancelled XOR pairs: the result is d ^ d
            operands = [dest] * keep + others or [dest, dest]
            fanins = self.step_fanins(op, len(operands), locality)
        group, rest = operands[: fanins[0]], operands[fanins[0]:]
        last = len(fanins) - 1
        for k, fanin in enumerate(fanins):
            if k:
                group, rest = [dest] + rest[: fanin - 1], rest[fanin - 1:]
            new = self._combine_step(
                op, dest, group, chunk_bits, acct, locality, batch,
                emit_host and k == last, fence_steps,
            )
        finals.append(new)
        return len(fanins)

    def _set_mode(
        self,
        op: PimOp,
        batch: CommandBatch,
    ) -> None:
        if self._current_mode != op:
            # the MRS rides in the batch: its own fenced segment so its
            # slot serialises exactly like a separate execute()
            self.controller.mode_register = MODE_CODES[op]
            batch.fence()
            batch.add(CommandKind.MRS)
            batch.fence()
            self._current_mode = op

    def _combine_step(
        self,
        op: PimOp,
        dest: int,
        operands: Sequence[int],
        chunk_bits: int,
        acct: OpAccounting,
        locality: OpLocality,
        batch: CommandBatch,
        emit_host: bool,
        fence_steps: bool,
    ) -> np.ndarray:
        """Emit one combine step into ``batch`` (its cost is deferred to
        the batch's pricing) and return its packed result row.

        The functional result is computed **once**: it both sizes the
        differential write (only flipped cells pay write energy) and is
        the data written back / streamed to the host.  A one-operand
        AND/OR/XOR step senses its row and writes it back unchanged.
        """
        memory = self.memory
        if len(operands) == 1 and op is not PimOp.INV:
            new = memory.frame_view(operands[0]).copy()
        else:
            new = memory.bitwise_frames(op.value, operands)
        ch = self.mapper.channel_of(operands[0])
        rows, wb_index = self._step_rows(
            op, locality, ch, len(operands), chunk_bits, emit_host
        )
        if wb_index is not None:
            changed = memory.diff_bits(dest, new)
            rows = list(rows)
            kind, c, _n_bits, n_steps, transfer = rows[wb_index]
            rows[wb_index] = (kind, c, changed, n_steps, transfer)
        batch.extend_rows(rows)
        if fence_steps:
            batch.fence()
        # cost deferred to the batch; tally the locality now
        acct.record[LOCALITY_BASE + LOCALITY_CODES[locality]] += 1
        acct.count_step()
        if not emit_host:
            memory.write_frame(dest, new)
        return new

    # -- command generation -------------------------------------------------------

    def _step_rows(
        self,
        op: PimOp,
        locality: OpLocality,
        channel: int,
        n_operands: int,
        chunk_bits: int,
        emit_host: bool,
    ) -> Tuple[Tuple[Tuple[int, int, int, int, int], ...], Optional[int]]:
        """Command rows of one combine step, as a cached template.

        A step's stream is fully determined by ``(op, locality, channel,
        n_operands, chunk_bits, emit_host)`` except for the
        data-dependent differential write width, so the rows -- encoded
        ``(kind_code, channel, n_bits, n_steps, transfer_bytes)`` tuples
        -- are memoized, and the index of the write-back row (its
        ``n_bits`` is patched per step) is returned alongside.
        """
        key = (op, locality, channel, n_operands, chunk_bits, emit_host)
        cached = self._step_templates.get(key)
        if cached is None:
            if locality is OpLocality.INTRA_SUBARRAY:
                cached = self._intra_subarray_commands(
                    op, channel, n_operands, chunk_bits, emit_host
                )
            else:
                cached = self._buffered_commands(
                    op, channel, n_operands, chunk_bits, locality, emit_host
                )
            self._step_templates[key] = cached
        return cached

    def _intra_subarray_commands(
        self, op: PimOp, ch: int, n_operands: int, chunk_bits: int,
        emit_host: bool = False,
    ) -> Tuple[Tuple[Tuple[int, int, int, int, int], ...], Optional[int]]:
        g = self.geometry
        micro = 2 if op is PimOp.XOR else 1
        steps = g.sense_steps_for_bits(chunk_bits) * micro
        rows = [
            (_CODE[CommandKind.WL_RESET], ch, 0, 1, 0),
            (_CODE[CommandKind.ACT], ch, chunk_bits, 1, 0),
        ]
        rows += [(_CODE[CommandKind.ACT_EXTRA], ch, chunk_bits, 1, 0)] * (
            n_operands - 1
        )
        rows.append(
            (_CODE[CommandKind.PIM_SENSE], ch, chunk_bits * micro, steps, 0)
        )
        wb_index: Optional[int] = None
        if emit_host:
            # "the results can be sent to the I/O bus": stream the sensed
            # row out instead of programming it anywhere
            rows.append((_CODE[CommandKind.RD], ch, 0, 1, -(-chunk_bits // 8)))
        else:
            wb_index = len(rows)
            rows.append((_CODE[CommandKind.PIM_WRITEBACK], ch, 0, 1, 0))
        rows.append((_CODE[CommandKind.PRE], ch, 0, 1, 0))
        return tuple(rows), wb_index

    def _buffered_commands(
        self, op: PimOp, ch: int, n_operands: int, chunk_bits: int,
        locality: OpLocality, emit_host: bool = False,
    ) -> Tuple[Tuple[Tuple[int, int, int, int, int], ...], Optional[int]]:
        """Inter-subarray / inter-bank: global (or I/O) buffer logic path.

        Each operand is read into / combined at the buffer one at a time;
        multi-row activation gives no benefit here, which is why random
        placements collapse Pinatubo-128 to Pinatubo-2 (paper 14-16-7r).
        """
        g = self.geometry
        micro = 2 if op is PimOp.XOR else 1
        steps = g.sense_steps_for_bits(chunk_bits) * micro
        rows = []
        for i in range(n_operands):
            rows.append((_CODE[CommandKind.ACT], ch, chunk_bits, 1, 0))
            rows.append((_CODE[CommandKind.PIM_SENSE], ch, chunk_bits, steps, 0))
            if i > 0:
                rows.append((_CODE[CommandKind.BUF_OP], ch, chunk_bits, 1, 0))
            rows.append((_CODE[CommandKind.PRE], ch, 0, 1, 0))
        if locality is OpLocality.INTER_BANK:
            # the operands also cross the chip-internal I/O datalines;
            # model that as one extra buffer pass per operand.
            rows.append(
                (_CODE[CommandKind.BUF_OP], ch, chunk_bits * n_operands, 1, 0)
            )
        wb_index: Optional[int] = None
        if emit_host:
            # stream the buffer's content to the host instead of writing
            rows.append((_CODE[CommandKind.RD], ch, 0, 1, -(-chunk_bits // 8)))
        else:
            rows.append((_CODE[CommandKind.ACT], ch, chunk_bits, 1, 0))
            wb_index = len(rows)
            rows.append((_CODE[CommandKind.WR], ch, 0, 1, 0))
            rows.append((_CODE[CommandKind.PRE], ch, 0, 1, 0))
        return tuple(rows), wb_index
