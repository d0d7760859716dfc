"""Functional main memory: real bits in packed numpy arrays.

Timing and energy live in the controller/executor layer; this module is
the *data* layer.  The storage unit is the rank row ("row frame"): chips
are lock-step, so one activation opens one frame of
``geometry.row_bits`` bits.  Storage is organised as lazily-allocated
*blocks* of contiguous frames (a power-of-two row count, capped at
~1 MiB per block), so a 64 GiB memory costs only as much host RAM as
the blocks actually touched -- while batched reads and writes
(:meth:`MainMemory.gather_rows`, :meth:`MainMemory.write_frames`)
resolve to one fancy-indexed numpy operation per touched block instead
of one Python-level copy per row.

Bits are packed little-endian within bytes (``numpy.packbits`` with
``bitorder='little'``), which keeps bit ``i`` of a vector at byte
``i // 8``, bit ``i % 8``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import telemetry
from repro.memsim.geometry import MemoryGeometry

#: always-live process-wide program count (all MainMemory instances);
#: per-instance/per-frame detail stays on ``total_writes`` and
#: ``write_histogram()`` -- see ``repro.runtime.wear``
_FRAME_WRITES = telemetry.counter("memsim.mainmem.frame_writes")

#: cap on one lazily-allocated block's payload bytes
_BLOCK_BYTES = 1 << 20


#: numpy ufunc per bulk bitwise op name.
_BITWISE_UFUNCS = {
    "or": np.bitwise_or,
    "and": np.bitwise_and,
    "xor": np.bitwise_xor,
}


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount_packed(packed: np.ndarray) -> int:
        """Total set bits in a packed ``uint8`` array."""
        return int(np.bitwise_count(packed).sum())

    def popcount_rows(packed_2d: np.ndarray) -> List[int]:
        """Per-row set-bit counts of a 2-D packed ``uint8`` array."""
        return np.bitwise_count(packed_2d).sum(axis=1, dtype=np.int64).tolist()

else:  # pragma: no cover - older numpy
    _POP_TABLE = np.unpackbits(
        np.arange(256, dtype=np.uint8).reshape(256, 1), axis=1
    ).sum(axis=1).astype(np.uint16)

    def popcount_packed(packed: np.ndarray) -> int:
        """Total set bits in a packed ``uint8`` array."""
        return int(_POP_TABLE[packed].sum())

    def popcount_rows(packed_2d: np.ndarray) -> List[int]:
        """Per-row set-bit counts of a 2-D packed ``uint8`` array."""
        return _POP_TABLE[packed_2d].sum(axis=1, dtype=np.int64).tolist()


def popcount_prefix(packed: np.ndarray, n_bits: int) -> int:
    """Set bits among the first ``n_bits`` of a little-endian packed
    array (any shape, read in C order); padding bits are ignored."""
    flat = packed.reshape(-1)
    full, rem = divmod(n_bits, 8)
    count = popcount_packed(flat[:full])
    if rem:
        count += (int(flat[full]) & ((1 << rem) - 1)).bit_count()
    return count


class MainMemory:
    """Lazily-allocated functional memory over row frames."""

    def __init__(self, geometry: MemoryGeometry):
        self.geometry = geometry
        self.total_writes = 0
        self._total_rows = geometry.total_rows
        self._row_bytes = geometry.row_bytes
        # rows per block: power of two, >= 1, block payload <= _BLOCK_BYTES
        rows = max(1, _BLOCK_BYTES // max(1, self._row_bytes))
        self._block_shift = max(0, rows.bit_length() - 1)
        self._block_rows = 1 << self._block_shift
        self._block_mask = self._block_rows - 1
        #: block index -> (block_rows, row_bytes) uint8 payload
        self._blocks: Dict[int, np.ndarray] = {}
        #: block index -> (block_rows,) int64 per-frame program counts
        self._block_writes: Dict[int, np.ndarray] = {}
        self._zero_row = np.zeros(geometry.row_bytes, dtype=np.uint8)
        self._zero_row.flags.writeable = False
        self._write_listeners: List = []

    def add_write_listener(self, listener) -> None:
        """Register a write observer fired once per write call.

        The hook sits on the single write choke point every path funnels
        through (driver execution, host writes, fallbacks, the planning
        layer's own serves), which is what the planner's cache
        invalidation and dirty-chunk marking ride on.  After the write
        lands, ``listener.on_write(frames)`` fires with ``frames`` in
        write order (a 1-tuple from :meth:`write_frame`; a frame
        programmed twice appears twice).
        """
        self._write_listeners.append(listener)

    # -- block management ----------------------------------------------------

    def _block(self, block_index: int) -> np.ndarray:
        """The payload array of a block, allocating it on first touch."""
        blk = self._blocks.get(block_index)
        if blk is None:
            blk = np.zeros(
                (self._block_rows, self._row_bytes), dtype=np.uint8
            )
            self._blocks[block_index] = blk
            self._block_writes[block_index] = np.zeros(
                self._block_rows, dtype=np.int64
            )
        return blk

    # -- frame accessors ---------------------------------------------------

    def _check_frame(self, frame: int) -> None:
        if not 0 <= frame < self._total_rows:
            raise ValueError(
                f"frame {frame} out of range [0, {self._total_rows})"
            )

    def frame_bytes(self, frame: int) -> np.ndarray:
        """Packed contents of a frame (zeros if never written)."""
        self._check_frame(frame)
        blk = self._blocks.get(frame >> self._block_shift)
        if blk is None:
            return np.zeros(self.geometry.row_bytes, dtype=np.uint8)
        return blk[frame & self._block_mask].copy()

    def frame_view(self, frame: int) -> np.ndarray:
        """Read-only packed view of a frame (no copy; zeros if untouched)."""
        self._check_frame(frame)
        blk = self._blocks.get(frame >> self._block_shift)
        if blk is None:
            return self._zero_row
        return blk[frame & self._block_mask]

    def write_frame(self, frame: int, data: np.ndarray) -> None:
        """Overwrite a full frame with packed bytes."""
        self._check_frame(frame)
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.geometry.row_bytes,):
            raise ValueError(
                f"frame data must have shape ({self.geometry.row_bytes},)"
            )
        block_index = frame >> self._block_shift
        row = frame & self._block_mask
        self._block(block_index)[row] = data
        self._block_writes[block_index][row] += 1
        self.total_writes += 1
        _FRAME_WRITES.add()
        for listener in self._write_listeners:
            listener.on_write((frame,))

    def write_frames(self, frames, rows_2d: np.ndarray) -> None:
        """Batched :meth:`write_frame`: row ``i`` of ``rows_2d`` -> frame i.

        Validates the block once, then lands the rows with one
        fancy-indexed assignment per touched storage block -- same
        copy-in, same endurance bump, same listener firing (once per
        call) as the per-frame path, without per-row Python work.  The
        compiled replay and serve paths and the executor's bulk ops
        funnel their stores through here.

        A frame repeated in ``frames`` behaves as the equivalent
        sequence of :meth:`write_frame` calls: its last row lands and
        every occurrence counts one program.
        """
        rows_2d = np.asarray(rows_2d, dtype=np.uint8)
        n = len(frames)
        if rows_2d.shape != (n, self.geometry.row_bytes):
            raise ValueError(
                f"rows must have shape ({n}, {self.geometry.row_bytes})"
            )
        if n == 0:
            return
        farr = np.asarray(frames, dtype=np.intp)
        if int(farr.min()) < 0 or int(farr.max()) >= self._total_rows:
            raise ValueError(
                f"frame out of range [0, {self._total_rows})"
            )
        data_farr, data_rows = farr, rows_2d
        if n > 1 and len(set(farr.tolist())) < n:
            # numpy leaves the order of repeated fancy-index stores
            # unspecified: land each frame's last row explicitly
            data_farr, last = np.unique(farr[::-1], return_index=True)
            data_rows = rows_2d[n - 1 - last]
        for block_index, rows, sel in self._block_groups(data_farr):
            self._block(block_index)[rows] = (
                data_rows if sel is None else data_rows[sel]
            )
        if data_farr is farr:
            for block_index, rows, _sel in self._block_groups(farr):
                self._block_writes[block_index][rows] += 1
        else:
            for block_index, rows, _sel in self._block_groups(farr):
                np.add.at(self._block_writes[block_index], rows, 1)
        self.total_writes += n
        _FRAME_WRITES.add(n)
        for listener in self._write_listeners:
            listener.on_write(frames)

    def _block_groups(self, farr: np.ndarray):
        """``(block index, in-block rows, selector)`` per storage block
        ``farr`` touches; the selector is ``None`` when one block holds
        every frame."""
        blocks = farr >> self._block_shift
        rows = farr & self._block_mask
        first = int(blocks[0])
        if (blocks == first).all():
            return ((first, rows, None),)
        groups = []
        for block_index in np.unique(blocks):
            sel = blocks == block_index
            groups.append((int(block_index), rows[sel], sel))
        return groups

    def frame_writes(self, frame: int) -> int:
        """How many times a frame has been programmed (endurance)."""
        self._check_frame(frame)
        writes = self._block_writes.get(frame >> self._block_shift)
        if writes is None:
            return 0
        return int(writes[frame & self._block_mask])

    @property
    def frames_in_use(self) -> int:
        return sum(
            int(np.count_nonzero(w)) for w in self._block_writes.values()
        )

    def write_histogram(self) -> dict:
        """{frame: program count} for every frame ever written."""
        histogram: dict = {}
        for block_index, writes in self._block_writes.items():
            base = block_index << self._block_shift
            for row in np.nonzero(writes)[0]:
                histogram[base + int(row)] = int(writes[row])
        return histogram

    # -- bit-level accessors -------------------------------------------------

    def read_bits(self, frame: int, n_bits: int = None) -> np.ndarray:
        """Unpacked bit view (uint8 0/1) of the first ``n_bits`` of a frame."""
        n_bits = self.geometry.row_bits if n_bits is None else n_bits
        if not 1 <= n_bits <= self.geometry.row_bits:
            raise ValueError("n_bits out of range")
        packed = self.frame_bytes(frame)
        return np.unpackbits(packed, bitorder="little")[:n_bits]

    def write_bits(self, frame: int, bits: np.ndarray) -> None:
        """Write unpacked bits into the start of a frame (rest zeroed)."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size > self.geometry.row_bits:
            raise ValueError("bits must be 1-D and fit in a row frame")
        padded = np.zeros(self.geometry.row_bits, dtype=np.uint8)
        padded[: bits.size] = bits
        self.write_frame(frame, np.packbits(padded, bitorder="little"))

    # -- in-memory compute (functional side of PIM ops) ------------------------

    def bitwise_frames(self, op: str, src_frames) -> np.ndarray:
        """Functional n-operand bitwise op over frames; returns packed bytes."""
        srcs = list(src_frames)
        if op == "inv":
            if len(srcs) != 1:
                raise ValueError("inv takes exactly one source frame")
            return np.bitwise_not(self.frame_view(srcs[0]))
        try:
            ufunc = _BITWISE_UFUNCS[op]
        except KeyError:
            raise ValueError(f"unknown bitwise op {op!r}") from None
        if len(srcs) < 2:
            raise ValueError(f"{op} needs at least two source frames")
        out = self.frame_view(srcs[0]).copy()
        for frame in srcs[1:]:
            ufunc(out, self.frame_view(frame), out=out)
        return out

    def diff_bits(self, frame: int, data: np.ndarray) -> int:
        """Bits that differ between a frame's content and ``data``.

        The differential-write width of programming ``data`` into the
        frame (only flipped cells pay write energy/endurance).
        """
        return popcount_packed(np.bitwise_xor(self.frame_view(frame), data))

    # -- row-parallel variants (the batched engine's chunk loop) -------------

    def gather_rows(self, frames) -> np.ndarray:
        """Stack frames into a fresh ``(len(frames), row_bytes)`` array."""
        farr = np.asarray(frames, dtype=np.intp)
        if farr.size == 0:
            return np.empty((0, self._row_bytes), dtype=np.uint8)
        if int(farr.min()) < 0 or int(farr.max()) >= self._total_rows:
            raise ValueError(
                f"frame out of range [0, {self._total_rows})"
            )
        groups = self._block_groups(farr)
        if len(groups) == 1:
            blk = self._blocks.get(groups[0][0])
            if blk is None:
                return np.zeros((farr.size, self._row_bytes), dtype=np.uint8)
            return blk[groups[0][1]]
        out = np.zeros((farr.size, self._row_bytes), dtype=np.uint8)
        for block_index, rows, sel in groups:
            blk = self._blocks.get(block_index)
            if blk is not None:
                out[sel] = blk[rows]
        return out

    def bitwise_rows(self, op: str, src_frame_lists) -> np.ndarray:
        """:meth:`bitwise_frames` over many frame tuples at once.

        ``src_frame_lists`` holds one frame list per operand vector; row
        ``i`` of the result is ``op`` applied across the i-th frame of
        every operand list (all numpy, no per-row Python work).
        """
        srcs = list(src_frame_lists)
        if op == "inv":
            if len(srcs) != 1:
                raise ValueError("inv takes exactly one source frame list")
            return np.bitwise_not(self.gather_rows(srcs[0]))
        try:
            ufunc = _BITWISE_UFUNCS[op]
        except KeyError:
            raise ValueError(f"unknown bitwise op {op!r}") from None
        if len(srcs) < 2:
            raise ValueError(f"{op} needs at least two source frame lists")
        out = self.gather_rows(srcs[0])
        for frames in srcs[1:]:
            ufunc(out, self.gather_rows(frames), out=out)
        return out

    def execute_bitwise(self, op: str, dest_frame: int, src_frames) -> None:
        """Functional compute + write-back to the destination frame."""
        self.write_frame(dest_frame, self.bitwise_frames(op, src_frames))
