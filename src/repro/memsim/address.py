"""Row-frame addressing and operation locality classification.

Pinatubo routes each bitwise operation by where its operand rows live
(paper Section 4.1):

- all in one subarray            -> intra-subarray (modified SA, fastest)
- same bank, different subarrays -> inter-subarray (global row buffer logic)
- same chip, different banks     -> inter-bank (I/O buffer logic)
- different chips/ranks/channels -> unsupported in memory; the driver must
  fall back to CPU or remap (OpLocality.INTER_CHIP).

The *rank row* is the addressing unit here (chips are lock-step, so a row
spans all 8 chips of a rank); "same chip" in the paper's sense therefore
maps to "same rank" at this granularity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.memsim.geometry import MemoryGeometry


@dataclass(frozen=True, order=True)
class RowAddress:
    """Fully-decoded address of one rank row."""

    channel: int
    rank: int
    bank: int
    subarray: int
    row: int

    def same_subarray(self, other: "RowAddress") -> bool:
        return (
            self.channel == other.channel
            and self.rank == other.rank
            and self.bank == other.bank
            and self.subarray == other.subarray
        )

    def same_bank(self, other: "RowAddress") -> bool:
        return (
            self.channel == other.channel
            and self.rank == other.rank
            and self.bank == other.bank
        )

    def same_rank(self, other: "RowAddress") -> bool:
        return self.channel == other.channel and self.rank == other.rank


class OpLocality(enum.Enum):
    """Where an n-operand bitwise operation can execute."""

    INTRA_SUBARRAY = "intra_subarray"
    INTER_SUBARRAY = "inter_subarray"
    INTER_BANK = "inter_bank"
    INTER_CHIP = "inter_chip"  # not executable in memory

    # members are singletons: hash by identity in C, not by name in Python
    __hash__ = object.__hash__


#: locality per :meth:`AddressMapper.locality_codes` code value
LOCALITY_BY_CODE = (
    OpLocality.INTRA_SUBARRAY,
    OpLocality.INTER_SUBARRAY,
    OpLocality.INTER_BANK,
    OpLocality.INTER_CHIP,
)


def classify_locality(addresses) -> OpLocality:
    """Classify an operand set per the paper's three operation types."""
    addrs = list(addresses)
    if not addrs:
        raise ValueError("need at least one operand address")
    first = addrs[0]
    if all(a.same_subarray(first) for a in addrs):
        return OpLocality.INTRA_SUBARRAY
    if all(a.same_bank(first) for a in addrs):
        return OpLocality.INTER_SUBARRAY
    if all(a.same_rank(first) for a in addrs):
        return OpLocality.INTER_BANK
    return OpLocality.INTER_CHIP


class AddressMapper:
    """Maps flat row-frame indices to/from decoded :class:`RowAddress`.

    The flat order is chosen so that *consecutive frames stay in one
    subarray as long as possible* (row fastest, then subarray, bank, rank,
    channel).  This is the PIM-friendly layout the paper's OS-level memory
    manager aims for: operands allocated together land in one subarray and
    qualify for intra-subarray operations.
    """

    def __init__(self, geometry: MemoryGeometry):
        self.geometry = geometry
        # hoisted strides: with the row-fastest flat order, "same
        # subarray / bank / rank" collapse to equal integer quotients
        self._rows_per_subarray = geometry.rows_per_subarray
        self._rows_per_bank = geometry.rows_per_bank
        self._rows_per_rank = geometry.rows_per_rank
        self._rows_per_channel = geometry.ranks_per_channel * geometry.rows_per_rank
        self._total_frames = geometry.total_rows
        self._decode_cache: dict = {}

    @property
    def total_frames(self) -> int:
        return self._total_frames

    def decode(self, frame: int) -> RowAddress:
        """Flat frame index -> decoded address (memoized)."""
        addr = self._decode_cache.get(frame)
        if addr is not None:
            return addr
        g = self.geometry
        if not 0 <= frame < self._total_frames:
            raise ValueError(f"frame {frame} out of range [0, {self._total_frames})")
        key = frame
        row = frame % g.rows_per_subarray
        frame //= g.rows_per_subarray
        subarray = frame % g.subarrays_per_bank
        frame //= g.subarrays_per_bank
        bank = frame % g.banks_per_rank
        frame //= g.banks_per_rank
        rank = frame % g.ranks_per_channel
        channel = frame // g.ranks_per_channel
        addr = RowAddress(channel, rank, bank, subarray, row)
        self._decode_cache[key] = addr
        return addr

    def channel_of(self, frame: int) -> int:
        """Channel a frame lives on, without a full decode."""
        if not 0 <= frame < self._total_frames:
            raise ValueError(f"frame {frame} out of range [0, {self._total_frames})")
        return frame // self._rows_per_channel

    def channels_of(self, frames) -> np.ndarray:
        """Vectorized :meth:`channel_of` over an array of frames."""
        return np.asarray(frames, dtype=np.int64) // self._rows_per_channel

    def locality_codes(self, frames_2d: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`classify_frames` over operand columns.

        ``frames_2d`` is an ``(n_operands, n_chunks)`` matrix; returns a
        ``uint8`` code per chunk column: 0 intra-subarray, 1
        inter-subarray, 2 inter-bank, 3 inter-chip -- the index into
        :data:`LOCALITY_BY_CODE`.  Same integer-quotient tests as the
        scalar path, applied across all chunks at once; the kernel
        compiler keys program shapes on these codes.
        """
        frames_2d = np.asarray(frames_2d, dtype=np.int64)
        codes = np.full(frames_2d.shape[1], 3, dtype=np.uint8)
        q = frames_2d // self._rows_per_subarray
        same = (q == q[0]).all(axis=0)
        codes[same] = 0
        rest = ~same
        if rest.any():
            q = frames_2d // self._rows_per_bank
            hit = (q == q[0]).all(axis=0) & rest
            codes[hit] = 1
            rest &= ~hit
            if rest.any():
                q = frames_2d // self._rows_per_rank
                hit = (q == q[0]).all(axis=0) & rest
                codes[hit] = 2
        return codes

    def classify_frames(self, frames) -> OpLocality:
        """:func:`classify_locality` on flat frame indices.

        Pure integer arithmetic -- the executor's hot path uses this to
        route every combine step without materialising
        :class:`RowAddress` objects.
        """
        if not frames:
            raise ValueError("need at least one operand frame")
        first = frames[0]
        stride = self._rows_per_subarray
        base = first // stride
        for f in frames:
            if f // stride != base:
                break
        else:
            return OpLocality.INTRA_SUBARRAY
        stride = self._rows_per_bank
        base = first // stride
        for f in frames:
            if f // stride != base:
                break
        else:
            return OpLocality.INTER_SUBARRAY
        stride = self._rows_per_rank
        base = first // stride
        for f in frames:
            if f // stride != base:
                break
        else:
            return OpLocality.INTER_BANK
        return OpLocality.INTER_CHIP

    def encode(self, address: RowAddress) -> int:
        """Decoded address -> flat frame index."""
        g = self.geometry
        self._validate(address)
        frame = address.channel
        frame = frame * g.ranks_per_channel + address.rank
        frame = frame * g.banks_per_rank + address.bank
        frame = frame * g.subarrays_per_bank + address.subarray
        frame = frame * g.rows_per_subarray + address.row
        return frame

    def _validate(self, a: RowAddress) -> None:
        g = self.geometry
        checks = (
            (a.channel, g.channels, "channel"),
            (a.rank, g.ranks_per_channel, "rank"),
            (a.bank, g.banks_per_rank, "bank"),
            (a.subarray, g.subarrays_per_bank, "subarray"),
            (a.row, g.rows_per_subarray, "row"),
        )
        for value, limit, name in checks:
            if not 0 <= value < limit:
                raise ValueError(f"{name} {value} out of range [0, {limit})")
