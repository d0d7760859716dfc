"""Tests for the functional main memory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.memsim.geometry import MemoryGeometry
from repro.memsim.mainmem import MainMemory


SMALL = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=2,
    rows_per_subarray=8,
    mats_per_subarray=1,
    cols_per_mat=256,
    mux_ratio=8,
)


#: 64 KiB rows: 16-row storage blocks, so SMALL's 32 frames span two
TWO_BLOCKS = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=2,
    rows_per_subarray=8,
    mats_per_subarray=1,
    cols_per_mat=1 << 19,
    mux_ratio=8,
)


@pytest.fixture
def mem():
    return MainMemory(SMALL)


def rand_frame(seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=SMALL.row_bytes).astype(np.uint8)


class TestFrames:
    def test_unwritten_frame_reads_zero(self, mem):
        assert not mem.frame_bytes(0).any()

    def test_write_read_roundtrip(self, mem):
        data = rand_frame(1)
        mem.write_frame(3, data)
        np.testing.assert_array_equal(mem.frame_bytes(3), data)

    def test_frame_bytes_returns_copy(self, mem):
        data = rand_frame(1)
        mem.write_frame(0, data)
        view = mem.frame_bytes(0)
        view[0] ^= 0xFF
        np.testing.assert_array_equal(mem.frame_bytes(0), data)

    def test_lazy_allocation(self, mem):
        assert mem.frames_in_use == 0
        mem.frame_bytes(5)  # read does not allocate
        assert mem.frames_in_use == 0
        mem.write_frame(5, rand_frame(2))
        assert mem.frames_in_use == 1

    def test_write_counting(self, mem):
        data = rand_frame(1)
        mem.write_frame(0, data)
        mem.write_frame(0, data)
        assert mem.frame_writes(0) == 2
        assert mem.frame_writes(1) == 0
        assert mem.total_writes == 2

    def test_out_of_range_frame(self, mem):
        with pytest.raises(ValueError):
            mem.frame_bytes(SMALL.total_rows)
        with pytest.raises(ValueError):
            mem.write_frame(-1, rand_frame(0))

    def test_wrong_shape_rejected(self, mem):
        with pytest.raises(ValueError, match="shape"):
            mem.write_frame(0, np.zeros(3, np.uint8))


class TestBitAccess:
    def test_bit_roundtrip(self, mem):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=100).astype(np.uint8)
        mem.write_bits(2, bits)
        np.testing.assert_array_equal(mem.read_bits(2, 100), bits)

    def test_bit_order_little_endian(self, mem):
        bits = np.zeros(16, dtype=np.uint8)
        bits[0] = 1  # bit 0 of byte 0
        bits[9] = 1  # bit 1 of byte 1
        mem.write_bits(0, bits)
        packed = mem.frame_bytes(0)
        assert packed[0] == 1
        assert packed[1] == 2

    def test_partial_write_zeroes_rest(self, mem):
        mem.write_frame(0, np.full(SMALL.row_bytes, 0xFF, np.uint8))
        mem.write_bits(0, np.ones(8, np.uint8))
        packed = mem.frame_bytes(0)
        assert packed[0] == 0xFF
        assert not packed[1:].any()

    def test_oversized_bits_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.write_bits(0, np.zeros(SMALL.row_bits + 1, np.uint8))

    def test_bad_nbits_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.read_bits(0, 0)
        with pytest.raises(ValueError):
            mem.read_bits(0, SMALL.row_bits + 1)


class TestBitwiseCompute:
    def _fill(self, mem, frames, seed=0):
        rng = np.random.default_rng(seed)
        data = {}
        for f in frames:
            d = rng.integers(0, 256, size=SMALL.row_bytes).astype(np.uint8)
            mem.write_frame(f, d)
            data[f] = d
        return data

    def test_or(self, mem):
        data = self._fill(mem, [0, 1, 2])
        mem.execute_bitwise("or", 5, [0, 1, 2])
        expected = data[0] | data[1] | data[2]
        np.testing.assert_array_equal(mem.frame_bytes(5), expected)

    def test_and(self, mem):
        data = self._fill(mem, [0, 1])
        mem.execute_bitwise("and", 5, [0, 1])
        np.testing.assert_array_equal(mem.frame_bytes(5), data[0] & data[1])

    def test_xor(self, mem):
        data = self._fill(mem, [0, 1])
        mem.execute_bitwise("xor", 5, [0, 1])
        np.testing.assert_array_equal(mem.frame_bytes(5), data[0] ^ data[1])

    def test_inv(self, mem):
        data = self._fill(mem, [0])
        mem.execute_bitwise("inv", 5, [0])
        np.testing.assert_array_equal(mem.frame_bytes(5), ~data[0])

    def test_in_place_dest_can_be_source(self, mem):
        data = self._fill(mem, [0, 1])
        mem.execute_bitwise("or", 0, [0, 1])
        np.testing.assert_array_equal(mem.frame_bytes(0), data[0] | data[1])

    def test_multi_operand_or(self, mem):
        data = self._fill(mem, range(8))
        mem.execute_bitwise("or", 10, range(8))
        expected = np.bitwise_or.reduce([data[f] for f in range(8)])
        np.testing.assert_array_equal(mem.frame_bytes(10), expected)

    def test_unknown_op_rejected(self, mem):
        with pytest.raises(ValueError, match="unknown"):
            mem.bitwise_frames("nand", [0, 1])

    def test_operand_count_rules(self, mem):
        self._fill(mem, [0, 1, 2])
        with pytest.raises(ValueError):
            mem.bitwise_frames("or", [0])
        with pytest.raises(ValueError):
            mem.bitwise_frames("inv", [0, 1])

    def test_multi_operand_and_xor(self, mem):
        """The buffered (digital) path accumulates any operand count."""
        data = self._fill(mem, [0, 1, 2])
        mem.execute_bitwise("and", 5, [0, 1, 2])
        np.testing.assert_array_equal(
            mem.frame_bytes(5), data[0] & data[1] & data[2]
        )
        mem.execute_bitwise("xor", 6, [0, 1, 2])
        np.testing.assert_array_equal(
            mem.frame_bytes(6), data[0] ^ data[1] ^ data[2]
        )

    @given(
        seed=st.integers(0, 2**16),
        op=st.sampled_from(["or", "and", "xor"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_oracle(self, seed, op):
        mem = MainMemory(SMALL)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=SMALL.row_bytes).astype(np.uint8)
        b = rng.integers(0, 256, size=SMALL.row_bytes).astype(np.uint8)
        mem.write_frame(0, a)
        mem.write_frame(1, b)
        result = mem.bitwise_frames(op, [0, 1])
        oracle = {"or": a | b, "and": a & b, "xor": a ^ b}[op]
        np.testing.assert_array_equal(result, oracle)


class _Recorder:
    """Write listener keeping every event."""

    def __init__(self):
        self.events = []

    def on_write(self, frames):
        self.events.append(list(frames))


class TestRepeatedFrameWrites:
    """``write_frames`` with a frame repeated acts as the equivalent
    sequence of ``write_frame`` calls: the last row per frame wins, each
    occurrence is one program, and listeners see one event carrying
    every frame in write order."""

    @pytest.mark.parametrize("geometry", [SMALL, TWO_BLOCKS], ids=["one_block", "two_blocks"])
    def test_matches_sequential_write_frame(self, geometry):
        frames = [3, 20, 3, 5, 20, 3, 31]
        rng = np.random.default_rng(9)
        rows = rng.integers(0, 256, (len(frames), geometry.row_bytes), dtype=np.uint8)
        initial = rng.integers(0, 256, (32, geometry.row_bytes), dtype=np.uint8)
        batched, serial = MainMemory(geometry), MainMemory(geometry)
        for m in (batched, serial):
            for frame in (3, 5, 20):
                m.write_frame(frame, initial[frame])
        rec_b, rec_s = _Recorder(), _Recorder()
        batched.add_write_listener(rec_b)
        serial.add_write_listener(rec_s)
        counter = telemetry.counter("memsim.mainmem.frame_writes")

        c0 = counter.value
        batched.write_frames(frames, rows)
        batched_count = counter.value - c0
        c0 = counter.value
        for frame, row in zip(frames, rows):
            serial.write_frame(frame, row)
        serial_count = counter.value - c0

        for frame in range(32):
            np.testing.assert_array_equal(
                batched.frame_bytes(frame), serial.frame_bytes(frame)
            )
            assert batched.frame_writes(frame) == serial.frame_writes(frame)
        np.testing.assert_array_equal(batched.frame_bytes(3), rows[5])
        assert batched.frame_writes(3) == 1 + 3
        assert batched.total_writes == serial.total_writes
        assert batched.write_histogram() == serial.write_histogram()
        assert batched_count == serial_count == len(frames)

        assert rec_b.events == [frames]
        assert rec_s.events == [[frame] for frame in frames]

    def test_distinct_frames_unchanged(self, mem):
        rows = np.stack([rand_frame(s) for s in range(3)])
        mem.write_frames([7, 2, 9], rows)
        for frame, row in zip([7, 2, 9], rows):
            np.testing.assert_array_equal(mem.frame_bytes(frame), row)
            assert mem.frame_writes(frame) == 1
        assert mem.total_writes == 3
