"""Tests for the Pinatubo execution engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import PinatuboExecutor, PlacementError
from repro.memsim.address import OpLocality, RowAddress
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology


#: Small geometry: row = 512 bits, 2 channels, enough structure for every
#: locality class, cheap enough for hundreds of tests.
SMALL = MemoryGeometry(
    channels=2,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=4,
    rows_per_subarray=16,
    mats_per_subarray=1,
    cols_per_mat=512,
    mux_ratio=8,
)


@pytest.fixture
def ex():
    return PinatuboExecutor(geometry=SMALL, technology=get_technology("pcm"))


def frames_at(ex, channel=0, rank=0, bank=0, subarray=0):
    base = ex.mapper.encode(RowAddress(channel, rank, bank, subarray, 0))
    return list(range(base, base + SMALL.rows_per_subarray))


def fill(ex, frames, seed=0, n_bits=None):
    """Write random bits into frames; returns the bit arrays."""
    rng = np.random.default_rng(seed)
    n_bits = n_bits or SMALL.row_bits
    out = {}
    for f in frames:
        bits = rng.integers(0, 2, size=n_bits).astype(np.uint8)
        ex.memory.write_bits(f, bits)
        out[f] = bits
    return out


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("op,n", [
        ("or", 2), ("or", 5), ("or", 64),
        ("and", 2), ("and", 4),
        ("xor", 2), ("xor", 3),
    ])
    def test_matches_numpy_oracle(self, ex, op, n):
        sub = frames_at(ex)
        extra = frames_at(ex, subarray=1) + frames_at(ex, subarray=2) + frames_at(
            ex, subarray=3
        ) + frames_at(ex, bank=1) + frames_at(ex, bank=1, subarray=1) + frames_at(
            ex, bank=1, subarray=2
        ) + frames_at(ex, bank=1, subarray=3)
        all_frames = sub + extra
        srcs = all_frames[:n]
        dest = all_frames[n]
        data = fill(ex, srcs, seed=n)
        ex.bitwise(op, [dest], [[f] for f in srcs], SMALL.row_bits)
        oracle = data[srcs[0]].copy()
        for f in srcs[1:]:
            if op == "or":
                oracle |= data[f]
            elif op == "and":
                oracle &= data[f]
            else:
                oracle ^= data[f]
        np.testing.assert_array_equal(
            ex.memory.read_bits(dest, SMALL.row_bits), oracle
        )

    def test_inv(self, ex):
        sub = frames_at(ex)
        data = fill(ex, sub[:1])
        ex.bitwise("inv", [sub[1]], [[sub[0]]], SMALL.row_bits)
        np.testing.assert_array_equal(
            ex.memory.read_bits(sub[1], SMALL.row_bits), 1 - data[sub[0]]
        )

    def test_multi_chunk_vector(self, ex):
        # vector of 3 rows: chunks placed in subarrays 0,1,2
        srcs_a, srcs_b, dest = [], [], []
        rng = np.random.default_rng(9)
        bits_a = rng.integers(0, 2, size=3 * SMALL.row_bits).astype(np.uint8)
        bits_b = rng.integers(0, 2, size=3 * SMALL.row_bits).astype(np.uint8)
        for c in range(3):
            sub = frames_at(ex, subarray=c)
            srcs_a.append(sub[0])
            srcs_b.append(sub[1])
            dest.append(sub[2])
        ex.write_vector(srcs_a, bits_a)
        ex.write_vector(srcs_b, bits_b)
        ex.bitwise("or", dest, [srcs_a, srcs_b], 3 * SMALL.row_bits)
        got, _ = ex.read_vector(dest, 3 * SMALL.row_bits)
        np.testing.assert_array_equal(got, bits_a | bits_b)

    def test_partial_last_chunk(self, ex):
        n_bits = SMALL.row_bits + 100
        sub0, sub1 = frames_at(ex, subarray=0), frames_at(ex, subarray=1)
        srcs_a = [sub0[0], sub1[0]]
        srcs_b = [sub0[1], sub1[1]]
        dest = [sub0[2], sub1[2]]
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, size=n_bits).astype(np.uint8)
        b = rng.integers(0, 2, size=n_bits).astype(np.uint8)
        ex.write_vector(srcs_a, a)
        ex.write_vector(srcs_b, b)
        ex.bitwise("and", dest, [srcs_a, srcs_b], n_bits)
        got, _ = ex.read_vector(dest, n_bits)
        np.testing.assert_array_equal(got, a & b)


class TestDecomposition:
    def test_multirow_or_single_step(self, ex):
        sub = frames_at(ex)
        fill(ex, sub[:8])
        result = ex.bitwise("or", [sub[8]], [[f] for f in sub[:8]], SMALL.row_bits)
        assert result.steps == 1  # 8 <= 128 one-step limit

    def test_pinatubo2_or_decomposes(self):
        ex = PinatuboExecutor(
            geometry=SMALL, technology=get_technology("pcm"), max_rows=2
        )
        sub = frames_at(ex)
        fill(ex, sub[:8])
        result = ex.bitwise("or", [sub[8]], [[f] for f in sub[:8]], SMALL.row_bits)
        assert result.steps == 7  # pairwise accumulation

    def test_and_always_pairwise(self, ex):
        sub = frames_at(ex)
        fill(ex, sub[:5])
        result = ex.bitwise("and", [sub[5]], [[f] for f in sub[:5]], SMALL.row_bits)
        assert result.steps == 4

    def test_xor_pairwise(self, ex):
        sub = frames_at(ex)
        fill(ex, sub[:3])
        result = ex.bitwise("xor", [sub[3]], [[f] for f in sub[:3]], SMALL.row_bits)
        assert result.steps == 2

    def test_xor_costs_double_sense(self, ex):
        sub = frames_at(ex)
        fill(ex, sub[:2])
        xor = ex.bitwise("xor", [sub[2]], [[sub[0]], [sub[1]]], SMALL.row_bits)
        ex2 = PinatuboExecutor(geometry=SMALL, technology=get_technology("pcm"))
        sub2 = frames_at(ex2)
        fill(ex2, sub2[:2])
        orr = ex2.bitwise("or", [sub2[2]], [[sub2[0]], [sub2[1]]], SMALL.row_bits)
        assert xor.latency > orr.latency


class TestLocalityRouting:
    def test_intra_subarray_detected(self, ex):
        sub = frames_at(ex)
        fill(ex, sub[:2])
        result = ex.bitwise("or", [sub[2]], [[sub[0]], [sub[1]]], SMALL.row_bits)
        assert result.localities == {OpLocality.INTRA_SUBARRAY: 1}

    def test_inter_subarray_detected(self, ex):
        a = frames_at(ex, subarray=0)[0]
        b = frames_at(ex, subarray=1)[0]
        d = frames_at(ex, subarray=0)[1]
        fill(ex, [a, b])
        result = ex.bitwise("or", [d], [[a], [b]], SMALL.row_bits)
        assert result.localities == {OpLocality.INTER_SUBARRAY: 1}

    def test_inter_bank_detected(self, ex):
        a = frames_at(ex, bank=0)[0]
        b = frames_at(ex, bank=1)[0]
        d = frames_at(ex, bank=0)[1]
        fill(ex, [a, b])
        result = ex.bitwise("or", [d], [[a], [b]], SMALL.row_bits)
        assert result.localities == {OpLocality.INTER_BANK: 1}

    def test_cross_channel_raises(self, ex):
        a = frames_at(ex, channel=0)[0]
        b = frames_at(ex, channel=1)[0]
        d = frames_at(ex, channel=0)[1]
        fill(ex, [a, b])
        with pytest.raises(PlacementError):
            ex.bitwise("or", [d], [[a], [b]], SMALL.row_bits)

    def test_inter_ops_functionally_correct(self, ex):
        a = frames_at(ex, bank=0)[0]
        b = frames_at(ex, bank=1)[0]
        d = frames_at(ex, bank=0)[1]
        data = fill(ex, [a, b])
        ex.bitwise("xor", [d], [[a], [b]], SMALL.row_bits)
        np.testing.assert_array_equal(
            ex.memory.read_bits(d, SMALL.row_bits), data[a] ^ data[b]
        )

    def test_intra_faster_than_inter(self):
        ex1 = PinatuboExecutor(geometry=SMALL, technology=get_technology("pcm"))
        sub = frames_at(ex1)
        fill(ex1, sub[:2])
        intra = ex1.bitwise("or", [sub[2]], [[sub[0]], [sub[1]]], SMALL.row_bits)

        ex2 = PinatuboExecutor(geometry=SMALL, technology=get_technology("pcm"))
        a = frames_at(ex2, subarray=0)[0]
        b = frames_at(ex2, subarray=1)[0]
        d = frames_at(ex2, subarray=0)[1]
        fill(ex2, [a, b])
        inter = ex2.bitwise("or", [d], [[a], [b]], SMALL.row_bits)
        assert intra.latency < inter.latency


class TestNoBusTraffic:
    def test_intra_op_moves_no_data(self, ex):
        sub = frames_at(ex)
        fill(ex, sub[:2])
        result = ex.bitwise("or", [sub[2]], [[sub[0]], [sub[1]]], SMALL.row_bits)
        assert result.accounting.bus_data_bytes == 0
        assert result.accounting.bus_commands > 0  # commands only

    def test_inter_op_moves_no_ddr_data(self, ex):
        a = frames_at(ex, bank=0)[0]
        b = frames_at(ex, bank=1)[0]
        d = frames_at(ex, bank=0)[1]
        fill(ex, [a, b])
        result = ex.bitwise("or", [d], [[a], [b]], SMALL.row_bits)
        assert result.accounting.bus_data_bytes == 0

    def test_host_read_does_move_data(self, ex):
        sub = frames_at(ex)
        fill(ex, sub[:1])
        _bits, acct = ex.read_vector([sub[0]], SMALL.row_bits)
        assert acct.bus_data_bytes == SMALL.row_bytes


class TestDifferentialWriteback:
    def test_repeated_op_writes_nothing(self, ex):
        sub = frames_at(ex)
        fill(ex, sub[:2])
        first = ex.bitwise("or", [sub[2]], [[sub[0]], [sub[1]]], SMALL.row_bits)
        second = ex.bitwise("or", [sub[2]], [[sub[0]], [sub[1]]], SMALL.row_bits)
        # identical result -> zero changed bits -> cheaper writeback
        assert second.energy < first.energy


class TestModeRegister:
    def test_mode_set_once_per_op_kind(self, ex):
        sub = frames_at(ex)
        fill(ex, sub[:4])
        r1 = ex.bitwise("or", [sub[4]], [[sub[0]], [sub[1]]], SMALL.row_bits)
        r2 = ex.bitwise("or", [sub[5]], [[sub[2]], [sub[3]]], SMALL.row_bits)
        assert r1.accounting.bus_commands > r2.accounting.bus_commands
        # switching ops re-issues MRS
        r3 = ex.bitwise("and", [sub[6]], [[sub[0]], [sub[1]]], SMALL.row_bits)
        assert r3.accounting.bus_commands == r1.accounting.bus_commands


class TestValidation:
    def test_operand_count_checked(self, ex):
        sub = frames_at(ex)
        with pytest.raises(ValueError):
            ex.bitwise("or", [sub[1]], [[sub[0]]], SMALL.row_bits)
        with pytest.raises(ValueError):
            ex.bitwise("inv", [sub[2]], [[sub[0]], [sub[1]]], SMALL.row_bits)

    def test_bad_bits(self, ex):
        sub = frames_at(ex)
        with pytest.raises(ValueError):
            ex.bitwise("or", [sub[2]], [[sub[0]], [sub[1]]], 0)

    def test_too_few_frames(self, ex):
        sub = frames_at(ex)
        with pytest.raises(ValueError, match="fewer row frames"):
            ex.bitwise("or", [sub[2]], [[sub[0]], [sub[1]]], 2 * SMALL.row_bits)

    def test_read_write_vector_bounds(self, ex):
        sub = frames_at(ex)
        with pytest.raises(ValueError):
            ex.read_vector([sub[0]], 0)
        with pytest.raises(ValueError, match="cover"):
            ex.read_vector([sub[0]], SMALL.row_bits * 2)
        # the write direction: bits past the frames' capacity are
        # rejected before any frame is written or any command priced
        with pytest.raises(ValueError, match="cover"):
            ex.write_vector([sub[0]], np.ones(SMALL.row_bits * 2, dtype=np.uint8))
        assert ex.memory.total_writes == 0
        assert all(bus.stats.commands == 0 for bus in ex.controller.buses)
        # exactly full frames still write
        ex.write_vector([sub[0]], np.ones(SMALL.row_bits, dtype=np.uint8))
        assert ex.memory.total_writes == 1


class TestPropertyBased:
    @given(
        seed=st.integers(0, 2**16),
        op=st.sampled_from(["or", "and", "xor"]),
        n=st.integers(2, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_operands_match_oracle(self, seed, op, n):
        ex = PinatuboExecutor(geometry=SMALL, technology=get_technology("pcm"))
        sub = frames_at(ex)
        srcs = sub[:n]
        dest = sub[n]
        data = fill(ex, srcs, seed=seed)
        ex.bitwise(op, [dest], [[f] for f in srcs], SMALL.row_bits)
        ufunc = {"or": np.bitwise_or, "and": np.bitwise_and, "xor": np.bitwise_xor}[op]
        oracle = data[srcs[0]].copy()
        for f in srcs[1:]:
            oracle = ufunc(oracle, data[f])
        np.testing.assert_array_equal(
            ex.memory.read_bits(dest, SMALL.row_bits), oracle
        )
