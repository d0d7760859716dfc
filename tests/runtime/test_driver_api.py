"""Tests for the driver (scheduling) and the PimRuntime programming model."""

import numpy as np
import pytest

from repro.core.pinatubo import PinatuboSystem
from repro.core.ops import PimOp
from repro.memsim.geometry import MemoryGeometry
from repro.runtime.api import PimRuntime
from repro.runtime.driver import PimRequest
from repro.runtime.os_mm import PlacementPolicy


SMALL = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=4,
    rows_per_subarray=32,
    mats_per_subarray=1,
    cols_per_mat=512,
    mux_ratio=8,
)


@pytest.fixture
def rt():
    return PimRuntime(PinatuboSystem.pcm(geometry=SMALL))


def make_vectors(rt, n, bits=None, group="g", seed=0):
    bits = bits or SMALL.row_bits
    rng = np.random.default_rng(seed)
    handles, data = [], []
    for _ in range(n):
        h = rt.pim_malloc(bits, group)
        d = rng.integers(0, 2, size=bits).astype(np.uint8)
        rt.pim_write(h, d)
        handles.append(h)
        data.append(d)
    return handles, data


class TestProgrammingModel:
    def test_write_read_roundtrip(self, rt):
        h = rt.pim_malloc(300)
        data = np.random.default_rng(1).integers(0, 2, 300).astype(np.uint8)
        rt.pim_write(h, data)
        np.testing.assert_array_equal(rt.pim_read(h), data)

    def test_pim_op_or(self, rt):
        (a, b), (da, db) = make_vectors(rt, 2)
        dest = rt.pim_malloc(SMALL.row_bits, "g")
        rt.pim_op("or", dest, [a, b])
        np.testing.assert_array_equal(rt.pim_read(dest), da | db)

    def test_pim_op_accepts_enum_and_string_op(self, rt):
        (a, b), (da, db) = make_vectors(rt, 2)
        d1 = rt.pim_malloc(SMALL.row_bits, "g")
        d2 = rt.pim_malloc(SMALL.row_bits, "g")
        rt.pim_op(PimOp.AND, d1, [a, b])
        rt.pim_op("and", d2, [a, b])
        np.testing.assert_array_equal(rt.pim_read(d1), da & db)
        np.testing.assert_array_equal(rt.pim_read(d2), da & db)

    def test_pim_op_optional_params_are_keyword_only(self, rt):
        (a, b), _ = make_vectors(rt, 2)
        dest = rt.pim_malloc(SMALL.row_bits, "g")
        with pytest.raises(TypeError):
            rt.pim_op("or", dest, [a, b], 64)  # n_bits must be keyword
        rt.pim_op("or", dest, [a, b], n_bits=64)

    def test_pim_op_to_host_n_bits_is_keyword_only(self, rt):
        (a, b), (da, db) = make_vectors(rt, 2)
        scratch = rt.pim_malloc(SMALL.row_bits, "g")
        with pytest.raises(TypeError):
            rt.pim_op_to_host("or", scratch, [a, b], 64)
        bits = rt.pim_op_to_host("or", scratch, [a, b], n_bits=64)
        np.testing.assert_array_equal(bits, (da | db)[:64])

    def test_pim_op_xor_and_inv(self, rt):
        (a, b), (da, db) = make_vectors(rt, 2)
        d1 = rt.pim_malloc(SMALL.row_bits, "g")
        d2 = rt.pim_malloc(SMALL.row_bits, "g")
        rt.pim_op("xor", d1, [a, b])
        rt.pim_op("inv", d2, [a])
        np.testing.assert_array_equal(rt.pim_read(d1), da ^ db)
        np.testing.assert_array_equal(rt.pim_read(d2), 1 - da)

    def test_multi_operand_or(self, rt):
        handles, data = make_vectors(rt, 6)
        dest = rt.pim_malloc(SMALL.row_bits, "g")
        result = rt.pim_op("or", dest, handles)
        np.testing.assert_array_equal(
            rt.pim_read(dest), np.bitwise_or.reduce(data)
        )
        assert result.steps == 1  # multi-row capable

    def test_length_inferred_from_shortest(self, rt):
        a = rt.pim_malloc(100, "g")
        b = rt.pim_malloc(200, "g")
        dest = rt.pim_malloc(200, "g")
        rt.pim_write(a, np.ones(100, np.uint8))
        rt.pim_write(b, np.ones(200, np.uint8))
        result = rt.pim_op("and", dest, [a, b])
        assert result.accounting.bits_processed == 2 * 100

    def test_oversized_write_rejected(self, rt):
        h = rt.pim_malloc(10)
        with pytest.raises(ValueError):
            rt.pim_write(h, np.ones(11, np.uint8))

    def test_oversized_read_rejected(self, rt):
        h = rt.pim_malloc(10)
        with pytest.raises(ValueError):
            rt.pim_read(h, 11)

    def test_accounting_accumulates(self, rt):
        (a, b), _ = make_vectors(rt, 2)
        dest = rt.pim_malloc(SMALL.row_bits, "g")
        assert rt.pim_accounting.latency == 0.0
        rt.pim_op("or", dest, [a, b])
        assert rt.pim_accounting.latency > 0
        assert rt.total_latency() > rt.pim_accounting.latency  # host writes
        assert rt.total_energy() > 0


class TestPlacementMatters:
    def test_pim_aware_ops_are_intra_subarray(self, rt):
        from repro.memsim.address import OpLocality

        (a, b), _ = make_vectors(rt, 2)
        dest = rt.pim_malloc(SMALL.row_bits, "g")
        result = rt.pim_op("or", dest, [a, b])
        assert result.localities == {OpLocality.INTRA_SUBARRAY: 1}

    def test_interleaved_ops_are_not(self):
        from repro.memsim.address import OpLocality

        rt = PimRuntime(
            PinatuboSystem.pcm(geometry=SMALL),
            policy=PlacementPolicy.INTERLEAVED,
        )
        (a, b), _ = make_vectors(rt, 2)
        dest = rt.pim_malloc(SMALL.row_bits)
        result = rt.pim_op("or", dest, [a, b])
        assert OpLocality.INTRA_SUBARRAY not in result.localities


class TestDriverScheduling:
    def test_batch_groups_same_op(self, rt):
        handles, _ = make_vectors(rt, 4)
        d1 = rt.pim_malloc(SMALL.row_bits, "g")
        d2 = rt.pim_malloc(SMALL.row_bits, "g")
        d3 = rt.pim_malloc(SMALL.row_bits, "g")
        d4 = rt.pim_malloc(SMALL.row_bits, "g")
        # interleaved op kinds; no data deps between them
        rt.driver.submit("or", d1, [handles[0], handles[1]])
        rt.driver.submit("and", d2, [handles[0], handles[1]])
        rt.driver.submit("or", d3, [handles[2], handles[3]])
        rt.driver.submit("and", d4, [handles[2], handles[3]])
        rt.driver.flush()
        # grouped: or,or,and,and (or and,and,or,or) -> 2 switches, not 4
        assert rt.driver.stats.mode_switches == 2

    def test_dependences_respected(self, rt):
        (a, b), (da, db) = make_vectors(rt, 2)
        tmp = rt.pim_malloc(SMALL.row_bits, "g")
        out = rt.pim_malloc(SMALL.row_bits, "g")
        # tmp = a | b ; out = tmp ^ a  -- RAW on tmp
        rt.driver.submit("or", tmp, [a, b])
        rt.driver.submit("xor", out, [tmp, a])
        rt.driver.flush()
        np.testing.assert_array_equal(rt.pim_read(out), (da | db) ^ da)

    def test_waw_on_dest_respected(self, rt):
        (a, b, c), (da, db, dc) = make_vectors(rt, 3)
        out = rt.pim_malloc(SMALL.row_bits, "g")
        rt.driver.submit("or", out, [a, b])
        rt.driver.submit("and", out, [out, c])  # must run second
        rt.driver.flush()
        np.testing.assert_array_equal(rt.pim_read(out), (da | db) & dc)

    def test_stats_counters(self, rt):
        (a, b), _ = make_vectors(rt, 2)
        dest = rt.pim_malloc(SMALL.row_bits, "g")
        rt.pim_op("or", dest, [a, b])
        assert rt.driver.stats.requests == 1
        assert rt.driver.stats.instructions == 1
        assert rt.driver.pending == 0


class TestPimRequest:
    def _handles(self, rt):
        (a, b), _ = make_vectors(rt, 2)
        c = rt.pim_malloc(SMALL.row_bits, "g")
        return a, b, c

    def test_raw_dependence(self, rt):
        a, b, c = self._handles(rt)
        first = PimRequest(PimOp.OR, c, (a, b), 8)
        second = PimRequest(PimOp.XOR, a, (c, b), 8)
        assert second.depends_on(first)

    def test_independent(self, rt):
        a, b, c = self._handles(rt)
        d = rt.pim_malloc(SMALL.row_bits, "g")
        first = PimRequest(PimOp.OR, c, (a, b), 8)
        second = PimRequest(PimOp.XOR, d, (a, b), 8)
        assert not second.depends_on(first)


class TestDriverAccounting:
    @pytest.mark.parametrize("n_requests", [1, 4])
    def test_flush_folds_results_into_a_new_total(self, rt, n_requests):
        """A flush leaves an accounting object captured before it
        untouched and totals bit for bit what a per-result ``merged``
        chain gives (one request: the per-request path; four: the
        ``bitwise_many`` batch)."""
        handles, _ = make_vectors(rt, 4)
        rt.pim_op("xor", rt.pim_malloc(SMALL.row_bits, "g"), handles[:2])
        before = rt.driver.stats.accounting
        snapshot = before.to_dict()
        # op-grouped already, so execution order is submission order
        for i, op in enumerate(("or", "or", "and", "and")[:n_requests]):
            dest = rt.pim_malloc(SMALL.row_bits, "g")
            rt.driver.submit(op, dest, handles[i % 3:i % 3 + 2])
        results = rt.driver.flush()
        assert len(results) == n_requests
        assert before.to_dict() == snapshot
        chain = before
        for result in results:
            chain = chain.merged(result.accounting)
        after = rt.driver.stats.accounting
        assert after is not before
        assert after.to_dict() == chain.to_dict()
        assert rt.driver.stats.instructions == 1 + n_requests
