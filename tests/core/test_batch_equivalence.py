"""Batched command pricing, pinned and cross-checked.

- *Controller level*: :meth:`MemoryController.execute` (the scalar
  pricer) is the reference for :meth:`MemoryController.execute_batch`
  on the same fenced streams -- identical command counts and per-kind
  energy, latency and energy within 1e-12 relative, identical bus
  ledgers.
- *Executor level*: the executor emits every bulk op into one
  :class:`CommandBatch`.  Each workload's pricing is pinned to the
  values the original one-``execute``-per-combine-step engine produced
  on it (1e-12 relative, counts exact), and memory contents are checked
  against numpy.
- *Stream level*: :meth:`PinatuboExecutor.bitwise_many` matches
  sequential :meth:`PinatuboExecutor.bitwise` calls.
"""

import numpy as np
import pytest

from repro.core.executor import PlacementError
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.address import RowAddress
from repro.memsim.controller import Command, CommandBatch, CommandKind
from repro.memsim.geometry import MemoryGeometry
from repro.memsim.timing import nvm_timing
from repro.nvm.technology import get_technology

REL = 1e-12

GEOM = MemoryGeometry(
    channels=2,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=4,
    rows_per_subarray=64,
    mats_per_subarray=1,
    cols_per_mat=2048,
    mux_ratio=8,
)


def make_system(max_rows=4) -> PinatuboSystem:
    return PinatuboSystem(get_technology("pcm"), GEOM, max_rows=max_rows)


def subarray_frames(system: PinatuboSystem, bank: int, sub: int) -> list:
    base = system.mapper.encode(RowAddress(0, 0, bank, sub, 0))
    return list(range(base, base + GEOM.rows_per_subarray))


def fill_frames(systems, frames, seed):
    """Write identical random rows into every system's frames."""
    rng = np.random.default_rng(seed)
    for frame in frames:
        data = rng.integers(0, 256, size=GEOM.row_bytes).astype(np.uint8)
        for system in systems:
            system.memory.write_frame(frame, data)


def assert_accounting_equal(a, b):
    assert a.latency == pytest.approx(b.latency, rel=REL)
    assert a.energy == pytest.approx(b.energy, rel=REL)
    assert a.in_memory_steps == b.in_memory_steps
    assert a.bus_commands == b.bus_commands
    assert a.bus_data_bytes == b.bus_data_bytes
    assert a.bits_processed == b.bits_processed
    assert a.locality_counts == b.locality_counts
    assert set(a.energy_by_kind) == set(b.energy_by_kind)
    for kind, e in a.energy_by_kind.items():
        assert e == pytest.approx(b.energy_by_kind[kind], rel=REL)


def assert_result_equal(a, b):
    assert a.op == b.op
    assert a.steps == b.steps
    assert a.localities == b.localities
    assert_accounting_equal(a.accounting, b.accounting)


def assert_systems_equal(sys_a, sys_b, frames):
    for frame in frames:
        assert np.array_equal(
            sys_a.memory.frame_bytes(frame), sys_b.memory.frame_bytes(frame)
        )
    for bus_a, bus_b in zip(sys_a.controller.buses, sys_b.controller.buses):
        assert bus_a.stats.commands == bus_b.stats.commands
        assert bus_a.stats.data_bytes == bus_b.stats.data_bytes
        assert bus_a.stats.busy_time == pytest.approx(bus_b.stats.busy_time, rel=REL)
        assert bus_a.stats.energy == pytest.approx(bus_b.stats.energy, rel=REL)


class TestControllerLevel:
    """execute() vs execute_batch() on the same fenced stream."""

    @pytest.fixture
    def timing(self):
        return nvm_timing(get_technology("pcm"))

    def _random_segments(self, seed, n_segments=7):
        rng = np.random.default_rng(seed)
        kinds = list(CommandKind)
        segments = []
        for _ in range(n_segments):
            commands = []
            for _ in range(rng.integers(1, 9)):
                kind = kinds[rng.integers(0, len(kinds))]
                commands.append(
                    Command(
                        kind,
                        channel=int(rng.integers(0, GEOM.channels)),
                        n_bits=int(rng.integers(0, 4096)),
                        n_steps=int(rng.integers(1, 9)),
                        transfer_bytes=int(rng.integers(0, 512)),
                    )
                )
            segments.append(commands)
        return segments

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_segmented_execute(self, timing, seed):
        from repro.memsim.controller import MemoryController

        ctrl_a = MemoryController(GEOM, timing)
        ctrl_b = MemoryController(GEOM, timing)
        segments = self._random_segments(seed)

        total_a = None
        for commands in segments:
            stats = ctrl_a.execute(commands)
            total_a = stats if total_a is None else total_a.merged(stats)

        batch = CommandBatch()
        for commands in segments:
            batch.extend(commands)
            batch.fence()
        total_b = ctrl_b.execute_batch(batch)

        assert total_a.latency == pytest.approx(total_b.latency, rel=REL)
        assert total_a.energy == pytest.approx(total_b.energy, rel=REL)
        assert total_a.counts == total_b.counts
        assert set(total_a.energy_by_kind) == set(total_b.energy_by_kind)
        for kind, e in total_a.energy_by_kind.items():
            assert e == pytest.approx(total_b.energy_by_kind[kind], rel=REL)
        assert total_a.bus.commands == total_b.bus.commands
        assert total_a.bus.data_bytes == total_b.bus.data_bytes
        assert total_a.bus.busy_time == pytest.approx(total_b.bus.busy_time, rel=REL)
        for bus_a, bus_b in zip(ctrl_a.buses, ctrl_b.buses):
            assert bus_a.stats.commands == bus_b.stats.commands
            assert bus_a.stats.busy_time == pytest.approx(
                bus_b.stats.busy_time, rel=REL
            )

    def test_split_ops_sums_to_total(self, timing):
        from repro.memsim.controller import MemoryController

        ctrl = MemoryController(GEOM, timing)
        batch = CommandBatch()
        for commands in self._random_segments(9, n_segments=5):
            batch.mark()
            batch.extend(commands)
            batch.fence()
        total, per_op = ctrl.execute_batch(batch, split_ops=True)
        assert len(per_op) == 5
        assert sum(s.latency for s in per_op) == pytest.approx(
            total.latency, rel=REL
        )
        assert sum(s.energy for s in per_op) == pytest.approx(total.energy, rel=REL)
        merged_counts = {}
        for s in per_op:
            for kind, n in s.counts.items():
                merged_counts[kind] = merged_counts.get(kind, 0) + n
        assert merged_counts == total.counts


#: What the original per-step engine (one ``execute`` per combine step,
#: one ``set_pim_mode`` per mode switch) priced for each workload below,
#: recorded on it before it was removed.  Per result: ``(steps,
#: localities, bits processed, latency, energy, bus commands, bus bytes,
#: energy by kind)``; then the workload's command counts per kind, and
#: each channel's bus ledger ``(commands, data bytes, busy time,
#: energy)``.
PINNED = {
    "wide_or": (
        [
            (3, {"intra_subarray": 3}, 20480,
             7.867999999999999e-07, 5.239248e-09, 19, 0,
             {"act": 1.8432e-11, "act_extra": 5.5296e-11, "mrs": 0.0,
              "pim_sense": 4.9152e-10, "pim_writeback": 4.5989999999999995e-09,
              "pre": 9.000000000000001e-12, "wl_reset": 9.000000000000001e-12}),
        ],
        {"mrs": 1, "wl_reset": 3, "act": 3, "act_extra": 9, "pim_sense": 3,
         "pim_writeback": 3, "pre": 3},
        [
            (19, 0, 2.3750000000000008e-08, 5.700000000000002e-11),
            (0, 0, 0.0, 0.0),
        ],
    ),
    "and": (
        [
            (1, {"intra_subarray": 1}, 4096,
             2.606e-07, 1.319878e-09, 5, 0,
             {"act": 6.144e-12, "act_extra": 6.144e-12, "mrs": 0.0,
              "pim_sense": 1.6384e-10, "pim_writeback": 1.1227499999999999e-09,
              "pre": 3e-12, "wl_reset": 3e-12}),
        ],
        {"mrs": 1, "wl_reset": 1, "act": 1, "act_extra": 1, "pim_sense": 1,
         "pim_writeback": 1, "pre": 1},
        [
            (5, 0, 6.25e-09, 1.5e-11),
            (0, 0, 0.0, 0.0),
        ],
    ),
    "xor": (
        [
            (1, {"intra_subarray": 1}, 4096,
             3.3179999999999994e-07, 2.678468e-09, 5, 0,
             {"act": 6.144e-12, "act_extra": 6.144e-12, "mrs": 0.0,
              "pim_sense": 3.2768e-10, "pim_writeback": 2.3175e-09, "pre": 3e-12,
              "wl_reset": 3e-12}),
        ],
        {"mrs": 1, "wl_reset": 1, "act": 1, "act_extra": 1, "pim_sense": 1,
         "pim_writeback": 1, "pre": 1},
        [
            (5, 0, 6.25e-09, 1.5e-11),
            (0, 0, 0.0, 0.0),
        ],
    ),
    "inv": (
        [
            (1, {"intra_subarray": 1}, 2048,
             2.5935e-07, 2.557234e-09, 4, 0,
             {"act": 6.144e-12, "mrs": 0.0, "pim_sense": 1.6384e-10,
              "pim_writeback": 2.36925e-09, "pre": 3e-12, "wl_reset": 3e-12}),
        ],
        {"mrs": 1, "wl_reset": 1, "act": 1, "pim_sense": 1, "pim_writeback": 1, "pre": 1},
        [
            (4, 0, 5e-09, 1.2e-11),
            (0, 0, 0.0, 0.0),
        ],
    ),
    "multi_chunk": (
        [
            (3, {"intra_subarray": 3}, 8392,
             7.17e-07, 1.0761106e-08, 13, 0,
             {"act": 1.2588e-11, "act_extra": 1.2588e-11, "mrs": 0.0,
              "pim_sense": 3.3568e-10, "pim_writeback": 1.0343249999999999e-08,
              "pre": 9.000000000000001e-12, "wl_reset": 9.000000000000001e-12}),
        ],
        {"mrs": 1, "wl_reset": 3, "act": 3, "act_extra": 3, "pim_sense": 3,
         "pim_writeback": 3, "pre": 3},
        [
            (13, 0, 1.625e-08, 3.900000000000001e-11),
            (0, 0, 0.0, 0.0),
        ],
    ),
    "multi_chunk_overlap": (
        [
            (3, {"intra_subarray": 3}, 8392,
             7.169999999999999e-07, 1.0761106e-08, 13, 0,
             {"act": 1.2588e-11, "act_extra": 1.2588e-11, "mrs": 0.0,
              "pim_sense": 3.3568e-10, "pim_writeback": 1.0343249999999999e-08,
              "pre": 9.000000000000001e-12, "wl_reset": 9.000000000000001e-12}),
        ],
        {"mrs": 1, "wl_reset": 3, "act": 3, "act_extra": 3, "pim_sense": 3,
         "pim_writeback": 3, "pre": 3},
        [
            (13, 0, 1.625e-08, 3.900000000000001e-11),
            (0, 0, 0.0, 0.0),
        ],
    ),
    "inter_subarray_and_bank": (
        [
            (1, {"inter_subarray": 1}, 4096,
             4.0089999999999994e-07, 3.869322e-09, 8, 0,
             {"act": 1.8432e-11, "buf_op": 4.096e-11, "mrs": 0.0,
              "pim_sense": 3.2768e-10, "pre": 9.000000000000001e-12, "wr": 3.44925e-09}),
            (1, {"inter_bank": 1}, 4096,
             4.0214999999999993e-07, 1.705742e-09, 8, 0,
             {"act": 1.8432e-11, "buf_op": 1.2288e-10, "mrs": 0.0,
              "pim_sense": 3.2768e-10, "pre": 9.000000000000001e-12, "wr": 1.20375e-09}),
        ],
        {"mrs": 2, "act": 6, "pim_sense": 4, "pre": 6, "buf_op": 3, "wr": 2},
        [
            (16, 0, 2.0000000000000004e-08, 4.8000000000000015e-11),
            (0, 0, 0.0, 0.0),
        ],
    ),
    "to_host": (
        [
            (2, {"intra_subarray": 2}, 12288,
             4.0275e-07, 1.7031938000000003e-08, 13, 256,
             {"act": 1.2288e-11, "act_extra": 3.072e-11, "mrs": 0.0,
              "pim_sense": 3.2768e-10, "pim_writeback": 4.32225e-09, "pre": 6e-12,
              "rd": 0.0, "wl_reset": 6e-12}),
        ],
        {"mrs": 1, "wl_reset": 2, "act": 2, "act_extra": 5, "pim_sense": 2,
         "pim_writeback": 1, "pre": 2, "rd": 1},
        [
            (13, 256, 3.625e-08, 1.2327e-08),
            (0, 0, 0.0, 0.0),
        ],
    ),
    "host_vectors": (
        [
            (0, {}, 0,
             3.9458125e-07, 1.7579625000000002e-08, 6, 266,
             {"act": 6.375e-12, "pre": 6e-12, "wr": 4.78125e-09}),
            (0, {}, 0,
             1.9028125e-07, 1.3138375e-08, 6, 266,
             {"act": 6.375e-12, "pim_sense": 1.7e-10, "pre": 6e-12, "rd": 1.7e-10}),
        ],
        {"act": 4, "wr": 2, "pre": 4, "pim_sense": 2, "rd": 2},
        [
            (12, 532, 5.6562500000000014e-08, 2.5572000000000002e-08),
            (0, 0, 0.0, 0.0),
        ],
    ),
}


def count_commands(system) -> dict:
    """Tally every command ``system``'s controller prices, per kind."""
    counts = {}
    ctrl = system.controller
    execute, execute_batch = ctrl.execute, ctrl.execute_batch

    def tally(stats):
        for kind, n in stats.counts.items():
            counts[kind.value] = counts.get(kind.value, 0) + n
        return stats

    ctrl.execute = lambda commands: tally(execute(commands))
    ctrl.execute_batch = lambda batch: tally(execute_batch(batch))
    return counts


def assert_pinned(name, results, counts, system):
    """``results`` (OpResults or host-path OpAccountings), the tallied
    command ``counts`` and the bus ledgers match ``PINNED[name]``."""
    pinned_results, pinned_counts, pinned_buses = PINNED[name]
    assert len(results) == len(pinned_results)
    for res, pinned in zip(results, pinned_results):
        steps, localities, bits, latency, energy, bus_cmds, bus_bytes, by_kind = pinned
        acct = getattr(res, "accounting", res)
        if acct is not res:
            assert res.steps == steps
            assert {k.value: n for k, n in res.localities.items()} == localities
        assert acct.in_memory_steps == steps
        assert {k.value: n for k, n in acct.locality_counts.items()} == localities
        assert acct.bits_processed == bits
        assert acct.latency == pytest.approx(latency, rel=REL)
        assert acct.energy == pytest.approx(energy, rel=REL)
        assert acct.bus_commands == bus_cmds
        assert acct.bus_data_bytes == bus_bytes
        assert {k.value for k in acct.energy_by_kind} == set(by_kind)
        for kind, e in acct.energy_by_kind.items():
            assert e == pytest.approx(by_kind[kind.value], rel=REL)
    assert counts == pinned_counts
    assert len(system.controller.buses) == len(pinned_buses)
    for bus, (cmds, data, busy, energy) in zip(system.controller.buses, pinned_buses):
        assert bus.stats.commands == cmds
        assert bus.stats.data_bytes == data
        assert bus.stats.busy_time == pytest.approx(busy, rel=REL)
        assert bus.stats.energy == pytest.approx(energy, rel=REL)


def frame_bytes(system, frames):
    return [system.memory.frame_bytes(f).copy() for f in frames]


_NP_OPS = {"or": np.bitwise_or, "and": np.bitwise_and, "xor": np.bitwise_xor}


class TestExecutorLevel:
    """bitwise()/bitwise_to_host()/host paths against the pinned pricing."""

    def test_wide_or_with_accumulation(self):
        system = make_system(max_rows=4)
        counts = count_commands(system)
        frames = subarray_frames(system, bank=0, sub=0)
        fill_frames((system,), frames[:10], seed=1)
        expected = np.bitwise_or.reduce(frame_bytes(system, frames[:10]))
        sources = [[f] for f in frames[:10]]
        res = system.executor.bitwise("or", [frames[10]], sources, GEOM.row_bits)
        assert res.steps > 1  # accumulation actually decomposed
        assert_pinned("wide_or", [res], counts, system)
        assert np.array_equal(system.memory.frame_bytes(frames[10]), expected)

    @pytest.mark.parametrize("op,n_src", [("and", 2), ("xor", 2), ("inv", 1)])
    def test_two_operand_ops(self, op, n_src):
        system = make_system()
        counts = count_commands(system)
        frames = subarray_frames(system, bank=0, sub=0)
        fill_frames((system,), frames[:n_src], seed=2)
        src = frame_bytes(system, frames[:n_src])
        expected = ~src[0] if op == "inv" else _NP_OPS[op](*src)
        sources = [[f] for f in frames[:n_src]]
        res = system.executor.bitwise(op, [frames[n_src]], sources, GEOM.row_bits)
        assert_pinned(op, [res], counts, system)
        assert np.array_equal(system.memory.frame_bytes(frames[n_src]), expected)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_multi_chunk_vector(self, overlap):
        system = make_system()
        counts = count_commands(system)
        frames = subarray_frames(system, bank=0, sub=0)
        n_bits = 2 * GEOM.row_bits + 100  # 3 chunks, last one partial
        src1, src2, dest = frames[0:3], frames[3:6], frames[6:9]
        fill_frames((system,), src1 + src2, seed=3)
        expected = [
            a | b for a, b in zip(frame_bytes(system, src1), frame_bytes(system, src2))
        ]
        res = system.executor.bitwise(
            "or", dest, [src1, src2], n_bits, overlap_chunks=overlap
        )
        name = "multi_chunk_overlap" if overlap else "multi_chunk"
        assert_pinned(name, [res], counts, system)
        for got, want in zip(frame_bytes(system, dest), expected):
            assert np.array_equal(got, want)

    def test_inter_subarray_and_inter_bank(self):
        system = make_system()
        counts = count_commands(system)
        f_sub0 = subarray_frames(system, bank=0, sub=0)
        f_sub1 = subarray_frames(system, bank=0, sub=1)
        f_bank1 = subarray_frames(system, bank=1, sub=0)
        fill_frames((system,), [f_sub0[0], f_sub1[0], f_bank1[0]], seed=4)
        a, b, c = frame_bytes(system, [f_sub0[0], f_sub1[0], f_bank1[0]])
        # inter-subarray: sources in different subarrays of one bank
        res_sub = system.executor.bitwise(
            "or", [f_sub0[1]], [[f_sub0[0]], [f_sub1[0]]], GEOM.row_bits
        )
        # inter-bank: sources in different banks of one chip
        res_bank = system.executor.bitwise(
            "and", [f_sub0[2]], [[f_sub0[0]], [f_bank1[0]]], GEOM.row_bits
        )
        assert_pinned("inter_subarray_and_bank", [res_sub, res_bank], counts, system)
        assert np.array_equal(system.memory.frame_bytes(f_sub0[1]), a | b)
        assert np.array_equal(system.memory.frame_bytes(f_sub0[2]), a & c)

    def test_bitwise_to_host(self):
        system = make_system()
        counts = count_commands(system)
        frames = subarray_frames(system, bank=0, sub=0)
        fill_frames((system,), frames[:6], seed=5)
        src = frame_bytes(system, frames[:6])
        sources = [[f] for f in frames[:6]]
        bits, res = system.executor.bitwise_to_host(
            "or", [frames[6]], sources, GEOM.row_bits
        )
        assert_pinned("to_host", [res], counts, system)
        expected = np.unpackbits(np.bitwise_or.reduce(src), bitorder="little")
        assert np.array_equal(bits, expected[: GEOM.row_bits])
        # the first (4-row) pass accumulated in the scratch row
        assert np.array_equal(
            system.memory.frame_bytes(frames[6]), np.bitwise_or.reduce(src[:4])
        )

    def test_host_vector_paths(self):
        system = make_system()
        counts = count_commands(system)
        frames = subarray_frames(system, bank=0, sub=0)
        rng = np.random.default_rng(6)
        n_bits = GEOM.row_bits + 77
        bits = rng.integers(0, 2, size=n_bits).astype(np.uint8)
        write_acct = system.executor.write_vector(frames[:2], bits)
        out, read_acct = system.executor.read_vector(frames[:2], n_bits)
        assert_pinned("host_vectors", [write_acct, read_acct], counts, system)
        assert np.array_equal(out, bits)
        stored = np.concatenate(
            [np.unpackbits(b, bitorder="little") for b in frame_bytes(system, frames[:2])]
        )
        assert np.array_equal(stored[:n_bits], bits)


class TestBitwiseMany:
    def _workload(self, system):
        frames = subarray_frames(system, bank=0, sub=0)
        return frames, [
            ("or", [frames[8]], [[frames[0]], [frames[1]], [frames[2]]],
             GEOM.row_bits),
            ("and", [frames[9]], [[frames[8]], [frames[3]]], GEOM.row_bits),
            ("xor", [frames[10]], [[frames[9]], [frames[4]]], GEOM.row_bits),
            ("inv", [frames[11]], [[frames[10]]], GEOM.row_bits),
        ]

    def test_stream_matches_sequential(self):
        sys_a = make_system()
        sys_b = make_system()
        frames, requests = self._workload(sys_a)
        fill_frames((sys_a, sys_b), frames[:5], seed=7)
        seq = [sys_a.executor.bitwise(*req) for req in requests]
        many = sys_b.executor.bitwise_many(requests)
        assert len(many) == len(seq)
        for res_a, res_b in zip(seq, many):
            assert_result_equal(res_a, res_b)
        assert_systems_equal(sys_a, sys_b, frames[:12])

    def test_placement_prevalidation_leaves_state_untouched(self):
        system = make_system()
        frames = subarray_frames(system, bank=0, sub=0)
        fill_frames((system,), frames[:2], seed=8)
        # second request spans channels -> inter-chip -> PlacementError
        other_channel = system.mapper.encode(RowAddress(1, 0, 0, 0, 0))
        requests = [
            ("or", [frames[4]], [[frames[0]], [frames[1]]], GEOM.row_bits),
            ("or", [frames[5]], [[frames[0]], [other_channel]], GEOM.row_bits),
        ]
        before = system.memory.frame_bytes(frames[4])
        writes_before = system.memory.total_writes
        with pytest.raises(PlacementError):
            system.executor.bitwise_many(requests)
        assert np.array_equal(system.memory.frame_bytes(frames[4]), before)
        assert system.memory.total_writes == writes_before
        for bus in system.controller.buses:
            assert bus.stats.commands == 0
