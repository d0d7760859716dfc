"""Tests for delta repair of cached sub-results (incremental maintenance).

The write path's delta listener hands the planner per-frame ``old XOR
new`` bitmaps; :class:`repro.plan.repair.RepairEngine` fixes cached
entries in place instead of dropping them.  These tests pin the repair
algebra (XOR/NOT linear, AND/OR delta-masked recompute), the cache/LRU
interaction under repair, the ProgramCache's geometry-staleness guard,
and the interpreted/compiled pricing parity of the repair path.
"""

import itertools

import numpy as np
import pytest

from repro import telemetry
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.address import RowAddress
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.plan.cache import SubResultCache
from repro.plan.repair import FALLBACK_CAUSES
from repro.runtime.allocator import BitVectorHandle
from repro.runtime.api import PimRuntime

GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=4,
    subarrays_per_bank=16,
    rows_per_subarray=64,
    mats_per_subarray=1,
    cols_per_mat=1024,
    mux_ratio=8,
)

N = 3 * GEOM.row_bits  # three chunks per vector


def _runtime(geometry=GEOM, repair=True, **kwargs) -> PimRuntime:
    """A planned runtime; ``repair=False`` makes the planner decline
    every write delta, so writes take the eager-invalidation path."""
    system = PinatuboSystem(get_technology("pcm"), geometry)
    rt = PimRuntime(system, plan=True, **kwargs)
    if not repair:
        rt.planner.wants_delta = lambda frames: False
    return rt


def _loaded(rt, n_vectors=3, seed=5):
    rng = np.random.default_rng(seed)
    handles, bits = [], []
    for _ in range(n_vectors):
        b = rng.integers(0, 2, N, dtype=np.uint8)
        h = rt.pim_malloc(N)
        rt.pim_write(h, b)
        handles.append(h)
        bits.append(b)
    return handles, bits


def _oracle(op, operands):
    out = operands[0].copy()
    for o in operands[1:]:
        if op == "or":
            out |= o
        elif op == "and":
            out &= o
        else:
            out ^= o
    if op == "inv":
        out ^= 1
    return out


class TestRepairCorrectness:
    @pytest.mark.parametrize("op", ["or", "and", "xor"])
    def test_partial_write_repairs_one_chunk(self, op):
        """A one-row write repairs exactly the dirtied chunk in place:
        the entry stays resident, the re-issued query is a cache hit,
        and the served bits match the numpy oracle on the new data."""
        rt = _runtime()
        (a, b, _), (ba, bb, _) = _loaded(rt)
        d1 = rt.pim_malloc(N)
        rt.pim_op(op, d1, [a, b])
        assert len(rt.planner.cache) == 1

        row = np.random.default_rng(9).integers(
            0, 2, GEOM.row_bits, dtype=np.uint8
        )
        rt.pim_write(a, row)  # overwrites only the first row frame
        new_a = ba.copy()
        new_a[: GEOM.row_bits] = row

        stats = rt.plan_stats
        assert stats.repairs == 1
        assert stats.repaired_chunks == 1
        assert stats.repair_fallbacks == 0
        assert rt.planner.cache.invalidations == 0
        assert len(rt.planner.cache) == 1
        assert stats.repair_latency_s > 0  # priced through the controller

        hits0 = stats.cache_hits
        d2 = rt.pim_malloc(N)
        rt.pim_op(op, d2, [a, b])
        assert stats.cache_hits == hits0 + 1
        assert np.array_equal(rt.pim_read(d2), _oracle(op, [new_a, bb]))

    def test_inv_repair(self):
        rt = _runtime()
        (a, _, _), (ba, _, _) = _loaded(rt)
        d1 = rt.pim_malloc(N)
        rt.pim_op("inv", d1, [a])
        row = np.random.default_rng(11).integers(
            0, 2, GEOM.row_bits, dtype=np.uint8
        )
        rt.pim_write(a, row)
        new_a = ba.copy()
        new_a[: GEOM.row_bits] = row
        assert rt.plan_stats.repairs == 1
        d2 = rt.pim_malloc(N)
        rt.pim_op("inv", d2, [a])
        assert rt.plan_stats.cache_hits == 1
        assert np.array_equal(rt.pim_read(d2), new_a ^ 1)

    def test_full_overwrite_repairs_every_chunk(self):
        rt = _runtime()
        (a, b, _), (_, bb, _) = _loaded(rt)
        d1 = rt.pim_malloc(N)
        rt.pim_op("xor", d1, [a, b])
        new_a = np.random.default_rng(13).integers(0, 2, N, dtype=np.uint8)
        rt.pim_write(a, new_a)
        # the host write lands row by row, so each dirtied frame takes
        # its own repair pass; all three chunks end up repaired in place
        assert rt.plan_stats.repairs >= 1
        assert rt.plan_stats.repaired_chunks == 3
        d2 = rt.pim_malloc(N)
        rt.pim_op("xor", d2, [a, b])
        assert rt.plan_stats.cache_hits == 1
        assert np.array_equal(rt.pim_read(d2), new_a ^ bb)

    def test_nested_child_falls_back_to_invalidation(self):
        """An entry whose child is itself a sub-expression is out of
        frame-delta reach: the write must invalidate it (counted as a
        fallback, under the ``nested_child`` cause) while still
        repairing the leaf-level entry."""
        rt = _runtime()
        (a, b, c), (ba, bb, bc) = _loaded(rt)
        p1, out = rt.pim_malloc(N), rt.pim_malloc(N)
        rt.pim_op("or", p1, [a, b])
        rt.pim_op("and", out, [p1, c])  # caches and(or(a, b), c)
        assert len(rt.planner.cache) == 2

        def causes():
            return {
                cause: telemetry.counter(f"plan.repair.fallback.{cause}").value
                for cause in FALLBACK_CAUSES
            }

        causes0 = causes()
        fallbacks0 = telemetry.counter(
            "plan.repair.fallback_invalidations"
        ).value
        row = np.random.default_rng(17).integers(
            0, 2, GEOM.row_bits, dtype=np.uint8
        )
        rt.pim_write(a, row)  # one-row write: exactly one repair pass
        new_a = ba.copy()
        new_a[: GEOM.row_bits] = row
        stats = rt.plan_stats
        assert stats.repairs == 1  # the or(a, b) leaf entry
        assert stats.repair_fallbacks == 1  # the nested and(...)
        assert rt.planner.cache.invalidations == 1
        assert len(rt.planner.cache) == 1
        moved = {k: v - causes0[k] for k, v in causes().items()}
        assert moved == {
            "nested_child": 1, "chunk_mismatch": 0, "inter_chip": 0,
            "cost_gate": 0,
        }
        fallbacks = telemetry.counter(
            "plan.repair.fallback_invalidations"
        ).value - fallbacks0
        assert sum(moved.values()) == fallbacks == 1

        d2 = rt.pim_malloc(N)
        rt.pim_op("or", d2, [a, b])
        assert stats.cache_hits == 1  # repaired entry serves
        assert np.array_equal(rt.pim_read(d2), new_a | bb)

    def test_repair_disabled_still_invalidates(self):
        rt = _runtime(repair=False)
        (a, b, _), (_, bb, _) = _loaded(rt)
        d1 = rt.pim_malloc(N)
        rt.pim_op("or", d1, [a, b])
        row = np.zeros(GEOM.row_bits, dtype=np.uint8)
        rt.pim_write(a, row)
        assert rt.plan_stats.repairs == 0
        assert len(rt.planner.cache) == 0
        assert rt.planner.cache.invalidations > 0


class TestMultiStepWriteNetDelta:
    """A bulk op that overwrites a cached entry's operand through
    accumulation passes raises one write event: the repair sees the net
    ``old XOR final`` delta of each frame, not one delta per pass."""

    @pytest.mark.parametrize("op", ["or", "and", "xor"])
    def test_accumulating_overwrite_repairs_from_net_delta(self, op):
        rt = _runtime()
        handles, bits = _loaded(rt, n_vectors=6)
        a, b = handles[:2]
        rt.pim_op(op, rt.pim_malloc(N), [a, b])  # cached: reads a's frames
        stats = rt.plan_stats
        repairs0, chunks0 = stats.repairs, stats.repaired_chunks

        # depth 0 (outside any planner wave): a = c & d & e & f, three
        # pairwise passes on each of a's three chunks
        result = rt.driver.execute("and", a, handles[2:6], N)
        assert result.steps == 9
        new_a = bits[2] & bits[3] & bits[4] & bits[5]

        assert stats.repairs - repairs0 == 1
        assert stats.repaired_chunks - chunks0 == 3
        assert stats.repair_fallbacks == 0
        hits0 = stats.cache_hits
        d2 = rt.pim_malloc(N)
        rt.pim_op(op, d2, [a, b])
        assert stats.cache_hits == hits0 + 1
        assert np.array_equal(rt.pim_read(d2), _oracle(op, [new_a, bits[1]]))


class TestLruUnderRepair:
    """Satellite: the cache's LRU discipline under the repair path."""

    def _small_cache_runtime(self):
        rt = _runtime()
        # one shard holding exactly two 3-chunk entries: a third insert
        # evicts the least recently used one
        rt.planner.cache = SubResultCache(
            max_bytes=6 * GEOM.row_bytes, shards=1
        )
        return rt

    def test_repair_refreshes_recency(self):
        """A repaired entry is a re-insert: it must become the most
        recently used, so the next eviction takes the untouched entry."""
        rt = self._small_cache_runtime()
        (a, b, c), (ba, bb, bc) = _loaded(rt)
        dA, dB, dC = (rt.pim_malloc(N) for _ in range(3))
        rt.pim_op("or", dA, [a, b])  # entry A (LRU-oldest)
        rt.pim_op("xor", dB, [b, c])  # entry B

        row = np.random.default_rng(23).integers(
            0, 2, GEOM.row_bits, dtype=np.uint8
        )
        rt.pim_write(a, row)  # repairs A -> A is now the newest
        new_a = ba.copy()
        new_a[: GEOM.row_bits] = row
        assert rt.plan_stats.repairs == 1

        rt.pim_op("and", dC, [a, c])  # entry C -> evicts B, not A
        assert rt.planner.cache.evictions == 1

        hits0 = rt.plan_stats.cache_hits
        d2 = rt.pim_malloc(N)
        rt.pim_op("or", d2, [a, b])  # repaired A still serves
        assert rt.plan_stats.cache_hits == hits0 + 1
        assert np.array_equal(rt.pim_read(d2), new_a | bb)

        d3 = rt.pim_malloc(N)
        rt.pim_op("xor", d3, [b, c])  # B was evicted: recompute
        assert rt.plan_stats.cache_hits == hits0 + 1
        assert np.array_equal(rt.pim_read(d3), bb ^ bc)

    def test_write_after_eviction_does_not_resurrect(self):
        """Repair races eviction: once the LRU dropped an entry, a write
        to its operands must not bring it back (the repair path only
        re-inserts entries it popped live from the cache)."""
        rt = self._small_cache_runtime()
        (a, b, c), (ba, bb, _) = _loaded(rt)
        dA, dB, dC = (rt.pim_malloc(N) for _ in range(3))
        rt.pim_op("or", dA, [a, b])  # entry A
        rt.pim_op("xor", dB, [b, c])  # entry B
        rt.pim_op("and", dC, [b, c])  # entry C -> evicts A
        assert rt.planner.cache.evictions == 1
        assert len(rt.planner.cache) == 2

        row = np.random.default_rng(29).integers(
            0, 2, GEOM.row_bits, dtype=np.uint8
        )
        rt.pim_write(a, row)  # nothing live reads a any more
        assert rt.plan_stats.repairs == 0
        assert len(rt.planner.cache) == 2

        new_a = ba.copy()
        new_a[: GEOM.row_bits] = row
        hits0 = rt.plan_stats.cache_hits
        d2 = rt.pim_malloc(N)
        rt.pim_op("or", d2, [a, b])  # must recompute, not hit a ghost
        assert rt.plan_stats.cache_hits == hits0
        assert np.array_equal(rt.pim_read(d2), new_a | bb)


class TestRepairUnderGeometryChange:
    def test_mux16_repair_prices_like_interpreter(self):
        """A repair under a different SA mux ratio (same row_bits, a
        different sense-step resolution) costs what the ``compile=False``
        planner charges, to 1e-9 relative, and the repaired entry serves
        the right bits."""
        geom16 = MemoryGeometry(
            channels=1,
            ranks_per_channel=1,
            chips_per_rank=1,
            banks_per_chip=4,
            subarrays_per_bank=16,
            rows_per_subarray=64,
            mats_per_subarray=1,
            cols_per_mat=1024,
            mux_ratio=16,  # same row_bits, different sense resolution
        )
        row = np.random.default_rng(37).integers(
            0, 2, GEOM.row_bits, dtype=np.uint8
        )

        def play(compile_):
            rt = _runtime(geometry=geom16, compile=compile_)
            (a, b, _), (ba, bb, _) = _loaded(rt)
            rt.pim_op("xor", rt.pim_malloc(N), [a, b])
            rt.pim_write(a, row)
            assert rt.plan_stats.repairs == 1

            new_a = ba.copy()
            new_a[: GEOM.row_bits] = row
            d2 = rt.pim_malloc(N)
            rt.pim_op("xor", d2, [a, b])  # repaired entry serves
            assert rt.plan_stats.cache_hits == 1
            assert np.array_equal(rt.pim_read(d2), new_a ^ bb)
            stats, acct = rt.plan_stats, rt.pim_accounting
            return (stats.repair_latency_s, stats.repair_energy_j,
                    acct.latency, acct.energy)

        interpreted, compiled = play(False), play(True)
        assert interpreted[0] > 0
        assert compiled == pytest.approx(interpreted, rel=1e-9)


class TestRepairPricingParity:
    def test_interpreted_and_compiled_repairs_price_identically(self):
        """Compilation never changes a repair's pricing: both planners
        must report the same simulated latency/energy to 1e-9 relative,
        with byte-identical reads."""

        def play(compile_):
            rt = _runtime(compile=compile_)
            (a, b, c), _ = _loaded(rt)
            rng = np.random.default_rng(41)
            reads = []
            for op, srcs in (("xor", [a, b]), ("or", [b, c]), ("and", [a, c])):
                d = rt.pim_malloc(N)
                rt.pim_op(op, d, srcs)
                reads.append(d)
            for _ in range(2):
                rt.pim_write(
                    a, rng.integers(0, 2, GEOM.row_bits, dtype=np.uint8)
                )
                for op, d, srcs in (
                    ("xor", rt.pim_malloc(N), [a, b]),
                    ("and", rt.pim_malloc(N), [a, c]),
                ):
                    rt.pim_op(op, d, srcs)
                    reads.append(d)
            bits = [rt.pim_read(d).tobytes() for d in reads]
            assert rt.plan_stats.repairs > 0
            acct = rt.pim_accounting
            return bits, acct.latency, acct.energy

        bits_i, lat_i, en_i = play(False)
        bits_c, lat_c, en_c = play(True)
        assert bits_i == bits_c
        assert lat_c == pytest.approx(lat_i, rel=1e-9)
        assert en_c == pytest.approx(en_i, rel=1e-9)


class TestMultiEntryWritePricing:
    """One host write repairs seven cached entries of every op (AND,
    OR, XOR and INV, so the mode register switches four times inside
    the write) and invalidates one nested entry.  The write's
    accounting delta is pinned to values recorded when every entry was
    priced by its own ``execute_batch``: pricing the write as one batch
    must not move any of them.  Every vector lives on channel 1 while
    the MRS issues on channel 0, so an MRS that shared a segment with
    repair commands would overlap them and shorten the latency."""

    LATENCY_S = 2.0353000000000023e-06
    ENERGY_J = 6.521029999999992e-09
    ENERGY_BY_KIND = {
        "act": 2.1504e-11,
        "act_extra": 2.4576e-11,
        "pim_sense": 8.192000000000006e-10,
        "pim_writeback": 5.514749999999993e-09,
        "pre": 2.1000000000000018e-11,
        "wl_reset": 2.1000000000000018e-11,
    }

    @staticmethod
    def _write_delta(compile_):
        geom2 = MemoryGeometry(
            channels=2,
            ranks_per_channel=1,
            chips_per_rank=1,
            banks_per_chip=4,
            subarrays_per_bank=16,
            rows_per_subarray=64,
            mats_per_subarray=1,
            cols_per_mat=1024,
            mux_ratio=8,
        )
        rt = _runtime(geometry=geom2, compile=compile_)
        ids = itertools.count()

        def alloc():
            # vector v's chunk c on row 3v + c of one channel-1 subarray
            v = next(ids)
            frames = tuple(
                rt.system.mapper.encode(RowAddress(1, 0, 0, 0, 3 * v + c))
                for c in range(3)
            )
            return BitVectorHandle(vid=1000 + v, n_bits=N, frames=frames)

        rng = np.random.default_rng(43)
        a, b, c, d = (alloc() for _ in range(4))
        for h in (a, b, c, d):
            rt.pim_write(h, rng.integers(0, 2, N, dtype=np.uint8))
        p1 = alloc()
        rt.pim_op("or", p1, [a, b])
        rt.pim_op("and", alloc(), [p1, c])  # nested: falls back
        for op, srcs in (
            ("and", [a, b]),
            ("and", [a, c]),
            ("or", [a, c, d]),
            ("xor", [a, b]),
            ("inv", [a]),
            ("xor", [b, a, d]),
        ):
            rt.pim_op(op, alloc(), srcs)
        stats = rt.plan_stats
        before = rt.pim_accounting
        s0 = (stats.repairs, stats.repair_fallbacks, stats.repaired_chunks,
              stats.repair_latency_s, stats.repair_energy_j)
        row = np.random.default_rng(47).integers(
            0, 2, GEOM.row_bits, dtype=np.uint8
        )
        rt.pim_write(a, row)
        after = rt.pim_accounting
        by_kind = {
            kind.value: e - before.energy_by_kind.get(kind, 0.0)
            for kind, e in after.energy_by_kind.items()
        }
        return rt, before, after, by_kind, s0

    @pytest.mark.parametrize("compile_", [False, True])
    def test_write_prices_like_per_entry_sum(self, compile_):
        rt, before, after, by_kind, s0 = self._write_delta(compile_)
        assert after.latency - before.latency == pytest.approx(
            self.LATENCY_S, rel=1e-9
        )
        assert after.energy - before.energy == pytest.approx(
            self.ENERGY_J, rel=1e-9
        )
        assert {k: e for k, e in by_kind.items() if e} == pytest.approx(
            self.ENERGY_BY_KIND, rel=1e-9
        )
        assert after.bus_data_bytes - before.bus_data_bytes == 0
        assert after.bus_commands - before.bus_commands == 33
        assert after.in_memory_steps - before.in_memory_steps == 7
        assert after.bits_processed - before.bits_processed == 7168

        stats = rt.plan_stats
        assert stats.repairs - s0[0] == 7
        assert stats.repair_fallbacks - s0[1] == 1
        assert stats.repaired_chunks - s0[2] == 7
        assert stats.repair_latency_s - s0[3] == pytest.approx(
            self.LATENCY_S, rel=1e-9
        )
        assert stats.repair_energy_j - s0[4] == pytest.approx(
            self.ENERGY_J, rel=1e-9
        )


class TestMultiChunkRepairPricing:
    """One bulk write reaches three chunks of four entries on alternating
    channels, two of them XORs that read the written vector twice (two
    repair groups per chunk).  The write's cost is pinned to values
    recorded when each repair was priced as a frozen per-shape program:
    every chunk is a fenced segment of its own (merging them would
    overlap the channels and shorten the latency), and a chunk's earlier
    groups write back the full chunk, its last group only the flipped
    cells (the energy)."""

    LATENCY_S = 5.530199999999998e-06
    ENERGY_J = 1.9288158e-08

    @pytest.mark.parametrize("compile_", [False, True])
    def test_bulk_write_prices_like_frozen_programs(self, compile_):
        geom2 = MemoryGeometry(
            channels=2,
            ranks_per_channel=1,
            chips_per_rank=1,
            banks_per_chip=4,
            subarrays_per_bank=16,
            rows_per_subarray=64,
            mats_per_subarray=1,
            cols_per_mat=1024,
            mux_ratio=8,
        )
        rt = _runtime(geometry=geom2, compile=compile_)
        ids = itertools.count()

        def alloc():
            # vector v's chunk c on row 3v + c of channel c % 2
            v = next(ids)
            frames = tuple(
                rt.system.mapper.encode(RowAddress(c % 2, 0, 0, 0, 3 * v + c))
                for c in range(3)
            )
            return BitVectorHandle(vid=1000 + v, n_bits=N, frames=frames)

        rng = np.random.default_rng(53)
        a, b, c = (alloc() for _ in range(3))
        for h in (a, b, c):
            rt.pim_write(h, rng.integers(0, 2, N, dtype=np.uint8))
        for op, srcs in (
            ("xor", [a, a, b]),
            ("or", [a, b, c]),
            ("and", [a, c]),
            ("xor", [a, b, c, a]),
        ):
            rt.pim_op(op, alloc(), srcs)
        before = rt.pim_accounting
        new_a = np.random.default_rng(59).integers(0, 2, N, dtype=np.uint8)
        rt.system.memory.write_frames(
            list(a.frames), np.packbits(new_a, bitorder="little").reshape(3, -1)
        )
        after = rt.pim_accounting
        stats = rt.plan_stats
        assert (stats.repairs, stats.repaired_chunks) == (4, 12)
        assert after.latency - before.latency == pytest.approx(
            self.LATENCY_S, rel=1e-9
        )
        assert after.energy - before.energy == pytest.approx(
            self.ENERGY_J, rel=1e-9
        )


class TestServeReplayCounterAlias:
    def test_compat_counter_tracks_canonical(self):
        """``plan.serve.replays`` stays registered at 0: every serve is
        admitted by planning (there is no resident replay to count), and
        the e2e benchmark's trace mode still reads the counter."""
        rt = _runtime()
        (a, b, c), _ = _loaded(rt)
        for _ in range(3):  # pass 1 executes, passes 2 and 3 serve
            d1, d2 = rt.pim_malloc(N), rt.pim_malloc(N)
            rt.pim_op_many([("or", d1, [a, b]), ("xor", d2, [a, c])])
        assert rt.plan_stats.cache_hits == 4
        assert telemetry.aggregate()["counters"]["plan.serve.replays"] == 0
