"""Tests for the query-plan compiler and the write-invalidated cache."""

import gc
import weakref

import numpy as np
import pytest

from repro import telemetry
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.plan.cache import SubResultCache
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


def _runtime(repair=True, **kwargs) -> PimRuntime:
    """A planned runtime; ``repair=False`` overrides the marking hook so
    host writes take the eager-invalidation path."""
    system = PinatuboSystem(get_technology("pcm"), GEOM)
    rt = PimRuntime(system, plan=True, **kwargs)
    if not repair:
        rt.planner.repair.on_delta = (
            lambda frames: rt.planner.cache.invalidate_frames(frames)
        )
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


class TestPlannerCorrectness:
    def test_cse_within_batch_byte_identical(self):
        rt = _runtime()
        (a, b, c), (ba, bb, bc) = _loaded(rt)
        d = [rt.pim_malloc(N) for _ in range(4)]
        rt.pim_op_many(
            [
                ("or", d[0], [a, b]),
                ("or", d[1], [b, a]),  # commuted duplicate
                ("or", d[2], [a, b, a]),  # idempotent duplicate
                ("xor", d[3], [a, c]),
            ]
        )
        assert rt.plan_stats.cse_hits == 2
        expected = ba | bb
        for dest in d[:3]:
            assert np.array_equal(rt.pim_read(dest), expected)
        assert np.array_equal(rt.pim_read(d[3]), ba ^ bc)

    def test_cache_hit_across_streams(self):
        rt = _runtime()
        (a, b, _), (ba, bb, _) = _loaded(rt)
        d1 = rt.pim_malloc(N)
        rt.pim_op("or", d1, [a, b])
        assert rt.plan_stats.cache_hits == 0
        d2 = rt.pim_malloc(N)
        rt.pim_op("or", d2, [a, b])
        assert rt.plan_stats.cache_hits == 1
        assert np.array_equal(rt.pim_read(d2), ba | bb)

    def test_expression_rebinding_chains_across_queries(self):
        """and(or1, or2) matches across queries despite fresh scratch."""
        rt = _runtime()
        (a, b, c), (ba, bb, bc) = _loaded(rt)
        for i in range(2):
            p1, p2, out = (rt.pim_malloc(N) for _ in range(3))
            rt.pim_op_many(
                [
                    ("or", p1, [a, b]),
                    ("or", p2, [b, c]),
                ]
            )
            rt.pim_op("and", out, [p1, p2])
            assert np.array_equal(
                rt.pim_read(out), (ba | bb) & (bb | bc)
            )
        # second round: both ORs and the AND serve from the cache
        assert rt.plan_stats.cache_hits == 3

    def test_aliased_dest_executes_correctly(self):
        rt = _runtime()
        (a, b, _), (ba, bb, _) = _loaded(rt)
        rt.pim_op("or", a, [a, b])  # in-place accumulation
        assert np.array_equal(rt.pim_read(a), ba | bb)
        # aliased expressions are never inserted into the cache
        assert rt.planner.cache.hits == 0


class TestInvalidation:
    def test_write_to_operand_invalidate_and_recompute(self):
        """The satellite test: write to a row feeding a cached sub-result,
        re-issue the query, result is byte-identical to the numpy oracle
        and the invalidation is counted.  ``repair=False`` pins the
        eager-invalidation semantics this asserts (the default marks
        the entry dirty and repairs it on the next read -- see
        test_repair)."""
        rt = _runtime(repair=False)
        (a, b, _), (ba, bb, _) = _loaded(rt)
        inv0 = telemetry.counter("plan.cache.invalidations").value
        d1 = rt.pim_malloc(N)
        rt.pim_op("or", d1, [a, b])
        assert len(rt.planner.cache) == 1
        new_a = np.zeros(N, dtype=np.uint8)
        new_a[::3] = 1
        rt.pim_write(a, new_a)  # hits every row frame of a
        assert len(rt.planner.cache) == 0
        assert rt.planner.cache.invalidations > 0
        assert telemetry.counter("plan.cache.invalidations").value > inv0
        d2 = rt.pim_malloc(N)
        rt.pim_op("or", d2, [a, b])
        assert np.array_equal(rt.pim_read(d2), new_a | bb)
        # the stale entry must not have been served
        assert rt.plan_stats.cache_hits == 0

    def test_free_drops_dependent_entries(self):
        rt = _runtime()
        (a, b, _), _ = _loaded(rt)
        d = rt.pim_malloc(N)
        rt.pim_op("or", d, [a, b])
        assert len(rt.planner.cache) == 1
        rt.pim_free(a)
        assert len(rt.planner.cache) == 0
        assert rt.planner.cache.invalidations > 0

    def test_serve_write_invalidates_dependents(self):
        """A served result is itself a write: entries reading the serve
        destination must go."""
        rt = _runtime()
        (a, b, c), (ba, bb, bc) = _loaded(rt)
        d1, d2 = rt.pim_malloc(N), rt.pim_malloc(N)
        rt.pim_op("or", d1, [a, b])
        rt.pim_op("and", d2, [d1, c])  # caches and(or_ab, c) reading d1
        d3 = rt.pim_malloc(N)
        rt.pim_op("or", d1, [a, c])  # overwrites d1 (exec, new expr)
        rt.pim_op("and", d3, [d1, c])
        assert np.array_equal(rt.pim_read(d3), (ba | bc) & bc)


class TestHitPricing:
    def test_served_results_priced_nonzero_and_cheaper(self):
        rt = _runtime()
        (a, b, _), _ = _loaded(rt)
        d1 = rt.pim_malloc(N)
        executed = rt.pim_op("or", d1, [a, b])
        d2 = rt.pim_malloc(N)
        served = rt.pim_op("or", d2, [a, b])
        assert rt.plan_stats.cache_hits == 1
        assert served.latency > 0
        assert served.energy > 0
        assert served.latency < executed.latency
        assert served.energy < executed.energy

    def test_totals_reconcile_with_driver_accounting(self):
        """Per-result latency/energy sums to the runtime's accounting on
        a single-channel system (serial critical path)."""
        rt = _runtime()
        (a, b, c), _ = _loaded(rt)
        dests = [rt.pim_malloc(N) for _ in range(4)]
        results = rt.pim_op_many(
            [
                ("or", dests[0], [a, b]),
                ("or", dests[1], [a, b]),  # CSE-served
                ("and", dests[2], [b, c]),
                ("and", dests[3], [b, c]),  # CSE-served
            ]
        )
        acct = rt.pim_accounting
        assert acct.latency == pytest.approx(
            sum(r.latency for r in results)
        )
        assert acct.energy == pytest.approx(sum(r.energy for r in results))
        assert rt.plan_stats.served_latency_s > 0
        assert rt.plan_stats.served_energy_j > 0


class TestSubResultCache:
    def test_lru_eviction_under_byte_budget(self):
        cache = SubResultCache(max_bytes=4096)
        rows = np.ones((1, 1024), dtype=np.uint8)
        for i in range(6):
            cache.put(f"k{i}", rows, 8192, {i})
        assert cache.evictions > 0
        assert cache.bytes_used <= 4096
        assert cache.get("k0") is None  # oldest evicted
        assert cache.get("k5") is not None

    def test_oversized_entry_rejected(self):
        cache = SubResultCache(max_bytes=1024)
        rows = np.ones((4, 1024), dtype=np.uint8)
        assert not cache.put("big", rows, 4 * 8192, {1})
        assert len(cache) == 0

    def test_invalidate_frame_counts(self):
        cache = SubResultCache()
        rows = np.ones((1, 64), dtype=np.uint8)
        cache.put("x", rows, 512, {1, 2})
        cache.put("y", rows, 512, {2, 3})
        assert cache.invalidate_frames([2]) == 2
        assert cache.invalidations == 2
        assert len(cache) == 0
        # the frame index must be fully cleaned up
        assert cache.invalidate_frames([1]) == 0
        assert cache.invalidate_frames([3]) == 0

    def test_one_budget_for_every_entry(self):
        """The byte budget is one pool: entries that fit it together
        are all kept, whatever their keys hash to."""
        cache = SubResultCache(max_bytes=8 * 128)
        rows = np.ones((1, 128), dtype=np.uint8)
        keys = range(0, 80, 10)
        for i, key in enumerate(keys):
            cache.put(key, rows, 1024, {i})
        assert cache.evictions == 0
        assert len(cache) == 8
        assert cache.bytes_used == 8 * 128
        assert all(cache.peek(key) is not None for key in keys)

    def test_planner_eviction_still_correct(self):
        rt = _runtime()
        # a cache big enough for a single 3-chunk entry: every further
        # insert evicts the previous one
        rt.planner.cache = SubResultCache(max_bytes=4 * GEOM.row_bytes)
        (a, b, c), (ba, bb, bc) = _loaded(rt)
        d = [rt.pim_malloc(N) for _ in range(3)]
        rt.pim_op("or", d[0], [a, b])
        rt.pim_op("or", d[1], [b, c])
        rt.pim_op("xor", d[2], [a, c])
        assert rt.planner.cache.evictions > 0
        assert np.array_equal(rt.pim_read(d[0]), ba | bb)
        assert np.array_equal(rt.pim_read(d[1]), bb | bc)
        assert np.array_equal(rt.pim_read(d[2]), ba ^ bc)


    def test_evicted_entry_rows_are_released(self):
        """Serving an entry must not pin it: once evicted, the entry's
        rows are garbage, so the planner's memory stays inside
        ``plan_cache_bytes``."""
        # a budget of 4 rows: one 3-chunk entry fits, the next insert
        # evicts it
        rt = _runtime(plan_cache_bytes=4 * GEOM.row_bytes)
        (a, b), _ = _loaded(rt, n_vectors=2)
        for _ in range(3):  # execute, then serve twice
            rt.pim_op("or", rt.pim_malloc(N), [a, b])
        cache = rt.planner.cache
        (entry,) = cache._entries.values()
        key, rows = entry.key, weakref.ref(entry.rows)
        del entry
        rng = np.random.default_rng(0)
        for _ in range(400):  # insert until the cache evicts the entry
            if cache.peek(key) is None:
                break
            v, d = rt.pim_malloc(N), rt.pim_malloc(N)
            rt.pim_write(v, rng.integers(0, 2, N, dtype=np.uint8))
            rt.pim_op("or", d, [v, a])
            rt.pim_free(v)
            rt.pim_free(d)
        assert cache.peek(key) is None
        gc.collect()
        assert rows() is None


class TestPlannedVsUnplanned:
    def test_streams_byte_identical_to_unplanned_runtime(self):
        def run(plan):
            system = PinatuboSystem(get_technology("pcm"), GEOM)
            rt = PimRuntime(system, plan=plan)
            (a, b, c), _ = _loaded(rt)
            dests = [rt.pim_malloc(N) for _ in range(6)]
            rt.pim_op_many(
                [
                    ("or", dests[0], [a, b]),
                    ("or", dests[1], [b, a]),
                    ("and", dests[2], [a, c]),
                    ("xor", dests[3], [a, b, c]),
                    ("and", dests[4], [dests[0], c]),
                    ("inv", dests[5], [dests[2]]),
                ]
            )
            return [rt.pim_read(dst) for dst in dests]

        for got, want in zip(run(True), run(False)):
            assert np.array_equal(got, want)
