"""Tests for the program compiler: compiled vs interpreted parity.

The compiled path is an *execution strategy*, never a semantic or
pricing change: every test here runs the same request stream through
``PimRuntime(plan=True)`` (compiler on, the default) and
``PimRuntime(plan=True, compile=False)`` (interpreted planner) and
asserts byte-identical bitvector outputs plus simulated latency/energy
agreement to 1e-9 relative.  Exec waves take the driver flush in both
arms, so their driver tallies must match exactly.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.apps.fastbit import FastBitDB, RangeQuery
from repro.apps.fastbit_pim import PimFastBit
from repro.apps.star import ColumnSpec, synthetic_star_table
from repro.arith.compile import NOT_STEADY
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.plan.cache import ProgramCache
from repro.plan.compile import UNCOMPILABLE
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

RTOL = 1e-9


def _runtime(compile_: bool = True, repair: bool = True) -> PimRuntime:
    """A planned runtime; ``repair=False`` overrides the marking hook so
    host writes take the eager-invalidation path."""
    system = PinatuboSystem(get_technology("pcm"), GEOM)
    rt = PimRuntime(system, plan=True, compile=compile_)
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


#: the driver's always-live counters, read as deltas around a run
_DRIVER_COUNTERS = tuple(
    telemetry.counter(f"runtime.driver.{name}")
    for name in ("requests", "flushes", "mode_switches", "host_fallbacks")
)
_DRIVER_FIELDS = ("requests", "instructions", "mode_switches", "host_fallbacks")


def _counters():
    return tuple(c.value for c in _DRIVER_COUNTERS)


def _driver_tally(rt, before):
    """The runtime's ``DriverStats`` fields and the ``runtime.driver.*``
    counter deltas since ``before`` (a :func:`_counters` snapshot)."""
    stats = rt.driver.stats
    return (
        tuple(getattr(stats, f) for f in _DRIVER_FIELDS),
        tuple(now - then for now, then in zip(_counters(), before)),
    )


def _wave_tally(stats):
    """The planner tallies both compile arms must agree on."""
    return (stats.cache_hits, stats.cse_hits, stats.waves,
            stats.hazard_flushes)


def _rel_close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def _random_batches(rng, n_handles, n_batches=6, batch_size=4):
    """Seeded random op batches over handle *indices* (dests appended)."""
    ops = ("or", "and", "xor")
    batches = []
    for _ in range(n_batches):
        batch = []
        for _ in range(batch_size):
            op = ops[int(rng.integers(0, len(ops)))]
            n_src = int(rng.integers(2, 4))
            srcs = rng.choice(n_handles, size=n_src, replace=False)
            batch.append((op, [int(s) for s in srcs]))
        batches.append(batch)
    return batches


def _play(rt, batches, passes=3, seed=11):
    """Run the batches ``passes`` times; returns (out bits, results).

    Each pass rewrites every operand with fresh random contents: the
    writes invalidate the sub-result cache, so every pass re-executes
    the recurring wave *shapes* through the driver flush.
    """
    rng = np.random.default_rng(seed)
    handles, _ = _loaded(rt, n_vectors=6, seed=seed)
    outs, results = [], []
    for _ in range(passes):
        for h in handles:
            rt.pim_write(h, rng.integers(0, 2, N, dtype=np.uint8))
        for batch in batches:
            dests = [rt.pim_malloc(N) for _ in batch]
            reqs = [
                (op, dest, [handles[i] for i in srcs])
                for (op, srcs), dest in zip(batch, dests)
            ]
            results.extend(rt.pim_op_many(reqs))
            outs.extend(rt.pim_read(d) for d in dests)
    return outs, results


class TestCompiledVsInterpretedOps:
    """Raw randomized op streams through both planner paths."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_streams_byte_identical(self, seed):
        rng = np.random.default_rng(seed)
        batches = _random_batches(rng, n_handles=6)

        # repair=False pins the write=>invalidate semantics this test
        # asserts (every pass re-executes); the repair path has its own
        # differential suite in test_repair
        before = _counters()
        rt_c = _runtime(compile_=True, repair=False)
        outs_c, res_c = _play(rt_c, batches)
        tally_c = _driver_tally(rt_c, before)
        before = _counters()
        rt_i = _runtime(compile_=False, repair=False)
        outs_i, res_i = _play(rt_i, batches)
        tally_i = _driver_tally(rt_i, before)

        assert len(outs_c) == len(outs_i)
        for bc, bi in zip(outs_c, outs_i):
            assert np.array_equal(bc, bi)
        # per-op simulated pricing identical to float noise
        for rc, ri in zip(res_c, res_i):
            assert rc.steps == ri.steps
            assert _rel_close(rc.latency, ri.latency)
            assert _rel_close(rc.energy, ri.energy)
        # aggregate ExecutionStats agree too
        assert _rel_close(
            rt_c.pim_accounting.latency, rt_i.pim_accounting.latency
        )
        assert _rel_close(
            rt_c.pim_accounting.energy, rt_i.pim_accounting.energy
        )
        # both arms flushed the same requests, instructions, mode
        # switches and host fallbacks through the driver
        assert tally_c == tally_i
        assert tally_c[1][1] >= 1  # at least one flush
        assert rt_i.plan_stats.compilations == 0

    def test_served_destination_read_by_later_exec_request(self):
        """The analytics shape compare -> AND -> INV: a cache-served
        destination is read by a later exec-bound request of the same
        ``pim_op_many``.  The compiled planner must order that serve
        inside the wave exactly as the interpreter does -- same serves,
        waves and hazard flushes, same mode switches, same per-request
        cost."""

        def run(compile_):
            rt = _runtime(compile_=compile_)
            (a, b, c), _ = _loaded(rt)
            rng = np.random.default_rng(3)
            results = []
            for _ in range(5):
                v = rt.pim_malloc(N)  # fresh operand: never cached
                rt.pim_write(v, rng.integers(0, 2, N, dtype=np.uint8))
                e1, d1, d2, e3, d3 = (rt.pim_malloc(N) for _ in range(5))
                results.extend(rt.pim_op_many([
                    ("xor", e1, [v, c]),
                    ("or", d1, [a, b]),  # cache-served from pass two on
                    ("and", d2, [d1, v]),  # reads the served destination
                    ("xor", e3, [v, b]),
                    ("inv", d3, [d2]),
                ]))
            return rt, results

        rt_c, res_c = run(True)
        rt_i, res_i = run(False)
        assert _wave_tally(rt_c.plan_stats) == _wave_tally(rt_i.plan_stats)
        assert rt_c.driver.stats.mode_switches == rt_i.driver.stats.mode_switches
        for rc, ri in zip(res_c, res_i):
            assert _rel_close(rc.latency, ri.latency)
            assert _rel_close(rc.energy, ri.energy)

    def test_cached_chain_resolves_via_wave_bindings(self):
        """A recurring all-cached chain (each request reads the previous
        one's destination) is served whole: the wave's pending bindings
        give each reader its producer's expression key, so every link
        hits the cache, and the chain matches numpy bits and the
        interpreter's tallies and cost."""

        def run(compile_):
            rt = _runtime(compile_=compile_)
            (a, b, c), (ba, bb, bc) = _loaded(rt)
            want = [ba | bb, (ba | bb) & bc, ((ba | bb) & bc) ^ ba, bb | bc]
            results = []
            for _ in range(4):
                d1, d2, d3, d4 = (rt.pim_malloc(N) for _ in range(4))
                results.extend(rt.pim_op_many([
                    ("or", d1, [a, b]),
                    ("and", d2, [d1, c]),
                    ("xor", d3, [d2, a]),
                    ("or", d4, [b, c]),
                ]))
                for d, bits in zip((d1, d2, d3, d4), want):
                    assert np.array_equal(rt.pim_read(d), bits)
            return rt.plan_stats, results

        stats_c, res_c = run(True)
        stats_i, res_i = run(False)
        # pass one executes, passes two to four serve all four requests
        # -- a chain link resolved without the wave would miss
        assert stats_c.cache_hits == stats_i.cache_hits == 12
        assert _wave_tally(stats_c) == _wave_tally(stats_i)
        for rc, ri in zip(res_c, res_i):
            assert _rel_close(rc.latency, ri.latency)
            assert _rel_close(rc.energy, ri.energy)

    def test_aliased_request_skips_cached_expression(self):
        """``or a <- [a, b]`` while ``or(a, b)`` is cached: aliasing is
        checked before any lookup, so the request executes through the
        driver instead of being served, tallies no cache hit or miss,
        and is never inserted (its key embeds pre-write versions)."""

        def run(compile_):
            rt = _runtime(compile_=compile_)
            (a, b, _), (ba, bb, _) = _loaded(rt)
            rt.pim_op("or", rt.pim_malloc(N), [a, b])  # caches or(a, b)
            stats, cache = rt.plan_stats, rt.planner.cache
            assert len(cache) == 1

            def tallies():
                return (stats.cache_hits, stats.cache_misses, stats.cse_hits,
                        cache.hits, cache.misses)

            before = tallies()
            requests = rt.driver.stats.requests
            result = rt.pim_op("or", a, [a, b])
            assert rt.driver.stats.requests == requests + 1  # executed
            assert tallies() == before
            # the write to a dropped or(a, b); nothing took its place
            assert len(cache) == 0
            assert np.array_equal(rt.pim_read(a), ba | bb)
            return result, rt.pim_accounting

        res_c, acct_c = run(True)
        res_i, acct_i = run(False)
        assert res_c.steps == res_i.steps > 0
        assert _rel_close(res_c.latency, res_i.latency)
        assert _rel_close(res_c.energy, res_i.energy)
        assert _rel_close(acct_c.latency, acct_i.latency)
        assert _rel_close(acct_c.energy, acct_i.energy)

    def test_to_host_parity(self):
        rt_c = _runtime(compile_=True)
        rt_i = _runtime(compile_=False)
        for rt in (rt_c, rt_i):
            (a, b, c), bits = _loaded(rt)
            scratch = rt.pim_malloc(N)
            outs = [
                rt.pim_op_to_host("and", scratch, [a, b]) for _ in range(3)
            ]
            expected = bits[0] & bits[1]
            for out in outs:
                assert np.array_equal(out, expected)
        assert _rel_close(
            rt_c.pim_accounting.latency, rt_i.pim_accounting.latency
        )
        assert _rel_close(
            rt_c.pim_accounting.energy, rt_i.pim_accounting.energy
        )

    def test_to_host_and_popcount_share_one_program(self):
        """Both bus verbs over one shape compile once and match the
        interpreted runtime and numpy -- including an INV that sets the
        padding bits past ``n_bits`` in the last row."""
        n_bits = N - 13  # ends mid-byte inside the last row
        trace = {}
        for compile_ in (True, False):
            rt = _runtime(compile_=compile_)
            (a, b, _c), bits = _loaded(rt)
            scratch = rt.pim_malloc(N)
            costs = []
            for op, srcs, want in (
                ("and", [a, b], bits[0] & bits[1]),
                ("inv", [a], 1 - bits[0]),
            ):
                want = want[:n_bits]
                # the first call leaves the mode register at ``op``, so
                # every later call enters with the same shape key
                rt.pim_op_to_host(op, scratch, srcs, n_bits=n_bits)
                before = rt.plan_stats.compilations
                for _ in range(3):
                    out = rt.pim_op_to_host(op, scratch, srcs, n_bits=n_bits)
                    assert np.array_equal(out, want)
                    costs.append(rt.pim_accounting.latency)
                    count = rt.pim_popcount(op, scratch, srcs, n_bits=n_bits)
                    assert count == int(want.sum())
                    costs.append(rt.pim_accounting.latency)
                compiled = rt.plan_stats.compilations - before
                assert compiled == (1 if compile_ else 0)
            costs.append(rt.pim_accounting.energy)
            trace[compile_] = costs
        assert len(trace[True]) == len(trace[False])
        for c, i in zip(trace[True], trace[False]):
            assert _rel_close(c, i)


#: small FastBit schema for the end-to-end differential
COLUMNS = (
    ColumnSpec("energy", 16, "exponential"),
    ColumnSpec("charge", 8, "normal"),
)

FB_GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=8,
    rows_per_subarray=64,
    mats_per_subarray=1,
    cols_per_mat=2048,
    mux_ratio=8,
)

N_EVENTS = 2048


def _fastbit_stream(seed, n_unique=6, repeats=3):
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(n_unique):
        predicates = []
        for spec in COLUMNS:
            lo = int(rng.integers(0, spec.n_bins - 2))
            hi = int(rng.integers(lo + 1, spec.n_bins))
            predicates.append((spec.name, lo, hi))
        pool.append(RangeQuery(tuple(predicates)))
    stream = []
    for _ in range(repeats):
        order = rng.permutation(n_unique)
        stream.extend(pool[i] for i in order)
    return stream


class TestCompiledVsInterpretedFastBit:
    """The satellite differential: seeded randomized FastBit streams
    through both paths, byte-identical answers, 1e-9 pricing parity."""

    @pytest.mark.parametrize("seed", [7, 19])
    def test_fastbit_stream_differential(self, seed):
        table = synthetic_star_table(N_EVENTS, columns=COLUMNS, seed=seed)
        stream = _fastbit_stream(seed)
        oracle = FastBitDB(table, functional=False)

        def build(compile_):
            system = PinatuboSystem(get_technology("pcm"), FB_GEOM)
            rt = PimRuntime(system, plan=True, compile=compile_)
            return PimFastBit(rt, table)

        db_c = build(True)
        db_i = build(False)
        # three passes: execute, then serve from the sub-result cache
        for _ in range(3):
            res_c = db_c.query_many(list(stream))
            res_i = db_i.query_many(list(stream))
        for rc, ri, query in zip(res_c, res_i, stream):
            assert rc.hits == ri.hits == oracle.query_oracle(query)
            assert rc.in_memory_steps == ri.in_memory_steps
            assert _rel_close(rc.latency, ri.latency)
            assert _rel_close(rc.energy, ri.energy)
        assert _rel_close(
            sum(r.latency for r in res_c), sum(r.latency for r in res_i)
        )
        assert _rel_close(
            sum(r.energy for r in res_c), sum(r.energy for r in res_i)
        )
        # steady state must actually run compiled, and both arms must
        # plan the same serves, waves and hazard flushes
        stats = db_c.runtime.plan_stats
        assert stats.compilations >= 1
        assert _wave_tally(stats) == _wave_tally(db_i.runtime.plan_stats)


class TestRecompilationAfterWrite:
    def test_write_invalidation_reexecutes_compiled(self):
        """A write to an operand row drops the stale sub-results; the
        compiled path re-executes through the same driver flushes as the
        interpreter and matches the numpy oracle.  ``repair=False``:
        this asserts the eager-invalidation path."""

        def run(compile_):
            before = _counters()
            rt = _runtime(compile_=compile_, repair=False)
            (a, b, c), (ba, bb, bc) = _loaded(rt)
            results = []

            def issue():
                d1, d2 = rt.pim_malloc(N), rt.pim_malloc(N)
                results.extend(
                    rt.pim_op_many([("or", d1, [a, b]), ("and", d2, [b, c])])
                )
                return rt.pim_read(d1), rt.pim_read(d2)

            issue()  # executes, fills the sub-result cache
            issue()  # serves
            issue()
            programs = len(rt.planner.programs)

            rng = np.random.default_rng(17)
            for _ in range(3):
                new_b = rng.integers(0, 2, N, dtype=np.uint8)
                rt.pim_write(b, new_b)  # invalidates both cached sub-results
                r1, r2 = issue()  # must re-execute against the new contents
                assert np.array_equal(r1, ba | new_b)
                assert np.array_equal(r2, new_b & bc)
                r1, r2 = issue()  # repopulated cache serves again
                assert np.array_equal(r1, ba | new_b)
                assert np.array_equal(r2, new_b & bc)
            # no unbounded program growth across invalidation cycles
            assert len(rt.planner.programs) <= programs + 2
            return (
                results, _driver_tally(rt, before), _wave_tally(rt.plan_stats)
            )

        res_c, tally_c, waves_c = run(True)
        res_i, tally_i, waves_i = run(False)
        # every exec wave took the same driver flush in both arms, and
        # the post-write passes re-executed, then re-served, in both
        assert tally_c == tally_i
        assert waves_c == waves_i
        assert len(res_c) == len(res_i)
        for rc, ri in zip(res_c, res_i):
            assert rc.steps == ri.steps
            assert _rel_close(rc.latency, ri.latency)
            assert _rel_close(rc.energy, ri.energy)

    def test_recompiled_results_reprice_identically(self):
        """Pricing parity must survive a write-invalidation cycle."""

        def run(compile_):
            rt = _runtime(compile_=compile_, repair=False)
            (a, b, _), (ba, bb, _) = _loaded(rt)
            for _ in range(3):
                d = rt.pim_malloc(N)
                rt.pim_op("or", d, [a, b])
            new_a = np.ones(N, dtype=np.uint8)
            rt.pim_write(a, new_a)
            d = rt.pim_malloc(N)
            rt.pim_op("or", d, [a, b])
            return rt.pim_read(d), rt.pim_accounting

        bits_c, acct_c = run(True)
        bits_i, acct_i = run(False)
        assert np.array_equal(bits_c, bits_i)
        assert _rel_close(acct_c.latency, acct_i.latency)
        assert _rel_close(acct_c.energy, acct_i.energy)


class TestEscapeHatch:
    def test_compile_false_never_compiles(self):
        rt = _runtime(compile_=False)
        (a, b, _), (ba, bb, _) = _loaded(rt)
        for _ in range(4):
            d = rt.pim_malloc(N)
            rt.pim_op("or", d, [a, b])
            assert np.array_equal(rt.pim_read(d), ba | bb)
        stats = rt.plan_stats
        assert stats.compilations == 0
        assert stats.program_hits == 0
        assert len(rt.planner.programs) == 0

    def test_compile_on_by_default(self):
        system = PinatuboSystem(get_technology("pcm"), GEOM)
        rt = PimRuntime(system, plan=True)
        assert rt.planner.compile_enabled


class TestProgramCache:
    def test_hit_miss_counters(self):
        cache = ProgramCache(max_entries=4)
        assert cache.get("k") is None
        assert cache.misses == 1
        cache.put("k", NOT_STEADY)
        assert cache.get("k") is NOT_STEADY
        assert cache.hits == 1

    def test_marker_upgrade_reuses_slot(self):
        cache = ProgramCache(max_entries=4)
        cache.put("k", NOT_STEADY)
        cache.put("k", UNCOMPILABLE)
        assert len(cache) == 1
        assert cache.get("k") is UNCOMPILABLE

    def test_lru_eviction_order(self):
        cache = ProgramCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ProgramCache(max_entries=0)

    def test_to_dict_tallies(self):
        cache = ProgramCache(max_entries=8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.to_dict() == {
            "entries": 1,
            "max_entries": 8,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
        }
