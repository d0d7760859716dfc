"""AnalyticsCompiler: shape-keyed whole-query programs, record-and-replay.

The contract under test: a repeated query *shape* compiles into one
program with the comparison constants as runtime parameters; the third
and later steady sightings of a ``(constants, entry mode)`` pair replay
with answers, bits and simulated pricing identical to interpretation;
writes, frees and cache evictions all invalidate honestly.
"""

import numpy as np
import pytest

from repro.apps.analytics import AnalyticsTable, analytics_oracle
import repro.arith.compile as analytics_compile
from repro.arith.compile import NOT_STEADY, analytics_program_key
from repro.runtime.api import PimRuntime

N = 320


def loaded_table(plan=True, compile_=True, analytics=True, seed=3):
    rt = PimRuntime.pcm(plan=plan, compile=compile_)
    rng = np.random.default_rng(seed)
    table = AnalyticsTable(rt, N)
    if not analytics:
        table.compiler.enabled = False
    data = {
        "age": rng.integers(0, 64, N).astype(np.int64),
        "income": rng.integers(0, 128, N).astype(np.int64),
        "region": rng.integers(0, 6, N).astype(np.int64),
    }
    table.load_column("age", data["age"], 6)
    table.load_column("income", data["income"], 7)
    table.load_index("region", data["region"], 6)
    return table, data


class TestProgramKey:
    def test_constants_are_parameters_not_shape(self):
        k1, c1 = analytics_program_key(
            [("cmp", "age", "lt", 30)], ("count",)
        )
        k2, c2 = analytics_program_key(
            [("cmp", "age", "lt", 55)], ("count",)
        )
        assert k1 == k2
        assert c1 == (30,) and c2 == (55,)

    def test_everything_else_is_shape(self):
        base, _ = analytics_program_key([("cmp", "age", "lt", 30)], ("count",))
        for filters, aggregate in [
            ([("cmp", "age", "le", 30)], ("count",)),  # op
            ([("cmp", "income", "lt", 30)], ("count",)),  # column
            ([("cmp", "age", "lt", 30)], ("sum", "income")),  # aggregate
            ([("range", "region", 1, 3)], ("count",)),  # predicate kind
        ]:
            other, _ = analytics_program_key(filters, aggregate)
            assert other != base

    def test_service_five_tuple_keeps_value_bits_in_shape(self):
        k1, c1 = analytics_program_key(
            [("cmp", "age", "lt", 30, 6)], ("count",)
        )
        k2, _ = analytics_program_key([("cmp", "age", "lt", 30, 8)], ("count",))
        assert c1 == (30,)
        assert k1 != k2

    def test_range_bounds_stay_in_shape(self):
        k1, c1 = analytics_program_key([("range", "region", 1, 3)], ("count",))
        k2, _ = analytics_program_key([("range", "region", 1, 4)], ("count",))
        assert c1 == ()
        assert k1 != k2

    def test_scope_separates_tenants(self):
        spec = ([("cmp", "age", "lt", 30, 6)], ("count",))
        ka, _ = analytics_program_key(*spec, scope="a")
        kb, _ = analytics_program_key(*spec, scope="b")
        assert ka != kb


class TestReplay:
    def test_third_sighting_replays_with_identical_answer_and_pricing(self):
        table, data = loaded_table()
        spec = lambda: table.filter(
            ("cmp", "age", "lt", 30), ("range", "region", 1, 3)
        ).sum("income")
        results = [spec() for _ in range(6)]
        stats = table.compiler.stats
        assert stats.programs == 1
        assert stats.replays >= 1
        # every replayed run must match the last interpreted run exactly
        baseline = results[stats.fallbacks - 1]
        for r in results[stats.fallbacks:]:
            assert r.popcount == baseline.popcount
            assert r.value == baseline.value
            assert r.groups == baseline.groups
            assert r.latency_s == pytest.approx(baseline.latency_s, rel=1e-12)
            assert r.energy_j == pytest.approx(baseline.energy_j, rel=1e-12)
        table.verify()

    def test_new_constant_shares_the_program(self):
        table, _ = loaded_table()
        for _ in range(4):
            table.filter(("cmp", "age", "lt", 30)).count()
        assert table.compiler.stats.replays >= 1
        replays_before = table.compiler.stats.replays
        for _ in range(4):
            table.filter(("cmp", "age", "lt", 55)).count()
        stats = table.compiler.stats
        assert stats.programs == 1  # same shape, zero replanning
        assert stats.replays > replays_before  # new constant replays too
        table.verify()

    def test_replay_advances_runtime_accounting(self):
        table, _ = loaded_table()
        rt = table.runtime
        for _ in range(4):
            table.filter(("cmp", "age", "ge", 10)).count()
        assert table.compiler.stats.replays >= 1
        lat0, en0 = rt.total_latency(), rt.total_energy()
        r = table.filter(("cmp", "age", "ge", 10)).count()
        assert rt.total_latency() - lat0 == pytest.approx(
            r.latency_s, rel=1e-12
        )
        assert rt.total_energy() - en0 == pytest.approx(r.energy_j, rel=1e-12)

    def test_disabled_without_planner(self):
        table, _ = loaded_table(plan=False)
        assert not table.compiler.enabled
        for _ in range(4):
            table.filter(("cmp", "age", "lt", 30)).count()
        assert table.compiler.stats.replays == 0
        table.verify()

    def test_disabled_without_wave_compiler(self):
        table, _ = loaded_table(compile_=False)
        assert not table.compiler.enabled

    def test_escape_hatch_flag(self):
        table, _ = loaded_table(analytics=False)
        assert not table.compiler.enabled
        for _ in range(4):
            table.filter(("cmp", "age", "lt", 30)).count()
        assert table.compiler.stats.replays == 0
        table.verify()


class TestFallbackCauses:
    """Every interpreted call records one cause; the causes sum to the
    fallbacks, in the stats and in the telemetry counters."""

    def _causes(self, table):
        stats = table.compiler.stats
        assert sum(stats.fallback_causes.values()) == stats.fallbacks
        assert stats.to_dict()["fallback_causes"] == stats.fallback_causes
        return dict(stats.fallback_causes)

    def test_each_cause_counts_once(self):
        from repro import telemetry
        from repro.arith.compile import FALLBACK_CAUSES

        counters = {
            c: telemetry.counter(f"plan.analytics.fallback.{c}") for c in FALLBACK_CAUSES
        }
        before = {c: counter.value for c, counter in counters.items()}
        table, data = loaded_table()
        stats = table.compiler.stats

        def outcome(k):
            causes, replays = self._causes(table), stats.replays
            table.filter(("cmp", "age", "ge", k)).count()
            moved = [c for c, n in self._causes(table).items() if n != causes[c]]
            return "replay" if stats.replays > replays else "+".join(moved)

        # the first call's entry mode is the power-on one; every later
        # call enters in the mode the query leaves behind
        assert [outcome(10) for _ in range(4)] == [
            "new_shape", "entry_mode", "not_steady", "replay"
        ]
        assert [outcome(40) for _ in range(3)] == [
            "new_constants", "not_steady", "replay"
        ]
        plane = table._slices["age"].planes[0]
        table.runtime.pim_write(plane, np.zeros(N, dtype=np.uint8))
        table._host["age"] = data["age"] & ~1
        assert outcome(40) == "invalidated"
        causes = self._causes(table)
        assert all(causes.values())
        for c, counter in counters.items():
            assert counter.value - before[c] == causes[c], c
        table.verify()


class TestInvalidation:
    def test_write_to_a_leaf_drops_records_and_rerecords(self):
        table, data = loaded_table()
        rng = np.random.default_rng(11)
        for _ in range(4):
            table.filter(("cmp", "age", "ge", 10)).count()
        assert table.compiler.stats.replays >= 1

        # overwrite bit plane 0 of "age" (and keep the host shadow true)
        newbits = rng.integers(0, 2, N).astype(np.uint8)
        table.runtime.pim_write(table._slices["age"].planes[0], newbits)
        age2 = (data["age"] & ~1) | newbits.astype(np.int64)
        table._host["age"] = age2

        r = table.filter(("cmp", "age", "ge", 10)).count()
        assert r.popcount == int((age2 >= 10).sum())
        assert table.compiler.stats.invalidations >= 1
        # re-steadies: later repeats replay the *new* answer
        for _ in range(3):
            r2 = table.filter(("cmp", "age", "ge", 10)).count()
        assert r2.popcount == r.popcount
        table.verify()

    def test_free_and_reload_never_replays_stale_record(self):
        table, data = loaded_table()
        spec = ("cmp", "age", "lt", 30)
        for _ in range(4):
            table.filter(spec).count()
        assert table.compiler.stats.replays >= 1
        table.verify()
        old_leaves = set(table.compiler.programs.get(
            analytics_program_key([spec], ("count",))[0]
        ).stamp.farr.tolist())

        table.free()
        # the freed table's history checks against its old shadows
        table.executed.clear()
        age2 = np.random.default_rng(20).integers(0, 64, N).astype(np.int64)
        assert (age2 < 30).sum() != (data["age"] < 30).sum()
        table.load_column("age", age2, 6)
        new_frames = {
            f for plane in table._slices["age"].planes for f in plane.frames
        }
        # the reload lands on recycled rows, none of them the old planes
        assert new_frames <= set(range(max(old_leaves) + 1))

        replays = table.compiler.stats.replays
        r = table.filter(spec).count()
        assert table.compiler.stats.replays == replays
        assert r.popcount == int((age2 < 30).sum())
        for _ in range(3):
            r = table.filter(spec).count()
        assert table.compiler.stats.replays > replays  # re-recorded
        assert r.popcount == int((age2 < 30).sum())
        table.verify()

    def test_new_record_does_not_revalidate_stale_records(self):
        """After a leaf write, recording one constant must not re-bless
        another constant's pre-write record."""
        table, data = loaded_table()
        for _ in range(4):
            table.filter(("cmp", "age", "lt", 30)).count()
        assert table.compiler.stats.replays >= 1
        newbits = np.random.default_rng(5).integers(0, 2, N).astype(np.uint8)
        table.runtime.pim_write(table._slices["age"].planes[5], newbits)
        age2 = (data["age"] & ~32) | (newbits.astype(np.int64) << 5)
        table._host["age"] = age2
        table.executed.clear()  # pre-write answers checked the old shadow
        assert (age2 < 30).sum() != (data["age"] < 30).sum()
        for _ in range(4):
            table.filter(("cmp", "age", "lt", 55)).count()
        r = table.filter(("cmp", "age", "lt", 30)).count()
        assert r.popcount == int((age2 < 30).sum())
        table.verify()


class TestRecordLru:
    def test_sightings_evict_oldest_first_and_newest_records(
        self, monkeypatch
    ):
        """Sightings share the records' LRU: past the cap the oldest
        one goes, never an arbitrary one or the one just added."""
        monkeypatch.setattr(analytics_compile, "_MAX_RECORDS", 2)
        table, data = loaded_table()
        for k in (10, 20, 30):
            table.filter(("cmp", "age", "lt", k)).count()
        program = table.compiler.programs.get(
            analytics_program_key([("cmp", "age", "lt", 0)], ("count",))[0]
        )
        records = program.records
        assert [c for c, _mode in records] == [(20,), (30,)]
        assert all(v is NOT_STEADY for v in records.values())

        stats = table.compiler.stats
        for _ in range(3):  # the next sighting that runs steady records
            table.filter(("cmp", "age", "lt", 30)).count()
            if stats.compiles:
                break
        assert stats.compiles == 1
        assert [c for (c, _m), v in records.items() if v is not NOT_STEADY] == [
            (30,)
        ]
        replays = stats.replays
        r = table.filter(("cmp", "age", "lt", 30)).count()
        assert stats.replays == replays + 1
        assert r.popcount == int((data["age"] < 30).sum())
        table.verify()


class TestDifferentialSweep:
    """Randomized constants/ops/value_bits: compiled vs interpreted vs
    the numpy oracle, with simulated-pricing parity on every query."""

    def test_sweep(self):
        rng = np.random.default_rng(2026)
        table_c, data = loaded_table(analytics=True, seed=8)
        table_i, _ = loaded_table(analytics=False, seed=8)

        specs = []
        for _ in range(10):
            op = str(rng.choice(["lt", "le", "gt", "ge", "eq"]))
            k = int(rng.integers(0, 64))
            filters = [("cmp", "age", op, k)]
            if rng.integers(0, 2):
                lo = int(rng.integers(0, 5))
                hi = int(rng.integers(lo, 6))
                filters.append(("range", "region", lo, hi))
            aggregate = [("count",), ("sum", "income"), ("hist", "region")][
                int(rng.integers(0, 3))
            ]
            specs.append((tuple(filters), aggregate))

        # four passes: fill, record (plus entry-mode stragglers), replay
        # -- the interpreted twin runs the same stream so steady-state
        # pricing is comparable pointwise
        for _ in range(4):
            for filters, aggregate in specs:
                rc = table_c.filter(*filters).aggregate(aggregate)
                ri = table_i.filter(*filters).aggregate(aggregate)
                assert rc.popcount == ri.popcount
                assert rc.value == ri.value
                assert rc.groups == ri.groups
                assert rc.latency_s == pytest.approx(ri.latency_s, rel=1e-9)
                assert rc.energy_j == pytest.approx(ri.energy_j, rel=1e-9)
                mask, value, groups = analytics_oracle(
                    data, filters, aggregate
                )
                assert rc.popcount == int(mask.sum())
                assert rc.value == value
                assert rc.groups == groups
        assert table_c.compiler.stats.replays >= len(specs)
        table_c.verify()
        table_i.verify()


class TestCseHitsPinning:
    """Why ``cse_hits: 0`` in BENCH_arith.json is canonical.

    The planner's ``cse_hits`` counts duplicate requests *within one
    wave* only (cross-query reuse is the sub-result cache's job, tallied
    as ``cache_hits``).  Benchmark queries have no duplicate
    sub-expressions inside a single query, so the counter stays 0 by
    construction -- not because fusion broke CSE.  Both directions are
    pinned here: a query with two identical predicates (one fused wave
    since the whole predicate set is emitted together) does fold, and a
    benchmark-shaped query does not.
    """

    def test_duplicate_predicates_in_one_query_fold(self):
        table, data = loaded_table(analytics=False)
        planner = table.runtime.planner
        before = planner.stats.cse_hits
        dup = ("cmp", "age", "lt", 30)
        r = table.filter(dup, dup).count()
        assert planner.stats.cse_hits > before
        assert r.popcount == int((data["age"] < 30).sum())
        table.verify()

    def test_benchmark_shaped_queries_never_fold(self):
        table, _ = loaded_table(analytics=False)
        planner = table.runtime.planner
        table.filter(("cmp", "age", "lt", 30)).count()
        table.filter(
            ("cmp", "age", "ge", 18), ("range", "region", 1, 3)
        ).sum("income")
        table.filter(("cmp", "income", "gt", 60)).histogram("region")
        # repeats reuse via the sub-result cache, never via wave CSE
        table.filter(("cmp", "age", "lt", 30)).count()
        assert planner.stats.cse_hits == 0
        assert planner.stats.cache_hits > 0
