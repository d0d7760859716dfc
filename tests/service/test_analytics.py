"""The ``analyze`` service verb: filter+aggregate through the full stack.

Requests flow exactly like reads -- admission, coalesced batches, shard
pricing -- while the engine runs the :mod:`repro.arith` kernel sequence
on the tenant's resident planes.  Results must match the host oracle
exactly and replay byte-identically.
"""

import json

import numpy as np
import pytest

from repro.service import (
    AnalyticsRequest,
    BitmapQueryService,
    ServiceClient,
    bitslice_vector_name,
    oracle_analytics,
)

N = 1024


def dataset(seed=42):
    rng = np.random.default_rng(seed)
    return {
        "age": rng.integers(0, 64, N).astype(np.int64),
        "income": rng.integers(0, 256, N).astype(np.int64),
        "region": rng.integers(0, 8, N).astype(np.int64),
    }


def loaded_client(data=None):
    data = data or dataset()
    svc = BitmapQueryService()
    client = ServiceClient(svc)
    client.register_tenant("t")
    client.load_bitslice_column("t", "age", data["age"], 6)
    client.load_bitslice_column("t", "income", data["income"], 8)
    client.load_bitmap_index("t", "region", data["region"], 8)
    return svc, client


class TestAnalyzeVerb:
    def test_count(self):
        data = dataset()
        svc, client = loaded_client(data)
        handle = client.analyze("t", [("cmp", "age", "lt", 30, 6)], ("count",))
        client.run()
        want = data["age"] < 30
        assert handle.result().popcount == int(want.sum())
        assert handle.result().value == float(want.sum())
        assert handle.result().groups is None

    def test_conjunction_sum(self):
        data = dataset()
        svc, client = loaded_client(data)
        handle = client.analyze(
            "t",
            [("cmp", "age", "ge", 30, 6), ("range", "region", 2, 5)],
            ("sum", "income", 8),
        )
        client.run()
        want = (data["age"] >= 30) & (data["region"] >= 2) & (data["region"] <= 5)
        assert handle.result().popcount == int(want.sum())
        assert handle.result().value == float(data["income"][want].sum())

    def test_histogram(self):
        data = dataset()
        svc, client = loaded_client(data)
        handle = client.analyze(
            "t", [("cmp", "income", "gt", 100, 8)], ("hist", "region", 8)
        )
        client.run()
        want = data["income"] > 100
        assert handle.result().groups == tuple(
            int(x) for x in np.bincount(data["region"][want], minlength=8)
        )

    def test_priced_on_the_simulated_timeline(self):
        svc, client = loaded_client()
        handle = client.analyze("t", [("cmp", "age", "lt", 30, 6)], ("count",))
        client.run()
        assert handle.result().latency_s > 0
        assert handle.result().energy_j > 0

    def test_verify_results_covers_analytics(self):
        svc, client = loaded_client()
        client.analyze("t", [("cmp", "age", "lt", 30, 6)], ("count",))
        client.analyze("t", [("range", "region", 1, 4)], ("sum", "income", 8))
        client.analyze("t", [("cmp", "age", "ge", 10, 6)], ("hist", "region", 8))
        client.run()
        assert svc.verify_results() == 3

    def test_mixed_batch_with_plain_reads(self):
        data = dataset()
        svc, client = loaded_client(data)
        rng = np.random.default_rng(1)
        client.load_vectors(
            "t",
            {
                "x": rng.integers(0, 2, N, dtype=np.uint8),
                "y": rng.integers(0, 2, N, dtype=np.uint8),
            },
        )
        hq = client.query("t", "and", ("x", "y"))
        ha = client.analyze("t", [("cmp", "age", "le", 10, 6)], ("count",))
        hq2 = client.query("t", "or", ("x", "y"))
        client.run()
        assert ha.result().popcount == int((data["age"] <= 10).sum())
        assert hq.completed and hq2.completed
        assert svc.verify_results() == 3

    def test_repeat_runs_byte_identical(self):
        def run_once():
            svc, client = loaded_client()
            handles = [
                client.analyze("t", [("cmp", "age", "lt", 30, 6)], ("count",)),
                client.analyze(
                    "t",
                    [("cmp", "age", "ge", 30, 6), ("range", "region", 2, 5)],
                    ("sum", "income", 8),
                ),
                client.analyze(
                    "t", [("cmp", "income", "gt", 100, 8)], ("hist", "region", 8)
                ),
            ]
            client.run()
            return json.dumps(
                [h.result().to_dict() for h in handles], sort_keys=True
            )

        assert run_once() == run_once()


class TestValidation:
    def test_unknown_column_rejected_at_submit(self):
        svc, client = loaded_client()
        with pytest.raises(KeyError, match="has no vector"):
            client.analyze("t", [("cmp", "nope", "lt", 3, 4)], ("count",))

    def test_malformed_requests(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            AnalyticsRequest(0, "t", (("cmp", "age", "between", 3, 4),), ("count",), 0.0)
        with pytest.raises(ValueError, match="cmp predicate"):
            AnalyticsRequest(0, "t", (("cmp", "age", "lt", 3),), ("count",), 0.0)
        with pytest.raises(ValueError, match="empty bin range"):
            AnalyticsRequest(0, "t", (("range", "col", 4, 2),), ("count",), 0.0)
        with pytest.raises(ValueError, match="unknown aggregate"):
            AnalyticsRequest(0, "t", (("range", "col", 0, 2),), ("median",), 0.0)
        with pytest.raises(ValueError, match="unfiltered count"):
            AnalyticsRequest(0, "t", (), ("count",), 0.0)

    def test_vectors_property_enumerates_planes_and_bins(self):
        request = AnalyticsRequest(
            0,
            "t",
            (("cmp", "age", "lt", 3, 2), ("range", "region", 1, 2)),
            ("sum", "age", 2),
            0.0,
        )
        assert request.op == "analyze"
        assert request.vectors == (
            bitslice_vector_name("age", 0),
            bitslice_vector_name("age", 1),
            "region/bin1",
            "region/bin2",
        )
        assert request.fanin == 4


class TestEngineOracle:
    def test_oracle_analytics_matches_host_numpy(self):
        data = dataset()
        svc, client = loaded_client(data)
        client.run()
        filters = (("cmp", "age", "lt", 30, 6), ("range", "region", 0, 3))
        mask, value, groups = oracle_analytics(
            svc.engine, "t", filters, ("sum", "income", 8)
        )
        want = (data["age"] < 30) & (data["region"] <= 3)
        np.testing.assert_array_equal(mask.astype(bool), want)
        assert value == float(data["income"][want].sum())
        assert groups is None

    def test_host_oracle_engine_serves_analytics(self):
        from repro.backends.config import SystemConfig
        from repro.service.service import ServiceConfig

        data = dataset()
        svc = BitmapQueryService(
            ServiceConfig(system=SystemConfig(backend="sdram"))
        )
        client = ServiceClient(svc)
        client.register_tenant("t")
        client.load_bitslice_column("t", "age", data["age"], 6)
        handle = client.analyze("t", [("cmp", "age", "lt", 30, 6)], ("count",))
        client.run()
        assert handle.result().popcount == int((data["age"] < 30).sum())


class TestAnalyticsPrograms:
    """Whole-query program replay through the engine: steady repeats
    serve from the analytics compiler, batches fuse, and the compiled
    fast path stays byte-identical to interpretation."""

    def _stream(self, client, k, at):
        handles = [
            client.analyze(
                "t", [("cmp", "age", "lt", 30, 6)], ("count",), at=at
            )
            for _ in range(k)
        ]
        client.run()
        return handles

    def test_steady_repeats_replay(self):
        data = dataset()
        svc, client = loaded_client(data)
        want = int((data["age"] < 30).sum())
        for t in range(1, 6):
            (handle,) = self._stream(client, 1, float(t))
            assert handle.result().popcount == want
        stats = svc.engine.analytics_compiler.stats
        assert stats.programs == 1
        assert stats.replays >= 1
        svc.verify_results()

    def test_same_batch_requests_fuse(self):
        data = dataset()
        svc, client = loaded_client(data)
        for t in range(1, 5):
            handles = self._stream(client, 4, float(t))
            want = int((data["age"] < 30).sum())
            for h in handles:
                assert h.result().popcount == want
        stats = svc.engine.analytics_compiler.stats
        # the first three requests interpret (the second sighting is
        # not yet steady); the other 13 replay, each after its own
        # validity check
        assert stats.replays == 13
        svc.verify_results()

    def test_replayed_results_byte_identical_to_interpreted_engine(self):
        from repro.runtime.api import PimRuntime
        from repro.service.engine import build_engine

        data = dataset()

        def run_stack(compile_):
            from repro.service.service import ServiceConfig

            config = ServiceConfig()
            engine = build_engine(
                config.system,
                runtime=PimRuntime.from_config(
                    config.system, plan=True, compile=compile_
                ),
            )
            svc = BitmapQueryService(config=config, engine=engine)
            client = ServiceClient(svc)
            client.register_tenant("t")
            client.load_bitslice_column("t", "age", data["age"], 6)
            client.load_bitmap_index("t", "region", data["region"], 8)
            out = []
            for t in range(1, 6):
                handle = client.analyze(
                    "t",
                    [("cmp", "age", "ge", 30, 6), ("range", "region", 2, 5)],
                    ("count",),
                    at=float(t),
                )
                client.run()
                out.append(handle.result().to_dict())
            return out

        compiled = run_stack(True)
        interpreted = run_stack(False)
        # answers are exact; simulated timing agrees to the 1e-9 parity
        # bound (recorded deltas are reconstructed by float subtraction,
        # so the last few ulps may differ from an in-order sum)
        for a, b in zip(compiled, interpreted):
            for key, got in a.items():
                want = b[key]
                if isinstance(got, float):
                    assert got == pytest.approx(want, rel=1e-9), key
                else:
                    assert got == want, key

    def test_plan_analytics_counters_are_live(self):
        from repro import telemetry

        replays0 = telemetry.counter("plan.analytics.replays").value
        compiles0 = telemetry.counter("plan.analytics.compiles").value
        data = dataset()
        svc, client = loaded_client(data)
        for t in range(1, 6):
            self._stream(client, 2, float(t))
        assert telemetry.counter("plan.analytics.compiles").value > compiles0
        assert telemetry.counter("plan.analytics.replays").value > replays0

    def test_scheduler_counts_analytics_dispatches(self):
        from repro import telemetry

        before = telemetry.counter(
            "service.scheduler.analytics_calls"
        ).value
        data = dataset()
        svc, client = loaded_client(data)
        self._stream(client, 3, 1.0)
        after = telemetry.counter("service.scheduler.analytics_calls").value
        assert after >= before + 3

    def test_small_cache_engine_prices_like_interpreted_engine(self):
        """Mixed analyze/OR batches on a small plan cache, analytics
        compiler off: every call of the compiled engine costs what the
        ``compile=False`` engine charges, with equal planner tallies --
        cache serves keep the interpreter's wave order."""
        from repro.runtime.api import PimRuntime
        from repro.service.engine import ResidentPimEngine, ServiceCall
        from repro.service.request import bin_vector_name
        from repro.service.service import ServiceConfig

        config = ServiceConfig().system
        data = dataset()
        age = tuple(bitslice_vector_name("age", j) for j in range(6))
        region = tuple(bin_vector_name("region", b) for b in range(8))

        def engine(compile_):
            eng = ResidentPimEngine(config, runtime=PimRuntime.from_config(
                config, plan=True, plan_cache_bytes=1 << 20, compile=compile_,
            ))
            eng.analytics_compiler.enabled = False
            for j, name in enumerate(age):
                eng.load_vector("t", name, (data["age"] >> j & 1).astype(np.uint8))
            for b, name in enumerate(region):
                eng.load_vector("t", name, (data["region"] == b).astype(np.uint8))
            return eng

        def batch(rng):
            calls = []
            for _ in range(6):
                lo = int(rng.integers(0, 4))
                if rng.random() < 0.5:
                    filters = (("cmp", "age", "ge", int(rng.integers(1, 63)), 6),
                               ("range", "region", lo, lo + 2))
                    calls.append(ServiceCall(
                        "t", "and", age + region, analytics=(filters, ("count",))
                    ))
                else:
                    calls.append(ServiceCall("t", "or", region[lo:lo + 2]))
            return calls

        compiled, interpreted = engine(True), engine(False)
        rng = np.random.default_rng(1)
        for _ in range(12):
            calls = batch(rng)
            for c, i in zip(compiled.execute(calls), interpreted.execute(calls)):
                assert c.popcount == i.popcount
                assert c.latency_s == pytest.approx(i.latency_s, rel=1e-9)
                assert c.energy_j == pytest.approx(i.energy_j, rel=1e-9)
        stats_c = compiled.runtime.plan_stats
        stats_i = interpreted.runtime.plan_stats
        for tally in ("cache_hits", "cache_misses", "cse_hits", "waves",
                      "hazard_flushes"):
            assert getattr(stats_c, tally) == getattr(stats_i, tally), tally
