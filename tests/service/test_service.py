"""End-to-end tests for the multi-tenant bitmap-query service."""

import numpy as np
import pytest

from repro.backends.config import SystemConfig
from repro.service import (
    BitmapQueryService,
    OverloadPolicy,
    QueryRequest,
    RequestStatus,
    ServiceConfig,
    TenantQuota,
    UnsupportedOpError,
)


def make_service(**config_kwargs) -> BitmapQueryService:
    config_kwargs.setdefault("keep_bits", True)
    return BitmapQueryService(ServiceConfig(**config_kwargs))


def load_basic(svc, tenant, n_bits=2048, seed=0):
    rng = np.random.default_rng(seed)
    vectors = {
        name: rng.integers(0, 2, n_bits, dtype=np.uint8)
        for name in ("a", "b", "c")
    }
    svc.register_tenant(tenant)
    svc.load_vectors(tenant, vectors)
    return vectors


class TestLifecycle:
    def test_single_request_completes_with_oracle_parity(self):
        svc = make_service()
        vectors = load_basic(svc, "t")
        svc.submit_request(QueryRequest.bitwise(1, "t", "and", ("a", "b"), 0.0))
        stats = svc.run()
        assert stats.completed == 1
        (result,) = svc.results
        assert result.status is RequestStatus.COMPLETED
        expected = vectors["a"] & vectors["b"]
        np.testing.assert_array_equal(result.bits, expected)
        assert result.popcount == int(expected.sum())
        assert result.latency_s > 0
        assert result.energy_j > 0

    def test_all_ops_match_numpy_oracle(self):
        svc = make_service()
        load_basic(svc, "t")
        svc.submit_request(QueryRequest.bitwise(1, "t", "and", ("a", "b", "c"), 0.0))
        svc.submit_request(QueryRequest.bitwise(2, "t", "or", ("a", "b", "c"), 1e-6))
        svc.submit_request(QueryRequest.bitwise(3, "t", "xor", ("a", "b"), 2e-6))
        svc.submit_request(QueryRequest.bitwise(4, "t", "inv", ("a",), 3e-6))
        svc.run()
        assert svc.verify_results() == 4

    def test_range_query_lowers_to_wide_or(self):
        svc = make_service()
        svc.register_tenant("t")
        rng = np.random.default_rng(1)
        bins = rng.integers(0, 8, 512)
        svc.load_bitmap_index("t", "temp", bins, 8)
        svc.submit_request(QueryRequest.range_query(1, "t", "temp", 2, 5, 0.0))
        stats = svc.run()
        assert stats.completed == 1
        expected = ((bins >= 2) & (bins <= 5)).astype(np.uint8)
        np.testing.assert_array_equal(svc.results[0].bits, expected)

    def test_unknown_tenant_and_vector_fail_fast(self):
        svc = make_service()
        load_basic(svc, "t")
        with pytest.raises(KeyError, match="unknown tenant"):
            svc.submit_request(QueryRequest.bitwise(1, "ghost", "and", ("a", "b"), 0.0))
        with pytest.raises(KeyError, match="no vector"):
            svc.submit_request(QueryRequest.bitwise(1, "t", "and", ("a", "nope"), 0.0))

    def test_unsupported_op_rejected_with_clear_error(self):
        # the sdram baseline serves only or/and: xor must be refused at
        # submission, naming the backend and its supported ops
        svc = BitmapQueryService(
            ServiceConfig(system=SystemConfig(backend="sdram"))
        )
        svc.register_tenant("t")
        svc.load_vectors(
            "t",
            {
                "a": np.ones(512, dtype=np.uint8),
                "b": np.zeros(512, dtype=np.uint8),
            },
        )
        with pytest.raises(UnsupportedOpError) as err:
            svc.submit_request(QueryRequest.bitwise(1, "t", "xor", ("a", "b"), 0.0))
        message = str(err.value)
        assert "xor" in message
        assert "and, or" in message
        assert "registry" in message


class TestCoalescing:
    def test_backlogged_requests_share_batches(self):
        svc = make_service(max_batch=8)
        for t in ("a", "b", "c", "d"):
            load_basic(svc, t, seed=hash(t) % 100)
        # all arrive at t=0: the first dispatch takes one, the rest
        # backlog and coalesce
        for i, t in enumerate(("a", "b", "c", "d") * 2):
            svc.submit_request(QueryRequest.bitwise(i, t, "or", ("a", "b"), 0.0))
        stats = svc.run()
        assert stats.completed == 8
        assert stats.batches < 8
        assert stats.coalesced_requests > 0
        assert svc.verify_results() == 8

    def test_max_batch_one_never_coalesces(self):
        svc = make_service(max_batch=1)
        load_basic(svc, "t")
        for i in range(5):
            svc.submit_request(QueryRequest.bitwise(i, "t", "or", ("a", "b"), 0.0))
        stats = svc.run()
        assert stats.batches == 5
        assert stats.coalesced_requests == 0

    def test_tenants_place_on_distinct_shards(self):
        svc = make_service()
        for t in ("a", "b"):
            load_basic(svc, t)
        engine = svc.engine
        assert engine.shard_of("a") != engine.shard_of("b")


class TestBackpressure:
    def test_queue_bound_rejects_without_perturbing_others(self):
        svc = make_service(
            default_quota=TenantQuota(max_pending=2),
        )
        greedy_vectors = load_basic(svc, "greedy", seed=1)
        polite_vectors = load_basic(svc, "polite", seed=2)
        # greedy floods 10 simultaneous arrivals against a 2-deep queue;
        # polite sends one
        for i in range(10):
            svc.submit_request(
                QueryRequest.bitwise(i, "greedy", "and", ("a", "b"), 0.0)
            )
        svc.submit_request(
            QueryRequest.bitwise(100, "polite", "xor", ("a", "b"), 0.0)
        )
        stats = svc.run()  # must drain without deadlock
        greedy = stats.tenant("greedy")
        assert greedy.rejected > 0
        assert greedy.completed + greedy.rejected == 10
        rejected = [
            r for r in svc.results if r.status is RequestStatus.REJECTED
        ]
        assert all("queue full" in r.reject_reason for r in rejected)
        # the polite tenant is untouched: completed, correct, unrejected
        polite = stats.tenant("polite")
        assert polite.completed == 1 and polite.rejected == 0
        polite_result = next(
            r for r in svc.results if r.request.tenant == "polite"
        )
        np.testing.assert_array_equal(
            polite_result.bits, polite_vectors["a"] ^ polite_vectors["b"]
        )
        # and the greedy tenant's completed results are still correct
        assert svc.verify_results() == stats.completed
        assert (
            greedy_vectors["a"].size == polite_vectors["a"].size
        )  # same shapes: rejection was about quota, not data

    def test_rate_quota_rejection(self):
        svc = make_service(
            default_quota=TenantQuota(rate_per_s=1.0, burst=2),
        )
        load_basic(svc, "t")
        for i in range(5):
            svc.submit_request(
                QueryRequest.bitwise(i, "t", "or", ("a", "b"), i * 1e-6)
            )
        stats = svc.run()
        assert stats.completed == 2  # burst
        assert stats.rejected == 3
        assert all(
            "rate quota" in r.reject_reason
            for r in svc.results
            if r.status is RequestStatus.REJECTED
        )

    def test_delay_policy_paces_instead_of_rejecting(self):
        svc = make_service(
            default_quota=TenantQuota(
                rate_per_s=1e5,
                burst=1,
                policy=OverloadPolicy.DELAY,
                max_delay_s=1.0,
            ),
        )
        load_basic(svc, "t")
        for i in range(4):
            svc.submit_request(QueryRequest.bitwise(i, "t", "or", ("a", "b"), 0.0))
        stats = svc.run()
        assert stats.completed == 4
        assert stats.rejected == 0
        assert stats.delayed == 3
        # paced requests complete 1/rate apart, not all at once
        times = sorted(
            r.completed_s
            for r in svc.results
            if r.status is RequestStatus.COMPLETED
        )
        assert times[-1] - times[0] >= 2e-5

    def test_delay_policy_still_bounds_total_backlog(self):
        svc = make_service(
            default_quota=TenantQuota(
                max_pending=3,
                rate_per_s=1e5,
                burst=1,
                policy=OverloadPolicy.DELAY,
                max_delay_s=1.0,
            ),
        )
        load_basic(svc, "t")
        for i in range(10):
            svc.submit_request(QueryRequest.bitwise(i, "t", "or", ("a", "b"), 0.0))
        stats = svc.run()
        assert stats.rejected > 0  # queue bound caught the flood
        assert stats.completed + stats.rejected == 10


class TestAccounting:
    def test_stats_reconcile_with_results(self):
        svc = make_service(max_batch=4)
        load_basic(svc, "t")
        for i in range(6):
            svc.submit_request(
                QueryRequest.bitwise(i, "t", "or", ("a", "b"), i * 1e-7)
            )
        stats = svc.run()
        completed = [
            r for r in svc.results if r.status is RequestStatus.COMPLETED
        ]
        assert stats.completed == len(completed) == 6
        assert stats.latency.count == 6
        assert stats.energy_j == pytest.approx(
            sum(r.energy_j for r in completed)
        )
        assert stats.ops_per_s > 0
        # p99 >= p50 by construction
        assert stats.latency.percentile(99) >= stats.latency.percentile(50)

    def test_summary_and_json_render(self):
        svc = make_service()
        load_basic(svc, "t")
        svc.submit_request(QueryRequest.bitwise(1, "t", "or", ("a", "b"), 0.0))
        stats = svc.run()
        assert "ServiceStats" in stats.summary()
        assert '"completed": 1' in stats.to_json()
