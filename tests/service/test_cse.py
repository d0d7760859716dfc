"""Cross-tenant equal-content calls in one batch of the serving layer.

Equal content under different tenants is not folded: each call runs on
its own tenant's rows, so every tenant gets its own result buffer and
its own nonzero cost.  Repeated content within a tenant is the
planner's job (wave CSE and the sub-result cache).
"""

import numpy as np

from repro import telemetry
from repro.service.request import QueryRequest
from repro.service.service import BitmapQueryService, ServiceConfig


def _vectors(seed=7, n=2048):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, n, dtype=np.uint8),
        rng.integers(0, 2, n, dtype=np.uint8),
    )


def _two_tenant_service(bits_a, bits_b):
    service = BitmapQueryService(ServiceConfig(keep_bits=True))
    for tenant in ("t1", "t2"):
        service.register_tenant(tenant)
        service.load_vectors(tenant, {"a": bits_a, "b": bits_b})
    return service


class TestCrossTenantFolding:
    """Equal-content calls across tenants: once folded into one
    execution, now each served on its own tenant's rows."""

    def test_shared_execution_with_isolated_results(self):
        """Two tenants issue the same expression in one batch: each
        tenant gets correct bits in an independent result buffer, and
        per-tenant latency/energy attribution in ServiceStats stays
        nonzero and correct."""
        bits_a, bits_b = _vectors()
        service = _two_tenant_service(bits_a, bits_b)
        # first request dispatches alone (the service is eager); the
        # remaining three share the second batch, t1/t2 "a and b" included
        service.submit_many(
            [
                QueryRequest.bitwise(1, "t1", "and", ("a", "b"), 0.0),
                QueryRequest.bitwise(2, "t2", "and", ("b", "a"), 0.0),
                QueryRequest.bitwise(3, "t1", "and", ("a", "b"), 0.0),
                QueryRequest.bitwise(4, "t2", "xor", ("a", "b"), 0.0),
            ]
        )
        stats = service.run()
        assert service.verify_results() == 4
        completed = [r for r in service.results if r.bits is not None]
        assert len(completed) == 4
        expected_and = bits_a & bits_b
        and_results = [
            r for r in completed if r.request.op == "and"
        ]
        for result in and_results:
            assert np.array_equal(result.bits, expected_and)
            assert result.service_s > 0
            assert result.energy_j > 0
        # independent result buffers: no aliasing between tenants
        for i in range(len(and_results)):
            for j in range(i + 1, len(and_results)):
                assert and_results[i].bits is not and_results[j].bits
        for tenant in ("t1", "t2"):
            per_tenant = stats.tenant(tenant)
            assert per_tenant.completed == 2
            assert per_tenant.service_s > 0
            assert per_tenant.energy_j > 0

    def test_folding_off_executes_every_call(self):
        """Equal-content calls of two tenants in one batch each return
        the right bits."""
        bits_a, bits_b = _vectors()
        service = _two_tenant_service(bits_a, bits_b)
        service.submit_many(
            [
                QueryRequest.bitwise(1, "t1", "and", ("a", "b"), 0.0),
                QueryRequest.bitwise(2, "t2", "and", ("a", "b"), 0.0),
                QueryRequest.bitwise(3, "t1", "and", ("a", "b"), 0.0),
            ]
        )
        service.run()
        assert service.verify_results() == 3
        done = [r for r in service.results if r.bits is not None]
        assert len(done) == 3
        for result in done:
            assert np.array_equal(result.bits, bits_a & bits_b)

    def test_replay_priced_nonzero(self):
        """A call whose content another tenant computes in the same
        batch is still billed, never free."""
        bits_a, bits_b = _vectors()
        service = _two_tenant_service(bits_a, bits_b)
        service.submit_many(
            [
                QueryRequest.bitwise(1, "t1", "or", ("a", "b"), 0.0),
                QueryRequest.bitwise(2, "t1", "and", ("a", "b"), 0.0),
                QueryRequest.bitwise(3, "t2", "and", ("a", "b"), 0.0),
            ]
        )
        service.run()
        assert service.verify_results() == 3
        done = {
            r.request.request_id: r
            for r in service.results
            if r.bits is not None
        }
        # request 3 computes request 2's content on t2's rows: billed
        assert done[3].service_s > 0
        assert done[3].energy_j > 0
        assert done[2].service_s > 0

    def test_fold_counter_stays_registered_at_zero(self):
        """``service.scheduler.cse_folds`` stays registered (the e2e
        benchmark's trace mode reads it) and no batch moves it."""
        before = telemetry.aggregate()["counters"]["service.scheduler.cse_folds"]
        bits_a, bits_b = _vectors()
        service = _two_tenant_service(bits_a, bits_b)
        service.submit_many(
            [
                QueryRequest.bitwise(i, tenant, "and", ("a", "b"), 0.0)
                for i, tenant in enumerate(("t1", "t2", "t1", "t2"))
            ]
        )
        service.run()
        assert service.verify_results() == 4
        counters = telemetry.aggregate()["counters"]
        assert counters["service.scheduler.cse_folds"] == before
