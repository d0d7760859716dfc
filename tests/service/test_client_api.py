"""ServiceClient facade: verb<->request equivalence, handles, submit_request."""

import warnings

import numpy as np
import pytest

from repro.service import (
    BitmapQueryService,
    QueryRequest,
    ServiceClient,
    SubscriptionHandle,
    UpdateRequest,
)


def vectors(seed=0, n=4, bits=512):
    rng = np.random.default_rng(seed)
    return {
        f"v{i}": rng.integers(0, 2, bits, dtype=np.uint8) for i in range(n)
    }


def loaded_client():
    client = ServiceClient(BitmapQueryService())
    client.register_tenant("t")
    client.load_vectors("t", vectors())
    return client


class TestVerbEquivalence:
    """Each facade verb submits the request legacy callers built by hand."""

    def test_query_builds_the_legacy_request(self):
        client = loaded_client()
        handle = client.query("t", "and", ("v0", "v1"), at=1e-3, request_id=7)
        assert handle.request == QueryRequest.bitwise(
            7, "t", "and", ("v0", "v1"), 1e-3
        )

    def test_range_query_builds_the_legacy_request(self):
        client = ServiceClient(BitmapQueryService())
        client.register_tenant("t")
        rng = np.random.default_rng(1)
        client.load_bitmap_index("t", "col", rng.integers(0, 8, 128), 8)
        handle = client.range_query("t", "col", 2, 5, at=0.0, request_id=3)
        assert handle.request == QueryRequest.range_query(
            3, "t", "col", 2, 5, 0.0
        )

    def test_update_builds_the_legacy_request(self):
        client = loaded_client()
        bits = vectors(seed=9)["v0"]
        handle = client.update("t", "v0", bits, at=2e-3, request_id=5)
        legacy = UpdateRequest(5, "t", "v0", bits, 2e-3)
        # UpdateRequest is eq=False; compare the fields that matter
        assert handle.request.request_id == legacy.request_id
        assert handle.request.vector == legacy.vector
        assert handle.request.arrival_s == legacy.arrival_s
        assert np.array_equal(handle.request.bits, legacy.bits)
        assert handle.request.internal is False

    def test_subscribe_builds_the_legacy_request(self):
        client = loaded_client()
        handle = client.subscribe("t", "xor", ("v0", "v1"), at=0.0, request_id=2)
        assert handle.request == QueryRequest(
            2, "t", "xor", ("v0", "v1"), 0.0, kind="subscribe"
        )

    def test_facade_run_equals_legacy_submit_run(self):
        legacy = BitmapQueryService()
        legacy.register_tenant("t")
        legacy.load_vectors("t", vectors())
        legacy.submit_request(
            QueryRequest.bitwise(0, "t", "and", ("v0", "v1"), 0.0)
        )
        legacy.submit_request(
            QueryRequest.bitwise(1, "t", "or", ("v1", "v2", "v3"), 1e-4)
        )
        legacy_stats = legacy.run()

        client = loaded_client()
        client.query("t", "and", ("v0", "v1"), at=0.0)
        client.query("t", "or", ("v1", "v2", "v3"), at=1e-4)
        facade_stats = client.run()
        assert facade_stats.to_json() == legacy_stats.to_json()
        assert [r.to_dict() for r in client.target.results] == [
            r.to_dict() for r in legacy.results
        ]


class TestHandles:
    def test_result_before_run_raises(self):
        client = loaded_client()
        handle = client.query("t", "and", ("v0", "v1"))
        assert not handle.done
        with pytest.raises(RuntimeError, match="no result yet"):
            handle.result()

    def test_resolved_after_run(self):
        client = loaded_client()
        handle = client.query("t", "or", ("v0", "v1"))
        client.run()
        assert handle.done and handle.completed and not handle.rejected
        assert handle.popcount == client.target.oracle_popcount(handle.request)
        assert handle.latency_s > 0

    def test_subscription_handle_collects_notifications(self):
        client = loaded_client()
        sub = client.subscribe("t", "xor", ("v0", "v1"), at=0.0)
        assert isinstance(sub, SubscriptionHandle)
        client.update("t", "v0", vectors(seed=3)["v1"], at=1e-3)
        client.run()
        assert sub.active
        assert [n.seq for n in sub.notifications] == [0, 1]

    def test_second_run_does_not_duplicate_notifications(self):
        client = loaded_client()
        sub = client.subscribe("t", "xor", ("v0", "v1"), at=0.0)
        client.update("t", "v0", vectors(seed=3)["v1"], at=1e-3)
        client.run()
        client.update("t", "v0", vectors(seed=4)["v2"], at=2.0)
        client.run()
        assert [n.seq for n in sub.notifications] == [0, 1, 2]

    def test_auto_ids_and_arrivals_are_monotonic(self):
        client = loaded_client()
        a = client.query("t", "and", ("v0", "v1"))
        b = client.query("t", "or", ("v1", "v2"), at=5e-3)
        c = client.query("t", "xor", ("v2", "v3"))  # inherits 5e-3
        assert [h.request_id for h in (a, b, c)] == [0, 1, 2]
        assert c.request.arrival_s == 5e-3

    def test_explicit_id_advances_the_counter(self):
        client = loaded_client()
        client.query("t", "and", ("v0", "v1"), request_id=10)
        handle = client.query("t", "or", ("v1", "v2"))
        assert handle.request_id == 11

    def test_reused_id_rejected(self):
        client = loaded_client()
        client.query("t", "and", ("v0", "v1"), request_id=4)
        with pytest.raises(ValueError, match="already in use"):
            client.query("t", "or", ("v1", "v2"), request_id=4)

    def test_stats_passthrough(self):
        client = loaded_client()
        client.query("t", "and", ("v0", "v1"))
        stats = client.run()
        assert client.stats is stats


class TestTargetValidation:
    def test_non_target_rejected(self):
        with pytest.raises(TypeError, match="not a serving target"):
            ServiceClient(object())


class TestSubmitRequest:
    def test_submit_request_does_not_warn(self):
        service = BitmapQueryService()
        service.register_tenant("t")
        service.load_vectors("t", vectors())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service.submit_request(
                QueryRequest.bitwise(0, "t", "and", ("v0", "v1"), 0.0)
            )
