"""Tests for the write path and standing queries of the serving layer.

Updates ride the same coalesced batches as reads (ordered first, so a
batch reads its own writes); standing queries registered via SUBSCRIBE
are re-evaluated by the writes that touch them and push
:class:`DeltaNotification`\\ s through the event loop.  The determinism
tests pin the acceptance criterion: two seeded runs of a mixed
read/write/subscribe load must agree byte-for-byte on stats and on the
notification stream.
"""

import dataclasses

import numpy as np

from repro.service import (
    BitmapQueryService,
    QueryRequest,
    RequestStatus,
    ServiceConfig,
    TenantQuota,
    UpdateRequest,
)
from repro.workloads.service_load import (
    ServiceLoadSpec,
    generate_requests,
    run_service_load,
)

N_BITS = 2048


def make_service(**config_kwargs) -> BitmapQueryService:
    config_kwargs.setdefault("keep_bits", True)
    return BitmapQueryService(ServiceConfig(**config_kwargs))


def load_basic(svc, tenant="t", seed=0):
    rng = np.random.default_rng(seed)
    vectors = {
        name: rng.integers(0, 2, N_BITS, dtype=np.uint8)
        for name in ("a", "b", "c")
    }
    svc.register_tenant(tenant)
    svc.load_vectors(tenant, vectors)
    return vectors


def _result(svc, request_id):
    (result,) = [
        r for r in svc.results if r.request.request_id == request_id
    ]
    return result


class TestUpdatePath:
    def test_update_rewrites_and_later_read_sees_it(self):
        svc = make_service()
        v = load_basic(svc)
        new_a = np.random.default_rng(1).integers(
            0, 2, N_BITS, dtype=np.uint8
        )
        svc.submit_request(UpdateRequest(1, "t", "a", new_a, 0.0))
        svc.submit_request(QueryRequest.bitwise(2, "t", "or", ("a", "b"), 1e-6))
        stats = svc.run()
        assert stats.completed == 2
        assert stats.updates == 1
        assert stats.tenants["t"].updates == 1
        np.testing.assert_array_equal(_result(svc, 2).bits, new_a | v["b"])
        # an update's popcount reports the bits it actually changed
        upd = _result(svc, 1)
        assert upd.popcount == int((v["a"] ^ new_a).sum())
        assert upd.latency_s > 0  # the delta-capturing write is priced

    def test_update_ordered_before_reads_within_a_batch(self):
        """Read-your-writes inside one coalesced batch: the scheduler
        executes a batch's updates first, so a read sharing the batch
        sees the rewritten vector regardless of arrival order."""
        svc = make_service(max_batch=8)
        v = load_basic(svc)
        new_a = np.random.default_rng(2).integers(
            0, 2, N_BITS, dtype=np.uint8
        )
        # request 0 occupies the server; the read then the update arrive
        # while it runs and coalesce into the same second batch
        svc.submit_request(QueryRequest.bitwise(0, "t", "inv", ("b",), 0.0))
        svc.submit_request(QueryRequest.bitwise(1, "t", "or", ("a", "b"), 1e-9))
        svc.submit_request(UpdateRequest(2, "t", "a", new_a, 2e-9))
        stats = svc.run()
        assert stats.completed == 3
        read, upd = _result(svc, 1), _result(svc, 2)
        assert read.batch_id == upd.batch_id  # they shared a batch
        np.testing.assert_array_equal(read.bits, new_a | v["b"])

    def test_update_validates_vector_and_size(self):
        svc = make_service()
        load_basic(svc)
        bad_name = UpdateRequest(
            1, "t", "nope", np.zeros(N_BITS, dtype=np.uint8), 0.0
        )
        bad_size = UpdateRequest(
            2, "t", "a", np.zeros(N_BITS // 2, dtype=np.uint8), 0.0
        )
        for request, exc in ((bad_name, KeyError), (bad_size, ValueError)):
            try:
                svc.submit_request(request)
            except exc:
                continue
            raise AssertionError(f"{request.vector!r} submit did not raise")


class TestStandingQueries:
    def test_snapshot_then_update_notifications(self):
        svc = make_service()
        v = load_basic(svc)
        svc.submit_request(
            QueryRequest(10, "t", "xor", ("a", "b"), 0.0, kind="subscribe")
        )
        new_a = np.random.default_rng(3).integers(
            0, 2, N_BITS, dtype=np.uint8
        )
        # arrives well after the subscription's initial evaluation
        svc.submit_request(UpdateRequest(11, "t", "a", new_a, 1.0))
        stats = svc.run()
        assert stats.subscriptions == 1
        assert stats.updates == 1
        assert stats.notifications == 2

        old = v["a"] ^ v["b"]
        new = new_a ^ v["b"]
        snap, delta = svc.notifications
        assert snap.subscription_id == delta.subscription_id == 10
        assert snap.seq == 0 and snap.changed_bits == 0
        assert snap.popcount == int(old.sum())
        assert delta.seq == 1
        assert delta.popcount == int(new.sum())
        assert delta.changed_bits == int((old ^ new).sum())
        assert delta.triggered_by == (11,)
        assert snap.emitted_s <= delta.emitted_s
        np.testing.assert_array_equal(svc.standing_query(10).bits, new)

    def test_unrelated_update_does_not_notify(self):
        svc = make_service()
        load_basic(svc)
        svc.submit_request(
            QueryRequest(10, "t", "xor", ("a", "b"), 0.0, kind="subscribe")
        )
        new_c = np.random.default_rng(4).integers(
            0, 2, N_BITS, dtype=np.uint8
        )
        svc.submit_request(UpdateRequest(11, "t", "c", new_c, 1.0))
        stats = svc.run()
        # only the seq-0 snapshot: the write touched no subscribed vector
        assert stats.notifications == 1
        assert svc.notifications[0].seq == 0

    def test_fanout_bound_rejects_excess_subscriptions(self):
        svc = make_service(default_quota=TenantQuota(max_subscriptions=1))
        load_basic(svc)
        svc.submit_request(
            QueryRequest(1, "t", "or", ("a", "b"), 0.0, kind="subscribe")
        )
        svc.submit_request(
            QueryRequest(2, "t", "and", ("b", "c"), 0.0, kind="subscribe")
        )
        stats = svc.run()
        assert stats.subscriptions == 1
        rejected = [
            r for r in svc.results if r.status is RequestStatus.REJECTED
        ]
        assert len(rejected) == 1
        assert rejected[0].request.request_id == 2
        assert "fan-out" in rejected[0].reject_reason


MIXED_SPEC = ServiceLoadSpec(
    n_tenants=3,
    vectors_per_tenant=3,
    vector_bits=1024,
    index_events=256,
    n_requests=48,
    arrival_rate_per_s=5e5,
    write_ratio=0.25,
    subscriptions_per_tenant=1,
    seed=77,
)


class TestMixedLoadDeterminism:
    def test_two_seeded_runs_are_byte_identical(self):
        """The acceptance criterion: same seed, same mixed
        read/write/subscribe load => byte-identical ServiceStats JSON
        and an identical delta-notification stream."""
        svc_a, stats_a = run_service_load(MIXED_SPEC)
        svc_b, stats_b = run_service_load(MIXED_SPEC)
        assert stats_a.updates > 0
        assert stats_a.subscriptions > 0
        assert stats_a.notifications > 0
        assert stats_a.to_json() == stats_b.to_json()
        notes_a = [n.to_dict() for n in svc_a.notifications]
        notes_b = [n.to_dict() for n in svc_b.notifications]
        assert notes_a == notes_b

    def test_write_conversion_keeps_reads_identical(self):
        """``write_ratio`` converts a seeded subset of the read stream
        in place: the kept reads are byte-identical to the read-only
        stream, and the conversion count matches the ratio."""
        base = dataclasses.replace(
            MIXED_SPEC, write_ratio=0.0, subscriptions_per_tenant=0
        )
        reads = generate_requests(base)
        mixed = generate_requests(
            dataclasses.replace(base, write_ratio=0.25)
        )
        assert all(isinstance(r, QueryRequest) for r in reads)
        updates = [r for r in mixed if isinstance(r, UpdateRequest)]
        assert len(updates) == round(0.25 * base.n_requests)
        for r0, r1 in zip(reads, mixed):
            assert r1.request_id == r0.request_id
            assert r1.tenant == r0.tenant
            assert r1.arrival_s == r0.arrival_s
            if not isinstance(r1, UpdateRequest):
                assert r1.op == r0.op
                assert r1.vectors == r0.vectors

    def test_subscription_stream_is_seeded(self):
        subs_only = dataclasses.replace(MIXED_SPEC, write_ratio=0.0)
        first = generate_requests(subs_only)
        second = generate_requests(subs_only)
        subs = [r for r in first if r.kind == "subscribe"]
        assert len(subs) == (
            subs_only.n_tenants * subs_only.subscriptions_per_tenant
        )
        for s0, s1 in zip(first, second):
            if s0.kind == "subscribe":
                assert (s0.op, s0.vectors, s0.tenant) == (
                    s1.op,
                    s1.vectors,
                    s1.tenant,
                )
