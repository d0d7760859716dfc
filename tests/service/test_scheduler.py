"""Tests for cross-tenant coalescing and shard-aware batch pricing."""

from collections import deque

import pytest

from repro.service.engine import ExecutedCall, ServiceEngine
from repro.service.request import QueryRequest
from repro.service.scheduler import CoalescingScheduler
from repro.service.service import ServiceConfig


class FakeEngine(ServiceEngine):
    """Fixed per-call latency, tenant -> shard from a dict."""

    def __init__(self, shards, latency_s=1e-6):
        self._shard_map = shards
        self.latency_s = latency_s

    @property
    def n_shards(self):
        return max(self._shard_map.values(), default=0) + 1

    def shard_of(self, tenant):
        return self._shard_map[tenant]

    def execute(self, requests):
        return [
            ExecutedCall(
                bits=None,
                popcount=0,
                latency_s=self.latency_s,
                energy_j=1e-9,
                steps=1,
            )
            for _ in requests
        ]


def req(rid, tenant):
    return QueryRequest.bitwise(rid, tenant, "and", ("a", "b"), 0.0)


def queues_of(*tenant_requests):
    return {t: deque(rs) for t, rs in tenant_requests}


class TestCollect:
    def test_round_robin_across_tenants(self):
        sched = CoalescingScheduler(
            ServiceConfig(max_batch=4), FakeEngine({"a": 0, "b": 1})
        )
        queues = queues_of(
            ("a", [req(1, "a"), req(2, "a")]),
            ("b", [req(3, "b"), req(4, "b")]),
        )
        batch = sched.collect(queues)
        assert [r.request_id for r in batch] == [1, 3, 2, 4]

    def test_respects_max_batch(self):
        sched = CoalescingScheduler(
            ServiceConfig(max_batch=3), FakeEngine({"a": 0})
        )
        queues = queues_of(("a", [req(i, "a") for i in range(10)]))
        batch = sched.collect(queues)
        assert len(batch) == 3
        assert len(queues["a"]) == 7

    def test_rotating_start_prevents_permanent_priority(self):
        sched = CoalescingScheduler(
            ServiceConfig(max_batch=1), FakeEngine({"a": 0, "b": 1})
        )
        firsts = []
        for _ in range(4):
            queues = queues_of(("a", [req(1, "a")]), ("b", [req(2, "b")]))
            firsts.append(sched.collect(queues)[0].tenant)
        assert set(firsts) == {"a", "b"}

    def test_empty_queues_give_empty_batch(self):
        sched = CoalescingScheduler(ServiceConfig(), FakeEngine({}))
        assert sched.collect({}) == []
        assert sched.collect(queues_of(("a", []))) == []


class TestPricing:
    def test_same_shard_serialises(self):
        engine = FakeEngine({"a": 0, "b": 0}, latency_s=1e-6)
        sched = CoalescingScheduler(
            ServiceConfig(dispatch_overhead_s=1e-7), engine
        )
        batch = [req(1, "a"), req(2, "b")]
        pricing = sched.price(batch, engine.execute(batch))
        # both on shard 0: second completes after first
        assert pricing.completion_offsets == pytest.approx([1.1e-6, 2.1e-6])
        assert pricing.makespan_s == pytest.approx(2.1e-6)

    def test_different_shards_overlap(self):
        engine = FakeEngine({"a": 0, "b": 1}, latency_s=1e-6)
        sched = CoalescingScheduler(
            ServiceConfig(dispatch_overhead_s=1e-7), engine
        )
        batch = [req(1, "a"), req(2, "b")]
        pricing = sched.price(batch, engine.execute(batch))
        # different shards: both complete one service time after dispatch
        assert pricing.completion_offsets == pytest.approx([1.1e-6, 1.1e-6])
        assert pricing.makespan_s == pytest.approx(1.1e-6)

    def test_energy_adds_across_shards(self):
        engine = FakeEngine({"a": 0, "b": 1})
        sched = CoalescingScheduler(ServiceConfig(), engine)
        batch = [req(1, "a"), req(2, "b")]
        pricing = sched.price(batch, engine.execute(batch))
        assert pricing.energy_j == pytest.approx(2e-9)

    def test_overhead_paid_once_per_batch(self):
        engine = FakeEngine({"a": 0}, latency_s=1e-6)
        sched = CoalescingScheduler(
            ServiceConfig(dispatch_overhead_s=5e-6), engine
        )
        batch = [req(i, "a") for i in range(3)]
        pricing = sched.price(batch, engine.execute(batch))
        assert pricing.makespan_s == pytest.approx(5e-6 + 3e-6)


class TestDispatch:
    def test_dispatch_returns_consistent_triple(self):
        engine = FakeEngine({"a": 0, "b": 1})
        sched = CoalescingScheduler(ServiceConfig(max_batch=8), engine)
        queues = queues_of(
            ("a", [req(1, "a")]),
            ("b", [req(2, "b")]),
        )
        batch, executed, pricing = sched.dispatch(queues)
        assert len(batch) == len(executed) == len(pricing.completion_offsets)
        assert all(len(q) == 0 for q in queues.values())

    def test_empty_dispatch_is_noop(self):
        sched = CoalescingScheduler(ServiceConfig(), FakeEngine({}))
        batch, executed, pricing = sched.dispatch({})
        assert batch == [] and executed == []
        assert pricing.makespan_s == 0.0
