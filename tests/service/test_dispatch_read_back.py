"""One read-back per dispatch, against the per-request read it replaced.

``ResidentPimEngine.execute`` reads every plain result of a dispatch
with one ``pim_read_many`` and then frees the destinations in
submission order.  The reference engine below is the engine's earlier
``execute``: a per-command read (a fresh ``CommandBatch`` priced by the
controller's full pass) and a free, one request at a time.  Over a
randomized stream of dispatches -- cache serves, executions, several
widths and tenants -- every result, the runtime's host and PIM
accounting and the per-channel bus ledgers must stay bit-identical.
"""

import numpy as np

from repro.service.engine import ExecutedCall, ResidentPimEngine
from repro.service.request import QueryRequest
from repro.service.service import ServiceConfig
from tests.core.test_row_io_templates import reference_read


class _PerRequestReadEngine(ResidentPimEngine):
    """The engine with its earlier read-back: read, then free, per request."""

    def execute(self, requests):
        rt = self.runtime
        out = [None] * len(requests)
        slots, staged, ops = [], [], []
        for i, request in enumerate(requests):
            sources = [self._handles[(request.tenant, n)] for n in request.vectors]
            n_bits = min(h.n_bits for h in sources)
            dest = rt.pim_malloc(n_bits, self.group_of(request.tenant))
            ops.append((request.op, dest, sources, n_bits))
            staged.append((dest, n_bits))
            slots.append(i)
        results = rt.pim_op_many(ops) if ops else []
        for i, (dest, n_bits), result in zip(slots, staged, results):
            bits, acct = reference_read(rt.system.executor, dest.frames, n_bits)
            rt.host_accounting = rt.host_accounting.merged(acct)
            rt.pim_free(dest)
            out[i] = ExecutedCall(
                bits=bits,
                popcount=int(bits.sum()),
                latency_s=result.latency * self.config.timing_scale,
                energy_j=result.energy * self.config.energy_scale,
                steps=result.steps,
            )
        return out


def _ledgers(engine):
    return [
        (b.stats.commands, b.stats.data_bytes, b.stats.busy_time, b.stats.energy)
        for b in engine.runtime.system.executor.controller.buses
    ]


def _load(engine, rng_seed):
    rng = np.random.default_rng(rng_seed)
    row_bits = engine.runtime.system.geometry.row_bits
    widths = {"a": 3 * row_bits + 17, "b": row_bits, "c": 200}
    for tenant, width in widths.items():
        for name in ("v0", "v1", "v2", "v3"):
            engine.load_vector(
                tenant, name, rng.integers(0, 2, width).astype(np.uint8)
            )
    return list(widths)


def test_dispatch_read_back_is_bit_identical_to_per_request_reads():
    config = ServiceConfig().system
    ref = _PerRequestReadEngine(config)
    new = ResidentPimEngine(config)
    tenants = _load(ref, 7)
    assert _load(new, 7) == tenants
    rng = np.random.default_rng(11)
    names = ("v0", "v1", "v2", "v3")
    for _ in range(30):
        calls = []
        for _ in range(int(rng.integers(1, 7))):
            tenant = tenants[int(rng.integers(len(tenants)))]
            op = ("or", "and", "xor", "inv")[int(rng.integers(4))]
            k = 1 if op == "inv" else int(rng.integers(2, 5))
            picked = rng.choice(len(names), size=k, replace=False)
            calls.append(
                QueryRequest(0, tenant, op, tuple(names[j] for j in picked), 0.0)
            )
        for want, got in zip(ref.execute(calls), new.execute(calls)):
            np.testing.assert_array_equal(got.bits, want.bits)
            assert (got.popcount, got.latency_s, got.energy_j, got.steps) == (
                want.popcount, want.latency_s, want.energy_j, want.steps
            )
        assert new.runtime.host_accounting.to_dict() == ref.runtime.host_accounting.to_dict()
        assert new.runtime.pim_accounting.to_dict() == ref.runtime.pim_accounting.to_dict()
        assert _ledgers(new) == _ledgers(ref)
    assert new.runtime.plan_stats.cache_hits > 0  # serves were exercised
    assert new.runtime.allocator.live_handles == ref.runtime.allocator.live_handles
