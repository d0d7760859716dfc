"""Stateful differential harness for the write path.

Two planned runtimes play the same random program in lockstep: the
compiled planner (``compile=True``) and the priced interpreter
(``compile=False``), each on a small geometry with a sub-result cache
small enough to force evictions.  The rules load vectors, overwrite
part of a vector or all of it, free vectors, run single ops (into a
fresh vector or in place over a live one) and multi-request waves with
duplicate requests -- so one wave serves a dirty cache entry twice --
and read vectors back.

After every step both arms must hold exactly the bits of a numpy mirror
and agree on their accounting to 1e-9.  Every serve is checked as it
lands: no cache entry is served while it still has dirty chunks, and
neither arm repairs more entries than it served from dirty ones.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.runtime.api import PimRuntime

GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=2,
    rows_per_subarray=32,
    mats_per_subarray=1,
    cols_per_mat=256,
    mux_ratio=8,
)
ROW = GEOM.row_bits
N = 3 * ROW  # three chunks per vector
#: two 3-chunk entries per shard of the planner's 8-shard cache, so
#: inserts (and re-keyed dirty entries) evict
CACHE_BYTES = 8 * 2 * 3 * GEOM.row_bytes
MAX_LIVE = 8
#: new requests read only the first HOT live vectors, and up to RECENT
#: of them are drawn again
HOT = 4
RECENT = 4
OPS = ("or", "and", "xor", "inv")
RTOL = 1e-9

seeds = st.integers(0, 2**32 - 1)


def _bits(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


def _oracle(op: str, operands) -> np.ndarray:
    if op == "inv":
        return operands[0] ^ 1
    ufunc = {"or": np.bitwise_or, "and": np.bitwise_and, "xor": np.bitwise_xor}[op]
    return ufunc.reduce(np.stack(operands), axis=0)


class _Arm:
    """One planned runtime plus the serve check on its planner."""

    def __init__(self, compile_: bool):
        system = PinatuboSystem(get_technology("pcm"), GEOM)
        self.rt = PimRuntime(
            system, plan=True, plan_cache_bytes=CACHE_BYTES, compile=compile_
        )
        self.handles = []
        #: serve items whose rows came from an entry looked up dirty
        self.dirty_served = 0
        #: id(rows) -> entry, for every entry a lookup returned dirty
        self._looked_up_dirty = {}
        planner = self.rt.planner
        get, serve = planner.cache.get, planner._serve

        def recording_get(key):
            entry = get(key)
            if entry is not None and entry.dirty is not None:
                self._looked_up_dirty[id(entry.rows)] = entry
            return entry

        def checking_serve(serve_items, primary_rows, results):
            for it in serve_items:
                entry = self._looked_up_dirty.get(id(it.rows))
                if entry is not None:
                    assert entry.dirty is None, "served a dirty entry unrepaired"
                    self.dirty_served += 1
            return serve(serve_items, primary_rows, results)

        planner.cache.get = recording_get
        planner._serve = checking_serve

    def step_done(self) -> None:
        self._looked_up_dirty.clear()


class WritePathMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.arms = (_Arm(True), _Arm(False))
        self.mirror = []
        self.recent = []

    # -- helpers --------------------------------------------------------------

    def _each(self, fn):
        out = [fn(arm) for arm in self.arms]
        for arm in self.arms:
            arm.step_done()
        return out

    def _draw_request(self, data):
        """A recent request again, or a new op over the first few live
        vectors, so expressions recur and hit the cache."""
        recent = [r for r in self.recent if max(r[1]) < len(self.mirror)]
        if recent and data.draw(st.booleans()):
            return data.draw(st.sampled_from(recent))
        op = data.draw(st.sampled_from(OPS))
        n_ops = 1 if op == "inv" else data.draw(st.integers(2, 3))
        pick = st.integers(0, min(len(self.mirror), HOT) - 1)
        request = (op, data.draw(st.lists(pick, min_size=n_ops, max_size=n_ops)))
        self.recent = [request] + self.recent[: RECENT - 1]
        return request

    # -- rules ----------------------------------------------------------------

    @precondition(lambda self: len(self.mirror) < MAX_LIVE)
    @rule(seed=seeds)
    def load(self, seed):
        bits = _bits(seed, N)

        def play(arm):
            handle = arm.rt.pim_malloc(N)
            arm.rt.pim_write(handle, bits)
            arm.handles.append(handle)

        self._each(play)
        self.mirror.append(bits)

    @precondition(lambda self: self.mirror)
    @rule(data=st.data(), seed=seeds)
    def partial_write(self, data, seed):
        """The first ``k`` bits; the rest of the last written row is
        zeroed, later rows keep their bits."""
        i = data.draw(st.integers(0, len(self.mirror) - 1))
        k = data.draw(st.integers(1, N - 1))
        bits = _bits(seed, k)
        self._each(lambda arm: arm.rt.pim_write(arm.handles[i], bits))
        self.mirror[i][: -(-k // ROW) * ROW] = 0
        self.mirror[i][:k] = bits

    @precondition(lambda self: self.mirror)
    @rule(data=st.data(), seed=seeds)
    def whole_write(self, data, seed):
        i = data.draw(st.integers(0, len(self.mirror) - 1))
        bits = _bits(seed, N)
        self._each(lambda arm: arm.rt.pim_write(arm.handles[i], bits))
        self.mirror[i] = bits

    @precondition(lambda self: self.mirror)
    @rule(data=st.data())
    def free(self, data):
        i = data.draw(st.integers(0, len(self.mirror) - 1))
        self._each(lambda arm: arm.rt.pim_free(arm.handles.pop(i)))
        self.mirror.pop(i)

    @precondition(lambda self: self.mirror)
    @rule(data=st.data(), in_place=st.booleans())
    def pim_op(self, data, in_place):
        """One op into a fresh vector (kept while there is room) or over
        a live one, which may be among its operands (an in-place
        accumulation)."""
        op, srcs = self._draw_request(data)
        want = _oracle(op, [self.mirror[s] for s in srcs])
        in_place = in_place and bool(self.mirror)
        target = (
            data.draw(st.integers(0, len(self.mirror) - 1)) if in_place else None
        )

        def play(arm):
            sources = [arm.handles[s] for s in srcs]
            dest = arm.handles[target] if in_place else arm.rt.pim_malloc(N)
            arm.rt.pim_op(op, dest, sources)
            assert np.array_equal(arm.rt.pim_read(dest), want)
            if not in_place:
                if len(arm.handles) < MAX_LIVE:
                    arm.handles.append(dest)
                else:
                    arm.rt.pim_free(dest)

        self._each(play)
        if in_place:
            self.mirror[target] = want
        elif len(self.mirror) < MAX_LIVE:
            self.mirror.append(want)

    @precondition(lambda self: self.mirror)
    @rule(data=st.data())
    def pim_op_many(self, data):
        """A wave of up to six requests over up to three distinct
        expressions, some repeated.  A request may overwrite a live
        vector that is not among its operands; later requests of the
        wave read what it wrote."""
        distinct = [
            self._draw_request(data) for _ in range(data.draw(st.integers(1, 3)))
        ]
        shape = data.draw(st.lists(
            st.tuples(st.integers(0, len(distinct) - 1), st.booleans()),
            min_size=2, max_size=6,
        ))
        mirror = [bits.copy() for bits in self.mirror]
        wave = []
        for j, in_place in shape:
            op, srcs = distinct[j]
            free = [i for i in range(len(mirror)) if i not in srcs]
            target = data.draw(st.sampled_from(free)) if in_place and free else None
            want = _oracle(op, [mirror[s] for s in srcs])
            if target is not None:
                mirror[target] = want
            wave.append((op, srcs, target, want))

        def play(arm):
            dests = [
                arm.rt.pim_malloc(N) if target is None else arm.handles[target]
                for _op, _srcs, target, _want in wave
            ]
            arm.rt.pim_op_many([
                (op, dest, [arm.handles[s] for s in srcs])
                for (op, srcs, _t, _w), dest in zip(wave, dests)
            ])
            fresh = [
                (dest, want)
                for (_op, _srcs, target, want), dest in zip(wave, dests)
                if target is None
            ]
            got = arm.rt.pim_read_many([d for d, _ in fresh], [N] * len(fresh))
            for bits, (dest, want) in zip(got, fresh):
                assert np.array_equal(bits, want)
                arm.rt.pim_free(dest)

        self._each(play)
        self.mirror = mirror

    @precondition(lambda self: self.mirror)
    @rule(data=st.data())
    def read(self, data):
        i = data.draw(st.integers(0, len(self.mirror) - 1))
        got = self._each(lambda arm: arm.rt.pim_read(arm.handles[i]))
        for bits in got:
            assert np.array_equal(bits, self.mirror[i])

    # -- checks after every step ----------------------------------------------

    @invariant()
    def bits_match_the_mirror(self):
        for arm in self.arms:
            got = arm.rt.pim_read_many(arm.handles, [N] * len(arm.handles))
            for bits, want in zip(got, self.mirror):
                assert np.array_equal(bits, want)
            arm.step_done()

    @invariant()
    def arms_price_alike(self):
        compiled, interpreted = (arm.rt for arm in self.arms)
        for name in ("pim_accounting", "host_accounting"):
            a, b = getattr(compiled, name), getattr(interpreted, name)
            assert a.latency == pytest.approx(b.latency, rel=RTOL, abs=0.0)
            assert a.energy == pytest.approx(b.energy, rel=RTOL, abs=0.0)
        sc, si = compiled.plan_stats, interpreted.plan_stats
        for field in ("cache_hits", "cache_misses", "repairs", "repairs_marked",
                      "repair_fallbacks", "repaired_chunks"):
            assert getattr(sc, field) == getattr(si, field), field

    @invariant()
    def repairs_never_exceed_dirty_serves(self):
        for arm in self.arms:
            assert arm.rt.plan_stats.repairs <= arm.dirty_served


_SETTINGS = dict(
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestWritePathBounded(WritePathMachine.TestCase):
    settings = settings(
        max_examples=60, stateful_step_count=30, derandomize=True, **_SETTINGS
    )


@pytest.mark.slow
class TestWritePathLong(WritePathMachine.TestCase):
    settings = settings(max_examples=200, stateful_step_count=50, **_SETTINGS)
