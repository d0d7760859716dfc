"""Every analytics record prices like a forced interpretation of its call.

A record is captured from whichever interpreted run is steady -- the
first sighting of a ``(constants, entry mode)`` pair when everything it
reads already serves from the cache, or a later one.  Seeded streams
play the same calls on a compiled front end and on its ``compile=False``
twin (which interprets every call) and compare each call's latency,
energy and instructions to 1e-9 and the mode register exactly.  The
streams switch entry modes between calls (plain ops in other modes)
and overwrite column planes (invalidating records), on
:class:`AnalyticsTable` and on the service engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.analytics import AnalyticsTable
from repro.runtime.api import PimRuntime
from repro.service.engine import ResidentPimEngine
from repro.service.request import (
    AnalyticsRequest,
    QueryRequest,
    bin_vector_name,
    bitslice_vector_name,
)
from repro.service.service import ServiceConfig

N = 300
REL = 1e-9
FIRST_SIGHTINGS = ("new_shape", "new_constants", "entry_mode", "invalidated")


def _dataset(seed):
    rng = np.random.default_rng(seed)
    return {
        "age": rng.integers(0, 64, N).astype(np.int64),
        "region": rng.integers(0, 6, N).astype(np.int64),
    }


class _Sightings:
    """Counts the records captured at a first sighting of their pair."""

    def __init__(self, compiler):
        self.compiler = compiler
        self.first = 0

    def around(self, call):
        stats = self.compiler.stats
        causes = dict(stats.fallback_causes)
        compiles = stats.compiles
        out = call()
        moved = [c for c, n in stats.fallback_causes.items() if n != causes[c]]
        if stats.compiles > compiles and moved[0] in FIRST_SIGHTINGS:
            self.first += 1
        return out


def _assert_same_machine_state(rt_c, rt_i):
    ex_c, ex_i = rt_c.system.executor, rt_i.system.executor
    assert ex_c.controller.mode_register == ex_i.controller.mode_register
    assert ex_c._current_mode is ex_i._current_mode
    assert rt_c.driver.stats.instructions == rt_i.driver.stats.instructions
    assert rt_c.total_energy() == pytest.approx(rt_i.total_energy(), rel=REL)
    assert rt_c.total_latency() == pytest.approx(rt_i.total_latency(), rel=REL)
    # every channel's bus ledger: counts exactly, float sums to 1e-9
    # (their summation order differs between the two paths)
    buses_c = ex_c.controller.buses
    buses_i = ex_i.controller.buses
    assert len(buses_c) == len(buses_i)
    for ch, (bc, bi) in enumerate(zip(buses_c, buses_i)):
        sc, si = bc.stats, bi.stats
        assert (sc.commands, sc.data_bytes) == (si.commands, si.data_bytes), ch
        assert sc.busy_time == pytest.approx(si.busy_time, rel=REL), ch
        assert sc.energy == pytest.approx(si.energy, rel=REL), ch


@pytest.mark.parametrize("seed", [3, 17, 40])
def test_table_records_price_like_interpretation(seed):
    data = _dataset(seed)

    def table(compile_):
        rt = PimRuntime.pcm(plan=True, compile=compile_)
        t = AnalyticsTable(rt, N)
        t.load_column("age", data["age"], 6)
        t.load_index("region", data["region"], 6)
        # two planes for the mode-switching plain ops
        a, b, out = (rt.pim_malloc(N, "analytics") for _ in range(3))
        rt.pim_write(a, (data["age"] & 1).astype(np.uint8))
        rt.pim_write(b, (data["region"] & 1).astype(np.uint8))
        return t, (a, b, out)

    (tc, plain_c), (ti, plain_i) = table(True), table(False)
    assert tc.compiler.enabled and not ti.compiler.enabled
    sightings = _Sightings(tc.compiler)
    rng = np.random.default_rng(seed)
    host_age = data["age"].copy()
    for step in range(90):
        roll = rng.random()
        if roll < 0.12:
            op = str(rng.choice(["xor", "and", "inv", "or"]))
            for rt, (a, b, out) in ((tc.runtime, plain_c), (ti.runtime, plain_i)):
                rt.pim_op(op, out, [a] if op == "inv" else [a, b])
        elif roll < 0.17:
            j = int(rng.integers(0, 6))
            plane = rng.integers(0, 2, N).astype(np.uint8)
            for t in (tc, ti):
                t.runtime.pim_write(t._slices["age"].planes[j], plane)
            host_age = (host_age & ~(1 << j)) | (plane.astype(np.int64) << j)
            for t in (tc, ti):
                t._host["age"] = host_age
                t.executed.clear()
        else:
            k = int(rng.choice([10, 30, 45]))
            filters = [("cmp", "age", str(rng.choice(["lt", "ge"])), k)]
            if rng.random() < 0.5:
                filters.append(("range", "region", 1, 3))
            aggregate = [("count",), ("sum", "age"), ("hist", "region")][
                int(rng.integers(0, 3))
            ]
            rc = sightings.around(
                lambda: tc.filter(*filters).aggregate(aggregate)
            )
            ri = ti.filter(*filters).aggregate(aggregate)
            assert (rc.popcount, rc.value, rc.groups) == (
                ri.popcount, ri.value, ri.groups
            ), step
            assert rc.latency_s == pytest.approx(ri.latency_s, rel=REL), step
            assert rc.energy_j == pytest.approx(ri.energy_j, rel=REL), step
        _assert_same_machine_state(tc.runtime, ti.runtime)
    stats = tc.compiler.stats
    assert stats.replays > 0 and stats.invalidations > 0
    assert sightings.first > 0
    tc.verify()
    ti.verify()


@pytest.mark.parametrize("seed", [5, 23])
def test_engine_records_price_like_interpretation(seed):
    config = ServiceConfig().system
    data = _dataset(seed)
    age = tuple(bitslice_vector_name("age", j) for j in range(6))
    region = tuple(bin_vector_name("region", b) for b in range(6))

    def engine(compile_):
        eng = ResidentPimEngine(
            config,
            runtime=PimRuntime.from_config(config, plan=True, compile=compile_),
        )
        for j, name in enumerate(age):
            eng.load_vector("t", name, (data["age"] >> j & 1).astype(np.uint8))
        for b, name in enumerate(region):
            eng.load_vector("t", name, (data["region"] == b).astype(np.uint8))
        return eng

    compiled, interpreted = engine(True), engine(False)
    sightings = _Sightings(compiled.analytics_compiler)
    rng = np.random.default_rng(seed)
    for step in range(70):
        roll = rng.random()
        if roll < 0.08:
            j = int(rng.integers(0, 6))
            bits = rng.integers(0, 2, N).astype(np.uint8)
            for eng in (compiled, interpreted):
                eng.update_vector("t", age[j], bits)
            continue
        calls = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.25:
                op = str(rng.choice(["xor", "and", "or"]))
                lo = int(rng.integers(0, 4))
                calls.append(QueryRequest(0, "t", op, region[lo : lo + 2], 0.0))
                continue
            filters = [("cmp", "age", str(rng.choice(["le", "gt"])),
                        int(rng.choice([12, 33])), 6)]
            if rng.random() < 0.5:
                filters.append(("range", "region", 2, 4))
            aggregate = [("count",), ("sum", "age", 6), ("hist", "region", 6)][
                int(rng.integers(0, 3))
            ]
            calls.append(AnalyticsRequest(0, "t", filters, aggregate, 0.0))
        got = sightings.around(lambda: compiled.execute(calls))
        want = interpreted.execute(calls)
        for c, i in zip(got, want):
            assert c.popcount == i.popcount and c.value == i.value, step
            assert c.groups == i.groups and np.array_equal(c.bits, i.bits), step
            assert c.steps == i.steps, step
            assert c.latency_s == pytest.approx(i.latency_s, rel=REL), step
            assert c.energy_j == pytest.approx(i.energy_j, rel=REL), step
        _assert_same_machine_state(compiled.runtime, interpreted.runtime)
    stats = compiled.analytics_compiler.stats
    assert stats.replays > 0 and stats.invalidations > 0
    assert sightings.first > 0
