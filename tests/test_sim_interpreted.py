"""The golden simulated numbers, re-derived by the priced interpreter.

Every compiled fast path (to-host programs, serve templates, analytics
records) must price exactly what interpreting the same stream prices.
This test plays the end-to-end benchmark's smoke streams with every
runtime built ``compile=False`` -- ``PimRuntime.from_config`` is patched
in this process, the benchmark itself is unchanged -- and checks every
``sim_*`` metric against ``tests/sim_golden.json`` (recorded on the
compiled stack) to 1e-9 relative.  Seed 2 is marked ``slow``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.runtime.api import PimRuntime
from tests.test_sim_golden import GOLDEN_PATH, SEEDS

WORKLOADS = ("analytics", "cold_wide", "hot_reads", "write_churn")
REL = 1e-9


@pytest.fixture
def interpreted(monkeypatch):
    """Build every runtime of the process as the priced interpreter."""
    build = PimRuntime.from_config.__func__

    def from_config(cls, config, plan=False, plan_cache_bytes=64 << 20, compile=True):
        return build(cls, config, plan=plan, plan_cache_bytes=plan_cache_bytes,
                     compile=False)

    monkeypatch.setattr(PimRuntime, "from_config", classmethod(from_config))


@pytest.mark.parametrize(
    "seed", [SEEDS[0]] + [pytest.param(s, marks=pytest.mark.slow) for s in SEEDS[1:]]
)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_interpreted_sim_metrics_match_golden(workload, seed, interpreted):
    from benchmarks.e2e.runner import run_workload

    golden = json.loads(GOLDEN_PATH.read_text())
    expected = golden["seeds"][str(seed)][workload]
    result = run_workload(workload, seed, golden["seconds"], smoke=True)
    assert result["correct"] and not result["failed"]
    got = {k: v for k, v in result["e2e"].items() if k.startswith("sim_")}
    assert set(got) == set(expected)
    moved = [
        f"{name}: golden {value!r}, interpreted {got[name]!r}"
        for name, value in sorted(expected.items())
        if not math.isclose(got[name], value, rel_tol=REL, abs_tol=0.0)
    ]
    assert not moved, "\n".join(moved)
