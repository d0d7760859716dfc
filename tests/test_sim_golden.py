"""Golden simulated numbers of the end-to-end benchmark.

``sim_golden.json`` holds every ``sim_*`` metric the end-to-end
benchmark (``python -m benchmarks.e2e``) reports for its four
workloads, at smoke length, for seeds 1 and 2.  Smoke runs are
deterministic in simulated time, so the comparison is exact: a change
that moves any simulated latency, energy or throughput by one ULP fails
here.  Host-time metrics are not pinned.

A change that moves these numbers on purpose is a declared model
change.  Re-record the file with::

    PYTHONPATH=src python -m tests.test_sim_golden

and list every metric that moved, old -> new, in CHANGES.md with the
reason.  The unit suite checks seed 1; seed 2 is marked ``slow``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("sim_golden.json")
ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
#: the run length the smoke stream is cut from (BENCHMARK.json's
#: ``run_seconds`` when the file was recorded); pinned so that a change
#: to the benchmark contract does not silently move the stream
SECONDS = 8


def sim_metrics(seed: int, seconds: float, out_dir: Path) -> dict:
    """``{workload: {sim metric: value}}`` of one smoke run of all four
    workloads (each in its own subprocess, as the benchmark runs them)."""
    out = out_dir / f"sim_seed{seed}.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e", "--smoke",
            "--seed", str(seed), "--seconds", str(seconds), "--out", str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"e2e smoke run failed (seed {seed}):\n"
            + proc.stdout[-2000:] + proc.stderr[-2000:]
        )
    results = json.loads(out.read_text())
    return {
        workload: {
            name: value
            for name, value in sorted(result["e2e"].items())
            if name.startswith("sim_")
        }
        for workload, result in sorted(results.items())
    }


@pytest.mark.parametrize(
    "seed", [SEEDS[0]] + [pytest.param(s, marks=pytest.mark.slow) for s in SEEDS[1:]]
)
def test_sim_metrics_match_golden(seed, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = golden["seeds"][str(seed)]
    got = sim_metrics(seed, golden["seconds"], tmp_path)
    assert set(got) == set(expected), sorted(set(got) ^ set(expected))
    moved = [
        f"{workload} {name}: golden {value!r}, got {got[workload].get(name)!r}"
        for workload, metrics in sorted(expected.items())
        for name, value in sorted(metrics.items())
        # exact on purpose: a declared model change re-records the file
        if got[workload].get(name) != value
    ]
    extra = [
        f"{workload} {name}"
        for workload, metrics in got.items()
        for name in metrics
        if name not in expected[workload]
    ]
    assert not moved and not extra, "\n".join(moved + extra)


def record(out_dir: Path) -> dict:
    """Run every seed and rewrite ``sim_golden.json``."""
    golden = {
        "about": (
            "Every sim_* metric of python -m benchmarks.e2e --smoke, per seed "
            "and workload; see tests/test_sim_golden.py to re-record."
        ),
        "seconds": SECONDS,
        "seeds": {str(seed): sim_metrics(seed, SECONDS, out_dir) for seed in SEEDS},
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    print(f"wrote {GOLDEN_PATH}")
