"""Self-test of the end-to-end benchmark on smoke-length runs.

::

    python -m pytest benchmarks/e2e/test_e2e.py -q

Four smoke invocations (every workload at 1/50 length, each workload in
its own subprocess) back all the checks: two with the same seed, one
with another seed, one traced.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import ROOT
from benchmarks.e2e.compare import paired_verdict, verdict

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
#: deterministic outputs of a seeded run: simulated time and the stream
SIM_KEYS = (
    "sim_ops_per_s",
    "sim_p50_us",
    "sim_p99_us",
    "sim_busy_frac",
    "sim_nj_per_req",
    "slo_miss_frac",
    "generator_shift_s",
    "sim_samples",
)


def _smoke(tmp: Path, tag: str, *extra: str):
    out = tmp / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--out", str(out), *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return {
        "a": _smoke(tmp, "a"),
        "b": _smoke(tmp, "b"),
        "other_seed": _smoke(tmp, "other_seed", "--seed", "12"),
        "traced": _smoke(tmp, "traced", "--trace", "1"),
    }


@pytest.mark.parametrize("run, listed", [("a", "end_to_end"), ("traced", "per_layer")])
def test_every_benchmark_metric_printed_with_its_unit(runs, run, listed):
    results, stdout = runs[run]
    number = r"[-+0-9.e]+"
    for workload in WORKLOADS:
        assert results[workload]["correct"] and results[workload]["failed"] == 0
        for metric in BENCH[listed]:
            line = rf"^{workload} {re.escape(metric['name'])} {number} {re.escape(metric['unit'])}$"
            assert re.search(line, stdout, re.M), line
            assert results[workload]["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_same_seed_gives_identical_sim_metrics(runs):
    a, b = runs["a"][0], runs["b"][0]
    for workload in WORKLOADS:
        for key in SIM_KEYS:
            assert repr(a[workload]["e2e"][key]) == repr(b[workload]["e2e"][key]), (
                workload,
                key,
            )


def test_other_seed_changes_the_stream_and_verifies(runs):
    a, other = runs["a"][0], runs["other_seed"][0]
    for workload in WORKLOADS:
        assert other[workload]["correct"] and other[workload]["failed"] == 0
        assert other[workload]["oracle_checked"] > 0
        assert a[workload]["e2e"]["sim_nj_per_req"] != other[workload]["e2e"]["sim_nj_per_req"]


def test_traced_spans_are_well_formed(runs):
    results = runs["traced"][0]
    for workload in WORKLOADS:
        trace = json.loads(Path(results[workload]["chrome_trace"]).read_text())
        events = trace["traceEvents"]
        assert events, workload
        duration = {e["args"]["id"]: e["dur"] for e in events}
        self_us = dict(duration)
        for event in events:
            parent = event["args"]["parent"]
            if parent:
                assert parent in duration, (workload, event)
                self_us[parent] -= event["dur"]
        # microsecond floats: allow rounding, nothing more
        assert min(self_us.values()) >= -1e-3, workload
        assert sum(self_us.values()) <= trace["otherData"]["recorded_wall_us"], workload
        dispatches = [e for e in events if e["name"] == "scheduler.dispatch"]
        assert dispatches and all(e["args"]["request_ids"] for e in dispatches)


def test_fails_without_the_program_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    # no PYTHONPATH: it could lead back to this checkout's sources
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", WORKLOADS[0]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_labels():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(parent, [110.0, 111.0, 109.0, 110.5, 109.5], "higher", 0.1)["label"] == "improved"
    assert verdict(parent, [80.0, 81.0, 79.0, 80.5, 79.5], "higher", 0.1)["label"] == "regressed"
    assert verdict(parent, [99.8, 100.2, 100.0, 100.1, 99.9], "higher", 0.1)["label"] == "unchanged"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert verdict(noisy, [90.0, 95.0, 85.0, 92.0, 88.0], "higher", 0.1)["label"] == "unresolved"
    # every change run beats every parent run: resolved despite the spread
    assert verdict(noisy, [220.0, 240.0, 230.0, 225.0, 235.0], "higher", 0.1)["label"] == "improved"


def test_compare_sim_metrics_pair_by_pair():
    # seeds spread the values far more than any bound; pairs do not
    parent = [7.0, 7.8, 6.7, 7.9, 7.1]
    assert paired_verdict(parent, list(parent), "lower")["label"] == "unchanged"
    worse = [7.0, 7.8 * 1.15, 6.7, 7.9, 7.1]
    assert paired_verdict(parent, worse, "lower")["label"] == "regressed"
    assert paired_verdict(parent, [v * 0.9 for v in parent], "lower")["label"] == "improved"
    mixed = [7.0 * 0.8, 7.8 * 1.01, 6.7, 7.9, 7.1]
    assert paired_verdict(parent, mixed, "lower")["label"] == "regressed"
