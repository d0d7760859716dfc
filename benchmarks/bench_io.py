"""Shared result-file writer and wall timer for the ``BENCH_*.json``
artifacts.

Every benchmark that records results at the repo root writes through
:func:`write_bench`, so all artifacts share one top-level schema::

    {"bench": "<name>", "schema": 2,
     "env": {"git_rev": ..., "python": ..., "numpy": ...},
     ...payload...}

``bench`` names the producing benchmark and ``schema`` versions the
header itself -- ``check_bench_regression.py`` and CI tooling key on
both instead of sniffing file shapes.  ``env`` pins the provenance of
the numbers: the commit they were measured at and the interpreter and
numpy versions that produced them, so a regression can be told apart
from an environment change.

Every host-time rate the artifacts gate is timed by :func:`min_of_k`, in
process CPU time.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable

import numpy as np

#: bump when the common header changes shape
BENCH_SCHEMA = 2

#: default :func:`min_of_k` windows and their minimum length; ten
#: windows outlast the bursts of host contention a shared machine shows
TIMER_WINDOWS = 10
TIMER_MIN_WINDOW_S = 0.05

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _git_rev() -> "str | None":
    """Short hash of HEAD, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def bench_env() -> dict:
    """The provenance block embedded in every artifact header."""
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def write_bench(path: Path, name: str, payload: dict) -> dict:
    """Write one benchmark artifact with the common header; returns it."""
    if not payload.keys().isdisjoint(("bench", "schema", "env")):
        raise ValueError("payload must not carry the reserved header keys")
    result = {
        "bench": name,
        "schema": BENCH_SCHEMA,
        "env": bench_env(),
        **payload,
    }
    Path(path).write_text(json.dumps(result, indent=2) + "\n")
    return result


def min_of_k(
    run_pass: Callable[[], object],
    k: int = TIMER_WINDOWS,
    min_window_s: float = TIMER_MIN_WINDOW_S,
) -> float:
    """Best process-CPU seconds per ``run_pass()`` call over ``k`` windows.

    Each window repeats the pass until at least ``min_window_s`` of CPU
    time has elapsed and yields its mean pass time; the minimum over
    windows is the scheduling-noise-free estimate (the ``timeit``
    convention).  The clock is :func:`time.process_time`, so time the
    process spends descheduled while a co-tenant holds the core does
    not count; the benchmarks are single-threaded, so CPU time is the
    host time their work takes.
    """
    best = None
    for _ in range(k):
        passes, t0 = 0, time.process_time()
        while True:
            run_pass()
            passes += 1
            elapsed = time.process_time() - t0
            if elapsed >= min_window_s:
                break
        per_pass = elapsed / passes
        best = per_pass if best is None else min(best, per_pass)
    return best
