"""Paired comparison of benchmark runs from a parent and a change.

::

    python -m benchmarks.e2e.compare --parent P1.json P2.json ... \\
                                     --change C1.json C2.json ...

Each file is the ``--out`` of one benchmark invocation, from runs that
alternated between the two commits (parent, change, change, parent, ...)
with identical settings; ``Pi`` and ``Ci`` form pair ``i`` and must use
the same seed.  One row is printed per workload and metric: each side's
median and quartiles, the change, the pairs the change won, and a label.

Simulated metrics (``sim_*``) are a pure function of the seed, so each
pair is compared exactly: the row is ``regressed`` when any pair got
worse by more than :data:`SIM_REL_TOL` (relative), ``improved`` when
none did and some pair got better by more than that, and ``unchanged``
otherwise.  Their ``gain`` is the median of the per-pair changes.

Host metrics are noisy and use the bounds of ``BENCHMARK.json``:

- ``unresolved``: the parent's own runs spread (inter-quartile range
  over median) wider than the metric's bound, and not every run of the
  change beat every run of the parent;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``improved``: the change won at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  parent's inter-quartile range;
- ``unchanged``: none of the above.

The unscaled host metrics (``*_raw``, see README.md) are compared the
same way, with the bound of their scaled counterpart, so a change whose
scaled and unscaled host time disagree shows.  Per-layer metrics have no
bound, so they are never unresolved or regressed.  The exit code is 1
when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e import ROOT

#: relative change of a simulated metric within one pair that counts
SIM_REL_TOL = 1e-9

#: unscaled host metrics compared beside the scaled ones
RAW = {"host_req_per_s_raw": "host_req_per_s", "setup_s_raw": "setup_s"}


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _sign(better: str) -> float:
    return 1.0 if better == "higher" else -1.0


def verdict(
    parent: List[float], change: List[float], better: str, bound: Optional[float]
) -> dict:
    """Compare paired runs of one host or per-layer metric."""
    sign = _sign(better)
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    gain = sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    if bound is not None and spread > bound and not beats_all:
        label = "unresolved"
    elif bound is not None and gain < -bound:
        label = "regressed"
    elif wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        label = "improved"
    else:
        label = "unchanged"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "gain": gain,
        "wins": wins,
        "pairs": len(pairs),
        "label": label,
    }


def paired_verdict(parent: List[float], change: List[float], better: str) -> dict:
    """Compare one simulated metric pair by pair (same seed both sides)."""
    sign = _sign(better)
    gains = [
        sign * (c - p) / abs(p) if p else sign * (c - p) for p, c in zip(parent, change)
    ]
    wins = sum(1 for g in gains if g > SIM_REL_TOL)
    if any(g < -SIM_REL_TOL for g in gains):
        label = "regressed"
    elif wins:
        label = "improved"
    else:
        label = "unchanged"
    return {
        "parent": _quartiles(parent),
        "change": _quartiles(change),
        "gain": statistics.median(gains),
        "wins": wins,
        "pairs": len(gains),
        "label": label,
    }


def _runs(files: List[Path]) -> Dict[str, List[dict]]:
    """Each workload's results, in file order."""
    out: Dict[str, List[dict]] = {}
    for path in files:
        for workload, result in json.loads(path.read_text()).items():
            out.setdefault(workload, []).append(result)
    return out


def _values(results: List[dict]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            out.setdefault(name, []).append(metric["value"])
        # untraced runs only: a traced run's metrics are the per-layer ones
        for raw, scaled in RAW.items():
            if scaled in result["metrics"]:
                out.setdefault(raw, []).append(result["e2e"][raw])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare")
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change need the same number of runs (pairs)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent_runs, change_runs = _runs(args.parent), _runs(args.change)
    regressed = False
    print(
        f"{'workload':<12} {'metric':<32} {'parent median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'gain':>8} {'wins':>6}  label"
    )
    for workload in sorted(parent_runs.keys() & change_runs.keys()):
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        seeds = [(p["seed"], c["seed"]) for p, c in zip(p_runs, c_runs)]
        if len(p_runs) != len(c_runs) or any(p != c for p, c in seeds):
            parser.error(f"{workload}: pair i must run the same seed on both sides")
        parent, change = _values(p_runs), _values(c_runs)
        for name in sorted(parent.keys() & change.keys()):
            metric = spec.get(RAW.get(name, name))
            if metric is None:
                continue
            if name.startswith("sim_"):
                v = paired_verdict(parent[name], change[name], metric["better"])
            else:
                v = verdict(parent[name], change[name], metric["better"], metric.get("bound"))
            regressed |= v["label"] == "regressed"
            p1, pm, p3 = v["parent"]
            c1, cm, c3 = v["change"]
            print(
                f"{workload:<12} {name:<32} "
                f"{f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':>36} "
                f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>36} "
                f"{v['gain']:>+8.2%} {v['wins']:>3}/{v['pairs']:<2}  {v['label']}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
