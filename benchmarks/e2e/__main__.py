"""Command line of the end-to-end serving benchmark.

::

    python -m benchmarks.e2e [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--smoke] [--out PATH]

With ``--workload`` the workload runs in this process.  Without it each
workload of ``spec.json`` runs in its own subprocess, one after another.
Every metric prints as one ``workload metric value unit`` line; a
single-workload run ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}`` carrying the end-to-end metrics of
``BENCHMARK.json`` (or, with ``--trace 1``, its per-layer metrics).  The
exit code is non-zero when any result disagreed with the numpy oracle or
any request failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import ROOT, use_checkout_sources

HERE = Path(__file__).resolve().parent

#: metrics printed beside BENCHMARK.json's end-to-end list
_EXTRA_UNITS = {
    "sim_p99_us": "sim-us",
    "slo_miss_frac": "fraction",
    "fail_frac": "fraction",
    "generator_shift_s": "sim-s",
    "sim_samples": "count",
    "host_req_per_s_spread": "fraction",
    "host_req_per_s_raw": "req/s",
    "setup_s_raw": "s",
    "machine_slowdown": "x",
}


def _parse(argv):
    spec = json.loads((HERE / "spec.json").read_text())
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["run"]["default_seed"])
    # the benchmark contract passes BENCHMARK.json's run_seconds here;
    # it is also the default, so the contract alone sizes the windows
    parser.add_argument(
        "--seconds",
        type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv), list(spec["workloads"])


def _run_one(args) -> int:
    if not use_checkout_sources():
        return 2
    from benchmarks.e2e.runner import run_workload

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke
    )
    values = {
        name: value if isinstance(value, int) else float(value)
        for name, value in (result["layers"] if args.trace else result["e2e"]).items()
    }
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if not args.trace:
        units.update(_EXTRA_UNITS)
    for name, unit in units.items():
        print(f"{args.workload} {name} {values[name]!r} {unit}")
    for error in result["errors"]:
        print(f"{args.workload} oracle: {error}", file=sys.stderr)
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
    }
    if args.out:
        args.out.write_text(json.dumps({args.workload: result}, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["correct"] and not result["failed"] else 1


def _run_all(args, workloads) -> int:
    """Each workload in its own subprocess; merges their ``--out`` files."""
    status = 0
    merged = {}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    for name in workloads:
        part = out_dir / f"part_{name}_{os.getpid()}.json"
        cmd = [
            sys.executable, "-m", "benchmarks.e2e", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(part),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, timeout=900)
        status = status or proc.returncode
        if part.is_file():
            merged.update(json.loads(part.read_text()))
            part.unlink()
    if args.out:
        args.out.write_text(json.dumps(merged, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    args, workloads = _parse(argv)
    if args.workload:
        return _run_one(args)
    return _run_all(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
