"""Kernel-compiler overhead: compile cost vs steady-state break-even.

The compiler only pays off if its one-time cost (recording a to-host
call and freezing it into a program, building the serve templates that
price cache serves) is amortised by cheaper steady-state passes.  On the
``bench_plan_cache`` workload every query's popcount shares one to-host
shape, so the compiled arm records one program and replays it on every
later call.  This benchmark measures both sides:

- *compile cost*: the wall-clock spent inside program lowering
  (``PlanStats.compile_seconds``) plus the slowdown of the recording
  pass relative to the interpreted planner's equivalent pass;
- *steady-state saving*: interpreted minus compiled per-pass wall once
  both arms serve everything from cache, each the best per-pass CPU time
  of :func:`bench_io.min_of_k` windows.

``break_even_passes`` is how many steady-state stream passes repay the
total warm-up overhead; fractional values below 1 mean the compiler
pays for itself before the first measured pass completes.  Results
land in ``BENCH_compile.json`` at the repo root.
"""

import sys
import time
from pathlib import Path

from repro.apps.star import synthetic_star_table

try:
    from benchmarks.bench_io import TIMER_WINDOWS, min_of_k
    from benchmarks.bench_plan_cache import (
        COLUMNS, N_EVENTS, REPEATS, _build_db, _query_pool, _stream,
    )
except ImportError:  # run as a script: the benchmarks dir is sys.path[0]
    from bench_io import TIMER_WINDOWS, min_of_k
    from bench_plan_cache import (
        COLUMNS, N_EVENTS, REPEATS, _build_db, _query_pool, _stream,
    )

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_compile.json"


def _timed_pass(db, stream) -> float:
    t0 = time.perf_counter()
    db.query_many(list(stream))
    return time.perf_counter() - t0


def run_compile_overhead(repeats: int = REPEATS) -> dict:
    table = synthetic_star_table(N_EVENTS, columns=COLUMNS, seed=31)
    stream = _stream(_query_pool(), repeats)
    n_queries = len(stream)

    # Both planner arms walk the same lifecycle: pass 1 executes and
    # fills the cache, pass 2 serves (and, compiled, records programs
    # and builds serve templates), passes 3+ are steady state.
    db_comp = _build_db(table, plan=True, compile_=True)
    comp_cold = _timed_pass(db_comp, stream)
    comp_record = _timed_pass(db_comp, stream)
    comp_steady = min_of_k(lambda: db_comp.query_many(list(stream)))
    comp_stats = db_comp.runtime.plan_stats

    db_interp = _build_db(table, plan=True, compile_=False)
    interp_cold = _timed_pass(db_interp, stream)
    interp_record = _timed_pass(db_interp, stream)
    interp_steady = min_of_k(lambda: db_interp.query_many(list(stream)))

    # warm-up overhead the compiler added on the two non-steady passes
    warmup_overhead = max(
        0.0, (comp_cold + comp_record) - (interp_cold + interp_record)
    )
    saving_per_pass = interp_steady - comp_steady
    break_even = (
        warmup_overhead / saving_per_pass if saving_per_pass > 0 else None
    )
    return {
        "workload": {
            "n_queries": n_queries,
            "steady_windows": TIMER_WINDOWS,
            "smoke": repeats != REPEATS,
        },
        "compiled": {
            "cold_pass_s": comp_cold,
            "record_pass_s": comp_record,
            "steady_pass_s": comp_steady,
            "compile_seconds": comp_stats.compile_seconds,
            "compilations": comp_stats.compilations,
            "program_hits": comp_stats.program_hits,
        },
        "interpreted": {
            "cold_pass_s": interp_cold,
            "record_pass_s": interp_record,
            "steady_pass_s": interp_steady,
        },
        "warmup_overhead_s": warmup_overhead,
        "steady_saving_per_pass_s": saving_per_pass,
        "break_even_passes": break_even,
        "steady_speedup": (
            interp_steady / comp_steady if comp_steady > 0 else None
        ),
    }


def _write_result(result: dict) -> None:
    try:
        from benchmarks.bench_io import write_bench
    except ImportError:
        from bench_io import write_bench

    write_bench(RESULT_PATH, "compile_overhead", result)


def _report(result: dict) -> str:
    comp = result["compiled"]
    be = result["break_even_passes"]
    be_txt = f"{be:.2f}" if be is not None else "n/a (no steady saving)"
    return (
        f"compile overhead ({result['workload']['n_queries']} queries/pass): "
        f"{comp['compilations']} programs in {comp['compile_seconds']*1e3:.2f}ms, "
        f"warm-up overhead {result['warmup_overhead_s']*1e3:.1f}ms, "
        f"steady saving {result['steady_saving_per_pass_s']*1e3:.1f}ms/pass, "
        f"break-even {be_txt} passes -> {RESULT_PATH.name}"
    )


def test_compile_overhead(once):
    """Compiling must pay for itself within a handful of steady passes;
    writes BENCH_compile.json."""
    result = once(run_compile_overhead)
    _write_result(result)
    print()
    print(_report(result))
    assert result["compiled"]["compilations"] >= 1
    assert result["steady_saving_per_pass_s"] > 0
    assert result["break_even_passes"] is not None
    assert result["break_even_passes"] <= 10.0


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    res = run_compile_overhead(repeats=2 if smoke else REPEATS)
    _write_result(res)
    print(_report(res))
    assert res["compiled"]["compilations"] >= 1
    if not smoke:
        assert res["steady_saving_per_pass_s"] > 0, (
            "kernel compiler never beats the interpreted planner in steady "
            "state"
        )
