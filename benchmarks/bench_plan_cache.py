"""Planner benchmark: uncached vs interpreted-plan vs compiled-plan.

A repeated-subexpression FastBit workload -- a small pool of unique
conjunctive range queries replayed many times, exactly the shape a
dashboard or a multi-user bitmap service produces -- runs on three
identical systems:

- *uncached*: ``PimRuntime(plan=False)`` + ``PimFastBit.query_many``,
  the PR 1 batched engine (every request executes);
- *interpreted*: ``PimRuntime(plan=True, compile=False)``, the
  query-plan compiler CSE-folds duplicate range-ORs/ANDs and serves
  repeats from the write-invalidated sub-result cache, one Python pass
  per wave;
- *compiled*: ``PimRuntime(plan=True)`` (compile on by default), the
  kernel compiler additionally freezes each query's to-host popcount
  into a replayed program and prices cache serves from memoized
  per-shape serve templates.

The planner arms are warmed with two unmeasured passes of the stream
(pass one populates the sub-result cache, pass two records the to-host
programs and builds the serve templates), then measured in steady
state.  Every arm's
host time is the best per-pass CPU time of :func:`bench_io.min_of_k`
windows.  All three runs
must answer byte-identically; the planner arms must price identically
(simulated latency/energy within 1e-9 relative -- the compiled path is
an execution strategy, never a pricing change).  The headline claim,
guarded by ``check_bench_regression.py``, is that the compiled path
clears **10x the PR-5 uncached wall-clock baseline** (~220 queries/s
-> >= 2200 queries/s).  Results land in ``BENCH_plan.json`` at the
repo root.
"""

import sys
from pathlib import Path

import numpy as np

from repro.apps.fastbit import RangeQuery
from repro.apps.fastbit_pim import PimFastBit
from repro.apps.star import ColumnSpec, synthetic_star_table
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.runtime.api import PimRuntime

try:
    from benchmarks.bench_io import min_of_k
except ImportError:  # run as a script: the benchmarks dir is sys.path[0]
    from bench_io import min_of_k

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_plan.json"

#: the PR-5 uncached wall rate this machine class recorded (queries/s);
#: the compiled path must clear ten times this
PR5_UNCACHED_BASELINE = 220.0
COMPILED_TARGET_SPEEDUP = 10.0

#: planner arms must price identically to this relative tolerance
SIM_PARITY_RTOL = 1e-9

#: small rank rows (1024 bits) so the index bitmaps span 32 chunks
GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=8,
    subarrays_per_bank=64,
    rows_per_subarray=128,
    mats_per_subarray=1,
    cols_per_mat=1024,
    mux_ratio=8,
)

N_CHUNKS = 32
N_EVENTS = N_CHUNKS * GEOM.row_bits  # 16384 events -> 16 rows per bitmap
POOL = 20  # unique queries
REPEATS = 8  # stream = POOL * REPEATS queries, pool order shuffled


def _query_pool(seed: int = 23) -> list:
    """POOL unique four-predicate range queries (ranges >= 2 bins)."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(POOL):
        predicates = []
        for spec in COLUMNS:
            lo = int(rng.integers(0, spec.n_bins - 2))
            hi = int(rng.integers(lo + 1, spec.n_bins))
            predicates.append((spec.name, lo, hi))
        pool.append(RangeQuery(tuple(predicates)))
    return pool


def _stream(pool: list, repeats: int, seed: int = 29) -> list:
    """The repeated-subexpression stream: every pool query, many times."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(repeats):
        order = rng.permutation(len(pool))
        stream.extend(pool[i] for i in order)
    return stream


COLUMNS = (
    ColumnSpec("energy", 16, "exponential"),
    ColumnSpec("pt", 8, "exponential"),
    ColumnSpec("eta", 8, "normal"),
    ColumnSpec("trigger", 8, "uniform"),
)


def _build_db(table, plan: bool, compile_: bool = True) -> PimFastBit:
    system = PinatuboSystem(get_technology("pcm"), GEOM)
    runtime = PimRuntime(system, plan=plan, compile=compile_)
    return PimFastBit(runtime, table)


def _run_arm(table, stream, plan: bool, compile_: bool, warm: bool):
    """Build one arm, optionally warm it, and measure the stream.

    Warming runs the stream twice unmeasured: the first pass fills the
    sub-result cache (everything executes), the second runs all-serve
    waves so the kernel compiler records its to-host programs and
    builds its serve templates -- the measured passes are then genuine
    steady state for both planner arms.  The next pass's results are
    returned (the uncached arm's first, cold pass); the wall time is
    :func:`min_of_k` over further passes, whose answers are identical.
    """
    db = _build_db(table, plan=plan, compile_=compile_)
    if warm:
        db.query_many(list(stream))
        db.query_many(list(stream))
    results = db.query_many(list(stream))
    wall = min_of_k(lambda: db.query_many(list(stream)))
    return db, results, wall


def _sim_totals(results) -> tuple:
    return (
        sum(r.latency for r in results),
        sum(r.energy for r in results),
    )


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def run_plan_benchmark(repeats: int = REPEATS) -> dict:
    table = synthetic_star_table(N_EVENTS, columns=COLUMNS, seed=31)
    stream = _stream(_query_pool(), repeats)
    n_queries = len(stream)

    # -- uncached batched baseline (PR 1 engine, nothing to warm) ------------
    _, plain_results, plain_wall = _run_arm(
        table, stream, plan=False, compile_=True, warm=False
    )
    plain_sim, plain_energy = _sim_totals(plain_results)

    # -- interpreted planner (CSE + sub-result cache, no kernel compiler) ----
    db_interp, interp_results, interp_wall = _run_arm(
        table, stream, plan=True, compile_=False, warm=True
    )
    interp_sim, interp_energy = _sim_totals(interp_results)

    # -- compiled planner (to-host programs + serve templates) ---------------
    db_comp, comp_results, comp_wall = _run_arm(
        table, stream, plan=True, compile_=True, warm=True
    )
    comp_sim, comp_energy = _sim_totals(comp_results)

    # byte-identical answers across all three arms
    plain_hits = [r.hits for r in plain_results]
    assert plain_hits == [r.hits for r in interp_results]
    assert plain_hits == [r.hits for r in comp_results]
    assert all(r.latency > 0 and r.energy > 0 for r in comp_results)
    # the compiled path is an execution strategy, not a pricing change:
    # simulated cost must match the interpreted planner to float noise
    assert _rel_close(comp_sim, interp_sim, SIM_PARITY_RTOL), (
        f"compiled sim latency {comp_sim!r} != interpreted {interp_sim!r}"
    )
    assert _rel_close(comp_energy, interp_energy, SIM_PARITY_RTOL), (
        f"compiled sim energy {comp_energy!r} != interpreted {interp_energy!r}"
    )

    interp_stats = db_interp.runtime.plan_stats
    comp_stats = db_comp.runtime.plan_stats
    comp_planner = db_comp.runtime.planner
    return {
        "workload": {
            "n_events": N_EVENTS,
            "chunks_per_vector": N_CHUNKS,
            "unique_queries": POOL,
            "n_queries": n_queries,
            "row_bits": GEOM.row_bits,
            "warmup_passes": 2,
            "smoke": repeats != REPEATS,
        },
        "uncached": {
            "wall_s": plain_wall,
            "queries_per_s": n_queries / plain_wall,
            "sim_latency_s": plain_sim,
            "sim_ops_per_s": n_queries / plain_sim,
        },
        "planned": {
            "wall_s": interp_wall,
            "queries_per_s": n_queries / interp_wall,
            "sim_latency_s": interp_sim,
            "sim_ops_per_s": n_queries / interp_sim,
            "plan": interp_stats.to_dict(),
            "cache": db_interp.runtime.planner.cache.to_dict(),
        },
        "compiled": {
            "wall_s": comp_wall,
            "queries_per_s": n_queries / comp_wall,
            "sim_latency_s": comp_sim,
            "sim_ops_per_s": n_queries / comp_sim,
            "plan": comp_stats.to_dict(),
            "cache": comp_planner.cache.to_dict(),
            "programs": comp_planner.programs.to_dict(),
        },
        "sim_speedup": plain_sim / interp_sim,
        "wall_speedup": plain_wall / interp_wall,
        "wall_speedup_compiled": plain_wall / comp_wall,
        "compiled_queries_per_s": n_queries / comp_wall,
        "pr5_uncached_baseline": PR5_UNCACHED_BASELINE,
        "compiled_vs_pr5_baseline": (
            (n_queries / comp_wall) / PR5_UNCACHED_BASELINE
        ),
    }


def _write_result(result: dict) -> None:
    try:
        from benchmarks.bench_io import write_bench
    except ImportError:  # run as a script: the benchmarks dir is sys.path[0]
        from bench_io import write_bench

    write_bench(RESULT_PATH, "plan_cache", result)


def _report(result: dict) -> str:
    return (
        f"plan cache ({result['workload']['n_queries']} queries, "
        f"{result['workload']['unique_queries']} unique): "
        f"uncached {result['uncached']['queries_per_s']:.0f} q/s, "
        f"interpreted {result['planned']['queries_per_s']:.0f} q/s, "
        f"compiled {result['compiled']['queries_per_s']:.0f} q/s "
        f"({result['compiled_vs_pr5_baseline']:.1f}x the PR-5 baseline of "
        f"{result['pr5_uncached_baseline']:.0f} q/s) -> {RESULT_PATH.name}"
    )


def _check(result: dict, smoke: bool) -> None:
    assert result["sim_speedup"] >= 1.5, (
        f"planner regression: simulated speedup "
        f"{result['sim_speedup']:.2f}x < 1.5x"
    )
    if smoke:
        return  # wall-clock targets need the full stream to amortise
    assert result["wall_speedup"] >= 1.5, (
        f"planner regression: wall speedup "
        f"{result['wall_speedup']:.2f}x < 1.5x"
    )
    assert (
        result["compiled_vs_pr5_baseline"] >= COMPILED_TARGET_SPEEDUP
    ), (
        f"kernel compiler regression: compiled path at "
        f"{result['compiled_queries_per_s']:.0f} q/s, "
        f"{result['compiled_vs_pr5_baseline']:.1f}x the PR-5 baseline "
        f"(target {COMPILED_TARGET_SPEEDUP:.0f}x)"
    )


def test_plan_cache_speedup(once):
    """Interpreted planner >= 1.5x sim and wall; compiled path >= 10x
    the PR-5 uncached wall baseline; writes BENCH_plan.json."""
    result = once(run_plan_benchmark)
    _write_result(result)
    print()
    print(_report(result))
    _check(result, smoke=False)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    res = run_plan_benchmark(repeats=2 if smoke else REPEATS)
    _write_result(res)
    print(_report(res))
    _check(res, smoke=smoke)
