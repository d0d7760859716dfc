"""Engine microbenchmark: batched pricing throughput.

The perf-regression harness for the batched execution engine.  A fixed
FastBit workload -- bitmap vectors spanning **64 rank-row chunks**, a
stream of **100 conjunctive range queries** -- runs through
``PimFastBit.query_many``: one ``execute_batch`` per logical operation
and one per query stream.  Every query's hits are checked against
``FastBitDB.query_oracle``, which evaluates the range predicates
straight off the binned columns.

The benchmark measures the *simulator's own* wall-clock throughput
(queries/second, priced commands/second and simulated ops/second); the
simulated cost itself is pinned by ``tests/core/test_batch_equivalence.py``.
``check_bench_regression.py`` guards the top-level ``queries_per_s``
against the absolute floor committed in ``bench_baselines.json``.
Results land in ``BENCH_engine.json`` at the repo root.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.apps.fastbit import FastBitDB, RangeQuery
from repro.apps.fastbit_pim import PimFastBit
from repro.apps.star import ColumnSpec, synthetic_star_table
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.runtime.api import PimRuntime

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: small rank rows (1024 bits) so the index bitmaps span exactly 64 chunks
GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=8,
    subarrays_per_bank=32,
    rows_per_subarray=128,
    mats_per_subarray=1,
    cols_per_mat=1024,
    mux_ratio=8,
)

N_CHUNKS = 64
N_EVENTS = N_CHUNKS * GEOM.row_bits  # 65536 events -> 64 rows per bitmap
N_QUERIES = 100

COLUMNS = (
    ColumnSpec("energy", 16, "exponential"),
    ColumnSpec("charge", 8, "normal"),
)


def _queries(seed: int = 17) -> list:
    """100 two-predicate range queries (ranges >= 2 bins wide)."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(N_QUERIES):
        predicates = []
        for spec in COLUMNS:
            lo = int(rng.integers(0, spec.n_bins - 2))
            hi = int(rng.integers(lo + 1, spec.n_bins))
            predicates.append((spec.name, lo, hi))
        queries.append(RangeQuery(tuple(predicates)))
    return queries


def _build_db(table) -> PimFastBit:
    system = PinatuboSystem(get_technology("pcm"), GEOM)
    runtime = PimRuntime(system)
    return PimFastBit(runtime, table)


def _run_engine_benchmark() -> dict:
    from repro.memsim.controller import perf_counters

    table = synthetic_star_table(N_EVENTS, columns=COLUMNS, seed=11)
    queries = _queries()

    db = _build_db(table=table)
    c0 = perf_counters.batch_commands
    t0 = time.perf_counter()
    results = db.query_many(queries)
    wall_s = time.perf_counter() - t0
    commands = perf_counters.batch_commands - c0

    # every answer must match the columnar oracle
    oracle = FastBitDB(table, functional=False)
    assert [r.hits for r in results] == [oracle.query_oracle(q) for q in queries]

    sim_ops = sum(r.in_memory_steps for r in results)
    queries_per_s = N_QUERIES / wall_s
    result = {
        "workload": {
            "n_events": N_EVENTS,
            "chunks_per_vector": N_CHUNKS,
            "n_queries": N_QUERIES,
            "row_bits": GEOM.row_bits,
        },
        "batched": {
            "wall_s": wall_s,
            "commands_priced": commands,
            "queries_per_s": queries_per_s,
            "commands_per_s": commands / wall_s,
            "sim_ops_per_s": sim_ops / wall_s,
        },
        "queries_per_s": queries_per_s,
    }
    return result


def _write_result(result: dict) -> None:
    try:
        from benchmarks.bench_io import write_bench
    except ImportError:  # run as a script: the benchmarks dir is sys.path[0]
        from bench_io import write_bench

    write_bench(RESULT_PATH, "engine_throughput", result)


def test_engine_throughput(once):
    """The 64-chunk, 100-query FastBit stream answers exactly as the
    columnar oracle; writes BENCH_engine.json."""
    result = once(_run_engine_benchmark)
    _write_result(result)
    print()
    print(
        f"engine throughput: batched {result['batched']['wall_s']:.2f}s, "
        f"{result['queries_per_s']:.0f} queries/s "
        f"({result['batched']['commands_per_s']:.0f} cmd/s) -> {RESULT_PATH.name}"
    )


if __name__ == "__main__":
    res = _run_engine_benchmark()
    _write_result(res)
    print(json.dumps(res, indent=2))
