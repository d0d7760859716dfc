"""Engine microbenchmark: batched pricing throughput.

The perf-regression harness for the batched execution engine.  A fixed
FastBit workload -- bitmap vectors spanning **64 rank-row chunks**, a
stream of **100 conjunctive range queries** -- runs through
``PimFastBit.query_many``: one ``execute_batch`` per logical operation
and one per query stream.  Every query's hits are checked against
``FastBitDB.query_oracle``, which evaluates the range predicates
straight off the binned columns.

A second, **accumulation** arm issues wide AND/XOR ops shaped like the
e2e ``cold_wide`` workload: 2-16 operands of 4-row vectors, every chunk
intra-subarray, so on PCM (one-step AND/XOR limit 2) each op runs
``n - 1`` pairwise accumulation passes per chunk.  Its bits are checked
against numpy and its pricing (1e-12 relative) against the serial
combine-step reference.  Both arms' rates are the best per-pass CPU time
of :func:`bench_io.min_of_k` windows of at least 50 ms each, timed
after the checked pass.

The benchmark measures the *simulator's own* wall-clock throughput
(queries/second, priced commands/second and simulated ops/second); the
simulated cost itself is pinned by ``tests/core/test_batch_equivalence.py``.
``check_bench_regression.py`` guards the top-level ``queries_per_s`` and
``accumulation_queries_per_s`` against the absolute floors committed in
``bench_baselines.json``.  Results land in ``BENCH_engine.json`` at the
repo root.
"""

import json
from pathlib import Path

import numpy as np

from repro.apps.fastbit import FastBitDB, RangeQuery
from repro.apps.fastbit_pim import PimFastBit
from repro.apps.star import ColumnSpec, synthetic_star_table
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.runtime.api import PimRuntime

try:
    from benchmarks.bench_io import TIMER_MIN_WINDOW_S, TIMER_WINDOWS, min_of_k
except ImportError:  # run as a script: the benchmarks dir is sys.path[0]
    from bench_io import TIMER_MIN_WINDOW_S, TIMER_WINDOWS, min_of_k

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
    results = db.query_many(queries)
    commands = perf_counters.batch_commands - c0

    # every answer must match the columnar oracle
    oracle = FastBitDB(table, functional=False)
    assert [r.hits for r in results] == [oracle.query_oracle(q) for q in queries]
    wall_s = min_of_k(lambda: db.query_many(queries))

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


#: the e2e cold_wide geometry: 1024-bit rows, four subarrays per bank
ACC_GEOM = MemoryGeometry(
    channels=4,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=4,
    subarrays_per_bank=4,
    rows_per_subarray=256,
    mats_per_subarray=1,
    cols_per_mat=1024,
    mux_ratio=8,
)
ACC_ROWS = 4  # chunks per vector
ACC_VECTORS = 32
ACC_DESTS = 8  # destination vectors, used round-robin
ACC_OPS = 200
ACC_REL = 1e-12


def _acc_frames(v: int) -> list:
    """Vector ``v``: chunk ``c`` in subarray ``c`` of bank 0, row ``v``,
    so every op's chunks are intra-subarray."""
    return [
        ACC_GEOM.rows_per_subarray * c + v for c in range(ACC_ROWS)
    ]


def _acc_stream(seed: int = 23) -> list:
    """``ACC_OPS`` requests ``(op, dest, sources)`` of 2-16 operands."""
    rng = np.random.default_rng(seed)
    stream = []
    for i in range(ACC_OPS):
        op = ("and", "xor")[int(rng.integers(0, 2))]
        n = int(rng.integers(2, 17))
        srcs = rng.choice(ACC_VECTORS, size=n, replace=False)
        dest = _acc_frames(ACC_VECTORS + i % ACC_DESTS)
        stream.append((op, dest, [_acc_frames(int(v)) for v in srcs]))
    return stream


def _acc_system(data: np.ndarray) -> PinatuboSystem:
    system = PinatuboSystem(get_technology("pcm"), ACC_GEOM)
    for v in range(ACC_VECTORS):
        system.executor.write_vector(_acc_frames(v), data[v])
    return system


def _play(system: PinatuboSystem, stream: list) -> list:
    n_bits = ACC_ROWS * ACC_GEOM.row_bits
    bitwise = system.executor.bitwise
    return [bitwise(op, dest, srcs, n_bits) for op, dest, srcs in stream]


def _run_accumulation_benchmark() -> dict:
    """Oracle- and reference-checked wide AND/XOR stream; best-of-k rate."""
    n_bits = ACC_ROWS * ACC_GEOM.row_bits
    data = np.random.default_rng(29).integers(
        0, 2, (ACC_VECTORS, n_bits), dtype=np.uint8
    )
    stream = _acc_stream()
    system = _acc_system(data)
    # the serial combine-step loop, the row-parallel path's reference
    reference = _acc_system(data)
    reference.executor._vector_chunks = lambda *args: None

    steps = 0
    for op, dest, srcs in stream:
        got = system.executor.bitwise(op, dest, srcs, n_bits)
        ref = reference.executor.bitwise(op, dest, srcs, n_bits)
        ufunc = {"and": np.bitwise_and, "xor": np.bitwise_xor}[op]
        oracle = ufunc.reduce(data[[f[0] for f in srcs]], axis=0)
        bits, _ = system.executor.read_vector(dest, n_bits)
        assert np.array_equal(bits, oracle), "accumulation bits differ from numpy"
        assert got.steps == ref.steps == ACC_ROWS * (len(srcs) - 1)
        assert abs(got.latency - ref.latency) <= ACC_REL * ref.latency
        assert abs(got.energy - ref.energy) <= ACC_REL * ref.energy
        steps += got.steps

    per_pass = min_of_k(lambda: _play(system, stream))
    return {
        "n_ops": ACC_OPS,
        "rows_per_vector": ACC_ROWS,
        "operands": [2, 16],
        "steps_per_op": steps / ACC_OPS,
        "windows": TIMER_WINDOWS,
        "min_window_s": TIMER_MIN_WINDOW_S,
        "queries_per_s": ACC_OPS / per_pass,
    }


def _run_benchmarks() -> dict:
    """Both arms; the accumulation rate is also a top-level key so the
    regression guard can floor it."""
    result = _run_engine_benchmark()
    result["accumulation"] = _run_accumulation_benchmark()
    result["accumulation_queries_per_s"] = result["accumulation"]["queries_per_s"]
    return result


def _write_result(result: dict) -> None:
    try:
        from benchmarks.bench_io import write_bench
    except ImportError:  # run as a script: the benchmarks dir is sys.path[0]
        from bench_io import write_bench

    write_bench(RESULT_PATH, "engine_throughput", result)


def test_engine_throughput(once):
    """The 64-chunk, 100-query FastBit stream answers exactly as the
    columnar oracle and the accumulation stream as numpy and the serial
    reference; writes BENCH_engine.json."""
    result = once(_run_benchmarks)
    _write_result(result)
    print()
    print(
        f"engine throughput: batched {result['batched']['wall_s']:.2f}s, "
        f"{result['queries_per_s']:.0f} queries/s "
        f"({result['batched']['commands_per_s']:.0f} cmd/s), accumulation "
        f"{result['accumulation_queries_per_s']:.0f} ops/s -> {RESULT_PATH.name}"
    )


if __name__ == "__main__":
    res = _run_benchmarks()
    _write_result(res)
    print(json.dumps(res, indent=2))
