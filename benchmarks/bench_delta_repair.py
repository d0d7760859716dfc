"""Delta-repair benchmark: write => repair vs write => invalidate.

A mixed read/write stream over a small pool of repeated bulk-bitwise
queries -- the serving shape PR 6 benchmarked, now with a write stream
mixed in.  Reads are Zipf-drawn from the pool (a few hot queries
dominate); at ``WRITE_RATIO`` of the stream a Zipf-chosen base vector
has its first row overwritten with fresh random bits, which dirties one
chunk of every multi-chunk cached sub-result reading it.

Three identical planned runtimes play the same stream:

- *invalidate*: ``PimRuntime(plan=True)`` with the planner declining
  every write delta (``planner.wants_delta`` returns False) -- the PR-6
  semantics: the write drops every dependent cache entry, the next read
  of each dirtied query re-executes all of its chunks in memory;
- *repair (interpreted)*: ``compile=False`` -- the write's
  delta (``old XOR new``, one row) repairs each dependent entry in
  place: one 2-operand XOR per dirtied chunk for linear ops, a
  delta-masked recompute of only the dirtied chunk for AND/OR, priced
  through the real controller; every following read is a cache hit;
- *repair (compiled)*: ``compile=True`` -- the same repairs, emitted
  from the same memoized step templates (compilation changes only the
  serve and to-host tiers around them).

All arms must answer byte-identically to a live numpy mirror (the
uncached oracle); the two repair arms must price identically to 1e-9
relative (compilation is an execution strategy, never a pricing
change).  The headline claim, guarded by ``check_bench_regression.py``:
at a >= 10% write ratio the repair path clears **2x the invalidation
arm's simulated ops/s**.  Results land in ``BENCH_repair.json``.
"""

import sys
import time
from pathlib import Path

import numpy as np

from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.runtime.api import PimRuntime

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_repair.json"

#: repair must clear this many times the invalidation arm's sim ops/s
REPAIR_TARGET_SPEEDUP = 2.0

#: repair arms must price identically to this relative tolerance
SIM_PARITY_RTOL = 1e-9

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

N_CHUNKS = 16  # chunks per vector: a one-row write dirties 1/16th
N_BITS = N_CHUNKS * GEOM.row_bits
N_VECTORS = 5  # small operand universe: each write dirties most queries
POOL = 12  # unique queries
N_EVENTS = 240  # stream length (reads + writes)
WRITE_RATIO = 0.15  # >= the 10% the acceptance criterion names
ZIPF_S = 1.1
#: op mix of the pool, XOR-heavy: wide XORs take the most sense steps
#: per chunk, which is exactly the work a cached serve (and a delta
#: repair) avoids re-doing; the or/and entries keep the delta-masked
#: recompute path honest in the same stream
OPS = ("xor", "xor", "xor", "xor", "or", "and")


def _zipf_probs(n: int, s: float = ZIPF_S) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-s)
    return weights / weights.sum()


def _query_pool(rng) -> list:
    """POOL unique (op, operand indices) queries over the base vectors.

    Composition is fixed -- ``OPS`` draws in order, sources shuffled by
    the rng -- so the pool exercises both repair algebras: XOR entries
    take the one-bulk-XOR linear path, AND/OR the delta-masked
    recompute.
    """
    pool = []
    seen = set()
    i = 0
    while len(pool) < POOL:
        op = OPS[i % len(OPS)]
        i += 1
        n_ops = int(rng.integers(2, 4)) if op != "xor" else 3
        srcs = tuple(
            int(j) for j in rng.choice(N_VECTORS, size=n_ops, replace=False)
        )
        key = (op, tuple(sorted(srcs)))
        if key in seen:
            continue
        seen.add(key)
        pool.append((op, srcs))
    return pool


def _stream(rng, pool, n_events: int) -> list:
    """The event stream: ('read', pool index) | ('write', vector, bits).

    Reads are Zipf-drawn over the pool; writes are Zipf-drawn over the
    base vectors and overwrite the vector's first row.
    """
    n_writes = int(round(WRITE_RATIO * n_events))
    write_at = set(
        int(i) for i in rng.choice(n_events, size=n_writes, replace=False)
    )
    read_picks = rng.choice(POOL, size=n_events, p=_zipf_probs(POOL))
    write_picks = rng.choice(
        N_VECTORS, size=n_events, p=_zipf_probs(N_VECTORS)
    )
    events = []
    for i in range(n_events):
        if i in write_at:
            bits = rng.integers(0, 2, GEOM.row_bits, dtype=np.uint8)
            events.append(("write", int(write_picks[i]), bits))
        else:
            events.append(("read", int(read_picks[i])))
    return events


def _oracle(op: str, operands) -> np.ndarray:
    out = operands[0].copy()
    for o in operands[1:]:
        if op == "or":
            out |= o
        elif op == "and":
            out &= o
        else:
            out ^= o
    return out


def _run_arm(pool, events, repair: bool, compile_: bool) -> dict:
    """Play the stream on one planned runtime; verify against the mirror.

    Priced window: the in-memory serving pipeline -- executions, cache
    serves, repairs/invalidations, and the bus cost of landing each
    write.  Result read-back to the host is *verification* I/O, paid
    identically by every arm, so it is excluded from the metric (it is
    still issued on every read, and every result is compared
    byte-for-byte against the live numpy mirror).
    """
    system = PinatuboSystem(get_technology("pcm"), GEOM)
    rt = PimRuntime(system, plan=True, compile=compile_)
    if not repair:
        # invalidate arm: no delta is captured, so every write drops
        # the cached entries that read it
        rt.planner.wants_delta = lambda frames: False
    data_rng = np.random.default_rng(101)
    handles, mirror = [], []
    for _ in range(N_VECTORS):
        bits = data_rng.integers(0, 2, N_BITS, dtype=np.uint8)
        h = rt.pim_malloc(N_BITS)
        rt.pim_write(h, bits)
        handles.append(h)
        mirror.append(bits.copy())

    def read(i: int) -> np.ndarray:
        op, srcs = pool[i]
        dest = rt.pim_malloc(N_BITS)
        rt.pim_op(op, dest, [handles[s] for s in srcs])
        bits = rt.pim_read(dest)
        rt.pim_free(dest)
        return bits

    # warm: every unique query executes once and populates the cache
    for i in range(POOL):
        read(i)

    # pim accounting covers executions/serves/repairs; host write cost
    # is tracked per write below (host reads stay out of the window)
    pim0, pim_e0 = rt.pim_accounting.latency, rt.pim_accounting.energy
    write_s = write_j = 0.0
    digests = []
    wall0 = time.perf_counter()
    for event in events:
        if event[0] == "write":
            _, v, bits = event
            h0, e0 = rt.host_accounting.latency, rt.host_accounting.energy
            rt.pim_write(handles[v], bits)
            write_s += rt.host_accounting.latency - h0
            write_j += rt.host_accounting.energy - e0
            mirror[v][: GEOM.row_bits] = bits
        else:
            got = read(event[1])
            op, srcs = pool[event[1]]
            want = _oracle(op, [mirror[s] for s in srcs])
            assert np.array_equal(got, want), (
                f"read of pool[{event[1]}] diverged from the numpy mirror "
                f"(repair={repair}, compile={compile_})"
            )
            digests.append(got.tobytes())
    wall = time.perf_counter() - wall0
    sim = (rt.pim_accounting.latency - pim0) + write_s
    energy = (rt.pim_accounting.energy - pim_e0) + write_j
    return {
        "sim_latency_s": sim,
        "sim_energy_j": energy,
        "wall_s": wall,
        "sim_ops_per_s": len(events) / sim,
        "plan": rt.plan_stats.to_dict(),
        "digests": digests,
    }


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def run_repair_benchmark(n_events: int = N_EVENTS) -> dict:
    rng = np.random.default_rng(211)
    pool = _query_pool(rng)
    events = _stream(rng, pool, n_events)
    n_writes = sum(1 for e in events if e[0] == "write")

    inval = _run_arm(pool, events, repair=False, compile_=True)
    interp = _run_arm(pool, events, repair=True, compile_=False)
    comp = _run_arm(pool, events, repair=True, compile_=True)

    # every arm already checked against the live numpy mirror per read;
    # the arms must also agree with each other byte-for-byte
    assert inval["digests"] == interp["digests"] == comp["digests"], (
        "arms produced different read results"
    )
    # the compiled repair path is an execution strategy, not a pricing
    # change: simulated cost must match the interpreted repair arm
    assert _rel_close(
        comp["sim_latency_s"], interp["sim_latency_s"], SIM_PARITY_RTOL
    ), (
        f"compiled repair sim latency {comp['sim_latency_s']!r} != "
        f"interpreted {interp['sim_latency_s']!r}"
    )
    assert _rel_close(
        comp["sim_energy_j"], interp["sim_energy_j"], SIM_PARITY_RTOL
    ), (
        f"compiled repair sim energy {comp['sim_energy_j']!r} != "
        f"interpreted {interp['sim_energy_j']!r}"
    )

    for arm in (inval, interp, comp):
        arm.pop("digests")
    return {
        "workload": {
            "n_events": n_events,
            "n_writes": n_writes,
            "write_ratio": n_writes / n_events,
            "unique_queries": POOL,
            "n_vectors": N_VECTORS,
            "chunks_per_vector": N_CHUNKS,
            "row_bits": GEOM.row_bits,
            "zipf_s": ZIPF_S,
            "smoke": n_events != N_EVENTS,
        },
        "invalidate": inval,
        "repair_interpreted": interp,
        "repair_compiled": comp,
        "sim_ops_speedup": (
            inval["sim_latency_s"] / interp["sim_latency_s"]
        ),
        "repairs": interp["plan"]["repairs"],
        "repair_fallbacks": interp["plan"]["repair_fallbacks"],
    }


def _write_result(result: dict) -> None:
    try:
        from benchmarks.bench_io import write_bench
    except ImportError:  # run as a script: the benchmarks dir is sys.path[0]
        from bench_io import write_bench

    write_bench(RESULT_PATH, "delta_repair", result)


def _report(result: dict) -> str:
    w = result["workload"]
    return (
        f"delta repair ({w['n_events']} events, "
        f"{w['write_ratio']:.0%} writes): "
        f"invalidate {result['invalidate']['sim_ops_per_s']:.3e} sim ops/s, "
        f"repair {result['repair_interpreted']['sim_ops_per_s']:.3e} sim "
        f"ops/s ({result['sim_ops_speedup']:.1f}x, "
        f"{result['repairs']} repairs, "
        f"{result['repair_fallbacks']} fallbacks) -> {RESULT_PATH.name}"
    )


def _check(result: dict) -> None:
    assert result["sim_ops_speedup"] >= REPAIR_TARGET_SPEEDUP, (
        f"delta-repair regression: {result['sim_ops_speedup']:.2f}x sim "
        f"ops/s over invalidation (target {REPAIR_TARGET_SPEEDUP:.0f}x)"
    )
    assert result["repairs"] > 0, "stream produced no repairs"


def test_delta_repair_speedup(once):
    """Repair >= 2x the invalidation arm's sim ops/s at a >= 10% write
    ratio, byte-identical to the numpy mirror; writes BENCH_repair.json."""
    result = once(run_repair_benchmark)
    _write_result(result)
    print()
    print(_report(result))
    _check(result)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    res = run_repair_benchmark(n_events=60 if smoke else N_EVENTS)
    _write_result(res)
    print(_report(res))
    if not smoke:
        _check(res)
