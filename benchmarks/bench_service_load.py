"""Serving-layer benchmark: coalescing + shard placement vs one-at-a-time.

The acceptance experiment for ``repro.service``: a 16-tenant mixed
workload (bitwise ops + bitmap range queries, Zipf-skewed tenants,
open-loop Poisson arrivals) runs twice on identical Pinatubo systems:

- *serial*: ``max_batch=1`` -- every request is its own dispatch, the
  server pays the full serial latency sum plus one dispatch overhead
  per request (a one-at-a-time query service);
- *coalesced*: ``max_batch=16`` -- backlogged requests from different
  tenants share one driver command stream, and requests on different
  (channel, bank) shards overlap, so the batch makespan is the per-shard
  maximum, not the total.

The memory geometry gives 16 independent shards (4 channels x 4 banks,
one subarray each), and ``bank_spread`` placement lands each tenant on
its own shard.  Both runs produce identical per-request results (numpy
oracle checked); the coalesced run must deliver **>= 2x** the simulated
ops/s.  Results land in ``BENCH_service.json`` at the repo root.

Run directly (``python benchmarks/bench_service_load.py [--smoke]``) or
through pytest (``pytest benchmarks/bench_service_load.py``).
"""

import sys
import time
from pathlib import Path

from repro.backends.config import SystemConfig
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.runtime.api import PimRuntime
from repro.runtime.os_mm import PlacementPolicy
from repro.service import ServiceConfig, TenantQuota
from repro.service.engine import ResidentPimEngine
from repro.workloads.service_load import ServiceLoadSpec, run_service_load

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: 4 channels x 4 banks, one subarray each: 16 independent shards, so
#: each of the 16 tenants owns one under bank_spread placement
GEOM = MemoryGeometry(
    channels=4,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=4,
    subarrays_per_bank=1,
    rows_per_subarray=64,
    mats_per_subarray=1,
    cols_per_mat=1024,
    mux_ratio=8,
)

SYSTEM = SystemConfig(backend="pinatubo", placement="bank_spread")


def _spec(n_requests: int) -> ServiceLoadSpec:
    return ServiceLoadSpec(
        n_tenants=16,
        vectors_per_tenant=4,
        vector_bits=GEOM.row_bits,
        index_bins=8,
        index_events=GEOM.row_bits,
        n_requests=n_requests,
        arrival_rate_per_s=2e6,  # offered load >> serial capacity
        zipf_s=1.0,
        seed=42,
    )


def _engine() -> ResidentPimEngine:
    runtime = PimRuntime(
        PinatuboSystem(get_technology("pcm"), GEOM),
        policy=PlacementPolicy.BANK_SPREAD,
    )
    return ResidentPimEngine(SYSTEM, runtime=runtime)


def _service_config(max_batch: int) -> ServiceConfig:
    return ServiceConfig(
        system=SYSTEM,
        max_batch=max_batch,
        dispatch_overhead_s=1e-6,
        # throughput experiment: queues deep enough that nothing rejects
        default_quota=TenantQuota(max_pending=1 << 16),
        keep_bits=True,
    )


def _one_run(spec: ServiceLoadSpec, max_batch: int) -> dict:
    t0 = time.perf_counter()
    service, stats = run_service_load(
        spec, _service_config(max_batch), engine=_engine()
    )
    wall_s = time.perf_counter() - t0
    verified = service.verify_results()
    assert verified == stats.completed == spec.n_requests
    latency = stats.latency
    return {
        "max_batch": max_batch,
        "completed": stats.completed,
        "batches": stats.batches,
        "mean_batch_size": stats.mean_batch_size,
        "sim_ops_per_s": stats.ops_per_s,
        "sim_makespan_s": stats.makespan_s,
        "p50_s": latency.percentile(50),
        "p99_s": latency.percentile(99),
        "energy_j": stats.energy_j,
        "oracle_verified": verified,
        "wall_s": wall_s,
    }


def run_service_benchmark(smoke: bool = False) -> dict:
    spec = _spec(n_requests=128 if smoke else 512)
    serial = _one_run(spec, max_batch=1)
    coalesced = _one_run(spec, max_batch=16)
    return {
        "workload": {
            "n_tenants": spec.n_tenants,
            "n_requests": spec.n_requests,
            "arrival_rate_per_s": spec.arrival_rate_per_s,
            "zipf_s": spec.zipf_s,
            "n_shards": GEOM.channels * GEOM.banks_per_rank,
            "smoke": smoke,
        },
        "serial": serial,
        "coalesced": coalesced,
        "ops_per_s_speedup": coalesced["sim_ops_per_s"]
        / serial["sim_ops_per_s"],
    }


def _write_result(result: dict) -> None:
    try:
        from benchmarks.bench_io import write_bench
    except ImportError:  # run as a script: the benchmarks dir is sys.path[0]
        from bench_io import write_bench

    write_bench(RESULT_PATH, "service_load", result)


def _report(result: dict) -> str:
    serial, coalesced = result["serial"], result["coalesced"]
    return (
        f"service load ({result['workload']['n_requests']} requests, "
        f"{result['workload']['n_tenants']} tenants): "
        f"serial {serial['sim_ops_per_s']:.3e} ops/s "
        f"(p99 {serial['p99_s']:.2e}s), "
        f"coalesced {coalesced['sim_ops_per_s']:.3e} ops/s "
        f"(p99 {coalesced['p99_s']:.2e}s, "
        f"mean batch {coalesced['mean_batch_size']:.1f}), "
        f"speedup {result['ops_per_s_speedup']:.1f}x -> {RESULT_PATH.name}"
    )


def test_service_load_throughput(once):
    """Cross-tenant coalescing >= 2x simulated ops/s over one-at-a-time
    serving on the 16-tenant mixed workload; writes BENCH_service.json."""
    result = once(run_service_benchmark)
    _write_result(result)
    print()
    print(_report(result))
    assert result["ops_per_s_speedup"] >= 2.0


if __name__ == "__main__":
    res = run_service_benchmark(smoke="--smoke" in sys.argv[1:])
    _write_result(res)
    print(_report(res))
    assert res["ops_per_s_speedup"] >= 2.0, (
        f"serving regression: coalescing speedup "
        f"{res['ops_per_s_speedup']:.2f}x < 2x"
    )
