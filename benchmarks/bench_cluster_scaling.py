"""Cluster scaling benchmark: 1 -> 4 -> 16 -> 64 nodes on the Zipf load.

The acceptance experiment for ``repro.cluster``: the same seeded
Zipf-skewed service load (16 tenants, open-loop Poisson arrivals at an
offered rate far above one node's capacity) runs against clusters of
1, 4, 16, and 64 nodes sharing one deterministic event loop.  The two
hottest (Zipf-head) tenants are registered 2-way replicated, so their
reads round-robin across replicas and wide range queries scatter.

Three properties are asserted:

- **equivalence**: the 1-node arm is byte-identical (per-node stats
  JSON, result dicts) to a standalone ``BitmapQueryService`` run of the
  identical spec -- the cluster layer adds routing, never behaviour;
- **correctness**: every completed read matches the numpy oracle on
  every arm (the stream is read-only, so final-state verification is
  exact);
- **scaling**: the 16-node arm delivers **>= 3x** the simulated ops/s
  of the 1-node arm (placement skew and the Zipf head cap it well below
  the ideal 16x).

Results (ops/s and p99 per node count) land in ``BENCH_cluster.json``
at the repo root.  Run directly
(``python benchmarks/bench_cluster_scaling.py [--smoke]``; smoke = 4
nodes max on a short stream, used by CI) or through pytest.
"""

import sys
import time
from pathlib import Path

from repro.backends.config import SystemConfig
from repro.cluster import ClusterConfig
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.runtime.api import PimRuntime
from repro.runtime.os_mm import PlacementPolicy
from repro.service import ServiceConfig, TenantQuota
from repro.service.engine import ResidentPimEngine
from repro.workloads.service_load import (
    ServiceLoadSpec,
    run_cluster_load,
    run_service_load,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

#: per-node memory: 4 channels x 4 banks, one subarray each -- the same
#: 16-shard geometry the service bench uses, replicated per node
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

#: Zipf-head tenants replicated on multi-node arms (reads fan out).
#: With zipf_s=1.0 over 32 tenants the top four carry ~half the
#: traffic; 4-way replication caps any single node at ~6% of the
#: stream, which is what lets the 16-node arm actually scale.
HEAD_TENANTS = 4
HEAD_REPLICAS = 4


def _spec(n_requests: int) -> ServiceLoadSpec:
    return ServiceLoadSpec(
        n_tenants=32,
        vectors_per_tenant=4,
        vector_bits=GEOM.row_bits,
        index_bins=8,
        index_events=GEOM.row_bits,
        n_requests=n_requests,
        # offered load >> even the 16-node capacity: every arm stays
        # backlogged, so ops/s measures service capacity, not arrivals
        arrival_rate_per_s=1e8,
        zipf_s=1.0,
        seed=42,
    )


def _engine(_node_id: int = 0) -> ResidentPimEngine:
    runtime = PimRuntime(
        PinatuboSystem(get_technology("pcm"), GEOM),
        policy=PlacementPolicy.BANK_SPREAD,
    )
    return ResidentPimEngine(SYSTEM, runtime=runtime)


def _service_config() -> ServiceConfig:
    return ServiceConfig(
        system=SYSTEM,
        max_batch=16,
        dispatch_overhead_s=1e-6,
        # throughput experiment: queues deep enough that nothing rejects
        default_quota=TenantQuota(max_pending=1 << 16),
    )


def _cluster_config(n_nodes: int) -> ClusterConfig:
    return ClusterConfig(
        n_nodes=n_nodes,
        service=_service_config(),
        scatter_fanin=4,
    )


def _one_arm(spec: ServiceLoadSpec, n_nodes: int) -> dict:
    t0 = time.perf_counter()
    router, stats = run_cluster_load(
        spec,
        _cluster_config(n_nodes),
        head_tenants=HEAD_TENANTS,
        head_replicas=HEAD_REPLICAS,
        engine_factory=_engine,
    )
    wall_s = time.perf_counter() - t0
    verified = router.verify_results()
    assert verified == stats.completed == spec.n_requests
    router.verify_replicas()
    return {
        "n_nodes": n_nodes,
        "completed": stats.completed,
        "scattered": stats.scattered,
        "replica_writes": stats.replica_writes,
        "sim_ops_per_s": stats.ops_per_s,
        "sim_makespan_s": stats.makespan_s,
        "p50_s": stats.latency.percentile(50),
        "p99_s": stats.latency.percentile(99),
        "energy_j": stats.energy_j,
        "oracle_verified": verified,
        "wall_s": wall_s,
    }, router


def _check_one_node_identity(spec: ServiceLoadSpec, router) -> bool:
    """The 1-node arm must reproduce the standalone service byte-for-byte."""
    service, stats = run_service_load(spec, _service_config(), engine=_engine())
    node0 = router.nodes[0].service
    assert stats.to_json() == node0.stats.to_json(), (
        "1-node cluster stats diverged from the standalone service"
    )
    single = [r.to_dict() for r in service.results]
    clustered = [r.to_dict() for r in router.results]
    assert single == clustered, (
        "1-node cluster results diverged from the standalone service"
    )
    return True


def run_cluster_benchmark(smoke: bool = False) -> dict:
    spec = _spec(n_requests=96 if smoke else 512)
    node_counts = (1, 4) if smoke else (1, 4, 16, 64)
    arms = {}
    routers = {}
    for n_nodes in node_counts:
        arms[str(n_nodes)], routers[n_nodes] = _one_arm(spec, n_nodes)
    identical = _check_one_node_identity(spec, routers[1])
    result = {
        "workload": {
            "n_tenants": spec.n_tenants,
            "n_requests": spec.n_requests,
            "arrival_rate_per_s": spec.arrival_rate_per_s,
            "zipf_s": spec.zipf_s,
            "head_tenants": HEAD_TENANTS,
            "head_replicas": HEAD_REPLICAS,
            "smoke": smoke,
        },
        "nodes": arms,
        "one_node_byte_identical": identical,
        "scaling_4x": arms["4"]["sim_ops_per_s"] / arms["1"]["sim_ops_per_s"],
    }
    if "16" in arms:
        result["scaling_16x"] = (
            arms["16"]["sim_ops_per_s"] / arms["1"]["sim_ops_per_s"]
        )
    if "64" in arms:
        # with 32 tenants the 64-node arm mostly measures that adding
        # nodes past the tenant count stays flat, not that it helps
        result["scaling_64x"] = (
            arms["64"]["sim_ops_per_s"] / arms["1"]["sim_ops_per_s"]
        )
    return result


def _write_result(result: dict) -> None:
    try:
        from benchmarks.bench_io import write_bench
    except ImportError:  # run as a script: the benchmarks dir is sys.path[0]
        from bench_io import write_bench

    write_bench(RESULT_PATH, "cluster_scaling", result)


def _report(result: dict) -> str:
    parts = []
    for n_nodes, arm in result["nodes"].items():
        parts.append(
            f"{n_nodes}n {arm['sim_ops_per_s']:.3e} ops/s "
            f"(p99 {arm['p99_s']:.2e}s)"
        )
    if "scaling_16x" in result:
        scale = f"16-node scaling {result['scaling_16x']:.1f}x"
        if "scaling_64x" in result:
            scale += f", 64-node scaling {result['scaling_64x']:.1f}x"
    else:
        scale = f"4-node scaling {result['scaling_4x']:.1f}x (smoke)"
    return (
        f"cluster scaling ({result['workload']['n_requests']} requests, "
        f"{result['workload']['n_tenants']} tenants): "
        + ", ".join(parts)
        + f", {scale} -> {RESULT_PATH.name}"
    )


def test_cluster_scaling(once):
    """16 nodes >= 3x simulated ops/s over 1 node on the Zipf load (64
    nodes must at least hold that), with the 1-node arm byte-identical
    to the standalone service; writes BENCH_cluster.json."""
    result = once(run_cluster_benchmark)
    _write_result(result)
    print()
    print(_report(result))
    assert result["one_node_byte_identical"]
    assert result["scaling_16x"] >= 3.0
    assert result["scaling_64x"] >= 3.0


if __name__ == "__main__":
    res = run_cluster_benchmark(smoke="--smoke" in sys.argv[1:])
    _write_result(res)
    print(_report(res))
    assert res["one_node_byte_identical"]
    if "scaling_16x" in res:
        assert res["scaling_16x"] >= 3.0, (
            f"cluster scaling regression: 16-node speedup "
            f"{res['scaling_16x']:.2f}x < 3x"
        )
    if "scaling_64x" in res:
        assert res["scaling_64x"] >= 3.0, (
            f"cluster scaling regression: 64-node speedup "
            f"{res['scaling_64x']:.2f}x < 3x"
        )
