"""Overhead guard: disabled telemetry must be (nearly) free.

Instrumentation is permanent -- every ``PimDriver.flush`` and
``MemoryController.execute_batch`` goes through ``telemetry.span`` on
every call, enabled or not -- so the disabled path has to stay under 5%
of the engine-throughput benchmark's wall time.

Timing two full benchmark runs against each other is noisy in CI, so the
guard is measured directly: run the benchmark's workload (scaled down)
once with telemetry *enabled* to count exactly how many instrumentation
events it emits, then time that many disabled ``span()``+``Counter.add``
round-trips and compare against the disabled workload's wall time.
"""

import time

from repro import telemetry
from repro.apps.fastbit_pim import PimFastBit
from repro.apps.star import synthetic_star_table
from repro.core.pinatubo import PinatuboSystem
from repro.nvm.technology import get_technology
from repro.runtime.api import PimRuntime

from benchmarks.bench_engine_throughput import COLUMNS, GEOM, _queries

#: the bench's small config, scaled to test size: 8 of its 64 chunks
N_CHUNKS = 8
N_EVENTS = N_CHUNKS * GEOM.row_bits
N_QUERIES = 20

OVERHEAD_BUDGET = 0.05


def _build_db(table) -> PimFastBit:
    system = PinatuboSystem(get_technology("pcm"), GEOM)
    return PimFastBit(PimRuntime(system), table)


def test_disabled_span_overhead_under_budget(tracer):
    table = synthetic_star_table(N_EVENTS, columns=COLUMNS, seed=11)
    queries = _queries()[:N_QUERIES]

    # count the instrumentation events the workload emits
    telemetry.reset()
    tracer.configure(enabled=True)
    _build_db(table).query_many(queries)
    n_spans = len(tracer.spans) + tracer.dropped_spans
    n_counter_adds = sum(c.value for c in tracer.counters.values())

    # time the same workload with telemetry disabled
    tracer.configure(enabled=False)
    telemetry.reset()
    db = _build_db(table)
    t0 = time.perf_counter()
    db.query_many(queries)
    workload_s = time.perf_counter() - t0

    # time the disabled-path cost of exactly that many events
    probe_counter = telemetry.counter("overhead.probe")
    t0 = time.perf_counter()
    for _ in range(n_spans):
        with telemetry.span("overhead.probe", attr=1) as sp:
            sp.add(latency_s=0.0, energy_j=0.0)
    for _ in range(n_counter_adds):
        probe_counter.add()
    probe_s = time.perf_counter() - t0

    assert n_spans > 0
    assert probe_s < OVERHEAD_BUDGET * workload_s, (
        f"disabled telemetry path costs {probe_s:.4f}s for {n_spans} spans "
        f"+ {n_counter_adds} counter adds against a {workload_s:.4f}s "
        f"workload ({probe_s / workload_s:.1%} > {OVERHEAD_BUDGET:.0%})"
    )


def test_disabled_span_is_allocation_free_fast_path(tracer):
    """Sanity floor: a disabled span round-trip is well under a microsecond."""
    tracer.configure(enabled=False)
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        with telemetry.span("x"):
            pass
    per_call = (time.perf_counter() - t0) / n
    assert per_call < 5e-6
