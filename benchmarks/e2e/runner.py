"""One workload run: set up, warm up, play timed windows, verify, measure.

The load is open-loop on the simulated clock (Poisson arrivals at the
workload's frozen offered rate) and batch-synchronous on the host: each
window is submitted through a fresh ``ServiceClient`` and drained with
``client.run()``.  Host time is measured around submit+drain only;
simulated metrics come from the results and node stats of the timed
windows.  The two kinds are never mixed in one metric.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.service.api import ServiceClient
from repro.service.request import RequestStatus
from repro.workloads.service_load import play_stream

from .ledger import LAYERS, Ledger
from .oracle import MirrorOracle
from .workloads import (
    build_cluster,
    load_datasets,
    load_spec,
    load_spec_for,
    make_windows,
)

OUT_DIR = Path(__file__).with_name("out")


@dataclasses.dataclass
class Window:
    """What one drained window did, on the host and on the sim clock."""

    attempted: int
    completed: int
    user_updates: int
    #: host CPU seconds of submit+drain (the process is single-threaded,
    #: so this is its wall time minus time other processes held the CPU)
    host_s: float
    wall_s: float
    sim_span_s: float
    shift_s: float
    latencies: np.ndarray
    queue_delays: np.ndarray
    energy_j: float
    busy_s: Dict[int, float]
    node_completed: int
    node_updates: int
    batches: int
    memsim_s: float
    errors: List[str]
    #: the machine's slowdown while the window ran (see :class:`Machine`)
    slowdown: float = 1.0

    @property
    def host_req_per_s(self) -> float:
        """Completed per host second, scaled to the reference machine."""
        return self.completed * self.slowdown / self.host_s

    @property
    def raw_req_per_s(self) -> float:
        return self.completed / self.host_s


def window_requests(run: dict, workload: dict, seconds: float, smoke: bool) -> int:
    """Requests per window: the timed windows fill ``seconds`` of host
    time at the reference rate; smoke runs are 1/``smoke_divisor`` long."""
    n = round(workload["ref_host_req_per_s"] * seconds / run["timed_windows"])
    if smoke:
        return max(1, n // run["smoke_divisor"])
    return max(run["min_window_requests"], n)


def _node_totals(router) -> dict:
    busy = {}
    totals = dict(completed=0, updates=0, batches=0, energy_j=0.0, memsim_s=0.0)
    for node_id, node in router.nodes.items():
        stats = node.service.stats
        busy[node_id] = stats.busy_s
        totals["completed"] += stats.completed
        totals["updates"] += stats.updates
        totals["batches"] += stats.batches
        totals["energy_j"] += stats.energy_j
        totals["memsim_s"] += node.service.engine.runtime.total_latency()
    totals["busy"] = busy
    return totals


def play_window(
    router,
    oracle: MirrorOracle,
    requests: list,
    offset: float,
    machine: Optional[Machine] = None,
):
    """Submit and drain one window; returns ``(Window, new offset)``.

    ``offset`` is how far the generator's schedule has been shifted so
    far.  A window whose first arrival is earlier than the drained clock
    shifts later by the difference: that is how late the generator ran.
    With ``machine``, the window is scaled by samples of the machine's
    speed taken while it runs; their time is not the window's.
    """
    now = router.loop.now
    shift = max(0.0, now - (requests[0].arrival_s + offset))
    offset += shift
    if offset:
        # the clamp only absorbs the rounding of ``arrival + offset``
        requests = [
            dataclasses.replace(r, arrival_s=max(now, r.arrival_s + offset))
            for r in requests
        ]
    start_s = requests[0].arrival_s
    before = _node_totals(router)
    client = ServiceClient(router)
    samples = (
        machine.watch(router.loop, start_s, requests[-1].arrival_s) if machine else []
    )
    t0, w0 = time.process_time(), time.perf_counter()
    play_stream(client, requests)
    client.run()
    host_s = time.process_time() - t0 - sum(samples)
    wall_s = time.perf_counter() - w0 - sum(samples)
    after = _node_totals(router)
    done = [r for r in router.results if r.status is RequestStatus.COMPLETED]
    return Window(
        slowdown=statistics.fmean(samples) / machine.reference_s if samples else 1.0,
        attempted=len(requests),
        completed=len(done),
        user_updates=sum(1 for r in requests if r.kind == "update"),
        host_s=host_s,
        wall_s=wall_s,
        sim_span_s=router.loop.now - start_s,
        shift_s=shift,
        latencies=np.array([r.latency_s for r in done]),
        queue_delays=np.array([r.queue_delay_s for r in done]),
        energy_j=after["energy_j"] - before["energy_j"],
        busy_s={n: after["busy"][n] - before["busy"].get(n, 0.0) for n in after["busy"]},
        node_completed=after["completed"] - before["completed"],
        node_updates=after["updates"] - before["updates"],
        batches=after["batches"] - before["batches"],
        memsim_s=after["memsim_s"] - before["memsim_s"],
        # last: the check drops the window's results once verified
        errors=oracle.check(router),
    ), offset


class Machine:
    """The machine's speed, sampled while a run goes on.

    A sample is :meth:`reference_work`: a fixed ~11 ms of the
    benchmark's own code, so its time moves with the machine and never
    with the program under test.  Neighbours on a shared machine slow a
    process for anywhere from a fraction of a second to minutes, so each
    phase of a run is scaled by samples taken while it ran, not by one
    figure for the whole run.
    """

    #: samples per phase
    SAMPLES = 16

    def __init__(self, reference_s: float):
        #: the reference machine's quiet-time :meth:`reference_work` seconds
        self.reference_s = reference_s
        rng = np.random.default_rng(0)
        self._rows = rng.integers(0, 256, (64, 128), dtype=np.uint8)
        self._big = rng.integers(0, 1 << 20, 1 << 14)
        self._probe = rng.integers(0, 1 << 20, 1 << 10)
        self.samples: List[float] = []
        self._last = self._sample()

    def reference_work(self) -> float:
        """CPU seconds of a fixed mix of interpreter and numpy work.

        The mix is the simulator's kind of work: a dict-heavy loop of
        numpy calls on row-sized arrays, then set membership and sorting
        on 16k-element arrays.  The collector is off while it runs, so
        the size of the program's heap cannot change its time.
        """
        rows, table = self._rows, {}
        gc.disable()
        try:
            t0 = time.process_time()
            for i in range(3_400):
                key = (i % 251, i & 15)
                table[key] = table.get(key, 0) + 1
                np.bitwise_xor(rows[i & 63], rows[(i * 7) & 63]).sum()
            np.isin(self._probe, self._big).sum()
            np.sort(self._big).sum()
            elapsed = time.process_time() - t0
        finally:
            gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def _sample(self) -> float:
        """Sample now; returns the samples' mean slowdown."""
        times = [self.reference_work() for _ in range(self.SAMPLES)]
        return statistics.fmean(times) / self.reference_s

    def phase_ended(self) -> float:
        """Sample now; returns the slowdown of the phase that just ended,
        the mean of the samples taken before and after it."""
        before, self._last = self._last, self._sample()
        return (before + self._last) / 2

    def watch(self, loop, start_s: float, end_s: float) -> List[float]:
        """Schedule samples at even simulated instants of ``[start_s,
        end_s)`` on ``loop``; returns the list they fill as they run.

        A sample event touches no simulated state, so the simulation runs
        exactly as without it.
        """
        samples: List[float] = []
        for k in range(self.SAMPLES):
            when = start_s + (end_s - start_s) * k / self.SAMPLES
            loop.schedule(when, lambda: samples.append(self.reference_work()))
        return samples

    @property
    def slowdown(self) -> float:
        """The median slowdown over the whole run."""
        return statistics.median(self.samples) / self.reference_s


def host_rate(windows: List[Window], scaled: bool = True) -> float:
    """Completed requests over the host seconds of ``windows``.

    Scaled, each window's seconds are first divided by its slowdown.
    """
    seconds = sum(w.host_s / (w.slowdown if scaled else 1.0) for w in windows)
    return sum(w.completed for w in windows) / seconds


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def end_to_end(
    windows: List[Window], setup_s: Tuple[float, float], slo_us: float, slowdown: float
) -> dict:
    """The end-to-end metrics of the timed windows.

    Host metrics are scaled to the reference machine (see
    :class:`Machine`) and also reported unscaled, as ``*_raw``;
    ``setup_s`` is ``(scaled, raw)`` and ``slowdown`` the run's median.
    """
    lat = np.concatenate([w.latencies for w in windows])
    span = float(sum(w.sim_span_s for w in windows))
    completed = sum(w.completed for w in windows)
    attempted = sum(w.attempted for w in windows)
    busy = {}
    for w in windows:
        for node_id, b in w.busy_s.items():
            busy[node_id] = busy.get(node_id, 0.0) + float(b)
    mismatches = sum(len(w.errors) for w in windows)
    slo_met = int(np.count_nonzero(lat <= slo_us * 1e-6))
    return {
        "host_req_per_s": host_rate(windows),
        "setup_s": setup_s[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_ops_per_s": completed / span,
        "sim_p50_us": float(np.median(lat)) * 1e6,
        "sim_p99_us": float(np.quantile(lat, 0.99, method="inverted_cdf")) * 1e6,
        "sim_busy_frac": max(busy.values()) / span,
        "sim_nj_per_req": float(sum(w.energy_j for w in windows)) * 1e9 / completed,
        # rejected or failed requests miss the SLO too
        "slo_miss_frac": (attempted - slo_met) / attempted,
        # rejected or unanswered requests, plus oracle mismatches
        "fail_frac": (attempted - completed + mismatches) / attempted,
        "generator_shift_s": float(sum(w.shift_s for w in windows)),
        "sim_samples": int(lat.size),
        "host_req_per_s_spread": _spread([w.host_req_per_s for w in windows]),
        "host_req_per_s_raw": host_rate(windows, scaled=False),
        "setup_s_raw": setup_s[1],
        "machine_slowdown": slowdown,
    }


def layer_metrics(
    windows: List[Window],
    traced: List[Window],
    untraced: List[Window],
    window_totals,
    setup_totals,
    counters: Dict[str, int],
) -> dict:
    """Per-layer host time plus the counter ratios of each layer."""
    self_ns, calls = window_totals
    setup_ns, _ = setup_totals
    reqs = sum(w.completed for w in traced)
    wall_ns = sum(w.wall_s for w in traced) * 1e9
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_req"] = self_ns.get(layer, 0) / 1e3 / reqs
        out[f"{layer}.share"] = self_ns.get(layer, 0) / wall_ns
        out[f"{layer}.calls_per_req"] = calls.get(layer, 0) / reqs
        out[f"{layer}.setup_self_ms"] = setup_ns.get(layer, 0) / 1e6
    c = counters
    completed = sum(w.completed for w in windows)
    node_reads = sum(w.node_completed - w.node_updates for w in windows)
    repaired = c["plan.repair.repairs"] + c["plan.repair.fallback_invalidations"]
    out.update(
        {
            "plan.cache_hit_ratio": _ratio(
                c["plan.cache.hits"], c["plan.cache.hits"] + c["plan.cache.misses"]
            ),
            "plan.program_hit_ratio": _ratio(
                c["plan.compile.program_hits"],
                c["plan.compile.program_hits"] + c["plan.compile.program_misses"],
            ),
            "plan.serve_replays_per_req": c["plan.serve.replays"] / completed,
            "plan.repair.entries_per_write": _ratio(
                repaired, sum(w.node_updates for w in windows)
            ),
            "plan.repair.fallback_ratio": _ratio(
                c["plan.repair.fallback_invalidations"], repaired
            ),
            "arith.replay_ratio": _ratio(
                c["plan.analytics.replays"], c["service.scheduler.analytics_calls"]
            ),
            "scheduler.mean_batch": _ratio(
                sum(w.node_completed for w in windows), sum(w.batches for w in windows)
            ),
            "scheduler.fold_ratio": _ratio(
                c["service.scheduler.cse_folds"], node_reads
            ),
            "scheduler.sim_wait_us": float(
                np.mean(np.concatenate([w.queue_delays for w in windows]))
            )
            * 1e6,
            "cluster.scatter_ratio": c["cluster.reads.scattered"]
            / c["cluster.requests.routed"],
            "cluster.replica_writes_per_write": _ratio(
                c["cluster.replica.writes"], sum(w.user_updates for w in windows)
            ),
            "memsim.sim_us_per_req": sum(w.memsim_s for w in windows) * 1e6 / completed,
            "trace_overhead_frac": 1.0 - host_rate(traced) / host_rate(untraced),
        }
    )
    return out


def _counters() -> Dict[str, int]:
    return dict(telemetry.aggregate()["counters"])


def run_workload(
    name: str, seed: int, seconds: float, trace: bool = False, smoke: bool = False
) -> dict:
    """Run one workload; returns its metrics, details and verdict."""
    spec = load_spec()
    run = spec["run"]
    workload = spec["workloads"][name]
    window = window_requests(run, workload, seconds, smoke)
    n_timed = run["timed_windows"]
    warmup = window * workload["warmup_windows"]
    load = load_spec_for(workload, seed, warmup + n_timed * window)
    windows = make_windows(workload, load, warmup, window)

    wall0 = time.perf_counter()
    machine = Machine(run["reference_work_s"])
    ledger: Optional[Ledger] = None
    if trace:
        ledger = Ledger()
        ledger.install()
    try:
        builds = []  # (raw host seconds, slowdown) per build
        for _ in range(1 if trace else run["setup_repeats"]):
            router = None  # let the previous build go before the next
            if ledger:
                ledger.active = True
            t0 = time.process_time()
            router = build_cluster(name, workload)
            load_datasets(workload, load, ServiceClient(router))
            host_s = time.process_time() - t0
            if ledger:
                ledger.active = False
            builds.append((host_s, machine.phase_ended()))
        oracle = MirrorOracle(router)
        if ledger:
            setup_totals = ledger.take()
            ledger.bind(router)

        # a traced run samples the machine between windows instead: a
        # sample inside a window would fall inside a traced span
        inside = None if ledger else machine

        def play(requests, offset):
            result, offset = play_window(router, oracle, requests, offset, inside)
            if ledger:
                result.slowdown = machine.phase_ended()
            return result, offset

        wall_setup = time.perf_counter()
        warm, offset = play(windows[0], 0.0)
        setup_s = (
            statistics.median(s / slow for s, slow in builds) + warm.host_s / warm.slowdown,
            statistics.median(s for s, _ in builds) + warm.host_s,
        )

        wall_warm = time.perf_counter()
        counters0 = _counters()
        timed: List[Window] = []
        traced: List[Window] = []
        untraced: List[Window] = []
        for i, requests in enumerate(windows[1:]):
            on = ledger is not None and i % 2 == 0
            if ledger:
                ledger.active = on
                ledger.recording = i == 0
            result, offset = play(requests, offset)
            if ledger:
                if i == 0:
                    ledger.recorded_wall_ns = int(result.wall_s * 1e9)
                ledger.active = ledger.recording = False
            timed.append(result)
            (traced if on else untraced).append(result)
        counters = {k: v - counters0.get(k, 0) for k, v in _counters().items()}
    finally:
        if ledger:
            ledger.uninstall()
    wall_end = time.perf_counter()

    e2e = end_to_end(timed, setup_s, workload["slo_us"], machine.slowdown)
    errors = warm.errors + [e for w in timed for e in w.errors]
    out = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "window_requests": window,
        "warmup_requests": warmup,
        "offered_rate_per_s": workload["offered_rate_per_s"],
        "slo_us": workload["slo_us"],
        "attempted": sum(w.attempted for w in timed),
        "failed": sum(w.attempted - w.completed + len(w.errors) for w in timed),
        "correct": not errors,
        "errors": errors[:20],
        "oracle_checked": oracle.checked,
        "threads": threading.active_count(),
        "window_host_req_per_s": [w.host_req_per_s for w in timed],
        "window_raw_req_per_s": [w.raw_req_per_s for w in timed],
        "window_wall_req_per_s": [w.completed / w.wall_s for w in timed],
        "window_slowdown": [w.slowdown for w in [warm] + timed],
        "wall_s": {
            "setup": wall_setup - wall0,
            "warmup": wall_warm - wall_setup,
            "timed": wall_end - wall_warm,
            "reference_work": sum(machine.samples),
        },
        "counters": {k: v for k, v in counters.items() if v},
        "e2e": e2e,
    }
    if ledger:
        out["layers"] = layer_metrics(
            timed, traced, untraced, ledger.take(), setup_totals, counters
        )
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace_{name}.json"
        ledger.write_chrome_trace(trace_path)
        out["chrome_trace"] = str(trace_path)
        out["spans_recorded"] = len(ledger.spans)
    return out
