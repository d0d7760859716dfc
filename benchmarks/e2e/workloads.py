"""The four serving workloads: cluster, datasets and seeded request stream.

Every parameter lives in ``spec.json`` beside this file; this module only
turns one workload entry into the objects a run needs.  The cluster is
built through the production path -- ``ClusterRouter`` over
``ResidentPimEngine(SystemConfig(...))`` nodes, which plan, compile and
delta-repair by default -- and the datasets and stream come from
:mod:`repro.workloads.service_load`, so the benchmark drives exactly the
code a user of ``ServiceClient`` runs.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import List

import numpy as np

from repro.backends.config import SystemConfig, register_geometry
from repro.cluster import ClusterConfig, ClusterRouter
from repro.memsim.geometry import MemoryGeometry
from repro.service import ServiceConfig, TenantQuota
from repro.service.engine import ResidentPimEngine
from repro.workloads.service_load import (
    ServiceLoadSpec,
    build_datasets,
    generate_requests,
)

SPEC_PATH = Path(__file__).with_name("spec.json")


def load_spec() -> dict:
    """The frozen benchmark specification (workloads, metrics, baseline)."""
    return json.loads(SPEC_PATH.read_text())


def _geometry(workload: dict) -> MemoryGeometry:
    return MemoryGeometry(**workload["cluster"]["geometry"])


def system_config(name: str, workload: dict) -> SystemConfig:
    """The node substrate: PCM Pinatubo, bank-spread tenant placement."""
    return SystemConfig(
        geometry=register_geometry(f"e2e-{name}", _geometry(workload)),
        placement="bank_spread",
    )


def build_cluster(name: str, workload: dict) -> ClusterRouter:
    """An N-node cluster of planned, compiled, repairing engines."""
    cluster = workload["cluster"]
    system = system_config(name, workload)
    return ClusterRouter(
        ClusterConfig(
            n_nodes=cluster["nodes"],
            service=ServiceConfig(
                system=system,
                # open loop below saturation: queues stay short, and a
                # deep bound keeps a Poisson burst from being refused
                default_quota=TenantQuota(max_pending=1 << 16),
            ),
            scatter_fanin=cluster["scatter_fanin"],
        ),
        engine_factory=lambda _node_id: ResidentPimEngine(system),
    )


def load_spec_for(
    workload: dict, seed: int, n_requests: int
) -> ServiceLoadSpec:
    """The :class:`ServiceLoadSpec` of one run (datasets + stream)."""
    load = dict(workload["load"])
    row_bits = _geometry(workload).row_bits
    rows = load.pop("rows_per_vector")
    mix = load.pop("mix", None)
    if mix is not None:
        load["mix"] = tuple((kind, float(w)) for kind, w in mix)
    return ServiceLoadSpec(
        vector_bits=rows * row_bits,
        index_events=rows * row_bits,
        n_requests=n_requests,
        arrival_rate_per_s=workload["offered_rate_per_s"],
        seed=seed,
        **load,
    )


def load_datasets(workload: dict, spec: ServiceLoadSpec, client) -> None:
    """Register every tenant and load its resident dataset."""
    cluster = workload["cluster"]
    build_datasets(
        spec,
        client,
        head_tenants=cluster["head_tenants"],
        head_replicas=cluster["head_replicas"],
    )


def _analyze_templates(spec: ServiceLoadSpec, count: int) -> List[tuple]:
    """The pool of ``(filters, aggregate)`` dashboard queries.

    The shapes and constants are drawn the way
    :func:`~repro.workloads.service_load.generate_requests` draws them,
    but once per template: a dashboard repeats a fixed set of queries.
    The pool is part of the workload, not of the run: its RNG ignores
    the run seed, which only picks the template of each request.  With
    a per-seed pool the head template, and with it the cost per
    request, would change from seed to seed.
    """
    rng = np.random.default_rng(0xA7A1)
    bits = spec.value_bits
    templates = []
    for _ in range(count):
        op = str(rng.choice(["lt", "le", "gt", "ge", "eq"]))
        filters = [("cmp", "val", op, int(rng.integers(0, 1 << bits)), bits)]
        if int(rng.integers(0, 2)):
            lo = int(rng.integers(0, spec.index_bins))
            hi = int(rng.integers(lo, spec.index_bins))
            filters.append(("range", "col", lo, hi))
        agg = str(rng.choice(["count", "sum", "hist"]))
        if agg == "sum":
            aggregate: tuple = ("sum", "val", bits)
        elif agg == "hist":
            aggregate = ("hist", "col", spec.index_bins)
        else:
            aggregate = ("count",)
        templates.append((tuple(filters), aggregate))
    return templates


def _apply_templates(spec: ServiceLoadSpec, requests: list, count: int) -> list:
    """Redraw every analyze request Zipf(1) from the template pool."""
    templates = _analyze_templates(spec, count)
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64)
    n_analyze = sum(1 for r in requests if r.kind == "analytics")
    rng = np.random.default_rng((spec.seed, 0x7E37))
    picks = iter(rng.choice(count, size=n_analyze, p=weights / weights.sum()))
    out = []
    for request in requests:
        if request.kind == "analytics":
            filters, aggregate = templates[int(next(picks))]
            request = dataclasses.replace(
                request, filters=filters, aggregate=aggregate
            )
        out.append(request)
    return out


def make_windows(
    workload: dict, spec: ServiceLoadSpec, warmup: int, window: int
) -> List[list]:
    """The seeded stream cut into one warm-up window plus timed windows.

    Standing-query registrations (arrival 0) open the warm-up window.
    Arrivals keep the open-loop Poisson schedule across windows; the
    runner only shifts a window later when the previous one drained
    past its first arrival.
    """
    stream = generate_requests(spec)
    subs = [r for r in stream if r.kind == "subscribe"]
    reads = stream[len(subs):]
    templates = workload.get("analyze_templates", 0)
    if templates:
        reads = _apply_templates(spec, reads, templates)
    windows = [subs + reads[:warmup]]
    for start in range(warmup, len(reads), window):
        windows.append(reads[start : start + window])
    return windows
