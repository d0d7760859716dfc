"""Write-aware numpy oracle for a cluster that serves reads beside writes.

``ClusterRouter.verify_results`` checks every read against the *final*
host shadows, so a read that ran before a later write to one of its
vectors reports a false mismatch.  This oracle keeps a live numpy mirror
per (node, tenant) instead and replays each node's completed work in
dispatch order:

- a node serves one coalesced batch at a time, so its result log is in
  dispatch order; within a batch ``CoalescingScheduler.dispatch`` runs
  every update before any read, and so does the replay here;
- standing-query refreshes are re-evaluated right after the updates of
  the batch that triggered them;
- replica fan-in copies and scatter parts are node work like any other,
  so each replica's mirror advances exactly as its engine did.

The mirrors start from the loaded host shadows, before any traffic, and
from then on change only through the update payloads the stream carried.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List

import numpy as np

from repro.service.engine import oracle_analytics, oracle_bits
from repro.service.request import RequestStatus


class _Mirror:
    """One node's tenant vectors, shaped like an engine for the oracles.

    Answers are memoised per tenant until the tenant's next write, so a
    question the stream repeats is computed by numpy once per version
    of the data it reads.
    """

    def __init__(self, vectors: Dict[str, Dict[str, np.ndarray]]):
        self.vectors = vectors
        self._answers: Dict[str, dict] = {}

    def host_vector(self, tenant: str, name: str) -> np.ndarray:
        return self.vectors[tenant][name]

    def write(self, tenant: str, name: str, bits: np.ndarray) -> None:
        self.vectors[tenant][name] = bits
        self._answers.pop(tenant, None)

    def popcount(self, tenant: str, op: str, names) -> int:
        answers = self._answers.setdefault(tenant, {})
        key = (op, names)
        if key not in answers:
            answers[key] = int(oracle_bits(self, tenant, op, names).sum())
        return answers[key]

    def analyze(self, tenant: str, filters, aggregate) -> tuple:
        """``(popcount, value, groups)`` of one analytics query."""
        answers = self._answers.setdefault(tenant, {})
        key = (filters, aggregate)
        if key not in answers:
            mask, value, groups = oracle_analytics(self, tenant, filters, aggregate)
            answers[key] = (int(mask.sum()), value, groups)
        return answers[key]


class MirrorOracle:
    """Checks a cluster's results, window by window, against numpy."""

    def __init__(self, router):
        self.mirrors = {
            node_id: _Mirror(
                {
                    tenant: node.service.engine.tenant_vectors(tenant)
                    for tenant in node.service.tenants
                }
            )
            for node_id, node in router.nodes.items()
        }
        #: (tenant, vector) pairs any update has rewritten
        self.written = set()
        #: standing queries by id, recorded when their snapshot checks
        self._subscriptions = {}
        #: completed reads and notifications compared against numpy
        self.checked = 0

    def check(self, router) -> List[str]:
        """Verify the work drained since the last call, then drop it.

        Returns one message per mismatch.  Clears the router's and the
        nodes' result and notification logs, so a long run holds one
        window of results at a time.
        """
        errors: List[str] = []
        for node_id, node in router.nodes.items():
            service = node.service
            errors += self._check_node(
                self.mirrors[node_id], service.results, service.notifications
            )
            errors += self._check_shadows(node_id, service.engine)
            service.results.clear()
            service.notifications.clear()
        errors += self._check_gathers(router)
        try:
            router.verify_replicas()
        except AssertionError as exc:
            errors.append(f"replicas: {exc}")
        router.results.clear()
        router.notifications.clear()
        return errors

    def _check_node(self, mirror: _Mirror, results, notifications) -> List[str]:
        errors: List[str] = []
        refreshes = {}
        for note in notifications:
            if note.triggered_by:
                refreshes.setdefault(note.triggered_by[0], []).append(note)
        snapshots = {n.subscription_id: n for n in notifications if not n.seq}
        completed = [r for r in results if r.status is RequestStatus.COMPLETED]
        for _batch, group in groupby(completed, key=lambda r: r.batch_id):
            batch = list(group)
            updates = [r.request for r in batch if r.request.kind == "update"]
            for update in updates:
                mirror.write(update.tenant, update.vector, update.bits)
                self.written.add((update.tenant, update.vector))
            for update in updates:
                for note in refreshes.pop(update.request_id, ()):
                    errors += self._check_refresh(mirror, note)
            for result in batch:
                if result.request.kind != "update":
                    errors += self._check_read(mirror, result, snapshots)
        for notes in refreshes.values():
            errors += [
                f"notification {n.subscription_id}/{n.seq}: triggered by "
                f"updates this node never completed"
                for n in notes
            ]
        return errors

    def _check_refresh(self, mirror: _Mirror, note) -> List[str]:
        self.checked += 1
        sub = self._subscriptions[note.subscription_id]
        expected = mirror.popcount(sub.tenant, sub.op, sub.vectors)
        if note.popcount != expected:
            return [
                f"notification {note.subscription_id}/{note.seq}: popcount "
                f"{note.popcount} != oracle {expected}"
            ]
        return []

    def _check_read(self, mirror: _Mirror, result, snapshots) -> List[str]:
        self.checked += 1
        request = result.request
        if request.kind == "analytics":
            got = (result.popcount, result.value, result.groups)
            want = mirror.analyze(request.tenant, request.filters, request.aggregate)
            if got != want:
                return [
                    f"analytics request {request.request_id}: got {got}, "
                    f"oracle {want}"
                ]
            return []
        if request.kind == "subscribe":
            self._subscriptions[request.request_id] = request
        expected = mirror.popcount(request.tenant, request.op, request.vectors)
        if result.popcount != expected:
            return [
                f"request {request.request_id}: popcount {result.popcount} "
                f"!= oracle {expected}"
            ]
        if request.kind == "subscribe":
            note = snapshots.get(request.request_id)
            if note is None or note.popcount != expected:
                return [
                    f"subscription {request.request_id}: snapshot "
                    f"notification missing or != oracle {expected}"
                ]
        return []

    def _check_shadows(self, node_id: int, engine) -> List[str]:
        """The engine's host shadows must equal the replayed mirror."""
        errors = []
        for tenant, vectors in self.mirrors[node_id].vectors.items():
            shadows = engine.tenant_vectors(tenant)
            for name, bits in vectors.items():
                if not np.array_equal(shadows[name], bits):
                    errors.append(
                        f"node {node_id} {tenant}/{name}: shadow differs "
                        f"from the replayed mirror"
                    )
        return errors

    def _check_gathers(self, router) -> List[str]:
        """Gathered range reads against the primary's mirror.

        A gather has no single dispatch point, so it is only checked
        over vectors no update has touched (the bins of an index column,
        in these workloads); its parts were checked on their nodes.
        """
        errors = []
        for result in router.results:
            request = result.request
            if result.batch_id != -1 or result.status is not RequestStatus.COMPLETED:
                continue
            touched = [v for v in request.vectors if (request.tenant, v) in self.written]
            if touched:
                raise ValueError(
                    f"request {request.request_id}: cannot order a gathered "
                    f"read after writes to {touched}"
                )
            self.checked += 1
            primary = self.mirrors[router.tenant_owners(request.tenant)[0]]
            expected = primary.popcount(request.tenant, request.op, request.vectors)
            if result.popcount != expected:
                errors.append(
                    f"gathered request {request.request_id}: popcount "
                    f"{result.popcount} != oracle {expected}"
                )
        return errors
