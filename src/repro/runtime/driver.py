"""The dynamic-linked driver library (paper Section 5).

"Based on the PAs, the dynamic linked driver library first optimizes and
reschedules the operation requests, and then issues extended instruction
for PIM."  The driver here:

1. collects :class:`PimRequest` objects (handles, not addresses);
2. resolves physical placement through the OS manager;
3. *reorders* the batch so same-op requests run back-to-back (each op
   switch costs a mode-register write) while preserving data dependences
   (a request reading a vector an earlier request writes cannot hop over
   it);
4. encodes each request as an extended instruction and hands it to the
   executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.executor import OpResult, PinatuboExecutor, PlacementError
from repro.core.ops import BITWISE_UFUNCS, PimOp
from repro.core.stats import OpAccounting
from repro.runtime.allocator import BitVectorHandle
from repro.runtime.isa import PimInstruction, decode_instruction, encode_instruction

# always-live instruments (survive telemetry.reset(): values are zeroed,
# the objects stay registered)
_REQUESTS = telemetry.counter("runtime.driver.requests")
_FLUSHES = telemetry.counter("runtime.driver.flushes")
_MODE_SWITCHES = telemetry.counter("runtime.driver.mode_switches")
_HOST_FALLBACKS = telemetry.counter("runtime.driver.host_fallbacks")


def _submission_order(order: Sequence[int], results: Sequence) -> List:
    """Map results computed in execution order back to submission order."""
    out = [None] * len(results)
    for pos, result in zip(order, results):
        out[pos] = result
    return out


@dataclass(frozen=True, slots=True)
class PimRequest:
    """One queued pim_op call."""

    op: PimOp
    dest: BitVectorHandle
    sources: Tuple[BitVectorHandle, ...]
    n_bits: int
    overlap_chunks: bool = False

    def depends_on(self, other: "PimRequest") -> bool:
        """True if this request must stay after ``other``."""
        reads = {h.vid for h in self.sources}
        writes_mine = self.dest.vid
        # RAW: we read what the other wrote; WAW/WAR on the destination.
        if other.dest.vid in reads:
            return True
        if other.dest.vid == writes_mine:
            return True
        if writes_mine in {h.vid for h in other.sources}:
            return True
        return False


@dataclass(slots=True)
class DriverStats:
    requests: int = 0
    instructions: int = 0
    mode_switches: int = 0
    host_fallbacks: int = 0
    accounting: OpAccounting = field(default_factory=OpAccounting)

    def to_dict(self) -> dict:
        """Uniform stat record (the RunStats field vocabulary, aggregated
        over every request this driver has flushed)."""
        return {
            "latency": self.accounting.latency,
            "energy": self.accounting.energy,
            "bits_processed": self.accounting.bits_processed,
            "steps": self.accounting.in_memory_steps,
            "requests": self.requests,
            "instructions": self.instructions,
            "mode_switches": self.mode_switches,
            "host_fallbacks": self.host_fallbacks,
        }

    def summary(self) -> str:
        """One-line human-readable digest.

        .. note:: before the stats-convention convergence this method
           returned a dict; that payload now lives on :meth:`to_dict`.
        """
        return (
            f"DriverStats: {self.requests} requests / "
            f"{self.instructions} instructions, "
            f"{self.mode_switches} mode switches, "
            f"{self.host_fallbacks} host fallbacks, "
            f"latency {self.accounting.latency:.3e}s, "
            f"energy {self.accounting.energy:.3e}J"
        )


class PimDriver:
    """Batches, reorders and issues PIM requests."""

    def __init__(self, executor: PinatuboExecutor):
        self.executor = executor
        self._queue: List[PimRequest] = []
        self.stats = DriverStats()

    # -- request queue ------------------------------------------------------

    def submit(
        self,
        op,
        dest: BitVectorHandle,
        sources,
        n_bits: Optional[int] = None,
        overlap_chunks: bool = False,
    ) -> None:
        """Queue one operation (flushed explicitly or via ``flush``)."""
        op = PimOp.parse(op)
        sources = tuple(sources)
        if n_bits is None:
            n_bits = min([dest.n_bits] + [s.n_bits for s in sources])
        self._queue.append(PimRequest(op, dest, sources, n_bits, overlap_chunks))
        self.stats.requests += 1
        _REQUESTS.add()

    @property
    def pending(self) -> int:
        return len(self._queue)

    # -- scheduling ---------------------------------------------------------

    def _reorder(self, requests: Sequence[PimRequest]) -> List[int]:
        """Stable op-grouping that respects data dependences.

        Greedy list scheduling: repeatedly emit the longest run of
        ready requests sharing one op.  Returns the execution order as a
        permutation of submission indices so :meth:`flush` can hand the
        per-request results back in submission order.
        """
        # (submission index, request, dest vid, source vid set): hoisted
        # so the O(n^2) dependence scan below is pure set work
        remaining = [
            (i, req, req.dest.vid, {h.vid for h in req.sources})
            for i, req in enumerate(requests)
        ]
        order: List[int] = []
        while remaining:
            # ready = requests with no dependence on anything still queued
            # before them (RAW / WAW / WAR against an earlier request)
            ready_idx = []
            for i, (_pos, _req, write, reads) in enumerate(remaining):
                ready = True
                for _ppos, _prev, p_write, p_reads in remaining[:i]:
                    if p_write in reads or p_write == write or write in p_reads:
                        ready = False
                        break
                if ready:
                    ready_idx.append(i)
            if not ready_idx:  # cycle cannot happen with RAW/WAW/WAR; safety
                ready_idx = [0]
            # pick the op with the most ready requests
            by_op = {}
            for i in ready_idx:
                by_op.setdefault(remaining[i][1].op, []).append(i)
            best_op = max(by_op, key=lambda op: len(by_op[op]))
            # keep submission order within the emitted group; pop from the
            # back so earlier indices stay valid
            order.extend(remaining[i][0] for i in by_op[best_op])
            for i in reversed(by_op[best_op]):
                remaining.pop(i)
        return order

    def flush(self) -> List[OpResult]:
        """Issue every queued request; returns the per-request results.

        Results come back in **submission order** regardless of how the
        scheduler reordered execution, so callers can zip them against
        what they queued.

        A stream of more than one request is priced as **one** command
        batch through :meth:`PinatuboExecutor.bitwise_many`; per-request
        results are identical to the sequential path.  If any request's
        placement is in-memory-infeasible, the stream falls back to the
        per-request path so individual requests can take the host
        fallback -- ``bitwise_many`` validates placement before touching
        any state, which is what makes the retry safe.
        """
        with telemetry.span("runtime.driver.flush") as sp:
            batch, self._queue = self._queue, []
            order = self._reorder(batch)
            ordered = [batch[i] for i in order]
            sp.add(requests=len(ordered))
            _FLUSHES.add()
            last_op = None
            for req in ordered:
                if req.op != last_op:
                    self.stats.mode_switches += 1
                    _MODE_SWITCHES.add()
                    last_op = req.op
                instr = PimInstruction(
                    op=req.op,
                    dest_frame=req.dest.frames[0],
                    source_frames=tuple(s.frames[0] for s in req.sources),
                    n_bits=req.n_bits,
                )
                # round-trip through the wire format: the controller sees bytes
                decoded = decode_instruction(encode_instruction(instr))
                assert decoded == instr

            if len(ordered) > 1:
                try:
                    results = self.executor.bitwise_many(
                        [
                            (
                                req.op,
                                list(req.dest.frames),
                                [list(s.frames) for s in req.sources],
                                req.n_bits,
                                req.overlap_chunks,
                            )
                            for req in ordered
                        ]
                    )
                except PlacementError:
                    results = None  # retry request-by-request with host fallback
                if results is not None:
                    self._account(results)
                    return _submission_order(order, results)

            results = []
            for req in ordered:
                try:
                    result = self.executor.bitwise(
                        req.op,
                        list(req.dest.frames),
                        [list(s.frames) for s in req.sources],
                        req.n_bits,
                        overlap_chunks=req.overlap_chunks,
                    )
                except PlacementError:
                    # operands span chips/channels: the memory cannot combine
                    # them, so the driver falls back to the host path (read
                    # every operand over the bus, compute, write back) -- the
                    # cost the PIM-aware allocator exists to avoid
                    result = self._host_fallback(req)
                    self.stats.host_fallbacks += 1
                    _HOST_FALLBACKS.add()
                results.append(result)
            self._account(results)
            return _submission_order(order, results)

    def _account(self, results: Sequence[OpResult]) -> None:
        """Fold a flush's results into ``stats``: one new accounting
        object per flush (an accounting captured earlier is never
        mutated), bit-identical to a per-result ``merged`` chain."""
        stats = self.stats
        stats.instructions += len(results)
        stats.accounting = stats.accounting.merged_all(
            [r.accounting for r in results]
        )

    def _host_fallback(self, req: PimRequest) -> OpResult:
        """Execute one request on the host: bus reads + CPU op + write."""
        acct = OpAccounting()
        if req.op is PimOp.INV:
            bits, read_acct = self.executor.read_vector(
                list(req.sources[0].frames), req.n_bits
            )
            acct = acct.merged(read_acct)
            out = (1 - bits).astype(np.uint8)
        else:
            ufunc = BITWISE_UFUNCS[req.op]
            out = None
            for source in req.sources:
                bits, read_acct = self.executor.read_vector(
                    list(source.frames), req.n_bits
                )
                acct = acct.merged(read_acct)
                out = bits if out is None else ufunc(out, bits)
        write_acct = self.executor.write_vector(list(req.dest.frames), out)
        acct = acct.merged(write_acct)
        acct.count_bits(req.n_bits * len(req.sources))
        return OpResult(op=req.op, accounting=acct, steps=0)

    def execute(
        self,
        op,
        dest,
        sources,
        n_bits: Optional[int] = None,
        overlap_chunks: bool = False,
    ) -> OpResult:
        """Submit + flush one request (the common synchronous path)."""
        self.submit(op, dest, sources, n_bits, overlap_chunks)
        return self.flush()[0]

    def execute_many(self, requests: Iterable[tuple]) -> List[OpResult]:
        """Submit a stream of ``(op, dest, sources[, n_bits])`` tuples and
        flush them as one command batch (see :meth:`flush`)."""
        for req in requests:
            self.submit(*req)
        return self.flush()
