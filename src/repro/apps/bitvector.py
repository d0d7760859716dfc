"""Operator-overloaded bit-vectors over any bulk-bitwise backend.

The friendliest face of the stack: ``PimBitVector`` wraps a vector
handle so that ``a | b``, ``a & b``, ``a ^ b`` and ``~a`` each execute as
one in-memory operation, and ``PimBitVector.any_of([...])`` exposes the
one-step multi-row OR directly.

Where the vectors live is chosen by the first argument of every
constructor -- any of:

- a :class:`~repro.runtime.api.PimRuntime` (the classic Pinatubo stack);
- a backend registry name (``"pinatubo"``, ``"simd"``, ``"sdram"``...);
- a :class:`~repro.backends.SystemConfig`;
- an already-built :class:`~repro.backends.BulkBitwiseBackend`.

Names/configs/backends are wrapped in a :class:`HostBitSpace`, which
keeps the bits host-side and prices every operation through the backend
(its ``stats`` list records the :class:`~repro.backends.RunStats` of
each op).  A backend exposing a ``runtime`` (the Pinatubo one) binds to
that runtime directly, so its vectors genuinely live in PIM memory.
Vectors can only combine when they share one space -- build the space
once and reuse it::

    space = bitvector_space("sdram")
    a = PimBitVector.from_bits(space, bits_a)
    b = PimBitVector.from_bits(space, bits_b)
    (a | b).to_numpy()
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.backends import BulkBitwiseBackend, SystemConfig, build_system


class _HostHandle:
    """Handle of a vector held by a :class:`HostBitSpace`."""

    __slots__ = ("vid", "n_bits")

    def __init__(self, vid: int, n_bits: int):
        self.vid = vid
        self.n_bits = n_bits


class HostBitSpace:
    """``pim_*`` facade over a protocol backend, bits held host-side.

    Mirrors the :class:`~repro.runtime.api.PimRuntime` programming model
    (malloc/free/write/read/op) so :class:`PimBitVector` runs unchanged
    on cost-model backends; every executed op appends its
    :class:`~repro.backends.RunStats` to :attr:`stats`.
    """

    def __init__(self, backend: BulkBitwiseBackend):
        self.backend = backend
        self.stats: List = []
        self._vectors = {}
        self._next_vid = 0

    def pim_malloc(self, n_bits: int, group: str = "default") -> _HostHandle:
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        handle = _HostHandle(self._next_vid, n_bits)
        self._next_vid += 1
        self._vectors[handle.vid] = np.zeros(n_bits, dtype=np.uint8)
        return handle

    def pim_free(self, handle: _HostHandle) -> None:
        del self._vectors[handle.vid]

    def pim_write(self, handle: _HostHandle, bits) -> None:
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size > handle.n_bits:
            raise ValueError("data longer than the allocated vector")
        self._vectors[handle.vid][: bits.size] = bits

    def pim_read(
        self, handle: _HostHandle, n_bits: Optional[int] = None
    ) -> np.ndarray:
        n_bits = handle.n_bits if n_bits is None else n_bits
        if n_bits > handle.n_bits:
            raise ValueError("read longer than the allocated vector")
        return self._vectors[handle.vid][:n_bits].copy()

    def pim_op(self, op, dest, sources, *, n_bits: Optional[int] = None):
        """``dest = op(sources)`` through the backend; returns its run.

        ``op`` is a :class:`~repro.core.ops.PimOp` or its string name;
        optional parameters are keyword-only, matching
        :meth:`PimRuntime.pim_op <repro.runtime.api.PimRuntime.pim_op>`.
        """
        run = self.backend.bitwise(
            op, [self._vectors[s.vid] for s in sources]
        )
        self._store(dest, run)
        return run

    def pim_op_many(self, requests) -> List:
        """Batched stream through the backend's ``bitwise_many``."""
        requests = [tuple(r) for r in requests]
        calls = [
            (op, [self._vectors[s.vid] for s in sources])
            for op, _dest, sources, *_rest in requests
        ]
        runs = self.backend.bitwise_many(calls)
        for (op, dest, *_rest), run in zip(requests, runs):
            self._store(dest, run)
        return runs

    def _store(self, dest: _HostHandle, run) -> None:
        self._vectors[dest.vid][: run.bits.size] = run.bits
        self.stats.append(run.stats)

    def total_latency(self) -> float:
        return sum(s.latency for s in self.stats)

    def total_energy(self) -> float:
        return sum(s.energy for s in self.stats)


def bitvector_space(target):
    """Resolve anything vector-shaped code accepts into one space.

    Runtimes (and already-resolved spaces) pass through; registry names
    and :class:`~repro.backends.SystemConfig` build a backend first; a
    backend with a ``runtime`` attribute binds to that runtime, any
    other backend is wrapped in a :class:`HostBitSpace`.
    """
    if hasattr(target, "pim_malloc"):  # PimRuntime or HostBitSpace
        return target
    if isinstance(target, str):
        target = SystemConfig(backend=target)
    if isinstance(target, SystemConfig):
        target = build_system(target)
    if not isinstance(target, BulkBitwiseBackend):
        raise TypeError(
            "expected a runtime, backend name, SystemConfig or backend, "
            f"not {type(target).__name__}"
        )
    runtime = getattr(target, "runtime", None)
    if runtime is not None:
        return runtime
    return HostBitSpace(target)


class PimBitVector:
    """A bit-vector living in a bulk-bitwise space, with operators."""

    def __init__(self, space, n_bits: int, group: str = "bitvec", handle=None):
        self.space = bitvector_space(space)
        self.n_bits = n_bits
        self.group = group
        self.handle = handle or self.space.pim_malloc(n_bits, group)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_bits(cls, space, bits, group: str = "bitvec") -> "PimBitVector":
        bits = np.asarray(bits, dtype=np.uint8)
        vec = cls(space, bits.size, group)
        vec.space.pim_write(vec.handle, bits)
        return vec

    @classmethod
    def zeros(cls, space, n_bits: int, group: str = "bitvec") -> "PimBitVector":
        return cls(space, n_bits, group)

    def _like(self) -> "PimBitVector":
        return PimBitVector(self.space, self.n_bits, self.group)

    def _check_peer(self, other: "PimBitVector") -> None:
        if not isinstance(other, PimBitVector):
            raise TypeError("operand must be a PimBitVector")
        if other.space is not self.space:
            raise ValueError("operands live in different spaces")
        if other.n_bits != self.n_bits:
            raise ValueError("operand lengths differ")

    # -- operators --------------------------------------------------------------

    def _binary(self, op: str, other: "PimBitVector") -> "PimBitVector":
        self._check_peer(other)
        out = self._like()
        self.space.pim_op(op, out.handle, [self.handle, other.handle])
        return out

    def __or__(self, other):
        return self._binary("or", other)

    def __and__(self, other):
        return self._binary("and", other)

    def __xor__(self, other):
        return self._binary("xor", other)

    def __invert__(self):
        out = self._like()
        self.space.pim_op("inv", out.handle, [self.handle])
        return out

    @classmethod
    def any_of(cls, vectors) -> "PimBitVector":
        """One-step multi-row OR of many vectors (Pinatubo's signature op)."""
        vectors = list(vectors)
        if len(vectors) < 2:
            raise ValueError("any_of needs at least two vectors")
        first = vectors[0]
        for v in vectors[1:]:
            first._check_peer(v)
        out = first._like()
        first.space.pim_op(
            "or", out.handle, [v.handle for v in vectors]
        )
        return out

    @classmethod
    def apply_many(
        cls, calls: Sequence[Tuple[str, Sequence["PimBitVector"]]]
    ) -> List["PimBitVector"]:
        """Run a stream of ``(op, [vectors])`` as one batched flush.

        All vectors must share one space.  On the Pinatubo runtime the
        stream prices as a single command batch (the PR 1 engine); host
        spaces route it through the backend's ``bitwise_many``.  Returns
        the result vectors in call order.
        """
        calls = [(op, list(vecs)) for op, vecs in calls]
        if not calls:
            return []
        with telemetry.span("app.bitvector.apply_many", calls=len(calls)):
            first = calls[0][1][0]
            outs = []
            requests = []
            for op, vecs in calls:
                for v in vecs:
                    first._check_peer(v)
                out = first._like()
                outs.append(out)
                requests.append(
                    (op, out.handle, [v.handle for v in vecs], first.n_bits)
                )
            first.space.pim_op_many(requests)
            return outs

    # -- host access ---------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        return self.space.pim_read(self.handle, self.n_bits)

    def popcount(self) -> int:
        """Host-side count of set bits (reads the vector back)."""
        return int(self.to_numpy().sum())

    def free(self) -> None:
        self.space.pim_free(self.handle)

    def __len__(self) -> int:
        return self.n_bits

    def __repr__(self) -> str:
        return f"PimBitVector(n_bits={self.n_bits}, vid={self.handle.vid})"
