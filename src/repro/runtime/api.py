"""The programming model: :class:`PimRuntime`.

The two calls the paper gives programmers (Fig. 4)::

    pim_malloc( )                      ->  PimRuntime.pim_malloc(n_bits)
    pim_op(dst, src1, src2,
           data_t, op_t, len)          ->  PimRuntime.pim_op(op, dst, srcs)

plus host-side reads/writes of vector contents and cost accounting.  This
is the layer applications (:mod:`repro.apps`) are written against.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.bitops import popcount_prefix
from repro.core.pinatubo import PinatuboSystem
from repro.core.stats import OpAccounting
from repro.memsim.geometry import DEFAULT_GEOMETRY, MemoryGeometry
from repro.runtime.allocator import BitVectorHandle, PimAllocator
from repro.runtime.driver import PimDriver
from repro.runtime.os_mm import PimMemoryManager, PlacementPolicy


def _canned_config(
    technology: str, max_rows: Optional[int], geometry: MemoryGeometry
):
    """The declarative config a pcm()/stt() shortcut stands for."""
    from repro.backends.config import SystemConfig, geometry_name

    return SystemConfig(
        backend="pinatubo",
        technology=technology,
        geometry=geometry_name(geometry),
        max_rows=max_rows,
    )


class PimRuntime:
    """End-to-end Pinatubo software stack over one memory system."""

    def __init__(
        self,
        system: Optional[PinatuboSystem] = None,
        policy: PlacementPolicy = PlacementPolicy.PIM_AWARE,
        plan: bool = False,
        plan_cache_bytes: int = 64 << 20,
        compile: bool = True,
    ):
        self.system = system or PinatuboSystem.pcm()
        self.manager = PimMemoryManager(self.system.geometry, policy)
        self.allocator = PimAllocator(self.manager)
        self.driver = PimDriver(self.system.executor)
        self.host_accounting = OpAccounting()
        self.planner = None
        if plan:
            # deferred import: repro.plan imports the driver module
            from repro.plan import QueryPlanner

            self.planner = QueryPlanner(
                self.driver,
                cache_bytes=plan_cache_bytes,
                compile=compile,
            )
            self.allocator.add_free_listener(self.planner.on_free)

    # -- canned configurations ----------------------------------------------

    @classmethod
    def from_config(
        cls,
        config,
        plan: bool = False,
        plan_cache_bytes: int = 64 << 20,
        compile: bool = True,
    ) -> "PimRuntime":
        """The canonical constructor: declarative config -> full stack.

        Routes through :func:`repro.backends.build_system` -- the same
        registry path every other consumer of a
        :class:`~repro.backends.config.SystemConfig` takes -- and asks
        the built backend for its functional runtime (only the
        ``pinatubo`` backend has one; anything else raises with the list
        of registered names).  The ``pcm()``/``stt()`` shortcuts and the
        direct ``PimRuntime(system)`` constructor are thin wrappers /
        injection hooks around this path: ``PimRuntime.pcm()`` is
        ``PimRuntime.from_config(SystemConfig(technology="pcm"))`` by
        definition, and builds an equivalent system.
        ``plan``/``compile`` carry through to the constructor (planned
        execution with the kernel compiler's to-host, serve and repair
        programs; repair on read is always on).
        """
        from repro.backends.registry import build_system

        backend = build_system(config)
        build_runtime = getattr(backend, "build_runtime", None)
        if build_runtime is None:
            from repro.backends.registry import registry

            raise ValueError(
                f"backend {config.backend!r} has no functional runtime; "
                f"registered: {registry.names()} (only 'pinatubo' builds "
                f"a PimRuntime)"
            )
        return build_runtime(
            plan=plan,
            plan_cache_bytes=plan_cache_bytes,
            compile=compile,
        )

    @classmethod
    def pcm(
        cls,
        max_rows: Optional[int] = None,
        geometry: MemoryGeometry = DEFAULT_GEOMETRY,
        **kwargs,
    ) -> "PimRuntime":
        """PCM main memory -- one-line wrapper over :meth:`from_config`."""
        return cls.from_config(_canned_config("pcm", max_rows, geometry), **kwargs)

    @classmethod
    def stt(
        cls, geometry: MemoryGeometry = DEFAULT_GEOMETRY, **kwargs
    ) -> "PimRuntime":
        """STT-MRAM main memory -- wrapper over :meth:`from_config`."""
        return cls.from_config(_canned_config("stt", None, geometry), **kwargs)

    # -- programming model ----------------------------------------------------

    def pim_malloc(self, n_bits: int, group: str = "default") -> BitVectorHandle:
        """Allocate a bit-vector in PIM memory (row-aligned)."""
        return self.allocator.pim_malloc(n_bits, group)

    def pim_free(self, handle: BitVectorHandle) -> None:
        self.allocator.pim_free(handle)

    def pim_op(self, op, dest, sources, *, n_bits: Optional[int] = None,
               overlap_chunks: bool = False):
        """``dest = op(sources)`` executed in memory; returns the OpResult.

        ``op`` is a :class:`~repro.core.ops.PimOp` or its string name
        (``"or"``/``"and"``/``"xor"``/``"inv"``), matching the backend
        protocol's :meth:`~repro.backends.BulkBitwiseBackend.bitwise`;
        the optional parameters are keyword-only for the same reason.
        ``overlap_chunks=True`` (extension) lets the chunks of a long
        vector execute concurrently when the placement policy striped
        them across channels.

        With ``plan=True`` the request goes through the
        :class:`~repro.plan.QueryPlanner` first, which may serve it from
        the sub-result cache instead of executing it.
        """
        if self.planner is not None:
            return self.planner.execute(op, dest, sources, n_bits, overlap_chunks)
        return self.driver.execute(op, dest, sources, n_bits, overlap_chunks)

    def pim_op_many(self, requests: Iterable[tuple]) -> List:
        """Issue a stream of ``(op, dest, sources[, n_bits])`` operations.

        The whole stream is reordered by the driver and priced as **one**
        command batch (one :meth:`MemoryController.execute_batch` call)
        instead of one stream per operation; per-op results are identical
        to sequential :meth:`pim_op` calls.  Returns the OpResults in
        issue order.

        With ``plan=True`` the whole stream is planned by the
        :class:`~repro.plan.QueryPlanner`: duplicate sub-expressions are
        eliminated within the batch and against the sub-result cache,
        and what remains executes through the same driver flush.
        """
        if self.planner is not None:
            return self.planner.execute_many(requests)
        return self.driver.execute_many(requests)

    def pim_op_to_host(
        self, op, scratch, sources, *, n_bits: Optional[int] = None
    ) -> np.ndarray:
        """``op(sources)`` with the result streamed straight to the host.

        The paper's alternative emission path ("results can be sent to
        the I/O bus"): no destination row is programmed by the final
        step; ``scratch`` only holds intermediates when the operand list
        decomposes.  Returns the result bits.  The one-request case of
        :meth:`pim_to_host_many`.
        """
        return self.pim_to_host_many(((op, scratch, sources, n_bits),))[0]

    def pim_to_host_many(self, requests: Iterable[tuple]) -> List[np.ndarray]:
        """Issue ``(op, scratch, sources[, n_bits])`` to-host ops as **one**
        stream; returns each op's result bits, in issue order.

        One command batch, one marked operation per op (priced and
        accounted per op, in order, exactly as the same sequence of
        :meth:`pim_op_to_host` calls), and on a planned runtime one
        to-host program per stream shape.
        """
        return [
            np.unpackbits(rows, count=n_bits, bitorder="little")
            for rows, n_bits in self._bus_read(requests, False)
        ]

    def pim_popcount(
        self, op, scratch, sources, *, n_bits: Optional[int] = None
    ) -> int:
        """``popcount(op(sources))``: a to-host op reduced to a count.

        The command stream and pricing are identical to
        :meth:`pim_op_to_host` -- the full result still crosses the I/O
        bus -- but the host side reduces the packed rows straight to a
        set-bit count, skipping the bit unpack.  The arithmetic
        subsystem's aggregation primitive (COUNT/SUM/histogram).
        """
        ((rows, n_bits),) = self._bus_read(((op, scratch, sources, n_bits),), True)
        return popcount_prefix(rows, n_bits)

    def _bus_read(self, requests, popcount: bool):
        """The to-host stream both bus verbs issue: ``[(packed rows,
        n_bits)]`` per request.

        Planned runtimes route through the kernel compiler, where the
        stream freezes into a to-host program on first sight and
        replays it from the second.  The rows hold each result's first
        ``n_bits`` bits, little-endian; padding past them is undefined.
        Every op counts one instruction, and the ops' accountings merge
        into the driver's in issue order.
        """
        stream = []
        for req in requests:
            op, scratch, sources = req[0], req[1], list(req[2])
            n_bits = req[3] if len(req) > 3 else None
            if n_bits is None:
                n_bits = min([scratch.n_bits] + [s.n_bits for s in sources])
            stream.append((op, scratch.frames, [s.frames for s in sources], n_bits))
        planner = self.planner
        if planner is not None:
            execute = (
                planner.execute_popcount if popcount else planner.execute_to_host
            )
            rows, results = execute(stream)
        else:
            pairs = self.system.executor.bitwise_to_host_many(stream)
            rows = [r for r, _ in pairs]
            results = [result for _, result in pairs]
        stats = self.driver.stats
        stats.instructions += len(results)
        stats.accounting = stats.accounting.merged_all(
            [r.accounting for r in results]
        )
        return [(r.reshape(-1), req[3]) for r, req in zip(rows, stream)]

    def pim_write(self, handle: BitVectorHandle, bits: np.ndarray) -> None:
        """Host write of a vector's contents (pays bus cost)."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size > handle.n_bits:
            raise ValueError("data longer than the allocated vector")
        acct = self.system.executor.write_vector(handle.frames, bits)
        self.host_accounting = self.host_accounting.merged(acct)

    def pim_read(
        self, handle: BitVectorHandle, n_bits: Optional[int] = None
    ) -> np.ndarray:
        """Host read of a vector's contents (pays bus cost)."""
        n_bits = handle.n_bits if n_bits is None else n_bits
        return self.pim_read_many((handle,), (n_bits,))[0]

    def pim_read_many(
        self, handles: Sequence[BitVectorHandle], n_bits: Sequence[int]
    ) -> List[np.ndarray]:
        """Host reads of many vectors' first ``n_bits`` bits, in order.

        Every read is checked before any is made; the rows come back in
        one gather (:meth:`PinatuboExecutor.read_vectors`), and each
        read's cost folds into ``host_accounting`` in request order, so
        the totals equal the same sequence of :meth:`pim_read` calls.
        """
        for handle, n in zip(handles, n_bits):
            if n > handle.n_bits:
                raise ValueError("read longer than the allocated vector")
        reads = self.system.executor.read_vectors(
            [handle.frames for handle in handles], n_bits
        )
        self.host_accounting = self.host_accounting.merged_all(
            [acct for _bits, acct in reads]
        )
        return [bits for bits, _acct in reads]

    # -- accounting --------------------------------------------------------------

    @property
    def pim_accounting(self) -> OpAccounting:
        """Cost of every in-memory operation issued through the driver."""
        return self.driver.stats.accounting

    @property
    def plan_stats(self):
        """The planner's :class:`~repro.plan.PlanStats` (None when
        planning is off)."""
        return self.planner.stats if self.planner is not None else None

    def total_latency(self) -> float:
        return self.pim_accounting.latency + self.host_accounting.latency

    def total_energy(self) -> float:
        return self.pim_accounting.energy + self.host_accounting.energy
