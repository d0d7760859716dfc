"""Program compiler: recurring to-host streams lowered to frozen batches.

Every planned exec wave runs through the driver's row-parallel flush
(one gather, one ``ufunc`` pass and one ``write_frames`` per op), and
every served result prices the executor's ``"serve"`` row I/O template
(:func:`~repro.memsim.controller.row_io_template`), so what is left to
compile is the to-host stream, whose *shape* -- command kinds,
channels, step counts, segment fences -- is a pure function of a
canonical key while its Python-side cost is per call.

A :class:`ToHostProgram` (``pim_to_host_many`` and its one-request
cases ``pim_op_to_host`` and ``pim_popcount``) freezes on first sight.
The interpreted stream is *recorded* (``PinatuboExecutor.record_sink``)
and its command batch -- one marked op per request -- snapshotted as a
**frozen batch**: the columns as preallocated numpy arrays that
duck-type :class:`~repro.memsim.controller.CommandBatch`, so replay
re-prices through the *real* ``MemoryController.execute_batch`` --
simulated latency/energy is byte-identical to the interpreted path by
construction -- while the functional results come from one gather of
every op's operand rows.

Programs are keyed by canonical shape (a stream's ops'
:func:`to_host_shape_key` tuple) and are **frame-agnostic**: operands
resolve to the call's actual row frames at replay time.  Write
invalidation needs no program-level hook -- a to-host program writes
nothing and re-reads its operands on every replay.  Calls a program
cannot replay (ones that ran accumulation passes, whose scratch writes
are not replayed) are marked :data:`UNCOMPILABLE` and stay interpreted
forever; inter-chip shapes get no key at all.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.executor import MODE_CODES, OpResult, price_ops
from repro.core.ops import BITWISE_UFUNCS, PimOp
from repro.core.stats import LOCALITY_BASE, OpAccounting
from repro.memsim.controller import freeze_batch

__all__ = [
    "UNCOMPILABLE",
    "ToHostProgram",
    "build_to_host_program",
    "to_host_shape_key",
]

PROGRAM_HITS = telemetry.counter("plan.compile.program_hits")
PROGRAM_MISSES = telemetry.counter("plan.compile.program_misses")
COMPILATIONS = telemetry.counter("plan.compile.compilations")
UNCOMPILABLE_SHAPES = telemetry.counter("plan.compile.uncompilable")
COMPILE_SECONDS = telemetry.accumulator("plan.compile.seconds")


#: program-cache marker: shape needs interpreted semantics forever
UNCOMPILABLE = object()


# -- shape keys ---------------------------------------------------------------


def _mode_token(mode: Optional[PimOp]) -> str:
    return mode.value if mode is not None else ""


def to_host_shape_key(
    mapper,
    op: PimOp,
    scratch: Sequence[int],
    sources: Sequence[Sequence[int]],
    n_bits: int,
    n_chunks: int,
    mode_in: Optional[PimOp],
):
    """Canonical shape of one ``bitwise_to_host`` call, or ``None``.

    No vector ids: a to-host op writes nothing, so only the command
    shape matters -- op, width, operand count, entry mode, the first
    operand's per-chunk channels, and the per-chunk locality of the
    (scratch, sources) set, mirroring the interpreted classification.
    """
    rows = [list(s[:n_chunks]) for s in sources]
    rows.append(list(scratch[:n_chunks]))
    mat = np.asarray(rows, dtype=np.int64)
    codes = mapper.locality_codes(mat)
    if codes.max(initial=0) == 3:
        return None
    channels = mapper.channels_of(mat[0])
    return (
        "to_host",
        op.value,
        n_bits,
        len(rows) - 1,
        _mode_token(mode_in),
        channels.tobytes(),
        codes.tobytes(),
    )


# -- to-host programs ---------------------------------------------------------


class ToHostProgram:
    """Replayable to-host stream: frozen pricing + functional compute.

    A to-host op writes no memory and its command stream carries no
    data-dependent widths, so a whole stream (one marked operation per
    op, mode switches included) freezes on first sight: replay
    recomputes every op's result from one gather of the operand rows,
    sets the mode register, and re-prices the frozen batch.  Its
    pricing is a pure function of the columns, so ``results`` keeps the
    shared read-only ``OpResult`` of each op, built on the first
    replay.  It returns packed result rows; the caller decides what
    crosses to the host -- the unpacked bits (``pim_op_to_host``,
    ``pim_to_host_many``) or their set-bit count (``pim_popcount``).
    """

    __slots__ = (
        "frozen",
        "ops",  # (op, n_chunks) per op; each ran one step per chunk
        "localities",  # per op, its accounting's locality steps
        "mode_code",  # mode register after the stream
        "results",  # per-op OpResults, built on the first replay
    )

    def replay(
        self, executor, stream: Sequence[tuple]
    ) -> Tuple[List[np.ndarray], List[OpResult]]:
        """``(packed result rows per op, OpResult per op)``; bits past an
        op's ``n_bits`` in its last row are padding (an INV may have set
        them)."""
        operand_lists = [
            sources[:1] if op is PimOp.INV else sources
            for (op, _n), (_op, _scratch, sources, _nb) in zip(
                self.ops, stream
            )
        ]
        stack = executor.memory.gather_rows([
            f
            for (_op, n_chunks), lists in zip(self.ops, operand_lists)
            for s in lists
            for f in s[:n_chunks]
        ])
        rows = []
        start = 0
        for (op, n_chunks), lists in zip(self.ops, operand_lists):
            end = start + len(lists) * n_chunks
            operands = stack[start:end].reshape(len(lists), n_chunks, -1)
            rows.append(
                np.bitwise_not(operands[0])
                if op is PimOp.INV
                else BITWISE_UFUNCS[op].reduce(operands, axis=0)
            )
            start = end
        executor.controller.mode_register = self.mode_code
        executor._current_mode = self.ops[-1][0]
        per_op = price_ops(executor.controller, self.frozen, len(self.ops))
        results = self.results
        if results is None:
            results = self.results = []
            for (op, steps), (_o, _s, sources, n_bits), localities, stats in zip(
                self.ops, stream, self.localities, per_op
            ):
                # one combine step per chunk (see build_to_host_program)
                acct = OpAccounting(
                    in_memory_steps=steps, bits_processed=n_bits * len(sources)
                )
                acct.record[LOCALITY_BASE:] = localities
                acct.absorb(stats)
                results.append(OpResult(op=op, accounting=acct, steps=steps))
        return rows, results


def build_to_host_program(
    recorded: list, stream: Sequence[tuple], results: Sequence[OpResult],
    geometry,
) -> Optional[ToHostProgram]:
    """Lower one recorded to-host stream; ``None`` if any op ran
    accumulation passes (their scratch writes are not replayed)."""
    if len(recorded) != 1 or recorded[0][0] != "to_host":
        return None
    ops = []
    for (op, _scratch, _sources, n_bits), result in zip(stream, results):
        n_chunks = geometry.rows_for_bits(n_bits)
        if result.steps != n_chunks:
            return None
        ops.append((op, n_chunks))
    prog = ToHostProgram()
    prog.frozen = freeze_batch(recorded[0][1])
    prog.ops = ops
    prog.localities = [
        r.accounting.record[LOCALITY_BASE:].copy() for r in results
    ]
    prog.mode_code = MODE_CODES[ops[-1][0]]
    prog.results = None
    return prog
