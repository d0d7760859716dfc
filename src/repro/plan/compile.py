"""Program compiler: recurring planner shapes lowered to frozen batches.

Every planned exec wave runs through the driver's row-parallel flush
(one gather, one ``ufunc`` pass and one ``write_frames`` per op), so
what is left to compile is the work around it whose *shape* -- command
kinds, channels, step counts, segment fences -- is a pure function of a
canonical key while its Python-side cost is per call:

- :class:`ToHostProgram`: a ``bitwise_to_host`` call (both bus verbs,
  ``pim_op_to_host`` and ``pim_popcount``) freezes on first sight.  The
  interpreted call is *recorded* (``PinatuboExecutor.record_sink``) and
  its command batch snapshotted as a **frozen batch**: the columns as
  preallocated numpy arrays that duck-type
  :class:`~repro.memsim.controller.CommandBatch`, so replay re-prices
  through the *real* ``MemoryController.execute_batch`` -- simulated
  latency/energy is byte-identical to the interpreted path by
  construction -- while the functional result is one row-parallel
  ``bitwise_rows`` pass;
- :class:`ServeTemplate`: a served cache result's row-buffer read for
  one ``(n_bits, per-chunk channels)`` shape: the controller's
  ``"serve"`` row I/O template
  (:func:`~repro.memsim.controller.row_io_template`, no recording) and
  a shared result per op.

Programs are keyed by canonical shape (see :func:`to_host_shape_key`)
and are **frame-agnostic**: operands resolve to the call's actual row
frames at replay time.  Write invalidation needs no program-level hook
-- a to-host program writes nothing and re-reads its operands on every
replay.  Calls a program cannot replay (ones that ran accumulation
passes, whose scratch writes are not replayed) are marked
:data:`UNCOMPILABLE` and stay interpreted forever; inter-chip shapes
get no key at all.  The analytics compiler (``arith/compile.py``)
marks first sightings with :data:`SEEN_ONCE`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.executor import MODE_CODES, OpResult
from repro.core.ops import PimOp
from repro.core.stats import LOCALITY_BASE, OpAccounting
from repro.memsim.controller import FrozenBatch, freeze_batch

__all__ = [
    "SEEN_ONCE",
    "UNCOMPILABLE",
    "ServeTemplate",
    "ToHostProgram",
    "build_to_host_program",
    "to_host_shape_key",
]

PROGRAM_HITS = telemetry.counter("plan.compile.program_hits")
PROGRAM_MISSES = telemetry.counter("plan.compile.program_misses")
COMPILATIONS = telemetry.counter("plan.compile.compilations")
UNCOMPILABLE_SHAPES = telemetry.counter("plan.compile.uncompilable")
COMPILE_SECONDS = telemetry.accumulator("plan.compile.seconds")


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self._name}>"


#: record marker: shape observed once, not yet worth compiling (the
#: analytics compiler's records)
SEEN_ONCE = _Sentinel("seen-once")
#: program-cache marker: shape needs interpreted semantics forever
UNCOMPILABLE = _Sentinel("uncompilable")


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


# -- serve templates ----------------------------------------------------------


class ServeTemplate:
    """One served result's row-buffer read, for a ``(n_bits, per-chunk
    channels)`` shape.

    ``frozen`` is the memo-priced ``"serve"`` row I/O template,
    column-for-column what :func:`repro.plan.planner._serve_commands`
    emits, as one marked operation: per chunk a fenced ACT / PIM_SENSE
    / PRE on the destination's channel.  Its pricing is a pure function
    of those columns, so ``results`` keeps, per op, the shared
    read-only ``OpResult`` every serve of the shape returns.
    """

    __slots__ = ("frozen", "results")

    def __init__(self, frozen: FrozenBatch):
        self.frozen = frozen
        self.results = {}


# -- to-host programs ---------------------------------------------------------


class ToHostProgram:
    """Replayable ``bitwise_to_host``: frozen pricing + functional compute.

    A to-host op writes no memory and its command stream carries no
    data-dependent widths, so the whole call freezes on first sight:
    replay recomputes the functional result row-parallel, sets the mode
    register, and re-prices the frozen batch.  It returns the packed
    result rows; the caller decides what crosses to the host -- the
    unpacked bits (``pim_op_to_host``) or their set-bit count
    (``pim_popcount``), so both verbs share one program per shape.
    """

    __slots__ = (
        "frozen", "op", "n_chunks", "steps", "localities", "mode_code",
    )

    def replay(
        self, executor, sources: Sequence[Sequence[int]], n_bits: int
    ) -> Tuple[np.ndarray, OpResult]:
        """``(packed result rows, OpResult)``; bits past ``n_bits`` in the
        last row are padding (an INV may have set them)."""
        op = self.op
        n_chunks = self.n_chunks
        operand_lists = (
            [sources[0][:n_chunks]]
            if op is PimOp.INV
            else [s[:n_chunks] for s in sources]
        )
        new_rows = executor.memory.bitwise_rows(op.value, operand_lists)
        executor.controller.mode_register = self.mode_code
        executor._current_mode = op
        acct = OpAccounting(
            in_memory_steps=self.steps, bits_processed=n_bits * len(sources)
        )
        acct.record[LOCALITY_BASE:] = self.localities
        acct.absorb(executor.controller.execute_batch(self.frozen))
        return new_rows, OpResult(op=op, accounting=acct, steps=self.steps)


def build_to_host_program(
    recorded: list, op: PimOp, result: OpResult, n_chunks: int
) -> Optional[ToHostProgram]:
    """Lower one recorded ``bitwise_to_host`` call; ``None`` if it ran
    accumulation passes (their scratch writes are not replayed)."""
    if len(recorded) != 1:
        return None
    flavor, batch = recorded[0]
    if flavor != "to_host" or result.steps != n_chunks:
        return None
    prog = ToHostProgram()
    prog.frozen = freeze_batch(batch)
    prog.op = op
    prog.n_chunks = n_chunks
    prog.steps = result.steps
    prog.localities = result.accounting.record[LOCALITY_BASE:].copy()
    prog.mode_code = MODE_CODES[op]
    return prog
