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
  one ``(n_bits, per-chunk channels)`` shape, built directly (no
  recording) with a memo-priced frozen batch and a shared result.

Programs are keyed by canonical shape (see :func:`to_host_shape_key`)
and are **frame-agnostic**: operands resolve to the call's actual row
frames at replay time.  Write invalidation needs no program-level hook
-- a to-host program writes nothing and re-reads its operands on every
replay.  Calls a program cannot replay (ones that ran accumulation
passes, whose scratch writes are not replayed) are marked
:data:`UNCOMPILABLE` and stay interpreted forever; inter-chip shapes
get no key at all.  The repair engine (``plan/repair.py``) freezes
its programs with the same :func:`freeze_batch`, and the analytics
compiler (``arith/compile.py``) marks first sightings with
:data:`SEEN_ONCE`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.executor import MODE_CODES, OpResult
from repro.core.ops import PimOp
from repro.core.stats import OpAccounting
from repro.memsim.controller import CommandKind, KIND_CODES

__all__ = [
    "SEEN_ONCE",
    "UNCOMPILABLE",
    "ServeTemplate",
    "ToHostProgram",
    "build_serve_template",
    "build_to_host_program",
    "to_host_shape_key",
]

PROGRAM_HITS = telemetry.counter("plan.compile.program_hits")
PROGRAM_MISSES = telemetry.counter("plan.compile.program_misses")
COMPILATIONS = telemetry.counter("plan.compile.compilations")
UNCOMPILABLE_SHAPES = telemetry.counter("plan.compile.uncompilable")
COMPILE_SECONDS = telemetry.accumulator("plan.compile.seconds")

_K_ACT = KIND_CODES[CommandKind.ACT]
_K_SENSE = KIND_CODES[CommandKind.PIM_SENSE]
_K_PRE = KIND_CODES[CommandKind.PRE]


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


class _FrozenBatch:
    """A recorded command batch's columns as preallocated numpy arrays.

    Duck-types exactly the surface ``MemoryController.execute_batch``
    reads (column sequences, ``op_starts``/``op_segment_starts``,
    ``n_segments``, ``__len__``), so replay prices through the real
    controller with zero list-to-array conversion cost.  ``n_bits`` is
    the one mutable column: write-back widths are patched in place
    before each pricing pass.
    """

    __slots__ = (
        "kinds", "channels", "n_bits", "n_steps", "transfer_bytes",
        "segments", "op_starts", "op_segment_starts", "n_segments",
        "price_memo", "price_memo_ok",
    )

    def __init__(self, cols, op_starts, op_segment_starts, n_segments,
                 memo_ok: bool):
        (self.kinds, self.channels, self.n_bits, self.n_steps,
         self.transfer_bytes, self.segments) = cols
        self.op_starts = op_starts
        self.op_segment_starts = op_segment_starts
        self.n_segments = n_segments
        self.price_memo = None
        self.price_memo_ok = memo_ok

    def __len__(self) -> int:
        return self.kinds.size


def freeze_batch(batch, memo_ok: bool = False) -> _FrozenBatch:
    """Snapshot a :class:`CommandBatch`'s columns into a frozen batch.

    ``memo_ok=True`` marks the columns immutable, opting into the
    controller's memoized batch pricing; leave it False when the replay
    patches widths (repair programs' differential write-backs).
    """
    return _FrozenBatch(
        (
            np.asarray(batch.kinds, dtype=np.intp),
            np.asarray(batch.channels, dtype=np.intp),
            np.asarray(batch.n_bits, dtype=np.float64),
            np.asarray(batch.n_steps, dtype=np.float64),
            np.asarray(batch.transfer_bytes, dtype=np.float64),
            np.asarray(batch.segments, dtype=np.intp),
        ),
        np.asarray(batch.op_starts, dtype=np.intp),
        np.asarray(batch.op_segment_starts, dtype=np.intp),
        batch.n_segments,
        memo_ok,
    )


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

    ``frozen`` is the memo-priced batch, column-for-column what
    :func:`repro.plan.planner._serve_commands` emits, as one marked
    operation: per chunk a fenced ACT / PIM_SENSE / PRE on the
    destination's channel.  Its pricing is a pure function of those
    columns, so ``results`` keeps, per op, the shared read-only
    ``OpResult`` every serve of the shape returns.
    """

    __slots__ = ("frozen", "results")


def build_serve_template(geometry, n_bits: int, channels: np.ndarray) -> ServeTemplate:
    """Build the serve template of one ``(n_bits, channels)`` shape."""
    row_bits = geometry.row_bits
    n_chunks = int(channels.size)
    chunk_bits = np.minimum(
        n_bits - np.arange(n_chunks, dtype=np.int64) * row_bits, row_bits
    )
    steps = np.array(
        [geometry.sense_steps_for_bits(int(b)) for b in chunk_bits],
        dtype=np.float64,
    )
    chunk_bits = chunk_bits.astype(np.float64)
    zeros = np.zeros(n_chunks)
    ones = np.ones(n_chunks)
    cols = (
        np.tile(np.array([_K_ACT, _K_SENSE, _K_PRE], dtype=np.intp), n_chunks),
        np.repeat(np.asarray(channels, dtype=np.intp), 3),
        np.stack([chunk_bits, chunk_bits, zeros], axis=1).reshape(-1),
        np.stack([ones, steps, ones], axis=1).reshape(-1),
        np.zeros(3 * n_chunks),
        np.repeat(np.arange(n_chunks, dtype=np.intp), 3),
    )
    zero = np.zeros(1, dtype=np.intp)
    t = ServeTemplate()
    t.frozen = _FrozenBatch(cols, zero, zero, n_chunks, True)
    t.results = {}
    return t


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
        "frozen", "op", "n_chunks", "steps",
        "localities", "locality_counts", "mode_code",
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
        acct = OpAccounting()
        acct.locality_counts = dict(self.locality_counts)
        acct.in_memory_steps = self.steps
        acct.absorb(executor.controller.execute_batch(self.frozen))
        acct.count_bits(n_bits * len(sources))
        result = OpResult(
            op=op, accounting=acct, steps=self.steps,
            localities=dict(self.localities),
        )
        return new_rows, result


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
    prog.frozen = freeze_batch(batch, memo_ok=True)
    prog.op = op
    prog.n_chunks = n_chunks
    prog.steps = result.steps
    prog.localities = dict(result.localities)
    prog.locality_counts = dict(result.accounting.locality_counts)
    prog.mode_code = MODE_CODES[op]
    return prog
