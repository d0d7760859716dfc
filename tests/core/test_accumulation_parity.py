"""Row-parallel bulk ops against the serial combine-step reference.

:meth:`PinatuboExecutor._vector_chunks` computes every chunk and every
accumulation pass of an op in one numpy pass, emits each chunk's steps
as tiled template copies and lands the op's programs with one
``write_frames`` call.  The serial per-step loop
(:meth:`PinatuboExecutor._chunk_bitwise`) is the reference: a twin
system with the row-parallel path patched out must agree on result
bits, every ``CommandBatch`` column, ``OpResult`` pricing, steps and
locality tallies, memory contents and per-frame wear -- across ops,
operand counts past the one-step limit, chunk counts, mixed chunk
localities, ``overlap_chunks``, both emissions, and aliased
destinations (which must take the serial fallback).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.core.executor import PlacementError
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.address import RowAddress
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology

REL = 1e-12

GEOM = MemoryGeometry(
    channels=2,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=3,
    subarrays_per_bank=4,
    rows_per_subarray=128,
    mats_per_subarray=1,
    cols_per_mat=512,
    mux_ratio=8,
)

COLUMNS = ("kinds", "channels", "n_bits", "n_steps", "transfer_bytes", "segments",
           "op_starts", "op_segment_starts")


def _serial(system: PinatuboSystem) -> PinatuboSystem:
    """Force the serial reference path on ``system`` (test-only patch)."""
    system.executor._vector_chunks = lambda *args: None
    return system


def _spy_fallbacks(system: PinatuboSystem) -> list:
    """Record every row-parallel attempt's outcome (True = fell back)."""
    executor = system.executor
    original = executor._vector_chunks
    outcomes = []

    def spy(*args):
        out = original(*args)
        outcomes.append(out is None)
        return out

    executor._vector_chunks = spy
    return outcomes


class _Placer:
    """Draws distinct row frames at a chosen locality."""

    def __init__(self, data):
        self.data = data
        self.used = set()

    def frame(self, ch, bank, sub):
        rows = [
            r for r in range(GEOM.rows_per_subarray)
            if (ch, bank, sub, r) not in self.used
        ]
        row = self.data.draw(st.sampled_from(rows))
        self.used.add((ch, bank, sub, row))
        return _MAPPER.encode(RowAddress(ch, 0, bank, sub, row))

    def chunk(self, locality, n_frames):
        """``n_frames`` frames on one channel whose operand set resolves
        to ``locality`` (random mixes may resolve wider)."""
        draw = self.data.draw
        ch = draw(st.integers(0, GEOM.channels - 1))
        bank = draw(st.integers(0, GEOM.banks_per_chip - 1))
        sub = draw(st.integers(0, GEOM.subarrays_per_bank - 1))
        frames = []
        for _ in range(n_frames):
            if locality == "intra":
                frames.append(self.frame(ch, bank, sub))
            elif locality == "inter_subarray":
                s = draw(st.integers(0, GEOM.subarrays_per_bank - 1))
                frames.append(self.frame(ch, bank, s))
            else:
                b = draw(st.integers(0, GEOM.banks_per_chip - 1))
                s = draw(st.integers(0, GEOM.subarrays_per_bank - 1))
                frames.append(self.frame(ch, b, s))
        return frames


_MAPPER = PinatuboSystem(get_technology("pcm"), GEOM).mapper


def _request(data, placer, op, alias):
    n_ops = 1 if op == "inv" else data.draw(st.integers(2, 16), label="n_ops")
    n_chunks = data.draw(st.integers(1, 4), label="n_chunks")
    n_bits = (n_chunks - 1) * GEOM.row_bits + data.draw(
        st.integers(1, GEOM.row_bits), label="tail_bits"
    )
    dest, sources = [], [[] for _ in range(n_ops)]
    for _c in range(n_chunks):
        locality = data.draw(
            st.sampled_from(["intra", "intra", "inter_subarray", "inter_bank"]),
            label="locality",
        )
        frames = placer.chunk(locality, n_ops + 1)
        dest.append(frames[0])
        for j in range(n_ops):
            sources[j].append(frames[1 + j])
    if alias == "dup_dest" and n_chunks > 1:
        dest[1] = dest[0]
    elif alias == "cross" and n_chunks > 1:
        sources[data.draw(st.integers(0, n_ops - 1))][1] = dest[0]
    elif alias == "own":
        c = data.draw(st.integers(0, n_chunks - 1))
        sources[data.draw(st.integers(0, n_ops - 1))][c] = dest[c]
    elif alias == "dup_source" and n_ops > 1:
        sources[1] = list(sources[0])
    return dest, sources, n_bits


def _fill(systems, frames, rng):
    for frame in sorted(set(frames)):
        row = rng.integers(0, 256, GEOM.row_bytes, dtype=np.uint8)
        for system in systems:
            system.memory.write_frame(frame, row)


def _run(system, emission, reqs, overlap):
    ex = system.executor
    ex.record_sink = recorded = []
    try:
        if emission == "many":
            out = ex.bitwise_many(
                [(op, d, s, n, overlap) for op, d, s, n in reqs]
            )
            return out, None, recorded
        if emission == "single":
            out = [ex.bitwise(op, d, s, n, overlap) for op, d, s, n in reqs]
            return out, None, recorded
        pairs = [ex.bitwise_to_host(op, d, s, n) for op, d, s, n in reqs]
        return [r for _b, r in pairs], [b for b, _r in pairs], recorded
    finally:
        ex.record_sink = None


def _assert_results_equal(a, b):
    assert a.op == b.op
    assert a.steps == b.steps
    assert a.localities == b.localities
    acct_a, acct_b = a.accounting, b.accounting
    assert acct_a.latency == pytest.approx(acct_b.latency, rel=REL)
    assert acct_a.energy == pytest.approx(acct_b.energy, rel=REL)
    assert acct_a.in_memory_steps == acct_b.in_memory_steps
    assert acct_a.locality_counts == acct_b.locality_counts
    assert acct_a.bus_commands == acct_b.bus_commands
    assert acct_a.bus_data_bytes == acct_b.bus_data_bytes
    assert acct_a.bits_processed == acct_b.bits_processed


@seed(20161)
@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    data=st.data(),
    ops=st.lists(st.sampled_from(["and", "or", "xor", "inv"]), min_size=1, max_size=3),
    max_rows=st.integers(2, 8),
    emission=st.sampled_from(["single", "many", "to_host"]),
    overlap=st.booleans(),
    alias=st.sampled_from(["none", "none", "dup_dest", "cross", "own", "dup_source"]),
    fill_seed=st.integers(0, 2**16),
)
def test_row_parallel_matches_serial_reference(
    data, ops, max_rows, emission, overlap, alias, fill_seed
):
    fast = PinatuboSystem(get_technology("pcm"), GEOM, max_rows=max_rows)
    ref = _serial(PinatuboSystem(get_technology("pcm"), GEOM, max_rows=max_rows))
    fallbacks = _spy_fallbacks(fast)

    placer = _Placer(data)
    reqs = []
    for i, op in enumerate(ops):
        dest, sources, n_bits = _request(data, placer, op, alias if i == 0 else "none")
        reqs.append((op, dest, sources, n_bits))
    touched = [f for _op, d, s, _n in reqs for f in d + [x for fs in s for x in fs]]
    _fill((fast, ref), touched, np.random.default_rng(fill_seed))

    try:
        ref_out = _run(ref, emission, reqs, overlap)
    except PlacementError:
        with pytest.raises(PlacementError):
            _run(fast, emission, reqs, overlap)
        return
    fast_out = _run(fast, emission, reqs, overlap)
    _assert_twins_equal(fast, ref, fast_out, ref_out, touched)

    first_dest = reqs[0][1]
    if emission != "to_host" and alias in ("dup_dest", "cross") and len(first_dest) > 1:
        assert fallbacks[0], "aliased destinations must take the serial path"


def _assert_twins_equal(fast, ref, fast_out, ref_out, touched):
    fast_results, fast_bits, fast_rec = fast_out
    ref_results, ref_bits, ref_rec = ref_out
    for a, b in zip(fast_results, ref_results, strict=True):
        _assert_results_equal(a, b)
    if ref_bits is not None:
        for a, b in zip(fast_bits, ref_bits, strict=True):
            np.testing.assert_array_equal(a, b)

    assert [r[0] for r in fast_rec] == [r[0] for r in ref_rec]
    for (_fa, batch_a), (_fb, batch_b) in zip(fast_rec, ref_rec, strict=True):
        for column in COLUMNS:
            assert list(getattr(batch_a, column)) == list(getattr(batch_b, column)), column
        assert batch_a.n_segments == batch_b.n_segments

    for frame in sorted(set(touched)):
        np.testing.assert_array_equal(
            fast.memory.frame_bytes(frame), ref.memory.frame_bytes(frame)
        )
        assert fast.memory.frame_writes(frame) == ref.memory.frame_writes(frame)
    assert fast.memory.total_writes == ref.memory.total_writes
    assert fast.memory.write_histogram() == ref.memory.write_histogram()


@pytest.mark.parametrize("emission", ["single", "to_host"])
@pytest.mark.parametrize("alias", ["dup_dest", "cross", "own"])
def test_aliased_accumulation_falls_back(alias, emission):
    """Each alias that would make the step order observable: a 5-operand
    XOR over 3 intra-subarray chunks (4 pairwise passes each) takes the
    serial path and still matches the reference.  XOR, because an
    AND/OR re-reading its own running result is idempotent."""
    fast = PinatuboSystem(get_technology("pcm"), GEOM)
    ref = _serial(PinatuboSystem(get_technology("pcm"), GEOM))
    fallbacks = _spy_fallbacks(fast)
    n_ops, n_chunks = 5, 3

    def frame(c, j):  # every chunk in one subarray: all stay intra
        return _MAPPER.encode(RowAddress(0, 0, 1, 0, c * (n_ops + 1) + j))

    dest = [frame(c, 0) for c in range(n_chunks)]
    sources = [[frame(c, 1 + j) for c in range(n_chunks)] for j in range(n_ops)]
    if alias == "dup_dest":
        dest[1] = dest[0]
    elif alias == "cross":
        sources[3][1] = dest[0]
    else:  # read after the first pass, so it would see the running result
        sources[3][1] = dest[1]
    reqs = [("xor", dest, sources, n_chunks * GEOM.row_bits)]
    touched = dest + [f for s in sources for f in s]
    _fill((fast, ref), touched, np.random.default_rng(3))
    ref_out = _run(ref, emission, reqs, False)
    fast_out = _run(fast, emission, reqs, False)
    _assert_twins_equal(fast, ref, fast_out, ref_out, touched)
    assert fallbacks == [True]


class _CountingListener:
    def __init__(self):
        self.events = []

    def on_write(self, frames):
        self.events.append(list(frames))


@pytest.mark.parametrize("op", ["and", "xor"])
def test_wide_op_is_one_write_event(op):
    """A 16-operand AND/XOR over 4 intra-subarray chunks is 15 pairwise
    passes per chunk, yet raises one write event carrying every program
    in step order, and lands the final rows."""
    system = PinatuboSystem(get_technology("pcm"), GEOM)
    n_ops, n_chunks = 16, 4
    dest, *sources = [
        [_MAPPER.encode(RowAddress(0, 0, 0, c, j)) for c in range(n_chunks)]
        for j in range(n_ops + 1)
    ]
    _fill((system,), dest + [f for s in sources for f in s], np.random.default_rng(5))
    listener = _CountingListener()
    system.memory.add_write_listener(listener)
    writes_before = system.memory.total_writes

    result = system.executor.bitwise(op, dest, sources, n_chunks * GEOM.row_bits)

    assert result.steps == (n_ops - 1) * n_chunks
    assert system.memory.total_writes - writes_before == (n_ops - 1) * n_chunks
    assert listener.events == [[f for f in dest for _ in range(n_ops - 1)]]
    ufunc = {"and": np.bitwise_and, "xor": np.bitwise_xor}[op]
    expect = ufunc.reduce(np.stack([system.memory.gather_rows(s) for s in sources]), axis=0)
    np.testing.assert_array_equal(system.memory.gather_rows(dest), expect)
