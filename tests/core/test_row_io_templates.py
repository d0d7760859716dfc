"""Host row I/O templates against the per-command emitters they replace.

``PinatuboExecutor.read_vectors`` gathers every requested row at once
and prices each read from a memo-priced ``"read"`` row I/O template;
``write_vector`` prices from the ``"write"`` template and the planner's
serves from the ``"serve"`` one.  The references below are the
per-command emitters those paths used before: one ``CommandBatch`` per
request, priced by the controller's full numpy pass.  Bits, accounting
and the per-channel bus ledgers must match bit for bit, on a shape's
first sighting (full pricing pass) and on its memo hits.
"""

import numpy as np
import pytest

from repro.core.pinatubo import PinatuboSystem
from repro.core.stats import OpAccounting
from repro.memsim.address import RowAddress
from repro.memsim.controller import CommandBatch, CommandKind, row_io_template
from repro.memsim.geometry import MemoryGeometry
from repro.plan.planner import _serve_commands
from repro.runtime.allocator import BitVectorHandle
from repro.runtime.api import PimRuntime

GEOM = MemoryGeometry(
    channels=2,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=4,
    rows_per_subarray=32,
    mats_per_subarray=1,
    cols_per_mat=512,
    mux_ratio=8,
)
ROW = GEOM.row_bits


# -- the per-command references -------------------------------------------


def _reference_read_batch(executor, frames, n_bits):
    g = executor.geometry
    batch = CommandBatch()
    remaining = n_bits
    for frame in frames:
        take = min(remaining, g.row_bits)
        ch = executor.mapper.channel_of(frame)
        batch.add(CommandKind.ACT, channel=ch, n_bits=take)
        batch.add(CommandKind.PIM_SENSE, channel=ch,
                  n_steps=g.sense_steps_for_bits(take), n_bits=take)
        batch.add(CommandKind.RD, channel=ch, n_bits=take,
                  transfer_bytes=-(-take // 8))
        batch.add(CommandKind.PRE, channel=ch)
        batch.fence()
        remaining -= take
        if remaining <= 0:
            break
    return batch


def reference_read(executor, frames, n_bits):
    """The per-command ``read_vector``: ``(bits, accounting)``."""
    g = executor.geometry
    parts = []
    remaining = n_bits
    for frame in frames:
        take = min(remaining, g.row_bits)
        parts.append(executor.memory.read_bits(frame, take))
        remaining -= take
        if remaining <= 0:
            break
    acct = OpAccounting()
    acct.absorb(executor.controller.execute_batch(
        _reference_read_batch(executor, frames, n_bits)
    ))
    return np.concatenate(parts), acct


def _reference_write_batch(executor, frames, n_bits):
    g = executor.geometry
    batch = CommandBatch()
    for i, frame in enumerate(frames):
        size = min(n_bits - i * g.row_bits, g.row_bits)
        if size <= 0:
            break
        ch = executor.mapper.channel_of(frame)
        batch.add(CommandKind.ACT, channel=ch, n_bits=size)
        batch.add(CommandKind.WR, channel=ch, n_bits=size,
                  transfer_bytes=-(-size // 8))
        batch.add(CommandKind.PRE, channel=ch)
        batch.fence()
    return batch


def reference_write(executor, frames, bits):
    """The per-command ``write_vector``: one ``write_bits`` per row."""
    g = executor.geometry
    for i, frame in enumerate(frames):
        chunk = bits[i * g.row_bits : (i + 1) * g.row_bits]
        if chunk.size == 0:
            break
        executor.memory.write_bits(frame, chunk)
    acct = OpAccounting()
    batch = _reference_write_batch(executor, frames, bits.size)
    if len(batch):
        acct.absorb(executor.controller.execute_batch(batch))
    return acct


# -- helpers ----------------------------------------------------------------


def _system():
    return PinatuboSystem.pcm(geometry=GEOM)


def _frame(system, channel, bank, subarray, row):
    return system.mapper.encode(RowAddress(channel, 0, bank, subarray, row))


def _ledgers(system):
    return [
        (b.stats.commands, b.stats.data_bytes, b.stats.busy_time, b.stats.energy)
        for b in system.executor.controller.buses
    ]


def _assert_acct_equal(a, b):
    # exact on purpose: the templates must not move a bit
    assert a.to_dict() == b.to_dict()
    assert a.energy_by_kind == b.energy_by_kind


def _fill(system, frames, seed):
    rng = np.random.default_rng(seed)
    for frame in frames:
        system.memory.write_bits(frame, rng.integers(0, 2, ROW).astype(np.uint8))


def _columns(batch):
    return [
        np.asarray(col, dtype=np.float64)
        for col in (batch.kinds, batch.channels, batch.n_bits, batch.n_steps,
                    batch.transfer_bytes, batch.segments)
    ]


#: (frames as (channel, bank, subarray, row) tuples, n_bits) per read
READS = [
    ([(0, 0, 0, 1)], ROW),  # one full row
    ([(0, 0, 0, 2), (0, 0, 1, 3), (0, 1, 0, 4)], 2 * ROW + 37),  # partial last row
    ([(1, 0, 0, 5), (0, 0, 0, 6)], ROW + 1),  # mixed channels
    ([(1, 1, 3, 30), (1, 0, 2, 31)], 100),  # n_bits below the frames' span
    ([(0, 1, 2, 20)], 9),  # never written
    ([(0, 0, 0, 1)], ROW),  # memo hit of the first shape
    ([(0, 0, 1, 7), (0, 0, 1, 8), (0, 0, 1, 9)], 2 * ROW + 37),  # memo hit
]


def _read_args(system, reads):
    frame_lists = [[_frame(system, *where) for where in frames] for frames, _ in reads]
    return frame_lists, [n for _, n in reads]


class TestRowTemplateColumns:
    @pytest.mark.parametrize("n_bits", [1, 9, ROW, ROW + 1, 3 * ROW - 5])
    def test_read_and_write_templates_match_the_emitters(self, n_bits):
        system = _system()
        ex = system.executor
        n_rows = GEOM.rows_for_bits(n_bits)
        frames = [_frame(system, r % 2, 0, 0, r) for r in range(n_rows)]
        channels = [ex.mapper.channel_of(f) for f in frames]
        for shape, ref in (("read", _reference_read_batch),
                           ("write", _reference_write_batch)):
            got = row_io_template(GEOM, shape, n_bits, channels)
            want = ref(ex, frames, n_bits)
            for a, b in zip(_columns(got), _columns(want)):
                np.testing.assert_array_equal(a, b)
            assert got.n_segments == want.n_segments == n_rows

    def test_serve_template_matches_the_planner_emitter(self):
        system = _system()
        ex = system.executor
        n_bits = 2 * ROW + 3
        frames = [_frame(system, 1, 0, 0, 4), _frame(system, 0, 1, 0, 4),
                  _frame(system, 1, 1, 2, 9)]
        want = CommandBatch()
        want.mark()
        _serve_commands(want, GEOM, ex.mapper.channel_of, frames, n_bits)
        got = row_io_template(
            GEOM, "serve", n_bits, [ex.mapper.channel_of(f) for f in frames]
        )
        for a, b in zip(_columns(got), _columns(want)):
            np.testing.assert_array_equal(a, b)
        assert list(got.op_starts) == want.op_starts
        assert list(got.op_segment_starts) == want.op_segment_starts

    def test_row_count_must_match_the_width(self):
        with pytest.raises(ValueError):
            row_io_template(GEOM, "read", ROW + 1, [0])


class TestBatchedRead:
    def test_read_vectors_matches_the_per_command_reads(self):
        ref, new = _system(), _system()
        for system in (ref, new):
            frame_lists, _ = _read_args(system, READS)
            _fill(system, [f for fl in frame_lists[:4] for f in fl], seed=3)
        frame_lists, widths = _read_args(new, READS)
        expected = [
            reference_read(ref.executor, frames, n)
            for frames, n in zip(frame_lists, widths)
        ]
        got = new.executor.read_vectors(frame_lists, widths)
        assert len(got) == len(expected)
        for (bits, acct), (want_bits, want_acct), n in zip(got, expected, widths):
            assert bits.dtype == np.uint8 and bits.size == n
            np.testing.assert_array_equal(bits, want_bits)
            _assert_acct_equal(acct, want_acct)
        assert _ledgers(new) == _ledgers(ref)
        # a second dispatch of the same shapes runs on memo hits only
        again = new.executor.read_vectors(frame_lists, widths)
        for frames, n in zip(frame_lists, widths):
            reference_read(ref.executor, frames, n)
        for (_, acct), (_, want_acct) in zip(again, expected):
            _assert_acct_equal(acct, want_acct)
        assert _ledgers(new) == _ledgers(ref)

    def test_read_vector_is_the_one_element_case(self):
        ref, new = _system(), _system()
        frame_lists, widths = _read_args(new, READS)
        for system in (ref, new):
            _fill(system, frame_lists[1], seed=4)
        for frames, n in zip(frame_lists, widths):
            bits, acct = new.executor.read_vector(frames, n)
            want_bits, want_acct = reference_read(ref.executor, frames, n)
            np.testing.assert_array_equal(bits, want_bits)
            _assert_acct_equal(acct, want_acct)
        assert _ledgers(new) == _ledgers(ref)

    def test_never_written_rows_read_as_zeros(self):
        system = _system()
        frames = [_frame(system, 1, 1, 3, 0), _frame(system, 0, 0, 0, 31)]
        (bits, _acct), = system.executor.read_vectors([frames], [ROW + 7])
        assert bits.size == ROW + 7 and not bits.any()


class TestPimReadMany:
    def _runtime_pair(self):
        ref = PimRuntime(_system())
        new = PimRuntime(_system())
        rng = np.random.default_rng(5)
        handles = {}
        for rt in (ref, new):
            hs = []
            for n_bits in (ROW, 3 * ROW - 11, 40, 2 * ROW):
                h = rt.pim_malloc(n_bits)
                rt.pim_write(h, np.random.default_rng(n_bits).integers(
                    0, 2, n_bits).astype(np.uint8))
                hs.append(h)
            handles[id(rt)] = hs
        return ref, new, handles[id(ref)], handles[id(new)], rng

    def test_host_accounting_and_ledgers_match_sequential_reads(self):
        ref, new, ref_handles, new_handles, rng = self._runtime_pair()
        picks = [int(i) for i in rng.integers(0, len(new_handles), 12)]
        widths = [
            int(rng.integers(1, new_handles[i].n_bits + 1)) for i in picks
        ]
        for _ in range(2):  # first sighting, then memo hits
            want = []
            for i, n in zip(picks, widths):
                bits, acct = reference_read(
                    ref.system.executor, ref_handles[i].frames, n
                )
                ref.host_accounting = ref.host_accounting.merged(acct)
                want.append(bits)
            got = new.pim_read_many([new_handles[i] for i in picks], widths)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
            _assert_acct_equal(new.host_accounting, ref.host_accounting)
            assert _ledgers(new.system) == _ledgers(ref.system)

    def test_pim_read_defaults_to_the_whole_vector(self):
        _ref, new, _rh, handles, _rng = self._runtime_pair()
        h = handles[1]
        np.testing.assert_array_equal(
            new.pim_read(h), new.pim_read_many([h], [h.n_bits])[0]
        )

    @pytest.mark.parametrize("bad", ["too_long", "zero", "uncovered", "out_of_range"])
    def test_bad_input_raises_before_any_pricing(self, bad, monkeypatch):
        _ref, rt, _rh, handles, _rng = self._runtime_pair()
        good = handles[0]
        if bad == "too_long":
            bad_read = (handles[2], handles[2].n_bits + 1)
        elif bad == "zero":
            bad_read = (handles[2], 0)
        elif bad == "uncovered":
            short = BitVectorHandle(vid=900, n_bits=2 * ROW, frames=good.frames[:1])
            bad_read = (short, 2 * ROW)
        else:
            lost = BitVectorHandle(vid=901, n_bits=ROW, frames=(GEOM.total_rows,))
            bad_read = (lost, ROW)
        priced = []
        controller = rt.system.executor.controller
        real = controller.execute_batch
        monkeypatch.setattr(
            controller, "execute_batch",
            lambda *a, **k: priced.append(1) or real(*a, **k),
        )
        host0 = rt.host_accounting.to_dict()
        ledgers0 = _ledgers(rt.system)
        with pytest.raises(ValueError):
            rt.pim_read_many([good, bad_read[0]], [good.n_bits, bad_read[1]])
        assert not priced
        assert rt.host_accounting.to_dict() == host0
        assert _ledgers(rt.system) == ledgers0

    def test_length_mismatch_raises(self):
        system = _system()
        with pytest.raises(ValueError):
            system.executor.read_vectors([[0], [1]], [ROW])


class _WriteCounter:
    def __init__(self):
        self.events = 0

    def on_write(self, frames):
        self.events += 1


class TestTemplateWrite:
    @pytest.mark.parametrize("n_bits", [1, ROW, ROW + 3, 3 * ROW - 1])
    def test_write_vector_matches_the_per_command_write(self, n_bits):
        ref, new = _system(), _system()
        counters = []
        for system in (ref, new):
            counter = _WriteCounter()
            system.memory.add_write_listener(counter)
            counters.append(counter)
        frames = [_frame(ref, r % 2, 1, 1, 10 + r) for r in range(4)]
        bits = np.random.default_rng(n_bits).integers(0, 2, n_bits).astype(np.uint8)
        for _ in range(2):  # first sighting, then the memo hit
            want = reference_write(ref.executor, frames, bits)
            got = new.executor.write_vector(frames, bits)
            _assert_acct_equal(got, want)
            assert _ledgers(new) == _ledgers(ref)
        # the reference lands one write event per row, write_vector
        # one per host write
        n_rows = GEOM.rows_for_bits(n_bits)
        assert counters[0].events == 2 * n_rows
        assert counters[1].events == 2
        # the same rows programmed the same number of times (wear)
        assert new.memory.write_histogram() == ref.memory.write_histogram()
        np.testing.assert_array_equal(
            new.executor.read_vector(frames, n_bits)[0], bits
        )

    def test_empty_write_prices_nothing(self):
        system = _system()
        acct = system.executor.write_vector([0], np.zeros(0, dtype=np.uint8))
        assert acct.latency == 0.0 and acct.energy == 0.0
        assert _ledgers(system) == _ledgers(_system())

    def test_bad_frame_raises_before_any_row_lands(self):
        system = _system()
        counter = _WriteCounter()
        system.memory.add_write_listener(counter)
        with pytest.raises(ValueError):
            system.executor.write_vector(
                [0, GEOM.total_rows], np.ones(ROW + 1, dtype=np.uint8)
            )
        assert counter.events == 0
