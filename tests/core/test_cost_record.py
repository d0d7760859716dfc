"""The fixed-width cost record against a dict-based reference.

``ExecutionStats`` and ``OpAccounting`` keep their per-kind counts and
energies (and an accounting's per-locality steps) in one float64
vector.  The reference below is the dict-per-kind bookkeeping those
classes used before: ``ExecutionStats.merged``, ``OpAccounting.absorb``
/ ``merged`` / ``merge_from`` / ``merged_all`` and the analytics
compiler's snapshot / delta, each a plain Python loop over dict keys.
Hypothesis draws marked command streams, prices them with and without
``split_ops`` and folds the per-operation stats through both
implementations; every scalar and every ``to_dict()`` value must be
equal with ``==`` -- not approximately.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import OpAccounting
from repro.memsim.address import OpLocality
from repro.memsim.bus import BusStats
from repro.memsim.controller import (
    CommandBatch,
    CommandKind,
    ExecutionStats,
    MemoryController,
)
from repro.memsim.geometry import MemoryGeometry
from repro.memsim.timing import nvm_timing
from repro.nvm.technology import get_technology

GEOM = MemoryGeometry(
    channels=2, ranks_per_channel=1, chips_per_rank=1, banks_per_chip=2,
    subarrays_per_bank=2, rows_per_subarray=16, mats_per_subarray=1,
    cols_per_mat=512, mux_ratio=8,
)
TIMING = nvm_timing(get_technology("pcm"))


# -- the dict-based reference -------------------------------------------------


@dataclass
class RefStats:
    latency: float = 0.0
    energy: float = 0.0
    counts: Dict[CommandKind, int] = field(default_factory=dict)
    energy_by_kind: Dict[CommandKind, float] = field(default_factory=dict)
    bus: BusStats = field(default_factory=BusStats)

    @classmethod
    def of(cls, stats: ExecutionStats) -> "RefStats":
        return cls(stats.latency, stats.energy, dict(stats.counts),
                   dict(stats.energy_by_kind), stats.bus)

    def merged(self, other: "RefStats", serial: bool = True) -> "RefStats":
        out = RefStats(
            latency=(self.latency + other.latency)
            if serial
            else max(self.latency, other.latency),
            energy=self.energy + other.energy,
            counts=dict(self.counts),
            energy_by_kind=dict(self.energy_by_kind),
            bus=self.bus.merge(other.bus),
        )
        for kind, n in other.counts.items():
            out.counts[kind] = out.counts.get(kind, 0) + n
        for kind, e in other.energy_by_kind.items():
            out.energy_by_kind[kind] = out.energy_by_kind.get(kind, 0.0) + e
        return out


@dataclass
class RefAcct:
    latency: float = 0.0
    energy: float = 0.0
    in_memory_steps: int = 0
    locality_counts: Dict[OpLocality, int] = field(default_factory=dict)
    energy_by_kind: Dict[CommandKind, float] = field(default_factory=dict)
    bus_data_bytes: int = 0
    bus_commands: int = 0
    bits_processed: int = 0

    def absorb(self, stats: RefStats, locality: Optional[OpLocality] = None):
        self.latency += stats.latency
        self.energy += stats.energy
        self.bus_data_bytes += stats.bus.data_bytes
        self.bus_commands += stats.bus.commands
        for kind, e in stats.energy_by_kind.items():
            self.energy_by_kind[kind] = self.energy_by_kind.get(kind, 0.0) + e
        if locality is not None:
            self.locality_counts[locality] = (
                self.locality_counts.get(locality, 0) + 1
            )

    def merge_from(self, other: "RefAcct") -> None:
        self.latency += other.latency
        self.energy += other.energy
        self.in_memory_steps += other.in_memory_steps
        self.bus_data_bytes += other.bus_data_bytes
        self.bus_commands += other.bus_commands
        self.bits_processed += other.bits_processed
        for loc, n in other.locality_counts.items():
            self.locality_counts[loc] = self.locality_counts.get(loc, 0) + n
        for kind, e in other.energy_by_kind.items():
            self.energy_by_kind[kind] = self.energy_by_kind.get(kind, 0.0) + e

    def merged(self, other: "RefAcct") -> "RefAcct":
        out = RefAcct(
            latency=self.latency + other.latency,
            energy=self.energy + other.energy,
            in_memory_steps=self.in_memory_steps + other.in_memory_steps,
            locality_counts=dict(self.locality_counts),
            energy_by_kind=dict(self.energy_by_kind),
            bus_data_bytes=self.bus_data_bytes + other.bus_data_bytes,
            bus_commands=self.bus_commands + other.bus_commands,
            bits_processed=self.bits_processed + other.bits_processed,
        )
        for loc, n in other.locality_counts.items():
            out.locality_counts[loc] = out.locality_counts.get(loc, 0) + n
        for kind, e in other.energy_by_kind.items():
            out.energy_by_kind[kind] = out.energy_by_kind.get(kind, 0.0) + e
        return out

    def merged_all(self, others) -> "RefAcct":
        out = None
        for other in others:
            if out is None:
                out = self.merged(other)
            else:
                out.merge_from(other)
        return self if out is None else out

    def to_dict(self) -> dict:
        # the scalars OpAccounting.to_dict derives from these fields
        reference = OpAccounting(
            self.latency, self.energy, self.in_memory_steps,
            self.bus_data_bytes, self.bus_commands, self.bits_processed,
        )
        out = reference.to_dict()
        out["locality_counts"] = {
            loc.value: n for loc, n in self.locality_counts.items()
        }
        out["energy_by_kind"] = {
            kind.value: e for kind, e in self.energy_by_kind.items()
        }
        return out


def ref_snapshot(acct: RefAcct) -> tuple:
    return (
        acct.latency, acct.energy, acct.in_memory_steps, acct.bus_data_bytes,
        acct.bus_commands, acct.bits_processed, dict(acct.locality_counts),
        dict(acct.energy_by_kind),
    )


def ref_delta(after: RefAcct, before: tuple) -> RefAcct:
    (lat, en, steps, bus_b, bus_c, bits, locs, kinds) = before
    delta = RefAcct(
        latency=after.latency - lat,
        energy=after.energy - en,
        in_memory_steps=after.in_memory_steps - steps,
        bus_data_bytes=after.bus_data_bytes - bus_b,
        bus_commands=after.bus_commands - bus_c,
        bits_processed=after.bits_processed - bits,
    )
    for loc, n in after.locality_counts.items():
        d = n - locs.get(loc, 0)
        if d:
            delta.locality_counts[loc] = d
    for kind, e in after.energy_by_kind.items():
        d = e - kinds.get(kind, 0.0)
        if d:
            delta.energy_by_kind[kind] = d
    return delta


# -- strategies -----------------------------------------------------------------

commands = st.tuples(
    st.sampled_from(list(CommandKind)),
    st.integers(0, 1),  # channel
    st.integers(0, 4096),  # n_bits
    st.integers(1, 8),  # n_steps
    st.integers(0, 512),  # transfer bytes
    st.booleans(),  # fence after
)
streams = st.lists(st.lists(commands, max_size=6), min_size=1, max_size=5)
localities = st.one_of(st.none(), st.sampled_from(list(OpLocality)))
folds = st.lists(
    st.tuples(localities, st.integers(0, 3), st.integers(0, 4096)),
    min_size=1,
    max_size=8,
)


def _batch(stream) -> CommandBatch:
    batch = CommandBatch()
    for op in stream:
        batch.mark()
        for kind, ch, n_bits, n_steps, transfer, fence in op:
            batch.add(kind, ch, n_bits, n_steps, transfer)
            if fence:
                batch.fence()
    return batch


def _scalar_reference(stream, controller) -> list:
    """Per op, ``(counts, energy_by_kind)`` summed one command at a time
    from the scalar price table, in emission order."""
    out = []
    for op in stream:
        counts, energies = {}, {}
        for kind, _ch, n_bits, n_steps, transfer, _fence in op:
            energy = controller.price_table.price(kind, n_bits, n_steps, transfer)[2]
            counts[kind] = counts.get(kind, 0) + 1
            energies[kind] = energies.get(kind, 0.0) + energy
        out.append((counts, energies))
    return out


def _same_acct(new: OpAccounting, ref: RefAcct) -> None:
    assert new.to_dict() == ref.to_dict()
    for name in ("latency", "energy", "in_memory_steps", "bus_data_bytes",
                 "bus_commands", "bits_processed"):
        assert getattr(new, name) == getattr(ref, name), name
    assert new.locality_counts == ref.locality_counts
    assert new.energy_by_kind == ref.energy_by_kind


def _same_stats(new: ExecutionStats, ref: RefStats) -> None:
    assert new.latency == ref.latency
    assert new.energy == ref.energy
    assert new.counts == ref.counts
    assert new.energy_by_kind == ref.energy_by_kind
    assert new.bus == ref.bus


# -- the checks ---------------------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stream=streams)
def test_priced_records_match_per_command_sums(stream):
    """``execute_batch`` (whole and ``split_ops``) fills each record
    with exactly the per-kind sums of the scalar price table."""
    controller = MemoryController(GEOM, TIMING)
    total = controller.execute_batch(_batch(stream))
    _, per_op = MemoryController(GEOM, TIMING).execute_batch(
        _batch(stream), split_ops=True
    )
    expected = _scalar_reference(stream, controller)
    assert len(per_op) == len(expected)
    for stats, (counts, energies) in zip(per_op, expected):
        assert stats.counts == counts
        assert stats.energy_by_kind == energies
    flat = [cmd for op in stream for cmd in op]
    ((counts, energies),) = _scalar_reference([flat], controller)
    assert total.counts == counts
    assert total.energy_by_kind == energies


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stream=streams, serial=st.booleans())
def test_execution_stats_merged_matches_reference(stream, serial):
    _, per_op = MemoryController(GEOM, TIMING).execute_batch(
        _batch(stream), split_ops=True
    )
    new, ref = ExecutionStats(), RefStats()
    for stats in per_op:
        new = new.merged(stats, serial=serial)
        ref = ref.merged(RefStats.of(stats), serial=serial)
        _same_stats(new, ref)
    assert new.to_dict() == {
        "latency_s": ref.latency,
        "energy_j": ref.energy,
        "counts": {k.value: n for k, n in ref.counts.items()},
        "energy_by_kind": {k.value: e for k, e in ref.energy_by_kind.items()},
        "bus": {
            "commands": ref.bus.commands,
            "data_bytes": ref.bus.data_bytes,
            "busy_time_s": ref.bus.busy_time,
            "energy_j": ref.bus.energy,
        },
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stream=streams, split=st.booleans(), plan=folds, data=st.data())
def test_accounting_matches_reference(stream, split, plan, data):
    """absorb (with and without a locality), merged, merge_from,
    merged_all and a snapshot delta, on both implementations."""
    controller = MemoryController(GEOM, TIMING)
    if split:
        _, priced = controller.execute_batch(_batch(stream), split_ops=True)
    else:
        priced = [controller.execute_batch(_batch(stream))]
    accts = []
    for locality, steps, bits in plan:
        new, ref = OpAccounting(), RefAcct()
        for stats in data.draw(st.lists(st.sampled_from(priced), max_size=4)):
            new.absorb(stats, locality)
            ref.absorb(RefStats.of(stats), locality)
        new.count_step(steps)
        ref.in_memory_steps += steps
        new.count_bits(bits)
        ref.bits_processed += bits
        _same_acct(new, ref)
        accts.append((new, ref))

    (new0, ref0), rest = accts[0], accts[1:]
    chain_new, chain_ref = new0, ref0
    for new, ref in rest:
        chain_new = chain_new.merged(new)
        chain_ref = chain_ref.merged(ref)
        _same_acct(chain_new, chain_ref)
    _same_acct(new0, ref0)  # merged never mutates its inputs

    all_new = new0.merged_all(new for new, _ref in rest)
    all_ref = ref0.merged_all(ref for _new, ref in rest)
    _same_acct(all_new, all_ref)
    _same_acct(all_new, chain_ref)
    assert all_new == chain_new  # value equality, not identity

    acc_new, acc_ref = OpAccounting(), RefAcct()
    for new, ref in accts:
        acc_new.merge_from(new)
        acc_ref.merge_from(ref)
    _same_acct(acc_new, acc_ref)

    # snapshot, fold more in, take the delta
    cut = data.draw(st.integers(0, len(accts)))
    before_new, before_ref = OpAccounting(), RefAcct()
    for new, ref in accts[:cut]:
        before_new = before_new.merged(new)
        before_ref = before_ref.merged(ref)
    snap_new, snap_ref = before_new.copy(), ref_snapshot(before_ref)
    after_new, after_ref = before_new, before_ref
    for new, ref in accts[cut:]:
        after_new = after_new.merged(new)
        after_ref = after_ref.merged(ref)
    delta_new = after_new.minus(snap_new)
    delta_ref = ref_delta(after_ref, snap_ref)
    _same_but_zero_kinds(delta_new, delta_ref)
    # replaying the delta onto an accounting adds the same floats
    _same_but_zero_kinds(new0.merged(delta_new), ref0.merged(delta_ref))


def _same_but_zero_kinds(new: OpAccounting, ref: RefAcct) -> None:
    """Equal, except that the reference delta drops the kinds whose
    energy delta is 0.0 while the record lists every kind issued since
    the snapshot (an MRS costs no array energy)."""
    new_dict, ref_dict = new.to_dict(), ref.to_dict()
    new_kinds = new_dict.pop("energy_by_kind")
    ref_kinds = ref_dict.pop("energy_by_kind")
    assert new_dict == ref_dict
    for kind, e in new_kinds.items():
        assert e == ref_kinds.get(kind, 0.0), kind
    assert set(ref_kinds) <= set(new_kinds)
