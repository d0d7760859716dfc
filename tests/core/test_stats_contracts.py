"""Contracts of ExecutionStats.merged and OpAccounting.absorb."""

import pytest

from repro.core.stats import OpAccounting
from repro.memsim.address import OpLocality
from repro.memsim.bus import BusStats
from repro.memsim.controller import CommandKind, ExecutionStats


def make_stats(latency, energy, kind=CommandKind.ACT, n=1):
    stats = ExecutionStats(latency=latency, energy=energy)
    stats.add_count(kind, n)
    stats.add_energy(kind, energy)
    stats.bus = BusStats(commands=n, data_bytes=8 * n, busy_time=latency / 2,
                         energy=energy / 4)
    return stats


class TestExecutionStatsMerged:
    def test_serial_adds_latency(self):
        a = make_stats(1.0, 2.0)
        b = make_stats(3.0, 5.0, kind=CommandKind.WR)
        out = a.merged(b)  # serial is the default
        assert out.latency == pytest.approx(4.0)
        assert out.energy == pytest.approx(7.0)

    def test_parallel_takes_max_latency_but_sums_energy(self):
        a = make_stats(1.0, 2.0)
        b = make_stats(3.0, 5.0)
        out = a.merged(b, serial=False)
        assert out.latency == pytest.approx(3.0)
        assert out.energy == pytest.approx(7.0)

    def test_counts_and_kind_energy_merge(self):
        a = make_stats(1.0, 2.0, kind=CommandKind.ACT, n=2)
        b = make_stats(1.0, 3.0, kind=CommandKind.ACT, n=1)
        c = make_stats(1.0, 4.0, kind=CommandKind.PRE, n=5)
        out = a.merged(b).merged(c)
        assert out.counts == {CommandKind.ACT: 3, CommandKind.PRE: 5}
        assert out.energy_by_kind[CommandKind.ACT] == pytest.approx(5.0)
        assert out.energy_by_kind[CommandKind.PRE] == pytest.approx(4.0)

    def test_bus_stats_merge(self):
        a = make_stats(1.0, 2.0)
        b = make_stats(3.0, 4.0)
        out = a.merged(b)
        assert out.bus.commands == 2
        assert out.bus.data_bytes == 16

    def test_merge_does_not_mutate_inputs(self):
        a = make_stats(1.0, 2.0)
        b = make_stats(3.0, 4.0)
        a.merged(b)
        assert a.latency == 1.0
        assert a.counts == {CommandKind.ACT: 1}


class TestOpAccountingAbsorb:
    def test_absorb_folds_all_cost_fields(self):
        acct = OpAccounting()
        acct.absorb(make_stats(1.5, 3.0))
        acct.absorb(make_stats(0.5, 1.0, kind=CommandKind.WR))
        assert acct.latency == pytest.approx(2.0)
        assert acct.energy == pytest.approx(4.0)
        assert acct.bus_commands == 2
        assert acct.bus_data_bytes == 16
        assert acct.energy_by_kind[CommandKind.ACT] == pytest.approx(3.0)
        assert acct.energy_by_kind[CommandKind.WR] == pytest.approx(1.0)

    def test_absorb_with_locality_counts_it(self):
        acct = OpAccounting()
        acct.absorb(make_stats(1.0, 1.0), OpLocality.INTRA_SUBARRAY)
        acct.absorb(make_stats(1.0, 1.0), OpLocality.INTRA_SUBARRAY)
        acct.absorb(make_stats(1.0, 1.0), OpLocality.INTER_BANK)
        assert acct.locality_counts == {
            OpLocality.INTRA_SUBARRAY: 2,
            OpLocality.INTER_BANK: 1,
        }

    def test_absorb_without_locality_does_not_count(self):
        acct = OpAccounting()
        acct.absorb(make_stats(1.0, 1.0))
        assert acct.locality_counts == {}

    def test_absorb_empty_stats_is_identity_except_locality(self):
        # the batched executor defers costs: combine steps absorb empty
        # stats (for the locality tally) and the batch lands once later
        acct = OpAccounting()
        acct.absorb(ExecutionStats(), OpLocality.INTRA_SUBARRAY)
        assert acct.latency == 0.0
        assert acct.energy == 0.0
        assert acct.locality_counts == {OpLocality.INTRA_SUBARRAY: 1}

    def test_merged_sums_everything(self):
        a = OpAccounting()
        a.absorb(make_stats(1.0, 2.0), OpLocality.INTRA_SUBARRAY)
        a.count_step()
        a.count_bits(64)
        b = OpAccounting()
        b.absorb(make_stats(2.0, 3.0), OpLocality.INTRA_SUBARRAY)
        b.count_step(2)
        b.count_bits(128)
        out = a.merged(b)
        assert out.latency == pytest.approx(3.0)
        assert out.energy == pytest.approx(5.0)
        assert out.in_memory_steps == 3
        assert out.bits_processed == 192
        assert out.locality_counts == {OpLocality.INTRA_SUBARRAY: 2}
        # inputs untouched
        assert a.in_memory_steps == 1


class TestPerfCounters:
    def test_counters_track_both_paths(self):
        from repro.memsim import controller as ctrl_mod
        from repro.memsim.controller import (
            Command,
            CommandBatch,
            MemoryController,
        )
        from repro.memsim.geometry import MemoryGeometry
        from repro.memsim.timing import nvm_timing
        from repro.nvm.technology import get_technology

        geom = MemoryGeometry(
            channels=1, ranks_per_channel=1, chips_per_rank=1,
            banks_per_chip=1, subarrays_per_bank=1, rows_per_subarray=8,
            mats_per_subarray=1, cols_per_mat=64, mux_ratio=8,
        )
        ctrl = MemoryController(geom, nvm_timing(get_technology("pcm")))
        pc = ctrl_mod.perf_counters
        scalar0, batch0 = pc.scalar_commands, pc.batch_commands
        hits0, misses0 = pc.cache_hits, pc.cache_misses

        commands = [Command(CommandKind.ACT, n_bits=64)] * 3
        ctrl.execute(commands)
        assert pc.scalar_commands == scalar0 + 3
        # identical commands: 1 miss then hits
        assert pc.cache_misses == misses0 + 1
        assert pc.cache_hits == hits0 + 2

        batch = CommandBatch()
        batch.extend(commands)
        ctrl.execute_batch(batch)
        assert pc.batch_commands == batch0 + 3

    def test_summary_mentions_key_metrics(self):
        from repro.memsim.controller import PerfCounters

        pc = PerfCounters(
            scalar_commands=10, batch_commands=90, batches=3, streams=5,
            cache_hits=8, cache_misses=2,
        )
        line = pc.summary()
        assert "100 commands" in line
        assert "80.0%" in line
        assert pc.cache_hit_rate == pytest.approx(0.8)


class TestStatsConvention:
    """Every stats surface follows the ``to_dict()``/``summary()`` contract."""

    @staticmethod
    def _instances():
        from repro.backends.protocol import RunStats
        from repro.memsim.controller import PerfCounters
        from repro.runtime.driver import DriverStats

        stats = make_stats(1.0, 2.0)
        acct = OpAccounting()
        acct.absorb(stats, OpLocality.INTRA_SUBARRAY)
        acct.count_step()
        acct.count_bits(64)
        return [
            stats,
            PerfCounters(scalar_commands=1, batch_commands=2, batches=1,
                         streams=1, cache_hits=1, cache_misses=1),
            DriverStats(requests=2, instructions=3, mode_switches=1),
            RunStats(backend="b", op="or", latency=1.0, energy=2.0,
                     bits_processed=64, in_memory=True, steps=1),
            acct,
        ]

    def test_all_five_satisfy_the_statslike_protocol(self):
        from repro.core.stats import StatsLike

        for obj in self._instances():
            assert isinstance(obj, StatsLike), type(obj).__name__

    def test_to_dict_is_json_serializable(self):
        import json

        for obj in self._instances():
            payload = obj.to_dict()
            assert isinstance(payload, dict) and payload
            assert all(isinstance(k, str) for k in payload)
            json.dumps(payload)  # must not raise

    def test_summary_is_nonempty_text(self):
        for obj in self._instances():
            text = obj.summary()
            assert isinstance(text, str) and text

    def test_execution_stats_to_dict_round_trips_totals(self):
        stats = make_stats(1.5, 3.0, kind=CommandKind.WR, n=2)
        d = stats.to_dict()
        assert d["latency_s"] == pytest.approx(1.5)
        assert d["energy_j"] == pytest.approx(3.0)
        assert d["counts"] == {CommandKind.WR.value: 2}
        assert d["bus"]["commands"] == 2

    def test_op_accounting_to_dict_carries_derived_metrics(self):
        acct = OpAccounting()
        acct.absorb(make_stats(2.0, 4.0), OpLocality.INTRA_SUBARRAY)
        acct.count_bits(128)
        d = acct.to_dict()
        assert d["latency_s"] == pytest.approx(2.0)
        assert d["locality_counts"] == {OpLocality.INTRA_SUBARRAY.value: 1}
        assert d["energy_per_bit_j"] == pytest.approx(4.0 / 128)
