"""SystemConfig: round-trip fidelity and loud rejection of bad configs."""

import pytest

from repro.backends import GEOMETRIES, SystemConfig
from repro.memsim.geometry import DEFAULT_GEOMETRY, DRAM_GEOMETRY
from repro.runtime.os_mm import PlacementPolicy

#: the geometry registry as importing the package leaves it (collection
#: imports every test module before any test runs)
_IMPORTED_GEOMETRIES = dict(GEOMETRIES)


@pytest.fixture
def imported_geometries():
    """Run a test against the registry as imported.

    ``GEOMETRIES`` is module-level, and other tests register geometries
    into it (``geometry_name`` auto-registers ad-hoc ones), so the live
    registry is snapshotted, swapped for the imported one, and restored
    afterwards.
    """
    live = dict(GEOMETRIES)
    GEOMETRIES.clear()
    GEOMETRIES.update(_IMPORTED_GEOMETRIES)
    yield
    GEOMETRIES.clear()
    GEOMETRIES.update(live)


class TestRoundTrip:
    def test_default_round_trips(self):
        cfg = SystemConfig()
        assert SystemConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(backend="pinatubo", max_rows=2),
            SystemConfig(backend="simd", cpu_memory="pcm"),
            SystemConfig(backend="sdram", geometry="dram"),
            SystemConfig(backend="acpim", technology="reram"),
            SystemConfig(
                backend="ideal",
                placement="interleaved",
                timing_scale=2.0,
                energy_scale=0.5,
            ),
        ],
    )
    def test_non_defaults_round_trip(self, cfg):
        data = cfg.to_dict()
        assert isinstance(data, dict)
        rebuilt = SystemConfig.from_dict(data)
        assert rebuilt == cfg
        assert rebuilt.to_dict() == data

    def test_to_dict_is_json_ready(self):
        import json

        blob = json.dumps(SystemConfig(max_rows=8).to_dict())
        assert SystemConfig.from_dict(json.loads(blob)) == SystemConfig(max_rows=8)


class TestResolution:
    def test_geometry_objects(self, imported_geometries):
        assert SystemConfig().geometry_object() is DEFAULT_GEOMETRY
        assert SystemConfig(geometry="dram").geometry_object() is DRAM_GEOMETRY
        assert set(GEOMETRIES) == {"default", "dram"}

    def test_technology_object(self):
        assert SystemConfig(technology="stt").technology_object().cell_kind == (
            "STT-MRAM"
        )

    def test_placement_policy(self):
        assert SystemConfig().placement_policy() is PlacementPolicy.PIM_AWARE
        cfg = SystemConfig(placement="interleaved")
        assert cfg.placement_policy() is PlacementPolicy.INTERLEAVED


class TestRejection:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown SystemConfig keys"):
            SystemConfig.from_dict({"backend": "pinatubo", "rowz": 2})

    def test_unknown_technology(self):
        with pytest.raises(ValueError, match="unknown technology"):
            SystemConfig(technology="flux-capacitor")

    def test_unknown_geometry(self):
        with pytest.raises(ValueError, match="unknown geometry"):
            SystemConfig(geometry="hbm")

    def test_unknown_placement(self):
        with pytest.raises(ValueError, match="unknown placement"):
            SystemConfig(placement="chaotic")

    def test_unknown_cpu_memory(self):
        with pytest.raises(ValueError, match="unknown cpu_memory"):
            SystemConfig(cpu_memory="sram")

    def test_empty_backend(self):
        with pytest.raises(ValueError, match="backend"):
            SystemConfig(backend="")

    def test_max_rows_below_two(self):
        with pytest.raises(ValueError, match="max_rows"):
            SystemConfig(max_rows=1)

    def test_max_rows_beyond_sensing_limit(self):
        # PCM's validated multi-row OR limit is 128
        with pytest.raises(ValueError, match="sensing limit"):
            SystemConfig(technology="pcm", max_rows=256)

    def test_max_rows_invalid_for_stt(self):
        # STT-MRAM's low TMR contrast caps one-step ops at 2 rows
        with pytest.raises(ValueError, match="sensing limit"):
            SystemConfig(technology="stt", max_rows=4)

    def test_stt_two_rows_allowed(self):
        assert SystemConfig(technology="stt", max_rows=2).max_rows == 2

    @pytest.mark.parametrize("field", ["timing_scale", "energy_scale"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_scales(self, field, bad):
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: bad})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SystemConfig().backend = "simd"
