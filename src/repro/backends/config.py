"""Declarative system configuration for backend construction.

A :class:`SystemConfig` is the one frozen value object that describes an
execution substrate -- which backend, which NVM technology, geometry,
multi-row limit, placement policy, and timing/energy scaling knobs --
and round-trips losslessly through plain dicts (``to_dict`` /
``from_dict``), so sweeps, benchmarks and external harnesses can store
configurations as JSON and rebuild identical systems with
:func:`repro.backends.registry.build_system`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

from repro.core.ops import operand_limits
from repro.memsim.geometry import DEFAULT_GEOMETRY, DRAM_GEOMETRY, MemoryGeometry
from repro.nvm.technology import NVMTechnology, get_technology, list_technologies
from repro.runtime.os_mm import PlacementPolicy

#: named geometries a config may select
GEOMETRIES = {
    "default": DEFAULT_GEOMETRY,  # the paper's NVM main memory
    "dram": DRAM_GEOMETRY,  # DDR3 organisation (S-DRAM baseline)
}


def register_geometry(name: str, geometry: MemoryGeometry) -> str:
    """Register a geometry under ``name`` so configs can select it.

    Re-registering the *same* geometry under the same name is a no-op
    (benchmarks and tests may register at import time); registering a
    different geometry under a taken name raises.  Returns the name, so
    ``SystemConfig(geometry=register_geometry("bench", g))`` reads
    naturally.
    """
    if not name or not isinstance(name, str):
        raise ValueError("geometry name must be a non-empty string")
    existing = GEOMETRIES.get(name)
    if existing is not None and existing != geometry:
        raise ValueError(
            f"geometry name {name!r} already registered with different "
            f"parameters"
        )
    GEOMETRIES[name] = geometry
    return name


def geometry_name(geometry: MemoryGeometry) -> str:
    """The registry name of ``geometry``, auto-registering if unnamed.

    Reverse lookup by value; an unregistered geometry is registered
    under a deterministic name derived from its dimensions, so ad-hoc
    geometries (small test arrays, benchmark shards) can ride the
    declarative :class:`SystemConfig` path too.
    """
    for name, known in GEOMETRIES.items():
        if known == geometry:
            return name
    name = (
        f"custom-{geometry.channels}ch-{geometry.ranks_per_channel}rk-"
        f"{geometry.chips_per_rank}cp-{geometry.banks_per_chip}bk-"
        f"{geometry.subarrays_per_bank}sa-{geometry.rows_per_subarray}r-"
        f"{geometry.mats_per_subarray}m-{geometry.cols_per_mat}c-"
        f"{geometry.mux_ratio}x"
    )
    return register_geometry(name, geometry)

#: what the host CPU's main memory may be ("dram" or an NVM technology)
_CPU_MEMORIES = ("dram",)


@dataclass(frozen=True)
class SystemConfig:
    """Complete, declarative description of one execution substrate."""

    #: registry name of the backend (see ``repro.backends.registry``)
    backend: str = "pinatubo"
    #: NVM technology of in-memory schemes ("pcm", "stt", "reram", ...)
    technology: str = "pcm"
    #: named geometry: "default" (NVM) or "dram" (DDR3 organisation)
    geometry: str = "default"
    #: one-step multi-row activation cap (None: the sensing limit;
    #: 2 produces the evaluation's "Pinatubo-2")
    max_rows: Optional[int] = None
    #: OS placement policy for functional runtimes
    placement: str = "pim_aware"
    #: main memory the host CPU pairs with: "dram" when compared against
    #: S-DRAM, an NVM technology name against AC-PIM/Pinatubo (paper 6.1)
    cpu_memory: str = "dram"
    #: multiplicative knobs on priced latency/energy (what-if sweeps);
    #: 1.0 reproduces the paper numbers exactly
    timing_scale: float = 1.0
    energy_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.backend or not isinstance(self.backend, str):
            raise ValueError("backend must be a non-empty registry name")
        try:
            get_technology(self.technology)
        except KeyError:
            raise ValueError(
                f"unknown technology {self.technology!r}; "
                f"known: {list_technologies()} (or aliases pcm/stt/reram)"
            ) from None
        if self.geometry not in GEOMETRIES:
            raise ValueError(
                f"unknown geometry {self.geometry!r}; known: {sorted(GEOMETRIES)}"
            )
        try:
            PlacementPolicy(self.placement)
        except ValueError:
            known = [p.value for p in PlacementPolicy]
            raise ValueError(
                f"unknown placement {self.placement!r}; known: {known}"
            ) from None
        if self.cpu_memory not in _CPU_MEMORIES:
            try:
                get_technology(self.cpu_memory)
            except KeyError:
                raise ValueError(
                    f"unknown cpu_memory {self.cpu_memory!r}; "
                    f"use 'dram' or an NVM technology name"
                ) from None
        if self.max_rows is not None:
            if self.max_rows < 2:
                raise ValueError("max_rows must be >= 2 (or None)")
            sensing_limit = operand_limits(self.technology_object()).or_rows
            if self.max_rows > sensing_limit:
                raise ValueError(
                    f"max_rows={self.max_rows} exceeds the {self.technology} "
                    f"sensing limit of {sensing_limit} rows"
                )
        for name in ("timing_scale", "energy_scale"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and positive")

    # -- resolved objects ---------------------------------------------------

    def geometry_object(self) -> MemoryGeometry:
        return GEOMETRIES[self.geometry]

    def technology_object(self) -> NVMTechnology:
        return get_technology(self.technology)

    def placement_policy(self) -> PlacementPolicy:
        return PlacementPolicy(self.placement)

    # -- dict round-trip ----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form; ``from_dict(to_dict(cfg)) == cfg``."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Rebuild a config, rejecting unknown keys outright."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SystemConfig keys: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)
