"""Shared packed-bit helpers.

The functional memory stores bit-vectors packed little-endian in
``uint8`` arrays (``numpy.packbits(bitorder='little')``).  Several
layers — write-back pricing in the plan compiler, delta repair, the
arithmetic subsystem's popcount reductions — need fast set-bit counts
over that representation.  This module is their shared public home;
the implementations live next to the storage layout they describe
(:mod:`repro.memsim.mainmem`) and are re-exported here so callers
never reach into another package's underscore names.
"""

from __future__ import annotations

from repro.memsim.mainmem import popcount_packed, popcount_prefix, popcount_rows

__all__ = ["popcount_packed", "popcount_prefix", "popcount_rows"]
