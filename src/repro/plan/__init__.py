"""Query planning, sub-result reuse, and kernel compilation.

The layer between the applications/serving tier and the batched driver
path: :class:`QueryPlanner` compiles each request stream into a
canonical operand DAG, eliminates common sub-expressions within a
coalesced wave and across the whole request stream, and serves repeated
sub-results out of a write-invalidated :class:`SubResultCache` at the
price of a row-buffer read instead of a full in-memory execution.

Recurring wave *shapes* additionally lower into flat numpy programs
(:mod:`repro.plan.compile`): preallocated command columns priced through
the real controller plus a leveled, grouped instruction list executed as
a handful of vectorized ufunc passes -- byte-identical simulated cost,
an order of magnitude less host wall-clock.  Programs live in a
:class:`ProgramCache` keyed by canonical DAG shape.

Enable it per runtime with ``PimRuntime(..., plan=True)``; everything
issued through ``pim_op`` / ``pim_op_many`` then plans automatically.
``QueryPlanner(..., compile=False)`` keeps fully interpreted wave
execution -- the priced reference the differential suites compare
against.  Writes always delta-repair the cached sub-results they reach
(:mod:`repro.plan.repair`), falling back to eager invalidation.
"""

from repro.plan.cache import CacheEntry, ProgramCache, SubResultCache
from repro.plan.compile import ToHostProgram, WaveProgram
from repro.plan.planner import PlanStats, QueryPlanner
from repro.plan.repair import RepairEngine

__all__ = [
    "CacheEntry",
    "PlanStats",
    "ProgramCache",
    "QueryPlanner",
    "RepairEngine",
    "SubResultCache",
    "ToHostProgram",
    "WaveProgram",
]
