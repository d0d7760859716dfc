"""Query planning, sub-result reuse, and program compilation.

The layer between the applications/serving tier and the batched driver
path: :class:`QueryPlanner` compiles each request stream into a
canonical operand DAG, eliminates common sub-expressions within a
coalesced wave and across the whole request stream, and serves repeated
sub-results out of a write-invalidated :class:`SubResultCache` at the
price of a row-buffer read instead of a full in-memory execution.

Every exec wave runs through the driver's row-parallel flush.  What
recurs around it compiles (:mod:`repro.plan.compile`): to-host calls
freeze into :class:`ToHostProgram` replays, served results price a
per-shape serve template, and analytics queries replay their own
recorded programs -- byte-identical simulated cost, less host
wall-clock.  Programs live in a :class:`ProgramCache` keyed by
canonical shape.

Enable it per runtime with ``PimRuntime(..., plan=True)``; everything
issued through ``pim_op`` / ``pim_op_many`` then plans automatically.
``QueryPlanner(..., compile=False)`` interprets every to-host call,
serve and analytics query -- the priced reference the differential
suites compare against.  Writes always delta-repair the cached
sub-results they reach (:mod:`repro.plan.repair`, emitted from the
executor's step templates in either mode), falling back to eager
invalidation.
"""

from repro.plan.cache import CacheEntry, ProgramCache, SubResultCache
from repro.plan.compile import ToHostProgram
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
]
