"""Unified telemetry: spans, counters, and trace export for the repro.

One process-wide :class:`~repro.telemetry.tracer.Tracer` instance backs
the module-level API.  Typical use::

    from repro import telemetry

    telemetry.configure(enabled=True)
    ... run a workload ...
    telemetry.export_chrome_trace("trace.json")   # chrome://tracing
    print(telemetry.summary())

Instrumented layers and their span names:

- ``memsim.controller.execute`` / ``memsim.controller.execute_batch`` --
  the leaves where simulated latency/energy is attributed
- ``core.executor.bitwise`` / ``.bitwise_many`` / ``.bitwise_to_host``
- ``runtime.driver.flush``
- ``backends.<name>.bitwise`` / ``.bitwise_many``
- ``app.fastbit.query`` / ``.query_many``, ``app.bitvector.apply_many``,
  ``app.bfs.run`` / ``.level``
- ``workloads.trace.price`` (analytic trace pricing, used by figures)

Tracing is off by default; the disabled path is a single flag check per
``span()`` call so instrumentation can stay in hot loops permanently.
Counters/gauges are always live (integer adds only).

This package deliberately imports nothing outside the stdlib, so any
layer of the repro -- including ``repro.memsim.controller`` at the very
bottom of the import graph -- can import it without cycles.
"""

from __future__ import annotations

import atexit
import sys
from typing import Any, Dict

from repro.telemetry import export as _export
from repro.telemetry.instruments import Accumulator, Counter, Gauge
from repro.telemetry.tracer import NULL_SPAN, SpanRecord, Tracer

__all__ = [
    "Accumulator",
    "accumulator",
    "Counter",
    "Gauge",
    "NULL_SPAN",
    "SpanRecord",
    "Tracer",
    "aggregate",
    "attribute",
    "chrome_trace",
    "configure",
    "counter",
    "current_span",
    "export_chrome_trace",
    "gauge",
    "report_at_exit",
    "reset",
    "span",
    "summary",
    "tracer",
]

#: the process-wide tracer; stable object, safe to cache a reference to
tracer = Tracer()

# Bound methods of the singleton ARE the module-level API -- zero extra
# call layers on the hot path.
configure = tracer.configure
reset = tracer.reset
span = tracer.span
attribute = tracer.attribute
current_span = tracer.current_span
counter = tracer.counter
gauge = tracer.gauge
accumulator = tracer.accumulator


def chrome_trace() -> Dict[str, Any]:
    """Chrome trace-event dict of everything recorded so far."""
    return _export.chrome_trace(tracer)


def export_chrome_trace(path: str) -> Dict[str, Any]:
    """Write the Chrome trace JSON to ``path``; returns the dict too."""
    return _export.export_chrome_trace(tracer, path)


def aggregate() -> Dict[str, Any]:
    """Flat ``{spans, counters, gauges, dropped_spans}`` aggregate dict."""
    return _export.aggregate(tracer)


def summary() -> str:
    """Human-readable multi-line telemetry report."""
    return _export.summary(tracer)


_exit_registered = False
_exit_enabled = False


def _emit_exit_report() -> None:  # pragma: no cover - atexit hook
    if not _exit_enabled:
        return
    print(summary(), file=sys.stderr)
    # Fold in the controller's perf counters when that layer was loaded;
    # looked up lazily so importing telemetry never drags in memsim.
    controller = sys.modules.get("repro.memsim.controller")
    if controller is not None:
        print(controller.perf_counters.summary(), file=sys.stderr)


def report_at_exit(enable: bool = True) -> None:
    """Opt in (or back out) of a telemetry report on interpreter exit:
    the telemetry summary plus the controller's pricing-engine counters.
    Nothing prints unless this was called.
    """
    global _exit_registered, _exit_enabled
    _exit_enabled = enable
    if enable and not _exit_registered:
        atexit.register(_emit_exit_report)
        _exit_registered = True
