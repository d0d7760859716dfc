"""Per-layer host-time ledger: timing shims on each layer's entry points.

A layer is one module of the stack.  :meth:`Ledger.install` wraps the
public entry points listed in :data:`LAYERS` at class (or module) level,
before the cluster is built, so every instance and every bound method
captured as a listener goes through the shim.  While the ledger is
active each call opens a span (name, start, end, parent); a layer's self
time is its spans' durations minus the part their child spans cover.
Inactive shims call straight through, which is what the untraced
windows of a traced run measure against.

Totals are kept per layer for the whole active period.  Span records,
for the Chrome trace, are kept only while :attr:`Ledger.recording` is
set and up to ``span_cap`` spans, whole call trees at a time.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: the load path, timed into each layer's set-up self time
_LOAD = ("register_tenant", "load_vectors", "load_bitmap_index", "load_bitslice_column")

#: layer -> [(module, class or None for module functions, entry points)]
LAYERS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "client": [
        (
            "repro.service.api",
            "ServiceClient",
            ("query", "range_query", "analyze", "update", "subscribe", "run") + _LOAD,
        )
    ],
    "cluster": [
        ("repro.cluster.router", "ClusterRouter", ("submit_request", "run") + _LOAD)
    ],
    "scheduler": [
        ("repro.service.scheduler", "CoalescingScheduler", ("dispatch", "execute_calls"))
    ],
    "engine": [
        (
            "repro.service.engine",
            "ResidentPimEngine",
            ("execute", "update_vector", "replay", "load_vector"),
        )
    ],
    "arith": [
        ("repro.arith.compile", "AnalyticsCompiler", ("replay", "observe")),
        # the kernels as the engine imported them: these names are the
        # calls the engine makes
        (
            "repro.service.engine",
            None,
            (
                "compare_const",
                "combine_masks",
                "copy_plane",
                "mask_bits",
                "masked_sum",
                "masked_histogram",
            ),
        ),
    ],
    "runtime": [
        (
            "repro.runtime.api",
            "PimRuntime",
            (
                "pim_malloc",
                "pim_free",
                "pim_op",
                "pim_op_many",
                "pim_op_to_host",
                "pim_popcount",
                "pim_write",
                "pim_read",
            ),
        )
    ],
    "plan": [
        (
            "repro.plan.planner",
            "QueryPlanner",
            ("execute_many", "execute_to_host", "execute_popcount", "on_write", "on_free"),
        )
    ],
    "plan.repair": [("repro.plan.repair", "RepairEngine", ("on_delta",))],
    "driver": [("repro.runtime.driver", "PimDriver", ("flush",))],
    "executor": [
        (
            "repro.core.executor",
            "PinatuboExecutor",
            ("bitwise_many", "bitwise_to_host", "write_vector", "read_vector"),
        )
    ],
    "memsim": [
        ("repro.memsim.controller", "MemoryController", ("execute_batch",)),
        (
            "repro.memsim.mainmem",
            "MainMemory",
            ("write_frame", "write_frames", "gather_rows", "bitwise_rows"),
        ),
    ],
}

#: span record: (id, parent id or 0, layer, name, start ns, end ns, args)
Span = Tuple[int, int, str, str, int, int, Optional[dict]]


class Ledger:
    """Span-based self-time accounting over the shimmed entry points."""

    def __init__(self, span_cap: int = 50_000):
        self.active = False
        self.recording = False
        self.span_cap = span_cap
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[Span] = []
        #: wall time of the intervals spans were recorded in
        self.recorded_wall_ns = 0
        self._stack: List[list] = []  # [span id, child ns] per open span
        self._record_tree = False
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []
        #: scheduler object id -> (node id, node service)
        self._nodes: Dict[int, tuple] = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        for layer, targets in LAYERS.items():
            for module_name, class_name, names in targets:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                for name in names:
                    original = (
                        owner.__dict__[name] if class_name else getattr(owner, name)
                    )
                    if not isinstance(original, types.FunctionType):
                        raise TypeError(
                            f"{module_name}.{class_name or ''}.{name} is not "
                            f"a plain function; the shim cannot wrap it"
                        )
                    label = f"{layer}.{name}"
                    attrs = self._dispatch_attrs if label == "scheduler.dispatch" else None
                    self._patches.append((owner, name, original))
                    setattr(owner, name, self._shim(layer, label, original, attrs))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def bind(self, router) -> None:
        """Learn which node each scheduler serves (dispatch span ids)."""
        for node_id, node in router.nodes.items():
            self._nodes[id(node.service.scheduler)] = (node_id, node.service)

    # -- the shim -------------------------------------------------------------

    def _shim(self, layer: str, label: str, fn: Callable, attrs) -> Callable:
        ledger = self
        clock = time.perf_counter_ns
        self_ns = self.self_ns
        calls = self.calls
        stack = self._stack

        def shim(*args, **kwargs):
            if not ledger.active:
                return fn(*args, **kwargs)
            if not stack:
                ledger._record_tree = (
                    ledger.recording and len(ledger.spans) < ledger.span_cap
                )
            parent = stack[-1][0] if stack else 0
            span_id = ledger._next_id
            ledger._next_id = span_id + 1
            frame = [span_id, 0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_ns[layer] += duration - frame[1]
                calls[layer] += 1
                if ledger._record_tree:
                    extra = attrs(args, result) if attrs is not None else None
                    ledger.spans.append(
                        (span_id, parent, layer, label, start, end, extra)
                    )

        return shim

    def _dispatch_attrs(self, args, result) -> Optional[dict]:
        """Node, batch id and request ids of one dispatched batch.

        The service counts the batch right after ``dispatch`` returns,
        so the batch's ``QueryResult.batch_id`` is the node's batch
        count plus one.
        """
        node = self._nodes.get(id(args[0]))
        if node is None or result is None or not result[0]:
            return None
        node_id, service = node
        return {
            "node": node_id,
            "batch_id": service.stats.batches + 1,
            "request_ids": [r.request_id for r in result[0]],
        }

    # -- reading --------------------------------------------------------------

    def take(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Per-layer (self ns, calls) since the last take; resets them."""
        totals = (dict(self.self_ns), dict(self.calls))
        self.self_ns.clear()
        self.calls.clear()
        return totals

    def write_chrome_trace(self, path) -> None:
        """Write the recorded spans as a Chrome trace-event document."""
        origin = min((s[4] for s in self.spans), default=0)
        events = []
        for span_id, parent, layer, name, start, end, extra in self.spans:
            args = {"id": span_id, "parent": parent}
            if extra:
                args.update(extra)
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - origin) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        trace = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"recorded_wall_us": self.recorded_wall_ns / 1e3},
        }
        with open(path, "w") as fh:
            json.dump(trace, fh)
