"""The query-plan compiler: canonical DAGs, CSE, and cached serving.

:class:`QueryPlanner` sits between ``PimRuntime.pim_op/pim_op_many``
and the batched driver.  For every request it builds a **canonical
expression key**:

- a *leaf* is the tuple ``("L", frames, versions)`` -- the identity of
  a run of row frames at their current write versions, encoded as the
  raw bytes of the frame-number and version arrays (versions are bumped
  by the main memory's write listener, so any write to a row changes
  every key that reads it).  Leaf keys are memoized per vector id and
  revalidated against a write-version stamp (:meth:`QueryPlanner.fresh`),
  so the hot path never re-derives them;
- a handle whose content was produced by an earlier planned request
  resolves to that request's *expression key* instead of its raw
  frames (the binding survives as long as the destination rows are
  unwritten), which is what lets the AND over two cached range-ORs
  match across queries even though each query materialised its
  predicates into different scratch rows;
- operand lists are sorted (and, for the idempotent OR/AND, dedup'd)
  so commutative expressions canonicalise to one key; XOR keeps its
  multiset.

Requests stream through a *wave*: duplicates of a request already in
the wave (``plan.cse_hits``) and requests whose key is in the
:class:`~repro.plan.cache.SubResultCache` (``plan.cache.hits``) become
*serve* items; everything else executes through one batched driver
flush.  Serve items are materialised after the flush, in submission
order, and priced honestly as a **row-buffer read** per chunk (ACT +
serial PIM_SENSE steps + PRE) through the real controller -- the cached
result is re-sensed from the array and forwarded to the destination
row, so a hit has nonzero simulated latency/energy but skips the
multi-row activation and, critically, the NVM write-back of a full
execution.  Serve costs merge into ``driver.stats.accounting`` so
runtime/telemetry totals reconcile.

Correctness invariants:

- versions only increase, and every key embeds the versions of its
  transitive leaf frames, so a cache entry can never be returned for
  changed operands (eager invalidation via the write listener also
  reclaims the entry's bytes immediately);
- a wave is flushed before admitting an exec-bound request that reads
  or writes any frame a pending serve item will write, or writes a
  frame a pending exec item writes -- the only orderings where
  serve-after-flush could be observed out of submission order;
- requests whose destination frames appear among their own leaf
  frames (accumulation in place) execute normally but are never
  inserted, since their stored key would reference a pre-write version
  that no later lookup can reproduce.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from itertools import chain
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import telemetry
from repro.core.executor import OpResult
from repro.core.ops import PimOp
from repro.core.stats import OpAccounting
from repro.memsim.controller import CommandBatch, CommandKind
from repro.plan.cache import ProgramCache, SubResultCache
from repro.plan.compile import (
    COMPILATIONS,
    COMPILE_SECONDS,
    PROGRAM_HITS,
    PROGRAM_MISSES,
    UNCOMPILABLE,
    UNCOMPILABLE_SHAPES,
    build_serve_template,
    build_to_host_program,
    to_host_shape_key,
)
from repro.runtime.driver import PimDriver, PimRequest

__all__ = ["PlanStats", "QueryPlanner"]

#: persistent expression bindings kept per planner (vid -> producing
#: expression); a plain LRU bound -- bindings are an optimisation hint,
#: dropping one only costs a missed CSE opportunity
_MAX_BINDINGS = 8192

_CSE_HITS = telemetry.counter("plan.cse_hits")
_PLANNED = telemetry.counter("plan.requests")
#: never incremented (planning admits every serve; nothing replays
#: them), but benchmarks/e2e --trace reads it
telemetry.counter("plan.serve.replays")


def _serve_commands(batch, geometry, channel_of, dest_frames, n_bits):
    """Emit the row-buffer-read command shape of one served result.

    Per chunk: re-open the row holding the cached sub-result (ACT),
    resolve its sense steps through the SA mux (PIM_SENSE), close
    (PRE).  No PIM_WRITEBACK/WR: the forwarded buffer content lands in
    the destination row through the write-driver bypass without a full
    array program, which is exactly why a hit is cheaper than an
    execution on write-asymmetric NVM.
    """
    row_bits = geometry.row_bits
    for c, frame in enumerate(dest_frames):
        chunk_bits = min(n_bits - c * row_bits, row_bits)
        ch = channel_of(frame)
        steps = geometry.sense_steps_for_bits(chunk_bits)
        batch.add(CommandKind.ACT, channel=ch, n_bits=chunk_bits)
        batch.add(
            CommandKind.PIM_SENSE, channel=ch, n_bits=chunk_bits, n_steps=steps
        )
        batch.add(CommandKind.PRE, channel=ch)
        batch.fence()


def _serve_result(op, stats, n_bits: int) -> OpResult:
    """The result of one served request priced at ``stats``."""
    acct = OpAccounting()
    acct.absorb(stats)
    acct.count_bits(n_bits)
    return OpResult(op=op, accounting=acct, steps=0, localities={})


def _packed_to_host(executor, op, scratch_frames, source_frame_lists, n_bits):
    """Interpreted ``bitwise_to_host`` in the program replay's form:
    ``(packed rows, OpResult)``."""
    bits, result = executor.bitwise_to_host(
        op, scratch_frames, source_frame_lists, n_bits
    )
    return np.packbits(bits, bitorder="little"), result


class PlanStats:
    """Tallies of one planner instance (StatsLike)."""

    __slots__ = (
        "requests",
        "cse_hits",
        "cache_hits",
        "cache_misses",
        "waves",
        "hazard_flushes",
        "served_latency_s",
        "served_energy_j",
        "program_hits",
        "program_misses",
        "compilations",
        "compile_seconds",
        "repairs",
        "repair_fallbacks",
        "repaired_chunks",
        "repair_latency_s",
        "repair_energy_j",
        "repair_saved_s",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.cse_hits = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.waves = 0
        self.hazard_flushes = 0
        self.served_latency_s = 0.0
        self.served_energy_j = 0.0
        self.program_hits = 0
        self.program_misses = 0
        self.compilations = 0
        self.compile_seconds = 0.0
        self.repairs = 0
        self.repair_fallbacks = 0
        self.repaired_chunks = 0
        self.repair_latency_s = 0.0
        self.repair_energy_j = 0.0
        self.repair_saved_s = 0.0

    @property
    def served(self) -> int:
        return self.cse_hits + self.cache_hits

    def to_dict(self) -> dict:
        """JSON-ready dict of every tally."""
        return {
            "requests": self.requests,
            "cse_hits": self.cse_hits,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "served": self.served,
            "waves": self.waves,
            "hazard_flushes": self.hazard_flushes,
            "served_latency_s": self.served_latency_s,
            "served_energy_j": self.served_energy_j,
            "program_hits": self.program_hits,
            "program_misses": self.program_misses,
            "compilations": self.compilations,
            "compile_seconds": self.compile_seconds,
            "repairs": self.repairs,
            "repair_fallbacks": self.repair_fallbacks,
            "repaired_chunks": self.repaired_chunks,
            "repair_latency_s": self.repair_latency_s,
            "repair_energy_j": self.repair_energy_j,
            "repair_saved_s": self.repair_saved_s,
        }

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"PlanStats: {self.requests} requests, "
            f"{self.cse_hits} CSE hits + {self.cache_hits} cache hits "
            f"served ({self.cache_misses} misses), {self.waves} waves "
            f"({self.hazard_flushes} hazard flushes)"
        )


class _Item:
    """One planned request inside the current wave."""

    __slots__ = (
        "index",
        "req",
        "key",
        "leaves",
        "dest_frames",
        "n_chunks",
        "kind",  # "exec" | "serve"
        "rows",  # serve: cached rows (None when copied from a primary)
        "primary",  # serve: the exec _Item whose result this duplicates
        "cacheable",
        "has_dups",
    )

    def __init__(self, index, req, key, leaves, dest_frames, n_chunks, kind):
        self.index = index
        self.req = req
        self.key = key
        self.leaves = leaves
        self.dest_frames = dest_frames
        self.n_chunks = n_chunks
        self.kind = kind
        self.rows = None
        self.primary = None
        self.cacheable = False
        self.has_dups = False


class _Wave:
    """Pending items plus the frame sets the hazard checks consult."""

    __slots__ = ("items", "keys", "exec_reads", "exec_writes", "serve_writes",
                 "bind")

    def __init__(self) -> None:
        self.items: List[_Item] = []
        #: canonical key -> exec item (the wave-local CSE table)
        self.keys: Dict[tuple, _Item] = {}
        self.exec_reads: Set[int] = set()
        self.exec_writes: Set[int] = set()
        self.serve_writes: Set[int] = set()
        #: vid -> (frames, key, leaves) for every pending destination
        self.bind: Dict[int, Tuple[tuple, tuple, FrozenSet[int]]] = {}


class _Stamp:
    """A frame set's write versions at one moment (see
    :meth:`QueryPlanner.stamp`)."""

    __slots__ = (
        "farr",  # np.intp array of the stamped frames
        "vsum",  # planner version sum over farr when stamped
        "epoch",  # planner write epoch at the last successful check
        "evictions",  # sub-result cache eviction count when stamped
    )

    def __init__(self, farr, vsum, epoch, evictions):
        self.farr = farr
        self.vsum = vsum
        self.epoch = epoch
        self.evictions = evictions


class QueryPlanner:
    """Compiles request streams into minimally-executed driver waves."""

    def __init__(
        self,
        driver: PimDriver,
        cache_bytes: int = 64 << 20,
        cache_shards: int = 8,
        compile: bool = True,
    ):
        self.driver = driver
        self.executor = driver.executor
        self.geometry = self.executor.geometry
        self.memory = self.executor.memory
        self.cache = SubResultCache(cache_bytes, cache_shards)
        #: ``compile=False`` is the priced interpreter: to-host calls
        #: and serves interpreted, the reference the differential
        #: suites compare against (identical results and pricing, just
        #: no program recording/replay); repairs emit the same way in
        #: both modes
        self.compile_enabled = bool(compile)
        #: to-host shape key -> ToHostProgram, or UNCOMPILABLE
        self.programs = ProgramCache()
        #: (n_bits, channels bytes) -> ServeTemplate
        self._serve_templates: Dict[tuple, object] = {}
        self.stats = PlanStats()
        #: authoritative write versions, dense per frame (row counts are
        #: modest even for the 64 GiB geometry -- capacity lives in row
        #: *width*); a frame never written since the planner attached
        #: stays at version 0
        self._versions = np.zeros(self.geometry.total_rows, dtype=np.int64)
        #: bumps once per write call; a stamp checked at the current
        #: epoch needs no version re-check (see :meth:`fresh`)
        self._write_epoch = 0
        #: vid -> [frames, stamp, version snapshot array, expression
        #: key, leaf frames]
        self._bound: "OrderedDict[int, list]" = OrderedDict()
        #: vid -> [n_chunks, frames, stamp, leaf key, leaf frames] --
        #: raw-operand key memo
        self._leaf_keys: "OrderedDict[int, list]" = OrderedDict()
        #: frames tuple -> packed channel layout; pure (the mapping is
        #: geometry, not state) and scratch frames rotate through a
        #: finite pool, so the same tuples recur indefinitely
        self._chan_bytes: Dict[tuple, bytes] = {}
        #: raw to-host operand identity -> shape key (same purity
        #: argument; ``None`` marks shapes the compiler rejects)
        self._to_host_keys: Dict[tuple, Optional[tuple]] = {}
        #: (op, n_bits, child keys in submission order) -> canonical
        #: request key, skipping the per-request sort of recurring
        #: operand combinations
        self._canon_keys: Dict[tuple, tuple] = {}
        #: >0 while this planner itself is executing a wave; the dest
        #: writes a wave lands (serves, exec write-backs) always
        #: invalidate -- their grouping differs between the interpreted
        #: and compiled paths, and repairing mid-wave would fork their
        #: pricing.  Host-side writes (``pim_write``, service updates)
        #: happen at depth 0 and take the repair path.
        self._wave_depth = 0
        from repro.plan.repair import RepairEngine

        self._repair = RepairEngine(self)
        self.memory.add_delta_write_listener(self)

    # -- invalidation / repair hooks -----------------------------------------

    def wants_delta(self, frames) -> bool:
        """Memory asks before a write: capture ``old XOR new``?

        Only when the planner is not mid-wave and some cached entry
        actually reads one of the frames -- so unrelated writes never
        pay the old-row gather.  Reads ``self.cache`` dynamically (tests
        swap the cache instance out).
        """
        if self._wave_depth:
            return False
        index = self.cache._frame_index
        return bool(index) and not index.keys().isdisjoint(frames)

    def on_write(self, frames, farr=None, deltas=None) -> None:
        """Every write to main memory lands here (driver execution, host
        writes, fallbacks, the planner's own serves), once per write
        call with the programmed frames: bump their versions, then
        either repair the cached sub-results that read them (a delta
        was captured) or drop them (PR-6 eager invalidation)."""
        self._bump_versions(frames)
        if deltas is None:
            self.cache.invalidate_frames(frames)
        else:
            self._repair.on_delta(farr, deltas)

    def on_free(self, handle) -> None:
        """Allocator free hook: a free is a write-version event.

        The freed rows may be recycled under another vector, so their
        versions and the write epoch bump exactly as for a write --
        every key, binding and analytics record that read them goes
        stale -- and the vector's memos and dependent sub-results go
        now."""
        self._bump_versions(handle.frames)
        self._bound.pop(handle.vid, None)
        self._leaf_keys.pop(handle.vid, None)
        self.cache.invalidate_frames(handle.frames)

    def _bump_versions(self, frames) -> None:
        self._write_epoch += 1
        versions = self._versions
        if len(frames) == 1:
            versions[frames[0]] += 1
        elif type(frames) is np.ndarray:
            np.add.at(versions, frames, 1)
        else:
            np.add.at(
                versions,
                np.fromiter(frames, dtype=np.intp, count=len(frames)),
                1,
            )

    # -- write-version stamps ------------------------------------------------

    def stamp(self, farr: np.ndarray, vsum: Optional[int] = None) -> _Stamp:
        """Stamp the frames ``farr`` at their current write versions.

        ``vsum`` is their version sum when the caller already has it.
        Every memo that must notice a write to (or free of) the frames
        it read keeps one of these and asks :meth:`fresh`.
        """
        if vsum is None:
            vsum = int(self._versions[farr].sum())
        return _Stamp(farr, vsum, self._write_epoch, self.cache.evictions)

    def fresh(self, stamp: _Stamp) -> bool:
        """True while no stamped frame was written or freed since.

        Versions only ever increment, so sum equality over the same
        frames is elementwise equality -- one scalar compare.  Cheaper
        still: a stamp checked at the current write epoch was checked
        after the last write anywhere, so its versions cannot have
        moved -- no array touch at all.
        """
        epoch = self._write_epoch
        if stamp.epoch == epoch:
            return True
        if int(self._versions[stamp.farr].sum()) != stamp.vsum:
            return False
        stamp.epoch = epoch
        return True

    def replayable(self, stamp: _Stamp) -> bool:
        """:meth:`fresh`, and no cached sub-result was evicted since.

        The check for an analytics program record: its recorded pricing
        assumed every cache entry it served from stayed resident.
        """
        return stamp.evictions == self.cache.evictions and self.fresh(stamp)

    # -- canonicalisation ----------------------------------------------------

    def _leaf_key(
        self, handle, n_chunks: int, wave: _Wave
    ) -> Tuple[tuple, FrozenSet[int]]:
        """Canonical key of one operand handle (expression or raw leaf)."""
        frames = handle.frames
        if len(frames) != n_chunks:
            frames = frames[:n_chunks]
        pending = wave.bind.get(handle.vid)
        if pending is not None:
            bframes, key, leaves = pending
            if len(bframes) >= n_chunks and bframes[:n_chunks] == frames:
                return key, leaves
        bound = self._bound.get(handle.vid)
        if bound is not None:
            bframes, stamp = bound[0], bound[1]
            if len(bframes) == n_chunks:
                if bframes == frames and self.fresh(stamp):
                    self._bound.move_to_end(handle.vid)
                    return bound[3], bound[4]
            elif (
                len(bframes) > n_chunks
                and bframes[:n_chunks] == frames
                and (
                    stamp.epoch == self._write_epoch
                    or (
                        self._versions[stamp.farr[:n_chunks]]
                        == bound[2][:n_chunks]
                    ).all()
                )
            ):
                # prefix-only validation: leave the stamp alone (its
                # epoch asserts whole-entry freshness)
                self._bound.move_to_end(handle.vid)
                return bound[3], bound[4]
        cached = self._leaf_keys.get(handle.vid)
        if cached is not None:
            if (
                cached[0] == n_chunks
                and cached[1] == frames
                and self.fresh(cached[2])
            ):
                self._leaf_keys.move_to_end(handle.vid)
                return cached[3], cached[4]
        farr = np.fromiter(frames, dtype=np.intp, count=n_chunks)
        snapshot = self._versions[farr]
        key = ("L", farr.tobytes(), snapshot.tobytes())
        leaves = frozenset(frames)
        self._leaf_keys[handle.vid] = [
            n_chunks, frames, self.stamp(farr, int(snapshot.sum())), key,
            leaves,
        ]
        while len(self._leaf_keys) > _MAX_BINDINGS:
            self._leaf_keys.popitem(last=False)
        return key, leaves

    # -- public API ----------------------------------------------------------

    def execute(
        self,
        op,
        dest,
        sources,
        n_bits: Optional[int] = None,
        overlap_chunks: bool = False,
    ) -> OpResult:
        """Plan + run one operation (see :meth:`execute_many`)."""
        return self.execute_many([(op, dest, sources, n_bits, overlap_chunks)])[0]

    def execute_many(self, requests) -> List[OpResult]:
        """Plan and run a request stream; results in submission order.

        Accepts the driver's ``(op, dest, sources[, n_bits[,
        overlap_chunks]])`` tuples.  Functional results are identical to
        :meth:`PimDriver.execute_many`; only the cost of served
        duplicates differs (row-buffer read instead of re-execution).
        """
        reqs: List[PimRequest] = []
        for tup in requests:
            op, dest, sources = tup[0], tup[1], tup[2]
            n_bits = tup[3] if len(tup) > 3 else None
            overlap = bool(tup[4]) if len(tup) > 4 else False
            op = PimOp.parse(op)
            sources = tuple(sources)
            if n_bits is None:
                n_bits = min([dest.n_bits] + [s.n_bits for s in sources])
            reqs.append(PimRequest(op, dest, sources, n_bits, overlap))
        if not reqs:
            return []
        n = len(reqs)
        self._wave_depth += 1
        try:
            with telemetry.span("plan.execute_many", requests=n):
                results: List[Optional[OpResult]] = [None] * n
                wave = _Wave()
                for i, req in enumerate(reqs):
                    self._plan_one(i, req, wave, results)
                self._flush_wave(wave, results)
        finally:
            self._wave_depth -= 1
        return results

    def _channels_bytes(self, frames: tuple) -> bytes:
        chan = self._chan_bytes.get(frames)
        if chan is None:
            if len(self._chan_bytes) >= 8192:
                self._chan_bytes.clear()
            chan = self.executor.mapper.channels_of(frames).tobytes()
            self._chan_bytes[frames] = chan
        return chan

    def _canon(self, op, n_bits: int, children: list) -> tuple:
        """Canonical request key, memoized on the submission-order
        children (recurring operand combinations skip the sort)."""
        raw = (op.value, n_bits, tuple(children))
        key = self._canon_keys.get(raw)
        if key is not None:
            return key
        if op is PimOp.OR or op is PimOp.AND:
            children = sorted(set(children))
        elif op is PimOp.XOR:
            children = sorted(children)
        key = (op.value, n_bits, tuple(children))
        if len(self._canon_keys) >= _MAX_BINDINGS:
            self._canon_keys.clear()
        self._canon_keys[raw] = key
        return key

    # -- planning ------------------------------------------------------------

    def _plan_one(
        self, index: int, req: PimRequest, wave: _Wave, results: list
    ) -> None:
        self.stats.requests += 1
        _PLANNED.add()
        n_chunks = self.geometry.rows_for_bits(req.n_bits)
        dest_frames = req.dest.frames[:n_chunks]
        while True:
            children = []
            child_leaves = []
            for src in req.sources:
                ck, cl = self._leaf_key(src, n_chunks, wave)
                children.append(ck)
                child_leaves.append(cl)
            key = self._canon(req.op, req.n_bits, children)
            # in-place accumulation: the destination is among its own
            # leaves, so the result is never served or inserted (its key
            # embeds pre-write versions no later lookup can reproduce)
            # and no cache lookup is tallied
            aliased = any(not cl.isdisjoint(dest_frames) for cl in child_leaves)

            if not aliased:
                # the same expression pending in this wave (CSE) or
                # cached: a serve item, materialised after the flush.  A
                # key fixes its leaf frames, so a serve takes the
                # primary's or the entry's instead of their union.
                primary = wave.keys.get(key)
                entry = self.cache.get(key) if primary is None else None
                if primary is not None or entry is not None:
                    leaves = (
                        primary.leaves if entry is None else entry.dep_frames
                    )
                    item = _Item(index, req, key, leaves, dest_frames,
                                 n_chunks, "serve")
                    if primary is None:
                        item.rows = entry.rows
                        self.stats.cache_hits += 1
                    else:
                        item.primary = primary
                        primary.has_dups = True
                        self.stats.cse_hits += 1
                        _CSE_HITS.add()
                    wave.items.append(item)
                    wave.serve_writes.update(dest_frames)
                    wave.bind[req.dest.vid] = (dest_frames, key, leaves)
                    return
                self.stats.cache_misses += 1
            leaves = frozenset().union(*child_leaves)

            # exec-bound.  Flush first if this request would observe a
            # pending serve's write out of order (RAW/WAW against a
            # serve item) or double-write a pending exec destination
            # (WAW whose post-flush snapshot would be ambiguous); then
            # re-plan against the (empty, hazard-free) wave -- the
            # flush advanced the bindings and may have inserted this
            # very expression into the cache.
            source_frames: Set[int] = set()
            for src in req.sources:
                source_frames.update(src.frames[:n_chunks])
            dest_set = set(dest_frames)
            if (
                (source_frames & wave.serve_writes)
                or (dest_set & wave.serve_writes)
                or (dest_set & wave.exec_writes)
            ):
                self.stats.hazard_flushes += 1
                self._flush_wave(wave, results)
                continue

            item = _Item(index, req, key, leaves, dest_frames, n_chunks,
                         "exec")
            item.cacheable = not aliased
            wave.items.append(item)
            if item.cacheable:
                wave.keys[key] = item
            wave.exec_reads |= source_frames
            wave.exec_writes |= dest_set
            wave.bind[req.dest.vid] = (dest_frames, key, leaves)
            return

    # -- wave execution ------------------------------------------------------

    def _flush_wave(self, wave: _Wave, results: list) -> None:
        if not wave.items:
            return
        self.stats.waves += 1
        exec_items = [it for it in wave.items if it.kind == "exec"]
        serve_items = [it for it in wave.items if it.kind == "serve"]

        if exec_items:
            for it, result in zip(exec_items, self._run_exec(exec_items)):
                results[it.index] = result

        # Snapshot result rows straight after the flush -- before any
        # serve write can touch them -- for cache inserts and for the
        # wave's CSE duplicates.
        frame_view = self.memory.frame_view
        primary_rows: Dict[int, np.ndarray] = {}
        for it in exec_items:
            if not (it.cacheable or it.has_dups):
                continue
            rows = np.stack([frame_view(f) for f in it.dest_frames])
            if it.has_dups:
                primary_rows[id(it)] = rows
            if it.cacheable:
                self.cache.put(it.key, rows, it.req.n_bits, it.leaves)

        if serve_items:
            self._serve(serve_items, primary_rows, results)

        # Persistent bindings: every destination now holds its
        # expression's value; snapshot the (final) versions so any later
        # write is detected.  Submission order makes the last writer of
        # a vid win.  One gather and one segmented sum serve the wave.
        items = wave.items
        counts = [it.n_chunks for it in items]
        farr_all = np.fromiter(
            chain.from_iterable(it.dest_frames for it in items),
            dtype=np.intp, count=sum(counts),
        )
        snap_all = self._versions[farr_all]
        starts = np.cumsum([0] + counts[:-1]).tolist()
        vsums = np.add.reduceat(snap_all, starts).tolist()
        bound = self._bound
        for it, s, n, vsum in zip(items, starts, counts, vsums):
            vid = it.req.dest.vid
            bound[vid] = [
                it.dest_frames,
                self.stamp(farr_all[s:s + n], vsum),
                snap_all[s:s + n],
                it.key,
                it.leaves,
            ]
            bound.move_to_end(vid)
        while len(bound) > _MAX_BINDINGS:
            bound.popitem(last=False)

        wave.items.clear()
        wave.keys.clear()
        wave.exec_reads.clear()
        wave.exec_writes.clear()
        wave.serve_writes.clear()
        wave.bind.clear()

    def _run_exec(self, exec_items: List[_Item]) -> List[OpResult]:
        """Execute a wave's exec items through one driver flush."""
        driver = self.driver
        for it in exec_items:
            driver.submit(
                it.req.op, it.req.dest, it.req.sources, it.req.n_bits,
                it.req.overlap_chunks,
            )
        return driver.flush()

    def _compiled(self, key, replay, interpret, build):
        """The to-host compile lifecycle.

        A shape's first sighting interprets with the executor's record
        sink attached and lowers the recording with ``build(recorded,
        interpreted result)`` -- into a program, or an ``UNCOMPILABLE``
        mark that keeps the shape interpreted forever.  Every later
        sighting replays the program: same memory effects,
        byte-identical pricing through its frozen command batch.
        """
        entry = self.programs.get(key)
        if entry is not None and entry is not UNCOMPILABLE:
            PROGRAM_HITS.add()
            self.stats.program_hits += 1
            return replay(entry)
        PROGRAM_MISSES.add()
        self.stats.program_misses += 1
        if entry is UNCOMPILABLE:
            return interpret()
        executor = self.executor
        executor.record_sink = recorded = []
        try:
            out = interpret()
        finally:
            executor.record_sink = None
        with telemetry.span("plan.compile.program", kind="to_host"):
            t0 = perf_counter()
            program = build(recorded, out)
            dt = perf_counter() - t0
        COMPILE_SECONDS.add(dt)
        self.stats.compile_seconds += dt
        if program is None:
            UNCOMPILABLE_SHAPES.add()
            self.programs.put(key, UNCOMPILABLE)
        else:
            COMPILATIONS.add()
            self.stats.compilations += 1
            self.programs.put(key, program)
        return out

    def execute_to_host(
        self,
        op,
        scratch_frames: Sequence[int],
        source_frame_lists: Sequence[Sequence[int]],
        n_bits: int,
    ) -> Tuple[np.ndarray, OpResult]:
        """Compiled-path :meth:`PinatuboExecutor.bitwise_to_host`.

        A to-host call writes no memory and its command stream has no
        data-dependent widths, so its program freezes on *first* sight
        and replays from the second on.  Returns ``(packed rows,
        OpResult)``: the result's first ``n_bits`` bits, little-endian,
        with undefined padding past them.
        """
        return self._to_host(op, scratch_frames, source_frame_lists, n_bits)

    def execute_popcount(
        self,
        op,
        scratch_frames: Sequence[int],
        source_frame_lists: Sequence[Sequence[int]],
        n_bits: int,
    ) -> Tuple[np.ndarray, OpResult]:
        """:meth:`execute_to_host` entered for a popcount reduction.

        The same program and pricing -- the full result crosses the
        I/O bus either way; the caller counts the returned rows.  A
        separate entry point so per-layer tracing can tell the two
        runtime verbs apart.
        """
        return self._to_host(op, scratch_frames, source_frame_lists, n_bits)

    def _to_host(self, op, scratch_frames, source_frame_lists, n_bits):
        executor = self.executor
        op = PimOp.parse(op)
        interpret = partial(
            _packed_to_host, executor, op, scratch_frames, source_frame_lists,
            n_bits,
        )
        # scratch intermediates written by interpreted accumulation
        # passes are wave-internal: keep every write inside on eager
        # invalidation (program replays write nothing, so the guard is
        # inert on the compiled fast path)
        self._wave_depth += 1
        try:
            if not self.compile_enabled:
                return interpret()
            # shape keys are geometry-pure, so memo them by raw operand
            # identity: scratch rotates through a finite pool and the
            # same frame tuples recur indefinitely
            raw = (
                op,
                n_bits,
                executor._current_mode,
                tuple(scratch_frames),
                tuple(tuple(s) for s in source_frame_lists),
            )
            key = self._to_host_keys.get(raw)
            n_chunks = self.geometry.rows_for_bits(n_bits)
            if key is None and raw not in self._to_host_keys:
                key = to_host_shape_key(
                    executor.mapper, op, scratch_frames, source_frame_lists,
                    n_bits, n_chunks, executor._current_mode,
                )
                if len(self._to_host_keys) >= _MAX_BINDINGS:
                    self._to_host_keys.clear()
                self._to_host_keys[raw] = key
            if key is None:  # inter-chip placement
                return interpret()
            return self._compiled(
                key,
                lambda program: program.replay(
                    executor, source_frame_lists, n_bits
                ),
                interpret,
                lambda recorded, out: build_to_host_program(
                    recorded, op, out[1], n_chunks
                ),
            )
        finally:
            self._wave_depth -= 1

    def _serve(
        self,
        serve_items: List[_Item],
        primary_rows: Dict[int, np.ndarray],
        results: list,
    ) -> None:
        """Materialise every serve item in submission order, each priced
        as a fenced row-buffer read per chunk."""
        with telemetry.span(
            "plan.cache.serve", served=len(serve_items)
        ):
            if self.compile_enabled:
                served = self._serve_compiled(serve_items, primary_rows)
            else:
                batch = CommandBatch()
                geometry = self.geometry
                channel_of = self.executor.mapper.channel_of
                write_frame = self.memory.write_frame
                for it in serve_items:
                    rows = (
                        it.rows
                        if it.rows is not None
                        else primary_rows[id(it.primary)]
                    )
                    batch.mark()
                    _serve_commands(
                        batch, geometry, channel_of, it.dest_frames, it.req.n_bits
                    )
                    for c, frame in enumerate(it.dest_frames):
                        write_frame(frame, rows[c])
                _total, per_item = self.executor.controller.execute_batch(
                    batch, split_ops=True
                )
                served = [
                    _serve_result(it.req.op, item_stats, it.req.n_bits)
                    for it, item_stats in zip(serve_items, per_item)
                ]
            stats = self.stats
            for it, result in zip(serve_items, served):
                results[it.index] = result
                stats.served_latency_s += result.accounting.latency
                stats.served_energy_j += result.accounting.energy
            driver_stats = self.driver.stats
            driver_stats.accounting = driver_stats.accounting.merged_all(
                r.accounting for r in served
            )

    def _serve_compiled(
        self, serve_items: List[_Item], primary_rows: Dict[int, np.ndarray]
    ) -> List[OpResult]:
        """Template-driven serve path: every item prices its template's
        memoized frozen batch (a pure function of ``(n_bits, per-chunk
        channels)``, see :class:`~repro.plan.compile.ServeTemplate`) and
        returns the template's shared result, and the destination rows
        land in one :meth:`MainMemory.write_frames` pass."""
        templates = self._serve_templates
        execute_batch = self.executor.controller.execute_batch
        frames_all: List[int] = []
        rows_parts = []
        served = []
        for it in serve_items:
            op, n_bits = it.req.op, it.req.n_bits
            chan = self._channels_bytes(it.dest_frames)
            tmpl = templates.get((n_bits, chan))
            if tmpl is None:
                tmpl = templates[(n_bits, chan)] = build_serve_template(
                    self.geometry, n_bits,
                    self.executor.mapper.channels_of(it.dest_frames),
                )
            _total, (item_stats,) = execute_batch(tmpl.frozen, split_ops=True)
            result = tmpl.results.get(op)
            if result is None:
                result = tmpl.results[op] = _serve_result(op, item_stats, n_bits)
            served.append(result)
            frames_all.extend(it.dest_frames)
            rows = it.rows if it.rows is not None else primary_rows[id(it.primary)]
            rows_parts.append(rows[: it.n_chunks])
        self.memory.write_frames(
            frames_all,
            rows_parts[0] if len(rows_parts) == 1 else np.concatenate(rows_parts),
        )
        return served
