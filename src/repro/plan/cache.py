"""The write-versioned sub-result cache.

Entries are keyed by the planner's canonical expression key, the
tuple ``(op, n_bits, children)`` (see :mod:`repro.plan.planner`): each
child is a leaf ``("L", frame bytes, version bytes)`` or a nested key of
the same form.  An entry holds a packed copy of the result rows.
Because every leaf of a key carries the *version* of its row frame at
planning time, a stale entry can never be returned: any write to an
operand row bumps that frame's version, so later lookups compute a
different key.  Eager invalidation through :meth:`invalidate_frames`
(driven by the memory's write listener and the allocator's free hook)
reclaims the bytes immediately and makes the invalidation observable
(the ``plan.cache.invalidations`` counter).

A host write does not have to drop the entries it reaches: the repair
engine (:mod:`repro.plan.repair`) pops them, re-inserts each under its
key at the new versions and records which chunks went stale in the
entry's ``dirty`` slot.  A dirty entry is repaired -- its stale chunks
recomputed -- when a lookup next serves it.

The store is one LRU dict under one byte budget: an insert that
overflows it evicts least-recently-used entries until it fits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro import telemetry

# always-live instruments (shared across every cache instance; the
# per-instance tallies live on the cache itself)
_HITS = telemetry.counter("plan.cache.hits")
_MISSES = telemetry.counter("plan.cache.misses")
_EVICTIONS = telemetry.counter("plan.cache.evictions")
_INVALIDATIONS = telemetry.counter("plan.cache.invalidations")

#: a canonical expression key: ``(op value, n_bits, child keys)``
CacheKey = Tuple[str, int, tuple]


class CacheEntry:
    """One cached sub-result: packed rows plus its dependency frames.

    ``dirty`` is ``None`` while every row is current; otherwise it is
    the repair engine's record of the stale chunks (opaque here).
    """

    __slots__ = ("key", "rows", "n_bits", "dep_frames", "nbytes", "dirty")

    def __init__(
        self,
        key: CacheKey,
        rows: np.ndarray,
        n_bits: int,
        dep_frames: FrozenSet[int],
        dirty=None,
    ):
        self.key = key
        self.rows = rows
        self.n_bits = n_bits
        self.dep_frames = dep_frames
        self.nbytes = int(rows.nbytes)
        self.dirty = dirty


class SubResultCache:
    """LRU store of materialised sub-expression results."""

    def __init__(self, max_bytes: int = 64 << 20):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self.bytes_used = 0
        #: frame -> keys of entries whose expression reads that frame
        self._frame_index: Dict[int, Set[CacheKey]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup / insert -----------------------------------------------------

    def peek(self, key: CacheKey) -> Optional[CacheEntry]:
        """Presence probe: no hit/miss tally, no LRU touch.

        Planning never probes (every lookup it makes is a tallied
        :meth:`get`); tests use this to inspect the store without
        disturbing its tallies or LRU order.
        """
        return self._entries.get(key)

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """LRU lookup; tallies the hit/miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            _MISSES.add()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        _HITS.add()
        return entry

    def put(
        self,
        key: CacheKey,
        rows: np.ndarray,
        n_bits: int,
        dep_frames: Iterable[int],
        dirty=None,
    ) -> bool:
        """Insert (or refresh) one sub-result; False if it cannot fit."""
        entry = CacheEntry(key, rows, n_bits, frozenset(dep_frames), dirty)
        if entry.nbytes > self.max_bytes:
            return False
        entries = self._entries
        old = entries.pop(key, None)
        if old is not None:
            self.bytes_used -= old.nbytes
            self._unindex(old)
        entries[key] = entry
        self.bytes_used += entry.nbytes
        for frame in entry.dep_frames:
            self._frame_index.setdefault(frame, set()).add(key)
        while self.bytes_used > self.max_bytes:
            _evicted_key, evicted = entries.popitem(last=False)
            self.bytes_used -= evicted.nbytes
            self._unindex(evicted)
            self.evictions += 1
            _EVICTIONS.add()
        return True

    def _unindex(self, entry: CacheEntry) -> None:
        for frame in entry.dep_frames:
            keys = self._frame_index.get(frame)
            if keys is not None:
                keys.discard(entry.key)
                if not keys:
                    del self._frame_index[frame]

    # -- invalidation --------------------------------------------------------

    def pop_frames(self, frames: Iterable[int]) -> List[CacheEntry]:
        """Remove and return every entry reading any of ``frames``.

        One pass: the affected key set is unioned across all written
        frames up front, then each entry is popped and unindexed exactly
        once -- the old per-frame loop rescanned ``_frame_index`` for
        every frame of a bulk write.  Callers decide what the removal
        *means*: :meth:`invalidate_frames` tallies an invalidation,
        the repair engine re-inserts what it can repair, marked dirty.
        """
        index = self._frame_index
        if not index or index.keys().isdisjoint(frames):
            return []
        keys: Set[CacheKey] = set()
        for frame in frames:
            hit = index.get(frame)
            if hit:
                keys |= hit
        popped: List[CacheEntry] = []
        entries = self._entries
        for key in sorted(keys):
            entry = entries.pop(key, None)
            if entry is None:  # pragma: no cover - index is kept exact
                continue
            self.bytes_used -= entry.nbytes
            self._unindex(entry)
            popped.append(entry)
        return popped

    def tally_invalidations(self, n: int) -> None:
        """Count ``n`` dropped entries as invalidations."""
        if n > 0:
            self.invalidations += n
            _INVALIDATIONS.add(n)

    def invalidate_frames(self, frames: Iterable[int]) -> int:
        """Drop every entry reading any of ``frames``; true evicted count."""
        dropped = len(self.pop_frames(frames))
        self.tally_invalidations(dropped)
        return dropped

    # -- stats ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready tallies of this cache instance."""
        return {
            "entries": len(self),
            "bytes_used": self.bytes_used,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def summary(self) -> str:
        """One-line human-readable digest."""
        lookups = self.hits + self.misses
        rate = self.hits / lookups if lookups else 0.0
        return (
            f"SubResultCache: {len(self)} entries / {self.bytes_used}B, "
            f"hit rate {100.0 * rate:.1f}% "
            f"({self.hits}/{lookups}), {self.evictions} evictions, "
            f"{self.invalidations} invalidations"
        )


class ProgramCache:
    """Bounded LRU of compiled programs, keyed by canonical shape.

    The planner's instance holds :class:`~repro.plan.compile.ToHostProgram`
    instances (or the compile module's ``UNCOMPILABLE`` marker); the
    arithmetic subsystem's :class:`~repro.arith.compile.AnalyticsProgram`
    keeps its whole-query analytics programs in a separate instance of
    this same store.  Programs are frame-agnostic and shape keys embed
    no content versions, so -- unlike :class:`SubResultCache` entries --
    they need no write invalidation: a memory write changes *which*
    requests execute, never what a shape's command stream looks like.  (Analytics
    program records *do* pin frames; they validate against the
    planner's write versions, which writes and frees both bump.)
    Eviction only ever costs a recompile on the next recurrence.
    """

    __slots__ = ("max_entries", "_entries", "hits", "misses", "evictions")

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """LRU lookup; ``None`` on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, program) -> None:
        """Insert or replace (marker upgrades reuse the key's slot)."""
        self._entries[key] = program
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def to_dict(self) -> dict:
        """JSON-ready tallies of this cache instance."""
        return {
            "entries": len(self),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
