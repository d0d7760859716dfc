"""The sharded, write-versioned sub-result cache.

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

The store is sharded by key hash; each shard is an LRU dict with its
slice of the byte budget, so eviction pressure in one shard never scans
the others.
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
    """Sharded LRU store of materialised sub-expression results."""

    def __init__(self, max_bytes: int = 64 << 20, shards: int = 8):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if shards < 1:
            raise ValueError("shards must be positive")
        self.max_bytes = max_bytes
        self.n_shards = shards
        self._shard_budget = max(1, max_bytes // shards)
        self._shards: List[OrderedDict] = [OrderedDict() for _ in range(shards)]
        self._shard_bytes = [0] * shards
        #: frame -> keys of entries whose expression reads that frame
        self._frame_index: Dict[int, Set[CacheKey]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- capacity ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    @property
    def bytes_used(self) -> int:
        return sum(self._shard_bytes)

    def _shard_of(self, key: CacheKey) -> int:
        return hash(key) % self.n_shards

    # -- lookup / insert -----------------------------------------------------

    def peek(self, key: CacheKey) -> Optional[CacheEntry]:
        """Presence probe: no hit/miss tally, no LRU touch.

        Planning never probes (every lookup it makes is a tallied
        :meth:`get`); tests use this to inspect the store without
        disturbing its tallies or LRU order.
        """
        return self._shards[self._shard_of(key)].get(key)

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """LRU lookup; tallies the hit/miss."""
        i = self._shard_of(key)
        shard = self._shards[i]
        entry = shard.get(key)
        if entry is None:
            self.misses += 1
            _MISSES.add()
            return None
        shard.move_to_end(key)
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
        i = self._shard_of(key)
        if entry.nbytes > self._shard_budget:
            return False
        old = self._shards[i].pop(key, None)
        if old is not None:
            self._shard_bytes[i] -= old.nbytes
            self._unindex(old)
        self._shards[i][key] = entry
        self._shard_bytes[i] += entry.nbytes
        for frame in entry.dep_frames:
            self._frame_index.setdefault(frame, set()).add(key)
        while self._shard_bytes[i] > self._shard_budget:
            _evicted_key, evicted = self._shards[i].popitem(last=False)
            self._shard_bytes[i] -= evicted.nbytes
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

    def invalidate_frame(self, frame: int) -> int:
        """Drop every entry whose expression reads ``frame``.

        Version-carrying keys already make stale entries unreachable;
        this reclaims their bytes the moment the write happens and
        counts the invalidation.  Returns the number of entries dropped.
        """
        keys = self._frame_index.pop(frame, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            i = self._shard_of(key)
            entry = self._shards[i].pop(key, None)
            if entry is None:
                continue
            self._shard_bytes[i] -= entry.nbytes
            for other in entry.dep_frames:
                if other != frame:
                    other_keys = self._frame_index.get(other)
                    if other_keys is not None:
                        other_keys.discard(key)
                        if not other_keys:
                            del self._frame_index[other]
            dropped += 1
        if dropped:
            self.invalidations += dropped
            _INVALIDATIONS.add(dropped)
        return dropped

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
        for key in sorted(keys):
            i = self._shard_of(key)
            entry = self._shards[i].pop(key, None)
            if entry is None:  # pragma: no cover - index is kept exact
                continue
            self._shard_bytes[i] -= entry.nbytes
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

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()
        self._shard_bytes = [0] * self.n_shards
        self._frame_index.clear()

    # -- stats ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready tallies of this cache instance."""
        return {
            "entries": len(self),
            "bytes_used": self.bytes_used,
            "max_bytes": self.max_bytes,
            "shards": self.n_shards,
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

    def clear(self) -> None:
        self._entries.clear()

    def to_dict(self) -> dict:
        """JSON-ready tallies of this cache instance."""
        return {
            "entries": len(self),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
