"""Bit-serial arithmetic kernels on the bulk-bitwise substrate.

Everything here is lowered to the four in-memory primitives the paper
provides -- OR / AND / XOR / INV -- issued through the
:class:`~repro.runtime.api.PimRuntime` so every gate is priced by the
real controller (no side-channel arithmetic on the hot path).  Numbers
live in the *transposed* bit-slice layout (see
:mod:`repro.arith.bitslice`): plane ``j`` is one resident bit-vector
holding bit ``j`` of every element, so one in-memory op over a plane
advances a full column of ``n`` ripple-carry adders or borrow chains
at once -- the classic bit-serial SIMD trade (latency linear in the
bit width ``k``, throughput linear in ``n``).

Gate-level recipes (all verified against the numpy oracles in
:mod:`repro.arith.oracle`):

- **add** ``a + b``: half-add planes ``t_j = a_j XOR b_j``,
  ``g_j = a_j AND b_j`` first (one batch, carry-free), then the ripple
  ``s_j = t_j XOR c_j``; ``c_{j+1} = g_j OR (t_j AND c_j)``.
- **sub** ``a - b (mod 2^k)``: ``a + INV(b) + 1`` -- the carry-in is
  the resident all-ones constant.
- **compare-const** ``a < K``: borrow chain from the LSB;
  ``K_j = 1`` -> ``borrow' = INV(a_j) OR borrow``,
  ``K_j = 0`` -> ``borrow' = INV(a_j) AND borrow``; leading
  ``K_j = 0`` planes keep the borrow at constant zero, so the chain
  really starts at the lowest set bit of ``K``.
- **compare tensor** ``a < b``:
  ``borrow' = (INV(a_j) AND b_j) OR (borrow AND INV(a_j XOR b_j))``.
- **aggregations**: masked COUNT / SUM / histogram reduce through
  to-host ops (:meth:`~repro.runtime.api.PimRuntime.pim_to_host_many`,
  one stream per aggregate) that send each result over the I/O bus and
  count it host-side.

Dependent gates are still submitted as one
:meth:`~repro.runtime.api.PimRuntime.pim_op_many` stream -- the driver
guarantees results identical to sequential issue, and the planner's
hazard tracking splits waves where a scratch destination is re-read.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

CMP_OPS = ("lt", "le", "gt", "ge", "eq")


class ScratchPool:
    """Recycling allocator of same-sized scratch planes plus the two
    resident constants (all-zeros / all-ones) the kernels need.

    ``take`` hands out a scratch vector (allocating on first use),
    ``recycle`` returns every outstanding one to the pool -- call it
    once per query, after the results have been reduced or copied out.
    Constants are allocated lazily and never recycled.

    The pool keeps honest books: :attr:`in_use` counts outstanding
    scratch planes, :attr:`high_water` the lifetime peak, and
    :meth:`assert_drained` verifies after a query that every plane came
    back (conservation check included), so a kernel that forgets to
    recycle -- or recycles into the wrong pool -- fails loudly instead
    of silently growing the pool.  :meth:`preallocate` warms the free
    list to a known program's footprint so a fallback run never
    allocates mid-query.

    Plane hand-out is **canonical**: every plane carries its allocation
    index and ``take`` always returns the lowest-indexed free plane, so
    a query takes the *same* physical planes on every run regardless of
    pool history or later growth.  Placement-dependent op pricing
    (same-subarray vs inter-subarray locality) is therefore a pure
    function of the query shape -- the invariant the analytics
    compiler's recorded pricing and the benchmark's cross-arm simulated
    parity both rest on.
    """

    def __init__(self, runtime, n_bits: int, group: str = "arith"):
        self.runtime = runtime
        self.n_bits = int(n_bits)
        self.group = group
        self._free: List = []
        self._taken: List = []
        self._reserved: List = []
        self._constants: List = []
        self._index: dict = {}  # id(handle) -> allocation index
        self._allocated = 0  # scratch planes ever created (constants aside)
        self._high_water = 0  # peak simultaneous in_use
        #: analytics records replayed on this pool since its last
        #: interpreted query, least recently replayed first (a dict used
        #: as an ordered set); the analytics compiler lands the scratch
        #: rows they skipped writing before the pool's next query
        self.replayed: dict = {}

    def _new_plane(self):
        handle = self.runtime.pim_malloc(self.n_bits, self.group)
        self._index[id(handle)] = self._allocated
        self._allocated += 1
        return handle

    def take(self):
        if self._free:
            handle = self._free.pop()
        else:
            handle = self._new_plane()
        self._taken.append(handle)
        if len(self._taken) > self._high_water:
            self._high_water = len(self._taken)
        return handle

    def reserve(self, handle) -> None:
        """Keep ``handle`` alive across the next :meth:`recycle`."""
        self._taken.remove(handle)
        self._reserved.append(handle)

    def recycle(self) -> None:
        self._free.extend(self._taken)
        self._taken.clear()
        # canonical order: pop() must return the lowest allocation index
        self._free.sort(key=lambda h: -self._index[id(h)])

    @property
    def in_use(self) -> int:
        """Scratch planes handed out and not yet recycled."""
        return len(self._taken)

    @property
    def allocated(self) -> int:
        """Scratch planes ever created by this pool (constants aside)."""
        return self._allocated

    @property
    def high_water(self) -> int:
        """Lifetime peak of :attr:`in_use`."""
        return self._high_water

    def preallocate(self, n_planes: int) -> None:
        """Grow the pool to at least ``n_planes`` scratch planes.

        Called by the analytics compiler with a program's recorded
        scratch footprint, so replaying a shape's interpreted fallback
        never pays ``pim_malloc`` inside the measured query.
        """
        grown = False
        while self._allocated < n_planes:
            self._free.append(self._new_plane())
            grown = True
        if grown:
            self._free.sort(key=lambda h: -self._index[id(h)])

    def stats(self) -> dict:
        """JSON-ready accounting snapshot."""
        return {
            "allocated": self._allocated,
            "in_use": self.in_use,
            "free": len(self._free),
            "reserved": len(self._reserved),
            "high_water": self._high_water,
        }

    def assert_drained(self) -> None:
        """Post-query leak check: nothing outstanding, books balanced."""
        if self._taken:
            raise AssertionError(
                f"scratch pool leak: {len(self._taken)} plane(s) still "
                f"taken after recycle ({self.stats()})"
            )
        if len(self._free) + len(self._reserved) != self._allocated:
            raise AssertionError(
                f"scratch pool books out of balance: "
                f"{len(self._free)} free + {len(self._reserved)} reserved "
                f"!= {self._allocated} allocated ({self.stats()})"
            )

    def free_all(self) -> None:
        """Release every pool-owned vector, constants included."""
        for handle in (
            self._free + self._taken + self._reserved + self._constants
        ):
            self.runtime.pim_free(handle)
        self._free.clear()
        self._taken.clear()
        self._reserved.clear()
        self._constants.clear()
        self._index.clear()
        self._allocated = 0
        self.replayed.clear()

    @property
    def constants(self) -> List:
        """The resident constants allocated so far (zero, ones)."""
        return list(self._constants)

    @property
    def zero(self):
        """Resident all-zeros plane (lazy; written once over the bus)."""
        self._ensure_constants()
        return self._constants[0]

    @property
    def ones(self):
        """Resident all-ones plane (lazy; written once over the bus)."""
        self._ensure_constants()
        return self._constants[1]

    def _ensure_constants(self) -> None:
        if self._constants:
            return
        zero = self.runtime.pim_malloc(self.n_bits, self.group)
        ones = self.runtime.pim_malloc(self.n_bits, self.group)
        self.runtime.pim_write(zero, np.zeros(self.n_bits, dtype=np.uint8))
        self.runtime.pim_write(ones, np.ones(self.n_bits, dtype=np.uint8))
        self._constants.extend([zero, ones])


def copy_plane(pool: ScratchPool, source, requests: Optional[list] = None):
    """Scratch copy of a plane: ``OR`` with the zero constant (the
    repo's canonical in-memory copy idiom)."""
    dest = pool.take()
    if requests is None:
        pool.runtime.pim_op("or", dest, [source, pool.zero])
    else:
        requests.append(("or", dest, [source, pool.zero]))
    return dest


def ripple_add(
    pool: ScratchPool,
    a_planes: Sequence,
    b_planes: Sequence,
    carry_in=None,
    requests: Optional[list] = None,
) -> List:
    """``a + b`` over bit-slice planes; returns ``k + 1`` result planes.

    ``carry_in`` (a resident plane, e.g. ``pool.ones`` for two's
    complement subtraction) seeds the LSB carry; without it the LSB is
    a half add.  All ``3k - 1`` (or ``3k + 1``) gates go out as one
    batched command stream; with a caller-owned ``requests`` list they
    are appended instead, so a larger kernel (a whole analytics query,
    a fused sub+add chain) lands as a single planner wave.
    """
    if len(a_planes) != len(b_planes):
        raise ValueError(
            f"width mismatch: {len(a_planes)} vs {len(b_planes)} planes"
        )
    k = len(a_planes)
    if k == 0:
        raise ValueError("need at least one plane")
    issue = requests is None
    if issue:
        requests = []
    t_planes, g_planes = [], []
    for a_j, b_j in zip(a_planes, b_planes):
        t_j, g_j = pool.take(), pool.take()
        requests.append(("xor", t_j, [a_j, b_j]))
        requests.append(("and", g_j, [a_j, b_j]))
        t_planes.append(t_j)
        g_planes.append(g_j)
    if carry_in is None:
        out = [t_planes[0]]
        carry = g_planes[0]
        start = 1
    else:
        out = []
        carry = carry_in
        start = 0
    for j in range(start, k):
        u_j, s_j, c_next = pool.take(), pool.take(), pool.take()
        requests.append(("and", u_j, [t_planes[j], carry]))
        requests.append(("xor", s_j, [t_planes[j], carry]))
        requests.append(("or", c_next, [g_planes[j], u_j]))
        out.append(s_j)
        carry = c_next
    out.append(carry)
    if issue:
        pool.runtime.pim_op_many(requests)
    return out


def ripple_sub(
    pool: ScratchPool,
    a_planes: Sequence,
    b_planes: Sequence,
    requests: Optional[list] = None,
) -> List:
    """``a - b (mod 2^k)`` over bit-slice planes; returns ``k`` planes.

    Two's complement: invert every ``b`` plane, add with the all-ones
    carry-in, drop the final carry-out.  The inversions and the whole
    ripple ride one command stream (one planner wave).
    """
    issue = requests is None
    if issue:
        requests = []
    inverted = []
    for b_j in b_planes:
        nb_j = pool.take()
        requests.append(("inv", nb_j, [b_j]))
        inverted.append(nb_j)
    out = ripple_add(
        pool, a_planes, inverted, carry_in=pool.ones, requests=requests
    )[: len(a_planes)]
    if issue:
        pool.runtime.pim_op_many(requests)
    return out


def _lt_const(
    pool: ScratchPool, planes: Sequence, value: int, requests: list
):
    """Mask of ``a < value`` for an unsigned constant ``value``."""
    k = len(planes)
    if value <= 0:
        return copy_plane(pool, pool.zero, requests)
    if value >= (1 << k):
        return copy_plane(pool, pool.ones, requests)
    borrow = None
    for j, a_j in enumerate(planes):
        bit = (value >> j) & 1
        if borrow is None:
            if bit:
                borrow = pool.take()
                requests.append(("inv", borrow, [a_j]))
            # leading K_j = 0 planes: the borrow stays constant zero
            continue
        inv_a = pool.take()
        requests.append(("inv", inv_a, [a_j]))
        nxt = pool.take()
        requests.append(("or" if bit else "and", nxt, [inv_a, borrow]))
        borrow = nxt
    return borrow


def _eq_const(
    pool: ScratchPool, planes: Sequence, value: int, requests: list
):
    """Mask of ``a == value`` for an unsigned constant ``value``."""
    k = len(planes)
    if not 0 <= value < (1 << k):
        return copy_plane(pool, pool.zero, requests)
    factors = []
    for j, a_j in enumerate(planes):
        if (value >> j) & 1:
            factors.append(a_j)
        else:
            inv_a = pool.take()
            requests.append(("inv", inv_a, [a_j]))
            factors.append(inv_a)
    acc = factors[0]
    if len(factors) == 1:
        dest = pool.take()
        requests.append(("or", dest, [acc, pool.zero]))
        acc = dest
    for factor in factors[1:]:
        nxt = pool.take()
        requests.append(("and", nxt, [acc, factor]))
        acc = nxt
    return acc


def _invert(pool: ScratchPool, mask, requests: Optional[list] = None):
    dest = pool.take()
    if requests is None:
        pool.runtime.pim_op("inv", dest, [mask])
    else:
        requests.append(("inv", dest, [mask]))
    return dest


def compare_const(
    pool: ScratchPool,
    planes: Sequence,
    op: str,
    value: int,
    requests: Optional[list] = None,
):
    """Predicate mask of ``a <op> value`` over bit-slice planes.

    ``op`` is one of ``lt | le | gt | ge | eq``; ``value`` is an
    unsigned constant (any Python int -- out-of-range constants
    degenerate to the all-true / all-false mask).  Returns one scratch
    plane holding the boolean mask.

    The whole gate chain -- including the trailing inversion of ``ge``
    / ``gt`` -- is emitted as **one** command stream.  Passing a
    caller-owned ``requests`` list defers issue entirely, so several
    predicates plus their mask conjunction can land as a single planner
    wave (duplicate sub-chains then CSE-fold inside the wave).
    """
    k = len(planes)
    if k == 0:
        raise ValueError("need at least one plane")
    if op not in CMP_OPS:
        raise ValueError(f"unknown comparison {op!r}; supported: {CMP_OPS}")
    issue = requests is None
    if issue:
        requests = []
    if op == "lt":
        mask = _lt_const(pool, planes, value, requests)
    elif op == "ge":
        mask = _invert(pool, _lt_const(pool, planes, value, requests), requests)
    elif op == "le":
        mask = _lt_const(pool, planes, value + 1, requests)
    elif op == "gt":
        mask = _invert(
            pool, _lt_const(pool, planes, value + 1, requests), requests
        )
    else:  # eq
        mask = _eq_const(pool, planes, value, requests)
    if issue:
        pool.runtime.pim_op_many(requests)
    return mask


def _lt_tensor(
    pool: ScratchPool, a_planes: Sequence, b_planes: Sequence, requests: list
):
    """Mask of ``a < b`` element-wise over two bit-slice tensors."""
    borrow = None
    for a_j, b_j in zip(a_planes, b_planes):
        inv_a = pool.take()
        requests.append(("inv", inv_a, [a_j]))
        win = pool.take()  # b_j strictly above a_j at this plane
        requests.append(("and", win, [inv_a, b_j]))
        if borrow is None:
            borrow = win
            continue
        diff = pool.take()
        requests.append(("xor", diff, [a_j, b_j]))
        same = pool.take()
        requests.append(("inv", same, [diff]))
        keep = pool.take()
        requests.append(("and", keep, [borrow, same]))
        nxt = pool.take()
        requests.append(("or", nxt, [win, keep]))
        borrow = nxt
    return borrow


def _eq_tensor(
    pool: ScratchPool, a_planes: Sequence, b_planes: Sequence, requests: list
):
    """Mask of ``a == b``: NOR-reduce the per-plane XORs."""
    diffs = []
    for a_j, b_j in zip(a_planes, b_planes):
        d_j = pool.take()
        requests.append(("xor", d_j, [a_j, b_j]))
        diffs.append(d_j)
    acc = diffs[0]
    for d_j in diffs[1:]:
        nxt = pool.take()
        requests.append(("or", nxt, [acc, d_j]))
        acc = nxt
    eq = pool.take()
    requests.append(("inv", eq, [acc]))
    return eq


def compare(
    pool: ScratchPool,
    a_planes: Sequence,
    op: str,
    b_planes: Sequence,
    requests: Optional[list] = None,
):
    """Predicate mask of ``a <op> b`` element-wise (both bit-sliced).

    Like :func:`compare_const`, the whole chain is one command stream;
    a caller-owned ``requests`` list defers issue for wave fusion.
    """
    if len(a_planes) != len(b_planes):
        raise ValueError(
            f"width mismatch: {len(a_planes)} vs {len(b_planes)} planes"
        )
    if len(a_planes) == 0:
        raise ValueError("need at least one plane")
    if op not in CMP_OPS:
        raise ValueError(f"unknown comparison {op!r}; supported: {CMP_OPS}")
    issue = requests is None
    if issue:
        requests = []
    if op == "lt":
        mask = _lt_tensor(pool, a_planes, b_planes, requests)
    elif op == "gt":
        mask = _lt_tensor(pool, b_planes, a_planes, requests)
    elif op == "ge":
        mask = _invert(
            pool, _lt_tensor(pool, a_planes, b_planes, requests), requests
        )
    elif op == "le":
        mask = _invert(
            pool, _lt_tensor(pool, b_planes, a_planes, requests), requests
        )
    else:  # eq
        mask = _eq_tensor(pool, a_planes, b_planes, requests)
    if issue:
        pool.runtime.pim_op_many(requests)
    return mask


def combine_masks(
    pool: ScratchPool, masks: Sequence, requests: Optional[list] = None
):
    """AND-reduce predicate masks into one (conjunctive filter)."""
    if len(masks) == 0:
        raise ValueError("need at least one mask")
    if len(masks) == 1:
        return masks[0]
    issue = requests is None
    if issue:
        requests = []
    acc = masks[0]
    for mask in masks[1:]:
        nxt = pool.take()
        requests.append(("and", nxt, [acc, mask]))
        acc = nxt
    if issue:
        pool.runtime.pim_op_many(requests)
    return acc


def mask_read(pool: ScratchPool, mask) -> tuple:
    """The to-host request that reads a mask out (``OR`` with the zero
    constant into a fresh scratch plane)."""
    return ("or", pool.take(), [mask, pool.zero])


def masked_reads(
    pool: ScratchPool, planes: Sequence, mask: Optional[object] = None
) -> List[tuple]:
    """One to-host request per plane, sharing one scratch plane:
    ``plane AND mask``, or ``plane OR zero`` without a mask."""
    scratch = pool.take()
    if mask is None:
        return [("or", scratch, [plane, pool.zero]) for plane in planes]
    return [("and", scratch, [plane, mask]) for plane in planes]


def mask_count(pool: ScratchPool, mask) -> int:
    """COUNT of a predicate mask via the popcount to-host reduction."""
    return pool.runtime.pim_popcount(*mask_read(pool, mask))


def mask_bits(pool: ScratchPool, mask) -> np.ndarray:
    """Materialise a mask's bits host-side (same bus cost as a count)."""
    return pool.runtime.pim_op_to_host(*mask_read(pool, mask))


def plane_sum(counts: Sequence[int]) -> int:
    """A bit-sliced SUM from its per-plane popcounts (LSB first)."""
    return sum(int(count) << j for j, count in enumerate(counts))


def masked_sum(pool: ScratchPool, planes: Sequence, mask) -> int:
    """SUM of bit-sliced values under a mask: one to-host stream of
    per-plane popcounts, each shifted by its plane's significance."""
    reads = pool.runtime.pim_to_host_many(masked_reads(pool, planes, mask))
    return plane_sum(bits.sum() for bits in reads)


def masked_histogram(
    pool: ScratchPool, bin_planes: Sequence, mask: Optional[object] = None
) -> List[int]:
    """Per-bin counts of an equality-encoded bitmap index under a mask,
    as one to-host stream."""
    reads = pool.runtime.pim_to_host_many(masked_reads(pool, bin_planes, mask))
    return [int(bits.sum()) for bits in reads]
