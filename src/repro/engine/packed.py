"""Packed-bitset point-bitmask engine (the array-at-a-time MDMC sweep).

MDMC's point-at-a-time structure — compare one point against all of
``S+``, deduplicate its ``(le, eq)`` mask pairs, OR their down-closures
— runs its O(n²) pair work at interpreter speed when written per
point.  This module removes the per-point loop entirely by changing the
data representation:

* **Word layout** — every subspace bitset (a ``2**d - 1`` bit integer
  elsewhere in the library) becomes a row of ``ceil((2**d - 1) / 64)``
  ``np.uint64`` words, bit ``δ - 1`` living at word ``(δ-1) // 64``,
  bit ``(δ-1) % 64``.  Rows OR/AND/invert elementwise, so a whole block
  of points folds in a handful of numpy calls.

* **Closure rows** — the down-closure of a mask, the packed analogue
  of :class:`repro.core.closures.SubspaceClosures`, factors over the
  lowest six dimensions (see :func:`closure_rows`).  Up to
  :data:`PACKED_MAX_D` every ``closure(m)`` is gathered from one cached
  ``(2**d, words)`` table (:func:`closure_table`); above it the rows a
  request needs are computed for its distinct masks and not kept.

* **Base-3 codes + blocked dedup** — a block of ``b`` points against
  all ``n`` rows of ``S+`` yields ``b × n`` comparison codes
  ``t = Σ_k 3**k · ([q_k <= p_k] + [q_k = p_k])``
  (:class:`repro.core.dominance.PairCoder`, which rank-encodes the rows
  once so the sweeps compare small uints).  Since ``eq ⊆ le`` only
  ``3**d`` codes exist.  Prefixing the block-row index gives keys
  ``i · 3**d + t`` whose sorted unique set is exactly "the distinct
  pairs of each point"; one dedup per block (an O(1)-per-key
  ``b × 3**d`` presence table while it is small, one sort otherwise)
  replaces ``b`` Python ``set`` constructions.

* **Grouped fold** — each unique pair contributes
  ``closure(le) & ~closure(eq)`` (Definition 1 over the whole lattice,
  :func:`ternary_rows`): one gather per code from a cached
  ``(3**d, words)`` table up to :data:`TERNARY_MAX_D`, two closure rows
  per code above it.  ``np.bitwise_or.reduceat`` at the block-row
  boundaries folds the contributions into one packed ``B_{p∉S}`` row
  per point.  ``le = 0`` pairs need no special-casing: their rows are
  all zeros.

Results are bit-identical to the per-point ``SubspaceClosures`` fold
and the instrumented MDMC reference for every ``d`` up to
:data:`MAX_D`; :class:`repro.core.hashcube.HashCube.from_masks`
consumes the mask rows without ever widening them back into Python
ints per point.
"""

from __future__ import annotations

import collections
import copy
import os
import threading
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.dominance import PairCoder, decode_codes
from repro.instrument.counters import Counters

if TYPE_CHECKING:
    from repro.partitioning.static_tree import LeafLabels

__all__ = [
    "MAX_D",
    "PACKED_MAX_D",
    "WORD_BITS",
    "check_d",
    "words_for",
    "TERNARY_MAX_D",
    "closure_rows",
    "closure_table",
    "ternary_table",
    "ternary_rows",
    "fold_rows",
    "sorted_distinct",
    "relevant_row",
    "unmaterialised_row",
    "row_to_int",
    "rows_to_ints",
    "row_from_int",
    "default_block",
    "PackedSweep",
    "FilteredPackedSweep",
    "block_masks",
    "leaf_ordered",
    "packed_point_masks",
    "filtered_point_masks",
]

#: Bits per packed word.
WORD_BITS = 64

#: Largest dimensionality the engine accepts — the paper's largest
#: ``d``, whose base-3 comparison codes take 26 bits of a uint32.
MAX_D = PairCoder.MAX_D

#: Largest dimensionality with a cached dense closure table:
#: ``(2**14, 256)`` uint64 is 32 MiB.  Above it a table would take
#: 128 MiB (d = 15) or 512 MiB (d = 16), so closure rows are computed
#: per request instead.
PACKED_MAX_D = 14

#: Largest dimensionality with a cached ``(3**d, words)`` fold table
#: (:func:`ternary_table`): 7.6 MB at d = 10, where d = 11 would take
#: 45 MB.
TERNARY_MAX_D = 10

#: Fewest rows per pair-sweep block up to :data:`PACKED_MAX_D`: the
#: rows in flight across all of a sweep's threads.  Peak memory is
#: 6 bytes per in-flight pair (``block × |S+|``) plus the presence
#: tables; 128 (two 64-row sub-blocks on a 2-CPU host) ran the A/C
#: d = 8 builds as fast as 256 at a lower peak RSS.
DEFAULT_BLOCK = 128

#: A default block over a small ``S+`` grows to this many pairs in
#: flight (``block × |S+|``, about 360 rows over the 1.4k-row ``S+``
#: of a correlated n = 2·10^4 build): longer numpy calls per sub-block
#: keep both threads busy.  Large ``S+`` stay at :data:`DEFAULT_BLOCK`.
_BLOCK_PAIRS = 1 << 19

#: A grown block's ``block × 3**d`` presence table stays within this
#: many booleans (4 MiB, the size of the d = 8 table of 64 rows ×
#: ``4**d`` that the base-3 tables replaced).
_GROWN_PRESENCE = 1 << 22

#: Above :data:`PACKED_MAX_D` every distinct pair of a block gathers a
#: computed closure row of ``2**d / 8`` bytes; the default block is
#: this many bytes over one row's size (8 rows at d = 15, 4 at d = 16).
_WIDE_BLOCK_BYTES = 1 << 15

#: Most uint64 words of fold rows one gather materialises (2 MiB).
_GATHER_WORDS = 1 << 18

#: Presence-table dedup is used instead of a sort while
#: the ``block * 3**d`` key space stays under this many booleans —
#: summed over every thread of a sweep (d <= 11 at 64-row sub-blocks).
_PRESENCE_LIMIT = 1 << 26

_TABLE_CACHE: Dict[int, np.ndarray] = {}
_TERNARY_CACHE: Dict[int, np.ndarray] = {}
_TABLE_LOCK = threading.Lock()

_LOW = np.arange(WORD_BITS)

#: Word ``m`` has bit ``l`` set iff ``l ⊆ m``, the empty set included:
#: the down-closure of a six-bit mask within one word.
_LOW_CLOSURES = np.bitwise_or.reduce(
    np.where(
        (_LOW[None, :] & ~_LOW[:, None]) == 0,
        np.uint64(1) << _LOW.astype(np.uint64),
        np.uint64(0),
    ),
    axis=1,
)

_TOP_BIT = np.uint64(1 << (WORD_BITS - 1))


def _cpu_count() -> int:
    """CPUs this process may run on: the most threads a sweep starts."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def check_d(d: int) -> None:
    """Reject a dimensionality the engine cannot sweep, naming the limit."""
    if not 1 <= d <= MAX_D:
        raise ValueError(
            f"d must be in [1, {MAX_D}] (comparison codes take d base-3 "
            f"digits of 32 bits), got d={d}"
        )


def words_for(d: int) -> int:
    """Packed words per subspace bitset: ``ceil((2**d - 1) / 64)``."""
    if d < 1:
        raise ValueError(f"dimensionality must be positive, got {d}")
    return -(-((1 << d) - 1) // WORD_BITS)


def default_block(d: int, n: int) -> int:
    """Rows per sweep block when the caller pins none, over ``n`` rows.

    While closure rows come from the dense table, :data:`DEFAULT_BLOCK`
    rows, or more over a small ``S+`` of ``n`` rows: up to
    :data:`_BLOCK_PAIRS` pairs in flight, while the block's presence
    table stays within :data:`_GROWN_PRESENCE`.  Above
    :data:`PACKED_MAX_D` the rows a block gathers grow with ``2**d``,
    so the block shrinks with them (:data:`_WIDE_BLOCK_BYTES`).
    """
    if d > PACKED_MAX_D:
        return max(1, _WIDE_BLOCK_BYTES // (8 * words_for(d)))
    grown = min(_BLOCK_PAIRS // max(n, 1), _GROWN_PRESENCE // 3**d)
    return max(DEFAULT_BLOCK, grown)


def _factored_rows(masks: np.ndarray, d: int) -> np.ndarray:
    """Packed ``closure(m)`` of every mask in a 1-D int64 array.

    ``δ = (h << 6) | l`` is a submask of ``m`` iff ``h ⊆ m >> 6`` and
    ``l ⊆ m & 63``.  In the layout with bit ``δ`` at word ``δ // 64``
    (the empty set at bit 0), word ``h`` of ``closure(m)`` is therefore
    the low-closure word of ``m & 63`` when ``h ⊆ m >> 6`` and zero
    otherwise; one right shift by a bit moves every ``δ`` to the packed
    ``δ - 1`` position and drops the empty set.  The bit shifted into
    the top of word ``h`` is bit 0 of word ``h + 1`` — the empty low
    set, present iff ``h + 1 ⊆ m >> 6``.
    """
    # The high parts have at most d - 6 <= 10 bits: uint16 keeps the
    # (masks, words) subset test a quarter of the int64 traffic.
    high = np.arange(1 << max(d - 6, 0), dtype=np.uint16)
    inside = (high[None, :] & ~(masks >> 6).astype(np.uint16)[:, None]) == 0
    low = _LOW_CLOSURES[masks & 63] >> np.uint64(1)
    out = np.where(inside, low[:, None], np.uint64(0))
    np.bitwise_or(
        out[:, :-1], _TOP_BIT, out=out[:, :-1], where=inside[:, 1:]
    )
    return out


def closure_table(d: int) -> np.ndarray:
    """The full down-closure table: row ``m`` is ``closure(m)``, packed.

    Row ``m`` of the ``(2**d, words)`` result has bit ``δ - 1`` set for
    every non-empty ``δ ⊆ m`` — elementwise equal to
    :meth:`repro.core.closures.SubspaceClosures.closure` over all
    ``2**d`` masks at once.  Built by :func:`_factored_rows` once per
    ``d`` up to :data:`PACKED_MAX_D` and cached read-only; the lock
    keeps concurrent sweeps from each building a table (32 MiB at
    ``d = 14``) on a cold cache.
    """
    if not 1 <= d <= PACKED_MAX_D:
        raise ValueError(
            f"d must be in [1, {PACKED_MAX_D}] for a packed closure "
            f"table, got {d}"
        )
    with _TABLE_LOCK:
        cached = _TABLE_CACHE.get(d)
        if cached is None:
            cached = _factored_rows(np.arange(1 << d, dtype=np.int64), d)
            cached.setflags(write=False)
            _TABLE_CACHE[d] = cached
    return cached


def closure_rows(masks: np.ndarray, d: int) -> np.ndarray:
    """Packed ``closure(m)`` of every mask, shape ``masks.shape + (words,)``.

    Up to :data:`PACKED_MAX_D` a gather from the cached dense table;
    above it the rows of this call's distinct masks are computed by the
    six-bit factorisation and nothing is kept.
    """
    if d <= PACKED_MAX_D:
        return closure_table(d)[masks]
    unique, inverse = np.unique(masks, return_inverse=True)
    rows = _factored_rows(unique.astype(np.int64), d)
    return rows[np.asarray(inverse).reshape(np.shape(masks))]


def ternary_table(d: int) -> np.ndarray:
    """The fold table: row ``t`` is ``closure(le) & ~closure(eq)`` of
    base-3 code ``t``, packed.

    One ``(3**d, words)`` gather source for every comparison pair the
    sweeps and the maintainer fold (:func:`ternary_rows`).  Built from
    :func:`closure_table` once per ``d`` up to :data:`TERNARY_MAX_D`
    and cached read-only, under the closure table's lock.
    """
    if not 1 <= d <= TERNARY_MAX_D:
        raise ValueError(
            f"d must be in [1, {TERNARY_MAX_D}] for a base-3 fold table, "
            f"got {d}"
        )
    closures = closure_table(d)
    with _TABLE_LOCK:
        cached = _TERNARY_CACHE.get(d)
        if cached is None:
            le, eq = decode_codes(np.arange(3**d, dtype=np.int64), d)
            cached = closures[le]
            cached &= ~closures[eq]
            cached.setflags(write=False)
            _TERNARY_CACHE[d] = cached
    return cached


def ternary_rows(codes: np.ndarray, d: int) -> np.ndarray:
    """``closure(le) & ~closure(eq)`` of every base-3 comparison code.

    The subspaces in which one comparison pair dominates (Definition 1
    over the whole lattice): ``δ ⊆ le`` but not ``δ ⊆ eq``.  One gather
    from :func:`ternary_table` up to :data:`TERNARY_MAX_D`; above it the
    codes are decoded to ``(le, eq)`` and two closure rows combined per
    code.
    """
    if d <= TERNARY_MAX_D:
        return ternary_table(d)[codes]
    le, eq = decode_codes(codes, d)
    rows = closure_rows(le, d)
    if d <= PACKED_MAX_D:
        return rows & ~closure_rows(eq, d)
    # closure(0) is empty: only pairs tied somewhere lose bits, and
    # computed rows cost far more than gathered ones.
    tied = eq != 0
    rows[tied] &= ~closure_rows(eq[tied], d)
    return rows


def fold_rows(
    row_of: np.ndarray, codes: np.ndarray, rows: int, d: int
) -> np.ndarray:
    """Per row ``i < rows``, the OR of :func:`ternary_rows` over the
    codes with ``row_of == i`` (``row_of`` ascending).

    The fold rows are gathered at most :data:`_GATHER_WORDS` words at a
    time, so a slice of codes holds few rows at any ``d``, and
    OR-reduced per row.
    """
    out = np.zeros((rows, words_for(d)), dtype=np.uint64)
    step = max(1, _GATHER_WORDS // out.shape[1])
    for lo in range(0, len(codes), step):
        part = row_of[lo : lo + step]
        starts = np.flatnonzero(np.r_[True, part[1:] != part[:-1]])
        gathered = ternary_rows(codes[lo : lo + step], d)
        out[part[starts]] |= np.bitwise_or.reduceat(gathered, starts, axis=0)
    return out


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, flattened and sorted.

    ``np.unique`` without index outputs hashes before it sorts; one sort
    and a neighbour compare dedups these integer keys 5–15x faster.
    """
    flat = np.sort(keys, axis=None)
    keep = np.ones(len(flat), dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def _popcounts(d: int) -> np.ndarray:
    """``popcount(m)`` for every ``m < 2**d``, by doubling."""
    counts = np.zeros(1 << d, dtype=np.uint8)
    for j in range(d):
        counts[1 << j : 1 << (j + 1)] = counts[: 1 << j] + 1
    return counts


def relevant_row(d: int, max_level: Optional[int]) -> np.ndarray:
    """Packed row with bit ``δ - 1`` set iff ``popcount(δ) <= max_level``.

    The level filter of partial cubes: the sweeps OR its complement
    (:func:`unmaterialised_row`) straight into the mask rows.
    ``max_level`` of ``None`` (or ``>= d``) selects every subspace.
    """
    if not 1 <= d <= 24:
        raise ValueError(f"d must be in [1, 24] for a level row, got {d}")
    num_subspaces = (1 << d) - 1
    words = words_for(d)
    row = np.zeros(words, dtype=np.uint64)
    if max_level is None or max_level >= d:
        bits = np.arange(num_subspaces, dtype=np.int64)
    else:
        if max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {max_level}")
        # Index i of the popcount table below is subspace δ = i + 1, so
        # the selected indices are already bit positions.
        bits = np.flatnonzero(_popcounts(d)[1:] <= max_level)
    np.bitwise_or.at(
        row,
        bits >> 6,
        np.uint64(1) << (bits & 63).astype(np.uint64),
    )
    return row


def unmaterialised_row(d: int, max_level: Optional[int]) -> np.ndarray:
    """Complement of :func:`relevant_row` within the valid bit range.

    ORing it into a mask row marks every above-``max_level`` subspace
    dominated, which is how partial cubes compress the unmaterialised
    levels away (Appendix A.2); all zeros when nothing is restricted.
    """
    full = relevant_row(d, None)
    return full & ~relevant_row(d, max_level)


def row_to_int(row: np.ndarray) -> int:
    """Widen one packed row back into a Python subspace bitset."""
    return int.from_bytes(
        np.ascontiguousarray(row, dtype="<u8").tobytes(), "little"
    )


def rows_to_ints(rows: np.ndarray) -> "list[int]":
    """Widen packed rows into Python ints (diagnostics and tests)."""
    return [row_to_int(row) for row in rows]


def row_from_int(mask: int, d: int) -> np.ndarray:
    """Pack a Python subspace bitset into a ``(words,)`` uint64 row."""
    words = words_for(d)
    if not 0 <= mask < (1 << ((1 << d) - 1)):
        raise ValueError(f"mask {mask:#x} out of range for d={d}")
    raw = mask.to_bytes(words * (WORD_BITS // 8), "little")
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64)


class PackedSweep:
    """The blocked pair sweep over one ``S+`` row set.

    Binds a :class:`~repro.core.dominance.PairCoder` (rank-encoded
    comparisons) and the dedup scratch buffers, so a multi-block sweep
    — whether the whole of ``S+`` or one worker's slice of it — pays
    the setup cost once.  Per block:

    1. ``coder.keys`` — the ``(b, n)`` base-3 comparison codes of the
       block versus every row, block row ``i``'s offset by ``i · 3**d``;
    2. dedup to each block row's distinct codes: a flat scatter into a
       ``(b, 3**d)`` presence table (O(1) per key, reset by writing
       back only the found keys) while that table stays under the
       thread's share of :data:`_PRESENCE_LIMIT`, one sort
       (:func:`sorted_distinct`) otherwise;
    3. gather ``closure(le) & ~closure(eq)`` per distinct code
       (:func:`ternary_rows`: Definition 1 over the whole lattice;
       ``le = 0`` rows are all-zero) and fold groups with one
       ``np.bitwise_or.reduceat``.

    ``rows`` must be the extended skyline ``S+``: each point compares
    against itself, so every block row owns at least one code group.

    **Block.**  ``block`` pins the rows in flight; by default
    :func:`default_block` sizes them to ``S+``.  A range shorter than
    the block puts only its own rows in flight, but never fewer than
    :data:`DEFAULT_BLOCK`, so its threads still share it as they share
    a 128-row block.

    **Threads.**  :meth:`range_masks` splits its blocks over up to
    :attr:`threads` threads (default: the CPUs this process may run on)
    that start and end inside the call.  The rows in flight are split
    evenly between them (at least one row each, so never more threads
    than rows in flight), and each thread gets an equal share of
    :data:`_PRESENCE_LIMIT`, so peak memory does not grow with the CPU
    count.  Each thread sweeps with its own coder buffers and presence
    table over the one shared rank index and closure table, and writes
    its sub-blocks into their own slices of one output, so the rows are
    bit-identical to the serial sweep whatever the scheduling.
    """

    def __init__(self, rows: np.ndarray, block: Optional[int] = None) -> None:
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError(
                f"expected a non-empty 2-D S+ array, got shape {rows.shape}"
            )
        self.n, self.d = rows.shape
        check_d(self.d)
        self.block = default_block(self.d, self.n) if block is None else block
        if self.block < 1:
            raise ValueError(f"block must be positive, got {self.block}")
        self.coder = PairCoder(rows)
        #: Most threads :meth:`range_masks` runs on; 1 keeps it on the
        #: calling thread (process-pool workers set it, so threads and
        #: processes do not multiply).
        self.threads = _cpu_count()
        self._present: Optional[np.ndarray] = None
        self._presence_limit = _PRESENCE_LIMIT

    def _sibling(self, presence_limit: int) -> "PackedSweep":
        """This sweep with scratch of its own, for one worker thread.

        Shares the rank index and the closure table; owns its coder
        buffers (:meth:`PairCoder.keys` reuses one set per coder), its
        presence table and its share of the presence budget.
        """
        twin = copy.copy(self)
        twin.coder = self.coder.sibling()
        twin._present = None
        twin._presence_limit = presence_limit
        return twin

    def _distinct(self, keys: np.ndarray, b: int) -> np.ndarray:
        """Sorted distinct ``i · 3**d + t`` keys of one block."""
        d = self.d
        if b * 3**d <= self._presence_limit:
            if self._present is None or len(self._present) < b:
                self._present = np.zeros((b, 3**d), dtype=bool)
            present = self._present[:b].reshape(-1)
            present[keys.ravel()] = True
            unique = np.flatnonzero(present)
            present[unique] = False
            return unique
        return sorted_distinct(keys)

    def _fold(self, keys: np.ndarray, b: int) -> np.ndarray:
        """Dedup + per-row fold (:func:`fold_rows`) of one block's keys."""
        d = self.d
        # Keys are uint64 once b * 3**d > 2**32, and numpy turns uint64
        # next to int64 into float64: the fold gets intp rows and codes.
        distinct = self._distinct(keys, b).astype(np.intp, copy=False)
        row_of, codes = np.divmod(distinct, 3**d)
        if np.count_nonzero(row_of[1:] != row_of[:-1]) != b - 1:
            raise AssertionError(
                "pair groups do not cover the block; rows must include "
                "the block itself (compute over S+, not a projection)"
            )
        return fold_rows(row_of, codes, b, d)

    def masks(self, start: int, end: int) -> np.ndarray:
        """Packed ``B_{p∉S}`` rows of ``rows[start:end]`` vs all rows."""
        if not 0 <= start < end <= self.n:
            raise ValueError(
                f"invalid block [{start}, {end}) over {self.n} rows"
            )
        return self._fold(self.coder.keys(start, end), end - start)

    def range_masks(self, start: int, end: int) -> np.ndarray:
        """Sub-block-by-sub-block :meth:`masks` over ``[start, end)``.

        The sub-blocks go to up to :attr:`threads` threads, never more
        than the rows in flight or the sub-blocks there are, all joined before
        this returns (see "Threads" above).  With one thread the calling
        thread sweeps every block itself and no thread starts.
        """
        if not 0 <= start < end <= self.n:
            raise ValueError(
                f"invalid range [{start}, {end}) over {self.n} rows"
            )
        out = np.empty((end - start, words_for(self.d)), dtype=np.uint64)
        # A block longer than the range splits the range itself over the
        # threads, but sub-blocks stay as long as DEFAULT_BLOCK's.
        flight = min(self.block, max(DEFAULT_BLOCK, end - start))
        step = max(1, flight // self.threads)
        threads = min(self.threads, flight, -(-(end - start) // step))
        pending = collections.deque(range(start, end, step))
        errors: List[Exception] = []

        def drain(sweep: PackedSweep) -> None:
            while True:
                try:
                    lo = pending.popleft()
                except IndexError:
                    return
                hi = min(end, lo + step)
                out[lo - start : hi - start] = sweep.masks(lo, hi)

        def helper(sweep: PackedSweep) -> None:
            try:
                drain(sweep)
            except Exception as exc:  # re-raised by the calling thread
                pending.clear()
                errors.append(exc)

        if threads == 1:
            sweeps = [self]
        else:
            share = _PRESENCE_LIMIT // threads
            sweeps = [self._sibling(share) for _ in range(threads)]
        helpers = [
            threading.Thread(target=helper, args=(sweep,))
            for sweep in sweeps[1:]
        ]
        for thread in helpers:
            thread.start()
        try:
            drain(sweeps[0])
        finally:
            pending.clear()  # after an error here, stop the helpers early
            for thread in helpers:
                thread.join()
        if errors:
            raise errors[0]
        return out


class FilteredPackedSweep(PackedSweep):
    """The packed pair sweep with the static-tree filter phase fused in.

    The MDMC filter/refine split (Sections 4.3 and 5.2) applied to the
    array-at-a-time sweep.  ``rows`` must be the extended skyline in
    *leaf order* and ``labels`` the matching
    :class:`repro.partitioning.static_tree.LeafLabels`; per block the
    sweep then runs three phases, all of them whole-array ops:

    1. **filter** — batch node strict masks
       (:meth:`~repro.partitioning.static_tree.LeafLabels.block_node_strict`)
       dedup through a presence table and fold into packed rows ``F``:
       bit ``δ - 1`` of ``F[i]`` is set when the labels *alone* prove
       the block point dominated in ``δ`` (the paper's
       filter-sets-bits-without-touching-coordinates property — these
       bits never see a coordinate, only ``closure(t)`` gathers);
    2. **skip** — a node whose batch prune mask says it cannot beat a
       point anywhere outside ``closure(potential) ⊆ F`` is skipped.
       ``F`` is down-closed (a union of down-closures), so the
       containment test is one gathered word and one bit probe per
       ``(point, node)`` pair — O(1), no subspace enumeration.  Nodes
       skippable for *every* block point drop out of the candidate
       set, shrinking the pair work handed to the coder
       (:meth:`~repro.core.dominance.PairCoder.keys` over the
       surviving columns);
    3. **refine** — the ordinary dedup + closure fold over the
       surviving candidate columns, ORed with ``F``.

    Every filter bit is provably a subset of the exact pair
    contribution it stands in for (a node strict mask ``t`` means some
    ``q`` has ``lt ⊇ t`` and ``eq ∩ t = ∅``), and every skipped node's
    contribution is contained in ``closure(potential) ⊆ F`` — so the
    result is bit-identical to :class:`PackedSweep` by construction,
    not by luck.  Filtering self-disables where it cannot pay: when the
    node directory is nearly one-node-per-point (anticorrelated data),
    and dynamically when the observed prune rate stays negligible.

    ``counters`` (optional) accumulates the pruning-effectiveness trio
    ``pairs_pruned`` / ``leaves_skipped`` / ``label_bytes``.
    """

    #: Node filtering only runs while ``nodes <= n * MAX_NODE_FRACTION``
    #: — beyond that the directory carries almost no aggregate evidence
    #: and the (block × nodes) label pass would outweigh its pruning.
    MAX_NODE_FRACTION = 0.25

    #: Dynamic shut-off: after ``8 × block`` points, stop filtering if
    #: fewer than this fraction of pair comparisons has been pruned.
    MIN_PRUNE_RATE = 0.05

    #: Column-subset coding only pays while the surviving candidate set
    #: is meaningfully smaller than all rows: the subset coder sweeps
    #: ``==`` densely (it cannot reuse the CSR equal-run index), which
    #: roughly doubles the per-column cost of the plain ``le``-only
    #: dense sweep — break-even at half the rows.
    MAX_SUBSET_FRACTION = 0.5

    def __init__(
        self,
        rows: np.ndarray,
        labels: "LeafLabels",
        block: Optional[int] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        super().__init__(rows, block=block)
        if len(labels) != self.n:
            raise ValueError(
                f"labels cover {len(labels)} points but rows have {self.n}"
            )
        if labels.k != self.d:
            raise ValueError(
                f"labels are {labels.k}-dimensional but rows have d={self.d}"
            )
        self.labels = labels
        self.counters = counters if counters is not None else Counters()
        self.filter_active = (
            labels.node_count <= max(1.0, self.MAX_NODE_FRACTION * self.n)
        )
        if self.filter_active:
            # The prune-rate gate, the counters and the label presence
            # table are state that depends on block order: sweep on one
            # thread.  Gated off here, the sweep is the plain one and
            # threads like it.
            self.threads = 1
        self._swept = 0
        self._pairs_seen = 0
        self._pairs_pruned = 0
        self._label_present: Optional[np.ndarray] = None

    def filter_rows(self, start: int, end: int) -> np.ndarray:
        """Packed filter-phase rows ``F`` of block ``[start, end)``.

        Label evidence only: bit ``δ - 1`` of row ``i`` is set iff some
        node's aggregate strict mask ``t`` has ``δ ⊆ t``.  Always a
        subset of the final :meth:`masks` bits (the property the test
        suite asserts), independent of :attr:`filter_active`.
        """
        if not 0 <= start < end <= self.n:
            raise ValueError(
                f"invalid block [{start}, {end}) over {self.n} rows"
            )
        b = end - start
        d = self.d
        strict = self.labels.block_node_strict(start, end)
        self.counters.label_bytes += strict.nbytes
        if (b << d) <= _PRESENCE_LIMIT:
            if self._label_present is None or len(self._label_present) < b:
                self._label_present = np.zeros((b, 1 << d), dtype=bool)
            present = self._label_present[:b]
            present[np.arange(b)[:, None], strict] = True
            unique = np.flatnonzero(present)
            present.reshape(-1)[unique] = False
        else:
            keys = (np.arange(b, dtype=np.int64)[:, None] << d) | strict
            unique = np.unique(keys)
        row_of = unique >> d
        contributions = closure_rows(unique & ((1 << d) - 1), d)
        group_starts = np.flatnonzero(np.r_[True, row_of[1:] != row_of[:-1]])
        # Every row owns at least one key (t = 0 folds the all-zero
        # closure row), so the groups always cover the block.
        return np.bitwise_or.reduceat(contributions, group_starts, axis=0)

    def masks(self, start: int, end: int) -> np.ndarray:
        """Filtered packed ``B_{p∉S}`` rows — bit-identical to the base."""
        if not self.filter_active:
            return super().masks(start, end)
        if not 0 <= start < end <= self.n:
            raise ValueError(
                f"invalid block [{start}, {end}) over {self.n} rows"
            )
        b = end - start
        d = self.d
        labels = self.labels
        full_local = (1 << d) - 1

        filtered = self.filter_rows(start, end)
        prune = labels.block_node_prune(start, end)
        self.counters.label_bytes += prune.nbytes

        # A node can only contribute bits inside closure(potential)
        # (its prune dims can never appear in a dominating subspace).
        # F is down-closed, so closure(potential) ⊆ F reduces to one
        # bit probe at position potential - 1 — O(1) per (point, node).
        potential = prune ^ full_local
        index = np.maximum(potential, 1) - 1
        word = (index >> 6).astype(np.intp)
        gathered = np.take_along_axis(filtered, word, axis=1)
        covered = (gathered >> (index & 63).astype(np.uint64)) & np.uint64(1)
        skippable = covered.astype(bool)
        skippable |= potential == 0
        node_skip = skippable.all(axis=0)

        sizes = labels.node_end - labels.node_start
        leaves_skipped = int(sizes[node_skip].sum())
        self._pairs_seen += b * self.n

        if self.n - leaves_skipped > self.MAX_SUBSET_FRACTION * self.n:
            # Too few leaves skipped to beat the plain coder's sparse
            # paths: fall back, and credit *nothing* to the pruning
            # tallies — the skip analysis avoided no work this block,
            # and under-crediting is what lets the dynamic gate turn a
            # filter off when it keeps analysing without ever paying.
            keys = self.coder.keys(start, end)
        else:
            surviving = np.flatnonzero(~node_skip)
            starts = labels.node_start[surviving]
            lengths = sizes[surviving]
            total = int(lengths.sum())
            stops = np.cumsum(lengths)
            cols = (
                np.arange(total)
                - np.repeat(stops - lengths, lengths)
                + np.repeat(starts, lengths)
            )
            keys = self.coder.keys(start, end, cols)
            self.counters.leaves_skipped += leaves_skipped
            self.counters.pairs_pruned += b * leaves_skipped
            self._pairs_pruned += b * leaves_skipped
        out = self._fold(keys, b)
        out |= filtered

        self._swept += b
        if (
            self._swept >= 8 * self.block
            and self._pairs_pruned < self.MIN_PRUNE_RATE * self._pairs_seen
        ):
            self.filter_active = False
        return out


def leaf_ordered(rows: np.ndarray) -> "tuple[np.ndarray, LeafLabels]":
    """``(leaf-ordered rows, labels)`` — the filtered sweeps' layout.

    A filtered sweep runs over the leaf-ordered rows against the label
    directory, so its mask rows scatter back to input order through
    the ``labels.order`` permutation.
    """
    from repro.partitioning.static_tree import LeafLabels

    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError(
            f"expected a non-empty 2-D S+ array, got shape {rows.shape}"
        )
    labels = LeafLabels.build(rows)
    return np.ascontiguousarray(rows[labels.order]), labels


def filtered_point_masks(
    rows: np.ndarray,
    block: Optional[int] = None,
    counters: Optional[Counters] = None,
) -> np.ndarray:
    """Packed ``B_{p∉S}`` of every row of ``rows`` via the label filter.

    The filtered counterpart of :func:`packed_point_masks`: builds the
    leaf-ordered label arrays, sweeps in leaf order (sequential label
    traffic, exactly the Section 4.3 layout) and scatters the mask rows
    back into the input row order.  Bit-identical to
    :func:`packed_point_masks`; ``counters`` receives the pruning-
    effectiveness tallies.
    """
    ordered, labels = leaf_ordered(rows)
    sweep = FilteredPackedSweep(ordered, labels, block=block, counters=counters)
    leaf_masks = sweep.range_masks(0, sweep.n)
    out = np.empty_like(leaf_masks)
    out[labels.order] = leaf_masks
    return out


def block_masks(rows: np.ndarray, start: int, end: int) -> np.ndarray:
    """One-shot :meth:`PackedSweep.masks` (tests and small sweeps).

    Builds a fresh sweep per call; loops over many blocks of the same
    rows should construct one :class:`PackedSweep` instead.
    """
    return PackedSweep(rows, block=max(end - start, 1)).masks(start, end)


def packed_point_masks(
    rows: np.ndarray, block: Optional[int] = None
) -> np.ndarray:
    """Packed ``B_{p∉S}`` of every row of ``rows`` (the ``S+`` subset).

    Returns an ``(n, words)`` uint64 array in row order, ready for
    :meth:`repro.core.hashcube.HashCube.from_masks`.  ``block`` bounds
    peak memory (default :func:`default_block` rows per sweep).
    """
    sweep = PackedSweep(rows, block=block)
    return sweep.range_masks(0, sweep.n)
