"""Dominance tests and per-dimension comparison masks.

Smaller values are better throughout (the paper's WLOG convention).

Two flavours of comparison appear in every algorithm of the paper:

* **Dominance tests (DTs)** load up to ``|δ|`` coordinates of each point
  and evaluate Definition 1 directly.
* **Mask tests (MTs)** compare two points *transitively* through a common
  pivot using only their precomputed partition bitmasks (Equation 1,
  Appendix B.2) — one integer load instead of ``|δ|`` float loads.

This module implements both, plus the vectorized mask construction used
by the fast engine.  Optional :class:`~repro.instrument.counters.Counters`
objects record how many of each operation ran, which is what the hardware
cost model consumes.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitmask import is_valid_subspace
from repro.instrument.counters import Counters

__all__ = [
    "comparison_masks",
    "dominates",
    "strictly_dominates",
    "dominance_masks_vs_all",
    "dominance_pair_codes",
    "decode_codes",
    "dominance_matrix",
    "dominated_mask",
    "mask_test",
    "rank_columns",
    "PairCoder",
    "DominanceTester",
]


def comparison_masks(p: Sequence[float], q: Sequence[float]) -> Tuple[int, int, int]:
    """Per-dimension relation between ``p`` and ``q``.

    Returns ``(le, lt, eq)`` where bit ``i`` of ``le`` is set iff
    ``p[i] <= q[i]`` and analogously for ``lt`` and ``eq``.  These are the
    paper's ``B_{p<=q}``, ``B_{p<q}`` and ``B_{p=q}``.
    """
    le = lt = eq = 0
    for i, (pi, qi) in enumerate(zip(p, q)):
        bit = 1 << i
        if pi < qi:
            lt |= bit
            le |= bit
        elif pi == qi:
            eq |= bit
            le |= bit
    return le, lt, eq


def dominates(
    p: Sequence[float],
    q: Sequence[float],
    delta: int,
    counters: Optional[Counters] = None,
) -> bool:
    """Definition 1: ``p ≺δ q``.

    ``p`` dominates ``q`` in subspace ``delta`` iff ``p`` is no worse on
    every dimension of ``delta`` and strictly better on at least one.
    """
    if counters is not None:
        counters.dominance_tests += 1
        counters.values_loaded += 2 * bin(delta).count("1")
    le, _, eq = comparison_masks(p, q)
    return (le & delta) == delta and (eq & delta) != delta


def strictly_dominates(
    p: Sequence[float],
    q: Sequence[float],
    delta: int,
    counters: Optional[Counters] = None,
) -> bool:
    """Definition 1: ``p ≺≺δ q`` — strictly better on *every* dim of δ."""
    if counters is not None:
        counters.dominance_tests += 1
        counters.values_loaded += 2 * bin(delta).count("1")
    _, lt, _ = comparison_masks(p, q)
    return (lt & delta) == delta


def dominance_masks_vs_all(
    data: np.ndarray, p: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``comparison_masks`` of every row of ``data`` versus ``p``.

    Returns integer arrays ``(le, lt, eq)`` of shape ``(len(data),)`` where
    entry ``j`` encodes the relation of ``data[j]`` (as the left operand)
    to ``p``.  Dimensionality is limited to 63 so masks fit in int64,
    comfortably above the paper's maximum of 16.
    """
    d = data.shape[1]
    if d > 63:
        raise ValueError(f"at most 63 dimensions supported, got {d}")
    weights = (1 << np.arange(d, dtype=np.int64))
    lt = (data < p) @ weights
    eq = (data == p) @ weights
    return lt + eq, lt, eq


def dominance_pair_codes(data: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Base-3 comparison codes of a block versus ``data``.

    The blocked form of :func:`dominance_masks_vs_all`: entry ``[i, j]``
    encodes the relation of ``data[j]`` (as the left operand) to
    ``block[i]`` as ``t = Σ_k 3**k · ([data[j, k] <= block[i, k]] +
    [data[j, k] == block[i, k]])``.  Digit ``k`` is 0 where ``data[j]``
    is worse, 1 where it is better and 2 where they tie, so ``le`` is
    the set of nonzero digits and ``eq`` the set of twos.  Since
    ``eq ⊆ le``, a pair has one of only ``3**d`` codes — a single
    integer key per pair, so downstream consumers (the packed skycube
    engine, the maintainer's delta folds) can deduplicate whole blocks
    of comparisons at once.

    This is the reference form for arbitrary ``block`` arrays; the hot
    path (repeated blocks cut from one dataset) is :class:`PairCoder`,
    which rank-encodes the dataset once and exploits the sparsity of
    equality.  Accumulates one dimension at a time into preallocated
    buffers, so peak memory is three ``len(block) × len(data)`` arrays
    rather than the ``× d`` boolean tensor a broadcast-then-dot would
    materialise.
    """
    d = data.shape[1]
    if block.shape[1] != d:
        raise ValueError(
            f"block has {block.shape[1]} dims but data has {d}"
        )
    if d > 39:
        raise ValueError(f"at most 39 dimensions fit a pair code, got {d}")
    codes = np.zeros((block.shape[0], data.shape[0]), dtype=np.int64)
    scratch = np.empty(codes.shape, dtype=np.int64)
    compared = np.empty(codes.shape, dtype=np.bool_)
    for k in range(d):
        column = data[:, k][None, :]
        reference = block[:, k][:, None]
        weight = np.int64(3**k)
        for relation in (np.less_equal, np.equal):
            relation(column, reference, out=compared)
            np.multiply(compared, weight, out=scratch)
            np.add(codes, scratch, out=codes)
    return codes


#: Dimensions per uint8 digit chunk: ``3**5 = 243`` codes fit a byte.
_CHUNK_DIMS = 5

_CHUNK_DIGITS = (
    np.arange(3**_CHUNK_DIMS)[:, None] // 3 ** np.arange(_CHUNK_DIMS) % 3
)
_CHUNK_BITS = 1 << np.arange(_CHUNK_DIMS, dtype=np.int64)

#: ``le`` and ``eq`` bits of every code of :data:`_CHUNK_DIMS` digits.
_CHUNK_LE = (_CHUNK_DIGITS != 0) @ _CHUNK_BITS
_CHUNK_EQ = (_CHUNK_DIGITS == 2) @ _CHUNK_BITS


def decode_codes(codes: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(le, eq)`` bitmasks (int64) of base-3 comparison codes.

    The inverse of :func:`dominance_pair_codes`: bit ``k`` of ``le`` is
    set where digit ``k`` is nonzero, and of ``eq`` where it is 2.
    Digits are read :data:`_CHUNK_DIMS` at a time from lookup tables.
    """
    rest = np.array(codes, dtype=np.int64)
    le = np.zeros(rest.shape, dtype=np.int64)
    eq = np.zeros(rest.shape, dtype=np.int64)
    for low in range(0, d, _CHUNK_DIMS):
        rest, chunk = np.divmod(rest, 3**_CHUNK_DIMS)
        le |= _CHUNK_LE[chunk] << low
        eq |= _CHUNK_EQ[chunk] << low
    return le, eq


def rank_columns(rows: np.ndarray) -> np.ndarray:
    """Per-column dense ranks of ``rows``, in the smallest uint dtype.

    Each column is replaced by the index of its value in the column's
    sorted unique values, so ``<``, ``==`` and ``>`` between entries of
    the *same* column are preserved exactly (ties get equal ranks).
    Every dominance kernel in this module only ever compares within a
    column, which makes rank rows a drop-in, cache-friendlier stand-in
    for float rows: 2-byte (or 4-byte) lanes instead of 8-byte floats.
    NaNs are not supported (a NaN would be ranked, not incomparable).
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {rows.shape}")
    n, d = rows.shape
    dtype = np.uint16 if n <= 0xFFFF else np.uint32
    ranks = np.empty((n, d), dtype=dtype)
    for k in range(d):
        _, inverse = np.unique(rows[:, k], return_inverse=True)
        ranks[:, k] = np.asarray(inverse).ravel()
    return ranks


#: A column's equality pairs are enumerated from the rank index instead
#: of a dense ``==`` sweep while the expected pairs per block row
#: (``sum(count²) / n``) stay below this bound, counted without the
#: column's most frequent value when that value alone breaks it.
_SPARSE_EQ_LIMIT = 64


class PairCoder:
    """Comparison-code generator bound to one dataset.

    Emits the same base-3 codes as :func:`dominance_pair_codes` for
    blocks *cut from the bound rows* (:meth:`keys` codes row slice
    ``[start, end)`` versus all rows), but an order of magnitude faster:

    * columns are rank-encoded once (:func:`rank_columns`), so the d
      accumulation sweeps compare small uints instead of floats;
    * digits accumulate on bytes: up to five dimensions (``3**5 = 243``)
      at a time in one uint8 chunk, which Horner's rule then folds into
      the uint32 codes;
    * only the ``<=`` relation is swept densely.  Equal pairs are read
      off a per-column rank index (value → positions), which for
      mostly-distinct columns is a few thousand scattered adds instead
      of a second ``len(block) × n`` sweep.  When one value holds most
      of a column's duplicates (a clipped bound, say), the block rows
      holding it add that value's indicator row instead, and the other
      equal pairs stay sparse.  Columns with heavier duplication fall
      back to the dense ``==`` sweep.

    The codes come as the packed sweep's dedup keys ``i · 3**d + t``
    for block row ``i``: the row is the leading digit of the same
    Horner fold, so it costs no extra pass.  The returned array is an
    internal buffer reused by the next call — consume (or copy) it
    before calling again.  Threads that code the same rows concurrently
    each take a :meth:`sibling`.
    """

    #: Widest rows a coder accepts, the paper's largest ``d``: a code
    #: takes ``log2(3**16) < 26`` bits of its uint32.
    MAX_D = 16

    def __init__(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError(
                f"expected a non-empty 2-D array, got shape {rows.shape}"
            )
        n, d = rows.shape
        if d > self.MAX_D:
            raise ValueError(
                f"PairCoder packs base-3 codes into 32 bits "
                f"(d <= {self.MAX_D}), got d={d}"
            )
        self.n = n
        self.d = d
        self.ranks = np.empty(
            (n, d), dtype=np.uint16 if n <= 0xFFFF else np.uint32
        )
        self._order = np.empty((n, d), dtype=np.intp)
        self._starts: List[np.ndarray] = []
        self._sparse_eq = np.empty(d, dtype=bool)
        #: Per column, the rank whose rows take :attr:`_mode_rows`
        #: instead of sparse pairs (-1: none).
        self._mode = np.full(d, -1, dtype=np.int64)
        #: Column -> that rank's indicator row, times its digit weight.
        self._mode_rows: Dict[int, np.ndarray] = {}
        limit = _SPARSE_EQ_LIMIT * n
        for k in range(d):
            _, inverse, counts = np.unique(
                rows[:, k], return_inverse=True, return_counts=True
            )
            inverse = np.asarray(inverse).ravel()
            self.ranks[:, k] = inverse
            self._order[:, k] = np.argsort(inverse, kind="stable")
            self._starts.append(
                np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
            )
            squares = counts.astype(np.int64) ** 2
            spread = int(squares.sum())
            top = int(np.argmax(counts))
            if spread > limit and spread - int(squares[top]) <= limit:
                self._mode[k] = top
                weight = np.uint8(3 ** (k % _CHUNK_DIMS))
                self._mode_rows[k] = (inverse == top).astype(np.uint8) * weight
                spread -= int(squares[top])
            self._sparse_eq[k] = spread <= limit
        self._allocate(0)

    def sibling(self) -> "PairCoder":
        """A coder over the same (read-only) rank index, with buffers of
        its own."""
        twin = copy.copy(self)
        twin._allocate(0)
        return twin

    def _allocate(self, b: int) -> None:
        shape = (b, self.n)
        self._cmp = np.empty(shape, dtype=np.bool_)
        self._chunk = np.empty(shape, dtype=np.uint8)
        # Keys reach b * 3**d - 1; only wide blocks at high d need more
        # than 32 bits (d = 16 from 99 rows).
        wide = b * 3**self.d > 1 << 32
        self._keys = np.empty(shape, dtype=np.uint64 if wide else np.uint32)
        self._rows = b

    def _equal_pairs(self, start: int, end: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(i, j)`` with ``rows[j, k] == rows[start + i, k]``,
        except where that value is the column's :attr:`_mode`."""
        starts = self._starts[k]
        r = self.ranks[start:end, k].astype(np.intp)
        lo, hi = starts[r], starts[r + 1]
        lengths = hi - lo
        lengths[r == self._mode[k]] = 0
        total = int(lengths.sum())
        stops = np.cumsum(lengths)
        flat = (
            np.arange(total)
            - np.repeat(stops - lengths, lengths)
            + np.repeat(lo, lengths)
        )
        i_rep = np.repeat(np.arange(end - start), lengths)
        return i_rep, self._order[flat, k]

    def keys(
        self, start: int, end: int, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Codes of block ``[start, end)`` versus all rows, plus
        ``i · 3**d`` on block row ``i``, so the block's sorted distinct
        keys are each row's distinct codes, in row order.

        Entry ``[i, j]`` relates ``rows[j]`` to ``rows[start + i]``, or
        ``rows[cols[j]]`` when ``cols`` is given: the column-subset form
        for callers that have already pruned the candidate set (the
        packed engine's label filter).  Sweeps over ``cols`` are dense
        over the gathered rank columns — with the candidate set already
        small, the sparse equal-rank path would cost more than it saves.
        """
        if not 0 <= start < end <= self.n:
            raise ValueError(
                f"invalid block [{start}, {end}) over {self.n} rows"
            )
        b = end - start
        d = self.d
        if b > self._rows:
            self._allocate(b)
        if cols is None:
            columns, m = self.ranks, self.n
        else:
            cols = np.asarray(cols, dtype=np.intp)
            columns, m = self.ranks[cols], len(cols)
        block = self.ranks[start:end]
        compared = self._cmp[:b, :m]
        weighted = compared.view(np.uint8)  # the bool buffer, reused
        chunk = self._chunk[:b, :m]
        keys = self._keys[:b, :m]
        # Chunks from the most significant down, each folded into the
        # keys by Horner's rule once its digits are in.
        for low in reversed(range(0, d, _CHUNK_DIMS)):
            high = min(d, low + _CHUNK_DIMS)
            for k in range(low, high):
                column = columns[:, k][None, :]
                reference = block[:, k][:, None]
                weight = np.uint8(3 ** (k - low))
                if k == low:  # weight 1: compare straight into the chunk
                    np.less_equal(column, reference, out=chunk.view(np.bool_))
                else:
                    np.less_equal(column, reference, out=compared)
                    np.multiply(weighted, weight, out=weighted)
                    np.add(chunk, weighted, out=chunk)
                if cols is None and self._sparse_eq[k]:
                    i_rep, js = self._equal_pairs(start, end, k)
                    # (i, j) pairs are distinct within one column, so the
                    # fancy read-modify-write needs no unbuffered ufunc.at.
                    chunk[i_rep, js] += weight
                    if self._mode[k] >= 0:
                        hot = np.flatnonzero(block[:, k] == self._mode[k])
                        chunk[hot] += self._mode_rows[k]
                else:
                    np.equal(column, reference, out=compared)
                    if k != low:
                        np.multiply(weighted, weight, out=weighted)
                    np.add(chunk, weighted, out=chunk)
            scale = keys.dtype.type(3 ** (high - low))
            if high < d:
                np.multiply(keys, scale, out=keys)
                np.add(keys, chunk, out=keys)
            else:
                rows = np.arange(b, dtype=keys.dtype)[:, None] * scale
                np.add(chunk, rows, out=keys)
        return keys


def dominance_matrix(
    block: np.ndarray, window: np.ndarray, strict: bool = False
) -> np.ndarray:
    """Pairwise Definition-1 matrix: ``[i, j]`` iff ``window[j] ≺ block[i]``.

    The unreduced form of :func:`dominated_mask`, for callers that need
    to know *which* row dominates (the sorted-filter kernels restrict
    dominators to earlier rows of the monotone order).  ``strict``
    selects the extended-skyline relation.  Peak memory is
    ``len(block) × len(window)`` booleans per intermediate.

    Accumulates the per-dimension comparisons one column at a time
    (``out &= window[:, k] < block[:, k]``) instead of reducing a
    ``× d`` broadcast tensor: every pass then streams over the long
    ``window`` axis contiguously, which vectorises several times
    better than ``np.all(..., axis=2)`` over a short trailing axis.
    """
    b, d = block.shape
    m = window.shape[0]
    out = np.ones((b, m), dtype=np.bool_)
    scratch = np.empty((b, m), dtype=np.bool_)
    if strict:
        for k in range(d):
            np.less(window[:, k][None, :], block[:, k][:, None], out=scratch)
            out &= scratch
        return out
    eq = np.ones((b, m), dtype=np.bool_)
    for k in range(d):
        column = window[:, k][None, :]
        reference = block[:, k][:, None]
        np.less_equal(column, reference, out=scratch)
        out &= scratch
        np.equal(column, reference, out=scratch)
        eq &= scratch
    np.logical_not(eq, out=eq)
    out &= eq
    return out


def dominated_mask(
    block: np.ndarray, window: np.ndarray, strict: bool = False
) -> np.ndarray:
    """Which rows of ``block`` are dominated by some row of ``window``.

    The vectorized block-vs-window form of Definition 1 that the
    uninstrumented kernels build on: entry ``i`` is True iff any row of
    ``window`` dominates ``block[i]`` (strictly, when ``strict`` — the
    extended-skyline relation drops only strictly dominated points).
    Both inputs are already projected onto the queried subspace; peak
    memory is ``len(block) × len(window)`` booleans.
    """
    return dominance_matrix(block, window, strict).any(axis=1)


def mask_test(pivot_le_p: int, pivot_le_q: int, delta: int) -> bool:
    """Equation 1 (Appendix B.2): can ``p`` possibly dominate ``q`` in δ?

    ``pivot_le_p`` is the partition bitmask of ``p`` (bit i set iff
    ``p[i] >= pivot[i]``) and likewise for ``q``.  A failed mask test
    proves non-dominance through transitivity with the pivot; a passing
    test is inconclusive and a DT is still required.
    """
    return ((pivot_le_q | ~pivot_le_p) & delta) == delta


class DominanceTester:
    """Stateful dominance tester bound to a dataset and a subspace.

    Bundles the dataset, the queried subspace and a counters sink so the
    algorithm code reads naturally (``tester.dominates(i, j)``) while
    every test is still accounted for.  This mirrors how the paper's
    specialisations keep the subspace projection inside the DT/MT rather
    than reshaping the data (Section 5.1).
    """

    def __init__(
        self,
        data: np.ndarray,
        delta: Optional[int] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.d = self.data.shape[1]
        self.delta = (1 << self.d) - 1 if delta is None else delta
        if not is_valid_subspace(self.delta, self.d):
            raise ValueError(f"invalid subspace mask {self.delta} for d={self.d}")
        self.counters = counters if counters is not None else Counters()
        self._delta_bits = bin(self.delta).count("1")

    def masks(self, i: int, j: int) -> Tuple[int, int, int]:
        """``(le, lt, eq)`` masks of point ``i`` versus point ``j``."""
        self.counters.dominance_tests += 1
        self.counters.values_loaded += 2 * self.d
        return comparison_masks(self.data[i], self.data[j])

    def dominates(self, i: int, j: int) -> bool:
        """True iff point ``i`` dominates point ``j`` in the bound δ."""
        self.counters.dominance_tests += 1
        self.counters.values_loaded += 2 * self._delta_bits
        le, _, eq = comparison_masks(self.data[i], self.data[j])
        return (le & self.delta) == self.delta and (eq & self.delta) != self.delta

    def strictly_dominates(self, i: int, j: int) -> bool:
        """True iff point ``i`` strictly dominates point ``j`` in δ."""
        self.counters.dominance_tests += 1
        self.counters.values_loaded += 2 * self._delta_bits
        _, lt, _ = comparison_masks(self.data[i], self.data[j])
        return (lt & self.delta) == self.delta

    def mask_test(self, pivot_le_p: int, pivot_le_q: int) -> bool:
        """Counted Equation-1 mask test in the bound subspace."""
        self.counters.mask_tests += 1
        self.counters.values_loaded += 2
        return mask_test(pivot_le_p, pivot_le_q, self.delta)
