"""Numba backend: the packed sweep as ``@njit(parallel=True)`` kernels.

The numpy sweep is array-at-a-time: it materialises ``(b, n)`` code
matrices, dedups them with a presence table, gathers closure rows and
folds with ``np.bitwise_or.reduceat``.  Compiled, none of those
intermediates need to exist — each ``prange`` lane owns one point and
fuses the whole chain (rank comparison → code → first-seen dedup →
closure fold) into registers and one private presence byte-array.  The
bits cannot differ: both paths fold ``closure[le] & ~closure[eq]`` over
the same set of distinct ``(le, eq)`` pairs computed from the same
dense rank encoding (:func:`repro.core.dominance.rank_columns`), and
OR is order-insensitive.

The filtered sweep keeps the exact skip rule of
:class:`repro.engine.packed.FilteredPackedSweep` but applies it
*per point* instead of per block: a lane skips node ``t`` for its own
point whenever ``closure(potential) ⊆ F`` (one bit probe — ``F`` is
down-closed), where the numpy sweep only skips nodes every block point
agrees on.  Finer skipping, same containment argument, same bits.

This module imports :mod:`numba` at top level *by design* — it is only
ever imported after the registry's availability probe succeeds
(skylint SKY701 confines such imports to ``repro.engine.jit``).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np
from numba import njit, prange

from repro.core.dominance import rank_columns
from repro.engine import packed
from repro.engine.jit.base import KernelBackend
from repro.instrument.counters import Counters

__all__ = ["NumbaBackend", "NumbaSweep", "NumbaFilteredSweep"]

#: Per-lane presence tables (``4**d`` bytes) are used up to this many
#: code bits; beyond it (``d > 11`` → over 4 MiB per lane) the kernels
#: dedup through a sort instead.
_PRESENCE_BITS = 22

#: Rows per sweep block when the caller does not pin one.  The plain
#: kernel launches once over the whole range regardless; the block only
#: sizes the filtered sweep's ``(block, nodes)`` label batches, where
#: compiled lanes amortise the numpy label broadcast over more points
#: than the numpy sweep could.
_NUMBA_BLOCK = 1024


@njit(cache=True, parallel=True)
def _sweep_presence(
    ranks: np.ndarray,
    table: np.ndarray,
    start: int,
    end: int,
    d: int,
    words: int,
) -> np.ndarray:  # pragma: no cover - exercised only where numba installs
    n = ranks.shape[0]
    b = end - start
    out = np.zeros((b, words), dtype=np.uint64)
    for ii in prange(b):
        i = start + ii
        seen = np.zeros(1 << (2 * d), dtype=np.uint8)
        for j in range(n):
            le = 0
            eq = 0
            for k in range(d):
                rj = ranks[j, k]
                ri = ranks[i, k]
                if rj <= ri:
                    le |= 1 << k
                    if rj == ri:
                        eq |= 1 << k
            code = le | (eq << d)
            if seen[code] == 0:
                seen[code] = 1
                if le != 0:
                    for w in range(words):
                        out[ii, w] |= table[le, w] & ~table[eq, w]
    return out


@njit(cache=True, parallel=True)
def _sweep_sorted(
    ranks: np.ndarray,
    table: np.ndarray,
    start: int,
    end: int,
    d: int,
    words: int,
) -> np.ndarray:  # pragma: no cover - exercised only where numba installs
    n = ranks.shape[0]
    b = end - start
    out = np.zeros((b, words), dtype=np.uint64)
    low = (1 << d) - 1
    for ii in prange(b):
        i = start + ii
        codes = np.empty(n, dtype=np.int64)
        for j in range(n):
            le = 0
            eq = 0
            for k in range(d):
                rj = ranks[j, k]
                ri = ranks[i, k]
                if rj <= ri:
                    le |= 1 << k
                    if rj == ri:
                        eq |= 1 << k
            codes[j] = le | (eq << d)
        codes.sort()
        previous = np.int64(-1)
        for j in range(n):
            code = codes[j]
            if code == previous:
                continue
            previous = code
            le = code & low
            eq = code >> d
            if le != 0:
                for w in range(words):
                    out[ii, w] |= table[le, w] & ~table[eq, w]
    return out


@njit(cache=True, parallel=True)
def _sweep_filtered(
    ranks: np.ndarray,
    table: np.ndarray,
    node_start: np.ndarray,
    node_end: np.ndarray,
    strict: np.ndarray,
    prune: np.ndarray,
    start: int,
    d: int,
    words: int,
) -> Tuple[
    np.ndarray, np.ndarray
]:  # pragma: no cover - exercised only where numba installs
    b = strict.shape[0]
    nodes = strict.shape[1]
    full_local = (1 << d) - 1
    out = np.zeros((b, words), dtype=np.uint64)
    skipped = np.zeros(b, dtype=np.int64)
    for ii in prange(b):
        i = start + ii
        # Filter phase: fold the point's distinct node strict masks
        # into the packed, down-closed evidence row F.
        seen_t = np.zeros(1 << d, dtype=np.uint8)
        filtered = np.zeros(words, dtype=np.uint64)
        for t_index in range(nodes):
            t = strict[ii, t_index]
            if seen_t[t] == 0:
                seen_t[t] = 1
                if t != 0:
                    for w in range(words):
                        filtered[w] |= table[t, w]
        # Skip + refine: one bit probe per node, exact codes for the
        # survivors, first-seen dedup shared across surviving nodes.
        seen = np.zeros(1 << (2 * d), dtype=np.uint8)
        for t_index in range(nodes):
            potential = prune[ii, t_index] ^ full_local
            if potential == 0:
                skipped[ii] += node_end[t_index] - node_start[t_index]
                continue
            probe = potential - 1
            bit = (
                filtered[probe >> 6] >> np.uint64(probe & 63)
            ) & np.uint64(1)
            if bit != np.uint64(0):
                skipped[ii] += node_end[t_index] - node_start[t_index]
                continue
            for j in range(node_start[t_index], node_end[t_index]):
                le = 0
                eq = 0
                for k in range(d):
                    rj = ranks[j, k]
                    ri = ranks[i, k]
                    if rj <= ri:
                        le |= 1 << k
                        if rj == ri:
                            eq |= 1 << k
                code = le | (eq << d)
                if seen[code] == 0:
                    seen[code] = 1
                    if le != 0:
                        for w in range(words):
                            out[ii, w] |= table[le, w] & ~table[eq, w]
        for w in range(words):
            out[ii, w] |= filtered[w]
    return out, skipped


def _validated_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError(
            f"expected a non-empty 2-D S+ array, got shape {rows.shape}"
        )
    d = rows.shape[1]
    if not 1 <= d <= packed.PACKED_MAX_D:
        raise ValueError(
            f"the numba kernels index the dense closure table, so they "
            f"support d in [1, {packed.PACKED_MAX_D}], got {d}"
        )
    return rows


class NumbaSweep:
    """Compiled :class:`~repro.engine.packed.PackedSweep` equivalent."""

    def __init__(
        self,
        rows: np.ndarray,
        block: Optional[int] = None,
        table: Optional[np.ndarray] = None,
    ) -> None:
        rows = _validated_rows(rows)
        self.n, self.d = rows.shape
        self.block = _NUMBA_BLOCK if block is None else block
        if self.block < 1:
            raise ValueError(f"block must be positive, got {self.block}")
        self.table = packed.closure_table(self.d) if table is None else table
        # uint32 caps the lane width while preserving every comparison
        # (dense ranks are < n); one dtype also bounds the number of
        # kernel specialisations numba compiles.
        self.ranks = np.ascontiguousarray(rank_columns(rows).astype(np.uint32))

    def masks(self, start: int, end: int) -> np.ndarray:
        if not 0 <= start < end <= self.n:
            raise ValueError(
                f"invalid block [{start}, {end}) over {self.n} rows"
            )
        words = packed.words_for(self.d)
        if 2 * self.d <= _PRESENCE_BITS:
            return _sweep_presence(
                self.ranks, self.table, start, end, self.d, words
            )
        return _sweep_sorted(self.ranks, self.table, start, end, self.d, words)

    def range_masks(self, start: int, end: int) -> np.ndarray:
        # One launch covers the whole range: every point is its own
        # parallel lane, so there is no numpy-style memory cliff to
        # block against.
        return self.masks(start, end)


class NumbaFilteredSweep(NumbaSweep):
    """Compiled filtered sweep with per-point leaf skipping.

    Same self-gating policy as the numpy
    :class:`~repro.engine.packed.FilteredPackedSweep` (node-fraction
    static gate, observed-prune-rate dynamic gate), with per-point skip
    granularity: the pruning tallies count ``(point, leaf)`` pairs
    avoided, so ``pairs_pruned == leaves_skipped`` here.
    """

    def __init__(
        self,
        rows: np.ndarray,
        labels: Any,
        block: Optional[int] = None,
        table: Optional[np.ndarray] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        super().__init__(rows, block=block, table=table)
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
        gate = packed.FilteredPackedSweep.MAX_NODE_FRACTION
        self.filter_active = (
            2 * self.d <= _PRESENCE_BITS
            and labels.node_count <= max(1.0, gate * self.n)
        )
        self._swept = 0
        self._pairs_seen = 0
        self._pairs_pruned = 0

    def masks(self, start: int, end: int) -> np.ndarray:
        if not self.filter_active:
            return super().masks(start, end)
        if not 0 <= start < end <= self.n:
            raise ValueError(
                f"invalid block [{start}, {end}) over {self.n} rows"
            )
        b = end - start
        strict = np.ascontiguousarray(
            self.labels.block_node_strict(start, end)
        )
        prune = np.ascontiguousarray(self.labels.block_node_prune(start, end))
        self.counters.label_bytes += strict.nbytes + prune.nbytes
        words = packed.words_for(self.d)
        out, skipped = _sweep_filtered(
            self.ranks,
            self.table,
            self.labels.node_start,
            self.labels.node_end,
            strict,
            prune,
            start,
            self.d,
            words,
        )
        pruned = int(skipped.sum())
        self.counters.leaves_skipped += pruned
        self.counters.pairs_pruned += pruned
        self._pairs_pruned += pruned
        self._pairs_seen += b * self.n
        self._swept += b
        minimum = packed.FilteredPackedSweep.MIN_PRUNE_RATE
        if (
            self._swept >= 8 * self.block
            and self._pairs_pruned < minimum * self._pairs_seen
        ):
            self.filter_active = False
        return out

    def range_masks(self, start: int, end: int) -> np.ndarray:
        if not 0 <= start < end <= self.n:
            raise ValueError(
                f"invalid range [{start}, {end}) over {self.n} rows"
            )
        out = np.empty(
            (end - start, packed.words_for(self.d)), dtype=np.uint64
        )
        for lo in range(start, end, self.block):
            hi = min(end, lo + self.block)
            out[lo - start : hi - start] = self.masks(lo, hi)
        return out


class NumbaBackend(KernelBackend):
    """``@njit(parallel=True, cache=True)`` CPU kernels (the ``accel`` extra)."""

    name = "numba"

    def preferred_block(self, d: int) -> int:
        return _NUMBA_BLOCK

    def sweep(
        self,
        rows: np.ndarray,
        block: Optional[int] = None,
        table: Optional[np.ndarray] = None,
    ) -> NumbaSweep:
        return NumbaSweep(rows, block=block, table=table)

    def filtered_sweep(
        self,
        rows: np.ndarray,
        labels: Any,
        block: Optional[int] = None,
        table: Optional[np.ndarray] = None,
        counters: Optional[Counters] = None,
    ) -> NumbaFilteredSweep:
        return NumbaFilteredSweep(
            rows, labels, block=block, table=table, counters=counters
        )
