"""Delta sweeps for incremental skycube maintenance (packed form).

A single mutation cannot move most masks: inserting a point ``x`` only
adds dominated-bits to points ``x`` strictly beats somewhere, and
deleting ``x`` only *clears* bits of exactly those points (the ones it
may have contributed to).  Points that dominate ``x`` are unaffected in
both directions.  This module supplies the pieces that turn that
observation into an O(affected) update on the packed uint64
representation of :mod:`repro.engine.packed`:

* :class:`DeltaIndex` — affected-point *detection*.  A
  :class:`~repro.partitioning.static_tree.StaticTree` over the live
  rows stores global median/quartile pivots; labelling the mutation
  point against those pivots and reusing the batch
  ``block_node_strict`` label arithmetic proves, per top-two-level
  node, on which dimensions *every* point of the node is strictly
  better than the mutation point.  A node whose strict mask covers all
  ``d`` dimensions cannot contain a point the mutation beats anywhere,
  so the whole node drops out before any coordinate is touched — the
  same evidence the read-path filter uses (Section 5.2), pointed at
  the write path.  Rows appended after the last rebuild (the *tail*)
  are always candidates; the exact vectorised comparison then prunes
  the survivors to the true affected set.

* fold helpers — the delta analogues of the
  :class:`~repro.engine.packed.PackedSweep` refine phase, on the same
  base-3 comparison codes and fold rows
  (:func:`~repro.engine.packed.ternary_rows`).  :func:`fold_codes`
  folds the distinct codes of "everyone versus the new point" into the
  new point's own packed ``B_{p∉S}`` row; :func:`contribution_rows`
  gathers the closure contribution of the *one* mutation point against
  each affected row (deduplicated, one fold row per distinct code).

* :func:`recompute_rows` — the delete-side re-verify.  A delete can
  only clear bits the removed point owned, so only those *open* bits
  are re-tested: survivors stream closest above the removed point
  first and clear the open bits they still cover, rows retire as soon
  as nothing is open, and the few rows a bounded prefix of survivors
  leaves open finish in one ordinary
  :class:`~repro.engine.packed.PackedSweep`.

Everything here is bit-identical to a full recompute by construction:
the index only ever *excludes* provably-unaffected points, the
re-verify only ever clears bits no survivor covers, and the folds
reuse the exact closure rows the batch engines use.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.dominance import dominance_pair_codes
from repro.engine.packed import (
    PackedSweep,
    fold_rows,
    sorted_distinct,
    ternary_rows,
)
from repro.instrument.counters import Counters
from repro.partitioning.static_tree import StaticTree

__all__ = [
    "DeltaIndex",
    "fold_codes",
    "contribution_rows",
    "recompute_rows",
]


def fold_codes(codes: np.ndarray, d: int) -> np.ndarray:
    """One packed ``B_{p∉S}`` row from flat base-3 comparison codes.

    The single-point fold: ``codes`` holds one comparison code per
    (potential) dominator of the same target point; the distinct codes
    each contribute ``closure(le) & ~closure(eq)`` (Definition 1 over
    the whole lattice) and the contributions OR into one row.  An empty
    code array folds to the all-zero row (no dominators anywhere).
    """
    unique = sorted_distinct(codes)
    return fold_rows(np.zeros(len(unique), np.intp), unique, 1, d)[0]


def contribution_rows(codes: np.ndarray, d: int) -> np.ndarray:
    """Per-row closure contributions of one dominator, deduplicated.

    ``codes[i]`` is the base-3 code of the mutation point (as the left
    operand) against affected row ``i``.  Returns an ``(len(codes),
    words)`` uint64 array whose row ``i`` is ``closure(le) &
    ~closure(eq)`` of that code — the bits the mutation point adds to
    row ``i``'s mask.  Distinct codes get their fold rows exactly once
    (the duplicate-mask skipping of the batch sweep, applied to the
    one-point case).
    """
    unique, inverse = np.unique(codes, return_inverse=True)
    contributions = ternary_rows(unique, d)
    return contributions[np.asarray(inverse).ravel()]


#: Points the delete-side re-verify streams before the rows still open
#: fall back to one packed sweep.
REVERIFY_PREFIX = 512

#: Most ``rows x survivors x words`` fold-row gathers one streamed
#: chunk may materialise (uint64 elements, 2 MiB).
_CHUNK_BUDGET = 1 << 18


def recompute_rows(
    matrix: np.ndarray,
    rows: np.ndarray,
    survivors: np.ndarray,
    removed: np.ndarray,
    open_bits: np.ndarray,
    counters: Optional[Counters] = None,
) -> np.ndarray:
    """The ``open_bits`` of ``matrix[rows]`` that no survivor re-covers.

    The delete-side refine phase.  ``open_bits[i]`` holds the subspaces
    in which the point ``removed`` may have been the only dominator of
    row ``rows[i]``; every other bit of that row's mask is known to
    survive.  A point ``q`` re-covers bit ``δ`` of row ``v`` iff it
    dominates ``v`` in ``δ``, i.e. ``δ`` is in
    ``closure(le(q, v)) & ~closure(eq(q, v))``.

    ``survivors`` must hold every live row that was in the skyline of
    an open subspace before the removal; no other row is needed.  If
    anything dominates ``v`` in ``δ``, so does a live point nothing
    live dominates in ``δ``.  That point was either in ``S_δ`` already
    or dominated in ``δ`` by the removed point alone, and then it is
    one of ``rows`` whose bit ``δ`` stays open to the end.

    ``survivors`` and ``rows`` stream together, closest above the
    removed point first: ascending ``sum(max(q - removed, 0))``, an
    order in which a point precedes every point it dominates, and which
    puts first the points that inherit most of what the removed point
    dominated.  Each chunk is compared against the rows still open only
    and clears the bits it covers; a row retires once nothing of it is
    open.  Rows still open after :data:`REVERIFY_PREFIX` points, or
    after all of them, finish in one ordinary
    :class:`~repro.engine.packed.PackedSweep` against each other and
    the survivors the stream did not reach.

    Returns ``(len(rows), words)`` uint64 rows aligned with ``rows``:
    the bits each row loses.  ``counters``, when given, receives the
    pair comparisons actually made.
    """
    d = matrix.shape[1]
    lost = np.array(open_bits, dtype=np.uint64)
    pending = np.arange(len(rows))
    pool = np.zeros(len(matrix), dtype=bool)
    pool[survivors] = True
    pool[rows] = True
    pool = np.flatnonzero(pool)
    excess = np.maximum(matrix[pool] - removed, 0.0).sum(axis=1)
    if len(pool) > REVERIFY_PREFIX:
        head = np.argpartition(excess, REVERIFY_PREFIX)[:REVERIFY_PREFIX]
        head = head[np.argsort(excess[head], kind="stable")]
    else:
        head = np.argsort(excess, kind="stable")
    head = pool[head]
    tests = 0
    start = 0
    while len(pending) and start < len(head):
        budget = _CHUNK_BUDGET // (len(pending) * lost.shape[1])
        step = max(1, min(start, budget))
        chunk = matrix[head[start:start + step]]
        start += len(chunk)
        codes = dominance_pair_codes(chunk, matrix[rows[pending]])
        tests += codes.size
        cover = np.bitwise_or.reduce(ternary_rows(codes, d), axis=1)
        left = lost[pending] & ~cover
        lost[pending] = left
        pending = pending[left.any(axis=1)]
    if len(pending):
        still = rows[pending]
        reached = np.zeros(len(matrix), dtype=bool)
        reached[head[:start]] = True
        reached[still] = True
        ordered = np.concatenate([still, survivors[~reached[survivors]]])
        sweep = PackedSweep(matrix[ordered])
        lost[pending] &= ~sweep.range_masks(0, len(still))
        tests += len(still) * len(ordered)
    if counters is not None:
        counters.dominance_tests += tests
    return lost


#: Build / rebuild the node prefilter only past this many live rows —
#: below it one vectorised exact pass beats maintaining a tree.
INDEX_MIN_ROWS = 512

#: Rebuild when the unindexed tail outgrows this fraction of the
#: indexed base (stale pivots stop pruning long before this).
TAIL_FRACTION = 0.25


class DeltaIndex:
    """Node-level affected-point prefilter over one set of live rows.

    Wraps a :class:`~repro.partitioning.static_tree.StaticTree` built
    over the maintainer's live rows at construction time.  The tree's
    stored pivots (medians, Q1/Q3) label an *external* mutation point
    exactly like a dataset row, so the batch node strict-mask
    arithmetic applies unchanged: bit ``b`` of a node's strict mask is
    set iff every point of the node is provably ``< point`` on
    dimension ``b`` (below the median while the point is not, or below
    the same-half reference quartile while the point is not).  A node
    with all ``d`` bits set contains no point the mutation point beats
    on any dimension — the whole node is skipped without loading a
    coordinate.

    Rows appended after construction go into :attr:`tail` and are
    always candidates; the owner rebuilds once the tail outgrows
    :data:`TAIL_FRACTION` of the base (see :meth:`stale`).
    """

    def __init__(self, matrix: np.ndarray, live_rows: np.ndarray) -> None:
        base = np.ascontiguousarray(matrix[live_rows])
        self.d = base.shape[1]
        self._tree = StaticTree(base, levels=2)
        # Leaf position -> maintainer row index (tree ids are positions
        # into ``live_rows``, already permuted into leaf order).
        self._row_at = np.asarray(live_rows, dtype=np.intp)[self._tree.ids]
        self._labels = self._tree.labels()
        self._weights = 1 << np.arange(self.d, dtype=np.int64)
        self._full = (1 << self.d) - 1
        self.base_size = len(base)
        self.tail: List[int] = []
        #: Pruning-effectiveness tallies (rows skipped before the exact
        #: pass / rows the index was asked about).
        self.rows_skipped = 0
        self.rows_seen = 0

    def add(self, row: int) -> None:
        """Register a row appended after this index was built."""
        self.tail.append(row)

    def stale(self) -> bool:
        """Whether the unindexed tail warrants a rebuild."""
        return len(self.tail) > max(64, int(TAIL_FRACTION * self.base_size))

    def _point_labels(self, point: np.ndarray) -> Tuple[int, int]:
        """``(med, quart)`` path masks of an external point.

        The same labelling `_path_labels` applies to dataset rows —
        below-median bits, then below-reference-quartile bits with Q1
        as the reference in the better half and Q3 in the worse half —
        evaluated against this tree's stored pivots.
        """
        below_med = point < self._tree.medians
        pm = int(below_med @ self._weights)
        quart_ref = np.where(below_med, self._tree.q1, self._tree.q3)
        below_quart = point < quart_ref
        pq = int(below_quart @ self._weights)
        return pm, pq

    def _gather(self, keep: np.ndarray) -> np.ndarray:
        """Surviving base rows (maintainer indices) plus the whole tail.

        The surviving nodes' ``[start, end)`` leaf ranges are expanded
        into one position array with the cumsum-of-steps trick — a
        per-node python loop of small slices costs more than the whole
        exact pass it feeds.
        """
        labels = self._labels
        starts = np.asarray(labels.node_start)[keep]
        ends = np.asarray(labels.node_end)[keep]
        lengths = ends - starts
        nonempty = lengths > 0
        starts, ends, lengths = (
            starts[nonempty], ends[nonempty], lengths[nonempty]
        )
        total = int(lengths.sum())
        if total:
            steps = np.ones(total, dtype=np.intp)
            steps[0] = starts[0]
            bounds = np.cumsum(lengths[:-1])
            steps[bounds] = starts[1:] - ends[:-1] + 1
            kept = self._row_at[np.cumsum(steps)]
        else:
            kept = np.empty(0, dtype=np.intp)
        self.rows_seen += self.base_size + len(self.tail)
        self.rows_skipped += self.base_size - len(kept)
        if self.tail:
            kept = np.concatenate(
                [kept, np.asarray(self.tail, dtype=np.intp)]
            )
        return kept

    def candidates(self, point: np.ndarray) -> np.ndarray:
        """Maintainer rows possibly strictly beaten by ``point`` somewhere.

        Sound, not exact: the survivors still need the vectorised
        ``(point < row).any`` check (and a liveness filter — deleted
        base rows stay in the leaf arrays until the next rebuild).
        """
        labels = self._labels
        pm, pq = self._point_labels(point)
        # block_node_strict with the external point as the target row:
        # bit b set iff every node point is provably < point on dim b.
        # All d bits set means no node point can be beaten by the point
        # anywhere, so its mask cannot change.
        t1 = labels.node_med & ~pm
        same_half = ~(labels.node_med ^ pm)
        strict = t1 | ((labels.node_quart & ~pq) & same_half)
        return self._gather(np.flatnonzero(strict != self._full))

    def dominator_candidates(self, point: np.ndarray) -> np.ndarray:
        """Maintainer rows possibly ``<= point`` on some dimension.

        The prune-mask mirror of :meth:`candidates`, for the insert
        path's own-mask fold and the delete path's recovered set: bit
        ``b`` of a node's prune mask is set iff every node point is
        provably strictly *worse* than the point on dim ``b``; all
        ``d`` bits set means no node point has any coordinate ``<=``
        the point's, so the node contributes nothing to the point's
        ``B_{p∉S}`` (nor recovers any of its subspaces).
        """
        labels = self._labels
        pm, pq = self._point_labels(point)
        t1 = pm & ~labels.node_med
        same_half = ~(labels.node_med ^ pm)
        prune = t1 | ((pq & ~labels.node_quart) & same_half)
        return self._gather(np.flatnonzero(prune != self._full))

    def stats(self) -> Tuple[int, int]:
        """``(rows_skipped, rows_seen)`` since construction."""
        return self.rows_skipped, self.rows_seen

    def __repr__(self) -> str:
        return (
            f"DeltaIndex(base={self.base_size}, tail={len(self.tail)}, "
            f"nodes={len(self._tree.nodes)})"
        )
