"""Online skycube maintenance under point insertions and deletions.

The compressed-skycube line of work (Xia & Zhang, Section 3) exists
because applications need the materialised skycube to track a changing
dataset.  The HashCube's per-point definition makes *insertion* cheap:
a new point only (a) needs its own ``B_{p∉S}`` computed — one pass over
the current points — and (b) can only *add* dominated-bits to existing
points' masks, each derivable from one comparison-mask pair via the
shared closure cache.

Deletion is the hard direction: a point dominated only by the removed
point silently regains membership, and masks carry no provenance.  The
delete therefore re-tests only the bits the removed point could have
owned — subspaces on which no survivor is at least as good as it —
and only for the points it beat there, streaming first the survivors
closest above it (the filter/refine split of MDMC, applied to one
removal).

The maintainer stores state in the packed uint64 representation of
:mod:`repro.engine.packed` — a capacity-doubling coordinate matrix, one
``(n, words)`` mask-row array, and a liveness bitmap — for every ``d``
the engine accepts, and mutations become *delta sweeps*
(:mod:`repro.engine.delta`): a static-tree prefilter bounds the
affected set without touching coordinates, a single vectorised
comparison prunes it exactly, and only the affected rows' closure
contributions are folded (insert) or re-verified (delete).
:meth:`insert_with_delta` and :meth:`delete_with_delta` additionally
report the exact mask movement (:class:`MaskDelta`) so downstream
consumers — copy-on-write ``HashCube.with_updates`` publishes,
per-version changelogs — can update in O(affected) instead of O(n).

:class:`SkycubeMaintainer` keeps the masks exact at every step;
`skycube()` materialises the current state as a HashCube-backed
:class:`~repro.core.skycube.Skycube`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitmask import full_space
from repro.core.hashcube import HashCube
from repro.core.skycube import Skycube
from repro.instrument.counters import Counters

if TYPE_CHECKING:
    from repro.engine.delta import DeltaIndex

__all__ = ["SkycubeMaintainer", "MaskDelta"]

#: Initial row capacity of the packed storage arrays.
_MIN_CAPACITY = 16


@dataclass(frozen=True)
class MaskDelta:
    """The exact ``B_{p∉S}`` movement of one mutation.

    ``changed`` maps point id → its *new* mask for every point whose
    mask differs after the mutation (the inserted point included);
    ``removed`` lists ids that left the dataset; ``previous`` maps
    every changed existing id and every removed id to its mask *before*
    the mutation.  Together these are sufficient to replay the mutation
    onto any downstream copy of the masks — a copy-on-write
    :meth:`repro.core.hashcube.HashCube.with_updates` publish, or a
    per-version ``(entered, left)`` changelog — without a rescan.
    """

    changed: Dict[int, int] = field(default_factory=dict)
    removed: Tuple[int, ...] = ()
    previous: Dict[int, int] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.changed and not self.removed


class SkycubeMaintainer:
    """Exact per-point non-membership masks under inserts/deletes."""

    def __init__(
        self,
        data: Optional[np.ndarray] = None,
        d: Optional[int] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        if data is not None:
            data = np.asarray(data, dtype=np.float64)
            if data.ndim != 2:
                raise ValueError(f"data must be 2-D, got shape {data.shape}")
            if np.isnan(data).any():
                raise ValueError("data contains NaN")
            if d is not None and d != data.shape[1]:
                raise ValueError(f"d={d} conflicts with data shape {data.shape}")
            d = data.shape[1]
        elif d is None:
            raise ValueError("provide initial data or a dimensionality")
        # Local import: repro.engine builds on repro.core, so the
        # kernels cannot be imported at module load without a cycle.
        from repro.engine.packed import check_d, relevant_row, words_for

        check_d(d)
        self.d = d
        self.counters = counters if counters is not None else Counters()
        #: Digit weights of base-3 comparison codes:
        #: ``(rows <= p) @ w + (rows == p) @ w``.
        self._w3 = 3 ** np.arange(d, dtype=np.int64)
        self._next_id = 0
        self._words = words_for(d)
        #: closure(all dimensions): every subspace bit.
        self._all_bits = relevant_row(d, None)
        cap = _MIN_CAPACITY if data is None else max(_MIN_CAPACITY, len(data))
        self._matrix = np.zeros((cap, d), dtype=np.float64)
        self._mask_rows = np.zeros((cap, self._words), dtype=np.uint64)
        self._row_ids = np.zeros(cap, dtype=np.int64)
        self._live = np.zeros(cap, dtype=bool)
        self._count = 0
        self._n_live = 0
        self._pos: Dict[int, int] = {}
        # Affected-point prefilter, built lazily past min size.
        self._index: Optional["DeltaIndex"] = None
        if data is not None and len(data):
            self._bulk_load(data)

    # -- bulk load ------------------------------------------------------

    def _bulk_load(self, data: np.ndarray) -> None:
        """Seed the maintainer from a full dataset in one pass.

        Inserting row by row is O(n^2) array re-stacking — tens of
        seconds at serving sizes.  Instead: points outside the extended
        skyline ``S+`` are strictly dominated on every dimension by
        some point, hence in no subspace skyline — their mask is fully
        set.  Exact masks are computed only for the (typically small)
        ``S+``, and comparing within ``S+`` suffices because every
        dominator is itself dominated by an ``S+`` point.
        """
        from repro.engine.kernels import fast_extended_skyline
        from repro.engine.packed import packed_point_masks

        n = len(data)
        self._ensure_room(n)
        self._matrix[:n] = data
        self._row_ids[:n] = np.arange(n)
        self._live[:n] = True
        self._count = n
        self._n_live = n
        self._pos = {i: i for i in range(n)}
        self._next_id = n
        self._mask_rows[:n] = self._all_bits
        splus = fast_extended_skyline(data)
        self._mask_rows[splus] = packed_point_masks(data[splus])
        self.counters.dominance_tests += len(splus) * len(splus)
        self._maintain_structures()

    # -- packed storage -------------------------------------------------

    def _ensure_room(self, extra: int) -> None:
        needed = self._count + extra
        cap = len(self._matrix)
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        for name in ("_matrix", "_mask_rows", "_row_ids", "_live"):
            old = getattr(self, name)
            grown = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
            grown[: self._count] = old[: self._count]
            setattr(self, name, grown)

    def _append_row(
        self, point_id: int, point: np.ndarray, mask_row: np.ndarray
    ) -> int:
        self._ensure_room(1)
        row = self._count
        self._matrix[row] = point
        self._mask_rows[row] = mask_row
        self._row_ids[row] = point_id
        self._live[row] = True
        self._pos[point_id] = row
        self._count += 1
        self._n_live += 1
        return row

    def _compact_storage(self) -> None:
        """Drop dead rows so sweeps and the index stay O(live)."""
        live = np.flatnonzero(self._live[: self._count])
        n = len(live)
        self._matrix[:n] = self._matrix[live]
        self._mask_rows[:n] = self._mask_rows[live]
        self._row_ids[:n] = self._row_ids[live]
        self._live[: self._count] = False
        self._live[:n] = True
        self._count = n
        self._pos = {
            int(pid): row for row, pid in enumerate(self._row_ids[:n])
        }
        self._index = None

    def _maintain_structures(self) -> None:
        """Amortised upkeep after a mutation: compaction + prefilter.

        Dead rows are compacted away once they outnumber the live set;
        the :class:`~repro.engine.delta.DeltaIndex` prefilter is
        (re)built once the live set is large enough to pay for a tree
        and whenever its unindexed tail has grown past the pruning-
        usefulness threshold.  Both costs are O(n log n) but amortise
        over the >= O(n) mutations that triggered them.
        """
        from repro.engine.delta import INDEX_MIN_ROWS, DeltaIndex

        dead = self._count - self._n_live
        if dead > max(64, self._n_live):
            self._compact_storage()
        if self._n_live < INDEX_MIN_ROWS:
            self._index = None
            return
        if self._index is None or self._index.stale():
            live = np.flatnonzero(self._live[: self._count])
            self._index = DeltaIndex(self._matrix[: self._count], live)

    def _live_rows(self) -> np.ndarray:
        return np.flatnonzero(self._live[: self._count])

    def _victim_rows(self, point: np.ndarray) -> np.ndarray:
        """Live rows the mutation point may strictly beat somewhere."""
        if self._index is not None:
            cand = self._index.candidates(point)
            return cand[self._live[cand]]
        return self._live_rows()

    def _dominator_rows(self, point: np.ndarray) -> np.ndarray:
        """Live rows that may contribute to the point's own mask."""
        if self._index is not None:
            cand = self._index.dominator_candidates(point)
            return cand[self._live[cand]]
        return self._live_rows()

    # -- updates --------------------------------------------------------

    def _check_point(self, point: Sequence[float]) -> np.ndarray:
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.d,):
            raise ValueError(f"expected a {self.d}-dim point, got {point.shape}")
        if np.isnan(point).any():
            raise ValueError("point contains NaN")
        return point

    def insert(self, point: Sequence[float]) -> int:
        """Add a point; returns its assigned id.  O(affected) updates."""
        return self.insert_with_delta(point)[0]

    def delete(self, point_id: int) -> None:
        """Remove a point; re-verifies the mask bits it may have owned."""
        self.delete_with_delta(point_id)

    def insert_with_delta(
        self, point: Sequence[float]
    ) -> Tuple[int, MaskDelta]:
        """:meth:`insert` plus the exact mask movement it caused.

        The packed delta sweep: the new point's own ``B_{p∉S}`` folds
        the comparison codes of the (prefiltered) potential dominators;
        existing masks gain only the closure contribution of the one
        new row against the (prefiltered, then exactly-checked)
        affected set — never a full recompute.
        """
        point = self._check_point(point)
        from repro.engine.delta import contribution_rows, fold_codes
        from repro.engine.packed import row_to_int

        point_id = self._next_id
        self._next_id += 1
        if self._n_live == 0:
            own = np.zeros(self._words, dtype=np.uint64)
            self._append_row(point_id, point, own)
            self._maintain_structures()
            return point_id, MaskDelta(changed={point_id: 0})

        w3 = self._w3
        # The new point's own mask: fold everyone who may dominate it.
        dominators = self._dominator_rows(point)
        own = np.zeros(self._words, dtype=np.uint64)
        le = np.zeros((0, self.d), dtype=bool)
        if len(dominators):
            block = self._matrix[dominators]
            le = block <= point
            own = fold_codes(le @ w3 + (block == point) @ w3, self.d)
            self.counters.dominance_tests += len(dominators)

        # ...and its contribution to the points it strictly beats.
        # Coverage fast path: when some live point ``p <= point`` on
        # every dimension, ``p``'s closure contribution to any victim
        # is a superset of the new point's (componentwise-larger ``le``,
        # and ``p`` is strictly better wherever the new point is), so
        # every bit the new point could set is already set — the whole
        # victim sweep is provably a no-op.
        covered = bool(le.all(axis=1).any())
        changed: Dict[int, int] = {}
        previous: Dict[int, int] = {}
        candidates = (
            np.empty(0, dtype=np.intp) if covered
            else self._victim_rows(point)
        )
        if len(candidates):
            block = self._matrix[candidates]
            beaten = (block > point).any(axis=1)
            self.counters.dominance_tests += len(candidates)
            victims = candidates[beaten]
            if len(victims):
                rows = block[beaten]
                codes = (rows >= point) @ w3 + (rows == point) @ w3
                add = contribution_rows(codes, self.d)
                old = self._mask_rows[victims]
                new = old | add
                moved = (new != old).any(axis=1)
                if moved.any():
                    touched = victims[moved]
                    self._mask_rows[touched] = new[moved]
                    self.counters.bitmask_ops += int(moved.sum())
                    for row, before, after in zip(
                        touched.tolist(), old[moved], new[moved]
                    ):
                        pid = int(self._row_ids[row])
                        previous[pid] = row_to_int(before)
                        changed[pid] = row_to_int(after)

        row = self._append_row(point_id, point, own)
        changed[point_id] = row_to_int(own)
        if self._index is not None:
            self._index.add(row)
        self._maintain_structures()
        return point_id, MaskDelta(changed, (), previous)

    def delete_with_delta(self, point_id: int) -> MaskDelta:
        """:meth:`delete` plus the exact mask movement it caused.

        Only the mask bits the removed point could have owned are
        re-tested (:meth:`_lost_bits`); every other mask stays as is.
        """
        from repro.engine.packed import row_to_int

        row = self._pos.pop(point_id, None)
        if row is None:
            raise KeyError(f"unknown point id {point_id}")
        removed_point = self._matrix[row].copy()
        removed_mask = row_to_int(self._mask_rows[row])
        self._live[row] = False
        self._n_live -= 1

        changed: Dict[int, int] = {}
        previous: Dict[int, int] = {point_id: removed_mask}
        if self._n_live == 0:
            self._index = None
            return MaskDelta(changed, (point_id,), previous)

        touched, lost = self._lost_bits(removed_point)
        if len(touched):
            old = self._mask_rows[touched]
            new = old & ~lost
            self._mask_rows[touched] = new
            self.counters.bitmask_ops += len(touched)
            for vrow, before, after in zip(touched.tolist(), old, new):
                pid = int(self._row_ids[vrow])
                previous[pid] = row_to_int(before)
                changed[pid] = row_to_int(after)
        self._maintain_structures()
        return MaskDelta(changed, (point_id,), previous)

    def _lost_bits(self, point: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Live rows whose masks lose bits once ``point`` is gone, and
        those bits (``point``'s row must already be marked dead).

        *Recovered set*: the subspaces ``δ`` for which some survivor
        ``q`` is ``<= point`` on every dimension of ``δ``.  Wherever
        ``point`` dominated a row in such a ``δ`` (``<=`` on ``δ``,
        strictly on one dimension), ``q`` still does, so those bits
        cannot change; an exact duplicate recovers everything.  A row's *open bits* are
        ``point``'s contribution to it minus the recovered set, and
        only rows with open bits are re-verified, by
        :func:`repro.engine.delta.recompute_rows`.
        """
        # Module, not name, import: recompute_rows is looked up per call
        # so that tracing harnesses can wrap it.
        from repro.engine import delta

        nothing = (
            np.empty(0, dtype=np.intp),
            np.empty((0, self._words), dtype=np.uint64),
        )
        w3 = self._w3
        uncovered = self._all_bits
        recoverers = self._dominator_rows(point)
        if len(recoverers):
            # Digits 0 or 1 (``eq`` empty): each code folds to closure(le).
            le = (self._matrix[recoverers] <= point) @ w3
            self.counters.dominance_tests += len(recoverers)
            uncovered = uncovered & ~delta.fold_codes(le, self.d)
        if not uncovered.any():
            return nothing
        candidates = self._victim_rows(point)
        block = self._matrix[candidates]
        beaten = (block > point).any(axis=1)
        self.counters.dominance_tests += len(candidates)
        rows = block[beaten]
        codes = (rows >= point) @ w3 + (rows == point) @ w3
        open_bits = delta.contribution_rows(codes, self.d) & uncovered
        is_open = open_bits.any(axis=1)
        if not is_open.any():
            return nothing
        victims = candidates[beaten][is_open]
        open_bits = open_bits[is_open]
        # Re-covering dominators: rows in the skyline of an open subspace.
        live = self._live_rows()
        reach = np.bitwise_or.reduce(open_bits, axis=0)
        in_skyline = (~self._mask_rows[live] & reach).any(axis=1)
        lost = delta.recompute_rows(
            self._matrix, victims, live[in_skyline], point, open_bits,
            counters=self.counters,
        )
        moved = lost.any(axis=1)
        return victims[moved], lost[moved]

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return self._n_live

    def membership_mask(self, point_id: int) -> int:
        """Current exact ``B_{p∉S}`` of a live point."""
        from repro.engine.packed import row_to_int

        return row_to_int(self._mask_rows[self._pos[point_id]])

    def point(self, point_id: int) -> np.ndarray:
        """The coordinates of a live point (copy)."""
        try:
            row = self._pos[point_id]
        except KeyError:
            raise KeyError(f"unknown point id {point_id}") from None
        return self._matrix[row].copy()

    def points(self) -> "Dict[int, np.ndarray]":
        """``{id: coordinates}`` of every live point."""
        return {
            pid: self._matrix[row].copy() for pid, row in self._pos.items()
        }

    def snapshot_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, coordinates, packed mask rows)`` of the live set.

        One id-sorted aligned copy of the maintainer's state, in the
        exact shape the serving bootstrap needs: ids feed
        :meth:`repro.core.hashcube.HashCube.from_masks` together with
        the packed mask rows, the coordinate matrix becomes the
        snapshot's data array.
        """
        live = self._live_rows()
        ids = self._row_ids[live]
        order = np.argsort(ids)
        rows = live[order]
        return (
            np.ascontiguousarray(ids[order]),
            self._matrix[rows].copy(),
            self._mask_rows[rows].copy(),
        )

    def skyline(self, delta: int) -> List[int]:
        """Current ``S_δ`` ids without materialising the whole cube."""
        if not 0 < delta <= full_space(self.d):
            raise KeyError(f"invalid subspace {delta} for d={self.d}")
        word, bit = divmod(delta - 1, 64)
        probe = np.uint64(1 << bit)
        live = self._live_rows()
        in_skyline = (self._mask_rows[live, word] & probe) == 0
        return sorted(int(pid) for pid in self._row_ids[live[in_skyline]])

    def skycube(self, word_width: int = HashCube.DEFAULT_WORD_WIDTH) -> Skycube:
        """Materialise the current state as a HashCube-backed skycube."""
        ids, _, mask_rows = self.snapshot_arrays()
        return Skycube(HashCube.from_masks(self.d, ids, mask_rows, word_width))
