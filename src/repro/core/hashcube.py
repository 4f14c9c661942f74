"""The HashCube skycube representation (Figure 1b, Appendix B.1).

The HashCube stores each point ``p`` by its *non-membership* bitmask
``B_{p∉S}``: a ``2**d - 1`` bit integer whose bit ``δ - 1`` is set iff
``p`` is dominated in subspace ``δ`` (the shift by one skips the unused
empty subspace).  The mask is split into fixed-width *words*; each word
position has its own hash table mapping word values to id lists.  A
point id is thus stored at most once per ``w`` subspaces — up to w-fold
compression over the lattice — and, if a word has *all* its valid bits
set (dominated everywhere in that word's subspace range), the id is not
stored at all for that table.

Retrieval of ``S_δ`` concatenates the id lists of every key in table
``(δ-1) // w`` whose bit ``(δ-1) % w`` is *unset*.

The per-point definition is what enables MDMC's fine-grained parallelism:
each parallel task produces one bitmask and inserts it independently.

``bit_order="level"`` implements the future-work idea of Appendix A.2:
bits are reorganised by lattice level so that, for *partial* skycubes,
the all-set bits of the unmaterialised upper levels cluster into whole
words — which the omission rule then drops entirely, improving
compression exactly where the numeric order cannot.
"""

from __future__ import annotations

from operator import index as _as_int
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.core.bitmask import full_space, popcount
from repro.core.lattice import Lattice

__all__ = ["HashCube"]


class HashCube:
    """Space-efficient skycube keyed by per-point non-membership masks."""

    DEFAULT_WORD_WIDTH = 32
    BIT_ORDERS = ("numeric", "level")

    def __init__(
        self,
        d: int,
        word_width: int = DEFAULT_WORD_WIDTH,
        bit_order: str = "numeric",
    ) -> None:
        if d < 1:
            raise ValueError(f"dimensionality must be positive, got {d}")
        if word_width < 1:
            raise ValueError(f"word width must be positive, got {word_width}")
        if bit_order not in self.BIT_ORDERS:
            raise ValueError(
                f"bit_order must be one of {self.BIT_ORDERS}, got {bit_order!r}"
            )
        self.d = d
        self.word_width = word_width
        self.bit_order = bit_order
        self.num_subspaces = full_space(d)
        self.num_words = -(-self.num_subspaces // word_width)  # ceil div
        # One hash table per word position: word value -> point ids.
        self._tables: List[Dict[int, List[int]]] = [
            {} for _ in range(self.num_words)
        ]
        #: Ids inserted so far (ids are append-only; maintenance always
        #: rebuilds a fresh cube), so batch merges can reject
        #: duplicates in O(1) instead of silently double-storing.
        self._inserted_ids: Set[int] = set()
        #: Point index: id -> stored (permuted) ``B_{p∉S}`` mask.  This
        #: is the serving-path accelerator behind :meth:`contains` — a
        #: membership probe is one dict lookup plus one word extraction
        #: instead of a scan over every table's keys.  It is *not* part
        #: of the paper's representation, so :meth:`memory_bytes` (the
        #: Figure-1 size comparison) deliberately excludes it.
        self._stored_masks: Dict[int, int] = {}
        self._word_mask = (1 << word_width) - 1
        #: How many :meth:`with_updates` generations separate this cube
        #: from its last fully-rebuilt ancestor.  The serving tier's
        #: compaction policy triggers a fresh rebuild once this exceeds
        #: its budget, bounding the key fragmentation delta publishes
        #: can accumulate.
        self.generation = 0
        #: Set on copy-on-write clones: their id lists are shared with
        #: the parent cube, so in-place inserts must be refused (they
        #: would mutate the parent's — supposedly immutable — storage).
        self._shares_tables = False
        #: subspace δ -> bit position, and its inverse (level order only).
        self._bit_of: Optional[Dict[int, int]] = None
        self._delta_at: Optional[List[int]] = None
        if bit_order == "level":
            ordered = sorted(
                range(1, self.num_subspaces + 1),
                key=lambda delta: (popcount(delta), delta),
            )
            self._bit_of = {delta: i for i, delta in enumerate(ordered)}
            self._delta_at = ordered

    def _position(self, delta: int) -> int:
        """Bit position of subspace δ under the configured order."""
        if self._bit_of is None:
            return delta - 1
        return self._bit_of[delta]

    def _permute(self, mask: int) -> int:
        """Map a numeric-order ``B_{p∉S}`` mask into storage order."""
        if self._bit_of is None:
            return mask
        out = 0
        delta = 1
        while mask:
            if mask & 1:
                out |= 1 << self._bit_of[delta]
            mask >>= 1
            delta += 1
        return out

    def _unpermute(self, stored: int) -> int:
        """Inverse of :meth:`_permute`."""
        if self._delta_at is None:
            return stored
        out = 0
        position = 0
        while stored:
            if stored & 1:
                out |= 1 << (self._delta_at[position] - 1)
            stored >>= 1
            position += 1
        return out

    def _valid_bits(self, word_index: int) -> int:
        """Mask of bits that correspond to real subspaces in this word."""
        start = word_index * self.word_width
        bits = min(self.word_width, self.num_subspaces - start)
        return (1 << bits) - 1

    # -- construction -------------------------------------------------

    def insert(self, point_id: int, not_in_skyline_mask: int) -> None:
        """Insert a point by its ``B_{p∉S}`` mask.

        MDMC calls this once per processed point; insertions for distinct
        points are independent, so concurrent tasks never conflict beyond
        the per-key list append.
        """
        if self._shares_tables:
            raise ValueError(
                "this HashCube shares storage with another snapshot "
                "(copy-on-write); derive a new version via with_updates "
                "or build a fresh cube instead of inserting in place"
            )
        if not 0 <= not_in_skyline_mask < (1 << self.num_subspaces):
            raise ValueError(
                f"mask {not_in_skyline_mask:#x} out of range for d={self.d}"
            )
        stored_mask = self._permute(not_in_skyline_mask)
        self._inserted_ids.add(point_id)
        self._stored_masks[point_id] = stored_mask
        for word_index in range(self.num_words):
            word = (stored_mask >> (word_index * self.word_width)) & self._word_mask
            if word == self._valid_bits(word_index):
                continue  # dominated in every subspace of this word: omit
            self._tables[word_index].setdefault(word, []).append(point_id)

    def _split_words(self, mask: int) -> Tuple[int, List[Tuple[int, int]]]:
        """Stored mask plus ``(word_index, word)`` pairs of a valid mask."""
        stored_mask = self._permute(mask)
        words = []
        for word_index in range(self.num_words):
            word = (
                stored_mask >> (word_index * self.word_width)
            ) & self._word_mask
            if word == self._valid_bits(word_index):
                continue  # omission rule, as in insert()
            words.append((word_index, word))
        return stored_mask, words

    @classmethod
    def from_masks(
        cls,
        d: int,
        point_ids: "np.ndarray | Iterable[int]",
        mask_rows: "np.ndarray",
        word_width: int = DEFAULT_WORD_WIDTH,
        bit_order: str = "numeric",
    ) -> "HashCube":
        """Bulk constructor over packed uint64 ``B_{p∉S}`` rows.

        The bulk form of :meth:`insert` for the packed engine:
        ``mask_rows`` is an ``(n, ceil((2**d - 1)/64))``
        ``np.uint64`` array in *numeric* bit order (bit ``δ - 1`` of row
        ``i`` at word ``(δ-1) // 64``, bit ``(δ-1) % 64``); permutation
        into ``bit_order="level"`` storage happens here.  Distinct rows
        are deduplicated with one ``np.unique`` and widened/split
        exactly once, then ids are appended group-wise — the per-point
        cost is a couple of list appends, never a big-int rebuild.

        Everything is validated before the cube is touched: a wrong row
        width or dtype, bits set beyond the ``2**d - 1`` valid
        subspaces, a non-integral or negative id, or a duplicated id
        raise :class:`ValueError` against a still-empty cube.
        """
        cube = cls(d, word_width, bit_order)
        rows = np.asarray(mask_rows)
        expected_words = -(-cube.num_subspaces // 64)
        if rows.dtype != np.uint64:
            raise ValueError(
                f"mask rows must be np.uint64, got {rows.dtype}"
            )
        if rows.ndim != 2 or rows.shape[1] != expected_words:
            raise ValueError(
                f"expected mask rows of shape (n, {expected_words}) for "
                f"d={d}, got {rows.shape}"
            )
        ids = np.asarray(point_ids)
        if ids.ndim != 1 or len(ids) != len(rows):
            raise ValueError(
                f"got {ids.shape} point ids for {len(rows)} mask rows"
            )
        if len(ids) == 0:
            return cube
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"point ids must be integers, got {ids.dtype}")
        if int(ids.min()) < 0:
            raise ValueError(f"point id {int(ids.min())} is negative")
        if len(np.unique(ids)) != len(ids):
            raise ValueError(
                "duplicate point ids in batch; every S+ point contributes "
                "exactly one B_{p∉S} mask"
            )
        top_bits = cube.num_subspaces - 64 * (expected_words - 1)
        top_valid = np.uint64((1 << top_bits) - 1) if top_bits < 64 else (
            np.uint64(0xFFFFFFFFFFFFFFFF)
        )
        if bool(np.any(rows[:, -1] & ~top_valid)):
            raise ValueError(
                f"mask rows set bits beyond the {cube.num_subspaces} valid "
                f"subspaces for d={d}"
            )
        unique_rows, inverse = np.unique(rows, axis=0, return_inverse=True)
        inverse = np.asarray(inverse).ravel()
        split = [
            cube._split_words(
                int.from_bytes(
                    np.ascontiguousarray(row, dtype="<u8").tobytes(), "little"
                )
            )
            for row in unique_rows
        ]
        order = np.argsort(inverse, kind="stable")
        grouped = inverse[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        bounds = np.r_[starts, len(order)]
        for g in range(len(starts)):
            stored_mask, words = split[int(grouped[bounds[g]])]
            members = [int(i) for i in ids[order[bounds[g]:bounds[g + 1]]]]
            for point_id in members:
                cube._inserted_ids.add(point_id)
                cube._stored_masks[point_id] = stored_mask
            for word_index, word in words:
                cube._tables[word_index].setdefault(word, []).extend(members)
        return cube

    # -- copy-on-write versioning -------------------------------------

    def _stored_words(self, stored_mask: int) -> Iterator[Tuple[int, int]]:
        """``(word_index, word)`` pairs a stored mask occupies.

        The omission rule applied to an *already permuted* mask — the
        exact set of table entries an id with this mask lives in.
        """
        for word_index in range(self.num_words):
            word = (
                stored_mask >> (word_index * self.word_width)
            ) & self._word_mask
            if word == self._valid_bits(word_index):
                continue
            yield word_index, word

    def with_updates(
        self,
        changed_masks: Mapping[int, int],
        removed_ids: Iterable[int] = (),
    ) -> "HashCube":
        """A new cube version differing only in the given masks.

        The delta-publish primitive: ``changed_masks`` maps point id →
        new ``B_{p∉S}`` (ids may be new or already stored),
        ``removed_ids`` lists ids leaving the cube.  The clone shares
        every untouched hash-table *and id-list* object with this cube
        — per changed mask only the word-table dicts it lands in are
        copied, and only the member lists of the touched keys are
        rebuilt — so a k-mask delta costs O(k · words + touched lists),
        never O(n).

        Neither cube may be mutated in place afterwards (both are
        marked copy-on-write and refuse :meth:`insert`); derive further
        versions with another :meth:`with_updates`, and rebuild from
        scratch once :attr:`generation` exceeds the compaction budget.

        Everything is validated before any state is copied: an
        out-of-range mask, a non-integral or negative id, a removal of
        an id this cube never stored, or an id that is simultaneously
        changed and removed raise :class:`ValueError`.
        """
        mask_bound = 1 << self.num_subspaces
        items: List[Tuple[int, int]] = []
        for point_id, mask in changed_masks.items():
            try:
                point_id = _as_int(point_id)
            except TypeError:
                raise ValueError(
                    f"point id {point_id!r} is not an integer"
                ) from None
            if point_id < 0:
                raise ValueError(f"point id {point_id} is negative")
            if not 0 <= mask < mask_bound:
                raise ValueError(
                    f"mask {mask:#x} of point {point_id} out of range "
                    f"for d={self.d}"
                )
            items.append((point_id, mask))
        removed: List[int] = []
        for point_id in removed_ids:
            point_id = _as_int(point_id)
            if point_id not in self._stored_masks:
                raise ValueError(
                    f"cannot remove point id {point_id}: not stored in "
                    "this HashCube version"
                )
            if point_id in changed_masks:
                raise ValueError(
                    f"point id {point_id} is both changed and removed"
                )
            removed.append(point_id)

        clone = HashCube(self.d, self.word_width, self.bit_order)
        clone._tables = list(self._tables)  # shared until touched
        clone._stored_masks = dict(self._stored_masks)
        clone._inserted_ids = set(self._inserted_ids)
        clone.generation = self.generation + 1
        clone._shares_tables = True
        self._shares_tables = True

        # Plan the table movement: which (word_index, word) keys lose
        # which ids, and which gain which — grouped so every touched
        # member list is rebuilt exactly once.
        drops: Dict[Tuple[int, int], Set[int]] = {}
        adds: Dict[Tuple[int, int], List[int]] = {}
        for point_id in removed:
            stored = clone._stored_masks.pop(point_id)
            clone._inserted_ids.discard(point_id)
            for key in self._stored_words(stored):
                drops.setdefault(key, set()).add(point_id)
        for point_id, mask in items:
            old = clone._stored_masks.get(point_id)
            stored_mask, words = self._split_words(mask)
            if old == stored_mask:
                continue  # mask value unchanged: no table movement
            if old is not None:
                for key in self._stored_words(old):
                    drops.setdefault(key, set()).add(point_id)
            clone._stored_masks[point_id] = stored_mask
            clone._inserted_ids.add(point_id)
            for key in words:
                adds.setdefault(key, []).append(point_id)

        copied: Set[int] = set()
        for key in set(drops) | set(adds):
            word_index, word = key
            if word_index not in copied:
                clone._tables[word_index] = dict(clone._tables[word_index])
                copied.add(word_index)
            table = clone._tables[word_index]
            members = table.get(word, [])
            gone = drops.get(key, ())
            fresh = [pid for pid in members if pid not in gone]
            fresh.extend(adds.get(key, ()))
            if fresh:
                table[word] = fresh
            else:
                table.pop(word, None)
        return clone

    # -- queries ------------------------------------------------------

    def skyline(self, delta: int) -> Tuple[int, ...]:
        """``S_δ(P)``: ids whose stored word has bit ``δ-1`` unset."""
        if not 0 < delta <= self.num_subspaces:
            raise KeyError(f"invalid subspace {delta} for d={self.d}")
        word_index, bit = divmod(self._position(delta), self.word_width)
        probe = 1 << bit
        ids: List[int] = []
        for word, members in self._tables[word_index].items():
            if not word & probe:
                ids.extend(members)
        return tuple(sorted(ids))

    def contains(self, point_id: int, delta: int) -> bool:
        """``p ∈ S_δ``: an O(1) single-word membership probe.

        The serving hot path: one point-index lookup, one word
        extraction, one bit test — no table-key scan, no full
        ``membership_mask`` reconstruction.  Ids this cube has never
        stored are in no skyline (by the omission rule a fully
        dominated point reads the same way), so they probe ``False``;
        an invalid subspace raises :exc:`KeyError` like :meth:`skyline`.
        """
        if not 0 < delta <= self.num_subspaces:
            raise KeyError(f"invalid subspace {delta} for d={self.d}")
        stored = self._stored_masks.get(point_id)
        if stored is None:
            return False
        word_index, bit = divmod(self._position(delta), self.word_width)
        word = (stored >> (word_index * self.word_width)) & self._word_mask
        return not word & (1 << bit)

    def membership_mask(self, point_id: int) -> int:
        """Reconstruct ``B_{p∉S}`` for a stored point.

        Delegates to the same stored-word index as :meth:`contains`:
        ids never inserted read as dominated everywhere (all valid bits
        set), exactly what the omission rule implies for them.
        """
        stored = self._stored_masks.get(point_id)
        if stored is None:
            stored = (1 << self.num_subspaces) - 1
        return self._unpermute(stored)

    def point_ids(self) -> Tuple[int, ...]:
        """All distinct point ids appearing in any table."""
        ids = set()
        for table in self._tables:
            for members in table.values():
                ids.update(members)
        return tuple(sorted(ids))

    def cuboids(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Iterate ``(δ, S_δ)`` for every subspace, ascending."""
        for delta in range(1, self.num_subspaces + 1):
            yield delta, self.skyline(delta)

    # -- statistics ---------------------------------------------------

    def total_ids_stored(self) -> int:
        """Id replications across all tables (compression numerator)."""
        return sum(
            len(members) for table in self._tables for members in table.values()
        )

    def num_keys(self) -> int:
        """Distinct hash keys across all tables."""
        return sum(len(table) for table in self._tables)

    def memory_bytes(self) -> int:
        """Rough resident size: ids + one key per list."""
        return 4 * self.total_ids_stored() + 16 * self.num_keys()

    def compression_ratio_vs(self, lattice: Lattice) -> float:
        """Lattice ids stored / HashCube ids stored (>1 means smaller)."""
        own = self.total_ids_stored()
        return float("inf") if own == 0 else lattice.total_ids_stored() / own

    # -- interop ------------------------------------------------------

    def to_lattice(self) -> Lattice:
        """Expand into the equivalent (skyline-only) lattice."""
        lattice = Lattice(self.d)
        for delta, ids in self.cuboids():
            lattice.set_cuboid(delta, ids)
        return lattice

    @classmethod
    def from_lattice(
        cls,
        lattice: Lattice,
        word_width: int = DEFAULT_WORD_WIDTH,
        bit_order: str = "numeric",
    ) -> "HashCube":
        """Compress a complete lattice into a HashCube."""
        if not lattice.is_complete():
            raise ValueError("can only compress a fully materialised lattice")
        cube = cls(lattice.d, word_width, bit_order)
        num_subspaces = full_space(lattice.d)
        all_set = (1 << num_subspaces) - 1
        masks: Dict[int, int] = {}
        for delta, ids in lattice.cuboids():
            bit = 1 << (delta - 1)
            for point_id in ids:
                masks[point_id] = masks.get(point_id, all_set) & ~bit
        for point_id, mask in sorted(masks.items()):
            cube.insert(point_id, mask)
        return cube

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashCube):
            return NotImplemented
        if self.d != other.d:
            return False
        return all(
            self.skyline(delta) == other.skyline(delta)
            for delta in range(1, self.num_subspaces + 1)
        )

    def __repr__(self) -> str:
        return (
            f"HashCube(d={self.d}, w={self.word_width}, "
            f"ids={self.total_ids_stored()}, keys={self.num_keys()})"
        )
