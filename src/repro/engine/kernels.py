"""Vectorized skyline/skycube kernels.

The instrumented algorithms in :mod:`repro.skyline` and
:mod:`repro.templates` are deliberately structured like the paper's
code so their operation counts drive the hardware simulation.  This
module is the opposite trade-off: pure-numpy kernels (the Python
analogue of the paper's AVX2 lanes) with no instrumentation, usable at
tens of thousands of points.  Examples and property tests lean on it;
results are bit-identical to the reference implementations.

Every exact skyline here (S+ and Definition 1, full space or subspace)
comes from one sorted filter, :func:`_sorted_filter`: rank-encode the
columns, sort by rank sum, drop the rows a few representatives
dominate, then decide each block of rows either by the dense window
test or by a bitmap candidate test over per-column rank bins
(:class:`_BinBitsets`), whichever the block's own counts price lower.
Both decide the same rows; the bitmap test wins on anticorrelated and
independent data, where most rows are kept and the window is long.

Two skycube engines share the MDMC structure (restrict to ``S+``,
fold each point's distinct comparison-mask pairs over the lattice),
for every ``d`` up to :data:`repro.engine.packed.MAX_D`:

* ``engine="packed"`` (default) — the array-at-a-time sweep of
  :mod:`repro.engine.packed`: uint64 closure rows, blocked pair dedup,
  grouped OR folds; no per-point Python loop, no big ints.
* ``engine="packed-filtered"`` — the packed sweep with the paper's
  static-tree filter phase fused in (Sections 4.3/5.2): an octant-path
  label prefilter shrinks the exact ``S+`` computation, and the sweep
  itself skips leaves / sets subspace bits from leaf-ordered label
  arrays before touching coordinates.  Bit-identical to ``"packed"``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.bitmask import dims_of, full_space
from repro.core.dominance import dominance_matrix, dominated_mask, rank_columns
from repro.core.hashcube import HashCube
from repro.core.skycube import Skycube
from repro.engine import packed
from repro.instrument.counters import Counters
from repro.partitioning.static_tree import octant_matrix

__all__ = [
    "fast_skyline",
    "fast_extended_skyline",
    "fast_skycube",
    "label_prefilter",
    "splus_ids_for_engine",
    "SKYCUBE_ENGINES",
    "ENGINE_HELP",
]

#: Default rows compared per vectorized block (bounds peak memory to
#: ``block × |candidates|`` booleans).  Overridable per call via the
#: ``block`` keyword.
BLOCK = 512

#: The sorted filter first drops every row that one of its
#: representatives dominates: this many rows of lowest sum plus this
#: many of lowest maximum (Ciaccia & Martinenghi's representative
#: filtering).  Inputs of at most twice this many rows skip the pass.
REPRESENTATIVES = 16

#: Bins per column of the sorted filter's bitmap candidate test: a
#: survivor of rank ``r`` on a column whose largest survivor rank is
#: ``M`` falls in bin ``r * BINS // (M + 1)``.
BINS = 64

#: The per-block gate between the bitmap candidate test and the dense
#: window test, in units of one element comparison of the dense test:
#: a try costs ``TRY_COST`` whatever its size (the dozens of numpy calls
#: that bin, pack, gather and count; the dense test does 2^17
#: comparisons in about the same 0.2–0.4 ms), each gathered bitset word
#: ``GATHER_COST`` more, each verified candidate pair ``PAIR_COST``.  A
#: block whose candidate pairs cost more than its dense work turns the
#: bitmap test off for the rest of the call: the bins do not separate
#: that input (duplicate-heavy columns, few dimensions), and every later
#: try would waste its gather.
GATHER_COST = 16
PAIR_COST = 64
TRY_COST = 2**17

#: The point-bitmask engines :func:`fast_skycube` accepts.  This tuple
#: is the single source of truth for every ``--engine`` CLI knob.
SKYCUBE_ENGINES = ("packed", "packed-filtered")

#: Shared ``--engine`` help text for the CLI entry points.
ENGINE_HELP = (
    "point-bitmask sweep: 'packed' (uint64 array-at-a-time, default) or "
    "'packed-filtered' (packed plus the static-tree label filter; "
    "bit-identical, faster on duplicate-heavy data)"
)

#: The octant-path prefilter only runs when paths collapse: above this
#: fraction of distinct paths per point the path-level SFS approaches
#: the full point-level filter and would cost more than it saves.
PREFILTER_MAX_PATHS = 0.25

#: Below this many rows the prefilter's quantile scan is not worth the
#: setup; the plain ``S+`` filter is already sub-millisecond.
PREFILTER_MIN_ROWS = 512


def _block_size(block: Optional[int]) -> int:
    """Resolve a filter-kernel block size: the keyword, else :data:`BLOCK`."""
    if block is None:
        return BLOCK
    if block < 1:
        raise ValueError(f"block size must be positive, got {block}")
    return block


def _validated(
    data: np.ndarray, delta: Optional[int]
) -> Tuple[np.ndarray, int]:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"expected a non-empty 2-D dataset, got shape {data.shape}")
    d = data.shape[1]
    delta = full_space(d) if delta is None else delta
    if not 0 < delta <= full_space(d):
        raise ValueError(f"invalid subspace {delta} for d={d}")
    return data, delta


def _representative_survivors(
    rows: np.ndarray, strict: bool, block: int
) -> np.ndarray:
    """Indices of the sorted rows no representative dominates.

    The representatives are the :data:`REPRESENTATIVES` rows of lowest
    sum (the head of the monotone order) and as many rows of lowest
    maximum, the rows most likely to dominate many others.  The pass runs
    over ``block``-row slices, so its scratch stays ``block × 2R``
    booleans; inputs of at most ``2R`` rows skip it.
    """
    n = len(rows)
    if n <= 2 * REPRESENTATIVES:
        return np.arange(n)
    by_max = np.argpartition(rows.max(axis=1), REPRESENTATIVES)[:REPRESENTATIVES]
    # A row picked twice only repeats a column of the test.
    representatives = np.concatenate([rows[:REPRESENTATIVES], rows[by_max]])
    alive = np.empty(n, dtype=bool)
    for start in range(0, n, block):
        end = min(n, start + block)
        alive[start:end] = ~dominated_mask(rows[start:end], representatives, strict)
    return np.flatnonzero(alive)


#: Set bits per byte value: candidate pairs are counted without
#: ``np.bitwise_count``, which needs numpy >= 2.0.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _words(rows: int) -> int:
    """uint64 words that hold one bit per row."""
    return -(-rows // 64)


def _packed_words(bits: np.ndarray, words: int) -> np.ndarray:
    """Boolean rows packed little-bit-order into ``words`` uint64s each."""
    packed = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    nbytes = -(-bits.shape[-1] // 8)
    packed[..., :nbytes] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(np.uint64)


class _BinBitsets:
    """Per-column bin bitsets over the sorted filter's survivor rows.

    ``prefix[k, t]`` holds one bit per survivor position (little bit
    order, 64 per uint64 word), set iff the row's bin on column ``k`` is
    at most ``t``.  A dominator is ``<=`` on every column, so its bins
    are too: ANDing ``prefix[k, bin_k(p)]`` over the columns leaves a
    superset of ``p``'s dominators, which :meth:`dominated` verifies on
    a column-major copy of the rows.  The prefix bitsets take ``8·d``
    bytes per survivor.  They are packed in two steps (:meth:`_fill`):
    the first try packs only the words it reads, since the gate may stop
    trying after it; a second try packs the rest.
    """

    def __init__(self, rows: np.ndarray) -> None:
        m, d = rows.shape
        self.columns = np.ascontiguousarray(rows.T)
        self.bins = np.empty((d, m), dtype=np.uint8)
        for k in range(d):
            # int64: rank * BINS overflows uint16 from rank 1,024 on.
            ranks = self.columns[k].astype(np.int64)
            self.bins[k] = ranks * BINS // (ranks.max() + 1)
        self.prefix = np.empty((d, BINS, _words(m)), dtype=np.uint64)
        self.filled = 0

    def _fill(self, words: int) -> None:
        """Pack the prefix bitsets' words ``[filled, words)``, or every
        word left once some are filled.

        Each word is packed from all of its (up to 64) rows at once, so a
        filled word is final.  One column at a time, the scratch stays
        ``BINS`` booleans per newly packed row.
        """
        if words <= self.filled:
            return
        if self.filled:
            words = self.prefix.shape[2]
        rows = slice(64 * self.filled, 64 * words)
        thresholds = np.arange(BINS)[:, None]
        for k, bins in enumerate(self.bins):
            self.prefix[k, :, self.filled:words] = _packed_words(
                bins[rows] <= thresholds, words - self.filled
            )
        self.filled = words

    def candidates(
        self, start: int, end: int, kept: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero candidate words of block rows ``[start, end)``.

        Bit ``j`` of block row ``i``'s words is set iff row ``j`` is
        kept (``kept[j]``) or in the block, and every bin of ``j`` is at
        most ``i``'s.  That includes ``i`` itself and may include later
        block rows; neither can dominate ``i`` (a dominator's rank sum
        is smaller), so verification rejects them.  Returns ``(row,
        word, bits)``: the block row and word index of each nonzero
        word, and the word.
        """
        words = _words(end)
        self._fill(words)
        allowed = kept[:end].copy()
        allowed[start:end] = True
        out = _packed_words(allowed, words) & self.prefix[0][
            self.bins[0, start:end], :words
        ]
        for k in range(1, len(self.bins)):
            out &= self.prefix[k][self.bins[k, start:end], :words]
        nonzero = np.flatnonzero(out != 0)
        return nonzero // words, nonzero % words, out.ravel()[nonzero]

    def dominated(
        self,
        start: int,
        end: int,
        candidates: Tuple[np.ndarray, np.ndarray, np.ndarray],
        strict: bool,
    ) -> np.ndarray:
        """Which block rows a candidate from :meth:`candidates` dominates."""
        row, word, bits = candidates
        unpacked = np.unpackbits(bits.view(np.uint8), bitorder="little")
        pair = np.flatnonzero(unpacked.view(bool))
        hit = pair // 64
        row = row[hit]
        i = start + row
        j = 64 * word[hit] + pair % 64
        verified = np.ones(len(i), dtype=bool)
        below = np.zeros(len(i), dtype=bool)
        for column in self.columns:
            dominator, row_values = column[j], column[i]
            if strict:
                verified &= dominator < row_values
            else:
                verified &= dominator <= row_values
                below |= dominator < row_values
        if not strict:
            verified &= below
        dead = np.zeros(end - start, dtype=bool)
        dead[row[verified]] = True
        return dead


def _dense_survivors(
    chunk: np.ndarray, window: np.ndarray, strict: bool
) -> np.ndarray:
    """Which ``chunk`` rows no window row and no earlier chunk row dominates.

    Rows the window eliminates are left out of the chunk's pairwise
    matrix, which is masked to its strict lower triangle.
    """
    alive = ~dominated_mask(chunk, window, strict)
    live = np.flatnonzero(alive)
    within = dominance_matrix(chunk[live], chunk[live], strict)
    within &= np.tri(len(live), k=-1, dtype=bool)
    alive[live] = ~within.any(axis=1)
    return alive


def _sorted_filter(
    rows: np.ndarray, strict: bool, block: Optional[int] = None
) -> np.ndarray:
    """SFS-style kept mask over monotone-sorted rows.

    ``strict`` selects extended-skyline semantics (drop only strictly
    dominated points).  Returns a boolean keep-mask in *sorted* order.

    Above ``2 ×`` :data:`REPRESENTATIVES` rows, every row a
    representative dominates is dropped first
    (:func:`_representative_survivors`).  Such rows are never kept, and
    every other dropped row still has a kept dominator earlier in the
    order, so the filter over the rest keeps the same set.

    Within a block, a row survives iff no kept row and no *earlier* row
    of the block dominates it.  That is the same set the sequential
    survivor-only sweep keeps: dominance is transitive and strictly
    decreases the monotone sort key, so any eliminated dominator is
    itself dominated by an earlier survivor.  Each block answers this
    one of two ways, chosen per block:

    * the dense window test (:func:`_dense_survivors`), about
      ``b·(|window| + b/2)·d`` comparisons for ``b`` rows;
    * the bitmap candidate test (:class:`_BinBitsets`): gather and AND
      one prefix bitset per column (``b·⌈end/64⌉·d`` words), then
      verify only the candidate pairs left.  Every dominator is a
      candidate, so it decides the same rows.

    The bitmap test runs when a try's fixed cost (:data:`TRY_COST`)
    plus its gather, priced at :data:`GATHER_COST` per word, and then
    its candidate pairs, at :data:`PAIR_COST` each (counted by a byte
    popcount), cost less than the dense work; a block whose pairs cost
    more ends it for the call.  The first try packs only the bitset
    words it reads; a second try packs the rest.  The dense test stays
    for the inputs whose bins do not separate the rows (duplicate-heavy
    columns, two dimensions): there the bitmap test alone verifies
    nearly every pair and runs 1.6–2.4x slower
    (``benchmarks/bench_sorted_filter.py``).
    """
    block = _block_size(block)
    keep = np.zeros(len(rows), dtype=bool)
    survivors = _representative_survivors(rows, strict, block)
    rows = rows[survivors]
    m, d = rows.shape
    kept = np.zeros(m, dtype=bool)
    kept_count = 0
    bitsets: Optional[_BinBitsets] = None
    bitmap = True
    for start in range(0, m, block):
        end = min(m, start + block)
        chunk = rows[start:end]
        dense_work = len(chunk) * (kept_count + len(chunk) / 2) * d
        alive: Optional[np.ndarray] = None
        price = TRY_COST + GATHER_COST * len(chunk) * _words(end) * d
        if bitmap and price < dense_work:
            if bitsets is None:
                bitsets = _BinBitsets(rows)
            found = bitsets.candidates(start, end, kept)
            # Every row is its own candidate; the gate leaves those out.
            pairs = int(_POPCOUNT[found[2].view(np.uint8)].sum()) - len(chunk)
            if PAIR_COST * pairs < dense_work:
                alive = ~bitsets.dominated(start, end, found, strict)
            else:
                bitmap = False
        if alive is None:
            alive = _dense_survivors(chunk, rows[:start][kept[:start]], strict)
        kept[start:end] = alive
        kept_count += np.count_nonzero(alive)
    keep[survivors[kept]] = True
    return keep


def _monotone_order(rows: np.ndarray) -> np.ndarray:
    return np.argsort(rows.sum(axis=1), kind="stable")


def _filtered_ids(
    data: np.ndarray, delta: int, strict: bool, block: Optional[int]
) -> np.ndarray:
    """Shared skyline/extended-skyline pipeline: project, rank, filter.

    Rank-encoding (:func:`repro.core.dominance.rank_columns`) preserves
    every per-column comparison while the filter streams 2-byte lanes;
    rank sums are as valid a monotone sort key as value sums (dominance
    still strictly decreases it).
    """
    dims = dims_of(delta)
    ranks = rank_columns(data[:, dims])
    order = _monotone_order(ranks)
    keep_sorted = _sorted_filter(ranks[order], strict=strict, block=block)
    return np.sort(order[keep_sorted])


def fast_skyline(
    data: np.ndarray,
    delta: Optional[int] = None,
    block: Optional[int] = None,
) -> np.ndarray:
    """Sorted ids of ``S_δ(data)``; vectorized, uninstrumented."""
    data, delta = _validated(data, delta)
    return _filtered_ids(data, delta, strict=False, block=block)


def fast_extended_skyline(
    data: np.ndarray,
    delta: Optional[int] = None,
    block: Optional[int] = None,
) -> np.ndarray:
    """Sorted ids of ``S+_δ(data)``; vectorized, uninstrumented."""
    data, delta = _validated(data, delta)
    return _filtered_ids(data, delta, strict=True, block=block)


def label_prefilter(
    data: np.ndarray,
    block: Optional[int] = None,
    counters: Optional[Counters] = None,
) -> Optional[np.ndarray]:
    """Boolean candidate mask covering ``S+(data)``, or ``None`` if gated.

    Octant-path dominance: each point's per-dimension octant index
    (:func:`repro.partitioning.static_tree.octant_matrix`) packs into a
    single int64 path key, 3 bits per dimension.  If an occupied path is
    strictly below another occupied path on *every* dimension, each of
    its points strictly dominates each point on the other path — octant
    index ``o(v)`` counts pivots ``<= v``, so ``o(u) < o(v)`` on a
    dimension forces ``u < v`` there.  Running the extended-skyline
    filter over *paths* therefore yields an exact superset of ``S+``
    while comparing at most ``#paths`` rows instead of ``n``.

    The pass is profitable only when paths collapse (clustered,
    correlated, or duplicate-heavy data); with near-distinct paths it
    degenerates into a second full filter.  Returns ``None`` without
    filtering when ``n`` is small, the 3-bit packing would overflow the
    key, or distinct paths exceed :data:`PREFILTER_MAX_PATHS` of ``n``.
    """
    n, d = data.shape
    if n < PREFILTER_MIN_ROWS or 3 * d > 62:
        return None
    index = octant_matrix(data)
    weights = np.int64(1) << (3 * np.arange(d, dtype=np.int64))
    keys = index.astype(np.int64) @ weights
    paths, inverse = np.unique(keys, return_inverse=True)
    if counters is not None:
        counters.label_bytes += index.nbytes + keys.nbytes
    if len(paths) > PREFILTER_MAX_PATHS * n:
        return None
    decoded = (paths[:, None] >> (3 * np.arange(d, dtype=np.int64))) & 7
    order = _monotone_order(decoded)
    keep_sorted = _sorted_filter(decoded[order], strict=True, block=block)
    alive = np.empty(len(paths), dtype=bool)
    alive[order] = keep_sorted
    mask = alive[inverse.reshape(-1)]
    if counters is not None:
        dropped = int(n - np.count_nonzero(mask))
        counters.extra["prefilter_dropped"] = (
            counters.extra.get("prefilter_dropped", 0) + dropped
        )
    return mask


def splus_ids_for_engine(
    data: np.ndarray,
    engine: str,
    block: Optional[int] = None,
    counters: Optional[Counters] = None,
) -> np.ndarray:
    """Sorted ``S+(data)`` ids, prefiltered for the filtered engine.

    ``engine="packed-filtered"`` first runs :func:`label_prefilter` and
    computes the exact extended skyline over the surviving candidates
    only; every other engine (and a gated-off prefilter) falls back to
    the plain :func:`fast_extended_skyline`.  The result is identical
    either way — the prefilter drops only strictly dominated points.
    """
    if engine == "packed-filtered":
        candidates = label_prefilter(data, block=block, counters=counters)
        if candidates is not None:
            ids = np.flatnonzero(candidates)
            keep = fast_extended_skyline(data[ids], block=block)
            return ids[keep]
    return fast_extended_skyline(data, block=block)


def fast_skycube(
    data: np.ndarray,
    max_level: Optional[int] = None,
    word_width: int = HashCube.DEFAULT_WORD_WIDTH,
    bit_order: str = "numeric",
    engine: str = "packed",
    block: Optional[int] = None,
    counters: Optional[Counters] = None,
) -> Skycube:
    """The exact skycube via the point-bitmask paradigm, vectorized.

    Follows MDMC's structure — restrict to ``S+(P)``, compute each
    point's ``B_{p∉S}`` from its distinct comparison-mask pairs, expand
    over the subspace lattice with closure rows — but with the
    per-point comparisons fully vectorized and no filtering tree.

    ``engine`` picks the sweep: ``"packed"`` (default) runs the
    :mod:`repro.engine.packed` uint64 path and bulk-loads the HashCube
    through :meth:`~repro.core.hashcube.HashCube.from_masks`;
    ``"packed-filtered"`` adds the static-tree label filter in front of
    both phases (see :func:`label_prefilter` and
    :class:`repro.engine.packed.FilteredPackedSweep`).  Both engines
    produce bit-identical cubes for either ``bit_order`` and every
    ``d`` up to :data:`repro.engine.packed.MAX_D`; a wider dataset
    raises :class:`ValueError`.

    ``counters``, when given, accumulates the filter-effectiveness
    tallies (``pairs_pruned`` / ``leaves_skipped`` / ``label_bytes`` and
    the ``prefilter_dropped`` extra); the vectorized kernels record no
    per-operation counts.
    """
    data, _ = _validated(data, None)
    d = data.shape[1]
    packed.check_d(d)
    if max_level is not None and not 1 <= max_level <= d:
        raise ValueError(f"max_level must be in [1, {d}], got {max_level}")
    if engine not in SKYCUBE_ENGINES:
        raise ValueError(
            f"engine must be one of {SKYCUBE_ENGINES}, got {engine!r}"
        )
    splus = splus_ids_for_engine(data, engine, block=block, counters=counters)
    rows = np.ascontiguousarray(data[splus])
    if engine == "packed-filtered":
        mask_rows = packed.filtered_point_masks(
            rows, block=block, counters=counters
        )
    else:
        mask_rows = packed.packed_point_masks(rows, block=block)
    if max_level is not None and max_level < d:
        mask_rows |= packed.unmaterialised_row(d, max_level)
    cube = HashCube.from_masks(
        d, splus, mask_rows, word_width=word_width, bit_order=bit_order
    )
    return Skycube(cube, data=data, max_level=max_level)
