"""Packed-bitset engine: bit-identity with the reference MDMC paradigm.

Covers the :mod:`repro.engine.packed` word layout and closure rows,
the :class:`repro.core.dominance.PairCoder` comparison codes, the
``engine="packed"`` fast path of ``fast_skycube`` (against the
per-point ``SubspaceClosures`` fold and the brute-force oracle),
``HashCube.from_masks`` validation, and the packed composition with
the process executor.
"""

import numpy as np
import pytest

from repro.core.closures import SubspaceClosures
from repro.core.dominance import (
    PairCoder,
    comparison_masks,
    decode_codes,
    dominance_masks_vs_all,
    dominance_pair_codes,
    rank_columns,
)
from repro.core.hashcube import HashCube
from repro.core.skyline import skyline_indices
from repro.core.verify import brute_force_skycube
from repro.data.generator import generate
from repro.engine import packed
from repro.engine.kernels import (
    SKYCUBE_ENGINES,
    fast_extended_skyline,
    fast_skycube,
)
from repro.engine.parallel import (
    ParallelExecutor,
    parallel_filtered_packed_masks,
    parallel_packed_masks,
)
from repro.instrument.counters import Counters
from repro.partitioning.static_tree import LeafLabels


DISTRIBUTIONS = ("anticorrelated", "independent", "correlated")


def tied_case(dist, d):
    """One seeded case with exact duplicate rows and a per-dimension tie."""
    data = generate(dist, 120, d, seed=11 + d)
    data = np.vstack([data, data[:15]])  # exact duplicates
    data[40, 0] = data[41, 0]  # per-dimension tie
    return (f"{dist[:1]}-d{d}", data)


def seeded_workloads():
    """Seeded A/I/C datasets, d in {2, 3, 5, 8}, with duplicate and tied
    rows, plus a duplicate-heavy d = 4 case."""
    cases = [tied_case(dist, d) for dist in DISTRIBUTIONS for d in (2, 3, 5, 8)]
    cases.append(
        ("dup-d4", generate("independent", 90, 4, seed=5, distinct_values=3))
    )
    return cases


def oracle_workloads():
    """:func:`seeded_workloads` plus A/I/C at d = 4, 6 and 7, so the
    engine oracles see every d in 2..8."""
    extra = [tied_case(dist, d) for dist in DISTRIBUTIONS for d in (4, 6, 7)]
    return seeded_workloads() + extra


@pytest.fixture(params=seeded_workloads(), ids=lambda case: case[0])
def packed_workload(request):
    return request.param[1]


@pytest.fixture(params=oracle_workloads(), ids=lambda case: case[0])
def oracle_workload(request):
    return request.param[1]


def fold_masks(rows):
    """Per-point ``SubspaceClosures`` fold of each row's distinct pairs.

    The big-int reference for the packed sweep: ``B_{p∉S}`` of every row
    of ``rows`` against all of ``rows``.
    """
    closures = SubspaceClosures(rows.shape[1])
    masks = []
    for j in range(len(rows)):
        le, _, eq = dominance_masks_vs_all(rows, rows[j])
        mask = 0
        for pair in set(zip(le.tolist(), eq.tolist())):
            if pair[0]:
                mask |= closures.dominated_update(pair[0], pair[1])
        masks.append(mask)
    return masks


def fold_cube(data, max_level=None, bit_order="numeric"):
    """The reference HashCube: every point inserted by its folded mask."""
    d = data.shape[1]
    unmaterialised = packed.row_to_int(packed.unmaterialised_row(d, max_level))
    cube = HashCube(d, bit_order=bit_order)
    for pid, mask in enumerate(fold_masks(np.asarray(data))):
        cube.insert(pid, mask | unmaterialised)
    return cube


# -- word layout and closure table -------------------------------------


def test_words_for_matches_subspace_count():
    assert packed.words_for(1) == 1
    assert packed.words_for(6) == 1  # 63 bits
    assert packed.words_for(7) == 2  # 127 bits
    assert packed.words_for(8) == 4
    with pytest.raises(ValueError):
        packed.words_for(0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 10])
def test_closure_table_equals_subspace_closures(d):
    table = packed.closure_table(d)
    closures = SubspaceClosures(d)
    assert table.shape == (1 << d, packed.words_for(d))
    for mask in range(1 << d):
        assert packed.row_to_int(table[mask]) == closures.closure(mask), mask


def dp_closure_table(d):
    """The submask DP grouped on the lowest set bit: an independent
    construction of the dense table.

    With ``b = lowbit(m)`` and ``r = m ^ b``, ``closure(m) = closure(r)
    | (closure(r) << b) | bit(b - 1)``.
    """
    table = [0] * (1 << d)
    for m in range(1, 1 << d):
        b = m & -m
        r = table[m ^ b]
        table[m] = r | (r << b) | (1 << (b - 1))
    return table


def test_closure_rows_match_dp_table_and_subspace_closures():
    for d in range(1, packed.PACKED_MAX_D + 1):
        table = packed.closure_table(d)
        masks = np.arange(1 << d)
        assert np.array_equal(packed.closure_rows(masks, d), table)
        assert packed.rows_to_ints(table) == dp_closure_table(d), d
    rng = np.random.default_rng(15)
    for d in (15, 16):
        closures = SubspaceClosures(d)
        full = (1 << d) - 1
        masks = np.concatenate([
            [0, 1, full, full ^ 1, 1 << (d - 1), 0b111111],
            rng.integers(0, 1 << d, 24),
        ])
        masks = masks[np.argsort(rng.random(len(masks)))]
        rows = packed.closure_rows(masks.reshape(5, 6), d)
        assert rows.shape == (5, 6, packed.words_for(d))
        for mask, row in zip(masks, rows.reshape(-1, packed.words_for(d))):
            assert packed.row_to_int(row) == closures.closure(int(mask))


def test_closure_table_cached_and_readonly():
    table = packed.closure_table(5)
    assert packed.closure_table(5) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        packed.closure_table(packed.PACKED_MAX_D + 1)


@pytest.mark.parametrize("d", [3, 6, 8])
def test_row_int_round_trip(d):
    rng = np.random.default_rng(d)
    mask = int(rng.integers(0, 1 << min(60, (1 << d) - 1)))
    row = packed.row_from_int(mask, d)
    assert packed.row_to_int(row) == mask
    assert packed.rows_to_ints(row[None, :]) == [mask]
    with pytest.raises(ValueError):
        packed.row_from_int(1 << ((1 << d) - 1), d)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_relevant_row_matches_popcount_filter(d):
    from repro.core.bitmask import popcount

    for max_level in (None, 1, d - 1, d):
        row = packed.relevant_row(d, max_level)
        expected = 0
        for delta in range(1, 1 << d):
            if max_level is None or popcount(delta) <= max_level:
                expected |= 1 << (delta - 1)
        assert packed.row_to_int(row) == expected, max_level
        unmat = packed.row_to_int(packed.unmaterialised_row(d, max_level))
        assert unmat == ((1 << ((1 << d) - 1)) - 1) & ~expected


# -- comparison codes ---------------------------------------------------


def test_rank_columns_preserves_column_order(packed_workload):
    data = packed_workload
    ranks = rank_columns(data)
    assert ranks.dtype == np.uint16
    for k in range(data.shape[1]):
        order = np.argsort(data[:, k], kind="stable")
        col, rank = data[order, k], ranks[order, k]
        assert np.all(np.diff(rank) >= 0)
        assert np.array_equal(np.diff(col) > 0, np.diff(rank) > 0)


def coder_codes(coder, start, end, cols=None):
    """``coder.keys`` without the block-row offsets, as int64."""
    offsets = np.arange(end - start)[:, None] * 3**coder.d
    return coder.keys(start, end, cols).astype(np.int64) - offsets


def test_pair_coder_matches_reference_codes(packed_workload):
    data = packed_workload
    coder = PairCoder(data)
    reference = dominance_pair_codes(data, data[10:40])
    assert np.array_equal(coder_codes(coder, 10, 40), reference)


def test_pair_coder_validation():
    with pytest.raises(ValueError):
        PairCoder(np.empty((0, 3)))
    with pytest.raises(ValueError):
        PairCoder(np.zeros((4, 17)))
    coder = PairCoder(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        coder.keys(2, 2)
    with pytest.raises(ValueError):
        coder.keys(0, 5)


def test_pair_coder_dense_eq_fallback():
    # A balanced three-valued column forces the dense == sweep for it:
    # leaving out its most frequent value still leaves two heavy ones.
    rng = np.random.default_rng(0)
    data = np.column_stack(
        [rng.permutation(np.arange(400) % 3).astype(float), rng.random(400)]
    )
    coder = PairCoder(data)
    assert not coder._sparse_eq[0] and coder._sparse_eq[1]
    assert (coder._mode == -1).all()
    reference = dominance_pair_codes(data, data[:50])
    assert np.array_equal(coder_codes(coder, 0, 50), reference)


#: Every d the base-3 code paths branch on: one and several uint8
#: digit chunks, the cached fold table's limit (10), presence-table
#: dedup's new reach (11), a sort (12) and the widest code (16).
CODE_DIMS = (1, 2, 5, 8, 9, 10, 11, 12, 16)

#: Column shape -> (sparse ``==``, indicator row for one value).
CODE_SHAPES = {
    "distinct": (True, False),
    "three": (False, False),
    "clipped": (True, True),
}


def shaped_columns(shape, n, d, seed):
    """``n × d`` data whose every column takes one equality path of the
    coder: all distinct, three balanced values (dense ``==``), or one
    value in 28% of rows (like the clipped zeros of a correlated S+)."""
    rng = np.random.default_rng(seed)
    if shape == "distinct":
        return rng.random((n, d))
    if shape == "three":
        columns = [rng.permutation(np.arange(n) % 3) for _ in range(d)]
        return np.stack(columns, axis=1).astype(float)
    data = rng.random((n, d))
    for k in range(d):
        data[rng.choice(n, 28 * n // 100, replace=False), k] = 0.0
    return data


@pytest.mark.parametrize("shape", sorted(CODE_SHAPES))
@pytest.mark.parametrize("d", CODE_DIMS)
def test_one_base3_code_format(shape, d):
    n = 1000
    data = shaped_columns(shape, n, d, seed=d)
    coder = PairCoder(data)
    sparse, indicator = CODE_SHAPES[shape]
    assert (coder._sparse_eq == sparse).all()
    assert ((coder._mode >= 0) == indicator).all()
    cols = np.random.default_rng(d).choice(n, 200, replace=False)
    # 120 rows at d = 16 need 64-bit keys.
    for start, end in ((300, 340), (0, 120)):
        reference = dominance_pair_codes(data, data[start:end])
        assert 0 <= reference.min() and reference.max() < 3**d
        assert np.array_equal(coder_codes(coder, start, end), reference)
        assert np.array_equal(
            coder_codes(coder, start, end, cols),
            dominance_pair_codes(data[cols], data[start:end]),
        )
        le, eq = decode_codes(reference, d)
        for i in range(end - start):
            le_i, _, eq_i = dominance_masks_vs_all(data, data[start + i])
            assert np.array_equal(le[i], le_i) and np.array_equal(eq[i], eq_i)
        for i, j in ((0, 0), (1, 7), (end - start - 1, n - 1), (5, start + 5)):
            masks = comparison_masks(data[j], data[start + i])
            assert (int(le[i, j]), int(eq[i, j])) == (masks[0], masks[2])
    keys = coder.keys(0, 120)
    assert keys.dtype == (np.uint64 if 120 * 3**d > 1 << 32 else np.uint32)


@pytest.mark.parametrize("d", range(1, packed.TERNARY_MAX_D + 1))
def test_ternary_table_equals_closure_pairs(d):
    table = packed.ternary_table(d)
    assert table.shape == (3**d, packed.words_for(d))
    assert packed.ternary_table(d) is table and not table.flags.writeable
    le, eq = decode_codes(np.arange(3**d), d)
    closures = SubspaceClosures(d)
    rng = np.random.default_rng(d)
    sample = range(3**d) if d <= 6 else rng.integers(0, 3**d, 200)
    for t in sample:
        expected = closures.dominated_update(int(le[t]), int(eq[t]))
        assert packed.row_to_int(table[t]) == expected, t
    closure = packed.closure_table(d)
    assert np.array_equal(table, closure[le] & ~closure[eq])
    assert np.array_equal(packed.ternary_rows(np.arange(3**d), d), table)


@pytest.mark.parametrize("d", [11, 12, 14, 16])
def test_ternary_rows_decode_above_the_table(d):
    with pytest.raises(ValueError):
        packed.ternary_table(d)
    ones = sum(3**k for k in range(d))  # better everywhere, no tie
    rng = np.random.default_rng(d)
    codes = np.concatenate(
        [[0, 1, 2, ones, 3**d - 1, 3**d // 2], rng.integers(0, 3**d, 24)]
    )
    rows = packed.ternary_rows(codes, d)
    assert rows.shape == (len(codes), packed.words_for(d))
    le, eq = decode_codes(codes, d)
    closures = SubspaceClosures(d)
    for row, le_t, eq_t in zip(rows, le.tolist(), eq.tolist()):
        assert packed.row_to_int(row) == closures.dominated_update(le_t, eq_t)


@pytest.mark.parametrize("d", [1, 8, 10, 11, 12, 16])
def test_fold_rows_match_per_code_rows(d, monkeypatch):
    # Tied and untied pairs mixed, and one row (3) without codes.
    rng = np.random.default_rng(d)
    digits = rng.choice(3, size=(300, d), p=[0.45, 0.45, 0.1])
    codes = np.unique(digits @ 3 ** np.arange(d))
    row_of = np.sort(rng.choice([0, 1, 2, 4, 5, 6], len(codes)))
    rows = packed.ternary_rows(codes, d)
    expected = np.zeros((7, packed.words_for(d)), dtype=np.uint64)
    for row, contribution in zip(row_of, rows):
        expected[row] |= contribution
    assert np.array_equal(packed.fold_rows(row_of, codes, 7, d), expected)
    # Gathers in slices of one code fold the same rows.
    monkeypatch.setattr(packed, "_GATHER_WORDS", 1)
    assert np.array_equal(packed.fold_rows(row_of, codes, 7, d), expected)
    closures = SubspaceClosures(d)
    le, eq = decode_codes(codes[row_of == 0], d)
    folded = 0
    for le_t, eq_t in zip(le.tolist(), eq.tolist()):
        folded |= closures.dominated_update(le_t, eq_t)
    assert packed.row_to_int(expected[0]) == folded


# -- packed point masks -------------------------------------------------


def test_packed_masks_match_loop_pairs(packed_workload):
    data = packed_workload
    splus = fast_extended_skyline(data)
    rows = np.ascontiguousarray(data[splus])
    masks = packed.packed_point_masks(rows)
    for j, expected in enumerate(fold_masks(rows)):
        assert packed.row_to_int(masks[j]) == expected, j


def test_block_masks_one_shot_matches_sweep():
    data = generate("independent", 50, 3, seed=2)
    splus = fast_extended_skyline(data)
    rows = np.ascontiguousarray(data[splus])
    whole = packed.packed_point_masks(rows)
    assert np.array_equal(packed.block_masks(rows, 3, 11), whole[3:11])
    with pytest.raises(ValueError):
        packed.block_masks(rows, 5, 5)


def test_packed_sweep_range_equals_whole():
    data = generate("anticorrelated", 140, 4, seed=9)
    splus = fast_extended_skyline(data)
    rows = np.ascontiguousarray(data[splus])
    whole = packed.packed_point_masks(rows, block=32)
    sweep = packed.PackedSweep(rows, block=16)
    stitched = np.vstack(
        [sweep.range_masks(0, 7), sweep.range_masks(7, len(rows))]
    )
    assert np.array_equal(whole, stitched)


# -- fast_skycube engines ----------------------------------------------


def test_engines_and_oracle_agree(oracle_workload):
    data = oracle_workload
    cube_packed = fast_skycube(data, engine="packed")
    assert cube_packed.store == fold_cube(data)
    assert cube_packed == brute_force_skycube(data)
    assert fast_skycube(data, engine="packed-filtered").store == cube_packed.store


@pytest.mark.parametrize("bit_order", ["numeric", "level"])
def test_engines_agree_across_bit_orders(bit_order):
    data = generate("anticorrelated", 130, 5, seed=21)
    data = np.vstack([data, data[:10]])
    a = fast_skycube(data, engine="packed", bit_order=bit_order)
    assert a.store == fold_cube(data, bit_order=bit_order)


@pytest.mark.parametrize("max_level", [1, 2, 3])
def test_engines_agree_on_partial_cubes(max_level):
    data = generate("independent", 110, 4, seed=31)
    a = fast_skycube(data, max_level=max_level, engine="packed")
    assert a.store == fold_cube(data, max_level=max_level)
    full = fast_skycube(data, engine="packed")
    for delta in range(1, 1 << 4):
        if bin(delta).count("1") <= max_level:
            assert list(a.skyline(delta)) == list(full.skyline(delta))


def test_engine_knob_validation():
    data = generate("independent", 30, 3, seed=1)
    assert SKYCUBE_ENGINES == ("packed", "packed-filtered")
    with pytest.raises(ValueError):
        fast_skycube(data, engine="simd")
    with pytest.raises(ValueError):
        fast_skycube(data, engine="loop")
    wide = generate("independent", 20, packed.MAX_D + 1, seed=1)
    for engine in SKYCUBE_ENGINES:
        with pytest.raises(ValueError, match=r"d must be in \[1, 16\]"):
            fast_skycube(wide, engine=engine)


def test_block_keyword():
    data = generate("anticorrelated", 90, 3, seed=4)
    base = fast_skycube(data)
    assert fast_skycube(data, block=7).store == base.store
    with pytest.raises(ValueError):
        fast_skycube(data, block=0)


# -- filtered packed engine --------------------------------------------


def test_filtered_engine_matches_packed(packed_workload):
    data = packed_workload
    reference = fast_skycube(data, engine="packed")
    counters = Counters()
    filtered = fast_skycube(data, engine="packed-filtered", counters=counters)
    assert filtered.store == reference.store
    assert counters.pairs_pruned >= 0 and counters.label_bytes >= 0


@pytest.mark.parametrize("bit_order", ["numeric", "level"])
@pytest.mark.parametrize("max_level", [None, 1, 3])
def test_filtered_engine_bit_orders_and_partial_cubes(bit_order, max_level):
    data = generate("anticorrelated", 130, 5, seed=21)
    data = np.vstack([data, data[:10]])
    a = fast_skycube(
        data, engine="packed", bit_order=bit_order, max_level=max_level
    )
    b = fast_skycube(
        data,
        engine="packed-filtered",
        bit_order=bit_order,
        max_level=max_level,
    )
    assert a.store == b.store


def test_filtered_point_masks_match_packed(oracle_workload):
    data = oracle_workload
    splus = fast_extended_skyline(data)
    rows = np.ascontiguousarray(data[splus])
    expected = packed.packed_point_masks(rows)
    got = packed.filtered_point_masks(rows, counters=Counters())
    assert np.array_equal(expected, got)


def test_forced_filter_stays_bit_identical(packed_workload):
    # The adaptive gates usually disable the node filter on extended-
    # skyline rows; force it on so the skip/subset-coding path itself
    # is exercised on every workload shape.
    data = packed_workload
    splus = fast_extended_skyline(data)
    rows = np.ascontiguousarray(data[splus])
    labels = LeafLabels.build(rows)
    ordered = np.ascontiguousarray(rows[labels.order])
    expected = packed.packed_point_masks(ordered, block=32)
    sweep = packed.FilteredPackedSweep(ordered, labels, block=32)
    sweep.filter_active = True
    sweep.MIN_PRUNE_RATE = -1.0  # never self-disable
    assert np.array_equal(sweep.range_masks(0, sweep.n), expected)


def test_filter_bits_are_subset_of_final_masks(packed_workload):
    # Property: every bit the label filter sets must appear in the
    # exact result — filtering is evidence, never guesswork.
    data = packed_workload
    splus = fast_extended_skyline(data)
    rows = np.ascontiguousarray(data[splus])
    labels = LeafLabels.build(rows)
    ordered = np.ascontiguousarray(rows[labels.order])
    final = packed.packed_point_masks(ordered)
    sweep = packed.FilteredPackedSweep(ordered, labels, block=16)
    for start in range(0, sweep.n, 16):
        end = min(sweep.n, start + 16)
        filtered = sweep.filter_rows(start, end)
        assert not np.any(filtered & ~final[start:end])


def test_filtered_sweep_validates_labels():
    data = generate("independent", 60, 3, seed=8)
    rows = np.ascontiguousarray(data[fast_extended_skyline(data)])
    labels = LeafLabels.build(rows)
    with pytest.raises(ValueError):
        packed.FilteredPackedSweep(rows[:-1], labels)
    wrong_k = generate("independent", len(rows), 4, seed=8)
    with pytest.raises(ValueError):
        packed.FilteredPackedSweep(wrong_k, labels)


def test_label_prefilter_covers_splus(monkeypatch):
    from repro.engine import kernels

    monkeypatch.setattr(kernels, "PREFILTER_MIN_ROWS", 0)
    for dist in ("correlated", "independent"):
        data = generate(dist, 400, 4, seed=3, distinct_values=4)
        mask = kernels.label_prefilter(data)
        splus = fast_extended_skyline(data)
        if mask is not None:
            assert mask[splus].all()  # never drops an S+ point
        assert np.array_equal(
            kernels.splus_ids_for_engine(data, "packed-filtered"), splus
        )


def test_label_prefilter_gates():
    from repro.engine import kernels

    small = generate("correlated", 64, 3, seed=1)
    assert kernels.label_prefilter(small) is None  # below MIN_ROWS
    wide = generate("correlated", 600, 21, seed=1)
    assert kernels.label_prefilter(wide) is None  # 3*d > 62 bits


# -- HashCube.from_masks ------------------------------------------------


def test_from_masks_equals_insert_loop(packed_workload):
    data = packed_workload
    d = data.shape[1]
    splus = fast_extended_skyline(data)
    rows = np.ascontiguousarray(data[splus])
    mask_rows = packed.packed_point_masks(rows)
    bulk = HashCube.from_masks(d, splus, mask_rows)
    loop = HashCube(d)
    for pid, row in zip(splus, mask_rows):
        loop.insert(int(pid), packed.row_to_int(row))
    assert bulk == loop


def test_from_masks_validation_errors():
    d = 3
    words = packed.words_for(d)
    ids = np.arange(4, dtype=np.int64)
    rows = np.zeros((4, words), dtype=np.uint64)
    with pytest.raises(ValueError):
        HashCube.from_masks(d, ids, rows.astype(np.int64))  # wrong dtype
    with pytest.raises(ValueError):
        HashCube.from_masks(d, ids, np.zeros((4, words + 1), np.uint64))
    with pytest.raises(ValueError):
        HashCube.from_masks(d, ids[:3], rows)  # id/row count mismatch
    with pytest.raises(ValueError):
        HashCube.from_masks(d, np.array([0, 1, 2, -1]), rows)
    with pytest.raises(ValueError):
        HashCube.from_masks(d, np.array([0, 1, 2, 2]), rows)  # duplicate id
    junk = rows.copy()
    junk[0, 0] = np.uint64(1) << np.uint64((1 << d) - 1)  # beyond 2^d - 1
    with pytest.raises(ValueError):
        HashCube.from_masks(d, ids, junk)


# -- executor composition ----------------------------------------------


def test_parallel_packed_masks_match_serial(packed_workload):
    data = packed_workload
    splus = fast_extended_skyline(data)
    rows = np.ascontiguousarray(data[splus])
    serial = packed.packed_point_masks(rows)
    executor = ParallelExecutor(workers=1)  # deterministic serial fallback
    parallel = parallel_packed_masks(rows, executor, block=17)
    assert np.array_equal(serial, parallel)


def test_mdmc_process_backend_uses_packed_path():
    from repro.templates import MDMC

    data = generate("anticorrelated", 150, 4, seed=13)
    data = np.vstack([data, data[:12]])
    reference = MDMC().materialise(data).skycube
    processed = MDMC(executor="process").materialise(data).skycube
    assert processed == reference
    partial_ref = MDMC().materialise(data, max_level=2).skycube
    partial = MDMC(executor="process").materialise(data, max_level=2).skycube
    assert partial.store == partial_ref.store


def test_parallel_filtered_masks_match_serial(packed_workload):
    data = packed_workload
    splus = fast_extended_skyline(data)
    rows = np.ascontiguousarray(data[splus])
    serial = packed.packed_point_masks(rows)
    executor = ParallelExecutor(workers=1)  # deterministic serial fallback
    counters = Counters()
    parallel = parallel_filtered_packed_masks(
        rows, executor, block=17, counters=counters
    )
    assert np.array_equal(serial, parallel)


def test_parallel_filtered_masks_on_real_pool():
    data = generate("independent", 300, 4, seed=5, distinct_values=3)
    splus = fast_extended_skyline(data)
    rows = np.ascontiguousarray(data[splus])
    serial = packed.packed_point_masks(rows)
    counters = Counters()
    parallel = parallel_filtered_packed_masks(
        rows, ParallelExecutor(workers=2), block=64, counters=counters
    )
    assert np.array_equal(serial, parallel)
    assert counters.label_bytes > 0  # coarse directory: filter active


@pytest.mark.parametrize("engine", SKYCUBE_ENGINES)
def test_mdmc_engine_override_serial_and_process(engine):
    from repro.templates import MDMC

    data = generate("correlated", 140, 4, seed=17)
    data = np.vstack([data, data[:10]])
    reference = MDMC().materialise(data).skycube
    serial = MDMC(engine=engine).materialise(data).skycube
    assert serial.store == reference.store
    processed = MDMC(executor="process", engine=engine).materialise(data)
    assert processed.skycube.store == reference.store
    partial_ref = MDMC().materialise(data, max_level=2).skycube
    partial = MDMC(engine=engine).materialise(data, max_level=2).skycube
    assert partial.store == partial_ref.store


def test_mdmc_engine_validation():
    from repro.templates import MDMC

    with pytest.raises(ValueError):
        MDMC(engine="simd")
    wide = generate("independent", 25, packed.MAX_D + 1, seed=2)
    for template in (
        MDMC(),
        MDMC(engine="packed"),
        MDMC(executor="process", engine="packed-filtered"),
    ):
        with pytest.raises(ValueError, match=r"d must be in \[1, 16\]"):
            template.materialise(wide)


# -- above the dense closure table: d = 15 and 16 ----------------------


def wide_workloads():
    """A/I/C at d = 15 and 16, with exact duplicates and a tie."""
    cases = []
    for dist, n, d in (
        ("anticorrelated", 24, 15),
        ("independent", 24, 16),
        ("correlated", 60, 15),
        ("correlated", 60, 16),
    ):
        data = generate(dist, n, d, seed=d)
        data = np.vstack([data, data[:4]])  # exact duplicates
        data[5, 0] = data[6, 0]  # per-dimension tie
        cases.append((f"{dist[:1]}-d{d}", data))
    return cases


def sampled_subspaces(d, max_level=None):
    rng = np.random.default_rng(d)
    deltas = [(1 << d) - 1] + [1 << k for k in range(d)]
    deltas += [int(delta) for delta in rng.integers(1, 1 << d, 12)]
    if max_level is not None:
        deltas = [delta for delta in deltas if bin(delta).count("1") <= max_level]
    return deltas


def assert_matches_fold(cube, data, max_level=None):
    d = data.shape[1]
    unmaterialised = packed.row_to_int(packed.unmaterialised_row(d, max_level))
    for pid, mask in enumerate(fold_masks(data)):
        assert cube.store.membership_mask(pid) == mask | unmaterialised, pid
    for delta in sampled_subspaces(d, max_level):
        assert list(cube.skyline(delta)) == skyline_indices(data, delta), delta


@pytest.mark.parametrize("case", wide_workloads(), ids=lambda case: case[0])
def test_wide_skycubes_match_fold_and_naive_skylines(case):
    from repro.templates import MDMC

    data = case[1]
    cube = fast_skycube(data)
    assert_matches_fold(cube, data)
    filtered = fast_skycube(data, engine="packed-filtered")
    process = MDMC(executor="process", workers=2).materialise(data).skycube
    for pid in range(len(data)):
        expected = cube.store.membership_mask(pid)
        assert filtered.store.membership_mask(pid) == expected, pid
        assert process.store.membership_mask(pid) == expected, pid


def test_wide_partial_cube():
    from repro.serve.snapshot import ServingSnapshot

    data = wide_workloads()[0][1]
    cube = fast_skycube(data, max_level=3)
    assert_matches_fold(cube, data, max_level=3)
    snapshot = ServingSnapshot.build(data, max_level=3)
    for delta in sampled_subspaces(data.shape[1]):
        # Above max_level the snapshot answers with the ad-hoc kernels.
        assert list(snapshot.skyline(delta)) == skyline_indices(data, delta)


def test_d17_rejected_with_the_one_limit():
    from repro.core.maintain import SkycubeMaintainer
    from repro.serve.snapshot import LiveUpdater, ServingSnapshot

    wide = generate("independent", 12, packed.MAX_D + 1, seed=17)
    limit = r"d must be in \[1, 16\] \(comparison codes"
    for build in (
        lambda: SkycubeMaintainer(wide),
        lambda: SkycubeMaintainer(d=packed.MAX_D + 1),
        lambda: ServingSnapshot.build(wide),
        lambda: LiveUpdater.bootstrap(wide),
        lambda: packed.PackedSweep(wide),
    ):
        with pytest.raises(ValueError, match=limit):
            build()
