"""Oracle suite for the shared sorted filter of :mod:`repro.engine.kernels`.

``fast_skyline`` (Definition 1) and ``fast_extended_skyline`` (strict
dominance) both run ``_sorted_filter``: a representative pass, then a
block loop that decides each block by the dense window test or by the
bitmap candidate test.  Every case here is checked against a
brute-force all-pairs oracle on A/I/C data with exact duplicates, ties
on some dimensions only and rows equal to a representative, on both
sides of the pass's size gate (``2 × REPRESENTATIVES`` rows), past
1,024 rows (ranks whose bins overflow 16 bits), with collapsed columns
(one value, three values) and for block sizes that split the input
differently; each case runs with the block gate as shipped and with it
forced to send every block down one path.  The same filter backs
``label_prefilter``'s path-level pass, which is checked too, and the
S+ filter must stay reachable through its module attribute.

``dynamic_topk`` runs its own early-stop scan in distance order and
falls back to ``fast_skyline`` past its caps; it is checked against a
brute-force rank with its caps shrunk so that every branch runs.
"""

import math
from unittest import mock

import numpy as np
import pytest

from repro.core.bitmask import dims_of, full_space
from repro.core.dominance import rank_columns
from repro.core.maintain import SkycubeMaintainer
from repro.data.generator import generate
from repro.engine import kernels
from repro.engine.kernels import (
    REPRESENTATIVES,
    fast_extended_skyline,
    fast_skycube,
    fast_skyline,
    label_prefilter,
)
from repro.instrument.counters import Counters
from repro.query import dynamic
from repro.query.dynamic import dynamic_topk, dynamic_transform

R = REPRESENTATIVES
SIZES = (1, 2 * R, 2 * R + 1, 300)
#: Ranks reach 1,024 (``rank * BINS`` overflows uint16) and the input
#: spans several default 512-row blocks.
LARGE = (1_025, 3_000)
DIMS = (1, 2, 5, 8, 16)
DISTS = ("anticorrelated", "independent", "correlated")


def brute_force(data, delta, strict):
    """Sorted ids no row dominates in ``delta``, by all-pairs test."""
    x = np.asarray(data, dtype=np.float64)[:, dims_of(delta)]
    dominated = np.empty(len(x), dtype=bool)
    for start in range(0, len(x), 256):
        chunk = x[start:start + 256, None, :]
        # [i, j, k]: row j is below chunk row i on dimension k.
        below = x[None, :, :] < chunk
        if strict:
            hit = below.all(axis=2)
        else:
            hit = (x[None, :, :] <= chunk).all(axis=2) & below.any(axis=2)
        dominated[start:start + 256] = hit.any(axis=1)
    return np.flatnonzero(~dominated)


def hard_case(dist, n, d, seed):
    """``n`` rows with duplicates, partial ties and representative copies.

    Column 0 is snapped to a third-grid on every other row (ties on that
    dimension only), a few rows repeat earlier ones exactly, and the
    rows of lowest rank sum and lowest maximum rank — the filter's
    representatives in the full space — are copied over later rows.
    """
    data = generate(dist, n, d, seed=seed)
    if n < 4:
        return data
    data[::2, 0] = np.round(data[::2, 0] * 3) / 3
    data[n // 2:n // 2 + 3] = data[1:4]
    ranks = rank_columns(data).astype(np.int64)
    by_sum = np.argsort(ranks.sum(axis=1), kind="stable")
    by_max = np.argsort(ranks.max(axis=1), kind="stable")
    data[-1] = data[by_sum[0]]
    data[-2] = data[by_max[0]]
    data[-3] = data[by_sum[1]]
    return data


def subspaces(d, seed):
    gen = np.random.default_rng(seed)
    picks = {full_space(d), 1, int(gen.integers(1, full_space(d) + 1))}
    return sorted(picks)


def collapse(data):
    """Column 0 to three values and, from three dimensions on, the last
    column to one: their bins collapse.  No row strictly dominates
    another on a one-valued column, so S+ meets real dominance only in
    subspaces that leave it out."""
    data[:, 0] = np.round(data[:, 0] * 2) / 2
    if data.shape[1] >= 3:
        data[:, -1] = 0.5
    return data


#: Gate settings that send every block of the sorted filter down one
#: path: the bitmap candidate test (free tries, gather and pairs) or the
#: dense window test.
FORCED = {
    "bitmap": {"GATHER_COST": 0, "PAIR_COST": 0, "TRY_COST": 0},
    "dense": {"GATHER_COST": math.inf},
}


@pytest.fixture
def path_calls(monkeypatch):
    """Counts the sorted filter's bitmap tries and the blocks each of
    its paths decides."""
    calls = {"tries": 0, "bitmap": 0, "dense": 0}

    def counted(key, helper):
        def spy(*args):
            calls[key] += 1
            return helper(*args)
        return spy

    bitsets = kernels._BinBitsets
    monkeypatch.setattr(
        kernels, "_dense_survivors", counted("dense", kernels._dense_survivors)
    )
    monkeypatch.setattr(bitsets, "candidates", counted("tries", bitsets.candidates))
    monkeypatch.setattr(bitsets, "dominated", counted("bitmap", bitsets.dominated))
    return calls


CASES = [
    pytest.param(dist, d, n, False, id=f"{dist[:1]}-d{d}-n{n}")
    for dist in DISTS
    for d in DIMS
    for n in SIZES + LARGE
] + [
    pytest.param(dist, d, n, True, id=f"{dist[:1]}-d{d}-n{n}-collapsed")
    for dist in DISTS
    for d in (1, 2, 8)
    for n in (300, 1_025)
]


def blocks_for(n, path):
    """One-row blocks only on the small inputs, and on 300 rows only
    through the shipped gate; 64-row blocks past 300 rows."""
    if n > 300:
        return (None, 64)
    if path is not None and n > 2 * R + 1:
        return (None, 7)
    return (None, 1, 7)


@pytest.mark.parametrize("dist,d,n,collapsed", CASES)
def test_filters_match_brute_force(dist, d, n, collapsed, monkeypatch, path_calls):
    data = hard_case(dist, n, d, seed=n + 17 * d)
    deltas = subspaces(d, seed=n + d)
    if n > 300:
        # The full space and one proper subspace.
        proper = [delta for delta in deltas if delta != full_space(d)]
        deltas = [full_space(d)] + proper[-1:]
    if collapsed:
        collapse(data)
        if d >= 3:
            # Every dimension but the one-valued last one.
            deltas = [full_space(d), full_space(d - 1)]
    for delta in deltas:
        skyline = brute_force(data, delta, strict=False)
        extended = brute_force(data, delta, strict=True)
        for path in (None, *FORCED):
            with monkeypatch.context() as gate:
                for name, value in FORCED.get(path, {}).items():
                    gate.setattr(kernels, name, value)
                path_calls.update(tries=0, bitmap=0, dense=0)
                for block in blocks_for(n, path):
                    assert np.array_equal(
                        fast_skyline(data, delta, block=block), skyline
                    ), (delta, path, block)
                    assert np.array_equal(
                        fast_extended_skyline(data, delta, block=block),
                        extended,
                    ), (delta, path, block)
            if path is not None:
                other = "dense" if path == "bitmap" else "bitmap"
                assert path_calls[path] > 0 and path_calls[other] == 0, (
                    delta, path, path_calls,
                )


def tied_workloads():
    """Seeded A/I/C cases, every d in 2..8, duplicates and ties mixed in."""
    cases = []
    for dist in DISTS:
        for d in range(2, 9):
            data = generate(dist, 70, d, seed=3 + d)
            data = np.vstack([data, data[:9]])  # exact duplicates
            data[10, 0] = data[11, 0]  # per-dimension tie
            cases.append(pytest.param(data, id=f"{dist[:1]}-d{d}"))
    return cases


@pytest.mark.parametrize("data", tied_workloads())
def test_tied_workloads_match_brute_force(data):
    full = full_space(data.shape[1])
    assert np.array_equal(fast_skyline(data), brute_force(data, full, strict=False))
    assert np.array_equal(
        fast_extended_skyline(data), brute_force(data, full, strict=True)
    )


def test_representative_pass_prunes_correlated_rows():
    """The pass is live on the inputs above: it drops most correlated rows."""
    ranks = rank_columns(hard_case("correlated", 300, 5, seed=1))
    rows = ranks[np.argsort(ranks.sum(axis=1), kind="stable")]
    survivors = kernels._representative_survivors(rows, True, kernels.BLOCK)
    assert 0 < len(survivors) < len(rows) // 2


def test_bitmap_gate_gives_up_when_bins_collapse(path_calls):
    """Three values per column put most earlier rows in a row's bins:
    the first block that tries the bitmap test counts candidate pairs
    that cost more than the dense test, and the rest of the call runs
    the dense test without trying again."""
    data = generate("independent", 3_000, 2, seed=1, distinct_values=3)
    got = fast_extended_skyline(data)
    assert path_calls["tries"] == 1 and path_calls["bitmap"] == 0
    assert path_calls["dense"] > 1
    assert np.array_equal(got, brute_force(data, full_space(2), strict=True))


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("d", (2, 5, 8))
def test_label_prefilter_covers_splus(dist, d):
    # 100 distinct rows, each six times: at most 100 octant paths for
    # 600 rows, so the prefilter runs instead of gating itself off.
    data = np.repeat(hard_case(dist, 100, d, seed=d), 6, axis=0)
    counters = Counters()
    mask = label_prefilter(data, counters=counters)
    assert mask is not None
    splus = brute_force(data, full_space(d), strict=True)
    assert mask[splus].all()
    assert counters.extra["prefilter_dropped"] == len(data) - mask.sum()


def brute_force_topk(data, query, k, delta):
    transformed = dynamic_transform(data, query)
    d = transformed.shape[1]
    delta = full_space(d) if delta is None else delta
    ids = brute_force(transformed, delta, strict=False)
    dims = dims_of(delta)
    distance = transformed[np.ix_(ids, dims)].sum(axis=1)
    ranked = sorted(zip(distance.tolist(), ids.tolist()))
    return [int(pid) for _, pid in ranked[:k]]


def topk_case(dist, n, d, seed):
    """``hard_case`` rows plus a block of near-origin rows that are
    permutations of one another, so their distances to the origin tie
    in exact arithmetic and differ only by how each row is summed."""
    data = hard_case(dist, n, d, seed)
    gen = np.random.default_rng(seed)
    base = gen.random(d) * 1e-3
    perms = [gen.permutation(base) for _ in range(min(40, n // 4))]
    if perms:
        data[n // 4:n // 4 + len(perms)] = perms
    return data


#: (SCAN_BLOCK, SCAN_WINDOW, SCAN_DEPTH) settings: the defaults, then
#: caps so small that at n = 300 blocks end inside tie groups, tie
#: groups outgrow a block, and both the window-cap and the depth-cap
#: fallbacks run.
SCAN_CAPS = (None, 1, 2, 7)


def check_topk(monkeypatch, data, query, deltas, caps=(None,)):
    """``dynamic_topk`` equals the brute-force rank for every ``delta``,
    every cap setting and every ``k`` around the skyline's size;
    returns how many answers it checked."""
    checked = 0
    n = len(data)
    for delta in deltas:
        everything = brute_force_topk(data, query, n, delta)
        size = len(everything)
        for cap in caps:
            with monkeypatch.context() as patched:
                if cap is not None:
                    for name in ("SCAN_BLOCK", "SCAN_WINDOW", "SCAN_DEPTH"):
                        patched.setattr(dynamic, name, cap)
                for k in sorted({1, 8, size, size + 1, n + 5}):
                    got = dynamic_topk(data, query, k, delta)
                    assert got == everything[:k], (delta, cap, k)
                    checked += 1
    return checked


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("d", (1, 2, 5, 8, 9, 16))
def test_dynamic_topk_matches_brute_force(dist, d, monkeypatch):
    full = full_space(d)
    # The full space implicitly and explicitly, then proper subspaces:
    # one dimension (long runs of tied distances) and all but it.
    deltas = [None, full] + sorted({1, full ^ 1} - {0, full})
    data = topk_case(dist, 300, d, seed=40 + d)
    gen = np.random.default_rng(d)
    jittered = np.clip(data[5] + gen.normal(0.0, 2e-4, d), 0.0, 1.0)
    fallback = mock.Mock(wraps=dynamic._filtered_topk)
    monkeypatch.setattr(dynamic, "_filtered_topk", fallback)
    checked = 0
    # data[-1] is an exact data point with a duplicate (``hard_case``).
    for query in (data[-1], jittered, gen.random(d), np.zeros(d)):
        checked += check_topk(monkeypatch, data, query, deltas, SCAN_CAPS)
    # Past the default depth cap (n // 4 < 1,024 < n) at full size:
    # a jittered point stops early, an exact data point falls back.
    large = topk_case(dist, 3_000, d, seed=50 + d)
    for query in (np.clip(large[9] + 1e-4, 0.0, 1.0), large[9]):
        checked += check_topk(monkeypatch, large, query, [None, full])
    assert 0 < fallback.call_count < checked
    if d >= 2:
        # Equal float distances (both exactly 1.0 from the origin), and
        # the strict dominator has the larger id.
        tied = np.zeros((2, d))
        tied[:, 0] = 1.0
        tied[:, 1] = (2e-17, 1e-17)
        assert dynamic_topk(tied, np.zeros(d), 1) == [1]
        check_topk(monkeypatch, tied, np.zeros(d), deltas, SCAN_CAPS)


def test_dynamic_topk_rejects_bad_arguments_and_parses_subspaces():
    data = hard_case("independent", 60, 3, seed=4)
    query = data[3] + 0.01
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be positive"):
            dynamic_topk(data, query, k)
    for delta in (0, full_space(3) + 1):
        with pytest.raises(ValueError, match="subspace"):
            dynamic_topk(data, query, 4, delta)
    for spelling in ("0b101", "5", "0,2"):
        assert dynamic_topk(data, query, 4, spelling) == brute_force_topk(
            data, query, 4, 0b101
        )


@pytest.fixture
def splus_spy(monkeypatch):
    """Counts calls of the module's S+ filter, then forwards them."""
    spy = mock.Mock(wraps=kernels.fast_extended_skyline)
    monkeypatch.setattr(kernels, "fast_extended_skyline", spy)
    return spy


@pytest.mark.parametrize("engine", kernels.SKYCUBE_ENGINES)
def test_fast_skycube_reaches_splus_through_module_attribute(splus_spy, engine):
    data = np.round(generate("correlated", 600, 4, seed=5) * 3) / 3
    counters = Counters()
    cube = fast_skycube(data, engine=engine, counters=counters)
    assert splus_spy.call_count == 1
    if engine == "packed-filtered":
        assert counters.extra["prefilter_dropped"] > 0
    expected = brute_force(data, full_space(4), strict=False)
    assert list(cube.skyline(full_space(4))) == expected.tolist()


def test_maintainer_reaches_splus_through_module_attribute(splus_spy):
    data = generate("correlated", 200, 4, seed=6)
    SkycubeMaintainer(data)
    assert splus_spy.call_count == 1
