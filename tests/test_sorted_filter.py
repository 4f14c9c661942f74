"""Oracle suite for the shared sorted filter of :mod:`repro.engine.kernels`.

``fast_skyline`` (Definition 1) and ``fast_extended_skyline`` (strict
dominance) both run ``_sorted_filter``: a representative pass, then a
block loop whose pairwise matrix covers only rows the window kept.
Every case here is checked against a brute-force all-pairs oracle on
A/I/C data with exact duplicates, ties on some dimensions only and
rows equal to a representative, on both sides of the pass's size gate
(``2 × REPRESENTATIVES`` rows) and for block sizes that split the input
differently.  The same filter backs ``label_prefilter``'s path-level
pass and ``dynamic_topk``, which are checked too, and the S+ filter
must stay reachable through its module attribute.
"""

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
from repro.query.dynamic import dynamic_topk, dynamic_transform

R = REPRESENTATIVES
SIZES = (1, 2 * R, 2 * R + 1, 300)
DIMS = (1, 2, 5, 8, 16)
DISTS = ("anticorrelated", "independent", "correlated")


def brute_force(data, delta, strict):
    """Sorted ids no row dominates in ``delta``, by all-pairs test."""
    x = np.asarray(data, dtype=np.float64)[:, dims_of(delta)]
    # [i, j, k]: row j is below row i on dimension k.
    below = x[None, :, :] < x[:, None, :]
    if strict:
        dominated = below.all(axis=2).any(axis=1)
    else:
        at_most = x[None, :, :] <= x[:, None, :]
        dominated = (at_most.all(axis=2) & below.any(axis=2)).any(axis=1)
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


CASES = [
    pytest.param(dist, d, n, id=f"{dist[:1]}-d{d}-n{n}")
    for dist in DISTS
    for d in DIMS
    for n in SIZES
]


@pytest.mark.parametrize("dist,d,n", CASES)
def test_filters_match_brute_force(dist, d, n):
    data = hard_case(dist, n, d, seed=n + 17 * d)
    for delta in subspaces(d, seed=n + d):
        skyline = brute_force(data, delta, strict=False)
        extended = brute_force(data, delta, strict=True)
        for block in (None, 1, 7):
            assert np.array_equal(
                fast_skyline(data, delta, block=block), skyline
            ), (delta, block)
            assert np.array_equal(
                fast_extended_skyline(data, delta, block=block), extended
            ), (delta, block)


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


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("d", (2, 5, 8))
def test_dynamic_topk_matches_brute_force(dist, d):
    data = hard_case(dist, 300, d, seed=40 + d)
    gen = np.random.default_rng(d)
    queries = [data[0], data[-1], gen.random(d)]
    for query in queries:
        for delta in (None, subspaces(d, seed=d)[-1]):
            for k in (1, 8, len(data)):
                assert dynamic_topk(data, query, k, delta) == brute_force_topk(
                    data, query, k, delta
                ), (k, delta)


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
