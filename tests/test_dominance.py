"""Unit tests for dominance tests, comparison masks and mask tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.dominance import (
    DominanceTester,
    comparison_masks,
    dominance_masks_vs_all,
    dominates,
    mask_test,
    strictly_dominates,
)
from repro.instrument.counters import Counters

point = st.lists(
    st.integers(0, 4).map(float), min_size=1, max_size=6
)


class TestComparisonMasks:
    def test_paper_flight_example(self, flights):
        # Paper (Section 2.1): B_{f0<=f1} = 100, B_{f1<=f0} = 011,
        # B_{f0=f1} = 000, with bit order (Price=2, Duration=1, Arrival=0).
        f0, f1 = flights[0], flights[1]
        le01, _, eq01 = comparison_masks(f0[::-1][::-1], f1)
        le01, _, eq01 = comparison_masks(f0, f1)
        # Our fixture stores (arrival, duration, price): bit2 = price.
        assert le01 == 0b100
        assert eq01 == 0b000
        le10, _, _ = comparison_masks(f1, f0)
        assert le10 == 0b011

    def test_equal_points(self):
        le, lt, eq = comparison_masks([1.0, 2.0], [1.0, 2.0])
        assert le == 0b11 and eq == 0b11 and lt == 0

    @given(point, point)
    def test_mask_consistency(self, p, q):
        if len(p) != len(q):
            q = (q * len(p))[: len(p)]
        le, lt, eq = comparison_masks(p, q)
        assert le == (lt | eq)
        assert lt & eq == 0
        le_r, lt_r, eq_r = comparison_masks(q, p)
        assert eq == eq_r
        assert lt & lt_r == 0  # cannot both be strictly better on a dim
        full = (1 << len(p)) - 1
        assert (le | le_r) == full  # every dim is <=, >= or both


class TestDominates:
    def test_paper_examples(self, flights):
        # f1 ≺ f0 in δ=011 ({Duration, Arrival}); f3 ≺≺ f4 in δ=110;
        # f3 ≺ f4 but not ≺≺ in δ=111 (equal arrival).
        assert dominates(flights[1], flights[0], 0b011)
        assert strictly_dominates(flights[3], flights[4], 0b110)
        assert dominates(flights[3], flights[4], 0b111)
        assert not strictly_dominates(flights[3], flights[4], 0b111)

    def test_no_self_dominance(self):
        p = [1.0, 2.0, 3.0]
        assert not dominates(p, p, 0b111)

    def test_duplicate_points_do_not_dominate(self):
        assert not dominates([1.0, 2.0], [1.0, 2.0], 0b11)

    def test_counters_record_work(self):
        counters = Counters()
        dominates([1.0, 2.0], [2.0, 3.0], 0b11, counters)
        assert counters.dominance_tests == 1
        assert counters.values_loaded == 4

    @given(point, point, point)
    def test_transitivity(self, p, q, r):
        size = min(len(p), len(q), len(r))
        p, q, r = p[:size], q[:size], r[:size]
        delta = (1 << size) - 1
        if dominates(p, q, delta) and dominates(q, r, delta):
            assert dominates(p, r, delta)

    @given(point, point)
    def test_strict_implies_dominance(self, p, q):
        size = min(len(p), len(q))
        p, q = p[:size], q[:size]
        delta = (1 << size) - 1
        if strictly_dominates(p, q, delta):
            assert dominates(p, q, delta)

    @given(point, point)
    def test_antisymmetry(self, p, q):
        size = min(len(p), len(q))
        p, q = p[:size], q[:size]
        delta = (1 << size) - 1
        assert not (dominates(p, q, delta) and dominates(q, p, delta))

    @given(point, point, st.integers(1, 63))
    def test_subspace_projection_consistency(self, p, q, raw):
        size = min(len(p), len(q))
        p, q = p[:size], q[:size]
        delta = raw & ((1 << size) - 1)
        if delta == 0:
            return
        # Dominance in δ must agree with full-space dominance of the
        # projected points.
        from repro.core.bitmask import dims_of

        dims = dims_of(delta)
        proj_p = [p[i] for i in dims]
        proj_q = [q[i] for i in dims]
        assert dominates(p, q, delta) == dominates(
            proj_p, proj_q, (1 << len(dims)) - 1
        )


class TestVectorized:
    def test_matches_scalar(self, workload):
        data = workload
        for j in (0, len(data) // 2, len(data) - 1):
            le, lt, eq = dominance_masks_vs_all(data, data[j])
            for i in range(0, len(data), 7):
                s_le, s_lt, s_eq = comparison_masks(data[i], data[j])
                assert (le[i], lt[i], eq[i]) == (s_le, s_lt, s_eq)

    def test_rejects_high_dims(self):
        data = np.zeros((2, 64))
        with pytest.raises(ValueError):
            dominance_masks_vs_all(data, data[0])


class TestMaskTest:
    def test_passing_is_necessary_for_dominance(self, workload):
        """Equation 1: whenever p ≺δ q, the mask test must pass."""
        data = workload
        d = data.shape[1]
        pivot = np.quantile(data, 0.5, axis=0)
        from repro.partitioning.pivots import partition_masks_vectorized

        masks = partition_masks_vectorized(data, pivot)
        delta = (1 << d) - 1
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j = rng.integers(0, len(data), 2)
            if dominates(data[i], data[j], delta):
                assert mask_test(int(masks[i]), int(masks[j]), delta)

    def test_failing_disproves_dominance(self):
        # pivot-le-p = 01 means p >= pivot on dim 0 only; if q is below
        # the pivot on dim 0 (mask bit unset) then p cannot dominate q
        # in any subspace containing dim 0.
        assert not mask_test(0b01, 0b00, 0b01)
        assert mask_test(0b01, 0b01, 0b01)


class TestDominanceTester:
    def test_bound_subspace(self, flights):
        tester = DominanceTester(flights, delta=0b011)
        assert tester.dominates(1, 0)
        assert not tester.dominates(0, 1)
        assert tester.counters.dominance_tests == 2

    def test_default_full_space(self, flights):
        tester = DominanceTester(flights)
        assert tester.delta == 0b111
        assert tester.dominates(3, 4)
        assert not tester.strictly_dominates(3, 4)

    def test_masks(self, flights):
        tester = DominanceTester(flights)
        le, lt, eq = tester.masks(1, 0)
        assert le == 0b011 and eq == 0

    @pytest.mark.parametrize("delta", [0, 8, 15, 16])
    def test_rejects_masks_outside_the_space(self, flights, delta):
        # flights has d = 3: 8 and 15 name a fourth dimension.
        with pytest.raises(ValueError, match="invalid subspace"):
            DominanceTester(flights, delta=delta)
