import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damagenowcast.stats import (
    KENDALL_EXACT_MAX_N,
    SPEARMAN_EXACT_MAX_N,
    correlate,
    midranks,
    rank_discrepancy,
)
from damagenowcast.stats import _kendall_s

from oracles import (
    average_ranks,
    kendall_exact_p_loop,
    kendall_s_statistic,
    pearson_brute,
    spearman_brute,
    spearman_exact_p_loop,
    spearman_no_ties,
    tau_b_brute,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False)


def vector_pairs(min_n=3, max_n=12, ties=False):
    def build(n, seed):
        rng = np.random.default_rng(seed)
        if ties:
            x = rng.integers(0, max(2, n // 2), n).astype(float)
            y = rng.integers(0, max(2, n // 2), n).astype(float)
        else:
            x = rng.permutation(n).astype(float) + rng.uniform(-0.2, 0.2, n)
            y = rng.permutation(n).astype(float) + rng.uniform(-0.2, 0.2, n)
        return x, y

    return st.builds(build, st.integers(min_n, max_n), st.integers(0, 2**32 - 1))


class TestSpecExamples:
    def test_identity_vectors_all_methods(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0]
        for method in ("kendall", "spearman", "pearson"):
            result = correlate(x, x, method)
            assert result.coefficient == pytest.approx(1.0, abs=1e-15)

    def test_three_point_example(self):
        kendall = correlate([1, 2, 3], [1, 3, 2], "kendall")
        spearman = correlate([1, 2, 3], [1, 3, 2], "spearman")
        assert kendall.coefficient == pytest.approx(1 / 3, abs=1e-15)
        assert spearman.coefficient == pytest.approx(0.5, abs=1e-15)

    def test_constant_vector_is_degenerate(self):
        for method in ("kendall", "spearman", "pearson"):
            result = correlate([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], method)
            assert result.degenerate
            assert math.isnan(result.coefficient)
            assert math.isnan(result.p_value)

    def test_short_vector_is_degenerate(self):
        assert correlate([1.0], [2.0], "kendall").degenerate

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            correlate([1, 2], [1, 2, 3], "kendall")

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            correlate([1, 2], [1, 2], "theil")


class TestLogTransform:
    def test_pairwise_deletion_counted(self):
        x = [1.0, 10.0, 0.0, 100.0, 5.0]
        y = [2.0, 20.0, 30.0, -1.0, 9.0]
        result = correlate(x, y, "pearson", transform="log10")
        assert result.excluded == 2
        assert result.n == 3
        reference = pearson_brute(
            [math.log10(v) for v in (1.0, 10.0, 5.0)], [math.log10(v) for v in (2.0, 20.0, 9.0)]
        )
        assert result.coefficient == pytest.approx(reference, abs=1e-12)

    def test_rank_methods_invariant_under_log_when_all_positive(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 50, 20)
        y = rng.uniform(0.1, 50, 20)
        for method in ("kendall", "spearman"):
            raw = correlate(x, y, method)
            logd = correlate(x, y, method, transform="log10")
            assert raw.coefficient == pytest.approx(logd.coefficient, abs=1e-12)

    def test_all_nonpositive_degenerate(self):
        result = correlate([-1.0, -2.0, -3.0], [1.0, 2.0, 3.0], "kendall", transform="log10")
        assert result.degenerate
        assert result.excluded == 3


class TestBruteForceEquivalence:
    @given(vector_pairs(ties=False))
    @settings(max_examples=150, deadline=None)
    def test_kendall_matches_pair_enumeration(self, pair):
        x, y = pair
        result = correlate(x, y, "kendall")
        assert result.coefficient == pytest.approx(tau_b_brute(list(x), list(y)), abs=1e-12)

    @given(vector_pairs(ties=True))
    @settings(max_examples=150, deadline=None)
    def test_kendall_matches_pair_enumeration_with_ties(self, pair):
        x, y = pair
        result = correlate(x, y, "kendall")
        if result.degenerate:
            assert len(set(x.tolist())) == 1 or len(set(y.tolist())) == 1
            return
        assert result.coefficient == pytest.approx(tau_b_brute(list(x), list(y)), abs=1e-12)

    @given(vector_pairs(ties=True))
    @settings(max_examples=150, deadline=None)
    def test_spearman_matches_rank_formula(self, pair):
        x, y = pair
        result = correlate(x, y, "spearman")
        if result.degenerate:
            return
        assert result.coefficient == pytest.approx(spearman_brute(list(x), list(y)), abs=1e-12)

    @given(vector_pairs(ties=False))
    @settings(max_examples=100, deadline=None)
    def test_spearman_tie_free_closed_form(self, pair):
        x, y = pair
        result = correlate(x, y, "spearman")
        assert result.coefficient == pytest.approx(spearman_no_ties(list(x), list(y)), abs=1e-12)

    @given(vector_pairs(ties=True))
    @settings(max_examples=150, deadline=None)
    def test_pearson_matches_direct_formula(self, pair):
        x, y = pair
        result = correlate(x, y, "pearson")
        if result.degenerate:
            return
        assert result.coefficient == pytest.approx(pearson_brute(list(x), list(y)), abs=1e-12)

    @given(st.integers(3, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_kendall_tau_a_equivalence_without_ties(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)

        tau_a = kendall_s_statistic(list(x), list(y)) / (n * (n - 1) / 2)
        assert correlate(x, y, "kendall").coefficient == pytest.approx(tau_a, abs=1e-12)


class TestExactPValues:
    @given(st.integers(3, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kendall_exact_p_matches_permutation_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        result = correlate(x, y, "kendall")
        assert result.p_value == kendall_exact_p_loop(list(x), list(y))

    @given(st.integers(3, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_spearman_exact_p_matches_permutation_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        result = correlate(x, y, "spearman")
        assert result.p_value == pytest.approx(spearman_exact_p_loop(list(x), list(y)), abs=1e-15)

    @given(st.integers(4, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_spearman_exact_p_with_ties(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, n).astype(float)
        y = rng.integers(0, 3, n).astype(float)
        result = correlate(x, y, "spearman")
        if result.degenerate:
            return
        assert result.p_value == pytest.approx(spearman_exact_p_loop(list(x), list(y)), abs=1e-15)

    def test_exact_thresholds(self):
        assert KENDALL_EXACT_MAX_N == 10
        assert SPEARMAN_EXACT_MAX_N == 8

    def test_kendall_ties_fall_back_to_normal_approximation(self):
        # with ties the exact enumeration is not defined; tie-adjusted normal is used
        x = [1.0, 1.0, 2.0, 3.0, 4.0]
        y = [2.0, 1.0, 3.0, 5.0, 4.0]
        result = correlate(x, y, "kendall")
        assert 0.0 < result.p_value <= 1.0


class TestSortBasedKernels:
    """The O(n log n) Kendall count and the vectorized mid-ranks against
    pair enumeration and scipy."""

    @given(st.integers(1, 200), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_s_matches_pair_enumeration_with_heavy_ties(self, n, kx, ky, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, kx, n).astype(float)
        y = rng.integers(0, ky, n).astype(float)
        s, _, _ = _kendall_s(x, y)
        assert s == kendall_s_statistic(list(x), list(y))

    def test_tau_b_and_p_match_scipy_at_n_5000_with_ties(self):
        from scipy.stats import kendalltau

        rng = np.random.default_rng(5)
        x = rng.integers(0, 40, 5000).astype(float)
        y = np.round(x / 100.0 + rng.normal(0.0, 3.0, 5000))
        result = correlate(x, y, "kendall")
        expected = kendalltau(x, y, method="asymptotic")
        assert 1e-6 < expected.pvalue < 0.5
        assert result.coefficient == pytest.approx(expected.statistic, rel=1e-12)
        assert result.p_value == pytest.approx(expected.pvalue, rel=1e-12)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_midranks_match_scipy_rankdata(self, values):
        from scipy.stats import rankdata

        values = np.array(values, dtype=float)
        assert midranks(values).tolist() == rankdata(values).tolist()

    def test_kendall_memory_is_linear(self):
        # the dense n x n sign matrices allocated about 860 MB at this size
        rng = np.random.default_rng(6)
        x = rng.integers(0, 300, 6000).astype(float)
        y = rng.normal(size=6000)
        tracemalloc.start()
        try:
            correlate(x, y, "kendall")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("method", ["kendall", "spearman", "pearson"])
    @pytest.mark.parametrize("transform", ["raw", "log10"])
    def test_nan_rejected(self, method, transform):
        # pearson gave coefficient 1.0 with p 0.0 here, spearman ranked the NaN (or inf) last
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="NaN or inf"):
                correlate([1.0, bad, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0], method, transform)
            with pytest.raises(ValueError, match="NaN or inf"):
                correlate([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 5.0], method, transform)


class TestInvariances:
    @given(vector_pairs(ties=True))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_in_arguments(self, pair):
        x, y = pair
        for method in ("kendall", "spearman", "pearson"):
            a = correlate(x, y, method)
            b = correlate(y, x, method)
            if a.degenerate:
                assert b.degenerate
                continue
            assert a.coefficient == b.coefficient
            assert a.p_value == b.p_value

    @given(vector_pairs(ties=True))
    @settings(max_examples=60, deadline=None)
    def test_rank_methods_invariant_under_monotone_transform(self, pair):
        x, y = pair
        transformed = np.exp(x / np.max(np.abs(x) + 1.0) * 3.0)
        for method in ("kendall", "spearman"):
            a = correlate(x, y, method)
            b = correlate(transformed, y, method)
            if a.degenerate:
                assert b.degenerate
                continue
            assert a.coefficient == pytest.approx(b.coefficient, abs=1e-12)

    @given(vector_pairs(ties=True), finite_floats, st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_pearson_invariant_under_positive_affine(self, pair, shift, scale):
        x, y = pair
        a = correlate(x, y, "pearson")
        b = correlate(x * scale + shift, y, "pearson")
        if a.degenerate or b.degenerate:
            return
        # centering cancels digits when |shift| dominates the scaled spread
        conditioning = 1.0 + abs(shift) / (scale * (float(np.ptp(x)) + 1e-9))
        assert a.coefficient == pytest.approx(b.coefficient, abs=1e-12 * conditioning)

    @given(vector_pairs(ties=True), st.floats(1e-300, 1e300))
    @settings(max_examples=60, deadline=None)
    def test_pearson_invariant_under_huge_and_tiny_scales(self, pair, scale):
        # unscaled squares overflowed to inf above about 1e154 (r read 0) and underflowed to 0
        # below about 1e-154 (a degenerate result)
        x, y = pair
        a = correlate(x, y, "pearson")
        b = correlate(x, scale * y, "pearson")
        assert a.degenerate == b.degenerate
        if not a.degenerate:
            assert b.coefficient == pytest.approx(a.coefficient, abs=1e-12)

    @given(vector_pairs(ties=True))
    @settings(max_examples=60, deadline=None)
    def test_negating_one_vector_flips_rank_coefficients_exactly(self, pair):
        x, y = pair
        for method in ("kendall", "spearman"):
            a = correlate(x, y, method)
            b = correlate(x, -y, method)
            if a.degenerate:
                assert b.degenerate
                continue
            assert b.coefficient == -a.coefficient

    @given(vector_pairs(ties=True))
    @settings(max_examples=40, deadline=None)
    def test_coefficient_bounds(self, pair):
        x, y = pair
        for method in ("kendall", "spearman", "pearson"):
            result = correlate(x, y, method)
            if result.degenerate:
                continue
            assert -1.0 <= result.coefficient <= 1.0
            assert 0.0 <= result.p_value <= 1.0


class TestMidranks:
    def test_plain_ranks(self):
        assert midranks(np.array([10.0, 30.0, 20.0])).tolist() == [1.0, 3.0, 2.0]

    def test_average_ranks_for_ties(self):
        assert midranks(np.array([5.0, 5.0, 1.0])).tolist() == [2.5, 2.5, 1.0]

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, values):
        assert midranks(np.array(values)).tolist() == average_ranks(values)


class TestRankDiscrepancy:
    def test_identical_orderings_all_zero(self):
        assert rank_discrepancy([1, 2, 3], [10, 20, 30]).tolist() == [0.0, 0.0, 0.0]

    def test_reversed_orderings(self):
        assert rank_discrepancy([1, 2, 3], [3, 2, 1]).tolist() == [1.0, 0.0, 1.0]

    def test_single_element(self):
        assert rank_discrepancy([5.0], [7.0]).tolist() == [0.0]

    def test_normalized_to_unit_peak(self):
        gaps = rank_discrepancy([1, 2, 3, 4], [2, 1, 4, 3])
        assert gaps.max() == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rank_discrepancy([], [])
