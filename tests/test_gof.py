import numpy as np
import pytest

from kronphase.acceptance import poisson_configs
from kronphase.estimators import (
    SpacingHistogram,
    circular_gaps,
    estimate_pair_correlation,
    spacing_histogram_from_gaps,
)
from kronphase import gof
from kronphase.gof import (
    KS_COEFF_05,
    KS_MIN_N,
    chi_square_uniformity,
    compare_to_curve,
    ks_against_exponential,
)

TWO_PI = 2.0 * np.pi


class TestCompareToCurve:
    def test_flat_target_on_poisson(self):
        h = estimate_pair_correlation(poisson_configs(40.0, 300, seed=1), 4.0, 20)
        cmp = compare_to_curve(h, lambda d: 1.0)
        assert cmp.rms_dev < 0.05
        assert cmp.max_abs_dev >= cmp.rms_dev
        assert cmp.per_bin_z.shape == (20,)
        assert cmp.n_bins_over_4sigma == 0

    def test_exact_match_gives_zero(self):
        h = estimate_pair_correlation(poisson_configs(40.0, 50, seed=2), 4.0, 10)
        est = h.estimate.copy()
        cmp = compare_to_curve(h, lambda d: est)
        assert cmp.max_abs_dev == 0.0
        assert cmp.rms_dev == 0.0
        assert cmp.n_bins_over_4sigma == 0

    def test_offset_target_flags_bins(self):
        h = estimate_pair_correlation(poisson_configs(40.0, 300, seed=3), 4.0, 10)
        cmp = compare_to_curve(h, lambda d: 5.0)
        assert cmp.n_bins_over_4sigma == 10
        assert np.all(cmp.per_bin_z < -4)

    def test_rejects_single_batch(self):
        h = estimate_pair_correlation(poisson_configs(40.0, 1, seed=4), 4.0, 10)
        with pytest.raises(ValueError):
            compare_to_curve(h, lambda d: 1.0)

    def test_target_is_called_once_on_the_midpoints(self):
        h = estimate_pair_correlation(poisson_configs(40.0, 50, seed=2), 4.0, 10)
        calls = []

        def target(d):
            calls.append(d.copy())
            return np.ones_like(d)

        compare_to_curve(h, target)
        assert len(calls) == 1
        assert np.array_equal(calls[0], h.bin_midpoints())

    def test_array_and_constant_targets_agree(self):
        h = estimate_pair_correlation(poisson_configs(40.0, 50, seed=2), 4.0, 10)
        a, b = compare_to_curve(h, np.ones_like), compare_to_curve(h, lambda d: 1.0)
        assert (a.max_abs_dev, a.rms_dev, a.n_bins_over_4sigma) == (b.max_abs_dev, b.rms_dev, b.n_bins_over_4sigma)
        assert np.array_equal(a.per_bin_z, b.per_bin_z)

    @pytest.mark.parametrize("target", [lambda d: np.ones(3), lambda d: np.ones((2, d.size))], ids=["length", "rows"])
    def test_rejects_a_target_of_another_shape(self, target):
        h = estimate_pair_correlation(poisson_configs(40.0, 50, seed=2), 4.0, 10)
        with pytest.raises(ValueError):
            compare_to_curve(h, target)


def kolmogorov_cdf(x, terms=100):
    """K(x) = 1 - 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 x^2), the limit law of
    sqrt(n) D_n under the null."""
    k = np.arange(1, terms + 1)
    return 1.0 - 2.0 * float(np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * x**2)))


class TestKsExponential:
    def test_coefficient_is_the_kolmogorov_95_percent_point(self):
        # K(1.36) = 0.9505, while a 20% looser 1.63 gives 0.9902
        assert kolmogorov_cdf(1.36) == pytest.approx(0.9505, abs=1e-4)
        assert abs(kolmogorov_cdf(KS_COEFF_05) - 0.95) < 0.002

    def test_poisson_spacings_pass(self):
        sh = spacing_histogram_from_gaps([circular_gaps(c) for c in poisson_configs(50.0, 200, seed=5)])
        res = ks_against_exponential(sh)
        assert res.n == sh.n_spacings
        assert res.threshold_05 == pytest.approx(KS_COEFF_05 / np.sqrt(res.n))
        assert res.passed
        assert res.d_statistic < res.threshold_05

    def test_exact_exponential_quantiles_pass(self):
        # deterministic in-distribution input: exponential quantiles
        n = 500
        u = (np.arange(n) + 0.5) / n
        s = -np.log(1.0 - u)
        sh = spacing_histogram_from_gaps([s], n_bins=20)
        res = ks_against_exponential(sh)
        assert res.passed

    def test_lattice_fails_hard(self):
        sh = spacing_histogram_from_gaps([np.ones(400)], n_bins=10)
        res = ks_against_exponential(sh)
        assert not res.passed
        assert res.d_statistic > 0.5

    def test_min_sample_size(self):
        sh = spacing_histogram_from_gaps([np.linspace(0.1, 2.0, 99)], n_bins=5)
        with pytest.raises(ValueError):
            ks_against_exponential(sh)

    def test_permutation_invariant(self):
        gen = np.random.Generator(np.random.PCG64(6))
        s = gen.exponential(size=300)
        a = spacing_histogram_from_gaps([s], n_bins=10)
        b = spacing_histogram_from_gaps([s[::-1].copy()], n_bins=10)
        assert ks_against_exponential(a) == ks_against_exponential(b)


def ks_whole_pool(s):
    """The KS distance as one expression over the whole sorted pool."""
    n = s.size
    cdf = 1.0 - np.exp(-s)
    i = np.arange(1, n + 1)
    return max(float(np.max(np.abs(i / n - cdf))), float(np.max(np.abs((i - 1) / n - cdf))))


CHUNK = gof._KS_CHUNK


class TestKsChunks:
    @pytest.mark.parametrize(
        "n, kind",
        [
            (CHUNK - 3, "exponential"),
            (2 * CHUNK, "exponential"),
            (3 * CHUNK + 1, "tied"),
            (3 * CHUNK + 1, "uniform"),
            # the same three edges at the earlier 2^15 chunk, which at 2^13
            # also end 3 short of a chunk, on a chunk edge and 1 past one
            (32765, "exponential"),
            (65536, "exponential"),
            (98305, "tied"),
            (98305, "uniform"),
            (KS_MIN_N, "exponential"),
            (KS_MIN_N, "tied"),
        ],
    )
    def test_chunked_walk_equals_the_whole_pool_expression(self, n, kind):
        s = np.random.default_rng(n).exponential(size=n) * 1.05
        if kind == "tied":
            s = np.round(s, 2)
        elif kind == "uniform":
            # D is 1 - cdf at the largest spacing, alone in the last chunk
            s = np.linspace(0.0, 1.0, n)
        s.sort()
        assert (kind == "tied") == bool(np.any(np.diff(s) == 0))
        assert ks_against_exponential(SpacingHistogram(s, 10)).d_statistic == ks_whole_pool(s)


class TestChiSquareUniformity:
    def test_uniform_passes(self):
        gen = np.random.Generator(np.random.PCG64(7))
        stat, dof = chi_square_uniformity(gen.uniform(0, TWO_PI, 20_000))
        assert dof == 31
        assert stat < 52.191

    def test_concentrated_fails(self):
        phases = np.full(2000, 1.0)
        stat, dof = chi_square_uniformity(phases, n_bins=8)
        assert dof == 7
        assert stat == pytest.approx(2000 * 7, rel=1e-12)

    def test_needs_enough_mass(self):
        with pytest.raises(ValueError):
            chi_square_uniformity(np.linspace(0, 6, 100), n_bins=32)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chi_square_uniformity(np.linspace(-1.0, 5.0, 400), n_bins=8)
