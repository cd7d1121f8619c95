import numpy as np
import pytest

from kronphase import CapacityError, kernels
from kronphase.combinatorics import rho_superposed_pair
from kronphase.kernels import (
    TWO_PI,
    cue_s,
    hadamard_bound,
    reduce_to_pi,
    rho_cue,
    rho_sine,
    sine_q,
)

# frozen reference decimals
TWO_OVER_PI = 0.63661977236758138
ONE_MINUS_Q_HALF_SQ = 0.5947152654306489
INV_PI_SQ = 0.10132118364233778
FIVE_OVER_2PI = 0.79577471545947676
SEVEN_OVER_2PI = 1.1140846016432675
INV_2PI = 0.15915494309189535


# the functions that follow kernels.shaped_like: a float for a scalar
SCALAR_RULE = {
    "sine_q": sine_q,
    "reduce_to_pi": reduce_to_pi,
    "cue_s": lambda u: cue_s(5, u),
    "rho_superposed_pair": lambda u: rho_superposed_pair(2, u),
}


@pytest.mark.parametrize("name", sorted(SCALAR_RULE))
def test_a_scalar_gives_a_float_and_an_array_an_array(name):
    fn = SCALAR_RULE[name]
    for u in (4.1, np.float64(4.1), np.array(4.1)):
        assert type(fn(u)) is float
    out = fn(np.array([4.1]))
    assert isinstance(out, np.ndarray) and out.shape == (1,) and out[0] == fn(4.1)


class TestSineQ:
    def test_values(self):
        assert sine_q(0.0) == 1.0
        assert sine_q(0.5) == pytest.approx(TWO_OVER_PI, abs=1e-15)
        for k in (1, 2, 3, -4, 7):
            assert abs(sine_q(float(k))) < 1e-15

    def test_even(self):
        u = np.linspace(0.1, 6.0, 23)
        assert np.allclose(sine_q(u), sine_q(-u), rtol=0, atol=0)

    def test_bounded_by_one(self):
        u = np.linspace(-50.0, 50.0, 40001)
        assert np.max(np.abs(sine_q(u))) <= 1.0

    def test_scalar_vs_array(self):
        u = np.array([0.0, 0.3, 1.7])
        arr = sine_q(u)
        assert arr.shape == (3,)
        assert arr[1] == sine_q(0.3)

    def test_taylor_branch_continuity(self):
        lo = sine_q(0.999e-8)
        hi = sine_q(1.001e-8)
        assert abs(lo - hi) < 5e-16
        assert abs(sine_q(1e-9) - 1.0) < 1e-15

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sine_q(np.inf)
        with pytest.raises(ValueError):
            sine_q(np.array([0.0, np.nan]))


class TestReduceToPi:
    def test_window(self):
        u = np.linspace(-30.0, 30.0, 10001)
        r = reduce_to_pi(u)
        assert np.all(r > -np.pi)
        assert np.all(r <= np.pi)
        assert np.allclose(np.cos(r), np.cos(u), atol=1e-12)
        assert np.allclose(np.sin(r), np.sin(u), atol=1e-12)

    def test_boundaries(self):
        assert reduce_to_pi(np.pi) == pytest.approx(np.pi)
        assert reduce_to_pi(-np.pi) == pytest.approx(np.pi)
        assert reduce_to_pi(3 * np.pi) == pytest.approx(np.pi)
        assert reduce_to_pi(TWO_PI) == 0.0
        assert reduce_to_pi(0.0) == 0.0


class TestCueS:
    def test_singular_point(self):
        assert cue_s(5, 0.0) == pytest.approx(FIVE_OVER_2PI, abs=1e-15)
        assert cue_s(1, 0.0) == pytest.approx(INV_2PI, abs=1e-16)

    def test_zeros(self):
        assert abs(cue_s(3, 2 * np.pi / 3)) < 1e-16
        assert abs(cue_s(4, np.pi)) < 1e-16

    def test_taylor_branch(self):
        assert cue_s(30, 1e-9) == pytest.approx(30 / TWO_PI, rel=1e-12)
        lo = cue_s(12, 0.999e-8)
        hi = cue_s(12, 1.001e-8)
        assert abs(lo - hi) < 1e-12

    def test_periodic_after_reduction(self):
        u = np.linspace(-3.0, 3.0, 101)
        for n in (3, 4, 7, 10):
            assert np.allclose(cue_s(n, u + TWO_PI), cue_s(n, u), atol=1e-12)

    def test_sup_bound(self):
        u = np.linspace(-10 * np.pi, 10 * np.pi, 20001)
        for n in (1, 2, 3, 7, 16, 33, 301):
            vals = np.abs((TWO_PI / n) * cue_s(n, u))
            assert np.max(vals) <= 1.0 + 1e-12
        assert (TWO_PI / 9) * cue_s(9, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_scaling_limit_is_sine_kernel(self):
        n = 10_000
        u = np.linspace(-5.0, 5.0, 2001)
        dev = np.abs((TWO_PI / n) * cue_s(n, (TWO_PI / n) * u) - sine_q(u))
        assert np.max(dev) < 1e-3

    def test_invalid(self):
        with pytest.raises(ValueError):
            cue_s(0, 0.5)
        with pytest.raises(ValueError):
            cue_s(4, np.nan)


class TestRhoSine:
    def test_single_point(self):
        assert rho_sine([3.7]) == 1.0

    def test_repeated_point(self):
        assert rho_sine([0.0, 0.0]) == 0.0

    def test_pair_value(self):
        assert rho_sine([0.0, 0.5]) == pytest.approx(ONE_MINUS_Q_HALF_SQ, abs=1e-15)

    def test_translation_invariance(self):
        a = rho_sine([0.0, 0.4, 1.3])
        b = rho_sine([2.2, 2.6, 3.5])
        assert a == pytest.approx(b, rel=1e-12)

    def test_permutation_invariance(self):
        pts = [0.1, 0.9, 2.4, 3.3]
        a = rho_sine(pts)
        b = rho_sine(pts[::-1])
        c = rho_sine([pts[2], pts[0], pts[3], pts[1]])
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-12)

    def test_integer_lattice_is_free(self):
        for k in (2, 3, 5, 8):
            assert rho_sine(np.arange(k, dtype=float)) == pytest.approx(1.0, abs=1e-10)

    def test_capacity(self, monkeypatch):
        with pytest.raises(CapacityError):
            rho_sine(np.linspace(0, 8, 9))
        monkeypatch.setattr(kernels, "DEFAULT_K_CAP", 9)
        assert rho_sine(np.linspace(0, 8.5, 9) * 1.0) >= 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            rho_sine([])
        with pytest.raises(ValueError):
            rho_sine([0.0, np.inf])


class TestRhoCue:
    def test_single_point(self):
        assert rho_cue(7, [1.23]) == pytest.approx(SEVEN_OVER_2PI, abs=1e-14)

    def test_repeated_point(self):
        assert rho_cue(5, [0.0, 0.0]) == 0.0

    def test_pair_at_pi(self):
        assert rho_cue(2, [0.0, np.pi]) == pytest.approx(INV_PI_SQ, abs=1e-15)

    def test_order_beyond_n(self):
        with pytest.raises(ValueError):
            rho_cue(2, [0.0, 1.0, 2.0])

    def test_capacity(self, monkeypatch):
        with pytest.raises(CapacityError):
            rho_cue(20, np.linspace(0, 3, 9))
        monkeypatch.setattr(kernels, "DEFAULT_K_CAP", 2)
        with pytest.raises(CapacityError):
            rho_cue(20, np.linspace(0, 3, 3))

    def test_nonnegative_even_n_spread_points(self):
        # even n with points more than pi apart exercises the winding
        # sign; without it this determinant comes out near -4.6e-5
        pts = np.array([-0.84462528, 2.81992808, 2.88007282, -0.92488272, -0.23215862])
        val = rho_cue(6, pts)
        assert val >= 0.0
        assert val == pytest.approx(1.6983056280061e-05, rel=1e-9)

    def test_representative_invariance(self):
        gen = np.random.Generator(np.random.PCG64(5))
        for n in (4, 5, 6, 9):
            pts = gen.uniform(0.0, TWO_PI, 4)
            shifted = pts.copy()
            shifted[2] += TWO_PI
            shifted[0] -= TWO_PI
            assert rho_cue(n, shifted) == pytest.approx(rho_cue(n, pts), rel=1e-9, abs=1e-12)

    def test_rescaled_limit_is_rho_sine(self):
        n = 5000
        pts = np.array([0.0, 0.6, 1.9])
        scaled = (TWO_PI / n) ** pts.size * rho_cue(n, (TWO_PI / n) * pts)
        assert scaled == pytest.approx(rho_sine(pts), abs=2e-3)

    def test_below_hadamard_bound(self):
        gen = np.random.Generator(np.random.PCG64(11))
        for _ in range(200):
            k = int(gen.integers(1, 6))
            n = int(gen.integers(k, 51))
            pts = gen.uniform(-np.pi, np.pi, k)
            assert rho_cue(n, pts) <= hadamard_bound(k, n) + 1e-9


class TestBoundsAndPoisson:
    def test_hadamard_values(self):
        assert hadamard_bound(1, 1) == pytest.approx(INV_2PI, abs=1e-16)
        assert hadamard_bound(2, 5) == pytest.approx(2.0 * FIVE_OVER_2PI**2, rel=1e-15)
        assert hadamard_bound(3, 10) == pytest.approx(3.0**1.5 * (10 / TWO_PI) ** 3, rel=1e-15)

    def test_hadamard_invalid(self):
        with pytest.raises(ValueError):
            hadamard_bound(0, 5)
        with pytest.raises(ValueError):
            hadamard_bound(2, 0)
