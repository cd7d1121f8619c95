from collections import Counter

import numpy as np
import pytest

from kronphase import CapacityError, kernels
from kronphase.acceptance import rho_superposed_reference
from kronphase.combinatorics import (
    bell_number,
    falling_factorial,
    rho_superposed_pair,
    rho_superposed_sine,
    set_partitions,
    stirling2_row,
    stirling_identity_residual,
)
from kronphase.kernels import rho_sine

BELL = (1, 2, 5, 15, 52, 203, 877, 4140)

# frozen reference decimals
ONE_MINUS_Q_HALF_SQ = 0.5947152654306489
PAIR_M2_AT_1 = 0.79735763271532445


class TestSetPartitions:
    def test_counts_match_bell(self):
        for k in range(1, 9):
            assert len(set_partitions(k)) == BELL[k - 1]

    def test_partitions_are_valid_and_distinct(self):
        parts = set_partitions(5)
        assert isinstance(parts, tuple)
        seen = set()
        for blocks in parts:
            assert isinstance(blocks, tuple) and all(isinstance(b, tuple) for b in blocks)
            flat = [i for b in blocks for i in b]
            assert sorted(flat) == list(range(1, 6))
            assert all(list(b) == sorted(b) for b in blocks)
            firsts = [b[0] for b in blocks]
            assert firsts == sorted(firsts)
            assert blocks not in seen
            seen.add(blocks)

    def test_grouped_by_block_count(self):
        counts = [len(blocks) for blocks in set_partitions(6)]
        assert counts == sorted(counts)

    def test_histogram_is_stirling_row(self):
        for k in (3, 5, 7):
            hist = Counter(len(blocks) for blocks in set_partitions(k))
            row = stirling2_row(k)
            assert hist == {p: row[p] for p in range(1, k + 1) if row[p]}

    def test_by_block_count(self):
        hist = Counter(len(blocks) for blocks in set_partitions(4))
        assert (hist[1], hist[2], hist[3], hist[4]) == (1, 7, 6, 1)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            set_partitions(kernels.DEFAULT_K_CAP + 1)
        with pytest.raises(ValueError):
            set_partitions(0)
        # the identity has the enumeration's cap and error type
        with pytest.raises(CapacityError):
            stirling_identity_residual(kernels.DEFAULT_K_CAP + 1, 2)
        with pytest.raises(ValueError) as small:
            stirling_identity_residual(0, 2)
        assert type(small.value) is ValueError

    def test_cap_is_read_at_call_time(self, monkeypatch):
        # the one correlation-order cap bounds the enumeration and the identity
        monkeypatch.setattr(kernels, "DEFAULT_K_CAP", 3)
        assert len(set_partitions(3)) == 5
        with pytest.raises(CapacityError, match="set_partitions: k=4 exceeds cap 3"):
            set_partitions(4)
        assert stirling_identity_residual(3, 2) == 0.0
        with pytest.raises(CapacityError, match="stirling_identity_residual: k=4 exceeds cap 3"):
            stirling_identity_residual(4, 2)


class TestExactArithmetic:
    def test_falling_factorial_int(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(3, 5) == 0
        assert falling_factorial(10, 10) == 3628800
        assert isinstance(falling_factorial(4, 3), int)

    def test_falling_factorial_float(self):
        # the exact arithmetic takes integers only, as every size argument does
        with pytest.raises(ValueError, match="falling_factorial: x must be an integer, got 2.5"):
            falling_factorial(2.5, 2)
        assert falling_factorial(-2, 3) == -24

    def test_stirling_row_values(self):
        assert stirling2_row(0) == [1]
        assert stirling2_row(1) == [0, 1]
        assert stirling2_row(4) == [0, 1, 7, 6, 1]
        assert stirling2_row(6) == [0, 1, 31, 90, 65, 15, 1]

    def test_bell_numbers(self):
        for k in range(1, 9):
            assert bell_number(k) == BELL[k - 1]
        assert bell_number(12) == 4213597

    def test_identity_residual_exact_for_integers(self):
        for k in range(1, 9):
            for x in range(0, 11):
                assert stirling_identity_residual(k, x) == 0.0
        assert type(stirling_identity_residual(8, np.int64(10))) is float
        for k, x in ((3, 1.5), (8, 10.0)):  # an integral float is refused too, not truncated
            with pytest.raises(ValueError, match="stirling_identity_residual: x must be an integer"):
                stirling_identity_residual(k, x)


class TestSuperposedSine:
    def test_m1_reduces_to_sine(self):
        pts = np.array([0.0, 0.37, 1.11, 2.6])
        assert rho_superposed_sine(1, pts) == pytest.approx(rho_sine(pts), rel=1e-14)

    def test_pair_value_m2(self):
        assert rho_superposed_sine(2, [0.0, 1.0]) == pytest.approx(PAIR_M2_AT_1, abs=1e-15)

    def test_triplet_value_m2_integer_gaps(self):
        # blocks split across copies leave only the within-copy pair
        # factor q(1/2)^2; the partition sum collapses to 1 - (2/pi)^2
        val = rho_superposed_sine(2, [0.0, 1.0, 2.0])
        assert val == pytest.approx(ONE_MINUS_Q_HALF_SQ, abs=1e-14)

    def test_agrees_with_pair_formula(self):
        for m in (1, 2, 3, 7, 20):
            for d in (0.3, 1.0, 2.7):
                assert rho_superposed_sine(m, [0.0, d]) == pytest.approx(
                    rho_superposed_pair(m, d), rel=1e-13
                )

    def test_agrees_with_insertion_enumeration(self):
        gen = np.random.Generator(np.random.PCG64(17))
        for _ in range(20):
            m = int(gen.integers(1, 7))
            k = int(gen.integers(1, 5))
            pts = gen.uniform(0.0, 3.0, k)
            a = rho_superposed_sine(m, pts)
            b = rho_superposed_reference(m, pts)
            assert a == pytest.approx(b, abs=1e-12)

    def test_poissonizes_at_generic_points(self):
        pts = [0.0, 0.37, 1.11]
        devs = [abs(rho_superposed_sine(m, pts) - 1.0) for m in (1, 2, 4, 8, 16, 32, 64, 128, 256)]
        assert all(b <= a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 2e-2

    def test_capacity_and_validation(self):
        with pytest.raises(CapacityError):
            rho_superposed_sine(3, np.zeros(9))
        with pytest.raises(ValueError):
            rho_superposed_sine(0, [0.0])
        with pytest.raises(ValueError):
            rho_superposed_sine(2, [])


class TestSuperposedPair:
    def test_m1(self):
        d = np.array([0.2, 0.9, 3.4])
        assert np.allclose(rho_superposed_pair(1, d), 1.0 - np.sinc(d) ** 2, atol=1e-14)

    def test_frozen_value(self):
        assert rho_superposed_pair(2, 1.0) == pytest.approx(PAIR_M2_AT_1, abs=1e-15)

    def test_large_m_tends_to_one(self):
        assert rho_superposed_pair(10_000, 1.3) == pytest.approx(1.0, abs=1e-4)

    def test_scalar_and_array(self):
        out = rho_superposed_pair(3, np.array([0.5, 1.5]))
        assert out.shape == (2,)
        assert out[0] == rho_superposed_pair(3, 0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            rho_superposed_pair(0, 1.0)
