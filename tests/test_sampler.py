import itertools

import numpy as np
import pytest

from kronphase import CapacityError, sampler
from kronphase.config import ExperimentConfig
from kronphase.runner import run_experiment
from kronphase.sampler import (
    DEFAULT_MAX_DIM,
    RngStream,
    eigenphases,
    sample_haar_block,
    sample_haar_unitary,
)

TWO_PI = 2.0 * np.pi
KEY_WORDS = (0, 1, 1 << 63, (1 << 64) - 1)


def oracle_generator(seed, stream_id):
    """The stream as first defined: Philox keyed by the 128-bit integer
    (seed << 64) | stream_id."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | stream_id))


def reference_ginibre(u1, u2, n):
    """Box-Muller as first written, one complex expression."""
    u1 = 1.0 - u1
    r = np.sqrt(-2.0 * np.log(u1))
    z = r * (np.cos(TWO_PI * u2) + 1j * np.sin(TWO_PI * u2))
    return (z / np.sqrt(2.0)).reshape(-1, n, n)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def circular_mismatch(got, want):
    """Largest circular distance under the best cyclic matching of two spectra.

    Both are reduced into [0, 2pi) and sorted; a phase near 0 on one side
    may sit near 2pi on the other, which shifts the sorted order by one
    place, so every cyclic shift of the match is tried.
    """
    got = np.sort(np.mod(got, TWO_PI))
    want = np.sort(np.mod(want, TWO_PI))
    assert got.shape == want.shape
    best = np.inf
    for k in range(want.size):
        d = np.abs(got - np.roll(want, k)) % TWO_PI
        best = min(best, float(np.max(np.minimum(d, TWO_PI - d))))
    return best


def eigvals_reference(u):
    return np.sort(np.mod(np.angle(np.linalg.eigvals(u)), TWO_PI))


def with_known_spectrum(theta, q):
    """U = Q diag(e^{i theta}) Q* for a unitary Q."""
    return (q * np.exp(1j * np.asarray(theta))) @ q.conj().T


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(12345, 7).generator().random(16)
        b = RngStream(12345, 7).generator().random(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(12345, 0).generator().random(16)
        b = RngStream(12345, 1).generator().random(16)
        c = RngStream(12346, 0).generator().random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_default_stream_is_zero(self):
        assert RngStream(5) == RngStream(5, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(1 << 64)
        with pytest.raises(ValueError):
            RngStream(0, -3)
        with pytest.raises(ValueError):
            RngStream(1.5)
        with pytest.raises(ValueError):
            RngStream(True)

    def test_frozen(self):
        s = RngStream(1, 2)
        with pytest.raises(AttributeError):
            s.seed = 9

    @pytest.mark.parametrize("seed, stream_id", itertools.product(KEY_WORDS, KEY_WORDS))
    def test_key_matches_integer_key(self, seed, stream_id):
        want = oracle_generator(seed, stream_id).random(9)
        assert np.array_equal(RngStream(seed, stream_id).generator().random(9), want)
        # the block re-keys its one Philox to the same words
        keyed = np.random.Generator(np.random.Philox(0))
        keyed.random(3)
        sampler._rekey(keyed.bit_generator, RngStream(seed, stream_id))
        assert np.array_equal(keyed.random(9), want)

    @pytest.mark.parametrize("seed, stream_id", [(0, 1), ((1 << 64) - 1, 1 << 63)])
    def test_block_draws_equal_the_integer_key(self, seed, stream_id):
        got = sample_haar_block([3, 2], [RngStream(seed, stream_id)])
        want = sample_haar_block([3, 2], [oracle_generator(seed, stream_id)])
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_block_builds_at_most_one_philox(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def spy(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", spy)
        sample_haar_block((2, 5), [RngStream(3, s) for s in range(6)])
        assert len(built) == 1
        gen = np.random.Generator(philox(1))
        built.clear()
        sample_haar_block([4], [gen, RngStream(3, 0), gen, RngStream(3, 1)])
        assert len(built) == 1
        built.clear()
        sample_haar_block([4], [gen, gen])
        assert built == []


class TestHaarUnitary:
    def test_unitarity(self):
        for n in (1, 2, 5, 17, 64):
            u = sample_haar_unitary(n, RngStream(3, n))
            resid = np.max(np.abs(u @ u.conj().T - np.eye(n)))
            assert resid < 1e-12

    def test_deterministic(self):
        a = sample_haar_unitary(8, RngStream(42, 1))
        b = sample_haar_unitary(8, RngStream(42, 1))
        assert np.array_equal(a, b)

    def test_accepts_generator(self):
        gen = RngStream(42, 1).generator()
        a = sample_haar_unitary(8, gen)
        b = sample_haar_unitary(8, RngStream(42, 1))
        assert np.array_equal(a, b)

    def test_sequential_draws_differ(self):
        gen = RngStream(0).generator()
        a = sample_haar_unitary(4, gen)
        b = sample_haar_unitary(4, gen)
        assert not np.array_equal(a, b)

    def test_dimension_cap(self, monkeypatch):
        with pytest.raises(CapacityError):
            sample_haar_unitary(DEFAULT_MAX_DIM + 1, RngStream(0))
        monkeypatch.setattr(sampler, "DEFAULT_MAX_DIM", 4)
        with pytest.raises(CapacityError):
            sample_haar_unitary(5, RngStream(0))
        with pytest.raises(CapacityError):
            eigenphases(sample_haar_unitary(5, RngStream(0)))
        with pytest.raises(ValueError):
            sample_haar_unitary(0, RngStream(0))

    def test_rejects_unknown_rng(self):
        with pytest.raises(ValueError):
            sample_haar_unitary(4, 1234)

    def test_trace_moment(self):
        # E|Tr U|^2 = 1 for Haar on U(n)
        gen = RngStream(77).generator()
        vals = np.array([abs(np.trace(sample_haar_unitary(4, gen))) ** 2 for _ in range(2000)])
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 4 * se

    def test_plain_qr_is_not_haar(self):
        # the diagonal phase correction is what makes the law Haar; raw
        # QR concentrates |Tr U|^2 well above 1 at n = 2
        gen = np.random.Generator(np.random.PCG64(123))
        vals = np.empty(4000)
        for i in range(vals.size):
            z = (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))) / np.sqrt(2)
            q, _ = np.linalg.qr(z)
            vals[i] = abs(np.trace(q)) ** 2
        assert vals.mean() > 1.2


class TestEigenphases:
    def test_sorted_in_window(self):
        u = sample_haar_unitary(40, RngStream(9))
        ph = eigenphases(u)
        assert ph.shape == (40,)
        assert np.all(np.diff(ph) >= 0)
        assert ph[0] >= 0.0
        assert ph[-1] < TWO_PI

    def test_diagonal_example(self):
        u = np.diag(np.exp(1j * np.array([0.5, 4.0, 2.25])))
        assert np.allclose(eigenphases(u), [0.5, 2.25, 4.0], atol=1e-12)

    def test_identity(self):
        assert np.allclose(eigenphases(np.eye(3)), 0.0)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            eigenphases(np.eye(3) * 1.5)
        with pytest.raises(ValueError):
            eigenphases(np.ones((2, 3)))

    def test_empty_stack_has_no_phases(self):
        # an empty stack has unitarity residual 0
        assert sampler._unitarity_residual(np.zeros((0, 4, 4), dtype=complex)) == 0.0
        assert eigenphases(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4)
        assert eigenphases(np.zeros((3, 0, 2, 2))).shape == (3, 0, 2)

    def test_tolerance_override(self, monkeypatch):
        u = np.eye(2) * (1.0 + 5e-7)
        with pytest.raises(ValueError):
            eigenphases(u)
        monkeypatch.setattr(sampler, "UNITARITY_TOL", 1e-5)
        ph = eigenphases(u)
        assert np.allclose(ph, 0.0)


class TestCayleyGuard:
    # generic phases, none near pi, plus one at pi + delta
    OTHERS = [0.2, 0.9, 1.7, 2.5, 4.0, 5.1, 6.0]

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 0.0])
    def test_eigenvalue_near_minus_one(self, delta):
        theta = np.array([np.pi + delta] + self.OTHERS)
        q = sample_haar_unitary(theta.size, RngStream(21, 0))
        u = with_known_spectrum(theta, q)
        assert circular_mismatch(eigenphases(u), theta) < 1e-11

    @pytest.mark.parametrize("u, want", [
        (-np.eye(3), [np.pi] * 3),
        (np.array([[np.exp(2j)]]), [2.0]),
        (np.array([[-1.0 + 0j]]), [np.pi]),
        (np.diag(np.exp(1j * np.array([0.5, np.pi, 4.0]))), [0.5, np.pi, 4.0]),
    ])
    def test_edge_spectra(self, u, want):
        assert circular_mismatch(eigenphases(u), want) < 1e-12

    def test_fallback_only_near_minus_one(self, monkeypatch):
        calls = []
        general = sampler._phases_general

        def spy(u):
            calls.append(u.shape[0])
            return general(u)

        monkeypatch.setattr(sampler, "_phases_general", spy)
        eigenphases(sample_haar_unitary(40, RngStream(9)))
        assert calls == []
        theta = np.array([np.pi + 1e-6] + self.OTHERS)
        eigenphases(with_known_spectrum(theta, sample_haar_unitary(8, RngStream(21, 0))))
        assert calls == [8]

    @pytest.mark.parametrize("lam, fallback", [(1.9e3, False), (2.1e3, True)])
    def test_guard_sits_at_cayley_max_abs(self, lam, fallback, monkeypatch):
        # One phase at pi - 2 arctan(1/lam) has the Cayley eigenvalue
        # tan(theta/2) = lam; the other eleven keep theirs below tan(0.45 pi).
        # Just inside the guard the Cayley phases hold to 1e-12; just outside
        # it every draw goes to eigvals.
        calls = []
        general = sampler._phases_general

        def spy(u):
            calls.append(u.shape[0])
            return general(u)

        monkeypatch.setattr(sampler, "_phases_general", spy)
        rng = np.random.default_rng(7)
        worst = 0.0
        for s in range(40):
            theta = np.append(rng.uniform(-0.9 * np.pi, 0.9 * np.pi, 11), np.pi - 2 * np.arctan(1 / lam))
            u = with_known_spectrum(theta, sample_haar_unitary(12, RngStream(33, s)))
            worst = max(worst, circular_mismatch(eigenphases(u), theta))
        assert calls == ([12] * 40 if fallback else [])
        assert worst < 1e-12


class TestEigvalsOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 24, 40])
    def test_agrees_with_eigvals(self, n):
        worst = 0.0
        for s in range(200):
            u = sample_haar_unitary(n, RngStream(404, s))
            worst = max(worst, circular_mismatch(eigenphases(u), eigvals_reference(u)))
        assert worst < 1e-10

    def test_run_experiment_unchanged_under_eigvals(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            mode="pair", dims=(2, 24), n_samples=80, seed=17, n_bins=16, delta_max=3.0,
        )
        fast, _ = run_experiment(cfg, out_dir=str(tmp_path / "cayley"))
        monkeypatch.setattr(sampler, "_phases_cayley", sampler._phases_general)
        ref, _ = run_experiment(cfg, out_dir=str(tmp_path / "eigvals"))
        assert np.array_equal(fast.pair.batch_counts, ref.pair.batch_counts)
        # count variances are exact functions of the integer arc-count moments
        assert fast.count_var == ref.count_var
        for name in ("pair_correlation.csv", "count_variance.csv"):
            a = (tmp_path / "cayley" / name).read_bytes()
            b = (tmp_path / "eigvals" / name).read_bytes()
            assert a == b, name


class TestStackedDraws:
    # generic phases, none near pi, plus one at pi + 1e-6 (guard fallback)
    NEAR_PI = [np.pi + 1e-6, 0.2, 0.9, 1.7, 2.5, 4.0, 5.1, 6.0]

    def mixed_stack(self):
        n = len(self.NEAR_PI)
        haar = [sample_haar_unitary(n, RngStream(55, s)) for s in range(6)]
        near = with_known_spectrum(self.NEAR_PI, sample_haar_unitary(n, RngStream(21, 0)))
        return np.stack(haar[:2] + [-np.eye(n)] + haar[2:4] + [near] + haar[4:])

    def test_block_matches_one_at_a_time(self):
        gens = [RngStream(8, s).generator() for s in range(5)]
        stacks = sample_haar_block((2, 7, 3), gens)
        for s in range(5):
            gen = RngStream(8, s).generator()
            for n, stack in zip((2, 7, 3), stacks):
                assert stack.shape == (5, n, n)
                assert np.array_equal(stack[s], sample_haar_unitary(n, gen))

    def test_mixed_entries_match_one_at_a_time(self):
        shared = RngStream(8, 90).generator()
        entries = [RngStream(8, 0), shared, RngStream(8, 2), shared, RngStream(8, 90).generator()]
        stacks = sample_haar_block((3, 2), iter(entries))  # any iterable
        shared = RngStream(8, 90).generator()
        singles = [RngStream(8, 0), shared, RngStream(8, 2), shared, RngStream(8, 90).generator()]
        for b, entry in enumerate(singles):
            gen = entry.generator() if isinstance(entry, RngStream) else entry
            for n, stack in zip((3, 2), stacks):
                assert np.array_equal(stack[b], sample_haar_unitary(n, gen))

    def test_rejects_unknown_entry_before_drawing(self):
        gen = RngStream(4).generator()
        with pytest.raises(ValueError, match="rng must be"):
            sample_haar_block([2], [gen, 1234])
        assert np.array_equal(gen.random(3), RngStream(4).generator().random(3))

    def test_shared_generator_draws_in_order(self):
        gen = RngStream(9).generator()
        stack = sample_haar_block([4], [gen] * 6)[0]
        gen = RngStream(9).generator()
        for u in stack:
            assert np.array_equal(u, sample_haar_unitary(4, gen))

    def test_block_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            sample_haar_block([3, 0], [RngStream(0)])
        monkeypatch.setattr(sampler, "DEFAULT_MAX_DIM", 5)
        with pytest.raises(CapacityError):
            sample_haar_block([3, 6], [RngStream(0)])

    @pytest.fixture
    def general_calls(self, monkeypatch):
        """Shapes passed to the eigvals fallback from here on."""
        calls = []
        general = sampler._phases_general

        def spy(u):
            calls.append(u.shape)
            return general(u)

        monkeypatch.setattr(sampler, "_phases_general", spy)
        return calls

    def test_mixed_stack_rows_equal_single_calls(self, general_calls):
        stack = self.mixed_stack()
        want = np.stack([eigenphases(u) for u in stack])
        general_calls.clear()
        # the stacked solve fails on -I, so each matrix is redone alone,
        # and the near -1 matrix still takes the eigvals fallback
        got = eigenphases(stack)
        assert np.array_equal(got, want)
        assert general_calls == [(8, 8), (8, 8)]
        assert circular_mismatch(got[2], [np.pi] * 8) < 1e-12
        assert circular_mismatch(got[5], self.NEAR_PI) < 1e-11

    def test_guard_fallback_inside_a_solvable_stack(self, general_calls):
        stack = np.delete(self.mixed_stack(), 2, axis=0)
        got = eigenphases(stack)
        assert general_calls == [(8, 8)]
        assert np.array_equal(got, np.stack([eigenphases(u) for u in stack]))

    def test_stack_shapes(self):
        stack = self.mixed_stack().reshape(2, 4, 8, 8)
        got = eigenphases(stack)
        assert got.shape == (2, 4, 8)
        assert np.array_equal(got[1, 2], eigenphases(stack[1, 2]))

    def test_one_non_unitary_matrix_rejects_the_stack(self):
        stack = self.mixed_stack()
        stack[4] = stack[4] * (1.0 + 1e-6)
        with pytest.raises(ValueError, match="unitarity residual"):
            eigenphases(stack)


class TestBoxMullerOracle:
    @pytest.mark.parametrize("n, b", [(1, 5), (2, 64), (16, 9), (40, 3)])
    def test_random_blocks(self, n, b):
        u = np.random.default_rng(n).random((b, 2 * n * n))
        u1, u2 = u[:, : n * n], u[:, n * n :]
        assert same_bits(sampler._complex_ginibre(u1, u2, n), reference_ginibre(u1, u2, n))

    def test_signed_zeros(self):
        # u1 = 0 gives r = -0, and u2 = 0 a zero sine; u2 runs through
        # every quadrant of the angle
        u2 = np.concatenate([[0.0, 0.25, 0.5, 0.75], np.linspace(0.0, 1.0, 64, endpoint=False)])
        u1 = np.zeros_like(u2)
        u1[::3] = np.random.default_rng(7).random(u2[::3].size)
        for a, b in ((u1, u2), (np.zeros_like(u2), u2), (u2, np.zeros_like(u2))):
            got = sampler._complex_ginibre(a[None], b[None], 1)
            assert same_bits(got, reference_ginibre(a[None], b[None], 1))


class TestUnitarityResidual:
    @staticmethod
    def reference(u):
        return np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(u.shape[-1])))

    def test_bit_equal(self):
        haar = sample_haar_block([6], [RngStream(12, s) for s in range(8)])[0]
        skewed = haar * np.linspace(0.9, 1.1, 6)
        for stack in (haar, skewed, haar[3], -np.eye(4), np.eye(3) * 1.5):
            got, want = sampler._unitarity_residual(stack), self.reference(stack)
            assert np.array_equal(np.float64(got).view(np.uint64), np.float64(want).view(np.uint64))

    def test_integer_and_bool_input(self):
        perm = np.eye(3, dtype=bool)[[2, 0, 1]]
        assert sampler._unitarity_residual(perm) == 0.0
        assert sampler._unitarity_residual(2 * np.eye(2, dtype=int)) == 3.0
        assert circular_mismatch(eigenphases(perm), [0.0, TWO_PI / 3, 2 * TWO_PI / 3]) < 1e-12


class TestCuePhases:
    def test_shape_and_determinism(self):
        a = eigenphases(sample_haar_unitary(12, RngStream(5, 3)))
        b = eigenphases(sample_haar_unitary(12, RngStream(5, 3)))
        assert a.shape == (12,)
        assert np.array_equal(a, b)
        assert np.all((a >= 0.0) & (a < TWO_PI))

    def test_rotation_invariance_of_mean_count(self):
        # stationarity: expected counts in any fixed arc equal n * |arc| / 2pi
        gen = RngStream(31).generator()
        arc = (1.0, 2.5)
        counts = np.array([
            np.count_nonzero((p >= arc[0]) & (p < arc[1]))
            for p in (eigenphases(sample_haar_unitary(10, gen)) for _ in range(3000))
        ])
        expect = 10 * (arc[1] - arc[0]) / TWO_PI
        se = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - expect) < 4 * se


def block_phases(seed, dims, count, chunk=1000):
    """Eigenphases of count block draws on RngStream(seed, i), i < count:
    one (count, n) array per n in dims."""
    phases = [[] for _ in dims]
    for start in range(0, count, chunk):
        stacks = sample_haar_block(dims, [RngStream(seed, i) for i in range(start, min(start + chunk, count))])
        for out, u in zip(phases, stacks):
            out.append(eigenphases(u))
    return [np.concatenate(p) for p in phases]


def trace_power(theta, r):
    """|Tr U^r|^2 of each row of eigenphases."""
    return np.abs(np.exp(1j * r * theta).sum(axis=-1)) ** 2


def z_score(values, want):
    return (values.mean() - want) / (values.std(ddof=1) / np.sqrt(values.size))


class TestFormFactor:
    # E|Tr U^r|^2 = min(r, n) for Haar U on U(n) (Diaconis & Shahshahani
    # 1994): every power of the spectrum, where criterion 10 checks r = 1.
    # 12,000 draws per seed, about 1 s; the worst |z| over the 42 cells is 2.02.
    DRAWS = 12_000

    def test_single_factor_traces(self):
        dims = (2, 3, 5, 8)
        for n, theta in zip(dims, block_phases(2201, dims, self.DRAWS)):
            for r in range(1, 2 * n + 1):
                z = z_score(trace_power(theta, r), min(r, n))
                assert abs(z) < 4.5, (n, r, z)

    def test_product_of_independent_factors(self):
        # the factors of one sample are independent, so the moments multiply
        u, v = block_phases(2202, (2, 3), self.DRAWS)
        for r in range(1, 7):
            z = z_score(trace_power(u, r) * trace_power(v, r), min(r, 2) * min(r, 3))
            assert abs(z) < 4.5, (r, z)
