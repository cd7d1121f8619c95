import itertools

import numpy as np
import pytest

from kronphase import CapacityError, cli, sampler
from kronphase.config import ExperimentConfig
from kronphase.runner import run_experiment
from kronphase.sampler import (
    DEFAULT_MAX_DIM,
    UNITARITY_TOL,
    RngStream,
    eigenphases,
    sample_factor_phases,
    sample_haar_unitary,
)

TWO_PI = 2.0 * np.pi
KEY_WORDS = (0, 1, 1 << 63, (1 << 64) - 1)


def oracle_generator(seed, stream_id):
    """The stream as first defined: Philox keyed by the 128-bit integer
    (seed << 64) | stream_id."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | stream_id))


def reference_ginibre(u1, u2, n):
    """Box-Muller with the half-angle rule, one plane at a time: with
    t = tan(pi u2), r (1 - t^2) / (1 + t^2) / sqrt(2) and
    r 2t / (1 + t^2) / sqrt(2), each scale taken as r / (1 + t^2) times
    1 / sqrt(2)."""
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    t = np.tan(np.pi * u2)
    scale = r / (1.0 + t * t) * (1.0 / np.sqrt(2.0))
    z = np.empty(np.shape(u2), dtype=complex)
    z.real = (1.0 - t * t) * scale
    z.imag = (t + t) * scale
    return z.reshape(-1, n, n)


def factor_stack(dims, i, seed, start, stop):
    """Haar stack of factor i of dims for samples start .. stop - 1 of seed:
    the matrices whose sorted phases sample_factor_phases returns."""
    n = dims[i]
    u = sampler._uniforms(seed, start, stop, 2 * n * n, sum(2 * m * m for m in dims[:i]))
    return sampler._haar_from_uniforms(u, n)


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
        # the fill's one Philox, set to the stream from any word, gives the
        # same words, and again for a second row after the first left its
        # buffer part-read; the pair of ids holds stream_id, 2^64 - 1 too
        lo = min(stream_id, (1 << 64) - 2)
        both = [oracle_generator(seed, s).random(9) for s in (lo, lo + 1)]
        for word in (0, 1, 4, 7):
            rows = sampler._uniforms(seed, lo, lo + 2, 9 - word, word)
            assert np.array_equal(rows, [w[word:] for w in both])

    @pytest.mark.parametrize("seed, stream_id", [(0, 1), ((1 << 64) - 1, 1 << 63)])
    def test_block_draws_equal_the_integer_key(self, seed, stream_id):
        want = oracle_generator(seed, stream_id)
        for i, n in enumerate((3, 2)):
            got = sample_factor_phases([3, 2], i, seed, stream_id, stream_id + 1)
            assert np.array_equal(got[0], eigenphases(sample_haar_unitary(n, want)))

    def test_block_builds_at_most_one_philox(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def spy(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", spy)
        for i, n in enumerate((2, 5)):
            sampler._uniforms(3, 0, 6, 2 * n * n, 8 * i)
            assert len(built) == 2 * i + 1
            sample_factor_phases((2, 5), i, 3, 0, 6)
            assert len(built) == 2 * i + 2
        built.clear()
        sample_haar_unitary(4, np.random.Generator(philox(1)))
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

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 0, 0)])
    def test_refuses_matrices_of_size_zero(self, shape):
        # numpy's reshape once failed here with "cannot reshape array of size 0"
        with pytest.raises(ValueError, match="^eigenphases: input must be a square matrix"):
            eigenphases(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("where", ["nan", "inf", "-inf", "complex-inf", "stack-nan"])
    def test_refuses_non_finite_input(self, where):
        # a NaN residual once passed "resid > tol", and numpy's eigensolver
        # raised its own LinAlgError (a ValueError) on the entry instead
        if where == "nan":
            u = np.full((2, 2), np.nan)
        elif where == "stack-nan":
            u = factor_stack([3], 0, 5, 0, 4)
            u[2] = np.nan
        else:
            u = np.eye(3, dtype=complex if where == "complex-inf" else float)
            u[1, 2] = {"inf": np.inf, "-inf": -np.inf, "complex-inf": complex(0, np.inf)}[where]
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^eigenphases: unitarity residual nan"):
            eigenphases(u)

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
        self.check_guard(np.pi - 2 * np.arctan(1 / lam), fallback, monkeypatch)

    @pytest.mark.parametrize("lam, fallback", [(1.9e3, False), (2.1e3, True)])
    def test_guard_sits_at_cayley_max_abs_below_zero(self, lam, fallback, monkeypatch):
        # the mirror case: a phase at -pi + 2 arctan(1/lam), near pi from
        # above, has the Cayley eigenvalue -lam, the first of its sorted row
        self.check_guard(-np.pi + 2 * np.arctan(1 / lam), fallback, monkeypatch)

    @staticmethod
    def check_guard(edge, fallback, monkeypatch):
        calls = []
        general = sampler._phases_general

        def spy(u):
            calls.append(u.shape[0])
            return general(u)

        monkeypatch.setattr(sampler, "_phases_general", spy)
        rng = np.random.default_rng(7)
        worst = 0.0
        for s in range(40):
            theta = np.append(rng.uniform(-0.9 * np.pi, 0.9 * np.pi, 11), edge)
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
        stacks = [factor_stack((2, 7, 3), i, 8, 0, 5) for i in range(3)]
        for s in range(5):
            gen = RngStream(8, s).generator()
            for n, stack in zip((2, 7, 3), stacks):
                assert stack.shape == (5, n, n)
                assert np.array_equal(stack[s], sample_haar_unitary(n, gen))

    @pytest.mark.parametrize("seed", KEY_WORDS)
    def test_block_matches_qr_oracle(self, seed):
        # each matrix is Q of the stream's own Box-Muller oracle, its columns
        # scaled by the unit phases of R's diagonal: the phase fix checked
        # bit for bit, where a freed or aliased uniform slice would show
        dims = (2, 7, 3)
        for s in KEY_WORDS:
            u = oracle_generator(seed, s).random(sum(2 * n * n for n in dims))
            for i, n in enumerate(dims):
                u1, u2, u = u[: n * n], u[n * n : 2 * n * n], u[2 * n * n :]
                q, r = np.linalg.qr(reference_ginibre(u1, u2, n)[0])
                d = np.diag(r)
                assert same_bits(factor_stack(dims, i, seed, s, s + 1)[0], q * (d / abs(d)))

    @pytest.mark.parametrize("seed", KEY_WORDS)
    def test_factor_draw_equals_the_whole_sample(self, seed):
        # 3 x 3, 5 x 5 and 2 x 2 factors start at words 0, 18 and 68 of each
        # stream: the second from the middle of a Philox block of four words.
        # Each is its slice of the sample's oracle words, one Haar block each.
        dims = (3, 5, 2)
        for s in KEY_WORDS:
            words = oracle_generator(seed, s).random((1, 76))
            for i, (n, word) in enumerate(zip(dims, (0, 18, 68))):
                want = sampler._haar_from_uniforms(words[:, word : word + 2 * n * n], n)
                assert same_bits(factor_stack(dims, i, seed, s, s + 1), want)
        assert sample_factor_phases(dims, 1, seed, 7, 7).shape == (0, 5)
        assert sampler._uniforms(seed, 7, 7, 50, 18).shape == (0, 50)

    @pytest.mark.parametrize("dims, start, stop, block_bytes", [
        # 3 samples of 5 x 5 a block: 3, 3, 3, 1; 8 of 3 x 3: 8, 2; 2 x 2 in one
        ((3, 5, 2), 3, 13, 3 * 16 * 5 ** 2),
        # the last stream ids, 2^64 - 2 and 2^64 - 1, one sample a block
        ((4, 2), (1 << 64) - 2, 1 << 64, 1),
    ])
    def test_factor_phases_equal_consecutive_draws(self, dims, start, stop, block_bytes, monkeypatch):
        monkeypatch.setattr(sampler, "BLOCK_BYTES", block_bytes)
        rows = [sample_factor_phases(dims, i, 8, start, stop) for i in range(len(dims))]
        for b, s in enumerate(range(start, stop)):
            gen = RngStream(8, s).generator()
            for n, phases in zip(dims, rows):
                assert phases.shape == (stop - start, n)
                assert same_bits(phases[b], eigenphases(sample_haar_unitary(n, gen)))

    def test_factor_draw_validation(self, monkeypatch):
        with pytest.raises(ValueError, match="i must be >= 0"):
            sample_factor_phases([2, 3], -1, 1, 0, 1)
        with pytest.raises(ValueError, match=r"i must be in \[0, 2\), got 2"):
            sample_factor_phases([2, 3], 2, 1, 0, 1)
        monkeypatch.setattr(sampler, "DEFAULT_MAX_DIM", 5)
        with pytest.raises(CapacityError, match="sample_factor_phases: n=6 exceeds max 5"):
            sample_factor_phases([2, 6], 0, 0, 0, 1)

    def test_rejects_bad_range_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(sampler, "_uniforms", lambda *args: drawn.append(args))
        seed_message, range_message = r"seed must be in \[0, 2\^64\)", r"need 0 <= start <= stop <= 2\^64, got "
        for seed, start, stop, message in [
            (-1, 0, 1, seed_message),
            (1 << 64, 0, 1, seed_message),
            (4, -1, 1, range_message + "-1 and 1"),
            (4, 3, 2, range_message + "3 and 2"),
            (4, 0, (1 << 64) + 1, range_message + "0 and %d" % ((1 << 64) + 1)),
        ]:
            with pytest.raises(ValueError, match="^sample_factor_phases: " + message):
                sample_factor_phases([2], 0, seed, start, stop)
        assert drawn == []

    def test_shared_generator_draws_in_order(self):
        # criterion 10's block draw: consecutive draws of one generator
        stack = sampler._haar_from_uniforms(RngStream(9).generator().random((6, 32)), 4)
        gen = RngStream(9).generator()
        for u in stack:
            assert same_bits(u, sample_haar_unitary(4, gen))

    def test_block_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            sample_factor_phases([3, 0], 0, 0, 0, 1)
        monkeypatch.setattr(sampler, "DEFAULT_MAX_DIM", 5)
        with pytest.raises(CapacityError):
            sample_factor_phases([3, 6], 0, 0, 0, 1)

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


class TestRunDrawsAreUnitary:
    """The command's draws go to the eigensolve unchecked
    (sampler._sorted_phases), so their unitarity is tested here."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 24, 40, DEFAULT_MAX_DIM])
    def test_drawn_stacks_are_unitary(self, n):
        # words other than 0 and 4k start a factor inside a Philox block;
        # a 512 x 512 draw takes about 0.25 s, so that size gets two
        cases = ((0, 0, 0), (7, 3, 1), (1 << 63, 11, 8), ((1 << 64) - 1, 5, 514))
        for seed, start, word in cases if n < DEFAULT_MAX_DIM else cases[-1:]:
            stop = start + min(3, sampler.block_length([n]))
            u = sampler._haar_from_uniforms(sampler._uniforms(seed, start, stop, 2 * n * n, word), n)
            assert u.shape == (stop - start, n, n)
            assert sampler._unitarity_residual(u) < UNITARITY_TOL
        last = (1 << 64) - 1  # the last stream id
        u = sampler._haar_from_uniforms(sampler._uniforms(last, last, 1 << 64, 2 * n * n, 3), n)
        assert sampler._unitarity_residual(u) < UNITARITY_TOL

    def test_nan_draw_fails_the_command(self, tmp_path, monkeypatch, capsys):
        # without the unitarity check a NaN stack reaches the eigensolve,
        # whose eigvals fallback refuses it: a runtime error (exit 2) that
        # names the factor and its samples, before any output
        draw = sampler._haar_from_uniforms

        def poisoned(u, n):
            q = draw(u, n)
            q[-1, 0, n - 1] = np.nan
            return q

        monkeypatch.setattr(sampler, "_haar_from_uniforms", poisoned)
        out = tmp_path / "not-made"
        argv = ["correlate", "--mode", "pair", "--dims", "2,12", "--samples", "20", "--seed", "5"]
        with np.errstate(invalid="ignore"):
            assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eigensolve of factor 0 (n=2), samples 0 .. 19 of seed 5 failed: ")
        assert not out.exists()

    def test_solve_fault_names_its_block(self, monkeypatch):
        # blocks of 4 samples of 3 x 3, with a NaN in the short last block
        # only: samples 2 .. 5 solve, 6 .. 8 do not.  The error is not a
        # ValueError, which callers read as bad input.
        draw = sampler._haar_from_uniforms
        monkeypatch.setattr(sampler, "_haar_from_uniforms", lambda u, n: draw(u, n) * (np.nan if len(u) < 4 else 1.0))
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 16 * 3 * 3 * 4)
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match=r"factor 1 \(n=3\), samples 6 .. 8 of seed 8") as info:
            sample_factor_phases((2, 3), 1, 8, 2, 9)
        assert not isinstance(info.value, ValueError)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestBoxMullerOracle:
    @pytest.mark.parametrize("n, b", [(1, 5), (2, 64), (16, 9), (40, 3)])
    def test_random_blocks(self, n, b):
        u = np.random.default_rng(n).random((b, 2 * n * n))
        u1, u2 = u[:, : n * n], u[:, n * n :]
        assert same_bits(sampler._complex_ginibre(u1, u2, n), reference_ginibre(u1, u2, n))

    def test_signed_zeros(self):
        # u1 = 0 gives r = -0, and u2 = 0 a zero tangent; u2 runs through
        # every quadrant of the angle.  With r = -0 each plane is a zero
        # whose sign is that of its product: -0 times (1 - t^2) and times 2t.
        u2 = np.concatenate([[0.0, 0.25, 0.5, 0.75], np.linspace(0.0, 1.0, 64, endpoint=False)])
        u1 = np.zeros_like(u2)
        u1[::3] = np.random.default_rng(7).random(u2[::3].size)
        for a, b in ((u1, u2), (np.zeros_like(u2), u2), (u2, np.zeros_like(u2))):
            got = sampler._complex_ginibre(a[None], b[None], 1)
            assert same_bits(got, reference_ginibre(a[None], b[None], 1))
        t = np.tan(np.pi * u2)
        got = sampler._complex_ginibre(np.zeros_like(u2)[None], u2[None], 1).ravel()
        assert not got.any()
        assert np.array_equal(np.signbit(got.real), ~(1.0 - t * t < 0))
        assert np.array_equal(np.signbit(got.imag), ~(t < 0))

    @pytest.mark.parametrize("n, b", [(1, 5), (2, 64), (16, 9), (40, 3)])
    def test_within_rounding_of_cos_and_sin(self, n, b):
        # the half-angle rule against r (cos 2 pi u2 + i sin 2 pi u2) / sqrt(2):
        # within 4.5e-16, relative where that value's modulus exceeds 1, on
        # random blocks and on the quadrant edges, 1/2 +- 2^-53 and 1 - 2^-53,
        # with u1 = 0 (r = 0) and with random u1
        u = np.random.default_rng(n).random((b, 2 * n * n))
        edges = np.array([0.0, 0.25, 0.5, 0.75, 0.5 - 2.0**-53, 0.5 + 2.0**-53, 1.0 - 2.0**-53])
        rand = np.random.default_rng(b).random(edges.size)
        for u1, u2 in ((u[:, : n * n], u[:, n * n :]), (np.zeros((1, edges.size)), edges[None]), (rand[None], edges[None])):
            r = np.sqrt(-2.0 * np.log(1.0 - u1))
            want = r * (np.cos(TWO_PI * u2) + 1j * np.sin(TWO_PI * u2)) / np.sqrt(2.0)
            err = np.abs(sampler._complex_ginibre(u1, u2, 1).reshape(want.shape) - want)
            assert np.all(err <= 4.5e-16 * np.maximum(1.0, np.abs(want)))


class TestUnitarityResidual:
    @staticmethod
    def reference(u):
        return np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(u.shape[-1])))

    def test_bit_equal(self):
        haar = factor_stack([6], 0, 12, 0, 8)
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


def block_phases(seed, dims, count):
    """Eigenphases of count block draws on RngStream(seed, i), i < count:
    one (count, n) array per n in dims."""
    return [sample_factor_phases(dims, i, seed, 0, count) for i in range(len(dims))]


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
