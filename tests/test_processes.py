import tracemalloc

import numpy as np
import pytest

from kronphase import CapacityError, cli, processes
from kronphase.config import ExperimentConfig
from kronphase.processes import (
    RescaledConfig,
    circle_rows,
    reduce_phases,
    rescale_center,
    rescale_points,
    tensor_phases,
    triple_tensor,
)
from kronphase.sampler import RngStream, eigenphases, sample_haar_unitary

TWO_PI = 2.0 * np.pi


class TestReducePhases:
    def test_window(self):
        x = np.linspace(-25.0, 25.0, 20001)
        r = reduce_phases(x)
        assert np.all((r >= 0.0) & (r < TWO_PI))
        assert np.allclose(np.exp(1j * r), np.exp(1j * x), atol=1e-12)

    def test_boundary(self):
        assert reduce_phases(TWO_PI) == 0.0
        assert reduce_phases(0.0) == 0.0
        assert reduce_phases(-TWO_PI) == 0.0
        # a value that floor-reduction rounds right onto 2pi
        tiny = -1e-18
        assert 0.0 <= reduce_phases(tiny) < TWO_PI
        # x / 2pi underflows to -0.0 for a negative subnormal x, so floor
        # leaves r = x < 0
        for x in (-5e-324, -1e-310, -0.0, 5e-324):
            r = reduce_phases(np.array([x]))
            assert 0.0 <= r[0] < TWO_PI and not np.signbit(r[0]), x
        assert reduce_phases(-5e-324) == 0.0

    def test_matches_mod_on_eigensolver_range(self):
        # eigenphases reduces 2 arctan(lambda) and eigvals angles, all in
        # [-pi, pi], which np.mod (with 2pi mapped to 0) reduced before
        gen = np.random.Generator(np.random.PCG64(3))
        edges = [np.pi, -np.pi, 0.0, -0.0, 5e-324, -5e-324, np.nextafter(0.0, -1.0), np.nextafter(-np.pi, 0.0)]
        x = np.concatenate([gen.uniform(-np.pi, np.pi, 100000), 2.0 * np.arctan(1e6 * gen.standard_normal(100000)), edges])
        want = np.mod(x, TWO_PI)
        want[want >= TWO_PI] = 0.0
        assert np.array_equal(reduce_phases(x).view(np.int64), want.view(np.int64))


class TestTensorPhases:
    def test_identity_factor(self):
        b = np.array([0.3, 1.2, 5.9])
        assert np.allclose(tensor_phases([0.0], b), np.sort(b))

    def test_shift_wraps(self):
        out = tensor_phases([np.pi], [np.pi / 2, 3 * np.pi / 2])
        assert np.allclose(out, [np.pi / 2, 3 * np.pi / 2])

    def test_size_and_sorted(self):
        a = eigenphases(sample_haar_unitary(6, RngStream(1, 0)))
        b = eigenphases(sample_haar_unitary(7, RngStream(1, 1)))
        t = tensor_phases(a, b)
        assert t.size == 42
        assert np.all(np.diff(t) >= 0)
        assert np.all((t >= 0.0) & (t < TWO_PI))

    def test_multiset_keeps_repeats(self):
        t = tensor_phases([0.0, 0.0], [1.0])
        assert t.size == 2
        assert t[0] == t[1] == 1.0

    def test_commutes(self):
        a = np.array([0.1, 2.2, 4.0])
        b = np.array([0.7, 3.3])
        assert np.allclose(tensor_phases(a, b), tensor_phases(b, a))

    def test_any_number_of_factors(self):
        # one factor's sorted phases in [0, 2pi) come back bit for bit
        a = eigenphases(sample_haar_unitary(5, RngStream(3, 0)))
        assert np.array_equal(tensor_phases(a), a)
        assert np.array_equal(tensor_phases([6.0, 1.0, TWO_PI]), [0.0, 1.0, 6.0])
        assert np.array_equal(tensor_phases(a, a, a), triple_tensor(a, a, a))
        with pytest.raises(ValueError):
            tensor_phases()

    def test_empty_stacks(self):
        assert tensor_phases(np.zeros((0, 2)), np.zeros((0, 3))).shape == (0, 6)
        assert tensor_phases(np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 4))).shape == (0, 24)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            tensor_phases(np.zeros(1100), np.zeros(1000))
        with pytest.raises(ValueError):
            tensor_phases([], [0.0])


class TestTripleTensor:
    def test_matches_iterated_pair(self):
        a = eigenphases(sample_haar_unitary(2, RngStream(2, 0)))
        b = eigenphases(sample_haar_unitary(3, RngStream(2, 1)))
        c = eigenphases(sample_haar_unitary(4, RngStream(2, 2)))
        direct = triple_tensor(a, b, c)
        iterated = tensor_phases(tensor_phases(a, b), c)
        assert direct.size == 24
        assert np.allclose(direct, iterated, atol=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            triple_tensor(np.zeros(128), np.zeros(128), np.zeros(128))


class TestStackedRows:
    def factor_stack(self, n, seed):
        return np.stack([eigenphases(sample_haar_unitary(n, RngStream(seed, s))) for s in range(5)])

    def test_tensor_rows_equal_single_calls(self):
        a = self.factor_stack(2, 6)
        b = self.factor_stack(7, 7)
        got = tensor_phases(a, b)
        assert got.shape == (5, 14)
        for s in range(5):
            assert np.array_equal(got[s], tensor_phases(a[s], b[s]))

    def test_triple_rows_equal_single_calls(self):
        a, b, c = self.factor_stack(2, 6), self.factor_stack(3, 7), self.factor_stack(4, 8)
        got = triple_tensor(a, b, c)
        assert got.shape == (5, 24)
        for s in range(5):
            assert np.array_equal(got[s], triple_tensor(a[s], b[s], c[s]))

    def test_rescale_rows_equal_single_calls(self):
        phases = tensor_phases(self.factor_stack(2, 6), self.factor_stack(7, 7))
        theta = rescale_points(phases, 14)
        for s in range(5):
            assert np.array_equal(np.sort(theta[s]), rescale_center(phases[s], 14).points)

    def test_capacity_counts_points_per_row(self, monkeypatch):
        with pytest.raises(CapacityError):
            tensor_phases(np.zeros((2, 1100)), np.zeros((2, 1000)))
        monkeypatch.setattr(processes, "DEFAULT_TENSOR_CAPACITY", 20)
        assert tensor_phases(np.zeros((3, 4)), np.zeros((3, 5))).shape == (3, 20)
        with pytest.raises(CapacityError):
            triple_tensor(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 6)))


class TestRescaleCenter:
    def test_intensity_one(self):
        phases = eigenphases(sample_haar_unitary(30, RngStream(4)))
        cfg = rescale_center(phases, 30)
        assert cfg.circumference == 30.0
        assert len(cfg) == 30
        assert cfg.points.min() >= -15.0
        assert cfg.points.max() < 15.0

    def test_linear_map(self):
        cfg = rescale_center(np.array([np.pi, np.pi + TWO_PI / 10]), 2)
        assert np.allclose(cfg.points, [0.0, 0.2])

    def test_center(self):
        cfg = rescale_center(np.array([np.pi]), 1)
        assert cfg.points[0] == 0.0

    def test_wrap_at_half(self):
        # phase 0 maps to -P/2 exactly; phase just below 2pi stays below +P/2
        cfg = rescale_center(np.array([0.0, TWO_PI * (1 - 1e-12)]), 2)
        assert cfg.points[0] == -1.0
        assert cfg.points[1] < 1.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            rescale_center(np.array([0.1, 0.2]), 3)


class TestRescaledConfig:
    def test_sorts(self):
        cfg = RescaledConfig(points=np.array([0.5, -1.0, 0.0]), circumference=4.0)
        assert np.array_equal(cfg.points, [-1.0, 0.0, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            RescaledConfig(points=np.array([3.0]), circumference=4.0)
        with pytest.raises(ValueError):
            RescaledConfig(points=np.array([np.nan]), circumference=4.0)
        with pytest.raises(ValueError):
            RescaledConfig(points=np.array([0.0]), circumference=0.0)
        with pytest.raises(ValueError):
            RescaledConfig(points=np.zeros((2, 2)), circumference=4.0)

    @pytest.mark.parametrize("circumference", [np.nan, np.inf])
    def test_rejects_non_finite_circumference(self, circumference):
        with pytest.raises(ValueError, match="circumference must be positive and finite"):
            RescaledConfig(points=np.array([0.0, 1.0]), circumference=circumference)
        with pytest.raises(ValueError, match="circumference must be positive and finite"):
            circle_rows(np.zeros((2, 3)), circumference)

    def test_empty_allowed(self):
        cfg = RescaledConfig(points=np.array([]), circumference=4.0)
        assert len(cfg) == 0


class TestCircleRows:
    def test_wrapped_row_is_sorted_like_rescaled_config(self):
        # a phase of exactly 2pi rescales onto +P/2, which rescale_points
        # maps to -P/2 at the end of its row
        phases = np.array([[0.5, 3.0, TWO_PI], [0.25, 1.0, 6.0]])
        theta = rescale_points(phases, 3)
        assert theta[0, -1] == -1.5
        rows = circle_rows(theta, 3)
        assert np.array_equal(rows[0], [-1.5, theta[0, 0], theta[0, 1]])
        assert np.array_equal(rows[1], theta[1])
        for s in range(2):
            assert np.array_equal(rows[s], RescaledConfig(points=theta[s], circumference=3.0).points)

    def test_checks_every_row(self):
        good = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.5, 1.5]])
        # a sorted block comes back unmodified; an unsorted one as a sorted
        # copy, leaving the caller's array as it was
        assert circle_rows(good, 4.0) is good
        assert np.array_equal(good, [[-1.0, 0.0, 1.0], [-2.0, 0.5, 1.5]])
        unsorted = good[:, ::-1].copy()
        rows = circle_rows(unsorted, 4.0)
        assert np.array_equal(rows, good)
        assert np.array_equal(unsorted, good[:, ::-1])
        # RescaledConfig copies its own input
        assert not np.shares_memory(RescaledConfig(points=good[0], circumference=4.0).points, good)
        for bad in (np.nan, np.inf, 2.0, -2.5):
            block = good.copy()
            block[1, 2] = bad
            with pytest.raises(ValueError):
                circle_rows(block, 4.0)
        with pytest.raises(ValueError):
            circle_rows(good, 0.0)


class TestRescalePoints:
    def test_errors_name_rescale_points(self):
        with pytest.raises(ValueError, match="^rescale_points: factor product 3 does not match 2 phases$"):
            rescale_points(np.array([0.1, 0.2]), 3)
        with pytest.raises(ValueError, match="^rescale_points: factor_product must be an integer, got 2.5$"):
            rescale_points(np.array([0.1, 0.2]), 2.5)

    def test_phase_rounding_onto_plus_half_gives_minus_half(self):
        # 2pi rescales onto +P/2, the circle point -P/2; every value has the
        # bits of the np.where(theta >= P/2, theta - P, theta) form
        rng = np.random.default_rng(8)
        phases = np.sort(rng.uniform(0.0, TWO_PI, (5, 8)), axis=-1)
        phases[::2, -1] = TWO_PI
        phases[1, -1] = np.nextafter(TWO_PI, 0.0)
        theta = (8 / TWO_PI) * (phases - np.pi)
        want = np.where(theta >= 4.0, theta - 8, theta)
        got = rescale_points(phases, 8)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(got[::2, -1], [-4.0] * 3)
        assert got.min() >= -4.0 and got.max() < 4.0

    def test_fix_up_holds_the_result_and_its_mask(self):
        # the wrap is fixed in the freshly computed result, with no second
        # (B, P) array beside it
        phases = np.sort(np.random.default_rng(9).uniform(0.0, TWO_PI, (64, 512)), axis=-1)
        phases[:, -1] = TWO_PI
        rescale_points(phases, 512)  # warm-up
        tracemalloc.start()
        try:
            theta = rescale_points(phases, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= theta.nbytes + theta.size + 4096, peak


def sample_thetas(argv, out):
    """Run `kronphase sample` and read phases.csv back as {sample: thetas}."""
    base = ["sample", "--mode", "pair", "--dims", "2,12", "--samples", "3", "--seed", "2"]
    assert cli.main(base + argv + ["--out", str(out)]) == 0
    rows = {}
    for line in (out / "phases.csv").read_text().splitlines()[4:]:
        s, _, theta = line.split(",")
        rows.setdefault(int(s), []).append(float(theta))
    return rows


class TestWindow:
    """`kronphase sample --window w` keeps the points with |theta| <= w;
    ExperimentConfig checks that 0 < 2w <= P."""

    def test_selects_symmetric_interval(self, tmp_path):
        full = sample_thetas([], tmp_path / "full")
        # a half-width that one point sits on exactly, which the window keeps
        w = sorted(abs(t) for t in full[0])[12]
        kept = sample_thetas(["--window", repr(w)], tmp_path / "window")
        assert w in map(abs, kept[0])
        for s, thetas in full.items():
            assert kept.get(s, []) == [t for t in thetas if abs(t) <= w]
        assert sum(map(len, kept.values())) < sum(map(len, full.values()))

    def test_width_check(self):
        cfg = dict(mode="pair", dims=(2, 3), n_samples=1, seed=0, delta_max=3.0)
        assert ExperimentConfig(**cfg, window_half_width=3.0).window_half_width == 3.0
        with pytest.raises(ValueError, match="window_half_width must satisfy"):
            ExperimentConfig(**cfg, window_half_width=3.5)

    def test_spec_validation(self):
        cfg = dict(mode="pair", dims=(2, 3), n_samples=1, seed=0, delta_max=3.0)
        for w in (0.0, -0.5, np.nan):
            with pytest.raises(ValueError, match="window_half_width must satisfy"):
                ExperimentConfig(**cfg, window_half_width=w)
