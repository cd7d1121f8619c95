import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kronphase import estimators
from kronphase.acceptance import poisson_configs, thin_spacings
from kronphase.estimators import (
    Accumulator,
    CorrelationHistogram,
    SpacingHistogram,
    circular_gaps,
    estimate_pair_correlation,
    interval_counts,
    merge,
    spacing_histogram_from_gaps,
    triple_window_count,
)
from kronphase.gof import ks_against_exponential
from kronphase.processes import RescaledConfig, circle_rows, rescale_center, triple_tensor
from kronphase.sampler import RngStream, eigenphases, sample_haar_unitary

import oracle

ONE_MINUS_EXP_MINUS_1 = 0.63212055882855767


def lattice_sample(circumference):
    n = int(circumference)
    pts = -circumference / 2 + (np.arange(n) + 0.5)
    return RescaledConfig(points=pts, circumference=circumference)


def pooled_spacings(samples, n_bins=40):
    return spacing_histogram_from_gaps([circular_gaps(cfg) for cfg in samples], n_bins=n_bins)


def accumulate(samples, **parts):
    """Finalized Accumulator of a list of configurations on one circle,
    each run of equal length added as one block."""
    acc = Accumulator(samples[0].circumference, len(samples), **parts)
    start = 0
    for _, run in itertools.groupby(samples, key=len):
        rows = np.stack([cfg.points for cfg in run])
        acc.add_block(rows, start)
        start += len(rows)
    return acc.finalize()


def count_variance(samples, lengths, n_offsets=estimators.DEFAULT_COUNT_OFFSETS):
    """The run's count variances of a list of configurations of any lengths."""
    return list(accumulate(samples, lengths=lengths, n_offsets=n_offsets).count_var)


def count_variance_reference(samples, lengths, n_offsets=estimators.DEFAULT_COUNT_OFFSETS):
    """Sample variance, in exact integers, of the searchsorted arc counts."""
    mats = [interval_counts_searchsorted(cfg.points, cfg.circumference, lengths, n_offsets) for cfg in samples]
    m = len(samples) * n_offsets
    out = []
    for i, ell in enumerate(lengths):
        s1 = sum(int(mat[i].sum()) for mat in mats)
        s2 = sum(int((mat[i] * mat[i]).sum()) for mat in mats)
        out.append((float(ell), float((s2 - s1 * s1 / m) / (m - 1))))
    return out


def triple_estimate(samples, r1, r2, tol):
    return accumulate(samples, triple=(r1, r2, tol)).triple


class TestPairCorrelation:
    def test_hand_counted_example(self):
        cfg = RescaledConfig(points=np.array([-1.0, 0.0, 2.0]), circumference=8.0)
        h = estimate_pair_correlation([cfg], delta_max=4.0, n_bins=4)
        # circular pair distances are 1, 2, 3, each counted in both
        # orientations; interior bin edges are left-closed
        assert np.array_equal(h.counts, [0.0, 2.0, 2.0, 2.0])
        assert np.allclose(h.estimate, np.array([0.0, 2.0, 2.0, 2.0]) / (2.0 * 8.0))
        assert h.n_samples == 1
        assert np.array_equal(h.bin_edges, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_unit_lattice_has_no_short_gaps(self):
        h = estimate_pair_correlation([lattice_sample(16.0)], delta_max=4.0, n_bins=16)
        below_one = h.bin_edges[1:] <= 1.0
        assert np.all(h.estimate[below_one][:-1] == 0.0)
        assert h.counts[4] > 0  # distance exactly 1 lands at the 1.0 edge

    def test_counts_are_integer_valued(self):
        samples = poisson_configs(20.0, 30, seed=2)
        h = estimate_pair_correlation(samples, 4.0, 13)
        assert np.array_equal(h.counts, np.rint(h.counts))
        assert np.array_equal(h.counts, h.batch_counts.sum(axis=0))
        assert h.batch_samples.sum() == 30

    def test_poisson_is_flat(self):
        samples = poisson_configs(40.0, 400, seed=7)
        h = estimate_pair_correlation(samples, 4.0, 20)
        se = h.standard_errors()
        assert np.all(np.abs(h.estimate - 1.0) < 5 * se)
        assert np.sqrt(np.mean((h.estimate - 1.0) ** 2)) < 0.05

    def test_single_factor_matches_exact_curve(self):
        n = 30
        gen = RngStream(88).generator()
        samples = [rescale_center(eigenphases(sample_haar_unitary(n, gen)), n) for _ in range(600)]
        h = estimate_pair_correlation(samples, 4.0, 40)
        target = oracle.pair_correlation_bin_averages((n,), h.bin_edges)
        rms = np.sqrt(np.mean((h.estimate - target) ** 2))
        assert rms < 0.03

    def test_rotation_invariance(self):
        samples = poisson_configs(24.0, 5, seed=3)
        h1 = estimate_pair_correlation(samples, 6.0, 12)
        L = 24.0
        rolled = []
        for i, cfg in enumerate(samples):
            shifted = cfg.points + 0.37 * (i + 1)
            shifted = np.mod(shifted + L / 2, L) - L / 2
            rolled.append(RescaledConfig(points=shifted, circumference=L))
        h2 = estimate_pair_correlation(rolled, 6.0, 12)
        assert np.array_equal(h1.counts, h2.counts)

    def test_validation(self):
        cfg = RescaledConfig(points=np.array([0.0, 1.0]), circumference=8.0)
        with pytest.raises(ValueError):
            estimate_pair_correlation([cfg], 5.0, 4)  # beyond L/2
        with pytest.raises(ValueError):
            estimate_pair_correlation([cfg], 0.0, 4)
        with pytest.raises(ValueError):
            estimate_pair_correlation([], 1.0, 4)
        with pytest.raises(ValueError):
            estimate_pair_correlation([cfg], 2.0, 4, sample_indices=[5], n_samples_total=3)
        with pytest.raises(ValueError):
            estimate_pair_correlation([cfg, cfg], 2.0, 4, sample_indices=[1, 1], n_samples_total=3)
        other = RescaledConfig(points=np.array([0.0]), circumference=10.0)
        with pytest.raises(ValueError):
            estimate_pair_correlation([cfg, other], 2.0, 4)

    def test_standard_errors_need_two_batches(self):
        cfg = RescaledConfig(points=np.array([0.0, 1.0]), circumference=8.0)
        h = estimate_pair_correlation([cfg], 2.0, 4)
        with pytest.raises(ValueError):
            h.standard_errors()

    def test_standard_errors_are_those_of_the_batch_means(self):
        # the sample standard deviation (n - 1 in the denominator) of the
        # live batches' per-batch estimates over sqrt(live batches), by hand;
        # the empty batch takes no part
        counts = np.array([[4.0, 10.0], [6.0, 6.0], [0.0, 0.0], [8.0, 2.0]])
        samples = np.array([2, 3, 0, 2])
        h = CorrelationHistogram(np.array([0.0, 0.5, 1.5]), 10.0, counts, samples)
        for j, width in enumerate((0.5, 1.0)):
            means = [counts[b, j] / (samples[b] * 2.0 * 10.0 * width) for b in (0, 1, 3)]
            mean = sum(means) / 3
            want = math.sqrt(sum((x - mean) ** 2 for x in means) / 2) / math.sqrt(3)
            assert h.standard_errors()[j] == pytest.approx(want, rel=1e-12)


def pair_gap_histogram(pts, circumference, delta_max, edges):
    """Gap histogram of one configuration through estimate_pair_correlation,
    one entry per unordered pair."""
    cfg = RescaledConfig(points=pts, circumference=circumference)
    return estimate_pair_correlation([cfg], delta_max, edges.size - 1).counts / 2


def pair_gap_histogram_loop(pts, circumference, delta_max, edges):
    """Reference for pair_gap_histogram: one offset at a time, stopping at
    the first offset whose smallest gap exceeds delta_max."""
    hist = np.zeros(edges.size - 1)
    npts = pts.size
    if npts < 2:
        return hist
    ext = np.concatenate([pts, pts + circumference])
    for off in range(1, npts):
        d = ext[off : off + npts] - pts
        if d.min() > delta_max:
            break
        sel = d[(d > 0.0) & (d <= delta_max)]
        if sel.size:
            hist += np.histogram(sel, bins=edges)[0]
    return hist


def spy_on_searchsorted(monkeypatch):
    """Record a copy of every sorted array np.searchsorted searches from now on."""
    searched = []
    searchsorted = np.searchsorted

    def spy(a, v, *args, **kwargs):
        searched.append(np.array(a))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    return searched


def segment_gaps(rows, circumference, delta_max, k):
    """The gaps in (0, delta_max] of the rows from each point to its k-th
    next point, sorted."""
    P = rows.shape[-1]
    d = np.concatenate([rows, rows + circumference], axis=-1)[:, k : k + P] - rows
    return np.sort(d[(d > 0.0) & (d <= delta_max)])


def first_offset_past(rows, circumference, gap):
    """First offset k at which no point of the rows has its k-th next point
    within gap, or None if some point still has at offset P - 1."""
    P = rows.shape[-1]
    ext = np.concatenate([rows, rows + circumference], axis=-1)
    return next((k for k in range(1, P) if not (ext[:, k : k + P] - rows <= gap).any()), None)


@st.composite
def circle_configs(draw):
    """(sorted points in [-L/2, L/2), L, delta_max, edges), with repeated points."""
    L = draw(st.floats(2.0, 64.0))
    half = L / 2
    base = draw(st.lists(st.floats(-half, half, exclude_max=True), max_size=60))
    repeats = draw(st.lists(st.sampled_from(base), max_size=20)) if base else []
    delta_max = draw(st.floats(1e-3, half))
    n_bins = draw(st.integers(1, 40))
    pts = np.sort(np.array(base + repeats, dtype=float))
    return pts, L, delta_max, np.linspace(0.0, delta_max, n_bins + 1)


class TestPairGapHistogram:
    @settings(max_examples=300, deadline=None)
    @given(circle_configs())
    def test_equals_loop_reference(self, case):
        pts, L, delta_max, edges = case
        got = pair_gap_histogram(pts, L, delta_max, edges)
        assert np.array_equal(got, pair_gap_histogram_loop(pts, L, delta_max, edges))

    def test_degenerate_triple_product(self):
        # identical factors repeat every sum i + j + k under permutation,
        # so the product has many zero gaps, which are not pairs at distance > 0
        a = eigenphases(sample_haar_unitary(4, RngStream(61)))
        cfg = rescale_center(triple_tensor(a, a, a), 64)
        assert np.count_nonzero(np.diff(cfg.points) == 0.0) > 20
        edges = np.linspace(0.0, 4.0, 41)
        got = pair_gap_histogram(cfg.points, 64.0, 4.0, edges)
        assert np.array_equal(got, pair_gap_histogram_loop(cfg.points, 64.0, 4.0, edges))

    def test_gap_beyond_the_rounded_searchsorted_bound(self):
        # x - p rounds to delta_max exactly although x > fl(p + delta_max),
        # so searchsorted alone would miss the pair
        p, delta_max = -3.933642242328201, 3.0532379634439946
        x = np.nextafter(p + delta_max, np.inf)
        assert x - p == delta_max
        pts = np.array([p, x])
        edges = np.linspace(0.0, delta_max, 5)
        got = pair_gap_histogram(pts, 20.0, delta_max, edges)
        assert np.array_equal(got, [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(got, pair_gap_histogram_loop(pts, 20.0, delta_max, edges))

    def test_bins_each_offset_as_the_walk_makes_it(self, monkeypatch):
        # all points within delta_max of each other: every offset is needed,
        # and the walk bins the gaps of each one alone, sorted, before the next
        pts = np.sort(np.concatenate([np.zeros(30), np.linspace(0.5, 2.0, 30)]))
        edges = np.linspace(0.0, 3.0, 7)
        want = pair_gap_histogram_loop(pts, 8.0, 3.0, edges)
        searched = spy_on_searchsorted(monkeypatch)
        got = pair_gap_histogram(pts, 8.0, 3.0, edges)
        per_offset = [segment_gaps(pts[None], 8.0, 3.0, k) for k in range(1, pts.size)]
        assert len(searched) == len([g for g in per_offset if g.size]) == pts.size - 1
        for g, want_g in zip(searched, per_offset):
            assert np.array_equal(g, want_g)
        assert sum(g.size for g in searched) == want.sum()
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "segments",
        [
            [(0, 7)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
            [(0, 1), (1, 4), (4, 5), (5, 7)],
        ],
    )
    def test_segments_of_a_block_with_ties(self, segments):
        # repeated points give zero gaps, which are not pairs; one-row
        # segments and segments cut inside the block each get their own counts
        L, delta_max = 16.0, 5.0
        gen = np.random.default_rng(5)
        base = np.floor(gen.uniform(-L / 2, L / 2, size=(7, 12)) * 10) / 10
        rows = circle_rows(np.concatenate([base, base[:, :6]], axis=1), L)
        assert (np.diff(rows, axis=-1) == 0.0).sum(axis=-1).min() >= 6
        edges = np.linspace(0.0, delta_max, 9)
        hists, _ = estimators._walk_offsets(rows, L, (edges, segments))
        assert hists.shape == (len(segments), edges.size - 1)
        for (a, b), h in zip(segments, hists):
            gaps = np.concatenate([segment_gaps(rows[a:b], L, delta_max, k) for k in range(1, rows.shape[1] + 1)])
            assert np.array_equal(h, np.histogram(gaps, bins=edges)[0])


class TestMerge:
    def test_split_matches_serial_exactly(self):
        samples = poisson_configs(30.0, 57, seed=11)
        serial = estimate_pair_correlation(samples, 5.0, 17)
        cuts = [0, 13, 30, 57]
        partials = [
            estimate_pair_correlation(
                samples[a:b], 5.0, 17,
                sample_indices=np.arange(a, b), n_samples_total=57,
            )
            for a, b in zip(cuts[:-1], cuts[1:])
        ]
        m = merge(partials[2], merge(partials[0], partials[1]))
        assert np.array_equal(m.counts, serial.counts)
        assert np.array_equal(m.batch_counts, serial.batch_counts)
        assert np.array_equal(m.batch_samples, serial.batch_samples)
        assert np.array_equal(m.estimate, serial.estimate)
        assert m.n_samples == serial.n_samples

    def test_merge_with_empty(self):
        samples = poisson_configs(30.0, 8, seed=11)
        h = estimate_pair_correlation(samples, 5.0, 10, sample_indices=np.arange(8),
                                      n_samples_total=12)
        zero = CorrelationHistogram(h.bin_edges, 30.0, np.zeros((12, h.n_bins)), np.zeros(12, dtype=np.int64))
        assert zero.n_samples == 0
        assert np.array_equal(zero.counts, np.zeros(h.n_bins))
        assert np.array_equal(zero.estimate, np.zeros(h.n_bins))
        m = merge(h, zero)
        assert np.array_equal(m.counts, h.counts)
        assert np.array_equal(m.estimate, h.estimate)
        assert m.n_samples == 8

    def test_totals_derive_from_the_batches(self):
        samples = poisson_configs(30.0, 25, seed=12)
        h = estimate_pair_correlation(samples, 5.0, 10)
        counts = h.batch_counts.sum(axis=0)
        assert np.array_equal(h.counts, counts)
        assert h.n_samples == int(h.batch_samples.sum()) == 25
        assert np.array_equal(h.estimate, counts / (25 * 2.0 * 30.0 * np.diff(h.bin_edges)))

    def test_grid_mismatch(self):
        samples = poisson_configs(30.0, 4, seed=1)
        h1 = estimate_pair_correlation(samples, 5.0, 10)
        h2 = estimate_pair_correlation(samples, 5.0, 11)
        with pytest.raises(ValueError):
            merge(h1, h2)


class TestIntensity:
    def test_hand_value(self):
        cfgs = [
            RescaledConfig(points=np.array([-1.0, 0.0, 2.0]), circumference=8.0),
            RescaledConfig(points=np.array([0.5]), circumference=8.0),
        ]
        assert accumulate(cfgs).intensity == pytest.approx(4 / 16.0)

    def test_rescaled_tensor_is_unit(self):
        gen = RngStream(6).generator()
        from kronphase.processes import tensor_phases

        a = eigenphases(sample_haar_unitary(4, gen))
        b = eigenphases(sample_haar_unitary(6, gen))
        cfg = rescale_center(tensor_phases(a, b), 24)
        assert accumulate([cfg]).intensity == 1.0


class TestSpacings:
    def test_circular_gaps_hand_example(self):
        cfg = RescaledConfig(points=np.array([-1.0, 0.0, 2.0]), circumference=8.0)
        assert np.array_equal(circular_gaps(cfg), [1.0, 2.0, 5.0])

    def test_gaps_sum_to_circumference(self):
        samples = poisson_configs(25.0, 10, seed=9)
        for cfg in samples:
            if len(cfg) >= 2:
                assert np.sum(circular_gaps(cfg)) == pytest.approx(25.0, rel=1e-12)

    def test_normalized_mean_one(self):
        samples = poisson_configs(30.0, 50, seed=21)
        sh = pooled_spacings(samples)
        assert sh.spacings.mean() == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(sh.spacings) >= 0)
        assert sh.density() @ np.diff(sh.bin_edges) == pytest.approx(1.0, rel=1e-12)

    def test_pool_order_invariance(self):
        arrays = [np.array([1.0, 2.0]), np.array([0.5]), np.array([3.0, 0.25, 1.25])]
        a = spacing_histogram_from_gaps(arrays, n_bins=6)
        b = spacing_histogram_from_gaps(arrays[::-1], n_bins=6)
        assert np.array_equal(a.bin_edges, b.bin_edges)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.spacings, b.spacings)

    def test_exponential_tail_fraction(self):
        samples = poisson_configs(50.0, 400, seed=33)
        sh = pooled_spacings(samples)
        frac = np.mean(sh.spacings <= 1.0)
        assert abs(frac - ONE_MINUS_EXP_MINUS_1) < 0.02

    def test_pooling_leaves_the_input_unchanged(self):
        rows = np.array([[1.0, 2.0, 0.5], [3.0, 0.25, 1.25]])
        as_list = [row.copy() for row in rows]
        from_rows = spacing_histogram_from_gaps(rows, n_bins=4)
        from_list = spacing_histogram_from_gaps(as_list, n_bins=4)
        spacing_histogram_from_gaps([rows[0]], n_bins=4)  # a view into rows
        assert np.array_equal(rows, [[1.0, 2.0, 0.5], [3.0, 0.25, 1.25]])
        assert all(np.array_equal(a, b) for a, b in zip(as_list, rows))
        assert np.array_equal(from_rows.spacings, from_list.spacings)
        ints = np.array([[2, 1, 3], [1, 1, 4]])
        assert np.array_equal(spacing_histogram_from_gaps(ints, n_bins=4).spacings, [0.5, 0.5, 0.5, 1.0, 1.5, 2.0])
        assert np.array_equal(ints, [[2, 1, 3], [1, 1, 4]])

    def test_rejects_unsorted_spacings(self):
        with pytest.raises(ValueError):
            SpacingHistogram(np.array([1.0, 0.5, 1.5]), 2)

    def test_bins_derive_from_the_pool(self):
        # the binning spacing_histogram_from_gaps stored before the histogram
        # derived it: n_bins equal bins up to the largest pooled spacing
        gaps = [np.array([1.0, 2.0, 0.5]), np.array([3.0, 0.25]), np.array([1.25, 0.75])]
        sh = spacing_histogram_from_gaps(gaps, n_bins=5)
        pooled = np.concatenate(gaps) / (np.sum([g.sum() for g in gaps]) / 7)
        edges = np.linspace(0.0, float(pooled.max()), 6)
        assert np.array_equal(sh.bin_edges, edges)
        assert np.array_equal(sh.counts, np.histogram(pooled, bins=edges)[0].astype(float))
        assert sh.n_spacings == 7 and sh.n_bins == 5 and sh.n_skipped == 0

    def test_thin_spacings_bins_as_by_hand(self):
        sh = pooled_spacings(poisson_configs(30.0, 20, seed=23), n_bins=12)
        thin = thin_spacings(sh, 50, seed=3)
        # the subsample and the binning thin_spacings wrote out by hand
        idx = np.random.Generator(np.random.PCG64(3)).choice(sh.n_spacings, size=50, replace=False)
        sub = np.sort(sh.spacings[idx])
        edges = np.linspace(0.0, float(sub.max()), sh.bin_edges.size)
        assert np.array_equal(thin.spacings, sub)
        assert np.array_equal(thin.bin_edges, edges)
        assert np.array_equal(thin.counts, np.histogram(sub, bins=edges)[0].astype(float))
        assert thin.n_spacings == 50 and thin.n_bins == 12

    def test_all_too_small(self):
        with pytest.raises(ValueError):
            circular_gaps(RescaledConfig(points=np.array([0.5]), circumference=8.0))
        with pytest.raises(ValueError):
            spacing_histogram_from_gaps([])
        with pytest.raises(ValueError, match="no spacings to pool"):
            spacing_histogram_from_gaps(np.zeros((0, 3)))


class TestTripleCorrelation:
    def test_hand_counted_window(self):
        cfg = RescaledConfig(points=np.array([0.0, 1.0, 2.0, 5.0]), circumference=12.0)
        assert triple_window_count(cfg, 1.0, 2.0, tol=0.2) == 1
        assert triple_window_count_by_gaps(cfg.points, 12.0, 1.0, 2.0, 0.2) == 1
        assert triple_estimate([cfg], 1.0, 2.0, 0.2) == pytest.approx(1.0 / (12.0 * 0.04))

    def test_poisson_near_one(self):
        samples = poisson_configs(40.0, 1500, seed=14)
        est = triple_estimate(samples, 1.0, 2.0, 0.5)
        assert est == pytest.approx(1.0, abs=0.15)
        counts = [triple_window_count_by_gaps(cfg.points, 40.0, 1.0, 2.0, 0.5) for cfg in samples]
        assert est == sum(counts) / (len(samples) * 40.0 * 0.5**2)

    def test_geometry_validation(self):
        cfg = RescaledConfig(points=np.array([0.0, 1.0, 2.0]), circumference=12.0)
        with pytest.raises(ValueError):
            triple_window_count(cfg, 2.0, 1.0)
        with pytest.raises(ValueError):
            triple_window_count(cfg, 1.0, 4.0)  # r2 beyond L/4
        with pytest.raises(ValueError):
            triple_window_count(cfg, 1.0, 1.1, tol=0.2)
        with pytest.raises(ValueError):
            triple_window_count(cfg, 0.05, 2.0, tol=0.2)

    def test_touching_windows_are_refused(self):
        # r2 - r1 == tol: the closed windows [0.75, 1.25] and [1.25, 1.75]
        # share 1.25, so one later point would count as both y and z
        with pytest.raises(ValueError, match="windows touch or overlap"):
            Accumulator(8.0, 1, triple=(1.0, 1.5, 0.5))
        # r2 - r1 == tol as decimals, but the rounded bounds 1.2000000000000002
        # and 1.2 overlap
        assert 1.1 + 0.2 / 2 > 1.3 - 0.2 / 2
        with pytest.raises(ValueError, match="windows touch or overlap"):
            Accumulator(8.0, 1, triple=(1.1, 1.3, 0.2))
        Accumulator(8.0, 1, triple=(1.0, float(np.nextafter(1.5, 2.0)), 0.5))

    @pytest.mark.parametrize(
        "row, want", [([-2.0], 0), ([-2.0, -0.75], 0), ([-2.0, -0.75, -0.5], 1)], ids=["P=1", "P=2", "P=3"]
    )
    def test_short_rows_count_their_triples(self, row, want):
        # windows [0.75, 1.25] and [1.25 + 2^-52, 1.75 + 2^-52]: the point at
        # gap 1.25 lies in the r1 window only, so it is never both y and z,
        # and the rows of 1 and 2 points count 0 with no guard on P
        r1, r2, tol = 1.0, float(np.nextafter(1.5, 2.0)), 0.5
        acc = Accumulator(8.0, 1, triple=(r1, r2, tol))
        acc.add_block(np.array([row]), 0)
        assert acc.triples == want == triple_window_count_by_gaps(np.array(row), 8.0, r1, r2, tol)

    def test_nan_tol_is_rejected(self):
        cfg = RescaledConfig(points=np.array([0.0, 1.0, 2.0]), circumference=12.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            triple_window_count(cfg, 1.0, 2.0, np.nan)
        with pytest.raises(ValueError, match="tol must be positive"):
            Accumulator(12.0, 1, triple=(1.0, 2.0, np.nan))


class TestIntervalCounts:
    def test_hand_example(self):
        cfg = RescaledConfig(points=np.array([-1.0, 0.0, 2.0]), circumference=8.0)
        mat = interval_counts(cfg, [2.0], n_offsets=4)
        assert mat.dtype == np.int64
        assert np.array_equal(mat, [[0, 2, 1, 0]])

    def test_grid_multiple_conserves_points(self):
        # arcs whose length is an exact multiple of the offset stride
        # tile the circle, so each point lands in exactly that many arcs
        samples = poisson_configs(16.0, 20, seed=5)
        for cfg in samples:
            mat = interval_counts(cfg, [2.0, 4.0], n_offsets=8)
            assert mat[0].sum() == len(cfg) * 1
            assert mat[1].sum() == len(cfg) * 2

    def test_lattice_variance_zero(self):
        cfg = lattice_sample(16.0)
        out = count_variance([cfg, cfg], [4.0], n_offsets=32)
        assert out[0][0] == 4.0
        assert out[0][1] == 0.0

    def test_poisson_variance(self):
        samples = poisson_configs(50.0, 800, seed=41)
        out = count_variance(samples, [1.0, 2.0, 4.0])
        assert out == count_variance_reference(samples, [1.0, 2.0, 4.0])
        for ell, var in out:
            assert var == pytest.approx(ell, rel=0.12)

    def test_sample_order_invariance(self):
        samples = poisson_configs(20.0, 15, seed=8)
        a = count_variance(samples, [1.0, 3.0])
        b = count_variance(samples[::-1], [1.0, 3.0])
        assert a == b

    def test_validation(self):
        cfg = RescaledConfig(points=np.array([0.0, 1.0]), circumference=8.0)
        with pytest.raises(ValueError):
            count_variance([cfg], [5.0])
        with pytest.raises(ValueError):
            count_variance([cfg], [0.0])
        with pytest.raises(ValueError):
            count_variance([cfg], [1.0], n_offsets=0)
        # arcs of negative length or longer than L/2 would give negative
        # counts or count points twice
        cfg4 = RescaledConfig(points=np.array([-3.0, -1.0, 0.0, 2.0]), circumference=8.0)
        for lengths, n_offsets in (([-1.0], 4), ([12.0], 4), ([2.0], 0)):
            with pytest.raises(ValueError):
                interval_counts(cfg4, lengths, n_offsets=n_offsets)
        assert interval_counts(cfg4, [4.0], n_offsets=4).sum() == 4 * 2


class TestAgainstExactCurves:
    def test_tensor_pair_correlation_m2_n12(self):
        m, n = 2, 12
        gen = RngStream(55).generator()
        from kronphase.processes import tensor_phases

        samples = []
        for _ in range(800):
            a = eigenphases(sample_haar_unitary(m, gen))
            b = eigenphases(sample_haar_unitary(n, gen))
            samples.append(rescale_center(tensor_phases(a, b), m * n))
        h = estimate_pair_correlation(samples, 4.0, 20)
        target = oracle.pair_correlation_bin_averages((m, n), h.bin_edges)
        rms = np.sqrt(np.mean((h.estimate - target) ** 2))
        assert rms < 0.04

    def test_tensor_count_variance_m2_n12(self):
        m, n = 2, 12
        gen = RngStream(56).generator()
        from kronphase.processes import tensor_phases

        samples = []
        for _ in range(1200):
            a = eigenphases(sample_haar_unitary(m, gen))
            b = eigenphases(sample_haar_unitary(n, gen))
            samples.append(rescale_center(tensor_phases(a, b), m * n))
        out = count_variance(samples, [1.0, 4.0])
        for ell, var in out:
            exact = oracle.count_variance((m, n), ell)
            assert var == pytest.approx(exact, rel=0.1)


# References for the block accumulator, one configuration at a time: the
# per-configuration searchsorted arc counts that it replaced, and the
# triple windows by the gap rule, every later point's gap at once.


def triple_window_count_by_gaps(pts, L, r1, r2, tol):
    """Ordered triples of one sorted configuration: for each base i, the
    points j > i of ext = [pts, pts + L] whose rounded gap ext[j] - pts[i]
    lies in [r - tol/2, r + tol/2], one count per window, multiplied."""
    ext = np.concatenate([pts, pts + L])
    gaps = ext[None, :] - pts[:, None]
    later = np.arange(ext.size)[None, :] > np.arange(pts.size)[:, None]
    c1, c2 = (np.count_nonzero(later & (r - tol / 2 <= gaps) & (gaps <= r + tol / 2), axis=1) for r in (r1, r2))
    return int(np.sum(c1 * c2))


def interval_counts_searchsorted(pts, L, lengths, n_offsets):
    ext = np.concatenate([pts, pts + L])
    offs = (np.arange(n_offsets) + 0.5) * (L / n_offsets) - L / 2
    lo = np.searchsorted(ext, offs, side="left")
    return np.array([np.searchsorted(ext, offs + float(ell), side="left") - lo for ell in lengths])


def circular_gaps_reference(pts, L):
    return np.concatenate([np.diff(pts), [L - (pts[-1] - pts[0])]])


def accumulate_in_blocks(rows, L, blocks, order, n_batches, **parts):
    """Add rows[a:b] for (a, b) in blocks, in the given order, to one
    accumulator built with DEFAULT_N_BATCHES patched to n_batches."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "DEFAULT_N_BATCHES", n_batches)
        acc = Accumulator(L, len(rows), **parts)
    for k in order:
        a, b = blocks[k]
        acc.add_block(rows[a:b], a)
    return acc


def check_against_references(rows, L, delta_max, n_bins, n_batches, lengths, n_offsets, triple, acc):
    """The accumulator, and the one-configuration estimators, equal the
    per-sample references bit for bit."""
    n, P = rows.shape
    # finalize consumes the gap pool, so the pool is compared first
    gaps = [circular_gaps_reference(pts, L) for pts in rows]
    assert np.array_equal(acc.gaps, np.stack(gaps))
    got = acc.finalize()
    cfgs = [RescaledConfig(points=pts, circumference=L) for pts in rows]

    nb = min(n_batches, n)
    edges = np.linspace(0.0, delta_max, n_bins + 1)
    batch_counts = np.zeros((nb, n_bins))
    for s, pts in enumerate(rows):
        batch_counts[s * nb // n] += 2.0 * pair_gap_histogram_loop(pts, L, delta_max, edges)
    assert np.array_equal(got.pair.batch_counts, batch_counts)
    assert np.array_equal(got.pair.batch_samples, np.bincount(np.arange(n) * nb // n, minlength=nb))
    assert np.array_equal(got.pair.bin_edges, edges)
    assert np.array_equal(got.pair.counts, batch_counts.sum(axis=0))
    assert np.array_equal(got.pair.estimate, batch_counts.sum(axis=0) / (n * 2.0 * L * np.diff(edges)))

    r1, r2, tol = triple
    triples = [triple_window_count_by_gaps(pts, L, r1, r2, tol) for pts in rows]
    assert [triple_window_count(cfg, r1, r2, tol) for cfg in cfgs] == triples
    assert acc.triples == sum(triples)
    assert got.triple == sum(triples) / (n * L * tol ** 2)

    mats = [interval_counts_searchsorted(pts, L, lengths, n_offsets) for pts in rows]
    for cfg, mat in zip(cfgs, mats):
        assert np.array_equal(interval_counts(cfg, lengths, n_offsets), mat)
    assert acc.s1 == [sum(int(mat[i].sum()) for mat in mats) for i in range(len(lengths))]
    assert acc.s2 == [sum(int((mat[i] * mat[i]).sum()) for mat in mats) for i in range(len(lengths))]
    assert list(got.count_var) == count_variance_reference(cfgs, lengths, n_offsets)

    for cfg, g in zip(cfgs, gaps):
        assert np.array_equal(circular_gaps(cfg), g)
    pooled = spacing_histogram_from_gaps(gaps, n_bins=n_bins)
    for field in ("spacings", "counts", "bin_edges"):
        assert np.array_equal(getattr(got.spacings, field), getattr(pooled, field)), field
    if n * P >= 100:
        assert ks_against_exponential(got.spacings).d_statistic == ks_against_exponential(pooled).d_statistic
    assert got.intensity == n * P / (n * L)


@st.composite
def blocked_runs(draw):
    """Sorted circle rows with repeated points, estimator settings, and a
    random split of the rows into blocks, added in a random order."""
    L = draw(st.floats(4.0, 48.0))
    half = L / 2
    n = draw(st.integers(1, 9))
    P = draw(st.integers(2, 30))
    rows = []
    for _ in range(n):
        base = draw(st.lists(st.floats(-half, half, exclude_max=True), min_size=1, max_size=P))
        repeats = draw(st.lists(st.sampled_from(base), min_size=P - len(base), max_size=P - len(base)))
        rows.append(np.sort(np.array(base + repeats)))
    tol = draw(st.floats(0.01, L / 16))
    # r1 just above tol/2 puts the lower r1 bound just above gap 0, where a base's ties sit
    r1 = draw(st.one_of(st.just(float(np.nextafter(tol / 2, np.inf))), st.floats(tol / 2, L / 8)))
    r2 = draw(st.floats(r1 + tol, L / 4))
    assume(r1 - tol / 2 > 0 and r1 + tol / 2 < r2 - tol / 2 and r1 < r2 <= L / 4)
    cuts = sorted(set(draw(st.lists(st.integers(1, n), max_size=4))) - {n})
    blocks = list(zip([0] + cuts, cuts + [n]))
    settings = dict(
        delta_max=draw(st.floats(1e-3, half)),
        n_bins=draw(st.integers(1, 30)),
        n_batches=draw(st.integers(1, 12)),
        lengths=tuple(draw(st.lists(st.floats(1e-3, half), min_size=1, max_size=3))),
        n_offsets=draw(st.integers(2, 40)),
        triple=(r1, r2, tol),
    )
    order = draw(st.permutations(range(len(blocks))))
    return np.stack(rows), L, settings, blocks, order


def parts_of(settings):
    s = settings
    return dict(
        pair=(s["delta_max"], s["n_bins"]),
        n_batches=s["n_batches"],
        lengths=s["lengths"],
        n_offsets=s["n_offsets"],
        triple=s["triple"],
        spacing_bins=s["n_bins"],
    )


class TestAccumulator:
    @settings(max_examples=100, deadline=None)
    @given(blocked_runs())
    def test_blocks_in_any_order_equal_per_sample(self, case):
        rows, L, settings_, blocks, order = case
        acc = accumulate_in_blocks(rows, L, blocks, order, **parts_of(settings_))
        check_against_references(rows, L, acc=acc, **settings_)

    def test_blocks_across_batches_with_short_pair_reach(self):
        # delta_max < r2 + tol/2: the triple windows reach further than the
        # pair gaps; the blocks cut 23 rows in 5 batches (boundaries at rows
        # 5, 10, 14, 19) in the middle of a batch
        samples = poisson_configs(40.0, 23, seed=17, intensity=1.5)
        rows = np.stack([cfg.points[:38] for cfg in samples])
        settings_ = dict(
            delta_max=1.5, n_bins=15, n_batches=5, lengths=(1.0, 2.5), n_offsets=16, triple=(1.0, 2.0, 0.2)
        )
        assert first_offset_past(rows, 40.0, 1.5) < first_offset_past(rows, 40.0, 2.1)
        blocks = [(0, 7), (7, 16), (16, 23)]
        acc = accumulate_in_blocks(rows, 40.0, blocks, [2, 0, 1], **parts_of(settings_))
        check_against_references(rows, 40.0, acc=acc, **settings_)

    def test_blocks_across_batches_with_long_pair_reach(self):
        # delta_max > r2 + tol/2: the pair gaps reach further than the triple
        # windows, so the walk goes on after the triple part has stopped
        samples = poisson_configs(40.0, 23, seed=17, intensity=1.5)
        rows = np.stack([cfg.points[:38] for cfg in samples])
        settings_ = dict(
            delta_max=4.0, n_bins=20, n_batches=5, lengths=(1.0, 2.5), n_offsets=16, triple=(1.0, 2.0, 0.2)
        )
        assert first_offset_past(rows, 40.0, 4.0) > first_offset_past(rows, 40.0, 2.1)
        blocks = [(0, 7), (7, 16), (16, 23)]
        acc = accumulate_in_blocks(rows, 40.0, blocks, [1, 2, 0], **parts_of(settings_))
        check_against_references(rows, 40.0, acc=acc, **settings_)

    def test_degenerate_triple_product_holds_one_offset_of_gaps(self):
        # identical factors with clustered phases: every sum repeats under
        # permutation, and the whole product fits inside delta_max, so the
        # pair walk reaches offset P - 1 and its gaps pass 2^18 floats
        a = np.array([0.0, 0.1, 0.2, 0.4])
        theta = rescale_center(triple_tensor(a, a, a), 64).points
        shifts = np.linspace(0.0, 64.0, 150, endpoint=False)[:, None]
        rows = circle_rows(np.mod(theta + shifts + 32.0, 64.0) - 32.0, 64.0)
        assert np.count_nonzero(np.diff(rows[0]) == 0.0) > 20
        settings_ = dict(
            delta_max=16.0, n_bins=32, n_batches=1, lengths=(4.0,), n_offsets=8, triple=(1.0, 2.0, 0.2)
        )
        assert first_offset_past(rows, 64.0, 16.0) is None
        ext = np.concatenate([rows, rows + 64.0], axis=-1)
        gaps = [ext[:, k : k + 64] - rows for k in range(1, 64)]
        per_offset = [np.count_nonzero((d > 0.0) & (d <= 16.0)) for d in gaps]
        assert sum(per_offset) > 1 << 18
        acc = accumulate_in_blocks(rows, 64.0, [(0, 150)], [0], **parts_of(settings_))
        check_against_references(rows, 64.0, acc=acc, **settings_)
        # the pair walk holds its window w, which turns into the gaps, two
        # masks, the largest offset's gaps with np.compress's index of them,
        # and 8 KiB of small objects at most, where all its gaps together
        # take 27 (B, P) float arrays
        assert sum(per_offset) * 8 > 27 * rows.nbytes
        bound = rows.nbytes + 2 * rows.size + 16 * max(per_offset) + 8192
        pair = (np.linspace(0.0, 16.0, 33), [(0, 150)])
        tracemalloc.start()
        try:
            estimators._walk_offsets(rows, 64.0, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)

    def test_triple_block_holds_no_wrapped_copy_of_its_rows(self):
        # one 64 x 512 block of sorted rows, as the triple workload rescales
        # them, with every part: the walk builds each offset's window from
        # the rows, so the block's peak has no (B, 2P) wrapped copy
        # [rows, rows + L] and no gap buffer beside the window (2.80 MiB with
        # both, 2.05 MiB without)
        L = 512.0
        points = np.sort(np.random.default_rng(25).uniform(-L / 2, L / 2, (64, 512)), axis=-1)
        acc = Accumulator(L, 64, pair=(4.0, 40), lengths=(1.0, 2.0, 4.0), triple=(1.0, 2.0, 0.2), spacing_bins=40)
        tracemalloc.start()
        try:
            acc.add_block(points, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * 2**20, peak

    def test_triple_walk_holds_no_window_bounds(self):
        # the triple windows compare the walk's gaps with four scalars, so
        # on the block above the walk holds its window, the (2, B, P) int32
        # counters, two (B, P) masks, numpy's buffer that casts a mask to
        # int32 as a counter adds it, and 8 KiB of small objects: no
        # (2, B, P) float array of window bounds (2.0 MiB with them)
        L = 512.0
        rows = np.sort(np.random.default_rng(25).uniform(-L / 2, L / 2, (64, 512)), axis=-1)
        bound = rows.nbytes + 2 * 4 * rows.size + 2 * rows.size + 4 * np.getbufsize() + 8192
        tracemalloc.start()
        try:
            _, triples = estimators._walk_offsets(rows, L, None, (1.0, 2.0, 0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound < rows.nbytes + 2 * rows.nbytes + 2 * rows.size, (peak, bound)
        assert triples == sum(triple_window_count_by_gaps(pts, L, 1.0, 2.0, 0.2) for pts in rows)

    def test_rejects_overlap_and_missing_rows(self):
        rows = np.stack([lattice_sample(16.0).points] * 4)
        acc = Accumulator(16.0, 4, pair=(4.0, 8), spacing_bins=8)
        acc.add_block(rows[:2], 0)
        with pytest.raises(ValueError):
            acc.add_block(rows[1:3], 1)  # sample 1 again
        with pytest.raises(ValueError):
            acc.add_block(rows[:1], 4)
        with pytest.raises(ValueError):
            acc.add_block(rows[:1], -1)
        pool = acc.gaps.copy()
        with pytest.raises(ValueError):
            acc.finalize()  # the spacing pool lacks samples 2 and 3
        # rejected blocks, and the finalize that raised, leave no trace
        assert np.array_equal(acc.gaps, pool)
        acc.add_block(rows[2:], 2)
        got = acc.finalize()
        assert got.pair.n_samples == 4
        assert got.spacings.n_spacings == 64

    def test_duplicate_inside_one_block_is_rejected(self):
        samples = [lattice_sample(16.0)] * 2
        with pytest.raises(ValueError, match="added twice"):
            estimate_pair_correlation(samples, 4.0, 8, sample_indices=[0, 0], n_samples_total=2)

    def test_block_added_twice_is_rejected_before_it_counts(self):
        rows = np.stack([lattice_sample(16.0).points] * 2)
        acc = Accumulator(16.0, 3, pair=(4.0, 8), lengths=(2.0,), spacing_bins=8)
        acc.add_block(rows, 1)
        before = [acc.added.copy(), acc.batch_counts.copy(), acc.batch_samples.copy(), acc.gaps.copy()]
        scalars = (acc.n_points, list(acc.s1), list(acc.s2))
        with pytest.raises(ValueError, match="added twice"):
            acc.add_block(rows, 1)
        after = [acc.added, acc.batch_counts, acc.batch_samples, acc.gaps]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        assert (acc.n_points, acc.s1, acc.s2) == scalars

    def test_finalize_consumes_the_pool_once(self):
        rows = np.stack([lattice_sample(16.0).points] * 2)
        acc = Accumulator(16.0, 2, pair=(4.0, 8), spacing_bins=8)
        acc.add_block(rows, 0)
        want = spacing_histogram_from_gaps(acc.gaps, n_bins=8)
        got = acc.finalize()
        assert acc.gaps is None
        assert np.array_equal(got.spacings.spacings, want.spacings)
        with pytest.raises(ValueError, match="already finalized"):
            acc.finalize()

    def test_block_after_finalize_is_rejected_before_it_counts(self):
        # sample 2 was never added, so only the finalize refuses it
        rows = np.stack([lattice_sample(16.0).points] * 2)
        acc = Accumulator(16.0, 3, pair=(4.0, 8), lengths=(2.0,))
        acc.add_block(rows, 0)
        acc.finalize()
        before = [acc.added.copy(), acc.batch_counts.copy(), acc.batch_samples.copy()]
        scalars = (acc.n_points, list(acc.s1), list(acc.s2), acc.gaps)
        for block in (rows[:1], rows[:0]):
            with pytest.raises(ValueError, match="add_block: the accumulator was already finalized"):
                acc.add_block(block, 2)
        after = [acc.added, acc.batch_counts, acc.batch_samples]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        assert (acc.n_points, acc.s1, acc.s2, acc.gaps) == scalars

    def test_finalize_that_raises_late_leaves_the_pool(self):
        # the count variance is checked after the spacing pool: one sample
        # over one offset gives it a single observation
        acc = Accumulator(8.0, 1, lengths=(1.0,), n_offsets=1, spacing_bins=4)
        acc.add_block(np.array([[-1.0, 0.5, 2.0]]), 0)
        pool = acc.gaps.copy()
        with pytest.raises(ValueError, match="count variance needs at least 2 observations"):
            acc.finalize()
        assert np.array_equal(acc.gaps, pool)

    def test_add_block_sorts_each_row(self):
        # an unsorted row counts as its sorted points, as RescaledConfig reads it
        parts = dict(pair=(2.0, 4), spacing_bins=4)
        got, want = Accumulator(8.0, 1, **parts), Accumulator(8.0, 1, **parts)
        block = np.array([[1.0, -1.0, 0.5]])
        got.add_block(block, 0)
        want.add_block(np.sort(block), 0)
        assert np.array_equal(block, [[1.0, -1.0, 0.5]])
        assert np.array_equal(got.batch_counts.sum(axis=0), [0.0, 2.0, 0.0, 4.0])
        assert np.array_equal(got.gaps, [[1.5, 0.5, 6.0]])
        assert np.array_equal(got.batch_counts, want.batch_counts)

    @pytest.mark.parametrize(
        "block, message",
        [
            ([[0.0, 9.0]], r"circle points must lie in \[-L/2, L/2\)"),
            ([[0.0, 4.0]], r"circle points must lie in \[-L/2, L/2\)"),
            ([[-4.5, 0.0]], r"circle points must lie in \[-L/2, L/2\)"),
            ([[0.0, np.nan]], "circle points must be finite"),
            ([[-np.inf, 0.0]], "circle points must be finite"),
            ([0.0, 1.0], r"add_block: points must be a \(B, P\) block"),
            (np.zeros((1, 1, 2)), r"add_block: points must be a \(B, P\) block"),
        ],
        ids=["beyond L/2", "at L/2", "below -L/2", "nan", "-inf", "1-d", "3-d"],
    )
    def test_add_block_rejects_points_off_the_circle(self, block, message):
        acc = Accumulator(8.0, 2, pair=(2.0, 4), spacing_bins=4)
        with pytest.raises(ValueError, match=message):
            acc.add_block(block, 0)
        assert not acc.added.any()

    @pytest.mark.parametrize("circumference", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_circumference_not_positive_and_finite(self, circumference):
        with pytest.raises(ValueError, match="circumference must be positive and finite"):
            Accumulator(circumference, 1, pair=(1.0, 4))

    @pytest.mark.parametrize(
        "name, make",
        [
            ("circumference", lambda flag: Accumulator(flag, 3)),
            ("delta_max", lambda flag: Accumulator(16.0, 3, pair=(flag, 4))),
            ("r1", lambda flag: Accumulator(16.0, 3, triple=(flag, 2.0, 0.2))),
            ("r2", lambda flag: Accumulator(16.0, 3, triple=(0.5, flag, 0.2))),
            ("tol", lambda flag: Accumulator(16.0, 3, triple=(1.0, 2.0, flag))),
        ],
    )
    @pytest.mark.parametrize("flag", [True, np.True_], ids=repr)
    def test_real_settings_refuse_bools(self, name, make, flag):
        # float() would take True as 1.0, a valid value of each
        with pytest.raises(ValueError, match=r"%s must be a number, got (np\.)?True" % name):
            make(flag)

    @pytest.mark.parametrize("second", [[[0.5]], [[-1.0, 2.0]]], ids=["1 point", "2 points"])
    def test_spacing_pool_rejects_another_point_count(self, second):
        # the one-point row once broadcast its gap over the pool's four
        acc = Accumulator(8.0, 2, pair=(2.0, 4), spacing_bins=4)
        acc.add_block(np.array([[-3.0, -1.0, 1.0, 3.0]]), 0)
        before = [acc.added.copy(), acc.batch_counts.copy(), acc.gaps.copy()]
        message = "the spacing pool holds 4 points per sample, this block %d" % len(second[0])
        with pytest.raises(ValueError, match=message):
            acc.add_block(np.array(second), 1)
        assert all(np.array_equal(a, b) for a, b in zip([acc.added, acc.batch_counts, acc.gaps], before))
        assert acc.n_points == 4

    def test_one_point_rows_have_no_spacings(self):
        acc = Accumulator(2.0, 3, pair=(1.0, 4), spacing_bins=4)
        acc.add_block(np.zeros((3, 1)), 0)
        with pytest.raises(ValueError):
            acc.finalize()


class TestKernelEdges:
    @pytest.mark.parametrize("spread", [0.0, 0.05], ids=["ties", "cluster"])
    def test_triple_window_holding_more_than_255_points(self, spread):
        # 300 points in each window of the base at 0, so an 8-bit window
        # counter would wrap
        L, r1, r2, tol = 64.0, 1.0, 2.0, 0.2
        near = np.linspace(-spread, spread, 300)
        pts = np.sort(np.concatenate([[0.0], r1 + near, r2 + near, [10.0, 20.0]]))
        want = triple_window_count_by_gaps(pts, L, r1, r2, tol)
        assert want >= 300 * 300
        assert triple_window_count(RescaledConfig(pts, L), r1, r2, tol) == want
        acc = Accumulator(L, 2, triple=(r1, r2, tol))
        acc.add_block(np.stack([pts, pts[::-1].copy()]), 0)
        assert acc.triples == 2 * want

    def test_triple_windows_of_float32_gaps_are_those_of_their_values(self):
        # the second point's gap is r1 - tol/2 as float64 computes it, the
        # lower r1 bound; float32 arithmetic puts that bound above the gap
        r1, r2, tol = np.float32(1.1), np.float32(2.3), np.float32(0.3)
        rows = np.array([[0.0, float(r1) - float(tol) / 2, float(r2), 5.0]])
        want = triple_window_count_by_gaps(rows[0], 16.0, float(r1), float(r2), float(tol))
        assert want == 1
        acc = Accumulator(16.0, 1, triple=(r1, r2, tol))
        acc.add_block(rows, 0)
        assert acc.triples == want

    def test_ties_at_the_base_stay_out_of_the_r1_window(self):
        # r1 - tol/2 is about 2.8e-17, so -0.75 + (r1 - tol/2) rounds onto
        # the base at -0.75: an absolute lower bound takes the base itself,
        # at gap 0, into its r1 window (2 triples with the two points at gap
        # 0.75 in its r2 window), the gap rule does not
        rows, L, triple = np.array([[-0.75, 0.0, 0.0]]), 4.0, (0.12500000000000003, 0.75, 0.25)
        assert -0.75 + (triple[0] - triple[2] / 2) == -0.75 and triple[0] - triple[2] / 2 > 0
        acc = Accumulator(L, 1, triple=triple)
        acc.add_block(rows, 0)
        assert acc.triples == 0
        assert triple_window_count(RescaledConfig(rows[0], L), *triple) == 0
        assert triple_window_count_by_gaps(rows[0], L, *triple) == 0

    def test_ties_at_the_lower_r1_bound_count_each(self):
        # windows [2^-54, 0.5] and [1.75, 2.25]; each base at 0 has its tie at
        # gap 0 (out), two points at gap exactly 2^-54 (both in) and one at
        # gap 2, so 2 triples each; the bases at 1.0 meet their ties at gap 0
        # only, though 1.0 + 2^-54 rounds to 1.0, and the rest see no r1 gap
        r1, r2, tol = float(np.nextafter(0.25, 1.0)), 2.0, 0.5
        assert r1 - tol / 2 == 2.0**-54 and 1.0 + (r1 - tol / 2) == 1.0
        pts = np.array([0.0, 0.0, 2.0**-54, 2.0**-54, 1.0, 1.0, 2.0, 3.0])
        assert triple_window_count_by_gaps(pts, 16.0, r1, r2, tol) == 4
        assert triple_window_count(RescaledConfig(pts, 16.0), r1, r2, tol) == 4
        acc = Accumulator(16.0, 2, triple=(r1, r2, tol))
        acc.add_block(np.stack([pts, pts - 4.0]), 0)
        assert acc.triples == 4 + triple_window_count_by_gaps(pts - 4.0, 16.0, r1, r2, tol)

    @pytest.mark.parametrize("P", [2, 3, 4])
    def test_half_circle_arcs_count_the_wrapped_points(self, P):
        # arcs of length exactly L/2 end past L/2, where only the wrapped
        # copies pts + L lie; the first row puts points on arc starts and
        # on -L/2, so wrapped points fall exactly on arc ends
        L, n_offsets = 8.0, 4
        starts = (np.arange(n_offsets) + 0.5) * (L / n_offsets) - L / 2
        rng = np.random.default_rng(P)
        rows = np.sort(np.vstack([np.concatenate([[-L / 2], starts])[:P], rng.uniform(-L / 2, L / 2, (5, P))]), axis=-1)
        assert (rows[0] + L < starts[-1] + L / 2).any()
        mats = [interval_counts_searchsorted(pts, L, [L / 2], n_offsets) for pts in rows]
        for pts, mat in zip(rows, mats):
            assert np.array_equal(interval_counts(RescaledConfig(pts, L), [L / 2], n_offsets), mat)
        acc = Accumulator(L, len(rows), lengths=(L / 2,), n_offsets=n_offsets)
        acc.add_block(rows, 0)
        assert acc.s1 == [sum(int(mat.sum()) for mat in mats)]
        assert acc.s2 == [sum(int((mat * mat).sum()) for mat in mats)]
        cfgs = [RescaledConfig(pts, L) for pts in rows]
        assert list(acc.finalize().count_var) == count_variance_reference(cfgs, [L / 2], n_offsets)

    @pytest.mark.parametrize(
        "L, P, lengths, n_offsets, tied, wrapped",
        [
            (16.0, 24, (0.25, 1.0), 8, False, "none"),
            (16.0, 24, (1.0, 8.0), 8, True, "all"),
            (80.0, 80, (1.0, 2.0, 4.0), 32, False, "some"),
        ],
        ids=["no-wrapped-column", "all-tied-at-minus-half-L", "fewer-points-than-arc-ends"],
    )
    def test_arc_counts_of_a_block(self, L, P, lengths, n_offsets, tied, wrapped):
        # the search reads the wrapped copies rows + L only in the columns
        # where some row still lies below the last arc end: in none of them,
        # in all (every point on -L/2, whose copy sits inside the L/2 arcs),
        # or in a few, with fewer points per row than arc ends (the 2x40 shape)
        rng = np.random.default_rng(P)
        rows = np.full((6, P), -L / 2) if tied else np.sort(rng.uniform(-L / 2, L / 2, (6, P)), axis=-1)
        grid, rank = estimators._arc_grid(L, lengths, n_offsets)
        columns = int((rows + L < grid[-1]).any(axis=0).sum())
        assert {"none": columns == 0, "all": columns == P, "some": 0 < columns < P < grid.size}[wrapped]
        want = np.stack([interval_counts_searchsorted(pts, L, lengths, n_offsets) for pts in rows])
        assert np.array_equal(estimators._arc_counts(rows, L, grid, rank), want)
        for pts, mat in zip(rows, want):
            assert np.array_equal(interval_counts(RescaledConfig(pts, L), lengths, n_offsets), mat)

    def test_pair_gaps_of_blocks_with_and_without_ties(self):
        # the zero gaps of repeated points are left out, next to a block
        # without any
        L, edges = 24.0, np.linspace(0.0, 3.0, 13)
        free = np.stack([cfg.points[:20] for cfg in poisson_configs(L, 3, seed=21)])
        tied = np.sort(np.concatenate([free[:, :14], free[:, 3:9]], axis=-1), axis=-1)
        assert np.diff(free, axis=-1).all() and not np.diff(tied, axis=-1).all()
        acc = Accumulator(L, 6, pair=(3.0, 12))
        acc.add_block(free, 0)
        acc.add_block(tied, 3)
        want = sum(pair_gap_histogram_loop(pts, L, 3.0, edges) for pts in np.vstack([free, tied]))
        assert np.array_equal(acc.batch_counts.sum(axis=0), 2.0 * want)


@st.composite
def dyadic_rotations(draw):
    """(n, P) rows on the 2^-8 grid of the circle of circumference 32, and
    a turn by k steps of the 32-offset arc grid, whose step is 1."""
    n, P = draw(st.integers(2, 5)), draw(st.integers(3, 30))
    ticks = st.lists(st.integers(-16 * 256, 16 * 256 - 1), min_size=P, max_size=P)
    rows = np.array(draw(st.lists(ticks, min_size=n, max_size=n)), dtype=float) / 256
    return rows, draw(st.integers(1, 31))


class TestRotation:
    @settings(max_examples=300, deadline=None)
    @given(dyadic_rotations())
    def test_exact_rotations_give_identical_estimates(self, case):
        # every coordinate, gap and window bound is exact on the grid, and
        # the turn maps the arc grid onto itself, so nothing rounds
        rows, k = case
        turned = rows + k * (32.0 / 32)
        turned = np.where(turned >= 16.0, turned - 32.0, turned)
        parts = dict(
            pair=(4.0, 16), lengths=(1.0, 2.5, 4.0), n_offsets=32, triple=(1.0, 2.0, 0.25), spacing_bins=8
        )
        a, b = (accumulate([RescaledConfig(r, 32.0) for r in x], **parts) for x in (rows, turned))
        assert np.array_equal(a.pair.batch_counts, b.pair.batch_counts)
        assert np.array_equal(a.spacings.spacings, b.spacings.spacings)
        assert a.count_var == b.count_var
        assert a.triple == b.triple
        assert a.intensity == b.intensity
