"""Empirical statistics of rescaled circle configurations.

Estimators for intensity, pair and triple correlations, nearest-neighbor
spacings, and interval count variance.  Everything is circular: the only
geometry used is the signed difference in (-L/2, L/2], so every
estimator is exactly invariant under rotations of its input.

Pair-correlation accumulation is mergeable: counts are kept per batch,
batches are addressed by global sample index, and all stored counts are
integer-valued floats, so merging partial histograms of disjoint sample
slices reproduces one pass over all samples bit for bit, however the
samples were split.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_N_BATCHES = 20
DEFAULT_TRIPLE_TOL = 0.2
DEFAULT_COUNT_OFFSETS = 32


def _common_circumference(samples):
    if len(samples) == 0:
        raise ValueError("estimator input must contain at least one configuration")
    L = samples[0].circumference
    for cfg in samples:
        if cfg.circumference != L:
            raise ValueError("configurations must share one circumference")
    return L


@dataclass(frozen=True)
class CorrelationHistogram:
    """Binned pair-correlation estimate on distances (0, delta_max].

    counts holds ordered-pair counts (both orientations of each
    unordered pair), so estimate = counts / (n_samples * 2 * L * width)
    is 1 for a unit-intensity Poisson process.  batch_counts splits the
    same counts by global sample batch for error bars and exact merging.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    n_samples: int
    circumference: float
    estimate: np.ndarray
    batch_counts: np.ndarray
    batch_samples: np.ndarray

    @classmethod
    def empty(cls, bin_edges, circumference, n_batches=DEFAULT_N_BATCHES):
        edges = np.asarray(bin_edges, dtype=float)
        nb = edges.size - 1
        return cls(
            bin_edges=edges,
            counts=np.zeros(nb),
            n_samples=0,
            circumference=float(circumference),
            estimate=np.zeros(nb),
            batch_counts=np.zeros((int(n_batches), nb)),
            batch_samples=np.zeros(int(n_batches), dtype=np.int64),
        )

    @property
    def n_bins(self):
        return self.bin_edges.size - 1

    def bin_midpoints(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def bin_widths(self):
        return np.diff(self.bin_edges)

    def standard_errors(self):
        """Per-bin standard error of the estimate from batch means."""
        live = self.batch_samples > 0
        b = int(np.count_nonzero(live))
        if b < 2:
            raise ValueError("standard errors need at least 2 populated batches")
        denom = (
            self.batch_samples[live, None]
            * 2.0
            * self.circumference
            * self.bin_widths()[None, :]
        )
        means = self.batch_counts[live] / denom
        return np.std(means, axis=0, ddof=1) / np.sqrt(b)


def _pair_estimate(counts, n_samples, circumference, widths):
    if n_samples == 0:
        return np.zeros_like(counts)
    return counts / (n_samples * 2.0 * circumference * widths)


# Cap on the entries of one gap matrix in _pair_gap_histogram; only
# near-degenerate configurations, where many points crowd within
# delta_max of each other, need more than one slab of offsets.
_GAP_MATRIX_MAX = 1 << 18


def _pair_gap_histogram(pts, circumference, delta_max, edges):
    """Histogram of positive circular gaps <= delta_max, one entry per unordered pair.

    Gaps ext[i + off] - pts[i] grow with the offset off, so the offsets
    worth taking end at the first one whose smallest gap exceeds
    delta_max.  One searchsorted bounds that offset; the gaps of all
    offsets up to it form one (P, K) matrix and one np.histogram call.
    """
    npts = pts.size
    if npts < 2:
        return np.zeros(edges.size - 1)
    ext = np.concatenate([pts, pts + circumference])
    reach = np.searchsorted(ext, pts + delta_max, side="right") - np.arange(npts) - 1
    k = min(int(reach.max()), npts - 1)
    # pts[i] + delta_max is rounded, so check the bound against the gaps
    while k < npts - 1 and (ext[k + 1 : k + 1 + npts] - pts).min() <= delta_max:
        k += 1
    hist = np.zeros(edges.size - 1)
    if k < 1:
        return hist
    # row i of windows is ext[i + 1 : i + 1 + k], the points at offsets 1..k
    windows = np.lib.stride_tricks.sliding_window_view(ext[1:], k)
    step = max(1, _GAP_MATRIX_MAX // npts)
    for lo in range(0, k, step):
        d = windows[:npts, lo : lo + step] - pts[:, None]
        hist += np.histogram(d[(d > 0.0) & (d <= delta_max)], bins=edges)[0]
    return hist


def estimate_pair_correlation(
    samples,
    delta_max,
    n_bins,
    n_batches=DEFAULT_N_BATCHES,
    sample_indices=None,
    n_samples_total=None,
):
    """Pair-correlation histogram over distances (0, delta_max].

    For a slice of a larger experiment, pass the global sample_indices
    of the slice and the global n_samples_total; merging such partials
    is then bit-identical to one pass over all samples.
    """
    L = _common_circumference(samples)
    delta_max = float(delta_max)
    if not 0.0 < delta_max <= L / 2:
        raise ValueError("delta_max must lie in (0, L/2]")
    n_bins = int(n_bins)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if int(n_batches) < 1:
        raise ValueError("n_batches must be >= 1")
    if sample_indices is None:
        sample_indices = np.arange(len(samples))
    else:
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
    if sample_indices.size != len(samples):
        raise ValueError("sample_indices must match samples")
    total = int(n_samples_total) if n_samples_total is not None else len(samples)
    if total < 1 or sample_indices.min() < 0 or sample_indices.max() >= total:
        raise ValueError("sample indices must lie in [0, n_samples_total)")

    nb_batches = min(int(n_batches), total)
    edges = np.linspace(0.0, delta_max, n_bins + 1)
    batch_counts = np.zeros((nb_batches, n_bins))
    batch_samples = np.zeros(nb_batches, dtype=np.int64)
    for cfg, s in zip(samples, sample_indices):
        bi = (int(s) * nb_batches) // total
        batch_counts[bi] += 2.0 * _pair_gap_histogram(cfg.points, L, delta_max, edges)
        batch_samples[bi] += 1
    counts = batch_counts.sum(axis=0)
    return CorrelationHistogram(
        bin_edges=edges,
        counts=counts,
        n_samples=len(samples),
        circumference=L,
        estimate=_pair_estimate(counts, len(samples), L, np.diff(edges)),
        batch_counts=batch_counts,
        batch_samples=batch_samples,
    )


def merge(h1, h2):
    """Add two pair-correlation histograms with identical grids.

    Commutative and associative; counts are integer-valued floats, so
    the sum is exact and independent of merge order.
    """
    if not np.array_equal(h1.bin_edges, h2.bin_edges):
        raise ValueError("merge: bin grids differ")
    if h1.circumference != h2.circumference:
        raise ValueError("merge: circumferences differ")
    if h1.batch_counts.shape != h2.batch_counts.shape:
        raise ValueError("merge: batch layouts differ")
    counts = h1.counts + h2.counts
    n = h1.n_samples + h2.n_samples
    return CorrelationHistogram(
        bin_edges=h1.bin_edges,
        counts=counts,
        n_samples=n,
        circumference=h1.circumference,
        estimate=_pair_estimate(counts, n, h1.circumference, np.diff(h1.bin_edges)),
        batch_counts=h1.batch_counts + h2.batch_counts,
        batch_samples=h1.batch_samples + h2.batch_samples,
    )


def estimate_intensity(samples):
    """Mean number of points per unit circumference."""
    L = _common_circumference(samples)
    total = sum(len(cfg) for cfg in samples)
    return total / (len(samples) * L)


def _validate_triple_geometry(circumference, r1, r2, tol):
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0.0 < r1 < r2 <= circumference / 4:
        raise ValueError("need 0 < r1 < r2 <= L/4")
    if r2 - r1 < tol:
        raise ValueError("degenerate geometry: r1 and r2 closer than tol")
    if r1 - tol / 2 <= 0:
        raise ValueError("r1 window reaches zero gap; increase r1 or shrink tol")


def triple_window_count(cfg, r1, r2, tol=DEFAULT_TRIPLE_TOL):
    """Ordered triples (x, y, z) of one configuration with circular gaps
    x->y in r1 +- tol/2 and x->z in r2 +- tol/2; every point is a base x.
    Returns an exact integer count."""
    _validate_triple_geometry(cfg.circumference, float(r1), float(r2), float(tol))
    pts = cfg.points
    if pts.size < 3:
        return 0
    ext = np.concatenate([pts, pts + cfg.circumference])
    c1 = np.searchsorted(ext, pts + (r1 + tol / 2), side="right") - np.searchsorted(
        ext, pts + (r1 - tol / 2), side="left"
    )
    c2 = np.searchsorted(ext, pts + (r2 + tol / 2), side="right") - np.searchsorted(
        ext, pts + (r2 - tol / 2), side="left"
    )
    return int(np.sum(c1 * c2))


def estimate_triple_correlation(samples, r1, r2, tol=DEFAULT_TRIPLE_TOL):
    """Triple correlation at gap configuration (0, r1, r2), box kernel of width tol.

    Window counts are averaged over translations (every point serves as
    the base) and normalized by n_samples * L * tol^2, so a
    unit-intensity Poisson process gives 1.  The box kernel smooths the
    correlation over the tolerance windows, so the estimate carries an
    O(tol^2) bias where the target has curvature.
    """
    L = _common_circumference(samples)
    r1 = float(r1)
    r2 = float(r2)
    tol = float(tol)
    _validate_triple_geometry(L, r1, r2, tol)
    total = sum(triple_window_count(cfg, r1, r2, tol) for cfg in samples)
    return total / (len(samples) * L * tol ** 2)


@dataclass(frozen=True)
class SpacingHistogram:
    """Nearest-neighbor spacings normalized to mean 1.

    spacings keeps the raw normalized values (sorted) for distribution
    tests; the binned density integrates to 1.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    n_spacings: int
    normalized: bool
    spacings: np.ndarray
    n_skipped: int = 0

    def density(self):
        return self.counts / (self.n_spacings * np.diff(self.bin_edges))


def circular_gaps(cfg):
    """Consecutive gaps of a sorted circle configuration, wrap gap last."""
    pts = cfg.points
    if pts.size < 2:
        raise ValueError("circular_gaps: need at least 2 points")
    return np.concatenate([np.diff(pts), [cfg.circumference - (pts[-1] - pts[0])]])


def spacing_histogram_from_gaps(gap_arrays, n_bins=40, n_skipped=0):
    """Pool per-sample gap arrays, rescale to mean 1, and bin.

    The pooled mean is computed from per-array sums in list order, so
    the result depends only on the arrays and their order.
    """
    gap_arrays = [np.asarray(g, dtype=float) for g in gap_arrays]
    if not gap_arrays:
        raise ValueError("no spacings to pool")
    sums = np.array([np.sum(g) for g in gap_arrays])
    count = sum(g.size for g in gap_arrays)
    if count < 1:
        raise ValueError("no spacings to pool")
    mean = float(np.sum(sums)) / count
    if mean <= 0:
        raise ValueError("spacings must have positive mean")
    pooled = np.concatenate(gap_arrays) / mean
    edges = np.linspace(0.0, float(pooled.max()), int(n_bins) + 1)
    counts = np.histogram(pooled, bins=edges)[0].astype(float)
    pooled.sort()
    return SpacingHistogram(
        bin_edges=edges,
        counts=counts,
        n_spacings=count,
        normalized=True,
        spacings=pooled,
        n_skipped=int(n_skipped),
    )


def nearest_neighbor_spacings(samples, n_bins=40):
    """Pooled nearest-neighbor spacing histogram, mean spacing rescaled to 1.

    Configurations with fewer than 2 points cannot contribute a gap;
    they are skipped and counted in n_skipped.
    """
    gaps = []
    skipped = 0
    for cfg in samples:
        if len(cfg) < 2:
            skipped += 1
            continue
        gaps.append(circular_gaps(cfg))
    if skipped:
        warnings.warn("nearest_neighbor_spacings: skipped %d configurations with < 2 points" % skipped)
    if not gaps:
        raise ValueError("no configuration had enough points for spacings")
    return spacing_histogram_from_gaps(gaps, n_bins=n_bins, n_skipped=skipped)


def interval_counts(cfg, lengths, n_offsets=DEFAULT_COUNT_OFFSETS):
    """Point counts in arcs [t, t + length) on a fixed grid of translations.

    Returns an int64 array of shape (len(lengths), n_offsets).  The
    translation grid is deterministic; stationarity of the process makes
    it statistically equivalent to random translations.
    """
    L = cfg.circumference
    pts = cfg.points
    ext = np.concatenate([pts, pts + L])
    offs = (np.arange(int(n_offsets)) + 0.5) * (L / int(n_offsets)) - L / 2
    out = np.empty((len(lengths), int(n_offsets)), dtype=np.int64)
    lo = np.searchsorted(ext, offs, side="left")
    for i, ell in enumerate(lengths):
        hi = np.searchsorted(ext, offs + float(ell), side="left")
        out[i] = hi - lo
    return out


def _variance_from_moments(s1, s2, m):
    if m < 2:
        raise ValueError("count variance needs at least 2 observations")
    return (s2 - (s1 * s1) / m) / (m - 1)


def count_variance(samples, lengths, n_offsets=DEFAULT_COUNT_OFFSETS):
    """Variance of arc point counts for each requested arc length.

    Pools counts over samples and a grid of translations per sample.
    Accumulation uses exact integer moments, so the result is
    independent of sample order.
    """
    L = _common_circumference(samples)
    lengths = [float(ell) for ell in lengths]
    for ell in lengths:
        if not 0.0 < ell <= L / 2:
            raise ValueError("arc lengths must lie in (0, L/2]")
    s1 = [0] * len(lengths)
    s2 = [0] * len(lengths)
    for cfg in samples:
        mat = interval_counts(cfg, lengths, n_offsets=n_offsets)
        for i in range(len(lengths)):
            s1[i] += int(mat[i].sum())
            s2[i] += int((mat[i] * mat[i]).sum())
    m = len(samples) * int(n_offsets)
    return [
        (lengths[i], float(_variance_from_moments(s1[i], s2[i], m)))
        for i in range(len(lengths))
    ]


@dataclass(frozen=True)
class EstimateBundle:
    """Everything one experiment measures, with a shared sample count."""

    intensity: float
    pair: CorrelationHistogram
    spacings: SpacingHistogram
    count_var: tuple
