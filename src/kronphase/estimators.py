"""Empirical statistics of rescaled circle configurations.

Estimators for intensity, pair and triple correlations, nearest-neighbor
spacings, and interval count variance.  Everything is circular: a
configuration enters through the gaps between its points around the
circle and through its point counts in arcs of a fixed translation grid,
so the estimates of a rotated process have the same law.  In floating
point a rotation is not exact: rotated coordinates round, and the arc
grid does not turn with the points.  Points on a dyadic grid, turned by
a multiple of the arc-grid step, avoid both and give bit-identical
estimates.

One Accumulator computes all of them from (B, P) blocks of sorted rows
added through add_block, one configuration per row.  The pair histogram
and the triple windows share one walk over the offsets k = 1, 2, ... of
every point to its k-th next point.  Every count is an exact integer, so
any split into blocks or Accumulators (add_counts) gives one pass's bytes.

The per-configuration functions after Accumulator add one-row blocks to
an Accumulator or call its kernels on a single row; only the benchmark's
traced pipeline (bench/tracing.py) calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import as_float, as_int
from .processes import circle_rows

DEFAULT_N_BATCHES = 20
DEFAULT_TRIPLE_TOL = 0.2
DEFAULT_COUNT_OFFSETS = 32

@dataclass(frozen=True)
class CorrelationHistogram:
    """Binned pair-correlation estimate on distances (0, delta_max].

    batch_counts holds ordered-pair counts (both orientations of each
    unordered pair) per global sample batch, and batch_samples the samples
    of each batch; split by batch, they give error bars and exact merging.
    Their totals are counts and n_samples, and estimate = counts /
    (n_samples * 2 * L * width) is 1 for a unit-intensity Poisson process.
    """

    bin_edges: np.ndarray
    circumference: float
    batch_counts: np.ndarray
    batch_samples: np.ndarray

    @property
    def counts(self):
        return self.batch_counts.sum(axis=0)

    @property
    def n_samples(self):
        return int(self.batch_samples.sum())

    @property
    def estimate(self):
        counts, n = self.counts, self.n_samples
        if not n:
            return np.zeros_like(counts)
        return counts / (n * 2.0 * self.circumference * self.bin_widths())

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


def _walk_offsets(rows, L, pair=None, triple=None):
    """Pair gap counts and triple window count of a (B, P) block of sorted
    rows on a circle of circumference L, from one walk over the offsets k.

    At offset k, w = [rows[:, k:], rows[:, :k] + L] holds the k-th next
    point of every point, and one subtraction turns it in place into the
    gaps w - rows that both parts read.  The gaps grow with k, so each
    part stops at the first offset that no row reaches; offset P (gaps of
    about L) is past both.  pair = (edges, segments) bins the gaps in
    (0, delta_max], with delta_max = edges[-1], of each segment a:b of
    rows, one per unordered pair, at the offset that makes them: it sorts
    them in place and adds the gaps below each edge, the sort and search
    np.histogram runs on array bins (no gap lies below the first edge, 0,
    and all lie at or below the last, delta_max), so it holds at most one
    offset's gaps of one segment, B * P floats, at a time.  triple =
    (r1, r2, tol) counts, per base point, the later points whose gap lies
    in [r - tol/2, r + tol/2] (bounds rounded once; r1 - tol/2 > 0 keeps
    ties at gap 0 out) in one int32 counter per window (a count is at most
    P), and sums the products of the two counts.  A part not asked for
    returns None.
    """
    P = rows.shape[-1]
    hists = triples = None
    if pair is not None:
        edges, segments = pair
        below_edge = np.zeros((len(segments), edges.size), dtype=np.int64)
        near = np.empty(rows.shape, dtype=bool)
    if triple is not None:
        r1, r2, tol = triple
        windows = ((r1 - tol / 2, r1 + tol / 2), (r2 - tol / 2, r2 + tol / 2))
        inside = np.zeros((2,) + rows.shape, dtype=np.int32)
        hit, below = np.empty(rows.shape, dtype=bool), np.empty(rows.shape, dtype=bool)
    pair_on, triple_on = pair is not None, triple is not None
    w = np.empty(rows.shape)
    for k in range(1, P + 1):
        if not (pair_on or triple_on):
            break
        # a contiguous window lets every ufunc below run over the block as one loop
        np.copyto(w[:, : P - k], rows[:, k:])
        np.add(rows[:, :k], L, out=w[:, P - k :])
        np.subtract(w, rows, out=w)
        if triple_on:
            for (lo, hi), c in zip(windows, inside):
                np.less_equal(lo, w, out=hit)
                np.less_equal(w, hi, out=below)
                hit &= below
                c += hit
            triple_on = below.any()  # a gap at or below r2 + tol/2
        if pair_on:
            np.less_equal(w, edges[-1], out=near)
            pair_on = near.any()
            near &= w > 0.0
            for (a, b), c in zip(segments, below_edge):
                g = np.compress(near[a:b].ravel(), w[a:b].ravel())
                if g.size:
                    g.sort()
                    c[1:-1] += np.searchsorted(g, edges[1:-1])
                    c[-1] += g.size
                del g  # so that the next gaps replace these, not join them
    del w  # the products of the counters take its place
    if triple is not None:
        n = 1 << 13  # counts at a time, so the int64 products and their casts take no (B, P) array
        flat = inside.reshape(2, -1)
        triples = sum(int(np.multiply(*flat[:, i : i + n], dtype=np.int64).sum()) for i in range(0, flat.shape[1], n))
    if pair is not None:
        hists = np.diff(below_edge, axis=-1)
    return hists, triples


def _arc_grid(circumference, lengths, n_offsets):
    """Sorted arc ends of the translation grid t (row 0: t, row 1 + i:
    t + lengths[i]) and the position of each end in that order.  Lengths
    outside (0, L/2] would count negative or wrapped-over arcs."""
    n = as_int("n_offsets", n_offsets, 1)
    if any(not 0.0 < float(ell) <= circumference / 2 for ell in lengths):
        raise ValueError("arc lengths must lie in (0, L/2]")
    offs = (np.arange(n) + 0.5) * (circumference / n) - circumference / 2
    ends = np.concatenate([offs] + [offs + float(ell) for ell in lengths])
    order = np.argsort(ends, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return ends[order], rank.reshape(-1, n)


def _arc_counts(rows, L, grid, rank):
    """(B, len(lengths), n_offsets) point counts of the sorted rows in the
    arcs [t, t + length): one searchsorted into the sorted ends, a bincount
    and a cumsum give the points below each end, as searchsorted([row,
    row + L], end, "left") does.  A point at or past the last end lands in
    bucket G - 1, which no end reads, so of rows + L the search takes only
    the first j columns, where some (sorted) row still lies below it."""
    B, G, j = rows.shape[0], grid.size + 1, int(np.searchsorted(rows.min(axis=0) + L, grid[-1]))
    pos = np.searchsorted(grid, np.concatenate([rows, rows[:, :j] + L], axis=-1), side="right")
    pos += G * np.arange(B)[:, None]  # the searched points are freed, the offsets added in place
    below = np.cumsum(np.bincount(pos.ravel(), minlength=B * G).reshape(B, G), axis=-1)[:, rank]
    return below[:, 1:] - below[:, :1]


def _gaps(rows, circumference):
    """Consecutive gaps of each sorted row, wrap gap last."""
    wrap = circumference - (rows[:, -1:] - rows[:, :1])
    return np.concatenate([np.diff(rows, axis=-1), wrap], axis=-1)


@dataclass(frozen=True)
class SpacingHistogram:
    """Nearest-neighbor spacings normalized to mean 1.

    spacings keeps the raw normalized values, sorted ascending (checked),
    for distribution tests.  Their histogram has n_bins equal bins from 0
    to the largest spacing, and its density integrates to 1.
    """

    spacings: np.ndarray
    n_bins: int
    n_skipped = 0  # a class constant: no histogram skips a spacing

    def __post_init__(self):
        if not np.all(self.spacings[:-1] <= self.spacings[1:]):
            raise ValueError("spacings must be sorted ascending")

    @property
    def n_spacings(self):
        return self.spacings.size

    @property
    def bin_edges(self):
        return np.linspace(0.0, float(self.spacings[-1]), self.n_bins + 1)

    @property
    def counts(self):
        return np.histogram(self.spacings, bins=self.bin_edges)[0].astype(float)

    def density(self):
        return self.counts / (self.n_spacings * np.diff(self.bin_edges))


@dataclass(frozen=True)
class EstimateBundle:
    """Everything one experiment measures, with a shared sample count;
    parts an accumulator was not asked for are None or empty."""

    intensity: float
    pair: CorrelationHistogram
    spacings: SpacingHistogram
    count_var: tuple
    triple: float | None = None


class Accumulator:
    """Every estimator of a run, fed (B, P) blocks of rows.

    Rows are configurations in [-L/2, L/2), which add_block checks and
    sorts through processes.circle_rows; it takes them as samples
    first_index, first_index + 1, ...  One walk over the offsets 1, 2, ...
    of each point, its window built from the rows and turned into the
    gaps, gives the pair gaps, binned per batch segment at the offset that
    makes them, and the triple windows, each part up to its own reach.  One
    searchsorted of the rows, and of the wrapped points below the last arc
    end, into the fixed translation grid gives the arc counts, and the gaps
    go to the spacing pool.  Every count is an exact integer, so blocks may
    come in any order and be of any size; the result is the same bit for
    bit.

    Memory is O(n_samples * P), from the spacing pool only: the gaps of
    every sample, kept for the spacing histogram and its KS test, so every
    block must have the pool's P.  All other parts have a fixed size, and
    a block's temporaries, the walk's window and one offset's gaps among
    them, are O(B * P) on any points, degenerate ones included.

    finalize normalizes and sorts the pool in place and hands it to the
    SpacingHistogram, so it makes no second pool-sized array; it consumes
    the pool, so a second finalize, or a block added after it, raises.

    Parts: pair = (delta_max, n_bins) in DEFAULT_N_BATCHES sample batches, arc
    lengths for count variances over n_offsets translations, triple =
    (r1, r2, tol), and spacing_bins for the spacing pool.  A later point
    is in a triple window when its rounded gap from the base lies in
    [r - tol/2, r + tol/2]; the two rounded windows may not touch.  The
    triple estimate is the window count over every base point divided by
    n_samples * L * tol^2, 1 for a unit-intensity Poisson process; its box
    kernel carries an O(tol^2) bias where the target has curvature.
    """

    def __init__(
        self,
        circumference,
        n_samples,
        pair=None,
        lengths=(),
        n_offsets=DEFAULT_COUNT_OFFSETS,
        triple=None,
        spacing_bins=None,
    ):
        L, n = as_float("circumference", circumference), as_int("n_samples", n_samples, 1)
        if not 0.0 < L < np.inf:
            raise ValueError("circumference must be positive and finite")
        self.L, self.n_samples, self.triple = L, n, triple
        self.lengths = tuple(float(ell) for ell in lengths)
        self.edges = None  # the pair grid; linspace sets its last edge to delta_max exactly
        if pair is not None:
            delta_max = as_float("delta_max", pair[0])
            if not 0.0 < delta_max <= L / 2:
                raise ValueError("delta_max must lie in (0, L/2]")
            n_bins = as_int("n_bins", pair[1], 1)
            self.edges = np.linspace(0.0, delta_max, n_bins + 1)
            self.batch_counts = np.zeros((min(DEFAULT_N_BATCHES, n), n_bins))
            self.batch_samples = np.zeros(len(self.batch_counts), dtype=np.int64)
        self.n_offsets = as_int("n_offsets", n_offsets, 1)
        self.arc_grid = _arc_grid(L, self.lengths, self.n_offsets)
        if triple is not None:
            # the walk counts with the floats checked here, not a caller's float32
            self.triple = r1, r2, tol = tuple(as_float(k, v) for k, v in zip(("r1", "r2", "tol"), triple, strict=True))
            if not tol > 0:
                raise ValueError("tol must be positive")
            if not 0.0 < r1 < r2 <= L / 4:
                raise ValueError("need 0 < r1 < r2 <= L/4")
            if not r1 + tol / 2 < r2 - tol / 2:  # the walk's rounded bounds: one point is never both y and z
                raise ValueError("degenerate geometry: the r1 and r2 windows touch or overlap")
            if r1 - tol / 2 <= 0:
                raise ValueError("r1 window reaches zero gap; increase r1 or shrink tol")
        self.spacing_bins = None if spacing_bins is None else as_int("spacing_bins", spacing_bins, 1)
        self.added = np.zeros(n, dtype=bool)
        self.n_points = self.triples = 0
        self.s1, self.s2 = [0] * len(self.lengths), [0] * len(self.lengths)
        self.gaps = None
        self.finalized = False

    def add_block(self, points, first_index):
        """Add a (B, P) block, checked and sorted by circle_rows, as samples
        first_index .. first_index + B - 1; a finalized Accumulator takes none."""
        if self.finalized:
            raise ValueError("add_block: the accumulator was already finalized")
        if np.ndim(points) != 2:
            raise ValueError("add_block: points must be a (B, P) block")
        rows = circle_rows(points, self.L)
        first, (B, P) = as_int("first_index", first_index), rows.shape
        if B == 0:
            return
        if first < 0 or first + B > self.n_samples:
            raise ValueError("sample indices must lie in [0, n_samples)")
        if self.added[first : first + B].any():
            raise ValueError("a sample was added twice")
        if self.gaps is not None and P != self.gaps.shape[1]:
            raise ValueError("the spacing pool holds %d points per sample, this block %d" % (self.gaps.shape[1], P))
        self.added[first : first + B] = True
        self.n_points += B * P
        pair = None
        if self.edges is not None:
            nb = self.batch_samples.size
            batch = ((first + np.arange(B)) * nb) // self.n_samples
            self.batch_samples += np.bincount(batch, minlength=nb)
            cuts = [0, *(np.flatnonzero(np.diff(batch)) + 1), B]
            pair = (self.edges, list(zip(cuts[:-1], cuts[1:])))
        hists, triples = _walk_offsets(rows, self.L, pair, self.triple)
        if pair is not None:
            for (r0, _), h in zip(pair[1], hists):
                self.batch_counts[batch[r0]] += 2.0 * h
        if triples is not None:
            self.triples += triples
        if self.lengths:
            counts = _arc_counts(rows, self.L, *self.arc_grid)
            for i in range(len(self.lengths)):
                self.s1[i] += int(counts[:, i].sum())
                self.s2[i] += int((counts[:, i] * counts[:, i]).sum())
        if self.spacing_bins is not None:
            if self.gaps is None:
                self.gaps = np.zeros((self.n_samples, P))
            self.gaps[first : first + B] = _gaps(rows, self.L)

    def add_counts(self, other):
        """Add the exact counts, not the pool rows, of an Accumulator of other samples."""
        if self.finalized or (self.added & other.added).any():
            raise ValueError("add_counts: finalized, or a sample was added twice")
        self.added |= other.added
        self.n_points, self.triples = self.n_points + other.n_points, self.triples + other.triples
        self.s1, self.s2 = [a + b for a, b in zip(self.s1, other.s1)], [a + b for a, b in zip(self.s2, other.s2)]
        if self.edges is not None:
            self.batch_counts += other.batch_counts
            self.batch_samples += other.batch_samples

    def finalize(self):
        """EstimateBundle of the samples added; the spacing pool needs all of
        them.  Consumes the pool, so an Accumulator finalizes once."""
        if self.finalized:
            raise ValueError("finalize: the accumulator was already finalized")
        n, L = int(np.count_nonzero(self.added)), self.L
        if n == 0:
            raise ValueError("estimator input must contain at least one configuration")
        pair = spacings = triple = None
        if self.edges is not None:
            pair = CorrelationHistogram(self.edges, L, self.batch_counts.copy(), self.batch_samples.copy())
        if self.spacing_bins is not None:
            if n != self.n_samples or self.gaps.shape[1] < 2:
                raise ValueError("spacings need every sample, each with at least 2 points")
        m = n * self.n_offsets
        if self.lengths and m < 2:
            raise ValueError("count variance needs at least 2 observations")
        if self.spacing_bins is not None:
            # checked above, so a finalize that raises leaves the pool intact
            spacings = _pool_spacings(self.gaps.reshape(-1), self.gaps.sum(axis=1), self.spacing_bins)
            self.gaps = None
        self.finalized = True
        moments = zip(self.lengths, self.s1, self.s2)
        count_var = tuple((ell, float((s2 - s1 * s1 / m) / (m - 1))) for ell, s1, s2 in moments)
        if self.triple is not None:
            triple = self.triples / (n * L * self.triple[2] ** 2)
        return EstimateBundle(self.n_points / (n * L), pair, spacings, count_var, triple)


def estimate_pair_correlation(samples, delta_max, n_bins, sample_indices=None, n_samples_total=None):
    """Pair-correlation histogram over distances (0, delta_max] of a list
    of configurations, each added to one Accumulator as a one-row block.

    For a slice of a larger experiment, pass the global sample_indices
    of the slice and the global n_samples_total; merging such partials
    is then bit-identical to one pass over all samples.
    """
    index = range(len(samples))
    if sample_indices is not None:
        index = [as_int("sample_indices", i) for i in sample_indices]
        if len(index) != len(samples):
            raise ValueError("sample_indices must match samples")
    circumferences = {cfg.circumference for cfg in samples}
    if len(circumferences) != 1:
        raise ValueError("estimator input must be configurations on one circumference")
    n = len(samples) if n_samples_total is None else n_samples_total
    acc = Accumulator(circumferences.pop(), n, pair=(delta_max, n_bins))
    for i, cfg in zip(index, samples):
        acc.add_block(cfg.points[None], i)
    return acc.finalize().pair


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
    return CorrelationHistogram(
        h1.bin_edges, h1.circumference, h1.batch_counts + h2.batch_counts, h1.batch_samples + h2.batch_samples
    )


def triple_window_count(cfg, r1, r2, tol=DEFAULT_TRIPLE_TOL):
    """Ordered triples (x, y, z) of one configuration with circular gaps
    x->y in r1 +- tol/2 and x->z in r2 +- tol/2; every point is a base x.
    Returns an exact integer count."""
    acc = Accumulator(cfg.circumference, 1, triple=(r1, r2, tol))
    acc.add_block(cfg.points[None], 0)
    return acc.triples


def circular_gaps(cfg):
    """Consecutive gaps of a sorted circle configuration, wrap gap last."""
    if len(cfg) < 2:
        raise ValueError("circular_gaps: need at least 2 points")
    return _gaps(cfg.points[None], cfg.circumference)[0]


def _pool_spacings(pool, sums, n_bins):
    """SpacingHistogram of a 1-d pool of gaps with per-sample sums: divides
    the pool by the pooled mean and sorts it, both in place, so the caller
    hands over a pool it does not keep."""
    n_bins = as_int("n_bins", n_bins, 1)
    count = pool.size
    if count < 1:
        raise ValueError("no spacings to pool")
    mean = float(np.sum(sums)) / count
    if mean <= 0:
        raise ValueError("spacings must have positive mean")
    pool /= mean
    pool.sort()
    return SpacingHistogram(pool, n_bins)


def spacing_histogram_from_gaps(gap_arrays, n_bins=40):
    """Pool per-sample gap arrays (a list, or the rows of a 2-d array),
    rescale to mean 1, and sort them into an n_bins SpacingHistogram.

    The pooled mean is computed from per-array sums in list order, so
    the result depends only on the arrays and their order.  The input is
    not changed: the pool is a new array.
    """
    gap_arrays = [np.asarray(g, dtype=float) for g in gap_arrays]
    sums = np.array([np.sum(g) for g in gap_arrays])
    return _pool_spacings(np.concatenate(gap_arrays) if gap_arrays else sums, sums, n_bins)


def interval_counts(cfg, lengths, n_offsets=DEFAULT_COUNT_OFFSETS):
    """Point counts in arcs [t, t + length) on a fixed grid of translations.

    Returns an int64 array of shape (len(lengths), n_offsets).  The
    translation grid is deterministic; stationarity of the process makes
    it statistically equivalent to random translations.
    """
    L = cfg.circumference
    return _arc_counts(cfg.points[None], L, *_arc_grid(L, lengths, n_offsets))[0]
