"""Goodness-of-fit statistics against analytic target curves.

Pass/fail fields here are advisory; only the verification runner treats
them as gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import as_int

KS_MIN_N = 100

# Asymptotic 5% critical value of the one-sample Kolmogorov-Smirnov
# statistic: D_crit = 1.36 / sqrt(n).  Adequate for n >= 100.
KS_COEFF_05 = 1.36

# Spacings per step of the KS walk: its temporaries, a few of these, stay
# below the high-water mark that the estimator blocks set (1 << 15 did not).
_KS_CHUNK = 1 << 13


@dataclass(frozen=True)
class CurveComparison:
    """Deviation summary of a binned estimate against a target curve."""

    max_abs_dev: float
    rms_dev: float
    per_bin_z: np.ndarray
    n_bins_over_4sigma: int


@dataclass(frozen=True)
class KsResult:
    d_statistic: float
    n: int
    threshold_05: float
    passed: bool


def compare_to_curve(hist, target):
    """Compare a pair-correlation histogram to a target function.

    target is called once, with the array of bin midpoints, and returns one
    value per midpoint or one value for all (a constant); z-scores use the
    batch standard errors of the histogram (bins whose standard error is
    zero get z = 0, which only happens on degenerate deterministic input).
    """
    se = hist.standard_errors()
    mids = hist.bin_midpoints()
    # a result of another shape does not broadcast to the midpoints: ValueError
    f = np.broadcast_to(np.asarray(target(mids), dtype=float), mids.shape)
    dev = hist.estimate - f
    z = np.where(se > 0, dev / np.where(se > 0, se, 1.0), 0.0)
    return CurveComparison(
        max_abs_dev=float(np.max(np.abs(dev))),
        rms_dev=float(np.sqrt(np.mean(dev * dev))),
        per_bin_z=z,
        n_bins_over_4sigma=int(np.count_nonzero(np.abs(z) > 4.0)),
    )


def ks_against_exponential(spacing_hist):
    """One-sample KS test of normalized spacings against 1 - exp(-s).

    Reads the spacings in the ascending order SpacingHistogram keeps them,
    in fixed chunks of _KS_CHUNK, so its temporaries do not grow with the
    pool.  Per element it computes the one-sided deviations i/n - cdf and
    cdf - (i-1)/n; rounded subtraction is antisymmetric and monotone, so
    their maximum is max(|i/n - cdf|, |(i-1)/n - cdf|) bit for bit.
    """
    s = np.asarray(spacing_hist.spacings, dtype=float)
    n = s.size
    if n < KS_MIN_N:
        raise ValueError("ks_against_exponential: need at least %d spacings" % KS_MIN_N)
    peaks = []
    for start in range(0, n, _KS_CHUNK):
        cdf = 1.0 - np.exp(-s[start : start + _KS_CHUNK])
        i = np.arange(start + 1, start + 1 + cdf.size)
        peaks += [np.max(i / n - cdf), np.max(cdf - (i - 1) / n)]
    d = float(np.max(peaks))
    thr = KS_COEFF_05 / math.sqrt(n)
    return KsResult(d_statistic=d, n=int(n), threshold_05=thr, passed=d < thr)


def chi_square_uniformity(phases, n_bins=32):
    """Pearson chi-square of pooled phases against the uniform law on [0, 2pi).

    Returns (statistic, dof) with dof = n_bins - 1.  Requires at least
    10 expected counts per bin.
    """
    phases = np.asarray(phases, dtype=float)
    n_bins = as_int("chi_square_uniformity: n_bins", n_bins, 2)
    expected = phases.size / n_bins
    if expected < 10:
        raise ValueError(
            "chi_square_uniformity: expected count %.1f per bin is below 10" % expected
        )
    edges = np.linspace(0.0, 2.0 * np.pi, n_bins + 1)
    counts = np.histogram(phases, bins=edges)[0]
    if int(counts.sum()) != phases.size:
        raise ValueError("chi_square_uniformity: phases must lie in [0, 2pi)")
    stat = float(np.sum((counts - expected) ** 2) / expected)
    return stat, n_bins - 1
