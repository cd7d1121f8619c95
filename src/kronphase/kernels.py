"""Closed-form kernels and determinantal correlation functions.

Two translation-invariant kernels are provided: the sine kernel
q(u) = sin(pi u)/(pi u) and the finite-n circular kernel
s_n(u) = (1/2pi) sin(n u/2)/sin(u/2), together with the k-point
correlation functions obtained as determinants of the corresponding
kernel matrices, and the Hadamard determinant bound.

All functions here are pure; they hold no state and are safe to call
from any number of threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError

TWO_PI = 2.0 * math.pi

# Below this argument magnitude both kernels switch to a 2-term Taylor
# expansion; direct evaluation of sin(x)/x loses no precision much
# earlier, but the fixed switch point keeps the error monotone near 0.
TAYLOR_CUTOFF = 1e-8

# Correlation order cap, also of set_partitions (Bell(8) = 4140 of them)
# and the Stirling identity. Determinants stay cheap far beyond it, but
# estimators cannot reach k much above 3 at desk scale.
DEFAULT_K_CAP = 8

# Per-order tolerance for round-off negatives out of the determinant.
DET_CLAMP_PER_ORDER = 1e-10


def as_int(name, value, low=None):
    """value as a plain int, at least low if low is given: the one check of
    every size argument.  Python and numpy integers are accepted; bools and
    numbers that are not integers (2.7, but also 2.0) are never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if low is not None and value < low:
        raise ValueError("%s must be >= %d" % (name, low))
    return int(value)


def as_float(name, value):
    """value as a plain float; bools, which float() takes, are refused."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError("%s must be a number, got %r" % (name, value))
    return float(value)


def shaped_like(u, out):
    """out as a plain float when u is a scalar (a number or a 0-d array),
    else out as it is: the one scalar rule of the analytic functions."""
    return float(out) if np.ndim(u) == 0 else out


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError("%s: argument must be finite" % name)


def check_points(name, points):
    """points of a k-point correlation as a float array: nonempty, 1-d,
    finite, and at most DEFAULT_K_CAP of them."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("%s: points must be a nonempty 1-d sequence" % name)
    _check_finite(name, pts)
    if pts.size > DEFAULT_K_CAP:
        raise CapacityError("%s: order %d exceeds cap %d" % (name, pts.size, DEFAULT_K_CAP))
    return pts


def sine_q(u):
    """Sine kernel q(u) = sin(pi u)/(pi u), with q(0) = 1.

    Accepts a scalar or an ndarray; returns the same shape. |q| <= 1.
    """
    arr = np.asarray(u, dtype=float)
    _check_finite("sine_q", arr)
    x = np.pi * arr
    small = np.abs(arr) < TAYLOR_CUTOFF
    safe = np.where(small, 1.0, x)
    return shaped_like(u, np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe))


def reduce_phases(x):
    """Reduce angles into [0, 2pi) by a floor-based branch-free map.

    The boundary value 2pi (reachable through rounding) maps to 0, and so
    does a negative subnormal x, whose x / 2pi underflows to -0.0 and
    leaves r = x < 0.
    """
    arr = np.asarray(x, dtype=float)
    r = arr - TWO_PI * np.floor(arr / TWO_PI)
    return np.where((r >= TWO_PI) | (r < 0.0), 0.0, r)


def reduce_to_pi(u):
    """Reduce an angle (or array) mod 2pi into (-pi, pi]."""
    r = reduce_phases(u)
    return shaped_like(u, np.where(r > np.pi, r - TWO_PI, r))


def cue_s(n, u):
    """Finite-n circular kernel s_n(u) = (1/2pi) sin(n u/2)/sin(u/2).

    The argument is reduced mod 2pi into (-pi, pi] first, so u = 0 is
    the only singular point; there the kernel takes its limit n/(2pi).
    Satisfies |(2pi/n) s_n(u)| <= 1 for all u. Scalar or ndarray.
    """
    n = as_int("cue_s: n", n, 1)
    arr = np.asarray(u, dtype=float)
    _check_finite("cue_s", arr)
    r = reduce_to_pi(arr)
    small = np.abs(r) < TAYLOR_CUTOFF
    safe = np.where(small, 1.0, r)
    direct = np.sin(0.5 * n * safe) / np.sin(0.5 * safe)
    taylor = n * (1.0 - (n * n - 1.0) * r * r / 24.0)
    return shaped_like(u, np.where(small, taylor, direct) / TWO_PI)


def _det_clamped(mat, k):
    # LU determinant; tiny negatives are round-off on a PSD kernel matrix.
    det = float(np.linalg.det(mat))
    eps = DET_CLAMP_PER_ORDER * k
    if det < -eps:
        raise ValueError(
            "correlation determinant %.3e below round-off tolerance -%.3e" % (det, eps)
        )
    return 0.0 if det < 0.0 else det


def rho_sine(points):
    """k-point correlation of the sine process: det[q(x_i - x_j)].

    Nonnegative up to determinant round-off; tiny negatives clamp to 0.
    """
    pts = check_points("rho_sine", points)
    mat = sine_q(np.subtract.outer(pts, pts))
    return _det_clamped(np.atleast_2d(mat), pts.size)


def rho_cue(n, points):
    """k-point correlation of the n-point circular process: det[s_n(x_i - x_j)].

    Requires k <= n: orders beyond the point count are identically zero
    and are rejected rather than silently returned.
    """
    n = as_int("rho_cue: n", n, 1)
    pts = check_points("rho_cue", points)
    k = pts.size
    if k > n:
        raise ValueError("rho_cue: order k=%d exceeds point count n=%d" % (k, n))
    diff = np.subtract.outer(pts, pts)
    mat = cue_s(n, diff)
    if n % 2 == 0:
        # sin(n u/2)/sin(u/2) is antiperiodic under u -> u + 2pi when n
        # is even, so the reduced evaluation must carry the parity of
        # the winding count to reproduce the raw-difference determinant.
        winding = np.rint((diff - reduce_to_pi(diff)) / TWO_PI)
        mat = mat * np.where(winding % 2 == 0, 1.0, -1.0)
    return _det_clamped(np.atleast_2d(mat), k)


def hadamard_bound(k, n):
    """Hadamard bound k^(k/2) n^k / (2pi)^k on the k-point circular correlation."""
    k = as_int("hadamard_bound: k", k, 1)
    n = as_int("hadamard_bound: n", n, 1)
    return float(k) ** (0.5 * k) * (n / TWO_PI) ** k
