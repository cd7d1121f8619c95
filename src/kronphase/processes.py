"""Tensor products of eigenphase configurations and circle rescaling.

The tensor product of phase configurations is the multiset of all sums
mod 2pi over one phase of each: the eigenphases of the Kronecker product
of the underlying matrices.  Recentring at pi and scaling by P/2pi, with
P the number of points, puts the configuration on a circle of
circumference P with mean intensity exactly 1.

The tensor sums and the rescale take (..., n) stacks, one configuration
per row, so that a block of samples shares one numpy call per step; each
row equals the result for that configuration alone.  circle_rows checks a
stack of rescaled rows before it reaches estimators.Accumulator.
RescaledConfig, rescale_center and triple_tensor, the one-configuration
forms, remain only for the benchmark's traced pipeline (bench/tracing.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .kernels import TWO_PI, as_int, reduce_phases

# Tensor configurations are materialized densely; 2^20 points (~8 MB)
# is far beyond any desk-scale experiment here.
DEFAULT_TENSOR_CAPACITY = 1 << 20


@dataclass(frozen=True)
class RescaledConfig:
    """Points on a circle of circumference L, sorted, in [-L/2, L/2)."""

    points: np.ndarray
    circumference: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1:
            raise ValueError("RescaledConfig: points must be 1-d")
        object.__setattr__(self, "points", circle_rows(pts, self.circumference))
        object.__setattr__(self, "circumference", float(self.circumference))

    def __len__(self):
        return self.points.size


def tensor_phases(*factors):
    """All sums over one phase of each factor mod 2pi, sorted; repeats are
    kept as repeats.  These are the eigenphases of the Kronecker product.

    Each factor may be a (..., n_i) stack, all with the same leading shape;
    each row of the (..., prod n_i) result is then the tensor phases of the
    matching rows, summed left to right with the first factor's index
    slowest.  One factor gives its own rows, reduced and sorted.
    """
    arrs = [np.asarray(f, dtype=float) for f in factors]
    if not arrs or any(a.ndim == 0 or a.shape[-1] < 1 for a in arrs):
        raise ValueError("tensor_phases: factors must be nonempty")
    total = 1
    for a in arrs:
        total *= a.shape[-1]
    if total > DEFAULT_TENSOR_CAPACITY:
        raise CapacityError("tensor_phases: %d points exceed capacity %d" % (total, DEFAULT_TENSOR_CAPACITY))
    k = len(arrs)
    sums = None
    for i, a in enumerate(arrs):
        # factor i on axis i of the grid, broadcast along the others
        g = a.reshape(a.shape[:-1] + (1,) * i + a.shape[-1:] + (1,) * (k - 1 - i))
        sums = g if sums is None else sums + g
    sums = reduce_phases(sums.reshape(sums.shape[:-k] + (total,)))
    sums.sort(axis=-1)
    return sums


def triple_tensor(a, b, c):
    """tensor_phases(a, b, c): all sums a_i + b_j + c_k mod 2pi, sorted."""
    return tensor_phases(a, b, c)


def rescale_points(phases, factor_product):
    """theta = (P/2pi)(x - pi) in [-P/2, P/2) for phases x, elementwise.

    Works on a single configuration or on a (..., P) stack of them; the
    rows are not re-sorted.  P must equal the number of phases per row.
    """
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    P = as_int("rescale_points: factor_product", factor_product)
    if P != phases.shape[-1]:
        raise ValueError(
            "rescale_points: factor product %d does not match %d phases" % (P, phases.shape[-1])
        )
    theta = phases - np.pi
    theta *= P / TWO_PI
    # Rounding can land exactly on +P/2, the circle point -P/2; fixed in place.
    theta[theta >= P / 2] -= P
    return theta


def circle_rows(points, circumference):
    """Checked one circle configuration or (..., P) stack of them, sorted row by row.

    Points must be finite and lie in [-L/2, L/2).  The input comes back
    as it is when every row is in order; otherwise a copy with each row
    out of order sorted, as RescaledConfig sorts its points: rescale_points
    moves a phase that rounds onto +P/2 to -P/2 without moving it to the
    front.
    """
    pts = np.asarray(points, dtype=float)
    L = float(circumference)
    if not 0.0 < L < np.inf:
        raise ValueError("circle points: circumference must be positive and finite")
    if pts.size and not np.all(np.isfinite(pts)):
        raise ValueError("circle points must be finite")
    if pts.size and (pts.min() < -L / 2 or pts.max() >= L / 2):
        raise ValueError("circle points must lie in [-L/2, L/2)")
    unsorted = (pts[..., 1:] < pts[..., :-1]).any(axis=-1)
    if unsorted.any():
        pts = pts.copy()
        pts[unsorted] = np.sort(pts[unsorted], axis=-1)
    return pts


def rescale_center(phases, factor_product):
    """Map phases x to theta = (P/2pi)(x - pi) on the circle of circumference P.

    P must equal the number of phases, which makes the mean intensity
    of the rescaled configuration exactly 1.
    """
    pts = rescale_points(phases, factor_product)
    return RescaledConfig(points=pts, circumference=float(pts.shape[-1]))
