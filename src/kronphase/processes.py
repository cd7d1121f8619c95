"""Tensor products of eigenphase configurations and circle rescaling.

The tensor product of two (or three) phase configurations is the
multiset of all pairwise (triple) sums mod 2pi: the eigenphases of the
Kronecker product of the underlying matrices.  Recentring at pi and
scaling by P/2pi, with P the number of points, puts the configuration
on a circle of circumference P with mean intensity exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .kernels import TWO_PI, reduce_phases

# Tensor configurations are materialized densely; 2^20 points (~8 MB)
# is far beyond any desk-scale experiment here.
DEFAULT_TENSOR_CAPACITY = 1 << 20


@dataclass(frozen=True)
class RescaledConfig:
    """Points on a circle of circumference L, sorted, in [-L/2, L/2)."""

    points: np.ndarray
    circumference: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        L = float(self.circumference)
        if L <= 0:
            raise ValueError("RescaledConfig: circumference must be positive")
        if pts.ndim != 1:
            raise ValueError("RescaledConfig: points must be 1-d")
        if pts.size and not np.all(np.isfinite(pts)):
            raise ValueError("RescaledConfig: points must be finite")
        if pts.size and (pts.min() < -L / 2 or pts.max() >= L / 2):
            raise ValueError("RescaledConfig: points must lie in [-L/2, L/2)")
        pts = np.sort(pts)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "circumference", L)

    def __len__(self):
        return self.points.size


@dataclass(frozen=True)
class WindowSpec:
    """Symmetric window |theta| <= half_width on a rescaled circle."""

    half_width: float

    def __post_init__(self):
        if not (float(self.half_width) > 0):
            raise ValueError("WindowSpec: half_width must be positive")


def tensor_phases(a, b, capacity=DEFAULT_TENSOR_CAPACITY):
    """All sums a_i + b_j mod 2pi, sorted; repeats are kept as repeats."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 1 or b.size < 1:
        raise ValueError("tensor_phases: factors must be nonempty")
    if a.size * b.size > capacity:
        raise CapacityError(
            "tensor_phases: %d points exceed capacity %d" % (a.size * b.size, capacity)
        )
    sums = reduce_phases(np.add.outer(a, b).ravel())
    sums.sort()
    return sums


def triple_tensor(a, b, c, capacity=DEFAULT_TENSOR_CAPACITY):
    """All sums a_i + b_j + c_k mod 2pi, sorted; repeats are kept."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.size < 1 or b.size < 1 or c.size < 1:
        raise ValueError("triple_tensor: factors must be nonempty")
    total = a.size * b.size * c.size
    if total > capacity:
        raise CapacityError("triple_tensor: %d points exceed capacity %d" % (total, capacity))
    sums = reduce_phases((a[:, None, None] + b[None, :, None] + c[None, None, :]).ravel())
    sums.sort()
    return sums


def rescale_center(phases, factor_product):
    """Map phases x to theta = (P/2pi)(x - pi) on the circle of circumference P.

    P must equal the number of phases, which makes the mean intensity
    of the rescaled configuration exactly 1.
    """
    phases = np.asarray(phases, dtype=float)
    P = int(factor_product)
    if P != phases.size:
        raise ValueError(
            "rescale_center: factor product %d does not match %d phases"
            % (P, phases.size)
        )
    theta = (P / TWO_PI) * (phases - np.pi)
    # Rounding can land exactly on +P/2, which is the same circle point
    # as -P/2.
    theta = np.where(theta >= P / 2, theta - P, theta)
    return RescaledConfig(points=theta, circumference=float(P))


def window(config, spec):
    """Points of the configuration with |theta| <= half_width, sorted."""
    w = float(spec.half_width)
    if 2.0 * w > config.circumference:
        raise ValueError(
            "window: width %.3g exceeds circumference %.3g"
            % (2.0 * w, config.circumference)
        )
    pts = config.points
    return pts[np.abs(pts) <= w]
