"""Set partitions and the superposed-sine correlation formula.

The k-point correlation of a union of m independent copies of the sine
process, each dilated by m, is a sum over set partitions of {1,...,k}
weighted by falling factorials of m.  This module enumerates the
partitions, provides the exact Stirling/Bell arithmetic used to test
them, and evaluates the superposed correlation together with its k = 2
specialization.  The exact arithmetic takes integers only; the
enumeration and the Stirling identity stop at kernels.DEFAULT_K_CAP.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import CapacityError
from .kernels import as_int, check_points, rho_sine, shaped_like, sine_q


def _rgs_blocks(k):
    # Restricted growth strings: a[0] = 0, a[i] <= max(a[:i]) + 1.
    # Labels appear in order of first occurrence, so the derived blocks
    # come out already sorted by smallest element.
    a = [0] * k
    while True:
        nblocks = max(a) + 1
        blocks = [[] for _ in range(nblocks)]
        for idx, lab in enumerate(a):
            blocks[lab].append(idx + 1)
        yield tuple(tuple(b) for b in blocks)
        i = k - 1
        while i > 0 and a[i] >= max(a[:i]) + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, k):
            a[j] = 0


def set_partitions(k):
    """Enumerate every partition of {1,...,k} exactly once, as a tuple
    of partitions, each a tuple of blocks.

    A block is a tuple of ascending indices, and the blocks of a
    partition are ordered by smallest element.  Partitions are returned
    grouped by ascending block count; within a group the restricted-growth
    enumeration order is kept.  k is at most kernels.DEFAULT_K_CAP.
    """
    k = as_int("set_partitions: k", k, 1)
    if k > kernels.DEFAULT_K_CAP:
        raise CapacityError(
            "set_partitions: k=%d exceeds cap %d" % (k, kernels.DEFAULT_K_CAP)
        )
    return tuple(sorted(_rgs_blocks(k), key=len))


def falling_factorial(x, p):
    """x (x-1) ... (x-p+1) of integers, an exact int; the empty product
    (p = 0) is 1."""
    x, p = as_int("falling_factorial: x", x), as_int("falling_factorial: p", p, 0)
    return math.prod(range(x - p + 1, x + 1))


def stirling2_row(k):
    """Stirling numbers of the second kind S(k, p) for p = 0..k, exact ints."""
    k = as_int("stirling2_row: k", k, 0)
    row = [1]
    for n in range(1, k + 1):  # S(n, p) = p S(n-1, p) + S(n-1, p-1)
        row = [0] + [p * row[p] + row[p - 1] for p in range(1, n)] + [1]
    return row


def bell_number(k):
    """Number of partitions of a k-element set, exact int."""
    return sum(stirling2_row(k))


def stirling_identity_residual(k, x):
    """|sum_p S(k,p) x(x-1)...(x-p+1) - x^k| for integer x and
    1 <= k <= kernels.DEFAULT_K_CAP, as a float.  The sum is exact integer
    arithmetic, so the residual is exactly 0."""
    k, x = as_int("stirling_identity_residual: k", k, 1), as_int("stirling_identity_residual: x", x)
    if k > kernels.DEFAULT_K_CAP:
        raise CapacityError("stirling_identity_residual: k=%d exceeds cap %d" % (k, kernels.DEFAULT_K_CAP))
    row = stirling2_row(k)
    total = sum(row[p] * falling_factorial(x, p) for p in range(1, k + 1))
    return float(abs(total - x**k))


def rho_superposed_sine(m, points):
    """k-point correlation of m superposed independent sine processes, each dilated by m.

    Evaluates the set-partition sum

        sum_{p=1}^{min(m,k)} sum_{partitions with p blocks}
            m(m-1)...(m-p+1) / m^k  *  prod_j rho_sine(points[block_j] / m)

    which tends to the Poisson constant 1 as m grows with the points fixed.
    """
    m = as_int("rho_superposed_sine: m", m, 1)
    pts = check_points("rho_superposed_sine", points)
    k = pts.size
    scaled = pts / m
    mk = m ** k  # exact int
    total = 0.0
    for blocks in set_partitions(k):
        p = len(blocks)
        if p > m:
            continue  # falling factorial vanishes
        weight = falling_factorial(m, p) / mk
        prod = 1.0
        for block in blocks:
            prod *= rho_sine(scaled[[i - 1 for i in block]])
        total += weight * prod
    return total


def rho_superposed_pair(m, delta):
    """Pair correlation 1 - q(delta/m)^2 / m of the m-fold superposition.

    Agrees with rho_superposed_sine(m, [0, delta]) and is the fixed-m
    limit curve of the rescaled tensor-product process.
    """
    m = as_int("rho_superposed_pair: m", m, 1)
    q = sine_q(np.asarray(delta, dtype=float) / m)
    return shaped_like(delta, 1.0 - q * q / m)
