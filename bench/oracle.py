"""Exact finite-size law of the rescaled tensor-product eigenphase process.

This module is the benchmark's correctness oracle.  It imports nothing
from kronphase.  Everything follows from the second moments of Haar
traces, E|Tr U^r|^2 = min(r, n) for r >= 1 (Diaconis and Shahshahani
1994).  For W = U_1 x ... x U_k with independent factors of sizes
n_1..n_k, Tr W^r is the product of the factor traces, so

    E|Tr W^r|^2 = c(r) = prod_i min(r, n_i),

and c(r) = N = prod_i n_i once r >= max(n_i).  With the N eigenphases
rescaled to unit mean spacing on a circle of circumference N, the pair
correlation and the variance of the number of points in an arc of
length ell are finite cosine sums:

    rho2(D) = 1 - 1/N + (2/N^2) sum_{r=1}^{K-1} (c(r) - N) cos(w_r D)
    var(ell) = ell (1 - ell/N)
               + 2 sum_{r=1}^{K-1} (c(r) - N) sin^2(pi r ell/N) / (pi r)^2

with w_r = 2 pi r / N and K = max(n_i).

The pair-correlation estimator reports the average of rho2 over each
histogram bin, so the oracle integrates the cosines over the bin exactly
rather than evaluating rho2 at the bin midpoint.
"""

from __future__ import annotations

import math

import numpy as np


def _fourier_terms(dims):
    """(N, r, c(r) - N) for r = 1 .. max(dims) - 1."""
    dims = [int(n) for n in dims]
    if not dims or min(dims) < 1:
        raise ValueError("dims must be a nonempty list of positive sizes")
    N = math.prod(dims)
    r = np.arange(1, max(dims), dtype=float)
    c = np.ones_like(r)
    for n in dims:
        c *= np.minimum(r, n)
    return N, r, c - N


def pair_correlation(dims, delta):
    """Exact rho2 of the rescaled product process at gaps delta."""
    N, r, w = _fourier_terms(dims)
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    phase = np.outer(d, 2.0 * np.pi * r / N)
    return 1.0 - 1.0 / N + (2.0 / N**2) * (np.cos(phase) @ w)


def pair_correlation_bin_averages(dims, edges):
    """Exact average of rho2 over each bin [edges[i], edges[i+1]]."""
    N, r, w = _fourier_terms(dims)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    if np.any(b <= a):
        raise ValueError("bin edges must be strictly ascending")
    k = 2.0 * np.pi * r / N
    # mean of cos(k x) over [a, b] = (sin(k b) - sin(k a)) / (k (b - a))
    mean_cos = (np.sin(np.outer(b, k)) - np.sin(np.outer(a, k))) / (
        np.outer(b - a, k)
    )
    return 1.0 - 1.0 / N + (2.0 / N**2) * (mean_cos @ w)


def count_variance(dims, ell):
    """Exact variance of the number of points in an arc of length ell."""
    N, r, w = _fourier_terms(dims)
    ell = float(ell)
    return ell * (1.0 - ell / N) + 2.0 * float(
        np.sum(w * np.sin(np.pi * r * ell / N) ** 2 / (np.pi * r) ** 2)
    )
