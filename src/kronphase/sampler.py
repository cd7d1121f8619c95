"""Haar-distributed unitary matrices and their eigenphases.

Sampling is reproducible draw by draw: a draw is addressed by a 64-bit
(seed, stream_id) pair fed as the key of a counter-based Philox
generator, so stream construction is O(1) and independent of how many
other streams exist or in which order they are used.  Gaussians come
from Box-Muller on the uniform stream, which keeps the byte-level
output independent of any library's normal-variate algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .kernels import TWO_PI

# QR of a dense complex Gaussian matrix is O(n^3); 512 keeps a single
# draw under ~0.1 s and no experiment here needs larger factors.
DEFAULT_MAX_DIM = 512

UNITARITY_TOL = 1e-8

# The Cayley eigenvalue of an eigenphase theta is tan(theta/2), and
# |1 + e^{i theta}| = 2 / sqrt(1 + tan(theta/2)^2).  eigvalsh has an
# absolute error of a few eps * max|lambda|, which reaches every phase
# (dtheta = 2 dlambda near lambda = 0): at max|lambda| = 2e3 (an
# eigenvalue of U within about 1e-3 of -1) the phases were within 1e-12
# of the exact ones, at 2e4 only within 1e-11.  Past this bound eigenphases
# falls back to eigvals.
CAYLEY_MAX_ABS = 2e3

_U64 = 1 << 64


@dataclass(frozen=True)
class RngStream:
    """Address of one reproducible random stream.

    (seed, stream_id) fully determines the stream; distinct stream_ids
    give statistically independent streams of the same seed.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError("RngStream: %s must be an integer" % name)
            if not 0 <= int(v) < _U64:
                raise ValueError("RngStream: %s must be in [0, 2^64)" % name)

    def generator(self):
        """Fresh numpy Generator positioned at the start of this stream."""
        key = (int(self.seed) << 64) | int(self.stream_id)
        return np.random.Generator(np.random.Philox(key=key))


def _as_generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ValueError("rng must be an RngStream or numpy Generator")


def _complex_ginibre(gen, n):
    # Box-Muller: two uniforms -> radius/angle -> one standard complex
    # Gaussian per entry (real and imaginary parts N(0, 1/2)).
    m = n * n
    u1 = 1.0 - gen.random(m)  # (0, 1], keeps the log finite
    u2 = gen.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = r * (np.cos(TWO_PI * u2) + 1j * np.sin(TWO_PI * u2))
    return (z / np.sqrt(2.0)).reshape(n, n)


def sample_haar_unitary(n, rng, max_dim=DEFAULT_MAX_DIM):
    """Draw one n x n unitary from the Haar measure on U(n).

    QR factorization of a complex Ginibre matrix, with each column of Q
    rescaled by the unit phase of the matching diagonal entry of R.
    Without that phase correction the law is not Haar (the moment tests
    reject it), so the correction is not optional.
    """
    n = int(n)
    if n < 1:
        raise ValueError("sample_haar_unitary: n must be >= 1")
    if n > max_dim:
        raise CapacityError("sample_haar_unitary: n=%d exceeds max %d" % (n, max_dim))
    gen = _as_generator(rng)
    z = _complex_ginibre(gen, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _phases_general(u):
    """Eigenphases in (-pi, pi] from the general complex eigensolver."""
    return np.angle(np.linalg.eigvals(u))


def _phases_cayley(u):
    """Eigenphases in (-pi, pi) through the Cayley transform, or None.

    H = i (I + U)^{-1} (I - U) is Hermitian for unitary U and has the
    eigenvalue tan(theta/2) for each eigenphase theta.  None means the
    guard tripped: I + U is singular, or an eigenvalue of U is near -1.
    """
    eye = np.eye(u.shape[0])
    try:
        k = np.linalg.solve(eye + u, eye - u)
    except np.linalg.LinAlgError:
        return None
    # 1/2 (H + H*) with H = i K: exactly Hermitian, as eigvalsh assumes.
    lam = np.linalg.eigvalsh(0.5j * (k - k.conj().T))
    # written so that a NaN also trips the guard
    if not np.max(np.abs(lam)) <= CAYLEY_MAX_ABS:
        return None
    return 2.0 * np.arctan(lam)


def eigenphases(u, tol=UNITARITY_TOL):
    """Sorted eigenphases in [0, 2pi) of a unitary matrix.

    Rejects input whose unitarity residual max|U U* - I| exceeds tol.

    The phases come from a Hermitian eigensolve: the Cayley transform
    H = i (I + U)^{-1} (I - U) (one linear solve), made exactly Hermitian
    as (H + H*)/2, then eigvalsh, and theta = 2 arctan(lambda).  That is
    2 to 3 times faster than the general complex eigvals at n = 16..40.
    H is ill-conditioned when an eigenvalue of U is near -1, so the
    general eigvals is used instead when the solve fails or when
    max|lambda| > CAYLEY_MAX_ABS = 2e3, i.e. when some eigenvalue of U
    is within about 1e-3 of -1.  A Haar draw of size n takes that
    fallback with probability about n * 1e-3 / pi, 1.3% at n = 40.
    Either way the phases agree with eigvals, and with the exact
    spectrum of a unitary built from known phases, to within about
    1e-12 in circular distance.
    """
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("eigenphases: input must be a square matrix")
    n = u.shape[0]
    resid = np.max(np.abs(u @ u.conj().T - np.eye(n)))
    if resid > tol:
        raise ValueError(
            "eigenphases: unitarity residual %.3e exceeds tolerance %.3e" % (resid, tol)
        )
    ang = _phases_cayley(u)
    if ang is None:
        ang = _phases_general(u)
    ang = np.mod(ang, TWO_PI)
    ang[ang >= TWO_PI] = 0.0
    ang.sort()
    return ang


def sample_cue_phases(n, rng, max_dim=DEFAULT_MAX_DIM):
    """Eigenphases of one Haar draw: a sample of the n-point circular process."""
    return eigenphases(sample_haar_unitary(n, rng, max_dim=max_dim))
