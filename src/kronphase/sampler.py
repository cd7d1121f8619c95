"""Haar-distributed unitary matrices and their eigenphases.

Sampling is reproducible draw by draw: a draw is addressed by a 64-bit
(seed, stream_id) pair fed as the key of a counter-based Philox
generator, so stream construction is O(1) and independent of how many
other streams exist or in which order they are used.  Gaussians come
from Box-Muller on the uniform stream, which keeps the byte-level
output independent of any library's normal-variate algorithm.

Draws are made in blocks.  The uniforms of each draw still come from its
own stream, in the order a one-at-a-time loop would take them.  A block
builds one Philox generator and re-keys it to each sample's (seed,
stream_id) through the public state setter: Philox is counter-based, so
the key alone fixes the stream, and the bits are those of
RngStream.generator() without a new generator per sample.  One fill
takes all of a sample's uniforms.  The matrices are then stacked as
(B, n, n) and go through Box-Muller, QR, the phase fix and the
eigensolve as one numpy call each.  Every step works matrix by matrix
(elementwise maps, and LAPACK called once per matrix by numpy's stacked
linalg), so a draw's bytes do not depend on the block it was drawn in.
`sample_haar_unitary` and `eigenphases` on a single matrix are the
block-of-one case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .kernels import TWO_PI, as_int, reduce_phases

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

# The bytes block_length allows a block's largest factor stack, (B, n, n)
# complex, or its (B, P) rows; sample_haar_block's uniforms for all factors,
# 16 * sum(n^2) bytes per sample, may exceed it.  Large enough that numpy's
# per-call overhead is spread over many small matrices (64 draws of 16 x 16,
# 10 of 40 x 40), small enough that a block adds little to a run's memory.
BLOCK_BYTES = 1 << 18

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
            if not 0 <= as_int("RngStream: " + name, getattr(self, name)) < _U64:
                raise ValueError("RngStream: %s must be in [0, 2^64)" % name)

    def generator(self):
        """Fresh numpy Generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=_philox_key(self)))


def _philox_key(stream):
    """The two uint64 words of the Philox key of a stream: the 128-bit
    integer (seed << 64) | stream_id, least significant word first."""
    return np.array([stream.stream_id, stream.seed], dtype=np.uint64)


def _rekey(bitgen, stream):
    """Position a Philox bit generator at the start of stream, with the bits
    of a fresh one built from its key: counter 0, empty output buffer."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": _philox_key(stream)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def block_length(dims, points=0):
    """Samples per block, at least one: as many as fit in BLOCK_BYTES in the
    (B, n, n) complex matrices of the largest factor in dims or in the
    (B, points) float64 rows.  A run's sampler blocks pass dims and P; its
    estimator blocks pass no dims and 4P, the Accumulator's triple-window
    bounds per row.  The block's uniforms, which sample_haar_block draws
    for every factor in one (B, sum(2 n^2)) array, are not bounded: with
    more than one factor they can exceed BLOCK_BYTES, 1.97 times at 24 x 24."""
    per_sample = max(16 * max((int(n) for n in dims), default=0) ** 2, 8 * int(points))
    return max(1, BLOCK_BYTES // per_sample)


def _complex_ginibre(u1, u2, n):
    # Box-Muller: two uniforms -> radius/angle -> one standard complex
    # Gaussian per entry (real and imaginary parts N(0, 1/2)).  Each plane
    # is scaled by r and by 1/sqrt(2) in place, the bits of
    # r * (cos + 1j sin) / sqrt(2), which numpy divides as a product by
    # 1/sqrt(2).
    r = np.subtract(1.0, u1)  # (0, 1], keeps the log finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    angle = TWO_PI * u2
    z = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=z.real)
    np.sin(angle, out=z.imag)
    for plane in (z.real, z.imag):
        plane *= r
        plane *= 1.0 / np.sqrt(2.0)
    if not r.all():
        # u1 = 0 gives r = -0, where numpy's complex product and quotient
        # give +0 real parts and a -0 imaginary part only where cos < 0 < sin.
        zero = r == 0
        a = angle[zero]
        z[zero] = np.where((np.cos(a) < 0) & (np.sin(a) > 0), complex(0.0, -0.0), 0j)
    return z.reshape(-1, n, n)


def sample_haar_block(dims, gens):
    """Haar draws for a block of samples: one (len(gens), n, n) stack per n in dims.

    Sample b takes one matrix of each size in dims, in that order, from
    gens[b], exactly as a loop of sample_haar_unitary calls on gens[b]
    would.  An RngStream entry draws from one Philox generator of the
    call, re-keyed to that stream, with the bits of its generator().  A
    Generator entry may appear more than once; it then supplies
    consecutive draws.
    """
    dims = [as_int("sample_haar_unitary: n", n, 1) for n in dims]
    for n in dims:
        if n > DEFAULT_MAX_DIM:
            raise CapacityError("sample_haar_unitary: n=%d exceeds max %d" % (n, DEFAULT_MAX_DIM))
    gens = list(gens)
    if not all(isinstance(g, (RngStream, np.random.Generator)) for g in gens):
        raise ValueError("rng must be an RngStream or numpy Generator")
    # per sample: u1 then u2 of each factor, in dims order
    uniforms = np.empty((len(gens), sum(2 * n * n for n in dims)))
    keyed = None
    for row, gen in zip(uniforms, gens):
        if isinstance(gen, RngStream):
            if keyed is None:  # its seed is replaced by every re-key
                keyed = np.random.Generator(np.random.Philox(0))
            _rekey(keyed.bit_generator, gen)
            gen = keyed
        gen.random(out=row)
    stacks, start = [], 0
    for n in dims:
        u1, u2 = uniforms[:, start : start + n * n], uniforms[:, start + n * n : start + 2 * n * n]
        stacks.append(_haar_from_ginibre(_complex_ginibre(u1, u2, n)))
        start += 2 * n * n
    return stacks


def _haar_from_ginibre(z):
    """QR of each Ginibre matrix, with each column of Q rescaled by the unit
    phase of the matching diagonal entry of R.  Without that phase
    correction the law is not Haar (the moment tests reject it), so the
    correction is not optional."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def sample_haar_unitary(n, rng):
    """Draw one n x n unitary from the Haar measure on U(n).

    QR factorization of a complex Ginibre matrix with the phase fix of
    Mezzadri (2007); the block-of-one case of sample_haar_block.
    """
    return sample_haar_block([n], [rng])[0][0]


def _phases_general(u):
    """Eigenphases in (-pi, pi] from the general complex eigensolver."""
    return np.angle(np.linalg.eigvals(u))


def _phases_cayley(u):
    """Eigenphases in (-pi, pi) of a (B, n, n) stack through the Cayley transform.

    H = i (I + U)^{-1} (I - U) is Hermitian for unitary U and has the
    eigenvalue tan(theta/2) for each eigenphase theta.  A row is NaN where
    the guard tripped (an eigenvalue of that U is near -1).  Raises
    LinAlgError when I + U is singular for some matrix of the stack.
    """
    eye = np.eye(u.shape[-1])
    k = np.linalg.solve(eye + u, eye - u)
    # 1/2 (H + H*) with H = i K: exactly Hermitian, as eigvalsh assumes.
    lam = np.linalg.eigvalsh(0.5j * (k - k.conj().swapaxes(-1, -2)))
    # written so that a NaN also trips the guard
    ok = np.max(np.abs(lam), axis=-1) <= CAYLEY_MAX_ABS
    ang = 2.0 * np.arctan(lam)
    ang[~ok] = np.nan
    return ang


def _phases_stack(u):
    """Unsorted eigenphases of a (B, n, n) stack, one row per matrix.

    The fallback to eigvals is decided matrix by matrix.  When the
    stacked solve fails, each matrix is redone as a block of one.
    """
    try:
        ang = _phases_cayley(u)
    except np.linalg.LinAlgError:
        if len(u) == 1:
            return _phases_general(u[0])[None]
        return np.concatenate([_phases_stack(u[i : i + 1]) for i in range(len(u))])
    for i in np.flatnonzero(np.isnan(ang).any(axis=-1)):
        ang[i] = _phases_general(u[i])
    return ang


def _unitarity_residual(u):
    """max|U U* - I| over a (..., n, n) stack, 0 if empty, with I subtracted
    in place on the diagonal of U U* (off the diagonal, x - 0 is x)."""
    gram = u @ u.conj().swapaxes(-1, -2)
    gram = gram.astype(np.result_type(gram, 1.0), copy=False)  # bool and int stacks
    diag = np.arange(u.shape[-1])
    gram[..., diag, diag] -= 1
    return np.max(np.abs(gram), initial=0.0)


def eigenphases(u):
    """Sorted eigenphases in [0, 2pi) of a unitary matrix or a (..., n, n) stack.

    A stack gives one sorted row of n phases per matrix, and each row
    equals eigenphases of that matrix alone, bit for bit.  Rejects input
    whose unitarity residual max|U U* - I| exceeds UNITARITY_TOL for any
    matrix.

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
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError("eigenphases: input must be a square matrix or a stack of them")
    n = u.shape[-1]
    resid = _unitarity_residual(u)
    if resid > UNITARITY_TOL:
        raise ValueError(
            "eigenphases: unitarity residual %.3e exceeds tolerance %.3e" % (resid, UNITARITY_TOL)
        )
    ang = reduce_phases(_phases_stack(u.reshape(-1, n, n)))
    ang.sort(axis=-1)
    return ang.reshape(u.shape[:-1])
