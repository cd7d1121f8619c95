"""Haar-distributed unitary matrices and their eigenphases.

Sampling is reproducible draw by draw: a draw is addressed by a 64-bit
(seed, stream_id) pair fed as the key of a counter-based Philox
generator, so stream construction is O(1) and independent of how many
other streams exist or in which order they are used.  Gaussians come
from Box-Muller on the uniform stream, which keeps the byte-level
output independent of any library's normal-variate algorithm.  Its angle
2 pi u2 enters through the half-angle rule, t = tan(pi u2), since numpy's
float64 tan is a vector loop and its sin and cos are scalar ones.

Draws are made in blocks.  The uniforms of each draw still come from its
own stream, in the order a one-at-a-time loop would take them: factor i
of sample s starts at word W_i = sum(2 n_j^2 for j < i) of stream (seed, s).
sample_factor_phases draws factor i block_length([n]) samples at a time
with one Philox generator keyed with the seed, set to each stream id
through the public state setter: counter W_i // 4 places it at the four
words holding W_i (the first W_i % 4 dropped), with the bits of
RngStream.generator().  The (B, n, n) stack goes through Box-Muller, QR,
the phase fix and the eigensolve as one numpy call each, matrix by matrix,
so a draw's bytes do not depend on its block.
`sample_haar_unitary` and `eigenphases` on a single matrix are the
block-of-one case of the same code.

The eigensolve is _sorted_phases, `eigenphases` without the unitarity
check that guards its input: the unitarity of the sampler's own draws
is tested, not re-checked on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .kernels import as_int, reduce_phases

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
# complex, or its (B, P) rows.  Large enough that numpy's per-call overhead
# is spread over many small matrices (64 draws of 16 x 16, 10 of 40 x 40),
# small enough that a block adds little to a run's memory.
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
        """Fresh numpy Generator positioned at the start of this stream.  Its
        Philox key is the 128-bit integer (seed << 64) | stream_id, least
        significant word first."""
        return np.random.Generator(np.random.Philox(key=np.array([self.stream_id, self.seed], dtype=np.uint64)))


def _uniforms(seed, start, stop, width, word):
    """(stop - start, width) uniforms, row b words word .. word + width - 1
    of stream (seed, start + b): the one fill loop.  Its first word % 4
    draws fill columns the result drops."""
    skip = word % 4
    out = np.empty((stop - start, skip + width))
    gen, key = np.random.Generator(np.random.Philox(0)), [0, seed]  # its seed is replaced by every state set
    state = {"bit_generator": "Philox", "state": {"counter": [word // 4, 0, 0, 0], "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for stream_id, row in enumerate(out, start):
        key[0] = stream_id  # a list: the setter reads it 2.8x faster than an array
        gen.bit_generator.state = state
        gen.random(out=row)
    return out[:, skip:]


def block_length(dims, points=0):
    """Samples per sampler block, at least one: as many as fit in BLOCK_BYTES
    in the (B, n, n) complex matrices of the largest factor in dims (nonempty)
    or in the (B, points) float64 rows.  A factor's (B, 2 n^2) uniforms,
    from its own word of each sample's stream, take as much as its stack."""
    per_sample = max(16 * max(int(n) for n in dims) ** 2, 8 * int(points))
    return max(1, BLOCK_BYTES // per_sample)


def _complex_ginibre(u1, u2, n):
    # Box-Muller: two uniforms -> radius/angle -> one standard complex
    # Gaussian per entry (real and imaginary parts N(0, 1/2)).  cos and sin
    # of 2 pi u2 are (1 - t^2, 2t) / (1 + t^2) with t = tan(pi u2): numpy's
    # float64 tan is a vector loop, its sin and cos scalar ones ~8x slower.
    # fl(pi/2) < pi/2, so t stays finite (u2 = 1/2 gives t ~ 1.6e16).
    r = np.subtract(1.0, u1)  # (0, 1], keeps the log finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = np.multiply(np.pi, u2)
    np.tan(t, out=t)
    t2 = t * t
    r /= np.add(1.0, t2)
    r *= 1.0 / np.sqrt(2.0)
    z = np.empty(t.shape, dtype=complex)
    np.multiply(np.subtract(1.0, t2, out=t2), r, out=z.real)
    np.multiply(np.add(t, t, out=t), r, out=z.imag)
    return z.reshape(-1, n, n)


def _checked(name, dims):
    """dims as ints in [1, DEFAULT_MAX_DIM]."""
    dims = [as_int(name + ": n", n, 1) for n in dims]
    for n in dims:
        if n > DEFAULT_MAX_DIM:
            raise CapacityError("%s: n=%d exceeds max %d" % (name, n, DEFAULT_MAX_DIM))
    return dims


def _haar_from_uniforms(u, n):
    """(B, n, n) Haar stack from a (B, 2 n^2) uniform block, u1 then u2 of
    each row: QR of each Box-Muller Ginibre matrix, each column of Q scaled
    in place by the unit phase of the matching diagonal entry of R
    (Mezzadri 2007); without that phase fix the law is not Haar.  The
    uniforms are freed before the QR unless the caller holds them."""
    z = _complex_ginibre(u[:, : n * n], u[:, n * n :], n)
    u = None  # freed before the QR
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def sample_factor_phases(dims, i, seed, start, stop):
    """Sorted eigenphases of factor i of dims for samples start .. stop - 1
    of seed, a (stop - start, n) array: the draw of every command.  Sample s
    takes its uniforms from word sum(2 n_j^2 for j < i) of stream (seed, s),
    where a loop of sample_haar_unitary calls on its generator() would take
    them, and the factor is drawn and solved block_length([n]) samples at a
    time, so no block holds more than one (B, n, n) stack.  A failed
    eigensolve of a drawn stack is a RuntimeError naming factor and samples."""
    dims, i = _checked("sample_factor_phases", dims), as_int("sample_factor_phases: i", i, 0)
    if i >= len(dims):
        raise ValueError("sample_factor_phases: i must be in [0, %d), got %d" % (len(dims), i))
    seed, start, stop = (as_int("sample_factor_phases: " + k, v) for k, v in zip(("seed", "start", "stop"), (seed, start, stop)))
    if not 0 <= seed < _U64:
        raise ValueError("sample_factor_phases: seed must be in [0, 2^64)")
    if not 0 <= start <= stop <= _U64:
        raise ValueError("sample_factor_phases: need 0 <= start <= stop <= 2^64, got %d and %d" % (start, stop))
    n, word, step = dims[i], sum(2 * m * m for m in dims[:i]), block_length([dims[i]])
    out = np.empty((stop - start, n))
    for b in range(start, stop, step):  # the last slice stops at the last row
        try:
            out[b - start : b - start + step] = _sorted_phases(_haar_from_uniforms(_uniforms(seed, b, min(b + step, stop), 2 * n * n, word), n))
        except np.linalg.LinAlgError as exc:  # a ValueError, which would read as bad input
            raise RuntimeError("eigensolve of factor %d (n=%d), samples %d .. %d of seed %d failed: %s" % (i, n, b, min(b + step, stop) - 1, seed, exc)) from exc
    return out


def sample_haar_unitary(n, rng):
    """Draw one n x n unitary from the Haar measure on U(n).

    A numpy Generator gives its next 2 n^2 uniforms; an RngStream the first
    2 n^2 of its generator(), the words factor 0 of sample_factor_phases reads.
    """
    (n,) = _checked("sample_haar_unitary", [n])
    if isinstance(rng, RngStream):
        rng = rng.generator()
    if not isinstance(rng, np.random.Generator):
        raise ValueError("rng must be an RngStream or numpy Generator")
    return _haar_from_uniforms(rng.random((1, 2 * n * n)), n)[0]


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
    # eigvalsh sorts each row, so max|lambda| is at one of its ends; a NaN
    # end trips the guard, a NaN inside the row leaves a NaN angle
    ok = np.maximum(-lam[..., 0], lam[..., -1]) <= CAYLEY_MAX_ABS
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


def _sorted_phases(u):
    """Sorted eigenphases in [0, 2pi) of a (B, n, n) stack, one row per
    matrix, with no check of unitarity: the core of eigenphases, and the
    solve of sample_factor_phases, whose Haar draws are unitary by test."""
    ang = reduce_phases(_phases_stack(u))
    ang.sort(axis=-1)
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
    whose unitarity residual max|U U* - I| is not within UNITARITY_TOL for
    some matrix, which includes any inf or NaN entry.  The check guards
    this entry only: the command's draws go to the same core,
    _sorted_phases, unchecked, since their unitarity is tested instead.

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
    if u.ndim < 2 or u.shape[-1] != u.shape[-2] or u.shape[-1] == 0:
        raise ValueError("eigenphases: input must be a square matrix or a stack of them, n >= 1")
    n = u.shape[-1]
    resid = _unitarity_residual(u)
    if not resid <= UNITARITY_TOL:  # a NaN residual, from inf or NaN entries, fails it too
        raise ValueError(
            "eigenphases: unitarity residual %.3e is not within tolerance %.3e" % (resid, UNITARITY_TOL)
        )
    return _sorted_phases(u.reshape(-1, n, n)).reshape(u.shape[:-1])
