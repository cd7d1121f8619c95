"""Experiment orchestration: sampling, estimation, persistence.

Reproducibility contract: sample index s always uses the random stream
(seed, stream_id = s).  sample_phase_block draws the samples, in index
order in one serial pass, so a run's results (and the CSV bytes written
from them) depend only on its configuration.

The pass hands blocks of consecutive samples (sample_blocks) to one
estimators.Accumulator, sized by sampler.BLOCK_BYTES at 32 bytes a point.
sample_phase_block asks the sampler for each factor's phases over the
whole block; the sampler draws a factor block_length([n]) samples at a
time (4,096 samples of 2 x 2 span an estimator block), which with
P < n^2 / 2 would send the estimators few rows at a time.  Every sample
still draws from its own stream, every sampling step works sample by
sample and every accumulated count is an exact integer, so the results
do not depend on either block size.  No per-sample object is built.
"""

from __future__ import annotations

import datetime as _dt
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, sampler
from .combinatorics import rho_superposed_pair, rho_superposed_sine
from .config import ExperimentConfig
from .estimators import DEFAULT_COUNT_OFFSETS, DEFAULT_TRIPLE_TOL, Accumulator
from .gof import KS_MIN_N, compare_to_curve, ks_against_exponential
from .kernels import as_int, rho_sine, shaped_like
from .output import write_csv, write_manifest
from .processes import rescale_points, tensor_phases
from .sampler import block_length, sample_factor_phases

STREAM_POLICY = "sample index s uses stream_id = s"

# Arc lengths for the count-variance observable; lengths beyond L/2 are
# dropped for small configurations.
COUNT_LENGTHS = (1.0, 2.0, 4.0)

# Gap configuration (0, r1, r2) probed when k_analytic >= 3.
TRIPLE_R1 = 1.0
TRIPLE_R2 = 2.0


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce and audit one run."""

    config: dict
    version: str
    started_utc: str
    finished_utc: str
    stream_policy: str
    worker_streams: tuple
    outputs: tuple
    summary: dict

    def to_dict(self):
        return asdict(self)


def _utc_now():
    return _dt.datetime.now(_dt.timezone.utc).replace(microsecond=0).isoformat()


def csv_preamble(cfg):
    """The `# key=value` lines above every CSV table of a run: its seed, its
    dims written MxN[xL] and its sample count."""
    return {
        "seed": cfg.seed,
        "dims": "x".join(str(d) for d in cfg.dims),
        "n_samples": cfg.n_samples,
    }


def sample_blocks(cfg):
    """(start, stop) index ranges that cover samples 0 .. n_samples - 1 in
    estimator blocks: the rows that fit in BLOCK_BYTES at 32 bytes a point
    (the 2x40 pair's measured 102), and at least block_length(dims, P)."""
    P = cfg.factor_product
    step = max(block_length(cfg.dims, P), sampler.BLOCK_BYTES // (32 * P))
    return [(s, min(s + step, cfg.n_samples)) for s in range(0, cfg.n_samples, step)]


def sample_phase_block(cfg, start, stop):
    """Sorted phases in [0, 2pi) of samples start .. stop - 1, one row each:
    the tensor sum of each factor's phases from sample_factor_phases, which
    checks the range and draws and solves one factor at a time.  An empty
    range gives (0, P).
    """
    return tensor_phases(*(sample_factor_phases(cfg.dims, i, cfg.seed, start, stop) for i in range(len(cfg.dims))))


def _accumulate_samples(cfg, **parts):
    """EstimateBundle of the given Accumulator parts over every sample of cfg,
    drawn block by block; add_block checks and sorts the rescaled rows."""
    P = cfg.factor_product
    acc = Accumulator(float(P), cfg.n_samples, **parts)
    for start, stop in sample_blocks(cfg):
        acc.add_block(rescale_points(sample_phase_block(cfg, start, stop), P), start)
    return acc.finalize()


# The limit law of each mode's rescaled process: one factor gives the sine
# process, U (x) V with an m x m first factor the superposition of m sine
# processes, and three factors the Poisson process.
MODE_LAWS = {"single": "sine_pair", "pair": "superposed", "triple": "poisson"}


def limit_law(kind, m):
    """(name, pair correlation at d, k-point correlation at pts) of a limit law.

    kind is a config curve: "sine_pair", "superposed" (m superposed sine
    processes, each dilated by m) or "poisson".  The pair correlation
    takes an array of distances, or a scalar, for which it gives a float.
    """
    if kind == "sine_pair":
        # the 1-fold superposition: its q * q rounds alike for a scalar and
        # an array, where a float's q ** 2 goes through the C library's pow
        return "sine_pair", lambda d: rho_superposed_pair(1, d), rho_sine
    if kind == "superposed":
        return (
            "superposed_pair(m=%d)" % m,
            lambda d: rho_superposed_pair(m, d),
            lambda pts: rho_superposed_sine(m, pts),
        )
    if kind == "poisson":
        return "poisson", lambda d: shaped_like(d, np.ones_like(d, dtype=float)), lambda pts: 1.0
    raise ValueError("unknown limit law %r" % (kind,))


def target_curve(cfg):
    """(name, callable) analytic pair-correlation target for a config."""
    return limit_law(MODE_LAWS[cfg.mode] if cfg.curve == "auto" else cfg.curve, cfg.dims[0])[:2]


def _check_run_config(cfg):  # before any sample is drawn or directory made
    if not isinstance(cfg, ExperimentConfig):
        raise ValueError("a run needs an ExperimentConfig, got %s" % type(cfg).__name__)
    if cfg.n_samples < 2:
        raise ValueError("n_samples must be >= 2: the error bars need 2 sample batches, got %d" % cfg.n_samples)


# The observables run_experiment can write, one CSV each.
EMIT_NAMES = ("pair", "spacings", "counts")


def run_experiment(cfg, out_dir=None, emit=EMIT_NAMES):
    """Run one Monte Carlo campaign; optionally persist results.

    Returns (EstimateBundle, RunManifest).  When out_dir is given, one
    CSV per observable named in emit, a collection of EMIT_NAMES, plus
    manifest.json are written there.
    """
    _check_run_config(cfg)
    if isinstance(emit, str) or not set(emit) <= set(EMIT_NAMES):
        raise ValueError("emit must be a collection of names from %s" % (EMIT_NAMES,))
    started = _utc_now()
    L = float(cfg.factor_product)
    lengths = tuple(ell for ell in COUNT_LENGTHS if ell <= L / 2)
    want_triple = cfg.k_analytic >= 3 and L >= 4 * (TRIPLE_R2 + DEFAULT_TRIPLE_TOL)

    bundle = _accumulate_samples(
        cfg,
        pair=(cfg.delta_max, cfg.n_bins),
        lengths=lengths,
        n_offsets=DEFAULT_COUNT_OFFSETS,
        triple=(TRIPLE_R1, TRIPLE_R2, DEFAULT_TRIPLE_TOL) if want_triple else None,
        spacing_bins=cfg.n_bins,
    )
    hist = bundle.pair
    spacings = bundle.spacings
    count_var = bundle.count_var

    curve_name, curve_fn = target_curve(cfg)
    comparison = compare_to_curve(hist, curve_fn)
    ks = ks_against_exponential(spacings) if spacings.n_spacings >= KS_MIN_N else None
    summary = {
        "intensity": bundle.intensity,
        "curve": curve_name,
        "pair_rms_dev": comparison.rms_dev,
        "pair_max_abs_dev": comparison.max_abs_dev,
        "pair_bins_over_4sigma": comparison.n_bins_over_4sigma,
        "count_variance": [[ell, var] for ell, var in count_var],
        "spacings_skipped": spacings.n_skipped,
    }
    if ks is not None:
        summary["ks_d"] = ks.d_statistic
        summary["ks_n"] = ks.n
        summary["ks_threshold_05"] = ks.threshold_05
        summary["ks_pass"] = ks.passed
    if want_triple:
        triple_law = limit_law(MODE_LAWS[cfg.mode], cfg.dims[0])[2]
        summary["triple_estimate"] = bundle.triple
        summary["triple_gaps"] = [TRIPLE_R1, TRIPLE_R2]
        summary["triple_tol"] = DEFAULT_TRIPLE_TOL
        summary["triple_target"] = float(triple_law([0.0, TRIPLE_R1, TRIPLE_R2]))

    outputs = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        preamble = csv_preamble(cfg)
        if "pair" in emit:
            mids = hist.bin_midpoints()
            columns = zip(mids, hist.estimate, hist.standard_errors(), curve_fn(mids), hist.counts)
            rows = [(float(d), float(e), float(se), float(f), float(c)) for d, e, se, f, c in columns]
            path = os.path.join(out_dir, "pair_correlation.csv")
            write_csv(
                path,
                preamble,
                ("delta", "estimate", "std_error", "target", "ordered_pair_count"),
                rows,
            )
            outputs.append("pair_correlation.csv")
        if "spacings" in emit:
            edges = spacings.bin_edges
            smids = 0.5 * (edges[:-1] + edges[1:])
            rows = [(float(s), float(dens), float(np.exp(-s))) for s, dens in zip(smids, spacings.density())]
            path = os.path.join(out_dir, "spacings.csv")
            write_csv(path, preamble, ("s", "density", "poisson_density"), rows)
            outputs.append("spacings.csv")
        if "counts" in emit and count_var:
            rows = [(ell, var, ell) for ell, var in count_var]
            path = os.path.join(out_dir, "count_variance.csv")
            write_csv(path, preamble, ("length", "variance", "poisson_variance"), rows)
            outputs.append("count_variance.csv")

    manifest = RunManifest(
        config=cfg.to_dict(),
        version=__version__,
        started_utc=started,
        finished_utc=_utc_now(),
        stream_policy=STREAM_POLICY,
        worker_streams=({"worker": 0, "first_stream_id": 0, "stride": 1, "count": cfg.n_samples},),
        outputs=tuple(outputs),
        summary=summary,
    )
    if out_dir is not None:
        write_manifest(os.path.join(out_dir, "manifest.json"), manifest.to_dict())
    return bundle, manifest


def run_convergence_sweep(cfg, n_values, out_dir=None):
    """Fixed first factor, growing second factor: rms vs the target curve.

    cfg must be in pair mode; its dims[1] is replaced by each value of
    n_values in turn, and only the pair histogram is accumulated and
    compared with target_curve, as in run_experiment.  One row dict per n.
    A refused size raises its error, of its type, as "n_values: n=<n>: ...".
    """
    _check_run_config(cfg)
    if cfg.mode != "pair":
        raise ValueError("convergence sweep needs a pair-mode config")
    n_values = [as_int("n_values", n) for n in n_values]
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly ascending")
    # every size's config is checked, caps included, before the first draw
    subs = []
    for n in n_values:
        try:
            subs.append(replace(cfg, dims=(cfg.dims[0], n)))
        except ValueError as exc:  # a CapacityError stays one
            raise type(exc)("n_values: n=%d: %s" % (n, exc)) from exc
    rows = []
    for sub in subs:
        hist = _accumulate_samples(sub, pair=(sub.delta_max, sub.n_bins)).pair
        comparison = compare_to_curve(hist, target_curve(sub)[1])
        rows.append(
            {
                "n": sub.dims[1],
                "rms_dev": comparison.rms_dev,
                "max_abs_dev": comparison.max_abs_dev,
                "n_samples": cfg.n_samples,
            }
        )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(
            os.path.join(out_dir, "sweep.csv"),
            {**csv_preamble(cfg), "dims": "%dxN" % cfg.dims[0]},
            ("n", "rms_dev", "max_abs_dev"),
            [(r["n"], r["rms_dev"], r["max_abs_dev"]) for r in rows],
        )
    return rows


REFERENCE_KINDS = ("sine_pair", "superposed_pair", "poisson")


def emit_reference_curve(kind, grid, path, m=None):
    """Write a two-column CSV (delta, rho) of an analytic pair curve."""
    if kind not in REFERENCE_KINDS:
        raise ValueError("kind must be one of %s" % (REFERENCE_KINDS,))
    if m is not None and kind != "superposed_pair":
        raise ValueError("%s takes no m" % kind)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly ascending")
    preamble = {"kind": kind}
    if kind == "superposed_pair":
        if m is None:
            raise ValueError("superposed_pair needs m >= 1")
        preamble["m"] = m = as_int("m", m, 1)
    rho = limit_law("superposed" if kind == "superposed_pair" else kind, m)[1](grid)
    write_csv(path, preamble, ("delta", "rho"), zip(grid.tolist(), rho.tolist()))
    return path
