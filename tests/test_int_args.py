"""Every size argument of the library goes through kernels.as_int: Python
and numpy integers are accepted, bools and non-integer numbers (2.5, and
also 2.0) raise ValueError rather than being truncated."""

import os
import re

import numpy as np
import pytest

from kronphase.acceptance import poisson_configs, run_criteria, thin_spacings
from kronphase.combinatorics import (
    bell_number,
    falling_factorial,
    rho_superposed_pair,
    rho_superposed_sine,
    set_partitions,
    stirling2_row,
    stirling_identity_residual,
)
from kronphase.config import ExperimentConfig
from kronphase.estimators import (
    Accumulator,
    estimate_pair_correlation,
    interval_counts,
    spacing_histogram_from_gaps,
)
from kronphase.errors import CapacityError
from kronphase.gof import chi_square_uniformity
from kronphase.kernels import as_int, cue_s, hadamard_bound, rho_cue, rho_sine
from kronphase.processes import RescaledConfig, rescale_center, rescale_points
from kronphase.runner import (
    emit_reference_curve,
    run_convergence_sweep,
    sample_phase_block,
)
from kronphase.sampler import RngStream, sample_factor_phases

CFG = dict(mode="pair", dims=(2, 20), n_samples=10, seed=1)
CIRCLE = RescaledConfig(np.linspace(-2.0, 1.5, 8), 8.0)
GAPS = np.ones((2, 100))


def _config(**kw):
    return ExperimentConfig(**{**CFG, **kw})


def _spacing_hist():
    return spacing_histogram_from_gaps(GAPS, n_bins=4)


def _pair_slice(indices):
    return estimate_pair_correlation([CIRCLE] * len(indices), 2.0, 4, sample_indices=indices, n_samples_total=2)


# (site, callable of the size argument, a valid value of it)
SITES = [
    ("cue_s n", lambda v: cue_s(v, 0.5), 3),
    ("rho_cue n", lambda v: rho_cue(v, [0.0, 1.0]), 3),
    ("hadamard_bound k", lambda v: hadamard_bound(v, 4), 2),
    ("hadamard_bound n", lambda v: hadamard_bound(2, v), 4),
    ("set_partitions k", set_partitions, 3),
    ("falling_factorial x", lambda v: falling_factorial(v, 2), 5),
    ("falling_factorial p", lambda v: falling_factorial(5, v), 2),
    ("stirling2_row k", stirling2_row, 3),
    ("bell_number k", bell_number, 3),
    ("stirling_identity_residual k", lambda v: stirling_identity_residual(v, 2), 3),
    ("stirling_identity_residual x", lambda v: stirling_identity_residual(3, v), 2),
    ("rho_superposed_sine m", lambda v: rho_superposed_sine(v, [0.0, 1.0]), 2),
    ("rho_superposed_pair m", lambda v: rho_superposed_pair(v, 1.0), 2),
    ("Accumulator n_samples", lambda v: Accumulator(8.0, v), 2),
    ("Accumulator n_bins", lambda v: Accumulator(8.0, 2, pair=(2.0, v)), 4),
    ("Accumulator n_offsets", lambda v: Accumulator(8.0, 2, lengths=(1.0,), n_offsets=v), 4),
    ("Accumulator spacing_bins", lambda v: Accumulator(8.0, 2, spacing_bins=v), 4),
    ("add_block first_index", lambda v: Accumulator(8.0, 2).add_block(CIRCLE.points[None], v), 1),
    ("estimate_pair_correlation sample_indices", lambda v: _pair_slice([v]), 1),
    ("interval_counts n_offsets", lambda v: interval_counts(CIRCLE, (1.0,), n_offsets=v), 4),
    ("spacing_histogram_from_gaps n_bins", lambda v: spacing_histogram_from_gaps(GAPS, n_bins=v), 4),
    ("rescale_points factor_product", lambda v: rescale_points(np.linspace(0.1, 6.0, 4), v), 4),
    ("rescale_center factor_product", lambda v: rescale_center(np.linspace(0.1, 6.0, 4), v), 4),
    ("sample_factor_phases dims", lambda v: sample_factor_phases([2, v], 1, 1, 0, 1), 3),
    ("sample_factor_phases i", lambda v: sample_factor_phases([2, 3], v, 1, 0, 1), 1),
    ("sample_factor_phases seed", lambda v: sample_factor_phases([2], 0, v, 0, 1), 5),
    ("sample_factor_phases start", lambda v: sample_factor_phases([2], 0, 1, v, 2), 1),
    ("sample_factor_phases stop", lambda v: sample_factor_phases([2], 0, 1, 0, v), 3),
    ("RngStream seed", RngStream, 5),
    ("RngStream stream_id", lambda v: RngStream(5, v), 7),
    ("chi_square_uniformity n_bins", lambda v: chi_square_uniformity(np.linspace(0, 6, 200), v), 4),
    ("emit_reference_curve m", lambda v: emit_reference_curve("superposed_pair", [1.0], os.devnull, m=v), 2),
    ("sample_phase_block start", lambda v: sample_phase_block(_config(), v, 2), 1),
    ("sample_phase_block stop", lambda v: sample_phase_block(_config(), 1, v), 3),
    ("run_convergence_sweep n_values", lambda v: run_convergence_sweep(_config(dims=(2, 3), delta_max=1.0), [v]), 3),
    ("run_criteria ids", lambda v: run_criteria([v]), 7),
    ("poisson_configs n_samples", lambda v: poisson_configs(8.0, v, 0), 2),
    ("thin_spacings max_count", lambda v: thin_spacings(_spacing_hist(), v, 0), 150),
    ("ExperimentConfig dims", lambda v: _config(dims=(2, v)), 20),
    ("ExperimentConfig n_samples", lambda v: _config(n_samples=v), 10),
    ("ExperimentConfig seed", lambda v: _config(seed=v), 1),
    ("ExperimentConfig n_bins", lambda v: _config(n_bins=v), 8),
    ("ExperimentConfig workers", lambda v: _config(workers=v), 1),
    ("ExperimentConfig k_analytic", lambda v: _config(k_analytic=v), 2),
]
SITE_IDS = [site for site, _, _ in SITES]


@pytest.mark.parametrize("bad", [2.5, 2.0, True, False, np.float64(3.0)], ids=repr)
@pytest.mark.parametrize("site, fn, good", SITES, ids=SITE_IDS)
def test_non_integer_size_is_rejected(site, fn, good, bad):
    with pytest.raises(ValueError, match="must be an integer, got %s" % re.escape(repr(bad))):
        fn(bad)


@pytest.mark.parametrize("site, fn, good", SITES, ids=SITE_IDS)
def test_numpy_integer_size_is_accepted(site, fn, good):
    assert type(as_int(site, np.int64(good))) is int
    fn(np.int64(good))


def test_as_int_lower_bound():
    assert as_int("k", 1, 1) == 1
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        as_int("k", 0, 1)
    with pytest.raises(ValueError, match="hadamard_bound: n must be >= 1"):
        hadamard_bound(2, 0)
    with pytest.raises(ValueError, match="chi_square_uniformity: n_bins must be >= 2"):
        chi_square_uniformity(np.linspace(0, 6, 200), 1)


POINT_CHECKED = {
    "rho_sine": rho_sine,
    "rho_cue": lambda pts: rho_cue(12, pts),
    "rho_superposed_sine": lambda pts: rho_superposed_sine(2, pts),
}


@pytest.mark.parametrize("name", POINT_CHECKED)
def test_correlation_point_check(name):
    fn = POINT_CHECKED[name]
    # the three k-point correlations share one check, and its errors name the caller
    for bad in ([], [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="^%s: " % name):
            fn(bad)
    with pytest.raises(CapacityError, match="^%s: order 9 exceeds cap 8$" % name):
        fn(np.arange(9.0))


def test_fractional_sample_indices_are_not_truncated():
    with pytest.raises(ValueError, match=r"sample_indices must be an integer, got 0\.5"):
        _pair_slice([0.5, 1.7])
    with pytest.raises(ValueError, match=r"sample_indices must be an integer, got np\.float64\(0\.0\)"):
        _pair_slice(np.array([0.0, 1.0]))
    assert _pair_slice(np.arange(2)).n_samples == 2
