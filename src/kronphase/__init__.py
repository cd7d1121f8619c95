"""Eigenphase statistics of tensor products of random unitary matrices.

The package samples Haar-distributed unitaries, forms the phases of
their tensor products, rescales to unit intensity, and compares pair
correlations, nearest-neighbor spacings, and interval counts against
the analytic sine-kernel, superposition, and Poisson predictions.
"""

__version__ = "0.1.0"

from .errors import CapacityError
from .kernels import (
    cue_s,
    hadamard_bound,
    reduce_to_pi,
    rho_cue,
    rho_sine,
    sine_q,
)
from .combinatorics import (
    bell_number,
    falling_factorial,
    rho_superposed_pair,
    rho_superposed_sine,
    set_partitions,
    stirling2_row,
    stirling_identity_residual,
)
from .sampler import (
    RngStream,
    eigenphases,
    sample_haar_block,
    sample_haar_unitary,
)
from .processes import (
    circle_rows,
    reduce_phases,
    rescale_points,
    tensor_phases,
)
from .estimators import (
    Accumulator,
    CorrelationHistogram,
    EstimateBundle,
    SpacingHistogram,
)
from .gof import (
    CurveComparison,
    KsResult,
    chi_square_uniformity,
    compare_to_curve,
    ks_against_exponential,
)
from .config import ExperimentConfig, build_config, parse_config_file
from .runner import (
    RunManifest,
    emit_reference_curve,
    run_convergence_sweep,
    run_experiment,
    target_curve,
)

__all__ = [
    "Accumulator",
    "CapacityError",
    "CorrelationHistogram",
    "CurveComparison",
    "EstimateBundle",
    "ExperimentConfig",
    "KsResult",
    "RngStream",
    "RunManifest",
    "SpacingHistogram",
    "bell_number",
    "build_config",
    "chi_square_uniformity",
    "circle_rows",
    "compare_to_curve",
    "cue_s",
    "eigenphases",
    "emit_reference_curve",
    "falling_factorial",
    "hadamard_bound",
    "ks_against_exponential",
    "parse_config_file",
    "reduce_phases",
    "reduce_to_pi",
    "rescale_points",
    "rho_cue",
    "rho_sine",
    "rho_superposed_pair",
    "rho_superposed_sine",
    "run_convergence_sweep",
    "run_experiment",
    "sample_haar_block",
    "sample_haar_unitary",
    "set_partitions",
    "sine_q",
    "stirling2_row",
    "stirling_identity_residual",
    "target_curve",
    "tensor_phases",
    "__version__",
]
