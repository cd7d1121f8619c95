"""The benchmark's traced pipeline and the library agree.

`bench/tracing.py` rebuilds a `correlate` command from the public
per-configuration estimators (`estimate_pair_correlation` with
`sample_indices`, `merge`, `circular_gaps`, `interval_counts`,
`triple_window_count`, `spacing_histogram_from_gaps`).  Its traced runs
must write the same tables and summary as `run_experiment`, so these
checks keep the estimators' signatures and bytes in step with the
benchmark.  The benchmark files are only read here.
"""

import json

import pytest

from kronphase.config import ExperimentConfig
from kronphase.runner import run_experiment

from tracing import Tracer, traced_correlate

CASES = {
    "single-12": dict(mode="single", dims=(12,), n_samples=40, seed=31, k_analytic=3),
    "pair-2x12": dict(mode="pair", dims=(2, 12), n_samples=40, seed=32, k_analytic=3),
    "pair-2x12-w3": dict(mode="pair", dims=(2, 12), n_samples=40, seed=33, k_analytic=3, workers=3),
    "triple-2x4x4": dict(mode="triple", dims=(2, 4, 4), n_samples=30, seed=34, k_analytic=3),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_traced_run_matches_run_experiment(name, tmp_path):
    cfg = ExperimentConfig(delta_max=3.0, n_bins=12, **CASES[name])
    _, manifest = run_experiment(cfg, out_dir=str(tmp_path / "run"), emit=("pair", "counts"))
    summary, triples, kept = traced_correlate(cfg, str(tmp_path / "traced"), Tracer(), keep_configs=True)
    assert json.loads(json.dumps(summary)) == manifest.summary
    assert "triple_estimate" in summary
    assert len(kept) == cfg.n_samples and len(triples) == cfg.n_samples
    for table in ("pair_correlation.csv", "count_variance.csv"):
        assert (tmp_path / "traced" / table).read_bytes() == (tmp_path / "run" / table).read_bytes(), table
