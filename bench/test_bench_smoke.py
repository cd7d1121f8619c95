"""Smoke test of the benchmark at tiny sample counts.

Checks the result schema against BENCHMARK.json and that the
correctness checks reject wrong targets.  It does not check speed.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracle  # noqa: E402
from workloads import DELTA_MAX, N_BINS, WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(trace):
    spec = _spec()
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = _run("triple-2x16x16", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])


def test_checks_reject_wrong_targets():
    wl = WORKLOADS["pair-2x40"]
    assert _run(wl.name, 0)["correct"] is True
    out_dir = os.path.join(ROOT, ".bench_work", wl.name, "cmd0")
    pair, counts, _ = checks.read_outputs(out_dir)
    edges = np.linspace(0.0, DELTA_MAX, N_BINS + 1)
    n = wl.samples(smoke=True)

    assert checks.check_pair_curve(pair, edges, oracle.pair_correlation_bin_averages(wl.dims, edges), {}) == []
    # The Poisson constant and the exact curve of another size are wrong.
    assert checks.check_pair_curve(pair, edges, np.ones(N_BINS), {}) != []
    assert checks.check_pair_curve(pair, edges, oracle.pair_correlation_bin_averages((80,), edges), {}) != []

    assert checks.check_count_variance(counts, wl.dims, n, {}) == []
    assert checks.check_count_variance(counts, (80,), n, {}) != []


def test_oracle_single_factor_is_the_cue_kernel():
    # One factor of size n: rho2 = 1 - (sin(pi D) / (n sin(pi D / n)))^2.
    n = 12
    d = np.linspace(0.05, 5.95, 50)
    cue = 1.0 - (np.sin(np.pi * d) / (n * np.sin(np.pi * d / n))) ** 2
    assert np.allclose(oracle.pair_correlation((n,), d), cue, rtol=0, atol=1e-12)
    # A bin average of a smooth curve lies close to its midpoint value.
    edges = np.linspace(0.0, 4.0, 401)
    mids = 0.5 * (edges[:-1] + edges[1:])
    assert np.allclose(
        oracle.pair_correlation_bin_averages((2, 5), edges), oracle.pair_correlation((2, 5), mids), atol=1e-4
    )


def test_triple_brute_force_counts_a_known_configuration():
    # Circle of length 10; from base 0 the windows 1 +- 0.1 and 2 +- 0.1
    # hold one point each, and from base 9.0 they wrap to 0.0 and 1.0.
    pts = np.array([0.0, 1.0, 2.05, 5.0, 9.0])
    assert checks.triple_windows_brute(pts, 10.0, 1.0, 2.0, 0.2) == 2
