"""Golden output bytes for small runs.

Each case pins the SHA-256 of `pair_correlation.csv` and
`count_variance.csv` and of the manifest summary (as JSON with sorted
keys) of one `run_experiment` call, and of `phases.csv` from
`kronphase sample`, with and without `--window`.  MANIFESTS pins the whole manifest of each run, as
JSON with sorted keys and without its two timestamps, so that the
recorded config and stream layout cannot drift either.  A refactor of
the sampler, the tensor step or the estimators must leave all of them
unchanged, or say why they moved.

The digests were recorded with Python 3.11.7 and numpy 2.4.6 on
OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH, Haswell kernels).
LAPACK results can differ in the last bits under another BLAS build or
CPU kernel, so on a different stack a mismatch here is a prompt to
compare against that stack's parent commit, not proof of a regression.
"""

import hashlib
import json

import pytest

from kronphase import cli
from kronphase.config import ExperimentConfig
from kronphase.runner import run_experiment

RUNS = {
    "single-12": (
        dict(mode="single", dims=(12,), n_samples=300, seed=71, k_analytic=3),
        "d5ab39ae02ad4002d7ce123daa7be203ff6b91389bdbd634ff2a5efeb697cb2d",
        "65388bb1031a215f53a1f6723cc167936b3b1af36df2c9df00d5af0bc4da1471",
        "40b75a8783fe27fcdc98374941e9e0279cfb74f30ff0d0c6a7a224594cd58121",
    ),
    "pair-2x12": (
        dict(mode="pair", dims=(2, 12), n_samples=200, seed=72, k_analytic=3),
        "3383e5bb04958ca60992e685acb58da20692f1acd03ab88945bf8d92b350fcf8",
        "7f0718a6c957499a7105d9c5048b22f6b60961320713bd4e45a72f436bfcce30",
        "c82b1c085c6ce788cbb5b490497d612126aad946466ad252d4497f6561e5657e",
    ),
    "triple-2x4x4": (
        dict(mode="triple", dims=(2, 4, 4), n_samples=150, seed=73, k_analytic=3),
        "f45992834fc3bde88eb8f7be0b238b5d23d94c6cb7b1231feb5970c191bc405e",
        "a02becfc962a64f9fb0038dc1474740c808a224cac3d960382060be5dc7ea6bc",
        "87211b4b7f39764b6eae962f464531fe9dbac383cc2ed81b748cdadb5ae6b1d2",
    ),
}

# RUNS case -> SHA-256 of manifest.to_dict() without started_utc/finished_utc.
MANIFESTS = {
    "single-12": "7b1398549631382d9d4d1687f7a3d95b73f0018d97fe221c5e46d982ea3df64d",
    "pair-2x12": "9768bf9b8668da5233f6819035a00634f19fc814d28e243108aae71230ef5a31",
    "triple-2x4x4": "2b217d0781b98d4a3573ae54567299c0f6bc913e14fafcf26acc29bdebc78976",
}

SAMPLES = {
    "single": ("12", "b55295663d920fd5d5081fe0c3aa1b99711d2b2740a8d125196d60d927725a22"),
    "pair": ("2,12", "de80120db8a5687ebdb515ed282202f61e81176cabaf87bf85cf215560594bef"),
    "triple": ("2,4,4", "ee53dbb2845fe5f9c0d165331c69d87638a97daeb1f1e2aedfa8f8b9731f3eb7"),
}

# mode -> (dims, SHA-256 of phases.csv from `kronphase sample --window 3.5`)
WINDOW_SAMPLES = {
    "pair": ("2,12", "d4cdca8b4ce71e2dfee8dabf93b672959274983908ed859836a583b98471f4bb"),
    "triple": ("2,4,4", "12a22d1f63629d243b1bd58fddf19903be4b1937f654d00059e79f26b78afdda"),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_experiment_bytes(name, tmp_path):
    kwargs, pair_sha, counts_sha, summary_sha = RUNS[name]
    _, manifest = run_experiment(ExperimentConfig(**kwargs), out_dir=str(tmp_path))
    assert sha256((tmp_path / "pair_correlation.csv").read_bytes()) == pair_sha
    assert sha256((tmp_path / "count_variance.csv").read_bytes()) == counts_sha
    assert sha256(json.dumps(manifest.summary, sort_keys=True).encode()) == summary_sha


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_manifest_bytes(name, tmp_path):
    _, manifest = run_experiment(ExperimentConfig(**RUNS[name][0]), out_dir=str(tmp_path))
    record = manifest.to_dict()
    del record["started_utc"], record["finished_utc"]
    assert sha256(json.dumps(record, sort_keys=True).encode()) == MANIFESTS[name]


@pytest.mark.parametrize("mode", sorted(SAMPLES))
def test_sample_command_bytes(mode, tmp_path, capsys):
    dims, phases_sha = SAMPLES[mode]
    argv = ["sample", "--mode", mode, "--dims", dims, "--samples", "40", "--seed", "74"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "phases.csv").read_bytes()) == phases_sha


@pytest.mark.parametrize("mode", sorted(WINDOW_SAMPLES))
def test_sample_window_command_bytes(mode, tmp_path, capsys):
    dims, phases_sha = WINDOW_SAMPLES[mode]
    argv = ["sample", "--mode", mode, "--dims", dims, "--samples", "40", "--seed", "74", "--window", "3.5"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "phases.csv").read_bytes()) == phases_sha
