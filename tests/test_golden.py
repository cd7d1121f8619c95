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
CPU kernel, and so can numpy's float64 `tan`, from which Box-Muller takes
its angle (a vector loop whose last bits may change with the numpy
version or the CPU's SIMD level).  On a different stack a mismatch here
is a prompt to compare against that stack's parent commit, not proof of
a regression.
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
        "26f87180713b1a297c3038c5e32b6ae1ddee0a91af07d6df5361759c70975cb6",
    ),
    "pair-2x12": (
        dict(mode="pair", dims=(2, 12), n_samples=200, seed=72, k_analytic=3),
        "3383e5bb04958ca60992e685acb58da20692f1acd03ab88945bf8d92b350fcf8",
        "7f0718a6c957499a7105d9c5048b22f6b60961320713bd4e45a72f436bfcce30",
        "38ed786cba4a749b84665f1e4dc648ea11f2a582eae37b05d87032cadcb6eb31",
    ),
    "triple-2x4x4": (
        dict(mode="triple", dims=(2, 4, 4), n_samples=150, seed=73, k_analytic=3),
        "f45992834fc3bde88eb8f7be0b238b5d23d94c6cb7b1231feb5970c191bc405e",
        "a02becfc962a64f9fb0038dc1474740c808a224cac3d960382060be5dc7ea6bc",
        "a6ae265e6fbc23c3ed9fa052d8432491df85ed971d77011e01296ebeadd1470a",
    ),
}

# RUNS case -> SHA-256 of manifest.to_dict() without started_utc/finished_utc.
MANIFESTS = {
    "single-12": "5cf504960e5f8060ef81486f20e00430002e349eebfa2f2180ed37cbf2949781",
    "pair-2x12": "3b0b55d21dde7b7f8aae50fa7099a1b568e1cafd266c3b11c30a3109ce3a003b",
    "triple-2x4x4": "4ca670fc6ade64d04d1a96a8c3a30708ed7e5a61a48c794426eabc15cc475a90",
}

SAMPLES = {
    "single": ("12", "981dd9c3b8843d1e096fb5efe731f47b3eb7aa917e5406b4669f6ecac24a9329"),
    "pair": ("2,12", "b58b237bce7594151571f71fcd58d82a29b5847c399791af082280296af70dd4"),
    "triple": ("2,4,4", "76cda8c0ae4a03bb2d3716bbbce4dfc487fdead9f1c3b367b62236a6527a65a9"),
}

# mode -> (dims, SHA-256 of phases.csv from `kronphase sample --window 3.5`)
WINDOW_SAMPLES = {
    "pair": ("2,12", "4b9f1dd00c3b1e2bd137737e99c8938339c9248c065cf4d02ce520d12187b24d"),
    "triple": ("2,4,4", "0806e9dc5d5f5ffcac285a6de465991a2aba920d5d3a23876cac6202925b6858"),
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
