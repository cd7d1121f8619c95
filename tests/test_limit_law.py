"""The limit laws of runner.limit_law and the bytes of everything that reads them.

REFCURVES pins the SHA-256 of the `refcurve` CSV of each kind on the
command's default grid, and CURVE_RUNS the run_experiment summary (as
JSON with sorted keys) of runs whose `curve` overrides their mode's own
law, each with the triple probe on.  Both were recorded while the pair
target, the triple target and the reference curves still had a formula
each, on the stack named in test_golden.py.
"""

import hashlib
import json

import numpy as np
import pytest

from kronphase.combinatorics import rho_superposed_pair, rho_superposed_sine
from kronphase.config import MODES, ExperimentConfig
from kronphase.kernels import rho_sine, sine_q
from kronphase.runner import emit_reference_curve, limit_law, run_experiment, target_curve

REFCURVES = {
    "sine_pair": (None, "58a95f22210f391a6def7c9db3571e4ab3c4b21461da352f20e87ad687457b2d"),
    "superposed": (3, "902914cf6796aa08adb10e4c2ff6f34a7be7f7e4a2d39845be23e498b3e74345"),
    "poisson": (None, "8d040f1b11580e40361e887a3bba07dc2fc53511f29f2ecbe05150a87910f23d"),
}

CURVE_RUNS = {
    "pair-sine_pair": (
        dict(mode="pair", dims=(2, 12), n_samples=200, seed=81, k_analytic=3, curve="sine_pair"),
        "ba0c228ff32b7e710b78c0d22b6ef1730cde3197b070819b7b959dd25b87ae25",
    ),
    "single-poisson": (
        dict(mode="single", dims=(12,), n_samples=300, seed=82, k_analytic=3, curve="poisson"),
        "295f766e71560150ee5cea65422665e914c21d150db7e125b9ba3b22dc0a203a",
    ),
    "single-superposed": (
        dict(mode="single", dims=(12,), n_samples=300, seed=83, k_analytic=3, curve="superposed"),
        "07e038965acf0ab5bdd6cfbd36631719e31e2fe850cd69acf5eacb7541adc3e1",
    ),
    "triple-superposed": (
        dict(mode="triple", dims=(2, 4, 4), n_samples=150, seed=84, k_analytic=3, curve="superposed"),
        "625ee5b397b2492a6af8d403aef41caada992aecfe08b65c22ec4300d12dc273",
    ),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind", sorted(REFCURVES))
def test_refcurve_bytes(kind, tmp_path):
    m, digest = REFCURVES[kind]
    path = tmp_path / "ref.csv"
    emit_reference_curve(kind, np.linspace(4.0 / 80, 4.0, 80), str(path), m=m)
    assert sha256(path.read_bytes()) == digest


@pytest.mark.parametrize("name", sorted(CURVE_RUNS))
def test_curve_override_summary_bytes(name):
    kwargs, digest = CURVE_RUNS[name]
    _, manifest = run_experiment(ExperimentConfig(**kwargs))
    assert sha256(json.dumps(manifest.summary, sort_keys=True).encode()) == digest


class TestLimitLaw:
    def test_sine(self):
        name, pair, kpoint = limit_law("sine_pair", 1)
        assert name == "sine_pair"
        for d in (0.0, 0.3, 1.7, 3.95):
            assert pair(d) == 1.0 - sine_q(d) ** 2
        grid = np.linspace(0.05, 4.0, 80)
        assert np.array_equal(pair(grid), 1.0 - sine_q(grid) ** 2)
        assert kpoint([0.0, 0.4, 1.1]) == rho_sine([0.0, 0.4, 1.1])

    def test_superposed(self):
        name, pair, kpoint = limit_law("superposed", 3)
        assert name == "superposed_pair(m=3)"
        assert pair(1.3) == rho_superposed_pair(3, 1.3)
        grid = np.linspace(0.05, 4.0, 80)
        assert np.array_equal(pair(grid), rho_superposed_pair(3, grid))
        assert kpoint([0.0, 1.0, 2.0]) == rho_superposed_sine(3, [0.0, 1.0, 2.0])

    def test_poisson(self):
        name, pair, kpoint = limit_law("poisson", 5)
        assert name == "poisson"
        assert float(pair(2.2)) == 1.0
        grid = np.linspace(0.05, 4.0, 7)
        assert isinstance(pair(grid), np.ndarray) and np.array_equal(pair(grid), np.ones(7))
        assert kpoint([0.0, 1.0, 2.0]) == 1.0

    @pytest.mark.parametrize("kind", ["sine_pair", "superposed", "poisson"])
    def test_pair_curve_gives_a_float_for_a_scalar(self, kind):
        pair = limit_law(kind, 3)[1]
        for d in (1.3, np.float64(1.3), np.array(1.3)):
            assert type(pair(d)) is float
        grid = np.array([0.3, 1.3, 2.2])
        out = pair(grid)
        assert isinstance(out, np.ndarray) and np.array_equal(out, [pair(d) for d in grid])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown limit law"):
            limit_law("superposed_pair", 2)

    def test_triple_target_follows_the_mode_not_the_curve(self):
        cfg = ExperimentConfig(mode="pair", dims=(3, 9), n_samples=20, seed=4, k_analytic=3, curve="poisson")
        assert target_curve(cfg)[0] == "poisson"
        _, manifest = run_experiment(cfg)
        assert manifest.summary["triple_target"] == limit_law(MODES["pair"].law, 3)[2]([0.0, 1.0, 2.0])
        assert manifest.summary["triple_target"] == rho_superposed_sine(3, [0.0, 1.0, 2.0])


class TestEmit:
    CFG = dict(mode="pair", dims=(2, 12), n_samples=20, seed=5)

    @pytest.mark.parametrize("emit", [("pairs",), ("pair", "count"), "pair", "counts"])
    def test_rejects_names_outside_the_outputs(self, emit, tmp_path):
        with pytest.raises(ValueError, match="emit must be"):
            run_experiment(ExperimentConfig(**self.CFG), out_dir=str(tmp_path), emit=emit)
        assert not any(tmp_path.iterdir())

    def test_writes_what_it_names(self, tmp_path):
        _, manifest = run_experiment(ExperimentConfig(**self.CFG), out_dir=str(tmp_path), emit=["spacings"])
        assert manifest.outputs == ("spacings.csv",)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "spacings.csv"]
        _, manifest = run_experiment(ExperimentConfig(**self.CFG), out_dir=str(tmp_path / "none"), emit=())
        assert manifest.outputs == ()
