import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import kronphase
from kronphase import cli
from kronphase.config import CONFIG_PARSERS, ExperimentConfig, build_config, parse_config_file
from kronphase.estimators import DEFAULT_TRIPLE_TOL, spacing_histogram_from_gaps
from kronphase.output import fmt_real, write_csv, write_manifest
from kronphase.processes import RescaledConfig, circle_rows, rescale_center, rescale_points, tensor_phases
from kronphase.runner import (
    COUNT_LENGTHS,
    TRIPLE_R1,
    TRIPLE_R2,
    emit_reference_curve,
    run_convergence_sweep,
    run_experiment,
    sample_blocks,
    target_curve,
    worker_ranges,
)
from kronphase import estimators, runner, sampler
from kronphase.sampler import RngStream, eigenphases, sample_haar_unitary
from test_estimators import (
    circular_gaps_reference,
    count_variance_reference,
    pair_gap_histogram_loop,
    triple_window_count_by_gaps,
)

PAIR_M2_AT_1 = 0.79735763271532445


def rescaled_rows(cfg, start, stop):
    """Samples start .. stop - 1 on their rescaled circle, checked and
    sorted, as the sample command writes them."""
    P = cfg.factor_product
    return circle_rows(rescale_points(runner.sample_phase_block(cfg, start, stop), P), P)


def run_cli(*args):
    # the command imports the kronphase that the tests import
    src = os.path.dirname(os.path.dirname(os.path.abspath(kronphase.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-m", "kronphase", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_public_names_are_unique_and_resolve():
    assert len(set(kronphase.__all__)) == len(kronphase.__all__)
    namespace = {}
    exec("from kronphase import *", namespace)  # a stale name raises AttributeError
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(kronphase.__all__)


class TestExperimentConfig:
    def test_valid(self):
        cfg = ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1)
        assert cfg.factor_product == 40
        assert cfg.curve == "auto"
        assert cfg.to_dict()["dims"] == [2, 20]

    def test_mode_dims_arity(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="single", dims=(2, 3), n_samples=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="triple", dims=(2, 3), n_samples=1, seed=0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1, delta_max=21.0)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1, n_bins=3)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1, workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1, k_analytic=9)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1, curve="bogus")
        with pytest.raises(ValueError):
            ExperimentConfig(mode="single", dims=(1,), n_samples=10, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(
                mode="pair", dims=(2, 20), n_samples=10, seed=1, window_half_width=30.0
            )
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1 << 64)
        # numbers that are not integers: see the ExperimentConfig rows of test_int_args.SITES

    @pytest.mark.parametrize("key", ["delta_max", "window_half_width"])
    @pytest.mark.parametrize("flag", [True, np.True_], ids=repr)
    def test_float_settings_refuse_bools(self, key, flag):
        # float() would store True as 1.0, a valid delta_max and window
        with pytest.raises(ValueError, match=r"%s must be a number, got (np\.)?True" % key):
            ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1, **{key: flag})

    def test_stored_types(self):
        # numpy numbers are stored as the plain types the manifest records
        cfg = ExperimentConfig(
            mode="pair", dims=np.array([2, 20]), n_samples=np.int64(10), seed=np.uint64(1 << 63),
            delta_max=np.float32(3.5), n_bins=np.int32(8), window_half_width=3, k_analytic=np.int8(3),
        )
        assert cfg.dims == (2, 20) and cfg.seed == 1 << 63
        for key, kind in (("n_samples", int), ("seed", int), ("delta_max", float), ("n_bins", int),
                          ("window_half_width", float), ("workers", int), ("k_analytic", int)):
            assert type(getattr(cfg, key)) is kind, key
        assert all(type(d) is int for d in cfg.dims)
        assert cfg.to_dict()["window_half_width"] == 3.0

    def test_k_analytic_reads_the_correlation_order_cap(self, monkeypatch, capsys):
        with pytest.raises(ValueError, match=r"k_analytic must lie in \[1, 8\]"):
            ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1, k_analytic=9)
        monkeypatch.setattr(kronphase.kernels, "DEFAULT_K_CAP", 4)
        ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1, k_analytic=4)
        with pytest.raises(ValueError, match=r"k_analytic must lie in \[1, 4\]"):
            ExperimentConfig(mode="pair", dims=(2, 20), n_samples=10, seed=1, k_analytic=5)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["correlate", "--help"])
        assert "(<= 4)" in " ".join(capsys.readouterr().out.split())

    def test_frozen(self):
        cfg = ExperimentConfig(mode="single", dims=(30,), n_samples=1, seed=0)
        with pytest.raises(AttributeError):
            cfg.seed = 5


class TestConfigFile:
    def test_parse_and_merge(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# comment line\n"
            "mode = pair\n"
            "dims = 2, 20\n"
            "n_samples = 5   # trailing comment\n"
            "seed = 7\n"
            "\n"
            "delta_max = 3.5\n"
        )
        vals = parse_config_file(str(p))
        assert vals == {
            "mode": "pair",
            "dims": (2, 20),
            "n_samples": 5,
            "seed": 7,
            "delta_max": 3.5,
        }
        cfg = build_config(vals, {"n_samples": 9, "seed": None})
        assert cfg.n_samples == 9  # override wins
        assert cfg.seed == 7  # None override falls through
        assert cfg.delta_max == 3.5

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mode = pair\nn_sample = 5\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(str(p))

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_file(str(p))

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just words\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(str(p))

    def test_bad_value(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n_samples = many\n")
        with pytest.raises(ValueError, match="bad value"):
            parse_config_file(str(p))
        p.write_text("mode = pair\ndims = 2, x\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2: bad value for dims"):
            parse_config_file(str(p))

    def test_missing_required(self):
        with pytest.raises(ValueError, match="missing required"):
            build_config({}, {"mode": "pair", "dims": (2, 20)})


class TestOutput:
    def test_csv_format(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(
            path,
            {"seed": 3, "dims": "2x20"},
            ("a", "b"),
            [(0.1, 1), (1.0 / 3.0, True)],
        )
        raw = open(path, "rb").read()
        assert b"\r" not in raw
        lines = raw.decode().split("\n")
        assert lines[0] == "# seed=3"
        assert lines[1] == "# dims=2x20"
        assert lines[2] == "a,b"
        assert lines[3].split(",")[0] == "0.10000000000000001"
        assert lines[4] == "0.33333333333333331,true"

    def test_fmt_real_round_trips(self):
        for x in (0.1, 1 / 3, 1e-17, 123456.789, np.pi, 2.0**52 + 0.5):
            assert float(fmt_real(x)) == x

    def test_manifest_sorted_keys(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_manifest(path, {"zeta": 1, "alpha": {"b": 2, "a": 3}})
        text = open(path).read()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert json.loads(text) == {"zeta": 1, "alpha": {"b": 2, "a": 3}}

    def test_manifest_type_error(self, tmp_path):
        with pytest.raises(ValueError, match="serializable"):
            write_manifest(str(tmp_path / "m.json"), {"x": {1, 2}})

    def test_csv_io_error(self):
        with pytest.raises(OSError, match="no/such"):
            write_csv("/no/such/dir/t.csv", {}, ("a",), [(1,)])


class TestRunner:
    def test_stream_policy(self):
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=4, seed=9)
        row = rescaled_rows(cfg, 3, 4)[0]
        gen = RngStream(9, 3).generator()
        a = eigenphases(sample_haar_unitary(2, gen))
        b = eigenphases(sample_haar_unitary(12, gen))
        expect = rescale_center(tensor_phases(a, b), 24)
        assert np.array_equal(row, expect.points)

    def test_target_curve_auto(self):
        single = ExperimentConfig(mode="single", dims=(30,), n_samples=1, seed=0)
        pair = ExperimentConfig(mode="pair", dims=(3, 9), n_samples=1, seed=0)
        triple = ExperimentConfig(mode="triple", dims=(2, 4, 4), n_samples=1, seed=0)
        assert target_curve(single)[0] == "sine_pair"
        name, fn = target_curve(pair)
        assert name == "superposed_pair(m=3)"
        assert fn(1.0) == pytest.approx(1.0 - np.sinc(1 / 3) ** 2 / 3)
        assert target_curve(triple)[0] == "poisson"
        forced = ExperimentConfig(mode="pair", dims=(3, 9), n_samples=1, seed=0, curve="poisson")
        assert target_curve(forced)[0] == "poisson"
        assert target_curve(forced)[1](2.2) == 1.0

    @pytest.mark.parametrize("kind, m", [("sine_pair", None), ("superposed", 1), ("superposed", 3), ("poisson", None)])
    def test_limit_laws_round_alike_for_a_scalar_and_an_array(self, kind, m):
        # compare_to_curve and the pair CSV evaluate the target on the array
        # of midpoints; 0.32265625, a midpoint of 64 bins on (0, 0.7], is
        # where a float's q ** 2 (the C library's pow) can differ from q * q
        edges = np.linspace(0.0, 0.7, 65)
        mids = 0.5 * (edges[:-1] + edges[1:])
        assert 0.32265625 in mids
        fn = runner.limit_law(kind, m)[1]
        assert np.array_equal([float(fn(d)) for d in mids], fn(mids))

    def test_run_experiment_basics(self):
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=60, seed=5, n_bins=8, delta_max=3.0)
        bundle, manifest = run_experiment(cfg)
        assert bundle.intensity == 1.0
        assert bundle.pair.n_samples == 60
        assert bundle.spacings.n_spacings == 60 * 24
        assert [ell for ell, _ in bundle.count_var] == [1.0, 2.0, 4.0]
        assert manifest.config["dims"] == [2, 12]
        assert manifest.version == kronphase.__version__
        assert manifest.stream_policy == "sample index s uses stream_id = s"
        assert manifest.summary["intensity"] == 1.0
        assert "ks_d" in manifest.summary

    def test_worker_invariance_in_memory(self):
        base = dict(mode="pair", dims=(2, 12), n_samples=30, seed=41, n_bins=8, delta_max=3.0)
        b1, _ = run_experiment(ExperimentConfig(workers=1, **base))
        b3, _ = run_experiment(ExperimentConfig(workers=3, **base))
        assert np.array_equal(b1.pair.counts, b3.pair.counts)
        assert np.array_equal(b1.pair.batch_counts, b3.pair.batch_counts)
        assert np.array_equal(b1.pair.estimate, b3.pair.estimate)
        assert np.array_equal(b1.spacings.spacings, b3.spacings.spacings)
        assert b1.count_var == b3.count_var
        assert b1.intensity == b3.intensity

    def test_blocks_cover_samples_in_order(self, monkeypatch):
        cfg = ExperimentConfig(mode="triple", dims=(2, 16, 16), n_samples=150, seed=1)
        assert sample_blocks(cfg) == [(0, 64), (64, 128), (128, 150)]
        # 80 points a row: 2^18 // (32 * 80) rows, not the 10 samples of 40 x 40 matrices
        pair = ExperimentConfig(mode="pair", dims=(2, 40), n_samples=250, seed=1)
        assert sample_blocks(pair) == [(0, 102), (102, 204), (204, 250)]
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 1)
        assert sample_blocks(cfg) == [(s, s + 1) for s in range(150)]
        assert sample_blocks(pair) == [(s, s + 1) for s in range(250)]

    def test_sampler_blocks_inside_an_estimator_block(self, monkeypatch):
        # 7 samples of 12 x 12 matrices a sampler block, 21 rows of 24 points
        # an estimator block: the factors are drawn one at a time, the 2 x 2
        # stacks of the whole block at once, then the 12 x 12 stacks 7 at a
        # time, and every row is the row of that sample drawn alone
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=30, seed=23)
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 7 * 16 * 12 ** 2)
        assert sample_blocks(cfg) == [(0, 21), (21, 30)]
        solved, core = [], sampler._sorted_phases

        def spy(u):
            solved.append(np.shape(u))
            return core(u)

        monkeypatch.setattr(sampler, "_sorted_phases", spy)
        rows = runner.sample_phase_block(cfg, 0, 21)
        assert solved == [(21, 2, 2)] + [(7, 12, 12)] * 3
        for s, row in enumerate(rows):
            assert np.array_equal(row, runner.sample_phase_block(cfg, s, s + 1)[0])

    def test_block_rows_equal_single_samples(self):
        cfg = ExperimentConfig(mode="triple", dims=(2, 3, 4), n_samples=9, seed=12)
        rows = rescaled_rows(cfg, 2, 9)
        assert rows.shape == (7, 24)
        for s, row in enumerate(rows, 2):
            assert np.array_equal(row, rescaled_rows(cfg, s, s + 1)[0])

    @pytest.mark.parametrize("mode, dims", [("single", (12,)), ("pair", (2, 12)), ("triple", (2, 3, 4))])
    def test_empty_sample_range_gives_an_empty_block(self, mode, dims):
        cfg = ExperimentConfig(mode=mode, dims=dims, n_samples=5, seed=3)
        P = int(np.prod(dims))
        for start in (0, 3, 5):
            assert runner.sample_phase_block(cfg, start, start).shape == (0, P)
            assert rescaled_rows(cfg, start, start).shape == (0, P)

    def test_sample_range_rejects_stop_below_start(self):
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=5, seed=3)
        with pytest.raises(ValueError, match="need 0 <= start <= stop <= 2\\^64, got 4 and 2"):
            runner.sample_phase_block(cfg, 4, 2)
        with pytest.raises(ValueError, match="need 0 <= start <= stop <= 2\\^64, got -1 and 2"):
            runner.sample_phase_block(cfg, -1, 2)

    @pytest.mark.parametrize("mode, dims", [("single", (12,)), ("pair", (2, 12)), ("triple", (2, 3, 4))])
    def test_block_size_invariance(self, mode, dims, tmp_path, monkeypatch):
        # The block-size analogue of test_worker_invariance_in_memory: the
        # default blocks, one sample per block, and a budget of 7 samples a
        # sampler block (which does not divide the 30 samples) write the same
        # bytes.  At that budget an estimator block holds all 30 rows of 12
        # points (drawn 7, 7, 7, 7, 2), 21 rows of 24 points (which does not
        # divide 30 either), and at 4 x 4 one sampler block.
        cfg = ExperimentConfig(mode=mode, dims=dims, n_samples=30, seed=23, k_analytic=3)
        per_sample = 16 * max(dims) ** 2
        odd_blocks = {"single": [30], "pair": [21, 9], "triple": [7, 7, 7, 7, 2]}[mode]
        outputs = []
        for block_bytes, blocks in ((sampler.BLOCK_BYTES, [30]), (1, [1] * 30), (7 * per_sample, odd_blocks)):
            monkeypatch.setattr(sampler, "BLOCK_BYTES", block_bytes)
            assert [b - a for a, b in sample_blocks(cfg)] == blocks
            out = tmp_path / str(block_bytes)
            _, manifest = run_experiment(cfg, out_dir=str(out))
            files = [(out / name).read_bytes() for name in manifest.outputs]
            outputs.append((files, manifest.summary))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_run_checks_each_block_once(self, monkeypatch):
        # the rescaled rows go to add_block unchecked, and add_block checks
        # them once per estimator block, not once per sampler block of 7
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=30, seed=23)
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 7 * 16 * 12 ** 2)
        calls = []

        def spy(check):
            def counted(points, circumference):
                calls.append(len(points))
                return check(points, circumference)

            return counted

        monkeypatch.setattr(estimators, "circle_rows", spy(estimators.circle_rows))
        run_experiment(cfg)
        assert calls == [b - a for a, b in sample_blocks(cfg)] == [21, 9]

    def test_run_builds_no_per_sample_configs(self, monkeypatch):
        # the blocks go from the sampler to the accumulator as (B, P) arrays
        cfg = ExperimentConfig(mode="triple", dims=(2, 3, 4), n_samples=30, seed=23, k_analytic=3)
        _, want = run_experiment(cfg)

        def refuse(self):
            raise AssertionError("run_experiment built a RescaledConfig")

        monkeypatch.setattr(RescaledConfig, "__post_init__", refuse)
        _, got = run_experiment(cfg)
        assert got.summary == want.summary

    def test_csv_outputs_deterministic(self, tmp_path):
        base = dict(mode="pair", dims=(2, 12), n_samples=25, seed=13, n_bins=8, delta_max=3.0)
        d1 = tmp_path / "serial"
        d2 = tmp_path / "threaded"
        run_experiment(ExperimentConfig(workers=1, **base), out_dir=str(d1))
        run_experiment(ExperimentConfig(workers=4, **base), out_dir=str(d2))
        for name in ("pair_correlation.csv", "spacings.csv", "count_variance.csv"):
            a = (d1 / name).read_bytes()
            b = (d2 / name).read_bytes()
            assert a == b, name
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        assert m1["summary"] == m2["summary"]
        assert m1["outputs"] == [
            "pair_correlation.csv", "spacings.csv", "count_variance.csv",
        ]
        assert m1["config"]["seed"] == 13
        assert m2["worker_streams"] == [
            {"worker": 0, "first_stream_id": 0, "stride": 1, "count": 25},
        ]

    def test_matches_public_estimators(self):
        for seed in range(10):
            cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=30, seed=seed, k_analytic=3)
            bundle, manifest = run_experiment(cfg)
            # against the per-sample references, which share no code with the run
            L, edges = float(cfg.factor_product), np.linspace(0.0, cfg.delta_max, cfg.n_bins + 1)
            configs = [RescaledConfig(rescaled_rows(cfg, s, s + 1)[0], L) for s in range(cfg.n_samples)]
            batch_counts = np.zeros_like(bundle.pair.batch_counts)
            for s, c in enumerate(configs):
                hist = pair_gap_histogram_loop(c.points, L, cfg.delta_max, edges)
                batch_counts[s * len(batch_counts) // cfg.n_samples] += 2.0 * hist
            assert np.array_equal(bundle.pair.batch_counts, batch_counts), seed
            gaps = [circular_gaps_reference(c.points, L) for c in configs]
            spacings = spacing_histogram_from_gaps(gaps, n_bins=cfg.n_bins)
            assert np.array_equal(bundle.spacings.spacings, spacings.spacings), seed
            assert list(bundle.count_var) == count_variance_reference(configs, COUNT_LENGTHS), seed
            assert bundle.intensity == 1.0, seed
            r1, r2, tol = TRIPLE_R1, TRIPLE_R2, DEFAULT_TRIPLE_TOL
            triples = sum(triple_window_count_by_gaps(c.points, L, r1, r2, tol) for c in configs)
            assert manifest.summary["triple_estimate"] == triples / (cfg.n_samples * L * tol**2), seed

    def test_pair_csv_content(self, tmp_path):
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=20, seed=3, n_bins=6, delta_max=3.0)
        bundle, _ = run_experiment(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "pair_correlation.csv").read_text().splitlines()
        assert lines[0] == "# seed=3"
        assert lines[1] == "# dims=2x12"
        assert lines[2] == "# n_samples=20"
        assert lines[3] == "delta,estimate,std_error,target,ordered_pair_count"
        first = lines[4].split(",")
        assert float(first[0]) == 0.25
        assert float(first[1]) == bundle.pair.estimate[0]
        assert float(first[4]) == bundle.pair.counts[0]

    def test_triple_probe_when_requested(self):
        cfg = ExperimentConfig(
            mode="pair", dims=(2, 12), n_samples=40, seed=8, k_analytic=3,
        )
        _, manifest = run_experiment(cfg)
        s = manifest.summary
        assert "triple_estimate" in s
        assert s["triple_gaps"] == [1.0, 2.0]
        assert s["triple_target"] == pytest.approx(
            float(kronphase.rho_superposed_sine(2, [0.0, 1.0, 2.0]))
        )
        no3 = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=4, seed=8)
        _, manifest2 = run_experiment(no3)
        assert "triple_estimate" not in manifest2.summary

    def test_sweep(self):
        cfg = ExperimentConfig(mode="pair", dims=(2, 10), n_samples=40, seed=6)
        rows = run_convergence_sweep(cfg, [10, 20])
        assert [r["n"] for r in rows] == [10, 20]
        assert all(r["n_samples"] == 40 for r in rows)
        single = run_convergence_sweep(cfg, [10])
        direct, _ = (None, None)
        sub = ExperimentConfig(mode="pair", dims=(2, 10), n_samples=40, seed=6, curve="superposed")
        _, manifest = run_experiment(sub)
        assert single[0]["rms_dev"] == manifest.summary["pair_rms_dev"]

    def test_sweep_rows_equal_run_experiment(self, monkeypatch):
        cfg = ExperimentConfig(mode="pair", dims=(2, 8), n_samples=60, seed=13, n_bins=12)
        want = []
        for n in (8, 12, 20):
            sub = ExperimentConfig(mode="pair", dims=(2, n), n_samples=60, seed=13, n_bins=12, curve="superposed")
            s = run_experiment(sub)[1].summary
            want.append((n, s["pair_rms_dev"], s["pair_max_abs_dev"]))

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran a whole experiment")

        monkeypatch.setattr(kronphase.runner, "run_experiment", refuse)
        rows = run_convergence_sweep(cfg, [8, 12, 20])
        assert [(r["n"], r["rms_dev"], r["max_abs_dev"]) for r in rows] == want

    def test_run_functions_need_two_samples(self):
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=1, seed=3)
        for run in (run_experiment, lambda c: run_convergence_sweep(c, [12])):
            with pytest.raises(ValueError, match="n_samples must be >= 2.*got 1"):
                run(cfg)

    def test_run_functions_refuse_what_is_not_a_config(self):
        # a dict used to reach the sweep's cfg.mode as an AttributeError
        for run in (run_experiment, lambda c: run_convergence_sweep(c, [12])):
            with pytest.raises(ValueError, match="^a run needs an ExperimentConfig, got dict$"):
                run({"mode": "pair", "dims": (2, 12), "n_samples": 4, "seed": 3})

    def test_sweep_names_the_size_that_failed(self):
        # the size's own error type is kept, so a CapacityError stays one
        cfg = ExperimentConfig(mode="pair", dims=(2, 10), n_samples=20, seed=1)
        with pytest.raises(kronphase.CapacityError, match="^n_values: n=600: dims: n=600 exceeds max"):
            run_convergence_sweep(cfg, [10, 600])
        with pytest.raises(ValueError, match=r"^n_values: n=1: delta_max must lie in") as info:
            run_convergence_sweep(cfg, [1, 10])
        assert type(info.value) is ValueError

    def test_sweep_honours_the_configured_curve(self):
        cfg = ExperimentConfig(mode="pair", dims=(2, 8), n_samples=60, seed=13, n_bins=12, curve="poisson")
        rows = run_convergence_sweep(cfg, [8, 12])
        for r in rows:
            sub = ExperimentConfig(mode="pair", dims=(2, r["n"]), n_samples=60, seed=13, n_bins=12, curve="poisson")
            s = run_experiment(sub)[1].summary
            assert s["curve"] == "poisson"
            assert (r["rms_dev"], r["max_abs_dev"]) == (s["pair_rms_dev"], s["pair_max_abs_dev"])
        superposed = run_convergence_sweep(replace(cfg, curve="superposed"), [8, 12])
        assert [r["rms_dev"] for r in rows] != [r["rms_dev"] for r in superposed]

    def test_sweep_csv_bytes(self, tmp_path):
        # recorded when each sweep row came from a full run_experiment
        cfg = ExperimentConfig(mode="pair", dims=(2, 8), n_samples=120, seed=75)
        run_convergence_sweep(cfg, [8, 12, 20], out_dir=str(tmp_path))
        digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
        assert digest == "4d3a93ed7e3d3f7bf42b0f456f7924e5db9fcc7fb63fbcbd7d2155e4506f425c"

    def test_sweep_validation(self):
        cfg = ExperimentConfig(mode="pair", dims=(2, 10), n_samples=4, seed=6)
        with pytest.raises(ValueError):
            run_convergence_sweep(cfg, [])
        with pytest.raises(ValueError):
            run_convergence_sweep(cfg, [20, 10])
        bad = ExperimentConfig(mode="single", dims=(30,), n_samples=4, seed=6)
        with pytest.raises(ValueError):
            run_convergence_sweep(bad, [10, 20])

    def test_reference_curves(self, tmp_path):
        grid = np.linspace(0.1, 4.0, 5)
        p1 = str(tmp_path / "sine.csv")
        emit_reference_curve("sine_pair", grid, p1)
        lines = open(p1).read().splitlines()
        assert lines[0] == "# kind=sine_pair"
        assert lines[1] == "delta,rho"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 5
        d, rho = (np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows]))
        assert np.allclose(rho, 1.0 - np.sinc(d) ** 2, atol=1e-15)

        p2 = str(tmp_path / "sup.csv")
        emit_reference_curve("superposed_pair", [1.0], p2, m=2)
        val = float(open(p2).read().splitlines()[-1].split(",")[1])
        assert val == pytest.approx(PAIR_M2_AT_1, abs=1e-15)

        p3 = str(tmp_path / "poisson.csv")
        emit_reference_curve("poisson", [0.5, 1.5], p3)
        assert [ln.split(",")[1] for ln in open(p3).read().splitlines()[2:]] == ["1", "1"]

    def test_reference_curve_validation(self, tmp_path):
        with pytest.raises(ValueError):
            emit_reference_curve("bogus", [1.0], str(tmp_path / "x.csv"))
        with pytest.raises(ValueError):
            emit_reference_curve("superposed_pair", [1.0], str(tmp_path / "x.csv"))
        with pytest.raises(ValueError):
            emit_reference_curve("sine_pair", [2.0, 1.0], str(tmp_path / "x.csv"))
        # NaN fails every comparison, so only a finiteness check rejects it
        for grid in ([1.0, np.nan], [np.nan] * 3, [1.0, np.inf]):
            with pytest.raises(ValueError):
                emit_reference_curve("poisson", grid, str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()


def assert_same_bundle(got, want):
    """Every number of two EstimateBundles of run_experiment, bit for bit."""
    assert (got.intensity, got.count_var, got.triple) == (want.intensity, want.count_var, want.triple)
    for part, field in (("pair", "bin_edges"), ("pair", "batch_counts"), ("pair", "batch_samples"), ("spacings", "spacings")):
        a, b = getattr(getattr(got, part), field), getattr(getattr(want, part), field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


@pytest.fixture
def forks(monkeypatch):
    """The list of os.fork calls, with three usable CPUs whatever the host
    has; on teardown, no child of the tests may be left."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(3), raising=False)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    # 31 one-sample blocks, which neither 2 nor 3 divides, and 150 samples
    # of 2 x 16 x 16 in the default blocks of 64, 64 and 22 rows
    FORKED = [("single", (12,), 31, 1), ("pair", (2, 12), 31, 1), ("triple", (2, 16, 16), 150, None)]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("mode, dims, n_samples, block_bytes", FORKED)
    def test_forked_runs_write_the_bytes_of_one_process(
        self, mode, dims, n_samples, block_bytes, workers, tmp_path, monkeypatch, forks
    ):
        if block_bytes is not None:
            monkeypatch.setattr(sampler, "BLOCK_BYTES", block_bytes)
        cfg = ExperimentConfig(mode=mode, dims=dims, n_samples=n_samples, seed=29, k_analytic=3)
        runs = []
        for w in (1, workers):
            out = tmp_path / str(w)
            bundle, manifest = run_experiment(replace(cfg, workers=w), out_dir=str(out))
            runs.append((bundle, manifest, [(out / name).read_bytes() for name in manifest.outputs]))
        (b1, m1, files1), (bw, mw, filesw) = runs
        assert len(forks) == min(workers, len(sample_blocks(cfg))) - 1 > 0
        assert (mw.outputs, filesw, mw.summary) == (m1.outputs, files1, m1.summary)
        assert_same_bundle(bw, b1)
        streams = mw.worker_streams
        firsts = [a for (a, _), *_ in worker_ranges(replace(cfg, workers=workers))]
        assert [s["worker"] for s in streams] == list(range(len(forks) + 1))
        assert [s["first_stream_id"] for s in streams] == firsts
        assert [s["count"] for s in streams] == np.diff(firsts + [n_samples]).tolist()
        assert {s["stride"] for s in streams} == {1}
        assert m1.worker_streams == ({"worker": 0, "first_stream_id": 0, "stride": 1, "count": n_samples},)

    def test_forked_sweep_writes_the_bytes_of_one_process(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 1)
        cfg = ExperimentConfig(mode="pair", dims=(2, 10), n_samples=31, seed=30)
        rows1 = run_convergence_sweep(cfg, [10, 12], out_dir=str(tmp_path / "1"))
        rows3 = run_convergence_sweep(replace(cfg, workers=3), [10, 12], out_dir=str(tmp_path / "3"))
        assert len(forks) == 4
        assert rows3 == rows1
        assert (tmp_path / "3" / "sweep.csv").read_bytes() == (tmp_path / "1" / "sweep.csv").read_bytes()

    def test_process_count_is_bounded(self, monkeypatch):
        # a million workers take at most one process per block and usable CPU
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 1)
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=31, seed=31, workers=10**6)
        blocks = sample_blocks(cfg)
        assert len(blocks) == 31 and len(worker_ranges(cfg)) <= os.cpu_count()
        for cpus, k in ((1, 1), (3, 3), (10**9, 31)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus), raising=False)
            ranges = worker_ranges(cfg)
            assert len(ranges) == k and sum(ranges, []) == blocks
            assert {len(r) for r in ranges} <= {31 // k, -(-31 // k)}

        def refuse():
            raise AssertionError("a one-CPU run forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(1), raising=False)  # one usable CPU
        monkeypatch.setattr(os, "fork", refuse)
        _, manifest = run_experiment(cfg)
        assert manifest.worker_streams == ({"worker": 0, "first_stream_id": 0, "stride": 1, "count": 31},)

    def test_without_fork_one_process_writes_the_same_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 1)
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=31, seed=32, k_analytic=3)
        want_bundle, want = run_experiment(cfg, out_dir=str(tmp_path / "1"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(3), raising=False)
        monkeypatch.delattr(os, "fork")
        cfg3 = replace(cfg, workers=3)
        assert worker_ranges(cfg3) == [sample_blocks(cfg3)]
        got_bundle, got = run_experiment(cfg3, out_dir=str(tmp_path / "3"))
        assert (got.worker_streams, got.summary) == (want.worker_streams, want.summary)
        for name in want.outputs:
            assert (tmp_path / "3" / name).read_bytes() == (tmp_path / "1" / name).read_bytes(), name
        assert_same_bundle(got_bundle, want_bundle)

    def test_child_error_reaches_the_parent_with_its_text(self, tmp_path, monkeypatch, capsys, forks):
        # the child's first block is sample 15 of 31: the text it raises is
        # the text of the same block's eigensolve in this process
        draw, parent = sampler._haar_from_uniforms, [None]

        def poisoned(u, n):  # a NaN in every stack drawn outside the parent
            q = draw(u, n)
            if os.getpid() != parent[0]:
                q[:, 0, 0] = np.nan
            return q

        monkeypatch.setattr(sampler, "_haar_from_uniforms", poisoned)
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 1)
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError) as serial:
            sampler.sample_factor_phases((2, 12), 0, 5, 15, 16)
        assert str(serial.value).startswith("eigensolve of factor 0 (n=2), samples 15 .. 15 of seed 5 failed: ")
        parent[0] = os.getpid()
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=31, seed=5, workers=2)
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError) as forked:
            run_experiment(cfg)
        assert type(forked.value) is type(serial.value) and str(forked.value) == str(serial.value)
        argv = ["correlate", "--mode", "pair", "--dims", "2,12", "--samples", "31", "--seed", "5", "--workers", "2"]
        with np.errstate(invalid="ignore"):
            assert cli.main(argv + ["--out", str(tmp_path / "not-made")]) == 2
        assert capsys.readouterr().err == "error: %s\n" % serial.value
        assert len(forks) == 2 and not (tmp_path / "not-made").exists()

    def test_a_child_that_dies_fails_the_run(self, monkeypatch, forks):
        parent, add = os.getpid(), estimators.Accumulator.add_block

        def dying(self, points, first_index):
            if os.getpid() != parent:
                os._exit(3)
            return add(self, points, first_index)

        monkeypatch.setattr(estimators.Accumulator, "add_block", dying)
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 1)
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=31, seed=5, workers=2)
        with pytest.raises(RuntimeError, match=r"^the process of samples 15 \.\. 30 ended before it sent them$"):
            run_experiment(cfg)

    def test_parent_error_kills_and_reaps_its_children(self, monkeypatch, forks):
        # each child would take a minute over its first block
        parent = os.getpid()

        def slow_or_failing(self, points, first_index):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError("fault in the parent")

        monkeypatch.setattr(estimators.Accumulator, "add_block", slow_or_failing)
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 1)
        cfg = ExperimentConfig(mode="pair", dims=(2, 12), n_samples=31, seed=5, workers=3)
        start = time.monotonic()
        with pytest.raises(ValueError, match="fault in the parent"):
            run_experiment(cfg)
        assert time.monotonic() - start < 30
        assert len(forks) == 2


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [["sample"], ["correlate"], ["spacings"], ["sweep", "--n-values", "10"]],
        ids=["sample", "correlate", "spacings", "sweep"],
    )
    def test_every_config_key_has_a_flag(self, argv):
        # _build_config_from_args reads getattr(args, key) for every key
        args = cli.build_parser().parse_args(argv)
        assert set(CONFIG_PARSERS) <= set(vars(args))

    def test_correlate_and_worker_env(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        args = [
            "correlate", "--mode", "pair", "--dims", "2,12", "--samples", "25",
            "--seed", "13", "--delta-max", "3", "--bins", "8",
        ]
        r1 = run_cli(*args, "--out", str(d1))
        r2 = run_cli(*args, "--out", str(d2), "--workers", "3")
        assert r1.returncode == 0, r1.stderr
        assert r2.returncode == 0, r2.stderr
        assert "pair correlation vs superposed_pair(m=2)" in r1.stdout
        assert (d1 / "pair_correlation.csv").read_bytes() == (d2 / "pair_correlation.csv").read_bytes()
        assert (d1 / "count_variance.csv").read_bytes() == (d2 / "count_variance.csv").read_bytes()

    @pytest.mark.parametrize("command", ["correlate", "spacings"])
    def test_several_blocks_print_and_write_alike_for_any_workers(self, command, tmp_path):
        # 800 samples of 2 x 12 are 3 estimator blocks, of 341, 341 and 118 rows
        args = [command, "--mode", "pair", "--dims", "2,12", "--samples", "800", "--seed", "13", "--k-analytic", "3"]
        results = []
        for w in (1, 2, 3):
            out = tmp_path / str(w)
            r = run_cli(*args, "--out", str(out), "--workers", str(w))
            assert r.returncode == 0, r.stderr
            outputs = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
            results.append((r.stdout.replace(str(out), "OUT"), outputs, [(out / name).read_bytes() for name in outputs]))
        assert results[1] == results[0] and results[2] == results[0]

    def test_config_file_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "mode = pair\ndims = 2 12\nn_samples = 6\nseed = 4\nn_bins = 8\ndelta_max = 3\n"
        )
        out = tmp_path / "out"
        r = run_cli("correlate", "--config", str(cfgfile), "--samples", "9", "--out", str(out))
        assert r.returncode == 0, r.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_samples"] == 9
        assert manifest["config"]["seed"] == 4

    def test_validation_exit_code(self, tmp_path):
        r = run_cli(
            "correlate", "--mode", "pair", "--dims", "2", "--samples", "4",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert r.returncode == 1
        assert "dims" in r.stderr

    def test_non_integer_dims_usage_error(self, tmp_path):
        r = run_cli(
            "correlate", "--mode", "pair", "--dims", "2,x", "--samples", "4",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert r.returncode == 2
        assert "argument --dims: dims must be comma-separated integers" in r.stderr

    def test_unknown_config_key_exit_code(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("mode = pair\nwhat = 1\n")
        r = run_cli("correlate", "--config", str(cfgfile), "--out", str(tmp_path))
        assert r.returncode == 1
        assert "unknown key" in r.stderr

    def test_missing_config_file_exit_code(self, tmp_path):
        r = run_cli("correlate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path))
        assert r.returncode == 2

    def test_sample_single(self, tmp_path):
        r = run_cli(
            "sample", "--mode", "single", "--dims", "6", "--samples", "3",
            "--seed", "2", "--delta-max", "3", "--out", str(tmp_path),
        )
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "phases.csv").read_text().splitlines()
        assert lines[3] == "sample,index,phase"
        data = [ln.split(",") for ln in lines[4:]]
        assert len(data) == 18
        phases = np.array([float(row[2]) for row in data])
        assert np.all((phases >= 0) & (phases < 2 * np.pi))

    def test_sample_single_rejects_window(self, tmp_path):
        r = run_cli(
            "sample", "--mode", "single", "--dims", "6", "--samples", "3",
            "--seed", "2", "--delta-max", "3", "--window", "2.0", "--out", str(tmp_path),
        )
        assert r.returncode == 1
        assert "single mode" in r.stderr
        assert not (tmp_path / "phases.csv").exists()

    def test_sample_rejected_by_the_sampler_writes_no_file(self, tmp_path, monkeypatch):
        # the first block is drawn before phases.csv is opened, so a draw
        # the sampler refuses neither creates nor truncates the file
        def refuse(dims, i, seed, start, stop):
            raise ValueError("refused")

        monkeypatch.setattr(runner, "sample_factor_phases", refuse)
        argv = ["sample", "--mode", "pair", "--dims", "2,12", "--samples", "1", "--seed", "1"]
        assert cli.main(argv + ["--out", str(tmp_path / "new")]) == 1
        assert not (tmp_path / "new" / "phases.csv").exists()
        (tmp_path / "phases.csv").write_text("kept\n")
        assert cli.main(argv + ["--out", str(tmp_path)]) == 1
        assert (tmp_path / "phases.csv").read_text() == "kept\n"

    def test_sample_rejects_window_before_making_the_directory(self, tmp_path):
        out = tmp_path / "not-made"
        argv = ["sample", "--mode", "single", "--dims", "6", "--samples", "3", "--seed", "2", "--delta-max", "3"]
        assert cli.main(argv + ["--window", "2.0", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["correlate", "spacings", "sweep"])
    def test_one_sample_is_refused_before_the_directory_is_made(self, command, tmp_path, capsys):
        # the standard errors need two batches, so one sample would fail late
        # with an internal message
        out = tmp_path / "not-made"
        argv = [command, "--mode", "pair", "--dims", "2,12", "--samples", "1", "--seed", "3"]
        argv += ["--n-values", "12,16"] if command == "sweep" else []
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert "n_samples must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--mode", "pair", "--dims", "2,10", "--samples", "20", "--n-values", "10,600"],
            ["correlate", "--mode", "single", "--dims", "600", "--samples", "20"],
            ["correlate", "--mode", "triple", "--dims", "2,3,4", "--samples", "20", "--delta-max", "2"],
        ],
        ids=["sweep", "correlate", "tensor-capacity"],
    )
    def test_oversize_config_is_refused_before_any_draw(self, argv, tmp_path, monkeypatch, capsys):
        # the sweep once drew every sample of n = 10 before the sampler
        # refused n = 600; the caps are read at call time, as the sampler's are
        monkeypatch.setattr(kronphase.processes, "DEFAULT_TENSOR_CAPACITY", 20)
        drawn, draw = [], runner.sample_factor_phases

        def spy(dims, i, seed, start, stop):
            drawn.append(dims)
            return draw(dims, i, seed, start, stop)

        monkeypatch.setattr(runner, "sample_factor_phases", spy)
        out = tmp_path / "not-made"
        assert cli.main(argv + ["--seed", "1", "--out", str(out)]) == 1
        assert "exceed" in capsys.readouterr().err
        assert drawn == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_values, message",
        [("1,10", "n_values: n=1: delta_max must lie in"), ("0,10", "n_values: n=0: dims must be positive")],
    )
    def test_sweep_names_the_size_that_failed(self, n_values, message, tmp_path, monkeypatch, capsys):
        drawn, draw = [], runner.sample_factor_phases

        def spy(dims, i, seed, start, stop):
            drawn.append(dims)
            return draw(dims, i, seed, start, stop)

        monkeypatch.setattr(runner, "sample_factor_phases", spy)
        out = tmp_path / "not-made"
        argv = ["sweep", "--mode", "pair", "--dims", "2,10", "--samples", "20", "--seed", "1"]
        assert cli.main(argv + ["--n-values", n_values, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: " + message)
        assert drawn == []
        assert not out.exists()

    def test_sample_takes_one_sample(self, tmp_path):
        argv = ["sample", "--mode", "pair", "--dims", "2,12", "--samples", "1", "--seed", "3"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        assert len((tmp_path / "phases.csv").read_text().splitlines()) == 4 + 24

    @pytest.mark.parametrize("command", ["correlate", "spacings", "sweep"])
    def test_only_sample_takes_a_window(self, command, tmp_path, capsys):
        out = tmp_path / "not-made"
        argv = [command, "--mode", "pair", "--dims", "2,6", "--samples", "5", "--seed", "1", "--delta-max", "2"]
        argv += ["--n-values", "6,8"] if command == "sweep" else []
        assert cli.main(argv + ["--window", "1.0", "--out", str(out)]) == 1
        assert "applies to the sample command only, not to %s" % command in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_window_is_rejected_outside_sample(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("mode = pair\ndims = 2,6\nn_samples = 5\nseed = 1\ndelta_max = 2\nwindow_half_width = 1.0\n")
        out = tmp_path / "not-made"
        assert cli.main(["correlate", "--config", str(conf), "--out", str(out)]) == 1
        assert not out.exists()
        # sample reads the same file and applies its window
        assert cli.main(["sample", "--config", str(conf), "--out", str(out)]) == 0
        thetas = np.array([float(ln.split(",")[2]) for ln in (out / "phases.csv").read_text().splitlines()[4:]])
        assert thetas.size > 0 and np.all(np.abs(thetas) <= 1.0)

    def test_sample_pair_window(self, tmp_path):
        r = run_cli(
            "sample", "--mode", "pair", "--dims", "2,12", "--samples", "2",
            "--seed", "2", "--window", "3.0", "--out", str(tmp_path),
        )
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "phases.csv").read_text().splitlines()
        assert lines[3] == "sample,index,theta"
        thetas = np.array([float(ln.split(",")[2]) for ln in lines[4:]])
        assert thetas.size > 0
        assert np.all(np.abs(thetas) <= 3.0)

    def test_spacings_command(self, tmp_path):
        r = run_cli(
            "spacings", "--mode", "pair", "--dims", "2,12", "--samples", "20",
            "--seed", "5", "--out", str(tmp_path),
        )
        assert r.returncode == 0, r.stderr
        assert "spacing KS vs exponential" in r.stdout
        lines = (tmp_path / "spacings.csv").read_text().splitlines()
        assert lines[3] == "s,density,poisson_density"

    def test_sweep_command(self, tmp_path):
        r = run_cli(
            "sweep", "--mode", "pair", "--dims", "2,10", "--samples", "30",
            "--seed", "3", "--n-values", "10,20", "--out", str(tmp_path),
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[0] == "n,rms_dev,max_abs_dev"
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[3] == "n,rms_dev,max_abs_dev"
        assert len(lines) == 6

    def test_refcurve_command(self, tmp_path):
        out = str(tmp_path / "ref.csv")
        r = run_cli("refcurve", "--kind", "superposed_pair", "--m", "2",
                    "--delta-max", "1", "--points", "1", "--out", out)
        assert r.returncode == 0, r.stderr
        last = open(out).read().splitlines()[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(PAIR_M2_AT_1, abs=1e-15)

    @pytest.mark.parametrize("delta_max", ["nan", "inf"])
    def test_refcurve_rejects_non_finite_grid(self, tmp_path, delta_max):
        out = tmp_path / "r.csv"
        r = run_cli("refcurve", "--kind", "poisson", "--delta-max", delta_max, "--points", "3", "--out", str(out))
        assert r.returncode == 1
        assert "finite" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("delta_max", ["inf", "nan", "0", "-1"])
    def test_refcurve_checks_delta_max_before_the_grid(self, tmp_path, delta_max):
        out = tmp_path / "r.csv"
        r = run_cli("refcurve", "--kind", "poisson", "--delta-max", delta_max, "--points", "3", "--out", str(out))
        assert r.returncode == 1
        assert "--delta-max" in r.stderr
        assert "RuntimeWarning" not in r.stderr
        assert not out.exists()

    def test_refcurve_missing_m(self, tmp_path):
        r = run_cli("refcurve", "--kind", "superposed_pair",
                    "--delta-max", "1", "--points", "4", "--out", str(tmp_path / "r.csv"))
        assert r.returncode == 1

    @pytest.mark.parametrize("kind", ["sine_pair", "poisson"])
    def test_refcurve_rejects_m_for_kinds_without_one(self, tmp_path, kind):
        out = tmp_path / "r.csv"
        r = run_cli("refcurve", "--kind", kind, "--m", "3", "--points", "4", "--out", str(out))
        assert r.returncode == 1
        assert "error: %s takes no m" % kind in r.stderr
        assert not out.exists()

    def test_verify_pass_and_fail(self):
        r7 = run_cli("verify", "--criteria", "7")
        assert r7.returncode == 0, r7.stderr
        assert r7.stdout.startswith("PASS")
        r6 = run_cli("verify", "--criteria", "6")
        assert r6.returncode == 3
        assert r6.stdout.startswith("FAIL")
        assert "not monotone" in r6.stdout

    def test_verify_runs_each_criterion_once_in_order(self):
        r = run_cli("verify", "--criteria", "8,7,7")
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert [ln.split()[1] for ln in lines[:-1]] == ["7", "8"]
        assert lines[-1] == "2/2 criteria passed"

    def test_verify_unknown_criterion(self):
        r = run_cli("verify", "--criteria", "11")
        assert r.returncode == 1

    @pytest.mark.parametrize("criteria", [",", ""])
    def test_verify_no_criteria(self, criteria):
        r = run_cli("verify", "--criteria", criteria)
        assert r.returncode == 1
        assert "no criteria" in r.stderr


# warm-up with 2 samples, then the minor page faults of a 200-sample command
FAULT_PROBE = """
import resource, sys
from kronphase import cli
args = ["correlate", "--mode", "pair", "--dims", "2,40", "--seed", "3", "--out", sys.argv[1]]
cli.main(args + ["--samples", "2"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cli.main(args + ["--samples", "200"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestMallocThresholds:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
    def test_block_temporaries_stay_in_the_heap(self, tmp_path):
        # with glibc's adaptive thresholds every block faults its temporaries
        # in again: about 60 faults per sample, against about 2 when fixed
        src = os.path.dirname(os.path.dirname(os.path.abspath(kronphase.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        r = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, str(tmp_path)], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        faults = int(r.stdout.splitlines()[-1])
        assert faults < 10 * 200, faults

    def test_main_runs_without_mallopt(self, tmp_path, monkeypatch):
        def no_library(name):
            raise OSError("no C library")

        args = ["correlate", "--mode", "pair", "--dims", "2,6", "--samples", "3", "--seed", "1"]
        for fake in (no_library, lambda name: object()):
            monkeypatch.setattr(ctypes, "CDLL", fake)
            assert cli.main(args + ["--out", str(tmp_path)]) == 0


# Peak resident memory of one command, in ru_maxrss units.  A process's
# ru_maxrss survives exec and starts from the RSS of the process that forked
# it, so the command runs in a grandchild of the tests, forked by LAUNCH, a
# small python process.
PEAK_PROBE = """
import contextlib, io, resource, sys
from kronphase import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[2:] + ["--out", sys.argv[1]])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(rc)
"""
LAUNCH = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def peak_rss_bytes(tmp_path, *commands):
    """Peak RSS in bytes of each command, each in its own process; the
    processes run side by side."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(kronphase.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", LAUNCH, sys.executable, "-c", PEAK_PROBE, str(tmp_path / str(i)), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for i, argv in enumerate(commands)
    ]
    peaks = []
    for p in procs:
        out, err = p.communicate()
        assert p.returncode == 0, err
        peaks.append(int(out.split()[-1]))
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    unit = 1 if sys.platform == "darwin" else 1024
    return [peak * unit for peak in peaks]


class TestPeakMemory:
    def test_correlate_grows_with_its_spacing_pool_only(self, tmp_path):
        # 1,500 more samples of 512 points add 6.1 MB of gaps to the pool;
        # the normalized, sorted pool and the KS walk add no second copy
        argv = ["correlate", "--mode", "triple", "--dims", "2,16,16", "--k-analytic", "3", "--seed", "3"]
        small, large = peak_rss_bytes(tmp_path, argv + ["--samples", "500"], argv + ["--samples", "2000"])
        pool_growth = (2000 - 500) * 512 * 8
        assert large - small <= 1.5 * pool_growth + 2_000_000, (small, large)

    def test_correlate_blocks_add_little_beyond_the_pool(self, tmp_path):
        # 500 samples of 512 points keep a 2.05 MB pool; the pair walk bins
        # one offset's gaps at a time and builds each offset's window from
        # the rows, and the draw frees its uniforms before the QRs, so the
        # blocks add about 1.8 MiB more
        argv = ["correlate", "--mode", "triple", "--dims", "2,16,16", "--k-analytic", "3", "--seed", "3"]
        small, large = peak_rss_bytes(tmp_path, argv + ["--samples", "2"], argv + ["--samples", "500"])
        pool = 500 * 512 * 8
        assert large - small <= pool + 4.2 * 2**20, (small, large)

    @pytest.mark.parametrize("mode, dims, rows", [("pair", (24, 24), 28), ("triple", (2, 16, 16), 64)])
    def test_phase_block_holds_the_draws_working_set(self, mode, dims, rows):
        # the factors are drawn and solved one at a time, so the peak is one
        # factor's working set, about 4.6 (B, n, n) complex stacks: its
        # eigensolve beside its unitaries
        cfg = ExperimentConfig(mode=mode, dims=dims, n_samples=rows, seed=3)
        assert sampler.block_length(dims, cfg.factor_product) == rows
        stack = 16 * rows * max(dims) ** 2
        runner.sample_phase_block(cfg, 0, rows)  # warm-up
        tracemalloc.start()
        try:
            runner.sample_phase_block(cfg, 0, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.0 * stack, peak / stack

    def test_sample_holds_one_block(self, tmp_path):
        argv = ["sample", "--mode", "pair", "--dims", "24,24", "--seed", "3"]
        small, large = peak_rss_bytes(tmp_path, argv + ["--samples", "200"], argv + ["--samples", "1000"])
        assert large - small <= 2_000_000, (small, large)


# a correlate, spacings and sample command in one process, then the modules
# of the list that they loaded
STARTUP_PROBE = """
import contextlib, io, sys
from kronphase import cli
for command in ("correlate", "spacings", "sample"):
    argv = [command, "--mode", "pair", "--dims", "2,6", "--samples", "3", "--seed", "1", "--out", sys.argv[1]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, command
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""


class TestStartup:
    def test_commands_import_only_what_they_run(self, tmp_path):
        # numpy.ma costs about 15 ms and 1.3 MB peak RSS, the verification suite about 5 ms
        src = os.path.dirname(os.path.dirname(os.path.abspath(kronphase.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        unused = ["numpy.ma", "kronphase.acceptance"]
        r = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, str(tmp_path), *unused], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == []
        # verify imports the suite when it runs
        r7 = run_cli("verify", "--criteria", "7")
        assert r7.returncode == 0, r7.stderr
        assert r7.stdout.splitlines()[-1] == "1/1 criteria passed"
