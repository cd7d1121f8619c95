"""Command-line interface.

Subcommands: sample, correlate, spacings, sweep, refcurve, verify.
Exit codes: 0 success, 1 validation error, 2 runtime or I/O error,
3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import os
import sys

import numpy as np

from . import kernels
from .config import CONFIG_PARSERS, CURVES, MODES, build_config, parse_config_file, parse_int_list
from .output import _write_lines
from .processes import circle_rows, rescale_points
from .runner import (
    csv_preamble,
    emit_reference_curve,
    run_convergence_sweep,
    run_experiment,
    sample_blocks,
    sample_phase_block,
)

# glibc returns freed chunks above its adaptive mmap threshold, and heap tops
# above its trim threshold, to the kernel, so every block's 128 KiB - 2 MiB
# temporaries would fault in fresh pages.  Fixed at 4 MiB and 32 MiB, they
# stay in the heap from block to block, while larger arrays (a spacing pool)
# still go to mmap and are returned when freed; fixing one alone adds faults.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_THRESHOLDS = ((_M_MMAP_THRESHOLD, 4 << 20), (_M_TRIM_THRESHOLD, 32 << 20))

EPILOG = """\
exit codes: 0 success, 1 validation error, 2 runtime/I-O error,
3 verification failure.
"""


def _int_list_type(message):
    """argparse type: parse_int_list, with message as the usage error."""

    def parse(text):
        try:
            return parse_int_list(text)
        except ValueError:
            raise argparse.ArgumentTypeError(message)

    return parse


_dims_arg = _int_list_type("dims must be comma-separated integers")
_int_list_arg = _int_list_type("expected comma-separated integers")


def _add_experiment_args(p):
    p.add_argument("--config", metavar="FILE", help="flat key = value config file")
    p.add_argument("--mode", choices=MODES, help="process kind")
    p.add_argument("--dims", type=_dims_arg, metavar="M[,N[,L]]", help="matrix sizes")
    p.add_argument("--samples", type=int, dest="n_samples", help="number of Monte Carlo samples")
    p.add_argument("--seed", type=int, help="base seed (64-bit)")
    p.add_argument("--delta-max", type=float, dest="delta_max", help="pair-correlation range, mean-spacing units")
    p.add_argument("--bins", type=int, dest="n_bins", help="histogram bin count (>= 4)")
    p.add_argument("--workers", type=int, help="processes of a correlate, spacings or sweep run, at most one per block and usable CPU (sample is serial)")
    p.add_argument("--k-analytic", type=int, dest="k_analytic", help="max analytic correlation order (<= %d); >= 3 adds a triple-correlation probe" % kernels.DEFAULT_K_CAP)
    p.add_argument("--curve", choices=CURVES, help="pair-correlation reference curve")
    p.add_argument("--out", default=".", metavar="DIR", help="output directory (default: current)")


def _build_config_from_args(args):
    file_values = parse_config_file(args.config) if args.config else {}
    # every experiment flag's dest is its config key
    return build_config(file_values, {key: getattr(args, key) for key in CONFIG_PARSERS})


def _phase_lines(cfg, w):
    """The rows of phases.csv, one sample at a time, keeping |theta| <= w
    unless w is None; one format per row, whose %d and %.17g are
    write_csv's bytes for an int and a float."""
    P = cfg.factor_product
    for start, stop in sample_blocks(cfg):
        block = sample_phase_block(cfg, start, stop)
        if cfg.mode != "single":
            block = circle_rows(rescale_points(block, P), P)
        if w is not None:  # _cmd_sample has checked 0 < 2w <= P
            block = [row[np.abs(row) <= w] for row in block]
        for s, pts in enumerate(block, start):
            yield "".join(map("%d,%d,%.17g\n".__mod__, zip(itertools.repeat(s), range(len(pts)), pts.tolist())))


def _cmd_sample(args):
    cfg, w = _build_config_from_args(args), args.window
    if w is not None and cfg.mode == "single":
        raise ValueError("--window applies to the rescaled pair and triple modes, not to single mode")
    if w is not None and not 0.0 < 2 * w <= cfg.factor_product:
        raise ValueError("--window W must satisfy 0 < 2W <= product(dims), got %r" % w)
    os.makedirs(args.out, exist_ok=True)
    # the first block is drawn before phases.csv is opened, so a config the
    # sampler rejects leaves no file; then one block is held at a time
    lines = _phase_lines(cfg, w)
    first = next(lines)
    path = os.path.join(args.out, "phases.csv")
    name = "phase" if cfg.mode == "single" else "theta"
    _write_lines(path, csv_preamble(cfg), ("sample", "index", name), itertools.chain([first], lines))
    print("wrote %s" % path)
    return 0


def _cmd_correlate(args):
    cfg = _build_config_from_args(args)
    _, manifest = run_experiment(cfg, out_dir=args.out, emit=("pair", "counts"))
    s = manifest.summary
    print(
        "pair correlation vs %s: rms dev %.4g, max dev %.4g, bins over 4 sigma: %d"
        % (s["curve"], s["pair_rms_dev"], s["pair_max_abs_dev"], s["pair_bins_over_4sigma"])
    )
    for ell, var in s["count_variance"]:
        print("count variance at length %g: %.4g (poisson: %g)" % (ell, var, ell))
    if "triple_estimate" in s:
        print(
            "triple correlation at gaps (%g, %g): %.4g (target %.4g)"
            % (s["triple_gaps"][0], s["triple_gaps"][1], s["triple_estimate"], s["triple_target"])
        )
    print("outputs in %s: %s" % (args.out, ", ".join(manifest.outputs)))
    return 0


def _cmd_spacings(args):
    cfg = _build_config_from_args(args)
    _, manifest = run_experiment(cfg, out_dir=args.out, emit=("spacings",))
    s = manifest.summary
    if "ks_d" in s:
        print(
            "spacing KS vs exponential: D = %.4g, threshold %.4g (n = %d): %s"
            % (s["ks_d"], s["ks_threshold_05"], s["ks_n"], "pass" if s["ks_pass"] else "fail")
        )
    print("outputs in %s: %s" % (args.out, ", ".join(manifest.outputs)))
    return 0


def _cmd_sweep(args):
    cfg = _build_config_from_args(args)
    rows = run_convergence_sweep(cfg, args.n_values, out_dir=args.out)
    print("n,rms_dev,max_abs_dev")
    for r in rows:
        print("%d,%.6g,%.6g" % (r["n"], r["rms_dev"], r["max_abs_dev"]))
    return 0


def _cmd_refcurve(args):
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    if not 0.0 < args.delta_max < np.inf:
        raise ValueError("--delta-max must be positive and finite")
    grid = np.linspace(args.delta_max / args.points, args.delta_max, args.points)
    path = emit_reference_curve(args.kind, grid, args.out, m=args.m)
    print("wrote %s" % path)
    return 0


def _cmd_verify(args):
    from .acceptance import run_criteria  # no other command loads the suite
    results = run_criteria(args.criteria)
    failed = 0
    for r in results:
        print("%s  %-2s %s: %s" % ("PASS" if r.passed else "FAIL", r.cid, r.title, r.details))
        failed += 0 if r.passed else 1
    print("%d/%d criteria passed" % (len(results) - failed, len(results)))
    return 0 if failed == 0 else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kronphase",
        description="Eigenphase statistics of tensor products of Haar-random unitaries",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="dump raw phase configurations")
    _add_experiment_args(p)
    p.add_argument("--window", type=float, metavar="W", help="keep only the points with |theta| <= W, 0 < 2W <= product(dims) (pair and triple modes)")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("correlate", help="pair correlation and count variance vs an analytic curve")
    _add_experiment_args(p)
    p.set_defaults(fn=_cmd_correlate)

    p = sub.add_parser("spacings", help="nearest-neighbor spacing histogram and KS test")
    _add_experiment_args(p)
    p.set_defaults(fn=_cmd_spacings)

    p = sub.add_parser("sweep", help="convergence sweep over the second factor size")
    _add_experiment_args(p)
    p.add_argument("--n-values", type=_int_list_arg, required=True, metavar="N1,N2,...", dest="n_values")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("refcurve", help="write an analytic reference curve")
    p.add_argument("--kind", choices=CURVES[1:], required=True, help="limit law")
    p.add_argument("--m", type=int, help="superposition order (superposed only)")
    p.add_argument("--delta-max", type=float, default=4.0, dest="delta_max")
    p.add_argument("--points", type=int, default=80)
    p.add_argument("--out", default="refcurve.csv", metavar="FILE")
    p.set_defaults(fn=_cmd_refcurve)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--criteria", type=_int_list_arg, metavar="1,2,...", help="subset to run (default: all)")
    p.set_defaults(fn=_cmd_verify)

    return parser


def _pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds for this process; a no-op where
    the C library has no mallopt (or, on Windows, cannot be opened so)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOC_THRESHOLDS:
        mallopt(param, value)


def main(argv=None):
    _pin_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a numerical fault in a run's own draw
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print("unexpected error: %r" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
