"""Benchmark harness for kronphase.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (see workloads.py) for S seconds.  Every command runs
in a fresh process (child.py) that imports kronphase from src/, warms up
and then runs the command once through `kronphase.cli.main`.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.  The
lines before it give the host and library facts and every measured
value; the same record is written to .bench_work/NAME/result.json.

Exit codes: 0 when every check passed, 1 when a check failed (the
result line is still printed), 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from probe import PROBE_REFERENCE_S
from workloads import DELTA_MAX, N_BINS, WORKLOADS, program_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")
# A command takes a few seconds; one that hangs must not hold the run
# past its 180-second limit.
CHILD_TIMEOUT_S = 60
MIN_COMMANDS = 3

# BLAS threads are pinned so that --workers is the only parallelism the
# benchmark measures.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"samples_per_s": "samples/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = (
    "sampler.stream", "sampler.haar", "sampler.eigenphases",
    "processes.tensor", "processes.rescale",
    "estimators.pair_hist", "estimators.triple", "estimators.arc_counts",
    "estimators.gaps", "estimators.spacing_pool",
    "gof.ks", "gof.compare", "combinatorics.target", "output.write",
)
LAYER_COUNTS = (
    "sampler.matrices", "processes.points", "estimators.pairs_binned",
    "estimators.triples_counted", "estimators.spacings_pooled",
)
# Files of one command whose bytes must not depend on the run or on
# the worker count.
COMPARED_FILES = ("pair_correlation.csv", "count_variance.csv")


def host_facts():
    """Host and library facts recorded with every result."""
    blas = lapack = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas, lapack = deps.get("blas", {}), deps.get("lapack", {})
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        pass
    src_hash = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for f in sorted(filenames):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                src_hash.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    src_hash.update(fh.read())
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: lapack.get(k) for k in ("name", "version")},
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
    }


def child_env():
    env = dict(os.environ)
    env.pop("KRONPHASE_WORKERS", None)
    env.update(BLAS_THREADS)
    return env


def run_child(wl, seed, n_samples, workers, out_dir, trace, recount):
    """One command in a fresh process; its JSON record, or None on failure."""
    cmd = [sys.executable, CHILD, ROOT, wl.name, str(seed), str(n_samples), str(workers), out_dir]
    cmd += [str(int(trace)), str(int(recount))]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("command timed out after %d s" % CHILD_TIMEOUT_S)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("command failed (exit %d): %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
        return None
    rec = json.loads(lines[-1])
    if rec.get("exit_code") != 0:
        print("kronphase exited with %s" % rec.get("exit_code"))
        return None
    rec["setup_s"] = rec["ready_monotonic"] - spawned
    return rec


def file_bytes(out_dir, names=COMPARED_FILES):
    out = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Run:
    """Counters and failure log of one benchmark invocation."""

    def __init__(self, wl, seed, n_samples, work):
        self.wl, self.seed, self.n_samples, self.work = wl, seed, n_samples, work
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.records = []
        self.traced = []
        self.first_dir = None
        self.first_bytes = None

    def command(self, tag, workers, trace=False, recount=False):
        """Run and count one command; its record, or None when it failed."""
        out_dir = os.path.join(self.work, tag)
        self.attempted += 1
        rec = run_child(self.wl, self.seed, self.n_samples, workers, out_dir, trace, recount)
        if rec is None:
            self.failed += 1
        return rec, out_dir

    def timed_commands(self, seconds, min_commands, traced=False):
        """Commands until `seconds` have passed; all outputs must match.

        With traced=True every untraced command is followed by a traced
        run, so both see the same load on the host.  The first traced run
        also recounts its triple windows by brute force, which can take
        longer than the run itself.
        """
        deadline = time.monotonic() + seconds
        i = 0
        while i < min_commands or time.monotonic() < deadline:
            rec, out_dir = self.command("cmd%d" % i, self.wl.workers)
            if rec is not None:
                self.records.append(rec)
                self.keep_or_compare(out_dir)
            if traced:
                rec, out_dir = self.command("traced%d" % i, self.wl.workers, trace=True, recount=not self.traced)
                if rec is not None:
                    self.traced.append(rec)
                    self.keep_or_compare(out_dir, keep=True)
                    check_traced(self, rec)
            i += 1

    def keep_or_compare(self, out_dir, keep=False):
        """Keep the first output directory; compare the others with it and
        delete them unless keep is set (traced runs keep their spans)."""
        if self.first_dir is None:
            self.first_dir, self.first_bytes = out_dir, file_bytes(out_dir)
        else:
            if file_bytes(out_dir) != self.first_bytes:
                self.failures.append("%s: tables differ from the first command of the run" % out_dir)
            if not keep:
                shutil.rmtree(out_dir, ignore_errors=True)
        shutil.rmtree(out_dir + ".warmup", ignore_errors=True)

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(run):
    """Medians over the run's commands, times scaled to the probe's host speed.

    Each command's host-speed factor is the mean of the probe times just
    before and after it over PROBE_REFERENCE_S: above 1 the host was
    slower than the reference, and the command's rate is scaled up and
    its set-up time down by that factor.  The raw values are kept next
    to the scaled ones.
    """
    recs = run.records
    slow = [(r["probe_before_s"] + r["probe_after_s"]) / (2 * PROBE_REFERENCE_S) for r in recs]
    values = {
        "samples_per_s": [run.n_samples / r["wall_s"] * f for r, f in zip(recs, slow)],
        "setup_s": [r["setup_s"] / f for r, f in zip(recs, slow)],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in recs],
        "raw_samples_per_s": [run.n_samples / r["wall_s"] for r in recs],
        "raw_setup_s": [r["setup_s"] for r in recs],
        "host_slowdown": slow,
        "command_s": [r["wall_s"] for r in recs],
    }
    return {k: statistics.median(v) for k, v in values.items()}, values


def per_layer(run, command_s):
    """Layer metrics of the median traced run, and what no layer covers.

    The traced run whose layer sum is the median one is reported whole,
    so its layer times plus runner.unattributed_s add up to
    runner.command_s exactly.
    """
    by_sum = sorted(run.traced, key=lambda t: sum(t["layer_s"].values()))
    traced = by_sum[(len(by_sum) - 1) // 2]
    layer_s = traced["layer_s"]
    metrics = {name + "_s": (layer_s.get(name, 0.0), "s") for name in LAYER_TIMES}
    metrics.update({name: (traced["counts"].get(name, 0), "count") for name in LAYER_COUNTS})
    outputs = [os.path.join(run.first_dir, f) for f in os.listdir(run.first_dir)]
    metrics["output.bytes"] = (sum(os.path.getsize(p) for p in outputs), "count")
    metrics["runner.command_s"] = (command_s, "s")
    metrics["runner.unattributed_s"] = (command_s - sum(layer_s.values()), "s")
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in run.traced) - command_s, "s")
    unknown = sorted(set(layer_s) - set(LAYER_TIMES))
    run.check(not unknown, "spans without a metric: %s" % unknown)
    return metrics


def check_traced(run, traced):
    """The traced run must have done exactly the untraced command's work.

    Its tables are compared byte for byte with the command's by
    Run.keep_or_compare; here the summary, the spacing pool size and the
    brute-force triple recount are checked.
    """
    wl = run.wl
    manifest = checks.read_outputs(run.first_dir)[2]
    run.check(
        json.loads(json.dumps(traced["summary"])) == manifest["summary"],
        "traced summary differs from the command's summary",
    )
    run.check(
        traced["counts"].get("estimators.spacings_pooled") == run.n_samples * wl.points,
        "traced spacing pool does not hold n_samples * P gaps",
    )
    if "triple_recounted" in traced:
        run.check(
            traced["triple_recounted"] == run.n_samples and traced["triple_recount_mismatches"] == 0,
            "brute-force triple recount: %d of %d configurations differ"
            % (traced["triple_recount_mismatches"], traced["triple_recounted"]),
        )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="tiny sample counts, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kronphase", "cli.py")):
        print("error: no kronphase sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = program_seed(wl.name, args.seed)
    n_samples = wl.samples(args.smoke)
    work = os.path.join(WORK_DIR, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    host = host_facts()
    print("host " + json.dumps(host, sort_keys=True))
    print("workload %s: kronphase %s" % (wl.name, " ".join(wl.argv(seed, n_samples, wl.workers))))

    run = Run(wl, seed, n_samples, work)
    min_commands = 2 if args.smoke else MIN_COMMANDS
    run.timed_commands(args.seconds, min_commands, traced=bool(args.trace))
    if not run.records or (args.trace and not run.traced):
        print("error: no command of the run succeeded", file=sys.stderr)
        return 2

    stats = {}
    run.failures += checks.check_command_outputs(run.first_dir, wl.dims, n_samples, DELTA_MAX, N_BINS, stats)
    if wl.workers > 1:
        rec, serial_dir = run.command("serial", 1)
        if rec is not None:
            run.check(file_bytes(serial_dir) == run.first_bytes, "CSV bytes depend on the worker count")

    e2e, samples = end_to_end(run)
    if args.trace:
        run.check(any("triple_recounted" in t for t in run.traced), "no traced run recounted the triple windows")
        metrics = per_layer(run, e2e["command_s"])
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}

    for name, values in samples.items():
        q = quartiles(values)
        print("%-17s median %.6g  quartiles %.6g %.6g  (%d commands)" % (name, q[1], q[0], q[2], len(values)))
    print("checks " + json.dumps(stats, sort_keys=True))
    for message in run.failures:
        print("CHECK FAILED: " + message)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"args": vars(args), "program_seed": seed, "host": host, "checks": stats,
             "failures": run.failures, "samples": samples, "result": result},
            fh, indent=1, sort_keys=True,
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
