"""A fixed table of one-line mutants of src/kronphase, and the tests that kill them.

Run from anywhere:  python3 tests/mutants.py

The golden digests pin every output byte, so almost any change to src/
fails one of them.  This table shows that the independent checks fail too.
For each row the script copies the tree (src/, tests/, bench/ and the
files the tests read) into a temporary directory, replaces the row's old
text, which must occur exactly once in its module, by the new text,
and runs pytest there without the acceptance criteria
(tests/test_acceptance.py), the digest tests (tests/test_golden.py,
tests/test_limit_law.py) and the check of this table
(tests/test_mutant_table.py), which fails on any mutated copy.  The
mutated module's own test file runs first and pytest stops at the first
failure, which it names.  Two mutants run at a time.

The report gives killed/total and the first test that kills each mutant,
and lists the rows whose old text no longer occurs once, so that the
table is kept up to date as the code changes.  The name has no test_
prefix, so pytest does not collect it.  Exit code 0 when every mutant is
killed and every row applies, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md", "BENCHMARK.json")
LEFT_OUT = ("test_acceptance.py", "test_golden.py", "test_limit_law.py", "test_mutant_table.py")
# module -> its test file, where not test_<module>.py
OWN_TESTS = {"runner": "test_runner_cli.py", "cli": "test_runner_cli.py", "config": "test_runner_cli.py"}
JOBS = 2
TIMEOUT_S = 600

# (module, old text, new text, defect)
MUTANTS = [
    # sampler: the draw
    ("sampler", "q *= (d / np.abs(d))[..., None, :]", "q *= 1", "QR phase fix removed"),
    ("sampler", "q *= (d / np.abs(d))[..., None, :]", "q *= (d / np.abs(d))[..., :, None]", "QR phase fix applied to rows"),
    ("sampler", "u[:, n * n :], n)", "u[:, n * n - 1 : -1], n)", "u2 slice shifted one place onto u1"),
    ("sampler", "t = np.multiply(np.pi, u2)", "t = np.multiply(2.0 * np.pi, u2)", "Box-Muller tangent of the whole angle"),
    ("sampler", "np.subtract(1.0, t2, out=t2)", "np.subtract(t2, 1.0, out=t2)", "Box-Muller cosine 1 - t^2 -> t^2 - 1"),
    ("sampler", "np.add(t, t, out=t)", "np.add(t, 0.0, out=t)", "Box-Muller sine 2t -> t"),
    ("sampler", "return out[:, skip:]", "return out[:, : out.shape[1] - skip]", "W % 4 words dropped from the wrong end"),
    ("sampler", '"counter": [word // 4, 0, 0, 0]', '"counter": [0, 0, 0, 0]', "Philox counter 0 for every factor"),
    ("sampler", '"counter": [word // 4, 0, 0, 0]', '"counter": [word // 4 + 1, 0, 0, 0]', "factor started 4 words late"),
    ("sampler", "_uniforms(seed, b, min(b + step, stop)", "_uniforms(seed, b, b + step", "last block_length step not cut at stop"),
    ("sampler", "0 <= start <= stop <= _U64", "0 <= start < stop <= _U64", "empty sample range refused"),
    # sampler: the eigensolve
    ("sampler", "UNITARITY_TOL = 1e-8", "UNITARITY_TOL = 1e-2", "unitarity tolerance raised to 1e-2"),
    ("sampler", "\nCAYLEY_MAX_ABS = 2e3", "\nCAYLEY_MAX_ABS = 2e5", "Cayley guard loosened to 2e5"),
    ("sampler", "\nCAYLEY_MAX_ABS = 2e3", "\nCAYLEY_MAX_ABS = 1e3", "Cayley guard tightened to 1e3"),
    ("sampler", "np.maximum(-lam[..., 0], lam[..., -1])", "lam[..., -1]", "Cayley guard reads one end of the row"),
    # processes
    ("processes", "theta[theta >= P / 2] -= P", "theta[theta > P / 2] -= P", "rescale keeps a point at +P/2"),
    ("processes", "sums.sort(axis=-1)", "pass", "tensor phases left unsorted"),
    # estimators: the walk
    ("estimators", "cuts = [0, *(np.flatnonzero(np.diff(batch)) + 1), B]", "cuts = [0, *np.flatnonzero(np.diff(batch)), B]", "batch segment cut one row early"),
    ("estimators", "triple_on = below.any()", "triple_on = hit.any()", "triple walk stops at the first offset with no hit"),
    ("estimators", "np.less_equal(lo, w, out=hit)", "np.less(lo, w, out=hit)", "triple gap rule lo <= gap -> lo < gap"),
    ("estimators", "near &= w > 0.0", "near &= w > -1.0", "zero gaps of ties binned"),
    ("estimators", "np.add(rows[:, :k], L, out=w[:, P - k :])", "np.add(rows[:, :k], 2 * L, out=w[:, P - k :])", "wrapped points of the walk dropped"),
    ("estimators", "inside = np.zeros((2,) + rows.shape, dtype=np.int32)", "inside = np.zeros((2,) + rows.shape, dtype=np.uint8)", "uint8 triple window counter"),
    ("estimators", "if not r1 + tol / 2 < r2 - tol / 2:", "if not r1 + tol / 2 <= r2 - tol / 2:", "touching triple windows accepted"),
    # estimators: batches, counts, normalization
    ("estimators", "batch = ((first + np.arange(B)) * nb) // self.n_samples", "batch = ((first + np.arange(B)) * nb) // (self.n_samples + 1)", "batch layout shifted"),
    ("estimators", "np.std(means, axis=0, ddof=1)", "np.std(means, axis=0, ddof=0)", "ddof=0 in the batch standard error"),
    ("estimators", "/ (m - 1)))", "/ m))", "count variance over m instead of m - 1"),
    ("estimators", "triple = self.triples / (n * L", "triple = 1.02 * self.triples / (n * L", "triple estimate scaled by 1.02"),
    # estimators: the merge of a run's processes
    ("estimators", "[a + b for a, b in zip(self.s2, other.s2)]", "list(self.s2)", "s2 not merged"),
    ("estimators", "self.batch_counts += other.batch_counts", "self.batch_counts += 2 * other.batch_counts", "batch counts merged twice"),
    ("estimators", "offs = (np.arange(n) + 0.5) * (circumference / n)", "offs = (np.arange(n) + 0.75) * (circumference / n)", "arc grid shifted by a quarter step"),
    ("estimators", "rows[:, :j] + L], axis=-1)", "rows[:, : j - 1] + L], axis=-1)", "arc search with j - 1 wrapped columns"),
    ("estimators", "rows[:, :j] + L], axis=-1)", "rows[:, :0] + L], axis=-1)", "arc search with j = 0 wrapped columns"),
    # gof
    ("gof", "KS_COEFF_05 = 1.36", "KS_COEFF_05 = 1.63", "KS coefficient 1.36 -> 1.63"),
    ("gof", "np.max(cdf - (i - 1) / n)", "np.max(cdf - i / n)", "KS statistic misses the lower deviation"),
    ("gof", "f = np.broadcast_to(np.asarray(target(mids), dtype=float), mids.shape)", "f = np.asarray(target(mids), dtype=float)", "curve target left unbroadcast"),
    # runner
    ("runner", "sampler.BLOCK_BYTES // (32 * P)", "sampler.BLOCK_BYTES // (4 * P)", "estimator block bound // (32 P) -> // (4 P)"),
    ("runner", "len(blocks) * (i + 1) // k]", "len(blocks) * (i + 1) // k + 1]", "a process range one block too long"),
    ("runner", "min(cfg.workers, len(blocks), cpus)", "min(cfg.workers, len(blocks))", "process count not capped at the usable CPUs"),
    ("runner", "pipe.readinto(acc.gaps[start:stop])", "pipe.readinto(acc.gaps[start - 1 : stop - 1])", "a child's pool rows shifted by one"),
    ("runner", 'if m is not None and kind != "superposed":', 'if m is not None and kind == "sine_pair":', "refcurve takes m for poisson"),
    # config and cli: the mode table and the sample window
    ("config", '"pair": Mode(2, "superposed")', '"pair": Mode(2, "poisson")', "pair mode's limit law -> poisson"),
    ("config", '"single": Mode(1, "sine_pair")', '"single": Mode(2, "sine_pair")', "single mode's factor count 1 -> 2"),
    ("cli", "not 0.0 < 2 * w <=", "not 0.0 <= 2 * w <=", "sample --window 0 accepted"),
    # combinatorics
    ("combinatorics", "weight = falling_factorial(m, p) / mk", "weight = m**p / mk", "partition weight m^p for the falling factorial"),
    ("combinatorics", "p * row[p] + row[p - 1]", "(p + 1) * row[p] + row[p - 1]", "Stirling recurrence off by one"),
    ("combinatorics", "1.0 - q * q / m)", "1.0 - q * q)", "superposed pair correlation without 1/m"),
]


def suite_files(module, tests_dir):
    """The module's own test file first, then the rest in name order."""
    own = OWN_TESTS.get(module, "test_%s.py" % module)
    rest = sorted(f for f in os.listdir(tests_dir) if f.startswith("test_") and f.endswith(".py") and f not in LEFT_OUT + (own,))
    return [os.path.join("tests", f) for f in [own] + rest] + [os.path.join("bench", "test_bench_smoke.py")]


def run_mutant(row):
    """(verdict, detail, seconds) of one row: killed, survived, stale, or
    error when pytest ran no test (a usage error, such as a missing test
    file, or nothing collected), which kills nothing."""
    module, old, new, _ = row
    path = os.path.join(ROOT, "src", "kronphase", module + ".py")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        return "stale", "old text occurs %d times" % text.count(old), 0.0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kronphase-mutant-") as tmp:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(tmp, name), ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, os.path.join(tmp, name))
        with open(os.path.join(tmp, "src", "kronphase", module + ".py"), "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)  # pyproject.toml puts the copy's src/ and bench/ on the path
        try:
            proc = subprocess.run(argv + suite_files(module, os.path.join(tmp, "tests")), cwd=tmp, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", "timeout after %d s" % TIMEOUT_S, time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", "", seconds
    if proc.returncode in (4, 5):  # pytest's USAGE_ERROR and NO_TESTS_COLLECTED
        return "error", "pytest exit %d" % proc.returncode, seconds
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return "killed", first.group(1) if first else "pytest exit %d" % proc.returncode, seconds


def main():
    start = time.perf_counter()
    killed = applied = 0
    with ThreadPoolExecutor(JOBS) as pool:
        for row, (verdict, detail, seconds) in zip(MUTANTS, pool.map(run_mutant, MUTANTS)):
            applied += verdict != "stale"
            killed += verdict == "killed"
            print("%-8s %5.1fs  %-13s %-50s %s" % (verdict, seconds, row[0], row[3], detail), flush=True)
    stale = len(MUTANTS) - applied
    print("killed %d/%d, %d stale rows, %.0f s" % (killed, applied, stale, time.perf_counter() - start))
    return 0 if killed == applied and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
