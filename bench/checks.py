"""Correctness checks on the files one `kronphase correlate` command writes.

Every check here compares the command's output with the exact law in
`oracle` or with an exact property of the estimators.  None of them
compares with stored bytes of an earlier run, so they keep working when
a change to the sampler moves every Monte Carlo number.  This module
imports nothing from kronphase.

Each check returns a list of failure messages (empty when it passes)
and fills a dict of the statistics it measured.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracle

# Per-bin |z| gate against the exact bin-averaged pair correlation.
# z uses the estimator's batch-means standard error (20 batches, so a
# t law with 19 degrees of freedom); |t_19| > 6 has probability about
# 1e-5 per bin.
PAIR_Z_MAX = 6.0
# Root mean square of the per-bin z over all bins; about 1 on a correct
# estimate, and far above 2 for any target that is off by more than the
# noise in most bins.
PAIR_RMS_Z_MAX = 2.0
# The relative error of the pooled count variance has a standard
# deviation of at most 0.31 / sqrt(n_samples) on the three workloads
# (measured over 12 seeds each at 1500, 2000 and 1000 samples); the
# gate sits above six of those.
COUNT_REL_COEFF = 2.0


def read_csv(path):
    """(preamble dict, header list, float rows array) of a kronphase CSV."""
    preamble = {}
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                preamble[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    return preamble, header, np.asarray(rows, dtype=float)


def read_outputs(out_dir):
    """The command's pair table, count-variance table and manifest."""
    pair = read_csv(os.path.join(out_dir, "pair_correlation.csv"))
    counts = read_csv(os.path.join(out_dir, "count_variance.csv"))
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return pair, counts, manifest


def check_pair_curve(pair, edges, target, stats):
    """Estimate against a bin-averaged target, in units of its standard error."""
    _, header, rows = pair
    col = {name: i for i, name in enumerate(header)}
    est = rows[:, col["estimate"]]
    se = rows[:, col["std_error"]]
    if est.size != len(edges) - 1:
        return ["pair table has %d bins, expected %d" % (est.size, len(edges) - 1)]
    if np.any(se <= 0):
        return ["pair table has a non-positive standard error"]
    z = (est - np.asarray(target, dtype=float)) / se
    max_z = float(np.max(np.abs(z)))
    rms_z = float(np.sqrt(np.mean(z * z)))
    stats["pair_max_abs_z"] = max_z
    stats["pair_rms_z"] = rms_z
    failures = []
    if not max_z <= PAIR_Z_MAX:
        failures.append("pair correlation: max |z| %.3g exceeds %g" % (max_z, PAIR_Z_MAX))
    if not rms_z <= PAIR_RMS_Z_MAX:
        failures.append("pair correlation: rms z %.3g exceeds %g" % (rms_z, PAIR_RMS_Z_MAX))
    return failures


def check_pair_properties(pair, edges, n_samples, circumference, stats):
    """Exact properties of the pair table: bins, even counts, normalisation."""
    _, header, rows = pair
    col = {name: i for i, name in enumerate(header)}
    failures = []
    mids = 0.5 * (edges[:-1] + edges[1:])
    if rows.shape[0] != mids.size or not np.allclose(rows[:, col["delta"]], mids, rtol=0, atol=1e-12):
        return ["pair table bins do not match the requested grid"]
    counts = rows[:, col["ordered_pair_count"]]
    if not np.all(counts == np.round(counts)) or np.any(np.round(counts) % 2 != 0):
        failures.append("ordered-pair counts are not all even integers")
    expected = counts / (n_samples * 2.0 * circumference * np.diff(edges))
    if not np.allclose(rows[:, col["estimate"]], expected, rtol=1e-12, atol=0):
        failures.append("pair estimate is not counts / (n * 2 L * width)")
    stats["pairs_binned"] = int(counts.sum())
    return failures


def check_count_variance(counts, dims, n_samples, stats):
    """Pooled arc-count variance against the exact finite-size variance."""
    _, header, rows = counts
    col = {name: i for i, name in enumerate(header)}
    tol = COUNT_REL_COEFF / math.sqrt(n_samples)
    failures = []
    rel = []
    for length, var in zip(rows[:, col["length"]], rows[:, col["variance"]]):
        exact = oracle.count_variance(dims, length)
        err = var / exact - 1.0
        rel.append(err)
        if not abs(err) <= tol:
            failures.append(
                "count variance at length %g: %.5g vs exact %.5g (rel %.3g > %.3g)"
                % (length, var, exact, err, tol)
            )
    if not rel:
        failures.append("count-variance table is empty")
    stats["count_var_max_rel_err"] = float(max(abs(e) for e in rel)) if rel else None
    return failures


def check_summary(manifest, n_samples, points, stats):
    """Exact properties of the run summary: unit intensity and KS size."""
    s = manifest.get("summary", {})
    failures = []
    if s.get("intensity") != 1.0:
        failures.append("intensity %r is not exactly 1" % (s.get("intensity"),))
    if s.get("ks_n") != n_samples * points:
        failures.append("ks_n %r is not n_samples * P = %d" % (s.get("ks_n"), n_samples * points))
    stats["ks_d"] = s.get("ks_d")
    return failures


def check_command_outputs(out_dir, dims, n_samples, delta_max, n_bins, stats):
    """Every oracle and property check on one command's output directory."""
    pair, counts, manifest = read_outputs(out_dir)
    points = math.prod(dims)
    edges = np.linspace(0.0, float(delta_max), int(n_bins) + 1)
    target = oracle.pair_correlation_bin_averages(dims, edges)
    failures = []
    failures += check_pair_properties(pair, edges, n_samples, float(points), stats)
    failures += check_pair_curve(pair, edges, target, stats)
    failures += check_count_variance(counts, dims, n_samples, stats)
    failures += check_summary(manifest, n_samples, points, stats)
    return failures


def triple_windows_brute(points, circumference, r1, r2, tol):
    """Ordered triples (x, y, z) with y in x + [r1 -+ tol/2] and z in
    x + [r2 -+ tol/2] on the circle, by comparing every base with every
    point of the once-unrolled circle."""
    pts = np.asarray(points, dtype=float)
    unrolled = np.concatenate([pts, pts + circumference])[None, :]
    x = pts[:, None]
    c1 = np.count_nonzero((unrolled >= x + (r1 - tol / 2)) & (unrolled <= x + (r1 + tol / 2)), axis=1)
    c2 = np.count_nonzero((unrolled >= x + (r2 - tol / 2)) & (unrolled <= x + (r2 + tol / 2)), axis=1)
    return int(np.sum(c1 * c2))
