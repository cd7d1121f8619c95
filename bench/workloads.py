"""Benchmark workloads: one kronphase command line each.

Each workload mirrors one verify criterion at a size that keeps one
command near one second on a 2-core host, so a 30-second run times 20
to 30 commands, each closely bracketed by the host-speed probes.  The
kronphase seed is derived from the benchmark seed and the workload name,
so the same benchmark seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

# Pair-correlation grid of every workload, passed on the command line so
# that a change of the program's defaults cannot change the workload.
DELTA_MAX = 4.0
N_BINS = 40
# 3 adds the triple-correlation probe, so that every layer does work on
# every workload and no layer time reads a constant 0.
K_ANALYTIC = 3


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    dims: tuple
    n_samples: int
    smoke_samples: int
    workers: int = 1

    @property
    def points(self):
        return math.prod(self.dims)

    def samples(self, smoke):
        return self.smoke_samples if smoke else self.n_samples

    def config_values(self, seed, n_samples, workers):
        """The command's settings as kronphase config keys."""
        return {
            "mode": self.mode,
            "dims": tuple(self.dims),
            "n_samples": int(n_samples),
            "seed": int(seed),
            "delta_max": DELTA_MAX,
            "n_bins": N_BINS,
            "workers": int(workers),
            "k_analytic": K_ANALYTIC,
        }

    def argv(self, seed, n_samples, workers):
        """The `kronphase correlate` argument list for one command."""
        v = self.config_values(seed, n_samples, workers)
        return [
            "correlate",
            "--mode", v["mode"],
            "--dims", ",".join(str(d) for d in v["dims"]),
            "--samples", str(v["n_samples"]),
            "--seed", str(v["seed"]),
            "--delta-max", repr(v["delta_max"]),
            "--bins", str(v["n_bins"]),
            "--workers", str(v["workers"]),
            "--k-analytic", str(v["k_analytic"]),
        ]


# Why each workload was chosen, and the verify criterion it mirrors, is
# in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pair-2x40",
            mode="pair",
            dims=(2, 40),
            n_samples=500,
            smoke_samples=60,
        ),
        Workload(
            name="triple-2x16x16",
            mode="triple",
            dims=(2, 16, 16),
            n_samples=700,
            smoke_samples=40,
        ),
        Workload(
            name="pair-24x24-w2",
            mode="pair",
            dims=(24, 24),
            n_samples=400,
            smoke_samples=40,
            workers=2,
        ),
    )
}


def program_seed(workload_name, bench_seed):
    """63-bit kronphase seed derived from (workload, benchmark seed)."""
    digest = hashlib.sha256(("%s:%d" % (workload_name, int(bench_seed))).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
