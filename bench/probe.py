"""Host-speed probe: a fixed piece of numpy work, timed.

The benchmark host is shared, and its speed drifts by tens of percent
over tens of seconds: a fixed numpy loop ran between 0.78 and 1.39 of its
median time within one minute, with CPU time tracking wall time, so the
cause is contention for the physical cores rather than lost time
slices.  Each command is bracketed by two probes, and the end-to-end
times are scaled to the host speed at which the probe takes
PROBE_REFERENCE_S.  The probe imports nothing from kronphase, so no
change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time at the reference host speed (about its time on a quiet
# 2-core host); scaling by probe time / this constant keeps the scaled
# figures near the raw ones.
PROBE_REFERENCE_S = 0.1
PROBE_ITERATIONS = 150


def probe_seconds():
    """Wall time of a fixed mix of small QR, eigvals, sort and histogram calls."""
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        z = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        q, _ = np.linalg.qr(z)
        w = np.angle(np.linalg.eigvals(q))
        w.sort()
        np.histogram(np.diff(w), bins=10)
    return time.perf_counter() - t0
