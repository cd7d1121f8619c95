"""One benchmark command in a fresh process.

Usage: python3 child.py ROOT WORKLOAD SEED SAMPLES WORKERS OUT_DIR TRACE RECOUNT

Imports kronphase from ROOT/src, warms up with a 2-sample run of the
same command, then either runs the command once through
`kronphase.cli.main` (TRACE = 0) or runs the traced pipeline (TRACE = 1).
With RECOUNT = 1 a traced run also recounts the triple windows of every
configuration by brute force, after the timed region.
Prints one JSON line: the CLOCK_MONOTONIC time at which set-up ended,
the command's wall time, the host-speed probe times just before and
after it, the process's peak resident memory, and for a traced run the
per-layer self times and counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def main(argv):
    root, name, seed, n_samples, workers, out_dir, trace, recount = argv
    seed, n_samples, workers, trace, recount = int(seed), int(n_samples), int(workers), int(trace), int(recount)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import kronphase
    from kronphase import cli

    if not os.path.abspath(kronphase.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("kronphase was imported from %s, not from %s" % (kronphase.__file__, src))
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(wl.argv(seed, 2, workers) + ["--out", out_dir + ".warmup"])
    if rc != 0:
        raise SystemExit("warm-up command exited with %d" % rc)
    if trace:
        import checks
        from kronphase.config import build_config
        from tracing import Tracer, traced_correlate

    from probe import probe_seconds

    ready = time.monotonic()
    result = {"ready_monotonic": ready, "probe_before_s": probe_seconds()}
    if not trace:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(wl.argv(seed, n_samples, workers) + ["--out", out_dir])
        result["wall_s"] = time.perf_counter() - t0
        result["probe_after_s"] = probe_seconds()
        result["exit_code"] = rc
    else:
        cfg = build_config(None, wl.config_values(seed, n_samples, workers))
        tr = Tracer()
        t0 = time.perf_counter()
        summary, triples, kept = traced_correlate(cfg, out_dir, tr, keep_configs=recount)
        result["wall_s"] = time.perf_counter() - t0
        result["probe_after_s"] = probe_seconds()
        result["exit_code"] = 0
        result["layer_s"] = tr.self_times()
        result["counts"] = tr.counts
        result["summary"] = summary
        if recount:
            from kronphase import estimators, runner

            result["triple_recounted"] = len(kept)
            result["triple_recount_mismatches"] = sum(
                checks.triple_windows_brute(
                    c.points, c.circumference, runner.TRIPLE_R1, runner.TRIPLE_R2, estimators.DEFAULT_TRIPLE_TOL
                )
                != triples[s]
                for s, c in kept
            )
        tr.write(os.path.join(out_dir, "spans.json"))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
