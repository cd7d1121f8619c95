"""In-memory span tracer and the traced `correlate` pipeline.

The traced pipeline does the work of one `kronphase correlate` command
by calling each layer's public functions from here, with a span around
every call.  It must write the same pair and count-variance tables and
the same run summary as the command, which shows it did the same work.
The spans stay in memory and are written out once the run has ended.
"""

from __future__ import annotations

import datetime
import json
import os
import time

from kronphase import __version__, estimators, gof, output, processes, runner, sampler
from kronphase.combinatorics import rho_superposed_sine
from kronphase.kernels import rho_sine


class Tracer:
    """Spans (name, parent, start, end) and work counters, kept in memory."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = {}
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[sid] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def self_times(self):
        """Seconds per span name, each span less the time its children cover."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[sid]
        out = {}
        for sid, name in enumerate(self.names):
            out[name] = out.get(name, 0.0) + dur[sid] - child[sid]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start", "end"],
                    "spans": list(zip(self.names, self.parents, self.starts, self.ends)),
                    "counts": self.counts,
                },
                fh,
            )


def _utc_now():
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()


def _stream(seed, s):
    return sampler.RngStream(seed, s).generator()


def _traced_sample(cfg, s, tr):
    gen = tr.call("sampler.stream", _stream, cfg.seed, s)
    phases = []
    for n in cfg.dims:
        u = tr.call("sampler.haar", sampler.sample_haar_unitary, n, gen)
        phases.append(tr.call("sampler.eigenphases", sampler.eigenphases, u))
    tr.count("sampler.matrices", len(phases))
    if cfg.mode == "pair":
        phases = tr.call("processes.tensor", processes.tensor_phases, *phases)
    elif cfg.mode == "triple":
        phases = tr.call("processes.tensor", processes.triple_tensor, *phases)
    else:
        phases = phases[0]
    rc = tr.call("processes.rescale", processes.rescale_center, phases, cfg.factor_product)
    tr.count("processes.points", len(rc))
    return rc


def traced_correlate(cfg, out_dir, tr, keep_configs=False):
    """The `correlate` command's work, layer by layer, inside spans.

    Samples are split over the configured worker count exactly as the
    runner splits them, but the parts run one after another in this
    thread.  Returns (summary, per-sample triple counts, kept configs).
    """
    started = _utc_now()
    n = int(cfg.n_samples)
    L = float(cfg.factor_product)
    tol = estimators.DEFAULT_TRIPLE_TOL
    lengths = tuple(ell for ell in runner.COUNT_LENGTHS if ell <= L / 2)
    want_triple = cfg.k_analytic >= 3 and L >= 4 * (runner.TRIPLE_R2 + tol)
    n_workers = min(int(cfg.workers), n)
    chunks = [list(range(w, n, n_workers)) for w in range(n_workers)]

    hist = None
    gaps = [None] * n
    counts = [None] * n
    triples = [0] * n
    kept = []
    npoints = 0
    for idx in chunks:
        configs = [_traced_sample(cfg, s, tr) for s in idx]
        part = tr.call(
            "estimators.pair_hist", estimators.estimate_pair_correlation,
            configs, cfg.delta_max, cfg.n_bins, sample_indices=idx, n_samples_total=n,
        )
        hist = part if hist is None else tr.call("estimators.pair_hist", estimators.merge, hist, part)
        for s, c in zip(idx, configs):
            npoints += len(c)
            gaps[s] = tr.call("estimators.gaps", estimators.circular_gaps, c)
            if lengths:
                counts[s] = tr.call(
                    "estimators.arc_counts", estimators.interval_counts,
                    c, lengths, n_offsets=runner.DEFAULT_COUNT_OFFSETS,
                )
            if want_triple:
                triples[s] = tr.call(
                    "estimators.triple", estimators.triple_window_count,
                    c, runner.TRIPLE_R1, runner.TRIPLE_R2, tol,
                )
        if keep_configs:
            kept.extend(zip(idx, configs))
    tr.count("estimators.pairs_binned", int(hist.counts.sum()))
    tr.count("estimators.triples_counted", sum(triples))

    spacings = tr.call("estimators.spacing_pool", estimators.spacing_histogram_from_gaps, gaps, n_bins=cfg.n_bins)
    tr.count("estimators.spacings_pooled", spacings.n_spacings)
    # Exact integer arc-count moments, reduced as the runner reduces them.
    count_var = []
    m = n * int(runner.DEFAULT_COUNT_OFFSETS)
    for i, ell in enumerate(lengths):
        s1 = sum(int(counts[s][i].sum()) for s in range(n))
        s2 = sum(int((counts[s][i] * counts[s][i]).sum()) for s in range(n))
        count_var.append((float(ell), float((s2 - (s1 * s1) / m) / (m - 1))))

    curve_name, curve = runner.target_curve(cfg)

    def target(d):
        return tr.call("combinatorics.target", curve, d)

    comparison = tr.call("gof.compare", gof.compare_to_curve, hist, target)
    summary = {
        "intensity": float(npoints / (n * L)),
        "curve": curve_name,
        "pair_rms_dev": comparison.rms_dev,
        "pair_max_abs_dev": comparison.max_abs_dev,
        "pair_bins_over_4sigma": comparison.n_bins_over_4sigma,
        "count_variance": [[ell, var] for ell, var in count_var],
        "spacings_skipped": spacings.n_skipped,
    }
    if spacings.n_spacings >= 100:
        ks = tr.call("gof.ks", gof.ks_against_exponential, spacings)
        summary.update(ks_d=ks.d_statistic, ks_n=ks.n, ks_threshold_05=ks.threshold_05, ks_pass=ks.passed)
    if want_triple:
        pts3 = [0.0, runner.TRIPLE_R1, runner.TRIPLE_R2]
        if cfg.mode == "single":
            tgt3 = tr.call("combinatorics.target", rho_sine, pts3)
        elif cfg.mode == "pair":
            tgt3 = tr.call("combinatorics.target", rho_superposed_sine, cfg.dims[0], pts3)
        else:
            tgt3 = 1.0
        summary.update(
            triple_estimate=sum(triples) / (n * L * tol ** 2),
            triple_gaps=[runner.TRIPLE_R1, runner.TRIPLE_R2],
            triple_tol=tol,
            triple_target=float(tgt3),
        )

    tr.call("output.write", _write_outputs, cfg, out_dir, hist, target, count_var, summary, started, n_workers, chunks)
    return summary, triples, kept


def _write_outputs(cfg, out_dir, hist, target, count_var, summary, started, n_workers, chunks):
    os.makedirs(out_dir, exist_ok=True)
    preamble = {"seed": int(cfg.seed), "dims": "x".join(str(d) for d in cfg.dims), "n_samples": int(cfg.n_samples)}
    se = hist.standard_errors()
    mids = hist.bin_midpoints()
    rows = [
        (float(mids[i]), float(hist.estimate[i]), float(se[i]), float(target(mids[i])), float(hist.counts[i]))
        for i in range(hist.n_bins)
    ]
    output.write_csv(
        os.path.join(out_dir, "pair_correlation.csv"), preamble,
        ("delta", "estimate", "std_error", "target", "ordered_pair_count"), rows,
    )
    outputs = ["pair_correlation.csv"]
    if count_var:
        output.write_csv(
            os.path.join(out_dir, "count_variance.csv"), preamble,
            ("length", "variance", "poisson_variance"), [(ell, var, ell) for ell, var in count_var],
        )
        outputs.append("count_variance.csv")
    manifest = runner.RunManifest(
        config=cfg.to_dict(),
        version=__version__,
        started_utc=started,
        finished_utc=_utc_now(),
        stream_policy=runner.STREAM_POLICY,
        worker_streams=tuple(
            {"worker": w, "first_stream_id": w, "stride": n_workers, "count": len(chunks[w])}
            for w in range(n_workers)
        ),
        outputs=tuple(outputs),
        summary=summary,
    )
    output.write_manifest(os.path.join(out_dir, "manifest.json"), manifest.to_dict())
