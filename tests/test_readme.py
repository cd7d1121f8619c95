"""The README's library example runs, and its block path gives the
histogram of the per-configuration functions bit for bit."""

import os
import re

import numpy as np

from kronphase import (
    RngStream,
    estimate_pair_correlation,
    rescale_center,
    rho_superposed_pair,
    sample_cue_phases,
    tensor_phases,
)

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def library_example():
    text = open(README, encoding="utf-8").read()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_matches_the_per_configuration_path():
    scope = {}
    exec(library_example(), scope)
    hist = scope["hist"]
    configs = []
    for s in range(200):
        gen = RngStream(seed=7, stream_id=s).generator()
        a = sample_cue_phases(2, gen)
        b = sample_cue_phases(40, gen)
        configs.append(rescale_center(tensor_phases(a, b), 80))
    want = estimate_pair_correlation(configs, delta_max=4.0, n_bins=40)
    for field in ("bin_edges", "batch_counts", "batch_samples", "counts", "estimate"):
        assert np.array_equal(getattr(hist, field), getattr(want, field)), field
    assert hist.circumference == want.circumference
    assert np.array_equal(scope["target"], rho_superposed_pair(2, want.bin_midpoints()))
