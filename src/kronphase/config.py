"""Experiment configuration: validated dataclass plus flat key=value files.

Config files are plain text, one `key = value` pair per line, with `#`
comments and blank lines ignored.  Unknown keys are errors.  Units:
dims are matrix sizes; delta_max and arc lengths are in units of the
mean point spacing on the rescaled circle (whose circumference equals
the product of dims).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, fields

from . import kernels, processes, sampler
from .errors import CapacityError

# The paper's three regimes: each mode's factor count and the limit law of its
# rescaled process (runner.limit_law).  One factor gives the sine process,
# U (x) V with an m x m first factor the superposition of m sine processes,
# and three factors the Poisson process.
Mode = namedtuple("Mode", "factors law")
MODES = {"single": Mode(1, "sine_pair"), "pair": Mode(2, "superposed"), "triple": Mode(3, "poisson")}
# a run's reference curve: its mode's own law, or any law by name
CURVES = ("auto", *(mode.law for mode in MODES.values()))


def parse_int_list(text):
    """Integers separated by commas and/or whitespace, as a tuple.

    Raises ValueError on any part that is not an integer.
    """
    return tuple(int(p) for p in text.replace(",", " ").split())


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo campaign."""

    mode: str
    dims: tuple
    n_samples: int
    seed: int
    delta_max: float = 4.0
    n_bins: int = 40
    # Processes of a correlate, spacings or sweep run (runner.worker_ranges).
    workers: int = 1
    k_analytic: int = 2
    curve: str = "auto"

    def __post_init__(self):
        # Store every setting as the type its CONFIG_PARSERS entry yields,
        # which is the type the manifest records.
        for key, parse in CONFIG_PARSERS.items():
            value = getattr(self, key)
            if parse is int:
                value = kernels.as_int(key, value)
            elif parse is parse_int_list:
                value = tuple(kernels.as_int(key, v) for v in value)
            elif parse is float:
                value = kernels.as_float(key, value)
            object.__setattr__(self, key, value)
        if self.mode not in tuple(MODES):  # not a dict lookup: an unhashable mode is refused, not a TypeError
            raise ValueError("mode must be one of %s" % (tuple(MODES),))
        want = MODES[self.mode].factors
        if len(self.dims) != want:
            raise ValueError("mode %s needs %d dims, got %d" % (self.mode, want, len(self.dims)))
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        if self.factor_product < 2:
            raise ValueError("the configuration needs at least 2 points per sample")
        # sample_factor_phases' and tensor_phases' caps, read at call time, checked before any draw
        if max(self.dims) > sampler.DEFAULT_MAX_DIM:
            raise CapacityError("dims: n=%d exceeds max %d" % (max(self.dims), sampler.DEFAULT_MAX_DIM))
        if self.factor_product > processes.DEFAULT_TENSOR_CAPACITY:
            raise CapacityError("dims: %d points exceed capacity %d" % (self.factor_product, processes.DEFAULT_TENSOR_CAPACITY))
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        sampler.RngStream(self.seed)  # the seed range is RngStream's
        if not 0.0 < self.delta_max <= self.factor_product / 2:
            raise ValueError("delta_max must lie in (0, product(dims)/2]")
        if self.n_bins < 4:
            raise ValueError("n_bins must be >= 4")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 1 <= self.k_analytic <= kernels.DEFAULT_K_CAP:
            raise ValueError("k_analytic must lie in [1, %d]" % kernels.DEFAULT_K_CAP)
        if self.curve not in CURVES:
            raise ValueError("curve must be one of %s" % (CURVES,))

    @property
    def factor_product(self):
        return math.prod(self.dims)

    def to_dict(self):
        return dict(asdict(self), dims=list(self.dims))


# key -> value parser, one per ExperimentConfig field; the parsed values
# feed ExperimentConfig as-is, and the field is stored as the parser's type.
CONFIG_PARSERS = {
    "mode": str,
    "dims": parse_int_list,
    "n_samples": int,
    "seed": int,
    "delta_max": float,
    "n_bins": int,
    "workers": int,
    "k_analytic": int,
    "curve": str,
}

assert set(CONFIG_PARSERS) == {f.name for f in fields(ExperimentConfig)}


def parse_config_file(path):
    """Read a flat key = value config file into a keyword dict.

    Raises ValueError on unknown keys, duplicate keys, or malformed
    lines or values.
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected 'key = value'" % (path, lineno))
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_PARSERS:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            if key in out:
                raise ValueError("%s:%d: duplicate key %r" % (path, lineno, key))
            try:
                out[key] = CONFIG_PARSERS[key](value)
            except ValueError as exc:
                raise ValueError("%s:%d: bad value for %s: %s" % (path, lineno, key, exc))
    return out


def build_config(file_values=None, overrides=None):
    """Merge config-file values and explicit overrides into a config.

    Overrides with value None are ignored, so CLI flags that were not
    given fall through to file values and then to dataclass defaults.
    """
    merged = dict(file_values or {})
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in CONFIG_PARSERS:
            raise ValueError("unknown config key %r" % key)
        merged[key] = value
    missing = [k for k in ("mode", "dims", "n_samples", "seed") if k not in merged]
    if missing:
        raise ValueError("missing required config keys: %s" % ", ".join(missing))
    return ExperimentConfig(**merged)
