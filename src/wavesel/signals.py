"""Test signals, heteroscedastic noise scenarios and sample generation.

The four built-in regression functions (Wave, HeaviSine, Doppler, Spikes)
use the standard simulation-benchmark formulas, and the built-in noise
scenarios are the low/high, homoscedastic/heteroscedastic levels
l1, l2, h1, h2. Samples are drawn with a counter-based generator
(Philox) so replications can be seeded independently of execution order.
A block of seeds is drawn at once (``_draw_block``): one Philox stream per
seed, then one sort along the last axis and one evaluation of the signal
and of the noise level for the whole block, so each row holds the floats
of its seed drawn alone; :func:`generate` is the block of one seed.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bases import reference_grid

__all__ = [
    "TestSignal",
    "NoiseScenario",
    "SampleMeta",
    "RegressionSample",
    "SampleBlock",
    "SIGNAL_NAMES",
    "NOISE_NAMES",
    "get_signal",
    "get_noise",
    "eval_signal",
    "benchmark_scale",
    "benchmark_signal",
    "generate",
    "derive_seed",
]

_U64 = (1 << 64) - 1

# float64 elements of working memory one block of replications may hold
# (3.25 MiB); the bench and the concentration runs each divide it by their
# measured charge per replication
_BLOCK_ELEMENTS = 13 << 15

_SPIKE_HEIGHTS = np.array([2.25, 2.25, 2.25, 2.25, 2.25])
_SPIKE_CENTERS = np.array([0.2, 0.35, 0.48, 0.6, 0.8])
_SPIKE_WIDTHS = np.array([0.03, 0.015, 0.008, 0.005, 0.012])


def _wave(x):
    x = np.asarray(x, dtype=float)
    return 0.5 + 0.2 * np.cos(4 * np.pi * x) + 0.1 * np.cos(24 * np.pi * x)


def _heavisine(x):
    x = np.asarray(x, dtype=float)
    return 4.0 * np.sin(4 * np.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x)


def _doppler(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt(x * (1.0 - x)) * np.sin(2 * np.pi * 1.05 / (x + 0.05))


def _spikes(x):
    x = np.asarray(x, dtype=float)
    # one spike at a time over all of x, added in the order of a sum along
    # a leading axis of spikes; a scalar goes through the array exp as a
    # vector of one, since the scalar exp may round differently
    values = np.atleast_1d(x)
    out = np.zeros(values.shape)
    for height, center, width in zip(_SPIKE_HEIGHTS, _SPIKE_CENTERS, _SPIKE_WIDTHS):
        out += height * np.exp(-0.5 * ((values - center) / width) ** 2)
    return out.reshape(x.shape)


@dataclass(frozen=True)
class TestSignal:
    """A regression function on [0, 1]."""

    __test__ = False  # not a pytest collectable despite the name

    name: str
    eval: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return eval_signal(self, x)


@dataclass(frozen=True)
class NoiseScenario:
    """A nonnegative noise-level function sigma on [0, 1]."""

    name: str
    sigma: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.broadcast_to(np.asarray(self.sigma(arr), dtype=float), arr.shape)
        return float(out) if arr.ndim == 0 else np.array(out)


_SIGNALS = {
    "wave": TestSignal("Wave", _wave),                 # smooth, two cosine frequencies
    "heavisine": TestSignal("HeaviSine", _heavisine),  # smooth with two jumps
    "doppler": TestSignal("Doppler", _doppler),        # chirp, spatially inhomogeneous
    "spikes": TestSignal("Spikes", _spikes),           # five narrow Gaussian peaks
}

_NOISES = {
    "l1": NoiseScenario("l1", lambda x: np.full_like(np.asarray(x, dtype=float), 0.01)),
    "l2": NoiseScenario("l2", lambda x: 0.02 * np.asarray(x, dtype=float)),
    "h1": NoiseScenario("h1", lambda x: np.full_like(np.asarray(x, dtype=float), 0.05)),
    "h2": NoiseScenario("h2", lambda x: 0.1 * np.asarray(x, dtype=float)),
}

SIGNAL_NAMES = tuple(_SIGNALS)
NOISE_NAMES = tuple(_NOISES)


def get_signal(name: str) -> TestSignal:
    try:
        return _SIGNALS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown signal {name!r}; choose from {SIGNAL_NAMES}") from None


def get_noise(name: str) -> NoiseScenario:
    try:
        return _NOISES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown noise scenario {name!r}; choose from {NOISE_NAMES}") from None


def eval_signal(signal: TestSignal, x):
    """Evaluate ``signal`` at ``x`` in [0, 1] (scalar or array)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"signal argument outside [0, 1]: {x!r}")
    out = np.asarray(signal.eval(arr), dtype=float)
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class SampleMeta:
    signal: str
    noise: str
    n: int
    seed: int

    def to_dict(self) -> dict:
        return {"signal": self.signal, "noise": self.noise, "n": self.n, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "SampleMeta":
        return cls(str(d["signal"]), str(d["noise"]), int(d["n"]), int(d["seed"]))


@dataclass(frozen=True)
class RegressionSample:
    """Design/response pairs with x sorted strictly increasing.

    Every loader builds through this constructor, which raises ValueError
    unless x and y are 1-d arrays of one length with at least two
    points, all finite, and x lies in [0, 1] and strictly increases: the
    rank-ordered fits and the folds read the sample in x order.
    """

    x: np.ndarray
    y: np.ndarray
    meta: SampleMeta

    def __post_init__(self):
        x, y = self.x, self.y
        if x.ndim != 1 or y.shape != x.shape:
            raise ValueError(f"x and y must be 1-d arrays of one length, "
                             f"got shapes {x.shape} and {y.shape}")
        if len(x) < 2:
            raise ValueError(f"need at least 2 points, got {len(x)}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("x and y must be finite")
        if not (x[1:] > x[:-1]).all():
            raise ValueError("x must be strictly increasing; sort x and y jointly")
        if x[0] < 0.0 or x[-1] > 1.0:
            raise ValueError(f"x must lie in [0, 1], got [{float(x[0])!r}, {float(x[-1])!r}]")

    @property
    def n(self) -> int:
        return len(self.x)

    def to_csv(self) -> str:
        lines = ["# wavesel-sample schema=1"]
        lines.append("# meta: " + json.dumps(self.meta.to_dict(), sort_keys=True))
        lines.append("x,y")
        for xi, yi in zip(self.x, self.y):
            lines.append(f"{float(xi)!r},{float(yi)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "RegressionSample":
        meta = None
        xs, ys = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# meta:"):
                    meta = SampleMeta.from_dict(json.loads(line[len("# meta:"):]))
                continue
            if line.startswith("x,"):
                continue
            sx, sy = line.split(",")
            xs.append(float(sx))
            ys.append(float(sy))
        if meta is None:
            meta = SampleMeta("custom", "custom", len(xs), 0)
        return cls(np.array(xs), np.array(ys), meta)

    def to_json(self) -> str:
        doc = {
            "schema_version": 1,
            "kind": "sample",
            "meta": self.meta.to_dict(),
            "x": [float(v) for v in self.x],
            "y": [float(v) for v in self.y],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RegressionSample":
        doc = json.loads(text)
        return cls(np.array(doc["x"], dtype=float), np.array(doc["y"], dtype=float),
                   SampleMeta.from_dict(doc["meta"]))


@functools.lru_cache(maxsize=None)
def benchmark_scale(name: str) -> float:
    """Multiplier bringing a built-in signal to Wave's range.

    The benchmark suite runs all four signals at a common amplitude so
    the shared noise grid (0.01 to 0.1) probes comparable signal-to-noise
    ratios; Wave is the reference and keeps scale 1. Ranges are measured
    on the 2^14 midpoint grid.
    """
    grid = reference_grid()
    ref_vals = _SIGNALS["wave"].eval(grid)
    vals = get_signal(name).eval(grid)
    spread = float(vals.max() - vals.min())
    if spread == 0.0:
        return 1.0
    return float(ref_vals.max() - ref_vals.min()) / spread


def benchmark_signal(name: str) -> TestSignal:
    """The built-in signal rescaled to the common benchmark amplitude."""
    base = get_signal(name)
    c = benchmark_scale(name)
    return TestSignal(base.name, lambda x: c * np.asarray(base.eval(x), dtype=float))


def derive_seed(base_seed: int, index: int) -> int:
    """Derive the per-replication seed: mix(base_seed, index) via SeedSequence.

    Replications seeded this way are independent of the order in which
    they run, which keeps parallel harnesses deterministic.
    """
    ss = np.random.SeedSequence((int(base_seed) & _U64, int(index) & _U64))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed) & _U64)))


def generate(signal: TestSignal, noise: NoiseScenario, n: int, seed: int) -> RegressionSample:
    """Draw a sample y_i = s(x_i) + sigma(x_i) eps_i with uniform design.

    x_i are i.i.d. Uniform[0,1] sorted ascending (the eps_i permuted
    jointly, so the pairing is preserved), eps_i i.i.d. standard normal
    independent of the design. Identical arguments give bit-identical
    output.
    """
    block = _draw_block(signal, noise, n, (seed,))
    return RegressionSample(block.x[0], block.y[0],
                            SampleMeta(signal.name.lower(), noise.name.lower(), n, int(seed)))


class SampleBlock(NamedTuple):
    """The ``(seeds, n)`` designs, responses and signal values of a block
    of samples; the selection layer reads ``x`` and ``y`` as it reads a
    :class:`RegressionSample`'s."""
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray


def _draw_block(signal: TestSignal, noise: NoiseScenario, n: int, seeds) -> SampleBlock:
    """The :class:`SampleBlock` of the read-only designs and responses of
    :func:`generate` at each seed, and of the signal's values at the designs.

    Each seed keeps its own Philox stream. The block makes one sort along
    the last axis, one evaluation of the signal and one of sigma; every step
    is per row or elementwise, so row i holds seed i's sample bit for bit
    whatever else the block holds.
    """
    u = np.empty((len(seeds), n))
    eps = np.empty_like(u)
    for row, seed in enumerate(seeds):
        rng = _rng(seed)
        u[row] = rng.random(n)
        eps[row] = rng.standard_normal(n)
    # distinct keys have exactly one sorting permutation, so any sort pairs
    # x and eps as the stable sort does; only a tie needs the stable sort
    order = np.argsort(u, axis=-1)
    x = np.take_along_axis(u, order, axis=-1)
    for row in np.flatnonzero(np.any(x[:, 1:] == x[:, :-1], axis=-1)):
        order[row] = np.argsort(u[row], kind="stable")
        xr = x[row]
        xr[:] = u[row, order[row]]
        # ties are a probability-zero event; nudge upward by one ulp to keep
        # the design strictly increasing without changing the joint pairing
        for i in range(1, n):
            if xr[i] <= xr[i - 1]:
                xr[i] = np.nextafter(xr[i - 1], 1.0)
    eps = np.take_along_axis(eps, order, axis=-1)
    values = eval_signal(signal, x)
    y = values + np.asarray(noise.sigma(x), dtype=float) * eps
    x.setflags(write=False)
    y.setflags(write=False)
    return SampleBlock(x, y, values)
