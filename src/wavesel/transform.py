"""Periodized pyramid filter bank for dyadic sample vectors.

``analyze_flat`` runs the decimating two-channel filter bank down to a
single approximation coefficient, with all boundary handling done by
index arithmetic modulo the current level length, so the transform
matrix is exactly orthogonal for any orthonormal scaling filter,
including levels shorter than the filter. ``synthesize_flat`` is the
exact transpose. Both work along the last axis, so any leading batch
axes are transformed in one call. Each level is one small matrix
product: the stride-2 windows of the wrap-padded level times the two
filters, and in synthesis the polyphase windows times the filters' even
and odd taps. Every leading index runs the same ``(windows, window
length) @ (window length, 2)`` product, so a batched call returns the
same floats, bit for bit, as one call per row. ``synthesize_prefixes``
synthesizes every dyadic prefix of the coefficients (each nested model's
fit) in one pass, with the same floats as ``synthesize_flat`` of each
truncation. ``analyze`` and ``synthesize`` wrap the flat kernels for a
single :class:`CoefficientTree`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "InvalidFilterError",
    "MalformedTreeError",
    "HAAR",
    "DB8",
    "get_filter",
    "validate_filter",
    "qmf",
    "CoefficientTree",
    "analyze",
    "synthesize",
    "analyze_flat",
    "synthesize_flat",
    "synthesize_prefixes",
    "flatten",
    "unflatten",
    "truncate_flat",
]


class InvalidFilterError(ValueError):
    """Scaling filter fails the orthonormality conditions."""


class MalformedTreeError(ValueError):
    """Coefficient tree with inconsistent level lengths."""


HAAR = np.array([1.0, 1.0]) / np.sqrt(2.0)

# Daubechies scaling filter with 8 vanishing moments (16 taps), obtained by
# spectral factorization of the Daubechies polynomial and Newton-polished to
# machine precision. Never trusted: every build re-validates the filter.
DB8 = np.array([
    5.4415842243099442e-02,
    3.1287159091428457e-01,
    6.7563073629727921e-01,
    5.8535468365422516e-01,
    -1.5829105256325152e-02,
    -2.8401554296155185e-01,
    4.7248457390039754e-04,
    1.2874742662048175e-01,
    -1.7369301001802746e-02,
    -4.4088253930796691e-02,
    1.3981027917397229e-02,
    8.7460940474064237e-03,
    -4.8703529934514996e-03,
    -3.9174037337704506e-04,
    6.7544940645057855e-04,
    -1.1747678412476704e-04,
])

_FILTERS = {"haar": HAAR, "db8": DB8}


def get_filter(name: str) -> np.ndarray:
    try:
        h = _FILTERS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown filter {name!r}; choose from {tuple(_FILTERS)}") from None
    validate_filter(h)
    return h


def validate_filter(h) -> np.ndarray:
    """Check sum(h) = sqrt(2) and double-shift orthonormality, to 1e-12."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or len(h) < 2 or len(h) % 2 != 0:
        raise InvalidFilterError("scaling filter must be 1-d with even length >= 2")
    if not abs(h.sum() - np.sqrt(2.0)) <= 1e-12:  # NaN fails too
        raise InvalidFilterError(f"sum of taps is {h.sum()!r}, not sqrt(2)")
    L = len(h)
    for m in range(L // 2):
        target = 1.0 if m == 0 else 0.0
        got = float(np.dot(h[2 * m:], h[: L - 2 * m]))
        if not abs(got - target) <= 1e-12:
            raise InvalidFilterError(f"double-shift orthonormality fails at shift {m}: {got!r}")
    return h


def qmf(h: np.ndarray) -> np.ndarray:
    """Quadrature mirror (detail) filter g_k = (-1)^k h_{L-1-k}."""
    h = np.asarray(h, dtype=float)
    signs = np.where(np.arange(len(h)) % 2 == 0, 1.0, -1.0)
    return signs * h[::-1]


@functools.lru_cache(maxsize=16)
def _validated_bank(key: bytes, shape: tuple) -> np.ndarray:
    # lru_cache stores no result when validate_filter raises, so an
    # invalid filter is checked (and rejected) again on every call
    h = validate_filter(np.frombuffer(key).reshape(shape))
    hg = np.stack([h, qmf(h)])
    hg.setflags(write=False)
    return hg


def _filter_bank(filt) -> np.ndarray:
    """Rows h (scaling) and g (detail) of a filter validated once per value."""
    h = np.asarray(filt, dtype=float)
    return _validated_bank(h.tobytes(), h.shape)


def _windows(rows: np.ndarray, length: int, step: int = 1) -> np.ndarray:
    """Read-only view of the length-``length`` windows along the last axis
    of rows, one starting every ``step`` entries: the view
    ``sliding_window_view(rows, length, axis=-1)[..., ::step, :]``, with
    its strides, built without its argument checks."""
    stride = rows.strides[-1]
    count = (rows.shape[-1] - length) // step + 1
    return as_strided(rows, rows.shape[:-1] + (count, length),
                      rows.strides[:-1] + (step * stride, stride), writeable=False)


def _analyze_step(a: np.ndarray, hg: np.ndarray):
    # window i of the wrap-padded level holds a[..., (2i + k) % n] for tap
    # k, so one product gives the (..., half, 2) approximation and detail
    n = a.shape[-1]
    taps = hg.shape[1]
    out = _windows(a[..., np.arange(n + taps - 2) % n], taps, 2) @ hg.T
    return out[..., 0], out[..., 1]


def _synthesize_step(rows: np.ndarray, detail, hg: np.ndarray) -> np.ndarray:
    # rows (..., k, half) -> (..., k, 2 * half). Tap 2m + r of input j adds
    # to output 2 * ((j + m) % half) + r, so output pair s reads inputs
    # (s - m) % half, m < taps / 2: window s of the rows left-wrapped by
    # taps / 2 - 1, times the even (r = 0) and odd (r = 1) taps in reverse.
    # The last row also adds ``detail``'s windows times the g taps, as a
    # second product. With no detail (None) that product is skipped: a zero
    # detail's product is zero, and adding it leaves the row's floats as
    # they are, so a prefix equals the synthesis of its truncation
    half = rows.shape[-1]
    m = hg.shape[1] // 2
    wrap = np.arange(1 - m, half) % half
    out = _windows(rows[..., wrap], m) @ hg[0].reshape(m, 2)[::-1]
    if detail is not None:
        out[..., -1, :, :] += _windows(detail[..., wrap], m) @ hg[1].reshape(m, 2)[::-1]
    return out.reshape(rows.shape[:-1] + (2 * half,))


@dataclass(frozen=True)
class CoefficientTree:
    """Pyramid coefficients: one approx value and details for levels 0..p-1."""

    approx: np.ndarray
    details: tuple
    n: int

    def __post_init__(self):
        if len(self.approx) != 1:
            raise MalformedTreeError("approx vector must have length 1")
        total = 1
        for j, d in enumerate(self.details):
            if len(d) != 2 ** j:
                raise MalformedTreeError(f"detail level {j} has length {len(d)}, expected {2 ** j}")
            total += len(d)
        if total != self.n:
            raise MalformedTreeError(f"coefficient count {total} != n = {self.n}")

    def energy(self) -> float:
        return float(self.approx[0] ** 2 + sum(float(np.dot(d, d)) for d in self.details))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "approx": [float(v) for v in self.approx],
            "details": [[float(v) for v in d] for d in self.details],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CoefficientTree":
        return cls(np.array(d["approx"], dtype=float),
                   tuple(np.array(v, dtype=float) for v in d["details"]),
                   int(d["n"]))


def _check_dyadic(n: int) -> int:
    p = int(n).bit_length() - 1
    if n < 2 or (1 << p) != n:
        raise ValueError(f"length {n} is not a power of two >= 2")
    return p


def analyze_flat(values, filt) -> np.ndarray:
    """Pyramid coefficients along the last axis, in :func:`flatten` order.

    ``values`` has shape ``(..., n)`` with n a power of two; every leading
    index is transformed independently.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[-1] if v.ndim else 0
    _check_dyadic(n)
    hg = _filter_bank(filt)
    out = np.empty_like(v)
    a = v
    while a.shape[-1] > 1:
        a, d = _analyze_step(a, hg)
        m = d.shape[-1]
        out[..., m:2 * m] = d
    out[..., :1] = a
    return out


def synthesize_flat(coeffs, filt) -> np.ndarray:
    """Exact inverse of :func:`analyze_flat` along the last axis."""
    c = np.asarray(coeffs, dtype=float)
    return synthesize_prefixes(c, (c.shape[-1] if c.ndim else 0,), filt)[..., 0, :]


def synthesize_prefixes(coeffs, dims, filt) -> np.ndarray:
    """Synthesis of each dyadic prefix of the coefficients, in one pass.

    ``coeffs`` has shape ``(..., n)`` and ``dims`` are strictly increasing
    powers of two up to n. Row i of the ``(..., len(dims), n)`` result is
    :func:`synthesize_flat` of ``coeffs`` with all but the leading
    ``dims[i]`` zeroed, bit for bit. The coarse chain is synthesized once;
    the prefix of dimension 2^J leaves it at level J, where its remaining
    details are zero, and is upsampled from there with the h taps alone.
    """
    c = np.asarray(coeffs, dtype=float)
    n = c.shape[-1] if c.ndim else 0
    p = _check_dyadic(n)
    levels = [int(d).bit_length() - 1 for d in dims]
    if (not levels or any(d < 1 or 1 << lv != d for lv, d in zip(levels, dims))
            or levels != sorted(set(levels)) or levels[-1] > p):
        raise ValueError(f"dims {list(dims)} are not strictly increasing powers of two <= {n}")
    hg = _filter_bank(filt)
    rows = c[..., None, :1]  # the last row is the chain while a later prefix needs it
    for j in range(p + 1):
        if j in levels[:-1]:
            # the chain's row stays behind as prefix j's, and a copy goes on
            rows = np.concatenate([rows, rows[..., -1:, :]], axis=-2)
        if j < p:
            detail = c[..., 1 << j:2 << j] if j < levels[-1] else None
            rows = _synthesize_step(rows, detail, hg)
    return rows


def analyze(values, filt) -> CoefficientTree:
    """Full periodized pyramid decomposition of a 2^p vector."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("analyze takes a 1-d vector; use analyze_flat for batches")
    return unflatten(analyze_flat(v, filt), len(v))


def synthesize(tree: CoefficientTree, filt) -> np.ndarray:
    """Exact inverse of :func:`analyze`."""
    return synthesize_flat(flatten(tree), filt)


def flatten(tree: CoefficientTree) -> np.ndarray:
    """Concatenate [approx, d_0, d_1, ...]; prefix 2^j spans the level-j model."""
    return np.concatenate([tree.approx] + list(tree.details))


def unflatten(coeffs, n: int) -> CoefficientTree:
    c = np.asarray(coeffs, dtype=float)
    if len(c) != n:
        raise MalformedTreeError(f"expected {n} coefficients, got {len(c)}")
    p = _check_dyadic(n)
    details = []
    pos = 1
    for j in range(p):
        details.append(c[pos: pos + 2 ** j])
        pos += 2 ** j
    return CoefficientTree(c[:1], tuple(details), n)


def truncate_flat(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Zero all coefficients beyond the leading ``dim`` (a dyadic prefix)
    along the last axis."""
    out = np.zeros_like(coeffs)
    out[..., :dim] = coeffs[..., :dim]
    return out
