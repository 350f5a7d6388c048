"""Orthonormal basis families and strong-localization certification.

Three families are provided: the weighted Haar basis (orthonormal under a
design density bounded below), periodized compactly supported wavelets
(orthonormal under Lebesgue on [0, 1]) and per-cell Legendre polynomials
on a partition (histograms for degree 0). Smooth wavelet atoms are
represented by their exact discrete counterparts on a fixed dyadic
reference grid of 2^14 midpoints, which makes every quadrature Gram
computation on that grid exactly orthonormal; this is the documented
pointwise approximation for smooth atoms (piecewise-constant atoms are
exact everywhere).

``certify_slb`` measures the minimal constants for the three
strong-localization inequalities (scale budget, per-scale sup-norm bound,
support-overlap bound) and reports per-inequality slack; failures are
reported in the certificate, never raised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import transform

__all__ = [
    "GRID_LEVEL",
    "N_GRID",
    "reference_grid",
    "DegenerateCellError",
    "LowerRegularityError",
    "Model",
    "WaveletModel",
    "HaarWeightedModel",
    "PiecewisePolyModel",
    "build_haar_weighted",
    "build_periodized_wavelet",
    "build_piecewise_poly",
    "build_histogram",
    "SlbProposal",
    "SlbCertificate",
    "certify_slb",
    "localized_bound_check",
    "adaptive_simpson",
]

GRID_LEVEL = 14
N_GRID = 1 << GRID_LEVEL
# how far a design density's total mass may sit from 1: far above the
# 2e-10 error of the two adaptive_simpson integrals that measure it
_MASS_TOL = 1e-8


class DegenerateCellError(ValueError):
    """A dyadic half-cell carries almost no design mass at the requested depth."""


class LowerRegularityError(ValueError):
    """A partition cell has nonpositive reference measure."""


@lru_cache(maxsize=1)
def reference_grid() -> np.ndarray:
    """Midpoints (i + 1/2)/2^14; midpoints never hit dyadic cell boundaries."""
    g = (np.arange(N_GRID) + 0.5) / N_GRID
    g.setflags(write=False)
    return g


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson quadrature with absolute tolerance 1e-10 and at
    most 40 levels of bisection. A NaN or infinite value of f raises
    ValueError: it fails every tolerance test, so the bisection would
    never stop short of its last level."""

    def value(x):
        v = float(f(x))
        if not np.isfinite(v):
            raise ValueError(f"integrand is {v!r} at x = {x!r}")
        return v

    def simpson(lo, flo, hi, fhi, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, flo, hi, fhi, fmid, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = value(lmid)
        frm = value(rmid)
        left = simpson(lo, flo, mid, fmid, flm)
        right = simpson(mid, fmid, hi, fhi, frm)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, flo, mid, fmid, flm, left, eps / 2.0, depth - 1)
                + recurse(mid, fmid, hi, fhi, frm, right, eps / 2.0, depth - 1))

    fa, fb = value(a), value(b)
    fm = value(0.5 * (a + b))
    whole = simpson(a, fa, b, fb, fm)
    return recurse(a, fa, b, fb, fm, whole, 1e-10, 40)


class Model:
    """A finite-dimensional function space with an explicit orthonormal basis.

    Subclasses provide ``_atoms(x)``, the atoms at points x of [0, 1], and
    the natural scale assignment used by "auto" certification. A model
    whose every atom is constant on each of a partition's cells gives
    ``cells`` and ``table`` instead of ``_atoms``, so evaluation is a gather
    and fits and integrals read per-cell sums, not arrays of atom values.
    """

    dim: int
    # (cells, dim) atom values on each cell: row ``cells(x)[i]`` holds the
    # atoms at x[i]; None when the atoms are not constant on cells
    table: Optional[np.ndarray] = None

    # -- evaluation ----------------------------------------------------
    def design_matrix(self, x: np.ndarray) -> np.ndarray:
        """Design matrix of a least-squares fit at the design x."""
        return self.basis_matrix(x)

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        """Atom values at the points ``x``: shape (len(x), dim). Points
        outside [0, 1], and NaN, meet no atom: their rows are zero."""
        x = np.asarray(x, dtype=float)
        outside = ~((x >= 0.0) & (x <= 1.0))
        x = np.where(outside, 0.0, x)
        out = self._atoms(x) if self.table is None else self.table[self.cells(x)]
        out[outside] = 0.0
        return out

    def cells(self, x: np.ndarray) -> np.ndarray:
        """Index of the cell of ``table`` holding each point of [0, 1]."""
        raise NotImplementedError

    @cached_property
    def grid_cells(self) -> np.ndarray:
        """``cells`` of the reference grid, so row ``grid_cells[i]`` of
        ``table`` holds the atoms at grid point i."""
        out = self.cells(reference_grid())
        out.setflags(write=False)
        return out

    def grid_atoms(self) -> np.ndarray:
        """Atom values on the reference grid: shape (dim, N_GRID), built once."""
        return self._grid_atoms

    @cached_property
    def _grid_atoms(self) -> np.ndarray:
        return self.basis_matrix(reference_grid()).T

    def density_on_grid(self) -> Optional[np.ndarray]:
        """Reference density values on the grid, or None for Lebesgue."""
        return None

    # -- certification inputs -------------------------------------------
    def sup_norms(self) -> np.ndarray:
        atoms = self.grid_atoms().T if self.table is None else self.table
        return np.max(np.abs(atoms), axis=0)

    def support_masks(self) -> np.ndarray:
        """Boolean (dim, N_GRID) masks of the recorded atom supports."""
        atoms = self.grid_atoms()
        tol = 1e-9 * np.max(np.abs(atoms), axis=1, keepdims=True)
        mask = np.abs(atoms) > tol
        # bridge isolated sign-change zeros so each support is a union of
        # clean (possibly wrapped) intervals
        grown = mask | np.roll(mask, 1, axis=1) & np.roll(mask, -1, axis=1)
        return grown

    def auto_scales(self):
        """Return (labels, A): per-atom scale index and increasing scale sizes."""
        raise NotImplementedError

    def gram_quadrature(self) -> np.ndarray:
        """Gram matrix of the atoms under the reference measure."""
        atoms = self.grid_atoms()
        w = self.density_on_grid()
        if w is None:
            return (atoms @ atoms.T) / N_GRID
        return (atoms * w) @ atoms.T / N_GRID


def _wavelet_scales(j_max: int):
    labels = np.zeros(1 << (j_max + 1), dtype=int)
    a_values = [1.0]
    pos = 1
    for j in range(j_max + 1):
        labels[pos: pos + (1 << j)] = j + 1
        a_values.append(float(1 << j))
        pos += 1 << j
    return labels, np.array(a_values)


class WaveletModel(Model):
    """Periodized compactly supported wavelet model of dimension 2^(j_max+1).

    Atoms live on the reference grid as the exact orthonormal columns of
    the discrete periodized pyramid, scaled by 2^(GRID_LEVEL/2) so they
    carry unit L2 norm under the grid measure.
    """

    def __init__(self, filt, j_max: int):
        if j_max < 0:
            raise ValueError("j_max must be >= 0")
        self.h = transform.validate_filter(filt)
        self.j_max = int(j_max)
        self.dim = 1 << (self.j_max + 1)

    def _discrete_atoms(self, n: int) -> np.ndarray:
        """The (dim, n) discrete pyramid atoms at dyadic n, scaled by sqrt(n)."""
        atoms = transform.synthesize_flat(np.eye(self.dim, n), self.h)
        atoms *= float(np.sqrt(n))
        return atoms

    @cached_property
    def _grid_atoms(self) -> np.ndarray:
        # checked here, not at build: pyramid fits never read the grid
        if self.dim > N_GRID:
            raise ValueError("model resolution exceeds the reference grid")
        return self._discrete_atoms(N_GRID)

    def design_matrix(self, x: np.ndarray) -> np.ndarray:
        """On an equispaced dyadic design of n >= dim points (midpoints or
        left points) the discrete atoms, whose empirical Gram is the
        identity, so the fit is the pyramid's; elsewhere the atom values."""
        x = np.asarray(x, dtype=float)
        n = len(x)
        if n >= self.dim and not n & (n - 1) and (
                np.array_equal(x, (np.arange(n) + 0.5) / n) or np.array_equal(x, np.arange(n) / n)):
            # C order: BLAS may round the Gram products differently by layout
            return np.ascontiguousarray(self._discrete_atoms(n).T)
        return self.basis_matrix(x)

    def _atoms(self, x: np.ndarray) -> np.ndarray:
        """The atoms at the grid point of x's grid cell."""
        idx = np.minimum((x * N_GRID).astype(int), N_GRID - 1)
        return self.grid_atoms()[:, idx].T

    def auto_scales(self):
        return _wavelet_scales(self.j_max)


class HaarWeightedModel(Model):
    """Haar-type basis orthonormal under a design density bounded below.

    Atom at level j, position k reweights the two halves of the dyadic
    cell by the design mass p-/p+ each half carries, so no periodization
    is needed and any density with a positive lower bound is allowed; a
    ``density`` must come with that bound as a positive ``c_min``, which
    the density may not fall below on the reference grid.
    """

    def __init__(self, j_max: int, density: Optional[Callable] = None,
                 c_min: Optional[float] = None):
        if j_max < 0:
            raise ValueError("j_max must be >= 0")
        if (1 << (j_max + 1)) > N_GRID:
            raise ValueError("model resolution exceeds the reference grid")
        self.j_max = int(j_max)
        self.dim = 1 << (self.j_max + 1)
        self.density = density
        if density is not None:
            if c_min is None or c_min <= 0:
                raise ValueError("a positive density lower bound c_min is required")
            low = float(np.min(self.density_on_grid()))
            if not low >= c_min:  # a NaN minimum is refused too
                raise ValueError(f"density falls to {low!r} on the reference grid, "
                                 f"below c_min = {c_min!r}")
        cl, cr = [1.0], [0.0]  # father atom
        p_plus, p_minus = [np.nan], [np.nan]
        for j in range(self.j_max + 1):
            width = 0.5 ** (j + 1)
            for k in range(1 << j):
                a = (k) * 2.0 * width
                m = a + width
                b = m + width
                if density is None:
                    pm = pp = width
                else:
                    pm = adaptive_simpson(density, a, m)
                    pp = adaptive_simpson(density, m, b)
                if min(pm, pp) < 1e-12:
                    raise DegenerateCellError(
                        f"half-cell mass {min(pm, pp):.3e} at level {j}, position {k + 1}; "
                        "density too concentrated for the requested depth")
                norm = 1.0 / np.sqrt(pp * pp * pm + pm * pm * pp)
                cl.append(norm * pp)
                cr.append(-norm * pm)
                p_minus.append(pm)
                p_plus.append(pp)
        # the father atom, the constant 1, has unit norm only under a probability
        # density; p_minus[1] + p_plus[1] is the density's total mass
        mass = p_minus[1] + p_plus[1]
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValueError(f"density has total mass {mass!r} on [0, 1], not 1")
        self._cl = np.array(cl)
        self._cr = np.array(cr)
        self.p_plus = np.array(p_plus)
        self.p_minus = np.array(p_minus)

    def cells(self, x: np.ndarray) -> np.ndarray:
        """Index of the finest dyadic cell holding each point of [0, 1].

        Scaling by D is exact, so the floor is the exact cell, the finest
        half-cell of level j_max; x = 1 belongs to the last cell.
        """
        x = np.asarray(x, dtype=float)
        return np.minimum((x * self.dim).astype(np.intp), self.dim - 1)

    @cached_property
    def table(self) -> np.ndarray:
        """(D, D) atom values on each finest cell: every atom is constant
        there, so row ``cells(x)`` is the design row of x."""
        out = np.zeros((self.dim, self.dim))
        out[:, 0] = self._cl[0]
        cell = np.arange(self.dim)
        halves = np.stack([self._cl, self._cr], axis=1).ravel()
        for j in range(self.j_max + 1):
            # one atom per level meets each cell; entry 2k + 1 of halves
            # holds atom k's value on the right half of its support, so
            # half-cell h of level j reads entry 2^(j+1) + h
            half = cell >> (self.j_max - j)
            out[cell, (1 << j) + (half >> 1)] = halves[(2 << j) + half]
        out.setflags(write=False)
        return out

    def density_on_grid(self) -> Optional[np.ndarray]:
        if self.density is None:
            return None
        return np.asarray(self.density(reference_grid()), dtype=float)

    def auto_scales(self):
        return _wavelet_scales(self.j_max)


class PiecewisePolyModel(Model):
    """Per-cell Legendre polynomials up to a fixed degree (histograms at 0)."""

    def __init__(self, boundaries: Sequence[float], degree: int):
        b = np.asarray(boundaries, dtype=float)
        if b.ndim != 1 or len(b) < 2 or abs(b[0]) > 1e-12 or abs(b[-1] - 1.0) > 1e-12:
            raise ValueError("partition boundaries must run from 0 to 1")
        if not np.isfinite(b).all():
            raise ValueError(f"partition boundaries must be finite, got {b.tolist()!r}")
        widths = np.diff(b)
        bad = np.nonzero(widths <= 1e-12)[0]
        if len(bad):
            i = int(bad[0])
            raise LowerRegularityError(
                f"cell [{b[i]!r}, {b[i + 1]!r}] has nonpositive reference measure")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.boundaries = b
        self.degree = int(degree)
        self.n_cells = len(b) - 1
        self.dim = (self.degree + 1) * self.n_cells

    def cells(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.boundaries, x, side="right") - 1
        return np.clip(idx, 0, self.n_cells - 1)

    @cached_property
    def table(self) -> Optional[np.ndarray]:
        """A histogram's diagonal table: atom c is sqrt(1 / width) on cell c.
        Higher degrees vary within a cell, so they have no table."""
        if self.degree:
            return None
        out = np.diag(np.sqrt(1.0 / np.diff(self.boundaries)))
        out.setflags(write=False)
        return out

    def _atoms(self, x: np.ndarray) -> np.ndarray:
        cells = self.cells(x)
        out = np.zeros((len(x), self.dim))
        for c in range(self.n_cells):
            inside = cells == c
            if not inside.any():
                continue
            a, b = self.boundaries[c], self.boundaries[c + 1]
            u = 2.0 * (x[inside] - a) / (b - a) - 1.0
            for d in range(self.degree + 1):
                coef = np.zeros(d + 1)
                coef[d] = 1.0
                vals = np.polynomial.legendre.legval(u, coef)
                out[inside, c * (self.degree + 1) + d] = np.sqrt((2 * d + 1) / (b - a)) * vals
        return out

    def sup_norms(self) -> np.ndarray:
        # Legendre polynomials attain |P_d| = 1 at the cell edges
        out = np.zeros(self.dim)
        for c in range(self.n_cells):
            width = self.boundaries[c + 1] - self.boundaries[c]
            for d in range(self.degree + 1):
                out[c * (self.degree + 1) + d] = np.sqrt((2 * d + 1) / width)
        return out

    def support_masks(self) -> np.ndarray:
        mask = np.zeros((self.dim, N_GRID), dtype=bool)
        for c in range(self.n_cells):
            row = self.grid_cells == c
            for d in range(self.degree + 1):
                mask[c * (self.degree + 1) + d] = row
        return mask

    def auto_scales(self):
        return np.zeros(self.dim, dtype=int), np.array([float(self.dim)])

    def gram_quadrature(self) -> np.ndarray:
        # per-cell Gauss-Legendre, exact for polynomial products
        nodes, weights = np.polynomial.legendre.leggauss(self.degree + 1)
        g = np.zeros((self.dim, self.dim))
        for c in range(self.n_cells):
            a, b = self.boundaries[c], self.boundaries[c + 1]
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            w = 0.5 * (b - a) * weights
            phi = self.basis_matrix(x)
            g += phi.T @ (phi * w[:, None])
        return g


def build_haar_weighted(j_max: int, density: Optional[Callable] = None,
                        c_min: Optional[float] = None) -> HaarWeightedModel:
    """Weighted Haar model of dimension 2^(j_max+1)."""
    return HaarWeightedModel(j_max, density, c_min)


def build_periodized_wavelet(filt, j_max: int) -> WaveletModel:
    """Periodized wavelet model of dimension 2^(j_max+1); validates the filter."""
    return WaveletModel(filt, j_max)


def build_piecewise_poly(partition: Sequence[float], degree: int) -> PiecewisePolyModel:
    """Piecewise-polynomial model; dimension (degree+1) * number of cells."""
    return PiecewisePolyModel(partition, degree)


def build_histogram(partition: Sequence[float]) -> PiecewisePolyModel:
    return PiecewisePolyModel(partition, 0)


@dataclass(frozen=True)
class SlbProposal:
    """A candidate certification: per-atom scale labels and scale sizes.

    Leaving r_m or A_c unset certifies against the measured minimal value.
    """

    A: np.ndarray
    labels: np.ndarray
    r_m: Optional[float] = None
    A_c: Optional[float] = None


@dataclass(frozen=True)
class SlbCheck:
    passed: bool
    slack: float


@dataclass(frozen=True)
class SlbCertificate:
    dim: int
    b: int
    A: np.ndarray
    labels: np.ndarray
    r_m: float
    A_c: float
    measured_r_m: float
    measured_A_c: float
    checks: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "slb_certificate",
            "dim": self.dim,
            "b": self.b,
            "A": [float(a) for a in self.A],
            "labels": [int(v) for v in self.labels],
            "r_m": float(self.r_m),
            "A_c": float(self.A_c),
            "measured_r_m": float(self.measured_r_m),
            "measured_A_c": float(self.measured_A_c),
            "passed": bool(self.passed),
            "checks": {k: {"passed": bool(c.passed), "slack": float(c.slack)}
                       for k, c in self.checks.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def overlap_counts(model: Model, labels: np.ndarray, n_scales: int) -> np.ndarray:
    """card of the overlap sets: entry (k, j) counts scale-j atoms meeting atom k."""
    # a BLAS product, exact in float32: its sums are counts <= 2^14 < 2^24
    masks = model.support_masks().astype(np.float32)
    inter = (masks @ masks.T) > 0
    counts = np.zeros((model.dim, n_scales), dtype=int)
    for j in range(n_scales):
        counts[:, j] = inter[:, labels == j].sum(axis=1)
    return counts


def certify_slb(model: Model, proposal="auto") -> SlbCertificate:
    """Measure or check the strong-localization constants of a model."""
    if proposal == "auto":
        labels, a_values = model.auto_scales()
        prop = SlbProposal(np.asarray(a_values, dtype=float), np.asarray(labels, dtype=int))
    else:
        prop = proposal
    a_values = np.asarray(prop.A, dtype=float)
    labels = np.asarray(prop.labels, dtype=int)
    b = len(a_values)
    dim = model.dim
    sups = model.sup_norms()

    sqrt_budget = float(np.sum(np.sqrt(a_values)))
    r_budget = sqrt_budget / np.sqrt(dim)
    r_sup = float(np.max(sups / np.sqrt(a_values[labels])))
    measured_r = max(r_budget, r_sup)
    r_m = float(prop.r_m) if prop.r_m is not None else measured_r

    counts = overlap_counts(model, labels, b)
    ratio = np.ones((b, b))
    for i in range(b):
        for j in range(b):
            ratio[i, j] = max(a_values[j] / a_values[i], 1.0)
    worst = np.zeros((b, b))
    for i in range(b):
        worst[i] = counts[labels == i].max(axis=0)
    measured_ac = float(np.max(worst / ratio))
    a_c = float(prop.A_c) if prop.A_c is not None else measured_ac

    checks = {
        "scale_budget": SlbCheck(sqrt_budget <= r_m * np.sqrt(dim) + 1e-12,
                                 float(r_m * np.sqrt(dim) - sqrt_budget)),
        "sup_norm": SlbCheck(bool(np.all(sups <= r_m * np.sqrt(a_values[labels]) + 1e-12)),
                             float(np.min(r_m * np.sqrt(a_values[labels]) - sups))),
        "overlap": SlbCheck(bool(np.all(worst <= a_c * ratio + 1e-9)),
                            float(np.min(a_c * ratio - worst))),
    }
    return SlbCertificate(dim, b, a_values, labels, r_m, a_c, measured_r, measured_ac, checks)


def localized_bound_check(model: Model, certificate: SlbCertificate,
                          trials: int = 1000, seed: int = 0) -> float:
    """Max over random coefficient draws of ||sum beta_k phi_k||_inf divided by
    the localized bound A_c r_m^2 sqrt(D) max|beta_k|; at most 1 when the
    certificate holds."""
    atoms = model.grid_atoms()
    bound_scale = certificate.A_c * certificate.r_m ** 2 * np.sqrt(model.dim)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    worst = 0.0
    for _ in range(trials):
        beta = rng.standard_normal(model.dim)
        denom = bound_scale * np.max(np.abs(beta))
        if denom == 0.0:
            continue
        sup = np.max(np.abs(beta @ atoms))
        worst = max(worst, sup / denom)
    return worst
