"""Least-squares projection estimators and risk accounting.

Fitting dispatches between two routes: an exact least-squares fit to the
sample (any model, any design) and the pyramid on rank-ordered responses.
A cell model (a weighted Haar model or a histogram: its ``table`` is not
None) spans the functions constant on its D cells, so its fit is each
cell's mean of y, read in the atom basis through the inverse of its
D x D table of atom values per cell. Its values at the design points and
on the reference grid, the projection of the truth and :func:`compute_Cm`
read the same table and per-cell sums, so no n x D matrix of atoms is
built. Other models solve the empirical normal equations of one sample.
Where :func:`pyramid_filter` finds that one pyramid serves a collection
of wavelet models, each model is a dyadic prefix of the same orthonormal
coefficients, and every fit reads one :class:`NestedPyramid` of the
response. On an equispaced dyadic design the two routes coincide exactly
because the discrete pyramid atoms are the orthonormal basis of that
design. Only the dense normal equations import scipy, for a Cholesky
solve, when they first run; every other route runs on numpy alone.

True-measure quantities (bias, excess risk, sup-norm deviation) are
integrated on the fixed 2^14-point reference grid; the quadrature error
is O(2^-14) for the piecewise-smooth signals used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bases, transform
from .bases import N_GRID, reference_grid
from .signals import NoiseScenario, RegressionSample, TestSignal, _rng, eval_signal

__all__ = [
    "SingularDesignError",
    "FitResult",
    "RiskReport",
    "CmEstimate",
    "pyramid_filter",
    "NestedPyramid",
    "fit_ls",
    "project_truth",
    "signal_grid_values",
    "nested_fit_risks",
    "excess_risks",
    "compute_Cm",
    "epsilon_n",
]

_COND_LIMIT = 1e12


class SingularDesignError(ValueError):
    """Empirical Gram matrix is singular for this sample (model unusable)."""


@dataclass(frozen=True)
class FitResult:
    model: object
    beta: np.ndarray
    empirical_risk: float
    method: str


@dataclass(frozen=True)
class RiskReport:
    bias: float
    excess: float
    total: float
    empirical_excess: float
    sup_dev: float


def pyramid_filter(models, n: int) -> Optional[np.ndarray]:
    """The filter of one pyramid that fits every model at length n, or None.

    One pyramid serves when all models are wavelet models on one filter,
    n is a power of two and no model has more than n atoms.
    """
    if (not all(isinstance(m, bases.WaveletModel) for m in models)
            or n < 2 or n & (n - 1)
            or len({m.h.tobytes() for m in models}) != 1
            or max(m.dim for m in models) > n):
        return None
    return models[0].h


@dataclass(frozen=True)
class NestedPyramid:
    """The pyramids of one dyadic vector, or of a block of them along the
    last axis, shared by their nested models.

    A model of dimension D is spanned by the first D discrete atoms, so
    its coefficients are the first D pyramid coefficients and, by
    Parseval, its residual energy is the energy of the rest. ``coeffs``
    and ``csum`` have the shape ``(..., n)`` of the vectors and ``energy``
    their leading shape; ``pyr[i]`` is row i's record. The analysis is
    batch-invariant and each row's energy is the dot product of that row,
    read in C order whatever the caller's layout, so a row of a block
    holds the floats of its vector's own pyramid.
    """
    h: np.ndarray
    coeffs: np.ndarray
    csum: np.ndarray
    energy: np.ndarray

    @classmethod
    def of(cls, ys, h: np.ndarray) -> "NestedPyramid":
        ys = np.ascontiguousarray(ys, dtype=float)
        energy = np.array([np.dot(y, y) for y in ys.reshape(-1, ys.shape[-1])])
        coeffs = transform.analyze_flat(ys, h)
        csum = np.square(coeffs)
        np.cumsum(csum, axis=-1, out=csum)
        return cls(h, coeffs, csum, energy.reshape(ys.shape[:-1]))

    def __getitem__(self, index) -> "NestedPyramid":
        return NestedPyramid(self.h, self.coeffs[index], self.csum[index], self.energy[index])

    def beta(self, dim: int) -> np.ndarray:
        """Coefficients of the dimension-dim fit, in function units."""
        return self.coeffs[..., :dim] / np.sqrt(self.coeffs.shape[-1])

    def risks(self, dims) -> np.ndarray:
        """``(..., len(dims))`` empirical risks of the fits of dimensions dims."""
        n = self.coeffs.shape[-1]
        dims = np.asarray(dims, dtype=int)
        return np.maximum((self.energy[..., None] - self.csum[..., dims - 1]) / n, 0.0)

    def fitted(self, dims) -> np.ndarray:
        """``(..., len(dims), n)`` fitted values of the fits of dimensions
        dims (increasing powers of two), from one prefix synthesis."""
        return transform.synthesize_prefixes(self.coeffs, dims, self.h)


def _fit_gram(x: np.ndarray, y: np.ndarray, model) -> tuple:
    """Fits of a cell model to each row of the ``(R, n)`` designs x and
    responses y: the coefficients ``(R, D)``, the empirical risks ``(R,)``
    and ``ok`` ``(R,)``, false for a row with an empty cell, whose design
    is singular.

    The model spans the functions constant on its D cells, so a fit is each
    cell's mean of y. bincount adds a cell's points in row order, so a
    row's fit has the floats of its block of one.
    """
    rows, n = y.shape
    cells = model.cells(x)
    # the Gram table' diag(counts / n) table has eigenvalues counts / (n q), q the cell
    # masses: singular exactly when a cell is empty; the means need no solve, so no _COND_LIMIT
    key = (cells + np.arange(0, rows * model.dim, model.dim)[:, None]).ravel()
    counts = np.bincount(key, minlength=rows * model.dim).reshape(rows, -1)
    means = np.bincount(key, y.ravel(), minlength=rows * model.dim).reshape(rows, -1)
    means /= np.maximum(counts, 1)
    betas = (means[:, None] @ np.linalg.inv(model.table).T)[:, 0]
    resid = y - np.take_along_axis(means, cells, axis=1)
    risks = np.array([np.dot(r, r) for r in resid]) / n
    return betas, risks, counts.all(axis=1)


def fit_ls(sample: RegressionSample, model, method: str = "auto") -> FitResult:
    """Empirical-risk minimizer of the least-squares contrast over ``model``."""
    n = sample.n
    if n < model.dim:
        raise SingularDesignError(f"sample size {n} below model dimension {model.dim}")
    if method not in ("auto", "gram_exact", "pyramid_fast"):
        raise ValueError(f"unknown fit method {method!r}")
    h = None if method == "gram_exact" else pyramid_filter((model,), n)
    if h is not None:
        pyramid = NestedPyramid.of(sample.y, h)
        return FitResult(model, pyramid.beta(model.dim), float(pyramid.risks([model.dim])[0]),
                         "pyramid_fast")
    if method == "pyramid_fast":
        raise ValueError("pyramid path needs a wavelet model and dyadic n >= dim")
    if model.table is not None:
        betas, risks, ok = _fit_gram(sample.x[None], sample.y[None], model)
        if not ok[0]:
            raise SingularDesignError(
                f"a cell of the dimension-{model.dim} model holds no point at n={n}")
        return FitResult(model, betas[0], float(risks[0]), "gram_exact")
    phi = model.design_matrix(sample.x)
    gram = phi.T @ phi / n
    lam = np.linalg.eigvalsh(gram)  # symmetric, so cond = lam[-1] / lam[0]; NaN is singular
    if not lam[0] > 0.0 or lam[-1] / lam[0] > _COND_LIMIT:
        raise SingularDesignError(f"empirical Gram condition number exceeds {_COND_LIMIT:g} "
                                  f"for dimension {model.dim} at n={n}")
    import scipy.linalg  # deferred: every other route runs on numpy alone
    try:
        beta = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), phi.T @ sample.y / n)
    except np.linalg.LinAlgError as exc:  # scipy.linalg.LinAlgError is this class
        raise SingularDesignError(str(exc)) from None
    resid = sample.y - phi @ beta
    return FitResult(model, beta, float(np.dot(resid, resid) / n), "gram_exact")


def signal_grid_values(signal: TestSignal) -> np.ndarray:
    return eval_signal(signal, reference_grid())


def project_truth(signal: TestSignal, model) -> np.ndarray:
    """Coefficients of the orthogonal projection of the signal onto the model.

    Wavelet models truncate the fine-scale pyramid of the gridded signal;
    other families integrate signal * atom (* density) on the grid. The
    two routes agree because the fine pyramid is the grid quadrature in
    the discrete atom basis.
    """
    return _projections(signal_grid_values(signal), [model])[0]


def _projections(s: np.ndarray, models) -> list:
    """:func:`project_truth` onto each model of the signal's reference-grid
    values s. Where one pyramid serves every model, one analysis gives each
    model its prefix. A model finer than the grid is refused up front."""
    if max(model.dim for model in models) > N_GRID:
        raise ValueError("model resolution exceeds the reference grid")
    h = pyramid_filter(models, N_GRID)
    if h is not None:
        coeffs = transform.analyze_flat(s, h)
        return [coeffs[: model.dim] / np.sqrt(N_GRID) for model in models]
    out = []
    for model in models:
        w = model.density_on_grid()
        if model.table is not None:
            # every atom is constant on the model's cells, so the integral
            # reads each cell's sum of s * w: no D x N_GRID atom array
            cell_sums = np.bincount(model.grid_cells, s if w is None else s * w,
                                    minlength=model.dim)
            out.append(model.table.T @ cell_sums / N_GRID)
            continue
        atoms = model.grid_atoms()
        integrand = atoms if w is None else atoms * w
        out.append(integrand @ s / N_GRID)
    return out


def _values(model, beta: np.ndarray, x: Optional[np.ndarray] = None,
            fit_method: str = "gram_exact") -> np.ndarray:
    """Values of the model element with coefficients beta on the reference
    grid, or at the design x, in the discrete basis the fit used; a cell
    model takes a block of designs ``(..., n)``."""
    if fit_method == "pyramid_fast" or (x is None and isinstance(model, bases.WaveletModel)):
        n = N_GRID if x is None else len(x)
        flat = np.zeros(n)
        flat[: model.dim] = beta * np.sqrt(n)
        return transform.synthesize_flat(flat, model.h)
    if model.table is not None:
        return (model.table @ beta)[model.grid_cells if x is None else model.cells(x)]
    return model.grid_atoms().T @ beta if x is None else model.design_matrix(x) @ beta


def _excess_terms(x: np.ndarray, y: np.ndarray, betas: np.ndarray, risks, model,
                  beta_m: np.ndarray, fit_method: str) -> tuple:
    """The true excess risks ``sum (beta - beta_m)^2`` and the empirical
    ones ``|y - s_m(x)|^2 / n - risk``, floored at 0, of fits of model with
    coefficients betas ``(..., D)`` and empirical risks ``(...)`` to the
    designs and responses ``(..., n)``; beta_m is the projection of the
    truth. A block of zero rows gives two empty arrays."""
    n = y.shape[-1]
    resid = y - _values(model, beta_m, x, fit_method)
    sq = np.array([np.dot(r, r) for r in resid.reshape(-1, n)]).reshape(resid.shape[:-1])
    return np.sum((betas - beta_m) ** 2, axis=-1), np.maximum(sq / n - risks, 0.0)


def _grid_functions(models, betas) -> list:
    """:func:`_values` on the grid of each model and its coefficients. Where one
    pyramid serves every model and each beta is a prefix of the longest, as
    the projections of one signal or the fits of one pyramid are, one prefix
    synthesis gives them all."""
    h = pyramid_filter(models, N_GRID)
    longest = max(betas, key=len)
    if h is None or not all(np.array_equal(b, longest[: len(b)]) for b in betas):
        return [_values(model, beta) for model, beta in zip(models, betas)]
    dims, row = np.unique([model.dim for model in models], return_inverse=True)
    flat = np.zeros(N_GRID)
    flat[: dims[-1]] = longest * np.sqrt(N_GRID)
    return list(transform.synthesize_prefixes(flat, dims, h)[row])


def nested_fit_risks(sample: RegressionSample, fits, signal: TestSignal) -> list:
    """The risk decomposition of each fit to ``sample`` against the signal,
    from one evaluation of the signal on the reference grid. For a nested
    wavelet collection one analysis gives every beta_m, one prefix
    synthesis every s_m and, when the fits' coefficients are prefixes of
    one vector, as the fits of one pyramid are, another every s_hat_m."""
    models = [fit.model for fit in fits]
    s = signal_grid_values(signal)
    beta_ms = _projections(s, models)
    s_ms = _grid_functions(models, beta_ms)
    s_hats = _grid_functions(models, [fit.beta for fit in fits])
    out = []
    for fit, beta_m, s_m, s_hat in zip(fits, beta_ms, s_ms, s_hats):
        w = fit.model.density_on_grid()
        weights = np.ones(N_GRID) if w is None else w
        bias = float(np.mean((s - s_m) ** 2 * weights))
        total = float(np.mean((s - s_hat) ** 2 * weights))
        sup_dev = float(np.max(np.abs(s_hat - s_m)))
        excess, empirical_excess = _excess_terms(sample.x, sample.y, fit.beta, fit.empirical_risk,
                                                 fit.model, beta_m, fit.method)
        out.append(RiskReport(bias, float(excess), total, float(empirical_excess), sup_dev))
    return out


def excess_risks(sample: RegressionSample, model, signal: TestSignal,
                 fit: Optional[FitResult] = None) -> RiskReport:
    """Full risk decomposition of a fit of model, by default its
    least-squares fit, against the known truth. A given fit is scored
    with its own model, which must have the dimension of model."""
    if fit is None:
        fit = fit_ls(sample, model)
    elif fit.model.dim != model.dim:
        raise ValueError(f"the fit is of a dimension-{fit.model.dim} model, "
                         f"not of dimension {model.dim}")
    return nested_fit_risks(sample, [fit], signal)[0]


@dataclass(frozen=True)
class CmEstimate:
    value: float
    stderr: float


def compute_Cm(signal: TestSignal, noise: NoiseScenario, model,
               n_mc: int = 100_000, seed: int = 0) -> CmEstimate:
    """Monte-Carlo estimate of sum_k Var((Y - s_m(X)) phi_k(X)) under the
    uniform design, with a batch standard error."""
    if n_mc < 10_000:
        raise ValueError("need n_mc >= 10^4")
    rng = _rng(seed)
    beta_m = project_truth(signal, model)
    x = rng.random(n_mc)
    eps = rng.standard_normal(n_mc)
    if model.table is None:  # s_m at the nearest grid point
        s_m = _values(model, beta_m)[np.clip((x * N_GRID).astype(int), 0, N_GRID - 1)]
    else:  # s_m on each draw's own cell, as _values reads it
        cells = model.cells(x)
        s_m = (model.table @ beta_m)[cells]
    resid = eval_signal(signal, x) - s_m + np.asarray(noise.sigma(x), dtype=float) * eps
    n_batches = 50
    batch = n_mc // n_batches
    if model.table is None:
        z = model.basis_matrix(x)  # a new array, so the product can go in place
        z *= resid[:, None]
        total = float(np.sum(np.var(z, axis=0, ddof=1)))
        vals = [float(np.sum(np.var(z[i * batch:(i + 1) * batch], axis=0, ddof=1)))
                for i in range(n_batches)]
    else:
        # z_ik = r_i T[c_i, k], so the sums of z_ik and z_ik^2 over a group
        # of draws read the group's per-cell sums of r and r^2: one bincount
        # over (group, cell) each, O(n_mc + 51 D^2). The n_mc % 50 leftover
        # draws form group 50, in the total but in no batch
        dim, table = model.dim, model.table
        key = np.minimum(np.arange(n_mc) // batch, n_batches) * dim + cells
        shape = (n_batches + 1, dim)
        sum_z = np.bincount(key, resid, minlength=shape[0] * dim).reshape(shape) @ table
        sum_z2 = (np.bincount(key, resid * resid, minlength=shape[0] * dim).reshape(shape)
                  @ np.square(table))

        def var_sums(sum_z, sum_z2, m):  # sum over k of the unbiased variances
            return np.sum((sum_z2 - sum_z * sum_z / m) / (m - 1), axis=-1)

        total = float(var_sums(sum_z.sum(axis=0), sum_z2.sum(axis=0), n_mc))
        vals = var_sums(sum_z[:n_batches], sum_z2[:n_batches], batch)
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_batches))
    return CmEstimate(total, stderr)


def epsilon_n(n: int, dim: int, L0: float = 1.0) -> float:
    """Concentration radius L0 * max((ln n / D)^(1/4), (D ln n / n)^(1/4))."""
    ln = np.log(n)
    return float(L0 * max((ln / dim) ** 0.25, (dim * ln / n) ** 0.25))
