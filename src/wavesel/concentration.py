"""Concentration experiments and brute-force representation checks.

``run_concentration`` replicates Gram-exact fits of one model, in blocks
of replications drawn and fitted together, and reports how tightly
n * (excess risk) / C_m and its empirical counterpart sit around 1. The
representation oracle evaluates, for small models, the profile
Gamma_n(C) = sup over the sphere {l(s_m, s) = C} of
(P_n - P)(gamma(s_m) - gamma(s)) minus C; the sphere supremum is a
trust-region subproblem solved through the secular equation of the
constrained quadratic, cross-checked against an independent
random-direction search. The maximum of the profile must equal the
empirical excess risk exactly, with the true excess risk in the argmax.
The representation checks import scipy.optimize (``brentq`` for the
secular equation, ``minimize_scalar`` to refine the profile's optimum)
when they first run; ``run_concentration`` runs on numpy alone.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import estimator
from .bases import N_GRID
from .estimator import epsilon_n, fit_ls, project_truth, signal_grid_values
from .signals import (_BLOCK_ELEMENTS, NoiseScenario, RegressionSample, TestSignal, _draw_block,
                      derive_seed)

__all__ = [
    "ConcentrationRangeWarning",
    "SolverDisagreementError",
    "ConcentrationReport",
    "run_concentration",
    "RepFormulaReport",
    "rep_formula_oracle",
    "FunctionalRepReport",
    "functional_rep_check",
]


class ConcentrationRangeWarning(UserWarning):
    """Model dimension outside the loosely enforced concentration range."""


class SolverDisagreementError(RuntimeError):
    """Lagrangian and random-direction sphere suprema disagree."""


@dataclass(frozen=True)
class ConcentrationReport:
    dim: int
    n: int
    replications: int
    c_m: float
    eps: float
    ratios_true: np.ndarray
    ratios_emp: np.ndarray
    coverage_true_eps: float
    coverage_emp_eps: float
    coverage_true_eps2: float
    coverage_emp_eps2: float
    std_true: float
    std_emp: float
    failures: int

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "concentration_report",
            "dim": self.dim,
            "n": self.n,
            "replications": self.replications,
            "c_m": self.c_m,
            "epsilon_n": self.eps,
            "mean_true": float(np.mean(self.ratios_true)),
            "mean_emp": float(np.mean(self.ratios_emp)),
            "std_true": self.std_true,
            "std_emp": self.std_emp,
            "coverage": {
                "true_eps": self.coverage_true_eps,
                "emp_eps": self.coverage_emp_eps,
                "true_eps2": self.coverage_true_eps2,
                "emp_eps2": self.coverage_emp_eps2,
            },
            "failures": self.failures,
            "ratios_true": [float(v) for v in self.ratios_true],
            "ratios_emp": [float(v) for v in self.ratios_emp],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def _block_size(n: int) -> int:
    # per replication of a cell model, tracemalloc measures 7.04n to 7.11n
    # at the peaks of the draw, the cell fit and the excess terms, for
    # every signal at D = 32 to 128; a fit needs D <= n, so 8n is the charge
    return max(1, _BLOCK_ELEMENTS // (8 * n))


def _replicate_block(signal: TestSignal, noise: NoiseScenario, model, n: int, seeds,
                     beta_m: np.ndarray) -> tuple:
    """The true and the empirical excess risks of the replications at seeds
    whose design is not singular, from one block draw and one block fit;
    beta_m is the projection of the signal onto the model."""
    x, y, _ = _draw_block(signal, noise, n, seeds)
    betas, risks, ok = estimator._fit_gram(x, y, model)
    return estimator._excess_terms(x[ok], y[ok], betas[ok], risks[ok], model, beta_m,
                                   "gram_exact")


def run_concentration(signal: TestSignal, noise: NoiseScenario, model,
                      n: int, N: int, seed: int, n_mc: int = 100_000) -> ConcentrationReport:
    """Ratios n * excess / C_m over N replications of a Gram-exact fit.

    The replications run in blocks: each block makes one draw and one cell
    fit, and computes only the true and the empirical excess risk, so the
    grid terms of :func:`estimator.excess_risks` are never built. Every
    step treats a row alone, so the report does not depend on the block
    size. The model must be a cell model (a weighted Haar model or a
    histogram), whose fits need no n x D design. The design is uniform, so
    a model built for another design density is refused.
    """
    if N < 100:
        raise ValueError("need at least 100 replications")
    if model.table is None:
        raise ValueError("the replications fit by cell means, and the atoms of this model "
                         "are not constant on cells")
    if model.density_on_grid() is not None:
        raise ValueError("the replications draw a uniform design, under which a model "
                         "orthonormal for another design density is not orthonormal")
    dim = model.dim
    log_sq = np.log(n) ** 2
    if dim < 0.5 * log_sq or dim > n / log_sq:
        warnings.warn(
            f"dimension {dim} outside the comfortable range "
            f"[{0.5 * log_sq:.1f}, {n / log_sq:.1f}] for n={n}",
            ConcentrationRangeWarning, stacklevel=2)
    cm = estimator.compute_Cm(signal, noise, model, n_mc=n_mc,
                              seed=derive_seed(seed, 1 << 40)).value
    eps = epsilon_n(n, dim)
    beta_m = project_truth(signal, model)
    seeds = [derive_seed(seed, i) for i in range(N)]
    size = _block_size(n)
    excess, emp_excess = (np.concatenate(terms) for terms in zip(*(
        _replicate_block(signal, noise, model, n, seeds[start:start + size], beta_m)
        for start in range(0, N, size))))
    r_true = n * excess / cm
    r_emp = n * emp_excess / cm
    failures = N - len(r_true)
    if len(r_true) < 2:
        raise ValueError(f"{failures} of {N} replications had a singular design; the "
                         "mean, spread and coverage need at least 2 fits")

    def coverage(r, width):
        return float(np.mean((r >= 1.0 - width) & (r <= 1.0 + width)))

    return ConcentrationReport(
        dim, n, N, float(cm), float(eps), r_true, r_emp,
        coverage(r_true, eps), coverage(r_emp, eps),
        coverage(r_true, eps ** 2), coverage(r_emp, eps ** 2),
        float(np.std(r_true, ddof=1)), float(np.std(r_emp, ddof=1)), failures)


# ---------------------------------------------------------------------------
# representation formulas on tiny models
# ---------------------------------------------------------------------------

def _sphere_max_quadratic(a: np.ndarray, m_mat: np.ndarray, c: float, eig: tuple) -> tuple:
    """Maximize 2 a.delta - delta' M delta subject to |delta|^2 = c.

    Solved through the eigendecomposition M = V Lambda V', given as
    ``eig = (Lambda, V, V' a)`` since it does not depend on c, and the
    secular equation
    ||(Lambda + lam I)^{-1} a~||^2 = c on the admissible branch
    lam >= -lambda_min (the trust-region hard case included).
    """
    if c <= 0:
        return 0.0, np.zeros(len(a))
    evals, vecs, at = eig
    lam_min = float(evals[0])
    pairs = list(zip(at.tolist(), evals.tolist()))

    def norm2(lam):  # a plain loop adds in np.sum's order on <= 3 terms
        total = 0.0
        for a_k, e_k in pairs:
            d = e_k + lam
            if d == 0.0:  # lo rounds onto the pole once |lambda_min| >= 128
                if a_k:
                    return math.inf
                continue  # a_k = 0 adds nothing on the admissible branch
            q = a_k / d
            total += q * q
        return total

    lo = -lam_min + 1e-14
    if norm2(lo) >= c:
        hi = lo + 1.0
        while norm2(hi) > c:
            hi = 2.0 * hi + 1.0
        import scipy.optimize
        lam = scipy.optimize.brentq(lambda t: norm2(t) - c, lo, hi, xtol=1e-15, rtol=1e-15)
        z = at / (evals + lam)
    else:
        # hard case: the component on the bottom eigenspace is free
        z = np.where(np.abs(evals - lam_min) < 1e-12, 0.0, at / (evals - lam_min))
        slack = c - float(np.dot(z, z))
        bottom = np.abs(evals - lam_min) < 1e-12
        fill = np.zeros_like(z)
        fill[np.argmax(bottom)] = np.sqrt(max(slack, 0.0))
        z = z + fill
    delta = vecs @ z
    value = float(2.0 * np.dot(a, delta) - delta @ m_mat @ delta)
    return value, delta


def _random_direction_max(a: np.ndarray, m_mat: np.ndarray, c: float,
                          rng: np.random.Generator, n_dir: int,
                          sup_limit: Optional[tuple] = None) -> float:
    """Independent sphere supremum: random directions plus a shrinking
    random polish around the incumbent (derivative-free)."""
    if c <= 0:
        return 0.0
    dim = len(a)
    r = np.sqrt(c)

    def value(units):
        deltas = r * units
        vals = 2.0 * deltas @ a - np.einsum("ij,jk,ik->i", deltas, m_mat, deltas)
        if sup_limit is not None:
            atoms, r0 = sup_limit
            sup = np.max(np.abs(deltas @ atoms), axis=1)
            vals = np.where(sup <= r0, vals, -np.inf)
        return vals

    u = rng.standard_normal((n_dir, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    vals = value(u)
    best = int(np.argmax(vals))
    best_u, best_v = u[best], vals[best]
    radius = 1.0
    for _ in range(24):
        cand = best_u + radius * rng.standard_normal((64, dim))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        vals = value(cand)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v = vals[i]
            best_u = cand[i]
        radius *= 0.5
    return float(best_v)


@dataclass(frozen=True)
class RepFormulaReport:
    c_grid: np.ndarray
    gamma: np.ndarray
    max_gamma: float
    argmax_c: float
    grid_step: float
    excess: float
    emp_excess: float
    solver_gap: float

    @property
    def max_matches_emp(self) -> bool:
        scale = max(self.emp_excess, 1e-12)
        return abs(self.max_gamma - self.emp_excess) <= 1e-4 * scale

    @property
    def excess_in_argmax(self) -> bool:
        return abs(self.excess - self.argmax_c) <= self.grid_step


def _empirical_terms(sample: RegressionSample, model, signal: TestSignal):
    """The vector a_k = (P_n - P)[(y - s_m) phi_k], the matrix
    M = (P_n - P)[phi_k phi_l] and the metric G_P = P[phi_k phi_l], with P
    realized by the grid quadrature throughout (so the identities are
    exact for any model, orthonormal on the grid or not)."""
    grid_atoms = model.grid_atoms()
    w = model.density_on_grid()
    weights = np.ones(N_GRID) if w is None else w
    s_grid = signal_grid_values(signal)
    gram_p = (grid_atoms * weights) @ grid_atoms.T / N_GRID
    b_p = grid_atoms @ (s_grid * weights) / N_GRID
    beta_m = np.linalg.solve(gram_p, b_p)  # projection in the grid measure

    phi_x = model.design_matrix(sample.x)
    resid = sample.y - phi_x @ beta_m
    s_m_grid = grid_atoms.T @ beta_m
    p_lin = grid_atoms @ ((s_grid - s_m_grid) * weights) / N_GRID

    a = phi_x.T @ resid / sample.n - p_lin
    m_mat = phi_x.T @ phi_x / sample.n - gram_p
    return a, m_mat, gram_p, beta_m, phi_x


def rep_formula_oracle(sample: RegressionSample, model, signal: TestSignal,
                       n_c: int = 1000, n_dir: int = 10_000, seed: int = 0,
                       r0: Optional[float] = None, ball: bool = False) -> RepFormulaReport:
    """Profile Gamma_n over a geometric C grid and verify the identities.

    With ``r0`` the candidate set is truncated to sup-norm at most r0
    (the localization event under which the identities still hold); with
    ``ball`` the sphere is replaced by the ball, which must not move the
    maximum. The two sphere solvers must agree to 1e-3, relative, at about
    a dozen grid points and at the argmax, or
    :class:`SolverDisagreementError` is raised.
    """
    if model.dim > 3:
        raise ValueError("representation oracle is for models of dimension <= 3")
    if sample.n > 64:
        raise ValueError("representation oracle is for n <= 64")
    a, m_mat, gram_p, beta_m, phi_x = _empirical_terms(sample, model, signal)
    # whiten by the grid metric so the loss sphere is Euclidean even when
    # the atoms are only approximately orthonormal under the grid measure
    chol = np.linalg.cholesky(gram_p)
    a = np.linalg.solve(chol, a)
    m_mat = np.linalg.solve(chol, np.linalg.solve(chol, m_mat).T).T
    m_mat = 0.5 * (m_mat + m_mat.T)

    fit = fit_ls(sample, model, method="gram_exact")
    delta_hat = fit.beta - beta_m
    excess = float(delta_hat @ gram_p @ delta_hat)
    s_m_x = phi_x @ beta_m
    resid = sample.y - s_m_x
    emp_excess = float(np.dot(resid, resid) / sample.n - fit.empirical_risk)

    sup_limit = None
    if r0 is not None and np.isfinite(r0):
        # whitened evaluation; a row maximum of |delta @ atoms| does not
        # depend on repeated columns, and piecewise-constant atoms repeat
        # almost all of theirs
        atoms = np.unique(np.linalg.solve(chol, model.grid_atoms()), axis=1)
        sup_limit = (atoms, r0)

    evals, vecs = np.linalg.eigh(m_mat)
    eig = (evals, vecs, vecs.T @ a)  # shared by every sphere solve below

    def gamma_at(c):
        val, delta = _sphere_max_quadratic(a, m_mat, c, eig)
        if sup_limit is not None and np.max(np.abs(delta @ atoms)) > r0:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 7))))
            val = _random_direction_max(a, m_mat, c, rng, n_dir, sup_limit)
        return val - c

    hi = max(10.0 * emp_excess, 1e-6)
    # geometric grid plus the degenerate point C = 0 (the argmax when the
    # fit coincides with the projection)
    c_grid = np.r_[0.0, np.geomspace(1e-8, hi, n_c)]
    gamma = np.array([gamma_at(c) for c in c_grid])
    if ball:
        # sup over the ball is the running max of the sphere suprema
        gamma = np.maximum.accumulate(gamma + c_grid) - c_grid
    k = int(np.argmax(gamma))
    lo = c_grid[max(k - 1, 0)]
    up = c_grid[min(k + 1, len(c_grid) - 1)]
    import scipy.optimize
    refine = scipy.optimize.minimize_scalar(lambda c: -gamma_at(c), bounds=(lo, up),
                                            method="bounded",
                                            options={"xatol": 1e-14})
    max_gamma = float(-refine.fun)
    argmax_c = float(refine.x)
    step = max(up - lo, 1e-12)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 1))))
    gap = 0.0
    worst = 0.0
    checks = np.unique(np.r_[c_grid[:: max(n_c // 12, 1)], [argmax_c]])
    for c in checks:
        # the agreement check is on the plain sphere problem both solvers
        # handle; the truncated profile itself goes through gamma_at
        lagr, _ = _sphere_max_quadratic(a, m_mat, c, eig)
        rand = _random_direction_max(a, m_mat, c, rng, n_dir, None)
        scale = max(emp_excess, abs(lagr), 1e-12)
        gap = max(gap, abs(lagr - rand))
        worst = max(worst, abs(lagr - rand) / scale)
    if worst > 1e-3:
        raise SolverDisagreementError(
            f"sphere suprema disagree by {gap:.3e} (relative {worst:.3e})")

    return RepFormulaReport(c_grid, gamma, max_gamma, argmax_c, step,
                            excess, emp_excess, float(gap))


@dataclass(frozen=True)
class FunctionalRepReport:
    functional_value: float
    argmin_c: float
    grid_step: float
    min_value: float
    emp_risk: float
    vacuous: bool

    @property
    def passed(self) -> bool:
        if self.vacuous:
            return True
        scale = max(abs(self.functional_value), 1e-12)
        in_argmin = abs(self.functional_value - self.argmin_c) <= self.grid_step + 1e-4 * scale
        value_ok = abs(self.min_value - self.emp_risk) <= 1e-4 * max(self.emp_risk, 1e-12)
        return in_argmin and value_ok


def functional_rep_check(sample: RegressionSample, model, signal: TestSignal,
                         functional: str = "sup_norm", n_c: int = 400,
                         n_dir: int = 4000, seed: int = 0) -> FunctionalRepReport:
    """Check F(s_hat) in argmin_C inf over the level set {F = C} of P_n gamma.

    The functional is the sup-norm distance to the truth projection
    (``"zero"`` gives the vacuous single-level-set case).
    """
    if model.dim > 3:
        raise ValueError("functional check is for models of dimension <= 3")
    fit = fit_ls(sample, model, method="gram_exact")
    beta_m = project_truth(signal, model)
    delta_hat = fit.beta - beta_m
    phi_x = model.design_matrix(sample.x)
    resid_m = sample.y - phi_x @ beta_m
    gram = phi_x.T @ phi_x / sample.n
    lin = phi_x.T @ resid_m / sample.n
    base = float(np.dot(resid_m, resid_m) / sample.n)

    def emp_risk_of(delta):
        return base - 2.0 * float(lin @ delta) + float(delta @ gram @ delta)

    if functional == "zero":
        return FunctionalRepReport(0.0, 0.0, 0.0, emp_risk_of(delta_hat),
                                   fit.empirical_risk, True)
    if functional != "sup_norm":
        raise ValueError(f"unknown functional {functional!r}")

    atoms = model.grid_atoms()

    def sup_seminorm(delta):
        return float(np.max(np.abs(delta @ atoms)))

    f_hat = sup_seminorm(delta_hat)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 2))))
    dim = model.dim
    if dim == 1:
        units = np.array([[1.0], [-1.0]])
    else:
        units = rng.standard_normal((n_dir, dim))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        units = np.vstack([units, delta_hat[None, :] / max(np.linalg.norm(delta_hat), 1e-300)])
    norms = np.array([sup_seminorm(u) for u in units])

    def inner_min(c):
        if c == 0.0:
            return emp_risk_of(np.zeros(dim))
        scales = c / norms
        deltas = units * scales[:, None]
        vals = base - 2.0 * deltas @ lin + np.einsum("ij,jk,ik->i", deltas, gram, deltas)
        return float(np.min(vals))

    hi = max(3.0 * f_hat, 1e-6)
    c_grid = np.linspace(0.0, hi, n_c)
    vals = np.array([inner_min(c) for c in c_grid])
    k = int(np.argmin(vals))
    lo = c_grid[max(k - 1, 0)]
    up = c_grid[min(k + 1, len(c_grid) - 1)]
    import scipy.optimize
    refine = scipy.optimize.minimize_scalar(inner_min, bounds=(max(lo, 0.0), up),
                                            method="bounded", options={"xatol": 1e-14})
    return FunctionalRepReport(f_hat, float(refine.x), float(up - lo),
                               float(refine.fun), fit.empirical_risk, False)
