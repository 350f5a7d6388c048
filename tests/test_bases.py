import warnings

import numpy as np
import pytest

from wavesel import bases, transform
from wavesel.bases import (N_GRID, DegenerateCellError, LowerRegularityError, SlbProposal,
                           adaptive_simpson, build_haar_weighted, build_histogram,
                           build_periodized_wavelet, build_piecewise_poly,
                           certify_slb, localized_bound_check, reference_grid)


def test_adaptive_simpson_polynomial():
    # integral of 0.5 + x over [0.25, 0.5] is 0.5*0.25 + (0.25 - 0.0625)/2
    got = adaptive_simpson(lambda x: 0.5 + x, 0.25, 0.5)
    assert got == pytest.approx(0.5 * 0.25 + (0.5 ** 2 - 0.25 ** 2) / 2, abs=1e-12)


def test_adaptive_simpson_oscillatory():
    got = adaptive_simpson(lambda x: np.sin(20 * x), 0.0, 1.0)
    assert got == pytest.approx((1 - np.cos(20.0)) / 20.0, abs=1e-9)


def test_adaptive_simpson_refuses_non_finite_values():
    # NaN fails every tolerance test, so the bisection would run to its
    # 40th level on both halves of every cell
    with pytest.raises(ValueError, match="integrand is nan"):
        adaptive_simpson(lambda x: float("nan"), 0.0, 1.0)


def broadcast_haar_basis_matrix(model, x):
    """Reference: the earlier design matrix, every point against every atom."""
    lo, mid, hi = [0.0], [1.0], [1.0]  # father atom
    for j in range(model.j_max + 1):
        width = 0.5 ** (j + 1)
        for k in range(1 << j):
            a = k * 2.0 * width
            lo.append(a)
            mid.append(a + width)
            hi.append(a + 2.0 * width)
    lo, mid, hi = np.array(lo), np.array(mid), np.array(hi)
    x = np.asarray(x, dtype=float)[:, None]
    in_left = (x >= lo) & ((x < mid) | ((mid == 1.0) & (x == 1.0)))
    in_right = (x >= mid) & (x < hi) | ((mid < 1.0) & (hi == 1.0) & (x == 1.0))
    return in_left * model._cl + in_right * model._cr


def per_level_haar_basis_matrix(model, x):
    """Reference: the earlier design matrix, one half-cell scatter per level."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((len(x), model.dim))
    rows = np.flatnonzero((x >= 0.0) & (x <= 1.0))
    xs = x[rows]
    halves = np.stack([model._cl, model._cr], axis=1).ravel()
    flat = out.reshape(-1)
    start = rows * model.dim
    flat[start] = model._cl[0]
    for j in range(model.j_max + 1):
        half = np.minimum((xs * (2 << j)).astype(np.intp), (2 << j) - 1)
        flat[start + (1 << j) + (half >> 1)] = halves[(2 << j) + half]
    return out


def per_atom_grid_atoms(model):
    """Reference: the earlier grid atoms, one full synthesis per atom."""
    rows = []
    for k in range(model.dim):
        flat = np.zeros(N_GRID)
        flat[k] = 1.0
        atom = transform.synthesize_flat(flat, model.h)
        atom *= float(np.sqrt(N_GRID))
        rows.append(atom)
    return np.vstack(rows)


class TestHaarWeighted:
    @pytest.mark.parametrize("j_max", range(8))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_basis_matrix_matches_broadcast_reference(self, j_max, weighted):
        m = (build_haar_weighted(j_max, density=lambda x: 0.5 + x, c_min=0.5)
             if weighted else build_haar_weighted(j_max))
        dyadic = np.arange(257) / 256.0
        x = np.concatenate([
            np.random.default_rng(j_max).random(300),
            dyadic, np.nextafter(dyadic, -1.0), np.nextafter(dyadic, 2.0),
            [-0.0, 5e-324, -1e-300, -0.5, 1.5, 1e300, -np.inf, np.inf, np.nan],
        ])
        got = m.basis_matrix(x)
        want = broadcast_haar_basis_matrix(m, x)
        assert got.shape == want.shape == (len(x), m.dim)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("j_max", [0, 3, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_cell_gather_matches_per_level_scatter(self, j_max, weighted):
        m = (build_haar_weighted(j_max, density=lambda x: 0.5 + x, c_min=0.5)
             if weighted else build_haar_weighted(j_max))
        edges = np.arange(m.dim + 1) / m.dim  # x = 0, x = 1 and every cell edge
        inside = np.concatenate([edges, np.random.default_rng(j_max).random(500)])
        outside = np.array([-1e-300, -0.5, np.nextafter(1.0, 2.0), 1.5,
                            -np.inf, np.inf, np.nan])
        x = np.concatenate([inside, outside])
        got = m.basis_matrix(x)
        assert np.array_equal(got, per_level_haar_basis_matrix(m, x))
        assert np.array_equal(got[: len(inside)], m.table[m.cells(inside)])
        assert not got[len(inside):].any()
        assert np.array_equal(m.table[m.grid_cells], m.grid_atoms().T)

    def test_resolution_beyond_reference_grid_refused(self):
        # at j_max = 14 every grid midpoint lies in the right half of its
        # level-14 cell, so the grid Gram could not be orthonormal
        with pytest.raises(ValueError, match="exceeds the reference grid"):
            build_haar_weighted(14)

    def test_uniform_atom_is_standard_haar(self):
        m = build_haar_weighted(3)
        assert m.dim == 16
        # atom (j,k) = (2,1) sits at flat index 4
        assert m.p_plus[4] == pytest.approx(2.0 ** -3)
        assert m.p_minus[4] == pytest.approx(2.0 ** -3)
        vals = m.basis_matrix(np.array([0.06, 0.2]))[:, 4]
        assert vals[0] == pytest.approx(2.0)   # 2^(j/2) on the left half
        assert vals[1] == pytest.approx(-2.0)  # negative on the right half
        father = m.basis_matrix(np.array([0.1, 0.9, 1.0]))[:, 0]
        assert np.allclose(father, 1.0)

    def test_uniform_quadrature_gram_identity(self):
        m = build_haar_weighted(3)
        g = m.gram_quadrature()
        assert np.max(np.abs(g - np.eye(m.dim))) < 1e-12

    def test_monte_carlo_gram(self):
        # empirical Gram at 10^5 uniform points approaches identity at n^(-1/2)
        m = build_haar_weighted(3)
        rng = np.random.default_rng(1)
        x = rng.random(100_000)
        phi = m.basis_matrix(x)
        g = phi.T @ phi / len(x)
        assert np.max(np.abs(g - np.eye(m.dim))) < 0.02

    def test_density_sup_norm_bound(self):
        # density 0.5 + x with c_min = 0.5: sup norms bounded by sqrt(2 A_j / c_min)
        m = build_haar_weighted(3, density=lambda x: 0.5 + x, c_min=0.5)
        labels, a_vals = m.auto_scales()
        sups = m.sup_norms()
        assert np.all(sups <= np.sqrt(2.0 / 0.5 * a_vals[labels]) + 1e-9)

    @pytest.mark.parametrize("density", [None, lambda x: 0.5 + x,
                                         lambda x: np.exp(x) / (np.e - 1.0)])
    def test_sup_norms_read_from_the_table(self, density):
        # each Haar atom takes its two half-cell values, the father 1
        m = build_haar_weighted(5, density=density, c_min=None if density is None else 0.5)
        want = np.maximum(np.abs(m._cl), np.abs(m._cr))
        want[0] = 1.0
        assert m.sup_norms().tobytes() == want.tobytes()

    def test_density_masses_match_closed_form(self):
        # for f = 0.5 + x the half-cell masses integrate in closed form
        m = build_haar_weighted(2, density=lambda x: 0.5 + x, c_min=0.5)
        # atom (j,k) = (1,2): cell [1/2, 1], halves [1/2, 3/4], [3/4, 1]
        idx = 3
        lo, mid, hi = 0.5, 0.75, 1.0
        exact_minus = 0.5 * (mid - lo) + (mid ** 2 - lo ** 2) / 2
        exact_plus = 0.5 * (hi - mid) + (hi ** 2 - mid ** 2) / 2
        assert m.p_minus[idx] == pytest.approx(exact_minus, abs=1e-10)
        assert m.p_plus[idx] == pytest.approx(exact_plus, abs=1e-10)

    def test_monte_carlo_gram_under_density(self):
        m = build_haar_weighted(2, density=lambda x: 0.5 + x, c_min=0.5)
        rng = np.random.default_rng(4)
        # inverse-cdf draw from f = 0.5 + x: F(x) = x/2 + x^2/2
        u = rng.random(200_000)
        x = np.sqrt(0.25 + 2 * u) - 0.5
        phi = m.basis_matrix(x)
        g = phi.T @ phi / len(x)
        assert np.max(np.abs(g - np.eye(m.dim))) < 0.03

    def test_density_below_c_min_rejected(self):
        with pytest.raises(ValueError, match="below c_min"):
            build_haar_weighted(2, density=lambda x: 0.5 + x, c_min=10.0)
        # a NaN minimum on the grid compares false with c_min either way
        with pytest.raises(ValueError, match="falls to nan"):
            build_haar_weighted(2, density=lambda x: np.where(x < 0.5, 1.0, np.nan), c_min=0.5)
        # the density's infimum over [0, 1] is a valid bound
        assert build_haar_weighted(2, density=lambda x: 0.5 + x, c_min=0.5).dim == 8

    def test_infinite_density_rejected(self):
        # 0.5 / sqrt(x) has mass 1 and stays above 0.5 on the grid, but is
        # infinite at the cell edge x = 0 that the quadrature evaluates
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="integrand is inf"):
            build_haar_weighted(2, density=lambda x: 0.5 / np.sqrt(x), c_min=0.5)

    def test_density_of_mass_other_than_one_rejected(self):
        # under a density of mass 1/2 the father atom has norm 1/sqrt(2)
        with pytest.raises(ValueError, match="total mass 0.5"):
            build_haar_weighted(3, density=lambda x: np.full_like(np.asarray(x, float), 0.5),
                                c_min=0.5)
        assert build_haar_weighted(3, density=lambda x: 0.5 + x, c_min=0.5).dim == 16

    def test_degenerate_density_rejected(self):
        spike = lambda x: np.where(np.abs(x - 0.9) < 1e-4, 1e4, 1e-13) + 0.0
        with pytest.raises(DegenerateCellError):
            build_haar_weighted(3, density=spike, c_min=1e-13)


class TestPeriodizedWavelet:
    def test_haar_filter_matches_weighted_haar(self):
        wav = build_periodized_wavelet(transform.HAAR, 3)
        haar = build_haar_weighted(3)
        x = np.linspace(0.001, 0.999, 777)
        assert np.max(np.abs(wav.basis_matrix(x) - haar.basis_matrix(x))) < 1e-10

    def test_db8_gram_identity_on_grid(self):
        m = build_periodized_wavelet(transform.DB8, 4)
        g = m.gram_quadrature()
        assert np.max(np.abs(g - np.eye(m.dim))) < 1e-6

    def test_dimension_rule(self):
        assert build_periodized_wavelet(transform.DB8, 4).dim == 32

    @pytest.mark.parametrize("j_max", range(7))
    @pytest.mark.parametrize("name", ["haar", "db8"])
    def test_grid_atoms_match_per_atom_reference(self, name, j_max):
        m = build_periodized_wavelet(transform.get_filter(name), j_max)
        got = m.grid_atoms()
        want = per_atom_grid_atoms(m)
        assert got.shape == want.shape == (m.dim, N_GRID)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    def test_invalid_filter_rejected(self):
        for filt in ([0.9, 0.1], [np.nan, np.nan]):
            with pytest.raises(transform.InvalidFilterError):
                build_periodized_wavelet(filt, 2)


class TestPiecewisePoly:
    def test_histogram_dyadic(self):
        m = build_histogram([0, 0.25, 0.5, 0.75, 1.0])
        assert m.dim == 4
        vals = m.basis_matrix(np.array([0.1]))
        assert vals[0, 0] == pytest.approx(2.0)  # 1/sqrt(1/4)
        assert np.allclose(vals[0, 1:], 0.0)

    def test_degree_one_dimension(self):
        m = build_piecewise_poly([0, 0.25, 0.5, 0.75, 1.0], 1)
        assert m.dim == 8

    def test_non_dyadic_histogram_norms(self):
        m = build_histogram([0, 0.5, 0.75, 1.0])
        sups = m.sup_norms()
        assert np.allclose(sups, [1 / np.sqrt(0.5), 1 / np.sqrt(0.25), 1 / np.sqrt(0.25)])

    def test_gauss_gram_identity(self):
        m = build_piecewise_poly([0, 0.3, 0.55, 0.8, 1.0], 3)
        g = m.gram_quadrature()
        assert np.max(np.abs(g - np.eye(m.dim))) < 1e-12

    @pytest.mark.parametrize("partition", [[0.0, np.nan, 1.0], [np.nan, 0.5, 1.0],
                                           [0.0, np.inf, 1.0]])
    def test_non_finite_boundaries_rejected(self, partition):
        # a NaN width passes a "width <= 1e-12" test, and its cell's table
        # entry would be NaN
        with pytest.raises(ValueError, match="must be finite"):
            build_histogram(partition)

    def test_lower_regularity_violation(self):
        with pytest.raises(LowerRegularityError) as err:
            build_histogram([0, 0.4, 0.4, 1.0])
        assert "0.4" in str(err.value)


OUTSIDE = np.array([-0.5, 1.5, np.nextafter(1.0, 2.0), np.inf, -np.inf, np.nan])


def reference_rows(model, x):
    """Reference: each family's atoms at points x of [0, 1], from its own formula."""
    if isinstance(model, bases.WaveletModel):
        return model.grid_atoms()[:, np.minimum((x * N_GRID).astype(int), N_GRID - 1)].T
    if isinstance(model, bases.HaarWeightedModel):
        return per_level_haar_basis_matrix(model, x)
    out = np.zeros((len(x), model.dim))
    for i, xi in enumerate(x):
        c = min(np.searchsorted(model.boundaries, xi, side="right") - 1, model.n_cells - 1)
        a, b = model.boundaries[c], model.boundaries[c + 1]
        u = 2.0 * (xi - a) / (b - a) - 1.0
        for d, p_d in enumerate((1.0, u)[: model.degree + 1]):
            out[i, c * (model.degree + 1) + d] = np.sqrt((2 * d + 1) / (b - a)) * p_d
    return out


class TestEvaluation:
    @pytest.mark.parametrize("build", [
        lambda: build_histogram([0, 0.3, 0.7, 1]),
        lambda: build_piecewise_poly([0, 0.5, 1], 1),
        lambda: build_periodized_wavelet(transform.DB8, 3),
        lambda: build_haar_weighted(3),
    ], ids=["histogram", "poly1", "db8", "haar"])
    def test_points_outside_unit_interval_meet_no_atom(self, build):
        # before, a histogram gave 1.826 at x = -0.5 and 1.5, a linear
        # piece extrapolated, and db8 cast NaN to a grid index with a warning
        m = build()
        inside = np.concatenate([[0.0, 0.3, 0.5, 1.0], np.random.default_rng(2).random(50)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = m.basis_matrix(np.concatenate([inside, OUTSIDE]))
        assert not got[len(inside):].any()
        np.testing.assert_allclose(got[: len(inside)], reference_rows(m, inside),
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("j_max", [0, 3, 6])
    @pytest.mark.parametrize("name", ["haar", "db8"])
    def test_design_on_the_grid_is_the_grid_atoms(self, name, j_max):
        # the reference grid is an equispaced dyadic design, so the design
        # matrix there is the discrete pyramid basis: the grid atoms
        m = build_periodized_wavelet(transform.get_filter(name), j_max)
        got = m.design_matrix(reference_grid())
        assert got.tobytes() == np.ascontiguousarray(m.grid_atoms().T).tobytes()

    def test_design_elsewhere_is_the_basis_matrix(self):
        m = build_periodized_wavelet(transform.DB8, 3)
        n = 64
        left = m.design_matrix(np.arange(n) / n)
        assert np.allclose(left.T @ left / n, np.eye(m.dim), atol=1e-12)
        jittered = np.sort(np.random.default_rng(0).random(n))
        assert np.array_equal(m.design_matrix(jittered), m.basis_matrix(jittered))
        coarse = np.arange(8) / 8  # fewer points than atoms: no pyramid basis
        assert np.array_equal(m.design_matrix(coarse), m.basis_matrix(coarse))

    def test_grid_read_refused_past_the_reference_grid(self):
        # the model builds, since pyramid fits never read the grid
        m = build_periodized_wavelet(transform.DB8, 14)
        assert m.dim == 2 * N_GRID
        with pytest.raises(ValueError, match="exceeds the reference grid"):
            m.grid_atoms()


class TestCertification:
    def test_weighted_haar_uniform_paper_constants(self):
        # admissible at r_m = max(sqrt(2)+1, sqrt(2)) and A_c = 1
        m = build_haar_weighted(3)
        cert = certify_slb(m)
        assert cert.passed
        assert cert.measured_r_m <= np.sqrt(2) + 1 + 1e-12
        assert cert.measured_A_c == pytest.approx(1.0)
        labels, a_vals = m.auto_scales()
        proposed = certify_slb(m, SlbProposal(a_vals, labels,
                                              r_m=np.sqrt(2) + 1, A_c=1.0))
        assert proposed.passed

    def test_histogram_single_scale(self):
        m = build_histogram(np.linspace(0, 1, 9))
        cert = certify_slb(m)
        assert cert.passed
        assert cert.b == 1
        assert cert.A[0] == pytest.approx(m.dim)
        assert cert.measured_r_m <= 1.0 + 1e-12

    def test_piecewise_poly_overlap_constant(self):
        m = build_piecewise_poly(np.linspace(0, 1, 5), 2)
        cert = certify_slb(m)
        assert cert.passed
        assert cert.measured_A_c == pytest.approx(m.degree + 1)

    def test_adversarial_proposal_fails_sup_norm(self):
        m = build_histogram(np.linspace(0, 1, 9))
        labels = np.zeros(m.dim, dtype=int)
        bad = SlbProposal(np.array([0.1 * m.dim]), labels, r_m=1.0)
        cert = certify_slb(m, bad)
        assert not cert.checks["sup_norm"].passed
        assert not cert.passed

    def test_wavelet_certificate(self):
        m = build_periodized_wavelet(transform.DB8, 4)
        cert = certify_slb(m)
        assert cert.passed
        assert cert.b == m.j_max + 2
        assert np.all(np.diff(cert.A) >= 0)

    def test_overlap_counts_match_brute_force(self):
        m = build_periodized_wavelet(transform.DB8, 3)
        labels, a_vals = m.auto_scales()
        counts = bases.overlap_counts(m, labels, len(a_vals))
        masks = m.support_masks()
        for k in range(m.dim):
            for j in range(len(a_vals)):
                brute = sum(1 for l in range(m.dim)
                            if labels[l] == j and np.any(masks[k] & masks[l]))
                assert counts[k, j] == brute

    @pytest.mark.parametrize("build", [
        lambda: build_haar_weighted(2),
        lambda: build_haar_weighted(4, density=lambda x: 0.5 + x, c_min=0.5),
        lambda: build_periodized_wavelet(transform.DB8, 5),
        lambda: build_piecewise_poly(np.linspace(0, 1, 17), 2),
        lambda: build_histogram([0, 0.3, 0.7, 1]),
    ], ids=["haar2", "haar4-density", "db8-5", "poly2", "histogram"])
    def test_overlap_counts_match_integer_product(self, build):
        m = build()
        labels, a_vals = m.auto_scales()
        masks = m.support_masks().astype(np.int32)
        inter = (masks @ masks.T) > 0
        want = np.stack([inter[:, labels == j].sum(axis=1) for j in range(len(a_vals))], axis=1)
        assert np.array_equal(bases.overlap_counts(m, labels, len(a_vals)), want)

    def test_certificate_json_is_strict(self):
        # a NaN level gives NaN slacks, which strict JSON cannot hold
        m = build_histogram(np.linspace(0, 1, 5))
        labels, a_vals = m.auto_scales()
        cert = certify_slb(m, SlbProposal(a_vals, labels, r_m=np.nan))
        assert any(np.isnan(c.slack) for c in cert.checks.values())
        with pytest.raises(ValueError, match="JSON compliant"):
            cert.to_json()

    def test_certificate_json(self):
        import json
        cert = certify_slb(build_histogram(np.linspace(0, 1, 5)))
        doc = json.loads(cert.to_json())
        assert doc["passed"] is True
        assert set(doc["checks"]) == {"scale_budget", "sup_norm", "overlap"}


class TestLocalizedBound:
    def test_gaussian_draws_within_bound(self):
        m = build_haar_weighted(4)  # D = 32
        cert = certify_slb(m)
        worst = localized_bound_check(m, cert, trials=1000, seed=0)
        assert worst <= 1.0

    def test_single_atom_direction(self):
        m = build_haar_weighted(3)
        cert = certify_slb(m)
        atoms = m.grid_atoms()
        k = m.dim - 1
        ratio = np.max(np.abs(atoms[k])) / (cert.A_c * cert.r_m ** 2 * np.sqrt(m.dim))
        assert ratio <= 1.0

    def test_zero_coefficients(self):
        m = build_haar_weighted(2)
        cert = certify_slb(m)
        atoms = m.grid_atoms()
        assert np.max(np.abs(np.zeros(m.dim) @ atoms)) == 0.0

    def test_wavelet_bound(self):
        m = build_periodized_wavelet(transform.DB8, 4)
        cert = certify_slb(m)
        worst = localized_bound_check(m, cert, trials=300, seed=3)
        assert worst <= 1.0


def test_reference_grid_midpoints():
    g = reference_grid()
    assert len(g) == 1 << 14
    assert g[0] == pytest.approx(0.5 / (1 << 14))
    assert g[-1] == pytest.approx(1 - 0.5 / (1 << 14))
