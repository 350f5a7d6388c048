import tracemalloc

import numpy as np
import pytest

from wavesel import bases, estimator, selection, transform
from wavesel.bases import N_GRID, reference_grid
from wavesel.estimator import (SingularDesignError, compute_Cm, epsilon_n,
                               excess_risks, fit_ls, project_truth)
from wavesel.signals import (NoiseScenario, RegressionSample, SampleMeta, TestSignal,
                             eval_signal, generate, get_noise, get_signal)


def equispaced_sample(y, meta=None):
    n = len(y)
    x = (np.arange(n) + 0.5) / n
    return RegressionSample(x, np.asarray(y, float),
                            meta or SampleMeta("custom", "custom", n, 0))


def span_vector(model, beta, n):
    flat = np.zeros(n)
    flat[: model.dim] = np.asarray(beta, float) * np.sqrt(n)
    return transform.synthesize(transform.unflatten(flat, n), model.h)


class TestFitLs:
    def test_perfect_fit_zero_risk(self):
        model = bases.build_periodized_wavelet(transform.DB8, 3)
        y = span_vector(model, np.arange(1.0, model.dim + 1), 256)
        fit = fit_ls(equispaced_sample(y), model)
        assert fit.empirical_risk < 1e-12 * np.mean(y ** 2)

    def test_saturated_model_zero_risk(self):
        # the risk is (energy - sum of squared coefficients) / n, so a zero
        # risk is zero up to that difference's rounding: about 2 log2(n)
        # eps energy at most (measured on constant samples at n = 64..1024,
        # and under 4 eps energy on 2000 random samples at n = 64); the
        # bound takes twice that
        n = 64
        model = bases.build_periodized_wavelet(transform.DB8, 5)  # D = 64 = n
        y = np.random.default_rng(0).standard_normal(n)
        fit = fit_ls(equispaced_sample(y), model)
        assert fit.empirical_risk <= 4 * np.log2(n) * np.finfo(float).eps * np.dot(y, y) / n

    def test_nested_risk_decreases(self):
        sample = generate(get_signal("wave"), get_noise("l1"), 1024, 3)
        small = bases.build_periodized_wavelet(transform.DB8, 3)
        big = bases.build_periodized_wavelet(transform.DB8, 4)
        assert fit_ls(sample, big).empirical_risk <= fit_ls(sample, small).empirical_risk

    def test_pyramid_and_gram_agree_on_equispaced(self):
        rng = np.random.default_rng(5)
        model = bases.build_periodized_wavelet(transform.DB8, 4)
        y = rng.standard_normal(512)
        f_fast = fit_ls(equispaced_sample(y), model, method="pyramid_fast")
        f_gram = fit_ls(equispaced_sample(y), model, method="gram_exact")
        assert np.max(np.abs(f_fast.beta - f_gram.beta)) < 1e-8
        assert f_fast.empirical_risk == pytest.approx(f_gram.empirical_risk, abs=1e-12)

    def test_erm_minimality_random_perturbations(self):
        sample = generate(get_signal("doppler"), get_noise("h1"), 256, 8)
        model = bases.build_haar_weighted(3)
        fit = fit_ls(sample, model, method="gram_exact")
        phi = model.design_matrix(sample.x)
        rng = np.random.default_rng(11)
        for _ in range(100):
            beta = fit.beta + rng.standard_normal(model.dim) * 0.01
            risk = np.mean((sample.y - phi @ beta) ** 2)
            assert risk >= fit.empirical_risk - 1e-15

    def test_singular_design_rejected(self):
        # histogram cell without data makes the Gram singular
        model = bases.build_histogram([0, 0.5, 0.999, 1.0])
        x = np.linspace(0.01, 0.9, 40)
        sample = RegressionSample(x, np.zeros(40), SampleMeta("c", "c", 40, 0))
        with pytest.raises(SingularDesignError):
            fit_ls(sample, model)

    def test_polynomial_cell_without_data_ill_conditioned(self):
        # linear pieces vary within a cell, so the fit solves the normal
        # equations, and a cell without data leaves two zero eigenvalues
        model = bases.build_piecewise_poly([0, 0.5, 0.999, 1.0], 1)
        x = np.linspace(0.01, 0.9, 40)
        sample = RegressionSample(x, np.sin(x), SampleMeta("c", "c", 40, 0))
        with pytest.raises(SingularDesignError, match="condition number"):
            fit_ls(sample, model)

    def test_cholesky_failure_is_a_singular_design(self, monkeypatch):
        # a Gram that passes the condition check factors, so the failure is
        # forced: the dense route must report it as a singular design
        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
        sample = generate(get_signal("wave"), get_noise("h1"), 256, 4)
        model = bases.build_periodized_wavelet(transform.DB8, 3)
        with pytest.raises(SingularDesignError, match="not positive definite"):
            fit_ls(sample, model, method="gram_exact")

    def test_dimension_exceeding_sample(self):
        model = bases.build_haar_weighted(4)
        sample = generate(get_signal("wave"), get_noise("l1"), 16, 0)
        with pytest.raises(SingularDesignError, match="below model dimension"):
            fit_ls(sample, model)


def dense_fit_and_risks(sample, model, signal):
    """Reference: the n x D design-matrix route for a cell model."""
    n = sample.n
    phi = model.basis_matrix(sample.x)
    beta = np.linalg.solve(phi.T @ phi / n, phi.T @ sample.y / n)
    resid = sample.y - phi @ beta
    emp_risk = np.dot(resid, resid) / n
    atoms = model.grid_atoms()
    w = model.density_on_grid()
    weights = np.ones(N_GRID) if w is None else w
    s = signal(reference_grid())
    beta_m = (atoms * weights) @ s / N_GRID
    s_m, s_hat = atoms.T @ beta_m, atoms.T @ beta
    resid_m = sample.y - phi @ beta_m
    risks = {"bias": np.mean((s - s_m) ** 2 * weights),
             "excess": np.sum((beta - beta_m) ** 2),
             "total": np.mean((s - s_hat) ** 2 * weights),
             "empirical_excess": np.dot(resid_m, resid_m) / n - emp_risk,
             "sup_dev": np.max(np.abs(s_hat - s_m))}
    return beta, emp_risk, risks


class TestCellRoute:
    MODELS = {"uniform": lambda: bases.build_haar_weighted(3),
              "weighted": lambda: bases.build_haar_weighted(
                  3, density=lambda x: 0.5 + x, c_min=0.5),
              "exp": lambda: bases.build_haar_weighted(
                  3, density=lambda x: np.exp(x) / (np.e - 1.0), c_min=1.0 / (np.e - 1.0)),
              # cells that are not dyadic, and a diagonal table
              "histogram": lambda: bases.build_histogram([0.0, 0.3, 0.7, 1.0])}
    HAAR = sorted(MODELS.keys() - {"histogram"})

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_dense_design_route(self, name, n):
        model, sig = self.MODELS[name](), get_signal("doppler")
        sample = generate(sig, get_noise("h1"), n, 21)
        fit = fit_ls(sample, model, method="gram_exact")
        rep = excess_risks(sample, model, sig, fit=fit)
        beta, emp_risk, risks = dense_fit_and_risks(sample, model, sig)
        assert np.max(np.abs(fit.beta - beta)) <= 1e-12 * np.max(np.abs(beta))
        assert fit.empirical_risk == pytest.approx(emp_risk, rel=1e-12, abs=0)
        for field, want in risks.items():
            assert getattr(rep, field) == pytest.approx(want, rel=1e-12, abs=0), field

    @pytest.mark.parametrize("name", HAAR)
    def test_empty_finest_cell_singular(self, name):
        model = self.MODELS[name]()
        # no point in the first of the 16 finest cells
        x = np.linspace(1.0 / 16, 1.0, 256)
        sample = RegressionSample(x, np.sin(x), SampleMeta("c", "c", 256, 0))
        with pytest.raises(SingularDesignError, match="holds no point"):
            fit_ls(sample, model, method="gram_exact")

    @pytest.mark.parametrize("name", HAAR)
    def test_single_point_cell_fits(self, name):
        # one point in the first of the 16 finest cells: the least-squares
        # fit is unique, and the cell means give the dense solve's
        model = self.MODELS[name]()
        x = np.r_[0.01, np.linspace(1.0 / 16, 1.0, 255)]
        sample = RegressionSample(x, np.sin(7 * x), SampleMeta("c", "c", 256, 0))
        fit = fit_ls(sample, model, method="gram_exact")
        beta, emp_risk, _ = dense_fit_and_risks(sample, model, get_signal("wave"))
        assert np.max(np.abs(fit.beta - beta)) <= 1e-12 * np.max(np.abs(beta))
        assert fit.empirical_risk == pytest.approx(emp_risk, rel=1e-12, abs=0)


class TestProjectTruth:
    def test_member_of_model_projects_to_itself(self):
        model = bases.build_periodized_wavelet(transform.DB8, 3)
        beta = np.linspace(-1, 1, model.dim)
        grid_vals = model.grid_atoms().T @ beta
        member = TestSignal("Custom", lambda x: np.interp(x, reference_grid(), grid_vals))
        got = project_truth(member, model)
        assert np.max(np.abs(got - beta)) < 1e-10

    def test_constant_signal_father_only(self):
        model = bases.build_haar_weighted(3)
        const = TestSignal("Custom", lambda x: np.full_like(np.asarray(x, float), 1.7))
        beta = project_truth(const, model)
        assert beta[0] == pytest.approx(1.7)
        assert np.allclose(beta[1:], 0.0, atol=1e-12)

    def test_quadrature_and_pyramid_routes_agree(self):
        # wavelet route truncates the fine pyramid; direct quadrature of
        # signal * atom must agree
        sig = get_signal("wave")
        model = bases.build_periodized_wavelet(transform.DB8, 4)
        fast = project_truth(sig, model)
        svals = estimator.signal_grid_values(sig)
        direct = model.grid_atoms() @ svals / N_GRID
        assert np.max(np.abs(fast - direct)) < 1e-6

    def test_weighted_haar_member_under_density(self):
        density = lambda x: 0.5 + np.asarray(x, float)
        model = bases.build_haar_weighted(2, density=density, c_min=0.5)
        beta = np.array([0.3, -0.7, 0.2, 0.5, -0.1, 0.4, 0.0, 0.25])
        grid_vals = model.grid_atoms().T @ beta
        member = TestSignal("Custom", lambda x: np.interp(x, reference_grid(), grid_vals))
        got = project_truth(member, model)
        assert np.max(np.abs(got - beta)) < 1e-9


class TestExcessRisks:
    def test_forced_projection_zero_excess(self):
        sig = get_signal("wave")
        model = bases.build_periodized_wavelet(transform.DB8, 4)
        beta_m = project_truth(sig, model)
        n = 512
        y = span_vector(model, beta_m, n)
        rep = excess_risks(equispaced_sample(y), model, sig)
        assert rep.excess < 1e-18
        assert rep.empirical_excess < 1e-15

    def test_pythagorean_identity(self):
        sample = generate(get_signal("heavisine"), get_noise("h1"), 1024, 17)
        model = bases.build_periodized_wavelet(transform.DB8, 4)
        rep = excess_risks(sample, model, get_signal("heavisine"))
        assert rep.total == pytest.approx(rep.bias + rep.excess, abs=1e-8)

    def test_excess_risks_evaluate_the_truth_once(self, monkeypatch):
        sig = get_signal("wave")
        model = bases.build_periodized_wavelet(transform.DB8, 4)
        sample = generate(sig, get_noise("h1"), 1024, 4)
        want = excess_risks(sample, model, sig)
        calls = []
        real = estimator.signal_grid_values
        monkeypatch.setattr(estimator, "signal_grid_values",
                            lambda s: calls.append(s) or real(s))
        assert excess_risks(sample, model, sig) == want
        assert calls == [sig]

    def test_fit_of_another_model_refused(self):
        sig = get_signal("wave")
        sample = generate(sig, get_noise("h1"), 512, 1)
        fit = fit_ls(sample, bases.build_haar_weighted(4))
        with pytest.raises(ValueError, match="dimension-32 model, not of dimension 8"):
            excess_risks(sample, bases.build_haar_weighted(2), sig, fit=fit)

    def test_model_past_the_grid_refused_before_any_grid_atoms(self, monkeypatch):
        # at n = 65536 the collection ends at 2^15 atoms; the D = 2^14 model
        # before it would build a 2 GB grid-atom array if the check came late
        monkeypatch.setattr(bases.WaveletModel, "_grid_atoms",
                            property(lambda self: pytest.fail("grid atoms built")))
        sample = generate(get_signal("wave"), get_noise("l1"), 1 << 16, 4)
        fits = selection.fit_collection(sample, selection.wavelet_collection(1 << 16,
                                                                            transform.DB8)).fits
        assert fits[-1].model.dim == 2 * N_GRID
        with pytest.raises(ValueError, match="exceeds the reference grid"):
            estimator.nested_fit_risks(sample, fits, get_signal("wave"))

    def test_empirical_excess_nonnegative(self):
        for seed in range(5):
            sample = generate(get_signal("spikes"), get_noise("h2"), 256, seed)
            model = bases.build_haar_weighted(3)
            rep = excess_risks(sample, model, get_signal("spikes"),
                               fit=fit_ls(sample, model, method="gram_exact"))
            assert rep.empirical_excess >= 0.0


def reference_cm(signal, noise, model, n_mc, seed, n_batches=50):
    """The earlier compute_Cm body, with its separate product z = resid * phi."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    beta_m = project_truth(signal, model)
    s_m_grid = estimator._values(model, beta_m)
    x = rng.random(n_mc)
    eps = rng.standard_normal(n_mc)
    idx = np.clip((x * N_GRID).astype(int), 0, N_GRID - 1)
    resid = signal(x) - s_m_grid[idx] + np.asarray(noise.sigma(x), dtype=float) * eps
    if isinstance(model, bases.WaveletModel):
        phi = model.grid_atoms()[:, idx].T
    else:
        phi = model.basis_matrix(x)
    z = resid[:, None] * phi
    total = float(np.sum(np.var(z, axis=0, ddof=1)))
    batch = n_mc // n_batches
    vals = [float(np.sum(np.var(z[i * batch:(i + 1) * batch], axis=0, ddof=1)))
            for i in range(n_batches)]
    return total, float(np.std(vals, ddof=1) / np.sqrt(n_batches))


def reference_cell_cm(signal, noise, model, n_mc, seed, n_batches=50):
    """compute_Cm's per-cell sums, with s_m read on each draw's cell."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    beta_m = project_truth(signal, model)
    x = rng.random(n_mc)
    eps = rng.standard_normal(n_mc)
    cells = model.cells(x)
    resid = (eval_signal(signal, x) - (model.table @ beta_m)[cells]
             + np.asarray(noise.sigma(x), dtype=float) * eps)
    dim, batch = model.dim, n_mc // n_batches
    key = np.minimum(np.arange(n_mc) // batch, n_batches) * dim + cells
    shape = (n_batches + 1, dim)
    sum_z = np.bincount(key, resid, minlength=shape[0] * dim).reshape(shape) @ model.table
    sum_z2 = (np.bincount(key, resid * resid, minlength=shape[0] * dim).reshape(shape)
              @ np.square(model.table))

    def var_sums(sum_z, sum_z2, m):
        return np.sum((sum_z2 - sum_z * sum_z / m) / (m - 1), axis=-1)

    vals = var_sums(sum_z[:n_batches], sum_z2[:n_batches], batch)
    return (float(var_sums(sum_z.sum(axis=0), sum_z2.sum(axis=0), n_mc)),
            float(np.std(vals, ddof=1) / np.sqrt(n_batches)))


class TestComputeCm:
    @pytest.mark.parametrize("model", [
        bases.build_haar_weighted(3),
        bases.build_haar_weighted(3, density=lambda x: 0.5 + x, c_min=0.5),
        bases.build_periodized_wavelet(transform.get_filter("db8"), 3),
    ], ids=["haar", "weighted-haar", "db8"])
    def test_matches_reference_formula(self, model):
        # Haar models sum per cell, so they agree with the dense variances
        # up to rounding (measured: 1e-12 relative at most); db8 is dense
        sig, noise = get_signal("heavisine"), get_noise("h1")
        est = compute_Cm(sig, noise, model, n_mc=20_000, seed=11)
        want = reference_cm(sig, noise, model, 20_000, 11)
        if isinstance(model, bases.HaarWeightedModel):
            assert (est.value, est.stderr) == pytest.approx(want, rel=1e-11, abs=0.0)
        else:
            assert (est.value, est.stderr) == want

    def test_histogram_reads_each_draws_own_cell(self):
        # the 0.3 and 0.7 edges lie off the reference grid, so the nearest
        # grid point of a draw just below an edge is in the next cell; s_m
        # must be read on the draw's own cell (two of these draws were not)
        sig, noise = get_signal("heavisine"), get_noise("l1")
        model = bases.build_histogram([0.0, 0.3, 0.7, 1.0])
        est = compute_Cm(sig, noise, model, n_mc=100_000, seed=3)
        assert (est.value, est.stderr) == reference_cell_cm(sig, noise, model, 100_000, 3)

    def test_haar_route_builds_no_n_mc_by_d_matrix(self):
        # the dense route holds about 132 n_mc floats at D = 64
        sig, noise, n_mc = get_signal("wave"), get_noise("h1"), 100_000
        model = bases.build_haar_weighted(5)
        compute_Cm(sig, noise, model, n_mc=n_mc, seed=3)  # warm the caches
        tracemalloc.start()
        try:
            compute_Cm(sig, noise, model, n_mc=n_mc, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.dim == 64 and peak < 16 * 8 * n_mc

    def test_constant_noise_member_signal(self):
        # sigma constant and truth inside the model: C_m = sigma^2 * D
        model = bases.build_haar_weighted(3)
        const = TestSignal("Custom", lambda x: np.full_like(np.asarray(x, float), 0.4))
        noise = NoiseScenario("Custom", lambda x: np.full_like(np.asarray(x, float), 0.05))
        est = compute_Cm(const, noise, model, n_mc=200_000, seed=2)
        assert est.value == pytest.approx(0.05 ** 2 * model.dim, rel=0.02)

    def test_quadrature_oracle(self):
        # independent check: C_m = sum_k int ((s-s_m)^2 + sigma^2) phi_k^2
        #                          - (int (s-s_m) phi_k)^2 under the uniform law
        sig = get_signal("wave")
        noise = get_noise("h1")
        model = bases.build_haar_weighted(3)
        beta_m = project_truth(sig, model)
        grid = reference_grid()
        atoms = model.grid_atoms()
        resid = estimator.signal_grid_values(sig) - atoms.T @ beta_m
        sig2 = noise(grid) ** 2
        lin = atoms @ resid / N_GRID
        quad = np.sum((resid ** 2 + sig2) * atoms ** 2) / N_GRID - np.sum(lin ** 2)
        est = compute_Cm(sig, noise, model, n_mc=400_000, seed=5)
        assert est.value == pytest.approx(quad, rel=0.05)

    def test_paper_bracket(self):
        # sigma_min^2 D/2 <= C_m <= 3 A D / 2 with A bounding the data scale
        sig = get_signal("wave")
        for noise_name in ("l1", "h1", "h2"):
            noise = get_noise(noise_name)
            model = bases.build_haar_weighted(4)
            est = compute_Cm(sig, noise, model, n_mc=100_000, seed=7)
            grid = reference_grid()
            sigma_min = float(np.min(noise(grid)))
            a_bound = float(np.max(np.abs(estimator.signal_grid_values(sig)))
                            + 3 * np.max(noise(grid)))
            assert est.value > 0.0
            assert sigma_min ** 2 * model.dim / 2 <= est.value <= 1.5 * a_bound * model.dim

    def test_stderr_shrinks_with_n_mc(self):
        sig, noise = get_signal("wave"), get_noise("h1")
        model = bases.build_haar_weighted(2)
        lo = compute_Cm(sig, noise, model, n_mc=50_000, seed=9)
        hi = compute_Cm(sig, noise, model, n_mc=200_000, seed=9)
        # quadrupling n_mc halves the standard error, approximately
        assert hi.stderr / lo.stderr == pytest.approx(0.5, abs=0.25)

    def test_requires_minimum_draws(self):
        with pytest.raises(ValueError):
            compute_Cm(get_signal("wave"), get_noise("l1"),
                       bases.build_haar_weighted(1), n_mc=100)


def test_supnorm_consistency_scaling():
    # median of sup_dev / sqrt(D ln n / n) stays of the same order across
    # (n, D) in {(256,16), (1024,32), (4096,64)}: a scaling check, not a
    # specific constant
    from wavesel.signals import derive_seed
    sig, noi = get_signal("wave"), get_noise("h1")
    medians = []
    for n, dim in ((256, 16), (1024, 32), (4096, 64)):
        model = bases.build_haar_weighted(int(np.log2(dim)) - 1)
        devs = []
        for r in range(100):
            sample = generate(sig, noi, n, derive_seed(60, 10 * n + r))
            fit = fit_ls(sample, model, method="gram_exact")
            rep = excess_risks(sample, model, sig, fit=fit)
            devs.append(rep.sup_dev / np.sqrt(dim * np.log(n) / n))
        medians.append(np.median(devs))
    assert max(medians) / min(medians) < 2.0, medians


def test_epsilon_n_formula():
    n, dim = 4096, 64
    ln = np.log(n)
    expected = max((ln / dim) ** 0.25, (dim * ln / n) ** 0.25)
    assert epsilon_n(n, dim) == pytest.approx(expected)
    assert epsilon_n(n, dim, L0=2.0) == pytest.approx(2 * expected)
