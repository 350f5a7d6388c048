import tracemalloc
import warnings

import numpy as np
import pytest

from wavesel import bases, concentration, estimator, transform
from wavesel.concentration import (ConcentrationRangeWarning, functional_rep_check,
                                   rep_formula_oracle, run_concentration)
from wavesel.signals import (NoiseScenario, TestSignal, derive_seed, generate, get_noise,
                             get_signal)

ZERO_NOISE = NoiseScenario("Custom", lambda x: np.zeros_like(np.asarray(x, float)))


class TestRepFormulaOracle:
    def test_dim_one_closed_form(self):
        # scalar case: Gamma(C) = 2|a| sqrt(C) - (M+1) C peaks at the
        # squared coefficient deviation
        sig = get_signal("wave")
        sample = generate(sig, get_noise("h1"), 32, 3)
        model = bases.build_histogram([0.0, 1.0])
        rep = rep_formula_oracle(sample, model, sig, n_c=400, n_dir=64, seed=0)
        assert rep.max_matches_emp
        assert rep.excess_in_argmax
        # closed form cross-check (the single cell [0,1] has exact unit norm)
        a, m_mat, gram_p, *_ = concentration._empirical_terms(sample, model, sig)
        assert gram_p[0, 0] == pytest.approx(1.0, abs=1e-12)
        c_star = float((a[0] / (m_mat[0, 0] + 1.0)) ** 2)
        assert rep.argmax_c == pytest.approx(c_star, rel=1e-6)

    def test_zero_noise_member_degenerates_to_zero(self):
        member = TestSignal("Custom", lambda x: np.full_like(np.asarray(x, float), 0.2))
        sample = generate(member, ZERO_NOISE, 32, 5)
        model = bases.build_histogram([0.0, 0.5, 1.0])
        rep = rep_formula_oracle(sample, model, member, n_c=300, n_dir=512, seed=0)
        assert rep.emp_excess < 1e-18
        assert rep.max_gamma == pytest.approx(0.0, abs=1e-12)
        assert rep.argmax_c < 1e-6

    @pytest.mark.parametrize("seed", [11, 23])
    def test_dim_two_identities(self, seed):
        sig = get_signal("doppler")
        sample = generate(sig, get_noise("h1"), 32, seed)
        model = bases.build_histogram([0.0, 0.5, 1.0])
        rep = rep_formula_oracle(sample, model, sig, n_c=1000, n_dir=10_000, seed=1)
        assert abs(rep.max_gamma - rep.emp_excess) <= 1e-4 * max(rep.emp_excess, 1e-12)
        assert rep.excess_in_argmax
        assert rep.solver_gap <= 1e-3 * max(rep.emp_excess, 1e-12)

    def test_ball_variant_same_max_and_argmax(self):
        sig = get_signal("wave")
        sample = generate(sig, get_noise("h1"), 48, 9)
        model = bases.build_histogram([0.0, 0.4, 1.0])
        sphere = rep_formula_oracle(sample, model, sig, n_c=600, n_dir=2000, seed=2)
        ball = rep_formula_oracle(sample, model, sig, n_c=600, n_dir=2000, seed=2, ball=True)
        assert ball.max_gamma == pytest.approx(sphere.max_gamma, rel=1e-9)
        assert ball.argmax_c == pytest.approx(sphere.argmax_c, rel=1e-6)

    def test_sup_norm_truncation_keeps_identities(self):
        # restricting candidates to twice the observed sup deviation keeps
        # the maximizer feasible, so the identities survive
        sig = get_signal("wave")
        sample = generate(sig, get_noise("h1"), 32, 13)
        model = bases.build_histogram([0.0, 0.5, 1.0])
        base = rep_formula_oracle(sample, model, sig, n_c=500, n_dir=4000, seed=3)
        rep_report = estimator.excess_risks(
            sample, model, sig, fit=estimator.fit_ls(sample, model, method="gram_exact"))
        r0 = 2.0 * rep_report.sup_dev
        trunc = rep_formula_oracle(sample, model, sig, n_c=500, n_dir=4000, seed=3, r0=r0)
        assert trunc.max_matches_emp
        assert trunc.excess_in_argmax
        assert trunc.max_gamma == pytest.approx(base.max_gamma, rel=1e-3)

    def test_sphere_max_where_the_offset_rounds_away(self):
        # with |lambda_min| >= 128, lo = -lambda_min + 1e-14 rounds to the
        # pole itself; norm2 used to raise ZeroDivisionError there
        m_mat, a, c = np.diag([-200.0, 1.0]), np.array([1.0, 0.5]), 0.3
        evals, vecs = np.linalg.eigh(m_mat)
        assert -evals[0] + 1e-14 == -evals[0]
        value, delta = concentration._sphere_max_quadratic(a, m_mat, c,
                                                           (evals, vecs, vecs.T @ a))
        assert delta @ delta == pytest.approx(c, rel=1e-12)
        rng = np.random.Generator(np.random.Philox(0))
        rand = concentration._random_direction_max(a, m_mat, c, rng, 2000)
        assert value == pytest.approx(rand, rel=1e-9)

    def test_rejects_large_models(self):
        sig = get_signal("wave")
        sample = generate(sig, get_noise("h1"), 32, 1)
        with pytest.raises(ValueError):
            rep_formula_oracle(sample, bases.build_haar_weighted(2), sig)


class TestFunctionalRep:
    def test_zero_functional_vacuous(self):
        sig = get_signal("wave")
        sample = generate(sig, get_noise("h1"), 32, 2)
        model = bases.build_histogram([0.0, 0.5, 1.0])
        rep = functional_rep_check(sample, model, sig, functional="zero")
        assert rep.vacuous and rep.passed

    def test_dim_one_two_point_level_sets(self):
        sig = get_signal("heavisine")
        sample = generate(sig, get_noise("h1"), 32, 8)
        model = bases.build_histogram([0.0, 1.0])
        rep = functional_rep_check(sample, model, sig)
        fit = estimator.fit_ls(sample, model, method="gram_exact")
        beta_m = estimator.project_truth(sig, model)
        expected = abs(fit.beta[0] - beta_m[0]) * model.sup_norms()[0]
        assert rep.functional_value == pytest.approx(expected, rel=1e-9)
        assert rep.passed

    @pytest.mark.parametrize("seed", [4, 17])
    def test_dim_two_pass(self, seed):
        sig = get_signal("wave")
        sample = generate(sig, get_noise("h1"), 32, seed)
        model = bases.build_histogram([0.0, 0.5, 1.0])
        rep = functional_rep_check(sample, model, sig, n_c=600, n_dir=6000, seed=5)
        assert rep.passed


class TestRunConcentration:
    def test_small_run_reports(self):
        sig, noi = get_signal("wave"), get_noise("h1")
        model = bases.build_haar_weighted(3)  # D = 16
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConcentrationRangeWarning)
            rep = run_concentration(sig, noi, model, 512, 100, seed=3, n_mc=20_000)
        assert rep.replications == 100
        assert len(rep.ratios_true) == 100
        assert 0.7 <= np.mean(rep.ratios_true) <= 1.3
        assert rep.std_emp < rep.std_true
        assert rep.failures == 0

    def test_ratios_match_excess_risks_per_replication(self):
        # the truth terms computed once per run give the same floats as the
        # public excess_risks called on each replication
        sig, noi = get_signal("doppler"), get_noise("h1")
        model = bases.build_haar_weighted(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConcentrationRangeWarning)
            rep = run_concentration(sig, noi, model, 256, 100, seed=5, n_mc=20_000)
        r_true, r_emp = [], []
        for i in range(100):
            sample = generate(sig, noi, 256, derive_seed(5, i))
            fit = estimator.fit_ls(sample, model, method="gram_exact")
            risks = estimator.excess_risks(sample, model, sig, fit=fit)
            r_true.append(256 * risks.excess / rep.c_m)
            r_emp.append(256 * risks.empirical_excess / rep.c_m)
        assert rep.failures == 0
        assert np.array_equal(rep.ratios_true, r_true)
        assert np.array_equal(rep.ratios_emp, r_emp)

    def test_histogram_matches_per_replication_fits(self):
        # a histogram is a cell model, fitted by bin means like a weighted
        # Haar model; at n = 24 about a third of the replications leave one
        # of the 8 bins empty, so failed rows sit among fitted ones in every
        # block
        sig, noi = get_signal("heavisine"), get_noise("h2")
        model = bases.build_histogram(np.linspace(0.0, 1.0, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConcentrationRangeWarning)
            rep = run_concentration(sig, noi, model, 24, 100, seed=4, n_mc=10_000)
        r_true, r_emp, failures = [], [], 0
        for i in range(100):
            sample = generate(sig, noi, 24, derive_seed(4, i))
            try:
                fit = estimator.fit_ls(sample, model, method="gram_exact")
            except estimator.SingularDesignError:
                failures += 1
                continue
            risks = estimator.excess_risks(sample, model, sig, fit=fit)
            r_true.append(24 * risks.excess / rep.c_m)
            r_emp.append(24 * risks.empirical_excess / rep.c_m)
        assert 10 <= failures <= 60 and rep.failures == failures
        assert np.array_equal(rep.ratios_true, r_true)
        assert np.array_equal(rep.ratios_emp, r_emp)

    def test_report_bytes_do_not_depend_on_block_size(self, monkeypatch):
        # blocks of 1, of 7 and of the default size; at n = 64 about a
        # quarter of the replications leave a cell of the D = 16 model empty
        sig, noi = get_signal("spikes"), get_noise("l2")
        model = bases.build_haar_weighted(3)
        charge = 8 * 64
        reports = []
        for size in (1, 7, None):
            if size is not None:
                monkeypatch.setattr(concentration, "_BLOCK_ELEMENTS", size * charge)
            else:
                monkeypatch.undo()
            assert concentration._block_size(64) == (
                size or concentration._BLOCK_ELEMENTS // charge)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConcentrationRangeWarning)
                rep = run_concentration(sig, noi, model, 64, 100, seed=6, n_mc=10_000)
            reports.append(rep.to_json())
        assert 0 < rep.failures < 50
        assert reports[0] == reports[1] == reports[2]

    def test_constant_noise_member_mean_near_one(self):
        # sigma constant and truth inside the model: C_m = sigma^2 D exactly
        member = TestSignal("Custom", lambda x: np.full_like(np.asarray(x, float), 0.3))
        noise = NoiseScenario("Custom", lambda x: np.full_like(np.asarray(x, float), 0.05))
        model = bases.build_haar_weighted(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConcentrationRangeWarning)
            rep = run_concentration(member, noise, model, 1024, 150, seed=9, n_mc=50_000)
        assert rep.c_m == pytest.approx(0.05 ** 2 * model.dim, rel=0.03)
        assert abs(np.mean(rep.ratios_true) - 1.0) < 0.15

    def test_range_warning_emitted(self):
        sig, noi = get_signal("wave"), get_noise("h1")
        model = bases.build_haar_weighted(4)  # D = 32 > 1024/ln(1024)^2
        with pytest.warns(ConcentrationRangeWarning):
            run_concentration(sig, noi, model, 1024, 100, seed=1, n_mc=20_000)

    def test_every_replication_singular_refused(self):
        # a 32-dimensional model on 16 points is singular in every
        # replication, so no mean, spread or coverage exists
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConcentrationRangeWarning)
            with pytest.raises(ValueError,
                               match="100 of 100 replications had a singular design"):
                run_concentration(get_signal("wave"), get_noise("h1"),
                                  bases.build_haar_weighted(4), 16, 100, seed=0, n_mc=10_000)

    def test_design_density_refused(self):
        # the draws are uniform, so a model orthonormal under 0.5 + x would
        # give plausible but wrong ratios
        model = bases.build_haar_weighted(4, density=lambda x: 0.5 + x, c_min=0.5)
        with pytest.raises(ValueError, match="uniform design"):
            run_concentration(get_signal("wave"), get_noise("h1"), model, 4096, 100, seed=0,
                              n_mc=10_000)

    def test_model_without_cells_refused(self):
        # a db8 atom is not constant on cells, so the fit would need each
        # replication's n x D design
        model = bases.build_periodized_wavelet(transform.DB8, 4)
        with pytest.raises(ValueError, match="not constant on cells"):
            run_concentration(get_signal("wave"), get_noise("h1"), model, 4096, 100, seed=0,
                              n_mc=10_000)

    def test_requires_hundred_replications(self):
        with pytest.raises(ValueError):
            run_concentration(get_signal("wave"), get_noise("h1"),
                              bases.build_haar_weighted(3), 512, 50, seed=0)

    def test_report_serialization(self):
        import json
        sig, noi = get_signal("wave"), get_noise("h1")
        model = bases.build_haar_weighted(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConcentrationRangeWarning)
            rep = run_concentration(sig, noi, model, 512, 100, seed=3, n_mc=20_000)
        doc = json.loads(rep.to_json())
        assert doc["dim"] == 16 and doc["n"] == 512
        assert len(doc["ratios_true"]) == 100


@pytest.mark.parametrize("n, j_max", [(1024, 4), (4096, 5)])
def test_block_memory_within_its_charge(n, j_max):
    # _block_size charges each replication 8n elements, a little above what
    # a block holds for every signal, Spikes included; the traced peak of a
    # full Spikes block must stay within 1.25 times that charge
    sig, noi = get_signal("spikes"), get_noise("h1")
    model = bases.build_haar_weighted(j_max)
    charge = 8 * n
    block = concentration._block_size(n)
    assert block == concentration._BLOCK_ELEMENTS // charge
    beta_m = estimator.project_truth(sig, model)
    concentration._replicate_block(sig, noi, model, n, [1], beta_m)  # warm the caches
    seeds = [derive_seed(5, r) for r in range(block)]
    tracemalloc.start()
    try:
        excess, _ = concentration._replicate_block(sig, noi, model, n, seeds, beta_m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(excess) == block
    assert peak <= 1.25 * 8 * charge * block
