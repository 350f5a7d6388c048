"""Acceptance suite: the eight exit criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with -s or on failure).
Criterion 2 has two separately-stated claims and gets two tests; the
second claim contradicts both criterion 1 and the reference tables it
was derived from, and is expected to fail honestly (see the decisions
ledger outside the package).
"""

import json
import warnings

import numpy as np
import pytest

from wavesel import bases, bench, cli, concentration, estimator, selection, transform
from wavesel.signals import (NoiseScenario, TestSignal, derive_seed, generate,
                             get_noise, get_signal)

# reference means from the comparison tables (method columns SH, Cp)
TABLE_TARGETS = {
    ("wave", "l1", 1024): {"sh": 1.051, "cp": 1.031},
    ("wave", "l1", 4096): {"sh": 1.021, "cp": 1.021},
    ("heavisine", "l1", 1024): {"sh": 1.065, "cp": 1.023},
    ("heavisine", "l1", 4096): {"sh": 1.011, "cp": 1.008},
    ("doppler", "l1", 1024): {"sh": 2.091, "cp": 1.064},
    ("doppler", "l1", 4096): {"sh": 1.010, "cp": 1.000},
    ("spikes", "l1", 1024): {"sh": 1.077, "cp": 1.021},
    ("spikes", "l1", 4096): {"sh": 1.008, "cp": 1.008},
    ("wave", "h1", 1024): {"sh": 1.003, "cp": 1.002},
    ("wave", "h1", 4096): {"sh": 1.011, "cp": 1.008},
    ("heavisine", "h1", 1024): {"sh": 1.057, "cp": 1.054},
    ("heavisine", "h1", 4096): {"sh": 1.029, "cp": 1.028},
    ("doppler", "h1", 1024): {"sh": 1.054, "cp": 1.025},
    ("doppler", "h1", 4096): {"sh": 1.013, "cp": 1.014},
    ("spikes", "h1", 1024): {"sh": 1.006, "cp": 1.005},
    ("spikes", "h1", 4096): {"sh": 1.012, "cp": 1.010},
}
TOLERANCE = 0.15
N_REPS = 300
BASE_SEED = 20260808


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def table_bench():
    cfg = bench.BenchConfig(
        signals=("wave", "heavisine", "doppler", "spikes"), noises=("l1", "h1"),
        sizes=(1024, 4096), methods=("sh", "cp"),
        replications=N_REPS, base_seed=BASE_SEED)
    return bench.run_bench(cfg)


@pytest.fixture(scope="module")
def low_noise_bench():
    cfg = bench.BenchConfig(
        signals=("wave", "heavisine", "doppler", "spikes"), noises=("l1", "l2"),
        sizes=(256, 1024, 4096), methods=("sh", "cp", "vfcv", "penvf"),
        replications=N_REPS, base_seed=BASE_SEED)
    return bench.run_bench(cfg)


def test_criterion_1_table_trend(table_bench):
    """Mean oracle ratios within 0.15 of the reference tables, 16 cells x 2."""
    misses = []
    for (sig, noi, n), targets in TABLE_TARGETS.items():
        for method, target in targets.items():
            got = table_bench.cell(sig, noi, n, method).mean
            if abs(got - target) > TOLERANCE:
                misses.append((sig, noi, n, method, round(got, 3), target))
    ok = not misses
    report(1, ok, f"{32 - len(misses)}/32 cell means within +-{TOLERANCE}"
                  + (f"; misses: {misses}" if misses else ""))
    assert ok, misses


def test_criterion_2a_penalized_vs_crossvalidated(low_noise_bench):
    """pen2F mean at most the 2FCV mean in at least 70 percent of cells."""
    cfg = low_noise_bench.config
    wins = total = 0
    for sig, noi, n in cfg.cells:
        penvf = low_noise_bench.cell(sig, noi, n, "penvf").mean
        vfcv = low_noise_bench.cell(sig, noi, n, "vfcv").mean
        total += 1
        wins += penvf <= vfcv
    frac = wins / total
    ok = frac >= 0.70
    report("2a", ok, f"pen2F <= 2FCV in {wins}/{total} cells ({frac:.0%})")
    assert ok


def test_criterion_2b_sh_within_factor_of_best(low_noise_bench):
    """SH never above 1.5x the best method's mean for n >= 1024.

    As stated this contradicts criterion 1: the reference table itself has
    SH at 2.09x the best method on the Doppler low-noise n=1024 cell, and
    criterion 1 pins our SH to that value. Kept faithful; see the ledger.
    """
    cfg = low_noise_bench.config
    violations = []
    for sig, noi, n in cfg.cells:
        if n < 1024:
            continue
        means = {m: low_noise_bench.cell(sig, noi, n, m).mean for m in cfg.methods}
        best = min(means.values())
        if means["sh"] > 1.5 * best:
            violations.append((sig, noi, n, round(means["sh"], 3), round(best, 3)))
    ok = not violations
    report("2b", ok, "no SH cell above 1.5x best" if ok else f"violations: {violations}")
    assert ok, violations


def test_criterion_3_concentration_suite():
    """Excess-risk ratios: mean in [0.8, 1.2], empirical std strictly
    smaller, coverage of (1 +- eps_n) at least 0.9 with L0 = 1."""
    sig, noi = get_signal("wave"), get_noise("h1")
    results = []
    for n, dim in ((1024, 32), (4096, 64)):
        model = bases.build_haar_weighted(int(np.log2(dim)) - 1)
        assert model.dim == dim
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", concentration.ConcentrationRangeWarning)
            rep = concentration.run_concentration(sig, noi, model, n, 200,
                                                  seed=derive_seed(BASE_SEED, n))
        mean_ratio = float(np.mean(rep.ratios_true))
        results.append((n, dim, mean_ratio, rep.std_true, rep.std_emp,
                        rep.coverage_true_eps))
        assert 0.8 <= mean_ratio <= 1.2, (n, dim, mean_ratio)
        assert rep.std_emp < rep.std_true, (n, dim, rep.std_emp, rep.std_true)
        assert rep.coverage_true_eps >= 0.9, (n, dim, rep.coverage_true_eps)
    report(3, True, "; ".join(
        f"(n={n}, D={d}): mean {m:.3f}, std {st:.3f} vs {se:.3f} emp, cover {c:.2f}"
        for n, d, m, st, se, c in results))


def test_criterion_4_representation_oracle():
    """50 random tiny instances: max Gamma equals the empirical excess to
    1e-4 relative, the true excess sits within one grid step of the argmax,
    and the two sphere solvers agree to 1e-3."""
    rng = np.random.default_rng(BASE_SEED)
    partitions = {
        1: [0.0, 1.0],
        2: [0.0, 0.5, 1.0],
        3: [0.0, 0.3, 0.7, 1.0],
    }
    checked = 0
    for i in range(50):
        dim = int(rng.integers(1, 4))
        n = int(rng.choice([16, 32, 64]))
        sig = get_signal(str(rng.choice(["wave", "heavisine", "doppler", "spikes"])))
        noi = get_noise(str(rng.choice(["l1", "h1", "h2"])))
        sample = generate(sig, noi, n, derive_seed(BASE_SEED, 1000 + i))
        model = bases.build_histogram(partitions[dim])
        rep = concentration.rep_formula_oracle(sample, model, sig, n_c=1000,
                                               n_dir=10_000, seed=i)
        assert rep.max_matches_emp, (i, rep.max_gamma, rep.emp_excess)
        assert rep.excess_in_argmax, (i, rep.excess, rep.argmax_c, rep.grid_step)
        assert rep.solver_gap <= 1e-3 * max(rep.emp_excess, 1e-12), (i, rep.solver_gap)
        checked += 1
    report(4, True, f"{checked}/50 instances satisfy both identities")


def test_criterion_5_basis_transform_invariants():
    """Gram orthonormality, the localization certificate with the stated
    constants, the localized bound, round-trip/Parseval, pyramid-vs-Gram."""
    # quadrature Gram identity for the smooth-filter family
    wav = bases.build_periodized_wavelet(transform.DB8, 4)
    assert np.max(np.abs(wav.gram_quadrature() - np.eye(wav.dim))) < 1e-6

    # Monte-Carlo Gram for the weighted Haar family at the n^(-1/2) rate
    haar = bases.build_haar_weighted(3)
    x = np.random.Generator(np.random.Philox(np.random.SeedSequence(1))).random(100_000)
    phi = haar.basis_matrix(x)
    assert np.max(np.abs(phi.T @ phi / len(x) - np.eye(haar.dim))) < 0.02

    # certification at the stated constants r_m = sqrt(2)+1, A_c = 1
    labels, a_vals = haar.auto_scales()
    cert = bases.certify_slb(haar, bases.SlbProposal(a_vals, labels,
                                                     r_m=np.sqrt(2) + 1, A_c=1.0))
    assert cert.passed

    # localized bound on 10^3 random coefficient draws
    auto = bases.certify_slb(haar)
    ratio = bases.localized_bound_check(haar, auto, trials=1000, seed=0)
    assert ratio <= 1.0

    # round trip and Parseval at 1e-10
    rng = np.random.default_rng(2)
    for filt in (transform.HAAR, transform.DB8):
        v = rng.standard_normal(1024)
        tree = transform.analyze(v, filt)
        assert np.max(np.abs(transform.synthesize(tree, filt) - v)) < 1e-10
        assert abs(tree.energy() - np.dot(v, v)) < 1e-10 * np.dot(v, v)

    # pyramid and Gram agree to 1e-8 on an equispaced design
    n = 512
    xeq = (np.arange(n) + 0.5) / n
    y = rng.standard_normal(n)
    from wavesel.signals import RegressionSample, SampleMeta
    sample = RegressionSample(xeq, y, SampleMeta("custom", "custom", n, 0))
    fast = estimator.fit_ls(sample, wav, method="pyramid_fast")
    gram = estimator.fit_ls(sample, wav, method="gram_exact")
    assert np.max(np.abs(fast.beta - gram.beta)) < 1e-8
    report(5, True, "orthonormality, certificate, localized bound, round trip, agreement")


def test_criterion_6_selection_invariants():
    """Exact path equals the dense-grid path, SH rescale invariance, VFCV
    shift invariance, ERM minimality, nested-risk monotonicity."""
    rng = np.random.default_rng(7)
    # synthetic traces
    for _ in range(25):
        k = int(rng.integers(2, 9))
        dims = np.sort(rng.choice(np.arange(1, 300), size=k, replace=False))
        risks = rng.random(k)
        shapes = dims / 256.0
        path = selection.penalty_path(shapes, risks, dims)
        alphas = np.linspace(0.0, 2.0 * risks.max() / shapes.min(), 10_000)
        for a in alphas[:: 97]:
            direct = dims[int(np.lexsort((dims, risks + a * shapes))[0])]
            assert path.segment_at(a).dim == direct

    # fitted traces
    fixtures = [("wave", "h1", 512, 3), ("spikes", "l2", 1024, 5),
                ("doppler", "l1", 512, 11)]
    for sig_name, noi_name, n, seed in fixtures:
        sig, noi = get_signal(sig_name), get_noise(noi_name)
        sample = generate(sig, noi, n, seed)
        coll = selection.wavelet_collection(n, transform.DB8)
        fits = selection.fit_collection(sample, coll)
        dims = coll.dims
        # nested-risk monotonicity on the fitted trace
        assert np.all(np.diff(fits.emp_risks) <= 1e-15)
        # exact vs dense-grid path on the fitted trace
        shapes = dims / n
        path = selection.penalty_path(shapes, fits.emp_risks, dims)
        hi = 2.0 * max(seg.alpha_lo for seg in path.segments) + 1e-6
        for a in np.linspace(0.0, hi, 2000):
            direct = dims[int(np.lexsort((dims, fits.emp_risks + a * shapes))[0])]
            assert path.segment_at(a).dim == direct
        # SH argmin invariance under penalty-shape rescaling
        a_out = selection.select_sh(fits, shape=shapes)
        b_out = selection.select_sh(fits, shape=3.5 * shapes)
        assert a_out.chosen_dim == b_out.chosen_dim
        # VFCV argmin invariance under model-independent criterion shifts
        v_out = selection.select_vfcv(fits, selection.fold_fitted(sample, coll))
        crit = np.array([t.criterion for t in v_out.trace])
        shifted = crit + 42.0
        assert dims[int(np.lexsort((dims, shifted))[0])] == v_out.chosen_dim
        # ERM minimality against random coefficient perturbations
        mid = len(coll) // 2
        model = coll.models[mid]
        fit = fits.fits[mid]
        coeffs = np.zeros(n)
        coeffs[: model.dim] = fit.beta * np.sqrt(n)
        for _ in range(20):
            pert = coeffs.copy()
            pert[: model.dim] += 0.01 * rng.standard_normal(model.dim)
            values = transform.synthesize(transform.unflatten(
                transform.truncate_flat(pert, model.dim), n), model.h)
            risk = float(np.mean((sample.y - values) ** 2))
            assert risk >= fit.empirical_risk - 1e-15
    report(6, True, "path equality, rescale and shift invariance, ERM, nestedness")


def test_criterion_7_underpenalization_explosion():
    """Half the calibrated level explodes the dimension; twice collapses it."""
    zero = TestSignal("Custom", lambda x: np.zeros_like(np.asarray(x, float)))
    const = NoiseScenario("Custom", lambda x: np.full_like(np.asarray(x, float), 0.05))
    n, reps = 1024, 100
    coll = selection.wavelet_collection(n, transform.DB8)
    dims = coll.dims
    shape = dims / n
    low, high = [], []
    for r in range(reps):
        sample = generate(zero, const, n, derive_seed(BASE_SEED, 5000 + r))
        fits = selection.fit_collection(sample, coll)
        path = selection.penalty_path(shape, fits.emp_risks, dims)
        alpha_min, _, _ = selection.dimension_jump(path)
        for c, out in ((0.5, low), (2.0, high)):
            crit = fits.emp_risks + c * alpha_min * shape
            out.append(dims[int(np.lexsort((dims, crit))[0])])
    frac_low = np.mean(np.asarray(low) >= n // 4)
    frac_high = np.mean(np.asarray(high) <= n // 16)
    ok = frac_low >= 0.9 and frac_high >= 0.9
    report(7, ok, f"under-penalized D >= n/4 in {frac_low:.0%}, "
                  f"calibrated D <= n/16 in {frac_high:.0%}")
    assert ok


def test_criterion_8_cli_determinism(tmp_path):
    """Every subcommand is byte-deterministic, bench under any --jobs."""
    def run(argv):
        assert cli.main([str(a) for a in argv]) == 0

    def bytes_of(p):
        with open(p, "rb") as fh:
            return fh.read()

    outs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        run(["gen", "--signal", "spikes", "--noise", "h2", "--n", 256,
             "--seed", 9, "--out", d / "s.csv"])
        run(["fit", "--in", d / "s.csv", "--truth", "spikes",
             "--out", d / "fit.csv", "--dump-coefficients", d / "coef.json"])
        run(["select", "--method", "all", "--in", d / "s.csv", "--truth", "spikes",
             "--out", d / "sel.json", "--svg", d / "sel.svg"])
        run(["certify", "--family", "wavelet", "--filter", "db8", "--levels", 3,
             "--out", d / "cert.json"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run(["conc", "--n", 256, "--dim", 16, "--reps", 100, "--seed", 4,
                 "--n-mc", 20000, "--out", d / "conc.json"])
        cfg = {"signals": ["wave"], "noises": ["h1"], "sizes": [256],
               "methods": ["sh", "cp", "vfcv", "penvf"], "replications": 6,
               "base_seed": 5}
        (d / "cfg.json").write_text(json.dumps(cfg))
        run(["bench", "--config", d / "cfg.json", "--jobs", 1 if tag == "a" else 4,
             "--out", d / "table.csv", "--raw", d / "report.json"])
        run(["plot", "--kind", "dimension-jump", "--in", d / "sel.json",
             "--out", d / "jump.svg"])
        outs[tag] = {p.name: bytes_of(p) for p in sorted(d.iterdir())}
    mismatched = [name for name in outs["a"]
                  if outs["a"][name] != outs["b"][name]]
    ok = not mismatched
    report(8, ok, "all subcommand outputs byte-identical across runs and jobs"
                  if ok else f"mismatched: {mismatched}")
    assert ok, mismatched
