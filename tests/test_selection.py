import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavesel import bases, selection, transform
from wavesel.estimator import NestedPyramid
from wavesel.selection import (FoldFit, ModelCollection,
                               PathSegment, PenaltyPath, SelectionOutcome, dimension_jump,
                               fit_collection,
                               fold_fitted, in_sample_losses, oracle_select, penalty_path,
                               select_cp, select_methods, select_penvf, select_sh, select_vfcv,
                               wavelet_collection)
from wavesel.signals import (NOISE_NAMES, SIGNAL_NAMES, NoiseScenario, SampleBlock, TestSignal,
                             _draw_block, derive_seed, generate, get_noise, get_signal)

ZERO_NOISE = NoiseScenario("Custom", lambda x: np.zeros_like(np.asarray(x, float)))
CONST_NOISE = NoiseScenario("Custom", lambda x: np.full_like(np.asarray(x, float), 0.05))
ZERO_SIGNAL = TestSignal("Custom", lambda x: np.zeros_like(np.asarray(x, float)))
THIRD = TestSignal("Custom", lambda x: np.full_like(np.asarray(x, float), 1 / 3))


def draw_rows(cases, n: int) -> SampleBlock:
    """The block of one row per (signal, noise, seed) case, each row the
    draw of :func:`generate`, concatenated as the bench does."""
    return SampleBlock(*map(np.concatenate, zip(*(_draw_block(sig, noi, n, [seed])
                                                  for sig, noi, seed in cases))))


def grid_penalty_path(shapes, risks, dims, alphas):
    """The path read off a direct argmin scan of an alpha grid: a copy of
    the grid mode that ``penalty_path`` carried before it kept only the
    exact hull route."""
    shapes = np.asarray(shapes, dtype=float)
    risks = np.asarray(risks, dtype=float)
    dims = np.asarray(dims, dtype=int)
    grid = np.sort(np.asarray(alphas, dtype=float))[::-1]
    segments = []
    prev_idx = None
    prev_alpha = np.inf
    hi = np.inf
    for a in grid:
        crit = risks + a * shapes
        idx = int(np.lexsort((dims, crit))[0])
        if prev_idx is None:
            prev_idx = idx
        elif idx != prev_idx:
            # close the old segment at the last grid point where it held
            segments.append(PathSegment(float(prev_alpha), float(hi), prev_idx,
                                        int(dims[prev_idx]), float(risks[prev_idx])))
            hi = prev_alpha
            prev_idx = idx
        prev_alpha = a
    segments.append(PathSegment(0.0, float(hi), prev_idx,
                                int(dims[prev_idx]), float(risks[prev_idx])))
    return PenaltyPath(tuple(segments), shapes, risks, dims)


def hull_penalty_path(shapes, risks, dims) -> PenaltyPath:
    """The path read off the lower convex hull of the (shape, risk) cloud,
    by a monotone chain and a segment loop: a copy of the route that
    ``penalty_path`` took before it read each model's level interval."""
    shapes = np.asarray(shapes, dtype=float)
    risks = np.asarray(risks, dtype=float)
    dims = np.asarray(dims, dtype=int)
    hull = []
    for i in np.lexsort((dims, risks, shapes)):
        if hull and shapes[i] == shapes[hull[-1]]:
            continue  # same shape: the smaller risk (then dim) already kept
        if hull and risks[i] >= risks[hull[-1]]:
            continue  # no risk improvement at a larger shape: never selected
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # drop b when the chord a -> i passes at or below b
            if ((risks[i] - risks[a]) * (shapes[b] - shapes[a])
                    <= (risks[b] - risks[a]) * (shapes[i] - shapes[a])):
                hull.pop()
            else:
                break
        hull.append(int(i))
    segments = []
    hi = np.inf
    for pos, i in enumerate(hull):
        if pos + 1 < len(hull):
            nxt = hull[pos + 1]
            lo = (risks[i] - risks[nxt]) / (shapes[nxt] - shapes[i])
        else:
            lo = 0.0
        segments.append(PathSegment(float(lo), float(hi), i, int(dims[i]), float(risks[i])))
        hi = lo
    return PenaltyPath(tuple(segments), shapes, risks, dims)


# shape steps of 0 repeat a shape and the risks repeat often; the values
# are small dyadic fractions, so every criterion on a grid of multiples of
# 1/64 is exact and ties stay ties
TIED_STEPS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 8)), min_size=2, max_size=9)


def tied_path_inputs(steps) -> tuple:
    """(shapes, risks, dims) of :data:`TIED_STEPS`' steps."""
    dims = 2 * np.arange(1, len(steps) + 1)
    shapes = (1 + np.cumsum([s for s, _ in steps])) / 8.0
    risks = np.array([r for _, r in steps]) / 8.0
    return shapes, risks, dims


def dense_path_dims(shapes, risks, dims, alphas):
    out = []
    for a in alphas:
        crit = np.asarray(risks) + a * np.asarray(shapes)
        out.append(dims[int(np.lexsort((dims, crit))[0])])
    return np.array(out)


class TestPenaltyPath:
    def test_two_model_breakpoint_closed_form(self):
        n = 100
        risks = np.array([2.0, 1.0])
        dims = np.array([4, 16])
        shapes = dims / n
        path = penalty_path(shapes, risks, dims)
        expected = (risks[0] - risks[1]) / ((dims[1] - dims[0]) / n)
        assert len(path.segments) == 2
        assert path.segments[0].alpha_lo == pytest.approx(expected)
        assert path.segments[0].dim == 4 and path.segments[1].dim == 16

    def test_equal_risks_smaller_dim_everywhere(self):
        path = penalty_path([0.1, 0.2], [1.0, 1.0], [4, 8])
        assert len(path.segments) == 1
        assert path.segments[0].dim == 4

    def test_exact_matches_dense_grid(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            k = rng.integers(2, 10)
            dims = np.sort(rng.choice(np.arange(1, 200), size=k, replace=False))
            risks = rng.random(k)
            shapes = dims / 100.0
            path = penalty_path(shapes, risks, dims)
            alphas = np.linspace(0.0, 2.0 * max(1e-9, risks.max() / shapes.min()), 10_000)
            want = dense_path_dims(shapes, risks, dims, alphas)
            got = np.array([path.segment_at(a).dim for a in alphas])
            assert np.array_equal(got, want), trial

    def test_grid_mode_matches_exact(self):
        rng = np.random.default_rng(4)
        dims = np.array([2, 4, 8, 16, 32])
        risks = np.sort(rng.random(5))[::-1].copy()
        shapes = dims / 32.0
        exact = penalty_path(shapes, risks, dims)
        alphas = np.linspace(0, 10, 10_000)
        grid = grid_penalty_path(shapes, risks, dims, alphas)
        seq_exact = [exact.segment_at(a).dim for a in alphas]
        seq_grid = [grid.segment_at(a).dim for a in alphas]
        assert seq_exact == seq_grid

    @settings(max_examples=200, deadline=None)
    @given(steps=TIED_STEPS)
    def test_exact_matches_direct_argmin_with_ties(self, steps):
        # exercises both tie-breaks (same shape: smaller risk, then smaller
        # dim; equal criterion: smaller dim)
        shapes, risks, dims = tied_path_inputs(steps)
        path = penalty_path(shapes, risks, dims)
        alphas = np.arange(9 * 64 + 1) / 64.0  # past the largest breakpoint, 8
        want = dense_path_dims(shapes, risks, dims, alphas)
        got = np.array([path.segment_at(a).dim for a in alphas])
        assert np.array_equal(got, want)
        # no empty segment: tied and collinear models leave the hull
        assert all(seg.alpha_lo < seg.alpha_hi for seg in path.segments)

    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            penalty_path([0.1], [1.0], [2])

    @pytest.mark.parametrize("shapes, dims", [
        ([0.2, 0.1, 0.3], [2, 4, 8]),  # a shape decreases
        ([0.1, 0.2, 0.3], [2, 2, 8]),  # a dim repeats
        ([0.1, 0.2, 0.3], [8, 4, 2]),  # the dims decrease
    ])
    def test_needs_increasing_dims_and_nondecreasing_shapes(self, shapes, dims):
        with pytest.raises(ValueError, match="nondecreasing shapes"):
            penalty_path(shapes, [1.0, 0.5, 0.25], dims)

    @pytest.mark.parametrize("shapes, risks", [
        ([0.1, 0.2, 0.3], [np.inf, np.inf, np.inf]),  # y^2 overflowed
        ([0.1, 0.2, 0.3], [1.0, np.nan, 0.25]),
        ([0.1, 0.2, np.inf], [1.0, 0.5, 0.25]),
        ([np.nan, 0.2, 0.3], [1.0, 0.5, 0.25]),
    ])
    def test_needs_finite_shapes_and_risks(self, shapes, risks):
        with pytest.raises(ValueError, match="finite"):
            penalty_path(shapes, risks, [2, 4, 8])

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_near_collinear_path_has_no_gap(self, seed):
        # risks a few ulps off one line: the rounded slopes of a model to
        # its neighbours disagree in the last bits, and the path may keep
        # a model for an ulp-wide segment, but its segments still tile
        # [0, inf) in order
        rng = np.random.default_rng(seed)
        dims = np.sort(rng.choice(np.arange(1, 300), size=rng.integers(3, 10), replace=False))
        shapes = dims / rng.choice([64.0, 100.0, 256.0, 1000.0])
        risks = rng.choice([1.0, 0.3, 1e-30]) - rng.random() * shapes
        risks = risks + rng.integers(-3, 4, len(dims)) * np.spacing(risks)
        segs = penalty_path(shapes, risks, dims).segments
        assert segs[0].alpha_hi == np.inf and segs[-1].alpha_lo == 0.0
        assert all(s.alpha_lo < s.alpha_hi for s in segs)
        assert all(a.alpha_lo == b.alpha_hi for a, b in zip(segs, segs[1:]))

    @settings(max_examples=200, deadline=None)
    @given(steps=TIED_STEPS)
    def test_matches_hull_with_ties(self, steps):
        # every field of every segment, bit for bit: repr tells 0.0 from
        # -0.0 and a Python int from a numpy one
        shapes, risks, dims = tied_path_inputs(steps)
        assert (repr(penalty_path(shapes, risks, dims).segments)
                == repr(hull_penalty_path(shapes, risks, dims).segments))

    @settings(max_examples=30, deadline=None)
    @given(signal=st.sampled_from([*map(get_signal, SIGNAL_NAMES), THIRD]),
           noise=st.sampled_from([*map(get_noise, NOISE_NAMES), ZERO_NOISE]),
           n=st.sampled_from([256, 1024]), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1.0, 3.5]))
    # rounding-noise rows: a constant truth sits in every model, so with
    # zero noise every risk is 0 or the same rounding residue
    @example(signal=THIRD, noise=ZERO_NOISE, n=256, seed=0, scale=1.0)
    @example(signal=THIRD, noise=ZERO_NOISE, n=1024, seed=0, scale=3.5)
    @example(signal=TestSignal("Custom", lambda x: np.full_like(np.asarray(x, float), 0.4)),
             noise=ZERO_NOISE, n=256, seed=0, scale=1.0)
    @example(signal=ZERO_SIGNAL, noise=CONST_NOISE, n=1024, seed=0, scale=1.0)
    def test_matches_hull_on_fitted_rows(self, signal, noise, n, seed, scale):
        coll = wavelet_collection(n, transform.DB8)
        block = _draw_block(signal, noise, n, [derive_seed(seed, r) for r in range(4)])
        shapes = scale * coll.dims / n
        for risks in fit_collection(block, coll).emp_risks:
            assert (repr(penalty_path(shapes, risks, coll.dims).segments)
                    == repr(hull_penalty_path(shapes, risks, coll.dims).segments))


class TestDimensionJump:
    def test_manufactured_cliff(self):
        # a convex risk trace with one dominant dimension gap: the jump
        # lands at the cliff breakpoint
        n = 256
        dims = np.array([2, 4, 64, 80])
        risks = np.array([1.0, 0.6, 0.10, 0.098])
        path = penalty_path(dims / n, risks, dims)
        alpha_min, jumps, no_jump = dimension_jump(path)
        cliff = (0.6 - 0.10) / ((64 - 4) / n)
        assert [j[2] - j[1] for j in jumps] == [2, 60, 16]
        assert alpha_min == pytest.approx(cliff)
        assert not no_jump

    def test_flat_then_steep_jumps_off_the_cliff(self):
        # concave risks: intermediate models leave the hull and the single
        # breakpoint dives to the largest dimension
        n = 64
        dims = np.array([2, 4, 8, 32])
        risks = np.array([1.00, 0.995, 0.99, 0.10])
        path = penalty_path(dims / n, risks, dims)
        alpha_min, jumps, _ = dimension_jump(path)
        assert [(j[1], j[2]) for j in jumps] == [(2, 32)]
        assert alpha_min == pytest.approx((1.00 - 0.10) / ((32 - 2) / n))

    def test_tie_takes_largest_alpha(self):
        # two breakpoints with the same dimension drop
        dims = np.array([2, 4, 6])
        shapes = dims / 8.0
        risks = np.array([1.0, 0.5, 0.25])
        path = penalty_path(shapes, risks, dims)
        jumps = path.jumps()
        drops = [below - above for _, above, below in jumps]
        assert drops[0] == drops[1] == 2
        alpha_min, _, _ = dimension_jump(path)
        assert alpha_min == pytest.approx(max(j[0] for j in jumps))


class TestSelectSh:
    def test_penalty_shape_rescaling_invariance(self):
        sample = generate(get_signal("wave"), get_noise("h1"), 512, 3)
        coll = wavelet_collection(512, transform.DB8)
        fits = fit_collection(sample, coll)
        base_shape = coll.dims / sample.n
        a = select_sh(fits, shape=base_shape)
        b = select_sh(fits, shape=7.0 * base_shape)
        assert a.chosen_dim == b.chosen_dim
        assert b.diagnostics["alpha_min"] == pytest.approx(a.diagnostics["alpha_min"] / 7.0)

    def test_requires_three_models(self):
        sample = generate(get_signal("wave"), get_noise("h1"), 512, 3)
        coll = ModelCollection(tuple(bases.WaveletModel(transform.DB8, j) for j in (0, 1)))
        with pytest.raises(ValueError):
            select_sh(fit_collection(sample, coll))

    def test_block_rows_are_each_rows_path_and_jump(self):
        n = 1024
        coll = wavelet_collection(n, transform.DB8)
        block = draw_rows([(get_signal(sig), get_noise(noise), derive_seed(9, r))
                           for r, (sig, noise) in enumerate([(s, z) for s in SIGNAL_NAMES
                                                             for z in NOISE_NAMES])], n)
        out = select_sh(fit_collection(block, coll))
        shape = coll.dims / n
        for i, risks in enumerate(out.emp_risks):
            path = penalty_path(shape, risks, coll.dims)
            alpha_min, jumps, no_jump = dimension_jump(path)
            row = out[i].diagnostics
            assert (row["alpha_min"], row["jumps"], row["no_jump"]) == (alpha_min, jumps, no_jump)
            assert repr(row["path"]) == repr([(s.alpha_lo, s.alpha_hi if k else None, s.dim)
                                              for k, s in enumerate(path.segments)])
            assert np.array_equal(out.penalties[i], 2.0 * alpha_min * shape)

    def test_chosen_attains_trace_minimum(self):
        sample = generate(get_signal("spikes"), get_noise("l2"), 1024, 5)
        coll = wavelet_collection(1024, transform.DB8)
        out = select_sh(fit_collection(sample, coll))
        crit = np.array([t.criterion for t in out.trace])
        dims = np.array([t.dim for t in out.trace])
        assert out.chosen_dim == dims[np.lexsort((dims, crit))[0]]


class TestSelectCp:
    def test_variance_estimator_unbiased_pure_noise(self):
        # residual of the saturated model: E[sigma2_hat] = sigma^2 exactly
        n, sigma = 128, 0.05
        coll = wavelet_collection(n, transform.DB8)
        vals = []
        for r in range(500):
            sample = generate(ZERO_SIGNAL, CONST_NOISE, n, derive_seed(404, r))
            out = select_cp(fit_collection(sample, coll))
            vals.append(out.diagnostics["sigma2"])
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(mean - sigma ** 2) <= 3 * se

    def test_zero_noise_member_signal(self):
        member = TestSignal("Custom", lambda x: np.full_like(np.asarray(x, float), 0.9))
        sample = generate(member, ZERO_NOISE, 256, 6)
        coll = wavelet_collection(256, transform.DB8)
        out = select_cp(fit_collection(sample, coll))
        # the saturated model's risk is zero up to the rounding of
        # energy - sum of squared coefficients, at most about 2 log2(n) eps
        # energy / n (see test_saturated_model_zero_risk); sigma2 is twice
        # that risk, and the bound takes twice the rounding scale
        energy = np.dot(sample.y, sample.y)
        bound = 2 * 4 * np.log2(sample.n) * np.finfo(float).eps * energy / sample.n
        assert out.diagnostics["sigma2"] <= bound
        assert out.chosen_dim == 2  # smallest adequate model, ties to smaller dim

    def test_requires_saturated_model(self):
        sample = generate(get_signal("wave"), get_noise("l1"), 512, 1)
        coll = ModelCollection(tuple(bases.WaveletModel(transform.DB8, j) for j in (0, 1, 2)))
        with pytest.raises(ValueError):
            select_cp(fit_collection(sample, coll))


class TestVfold:
    def test_degenerate_double_reduces_to_empirical_risk(self):
        # fold data as if both folds saw the full sample: the criterion is the
        # empirical risk and selection degenerates to its argmin (the largest model)
        n = 256
        sample = generate(get_signal("wave"), get_noise("h1"), n, 9)
        coll = wavelet_collection(n, transform.DB8)
        fits = fit_collection(sample, coll)
        double = (FoldFit(fits.emp_risks, fits.emp_risks),) * 2
        out = select_vfcv(fits, double)
        crit = np.array([t.criterion for t in out.trace])
        assert np.allclose(crit, fits.emp_risks, atol=1e-12)
        assert out.chosen_dim == coll.dims[-1]

    def test_penvf_degenerate_double_zero_penalty(self):
        n = 256
        sample = generate(get_signal("wave"), get_noise("h1"), n, 9)
        coll = wavelet_collection(n, transform.DB8)
        fits = fit_collection(sample, coll)
        double = (FoldFit(fits.emp_risks, fits.emp_risks),) * 2
        out = select_penvf(fits, double)
        pens = np.array([t.penalty for t in out.trace])
        assert np.allclose(pens, 0.0, atol=1e-12)
        assert out.chosen_dim == coll.dims[-1]

    def test_criterion_shift_invariance(self):
        # adding a model-independent constant to the criterion cannot move
        # the argmin (the crit0 device)
        sample = generate(get_signal("heavisine"), get_noise("h1"), 512, 12)
        coll = wavelet_collection(512, transform.DB8)
        out = select_vfcv(fit_collection(sample, coll), fold_fitted(sample, coll))
        crit = np.array([t.criterion for t in out.trace])
        dims = np.array([t.dim for t in out.trace])
        shifted = crit + 123.456
        assert dims[np.lexsort((dims, shifted))[0]] == out.chosen_dim

    @pytest.mark.parametrize("n", [256, 1024])
    def test_fold_fitted_matches_per_model_synthesis(self, n):
        # one batched synthesis per fold gives each model's own floats, so
        # its held-out risks are those of one synthesis per model
        sample = generate(get_signal("doppler"), get_noise("h1"), n, 17)
        coll = wavelet_collection(n, transform.DB8)
        # fold 0 trains on the even 0-based ranks and holds out the odd ones
        for j, fold in enumerate(fold_fitted(sample, coll)):
            train, held = np.arange(j, n, 2), np.arange(1 - j, n, 2)
            x_t, y_t = sample.x[train], sample.y[train]
            x_h, y_h = sample.x[held], sample.y[held]
            coeffs = transform.flatten(transform.analyze(y_t, transform.DB8))
            assert len(fold.heldout_risks) == len(coll)
            for risk, dim in zip(fold.heldout_risks, coll.dims):
                tree = transform.unflatten(transform.truncate_flat(coeffs, dim), len(train))
                values = transform.synthesize(tree, transform.DB8)
                assert risk == float(np.mean((y_h - np.interp(x_h, x_t, values)) ** 2))

    def test_penvf_mean_penalty_scale(self):
        # pen_VF estimates twice the excess-risk scale C_m at the training
        # size n(V-1)/V; order-of-magnitude check on a model whose C_m is
        # noise-dominated (negligible bias, so the resampled and the
        # concentration scales describe the same fluctuation)
        from wavesel.estimator import compute_Cm
        n, reps = 512, 300
        sig, noi = get_signal("wave"), get_noise("h1")
        coll = wavelet_collection(n, transform.DB8)
        model_idx = 5  # D = 64, bias below 1e-7
        pens = []
        for r in range(reps):
            sample = generate(sig, noi, n, derive_seed(777, r))
            out = select_penvf(fit_collection(sample, coll), fold_fitted(sample, coll))
            pens.append(out.trace[model_idx].penalty)
        cm = compute_Cm(sig, noi, coll.models[model_idx], n_mc=100_000, seed=1).value
        # the (V-1)/V prefactor turns the training-scale excesses into an
        # estimate of the full-sample ideal penalty 2 C_m / n
        target = 2.0 * cm / n
        assert 0.5 * target <= np.mean(pens) <= 4.0 * target


class TestOracle:
    def test_zero_noise_member_picks_smallest_containing(self):
        member = TestSignal("Custom", lambda x: np.full_like(np.asarray(x, float), 0.33))
        sample = generate(member, ZERO_NOISE, 256, 4)
        coll = wavelet_collection(256, transform.DB8)
        out = oracle_select(fit_collection(sample, coll, member(sample.x)))
        assert out.chosen_dim == 2

    def test_single_model_collection(self):
        coll = ModelCollection((bases.WaveletModel(transform.DB8, 2),))
        sample = generate(get_signal("wave"), get_noise("l1"), 64, 1)
        out = oracle_select(fit_collection(sample, coll, get_signal("wave")(sample.x)))
        assert out.chosen_dim == 8

    def test_oracle_concentrates_below_half_n(self):
        sig, noi = get_signal("wave"), get_noise("l1")
        coll = wavelet_collection(1024, transform.DB8)
        dims = []
        for r in range(20):
            sample = generate(sig, noi, 1024, derive_seed(31, r))
            out = oracle_select(fit_collection(sample, coll, sig(sample.x)))
            dims.append(out.chosen_dim)
        assert np.median(dims) < 512


class TestInSampleLosses:
    @pytest.mark.parametrize("name", ["haar", "db8"])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_pyramid_route_matches_fitted_values(self, name, n):
        sig = get_signal("doppler")
        sample = generate(sig, get_noise("h1"), n, 17)
        coll = wavelet_collection(n, transform.get_filter(name))
        fits = fit_collection(sample, coll, sig(sample.x))
        assert fits.pyramid is not None
        fitted = NestedPyramid.of(sample.y, fits.pyramid.h).fitted(coll.dims)
        want = np.mean((fitted - sig(sample.x)) ** 2, axis=1)
        got = in_sample_losses(fits)
        assert np.max(np.abs(got - want) / want) <= 1e-10

    def test_pyramid_route_needs_the_signal_analysis(self):
        sig = get_signal("wave")
        sample = generate(sig, get_noise("h1"), 64, 2)
        fits = fit_collection(sample, wavelet_collection(64, transform.DB8))
        with pytest.raises(ValueError, match="signal values"):
            in_sample_losses(fits)


class TestSelectMethods:
    def test_matches_each_selector_called_directly(self):
        sig = get_signal("heavisine")
        sample = generate(sig, get_noise("l2"), 256, 5)
        coll = wavelet_collection(256, transform.DB8)
        fits = fit_collection(sample, coll, sig(sample.x))
        fold_fits = fold_fitted(sample, coll)
        direct = {
            "penvf": select_penvf(fits, fold_fits),
            "oracle": oracle_select(fits),
            "sh": select_sh(fits),
            "vfcv": select_vfcv(fits, fold_fits),
            "cp": select_cp(fits),
        }
        block = _draw_block(sig, get_noise("l2"), 256, [5])
        got = {m: o[0] for m, o in select_methods(block, coll, tuple(direct),
                                                  signal_values=sig(block.x)).items()}
        assert list(got) == list(direct)
        for method, outcome in direct.items():
            assert got[method].trace == outcome.trace
            assert got[method].chosen_index == outcome.chosen_index
            assert got[method].to_json() == outcome.to_json()

    def test_fold_scheme_and_signal_only_when_needed(self):
        block = _draw_block(get_signal("wave"), get_noise("h1"), 64, [1])
        coll = wavelet_collection(64, transform.DB8)
        got = {m: o[0] for m, o in select_methods(block, coll, ("sh", "cp")).items()}
        assert list(got) == ["sh", "cp"]
        with pytest.raises(ValueError, match="signal values"):
            select_methods(block, coll, ("oracle",))
        with pytest.raises(ValueError, match="unknown method"):
            select_methods(block, coll, ("nope",))

    @pytest.mark.parametrize("n, V, methods", [
        (256, 2, ("oracle", "sh", "cp", "vfcv", "penvf")),
    ])
    def test_block_gives_each_sample_its_own_outcomes(self, n, V, methods):
        # a block of samples gives each sample the outcomes of a block of
        # one, bit for bit
        coll = wavelet_collection(n, transform.DB8)
        cases = [(get_signal(name), get_noise(noise), seed) for name, noise, seed in
                 (("wave", "h1", 1), ("doppler", "l1", 2), ("spikes", "l2", 3))]
        samples = draw_rows(cases, n)
        block = select_methods(samples, coll, methods, signal_values=samples.values)
        assert all(o.chosen_index.shape == (len(cases),) for o in block.values())
        for i, (sig, noi, seed) in enumerate(cases):
            got = {m: o[i] for m, o in block.items()}
            one = _draw_block(sig, noi, n, [seed])
            alone = {m: o[0] for m, o in select_methods(one, coll, methods,
                                                        signal_values=one.values).items()}
            assert len(got["vfcv"].diagnostics["per_fold_risks"]) == V
            for method in methods:
                assert got[method].to_json() == alone[method].to_json()

    def test_single_sample_gives_the_row_of_a_block_of_one(self):
        sig = get_signal("doppler")
        sample = generate(sig, get_noise("h1"), 128, 4)
        coll = wavelet_collection(128, transform.DB8)
        methods = ("oracle", "sh", "cp", "vfcv", "penvf")
        single = select_methods(sample, coll, methods, signal_values=sig(sample.x))
        one = _draw_block(sig, get_noise("h1"), 128, [4])
        block = select_methods(one, coll, methods, signal_values=sig(one.x))
        for method in methods:
            assert single[method].criteria.shape == (len(coll),)
            assert single[method].to_json() == block[method][0].to_json()

    def test_fold_fits_of_another_block_refused(self):
        # folds of one block never broadcast against the fits of another
        coll = wavelet_collection(64, transform.DB8)
        wave, h1 = get_signal("wave"), get_noise("h1")
        block, first = _draw_block(wave, h1, 64, (1, 2, 3)), _draw_block(wave, h1, 64, (1,))
        fits = fit_collection(block, coll)
        cases = ((fits, fold_fitted(first, coll)),   # (1, models) for (3, models)
                 (fits[0], fold_fitted(first, coll)),  # a block's folds, one sample's fits
                 (fits[0], fold_fitted(block, coll)),
                 (fit_collection(generate(wave, h1, 64, 1), coll), fold_fitted(block, coll)))
        for target, folds in cases:
            for select in (select_vfcv, select_penvf):
                with pytest.raises(ValueError, match="fold risks of shape"):
                    select(target, folds)


def test_block_choice_is_each_rows_lexsort():
    # a block's choice is each row's first index in lexsort((dims, row)):
    # the smallest criterion, ties to the smaller dimension, NaN last
    dims = np.array([2, 4, 8, 16, 32])
    crit = np.random.default_rng(3).integers(0, 3, size=(60, len(dims))).astype(float)
    crit[:3] = [[1.0, 0.0, 0.0, 1.0, 0.0],         # tie: the smaller dimension
                [np.nan, 1.0, 1.0, 0.0, np.nan],   # a NaN criterion sorts last
                [np.nan] * len(dims)]              # all NaN: the first model
    crit[10:20, 1] = np.nan
    out = SelectionOutcome("test", dims, np.zeros_like(crit), crit, crit)
    assert list(out.chosen_index[:3]) == [1, 3, 0]
    for i, row in enumerate(crit):
        want = np.lexsort((dims, row))[0]
        assert out.chosen_index[i] == want
        assert out.chosen_dim[i] == dims[want]
        assert out[i].chosen_index == want


def test_outcome_serialization():
    sample = generate(get_signal("wave"), get_noise("h1"), 256, 2)
    coll = wavelet_collection(256, transform.DB8)
    out = select_cp(fit_collection(sample, coll))
    import json
    doc = json.loads(out.to_json())
    assert doc["method"] == "cp"
    assert doc["chosen_dim"] == out.chosen_dim
    assert len(doc["trace"]) == len(coll)


def test_collection_requires_increasing_dims():
    models = (bases.WaveletModel(transform.DB8, 2), bases.WaveletModel(transform.DB8, 2))
    with pytest.raises(ValueError):
        ModelCollection(models)


def test_fit_collection_raises_on_unfittable_model():
    # no pyramid fits 12 points (nor the 16-dimensional model on them): the
    # whole collection fails, rather than dropping a model or fitting it
    # another way
    sample = generate(get_signal("wave"), get_noise("h1"), 12, 5)
    coll = ModelCollection(tuple(bases.WaveletModel(transform.DB8, j) for j in range(4)))
    with pytest.raises(ValueError, match="one pyramid cannot fit the collection on 12 points"):
        fit_collection(sample, coll)


def test_non_dyadic_sample_refused():
    # 48 points fit every model of this collection by a Gram solve, but
    # no pyramid fits them: both the fit and the selection refuse
    sig = get_signal("wave")
    sample = generate(sig, get_noise("h1"), 48, 9)
    coll = ModelCollection(tuple(bases.WaveletModel(transform.DB8, j) for j in (0, 1, 2)))
    with pytest.raises(ValueError, match="one pyramid cannot fit the collection on 48 points"):
        fit_collection(sample, coll)
    with pytest.raises(ValueError, match="one pyramid cannot fit the collection on 48 points"):
        block = _draw_block(sig, get_noise("h1"), 48, [9])
        select_methods(block, coll, ("oracle", "sh", "cp"), signal_values=block.values)


def test_wavelet_collection_dimensions():
    coll = wavelet_collection(1024, transform.DB8)
    assert np.array_equal(coll.dims, [2, 4, 8, 16, 32, 64, 128, 256, 512])
    assert coll.dims[-1] == 1024 // 2
