import json

import numpy as np
import pytest

from wavesel import signals
from wavesel.signals import (NoiseScenario, RegressionSample, SampleMeta, TestSignal,
                             benchmark_scale, benchmark_signal, derive_seed,
                             eval_signal, generate, get_noise, get_signal)


GRID = (np.arange(1 << 14) + 0.5) / (1 << 14)


def test_heavisine_pinned_value():
    # 4 sin(2 pi) - sgn(0.2) - sgn(0.22) = -2
    assert eval_signal(get_signal("heavisine"), 0.5) == pytest.approx(-2.0, abs=1e-12)


def test_doppler_vanishes_at_one():
    assert eval_signal(get_signal("doppler"), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_wave_at_zero():
    assert eval_signal(get_signal("wave"), 0.0) == pytest.approx(0.8, abs=1e-12)


def test_eval_rejects_out_of_domain():
    sig = get_signal("wave")
    with pytest.raises(ValueError):
        eval_signal(sig, -0.1)
    with pytest.raises(ValueError):
        eval_signal(sig, 1.0001)


def test_signals_total_on_grid():
    for name in signals.SIGNAL_NAMES:
        vals = eval_signal(get_signal(name), GRID)
        assert np.all(np.isfinite(vals))


def test_builtin_ranges():
    # measured ranges of the adopted formulas; HeaviSine genuinely reaches -6
    expected = {
        "wave": (0.19, 0.81),
        "heavisine": (-6.01, 4.01),
        "doppler": (-0.51, 0.51),
        "spikes": (-0.01, 2.51),
    }
    for name, (lo, hi) in expected.items():
        vals = eval_signal(get_signal(name), GRID)
        assert lo <= vals.min() and vals.max() <= hi, name


def test_noise_scenarios_match_definitions():
    x = np.array([0.0, 0.25, 1.0])
    assert np.allclose(get_noise("l1")(x), 0.01)
    assert np.allclose(get_noise("l2")(x), 0.02 * x)
    assert np.allclose(get_noise("h1")(x), 0.05)
    assert np.allclose(get_noise("h2")(x), 0.1 * x)
    for name in signals.NOISE_NAMES:
        assert np.all(get_noise(name)(GRID) >= 0.0)


def test_benchmark_scale_reference_is_wave():
    assert benchmark_scale("wave") == pytest.approx(1.0)
    wave = eval_signal(get_signal("wave"), GRID)
    ref_range = wave.max() - wave.min()
    for name in ("heavisine", "doppler", "spikes"):
        c = benchmark_scale(name)
        vals = eval_signal(benchmark_signal(name), GRID)
        assert 0 < c < 1
        assert vals.max() - vals.min() == pytest.approx(ref_range, rel=1e-12)


def test_generate_deterministic():
    sig, noi = get_signal("wave"), get_noise("l1")
    a = generate(sig, noi, 256, 42)
    b = generate(sig, noi, 256, 42)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = generate(sig, noi, 256, 43)
    assert not np.array_equal(a.y, c.y)


def test_generate_sorted_strictly_increasing():
    s = generate(get_signal("spikes"), get_noise("h2"), 2048, 9)
    assert np.all(np.diff(s.x) > 0)
    assert len(s.x) == len(s.y) == 2048


def test_zero_noise_reproduces_signal():
    sig = get_signal("wave")
    zero = NoiseScenario("Custom", lambda x: np.zeros_like(np.asarray(x, float)))
    s = generate(sig, zero, 8, 1)
    assert np.allclose(s.y, eval_signal(sig, s.x), atol=0.0)


def test_noise_chi_square_concentration():
    # mean of (y - s(x))^2 / sigma(x)^2 is a chi-square average near 1
    sig, noi = get_signal("spikes"), get_noise("h2")
    s = generate(sig, noi, 1024, 7)
    z = (s.y - eval_signal(sig, s.x)) / noi(s.x)
    assert 0.8 <= np.mean(z ** 2) <= 1.2


def test_noise_law_variance():
    # 10^4 draws: empirical variance of y - s(x) matches sigma(x)^2 within 5%
    sig, noi = get_signal("wave"), get_noise("h1")
    s = generate(sig, noi, 10_000, 12)
    resid = (s.y - eval_signal(sig, s.x)) / noi(s.x)
    assert abs(np.var(resid) - 1.0) < 0.05


def test_pairing_preserved_under_sort():
    # with zero noise the pairing is directly checkable after sorting
    sig = get_signal("doppler")
    zero = NoiseScenario("Custom", lambda x: np.zeros_like(np.asarray(x, float)))
    s = generate(sig, zero, 512, 77)
    assert np.allclose(s.y, eval_signal(sig, s.x))


def test_tied_draw_keeps_the_stable_sort_pairing(monkeypatch):
    # ties have probability zero, so force them: x takes 8 values. With a
    # zero signal and unit noise, y is eps itself and shows the pairing
    real = signals._rng

    class TiedDraw:
        def __init__(self, seed):
            self._rng = real(seed)

        def random(self, n):
            return (np.floor(self._rng.random(n) * 8) + 0.5) / 8

        def standard_normal(self, n):
            return self._rng.standard_normal(n)

    monkeypatch.setattr(signals, "_rng", TiedDraw)
    zero = TestSignal("Zero", lambda x: np.zeros_like(np.asarray(x, float)))
    unit = NoiseScenario("Unit", lambda x: np.ones_like(np.asarray(x, float)))
    s = generate(zero, unit, 512, 5)
    draw = TiedDraw(5)
    u, eps = draw.random(512), draw.standard_normal(512)
    order = np.argsort(u, kind="stable")
    assert np.all(np.diff(s.x) > 0)
    assert np.array_equal(s.y, eps[order])
    # each x is its draw, nudged up by at most the length of its run of ties
    assert np.all((s.x >= u[order]) & (s.x < u[order] + 1 / 8))


@pytest.mark.parametrize("n", [7, 256])
def test_block_draw_rows_equal_each_seed_drawn_alone(n):
    # the reference is the documented draw, one seed at a time: Philox
    # uniforms then normals, the stable sort, s(x) + sigma(x) eps
    seeds = [derive_seed(11, i) for i in range(5)]
    for sig_name in signals.SIGNAL_NAMES:
        for noi_name in signals.NOISE_NAMES:
            sig, noi = signals.benchmark_signal(sig_name), get_noise(noi_name)
            x, y, values = signals._draw_block(sig, noi, n, seeds)
            assert not (x.flags.writeable or y.flags.writeable)
            for row, seed in enumerate(seeds):
                rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
                u, eps = rng.random(n), rng.standard_normal(n)
                order = np.argsort(u, kind="stable")
                ref_values = eval_signal(sig, u[order])
                ref_y = ref_values + noi(u[order]) * eps[order]
                assert x[row].tobytes() == u[order].tobytes()
                assert y[row].tobytes() == ref_y.tobytes()
                assert values[row].tobytes() == ref_values.tobytes()
                alone = generate(sig, noi, n, seed)
                assert alone.y.tobytes() == ref_y.tobytes() and alone.meta.seed == seed


def test_block_draw_sends_only_tied_rows_through_the_stable_sort(monkeypatch):
    # only seed 2 draws ties (x takes 8 values); its row must be the stable
    # pairing, nudged, and the other rows their untied draws
    zero = TestSignal("Zero", lambda x: np.zeros_like(np.asarray(x, float)))
    unit = NoiseScenario("Unit", lambda x: np.ones_like(np.asarray(x, float)))
    untied = [generate(zero, unit, 256, seed) for seed in (1, 3)]
    real = signals._rng

    class TieOneSeed:
        def __init__(self, seed):
            self._rng, self._tied = real(seed), seed == 2

        def random(self, n):
            u = self._rng.random(n)
            return (np.floor(u * 8) + 0.5) / 8 if self._tied else u

        def standard_normal(self, n):
            return self._rng.standard_normal(n)

    monkeypatch.setattr(signals, "_rng", TieOneSeed)
    x, y, _ = signals._draw_block(zero, unit, 256, [1, 2, 3])
    draw = TieOneSeed(2)
    u, eps = draw.random(256), draw.standard_normal(256)
    order = np.argsort(u, kind="stable")
    assert np.all(np.diff(x[1]) > 0)
    assert np.array_equal(y[1], eps[order])
    assert np.all((x[1] >= u[order]) & (x[1] < u[order] + 1 / 8))
    assert x[1].tobytes() == generate(zero, unit, 256, 2).x.tobytes()
    for row, want in zip((0, 2), untied):
        assert x[row].tobytes() == want.x.tobytes() and y[row].tobytes() == want.y.tobytes()


def test_spikes_sum_the_five_peaks_in_order():
    # one plane per spike, summed over the spikes in order: the same floats
    # as the sum along a trailing axis of length 5, for blocks and scalars
    x = np.random.default_rng(3).random((9, 4096))
    d = x[..., None] - signals._SPIKE_CENTERS
    ref = np.sum(signals._SPIKE_HEIGHTS * np.exp(-0.5 * (d / signals._SPIKE_WIDTHS) ** 2),
                 axis=-1)
    assert signals._spikes(x).tobytes() == ref.tobytes()
    assert signals._spikes(x[0]).tobytes() == ref[0].tobytes()
    assert np.shape(signals._spikes(0.48)) == ()
    assert float(signals._spikes(0.48)) == float(signals._spikes(np.array([0.48]))[0])


def test_derive_seed_mixing():
    assert derive_seed(1, 0) != derive_seed(1, 1)
    assert derive_seed(1, 0) != derive_seed(2, 0)
    assert derive_seed(5, 3) == derive_seed(5, 3)


def test_round_trip_csv_json():
    s = generate(get_signal("wave"), get_noise("l2"), 64, 5)
    c = RegressionSample.from_csv(s.to_csv())
    assert np.array_equal(c.x, s.x) and np.array_equal(c.y, s.y)
    assert c.meta == s.meta
    j = RegressionSample.from_json(s.to_json())
    assert np.array_equal(j.x, s.x) and np.array_equal(j.y, s.y)
    assert j.meta == s.meta


@pytest.mark.parametrize("x, y, message", [
    (np.array([[0.1, 0.2]]), np.array([[1.0, 2.0]]), "1-d"),
    (np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0]), "one length"),
    (np.array([0.5]), np.array([1.0]), "at least 2"),
    (np.array([0.1, 0.2, 0.3]), np.array([1.0, np.nan, 2.0]), "finite"),
    (np.array([0.1, np.inf]), np.array([1.0, 2.0]), "finite"),
    (np.array([-0.1, 0.2]), np.array([1.0, 2.0]), r"\[0, 1\]"),
    (np.array([0.5, 1.5]), np.array([1.0, 2.0]), r"\[0, 1\]"),
    (np.array([0.3, 0.2, 0.4]), np.array([1.0, 2.0, 3.0]), "strictly increasing"),
    (np.array([0.2, 0.2, 0.4]), np.array([1.0, 2.0, 3.0]), "strictly increasing"),
])
def test_sample_constructor_rejects(x, y, message):
    with pytest.raises(ValueError, match=message):
        RegressionSample(x, y, SampleMeta("custom", "custom", len(x), 0))


def test_sample_constructor_accepts_closed_interval():
    s = RegressionSample(np.array([0.0, 0.5, 1.0]), np.zeros(3),
                         SampleMeta("custom", "custom", 3, 0))
    assert s.n == 3


def test_sample_loaders_validate():
    with pytest.raises(ValueError, match="strictly increasing"):
        RegressionSample.from_csv("x,y\n0.5,1.0\n0.25,2.0\n")
    doc = {"meta": {"signal": "c", "noise": "c", "n": 2, "seed": 0},
           "x": [0.25, 2.0], "y": [1.0, 2.0]}
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RegressionSample.from_json(json.dumps(doc))


def test_generate_requires_two_points():
    with pytest.raises(ValueError):
        generate(get_signal("wave"), get_noise("l1"), 1, 0)


def test_custom_signal_allowed():
    f = TestSignal("Custom", lambda x: np.asarray(x, float) ** 2)
    assert eval_signal(f, 0.5) == pytest.approx(0.25)
