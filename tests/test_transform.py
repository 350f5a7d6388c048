import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavesel import bases, transform
from wavesel.estimator import NestedPyramid, fit_ls, pyramid_filter
from wavesel.transform import (DB8, HAAR, CoefficientTree, InvalidFilterError,
                               MalformedTreeError, analyze, analyze_flat, flatten,
                               get_filter, qmf, synthesize, synthesize_flat,
                               synthesize_prefixes, unflatten, validate_filter)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_filter_registry():
    assert np.allclose(get_filter("haar"), [1 / np.sqrt(2)] * 2)
    assert len(get_filter("db8")) == 16
    with pytest.raises(KeyError):
        get_filter("nope")


def test_filter_validation():
    validate_filter(DB8)
    with pytest.raises(InvalidFilterError):
        validate_filter([0.5, 0.5])  # sums to 1, not sqrt(2)
    with pytest.raises(InvalidFilterError):
        validate_filter([1.0, 0.5, -0.2, 0.1141])  # fails double-shift orthogonality
    with pytest.raises(InvalidFilterError):
        validate_filter([1.0, 0.2, 0.2])  # odd length
    with pytest.raises(InvalidFilterError, match="sum of taps"):
        validate_filter([np.nan, np.nan])  # NaN compares false to every bound


def test_invalid_filter_rejected_on_every_call():
    # validated filters are memoized; a failure must never be
    bad = [0.5, 0.5]
    calls = (lambda: analyze(np.ones(8), bad),
             lambda: analyze_flat(np.ones(8), bad),
             lambda: synthesize(unflatten(np.ones(8), 8), bad),
             lambda: synthesize_flat(np.ones(8), bad))
    for _ in range(2):
        for call in calls:
            with pytest.raises(InvalidFilterError):
                call()
    with pytest.raises(InvalidFilterError):
        synthesize_flat(np.ones(8), np.array([[1.0, 1.0]]) / np.sqrt(2.0))  # not 1-d


def test_qmf_haar():
    g = qmf(HAAR)
    assert np.allclose(g, [1 / np.sqrt(2), -1 / np.sqrt(2)])


def test_constant_vector_all_detail_zero():
    c = 3.0
    tree = analyze(np.full(64, c), HAAR)
    assert all(np.allclose(d, 0.0) for d in tree.details)
    assert tree.approx[0] == pytest.approx(c * 8.0)  # c * 2^(p/2)


@pytest.mark.parametrize("filt", [HAAR, DB8])
@pytest.mark.parametrize("p", [2, 5, 10, 14])
def test_round_trip(filt, p):
    v = rng(p).standard_normal(1 << p)
    w = synthesize(analyze(v, filt), filt)
    assert np.max(np.abs(v - w)) < 1e-10 * max(1.0, np.max(np.abs(v)))


@pytest.mark.parametrize("filt", [HAAR, DB8])
def test_parseval(filt):
    v = rng(3).standard_normal(512)
    tree = analyze(v, filt)
    assert tree.energy() == pytest.approx(np.dot(v, v), rel=1e-10)


def test_length_must_be_power_of_two():
    with pytest.raises(ValueError):
        analyze(np.ones(48), HAAR)
    with pytest.raises(ValueError):
        analyze(np.ones(1), HAAR)


# Reference kernels: the per-tap gather/scatter pyramid steps the windowed
# matrix products replaced. A product adds each output's taps in its own
# order, so the kernels agree with the reference within a rounding bound,
# not bit for bit (see _assert_near_reference).
def _reference_analyze_step(a, h, g):
    n = len(a)
    half = n // 2
    pos = 2 * np.arange(half)
    approx = np.zeros(half)
    detail = np.zeros(half)
    for k in range(len(h)):
        vals = a[(pos + k) % n]
        approx += h[k] * vals
        detail += g[k] * vals
    return approx, detail


def _reference_synthesize_step(approx, detail, h, g):
    half = len(approx)
    n = 2 * half
    pos = 2 * np.arange(half)
    out = np.zeros(n)
    for k in range(len(h)):
        out[(pos + k) % n] += h[k] * approx + g[k] * detail
    return out


def _reference_analyze(v, h):
    g = qmf(h)
    details = []
    a = v
    while len(a) > 1:
        a, d = _reference_analyze_step(a, h, g)
        details.append(d)
    return np.concatenate([a] + details[::-1])


def _reference_synthesize(c, h):
    g = qmf(h)
    a = c[:1]
    for j in range(len(c).bit_length() - 1):
        a = _reference_synthesize_step(a, c[1 << j: 2 << j], h, g)
    return a


def _rowwise(fn, x, h):
    rows = x.reshape(-1, x.shape[-1])
    return np.array([fn(r, h) for r in rows]).reshape(x.shape)


def _assert_near_reference(got, want, rows):
    # every level is orthogonal, so each adds a rounding error of a few eps
    # times the row's norm: |got - want| <= 8 log2(n) eps ||row||. The
    # largest deviation measured is 3.81 log2(n) eps ||row||, on 20,000
    # random DB8 rows at n = 2, where each output sums 16 taps over 2
    # values; c = 8 is about twice that
    n = rows.shape[-1]
    bound = 8 * np.log2(n) * np.finfo(float).eps * np.linalg.norm(rows, axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("filt", [HAAR, DB8], ids=["haar", "db8"])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=str)
@pytest.mark.parametrize("p", range(1, 13))
def test_batched_kernels_match_reference_exactly(filt, batch, p):
    # a batch gives each row exactly its own call's floats, and those are
    # the per-tap reference's within the rounding bound; p = 1..3 with DB8
    # covers levels shorter than the 16-tap filter
    x = rng(100 + p).standard_normal(batch + (1 << p,))
    coeffs = analyze_flat(x, filt)
    assert coeffs.shape == x.shape
    assert np.array_equal(coeffs, _rowwise(analyze_flat, x, filt))
    _assert_near_reference(coeffs, _rowwise(_reference_analyze, x, filt), x)
    values = synthesize_flat(coeffs, filt)
    assert values.shape == x.shape
    assert np.array_equal(values, _rowwise(synthesize_flat, coeffs, filt))
    _assert_near_reference(values, _rowwise(_reference_synthesize, coeffs, filt), coeffs)


@pytest.mark.parametrize("filt", [HAAR, DB8], ids=["haar", "db8"])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=str)
@pytest.mark.parametrize("p", range(1, 13))
def test_prefix_synthesis_matches_each_truncation(filt, batch, p):
    # every prefix, bit for bit, as synthesize_flat gives its truncation, and
    # within the rounding bound of the reference; p = 1..3 with DB8 covers
    # levels shorter than the filter
    n = 1 << p
    coeffs = rng(200 + p).standard_normal(batch + (n,))
    dims = [1 << j for j in range(p + 1)]
    prefixes = synthesize_prefixes(coeffs, dims, filt)
    assert prefixes.shape == batch + (len(dims), n)
    for i, dim in enumerate(dims):
        kept = transform.truncate_flat(coeffs, dim)
        want = synthesize_flat(kept, filt)
        assert prefixes[..., i, :].tobytes() == want.tobytes()
        _assert_near_reference(want, _rowwise(_reference_synthesize, kept, filt), kept)


def test_prefix_synthesis_of_some_prefixes():
    coeffs = rng(5).standard_normal((2, 256))
    for dims in ([1], [256], [4, 32], [2, 64, 128]):
        prefixes = synthesize_prefixes(coeffs, dims, DB8)
        for i, dim in enumerate(dims):
            want = synthesize_flat(transform.truncate_flat(coeffs, dim), DB8)
            assert prefixes[..., i, :].tobytes() == want.tobytes()
    for dims in ([], [0], [3], [4, 2], [4, 4], [512]):
        with pytest.raises(ValueError, match="powers of two"):
            synthesize_prefixes(coeffs, dims, DB8)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_db8_parseval_at_levels_shorter_than_the_filter(p):
    # at n <= 16 the 16 taps wrap around the level more than once
    n = 1 << p
    atoms = analyze_flat(np.eye(n), DB8)  # row i: the coefficients of e_i
    assert np.max(np.abs(atoms @ atoms.T - np.eye(n))) < 1e-12
    x = rng(p).standard_normal((5, n))
    energy = np.sum(x ** 2, axis=-1)
    assert np.all(np.abs(np.sum(analyze_flat(x, DB8) ** 2, axis=-1) - energy) < 1e-12 * energy)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 9), rows=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       db8=st.booleans())
def test_batch_size_invariance(p, rows, seed, db8):
    # any batch gives each row the floats of its own unbatched transform
    filt = DB8 if db8 else HAAR
    x = np.random.default_rng(seed).standard_normal((rows, 1 << p))
    coeffs = analyze_flat(x, filt)
    values = synthesize_flat(coeffs, filt)
    for i in range(rows):
        assert np.array_equal(coeffs[i], flatten(analyze(x[i], filt)))
        _assert_near_reference(coeffs[i], _reference_analyze(x[i], filt), x[i])
        assert np.array_equal(values[i], synthesize_flat(coeffs[i], filt))
    assert np.max(np.abs(values - x)) < 1e-10 * max(1.0, np.max(np.abs(x)))


def test_tree_well_formedness():
    with pytest.raises(MalformedTreeError):
        CoefficientTree(np.zeros(1), (np.zeros(2),), 3)
    with pytest.raises(MalformedTreeError):
        CoefficientTree(np.zeros(2), (np.zeros(1),), 3)
    with pytest.raises(MalformedTreeError):
        unflatten(np.zeros(5), 8)


def test_zero_tree_synthesizes_to_zero():
    tree = unflatten(np.zeros(128), 128)
    assert np.allclose(synthesize(tree, DB8), 0.0)


def test_unit_detail_reconstructs_haar_atom():
    # single unit coefficient gives the atom on the grid, scaled by 2^(-p/2)
    n = 256
    flat = np.zeros(n)
    flat[4] = 1.0  # level-2 detail, first position: psi_{2,1}
    vals = synthesize(unflatten(flat, n), HAAR)
    x = (np.arange(n) + 0.5) / n
    atom = np.where(x < 1 / 8, 2.0, np.where(x < 1 / 4, -2.0, 0.0))
    assert np.allclose(vals, atom / np.sqrt(n), atol=1e-12)


def test_flatten_unflatten_round_trip():
    v = rng(9).standard_normal(64)
    tree = analyze(v, DB8)
    again = unflatten(flatten(tree), 64)
    assert np.allclose(flatten(again), flatten(tree))


def test_tree_serialization():
    tree = analyze(rng(2).standard_normal(32), HAAR)
    clone = CoefficientTree.from_dict(tree.to_dict())
    assert np.allclose(flatten(clone), flatten(tree))


class TestOrderedDesignFit:
    """The pyramid fit on rank-ordered responses: estimator.NestedPyramid,
    and estimator.pyramid_filter deciding where it applies."""

    def setup_method(self):
        self.n = 1024
        self.model = bases.build_periodized_wavelet(DB8, 4)  # D = 32

    def _sample(self, y, x=None):
        from wavesel.signals import RegressionSample, SampleMeta
        x = (np.arange(len(y)) + 0.5) / len(y) if x is None else x
        return RegressionSample(np.asarray(x, float), np.asarray(y, float),
                                SampleMeta("custom", "custom", len(y), 0))

    def test_in_span_reproduced_at_design_points(self):
        # y in the discrete span of the model: projection returns it exactly
        flat = np.zeros(self.n)
        flat[: self.model.dim] = rng(1).standard_normal(self.model.dim)
        y = synthesize(unflatten(flat, self.n), DB8)
        pyramid = NestedPyramid.of(y, pyramid_filter((self.model,), self.n))
        beta = pyramid.beta(self.model.dim)
        refit = np.zeros(self.n)
        refit[: self.model.dim] = beta * np.sqrt(self.n)
        values = synthesize(unflatten(refit, self.n), DB8)
        assert np.max(np.abs(values - y)) < 1e-10
        assert np.max(np.abs(pyramid.fitted([self.model.dim])[0] - y)) < 1e-10
        assert pyramid.risks([self.model.dim])[0] < 1e-12 * np.mean(y ** 2)

    def test_nested_risk_monotone(self):
        from wavesel.signals import generate, get_noise, get_signal
        sample = generate(get_signal("wave"), get_noise("l1"), self.n, 21)
        pyramid = NestedPyramid.of(sample.y, DB8)
        coeffs = flatten(analyze(sample.y, DB8))
        energy = np.dot(sample.y, sample.y)
        for dim in (16, 32):
            assert pyramid.risks([dim])[0] == pytest.approx(
                (energy - np.sum(coeffs[:dim] ** 2)) / self.n, rel=1e-12)
        risks = [pyramid.risks([2 ** j])[0] for j in range(11)]
        assert np.all(np.diff(risks) <= 0)

    def test_constant_y_gives_constant_fit(self):
        y = np.full(self.n, 2.5)
        beta = NestedPyramid.of(y, DB8).beta(self.model.dim)
        assert beta[0] == pytest.approx(2.5)
        assert np.allclose(beta[1:], 0.0, atol=1e-12)

    def test_dimension_exceeds_n(self):
        big = bases.build_periodized_wavelet(DB8, 6)  # D = 128
        assert pyramid_filter((big,), 64) is None
        assert pyramid_filter((self.model, big), 64) is None
        assert np.array_equal(pyramid_filter((self.model, big), 128), DB8)
        with pytest.raises(ValueError):
            fit_ls(self._sample(np.zeros(64)), big, method="pyramid_fast")

    def test_requires_dyadic_length(self):
        y = np.zeros(100)
        assert pyramid_filter((self.model,), 100) is None
        with pytest.raises(ValueError):
            fit_ls(self._sample(y, x=np.linspace(0, 1, 100)), self.model, method="pyramid_fast")
        with pytest.raises(ValueError):
            NestedPyramid.of(y, DB8)

    def test_requires_one_wavelet_filter(self):
        haar = bases.build_periodized_wavelet(HAAR, 4)
        assert pyramid_filter((self.model, haar), self.n) is None
        assert pyramid_filter((bases.build_haar_weighted(4),), self.n) is None
        assert np.array_equal(pyramid_filter((haar,), self.n), HAAR)


@pytest.mark.parametrize("filt", [HAAR, DB8], ids=["haar", "db8"])
@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("rows", [1, 3])
def test_block_rows_equal_single_vector_pyramids(filt, n, rows):
    # a row of a block pyramid holds the floats of its vector's own
    # pyramid, bit for bit, and so do the block's risks and fitted values,
    # whatever the memory layout of the block (a column slice of a C-ordered
    # block, such as y[:, train], comes out F-ordered)
    ys = [rng(seed).standard_normal(n) for seed in range(rows)]
    dims = 2 ** np.arange(1, n.bit_length() - 1)
    for layout in ("C", "F"):
        block = NestedPyramid.of(np.asarray(np.stack(ys), order=layout), filt)
        risks, fitted = block.risks(dims), block.fitted(dims)
        assert risks.shape == (rows, len(dims)) and fitted.shape == (rows, len(dims), n)
        for i, y in enumerate(ys):
            alone, row = NestedPyramid.of(y, filt), block[i]
            for got in (row, block[:rows][i]):
                assert np.array_equal(got.coeffs, alone.coeffs)
                assert np.array_equal(got.csum, alone.csum)
                assert got.energy == alone.energy == np.dot(y, y)
            assert np.array_equal(risks[i], alone.risks(dims))
            assert np.array_equal(row.risks(dims), alone.risks(dims))
            assert np.array_equal(fitted[i], alone.fitted(dims))
            assert np.array_equal(row.fitted(dims), alone.fitted(dims))
