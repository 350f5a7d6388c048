"""The shared nested pyramid against copies of the earlier per-caller code.

Each reference below is the pyramid branch that ``fit_collection``,
``fold_fitted``, the bench's replication and ``fit_ls`` carried before
they all read one ``estimator.NestedPyramid``; the results must be the
same floats, bit for bit, also when the bench runs replications in a
block (``bench._replicate_block``). ``ref_replicate`` also keeps the bench's own loss
arithmetic and method dispatch from before both moved into
``selection.in_sample_losses`` and ``selection.select_methods``. The 2FCV and pen2F
references are the per-model interpolation loops the two selectors ran
before both read the fold risks of ``fold_fitted``: 2FCV must match bit
for bit, and pen2F, now computed from an identity, to rounding. They read
the training indices and fitted values of ``ref_fold_fitted``, and take
the split as explicit index arrays: fold j trains on the ranks j, j + 2,
... (0-based) and holds out the others.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from wavesel import bench, transform
from wavesel.estimator import FitResult, NestedPyramid, fit_ls
from wavesel.selection import (FittedCollection, fit_collection, fold_fitted, select_cp,
                               select_penvf, select_sh, select_vfcv, wavelet_collection)
from wavesel.signals import benchmark_signal, derive_seed, generate, get_noise

CASES = [(name, n) for name in ("haar", "db8") for n in (256, 1024)]
V = 2  # the even/odd split


def train_idx(j, n):
    return np.arange(j, n, 2)


def heldout_idx(j, n):
    return np.arange(1 - j, n, 2)


@dataclass(frozen=True)
class RefFits:
    """The per-model fits and risks that ``fit_collection`` returned
    before it kept each sample's row of one block pyramid."""
    fits: tuple
    emp_risks: np.ndarray

    def __len__(self) -> int:
        return len(self.fits)


def ref_fit_collection(sample, collection):
    models = collection.models
    coeffs = transform.analyze_flat(sample.y, models[0].h)
    energy = float(np.dot(sample.y, sample.y))
    csum = np.cumsum(coeffs ** 2)
    fits = []
    risks = []
    for m in models:
        kept = coeffs[: m.dim]
        risk = max((energy - csum[m.dim - 1]) / sample.n, 0.0)
        fits.append(FitResult(m, kept / np.sqrt(sample.n), risk, "pyramid_fast"))
        risks.append(risk)
    return RefFits(tuple(fits), np.array(risks))


@dataclass(frozen=True)
class RefFoldFit:
    """A fold fit that also keeps its training indices and fitted values,
    which the per-model reference selectors below read."""
    train_idx: np.ndarray
    fitted: tuple
    train_risks: np.ndarray
    heldout_risks: np.ndarray


def ref_fold_fitted(sample, collection):
    out = []
    for j in range(V):
        tr = train_idx(j, sample.n)
        x_t = sample.x[tr]
        y_t = sample.y[tr]
        n_t = len(tr)
        dims = collection.dims
        h = collection.models[0].h
        coeffs = transform.analyze_flat(y_t, h)
        energy = float(np.dot(y_t, y_t))
        csum = np.cumsum(coeffs ** 2)
        kept = np.where(np.arange(n_t) < dims[:, None], coeffs, 0.0)
        fitted = list(transform.synthesize_flat(kept, h))
        risks = [max((energy - csum[d - 1]) / n_t, 0.0) for d in dims]
        held = heldout_idx(j, sample.n)
        x_h = sample.x[held]
        y_h = sample.y[held]
        cv = [float(np.mean((y_h - np.interp(x_h, x_t, f)) ** 2)) for f in fitted]
        out.append(RefFoldFit(tr, tuple(fitted), np.array(risks), np.array(cv)))
    return tuple(out)


def ref_select_vfcv(sample, fits, fold_fits):
    """The per-model held-out interpolation loop of 2FCV before the fold
    risks moved into ``fold_fitted``; returns (criterion, chosen index)."""
    dims = np.array([f.model.dim for f in fits.fits], dtype=int)
    per_fold = np.zeros((V, len(dims)))
    for j, fold in enumerate(fold_fits):
        held = heldout_idx(j, sample.n)
        x_h = sample.x[held]
        y_h = sample.y[held]
        x_t = sample.x[fold.train_idx]
        for i in range(len(dims)):
            pred = np.interp(x_h, x_t, fold.fitted[i])
            per_fold[j, i] = float(np.mean((y_h - pred) ** 2))
    crit = per_fold.mean(axis=0)
    return crit, int(np.lexsort((dims, crit))[0])


def ref_select_penvf(sample, fits, fold_fits):
    """The full-sample interpolation loop of pen2F before it read the fold
    risks; returns (penalties, chosen index)."""
    dims = np.array([f.model.dim for f in fits.fits], dtype=int)
    terms = np.zeros((V, len(dims)))
    for j, fold in enumerate(fold_fits):
        x_t = sample.x[fold.train_idx]
        for i in range(len(dims)):
            pred_all = np.interp(sample.x, x_t, fold.fitted[i])
            full_risk = float(np.mean((sample.y - pred_all) ** 2))
            terms[j, i] = full_risk - fold.train_risks[i]
    pen = (V - 1) / V * terms.sum(axis=0)
    crit = fits.emp_risks + pen
    return pen, int(np.lexsort((dims, crit))[0])


def ref_replicate(signal, noise, n, seed, collection, methods):
    sample = generate(signal, noise, n, seed)
    ref = ref_fit_collection(sample, collection)
    filt = collection.models[0].h
    c_signal, c_y = transform.analyze_flat(np.stack([signal(sample.x), sample.y]), filt)
    # the selectors read the reference's risks from a fitted collection
    pyramid = NestedPyramid(filt, c_y, np.cumsum(c_y ** 2), np.dot(sample.y, sample.y))
    fits = FittedCollection(collection, pyramid, ref.emp_risks)
    c_noise = c_y - c_signal
    cum_noise = np.cumsum(c_noise ** 2)
    cum_signal = np.cumsum(c_signal ** 2)
    total_signal = cum_signal[-1]
    dims = np.array([f.model.dim for f in ref.fits])
    losses = np.array([(cum_noise[d - 1] + (total_signal - cum_signal[d - 1])) / n
                       for d in dims])
    oracle_loss = float(losses[np.lexsort((dims, losses))[0]])
    fold_fits = ref_fold_fitted(sample, collection)
    out = {}
    for method in methods:
        if method == "sh":
            sel = select_sh(fits)
        elif method == "cp":
            sel = select_cp(fits)
        elif method == "vfcv":
            sel = select_vfcv(fits, fold_fits)
        else:
            sel = select_penvf(fits, fold_fits)
        loss = float(losses[sel.chosen_index])
        if oracle_loss > 0.0:
            out[method] = loss / oracle_loss
        else:
            out[method] = 1.0 if loss <= 1e-300 else np.inf
    return out


def ref_fit_pyramid(sample, model):
    coeffs = transform.analyze_flat(sample.y, model.h)
    beta = coeffs[: model.dim] / np.sqrt(sample.n)
    values = transform.synthesize_flat(transform.truncate_flat(coeffs, model.dim), model.h)
    return beta, values


def _setup(name, n, seed=7):
    signal = benchmark_signal("doppler")
    sample = generate(signal, get_noise("h1"), n, seed)
    return signal, sample, wavelet_collection(n, transform.get_filter(name))


@pytest.mark.parametrize("name, n", CASES)
def test_fit_collection_matches_reference(name, n):
    _, sample, coll = _setup(name, n)
    got = fit_collection(sample, coll)
    want = ref_fit_collection(sample, coll)
    assert np.array_equal(got.emp_risks, want.emp_risks)
    for g, w in zip(got.fits, want.fits, strict=True):
        assert np.array_equal(g.beta, w.beta)
        assert g.empirical_risk == w.empirical_risk
    assert np.array_equal(got.pyramid.coeffs, transform.analyze_flat(sample.y, coll.models[0].h))


@pytest.mark.parametrize("name, n", CASES)
def test_fold_fitted_matches_reference(name, n):
    _, sample, coll = _setup(name, n)
    for g, w in zip(fold_fitted(sample, coll), ref_fold_fitted(sample, coll),
                    strict=True):
        assert np.array_equal(g.train_risks, w.train_risks)
        assert np.array_equal(g.heldout_risks, w.heldout_risks)


@pytest.mark.parametrize("name, n", CASES)
def test_fold_selectors_match_reference(name, n):
    _, sample, coll = _setup(name, n)
    fits = fit_collection(sample, coll)
    fold_fits = fold_fitted(sample, coll)
    ref_fold_fits = ref_fold_fitted(sample, coll)
    crit, idx = ref_select_vfcv(sample, fits, ref_fold_fits)
    got = select_vfcv(fits, fold_fits)
    assert np.array_equal([t.criterion for t in got.trace], crit)
    assert got.chosen_index == idx
    pen, idx = ref_select_penvf(sample, fits, ref_fold_fits)
    got = select_penvf(fits, fold_fits)
    assert np.max(np.abs(np.array([t.penalty for t in got.trace]) - pen)) <= 1e-10 * np.max(np.abs(pen))
    assert got.chosen_index == idx


@pytest.mark.parametrize("name, n", CASES)
def test_replicate_matches_reference(name, n):
    signal, _, coll = _setup(name, n)
    methods = ("sh", "cp", "vfcv", "penvf")
    seeds = [derive_seed(11, r) for r in range(3)]
    block = bench._replicate_block([(signal, get_noise("h1"), seed) for seed in seeds],
                                   n, coll, methods)
    for seed, got in zip(seeds, block.tolist(), strict=True):
        want = ref_replicate(signal, get_noise("h1"), n, seed, coll, methods)
        assert dict(zip(methods, got)) == want


@pytest.mark.parametrize("name, n", CASES)
def test_fit_ls_pyramid_matches_reference(name, n):
    _, sample, coll = _setup(name, n)
    energy = float(np.dot(sample.y, sample.y))
    for model in coll:
        fit = fit_ls(sample, model, method="pyramid_fast")
        beta, values = ref_fit_pyramid(sample, model)
        assert fit.method == "pyramid_fast"
        assert np.array_equal(fit.beta, beta)
        assert np.array_equal(NestedPyramid.of(sample.y, model.h).fitted([model.dim])[0], values)
        # the risk moved from the kept energy to the cumulative energy,
        # which may differ in the last bits of the cancellation
        kept = beta * np.sqrt(n)
        ref_risk = max((energy - float(np.dot(kept, kept))) / n, 0.0)
        assert abs(fit.empirical_risk - ref_risk) <= 8 * np.finfo(float).eps * energy / n
