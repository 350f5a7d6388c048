"""Model-selection procedures: oracle, slope heuristics, Cp, 2FCV, pen2F.

All selectors minimize a per-model criterion over a shared collection and
break ties toward the smaller dimension. The slope heuristics calibrates
its penalty level from the exact breakpoint path of
alpha -> argmin_m {risk_m + alpha * shape_m}, computed from the lower
convex hull of the (shape, risk) cloud, and places the minimal level at
the breakpoint with the largest drop in selected dimension (ties going
to the largest alpha).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bases
from .estimator import FitResult, NestedPyramid, fit_ls, pyramid_filter
from .signals import RegressionSample

__all__ = [
    "ModelCollection",
    "wavelet_collection",
    "FittedCollection",
    "fit_collection",
    "in_sample_losses",
    "FoldScheme",
    "FoldDegeneracyError",
    "PathSegment",
    "PenaltyPath",
    "penalty_path",
    "TraceEntry",
    "SelectionOutcome",
    "oracle_select",
    "FOLD_METHODS",
    "select_methods",
    "select_sh",
    "select_cp",
    "select_vfcv",
    "select_penvf",
    "fold_fitted",
]


class FoldDegeneracyError(ValueError):
    """A V-fold block is empty."""


@dataclass(frozen=True)
class ModelCollection:
    models: tuple

    def __post_init__(self):
        dims = self.dims
        if len(dims) == 0:
            raise ValueError("empty model collection")
        if np.any(np.diff(dims) <= 0):
            raise ValueError("model dimensions must be strictly increasing")

    @property
    def dims(self) -> np.ndarray:
        return np.array([m.dim for m in self.models], dtype=int)

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self):
        return iter(self.models)


def wavelet_collection(n: int, filt) -> ModelCollection:
    """Nested wavelet models with dimensions 2^j, j = 1..log2(n)-1."""
    p = int(n).bit_length() - 1
    if (1 << p) != n or p < 2:
        raise ValueError("need a dyadic sample size >= 4")
    models = tuple(bases.WaveletModel(filt, j - 1) for j in range(1, p))
    return ModelCollection(models)


@dataclass(frozen=True)
class FittedCollection:
    fits: tuple
    emp_risks: np.ndarray
    pyramid: Optional[NestedPyramid] = None  # the sample's, when one serves all fits
    signal: Optional[NestedPyramid] = None   # the truth's, when fitted with its values

    def __len__(self) -> int:
        return len(self.fits)


def fit_collection(samples, collection: ModelCollection, signal_values=None):
    """Fit every model once per sample; a nested wavelet collection shares
    one pyramid per sample.

    ``samples`` is one sample, which gives one :class:`FittedCollection`,
    or a block of samples of one size, which gives a tuple of them. On the
    pyramid route the block's responses, and the truth's values at each
    sample's design points when ``signal_values`` gives them (an array per
    sample), go through one batched analysis. Raises
    :class:`~wavesel.estimator.SingularDesignError` for the first model a
    sample cannot fit.
    """
    if isinstance(samples, RegressionSample):
        truths = None if signal_values is None else (signal_values,)
        return fit_collection((samples,), collection, truths)[0]
    samples = tuple(samples)
    truths = () if signal_values is None else tuple(signal_values)
    if truths and len(truths) != len(samples):
        raise ValueError(f"{len(truths)} signal value arrays for {len(samples)} samples")
    models = collection.models
    h = pyramid_filter(models, samples[0].n)
    if h is None:
        fitted = [tuple(fit_ls(sample, m) for m in models) for sample in samples]
        return tuple(FittedCollection(fits, np.array([f.empirical_risk for f in fits]))
                     for fits in fitted)
    pyramids = NestedPyramid.stack([s.y for s in samples] + list(truths), h)
    signals = pyramids[len(samples):] if truths else (None,) * len(samples)
    out = []
    for pyramid, signal in zip(pyramids, signals):
        fits = tuple(FitResult(m, pyramid.beta(m.dim), pyramid.risk(m.dim), "pyramid_fast", None)
                     for m in models)
        out.append(FittedCollection(fits, np.array([f.empirical_risk for f in fits]),
                                    pyramid=pyramid, signal=signal))
    return tuple(out)


def in_sample_losses(fits: FittedCollection, signal_values: np.ndarray) -> np.ndarray:
    """Per-model loss (1/n) sum_i (s_hat_m(x_i) - s*(x_i))^2 at the design points.

    This is the oracle's loss: the sample estimate of the L2(P^X) loss,
    given the truth's values ``signal_values`` at the design points. A
    shared pyramid splits it by Parseval into the noise energy a model
    keeps plus the signal energy it drops, and reads the truth's
    coefficients from the analysis :func:`fit_collection` made with the
    signal values; otherwise each fit's design values are compared with
    the truth directly.
    """
    if fits.pyramid is None:
        return np.array([float(np.mean((f.design_values - signal_values) ** 2))
                         for f in fits.fits])
    if fits.signal is None:
        raise ValueError("the pyramid route needs the collection fitted with the signal values")
    n = len(fits.pyramid.coeffs)
    c_noise = fits.pyramid.coeffs - fits.signal.coeffs
    cum_noise = np.cumsum(c_noise ** 2)
    cum_signal = fits.signal.csum
    total_signal = cum_signal[-1]
    dims = np.array([f.model.dim for f in fits.fits])
    return np.array([(cum_noise[d - 1] + (total_signal - cum_signal[d - 1])) / n
                     for d in dims])


# ---------------------------------------------------------------------------
# fold schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldScheme:
    """Index blocks over the rank-ordered sample.

    ``blocks[j]`` is held out in fold j and the fit uses its complement.
    """

    V: int
    blocks: tuple

    @classmethod
    def interleaved(cls, n: int, V: int) -> "FoldScheme":
        """Rank-interleaved blocks; V=2 gives the even/odd-rank split."""
        if V < 2 or V > n:
            raise ValueError("need 2 <= V <= n")
        idx = np.arange(n)
        blocks = tuple(idx[idx % V == (j + 1) % V] for j in range(V))
        scheme = cls(V, blocks)
        scheme.validate(n)
        return scheme

    def validate(self, n: int) -> None:
        all_idx = np.concatenate(self.blocks)
        if len(all_idx) != n or len(np.unique(all_idx)) != n:
            raise ValueError("blocks do not partition the index set")
        for b in self.blocks:
            if abs(len(b) - n / self.V) >= 1:
                raise ValueError("block sizes must be within 1 of n/V")

    def heldout(self, j: int) -> np.ndarray:
        return self.blocks[j]

    def train(self, j: int, n: int) -> np.ndarray:
        mask = np.ones(n, dtype=bool)
        mask[self.blocks[j]] = False
        return np.nonzero(mask)[0]


@dataclass(frozen=True)
class FoldFit:
    train_risks: np.ndarray    # R_j: per-model risk on the training block
    heldout_risks: np.ndarray  # CV_j: per-model risk on the held-out block


def _heldout_risks(fitted: np.ndarray, x_t: np.ndarray, x_h: np.ndarray, y_h: np.ndarray,
                   k: np.ndarray) -> np.ndarray:
    """Mean squared held-out error of each row of ``fitted`` (models, n_t).

    Each row predicts as ``np.interp(x_h, x_t, row)``, in its operation
    order: inside its training bracket k, x_t[k] < x_h < x_t[k + 1], the
    slope (f[k+1] - f[k]) / (x_t[k+1] - x_t[k]) times (x_h - x_t[k]) plus
    f[k]; f[0] before the training points (k = -1) and f[-1] after them
    (k = n_t - 1). The predictions are built in one C-ordered array, so
    each row's mean sums pairwise as the mean of one vector does.
    """
    lo, hi = np.searchsorted(k, [0, len(x_t) - 1])
    kc = k[lo:hi]
    pred = np.empty((len(fitted), len(x_h)))
    inner = pred[:, lo:hi]
    f_k = np.take(fitted, kc, axis=-1)
    np.subtract(np.take(fitted, kc + 1, axis=-1), f_k, out=inner)
    inner /= x_t[kc + 1] - x_t[kc]
    inner *= x_h[lo:hi] - x_t[kc]
    inner += f_k
    pred[:, :lo] = fitted[:, :1]
    pred[:, hi:] = fitted[:, -1:]
    pred -= y_h
    np.square(pred, out=pred)
    return pred.mean(axis=-1)


def _fold_fits(samples, tr: np.ndarray, held: np.ndarray, h: np.ndarray, dims) -> list:
    """The :class:`FoldFit` of each sample on one fold, from one analysis
    and one prefix synthesis of the block's training responses. The fitted
    values live only for the call, so one fold's are freed before the next
    fold's synthesis (the bench sizes its blocks by that peak)."""
    k = np.searchsorted(tr, held) - 1
    pyramids = NestedPyramid.stack([s.y[tr] for s in samples], h)
    fitted = NestedPyramid.fitted_stack(pyramids, dims)
    return [FoldFit(np.array([p.risk(d) for d in dims]),
                    _heldout_risks(f, s.x[tr], s.x[held], s.y[held], k))
            for s, p, f in zip(samples, pyramids, fitted)]


def fold_fitted(samples, collection: ModelCollection, folds: FoldScheme) -> tuple:
    """Per-fold training and held-out risks of every model (shared by
    2FCV and pen2F).

    ``samples`` is one sample, which gives its tuple of :class:`FoldFit`
    (one per fold), or a block of samples of one size, which gives one
    such tuple per sample. A fold fit is the full-sample estimator on the
    training block: each fold analyses the whole block's training
    responses in one pyramid call and synthesizes every model of every
    sample in another, so a training block the pyramid cannot serve
    raises ``ValueError``. A fold fit predicts off its training points by
    linear interpolation in x between its fitted values, with constant
    extrapolation at the boundary. Since x strictly increases, a held-out
    point's bracket of training points is fixed by the ranks alone, once
    per fold for every sample.
    """
    if isinstance(samples, RegressionSample):
        return fold_fitted((samples,), collection, folds)[0]
    samples = tuple(samples)
    n = samples[0].n
    dims = collection.dims
    out = [[] for _ in samples]
    for j in range(folds.V):
        held = folds.heldout(j)
        if len(held) == 0:
            raise FoldDegeneracyError(f"fold {j + 1} is empty")
        tr = folds.train(j, n)
        if len(tr) == 0:
            raise FoldDegeneracyError(f"training set of fold {j + 1} is empty")
        h = pyramid_filter(collection.models, len(tr))
        if h is None:
            raise ValueError(f"one pyramid cannot fit the collection on the {len(tr)} "
                             f"training points of fold {j + 1}")
        for row, fit in zip(out, _fold_fits(samples, tr, held, h, dims)):
            row.append(fit)
    return tuple(tuple(row) for row in out)


# ---------------------------------------------------------------------------
# exact penalty path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSegment:
    alpha_lo: float
    alpha_hi: float
    index: int
    dim: int
    risk: float


@dataclass(frozen=True)
class PenaltyPath:
    """Breakpoints of alpha -> argmin_m {risk_m + alpha shape_m}.

    Segments are ordered by decreasing alpha; the selected dimension is
    nonincreasing in alpha and jumps upward as alpha crosses each
    breakpoint downward.
    """

    segments: tuple
    shapes: np.ndarray
    risks: np.ndarray
    dims: np.ndarray

    def segment_at(self, alpha: float) -> PathSegment:
        """Path segment covering alpha; at a breakpoint the smaller dim wins."""
        for seg in self.segments:
            if alpha >= seg.alpha_lo:
                return seg
        return self.segments[-1]

    def jumps(self) -> list:
        """(alpha, dim_above, dim_below) per breakpoint, alpha descending."""
        return [(above.alpha_lo, above.dim, below.dim)
                for above, below in zip(self.segments, self.segments[1:])]


def _lower_hull(shapes: np.ndarray, risks: np.ndarray, dims: np.ndarray) -> list:
    # lower-left convex hull of the (shape, risk) cloud: exactly the models
    # selected by risk + alpha * shape for some alpha >= 0
    order = np.lexsort((dims, risks, shapes))
    hull: list = []
    for i in order:
        if hull and shapes[i] == shapes[hull[-1]]:
            continue  # same shape: the smaller risk (then dim) already kept
        if hull and risks[i] >= risks[hull[-1]]:
            continue  # no risk improvement at a larger shape: never selected
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # drop b when the chord a -> i passes at or below b
            lhs = (risks[i] - risks[a]) * (shapes[b] - shapes[a])
            rhs = (risks[b] - risks[a]) * (shapes[i] - shapes[a])
            if lhs <= rhs:
                hull.pop()
            else:
                break
        hull.append(int(i))
    return hull


def penalty_path(shapes, risks, dims) -> PenaltyPath:
    """Breakpoint path of the penalized argmin, from the lower convex hull
    of the (shape, risk) points."""
    shapes = np.asarray(shapes, dtype=float)
    risks = np.asarray(risks, dtype=float)
    dims = np.asarray(dims, dtype=int)
    if len(shapes) < 2:
        raise ValueError("need at least two models for a path")
    hull = _lower_hull(shapes, risks, dims)
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


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceEntry:
    dim: int
    emp_risk: float
    penalty: float
    criterion: float


@dataclass(frozen=True)
class SelectionOutcome:
    method: str
    chosen_index: int
    chosen_dim: int
    trace: tuple
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 2,  # 2: the oracle's criterion is the in-sample loss
            "kind": "selection_outcome",
            "method": self.method,
            "chosen_dim": int(self.chosen_dim),
            "trace": [{"dim": int(t.dim), "emp_risk": float(t.emp_risk),
                       "penalty": float(t.penalty), "criterion": float(t.criterion)}
                      for t in self.trace],
            "diagnostics": _jsonable(self.diagnostics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _argmin_tie_smaller(criteria: np.ndarray, dims: np.ndarray) -> int:
    return int(np.lexsort((dims, criteria))[0])


def _outcome(method: str, dims, emp_risks, penalties, diagnostics) -> SelectionOutcome:
    dims = np.asarray(dims, dtype=int)
    emp_risks = np.asarray(emp_risks, dtype=float)
    penalties = np.asarray(penalties, dtype=float)
    crit = emp_risks + penalties
    idx = _argmin_tie_smaller(crit, dims)
    trace = tuple(TraceEntry(int(d), float(r), float(p), float(c))
                  for d, r, p, c in zip(dims, emp_risks, penalties, crit))
    return SelectionOutcome(method, idx, int(dims[idx]), trace, diagnostics)


def oracle_select(sample: RegressionSample, collection: ModelCollection,
                  signal_values: np.ndarray,
                  fits: Optional[FittedCollection] = None) -> SelectionOutcome:
    """Minimize the in-sample loss of :func:`in_sample_losses` over the
    collection, given the truth's values at the design points."""
    fits = fits or fit_collection(sample, collection, signal_values)
    losses = in_sample_losses(fits, signal_values)
    dims = np.array([f.model.dim for f in fits.fits], dtype=int)
    idx = _argmin_tie_smaller(losses, dims)
    trace = tuple(TraceEntry(int(d), float(fits.emp_risks[i]), 0.0, float(losses[i]))
                  for i, d in enumerate(dims))
    return SelectionOutcome("oracle", idx, int(dims[idx]), trace,
                            {"losses": losses})


def dimension_jump(path: PenaltyPath):
    """Calibrated minimal level: breakpoint with the largest dimension drop.

    Returns (alpha_min, jump_table, no_jump_flag); ties in the drop go to
    the largest alpha, and the flag is set when the largest relative drop
    is below a factor two.
    """
    jumps = path.jumps()
    if not jumps:
        return 0.0, [], True
    drops = [below - above for _, above, below in jumps]
    best = int(np.argmax(drops))  # jumps are ordered by decreasing alpha
    alpha_min = jumps[best][0]
    ratio = jumps[best][2] / jumps[best][1]
    return float(alpha_min), jumps, bool(ratio < 2.0)


def select_sh(sample: RegressionSample, collection: ModelCollection,
              fits: Optional[FittedCollection] = None,
              shape: Optional[np.ndarray] = None) -> SelectionOutcome:
    """Slope heuristics: pen(m) = 2 alpha_min_hat * D_m / n via the dimension jump."""
    fits = fits or fit_collection(sample, collection)
    if len(fits) < 3:
        raise ValueError("slope heuristics needs at least 3 fitted models")
    dims = np.array([f.model.dim for f in fits.fits], dtype=int)
    shape = dims / sample.n if shape is None else np.asarray(shape, dtype=float)
    path = penalty_path(shape, fits.emp_risks, dims)
    alpha_min, jumps, no_jump = dimension_jump(path)
    penalties = 2.0 * alpha_min * shape
    return _outcome("sh", dims, fits.emp_risks, penalties, {
        "alpha_min": alpha_min,
        "jumps": jumps,
        "no_jump": no_jump,
        "path": [(s.alpha_lo, s.alpha_hi, s.dim) for s in path.segments],
    })


def select_cp(sample: RegressionSample, collection: ModelCollection,
              fits: Optional[FittedCollection] = None) -> SelectionOutcome:
    """Mallows' Cp: pen(m) = 2 sigma2_hat D_m / n with the saturated-model
    variance estimator sigma2_hat = d^2(Y, m_{n/2}) / (n - n/2)."""
    fits = fits or fit_collection(sample, collection)
    dims = np.array([f.model.dim for f in fits.fits], dtype=int)
    n = sample.n
    if dims.max() != n // 2:
        raise ValueError("Cp needs the saturated model of dimension n/2 in the collection")
    largest = int(np.argmax(dims))
    sigma2 = fits.emp_risks[largest] * n / (n - n // 2)
    penalties = 2.0 * sigma2 * dims / n
    return _outcome("cp", dims, fits.emp_risks, penalties, {"sigma2": float(sigma2)})


def select_vfcv(sample: RegressionSample, collection: ModelCollection,
                folds: FoldScheme, fits: Optional[FittedCollection] = None,
                fold_fits: Optional[tuple] = None) -> SelectionOutcome:
    """V-fold cross-validation: the mean over folds of the held-out risks."""
    fits = fits or fit_collection(sample, collection)
    fold_fits = fold_fits or fold_fitted(sample, collection, folds)
    dims = np.array([f.model.dim for f in fits.fits], dtype=int)
    per_fold = np.array([fold.heldout_risks for fold in fold_fits])
    crit = per_fold.mean(axis=0)
    penalties = crit - fits.emp_risks  # implied penalty, for the trace
    return _outcome("vfcv", dims, fits.emp_risks, penalties,
                    {"per_fold_risks": per_fold})


def select_penvf(sample: RegressionSample, collection: ModelCollection,
                 folds: FoldScheme, fits: Optional[FittedCollection] = None,
                 fold_fits: Optional[tuple] = None) -> SelectionOutcome:
    """V-fold penalization: empirical risk plus the resampled ideal penalty
    pen_VF(m) = (V-1)/V sum_j [P_n gamma(s_m^(-j)) - P_n^(-j) gamma(s_m^(-j))].

    The terms come from the fold risks of :func:`fold_fitted`: the
    held-out risk CV_j on the n_h,j held-out points and the training risk
    R_j on the n_t,j training points. The identity below assumes that the
    two blocks partition the sample (n_h,j + n_t,j = n), as the blocks of
    :meth:`FoldScheme.interleaved` do. The fold fit reproduces its
    training values exactly at the knots, so its full-sample risk is
    P_n gamma(s_m^(-j)) = (n_h,j CV_j + n_t,j R_j) / n, and

        pen_VF(m) = (V-1)/V sum_j (n_h,j / n) (CV_j(m) - R_j(m)).

    2FCV minimizes mean_j CV_j over the same quantities.
    """
    fits = fits or fit_collection(sample, collection)
    fold_fits = fold_fits or fold_fitted(sample, collection, folds)
    dims = np.array([f.model.dim for f in fits.fits], dtype=int)
    share = np.array([len(folds.heldout(j)) / sample.n for j in range(folds.V)])
    terms = share[:, None] * np.array([fold.heldout_risks - fold.train_risks
                                       for fold in fold_fits])
    pen = (folds.V - 1) / folds.V * terms.sum(axis=0)
    return _outcome("penvf", dims, fits.emp_risks, pen,
                    {"per_fold_terms": terms})


FOLD_METHODS = ("vfcv", "penvf")


def select_methods(samples, collection: ModelCollection, methods,
                   folds: Optional[FoldScheme] = None, signal_values=None) -> list:
    """Run the named methods on a block of samples of one size: one
    {method: outcome} dict per sample, in the order asked.

    Methods are "oracle" (needs ``signal_values``, the truth's values at
    each sample's design points), "sh", "cp", "vfcv" and "penvf" (these
    two need ``folds``). The block's collection is fitted once, and its
    fold fits are built once, only when a fold method is asked; the
    selectors then run per sample.
    """
    samples = tuple(samples)
    truths = None if signal_values is None else tuple(signal_values)
    fits = fit_collection(samples, collection, truths)
    fold_fits = (None,) * len(samples)
    if any(m in FOLD_METHODS for m in methods):
        if folds is None:
            raise ValueError("2FCV and pen2F need a fold scheme")
        fold_fits = fold_fitted(samples, collection, folds)
    out = []
    for sample, sample_fits, sample_folds, truth in zip(samples, fits, fold_fits,
                                                        truths or (None,) * len(samples)):
        outcomes = {}
        for method in methods:
            if method == "oracle":
                if truth is None:
                    raise ValueError("oracle selection needs the true signal")
                outcomes[method] = oracle_select(sample, collection, truth, fits=sample_fits)
            elif method == "sh":
                outcomes[method] = select_sh(sample, collection, fits=sample_fits)
            elif method == "cp":
                outcomes[method] = select_cp(sample, collection, fits=sample_fits)
            elif method == "vfcv":
                outcomes[method] = select_vfcv(sample, collection, folds, fits=sample_fits,
                                               fold_fits=sample_folds)
            elif method == "penvf":
                outcomes[method] = select_penvf(sample, collection, folds, fits=sample_fits,
                                                fold_fits=sample_folds)
            else:
                raise ValueError(f"unknown method {method!r}")
        out.append(outcomes)
    return out
