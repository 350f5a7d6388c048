"""Model-selection procedures: oracle, slope heuristics, Cp, 2FCV, pen2F.

All selectors minimize a per-model criterion over a shared collection and
break ties toward the smaller dimension. The slope heuristics calibrates
its penalty level from the exact breakpoint path of
alpha -> argmin_m {risk_m + alpha * shape_m}, computed from the lower
convex hull of the (shape, risk) cloud, and places the minimal level at
the breakpoint with the largest drop in selected dimension (ties going
to the largest alpha).

Every selector reads one sample's :class:`FittedCollection`, and 2FCV
and pen2F also its fold fits. Every fit, of the whole sample and of each
even/odd training half (the two folds, derived from the sample's ranks),
reads the nested pyramid of its responses, so a collection is a nested
wavelet collection on a dyadic n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bases
from .estimator import FitResult, NestedPyramid, pyramid_filter
from .signals import RegressionSample

__all__ = [
    "ModelCollection",
    "wavelet_collection",
    "FittedCollection",
    "fit_collection",
    "in_sample_losses",
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
    """One sample's fit of the collection: its row of the block pyramid,
    its per-model empirical risks and, when fitted with the truth's
    values, the truth's row."""
    collection: ModelCollection
    pyramid: NestedPyramid
    emp_risks: np.ndarray
    signal: Optional[NestedPyramid] = None

    @property
    def fits(self) -> tuple:
        """The :class:`FitResult` of each model, built from the pyramid."""
        return tuple(FitResult(m, self.pyramid.beta(m.dim), float(r), "pyramid_fast")
                     for m, r in zip(self.collection.models, self.emp_risks))


def _analyze(ys: np.ndarray, collection: ModelCollection) -> NestedPyramid:
    """The block pyramid of the rows of ys, from one batched analysis.
    Raises ``ValueError`` when one pyramid cannot fit the collection at
    that length."""
    n = ys.shape[-1]
    h = pyramid_filter(collection.models, n)
    if h is None:
        raise ValueError(f"one pyramid cannot fit the collection on {n} points")
    return NestedPyramid.of(ys, h)


def fit_collection(samples, collection: ModelCollection, signal_values=None):
    """Fit every model of a nested wavelet collection from one pyramid per
    sample.

    ``samples`` is one sample, which gives one :class:`FittedCollection`,
    or a block of samples of one size, which gives a tuple of them. The
    block's responses, and the truth's values at each sample's design
    points when ``signal_values`` gives them (an array per sample), are
    stacked into one block pyramid; each sample's collection reads its
    rows. Raises ``ValueError`` when one pyramid cannot fit the
    collection on the sample size.
    """
    if isinstance(samples, RegressionSample):
        truths = None if signal_values is None else (signal_values,)
        return fit_collection((samples,), collection, truths)[0]
    samples = tuple(samples)
    truths = () if signal_values is None else tuple(signal_values)
    if truths and len(truths) != len(samples):
        raise ValueError(f"{len(truths)} signal value arrays for {len(samples)} samples")
    block = _analyze(np.stack([*(s.y for s in samples), *truths]), collection)
    r = len(samples)
    risks = block[:r].risks(collection.dims)
    return tuple(FittedCollection(collection, block[i], risks[i],
                                  block[r + i] if truths else None)
                 for i in range(r))


def in_sample_losses(fits: FittedCollection) -> np.ndarray:
    """Per-model loss (1/n) sum_i (s_hat_m(x_i) - s*(x_i))^2 at the design points.

    This is the oracle's loss: the sample estimate of the L2(P^X) loss,
    for a collection that :func:`fit_collection` fitted with the truth's
    values. The sample's pyramid splits it by Parseval into the noise
    energy a model keeps plus the signal energy it drops, and reads the
    truth's coefficients from its row of the same block pyramid.
    """
    if fits.signal is None:
        raise ValueError("the in-sample loss needs the collection fitted with the signal values")
    n = len(fits.pyramid.coeffs)
    cum_noise = np.cumsum((fits.pyramid.coeffs - fits.signal.coeffs) ** 2)
    cum_signal = fits.signal.csum
    dims = fits.collection.dims
    return (cum_noise[dims - 1] + (cum_signal[-1] - cum_signal[dims - 1])) / n


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

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


def _fold_fits(samples, collection: ModelCollection, tr: np.ndarray,
               held: np.ndarray) -> list:
    """The :class:`FoldFit` of each sample on one fold, from one analysis
    and one prefix synthesis of the block's training responses. The fitted
    values live only for the call, so one fold's are freed before the next
    fold's synthesis (the bench sizes its blocks by that peak)."""
    block = _analyze(np.stack([s.y[tr] for s in samples]), collection)
    k = np.searchsorted(tr, held) - 1
    risks = block.risks(collection.dims)
    fitted = block.fitted(collection.dims)
    return [FoldFit(r, _heldout_risks(f, s.x[tr], s.x[held], s.y[held], k))
            for s, r, f in zip(samples, risks, fitted)]


def fold_fitted(samples, collection: ModelCollection) -> tuple:
    """Per-fold training and held-out risks of every model (shared by
    2FCV and pen2F): one tuple of :class:`FoldFit` (one per fold) for
    each sample of a block of samples of one size.

    The folds are the even/odd split of the rank-ordered sample: fold j
    fits on ranks j, j + 2, ... (0-based) and holds out the others. A
    fold fit is the full-sample estimator on the training half: each fold
    analyses the whole block's training responses in one pyramid call, as
    :func:`fit_collection` does for the whole sample, and synthesizes
    every model of every sample in another. A fold fit predicts off its
    training points by linear interpolation in x between its fitted
    values, with constant extrapolation at the boundary. Since x strictly
    increases, a held-out point's bracket of training points is fixed by
    the ranks alone, once per fold for every sample.
    """
    samples = tuple(samples)
    n = samples[0].n
    return tuple(zip(*(_fold_fits(samples, collection, np.arange(j, n, 2),
                                  np.arange(1 - j, n, 2))
                       for j in (0, 1))))


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


def oracle_select(fits: FittedCollection) -> SelectionOutcome:
    """Minimize the in-sample loss of :func:`in_sample_losses` over the
    collection, which ``fits`` was fitted on with the truth's values."""
    losses = in_sample_losses(fits)
    dims = fits.collection.dims
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


def select_sh(fits: FittedCollection,
              shape: Optional[np.ndarray] = None) -> SelectionOutcome:
    """Slope heuristics: pen(m) = 2 alpha_min_hat * D_m / n via the dimension jump."""
    if len(fits.collection) < 3:
        raise ValueError("slope heuristics needs at least 3 fitted models")
    dims = fits.collection.dims
    shape = dims / len(fits.pyramid.coeffs) if shape is None else np.asarray(shape, dtype=float)
    path = penalty_path(shape, fits.emp_risks, dims)
    alpha_min, jumps, no_jump = dimension_jump(path)
    penalties = 2.0 * alpha_min * shape
    return _outcome("sh", dims, fits.emp_risks, penalties, {
        "alpha_min": alpha_min,
        "jumps": jumps,
        "no_jump": no_jump,
        "path": [(s.alpha_lo, s.alpha_hi, s.dim) for s in path.segments],
    })


def select_cp(fits: FittedCollection) -> SelectionOutcome:
    """Mallows' Cp: pen(m) = 2 sigma2_hat D_m / n with the saturated-model
    variance estimator sigma2_hat = d^2(Y, m_{n/2}) / (n - n/2)."""
    dims = fits.collection.dims
    n = len(fits.pyramid.coeffs)
    if dims.max() != n // 2:
        raise ValueError("Cp needs the saturated model of dimension n/2 in the collection")
    largest = int(np.argmax(dims))
    sigma2 = fits.emp_risks[largest] * n / (n - n // 2)
    penalties = 2.0 * sigma2 * dims / n
    return _outcome("cp", dims, fits.emp_risks, penalties, {"sigma2": float(sigma2)})


def select_vfcv(fits: FittedCollection, fold_fits: tuple) -> SelectionOutcome:
    """V-fold cross-validation at V = 2 (2FCV): the mean over the two
    folds of :func:`fold_fitted` of the held-out risks."""
    per_fold = np.array([fold.heldout_risks for fold in fold_fits])
    crit = per_fold.mean(axis=0)
    penalties = crit - fits.emp_risks  # implied penalty, for the trace
    return _outcome("vfcv", fits.collection.dims, fits.emp_risks, penalties,
                    {"per_fold_risks": per_fold})


def select_penvf(fits: FittedCollection, fold_fits: tuple) -> SelectionOutcome:
    """V-fold penalization at V = 2 (pen2F): empirical risk plus the
    resampled ideal penalty
    pen_VF(m) = (V-1)/V sum_j [P_n gamma(s_m^(-j)) - P_n^(-j) gamma(s_m^(-j))].

    The terms come from the fold risks of :func:`fold_fitted`: the
    held-out risk CV_j on the n_h = n/2 held-out points and the training
    risk R_j on the n/2 training points. The even and odd halves
    partition the sample, and the fold fit reproduces its training values
    exactly at the knots, so its full-sample risk is
    P_n gamma(s_m^(-j)) = (CV_j + R_j) / 2, and

        pen_VF(m) = (V-1)/V sum_j (n_h / n) (CV_j(m) - R_j(m))
                  = 1/2 sum_j 1/2 (CV_j(m) - R_j(m)).

    2FCV minimizes mean_j CV_j over the same quantities.
    """
    terms = 0.5 * np.array([fold.heldout_risks - fold.train_risks for fold in fold_fits])
    pen = 0.5 * terms.sum(axis=0)
    return _outcome("penvf", fits.collection.dims, fits.emp_risks, pen,
                    {"per_fold_terms": terms})


FOLD_METHODS = ("vfcv", "penvf")


def select_methods(samples, collection: ModelCollection, methods,
                   signal_values=None) -> list:
    """Run the named methods on a block of samples of one size: one
    {method: outcome} dict per sample, in the order asked.

    Methods are "oracle" (needs ``signal_values``, the truth's values at
    each sample's design points), "sh", "cp", "vfcv" and "penvf". The
    block's collection is fitted once, and its even/odd fold fits are
    built once, only when a fold method is asked; the selectors then run
    per sample on its fitted collection.
    """
    samples = tuple(samples)
    fits = fit_collection(samples, collection, signal_values)
    fold_fits = (fold_fitted(samples, collection) if any(m in FOLD_METHODS for m in methods)
                 else (None,) * len(samples))
    out = []
    for sample_fits, sample_folds in zip(fits, fold_fits):
        outcomes = {}
        for method in methods:
            if method == "oracle":
                outcomes[method] = oracle_select(sample_fits)
            elif method == "sh":
                outcomes[method] = select_sh(sample_fits)
            elif method == "cp":
                outcomes[method] = select_cp(sample_fits)
            elif method == "vfcv":
                outcomes[method] = select_vfcv(sample_fits, sample_folds)
            elif method == "penvf":
                outcomes[method] = select_penvf(sample_fits, sample_folds)
            else:
                raise ValueError(f"unknown method {method!r}")
        out.append(outcomes)
    return out
