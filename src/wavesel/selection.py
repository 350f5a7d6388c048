"""Model-selection procedures: oracle, slope heuristics, Cp, 2FCV, pen2F.

All selectors minimize a per-model criterion over a shared collection and
break ties toward the smaller dimension. The slope heuristics calibrates
its penalty level from the exact breakpoint path of
alpha -> argmin_m {risk_m + alpha * shape_m}, read off the level
interval on which each model is the argmin, for a whole block at once,
and places the minimal level at the breakpoint with the largest drop in
selected dimension (ties going to the largest alpha).

Every selector reads one :class:`FittedCollection`, and 2FCV and pen2F
also its fold fits, for one sample or a block of samples of one size: a
block's risks and criteria are ``(R, models)`` arrays, and each selector
runs once per block. Every fit, of the whole sample and of each even/odd
training half (the two folds, derived from the sample's ranks), reads the
nested pyramid of its responses, so a collection is a nested wavelet
collection on a dyadic n.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import bases
from .estimator import FitResult, NestedPyramid, pyramid_filter

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
    """The fit of the collection to one sample or to a block of them: the
    pyramid of the responses, the ``(..., models)`` empirical risks and,
    when fitted with the truth's values, the truth's pyramid. ``fits[i]``
    is row i's record."""
    collection: ModelCollection
    pyramid: NestedPyramid
    emp_risks: np.ndarray
    signal: Optional[NestedPyramid] = None

    def __getitem__(self, index) -> "FittedCollection":
        return FittedCollection(self.collection, self.pyramid[index], self.emp_risks[index],
                                None if self.signal is None else self.signal[index])

    @property
    def fits(self) -> tuple:
        """The :class:`FitResult` of each model of one sample's fit."""
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


def fit_collection(samples, collection: ModelCollection, signal_values=None) -> FittedCollection:
    """Fit every model of a nested wavelet collection from one block pyramid.

    ``samples`` is one sample, which gives its :class:`FittedCollection`,
    or a block of samples of one size (a :class:`signals.SampleBlock`),
    whose ``(R, n)`` responses give one collection whose arrays lead with
    the block axis. With ``signal_values``, the truth's values at the
    design points in the shape of the responses, the responses and the
    truth's values are analysed as one block pyramid. Raises
    ``ValueError`` when one pyramid cannot fit the collection on the
    sample size.
    """
    if signal_values is None:
        pyramid = _analyze(samples.y, collection)
        return FittedCollection(collection, pyramid, pyramid.risks(collection.dims))
    block = _analyze(np.stack([samples.y, signal_values]), collection)
    return FittedCollection(collection, block[0], block[0].risks(collection.dims), block[1])


def in_sample_losses(fits: FittedCollection) -> np.ndarray:
    """``(..., models)`` loss (1/n) sum_i (s_hat_m(x_i) - s*(x_i))^2 at the
    design points.

    This is the oracle's loss: the sample estimate of the L2(P^X) loss,
    for a collection that :func:`fit_collection` fitted with the truth's
    values. The sample's pyramid splits it by Parseval into the noise
    energy a model keeps plus the signal energy it drops, and reads the
    truth's coefficients from its row of the same block pyramid.
    """
    if fits.signal is None:
        raise ValueError("the in-sample loss needs the collection fitted with the signal values")
    n = fits.pyramid.coeffs.shape[-1]
    cum_noise = np.cumsum((fits.pyramid.coeffs - fits.signal.coeffs) ** 2, axis=-1)
    cum_signal = fits.signal.csum
    dims = fits.collection.dims
    return (cum_noise[..., dims - 1] + (cum_signal[..., -1:] - cum_signal[..., dims - 1])) / n


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldFit:
    """One fold's per-model risks, with the collection's ``(..., models)``
    shape."""
    train_risks: np.ndarray    # R_j: per-model risk on the training half
    heldout_risks: np.ndarray  # CV_j: per-model risk on the held-out half


def _fold_fit(x: np.ndarray, y: np.ndarray, collection: ModelCollection, j: int) -> FoldFit:
    """Fold j's :class:`FoldFit` of the designs and responses ``(..., n)``,
    from one analysis and one prefix synthesis of the training responses.
    Each fit f predicts as ``np.interp(x_h, x_t, f)`` does, in its
    operation order: held-out point i lies in training bracket k = i - j,
    so f[k] and f[k + 1] are slices of the fitted values, and the one point
    outside, the first of fold 1 or the last of fold 0, takes f[0] or
    f[-1]. Each row's mean runs along the last, C-ordered axis, so it sums
    as one vector's does. The fitted values live only for the call.
    """
    train, held = slice(j, None, 2), slice(1 - j, None, 2)
    pyramid = _analyze(y[..., train], collection)
    f = pyramid.fitted(collection.dims)
    x_t, x_h = x[..., None, train], x[..., None, held]
    lo, hi = j, x_h.shape[-1] - 1 + j  # the held-out points inside a bracket
    pred = np.empty(f.shape)  # n/2 held-out points, as many as training ones
    inner = pred[..., lo:hi]
    np.subtract(f[..., 1:], f[..., :-1], out=inner)
    inner /= x_t[..., 1:] - x_t[..., :-1]
    inner *= x_h[..., lo:hi] - x_t[..., :-1]
    inner += f[..., :-1]
    pred[..., :lo] = f[..., :1]
    pred[..., hi:] = f[..., -1:]
    pred -= y[..., None, held]
    np.square(pred, out=pred)
    return FoldFit(pyramid.risks(collection.dims), pred.mean(axis=-1))


def fold_fitted(samples, collection: ModelCollection) -> tuple:
    """Per-fold training and held-out risks of every model (shared by
    2FCV and pen2F): one :class:`FoldFit` per fold, of one sample, or of a
    block of samples of one size with ``(R, models)`` arrays.

    The folds are the even/odd split of the rank-ordered sample: fold j
    fits on ranks j, j + 2, ... (0-based) and holds out the others. A
    fold fit is the full-sample estimator on the training half; off its
    training points it interpolates linearly in x between its fitted
    values, with constant extrapolation at the boundary.
    """
    return tuple(_fold_fit(samples.x, samples.y, collection, j) for j in (0, 1))


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


def _paths(shapes: np.ndarray, risks: np.ndarray, dims: np.ndarray) -> list:
    """The :class:`PenaltyPath` of each row of ``(R, models)`` risks, read
    off each model's level interval ``[lo, hi)`` of alpha >= 0, on which it
    is the argmin of risk + alpha * shape (ties to the smaller model); a
    model never chosen has an empty interval (``lo >= hi``).

    With slope[k, j] = (r_k - r_j) / (s_j - s_k), where k and j tie, k
    beats each larger-shape j from max(0, slope) on and each smaller-shape
    j below slope; at equal shape it loses to a smaller risk, then to a
    smaller dim. Raises ``ValueError`` unless the dims strictly increase
    with nondecreasing shapes, and the shapes and risks are finite."""
    if np.any(np.diff(dims) <= 0) or np.any(np.diff(shapes) < 0):
        raise ValueError("a path needs strictly increasing dims with nondecreasing shapes")
    if not (np.all(np.isfinite(shapes)) and np.all(np.isfinite(risks))):
        raise ValueError("a path needs finite shapes and risks")
    ds = shapes - shapes[:, None]                   # [k, j]: s_j - s_k
    dr = risks[..., :, None] - risks[..., None, :]  # [k, j]: r_k - r_j
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = dr / ds
    beaten = (ds == 0) & ((dr > 0) | ((dr == 0) & np.tri(len(shapes), k=-1, dtype=bool)))
    lo = np.where(ds > 0, slope, 0.0).max(axis=-1)
    hi = np.where(ds < 0, slope, np.where(beaten, -np.inf, np.inf)).min(axis=-1)
    rows, dim = risks.tolist(), dims.tolist()  # Python scalars for the segments
    paths = []
    for i, (row_lo, row_hi) in enumerate(zip(lo.tolist(), hi.tolist())):
        on = [k for k, (a, b) in enumerate(zip(row_lo, row_hi)) if a < b]
        # each segment reaches down to the next one's hi, so that rounded
        # slopes of near-collinear models cannot leave a gap in the path
        ends = [row_hi[k] for k in on[1:]] + [row_lo[on[-1]]]
        segments = tuple(PathSegment(end, row_hi[k], k, dim[k], rows[i][k])
                         for end, k in zip(ends, on))
        paths.append(PenaltyPath(segments, shapes, risks[i], dims))
    return paths


def penalty_path(shapes, risks, dims) -> PenaltyPath:
    """Breakpoint path of the penalized argmin, from each model's level
    interval. Raises ``ValueError`` unless the dims strictly increase with
    nondecreasing shapes, as ``dims / n`` do, and the risks are finite."""
    shapes = np.asarray(shapes, dtype=float)
    risks = np.asarray(risks, dtype=float)
    dims = np.asarray(dims, dtype=int)
    if len(shapes) < 2:
        raise ValueError("need at least two models for a path")
    return _paths(shapes, risks[None], dims)[0]


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
    """One method's choice for one sample, or for each row of a block.

    ``emp_risks``, ``penalties`` and ``criteria`` have the collection's
    ``(..., models)`` shape. ``chosen_index`` minimizes each row's
    criterion, ties going to the smaller dimension and NaN sorting last.
    ``outcome[i]`` is row i's outcome.
    """
    method: str
    dims: np.ndarray
    emp_risks: np.ndarray
    penalties: np.ndarray
    criteria: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def chosen_index(self):
        dims = np.broadcast_to(self.dims, self.criteria.shape)
        return np.lexsort((dims, self.criteria), axis=-1)[..., 0][()]

    @property
    def chosen_dim(self):
        return self.dims[self.chosen_index]

    def __getitem__(self, index) -> "SelectionOutcome":
        return SelectionOutcome(self.method, self.dims, self.emp_risks[index],
                                self.penalties[index], self.criteria[index],
                                {k: v[index] for k, v in self.diagnostics.items()})

    @property
    def trace(self) -> tuple:
        """One :class:`TraceEntry` per model, of one sample's outcome."""
        return tuple(TraceEntry(int(d), float(r), float(p), float(c)) for d, r, p, c in
                     zip(self.dims, self.emp_risks, self.penalties, self.criteria))

    def to_dict(self) -> dict:
        return {
            "schema_version": 2,  # 2: the oracle's criterion is the in-sample loss
            "kind": "selection_outcome",
            "method": self.method,
            "chosen_dim": int(self.chosen_dim),
            "trace": [asdict(t) for t in self.trace],
            "diagnostics": _jsonable(self.diagnostics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj.tolist() if isinstance(obj, (np.ndarray, np.generic)) else obj


def _penalized(method: str, fits: FittedCollection, penalties: np.ndarray,
               diagnostics: dict) -> SelectionOutcome:
    return SelectionOutcome(method, fits.collection.dims, fits.emp_risks, penalties,
                            fits.emp_risks + penalties, diagnostics)


def oracle_select(fits: FittedCollection) -> SelectionOutcome:
    """Minimize the in-sample loss of :func:`in_sample_losses` over the
    collection, which ``fits`` was fitted on with the truth's values."""
    losses = in_sample_losses(fits)
    return SelectionOutcome("oracle", fits.collection.dims, fits.emp_risks,
                            np.zeros_like(losses), losses, {"losses": losses})


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
    """Slope heuristics: pen(m) = 2 alpha_min_hat * D_m / n via the
    dimension jump of each row's penalty path, from the block's level
    intervals. A block's diagnostics hold one entry per row; a path segment
    is (alpha_lo, alpha_hi, dim), alpha_hi None for the unbounded first."""
    if len(fits.collection) < 3:
        raise ValueError("slope heuristics needs at least 3 fitted models")
    if fits.emp_risks.ndim == 1:  # one sample: the row of a block of one
        return select_sh(fits[None], shape)[0]
    dims = fits.collection.dims
    n = fits.pyramid.coeffs.shape[-1]
    shape = dims / n if shape is None else np.asarray(shape, dtype=float)
    paths = _paths(shape, fits.emp_risks, dims)
    alpha_min, jumps, no_jump = map(list, zip(*map(dimension_jump, paths)))
    penalties = 2.0 * np.array(alpha_min)[:, None] * shape
    return _penalized("sh", fits, penalties, {
        "alpha_min": alpha_min,
        "jumps": jumps,
        "no_jump": no_jump,
        "path": [[(s.alpha_lo, None if s.alpha_hi == np.inf else s.alpha_hi, s.dim)
                  for s in path.segments] for path in paths],
    })


def select_cp(fits: FittedCollection) -> SelectionOutcome:
    """Mallows' Cp: pen(m) = 2 sigma2_hat D_m / n with the saturated-model
    variance estimator sigma2_hat = d^2(Y, m_{n/2}) / (n - n/2)."""
    dims = fits.collection.dims
    n = fits.pyramid.coeffs.shape[-1]
    if dims.max() != n // 2:
        raise ValueError("Cp needs the saturated model of dimension n/2 in the collection")
    sigma2 = np.take(fits.emp_risks, np.argmax(dims), axis=-1) * n / (n - n // 2)
    penalties = 2.0 * np.expand_dims(sigma2, -1) * dims / n
    return _penalized("cp", fits, penalties, {"sigma2": sigma2})


def _per_fold(fits: FittedCollection, fold_fits: tuple, term) -> np.ndarray:
    """``term(fold)`` of each fold, stacked on axis -2 into ``(..., folds,
    models)``. Raises ``ValueError`` for fold fits whose shape is not the
    collection's, such as a block's folds given with one sample's fits."""
    shapes = {np.shape(r) for fold in fold_fits for r in (fold.train_risks, fold.heldout_risks)}
    if shapes != {fits.emp_risks.shape}:
        raise ValueError(f"fold risks of shape {sorted(shapes)} for a fitted collection "
                         f"of shape {fits.emp_risks.shape}")
    return np.stack([term(fold) for fold in fold_fits], axis=-2)


def select_vfcv(fits: FittedCollection, fold_fits: tuple) -> SelectionOutcome:
    """V-fold cross-validation at V = 2 (2FCV): the mean over the two
    folds of :func:`fold_fitted` of the held-out risks."""
    per_fold = _per_fold(fits, fold_fits, lambda fold: fold.heldout_risks)
    penalties = per_fold.mean(axis=-2) - fits.emp_risks  # implied penalty, for the trace
    return _penalized("vfcv", fits, penalties, {"per_fold_risks": per_fold})


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
    terms = 0.5 * _per_fold(fits, fold_fits, lambda fold: fold.heldout_risks - fold.train_risks)
    return _penalized("penvf", fits, 0.5 * terms.sum(axis=-2), {"per_fold_terms": terms})


FOLD_METHODS = ("vfcv", "penvf")


def select_methods(samples, collection: ModelCollection, methods,
                   signal_values=None) -> dict:
    """Run the named methods on one sample, or on a block of samples of one
    size (a :class:`signals.SampleBlock`): {method: outcome} in the order
    asked, where a block's outcome holds a row per sample.

    Methods are "oracle" (needs ``signal_values``, the truth's values at
    the design points as :func:`fit_collection` takes them), "sh", "cp",
    "vfcv" and "penvf". The collection is fitted once, its even/odd fold
    fits are built once, only when a fold method is asked, and each
    selector runs once on the whole block.
    """
    # each entry reads fits and fold_fits, bound below once the names are checked
    selectors = {"oracle": lambda: oracle_select(fits),
                 "sh": lambda: select_sh(fits),
                 "cp": lambda: select_cp(fits),
                 "vfcv": lambda: select_vfcv(fits, fold_fits),
                 "penvf": lambda: select_penvf(fits, fold_fits)}
    unknown = [m for m in methods if m not in selectors]
    if unknown:
        raise ValueError(f"unknown method {unknown[0]!r}")
    fits = fit_collection(samples, collection, signal_values)
    fold_fits = (fold_fitted(samples, collection) if any(m in FOLD_METHODS for m in methods)
                 else None)
    return {method: selectors[method]() for method in methods}
