"""Kernel mean and variance function estimation with bandwidth selection.

The mean function is a Nadaraya-Watson smooth of the responses. The
variance function is estimated either by smoothing squared residuals
(residual method) or by smoothing squared responses and subtracting the
squared mean estimate (direct method). Bandwidths come from leave-one-out
cross-validation over a quantile-based candidate grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np
from scipy.spatial.distance import squareform

from . import _blocks
from .curves import Curve, CurveSet
from .kernels import POLICY_FALLBACK, WEIGHT_POLICIES, _nearest, kernel_power, weight_matrix
from .semimetric import (
    SemiMetricSpec,
    feature_matrix,
    feature_weights,
    pairwise_from_features,
    train_projection,
)

SELF_INCLUSION_MODES = ("include_self", "leave_one_out")
VARIANCE_METHODS = ("residual", "direct")


class BandwidthSelectionError(RuntimeError):
    """Every cross-validation candidate was disqualified."""


class Prediction(NamedTuple):
    value: float
    fallback: bool
    clipped: bool = False


class TrainedMetric:
    """Training curves under one trained semi-metric.

    An untrained projection spec is trained on ``train`` when the spec or
    the features are first needed, so given distances never train it. The
    features, the self-distance matrix, each default bandwidth grid and the
    :class:`PairBins` of each (kernel, candidate grid) are computed once, on
    first use; ``dist`` may supply the n x n self-distance matrix instead.
    """

    # plain lazy attributes rather than functools.cached_property, whose
    # lock (Python < 3.12) is shared by all instances and would serialize
    # replications running in threads
    def __init__(self, spec: SemiMetricSpec, train: CurveSet, dist=None):
        if dist is not None:
            dist = np.asarray(dist, dtype=float)
            if dist.shape != (len(train), len(train)):
                raise ValueError("expected the self-distance matrix of the training curves")
            # the kernel is zero below 0, but PairBins counts d < h as a neighbor
            if not (np.isfinite(dist).all() and (dist >= 0).all()):
                raise ValueError("given distances must be finite and nonnegative")
        self._spec = spec
        self.train = train
        self._features = None
        self._dist = dist
        self._grids: dict[int, np.ndarray] = {}
        self._bins: dict[tuple, PairBins] = {}

    @classmethod
    def of(cls, spec: SemiMetricSpec | TrainedMetric, train: CurveSet,
           near: Iterable[TrainedMetric] = ()) -> TrainedMetric:
        """The metric an estimator on ``train`` runs on.

        A TrainedMetric ``spec`` is that metric and must be on the curves
        ``train`` (ValueError otherwise). A plain spec runs on the first of
        the metrics ``near``, already built on the same curves, that
        :meth:`runs` it, else on a new metric.
        """
        if isinstance(spec, TrainedMetric):
            if spec.train is not train and not (
                spec.train.grid == train.grid
                and np.array_equal(spec.train.values, train.values)
            ):
                raise ValueError("the TrainedMetric is on other training curves")
            return spec
        return next((m for m in near if m.runs(spec)), None) or cls(spec, train)

    @property
    def spec(self) -> SemiMetricSpec:
        if not self._spec.trained:
            self._spec = train_projection(self._spec, self.train)
        return self._spec

    @property
    def weights(self) -> np.ndarray:
        """Per-feature weights of the distances; not built up front, since
        given distances never need them."""
        return feature_weights(self._spec, self.train.grid)

    @property
    def features(self) -> np.ndarray:
        if self._features is None:
            self._features = feature_matrix(self.spec, self.train)
        return self._features

    @property
    def dist(self) -> np.ndarray:
        """Distances between every pair of training curves."""
        if self._dist is None:
            f = self.features
            self._dist = pairwise_from_features(f, f, self.weights)
        return self._dist

    def grid(self, size: int) -> np.ndarray:
        """:func:`default_bandwidth_grid` of the self-distances."""
        if size not in self._grids:
            self._grids[size] = default_bandwidth_grid(self.dist, size)
        return self._grids[size]

    def pair_bins(self, kernel: str, hs: np.ndarray) -> PairBins:
        """:class:`PairBins` of the self-distances over the sorted ``hs``."""
        key = (kernel, hs.tobytes())
        if key not in self._bins:
            self._bins[key] = PairBins(self.dist, hs, kernel)
        return self._bins[key]

    def cross(self, xs: CurveSet) -> np.ndarray:
        """Distances from each curve of ``xs`` (rows) to each training curve."""
        if xs.grid != self.train.grid:
            raise ValueError("prediction curves are not on the training grid")
        fx = feature_matrix(self.spec, xs)
        return pairwise_from_features(fx, self.features, self.weights)

    def runs(self, spec: SemiMetricSpec) -> bool:
        """Whether ``spec``, trained on these curves if it is not yet, is this
        metric's spec. Spec equality ignores a projection's basis, so the
        basis is compared as well."""
        if spec != self._spec:
            return False
        spec = spec if spec.trained else train_projection(spec, self.train)
        return spec.basis is None or np.array_equal(spec.basis, self.spec.basis)


def _check_smoother(kernel: str, policy: str, *bandwidths: float) -> None:
    """Refuse a fit's kernel, policy or bandwidths before it is frozen."""
    kernel_power(kernel)
    if policy not in WEIGHT_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    try:
        finite = all(0 < h and float(h) < np.inf for h in bandwidths)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError("bandwidth must be positive and finite")


def _check_variance(self_inclusion: str, *methods: str) -> None:
    """Refuse an unknown self-inclusion mode or variance method."""
    if self_inclusion not in SELF_INCLUSION_MODES:
        raise ValueError(f"unknown self-inclusion mode {self_inclusion!r}")
    bad = [m for m in methods if m not in VARIANCE_METHODS]
    if bad:
        raise ValueError(f"unknown variance methods {bad}")


def _smooth(
    fit, dist: np.ndarray, values: np.ndarray, exclude_diag: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel smooth of ``values`` at the points whose distances to the
    training curves are the rows of ``dist``: (estimates, fallback mask)."""
    return weight_matrix(dist, fit.bandwidth, fit.kernel, fit.policy, exclude_diag,
                         values=values)


@dataclass(frozen=True)
class MeanFit:
    """Frozen state of a fitted mean function."""

    metric: TrainedMetric = field(repr=False)
    y: np.ndarray
    kernel: str
    bandwidth: float
    policy: str
    _fitted: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def train(self) -> CurveSet:
        return self.metric.train

    @property
    def spec(self) -> SemiMetricSpec:
        return self.metric.spec

    def fitted(self) -> tuple[np.ndarray, np.ndarray]:
        """In-sample fitted means (values, fallback mask), each point's own
        observation included; computed once per fit."""
        if self._fitted is None:
            object.__setattr__(self, "_fitted", _smooth(self, self.metric.dist, self.y))
        return self._fitted


def fit_mean(
    train: CurveSet,
    y,
    spec: SemiMetricSpec | TrainedMetric,
    kernel: str = "quadratic",
    bandwidth: float = 1.0,
    policy: str = POLICY_FALLBACK,
) -> MeanFit:
    """Freeze a Nadaraya-Watson mean fit.

    ``spec`` gives the metric as :meth:`TrainedMetric.of` does: a
    :class:`TrainedMetric` on ``train``, whose cached features and
    distances the fit then shares (e.g. with bandwidth selection), or a
    plain spec.
    """
    y = np.asarray(y, dtype=float)
    n = len(train)
    if y.shape != (n,):
        raise ValueError(f"{y.shape} responses for {n} curves")
    if n < 2:
        raise ValueError("need at least 2 training curves")
    if not np.all(np.isfinite(y)):
        raise ValueError("responses must be finite")
    _check_smoother(kernel, policy, bandwidth)
    return MeanFit(TrainedMetric.of(spec, train), y, kernel, float(bandwidth), policy)


def predict_mean(fit: MeanFit, x: Curve) -> Prediction:
    """Kernel-weighted mean of the training responses at x."""
    m, fb = predict_mean_set(fit, CurveSet.from_curves([x]))
    return Prediction(float(m[0]), bool(fb[0]))


def predict_mean_set(
    fit: MeanFit, xs: CurveSet, dist: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Batched mean predictions; returns (values, fallback mask).

    ``dist`` may pass in the distances from ``xs`` to the training curves
    under the fit's metric, e.g. shared with a variance fit on that metric.
    """
    if dist is None:
        dist = fit.metric.cross(xs)
    return _smooth(fit, dist, fit.y)


def smoother_matrix(fit: MeanFit) -> np.ndarray:
    """In-sample weight matrix: row i smooths the responses at curve i.

    Each row includes the point's own observation (the self distance is
    zero, so it gets the largest kernel weight); rows sum to one.
    """
    w, _ = weight_matrix(fit.metric.dist, fit.bandwidth, fit.kernel, fit.policy)
    return w


def squared_residuals(
    fit: MeanFit, self_inclusion: str = "include_self"
) -> tuple[np.ndarray, np.ndarray]:
    """Squared in-sample residuals (y_i - fitted_i)^2.

    ``leave_one_out`` removes each point's own weight before smoothing; a
    row left with no in-range neighbor falls back per the fit's policy and
    is flagged in the returned mask.
    """
    _check_variance(self_inclusion)
    if self_inclusion == "leave_one_out":
        fitted, fb = _smooth(fit, fit.metric.dist, fit.y, exclude_diag=True)
    else:
        fitted, fb = fit.fitted()
    return (fit.y - fitted) ** 2, fb.copy()


@dataclass(frozen=True)
class VarianceFit:
    """Frozen state of a fitted variance function.

    ``pseudo`` holds the smoothed responses: squared residuals for the
    residual method, squared responses for the direct method.
    """

    method: str
    mean_fit: MeanFit
    metric: TrainedMetric = field(repr=False)
    kernel: str
    bandwidth: float
    policy: str
    self_inclusion: str
    pseudo: np.ndarray = field(repr=False)

    @property
    def spec(self) -> SemiMetricSpec:
        return self.metric.spec


def fit_variance(
    method: str,
    mean_fit: MeanFit,
    spec: SemiMetricSpec | TrainedMetric,
    kernel: str | None = None,
    bandwidth: float = 1.0,
    self_inclusion: str = "include_self",
    policy: str | None = None,
    pseudo_responses=None,
) -> VarianceFit:
    """Freeze a variance fit on top of a mean fit.

    Pseudo-responses default to squared residuals of ``mean_fit``
    (residual method) or squared responses (direct method);
    ``pseudo_responses`` overrides them, e.g. with squared errors around a
    known mean function. ``spec`` gives the metric as
    :meth:`TrainedMetric.of` does; a plain ``spec`` that the mean fit's
    metric :meth:`~TrainedMetric.runs` shares that metric.
    """
    _check_variance(self_inclusion, method)
    kernel = mean_fit.kernel if kernel is None else kernel
    policy = mean_fit.policy if policy is None else policy
    _check_smoother(kernel, policy, bandwidth)
    # before the squared residuals, an O(n^2) smooth, so a refused metric costs nothing
    metric = TrainedMetric.of(spec, mean_fit.train, near=(mean_fit.metric,))
    pseudo = np.asarray(
        pseudo_responses if pseudo_responses is not None
        else squared_residuals(mean_fit, self_inclusion)[0] if method == "residual"
        else mean_fit.y**2, dtype=float)
    if pseudo.shape != mean_fit.y.shape:
        raise ValueError("pseudo-responses must align with the responses")
    if not np.all(np.isfinite(pseudo)):
        raise ValueError("pseudo-responses must be finite")
    if method == "residual" and np.any(pseudo < 0):
        raise ValueError("residual pseudo-responses must be nonnegative")
    return VarianceFit(method, mean_fit, metric, kernel, float(bandwidth), policy,
                       self_inclusion, pseudo)


def predict_variance(fit: VarianceFit, x: Curve) -> Prediction:
    """Variance estimate at x; nonnegative by construction.

    The direct method clips negative values of the smoothed squared
    responses minus the squared mean estimate at zero and flags the clip.
    """
    v, fb, clip = predict_variance_set(fit, CurveSet.from_curves([x]))
    return Prediction(float(v[0]), bool(fb[0]), bool(clip[0]))


def predict_variance_set(
    fit: VarianceFit,
    xs: CurveSet,
    mean: tuple | None = None,
    dist: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched variance predictions: (values, fallback mask, clip mask).

    ``mean`` may pass in the mean predictions (values, fallback mask) at
    ``xs`` that the caller already has, so the direct method does not
    compute them again; ``dist`` the distances from ``xs`` to the training
    curves under the variance metric. Either is computed when not given.
    """
    if dist is None:
        dist = fit.metric.cross(xs)
    smooth, fb = _smooth(fit, dist, fit.pseudo)
    if fit.method == "residual":
        return smooth, fb, np.zeros(len(smooth), dtype=bool)
    m, fb_m = predict_mean_set(fit.mean_fit, xs) if mean is None else mean
    raw = smooth - m * m
    return np.maximum(raw, 0.0), fb | fb_m, raw < 0.0


def predict_variance_insample(
    fit: VarianceFit,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`predict_variance_set` at the training curves, from cached
    distances and in-sample fitted means."""
    return predict_variance_set(
        fit, fit.mean_fit.train, fit.mean_fit.fitted() if fit.method == "direct" else None,
        fit.metric.dist)


@dataclass(frozen=True)
class CvResult:
    """Leave-one-out cross-validation scores over a bandwidth grid."""

    bandwidth: float
    candidates: np.ndarray
    scores: np.ndarray
    fallback_rates: np.ndarray
    qualified: np.ndarray

    def to_table(self) -> list[dict]:
        return [
            {
                "bandwidth": float(h),
                "score": float(s),
                "fallback_rate": float(r),
                "qualified": bool(q),
            }
            for h, s, r, q in zip(
                self.candidates, self.scores, self.fallback_rates, self.qualified
            )
        ]


def cv_bandwidth(
    train: CurveSet,
    responses,
    spec: SemiMetricSpec | TrainedMetric,
    kernel: str,
    candidates,
    fallback_threshold: float = 0.1,
) -> CvResult:
    """Pick a bandwidth by leave-one-out cross-validation.

    Each candidate's score is the sum of squared errors when predicting
    every response from all other points. Candidates whose nearest-neighbor
    fallback rate exceeds ``fallback_threshold`` are disqualified; the
    winner is the qualified candidate with the smallest score (smallest
    bandwidth on ties). ``spec`` gives the metric as
    :meth:`TrainedMetric.of` does; a :class:`TrainedMetric`'s cached
    :class:`PairBins` are reused.
    """
    resp = np.asarray(responses, dtype=float)
    cand = np.asarray(candidates, dtype=float)
    if cand.ndim != 1 or cand.size < 1:
        raise ValueError("candidate grid must be a nonempty 1-D sequence")
    if not np.all(cand > 0):
        raise ValueError("bandwidth candidates must be positive")
    if resp.shape != (len(train),):
        raise ValueError("responses must align with the training curves")
    if not np.all(np.isfinite(resp)):
        raise ValueError("responses must be finite")
    by_h = np.argsort(cand, kind="stable")
    hs = cand[by_h]
    bins = TrainedMetric.of(spec, train).pair_bins(kernel, hs)
    err = resp[:, None] - bins.loo_fits(resp)
    scores = np.empty(cand.size)
    fb_rates = np.empty(cand.size)
    scores[by_h] = np.einsum("ij,ij->j", err, err)
    fb_rates[by_h] = bins.fallback_rates
    qualified = fb_rates <= fallback_threshold
    if not np.any(qualified):
        raise BandwidthSelectionError(
            "every bandwidth candidate exceeded the fallback threshold "
            f"{fallback_threshold:.0%}; the grid is too narrow for this sample"
        )
    # the first minimum in increasing bandwidth order: the smallest wins ties
    best = by_h[np.argmin(np.where(qualified, scores, np.inf)[by_h])]
    return CvResult(float(cand[best]), cand, scores, fb_rates, qualified)


class PairBins:
    """The pairs of a self-distance matrix binned over sorted bandwidths
    (binned kernel sums, after Fan & Marron 1994).

    Each pair (i, j != i) is binned by the first bandwidth it counts for:
    d < h for the quadratic and triangle kernels, whose weight vanishes at
    d = h, and d <= h for the uniform one. Per row, cumulative sums over
    the bins of y_j and d^p y_j give every bandwidth's kernel sums, e.g.
    sum (1 - d^2/h^2) y_j = S_y - T_y / h^2. The bins (in the smallest
    unsigned type that holds them) and the response-free sums are computed
    once; each :meth:`loo_fits` call adds only the sums of its response.
    """

    def __init__(self, dist: np.ndarray, hs: np.ndarray, kernel: str):
        self.dist = dist
        self.hs = hs
        self.p = kernel_power(kernel)
        n, k = len(dist), hs.size
        self.bins = np.empty((n, n), np.min_scalar_type(k))
        # the bin is k minus the number of bandwidths the pair counts for,
        # one comparison pass per bandwidth over each row block (at n = 2000
        # and 20 bandwidths, 6x faster than a binary search per pair)
        counts = np.less if self.p else np.less_equal

        def bin_rows(lo, hi):
            bins = self.bins[lo:hi]
            bins.fill(k)
            counted = _blocks.scratch("counted", bins.shape, bool)
            for h in hs:
                bins -= counts(dist[lo:hi], h, out=counted)

        _blocks.run(bin_rows, _blocks.row_blocks(n, n), n * n)
        np.fill_diagonal(self.bins, k)  # the last bin counts for no bandwidth
        count, count_p = self._sums(None)
        self.empty = count == 0
        self.den = self._kernel_sums(count, count_p)
        self.fallback_rates = self.empty.sum(axis=0) / n
        # rows empty at some bandwidth are empty at the smallest one; they
        # predict from their nearest other point, as weight_matrix does
        self.fb_rows = np.flatnonzero(self.empty[:, 0])
        self.nearest = _nearest(dist, self.fb_rows, exclude_diag=True)

    def _sums(self, y) -> tuple[np.ndarray, np.ndarray | None]:
        """Per row and bandwidth, the sums of y_j (1 when None) and of
        d_ij^p y_j (None for p = 0) over the pairs counted at that bandwidth."""
        n, k = len(self.bins), self.hs.size
        plain = np.empty((n, k))
        powered = np.empty((n, k)) if self.p else None

        def sum_rows(lo, hi):
            bins = self.bins[lo:hi]
            b = hi - lo
            keys = _blocks.scratch("keys", bins.shape, np.intp)
            np.add(np.arange(b)[:, None] * (k + 1), bins, out=keys)
            # one buffer holds the weights y_j of the row block, then d^p y_j
            w = _blocks.scratch("w", bins.shape, float)

            def cumulate(weights, out):
                m = np.bincount(keys.ravel(), weights, minlength=b * (k + 1)).reshape(b, k + 1)
                np.cumsum(m[:, :k], axis=1, out=out[lo:hi])

            if y is not None:
                np.copyto(w, y)
            cumulate(None if y is None else w.ravel(), plain)
            if self.p:
                d = self.dist[lo:hi]
                if self.p == 2:  # d * d, the same bits as d ** 2
                    np.multiply(d, d, out=w)
                else:
                    np.copyto(w, d)
                if y is not None:
                    w *= y
                cumulate(w.ravel(), powered)

        _blocks.run(sum_rows, _blocks.row_blocks(n, n), n * n)
        return plain, powered

    def _kernel_sums(self, plain: np.ndarray, powered) -> np.ndarray:
        """sum_j K(d_ij / h) y_j at every bandwidth from the two sums."""
        return plain - powered / self.hs**self.p if self.p else plain

    def loo_fits(self, y: np.ndarray) -> np.ndarray:
        """Leave-one-out kernel fits of ``y`` at every point (rows) and
        bandwidth (columns); a row with no neighbor within a bandwidth
        takes its nearest other point's response, as :func:`weight_matrix`
        does."""
        num = self._kernel_sums(*self._sums(y))
        pred = np.divide(num, self.den, out=np.zeros_like(num), where=~self.empty)
        fb = self.fb_rows
        pred[fb] = np.where(self.empty[fb], y[self.nearest][:, None], pred[fb])
        return pred


def default_bandwidth_grid(dist: np.ndarray, size: int = 20) -> np.ndarray:
    """Candidate bandwidths at quantiles of the positive pairwise distances.

    See :func:`quantile_grid`; the distances are read once per pair, from
    the upper triangle of the self-distance matrix, into one sorted copy.
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("expected a square self-distance matrix")
    pairs = squareform(d, checks=False)
    pairs.sort()  # NaNs last, as np.sort puts them
    positive = pairs[np.searchsorted(pairs, 0.0, side="right"):
                     np.searchsorted(pairs, np.nan)]
    return _quantiles(positive, size)


def quantile_grid(distances: np.ndarray, size: int) -> np.ndarray:
    """Quantiles of the positive ``distances``.

    Quantile levels run evenly from 0.05 to 1.0 (just the maximum for
    ``size`` 1); duplicate candidates collapse, so the grid may be shorter
    than requested.
    """
    positive = distances[distances > 0]
    positive.sort()
    return _quantiles(positive, size)


def _quantiles(positive: np.ndarray, size: int) -> np.ndarray:
    """The grid of :func:`quantile_grid` from the sorted positive distances:
    the inverted-CDF quantile at level q is the element at n q - 1 rounded
    up (and at least 0), as np.quantile(..., method="inverted_cdf") picks it."""
    if size < 1:
        raise ValueError("grid size must be positive")
    if positive.size == 0:
        raise ValueError("no positive distance to build a grid from")
    qs = np.array([1.0]) if size == 1 else np.linspace(0.05, 1.0, size)
    at = np.maximum(np.ceil(positive.size * qs - 1), 0).astype(np.intp)
    return np.unique(positive[at])
