"""Semi-metrics on curve space.

Two families: L2 distance between derivatives of a given order, and
Euclidean distance between leading principal-component scores. Both are
symmetric with d(x, x) = 0; neither needs to separate distinct curves.

Distances are computed through per-curve feature vectors (derivative
samples weighted by trapezoid quadrature, or projection scores), which the
estimators cache so repeated predictions stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from . import _blocks
from .curves import Curve, CurveSet, Grid, derivative_set

SEMIMETRIC_KINDS = ("deriv_l2", "pca_projection")


@dataclass(frozen=True)
class SemiMetricSpec:
    """Recipe for a distance between curves.

    ``deriv_l2``: sqrt of the integrated squared difference between
    order-``order`` derivatives (``deriv_method``, ``knots`` and ``degree``
    control how derivatives are computed). ``pca_projection``: Euclidean
    distance between the first ``dim`` principal-component scores; the
    basis must be trained on a curve set before distances can be taken.
    """

    kind: str
    order: int = 0
    deriv_method: str = "finite_diff"
    knots: int = 20
    degree: int = 3
    dim: int = 1
    basis: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in SEMIMETRIC_KINDS:
            raise ValueError(f"unknown semi-metric kind {self.kind!r}")
        if self.kind == "deriv_l2":
            if self.order < 0:
                raise ValueError("derivative order must be nonnegative")
            if self.deriv_method not in ("finite_diff", "bspline"):
                raise ValueError(
                    f"unknown derivative method {self.deriv_method!r}"
                )
        if self.kind == "pca_projection" and self.dim < 1:
            raise ValueError("projection dimension must be >= 1")

    @classmethod
    def deriv_l2(
        cls,
        order: int = 0,
        deriv_method: str = "finite_diff",
        *,
        knots: int = 20,
        degree: int = 3,
    ) -> SemiMetricSpec:
        return cls("deriv_l2", order=order, deriv_method=deriv_method,
                   knots=knots, degree=degree)

    @classmethod
    def pca_projection(cls, dim: int) -> SemiMetricSpec:
        return cls("pca_projection", dim=dim)

    @property
    def trained(self) -> bool:
        return self.kind != "pca_projection" or self.basis is not None

    def to_config(self) -> dict:
        cfg: dict = {"kind": self.kind}
        if self.kind == "deriv_l2":
            cfg["order"] = self.order
            cfg["method"] = self.deriv_method
            if self.deriv_method == "bspline":
                cfg["knots"] = self.knots
                cfg["degree"] = self.degree
        else:
            cfg["dim"] = self.dim
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> SemiMetricSpec:
        if cfg["kind"] == "deriv_l2":
            return cls.deriv_l2(
                cfg.get("order", 0),
                cfg.get("method", "finite_diff"),
                knots=cfg.get("knots", 20),
                degree=cfg.get("degree", 3),
            )
        return cls.pca_projection(cfg["dim"])


def train_projection(spec: SemiMetricSpec, train: CurveSet) -> SemiMetricSpec:
    """Estimate the projection basis from a training set.

    Eigendecomposition of the empirical second-moment matrix of curve
    samples, weighted by trapezoid quadrature so that scores are quadrature
    inner products with the eigenfunctions.
    """
    if spec.kind != "pca_projection":
        raise ValueError("only pca_projection specs are trained")
    n, t = train.values.shape
    if spec.dim > min(n, t):
        raise ValueError(f"projection dim {spec.dim} exceeds rank bound {min(n, t)}")
    sqrt_w = np.sqrt(train.grid.trapezoid_weights)
    xw = train.values * sqrt_w
    moment = (xw.T @ xw) / n
    evals, evecs = np.linalg.eigh(moment)
    top = evecs[:, np.argsort(evals)[::-1][: spec.dim]]
    # deterministic sign: largest-magnitude entry of each component positive
    for j in range(top.shape[1]):
        if top[np.argmax(np.abs(top[:, j])), j] < 0:
            top[:, j] = -top[:, j]
    return replace(spec, basis=sqrt_w[:, None] * top)


def feature_matrix(spec: SemiMetricSpec, cs: CurveSet) -> np.ndarray:
    """Per-curve feature vectors; distances are weighted L2 between rows."""
    if spec.kind == "deriv_l2":
        return derivative_set(
            cs, spec.order, spec.deriv_method, knots=spec.knots, degree=spec.degree
        ).values
    if spec.basis is None:
        raise ValueError("projection basis is untrained; call train_projection first")
    if spec.basis.shape[0] != cs.grid.size:
        raise ValueError("projection basis was trained on a different grid")
    return cs.values @ spec.basis


def feature_weights(spec: SemiMetricSpec, grid: Grid) -> np.ndarray:
    if spec.kind == "deriv_l2":
        return grid.trapezoid_weights
    return np.ones(spec.dim)


def pairwise_from_features(
    fa: np.ndarray, fb: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """sqrt(sum_k w_k (fa_i - fb_j)^2) for every row pair.

    Both blocks are scaled by sqrt(w) once, so each pair costs an
    unweighted Euclidean distance rather than a weighted one. Entries are computed
    directly from differences (no Gram expansion), so a curve's distance to
    an identical one is exactly zero. Row blocks of the output run on the
    shared pool (see ``_blocks``); scipy computes each pair the same way in
    any block, so the result does not depend on the split. With ``fb is fa``
    each pair is computed once: a block of rows takes the pairs among its
    rows (``pdist``) and with every later row (``cdist``) and writes them
    with their transpose, so the matrix comes out exactly symmetric with a
    zero diagonal.
    """
    sqrt_w = np.sqrt(w)
    sa = fa * sqrt_w
    n = len(sa)
    if fb is fa:
        bounds = _triangle_split(n, _blocks.task_count(n * n))
        if len(bounds) == 1:  # inline: one pass, straight into the output
            return squareform(pdist(sa, "euclidean"))
        out = np.empty((n, n))

        def upper(lo, hi):
            # the pairs among the block's rows, then with every later row
            out[lo:hi, lo:hi] = squareform(pdist(sa[lo:hi], "euclidean"))
            rest = cdist(sa[lo:hi], sa[hi:], "euclidean")
            out[lo:hi, hi:] = rest
            out[hi:, lo:hi] = rest.T

        _blocks.run(upper, bounds)
        return out
    sb = fb * sqrt_w
    out = np.empty((n, len(sb)))

    def rows(lo, hi):
        cdist(sa[lo:hi], sb, "euclidean", out=out[lo:hi])

    _blocks.run(rows, _blocks.split(n, _blocks.task_count(out.size)))
    return out


def _triangle_split(n: int, parts: int) -> list[tuple[int, int]]:
    """Row ranges of an n x n matrix with about equal numbers of pairs
    (i, j >= i) each: the first a rows hold a (n + 1/2) - a^2 / 2 of them."""
    c = n + 0.5
    cuts = [0]
    for k in range(1, parts):
        a = int(round(c - np.sqrt(c * c - k / parts * n * (n + 1))))
        if cuts[-1] < a < n:
            cuts.append(a)
    cuts.append(n)
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def distance(spec: SemiMetricSpec, a: Curve, b: Curve) -> float:
    """Semi-metric distance between two curves on the same grid."""
    one_a = CurveSet.from_curves([a])
    one_b = CurveSet.from_curves([b])
    return float(distance_matrix(spec, one_a, one_b)[0, 0])


def distance_matrix(
    spec: SemiMetricSpec, a: CurveSet, b: CurveSet | None = None
) -> np.ndarray:
    """All pairwise distances; entry (i, j) is d(a_i, b_j).

    With ``b`` omitted (or the same set), features are computed once and the
    result is exactly symmetric with a zero diagonal.
    """
    if b is None:
        b = a
    if a.grid != b.grid:
        raise ValueError("curves do not share a grid")
    fa = feature_matrix(spec, a)
    fb = fa if b is a else feature_matrix(spec, b)
    return pairwise_from_features(fa, fb, feature_weights(spec, a.grid))


def small_ball_fraction(
    spec: SemiMetricSpec, train: CurveSet, x: Curve, h: float
) -> float:
    """Fraction of training curves within distance h of x.

    Empirical estimate of the small-ball probability at x; useful as a
    diagnostic when choosing bandwidth grids.
    """
    if not h > 0:
        raise ValueError("radius h must be positive")
    d = distance_matrix(spec, CurveSet.from_curves([x]), train)[0]
    return float(np.mean(d <= h))
