"""Semi-metrics on curve space.

Two families: L2 distance between derivatives of a given order, and
Euclidean distance between leading principal-component scores. Both are
symmetric with d(x, x) = 0; neither needs to separate distinct curves.

Distances are computed through per-curve feature vectors, which the
estimators cache so repeated predictions stay cheap. Finite-difference and
order-0 derivatives are compared as samples weighted by trapezoid
quadrature. A B-spline derivative of order >= 1 is a fixed linear map of
the samples, so its distance is taken exactly in that map's rank: the
features are the samples times a T x r matrix P (r = 23 for order 1, 20
knots, degree 3) with unit weights, as projection scores are.

Every Euclidean distance, and every change between a condensed vector of
pairs and its square matrix, goes through the four helpers below
(:func:`euclidean_pdist`, :func:`euclidean_cdist`, :func:`to_square`,
:func:`to_condensed`). They call scipy's own compiled kernels, the ones
that ``scipy.spatial.distance`` calls for the same arguments, loaded
straight from their two extension files. Importing ``scipy.spatial``
instead would load its KD-tree, Qhull, ``scipy.sparse``, ``scipy.linalg``
and ``scipy.special``: about 0.3 s and 30 MB more at every start.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import _blocks
from .curves import Curve, CurveSet, Grid, _check_spline, _spline_operator, derivative_set


def _scipy_extension(name: str):
    """scipy's compiled module ``scipy.spatial.<name>``, loaded from its
    file without running the ``__init__`` of ``scipy`` or ``scipy.spatial``;
    ImportError, naming the file, where the scipy build lacks it."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("funvar needs scipy")
    stem = os.path.join(scipy.submodule_search_locations[0], "spatial", name)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(f"scipy.spatial.{name}", stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy build lacks {stem}{importlib.machinery.EXTENSION_SUFFIXES[0]}")


_pybind = _scipy_extension("_distance_pybind")
_wrap = _scipy_extension("_distance_wrap")


def euclidean_pdist(x: np.ndarray) -> np.ndarray:
    """The condensed Euclidean distances among the rows of ``x``, as
    ``scipy.spatial.distance.pdist(x)``."""
    return _pybind.pdist_euclidean(x)


def euclidean_cdist(xa: np.ndarray, xb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Euclidean distances between the rows of ``xa`` and of ``xb``,
    written to ``out`` if given, as ``scipy.spatial.distance.cdist``."""
    return _pybind.cdist_euclidean(xa, xb, out=out)


def to_square(v: np.ndarray) -> np.ndarray:
    """The symmetric matrix, zero on its diagonal, of the condensed pairs
    ``v``, as ``scipy.spatial.distance.squareform(v)``: 1 x 1 for no pairs."""
    v = np.ascontiguousarray(v)
    n = (1 + math.isqrt(1 + 8 * v.size)) // 2
    if n * (n - 1) // 2 != v.size:
        raise ValueError(f"{v.size} is not a number of pairs n(n - 1)/2")
    m = np.zeros((n, n), v.dtype)
    if v.size:
        _wrap.to_squareform_from_vector_wrap(m, v)
    return m


def to_condensed(m: np.ndarray) -> np.ndarray:
    """The pairs (i, j > i) of the square ``m`` in row order, unchecked, as
    ``scipy.spatial.distance.squareform(m, checks=False)``."""
    m = np.ascontiguousarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    v = np.zeros(len(m) * (len(m) - 1) // 2, m.dtype)
    if v.size:
        _wrap.to_vector_from_squareform_wrap(m, v)
    return v


SEMIMETRIC_KINDS = ("deriv_l2", "pca_projection")
DERIV_METHODS = ("finite_diff", "bspline")


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
            if self.deriv_method not in DERIV_METHODS:
                raise ValueError(
                    f"unknown derivative method {self.deriv_method!r}"
                )
            # order 0 never fits a spline
            if self.deriv_method == "bspline" and self.order >= 1:
                _check_spline(self.order, self.knots, self.degree)
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
        """The spec of a :meth:`to_config` dict; ValueError if malformed."""
        kind = cfg.get("kind") if isinstance(cfg, dict) else None
        # each kind's integer fields, with their defaults (dim has none)
        sizes = {"deriv_l2": {"order": 0, "knots": 20, "degree": 3},
                 "pca_projection": {"dim": None}}.get(kind) if isinstance(kind, str) else None
        if sizes is None or not all(type(cfg.get(k, v)) is int for k, v in sizes.items()):
            raise ValueError(f"malformed semi-metric config {cfg!r}")
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
    # einsum rather than the BLAS product xw.T @ xw, whose summation order
    # (and so the basis, to the last bits) follows the BLAS thread count
    moment = np.einsum("ij,ik->jk", xw, xw) / n
    evals, evecs = np.linalg.eigh(moment)
    top = evecs[:, np.argsort(evals)[::-1][: spec.dim]]
    # deterministic sign: largest-magnitude entry of each component positive
    for j in range(top.shape[1]):
        if top[np.argmax(np.abs(top[:, j])), j] < 0:
            top[:, j] = -top[:, j]
    return replace(spec, basis=sqrt_w[:, None] * top)


@lru_cache(maxsize=8)
def _spline_features(grid: Grid, order: int, knots: int, degree: int) -> np.ndarray:
    """The T x r matrix P with ||(v_a - v_b) P|| the trapezoid L2 distance
    between the B-spline derivatives of curves with samples v_a and v_b.

    That distance is ||(v_a - v_b) D' sqrt(W)|| for the spline operator D
    and the quadrature weights W; with the SVD D' sqrt(W) = U S V', P is
    U S over the singular values above the rank tolerance of
    ``np.linalg.matrix_rank``. Computed once per (grid, order, knots,
    degree) and stored read-only, since threads share it.
    """
    m = _spline_operator(grid, order, knots, degree).T * np.sqrt(grid.trapezoid_weights)
    u, s, _ = np.linalg.svd(m)
    keep = s > s[0] * grid.size * np.finfo(float).eps
    p = u[:, keep] * s[keep]
    p.flags.writeable = False
    return p


def _spline_map(spec: SemiMetricSpec, grid: Grid) -> np.ndarray | None:
    """:func:`_spline_features` of a B-spline derivative spec of order >= 1;
    None for any other spec."""
    if spec.kind != "deriv_l2" or spec.deriv_method != "bspline" or spec.order == 0:
        return None
    return _spline_features(grid, spec.order, spec.knots, spec.degree)


def feature_matrix(spec: SemiMetricSpec, cs: CurveSet) -> np.ndarray:
    """Per-curve feature vectors; distances are weighted L2 between rows."""
    if spec.kind == "deriv_l2":
        p = _spline_map(spec, cs.grid)
        if p is None:
            return derivative_set(
                cs, spec.order, spec.deriv_method, knots=spec.knots, degree=spec.degree
            ).values
    elif spec.basis is None:
        raise ValueError("projection basis is untrained; call train_projection first")
    elif spec.basis.shape[0] != cs.grid.size:
        raise ValueError("projection basis was trained on a different grid")
    else:
        p = spec.basis
    # einsum, as in train_projection: a curve's features depend neither on the
    # BLAS threads nor, as a BLAS product's rows do, on the curves sharing the call
    return np.einsum("ij,jk->ik", cs.values, p)


def feature_weights(spec: SemiMetricSpec, grid: Grid) -> np.ndarray:
    if spec.kind == "pca_projection":
        return np.ones(spec.dim)
    p = _spline_map(spec, grid)
    return grid.trapezoid_weights if p is None else np.ones(p.shape[1])


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
        if len(_blocks.triangle_blocks(n)) == 1:  # one pass, straight into the output
            return to_square(euclidean_pdist(sa))
        out = np.empty((n, n))

        def upper(lo, hi):
            # the pairs among the block's rows, then with every later row
            out[lo:hi, lo:hi] = to_square(euclidean_pdist(sa[lo:hi]))
            rest = euclidean_cdist(sa[lo:hi], sa[hi:])
            out[lo:hi, hi:] = rest
            out[hi:, lo:hi] = rest.T

        _blocks.run(upper, _blocks.triangle_blocks(n), n * n)
        return out
    sb = fb * sqrt_w
    out = np.empty((n, len(sb)))

    def rows(lo, hi):
        euclidean_cdist(sa[lo:hi], sb, out=out[lo:hi])

    _blocks.run(rows, _blocks.row_blocks(n, len(sb)), out.size)
    return out


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
