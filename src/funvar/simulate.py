"""Simulation designs for functional heteroscedastic regression.

Three designs share the scheme Y = m(X) + sqrt(v(X)) * eps with standard
Gaussian noise:

* ``ex1`` — Brownian paths; m = 0, v(x) = int |cos x(t)| dt.
* ``ex2`` — Brownian paths; m(x) = int t x(t) dt, v(x) = int |t| x(t)^2 dt.
* ``ex3`` — smooth sinusoids x(t) = sin(w t) + (a + 2 pi) t + b;
  m(x) = int |x'(t)| (1 - cos(pi t)) dt, v(x) = int |x'(t)| (1 + cos(pi t)) dt.

All integrals are trapezoid approximations over the sampling grid, and the
ex3 derivative is analytic: x'(t) = w cos(w t) + (a + 2 pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, CurveSet, Grid, uniform_grid

DESIGNS = ("ex1", "ex2", "ex3")


@dataclass(frozen=True)
class SimSpec:
    """One simulation draw: a design, a sample size, and a seeded stream."""

    design: str
    n: int
    seed: int
    stream: int = 0
    grid_size: int = 101

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.grid_size < 2:
            raise ValueError("grid needs at least 2 points")


@dataclass(frozen=True)
class SimulatedDataset:
    """Curves with noisy responses and the true functional values.

    ``derivs`` holds the analytic derivative curves for the sinusoid
    design (None for Brownian designs); ``params`` holds the per-curve
    generator draws — the start point for Brownian paths, (w, a, b) for
    sinusoids.
    """

    curves: CurveSet
    y: np.ndarray
    m_true: np.ndarray
    v_true: np.ndarray
    eps: np.ndarray
    params: np.ndarray
    derivs: CurveSet | None = None

    def __post_init__(self):
        n = len(self.curves)
        for name in ("y", "m_true", "v_true", "eps"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if self.params.shape[0] != n:
            raise ValueError("params must have one row per curve")
        if self.derivs is not None and len(self.derivs) != n:
            raise ValueError("derivs must have one curve per observation")


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); distinct streams never collide."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def gen_brownian_curves(n: int, grid: Grid, rng: np.random.Generator) -> CurveSet:
    """Brownian paths: start ~ U(-1, 1), Gaussian increments with variance dt."""
    if n < 1:
        raise ValueError("n must be positive")
    t = grid.points
    steps = np.empty((n, t.size))
    steps[:, 0] = rng.uniform(-1.0, 1.0, size=n)
    dt = np.diff(t)
    steps[:, 1:] = rng.standard_normal((n, dt.size)) * np.sqrt(dt)
    return CurveSet(grid, np.cumsum(steps, axis=1))


def gen_sin_curves(
    n: int,
    grid: Grid,
    rng: np.random.Generator,
    params: np.ndarray | None = None,
) -> tuple[CurveSet, CurveSet, np.ndarray]:
    """Random sinusoids, their exact derivatives, and the parameter draws.

    x(t) = sin(w t) + (a + 2 pi) t + b with w ~ U(0, 2 pi) and a, b ~ U(0, 1).
    ``params`` fixes the (n, 3) array of (w, a, b) rows instead of drawing
    them. Returns (curves, derivative curves, params).
    """
    if params is None:
        if n < 1:
            raise ValueError("n must be positive")
        params = np.column_stack(
            [
                rng.uniform(0.0, 2.0 * np.pi, size=n),
                rng.uniform(0.0, 1.0, size=n),
                rng.uniform(0.0, 1.0, size=n),
            ]
        )
    else:
        params = np.asarray(params, dtype=float)
        if params.shape != (n, 3):
            raise ValueError(f"params must have shape ({n}, 3)")
    w = params[:, :1]
    slope = params[:, 1:2] + 2.0 * np.pi
    b = params[:, 2:3]
    t = grid.points[None, :]
    wt = w * t
    values = np.sin(wt)
    values += slope * t
    values += b
    deriv = np.cos(wt, out=wt)
    deriv *= w
    deriv += slope
    return CurveSet(grid, values), CurveSet(grid, deriv), params


def true_functionals(
    design: str, x: Curve, deriv: Curve | None = None
) -> tuple[float, float]:
    """True (m, v) at a single curve; ex3 needs the derivative curve."""
    one = None if deriv is None else CurveSet.from_curves([deriv])
    m, v = _batch_functionals(design, CurveSet.from_curves([x]), one)
    return float(m[0]), float(v[0])


def _batch_functionals(
    design: str, curves: CurveSet, derivs: CurveSet | None
) -> tuple[np.ndarray, np.ndarray]:
    """True (m, v) at every curve of a set; ex3 needs the derivative curves."""
    t = curves.grid.points
    qw = curves.grid.trapezoid_weights
    vals = curves.values
    if design == "ex1":
        return np.zeros(len(curves)), np.abs(np.cos(vals)) @ qw
    if design == "ex2":
        return (vals * t) @ qw, (np.abs(t) * vals**2) @ qw
    if design != "ex3":
        raise ValueError(f"unknown design {design!r}")
    if derivs is None:
        raise ValueError("ex3 needs the derivative curves")
    ad = np.abs(derivs.values)
    return (ad * (1.0 - np.cos(np.pi * t))) @ qw, (ad * (1.0 + np.cos(np.pi * t))) @ qw


def gen_dataset(spec: SimSpec) -> SimulatedDataset:
    """Draw one complete dataset for a design.

    The stream is consumed in a fixed order (curve randomness first, then
    noise), so a given (seed, stream) pair always yields the same dataset.
    """
    rng = rng_stream(spec.seed, spec.stream)
    grid = uniform_grid(spec.grid_size)
    if spec.design == "ex3":
        curves, derivs, params = gen_sin_curves(spec.n, grid, rng)
    else:
        curves = gen_brownian_curves(spec.n, grid, rng)
        derivs = None
        params = curves.values[:, :1].copy()
    m, v = _batch_functionals(spec.design, curves, derivs)
    eps = rng.standard_normal(spec.n)
    return dataset_from_parts(curves, m, v, eps, params=params, derivs=derivs)


def dataset_from_parts(
    curves: CurveSet,
    m_true,
    v_true,
    eps,
    params: np.ndarray | None = None,
    derivs: CurveSet | None = None,
) -> SimulatedDataset:
    """Assemble a dataset from known components (e.g. a forced noise vector)."""
    m = np.asarray(m_true, dtype=float)
    v = np.asarray(v_true, dtype=float)
    e = np.asarray(eps, dtype=float)
    if np.any(v < 0):
        raise ValueError("true variance must be nonnegative")
    if params is None:
        params = np.zeros((len(curves), 0))
    return SimulatedDataset(curves, m + np.sqrt(v) * e, m, v, e, params, derivs)
