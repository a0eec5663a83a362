"""Asymmetric kernels on [0, 1] and Nadaraya-Watson weights.

All kernels vanish outside [0, 1], so observations farther than one
bandwidth from the target point receive exactly zero weight.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

KERNEL_KINDS = ("quadratic", "uniform", "triangle")

# empty-neighborhood policies
POLICY_ERROR = "error"
POLICY_FALLBACK = "nearest_neighbor_fallback"
WEIGHT_POLICIES = (POLICY_ERROR, POLICY_FALLBACK)


class EmptyNeighborhoodError(RuntimeError):
    """No training point within one bandwidth under the 'error' policy."""


def _quadratic(u: np.ndarray) -> np.ndarray:
    return np.where((u >= 0) & (u <= 1), 1.0 - u * u, 0.0)


def _uniform(u: np.ndarray) -> np.ndarray:
    return np.where((u >= 0) & (u <= 1), 1.0, 0.0)


def _triangle(u: np.ndarray) -> np.ndarray:
    return np.where((u >= 0) & (u <= 1), 1.0 - u, 0.0)


_KERNELS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "quadratic": _quadratic,
    "uniform": _uniform,
    "triangle": _triangle,
}


def kernel_eval(kind: str, u) -> np.ndarray | float:
    """Evaluate the kernel at u (scalar or array); zero outside [0, 1]."""
    try:
        k = _KERNELS[kind]
    except KeyError:
        raise ValueError(f"unknown kernel {kind!r}; choose from {KERNEL_KINDS}")
    u = np.asarray(u, dtype=float)
    out = k(u)
    return float(out) if out.ndim == 0 else out


class NwWeights(NamedTuple):
    weights: np.ndarray
    fallback: bool


def nw_weights(
    distances,
    bandwidth: float,
    kind: str = "quadratic",
    policy: str = POLICY_FALLBACK,
) -> NwWeights:
    """Normalized kernel weights K(d_i/h) / sum_j K(d_j/h).

    If every kernel value is zero the behavior follows ``policy``: raise
    :class:`EmptyNeighborhoodError`, or put weight 1 on the nearest point
    (smallest index on ties) and flag the fallback.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("distances must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite")
    w, fb = weight_matrix(d[None, :], bandwidth, kind, policy)
    return NwWeights(w[0], bool(fb[0]))


def nw_estimate(weights, values) -> float:
    """Weighted average sum_i w_i v_i of the given values."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    if w.shape != v.shape:
        raise ValueError(f"length mismatch: {w.shape} weights vs {v.shape} values")
    return float(w @ v)


def weight_matrix(
    dist: np.ndarray,
    bandwidth: float,
    kind: str = "quadratic",
    policy: str = POLICY_FALLBACK,
    exclude_diag: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized kernel weights for every row of a distance matrix.

    With ``exclude_diag`` the diagonal entry of each row is forced to zero
    before normalizing (leave-one-out smoothing). Returns the weight matrix
    and a boolean mask of rows where the nearest-neighbor fallback fired.
    """
    if policy not in WEIGHT_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    k = kernel_eval(kind, dist / bandwidth)
    d = dist
    if exclude_diag:
        k = k.copy()
        np.fill_diagonal(k, 0.0)
        d = dist.copy()
        np.fill_diagonal(d, np.inf)
    totals = k.sum(axis=1)
    empty = totals == 0.0
    if np.any(empty):
        if policy == POLICY_ERROR:
            raise EmptyNeighborhoodError(
                f"{int(empty.sum())} rows have no point within bandwidth {bandwidth}"
            )
        for i in np.flatnonzero(empty):
            k[i, int(np.argmin(d[i]))] = 1.0
        totals = k.sum(axis=1)
    return k / totals[:, None], empty
