"""Asymmetric kernels on [0, 1] and Nadaraya-Watson weights.

All kernels vanish outside [0, 1], so observations farther than one
bandwidth from the target point receive exactly zero weight.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _blocks

# p with K(u) = 1 - u**p on [0, 1]; 0 marks the uniform kernel, K = 1
KERNEL_POWER = {"quadratic": 2, "uniform": 0, "triangle": 1}
KERNEL_KINDS = tuple(KERNEL_POWER)

# empty-neighborhood policies
POLICY_ERROR = "error"
POLICY_FALLBACK = "nearest_neighbor_fallback"
WEIGHT_POLICIES = (POLICY_ERROR, POLICY_FALLBACK)


class EmptyNeighborhoodError(RuntimeError):
    """No training point within one bandwidth under the 'error' policy."""


def kernel_power(kind: str) -> int:
    """The power p of the kernel K(u) = 1 - u**p on [0, 1]."""
    try:
        return KERNEL_POWER[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"unknown kernel {kind!r}; choose from {KERNEL_KINDS}")


def _apply_kernel(u: np.ndarray, p: int) -> np.ndarray:
    """Overwrite the float array u with K(u); zero outside [0, 1] (and at NaN)."""
    negative = u < 0.0
    if p == 0:
        np.less_equal(u, 1.0, out=u)
    else:
        if p == 2:
            np.multiply(u, u, out=u)
        np.subtract(1.0, u, out=u)
        np.fmax(u, 0.0, out=u)  # 0 beyond u = 1, where 1 - u**p < 0, and at NaN
    if negative.any():
        u[negative] = 0.0
    return u


def kernel_eval(kind: str, u) -> np.ndarray | float:
    """Evaluate the kernel at u (scalar or array); zero outside [0, 1]."""
    p = kernel_power(kind)
    out = _apply_kernel(np.array(u, dtype=float, ndmin=1), p).reshape(np.shape(u))
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
    values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized kernel weights for every row of a distance matrix.

    With ``exclude_diag`` the diagonal entry of each row is forced to zero
    before normalizing (leave-one-out smoothing). Returns the weight matrix
    and a boolean mask of rows where the nearest-neighbor fallback fired.

    With ``values`` (one per column) the weight matrix is never built: it
    returns the smoothed values, the weights of each row times ``values``,
    and the fallback mask; equal bit for bit to
    ``weight_matrix(...)[0] @ values``.
    """
    if policy not in WEIGHT_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    p = kernel_power(kind)
    dist = np.asarray(dist)
    n, m = dist.shape
    if values is not None:
        values = np.asarray(values, dtype=float)
        if values.shape != (m,):
            raise ValueError(f"{values.shape} values for {m} columns")
    # a block runs every step below while in cache; blocks start at multiples
    # of 8 rows, so that BLAS, which takes the rows of a matrix-vector product
    # in groups, sums each row in the same order as the whole-matrix product
    out = np.empty((n, m) if values is None else n)
    empty = np.empty(n, dtype=bool)

    def smooth_rows(lo, hi):
        block = out[lo:hi] if values is None else _blocks.scratch("w", (hi - lo, m), float)
        _apply_kernel(np.divide(dist[lo:hi], bandwidth, out=block), p)
        if exclude_diag:
            on_diag = np.arange(lo, min(hi, m))
            block[on_diag - lo, on_diag] = 0.0
        totals = block.sum(axis=1)
        np.equal(totals, 0.0, out=empty[lo:hi])
        idle = np.flatnonzero(empty[lo:hi])
        if idle.size:
            if policy == POLICY_FALLBACK:
                block[idle, _nearest(dist, lo + idle, exclude_diag)] = 1.0
            totals[idle] = 1.0
        block /= totals[:, None]
        if values is not None:
            out[lo:hi] = block @ values

    _blocks.run(smooth_rows, _blocks.row_blocks(n, m, align=8), n * m)
    if policy == POLICY_ERROR and empty.any():
        raise EmptyNeighborhoodError(
            f"{int(empty.sum())} rows have no point within bandwidth {bandwidth}"
        )
    return out, empty


def _nearest(dist: np.ndarray, rows: np.ndarray, exclude_diag: bool) -> np.ndarray:
    """Column of the smallest distance in each of ``rows`` (the smallest
    index on ties), skipping the diagonal with ``exclude_diag``."""
    d = np.array(dist[rows], dtype=float)
    if exclude_diag:
        on_diag = rows < d.shape[1]
        d[on_diag, rows[on_diag]] = np.inf
    return np.argmin(d, axis=1)
