"""Discretized functional data: curves sampled on a shared grid.

Curves are stored as raw samples; integration uses the composite trapezoid
rule and derivatives are computed either by repeated finite differences or
by a least-squares B-spline fit.
"""

from __future__ import annotations

import csv
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Strictly increasing abscissae shared by a family of curves."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.size

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights w such that w @ f approximates the integral of f."""
        w = np.empty(self.size)
        d = np.diff(self.points)
        w[0] = d[0] / 2
        w[-1] = d[-1] / 2
        w[1:-1] = (d[:-1] + d[1:]) / 2
        return w

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Grid) and np.array_equal(self.points, other.points)

    def __hash__(self) -> int:
        # adding 0.0 maps -0.0 to 0.0, so grids that compare equal hash equal
        return hash((self.points + 0.0).tobytes())


def uniform_grid(size: int, lo: float = -1.0, hi: float = 1.0) -> Grid:
    return Grid(np.linspace(lo, hi, size))


@dataclass(frozen=True)
class Curve:
    """One functional observation: values sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"curve has {vals.size} values for a grid of {self.grid.size} points"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class CurveSet:
    """n curves on one shared grid, stored as an (n, T) value matrix."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.ndim != 2 or vals.shape[1] != self.grid.size:
            raise ValueError("curve matrix must be (n, grid size)")
        if vals.shape[0] < 1:
            raise ValueError("curve set needs at least one curve")
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_curves(cls, curves: list[Curve]) -> CurveSet:
        if not curves:
            raise ValueError("curve set needs at least one curve")
        grid = curves[0].grid
        for c in curves[1:]:
            if c.grid != grid:
                raise ValueError("all curves must share the set's grid")
        return cls(grid, np.vstack([c.values for c in curves]))

    def __len__(self) -> int:
        return self.values.shape[0]

    def curve(self, i: int) -> Curve:
        return Curve(self.grid, self.values[i])

    def __iter__(self) -> Iterator[Curve]:
        return (self.curve(i) for i in range(len(self)))

    def subset(self, idx) -> CurveSet:
        return CurveSet(self.grid, self.values[idx])


def integrate(c: Curve) -> float:
    """Trapezoid-rule integral of the curve over its grid span."""
    return float(c.values @ c.grid.trapezoid_weights)


def _spline_knots(points: np.ndarray, knots: int, degree: int) -> np.ndarray:
    # interior knots at empirical quantiles; robust to non-uniform grids
    qs = np.linspace(0.0, 1.0, knots + 2)[1:-1]
    interior = np.quantile(points, qs)
    return np.r_[
        np.full(degree + 1, points[0]), interior, np.full(degree + 1, points[-1])
    ]


def _check_spline(order: int, knots: int, degree: int) -> None:
    """The rules of an order-``order`` spline derivative that hold on any grid."""
    if degree <= order:
        raise ValueError(f"spline degree {degree} must exceed derivative order {order}")
    if knots < 1:
        raise ValueError("need at least one interior knot")


def _bspline_basis(x: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """The (len(x), len(t) - k - 1) values of the degree-k B-splines on knots t
    at x: half-open knot spans, the last non-empty one closed at the right end,
    then Cox-de Boor, B_{i,d} = w_i B_{i,d-1} + (1 - w_{i+1}) B_{i+1,d-1} with
    w_i = (x - t_i) / (t_{i+d} - t_i), or 0 where t_{i+d} = t_i and B_{i,d-1} = 0."""
    b = ((t[:-1] <= x[:, None]) & (x[:, None] < t[1:])).astype(float)
    b[x == t[-1], np.flatnonzero(t[:-1] < t[1:])[-1]] = 1.0
    for d in range(1, k + 1):
        span = t[d:] - t[:-d]
        w = np.divide(x[:, None] - t[:-d], span, out=np.zeros_like(b), where=span > 0)
        b = w[:, :-1] * b[:, :-1] + (1 - w[:, 1:]) * b[:, 1:]
    return b


@lru_cache(maxsize=8)
def _spline_operator(grid: Grid, order: int, knots: int, degree: int) -> np.ndarray:
    """The T x T matrix D that takes a curve's samples to the analytic
    order-``order`` derivative, on grid points, of its least-squares spline
    on quantile knots: the fit is linear in the samples, so D is the fit of
    the identity. Computed once per (grid, order, knots, degree) and stored
    read-only, since threads share it."""
    _check_spline(order, knots, degree)
    if knots + degree + 1 > grid.size:
        raise ValueError(f"{knots} knots with degree {degree} need at least "
                         f"{knots + degree + 1} grid points, got {grid.size}")
    t, k = _spline_knots(grid.points, knots, degree), degree
    design = _bspline_basis(grid.points, t, k)
    coef, _, rank, _ = np.linalg.lstsq(design, np.eye(grid.size), rcond=None)
    if rank < design.shape[1]:
        raise ValueError(f"rank-deficient spline design (too many knots?): rank {rank}")
    for _ in range(order):  # a spline's derivative: one degree less, on the inner knots
        coef = k * np.diff(coef, axis=0) / (t[k + 1:-1] - t[1:-k - 1])[:, None]
        t, k = t[1:-1], k - 1
    op = _bspline_basis(grid.points, t, k) @ coef
    if not np.all(np.isfinite(op)):
        raise ValueError("rank-deficient spline design produced non-finite values")
    op.flags.writeable = False
    return op


def derivative(
    c: Curve,
    order: int,
    method: str = "finite_diff",
    *,
    knots: int = 20,
    degree: int = 3,
) -> Curve:
    """Derivative of a sampled curve, evaluated on the same grid.

    ``finite_diff`` applies repeated central differences with first-order
    one-sided stencils at the endpoints. ``bspline`` fits a least-squares
    spline (interior knots at grid quantiles) and evaluates its analytic
    derivative; requires degree > order and knots + degree + 1 <= T.
    Order 0 returns the curve unchanged.
    """
    out = derivative_set(
        CurveSet.from_curves([c]), order, method, knots=knots, degree=degree
    )
    return c if order == 0 else out.curve(0)


def derivative_set(
    cs: CurveSet,
    order: int,
    method: str = "finite_diff",
    *,
    knots: int = 20,
    degree: int = 3,
) -> CurveSet:
    """Batched :func:`derivative` over all curves in a set."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return cs
    if method == "finite_diff":
        if cs.grid.size < order + 1:
            raise ValueError(
                f"grid of {cs.grid.size} points too short for order-{order} differences"
            )
        vals = cs.values
        for _ in range(order):
            vals = np.gradient(vals, cs.grid.points, axis=1, edge_order=1)
        return CurveSet(cs.grid, vals)
    if method == "bspline":
        op = _spline_operator(cs.grid, order, knots, degree)
        # einsum rather than the BLAS product, whose summation order follows
        # the BLAS thread count
        return CurveSet(cs.grid, np.einsum("ij,kj->ik", cs.values, op))
    raise ValueError(f"unknown derivative method {method!r}")


# --- Files -----------------------------------------------------------------
#
# Every file funvar writes reaches the disk through _atomic_write, and every
# CSV through _write_rows; every number read from a CSV goes through
# _parse_rows. Curves: first row is the grid ("t" then abscissae); each
# subsequent row is one curve's values. Responses: single column with
# header "y", row-aligned with the curves file.


@contextmanager
def _atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A text file to write ``path`` through: a new file beside it, renamed
    into place once the block completes, so a failed write leaves any
    previous file as it was. Like ``open``, it gets the process umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-funvar-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_rows(path: str | Path, header: list, rows: Iterable) -> None:
    """Write a CSV table atomically, streaming ``rows`` one at a time.

    The header goes through csv. Data rows hold only Python numbers (as
    ``ndarray.tolist()`` gives them), written as their ``repr``s joined by
    commas: the bytes csv writes for numbers, in about half the time. A
    float's ``repr`` reads back to the same float, so a round trip is exact.
    """
    with _atomic_write(path) as f:
        csv.writer(f).writerow(header)
        f.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def write_curves_csv(path: str | Path, cs: CurveSet) -> None:
    # row by row: Python floats for the whole table would take several times its memory
    _write_rows(path, ["t", *cs.grid.points.tolist()], (row.tolist() for row in cs.values))


# lines read_curves_csv and read_responses_csv parse at a time: about 2 MB
# of text for 101-point curves, however long the file
_READ_LINES = 1024


def read_curves_csv(path: str | Path) -> CurveSet:
    """All the curves of a curves file; see :func:`iter_curves_csv`."""
    chunks = list(iter_curves_csv(path, _READ_LINES))
    return CurveSet(chunks[0].grid, np.concatenate([cs.values for cs in chunks]))


def iter_curves_csv(path: str | Path, lines: int) -> Iterator[CurveSet]:
    """The curves of a curves file as consecutive sets of at most ``lines``
    curves each, read ``lines`` lines at a time, all on one shared grid.

    The rows after the grid are read by :func:`_row_chunks`. ValueError,
    naming line 1, for a grid that is not 't' then 2 or more finite numbers.
    """
    with open(path) as f:
        line = f.readline()
        header = next(csv.reader([line]), [])
        if len(header) < 3 or header[0] != "t":
            raise ValueError(f"{path}: first row must be the grid, 't' then 2+ points")
        grid = Grid(_parse_rows(path, [line.partition(",")[2]], 1, len(header) - 1)[0])
        for values in _row_chunks(path, f, lines, grid.size, "curve"):
            yield CurveSet(grid, values)


def _row_chunks(path, f: TextIO, lines: int, width: int, what: str) -> Iterator[np.ndarray]:
    """The rows of numbers in the rest of ``f``, the file's lines from 2 on,
    parsed ``lines`` lines at a time. Empty lines are skipped. ValueError,
    naming the line, for a row that is not ``width`` finite numbers; a line
    of only spaces is such a row. ValueError for a file of no rows."""
    first, empty = 2, True
    while chunk := list(islice(f, lines)):
        if any(line.rstrip("\r\n") for line in chunk):
            yield _parse_rows(path, chunk, first, width)
            empty = False
        first += len(chunk)
    if empty:
        raise ValueError(f"{path}: no {what} rows")


def _parse_rows(path, chunk: list[str], first: int, width: int) -> np.ndarray:
    """The rows of numbers in ``chunk``, the file's lines from ``first`` on,
    parsed straight into one array: a Python string and float per sample
    would take several times its memory and fragment the heap."""

    def rows(lines):
        # None unless every line holds ``width`` finite numbers
        try:
            values = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError:
            return None
        return values if values.shape[1] == width and np.isfinite(values).all() else None

    values = rows(chunk)
    if values is None:
        # loadtxt counts rows within the chunk, less empty lines: find the line at fault
        k = next((k for k, line in enumerate(chunk)
                  if line.rstrip("\r\n") and rows([line]) is None), 0)
        raise ValueError(f"{path}: line {first + k} is not " + (
            "one finite number" if width == 1
            else f"{width} numbers separated by commas, all finite"))
    return values


def write_responses_csv(path: str | Path, y: np.ndarray) -> None:
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):  # read_responses_csv would refuse the file
        raise ValueError("responses must be finite")
    _write_rows(path, ["y"], ([v] for v in y.tolist()))


def read_responses_csv(path: str | Path) -> np.ndarray:
    """The responses: a 'y' header, then rows of one finite number each,
    read by :func:`_row_chunks`."""
    with open(path) as f:
        if next(csv.reader([f.readline()]), None) != ["y"]:
            raise ValueError(f"{path}: responses file must have a 'y' header")
        chunks = list(_row_chunks(path, f, _READ_LINES, 1, "response"))
    return np.concatenate(chunks)[:, 0]
