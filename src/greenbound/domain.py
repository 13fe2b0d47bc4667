"""Intervals, uniform grids, grid functions, and trapezoid quadrature.

Values on grids are extended reals: finite floats, ``+inf`` or ``-inf``.
Arithmetic that would produce an ``inf - inf`` ambiguity is never performed
silently here; operations that require finiteness raise
:class:`~greenbound.errors.NotIntegrableError` instead.

All types are immutable values after construction and all operations are
pure, so everything in this module is safe to share between threads.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InvalidGridError, NotIntegrableError

__all__ = [
    "Interval",
    "Grid",
    "GridFn",
    "make_grid",
    "sample",
    "quad_trapezoid_split",
    "read_gridfn_csv",
    "write_gridfn_csv",
]

SCHEMA = "greenbound/1"     # "schema" key of every JSON summary


def write_json(obj, path=None) -> None:
    """Write obj as indented, key-sorted JSON plus a newline to path or stdout."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@dataclass(frozen=True)
class Interval:
    """Finite open interval (left, right)."""

    left: float
    right: float

    def __post_init__(self):
        if not (np.isfinite(self.left) and np.isfinite(self.right)):
            raise InvalidGridError("interval endpoints must be finite")
        if not self.left < self.right:
            raise InvalidGridError(
                f"need left < right, got ({self.left}, {self.right})"
            )

    @property
    def length(self) -> float:
        return self.right - self.left

    def contains(self, x: float, closed: bool = True) -> bool:
        if closed:
            return self.left <= x <= self.right
        return self.left < x < self.right


@dataclass(frozen=True)
class Grid:
    """Uniform partition of an interval with both endpoints included."""

    interval: Interval
    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise InvalidGridError(f"grid needs n >= 3 nodes, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def spacing(self) -> float:
        return self.interval.length / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.interval.left, self.interval.right, self.n)
        x.setflags(write=False)
        return x

    def boundary_distance(self) -> np.ndarray:
        """d(x) = dist(x, boundary) at the nodes."""
        x = self.nodes
        return np.minimum(x - self.interval.left, self.interval.right - x)


def make_grid(interval: Interval, n: int) -> Grid:
    """Uniform grid with ``n`` nodes including both endpoints (n >= 3)."""
    return Grid(interval, n)


@dataclass(frozen=True)
class GridFn:
    """Real values on grid nodes; entries may be ``+inf``/``-inf``.

    ``fn`` optionally records the pointwise expression the values were
    sampled from; quadrature uses it to evaluate between nodes when a
    boundary panel needs refinement.  Quadrature rejects ``nan`` entries at
    interior nodes, and at an endpoint unless ``fn`` is attached, in which
    case that boundary panel is probed through ``fn`` (``green.power_product``
    instead encodes an unknown endpoint limit as a signed infinity).
    """

    grid: Grid
    values: np.ndarray
    fn: Callable[[float], float] | None = field(default=None, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise InvalidGridError(
                f"values shape {vals.shape} does not match grid n={self.grid.n}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, x: float) -> float:
        """Evaluate off-node via ``fn`` when present, else linear interpolation."""
        if self.fn is not None:
            return float(self.fn(np.float64(x)))
        nodes = self.grid.nodes
        finite = np.isfinite(self.values)
        return float(np.interp(x, nodes[finite], self.values[finite]))


def sample(expr: Callable[[float], float], grid: Grid) -> GridFn:
    """Evaluate a pointwise expression at every node.

    The expression receives ``np.float64`` arguments, so divisions by zero
    at singular endpoints produce ``inf`` rather than raising.
    """
    out = np.empty(grid.n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, x in enumerate(grid.nodes):
            out[i] = float(expr(np.float64(x)))
    return GridFn(grid, out, fn=expr)


def _trap_weights(n: int, dx: float) -> np.ndarray:
    w = np.full(n, dx)
    w[0] = w[-1] = dx / 2.0
    return w


def quad_trapezoid_split(f: GridFn, split_index: int) -> float:
    """Composite trapezoid of f over its interval, split at a node.

    The two sides of ``split_index`` are summed separately so a slope
    discontinuity at the split node costs no accuracy (each side sees a
    piecewise-linear integrand panel-by-panel).
    """
    vals = f.values
    if not np.all(np.isfinite(vals)):
        raise NotIntegrableError("trapezoid rule needs finite values everywhere")
    n = f.grid.n
    if not 0 <= split_index < n:
        raise InvalidGridError(f"split index {split_index} outside 0..{n - 1}")
    dx = f.grid.spacing
    left = np.trapezoid(vals[: split_index + 1], dx=dx) if split_index > 0 else 0.0
    right = np.trapezoid(vals[split_index:], dx=dx) if split_index < n - 1 else 0.0
    return float(left + right)


def laplacian_1d(vals: np.ndarray, dx: float) -> np.ndarray:
    """Central second difference at interior nodes."""
    return (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / dx ** 2


def gradient_1d(vals: np.ndarray, dx: float) -> np.ndarray:
    """Central first difference at interior nodes."""
    return (vals[2:] - vals[:-2]) / (2.0 * dx)


def write_csv(path_or_file, header, *columns) -> None:
    """Write a header row, then row i of the columns for every index i.

    Every value is written as format(v, ".17g"): floats round-trip, and
    infinities and nan read "inf", "-inf" and "nan"; booleans read 1 and 0.
    """
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w", newline="") as fh:
            return write_csv(fh, header, *columns)
    writer = csv.writer(path_or_file)
    writer.writerow(header)
    writer.writerows([format(v, ".17g") for v in row] for row in zip(*columns))


def write_gridfn_csv(f: GridFn, path) -> None:
    """Write columns x,value; infinities as "inf"/"-inf"."""
    write_csv(path, ["x", "value"], f.grid.nodes, f.values)


def read_gridfn_csv(path) -> GridFn:
    """Read a GridFn written by :func:`write_gridfn_csv`.

    The x column must be a uniform grid with at least three nodes.
    """
    xs, vs = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip().lower() for c in header[:2]] != ["x", "value"]:
            raise InvalidGridError(f"expected header x,value in {path}")
        for row in reader:
            if not row:
                continue
            xs.append(float(row[0]))
            vs.append(float(row[1]))
    xs = np.asarray(xs)
    vs = np.asarray(vs)
    if xs.size < 3:
        raise InvalidGridError("grid file has fewer than 3 nodes")
    spacing = np.diff(xs)
    if spacing.min() <= 0 or not np.allclose(
        spacing, spacing.mean(), rtol=1e-8, atol=1e-12 * max(1.0, abs(xs[-1]))
    ):
        raise InvalidGridError("grid file nodes are not uniformly spaced")
    grid = Grid(Interval(float(xs[0]), float(xs[-1])), xs.size)
    return GridFn(grid, vs)
