"""Uniform grids on an interval and function samples living on them.

All continuum objects in this package are represented by their values on
the nodes of a uniform grid.  Calculus on samples uses schemes that are
exact on low-degree polynomials: trapezoid quadrature (exact on affine
data) and second-order difference stencils (exact on quadratics).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into n_cells panels."""

    a: float
    b: float
    n_cells: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if not self.a < self.b:
            raise ValueError("grid requires a < b")
        if int(self.n_cells) != self.n_cells or self.n_cells < 2:
            raise ValueError("grid requires an integer n_cells >= 2")
        object.__setattr__(self, "n_cells", int(self.n_cells))

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_cells

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.a, self.b, self.n_cells + 1)
        x.setflags(write=False)
        return x


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Immutable node samples of a function on a grid.

    Supports pointwise linear arithmetic (same grid and value shape
    required, result of the left operand's type), which is what the
    operator and semigroup routines need.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64, copy=True)
        self._check_values(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def _check_values(self, v: np.ndarray) -> None:
        if v.shape != (self.grid.n_cells + 1,):
            raise ValueError(
                f"expected {self.grid.n_cells + 1} node values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("node values must be finite")

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=np.float64))

    def norm(self) -> float:
        """Discrete sup norm: max of |values| over the nodes."""
        return float(np.max(np.abs(self.values)))

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid or self.values.shape != other.values.shape:
            raise ValueError("grid or shape mismatch in GridFunction arithmetic")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return type(self)(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return type(self)(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return type(self)(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "GridFunction":
        return type(self)(self.grid, self.values / float(scalar))

    def __neg__(self) -> "GridFunction":
        return type(self)(self.grid, -self.values)


def supnorm(f: GridFunction) -> float:
    return f.norm()


def integrate(f: GridFunction) -> float:
    """Trapezoid quadrature over the whole grid; exact on affine data."""
    return float(np.trapezoid(f.values, dx=f.grid.h))


def differentiate(f: GridFunction) -> GridFunction:
    """First derivative: central differences inside, second-order one-sided
    stencils at both endpoints.  Exact on quadratics."""
    return GridFunction(f.grid, np.gradient(f.values, f.grid.h, edge_order=2))


def window_mask(grid: Grid, lo: float, hi: float) -> np.ndarray:
    """Nodes in [lo, hi], widened by 1e-9 h so that endpoints on nodes count."""
    tol = 1e-9 * grid.h
    return (grid.nodes >= lo - tol) & (grid.nodes <= hi + tol)


def window_sup(f: GridFunction, lo: float, hi: float) -> float:
    """Max of |values| over the grid nodes lying in [lo, hi].

    The window is intersected with the grid interval; an empty intersection
    is rejected.  Nodes are selected by :func:`window_mask`.
    """
    if not lo <= hi:
        raise ValueError("window requires lo <= hi")
    g = f.grid
    if hi < g.a or lo > g.b:
        raise ValueError(
            f"window [{lo}, {hi}] does not intersect the grid interval [{g.a}, {g.b}]")
    mask = window_mask(g, lo, hi)
    if not np.any(mask):
        raise ValueError(f"window [{lo}, {hi}] contains no grid node")
    return float(np.max(np.abs(f.values[mask])))


def write_rows(path, header: list[str], rows) -> None:
    """CSV rows in a new file and directory: strings as given, integers in
    decimal, every other number with 17 significant digits."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else
                             (str(v) if isinstance(v, (int, np.integer))
                              else format(float(v), ".17g")) for v in row])


def write_csv(f: GridFunction, path) -> None:
    """Serialize as 'x,value' rows with full double precision."""
    write_rows(path, ["x", "value"], zip(f.grid.nodes, f.values))


def read_csv(path) -> GridFunction:
    """Load a GridFunction written by :func:`write_csv` (uniform x required)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x", "value"]:
            raise ValueError("expected 'x,value' header")
        rows = [(float(x), float(v)) for x, v in reader]
    if len(rows) < 3:
        raise ValueError("need at least three rows for a grid")
    x = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    h = (x[-1] - x[0]) / (len(x) - 1)
    if not np.allclose(np.diff(x), h, rtol=0, atol=1e-9 * max(abs(h), 1.0)):
        raise ValueError("x column is not a uniform grid")
    return GridFunction(Grid(float(x[0]), float(x[-1]), len(x) - 1), v)
