"""Uniform grids on an interval and function samples living on them.

All continuum objects in this package are represented by their values on
the nodes of a uniform grid.  Derivatives of samples use second-order
difference stencils, exact on quadratics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


def check_integer(value, low: int, message: str, high: float = math.inf) -> int:
    """``value`` as an int; ``ValueError(message)`` unless it is an integer in
    [low, high] (inf and nan are not integers)."""
    try:
        n = int(value)
    except (OverflowError, ValueError):
        raise ValueError(message) from None
    if n != value or not low <= n <= high:
        raise ValueError(message)
    return n


def check_lambda(lam) -> float:
    """Resolvent parameter ``lam`` as a float; ``ValueError`` unless finite and > 0."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    return float(lam)


def check_lambdas(lambdas) -> list[float]:
    """:func:`check_lambda` of each entry of a list that must not be empty."""
    if len(lambdas) == 0:
        raise ValueError("need at least one lambda, got none")
    return [check_lambda(lam) for lam in lambdas]


def check_times(times) -> np.ndarray:
    """Semigroup times (or one time) as a float array; ``ValueError`` unless
    each is finite and nonnegative."""
    times = np.asarray(times, dtype=np.float64)
    if not np.all((times >= 0) & (times < np.inf)):
        raise ValueError("semigroup time must be finite and nonnegative")
    return times


def check_orbit_sum(times, weights) -> tuple[np.ndarray, np.ndarray]:
    """:func:`check_times` of a list of times, and the weights as floats;
    ``ValueError`` unless there are some times and one weight per time."""
    times, weights = check_times(times), np.asarray(weights, dtype=np.float64)
    if times.ndim != 1 or times.size == 0 or weights.shape != times.shape:
        raise ValueError("an orbit sum needs at least one time and one weight per "
                         f"time, got {times.size} times and {weights.size} weights")
    return times, weights


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
        # as Python floats, so that equal grids have equal nodes (a float32
        # endpoint equal to a float would otherwise give float32 nodes)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "n_cells", check_integer(
            self.n_cells, 2, "grid requires an integer n_cells >= 2"))

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
        if not np.isfinite(v).all():
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


def _first_derivative(values: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """Write the first derivative of ``values`` along its last axis, of at
    least 3 nodes h apart, into ``out`` of the same shape and return it:
    central differences inside, second-order one-sided stencils at both
    ends, bit for bit ``np.gradient(values, h, axis=-1, edge_order=2)``.
    The one stencil of :func:`differentiate`, of the translation
    generators' ``apply`` and of ``network._defect_sups``."""
    np.subtract(values[..., 2:], values[..., :-2], out=out[..., 1:-1])
    out[..., 1:-1] /= 2.0 * h
    out[..., 0] = (-1.5 / h * values[..., 0] + 2.0 / h * values[..., 1]
                   + -0.5 / h * values[..., 2])
    out[..., -1] = (0.5 / h * values[..., -3] + -2.0 / h * values[..., -2]
                    + 1.5 / h * values[..., -1])
    return out


def differentiate(f: GridFunction) -> GridFunction:
    """First derivative: central differences inside, second-order one-sided
    stencils at both endpoints (:func:`_first_derivative`).  Exact on
    quadratics."""
    return GridFunction(f.grid, _first_derivative(f.values, f.grid.h, np.empty_like(f.values)))


def window_runs(grid: Grid, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """First and one-past-last node index of each window [lo, hi] (bounds may
    be arrays): the run of the sorted nodes in [lo, hi], widened by 1e-9 h so
    that endpoints on nodes count."""
    tol = 1e-9 * grid.h
    return (np.searchsorted(grid.nodes, lo - tol, "left"),
            np.searchsorted(grid.nodes, hi + tol, "right"))


def check_window(grid: Grid, lo: float, hi: float, has_node: bool) -> None:
    """``ValueError`` unless lo <= hi and the window [lo, hi] intersects the
    grid interval and holds a node (``has_node``, as the caller found it)."""
    if not lo <= hi:
        raise ValueError("window requires lo <= hi")
    if hi < grid.a or lo > grid.b:
        raise ValueError(f"window [{lo}, {hi}] does not intersect the grid "
                         f"interval [{grid.a}, {grid.b}]")
    if not has_node:
        raise ValueError(f"window [{lo}, {hi}] contains no grid node")


def window_sup(f: GridFunction, lo: float, hi: float) -> float:
    """Max of |values| over the grid nodes lying in [lo, hi].

    The window is intersected with the grid interval; an empty intersection
    is rejected (:func:`check_window`).  Nodes are selected by
    :func:`window_runs`.
    """
    start, stop = window_runs(f.grid, lo, hi)
    check_window(f.grid, lo, hi, bool(start < stop))
    return float(np.max(np.abs(f.values[start:stop])))

