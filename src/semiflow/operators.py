"""Concrete generators on grid functions and their exact resolvents.

Three model operators:

``left_shift_generator``
    A f = -f' with boundary condition f = 0 at the left endpoint.  The
    generator of the left-translation contraction semigroup on [a, b].

``right_translation_generator``
    A f = -f' without boundary condition, on an interval ending at 0.  The
    generator of translation toward the right on functions extended
    constantly to the left of the grid.

``laplacian_generator``
    A f = f''.  No resolvent is attached: this operator serves as the
    negative example for the windowed-seminorm dissipativity checks.

Resolvents integrate exp-damped data with the panel-exact scheme from
``_kernels``, so lambda * R(lambda) is a sup-norm contraction on the nodes
at every grid resolution, not just asymptotically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import damped_cumulative_integral
from .grid import Grid, GridFunction, differentiate


class ResolventUnavailableError(RuntimeError):
    """Raised when a generator carries no resolvent routine."""


@dataclass(frozen=True)
class Generator:
    """A labeled operator with optional resolvent and a domain predicate."""

    label: str
    apply: Callable[[GridFunction], GridFunction]
    resolvent: Optional[Callable[[float, GridFunction], GridFunction]]
    domain_check: Callable[[GridFunction], bool]

    @property
    def has_resolvent(self) -> bool:
        return self.resolvent is not None

    def resolve(self, lam: float, g: GridFunction) -> GridFunction:
        if self.resolvent is None:
            raise ResolventUnavailableError(
                f"generator '{self.label}' has no resolvent")
        if not lam > 0:
            raise ValueError("resolvent parameter lambda must be positive")
        return self.resolvent(lam, g)


def resolvent_shift(lam: float, g: GridFunction) -> GridFunction:
    """Resolvent of the left shift with zero boundary value at the left end:

        (R(lam) g)(x) = int_a^x exp(lam (t - x)) g(t) dt

    evaluated at every node with the panel-exact damped quadrature.  The
    result vanishes at the left endpoint, satisfies the boundary condition
    of the domain, and obeys lam * sup|R g| <= sup|g| exactly.
    """
    if not lam > 0:
        raise ValueError("resolvent parameter lambda must be positive")
    vals = damped_cumulative_integral(g.values, g.grid.h, lam)
    return GridFunction(g.grid, vals)


def right_translation_resolvent(lam: float, g: GridFunction) -> GridFunction:
    """Resolvent of the no-boundary-condition shift on an interval cut off at
    the left: the half-line integral

        (R(lam) g)(x) = int_{-inf}^x exp(-lam (x - s)) g(s) ds

    with g extended constantly by its leftmost value.  The cutoff tail is
    integrated in closed form, the on-grid part with the damped quadrature.
    """
    if not lam > 0:
        raise ValueError("resolvent parameter lambda must be positive")
    grid = g.grid
    main = damped_cumulative_integral(g.values, grid.h, lam)
    tail = (g.values[0] / lam) * np.exp(-lam * (grid.nodes - grid.a))
    return GridFunction(grid, main + tail)


def _second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Central second difference inside; one-sided 5-point stencils at the
    endpoints.  Exact on quadratics (the end stencils on quartics)."""
    n = values.shape[0] - 1
    if n < 4:
        raise ValueError("second derivative stencil needs n_cells >= 4")
    out = np.empty_like(values)
    out[1:-1] = (values[:-2] - 2.0 * values[1:-1] + values[2:]) / (h * h)
    end = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0
    out[0] = np.dot(end, values[:5]) / (h * h)
    out[-1] = np.dot(end, values[-1:-6:-1]) / (h * h)
    return out


def _minus_derivative(f: GridFunction) -> GridFunction:
    """A f = -f', shared by both translation generators."""
    return -differentiate(f)


def left_shift_generator(grid: Grid) -> Generator:
    """Left shift A f = -f' with domain {f : f(a) = 0}."""

    def domain_check(f: GridFunction) -> bool:
        return abs(float(f.values[0])) <= 1e-12

    return Generator("left_shift", _minus_derivative, resolvent_shift, domain_check)


def right_translation_generator(grid: Grid) -> Generator:
    """Translation generator A f = -f' without boundary condition."""
    return Generator("right_translation", _minus_derivative,
                     right_translation_resolvent, lambda f: True)


def laplacian_generator(grid: Grid) -> Generator:
    """Second derivative A f = f''; resolvent deliberately unavailable."""

    def apply(f: GridFunction) -> GridFunction:
        return GridFunction(f.grid, _second_derivative(f.values, f.grid.h))

    return Generator("laplacian", apply, None, lambda f: True)


def zero_generator(grid: Grid) -> Generator:
    """A = 0 surrogate: dissipative with equality, R(lam) = (1/lam) I."""

    def apply(f: GridFunction) -> GridFunction:
        return GridFunction(f.grid, np.zeros_like(f.values))

    def resolvent(lam: float, g: GridFunction) -> GridFunction:
        return g / lam

    return Generator("zero", apply, resolvent, lambda f: True)


@dataclass(frozen=True)
class UpwindMatrix:
    """Dense first-order upwind discretization of the left shift.

    Lower bidiagonal: -1/h on the diagonal, +1/h on the subdiagonal.  The
    boundary node (where f = 0) is eliminated, so the matrix acts on the
    remaining n interior and right nodes.
    """

    size: int
    h: float
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.float64, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def upwind_discretize(n: int, h: float) -> UpwindMatrix:
    """Build the n-by-n upwind matrix for mesh width h."""
    if int(n) != n or n < 1:
        raise ValueError("matrix size must be an integer >= 1")
    if not h > 0:
        raise ValueError("mesh width must be positive")
    n = int(n)
    m = np.zeros((n, n))
    np.fill_diagonal(m, -1.0 / h)
    idx = np.arange(1, n)
    m[idx, idx - 1] = 1.0 / h
    return UpwindMatrix(n, float(h), m)
