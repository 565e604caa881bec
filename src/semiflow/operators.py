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
at every grid resolution, not just asymptotically.  The two translation
generators also carry the powers (lambda R(lambda))^m in closed form: on
node values that vanish at the left end, lambda R(lambda) is a
lower-triangular Toeplitz matrix, so its m-th power is one causal
convolution power of its first column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import damped_cumulative_integral
from .grid import Grid, GridFunction, check_integer, check_lambda, differentiate


class ResolventUnavailableError(RuntimeError):
    """Raised when a generator carries no resolvent routine."""


@dataclass(frozen=True)
class Generator:
    """A labeled operator with optional resolvent and a domain predicate.

    ``resolvent_power(lam, m, f)``, where given, is (lam R(lam))^m f computed
    in one piece; it agrees with m sequential resolves up to rounding.
    """

    label: str
    apply: Callable[[GridFunction], GridFunction]
    resolvent: Optional[Callable[[float, GridFunction], GridFunction]]
    domain_check: Callable[[GridFunction], bool]
    resolvent_power: Optional[Callable[[float, int, GridFunction], GridFunction]] = None

    def resolve(self, lam: float, g: GridFunction) -> GridFunction:
        if self.resolvent is None:
            raise ResolventUnavailableError(
                f"generator '{self.label}' has no resolvent")
        return self.resolvent(check_lambda(lam), g)


def resolvent_shift(lam: float, g: GridFunction) -> GridFunction:
    """Resolvent of the left shift with zero boundary value at the left end:

        (R(lam) g)(x) = int_a^x exp(lam (t - x)) g(t) dt

    evaluated at every node with the panel-exact damped quadrature.  The
    result vanishes at the left endpoint, satisfies the boundary condition
    of the domain, and obeys lam * sup|R g| <= sup|g| exactly.
    """
    lam = check_lambda(lam)
    vals = damped_cumulative_integral(g.values, g.grid.h, lam)
    return GridFunction(g.grid, vals)


def right_translation_resolvent(lam: float, g: GridFunction) -> GridFunction:
    """Resolvent of the no-boundary-condition shift on an interval cut off at
    the left: the half-line integral

        (R(lam) g)(x) = int_{-inf}^x exp(-lam (x - s)) g(s) ds

    with g extended constantly by its leftmost value.  The cutoff tail is
    integrated in closed form, the on-grid part with the damped quadrature.
    """
    lam = check_lambda(lam)
    grid = g.grid
    main = damped_cumulative_integral(g.values, grid.h, lam)
    tail = (g.values[0] / lam) * np.exp(-lam * (grid.nodes - grid.a))
    return GridFunction(grid, main + tail)


def _toeplitz_step_power(lam: float, h: float, k: int,
                         data: np.ndarray) -> np.ndarray:
    """T^k data, where T is lam * R(lam) of the left shift on a grid of
    width h, acting on nodes 1..N of node values that vanish at node 0, and
    ``data`` holds nodes 1..N.

    T is lower-triangular Toeplitz with symbol lam h (B + A z)/(1 - d z)
    (d, A, B from ``panel_decay_weights(lam h)``).  Its first column is the
    response to e_1, read from row 1 on; column 0 of lam * R(lam) lacks the
    B weight, so it is not Toeplitz.  T^k data is the column's causal
    convolution power times the data, truncated to N terms at every product
    (exact, as every sequence is causal): FFT repeated squaring in
    O(N log N log k).  The data are scaled by a power of two, exactly, so
    that no FFT sum overflows.
    """
    if k == 0:
        return data
    n = data.size
    e1 = np.zeros(n + 1)
    e1[1] = 1.0
    column = lam * damped_cumulative_integral(e1, h, lam)[1:]
    size = 1 << (2 * n - 2).bit_length()  # >= 2N - 1: nothing wraps into N terms
    rfft, irfft = np.fft.rfft, np.fft.irfft
    _, e = np.frexp(np.max(np.abs(data)))
    out = np.ldexp(data, -e)
    base = rfft(column, size)
    while True:
        if k & 1:
            out = irfft(rfft(out, size) * base, size)[:n]
        k >>= 1
        if not k:
            return np.ldexp(out, e)
        base = rfft(irfft(base * base, size)[:n], size)


def _shift_resolvent_power(lam: float, m: int, g: GridFunction) -> GridFunction:
    """(lam R(lam))^m g for the left shift: one exact step, which makes the
    left value 0, then the Toeplitz power of the step for the other m - 1."""
    lam = check_lambda(lam)
    out = lam * damped_cumulative_integral(g.values, g.grid.h, lam)
    out[1:] = _toeplitz_step_power(lam, g.grid.h, m - 1, out[1:])
    return GridFunction(g.grid, out)


def _right_translation_resolvent_power(lam: float, m: int,
                                       g: GridFunction) -> GridFunction:
    """(lam R(lam))^m g for the right translation.  lam R(lam) fixes the
    constants and the left value, so (lam R)^m g = g_0 + T^m (g - g_0), with
    T the Toeplitz step of the left shift."""
    lam = check_lambda(lam)
    v0 = g.values[0]
    out = np.full_like(g.values, v0)
    out[1:] += _toeplitz_step_power(lam, g.grid.h, m, g.values[1:] - v0)
    return GridFunction(g.grid, out)


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

    return Generator("left_shift", _minus_derivative, resolvent_shift, domain_check,
                     _shift_resolvent_power)


def right_translation_generator(grid: Grid) -> Generator:
    """Translation generator A f = -f' without boundary condition."""
    return Generator("right_translation", _minus_derivative,
                     right_translation_resolvent, lambda f: True,
                     _right_translation_resolvent_power)


def laplacian_generator(grid: Grid) -> Generator:
    """Second derivative A f = f''; resolvent deliberately unavailable."""

    def apply(f: GridFunction) -> GridFunction:
        return GridFunction(f.grid, _second_derivative(f.values, f.grid.h))

    return Generator("laplacian", apply, None, lambda f: True)


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
    n = check_integer(n, 1, "matrix size must be an integer >= 1")
    if not h > 0:
        raise ValueError("mesh width must be positive")
    m = np.zeros((n, n))
    np.fill_diagonal(m, -1.0 / h)
    idx = np.arange(1, n)
    m[idx, idx - 1] = 1.0 / h
    return UpwindMatrix(n, float(h), m)
