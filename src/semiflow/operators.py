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

The factories take no argument: a generator acts on the grid of the state
it is given.  Resolvents integrate exp-damped data with the panel-exact
scheme from ``_kernels``, so lambda * R(lambda) is a sup-norm contraction on
the nodes at every grid resolution, not just asymptotically.  Both
translation generators come from one builder, ``_translation_generator``,
given the value that enters at the left end (0 for the left shift, the left
value for the right translation), and carry the powers (lambda R(lambda))^m
in closed form with one routine: lambda R(lambda) fixes that constant u, so
the power is u + (lambda R_0(lambda))^m (g - u), with R_0 the left shift's
resolvent.  On node values that vanish at the left end, lambda R_0(lambda)
is a lower-triangular Toeplitz matrix, known by its symbol, so its power is
one spectral power of that symbol where its kernel fits the padded FFT
grid, and FFT repeated squaring of the truncated first column elsewhere
(``_toeplitz_step_power``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import damped_cumulative_integral
from .grid import GridFunction, check_integer, check_lambda, differentiate


# log 2^-60: the largest kernel mass beyond size - N that a spectral Euler
# power may wrap or alias into its N terms
_LOG_TAIL_LIMIT = -60.0 * math.log(2.0)


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
    with np.errstate(over="ignore"):  # lam (x - a) may pass the float range
        decay = np.exp(-lam * (grid.nodes - grid.a))
    return GridFunction(grid, main + (g.values[0] / lam) * decay)


def _log_tail_bound(c0: float, c1: float, d: float, k: int, tail: int) -> float:
    """log of the Chernoff bound, min over 0 < s < -log d of
    k log S(e^s) - s tail, on the mass beyond ``tail`` >= 1 of the
    probability sequence with generating function S^k, where
    S(w) = c0 + c1 w/(1 - d w); 0.0, the trivial bound, where the mean
    k S'(1) reaches ``tail``.

    In w = e^s the derivative has the sign of a w^2 + b w - c, with
    a = tail d q, q = c1 - c0 d >= 0 and c = tail c0.  That is negative at
    w = 0 and positive at w = 1/d, so the minimum is at its positive root
    when the root passes 1.  Where b <= 0 the root is solved for u = d w,
    since w passes the float range where d is subnormal.
    """
    q = c1 - c0 * d
    b = k * c1 - tail * (c1 - 2.0 * c0 * d)
    if b > 0.0:
        c = tail * c0
        w = 2.0 * c / (b + math.sqrt(b * b + 4.0 * tail * d * q * c))
        log_w, u = math.log(w), d * w
    elif d > 0.0:
        beta = b / (2.0 * tail * q)
        u = math.sqrt(beta * beta + c0 * d / q) - beta
        log_w = math.log(u) - math.log(d)
    else:
        # S(w) = c0 + c1 w, and b <= 0 means c1 = 0 or k <= tail, so S^k
        # has no coefficient beyond tail
        return -math.inf
    if log_w <= 0.0:
        return 0.0
    # k log S(w) - tail log w, with S(w) = w (c0/w + c1/(1 - u))
    return k * math.log(c0 * math.exp(-log_w) + c1 / (1.0 - u)) + (k - tail) * log_w


def _toeplitz_step_power(lam: float, h: float, k: int,
                         data: np.ndarray) -> np.ndarray:
    """T^k data, where T is lam * R(lam) of the left shift on a grid of
    width h, acting on nodes 1..N of node values that vanish at node 0, and
    ``data`` holds nodes 1..N.

    T is lower-triangular Toeplitz, and is read from its symbol alone.  Its
    first column is c_0, c_1, c_1 d, c_1 d^2, ... with d = exp(-lam h), so
    the symbol is S(w) = c_0 + c_1 w/(1 - d w); c_0 and c_1 are rows 1 and 2
    of lam * R(lam) e_1 on three nodes (column 0 of lam * R(lam) lacks the B
    weight of ``panel_decay_weights``, so it is not Toeplitz).  The column
    is a probability sequence (c >= 0, S(1) = 1), and so is the kernel of
    T^k, with generating function S^k.

    Where 0 <= d < 1 and the Chernoff bound puts at most 2^-60 of that
    kernel's mass beyond size - N, T^k data is one spectral power,
    irfft(rfft(data, size) S^k, size)[:N], with S^k taken by binary powering
    on the frequencies: the mass that wraps or aliases into the N terms is
    beyond size - N, so it moves them by at most 2^-60 sup |data|.
    Otherwise (few steps over a long time, or d rounded to 1) the column's
    causal convolution power is taken by FFT repeated squaring, truncated
    to N terms at every product (exact, as every sequence is causal), in
    O(N log N log k).  The data are scaled by a power of two, exactly, so
    that no FFT sum overflows.
    """
    if k == 0:
        return data
    n = data.size
    e1 = np.array([0.0, 1.0, 0.0])
    _, c0, c1 = (lam * damped_cumulative_integral(e1, h, lam)).tolist()
    d = float(np.exp(-lam * h))
    size = 1 << (2 * n - 2).bit_length()  # >= 2N - 1: nothing wraps into N terms
    rfft, irfft = np.fft.rfft, np.fft.irfft
    _, e = np.frexp(np.max(np.abs(data)))
    out = np.ldexp(data, -e)
    if d < 1.0 and _log_tail_bound(c0, c1, d, k, size - n) <= _LOG_TAIL_LIMIT:
        w = np.exp(-2j * np.pi * np.arange(size // 2 + 1) / size)
        base = c0 + c1 * w / (1.0 - d * w)
        spec = rfft(out, size)
        while True:
            if k & 1:
                spec *= base
            k >>= 1
            if not k:
                return np.ldexp(irfft(spec, size)[:n], e)
            base = base * base
    column = np.concatenate(([c0], c1 * d ** np.arange(n - 1)))
    base = rfft(column, size)
    while True:
        if k & 1:
            out = irfft(rfft(out, size) * base, size)[:n]
        k >>= 1
        if not k:
            return np.ldexp(out, e)
        base = rfft(irfft(base * base, size)[:n], size)


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


def _translation_generator(label: str,
                           resolvent: Callable[[float, GridFunction], GridFunction],
                           inflow: Callable[[GridFunction], float]) -> Generator:
    """A f = -f' with the value ``inflow(f)`` entering at the left end, the
    twin of ``semigroups._translation_semigroup``.  Its domain holds the f
    whose left value is inflow(f).  Its power u + (lam R_0)^m (g - u), with
    u = inflow(g), is one exact step of R_0, which makes the left value 0,
    then the Toeplitz power of the step for the other m - 1."""

    def power(lam: float, m: int, g: GridFunction) -> GridFunction:
        lam, u = check_lambda(lam), inflow(g)
        out = lam * damped_cumulative_integral(g.values - u, g.grid.h, lam)
        out[1:] = _toeplitz_step_power(lam, g.grid.h, m - 1, out[1:])
        return GridFunction(g.grid, out + u)

    return Generator(label, lambda f: -differentiate(f), resolvent,
                     lambda f: abs(float(f.values[0]) - inflow(f)) <= 1e-12, power)


def left_shift_generator() -> Generator:
    """Left shift A f = -f' with domain {f : f(a) = 0}."""
    return _translation_generator("left_shift", resolvent_shift, lambda f: 0.0)


def right_translation_generator() -> Generator:
    """Translation generator A f = -f' without boundary condition."""
    return _translation_generator("right_translation", right_translation_resolvent,
                                  lambda f: float(f.values[0]))


def laplacian_generator() -> Generator:
    """Second derivative A f = f''; resolvent deliberately unavailable."""
    return Generator("laplacian",
                     lambda f: GridFunction(f.grid, _second_derivative(f.values, f.grid.h)),
                     None, lambda f: True)


def upwind_discretize(n: int, h: float) -> np.ndarray:
    """The n-by-n first-order upwind matrix of the left shift for mesh width
    h, read-only: lower bidiagonal, -1/h on the diagonal and +1/h on the
    subdiagonal.  The boundary node (where f = 0) is eliminated, so the
    matrix acts on the remaining n interior and right nodes."""
    n = check_integer(n, 1, "matrix size must be an integer >= 1")
    if not h > 0:
        raise ValueError("mesh width must be positive")
    m = np.zeros((n, n))
    np.fill_diagonal(m, -1.0 / h)
    idx = np.arange(1, n)
    m[idx, idx - 1] = 1.0 / h
    m.setflags(write=False)
    return m
