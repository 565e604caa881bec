"""Semigroup actions and the approximation formulas connecting them to
generators and resolvents.

A semigroup acts on one time with ``apply(t, f)`` and along an orbit with
``orbit_sum(times, weights, f)``, the node values of the weighted sum
sum_k weights[k] T(times[k]) f; the quadratures below take their orbit
integrals through it.  Both act on the grid of the state they are given,
so the factories take no grid.

The three bridges verified at desk scale:

* Euler formula: T(t) f is the m-fold application of (m/t) R(m/t, A).
* Laplace transform: R(lambda, A) f is the time integral of
  exp(-lambda s) T(s) f, truncated at a horizon with an explicit tail bound.
* Orbit integral: A applied to the integral of the orbit up to t equals
  T(t) f - f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ._kernels import translation_orbit_sum, translation_row
from .grid import GridFunction, check_integer, check_lambda, check_orbit_sum, check_times
from .operators import Generator


@dataclass(frozen=True)
class Semigroup:
    """A labeled one-parameter family t -> T(t) acting on states.

    ``apply(t, f)`` returns the state T(t) f.  ``orbit_sum(times, weights,
    f)`` returns the node values of sum_k weights[k] T(times[k]) f, for at
    least one time and one weight per time (``grid.check_orbit_sum``).  The
    translations take it as one causal convolution, equal to the sum of
    their ``apply`` rows up to rounding (``_kernels.translation_orbit_sum``);
    the network flow sums its orbit's rows in time order.
    """

    label: str
    apply: Callable[[float, Any], Any]
    orbit_sum: Callable[[Sequence[float], Sequence[float], Any], np.ndarray]


def _translation_semigroup(label: str,
                           inflow: Callable[[GridFunction], float]) -> Semigroup:
    """Translation (T(t) f)(x) = f(x - t) on the grid nodes, linearly
    interpolated, with the value ``inflow(f)`` entering at the left end.
    Weighted orbit sums are one causal convolution."""

    def apply(t: float, f: GridFunction) -> GridFunction:
        x = np.arange(f.grid.n_cells + 1) * f.grid.h
        return type(f)(f.grid, translation_row(x - check_times(t), x, f.values, inflow(f)))

    def orbit_sum(times: Sequence[float], weights: Sequence[float],
                  f: GridFunction) -> np.ndarray:
        return translation_orbit_sum(f.values, f.grid.h, inflow(f),
                                     *check_orbit_sum(times, weights))

    return Semigroup(label, apply, orbit_sum)


def shift_semigroup() -> Semigroup:
    """Left-translation semigroup (T(t) f)(x) = f(x - t), zero inflow at the
    left boundary.  Linear interpolation between nodes keeps each T(t) a
    sup-norm contraction."""
    return _translation_semigroup("shift", lambda f: 0.0)


def right_translation_semigroup() -> Semigroup:
    """Translation semigroup on an interval cut off at the left, with the
    off-grid part extended constantly by the leftmost value."""
    return _translation_semigroup("right_translation", lambda f: float(f.values[0]))


def euler_apply(gen: Generator, t: float, m: int, f: GridFunction) -> GridFunction:
    """Euler approximation of the semigroup from the resolvent:

        T(t) f  ~  ((m/t) R(m/t, A))^m f

    computed by the generator's ``resolvent_power`` where it has one (the
    translation generators: a causal convolution power, one spectral power
    in O(N log N + N log m) where its kernel fits the FFT grid, otherwise
    FFT repeated squaring in O(N log N log m)), otherwise as m sequential
    resolvent evaluations.  Requires a generator
    with a resolvent; t = 0 returns f unchanged.
    """
    m = check_integer(m, 1, "Euler step count m must be an integer >= 1")
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")
    if t == 0:
        return f
    lam = m / t
    if gen.resolvent_power is not None:
        return gen.resolvent_power(lam, m, f)
    out = f
    for _ in range(m):
        out = gen.resolve(lam, out) * lam
    return out


def _trapezoid_orbit(sg: Semigroup, f: Any, ds: float, steps: int,
                     damping: Callable[[float], float]) -> Any:
    """Trapezoid rule for int_0^{steps ds} damping(s) T(s) f ds, summed on
    node values by ``sg.orbit_sum`` into one state of the type of ``f``."""
    times = [k * ds for k in range(int(steps) + 1)]
    weights = [(0.5 if k in (0, steps) else 1.0) * damping(s)
               for k, s in enumerate(times)]
    return type(f)(f.grid, sg.orbit_sum(times, weights, f) * ds)


def laplace_resolvent(sg: Semigroup, lam: float, f: Any, horizon: float,
                      steps: int) -> tuple[Any, float]:
    """Approximate R(lambda) f by the truncated Laplace transform of the orbit:

        int_0^H exp(-lambda s) T(s) f ds

    with trapezoid time quadrature, returned with its tail bound
    exp(-lambda H) * ||f|| / lambda.  That bound dominates the discarded
    integral only where T(t) is a contraction in ``f.norm()``.  The network
    flow on mixed speeds is not one: on the two-cycle with speeds 1 and 2,
    ||T(t) g|| reaches 2 ||g|| for data on the fast edge, and at lambda = 1
    and H = 2 the discarded part is 1.25 times the returned bound.
    """
    lam = check_lambda(lam)
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    check_integer(steps, 1, "steps must be an integer >= 1")
    value = _trapezoid_orbit(sg, f, horizon / steps, steps,
                             lambda s: math.exp(-lam * s))
    tail = math.exp(-lam * horizon) * f.norm() / lam
    return value, tail


def orbit_integral_residual(gen: Generator, sg: Semigroup, t: float, f: Any,
                            steps: int = 2000) -> float:
    """Residual of A int_0^t T(s) f ds = T(t) f - f in the state norm,
    with trapezoid time quadrature for the orbit integral."""
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    check_integer(steps, 1, "steps must be an integer >= 1")
    if t == 0:
        return 0.0
    orbit = _trapezoid_orbit(sg, f, t / steps, steps, lambda s: 1.0)
    lhs = gen.apply(orbit)
    rhs = sg.apply(t, f) - f
    return (lhs - rhs).norm()
