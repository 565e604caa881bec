"""Semigroup actions and the approximation formulas connecting them to
generators and resolvents.

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
from typing import Any, Callable, NamedTuple

import numpy as np

from .grid import Grid, GridFunction
from .operators import Generator


@dataclass(frozen=True)
class Semigroup:
    """A labeled one-parameter family t -> T(t) acting on states."""

    label: str
    apply: Callable[[float, Any], Any]


def _translation_semigroup(label: str,
                           inflow: Callable[[GridFunction], float]) -> Semigroup:
    """Translation (T(t) f)(x) = f(x - t) on the grid nodes, linearly
    interpolated, with the value ``inflow(f)`` entering at the left end."""

    def apply(t: float, f: GridFunction) -> GridFunction:
        if t < 0:
            raise ValueError("semigroup time must be nonnegative")
        x = np.arange(f.grid.n_cells + 1) * f.grid.h
        return GridFunction(f.grid, np.interp(x - t, x, f.values, left=inflow(f)))

    return Semigroup(label, apply)


def shift_semigroup(grid: Grid) -> Semigroup:
    """Left-translation semigroup (T(t) f)(x) = f(x - t), zero inflow at the
    left boundary.  Linear interpolation between nodes keeps each T(t) a
    sup-norm contraction."""
    return _translation_semigroup("shift", lambda f: 0.0)


def right_translation_semigroup(grid: Grid) -> Semigroup:
    """Translation semigroup on an interval cut off at the left, with the
    off-grid part extended constantly by the leftmost value."""
    return _translation_semigroup("right_translation", lambda f: float(f.values[0]))


def euler_apply(gen: Generator, t: float, m: int, f: GridFunction) -> GridFunction:
    """Euler approximation of the semigroup from the resolvent:

        T(t) f  ~  ((m/t) R(m/t, A))^m f

    applied as m sequential resolvent evaluations.  Requires a generator
    with a resolvent; t = 0 returns f unchanged.
    """
    if int(m) != m or m < 1:
        raise ValueError("Euler step count m must be an integer >= 1")
    if t < 0:
        raise ValueError("time must be nonnegative")
    if not gen.has_resolvent:
        # surface the standard error from the generator
        gen.resolve(1.0, f)
    if t == 0:
        return f
    lam = m / t
    out = f
    for _ in range(int(m)):
        out = gen.resolve(lam, out) * lam
    return out


def _trapezoid_orbit(sg: Semigroup, f: Any, ds: float, steps: int,
                     damping: Callable[[float], float]) -> Any:
    """Trapezoid rule for int_0^{steps ds} damping(s) T(s) f ds."""
    acc = None
    for k in range(int(steps) + 1):
        s = k * ds
        w = 0.5 if k in (0, steps) else 1.0
        term = sg.apply(s, f) * (w * damping(s))
        acc = term if acc is None else acc + term
    return acc * ds


class LaplaceResult(NamedTuple):
    value: Any
    tail_bound: float


def laplace_resolvent(sg: Semigroup, lam: float, f: Any, horizon: float,
                      steps: int) -> LaplaceResult:
    """Approximate R(lambda) f by the truncated Laplace transform of the orbit:

        int_0^H exp(-lambda s) T(s) f ds

    with trapezoid time quadrature.  The reported tail bound
    exp(-lambda H) * ||f|| / lambda dominates the discarded integral for a
    contraction semigroup.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if int(steps) != steps or steps < 1:
        raise ValueError("steps must be an integer >= 1")
    value = _trapezoid_orbit(sg, f, horizon / steps, steps,
                             lambda s: math.exp(-lam * s))
    tail = math.exp(-lam * horizon) * f.norm() / lam
    return LaplaceResult(value, tail)


def orbit_integral_residual(gen: Generator, sg: Semigroup, t: float, f: Any,
                            steps: int = 2000) -> float:
    """Residual of A int_0^t T(s) f ds = T(t) f - f in the state norm,
    with trapezoid time quadrature for the orbit integral."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0:
        return 0.0
    orbit = _trapezoid_orbit(sg, f, t / steps, steps, lambda s: 1.0)
    lhs = gen.apply(orbit)
    rhs = sg.apply(t, f) - f
    return (lhs - rhs).norm()
