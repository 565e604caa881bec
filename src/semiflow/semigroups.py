"""Semigroup actions and the approximation formulas connecting them to
generators and resolvents.

A semigroup acts on one time with ``apply(t, f)`` and along an orbit with
``orbit(times, f)``, which yields the node values of T(t) f for many times
in blocks of rows; ``apply`` is its one-time case.

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
from itertools import chain
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .grid import Grid, GridFunction, check_integer, check_lambda
from .operators import Generator

# Most state values one orbit block holds (at least one state per block).
ORBIT_BLOCK_VALUES = 2 ** 12


@dataclass(frozen=True)
class Semigroup:
    """A labeled one-parameter family t -> T(t) acting on states.

    ``apply(t, f)`` returns the state T(t) f.  ``orbit(times, f)`` yields
    the node values of T(t) f for each t in ``times`` as blocks of rows, one
    row per time in the order of ``times``, each row equal bit for bit to
    ``apply(t, f).values``; a block holds at most ``ORBIT_BLOCK_VALUES``
    values or a single state.  One exception: on a network whose speeds fit
    a time grid, an orbit with a time off that grid traces all its times,
    and a row may differ from ``apply`` at a grid time by rounding, or take
    the other side of a jump (``network.characteristics_orbit``).
    """

    label: str
    apply: Callable[[float, Any], Any]
    orbit: Callable[[Sequence[float], Any], Iterator[np.ndarray]]


def orbit_semigroup(label: str,
                    orbit: Callable[[Sequence[float], Any], Iterator[np.ndarray]]
                    ) -> Semigroup:
    """The semigroup whose ``apply`` is the one-time case of ``orbit``."""

    def apply(t: float, f: Any) -> Any:
        return type(f)(f.grid, next(orbit([t], f))[0])

    return Semigroup(label, apply, orbit)


def time_blocks(times: Sequence[float], state_size: int) -> Iterator[np.ndarray]:
    """Split finite nonnegative ``times`` into consecutive blocks of at most
    ``ORBIT_BLOCK_VALUES // state_size`` times (at least one)."""
    times = np.asarray(times, dtype=np.float64)
    if not np.all((times >= 0) & (times < np.inf)):
        raise ValueError("semigroup time must be finite and nonnegative")
    per = max(1, ORBIT_BLOCK_VALUES // state_size)
    return (times[k:k + per] for k in range(0, times.size, per))


def _translation_semigroup(label: str,
                           inflow: Callable[[GridFunction], float]) -> Semigroup:
    """Translation (T(t) f)(x) = f(x - t) on the grid nodes, linearly
    interpolated, with the value ``inflow(f)`` entering at the left end."""

    def orbit(times: Sequence[float], f: GridFunction) -> Iterator[np.ndarray]:
        x = np.arange(f.grid.n_cells + 1) * f.grid.h
        fill = inflow(f)
        for block in time_blocks(times, x.size):
            yield np.interp(x - block[:, None], x, f.values, left=fill)

    return orbit_semigroup(label, orbit)


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

    computed by the generator's ``resolvent_power`` where it has one (the
    translation generators: a causal convolution power, O(N log N log m)),
    otherwise as m sequential resolvent evaluations.  Requires a generator
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


def _check_steps(steps: int) -> None:
    check_integer(steps, 1, "steps must be an integer >= 1")


def _trapezoid_orbit(sg: Semigroup, f: Any, ds: float, steps: int,
                     damping: Callable[[float], float]) -> Any:
    """Trapezoid rule for int_0^{steps ds} damping(s) T(s) f ds, summed on
    node values in time order into one state of the type of ``f``."""
    times = [k * ds for k in range(int(steps) + 1)]
    acc = None
    for k, values in enumerate(chain.from_iterable(sg.orbit(times, f))):
        w = 0.5 if k in (0, steps) else 1.0
        term = values * (w * damping(times[k]))
        acc = term if acc is None else acc + term
    return type(f)(f.grid, acc * ds)


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
    lam = check_lambda(lam)
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    _check_steps(steps)
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
    _check_steps(steps)
    if t == 0:
        return 0.0
    orbit = _trapezoid_orbit(sg, f, t / steps, steps, lambda s: 1.0)
    lhs = gen.apply(orbit)
    rhs = sg.apply(t, f) - f
    return (lhs - rhs).norm()
