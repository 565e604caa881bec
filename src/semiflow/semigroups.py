"""Semigroup actions and the approximation formulas connecting them to
generators and resolvents.

A semigroup acts on one time with ``apply(t, f)`` and along an orbit with
``orbit(times, f)``, which yields the node values of T(t) f for many times
in blocks of rows; ``apply`` is its one-time case.  The quadratures below
take weighted sums of orbit rows through ``orbit_sum(times, weights, f)``.
All three act on the grid of the state they are given, so the factories
take no grid.

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
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ._kernels import translation_orbit_sum
from .grid import GridFunction, check_integer, check_lambda
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

    ``orbit_sum(times, weights, f)`` returns the node values of
    sum_k weights[k] T(times[k]) f.  By default it sums the rows of
    ``orbit`` in time order; the translation semigroups take it as one
    causal convolution, equal to that sum up to rounding
    (``_kernels.translation_orbit_sum``).
    """

    label: str
    apply: Callable[[float, Any], Any]
    orbit: Callable[[Sequence[float], Any], Iterator[np.ndarray]]
    orbit_sum: Callable[[Sequence[float], Sequence[float], Any], np.ndarray]


def orbit_semigroup(label: str,
                    orbit: Callable[[Sequence[float], Any], Iterator[np.ndarray]],
                    orbit_sum: Optional[Callable[[Sequence[float], Sequence[float], Any],
                                                 np.ndarray]] = None) -> Semigroup:
    """The semigroup whose ``apply`` is the one-time case of ``orbit``, and
    whose ``orbit_sum``, unless given, sums the rows of ``orbit``."""

    def apply(t: float, f: Any) -> Any:
        return type(f)(f.grid, next(orbit([t], f))[0])

    def row_sum(times: Sequence[float], weights: Sequence[float], f: Any) -> np.ndarray:
        acc = None
        for c, values in zip(weights, chain.from_iterable(orbit(times, f))):
            term = values * c
            acc = term if acc is None else acc + term
        return acc

    return Semigroup(label, apply, orbit, orbit_sum or row_sum)


def _check_times(times: Sequence[float]) -> np.ndarray:
    """``times`` as a float array, checked finite and nonnegative."""
    times = np.asarray(times, dtype=np.float64)
    if not np.all((times >= 0) & (times < np.inf)):
        raise ValueError("semigroup time must be finite and nonnegative")
    return times


def time_blocks(times: Sequence[float], state_size: int) -> Iterator[np.ndarray]:
    """Split finite nonnegative ``times`` into consecutive blocks of at most
    ``ORBIT_BLOCK_VALUES // state_size`` times (at least one)."""
    times = _check_times(times)
    per = max(1, ORBIT_BLOCK_VALUES // state_size)
    return (times[k:k + per] for k in range(0, times.size, per))


def _translation_semigroup(label: str,
                           inflow: Callable[[GridFunction], float]) -> Semigroup:
    """Translation (T(t) f)(x) = f(x - t) on the grid nodes, linearly
    interpolated, with the value ``inflow(f)`` entering at the left end.
    Weighted orbit sums are one causal convolution."""

    def orbit(times: Sequence[float], f: GridFunction) -> Iterator[np.ndarray]:
        x = np.arange(f.grid.n_cells + 1) * f.grid.h
        fill = inflow(f)
        for block in time_blocks(times, x.size):
            yield np.interp(x - block[:, None], x, f.values, left=fill)

    def orbit_sum(times: Sequence[float], weights: Sequence[float],
                  f: GridFunction) -> np.ndarray:
        return translation_orbit_sum(f.values, f.grid.h, inflow(f),
                                     _check_times(times), weights)

    return orbit_semigroup(label, orbit, orbit_sum)


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


def _trapezoid_orbit(sg: Semigroup, f: Any, ds: float, steps: int,
                     damping: Callable[[float], float]) -> Any:
    """Trapezoid rule for int_0^{steps ds} damping(s) T(s) f ds, summed on
    node values by ``sg.orbit_sum`` into one state of the type of ``f``."""
    times = [k * ds for k in range(int(steps) + 1)]
    weights = [(0.5 if k in (0, steps) else 1.0) * damping(s)
               for k, s in enumerate(times)]
    return type(f)(f.grid, sg.orbit_sum(times, weights, f) * ds)


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
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    check_integer(steps, 1, "steps must be an integer >= 1")
    value = _trapezoid_orbit(sg, f, horizon / steps, steps,
                             lambda s: math.exp(-lam * s))
    tail = math.exp(-lam * horizon) * f.norm() / lam
    return LaplaceResult(value, tail)


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
