"""Families of windowed sup seminorms and mixed (weighted sup) seminorms.

A compact-window family p_1 <= p_2 <= ... <= p_N takes the sup of |f| over
a growing chain of windows anchored at the origin.  On spaces of bounded
continuous functions, the sup over all windows recovers the sup norm.

Mixed seminorms max_n a_n p_n(f) model the coarser locally convex topology
generated by countable weighted combinations of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import GridFunction, check_integer, window_sup


class WindowOrientation(Enum):
    """Anchoring of the window chain at the origin."""

    RIGHT = "right"      # [0, n]
    LEFT = "left"        # [-n, 0]
    SYMMETRIC = "symmetric"  # [-n, n]


@dataclass(frozen=True)
class CompactSeminormFamily:
    """Seminorms p_n(f) = sup of |f| over the n-th window, n = 1..max_index."""

    orientation: WindowOrientation
    max_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_index", check_integer(
            self.max_index, 1, "max_index must be an integer >= 1"))

    def window(self, n: int) -> tuple[float, float]:
        try:  # the message is built only when n fails
            check_integer(n, 1, "", self.max_index)
        except ValueError:
            raise ValueError(
                f"seminorm index must lie in 1..{self.max_index}, got {n}") from None
        if self.orientation is WindowOrientation.RIGHT:
            return (0.0, float(n))
        if self.orientation is WindowOrientation.LEFT:
            return (-float(n), 0.0)
        return (-float(n), float(n))


@dataclass(frozen=True)
class MixedSeminorm:
    """Weighted sup over a compact-window family: max_n weights[n-1] * p_n."""

    family: CompactSeminormFamily
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.family.max_index,):
            raise ValueError("need one weight per seminorm index")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        if not np.any(w > 0):
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "weights", tuple(float(v) for v in w))


def eval_pn(family: CompactSeminormFamily, n: int, f: GridFunction) -> float:
    """Value of the n-th windowed sup seminorm of f."""
    lo, hi = family.window(n)
    return window_sup(f, lo, hi)


def eval_mixed(m: MixedSeminorm, f: GridFunction) -> float:
    """Value of the mixed seminorm max_n weights[n-1] * p_n(f)."""
    fam = m.family
    return max(m.weights[n - 1] * eval_pn(fam, n, f) for n in range(1, fam.max_index + 1))

