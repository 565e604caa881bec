"""Families of windowed sup seminorms and mixed (weighted sup) seminorms.

A compact-window family p_1 <= p_2 <= ... <= p_N takes the sup of |f| over
a growing chain of windows anchored at the origin.  On spaces of bounded
continuous functions, the sup over all windows recovers the sup norm.

Mixed seminorms max_n a_n p_n(f) model the coarser locally convex topology
generated by countable weighted combinations of the family.

``eval_pn`` reads one seminorm; ``seminorm_ladder`` reads the whole chain
p_1..p_N of a state, or of a stack of states, in one pass over the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .grid import (Grid, GridFunction, check_integer, check_window, window_runs,
                   window_sup)


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

    def _unit_window(self) -> tuple[float, float]:
        """Window 1; window n is n times it."""
        if self.orientation is WindowOrientation.RIGHT:
            return (0.0, 1.0)
        if self.orientation is WindowOrientation.LEFT:
            return (-1.0, 0.0)
        return (-1.0, 1.0)

    def window(self, n: int) -> tuple[float, float]:
        try:  # the message is built only when n fails
            n = check_integer(n, 1, "", self.max_index)
        except ValueError:
            raise ValueError(
                f"seminorm index must lie in 1..{self.max_index}, got {n}") from None
        lo, hi = self._unit_window()
        return (lo * n, hi * n)

    def windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (lo, hi) of the windows 1..max_index, as two float arrays."""
        n = np.arange(1.0, self.max_index + 1)
        lo, hi = self._unit_window()
        return lo * n, hi * n


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


@lru_cache(maxsize=8)
def _ladder_runs(grid: Grid, family: CompactSeminormFamily) -> tuple[np.ndarray, np.ndarray]:
    """:func:`grid.window_runs` of the windows 1..N, read-only, once window 1
    passes ``check_window``.  Cached by value of the two frozen arguments: a
    check reads one grid and one family for all its samples.  An entry keeps
    its grid's nodes alive (8 MB at the CLI's largest grid); a raised error
    is never cached."""
    start, stop = window_runs(grid, *family.windows())
    check_window(grid, *family.window(1), bool(start[0] < stop[0]))
    start.setflags(write=False)
    stop.setflags(write=False)
    return start, stop


def seminorm_ladder(family: CompactSeminormFamily, grid: Grid, values) -> np.ndarray:
    """p_1..p_N of node values on ``grid``: shape (..., n_nodes) -> (..., N).

    Window n holds the run of sorted nodes that :func:`grid.window_runs`
    finds, and the runs are nested.  So p_1 is the max over the first run,
    and p_n = max(p_{n-1}, max over ring n), a ring being the at most two
    runs that window n adds.  Max is exact, so each entry equals
    :func:`eval_pn` bit for bit.  Window 1 lies inside every other, so it
    alone is checked, with ``window_sup``'s errors.  The runs of a grid and
    family are found once (``_ladder_runs``).
    """
    return _ladder_of_abs(family, grid, np.abs(values))


def _ladder_of_abs(family: CompactSeminormFamily, grid: Grid, a: np.ndarray) -> np.ndarray:
    """:func:`seminorm_ladder` of node values ``a`` >= 0, read as their own
    |.|: a caller that owns a stack takes |.| of it in place, not a copy."""
    if a.shape[-1:] != (grid.n_cells + 1,):
        raise ValueError(f"expected {grid.n_cells + 1} node values, got shape {a.shape}")
    start, stop = _ladder_runs(grid, family)
    # maxima over [start_n, start_{n-1}) and, on the reversed nodes, over
    # [stop_{n-1}, stop_n); the last run of each reduceat is not a ring.  An
    # empty run reads one node of window n - 1, which leaves the max as it is
    left = np.maximum.reduceat(a, start[::-1], axis=-1)[..., -2::-1]
    right = np.maximum.reduceat(a[..., ::-1], a.shape[-1] - stop[::-1], axis=-1)[..., -2::-1]
    inner = np.max(a[..., start[0]:stop[0]], axis=-1, keepdims=True)
    rings = np.concatenate([inner, np.maximum(left, right)], axis=-1)
    return np.maximum.accumulate(rings, axis=-1)


def eval_mixed(m: MixedSeminorm, f: GridFunction) -> float:
    """Value of the mixed seminorm max_n weights[n-1] * p_n(f)."""
    return float(np.max(np.asarray(m.weights) * seminorm_ladder(m.family, f.grid, f.values)))
