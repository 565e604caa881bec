"""Seeded library of sample functions used by the certificate checks.

Every sample carries a reproducible identifier of the form
``kind:seed=<seed>:k=<index>`` so check reports can name the exact input
that produced a witness.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridFunction, check_integer


def smooth_bump(grid: Grid, center: float, width: float, amplitude: float = 1.0) -> GridFunction:
    """cos^2 bump supported on [center - width/2, center + width/2]."""
    x = grid.nodes
    r = (x - center) / (width / 2.0)
    out = np.zeros_like(x)
    inside = np.abs(r) < 1.0
    out[inside] = amplitude * np.cos(0.5 * np.pi * r[inside]) ** 2
    return GridFunction(grid, out)


def plateau_ramp(grid: Grid, n: int) -> GridFunction:
    """Plateau-and-ramp profile on an interval ending at 0: the value is 1 up
    to -(n+1), falls linearly to 0 at -n, and stays 0 on [-n, 0].

    Every windowed seminorm over [-m, 0] with m <= n vanishes on it, yet the
    half-line resolvent of the profile is strictly positive there, which is
    the counterexample input for the translation generator.
    """
    check_integer(n, 1, "ramp index n must be an integer >= 1")
    x = grid.nodes
    out = np.clip(-x - n, 0.0, 1.0)
    return GridFunction(grid, out)


def _one_sample(grid: Grid, kind: str, rng: np.random.Generator,
                vanish_left: bool) -> np.ndarray:
    x = grid.nodes
    a, b = grid.a, grid.b
    span = b - a
    if kind == "bump":
        width = span * rng.uniform(0.1, 0.4)
        center = rng.uniform(a + 0.6 * width, b - 0.6 * width)
        amp = rng.uniform(0.2, 2.0)
        return smooth_bump(grid, center, width, amp).values
    if kind == "expdecay":
        rate = rng.uniform(0.2, 2.0) / span
        amp = rng.uniform(0.2, 2.0)
        out = amp * np.exp(-rate * (x - a))
    elif kind == "trigprod":
        k1 = rng.integers(1, 4)
        k2 = rng.integers(1, 3)
        amp = rng.uniform(0.2, 2.0)
        out = amp * np.sin(k1 * np.pi * (x - a) / span) * np.cos(k2 * (x - a))
    elif kind == "smoothramp":
        loc = rng.uniform(a + 0.2 * span, a + 0.8 * span)
        steep = rng.uniform(2.0, 8.0) / span
        amp = rng.uniform(0.2, 2.0)
        out = amp * 0.5 * (1.0 + np.tanh(steep * (x - loc) * 4.0))
    else:
        raise ValueError(f"unknown sample kind '{kind}'")
    if vanish_left:
        # smooth factor vanishing at the left endpoint, for boundary domains
        out = out * (-np.expm1(-(x - a) / (0.15 * span)))
    return out


_KINDS = ("bump", "expdecay", "trigprod", "smoothramp")


def sample_functions(grid: Grid, count: int, seed: int,
                     vanish_left: bool = False) -> list[tuple[str, GridFunction]]:
    """Draw ``count`` reproducible samples on ``grid``.

    With ``vanish_left`` the non-compactly-supported kinds are multiplied by
    a smooth cutoff vanishing at the left endpoint, so every sample satisfies
    a left boundary condition f(a) = 0.
    """
    rng = np.random.default_rng(seed)
    out: list[tuple[str, GridFunction]] = []
    for k in range(count):
        kind = _KINDS[k % len(_KINDS)]
        vals = _one_sample(grid, kind, rng, vanish_left)
        out.append((f"{kind}:seed={seed}:k={k}", GridFunction(grid, vals)))
    return out


def probe_functions(grid: Grid, count: int, seed: int) -> list[GridFunction]:
    """Bounded random probes (uniform node values in [-1, 1])."""
    rng = np.random.default_rng(seed)
    return [GridFunction(grid, rng.uniform(-1.0, 1.0, grid.n_cells + 1))
            for _ in range(count)]
