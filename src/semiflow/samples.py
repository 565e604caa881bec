"""Seeded library of sample functions used by the certificate checks.

Every sample carries a reproducible identifier of the form
``kind:seed=<seed>:k=<index>`` so check reports can name the exact input
that produced a witness.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridFunction, check_integer


def _bump(x: np.ndarray, center, width, amplitude) -> np.ndarray:
    """cos^2 bump values at the nodes x; center, width and amplitude are
    scalars or columns of one value per row."""
    r = (x - center) / (width / 2.0)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.cos(0.5 * np.pi * r[inside]) ** 2
    return np.multiply(amplitude, out, out=out, where=inside)


def smooth_bump(grid: Grid, center: float, width: float, amplitude: float = 1.0) -> GridFunction:
    """cos^2 bump supported on [center - width/2, center + width/2]."""
    return GridFunction(grid, _bump(grid.nodes, center, width, amplitude))


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


_KINDS = ("bump", "expdecay", "trigprod", "smoothramp")


def _columns(flat: list, n_params: int) -> np.ndarray:
    """``n_params`` parameters per sample, drawn sample after sample, as
    columns: entry i of the result is parameter i of every sample, shape
    (samples, 1)."""
    return np.array(flat, dtype=np.float64).reshape(-1, n_params).T[:, :, None]


def sample_functions(grid: Grid, count: int, seed: int,
                     vanish_left: bool = False) -> list[tuple[str, GridFunction]]:
    """Draw ``count`` reproducible samples on ``grid``.

    Sample k is of kind ``_KINDS[k % 4]``; its parameters are drawn from one
    generator, sample by sample, and each kind's formula is then evaluated
    once over all of its rows.  With ``vanish_left`` the
    non-compactly-supported kinds are multiplied by a smooth cutoff
    vanishing at the left endpoint, so every sample satisfies a left
    boundary condition f(a) = 0.
    """
    rng = np.random.default_rng(seed)
    x = grid.nodes
    a, b = grid.a, grid.b
    span = b - a
    uniform = rng.uniform
    # the parameters of each kind, sample after sample, in draw order
    draws: tuple[list, list, list, list] = ([], [], [], [])
    for k in range(count):
        kind = k % 4
        if kind == 0:  # bump: width, center, amplitude
            width = span * uniform(0.1, 0.4)
            draws[0].extend((width, uniform(a + 0.6 * width, b - 0.6 * width),
                             uniform(0.2, 2.0)))
        elif kind == 1:  # expdecay: rate, amplitude
            draws[1].extend((uniform(0.2, 2.0) / span, uniform(0.2, 2.0)))
        elif kind == 2:  # trigprod: two integer frequencies, amplitude
            draws[2].extend((int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                             uniform(0.2, 2.0)))
        else:  # smoothramp: location, steepness, amplitude
            draws[3].extend((uniform(a + 0.2 * span, a + 0.8 * span),
                             uniform(2.0, 8.0) / span, uniform(0.2, 2.0)))
    # the rows of each kind that was drawn, in kind order
    xa = x - a
    rows = []
    if draws[0]:
        width, center, amp = _columns(draws[0], 3)
        rows.append(_bump(x, center, width, amp))
    if draws[1]:
        rate, amp = _columns(draws[1], 2)
        rows.append(amp * np.exp(-rate * xa))
    if draws[2]:
        k1, k2, amp = _columns(draws[2], 3)
        rows.append(amp * np.sin(k1 * np.pi * xa / span) * np.cos(k2 * xa))
    if draws[3]:
        loc, steep, amp = _columns(draws[3], 3)
        rows.append(amp * 0.5 * (1.0 + np.tanh(steep * (x - loc) * 4.0)))
    if vanish_left and len(rows) > 1:
        # smooth factor vanishing at the left endpoint, for boundary domains;
        # the bump, compactly supported, keeps its values
        cutoff = -np.expm1(-xa / (0.15 * span))
        rows[1:] = [kind_rows * cutoff for kind_rows in rows[1:]]
    return [(f"{_KINDS[k % 4]}:seed={seed}:k={k}", GridFunction(grid, rows[k % 4][k // 4]))
            for k in range(count)]


def probe_functions(grid: Grid, count: int, seed: int) -> list[GridFunction]:
    """Bounded random probes (uniform node values in [-1, 1])."""
    rng = np.random.default_rng(seed)
    return [GridFunction(grid, rng.uniform(-1.0, 1.0, grid.n_cells + 1))
            for _ in range(count)]
