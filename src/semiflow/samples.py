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


def _uniform(lo, hi, u):
    """``rng.uniform(lo, hi)`` of the draw ``u = rng.random()``: numpy's own
    formula lo + (hi - lo) u, so the two agree bit for bit."""
    return lo + (hi - lo) * u


def sample_functions(grid: Grid, count: int, seed: int,
                     vanish_left: bool = False) -> list[tuple[str, GridFunction]]:
    """Draw ``count`` reproducible samples on ``grid``.

    Sample k is of kind ``_KINDS[k % 4]``, and its parameters come from one
    generator in the order of a sample-by-sample draw: the bump's width,
    center and amplitude, the expdecay's rate and amplitude, the
    trigprod's two integer frequencies and amplitude, and the smoothramp's
    location, steepness and amplitude.  Each cycle of four
    samples draws them in four calls, ``random(5)``, two ``integers`` and
    ``random(4)``, and a short last cycle only what its samples need; each
    ``uniform(lo, hi)`` of that order is ``lo + (hi - lo) * random()``,
    which is numpy's formula for it (``_uniform``).  Each kind's formula is
    then evaluated once over all of its rows.  With ``vanish_left`` the
    non-compactly-supported kinds are multiplied by a smooth cutoff
    vanishing at the left endpoint, so every sample satisfies a left
    boundary condition f(a) = 0.
    """
    rng = np.random.default_rng(seed)
    x = grid.nodes
    a, b = grid.a, grid.b
    span = b - a
    n_cycles = -(-count // 4)
    # each cycle's eleven parameters in draw order: five uniforms, two
    # integer frequencies, four uniforms; a short last cycle leaves the
    # entries of its missing samples unread
    draws = np.empty((n_cycles, 11))
    for cycle in range(n_cycles):
        left = count - 4 * cycle  # samples still to draw
        n_first = 3 if left == 1 else 5
        draws[cycle, :n_first] = rng.random(n_first)
        if left > 2:
            draws[cycle, 5:7] = rng.integers(1, 4), rng.integers(1, 3)
            n_last = 1 if left == 3 else 4
            draws[cycle, 7:7 + n_last] = rng.random(n_last)
    # the rows of each kind that was drawn, in kind order; each parameter is
    # a column of one value per row
    p = draws[:, :, None]
    n0, n1, n2, n3 = (len(range(kind, count, 4)) for kind in range(4))
    xa = x - a
    rows = []
    if n0:
        width = span * _uniform(0.1, 0.4, p[:n0, 0])
        center = _uniform(a + 0.6 * width, b - 0.6 * width, p[:n0, 1])
        rows.append(_bump(x, center, width, _uniform(0.2, 2.0, p[:n0, 2])))
    if n1:
        rate = _uniform(0.2, 2.0, p[:n1, 3]) / span
        rows.append(_uniform(0.2, 2.0, p[:n1, 4]) * np.exp(-rate * xa))
    if n2:
        k1, k2, amp = p[:n2, 5], p[:n2, 6], _uniform(0.2, 2.0, p[:n2, 7])
        rows.append(amp * np.sin(k1 * np.pi * xa / span) * np.cos(k2 * xa))
    if n3:
        loc = _uniform(a + 0.2 * span, a + 0.8 * span, p[:n3, 8])
        steep = _uniform(2.0, 8.0, p[:n3, 9]) / span
        amp = _uniform(0.2, 2.0, p[:n3, 10])
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
