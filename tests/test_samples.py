"""Seeded sample library: the bump kind is ``smooth_bump`` on the drawn
parameters, bit for bit, and keeps the draw order of the generator."""

import numpy as np
import pytest

from semiflow import Grid, sample_functions, smooth_bump
from semiflow.samples import _one_sample


def _bump_reference(grid, rng):
    # the bump branch of _one_sample before it called smooth_bump, as written
    x = grid.nodes
    a, b = grid.a, grid.b
    span = b - a
    width = span * rng.uniform(0.1, 0.4)
    center = rng.uniform(a + 0.6 * width, b - 0.6 * width)
    amp = rng.uniform(0.2, 2.0)
    r = (x - center) / (width / 2.0)
    out = np.zeros_like(x)
    inside = np.abs(r) < 1.0
    out[inside] = amp * np.cos(0.5 * np.pi * r[inside]) ** 2
    return out


@pytest.mark.parametrize("grid", [Grid(0.0, 20.0, 2000), Grid(-10.0, 0.0, 2000),
                                  Grid(-2.0, 2.0, 37), Grid(0.0, 1.0, 50)],
                         ids=["right", "left", "symmetric", "unit"])
def test_bump_sample_matches_reference(grid):
    for seed in range(20):
        for vanish_left in (False, True):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _one_sample(grid, "bump", rng, vanish_left)
            assert np.array_equal(got, _bump_reference(grid, ref_rng)), seed
            # same draws consumed: the generators stay in step
            assert rng.random() == ref_rng.random()


def test_first_library_sample_is_smooth_bump_of_first_draws():
    grid = Grid(0.0, 20.0, 400)
    rng = np.random.default_rng(7)
    width = 20.0 * rng.uniform(0.1, 0.4)
    center = rng.uniform(0.6 * width, 20.0 - 0.6 * width)
    amp = rng.uniform(0.2, 2.0)
    first = sample_functions(grid, 1, 7)[0][1]
    assert np.array_equal(first.values, smooth_bump(grid, center, width, amp).values)
