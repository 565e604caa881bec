"""Seeded sample library: the bump kind is ``smooth_bump`` on the drawn
parameters, bit for bit, and keeps the draw order of the generator; the
library, which evaluates each kind over all of its rows at once, gives the
values of its row-by-row form."""

import numpy as np
import pytest

from semiflow import Grid, GridFunction, sample_functions, smooth_bump


def _one_sample(grid: Grid, kind: str, rng: np.random.Generator,
                vanish_left: bool) -> np.ndarray:
    # one sample of the row-by-row library, as written before the library
    # evaluated each kind over all of its rows at once
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


def _sample_functions_reference(grid, count, seed, vanish_left=False, rng=None):
    # the row-by-row loop of the library, as written before it evaluated
    # each kind over all of its rows at once; takes a generator to reuse
    rng = np.random.default_rng(seed) if rng is None else rng
    out = []
    for k in range(count):
        kind = _KINDS[k % len(_KINDS)]
        vals = _one_sample(grid, kind, rng, vanish_left)
        out.append((f"{kind}:seed={seed}:k={k}", GridFunction(grid, vals)))
    return out


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


GRIDS = [Grid(0.0, 20.0, 2000), Grid(-10.0, 0.0, 2000), Grid(-2.0, 2.0, 37),
         Grid(0.0, 1.0, 50), Grid(0.0, 1.0, 400)]


@pytest.mark.parametrize("grid", GRIDS, ids=["right", "left", "symmetric", "unit",
                                              "unit400"])
def test_library_matches_row_by_row_reference(grid, monkeypatch):
    # every kind evaluated over all of its rows at once gives the row-by-row
    # values bit for bit, with the same ids, and consumes the same draws
    made = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    for seed in range(30):
        for count in (1, 3, 5, 17, 64):
            for vanish_left in (False, True):
                ref_rng = default_rng(seed)
                ref = _sample_functions_reference(grid, count, seed, vanish_left, ref_rng)
                made.clear()
                with monkeypatch.context() as m:
                    m.setattr(np.random, "default_rng", recording_rng)
                    got = sample_functions(grid, count, seed, vanish_left)
                case = (seed, count, vanish_left)
                assert [sid for sid, _ in got] == [sid for sid, _ in ref], case
                for (_, f), (_, f_ref) in zip(got, ref):
                    assert np.array_equal(f.values, f_ref.values), case
                    assert np.array_equal(np.signbit(f.values), np.signbit(f_ref.values)), case
                assert len(made) == 1, case
                assert made[0].random() == ref_rng.random(), case
