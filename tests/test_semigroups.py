"""Exact translation semigroups, resolvent power approximation, Laplace
transforms, and the orbit-integral identity."""

import numpy as np
import pytest

from semiflow import (CompactSeminormFamily, Grid, GridFunction,
                      WindowOrientation, euler_apply, eval_pn,
                      laplace_resolvent, left_shift_generator,
                      orbit_integral_residual, right_translation_generator,
                      right_translation_semigroup, shift_semigroup,
                      smooth_bump, supnorm)


def hat(grid, lo, hi):
    x = grid.nodes
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return GridFunction(grid, np.clip(1.0 - np.abs(x - mid) / half, 0.0, None))


def test_shift_identity_at_zero():
    g = Grid(0.0, 20.0, 400)
    sg = shift_semigroup(g)
    f = smooth_bump(g, 3.0, 1.0)
    assert supnorm(sg.apply(0.0, f) - f) == 0.0


def test_shift_translates_hat():
    g = Grid(0.0, 20.0, 400)  # h = 0.05, t = 0.5 is node-aligned
    sg = shift_semigroup(g)
    f = hat(g, 1.0, 2.0)
    out = sg.apply(0.5, f)
    # the flow solves u_t = -u_x, so the profile travels toward larger x
    ref = hat(g, 1.5, 2.5)
    assert supnorm(out - ref) < 1e-14


def test_shift_semigroup_law_on_aligned_steps():
    g = Grid(0.0, 20.0, 400)
    sg = shift_semigroup(g)
    f = hat(g, 3.0, 5.0)
    a = sg.apply(0.75, sg.apply(0.5, f))
    b = sg.apply(1.25, f)
    assert supnorm(a - b) < 1e-14


def test_right_translation_keeps_left_limit():
    g = Grid(-10.0, 0.0, 400)
    sg = right_translation_semigroup(g)
    f = GridFunction.from_callable(g, lambda x: np.exp(x))
    out = sg.apply(2.0, f)
    # material moves right; the far-left value extends by its boundary limit
    ref = np.interp(g.nodes - 2.0, g.nodes, f.values, left=f.values[0])
    assert supnorm(out - GridFunction(g, ref)) < 1e-15


def test_euler_zero_input_and_identity_cases():
    g = Grid(0.0, 10.0, 500)
    gen = left_shift_generator(g)
    z = GridFunction(g, np.zeros(501))
    assert supnorm(euler_apply(gen, 1.0, 16, z)) == 0.0
    f = smooth_bump(g, 3.0, 1.0)
    assert supnorm(euler_apply(gen, 0.0, 4, f) - f) == 0.0
    with pytest.raises(ValueError):
        euler_apply(gen, 1.0, 0, f)
    with pytest.raises(ValueError):
        euler_apply(gen, -1.0, 4, f)


def test_euler_ladder_decreases_toward_exact_orbit():
    g = Grid(0.0, 6.0, 1500)
    gen = left_shift_generator(g)
    sg = shift_semigroup(g)
    f = smooth_bump(g, 2.5, 1.0)
    exact = sg.apply(1.0, f)
    fam = CompactSeminormFamily(WindowOrientation.RIGHT, 5)
    errs = [eval_pn(fam, 5, euler_apply(gen, 1.0, m, f) - exact)
            for m in (4, 16, 64)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.2


def test_laplace_resolvent_matches_exact_resolvent():
    g = Grid(0.0, 20.0, 2000)
    gen = left_shift_generator(g)
    sg = shift_semigroup(g)
    f = smooth_bump(g, 2.0, 1.0)
    approx, tail = laplace_resolvent(sg, 1.0, f, 15.0, 3000)
    exact = gen.resolve(1.0, f)
    assert supnorm(approx - exact) < 1e-3
    assert tail == pytest.approx(np.exp(-15.0) * supnorm(f) / 1.0, rel=1e-12)


def test_laplace_tail_bound_formula():
    g = Grid(0.0, 10.0, 200)
    sg = shift_semigroup(g)
    f = smooth_bump(g, 2.0, 1.0, amplitude=3.0)
    _, tail = laplace_resolvent(sg, 2.0, f, 5.0, 100)
    assert tail == pytest.approx(np.exp(-10.0) * 3.0 / 2.0, rel=1e-12)


def test_orbit_integral_residual_small_t():
    g = Grid(0.0, 10.0, 2000)
    gen = left_shift_generator(g)
    sg = shift_semigroup(g)
    f = smooth_bump(g, 4.0, 2.0)
    r = orbit_integral_residual(gen, sg, 1e-6, f, steps=50)
    assert r <= 1e-6 * supnorm(f)


def test_orbit_integral_residual_zero_function():
    g = Grid(0.0, 10.0, 500)
    gen = left_shift_generator(g)
    sg = shift_semigroup(g)
    z = GridFunction(g, np.zeros(501))
    assert orbit_integral_residual(gen, sg, 0.5, z, steps=100) == 0.0


def test_orbit_integral_residual_shift_pair():
    g = Grid(0.0, 10.0, 2000)
    gen = left_shift_generator(g)
    sg = shift_semigroup(g)
    f = smooth_bump(g, 4.0, 2.0)
    r = orbit_integral_residual(gen, sg, 0.5, f, steps=2000)
    assert r <= 1e-3 * supnorm(f)


def test_right_translation_euler_converges():
    g = Grid(-10.0, 0.0, 1500)
    gen = right_translation_generator(g)
    sg = right_translation_semigroup(g)
    f = smooth_bump(g, -5.0, 1.0)
    fam = CompactSeminormFamily(WindowOrientation.LEFT, 5)
    exact = sg.apply(1.0, f)
    e16 = eval_pn(fam, 5, euler_apply(gen, 1.0, 16, f) - exact)
    e128 = eval_pn(fam, 5, euler_apply(gen, 1.0, 128, f) - exact)
    assert e128 < e16


def _translate_reference(values, h, t, fill_left):
    # the translation formula before the two semigroups shared one factory,
    # as written
    n = values.shape[0] - 1
    x = np.arange(n + 1) * h
    return np.interp(x - t, x, values, left=fill_left)


@pytest.mark.parametrize("grid", [Grid(0.0, 20.0, 400), Grid(-6.0, 0.0, 4000),
                                  Grid(-1.0, 2.0, 7)], ids=["right", "left", "coarse"])
def test_translation_semigroups_match_reference(grid):
    rng = np.random.default_rng(11)
    f = GridFunction(grid, rng.uniform(-1.0, 1.0, grid.n_cells + 1))
    shift, right = shift_semigroup(grid), right_translation_semigroup(grid)
    assert (shift.label, right.label) == ("shift", "right_translation")
    for t in (0.0, 0.05, 0.37, 1.0, 2.5, 50.0):
        assert np.array_equal(shift.apply(t, f).values,
                              _translate_reference(f.values, grid.h, t, 0.0)), t
        assert np.array_equal(right.apply(t, f).values,
                              _translate_reference(f.values, grid.h, t,
                                                   float(f.values[0]))), t
    for sg in (shift, right):
        with pytest.raises(ValueError):
            sg.apply(-0.1, f)
