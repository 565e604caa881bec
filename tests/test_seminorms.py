"""Window seminorm families: frozen example values, axioms, and the
mixed-seminorm transfer property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflow import (CompactSeminormFamily, Grid, GridFunction,
                      MixedSeminorm, WindowOrientation, eval_mixed, eval_pn,
                      seminorm_ladder)


RIGHT10 = CompactSeminormFamily(WindowOrientation.RIGHT, 10)


def test_window_ranges():
    fam_r = CompactSeminormFamily(WindowOrientation.RIGHT, 5)
    fam_l = CompactSeminormFamily(WindowOrientation.LEFT, 5)
    fam_s = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 5)
    assert fam_r.window(2) == (0.0, 2.0)
    assert fam_l.window(2) == (-2.0, 0.0)
    assert fam_s.window(2) == (-2.0, 2.0)
    with pytest.raises(ValueError):
        fam_r.window(0)
    with pytest.raises(ValueError):
        fam_r.window(6)


def test_constant_on_half_line():
    g = Grid(0.0, 10.0, 1000)
    f = GridFunction.from_callable(g, lambda x: np.ones_like(x))
    assert eval_pn(RIGHT10, 3, f) == 1.0


def test_exp_decay_attains_at_left_edge():
    g = Grid(0.0, 10.0, 1000)
    f = GridFunction.from_callable(g, lambda x: np.exp(-x))
    assert eval_pn(RIGHT10, 1, f) == 1.0


def test_symmetric_window_parabola():
    # sup over [-2, 2] of x^2 is 4; this is the scaled side of the
    # second-derivative witness pair (2 vs 4)
    g = Grid(-2.0, 2.0, 4000)
    fam = CompactSeminormFamily(WindowOrientation.SYMMETRIC, 2)
    f = GridFunction.from_callable(g, lambda x: x ** 2)
    assert eval_pn(fam, 2, f) == pytest.approx(4.0, abs=1e-12)


def test_monotone_in_window_index():
    g = Grid(0.0, 10.0, 500)
    rng = np.random.default_rng(11)
    f = GridFunction(g, rng.normal(size=501))
    vals = [eval_pn(RIGHT10, n, f) for n in range(1, 11)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= f.norm() + 1e-15


def test_mixed_seminorm_examples():
    g = Grid(0.0, 10.0, 1000)
    ones = GridFunction.from_callable(g, lambda x: np.ones_like(x))
    mixed = MixedSeminorm(RIGHT10, [1.0 / n for n in range(1, 11)])
    assert eval_mixed(mixed, ones) == pytest.approx(1.0)
    zero = GridFunction(g, np.zeros(1001))
    assert eval_mixed(mixed, zero) == 0.0
    lin = GridFunction.from_callable(g, lambda x: x)
    sq = MixedSeminorm(RIGHT10, [1.0 / n ** 2 for n in range(1, 11)])
    assert eval_mixed(sq, lin) == pytest.approx(1.0)


def test_mixed_seminorm_weight_validation():
    with pytest.raises(ValueError):
        MixedSeminorm(RIGHT10, [1.0] * 9)
    with pytest.raises(ValueError):
        MixedSeminorm(RIGHT10, [0.0] * 10)
    with pytest.raises(ValueError):
        MixedSeminorm(RIGHT10, [-1.0] + [1.0] * 9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
def test_seminorm_axioms(n, seed, scalar):
    g = Grid(0.0, 10.0, 200)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=201))
    k = GridFunction(g, rng.normal(size=201))
    pf, pk = eval_pn(RIGHT10, n, f), eval_pn(RIGHT10, n, k)
    # absolute homogeneity
    assert eval_pn(RIGHT10, n, scalar * f) == pytest.approx(abs(scalar) * pf, rel=1e-12, abs=1e-12)
    # triangle inequality
    assert eval_pn(RIGHT10, n, f + k) <= pf + pk + 1e-12
    # nonnegativity
    assert pf >= 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_mixed_transfer_property(seed):
    # if p_n(v) >= lam * p_n(f) for every n, the same inequality holds for
    # every weighted max built from the family
    g = Grid(0.0, 10.0, 150)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=151))
    lam = float(rng.uniform(0.2, 3.0))
    margins = rng.uniform(1.0, 1.5)
    v = GridFunction(g, np.abs(f.values) * lam * margins
                     * np.sign(f.values + 1e-300))
    pn_f = [eval_pn(RIGHT10, n, f) for n in range(1, 11)]
    pn_v = [eval_pn(RIGHT10, n, v) for n in range(1, 11)]
    if all(a >= lam * b for a, b in zip(pn_v, pn_f)):
        for _ in range(5):
            w = rng.uniform(0.0, 2.0, size=10)
            if not np.any(w > 0):
                continue
            mixed = MixedSeminorm(RIGHT10, w)
            assert eval_mixed(mixed, v) >= lam * eval_mixed(mixed, f) - 1e-12


def _eval_pn_ladder(fam, grid, values):
    """[eval_pn(fam, n, row) for n] of each row, or the first error raised."""
    rows = np.atleast_2d(values)
    try:
        out = [[eval_pn(fam, n, GridFunction(grid, r)) for n in range(1, fam.max_index + 1)]
               for r in rows]
    except ValueError as exc:
        return str(exc)
    return np.array(out).reshape(np.shape(values)[:-1] + (fam.max_index,))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(WindowOrientation)), st.integers(1, 12),
       st.one_of(st.integers(-14, 4).map(float),
                 st.floats(-14.0, 4.0, allow_nan=False)),
       st.one_of(st.integers(1, 20).map(float), st.floats(0.3, 20.0)),
       st.integers(2, 300), st.integers(0, 4), st.integers(0, 2 ** 31 - 1))
def test_ladder_equals_eval_pn_bit_for_bit(orientation, max_index, a, length,
                                           n_cells, rows, seed):
    # grids from [-14, -13.7] to [4, 24], so windows lie inside, partly off,
    # or wholly off the grid; integer endpoints put nodes on window bounds
    fam = CompactSeminormFamily(orientation, max_index)
    grid = Grid(a, a + length, n_cells)
    rng = np.random.default_rng(seed)
    shape = (n_cells + 1,) if rows == 0 else (rows, n_cells + 1)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    values[rng.random(size=shape) < 0.2] = -0.0
    expected = _eval_pn_ladder(fam, grid, values)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            seminorm_ladder(fam, grid, values)
        assert str(info.value) == expected
        return
    ladder = seminorm_ladder(fam, grid, values)
    assert ladder.shape == expected.shape
    assert np.array_equal(ladder, expected)
    for k, row in enumerate(np.atleast_2d(values)):
        assert np.array_equal(seminorm_ladder(fam, grid, row), np.atleast_2d(ladder)[k])


@pytest.mark.parametrize("orientation, grid, message", [
    # [0, 1] meets [-0.5, 9.5] but holds none of its nodes -0.5, 4.5, 9.5
    (WindowOrientation.RIGHT, Grid(-0.5, 9.5, 2), r"window \[0.0, 1.0\] contains no grid node"),
    (WindowOrientation.LEFT, Grid(-10.5, -1.5, 2), "does not intersect the grid interval"),
    (WindowOrientation.SYMMETRIC, Grid(3.0, 9.0, 4), "does not intersect the grid interval"),
])
def test_ladder_rejects_a_window_without_nodes_as_eval_pn_does(orientation, grid, message):
    fam = CompactSeminormFamily(orientation, 8)
    f = GridFunction(grid, np.arange(grid.n_cells + 1.0))
    for run in (lambda: eval_pn(fam, 1, f), lambda: seminorm_ladder(fam, grid, f.values)):
        with pytest.raises(ValueError, match=message):
            run()
    # wider windows reach the nodes, so only the ladder and p_1 fail
    assert eval_pn(fam, 8, f) > 0


def test_ladder_rejects_values_off_the_grid():
    with pytest.raises(ValueError, match="expected 11 node values"):
        seminorm_ladder(RIGHT10, Grid(0.0, 10.0, 10), np.ones((2, 12)))


def test_ladder_window_runs_are_cached_read_only():
    from semiflow.seminorms import _ladder_runs
    grid, fam = Grid(0.0, 20.0, 2000), CompactSeminormFamily(WindowOrientation.RIGHT, 10)
    start, stop = _ladder_runs(grid, fam)
    assert not start.flags.writeable and not stop.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        start[0] = 5
    # an equal grid and family, built anew, read the same arrays
    again = _ladder_runs(Grid(0, 20, 2000), CompactSeminormFamily(WindowOrientation.RIGHT, 10))
    assert again[0] is start and again[1] is stop


def test_ladder_error_is_raised_on_every_call():
    # [0, 1] meets [-0.5, 9.5] but holds none of its nodes: an error is
    # never cached, so each call raises it again
    from semiflow.seminorms import _ladder_runs
    grid, fam = Grid(-0.5, 9.5, 2), CompactSeminormFamily(WindowOrientation.RIGHT, 8)
    messages = []
    for _ in range(3):
        with pytest.raises(ValueError, match="contains no grid node") as err:
            seminorm_ladder(fam, grid, np.ones(3))
        messages.append(str(err.value))
    assert messages == ["window [0.0, 1.0] contains no grid node"] * 3
    with pytest.raises(ValueError, match="contains no grid node"):
        _ladder_runs(grid, fam)
