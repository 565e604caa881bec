"""Window seminorm families: frozen example values, axioms, and the
mixed-seminorm transfer property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflow import (CompactSeminormFamily, Grid, GridFunction,
                      MixedSeminorm, WindowOrientation, eval_mixed, eval_pn)


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
