"""Model generators and exact resolvents against frozen closed forms and an
independent ODE-solver oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from semiflow import (Grid, GridFunction, ResolventUnavailableError,
                      laplacian_generator, left_shift_generator,
                      resolvent_shift, right_translation_generator,
                      right_translation_resolvent, smooth_bump,
                      upwind_discretize)
from semiflow._kernels import damped_cumulative_integral
from semiflow.operators import _log_tail_bound

# frozen oracle values
ONE_MINUS_E_INV = 0.6321205588285577       # 1 - e^{-1}
RAMP_P1_EXACT = 0.23254415793482963        # e^{-1} (1 - e^{-1})


def test_shift_resolvent_where_lambda_h_overflows():
    # lambda h = 3.75e308 is past the float range; the panel limit gives
    # R(lambda) f = f / lambda at every node, down to subnormal rounding
    g = Grid(0.0, 30.0, 8)
    f = GridFunction(g, np.sin(g.nodes))
    lam = 1e308
    r = resolvent_shift(lam, f)
    assert np.max(np.abs(r.values - f.values / lam)) <= 1e-12 * f.norm() / lam


def test_left_shift_apply_linear():
    g = Grid(0.0, 20.0, 1000)
    gen = left_shift_generator()
    f = GridFunction.from_callable(g, lambda x: x)
    out = gen.apply(f)
    assert (out - GridFunction(g, -np.ones(1001))).norm() < 1e-10


def test_left_shift_apply_sin():
    g = Grid(0.0, 20.0, 1000)
    gen = left_shift_generator()
    f = GridFunction.from_callable(g, np.sin)
    out = gen.apply(f)
    ref = GridFunction.from_callable(g, lambda x: -np.cos(x))
    assert (out - ref).norm() < 1e-3  # second-order stencil at h = 0.02


def test_left_shift_domain_check():
    g = Grid(0.0, 20.0, 100)
    gen = left_shift_generator()
    assert gen.domain_check(GridFunction.from_callable(g, lambda x: x))
    assert not gen.domain_check(GridFunction.from_callable(
        g, lambda x: np.ones_like(x)))
    # no boundary condition: the left value is the inflow, whatever it is
    right = right_translation_generator()
    for values in (g.nodes, np.ones(101), np.full(101, -1e300),
                   np.random.default_rng(0).normal(size=101)):
        assert right.domain_check(GridFunction(g, values))


def test_resolvent_shift_ones_lambda_one():
    g = Grid(0.0, 20.0, 2000)
    ones = GridFunction(g, np.ones(2001))
    f = resolvent_shift(1.0, ones)
    at_one = f.values[100]  # x = 1
    assert at_one == pytest.approx(ONE_MINUS_E_INV, abs=1e-6)
    ref = GridFunction.from_callable(g, lambda x: -np.expm1(-x))
    assert (f - ref).norm() < 1e-6


def test_resolvent_shift_ones_lambda_two_saturates():
    g = Grid(0.0, 20.0, 2000)
    ones = GridFunction(g, np.ones(2001))
    f = resolvent_shift(2.0, ones)
    assert f.values[-1] == pytest.approx(0.5, abs=1e-8)


def test_resolvent_shift_zero_input():
    g = Grid(0.0, 20.0, 50)
    z = GridFunction(g, np.zeros(51))
    assert resolvent_shift(3.0, z).norm() == 0.0


def test_resolvent_shift_matches_ode_oracle():
    # independent route: integrate f' = -lam f + g with a generic ODE solver
    g = Grid(0.0, 5.0, 500)
    lam = 1.7
    data = GridFunction.from_callable(g, lambda x: np.sin(2 * x) + 0.3 * x)

    def rhs(s, y):
        return -lam * y[0] + np.interp(s, g.nodes, data.values)

    sol = solve_ivp(rhs, (0.0, 5.0), [0.0], t_eval=g.nodes, rtol=1e-11,
                    atol=1e-13, max_step=g.h / 2)
    f = resolvent_shift(lam, data)
    assert np.max(np.abs(f.values - sol.y[0])) < 1e-8


def test_resolvent_identity_left_shift():
    # (lam - A) R(lam) g reproduces g away from scheme error
    g = Grid(0.0, 20.0, 4000)
    gen = left_shift_generator()
    data = smooth_bump(g, 5.0, 2.0)
    lam = 2.0
    f = gen.resolve(lam, data)
    recovered = lam * f - gen.apply(f)
    assert (recovered - data).norm() < 10 * (1 + lam) ** 2 * g.h ** 2 * 10


def test_right_translation_resolvent_ones():
    g = Grid(-10.0, 0.0, 1000)
    ones = GridFunction(g, np.ones(1001))
    for lam in (0.5, 1.0, 3.0):
        f = right_translation_resolvent(lam, ones)
        assert (f - GridFunction(g, np.full(1001, 1.0 / lam))).norm() < 1e-12


def test_right_translation_resolvent_ramp_frozen_value():
    g = Grid(-10.0, 0.0, 4000)
    ramp = GridFunction(g, np.clip(-g.nodes - 2.0, 0.0, 1.0))
    f = right_translation_resolvent(1.0, ramp)
    # sup over [-1, 0]: attained at x = -1 with value e^{-1}(1 - e^{-1})
    mask = g.nodes >= -1.0
    assert np.max(np.abs(f.values[mask])) == pytest.approx(
        RAMP_P1_EXACT, abs=1e-9)


def test_laplacian_quadratic_is_exactly_two():
    # coarse grid keeps the subtractive cancellation of the second
    # difference far below the assertion scale
    g = Grid(-2.0, 2.0, 40)
    gen = laplacian_generator()
    f = GridFunction.from_callable(g, lambda x: x ** 2)
    out = gen.apply(f)
    assert (out - GridFunction(g, np.full(41, 2.0))).norm() < 1e-12


def test_laplacian_constant_is_zero():
    g = Grid(-2.0, 2.0, 40)
    gen = laplacian_generator()
    f = GridFunction(g, np.full(41, 7.5))
    assert gen.apply(f).norm() < 1e-12


def test_laplacian_quartic_ends_exact():
    # the one-sided end stencil is exact through x^4 up to roundoff;
    # interior central differencing errs by h^2 * f'''' / 12 = 0.02 here
    g = Grid(-2.0, 2.0, 40)
    gen = laplacian_generator()
    f = GridFunction.from_callable(g, lambda x: x ** 4)
    out = gen.apply(f)
    ref = GridFunction.from_callable(g, lambda x: 12.0 * x ** 2)
    err = np.abs(out.values - ref.values)
    assert err[0] < 1e-9
    assert err[-1] < 1e-9
    interior_truncation = g.h ** 2 * 24.0 / 12.0
    assert abs(err[1:-1].max() - interior_truncation) < 1e-9


def test_laplacian_sin():
    g = Grid(-2.0, 2.0, 4000)
    gen = laplacian_generator()
    f = GridFunction.from_callable(g, np.sin)
    out = gen.apply(f)
    ref = GridFunction.from_callable(g, lambda x: -np.sin(x))
    assert (out - ref).norm() < 1e-6


def test_laplacian_has_no_resolvent():
    g = Grid(-2.0, 2.0, 40)
    gen = laplacian_generator()
    assert gen.resolvent is None
    f = GridFunction(g, np.zeros(41))
    with pytest.raises(ResolventUnavailableError):
        gen.resolve(1.0, f)


def test_resolve_rejects_nonpositive_lambda():
    g = Grid(0.0, 20.0, 100)
    gen = left_shift_generator()
    f = GridFunction(g, np.zeros(101))
    with pytest.raises(ValueError):
        gen.resolve(0.0, f)
    with pytest.raises(ValueError):
        gen.resolve(-1.0, f)


def test_upwind_matrix_small_cases():
    m = upwind_discretize(2, 1.0)
    assert np.array_equal(m.matrix, np.array([[-1.0, 0.0], [1.0, -1.0]]))
    m3 = upwind_discretize(3, 0.5)
    ones = np.ones(3)
    assert np.array_equal(m3.matrix @ ones, np.array([-2.0, 0.0, 0.0]))


def test_upwind_matrix_immutable_and_validated():
    m = upwind_discretize(4, 0.25)
    assert not m.matrix.flags.writeable
    with pytest.raises(ValueError):
        upwind_discretize(0, 1.0)
    with pytest.raises(ValueError):
        upwind_discretize(3, -1.0)


@pytest.mark.parametrize("z", [1e-3, 0.024, 1.0, 30.0, 720.0, 744.0, 800.0])
def test_log_tail_bound_is_the_chernoff_minimum(z):
    # T = lam R(lam) with lam h = z: the bound equals the minimum of
    # k log S(e^s) - s tail over a dense grid of s in (0, -log d), taken in
    # logs because e^s passes the float range where d is subnormal (z = 720,
    # 744); at z = 800, d = 0 and S^k is a polynomial of degree k
    e1 = np.zeros(3)
    e1[1] = 1.0
    c0, c1 = damped_cumulative_integral(e1, z, 1.0)[1:]
    d = math.exp(-z)
    s = (-math.log(d) if d > 0 else 1e3) * np.linspace(1e-9, 1.0 - 1e-9, 400001)
    log_dw = s + (math.log(d) if d > 0 else -np.inf)
    for k, tail in [(3, 4192), (15, 4192), (1023, 4192), (1023, 2), (5, 5), (4000, 900)]:
        log_s = s + np.log(c0 * np.exp(-s) + c1 / -np.expm1(log_dw))
        grid_min = min(0.0, float(np.min(k * log_s - s * tail)))
        bound = _log_tail_bound(c0, c1, d, k, tail)
        assert bound <= grid_min + 1e-9 * max(1.0, abs(grid_min)), (k, tail)
        if math.isfinite(bound):
            assert bound >= grid_min - 1e-6 * max(1.0, abs(grid_min)), (k, tail)
        else:
            assert d == 0.0 and k <= tail
