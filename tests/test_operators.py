"""Model generators and exact resolvents against frozen closed forms and an
independent ODE-solver oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from semiflow import (Grid, GridFunction, ResolventUnavailableError,
                      differentiate, laplacian_generator, left_shift_generator,
                      resolvent_shift, right_translation_generator,
                      right_translation_resolvent, smooth_bump,
                      upwind_discretize)
from semiflow._kernels import damped_cumulative_integral
from semiflow.operators import _log_tail_bound, _twiddles

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


@pytest.mark.parametrize("make", [left_shift_generator, right_translation_generator])
def test_translation_apply_is_minus_differentiate_bit_for_bit(make):
    rng = np.random.default_rng(5)
    for n_cells in (2, 3, 1000):
        g = Grid(-10.0, 0.0, n_cells)
        v = rng.standard_normal(n_cells + 1)
        v[rng.integers(0, 3, n_cells + 1) == 0] = -0.0
        f = GridFunction(g, v)
        got, ref = make().apply(f), -differentiate(f)
        assert type(got) is GridFunction
        assert np.array_equal(got.values, ref.values)
        assert np.array_equal(np.signbit(got.values), np.signbit(ref.values))


def test_euler_powers_from_a_cold_and_a_warm_twiddle_cache_agree():
    # two grids of different FFT sizes, called in turn, so the one-entry
    # cache is replaced between them and hit on repeats
    cases = [(left_shift_generator(), smooth_bump(Grid(0.0, 20.0, 2000), 8.0, 6.0)),
             (right_translation_generator(), smooth_bump(Grid(-10.0, 0.0, 700), -5.0, 4.0))]
    rungs = [(gen, m, f) for m in (4, 64) for gen, f in cases]
    cold = []
    for gen, m, f in rungs:
        _twiddles.cache_clear()
        cold.append(gen.resolvent_power(float(m), m, f).values)
        assert _twiddles.cache_info().misses == 1  # the spectral path ran
    _twiddles.cache_clear()
    for _ in range(2):
        for (gen, m, f), ref in zip(rungs + rungs[::-1], cold + cold[::-1]):
            assert np.array_equal(gen.resolvent_power(float(m), m, f).values, ref)
    assert _twiddles.cache_info().hits > 0


def test_cached_twiddles_are_read_only():
    w = _twiddles(8)
    assert w is _twiddles(8)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    assert np.array_equal(w, np.exp(-2j * np.pi * np.arange(5) / 8))


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
    assert np.array_equal(m, np.array([[-1.0, 0.0], [1.0, -1.0]]))
    m3 = upwind_discretize(3, 0.5)
    ones = np.ones(3)
    assert np.array_equal(m3 @ ones, np.array([-2.0, 0.0, 0.0]))


def test_upwind_matrix_immutable_and_validated():
    m = upwind_discretize(4, 0.25)
    assert m.dtype == np.float64 and not m.flags.writeable
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


def _euler_symbol_sweep():
    """(lam, h) pairs over lam h from 1e-20 to 1e4, dense on both sides of
    the series switch at lam h = 1e-4 and where exp(-lam h) turns subnormal
    and underflows, at four grid widths, and three pairs whose lam h passes
    the float range."""
    z = np.concatenate([np.geomspace(1e-20, 1e4, 12000),
                        np.linspace(0.99e-4, 1.01e-4, 2001),
                        np.linspace(700.0, 760.0, 1001)])
    pairs = [(float(zk / h), h) for h in (1.0 / 8192, 0.01, 0.5, 20.0) for zk in z]
    return pairs + [(1e307, 20.0), (1e308, 20.0), (1.7e308, 20.0)]


def test_euler_symbol_from_the_panel_weights_equals_the_three_node_integral(monkeypatch):
    # c0 = lam hB, c1 = lam (hA + d hB) and d of one panel are, bit for bit,
    # rows 1 and 2 of lam R(lam) e_1 on three nodes and exp(-lam h), and
    # they are what the Euler power reads (caught at its tail bound)
    from semiflow import operators
    from semiflow._kernels import _scalar_decay_weights

    class Seen(Exception):
        pass

    def seen(c0, c1, d, k, tail):
        raise Seen(c0, c1, d)

    monkeypatch.setattr(operators, "_log_tail_bound", seen)
    e1 = np.array([0.0, 1.0, 0.0])
    pairs = _euler_symbol_sweep()
    assert len(pairs) > 60000 and sum(math.isinf(lam * h) for lam, h in pairs) == 3
    for lam, h in pairs:
        _, c0, c1 = (lam * damped_cumulative_integral(e1, h, lam)).tolist()
        old = (c0, c1, float(np.exp(-lam * h)))
        d, ha, hb = _scalar_decay_weights(lam, h)
        new = (lam * hb, lam * (ha + d * hb), d)
        assert np.array_equal(np.array(new), np.array(old)), (lam, h, new, old)
        assert [math.copysign(1.0, v) for v in new] == [math.copysign(1.0, v) for v in old]
        if d < 1.0:  # where d rounds to 1 no tail bound is taken
            with pytest.raises(Seen) as info:
                operators._toeplitz_step_power(lam, h, 1, np.array([1.0, 0.0]))
            assert info.value.args == new, (lam, h)
