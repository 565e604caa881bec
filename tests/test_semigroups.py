"""Exact translation semigroups, resolvent power approximation, Laplace
transforms, and the orbit-integral identity."""

import dataclasses
import math

import numpy as np
import pytest

from semiflow import (CompactSeminormFamily, Grid, GridFunction,
                      WindowOrientation, euler_apply, eval_pn, initial_state,
                      laplace_resolvent, left_shift_generator,
                      make_network, network_semigroup, orbit_integral_residual,
                      random_flow_network, right_translation_generator,
                      right_translation_semigroup, sample_states,
                      shift_semigroup, smooth_bump)
from semiflow import network
from semiflow._kernels import history_transport, trace_transport
from semiflow.semigroups import _trapezoid_orbit


def hat(grid, lo, hi):
    x = grid.nodes
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return GridFunction(grid, np.clip(1.0 - np.abs(x - mid) / half, 0.0, None))


def test_shift_identity_at_zero():
    g = Grid(0.0, 20.0, 400)
    sg = shift_semigroup()
    f = smooth_bump(g, 3.0, 1.0)
    assert (sg.apply(0.0, f) - f).norm() == 0.0


def test_shift_translates_hat():
    g = Grid(0.0, 20.0, 400)  # h = 0.05, t = 0.5 is node-aligned
    sg = shift_semigroup()
    f = hat(g, 1.0, 2.0)
    out = sg.apply(0.5, f)
    # the flow solves u_t = -u_x, so the profile travels toward larger x
    ref = hat(g, 1.5, 2.5)
    assert (out - ref).norm() < 1e-14


def test_shift_semigroup_law_on_aligned_steps():
    g = Grid(0.0, 20.0, 400)
    sg = shift_semigroup()
    f = hat(g, 3.0, 5.0)
    a = sg.apply(0.75, sg.apply(0.5, f))
    b = sg.apply(1.25, f)
    assert (a - b).norm() < 1e-14


def test_right_translation_keeps_left_limit():
    g = Grid(-10.0, 0.0, 400)
    sg = right_translation_semigroup()
    f = GridFunction.from_callable(g, lambda x: np.exp(x))
    out = sg.apply(2.0, f)
    # material moves right; the far-left value extends by its boundary limit
    ref = np.interp(g.nodes - 2.0, g.nodes, f.values, left=f.values[0])
    assert (out - GridFunction(g, ref)).norm() < 1e-15


def test_euler_zero_input_and_identity_cases():
    g = Grid(0.0, 10.0, 500)
    gen = left_shift_generator()
    z = GridFunction(g, np.zeros(501))
    assert euler_apply(gen, 1.0, 16, z).norm() == 0.0
    f = smooth_bump(g, 3.0, 1.0)
    assert (euler_apply(gen, 0.0, 4, f) - f).norm() == 0.0
    with pytest.raises(ValueError):
        euler_apply(gen, 1.0, 0, f)
    with pytest.raises(ValueError):
        euler_apply(gen, -1.0, 4, f)


def test_euler_ladder_decreases_toward_exact_orbit():
    g = Grid(0.0, 6.0, 1500)
    gen = left_shift_generator()
    sg = shift_semigroup()
    f = smooth_bump(g, 2.5, 1.0)
    exact = sg.apply(1.0, f)
    fam = CompactSeminormFamily(WindowOrientation.RIGHT, 5)
    errs = [eval_pn(fam, 5, euler_apply(gen, 1.0, m, f) - exact)
            for m in (4, 16, 64)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.2


def _euler_cases(operator, n_cells):
    """Generator on a grid of ``n_cells``, the same generator without its
    resolvent power (the sequential loop), and data with f(left end) != 0."""
    if operator == "left_shift":
        g = Grid(0.0, 6.0, n_cells)
        gen = left_shift_generator()
    else:
        g = Grid(-6.0, 0.0, n_cells)
        gen = right_translation_generator()
    x = g.nodes
    f = GridFunction(g, 0.7 + np.sin(3.0 * x) * np.exp(-0.1 * x * x))
    return gen, dataclasses.replace(gen, resolvent_power=None), f


# at t = 2, 5 and 1e3 the small-m rungs (all rungs at 5 and 1e3) keep the
# truncated squaring: the power's kernel does not fit the FFT grid
@pytest.mark.parametrize("t", [1e-300, 1.0, 2.0, 5.0, 1e3, 1e300])
@pytest.mark.parametrize("operator", ["left_shift", "right_translation"])
def test_euler_power_matches_sequential_resolves(operator, t):
    # the left shift's first exact step must absorb f(0) != 0; the right
    # translation keeps it
    for n_cells in (2, 3, 4000):
        gen, loop, f = _euler_cases(operator, n_cells)
        assert gen.resolvent_power is not None
        for m in (1, 2, 3, 4, 5, 16, 1024):
            closed = euler_apply(gen, t, m, f).values
            seq = euler_apply(loop, t, m, f).values
            assert np.max(np.abs(closed - seq)) <= 1e-12 * f.norm(), (n_cells, m)
            assert (closed[0] == 0.0) == (operator == "left_shift")


@pytest.mark.parametrize("operator", ["left_shift", "right_translation"])
def test_euler_ladder_takes_one_spectral_power_per_rung(operator, monkeypatch):
    # the CLI's default ladder at t = 1 on 4000 cells: from m = 16 on, the
    # kernel of each power fits the FFT grid, so a rung is one rfft and one
    # irfft; at m = 4 it does not, and the truncated squaring takes more
    gen, _, f = _euler_cases(operator, 4000)
    calls = []

    def spy(name):
        fft = getattr(np.fft, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fft(*args, **kwargs)
        return call

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, spy(name))
    for m in (4, 16, 64, 256, 1024):
        calls.clear()
        euler_apply(gen, 1.0, m, f)
        if m == 4:
            assert len(calls) > 2
        else:
            assert sorted(calls) == ["irfft", "rfft"], m


@pytest.mark.parametrize("operator", ["left_shift", "right_translation"])
def test_euler_power_of_data_near_the_float_limit(operator):
    # FFT sums over the grid would overflow without the power-of-two scaling
    gen, loop, f = _euler_cases(operator, 400)
    big = f * 1e307
    closed = euler_apply(gen, 1.0, 1024, big)
    assert (closed - euler_apply(loop, 1.0, 1024, big)).norm() <= 1e-12 * big.norm()


@pytest.mark.parametrize("operator", ["left_shift", "right_translation"])
def test_euler_rejects_infinite_lambda(operator):
    # m / t overflows to inf: rejected, not turned into nan
    gen, loop, f = _euler_cases(operator, 20)
    for g in (gen, loop):
        with pytest.raises(ValueError, match="lambda must be finite and positive, got inf"):
            euler_apply(g, 5e-324, 4, f)


def test_euler_rung_where_lambda_h_overflows():
    # lambda = m/t = 1e308 and h = 3.75: lambda h overflows, and each panel
    # takes its exact limit, so the rung is f itself, as at t = 1e-300
    grid = Grid(0.0, 30.0, 8)
    f = GridFunction(grid, np.sin(grid.nodes))
    gen = left_shift_generator()
    far = euler_apply(gen, 1.024e-305, 1024, f)
    near = euler_apply(gen, 1e-300, 1024, f)
    assert np.max(np.abs(far.values - near.values)) <= 1e-12 * f.norm()


def test_laplace_resolvent_matches_exact_resolvent():
    g = Grid(0.0, 20.0, 2000)
    gen = left_shift_generator()
    sg = shift_semigroup()
    f = smooth_bump(g, 2.0, 1.0)
    approx, tail = laplace_resolvent(sg, 1.0, f, 15.0, 3000)
    exact = gen.resolve(1.0, f)
    assert (approx - exact).norm() < 1e-3
    assert tail == pytest.approx(np.exp(-15.0) * f.norm() / 1.0, rel=1e-12)


def test_laplace_tail_bound_formula():
    g = Grid(0.0, 10.0, 200)
    sg = shift_semigroup()
    f = smooth_bump(g, 2.0, 1.0, amplitude=3.0)
    _, tail = laplace_resolvent(sg, 2.0, f, 5.0, 100)
    assert tail == pytest.approx(np.exp(-10.0) * 3.0 / 2.0, rel=1e-12)


@pytest.mark.parametrize("speeds, inside", [((1.0, 1.0), True), ((1.0, 2.0), False)],
                         ids=["equal_speeds", "mixed_speeds"])
def test_laplace_tail_bound_holds_for_a_contraction_only(speeds, inside):
    # the part of the integral that H = 2 discards, as the gap to H = 40 at
    # the same step: on equal speeds the flow is a contraction in the state
    # norm and the gap is the bound up to quadrature error; on speeds 1 and 2
    # data on the fast edge reaches norm 2, and the gap is 1.25 times the bound
    net = make_network(2, [(0, 1), (1, 0)], list(speeds), n_cells=40)
    sg = network_semigroup(net)
    g = initial_state(net, [0.0, 1.0])
    short, tail = laplace_resolvent(sg, 1.0, g, 2.0, 400)
    long, _ = laplace_resolvent(sg, 1.0, g, 40.0, 8000)
    assert tail == math.exp(-2.0)
    gap = (long - short).norm()
    assert (gap <= tail * (1.0 + 1e-5)) if inside else (gap > 1.2 * tail)


def test_orbit_integral_residual_small_t():
    g = Grid(0.0, 10.0, 2000)
    gen = left_shift_generator()
    sg = shift_semigroup()
    f = smooth_bump(g, 4.0, 2.0)
    r = orbit_integral_residual(gen, sg, 1e-6, f, steps=50)
    assert r <= 1e-6 * f.norm()


def test_orbit_integral_residual_zero_function():
    g = Grid(0.0, 10.0, 500)
    gen = left_shift_generator()
    sg = shift_semigroup()
    z = GridFunction(g, np.zeros(501))
    assert orbit_integral_residual(gen, sg, 0.5, z, steps=100) == 0.0


def test_orbit_integral_residual_at_time_zero_is_zero():
    # both sides of A int_0^0 T(s) f ds = T(0) f - f vanish
    f = smooth_bump(Grid(0.0, 10.0, 500), 4.0, 2.0)
    assert f.norm() > 0
    assert orbit_integral_residual(left_shift_generator(), shift_semigroup(), 0.0, f) == 0.0


def test_orbit_integral_residual_shift_pair():
    g = Grid(0.0, 10.0, 2000)
    gen = left_shift_generator()
    sg = shift_semigroup()
    f = smooth_bump(g, 4.0, 2.0)
    r = orbit_integral_residual(gen, sg, 0.5, f, steps=2000)
    assert r <= 1e-3 * f.norm()


def test_right_translation_euler_converges():
    g = Grid(-10.0, 0.0, 1500)
    gen = right_translation_generator()
    sg = right_translation_semigroup()
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
    shift, right = shift_semigroup(), right_translation_semigroup()
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


def _trapezoid_orbit_reference(sg, f, ds, steps, damping):
    # the orbit quadrature before it summed node arrays, as written
    acc = None
    for k in range(int(steps) + 1):
        s = k * ds
        w = 0.5 if k in (0, steps) else 1.0
        term = sg.apply(s, f) * (w * damping(s))
        acc = term if acc is None else acc + term
    return acc * ds


def _translation_quadrature_cases():
    # (state, runs of (ds, steps, damping)): random data with f(left end)
    # != 0, n = 7, the data of `resolvent --horizon 15`, data near the float
    # limit (no FFT sum may overflow), and all values -0.0
    rng = np.random.default_rng(5)
    grid = Grid(-3.0, 4.0, 350)
    rough = GridFunction(grid, rng.uniform(-1.0, 1.0, grid.n_cells + 1))
    tiny = GridFunction(Grid(0.0, 1.0, 7), 0.7 + np.sin(np.arange(8.0)))
    cli = Grid(0.0, 20.0, 2000)
    cli_data = GridFunction(cli, np.exp(-cli.nodes))
    # h = 10 keeps np.interp's slopes finite; the FFT sums of the data are not
    big = GridFunction(Grid(0.0, 3500.0, 350), rng.uniform(0.5, 1.0, 351) * 1e307)
    one = lambda s: 1.0
    decay = lambda s: math.exp(-1.3 * s)
    runs = lambda h: ((0.01, 300, decay), (0.37, 7, one), (0.5, 1, lambda s: 2.0),
                      # times on nodes and halfway between them
                      (h / 2, 300, decay), (h, 300, decay), (h / 2, 1, one), (h, 1, one),
                      # shifts far past the grid, s / h past the float range
                      (1e308 / 3, 1, one), (1e308 / 3, 3, one))
    return [(rough, runs(rough.grid.h)), (tiny, runs(tiny.grid.h)),
            (cli_data, ((15.0 / 3000, 3000, lambda s: math.exp(-s)),)),
            (big, ((0.37, 7, one), (big.grid.h / 2, 1, one), (7.0, 300, decay))),
            (-GridFunction(grid, np.zeros(351)), runs(grid.h))]


def test_trapezoid_orbit_matches_reference():
    # the network semigroup sums the rows of its orbit: bit for bit the
    # apply-based reference, signs of zero included
    net = random_flow_network(4, seed=2, n_cells=30)
    g = sample_states(net, 1, 4)[0][1]
    sg = network_semigroup(net)
    for ds, steps, damping in ((0.01, 300, lambda s: math.exp(-1.3 * s)),
                               (0.37, 7, lambda s: 1.0), (0.5, 1, lambda s: 2.0)):
        got = _trapezoid_orbit(sg, g, ds, steps, damping)
        ref = _trapezoid_orbit_reference(sg, g, ds, steps, damping)
        assert type(got) is type(ref) and got.grid == ref.grid
        assert np.array_equal(got.values, ref.values), ds
        assert np.array_equal(np.signbit(got.values), np.signbit(ref.values))
    # the translations sum by one convolution: within rounding of the
    # apply-based reference
    for state, runs in _translation_quadrature_cases():
        for sg in (shift_semigroup(), right_translation_semigroup()):
            for ds, steps, damping in runs:
                got = _trapezoid_orbit(sg, state, ds, steps, damping)
                ref = _trapezoid_orbit_reference(sg, state, ds, steps, damping)
                assert type(got) is type(ref) and got.grid == ref.grid
                bound = 1e-13 * state.norm() * ds * (steps + 1)
                assert np.max(np.abs(got.values - ref.values)) <= bound, \
                    (sg.label, state.grid.n_cells, ds, steps)


@pytest.mark.parametrize("block_values", [None, 250], ids=["default", "small_blocks"])
def test_orbit_rows_equal_apply(monkeypatch, block_values):
    # unsorted times, a repeated time and t = 0, over one block and over
    # several
    if block_values is not None:
        monkeypatch.setattr(network, "ORBIT_BLOCK_VALUES", block_values)
    sizes = []

    def trace_spy(*args):
        sizes.append(np.size(args[5]))
        return trace_transport(*args)

    def history_spy(*args):
        sizes.extend(np.size(block) for block in args[5])
        return history_transport(*args)

    monkeypatch.setattr(network, "trace_transport", trace_spy)
    monkeypatch.setattr(network, "history_transport", history_spy)
    times = [0.7, 0.0, 2.3, 0.7, 1.1, 3.0, 0.05, 0.0, 1.9, 0.31, 2.3]
    # random speeds trace; unit speeds fit a time grid: the orbit's step is
    # 1/300, while t = 0.7 alone steps by 1/30 and t = 0.05 by 1/60
    for net in (random_flow_network(4, seed=2, n_cells=30),
                make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=30)):
        state = sample_states(net, 1, 4)[0][1]
        sizes.clear()
        rows = list(network.characteristics_orbit(net, state, times))
        per = max(1, network.ORBIT_BLOCK_VALUES // state.values.size)
        assert sizes == [min(per, len(times) - k) for k in range(0, len(times), per)]
        assert len(rows) == len(times)
        sg = network_semigroup(net)
        for t, row in zip(times, rows):
            assert row.shape == state.values.shape
            assert np.array_equal(row, sg.apply(t, state).values), (net.n_edges, t)


def test_orbit_integral_residual_rejects_bad_steps():
    # checked before the t = 0 shortcut, as laplace_resolvent checks them
    g = Grid(0.0, 10.0, 200)
    gen = left_shift_generator()
    sg = shift_semigroup()
    f = smooth_bump(g, 4.0, 2.0)
    for steps in (2000.5, 0, -1):
        for t in (0.5, 0.0):
            with pytest.raises(ValueError, match="steps must be an integer"):
                orbit_integral_residual(gen, sg, t, f, steps=steps)
        with pytest.raises(ValueError, match="steps must be an integer"):
            laplace_resolvent(sg, 1.0, f, 5.0, steps)


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_laplace_rejects_non_finite_horizon(horizon):
    f = smooth_bump(Grid(0.0, 10.0, 100), 4.0, 2.0)
    with pytest.raises(ValueError, match=f"horizon must be finite and positive, got {horizon}"):
        laplace_resolvent(shift_semigroup(), 1.0, f, horizon, 10)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_orbit_integral_residual_rejects_non_finite_t(t):
    f = smooth_bump(Grid(0.0, 10.0, 100), 4.0, 2.0)
    with pytest.raises(ValueError, match=f"t must be finite and nonnegative, got {t}"):
        orbit_integral_residual(left_shift_generator(), shift_semigroup(), t, f, steps=10)


def test_laplace_at_a_huge_finite_horizon_matches_the_row_loop():
    # lambda s_k = 0, 2.5, ..., 10 while s_k / h passes the float range
    grid = Grid(-3.0, 4.0, 70)
    f = GridFunction(grid, 0.7 + np.sin(grid.nodes))
    for sg in (shift_semigroup(), right_translation_semigroup()):
        got, tail = laplace_resolvent(sg, 1e-307, f, 1e308, 4)
        ref = _trapezoid_orbit_reference(sg, f, 1e308 / 4, 4,
                                         lambda s: math.exp(-1e-307 * s))
        assert tail == math.exp(-1e-307 * 1e308) * f.norm() / 1e-307
        assert np.isfinite(got.values).all()
        assert np.max(np.abs(got.values - ref.values)) <= 1e-13 * f.norm() * 2.5e307 * 5


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_euler_apply_rejects_non_finite_time(t):
    g = Grid(0.0, 10.0, 100)
    f = smooth_bump(g, 4.0, 2.0)
    with pytest.raises(ValueError, match=f"time must be finite and nonnegative, got {t}"):
        euler_apply(left_shift_generator(), t, 4, f)


def test_semigroups_reject_non_finite_times():
    grid = Grid(0.0, 10.0, 100)
    f = smooth_bump(grid, 4.0, 2.0)
    net = random_flow_network(4, seed=2, n_cells=30)
    g = sample_states(net, 1, 4)[0][1]
    for sg, state in ((shift_semigroup(), f),
                      (right_translation_semigroup(), f),
                      (network_semigroup(net), g)):
        for t in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                sg.apply(t, state)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                sg.orbit_sum([0.5, t], [1.0, 1.0], state)
    for t in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            next(network.characteristics_orbit(net, g, [0.5, t]))


def test_orbit_sum_needs_times_and_one_weight_per_time():
    # the same error for every kind of semigroup: no time, too few weights
    # and too many
    f = smooth_bump(Grid(0.0, 10.0, 100), 4.0, 2.0)
    net = random_flow_network(4, seed=2, n_cells=30)
    g = sample_states(net, 1, 4)[0][1]
    for sg, state in ((shift_semigroup(), f),
                      (right_translation_semigroup(), f),
                      (network_semigroup(net), g)):
        for times, weights in (([], []), ([0.5, 1.0], [1.0]), ([0.5], [1.0, 2.0])):
            with pytest.raises(ValueError, match="an orbit sum needs at least one "
                               "time and one weight per time"):
                sg.orbit_sum(times, weights, state)


def test_translations_of_data_near_the_float_limit():
    # np.interp's slopes (f_{i+1} - f_i) / h overflow on data near 1e307;
    # the translations interpolate the data scaled by a power of two, which
    # is exact: in apply and in the Laplace transform's jump correction
    grid = Grid(-3.0, 4.0, 350)
    x = np.arange(grid.n_cells + 1) * grid.h
    small = GridFunction(grid, np.random.default_rng(49).uniform(-1.0, 1.0, 351))
    big = GridFunction(grid, np.ldexp(small.values, 1020))
    with np.errstate(all="ignore"):
        assert not np.isfinite(np.interp(x - 0.37, x, big.values, left=0.0)).all()
    for sg, fill in ((shift_semigroup(), 0.0),
                     (right_translation_semigroup(), small.values[0])):
        for t in (0.0, 0.37, grid.h, 3.5, 9.0):
            ref = sg.apply(t, small).values
            assert np.array_equal(ref, np.interp(x - t, x, small.values, left=fill))
            assert np.array_equal(sg.apply(t, big).values, np.ldexp(ref, 1020)), t
        ref = laplace_resolvent(sg, 1.0, small, 2.0, 8)[0].values
        got = laplace_resolvent(sg, 1.0, big, 2.0, 8)[0].values
        assert np.array_equal(got, np.ldexp(ref, 1020)), sg.label
