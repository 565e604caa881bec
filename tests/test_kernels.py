"""Kernel-level tests: quadrature weights, recurrences, and the parity of the
vectorized kernels with scalar loop references."""

import inspect
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.signal import lfilter

import semiflow
from semiflow import _kernels as K


def test_panel_decay_weights_match_closed_form():
    z = np.array([1e-8, 1e-6, 1e-4, 1e-3, 0.1, 1.0, 5.0])
    d, wa, wb = K.panel_decay_weights(z)
    assert np.allclose(d, np.exp(-z), rtol=1e-14)
    # reference formulas evaluated in extended effective precision via expm1
    ref_sum = -np.expm1(-z) / z          # (1 - e^-z)/z
    assert np.allclose(wa + wb, ref_sum, rtol=1e-12)
    ref_b = (1.0 - ref_sum) / z
    assert np.allclose(wb, ref_b, rtol=1e-9)


def test_panel_decay_weights_high_precision_reference():
    # 40-digit decimal reference across the series/closed-form switch
    from decimal import Decimal, getcontext
    getcontext().prec = 40
    for zval in (1e-7, 1e-6, 1e-5, 0.99e-4, 1.01e-4, 1e-3, 0.05):
        z = Decimal(repr(zval))
        d = (-z).exp()
        s = (1 - d) / z          # (1 - e^-z)/z
        b_ref = (1 - s) / z
        a_ref = s - b_ref
        _, wa, wb = K.panel_decay_weights(np.array([zval]))
        assert abs(wa[0] - float(a_ref)) < 1e-11 * float(a_ref)
        assert abs(wb[0] - float(b_ref)) < 1e-11 * float(b_ref)


def _panel_decay_weights_two_exp(z):
    # the earlier form, which evaluated exp(-z) and u/z twice each
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    d = np.exp(-z)
    u = -np.expm1(-zs)
    a_big = (u / zs - np.exp(-zs)) / zs
    b_big = (1.0 - u / zs) / zs
    a_ser = 0.5 - z / 3.0 + z * z / 8.0
    b_ser = 0.5 - z / 6.0 + z * z / 24.0
    return d, np.where(small, a_ser, a_big), np.where(small, b_ser, b_big)


def test_panel_decay_weights_bit_identical_to_two_exp_form():
    rng = np.random.default_rng(7)
    switch = np.nextafter(1e-4, [0.0, 1.0])  # either side of the switch
    inputs = [
        rng.uniform(-0.5, 20.0, (64, 400)) * 0.05,
        np.concatenate([np.linspace(-3e-4, 3e-4, 1001), switch, -switch]),
        np.array([1e-4, -1e-4, 0.0, -0.0, 700.0, -3.0]),
        rng.uniform(-1e-4, 1e-4, 500),
        np.geomspace(1e-12, 50.0, 400),
    ]
    for z in inputs:
        for new, old in zip(K.panel_decay_weights(z), _panel_decay_weights_two_exp(z)):
            assert np.array_equal(new, old)
            assert np.array_equal(np.signbit(new), np.signbit(old))


def test_panel_decay_weights_give_no_overflow_warning_at_huge_z():
    # the series is evaluated only where it is selected; z * z of an
    # unselected z above ~1e154 overflowed and warned
    z = np.array([1e200, 1.3e154, 1e308, 1e-5, -3e-5, 0.5, 40.0])
    with np.errstate(over="raise"):
        new = K.panel_decay_weights(z)
    with np.errstate(over="ignore"):
        old = _panel_decay_weights_two_exp(z)
    for a, b in zip(new, old):
        assert np.array_equal(a, b)
    assert new[0][0] == 0.0 and new[2][0] == pytest.approx(1e-200, rel=1e-15)


def test_panel_decay_weights_negative_rate():
    # growth panels (negative z) must use the closed form, not the series
    z = np.array([-0.5])
    d, wa, wb = K.panel_decay_weights(z)
    assert d[0] == pytest.approx(np.exp(0.5), rel=1e-14)
    assert wa[0] + wb[0] == pytest.approx((np.exp(0.5) - 1.0) / 0.5, rel=1e-12)


def test_damped_integral_exact_on_piecewise_linear():
    # closed-form damped integral of a linear function v(x) = a + b x:
    # y(x) = int_0^x e^{-r(x-s)} (a + b s) ds
    r, a, b = 2.0, 0.7, -0.3
    h = 0.01
    x = np.arange(0, 201) * h
    v = a + b * x
    y = K.damped_cumulative_integral(v, h, r)
    exact = (a / r) * (1 - np.exp(-r * x)) + (b / r) * (
        x - (1 - np.exp(-r * x)) / r)
    assert np.max(np.abs(y - exact)) < 1e-14


def test_damped_integral_matches_ode_solver():
    # independent oracle: scipy ODE integration of y' = -r(x) y + v(x)
    rng = np.random.default_rng(3)
    n, h = 120, 0.02
    x = np.arange(n + 1) * h
    v = np.cos(3 * x) + 0.5 * x
    rates = rng.uniform(0.2, 3.0, size=n)

    def rhs(s, y):
        i = min(int(s / h), n - 1)
        return -rates[i] * y[0] + np.interp(s, x, v)

    sol = solve_ivp(rhs, (0.0, x[-1]), [0.0], t_eval=x, rtol=1e-11,
                    atol=1e-13, max_step=h / 2)
    y = K.damped_cumulative_integral(v, h, rates)
    assert np.max(np.abs(y - sol.y[0])) < 1e-8


def test_damped_integral_scalar_and_array_rate_agree():
    rng = np.random.default_rng(0)
    v = rng.normal(size=81)
    a = K.damped_cumulative_integral(v, 0.05, 1.7)
    b = K.damped_cumulative_integral(v, 0.05, np.full(80, 1.7))
    assert np.array_equal(a, b) or np.max(np.abs(a - b)) < 1e-15


# Sequential references: the per-node loop and the scipy.signal.lfilter
# filter that the recursive-doubling kernel replaced, kept as written.

def _damped_cumsum_py(values, d, wa, wb):
    out = np.empty_like(values)
    out[..., 0] = 0.0
    for i in range(1, values.shape[-1]):
        out[..., i] = (d[..., i - 1] * out[..., i - 1] + wa[..., i - 1] * values[..., i - 1]
                       + wb[..., i - 1] * values[..., i])
    return out


def _damped_cumsum_lfilter(values, d, wa, wb):
    # y[i] = wb x[i] + wa x[i-1] + d y[i-1]; the initial condition forces
    # y[0] = 0 so the filter matches the scalar-rate recurrence.
    b = np.array([wb, wa])
    a = np.array([1.0, -d])
    y, _ = lfilter(b, a, values, axis=-1, zi=-wb * values[..., :1])
    return y


# Doubling sums each node in another order than the sequential recurrence.
# Over the cases below the largest difference measured is 1.1e-14 of
# max |y| for scalar rates (n = 4001, lambda h = 1e-3) and 8.1e-16 for
# per-panel rates; the bound leaves about a factor 9.
DOUBLING_PARITY_RTOL = 1e-13


def test_damped_integral_matches_sequential_references():
    rng = np.random.default_rng(1)
    h = 0.01
    for n in (1, 2, 5, 64, 401, 2001, 4001):
        for lam_h in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.5):
            v = rng.normal(size=n + 1)
            d, wa, wb = K.panel_decay_weights(np.full(n, lam_h))
            y = K.damped_cumulative_integral(v, h, lam_h / h)
            for ref in (_damped_cumsum_py(v, d, wa * h, wb * h),
                        _damped_cumsum_lfilter(v, d[0], wa[0] * h, wb[0] * h)):
                err = np.max(np.abs(y - ref))
                assert err <= DOUBLING_PARITY_RTOL * np.max(np.abs(ref)), (n, lam_h, err)
    h = 1.0 / 400
    for rows in (1, 2, 8, 64):
        v = rng.normal(size=(rows, 401))
        rates = rng.uniform(-0.5, 20.0, size=(rows, 400))
        d, wa, wb = K.panel_decay_weights(rates * h)
        y = K.damped_cumulative_integral(v, h, rates)
        ref = _damped_cumsum_py(v, d, wa * h, wb * h)
        err = np.max(np.abs(y - ref))
        assert err <= DOUBLING_PARITY_RTOL * np.max(np.abs(ref)), (rows, err)


def test_scalar_rate_equals_constant_panel_rate():
    # one recurrence: the scalar factor squared per pass is the product of
    # equal panel factors, bit for bit
    rng = np.random.default_rng(2)
    for n in (1, 3, 64, 401, 2000):
        for rate in (1e-3, 0.7, 25.0, 400.0, -0.4):
            v = rng.normal(size=(3, n + 1))
            a = K.damped_cumulative_integral(v, 0.01, rate)
            b = K.damped_cumulative_integral(v, 0.01, np.full((3, n), rate))
            assert np.array_equal(a, b), (n, rate)


def test_per_row_rate_equals_constant_panel_rates():
    # one rate per row squares its factor each pass, as a scalar rate does:
    # the same result as equal per-panel rates, bit for bit, also on rows
    # whose factor underflows early, on rows with a negative rate whose
    # factor overflows (inf, and nan where it meets an exact-zero partial
    # sum), and on stacks that mix them
    rng = np.random.default_rng(5)
    h = 0.01
    cases = {"early_underflow": [2000.0, 9e4, 400.0],
             "negative": [-0.4, -400.0, -3e4],
             "mixed": [1e-3, 9e4, -3e4, 0.7, 0.0]}
    for n in (1, 3, 64, 401):
        for name, row_rates in cases.items():
            rate = np.array(row_rates)[:, None]
            v = rng.normal(size=(rate.shape[0], n + 1))
            v[:, :(n + 1) // 2] = 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                a = K.damped_cumulative_integral(v, h, rate)
                b = K.damped_cumulative_integral(v, h, np.repeat(rate, n, axis=1))
            assert np.array_equal(a, b, equal_nan=True), (n, name)
            if n == 401 and name != "early_underflow":
                assert not np.all(np.isfinite(a)), name


def test_damped_integral_validates_input():
    with pytest.raises(ValueError):
        K.damped_cumulative_integral(np.ones(5), 0.1, np.ones(3))
    with pytest.raises(ValueError):
        K.damped_cumulative_integral(np.ones(1), 0.1, 1.0)


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan])
def test_damped_integral_rejects_a_panel_width_that_is_not_positive(h):
    with pytest.raises(ValueError, match="panel width must be positive"):
        K.damped_cumulative_integral(np.ones(5), h, 1.0)


def test_damped_integral_stacked_rows_match_single_rows():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(5, 61))
    rates = rng.uniform(-0.5, 3.0, size=(5, 60))
    h = 0.03
    for rate, row_rate in ((rates, lambda k: rates[k]), (1.3, lambda k: 1.3)):
        stacked = K.damped_cumulative_integral(v, h, rate)
        rows = [K.damped_cumulative_integral(v[k], h, row_rate(k)) for k in range(5)]
        assert np.array_equal(stacked, np.stack(rows))


def test_damped_integral_stacked_rejects_mismatched_rates():
    v = np.ones((4, 11))
    for rates in (np.ones(10), np.ones((3, 10)), np.ones((4, 11)), np.ones((3, 1)),
                  np.ones((5, 1)), np.ones((1, 1))):
        with pytest.raises(ValueError, match="each row"):
            K.damped_cumulative_integral(v, 0.1, rates)


# Scalar loop references: the upwind sweep and the depth-first characteristic
# tracer that the vectorized kernels replaced, kept as written.

def _upwind_sweep_py(u, coupling, nu, dtq, n_steps):
    n_edges = u.shape[0]
    last = u.shape[1] - 1
    for _ in range(n_steps):
        for j in range(n_edges):
            for i in range(last):
                u[j, i] = u[j, i] + nu[j] * (u[j, i + 1] - u[j, i]) + dtq[j, i] * u[j, i]
        for j in range(n_edges):
            s = 0.0
            for k in range(n_edges):
                s += coupling[j, k] * u[k, 0]
            u[j, last] = s
    return u


def _lin_interp_py(v, p, h, n):
    idx = int(p / h)
    if idx < 0:
        idx = 0
    if idx > n - 1:
        idx = n - 1
    frac = p / h - idx
    if frac < 0.0:
        frac = 0.0
    elif frac > 1.0:
        frac = 1.0
    return (1.0 - frac) * v[idx] + frac * v[idx + 1]


_lin_interp = _lin_interp_py


def _trace_transport_py(values, indptr, colind, bweight, c, qcum, h, t, cap):
    n_edges, n_nodes = values.shape
    n = n_nodes - 1
    out = np.empty_like(values)
    levels = cap + 2
    edge_l = np.empty(levels, np.int64)
    child_l = np.empty(levels, np.int64)
    trem_l = np.empty(levels, np.float64)
    w_l = np.empty(levels, np.float64)
    for j0 in range(n_edges):
        for i0 in range(n_nodes):
            x0 = i0 * h
            edge_l[0] = j0
            child_l[0] = -1
            trem_l[0] = t
            w_l[0] = 1.0
            top = 0
            acc = 0.0
            while top >= 0:
                j = edge_l[top]
                pos = x0 if top == 0 else 0.0
                if child_l[top] == -1:
                    trem = trem_l[top]
                    s_tail = (1.0 - pos) / c[j]
                    if trem <= s_tail:
                        foot = pos + c[j] * trem
                        if foot > 1.0:
                            foot = 1.0
                        gain = (_lin_interp(qcum[j], foot, h, n)
                                - _lin_interp(qcum[j], pos, h, n)) / c[j]
                        acc += w_l[top] * np.exp(gain) * _lin_interp(values[j], foot, h, n)
                        top -= 1
                        continue
                    gain = (qcum[j, n] - _lin_interp(qcum[j], pos, h, n)) / c[j]
                    w_l[top] = w_l[top] * np.exp(gain)
                    trem_l[top] = trem - s_tail
                    child_l[top] = indptr[j]
                if child_l[top] < indptr[j + 1]:
                    idx = child_l[top]
                    child_l[top] += 1
                    if top + 1 >= levels:
                        raise RuntimeError(
                            "characteristic tracing exceeded the crossing cap")
                    edge_l[top + 1] = colind[idx]
                    child_l[top + 1] = -1
                    trem_l[top + 1] = trem_l[top]
                    w_l[top + 1] = w_l[top] * bweight[idx]
                    top += 1
                else:
                    top -= 1
            out[j0, i0] = acc
    return out


def _csr(bc):
    n_edges = bc.shape[0]
    indptr = np.zeros(n_edges + 1, np.int64)
    cols, data = [], []
    for j in range(n_edges):
        nz = np.nonzero(bc[j])[0]
        indptr[j + 1] = indptr[j] + nz.size
        cols.append(nz)
        data.append(bc[j, nz])
    return indptr, np.concatenate(cols).astype(np.int64), np.concatenate(data)


def _parity_network():
    return semiflow.random_flow_network(6, seed=1, n_cells=80)


def test_upwind_paths_agree():
    net = _parity_network()
    st = semiflow.sample_states(net, 1, 5)[0][1]
    bc = semiflow.weighted_bc(net)
    dt = 0.9 * net.grid.h / float(np.max(net.velocities))
    nu = net.velocities * dt / net.grid.h
    dtq = dt * net.absorption
    a = _upwind_sweep_py(st.values.copy(), bc, nu, dtq, 7)
    c = K.upwind_sweep(st.values, bc, nu, dtq, 7)
    _assert_within_rounding(c, a, st.values, 7)


def _two_cycle(n_cells=40, **kwargs):
    return semiflow.make_network(2, [(0, 1), (1, 0)], n_cells=n_cells, **kwargs)


TRACE_CASES = [
    ("parity6", _parity_network, 5, (1.3,)),
    ("two_cycle", lambda: _two_cycle(velocities=[1.0, 1.0]), 2,
     (0.0, 0.5, 3.7, 20.0)),
    ("random8", lambda: semiflow.random_flow_network(8, seed=3), 3,
     (1.0, 3.0, 5.0)),
    ("mixed_absorbing", lambda: _two_cycle(velocities=[1.0, 2.5],
                                           absorption=[0.3, -0.2]), 4,
     (0.7, 4.2, 9.0)),
]


def _trace(net, st, t, cap=None):
    """``trace_transport`` as ``characteristics_orbit`` calls it, for any
    speeds: through the orbit, speeds that fit a time grid reach
    ``history_transport`` instead."""
    if cap is None:
        cap = int(np.ceil(np.max(t) * np.max(net.velocities))) + 2
    return K.trace_transport(st.values, net.coupling, net.velocities,
                             net.absorption_integral, net.grid.h, t, cap)


def test_trace_paths_agree():
    # one test over all cases, so that its id stays the same
    for name, make, seed, times in TRACE_CASES:
        net = make()
        st = semiflow.sample_states(net, 1, seed)[0][1]
        indptr, colind, bw = _csr(semiflow.weighted_bc(net))
        qc = net.absorption_integral
        for t in times:
            cap = int(np.ceil(t * np.max(net.velocities))) + 2
            new = _trace(net, st, t, cap)
            ref = _trace_transport_py(st.values, indptr, colind, bw,
                                      net.velocities, qc, net.grid.h, t, cap)
            err = np.max(np.abs(new - ref))
            assert err <= 1e-15 * np.max(np.abs(ref)), (name, t, err)


def test_simulate_characteristics_matches_per_time_steps():
    for name, make, seed, times in TRACE_CASES:
        net = make()
        st = semiflow.sample_states(net, 1, seed)[0][1]
        out_times, states = semiflow.simulate_flow(net, st, max(times),
                                                   "characteristics", n_outputs=7)
        for t, state in zip(out_times, states):
            ref = semiflow.step_characteristics(net, st, float(t)).values
            assert np.array_equal(state.values, ref), (name, t)


def test_orbit_splits_blocks_over_the_frontier_limit(monkeypatch):
    # two-cycle of 4 cells, with a speed off the time grid of the other so
    # that the orbit traces: t = 6 alone creates 72 entries, the whole block
    # of 12 times 525; with a limit of 150 the block goes over, each time
    # alone stays under, and the block is traced again one time per call,
    # the largest time first
    net = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 1.0 + 2.0 ** -30],
                                n_cells=4)
    st = semiflow.sample_states(net, 1, 7)[0][1]
    args = (st.values, net.coupling, net.velocities, net.absorption_integral,
            net.grid.h)
    times = np.linspace(6.0, 0.5, 12)
    per_time = [semiflow.step_characteristics(net, st, float(t)).values
                for t in times]
    monkeypatch.setattr(K, "FRONTIER_LIMIT", 150)
    with pytest.raises(ValueError, match="t = 6.0 "):
        K.trace_transport(*args, times, 10)
    calls = []

    def spy(*a):
        calls.append(np.asarray(a[5]).tolist())
        return K.trace_transport(*a)

    monkeypatch.setattr(semiflow.network, "trace_transport", spy)
    orbit = semiflow.network.characteristics_orbit
    rows = list(orbit(net, st, times))
    assert calls == [times.tolist()] + [[t] for t in sorted(times, reverse=True)]
    assert all(np.array_equal(row, ref) for row, ref in zip(rows, per_time))
    # t = 20 (212 entries) and t = 30 (312) are each over the limit alone;
    # the error names the block's largest time, not the first failing one
    calls.clear()
    with pytest.raises(ValueError, match=r"t = 30\.0 would create"):
        list(orbit(net, st, [20.0, 1.0, 30.0, 2.0]))
    assert calls == [[20.0, 1.0, 30.0, 2.0], [30.0]]


def test_orbit_of_one_time_blocks_names_its_largest_time(monkeypatch):
    # two-cycle of 2048 cells at speeds 1 and sqrt 2: a state holds more
    # than ORBIT_BLOCK_VALUES values, so each block is one time and a block
    # over the limit is not split; t = 1e9 is rejected up front with at
    # least (1e9 - 1) 2 2049 entries, and the error names the orbit's
    # largest time with that count as a lower bound
    net = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 2.0 ** 0.5],
                                n_cells=2048)
    st = semiflow.initial_state(net)
    assert st.values.size > semiflow.network.ORBIT_BLOCK_VALUES
    calls = []

    def spy(*a):
        calls.append(np.asarray(a[5]).tolist())
        return K.trace_transport(*a)

    monkeypatch.setattr(semiflow.network, "trace_transport", spy)
    with pytest.raises(K.FrontierLimitError) as info:
        list(semiflow.network.characteristics_orbit(net, st, [0.5, 1e9, 2e9]))
    assert calls == [[0.5], [1e9]]
    assert str(info.value).startswith(
        "characteristic tracing to t = 2000000000.0 would create at least "
        "4097999995902 frontier entries")


def test_trace_crossing_cap_raises():
    net = semiflow.make_network(2, [(0, 1), (1, 0)], velocities=[1.0, 1.0],
                                n_cells=20)
    st = semiflow.initial_state(net)
    bc = semiflow.weighted_bc(net)
    c, qc, h = net.velocities, net.absorption_integral, net.grid.h
    # at t = 5 the node next to each head crosses 5 vertices, the last one
    # from crossing level 4
    for cap in (2, 3):
        with pytest.raises(RuntimeError):
            K.trace_transport(st.values, bc, c, qc, h, 5.0, cap)
    ref = _trace_transport_py(st.values, *_csr(bc), c, qc, h, 5.0, 4)
    assert np.array_equal(K.trace_transport(st.values, bc, c, qc, h, 5.0, 4), ref)


def test_trace_frontier_limit_rejects_branching_blowup():
    # out-degree 2 at both vertices: the path count doubles per crossing
    net = semiflow.make_network(2, [(0, 1), (0, 1), (1, 0), (1, 0)],
                                velocities=[1.0] * 4, n_cells=20)
    st = semiflow.initial_state(net)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="t = 40.0"):
        _trace(net, st, 40.0)
    assert time.perf_counter() - start < 1.0


def test_trace_rejects_fully_fed_graph_before_tracing():
    # the two-cycle of configs/two_cycle.json: 2 x 401 nodes, each crossing
    # once per unit time, so t = 5300 passes 2**22 entries
    net = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=400)
    st = semiflow.initial_state(net)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="t = 5300.0 would create at least"):
        _trace(net, st, 5300.0)
    assert time.perf_counter() - start < 0.5


def test_trace_rejects_graph_with_source_edge_before_tracing():
    # edge 0 leaves a vertex no edge enters: it is not live, but the loop on
    # edge 1 still yields a lower bound that rejects t = 1e8 up front
    net = semiflow.make_network(2, [(0, 1), (1, 1)], [1.0, 1.0], n_cells=20)
    st = semiflow.initial_state(net)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at least"):
        _trace(net, st, 1e8)
    assert time.perf_counter() - start < 0.5


def test_trace_crossing_cap_precedes_up_front_rejection():
    # a caller's small cap ends the trace first, as the loop would
    net = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=400)
    qcum = net.absorption_integral
    vals = semiflow.initial_state(net).values
    with pytest.raises(RuntimeError, match="crossing cap"):
        K.trace_transport(vals, net.coupling, net.velocities, qcum,
                          net.grid.h, 5300.0, 3)


@pytest.mark.parametrize("edges,velocities", [
    ([(0, 1), (1, 0)], [1.0, 1.0]),
    ([(0, 1), (1, 0)], [1.0, 2.5]),
    ([(0, 1), (1, 2), (2, 0), (1, 0)], [0.7, 1.3, 2.0, 1.0]),
    ([(0, 1), (1, 2), (2, 1)], [1.0, 1.0, 1.0]),
    # edge 1 has a child, but only the source edge 0: the live-edge
    # fixpoint takes a second pass to drop it
    ([(0, 1), (1, 2), (2, 3), (3, 2)], [1.0] * 4),
    # truncation ladders closed at the root: a 16-edge line k -> k - 1 and a
    # depth-3 binary in-tree, each with a loop at vertex 0, the one live
    # edge; speeds from 2 up let its bound pass the limit within the scan
    ([(0, 0)] + [(k, k - 1) for k in range(1, 16)],
     [2.0 * 2.0 ** (k % 2 / 2) for k in range(16)]),
    ([(0, 0)] + [(v, (v - 1) // 2) for v in range(1, 15)],
     [2.0 * 2.0 ** (k % 2 / 2) for k in range(15)]),
], ids=["two_cycle", "two_speeds", "branching", "source_fed_cycle", "source_chain",
        "line_16", "binary_in_tree_3"])
def test_trace_rejects_up_front_only_what_the_loop_rejects(monkeypatch, edges,
                                                           velocities):
    # with a small limit, scan t upward: the first rejection must come from
    # the loop, and every later t stays rejected
    monkeypatch.setattr(K, "FRONTIER_LIMIT", 600)
    net = semiflow.make_network(1 + max(max(e) for e in edges), edges,
                                velocities, n_cells=4)
    st = semiflow.initial_state(net)
    outcomes = []
    for t in np.arange(0.5, 120.0, 0.25):
        try:
            _trace(net, st, float(t))
            outcomes.append("traced")
        except ValueError as exc:
            outcomes.append("up_front" if "at least" in str(exc) else "loop")
    assert "up_front" in outcomes
    first = outcomes.index("loop")
    assert "up_front" not in outcomes[:first]
    assert "traced" not in outcomes[first:]


def _branching_two_speeds():
    # out-degree 2 at every vertex, speeds 1 and 2, absorption of both signs
    return semiflow.make_network(
        3, [(0, 1), (1, 2), (2, 0), (1, 0), (0, 2), (2, 1)],
        [1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
        absorption=[0.1, -0.2, 0.3, 0.0, 0.2, -0.1], n_cells=30)


HISTORY_CASES = [case for case in TRACE_CASES if case[0] in ("two_cycle", "mixed_absorbing")]
HISTORY_CASES += [("branching_two_speeds", _branching_two_speeds, 5, (1.0, 2.0, 3.0))]


@pytest.mark.parametrize("name, make, seed, times", HISTORY_CASES,
                         ids=[case[0] for case in HISTORY_CASES])
def test_history_matches_tracer(name, make, seed, times):
    # every value within 1e-12 max|u| of the tracer, except on a jump line,
    # where the history takes the initial-data side: the tracer's value a
    # moment earlier
    net = make()
    st = semiflow.sample_states(net, 1, seed)[0][1]
    assert K.common_step(net.grid.h, net.velocities, np.array(times)) is not None
    got = np.array(list(semiflow.network.characteristics_orbit(net, st, times)))
    ref = _trace(net, st, np.array(times))
    scale = float(np.max(np.abs(ref)))
    off = np.abs(got - ref) > 1e-12 * scale
    for k, t in enumerate(times):
        if off[k].any():
            before = _trace(net, st, t - 1e-9)
            assert np.max(np.abs(got[k] - before)[off[k]]) <= 1e-6 * scale, (name, t)


def test_history_takes_initial_side_on_jump_line():
    # unit two-cycle: the node x = 0.5 at t = 0.5 reads its edge's tail node,
    # where the sample jumps against the coupled head value of the other edge
    net = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=200)
    st = semiflow.sample_states(net, 1, 3)[0][1]
    got = semiflow.step_characteristics(net, st, 0.5).values[:, 100]
    coupled = net.coupling @ st.values[:, 0]
    assert np.array_equal(got, st.values[:, -1])
    assert np.all(np.abs(got - coupled) > 0.1)


@pytest.mark.parametrize("parallel, n_cells, t", [(8, 54, 4.5), (2, 20, 40.0)],
                         ids=["eight_parallel_edges", "branching_t40"])
def test_history_serves_what_tracing_cannot(parallel, n_cells, t):
    # two vertices joined by parallel edges each way: the path count grows
    # like parallel^t, so tracing took ~370 MB at (8, 54, 4.5) and rejects
    # (2, 20, 40); the history is linear in t.  Unit speeds, and data that
    # vanish at the edge ends, so the mass is conserved
    edges = [(0, 1)] * parallel + [(1, 0)] * parallel
    net = semiflow.make_network(2, edges, [1.0] * len(edges), n_cells=n_cells)
    st = semiflow.initial_state(net)
    start = time.perf_counter()
    out = semiflow.step_characteristics(net, st, t)
    assert time.perf_counter() - start < 1.0
    assert semiflow.total_mass(out) == pytest.approx(semiflow.total_mass(st), rel=1e-12)


def test_history_over_the_limit_is_rejected_before_work():
    # two-cycle of 400 cells: t = 5300 needs 2 x (5300 x 400 + 1) head
    # values, more than 2**22
    net = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=400)
    st = semiflow.initial_state(net)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="t = 5300.0 would store 4240002 head values"):
        semiflow.step_characteristics(net, st, 5300.0)
    assert time.perf_counter() - start < 0.5


def test_history_reads_initial_data_only_where_a_value_needs_it(monkeypatch):
    # unit two-cycle of 4 cells: dt = h, and an edge and a pass both take 4
    # steps.  Of the 201 passes to t = 200 only the first two reach back to
    # s <= 1/c (steps 0-3, and step 4 on the jump line), 4 and 1 steps of 2
    # edges; of the block (0, 200) only the row t = 0, all 10 values
    net = _two_cycle(n_cells=4, velocities=[1.0, 1.0])
    st = semiflow.sample_states(net, 1, 3)[0][1]
    foot_value, sizes = K._foot_value, []

    def spy(vals, qcum, c, b, edge, *rest):
        sizes.append(edge.size)
        return foot_value(vals, qcum, c, b, edge, *rest)

    monkeypatch.setattr(K, "_foot_value", spy)
    orbit = list(semiflow.network.characteristics_orbit(net, st, [0.0, 200.0]))
    assert sizes == [8, 2, 10]
    sizes.clear()
    alone = semiflow.step_characteristics(net, st, 200.0).values
    assert sizes == [8, 2]
    assert np.array_equal(alone, orbit[1])


def test_common_step_needs_one_grid_for_speeds_and_times():
    h = 0.025
    assert K.common_step(h, np.array([1.0, 2.5]), np.array([0.7, 4.2])) == pytest.approx(0.005)
    assert K.common_step(h, np.array([1.0, 1.0]), np.array([0.0, 20.0 / 6])) == pytest.approx(h / 3)
    assert K.common_step(h, np.array([1.0, math.sqrt(2.0)]), np.array([1.0])) is None
    assert K.common_step(h, np.array([1.0, 1.0]), np.array([math.pi])) is None
    # a span too many steps long to tell a fit from rounding
    assert K.common_step(h, np.array([1.0, 1e-300]), np.array([1.0])) is None


def test_linear_interpolation_clamps():
    v = np.array([[0.0, 1.0, 4.0]])
    edge = np.zeros(4, np.int64)
    got = K._interp(v, edge, *K._panel(np.array([-0.5, 2.5, 0.5, 1.5]), 1.0, 2))
    assert got[0] == 0.0
    assert got[1] == 4.0
    assert got[2] == pytest.approx(0.5)
    assert got[3] == pytest.approx(2.5)



# Parity of the network kernels with the layouts they replaced: the
# edge-major upwind march in the difference form (to rounding level) and the
# tracer that interpolated every read of qcum on its own (through np.clip,
# bit for bit), kept as written.

def _upwind_sweep_edge_major(values, coupling, nu, dtq, n_steps):
    u = np.array(values, dtype=np.float64, copy=True)
    coupling = np.asarray(coupling, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    dtq = np.asarray(dtq, dtype=np.float64)
    for _ in range(int(n_steps)):
        u[:, :-1] += nu[:, None] * (u[:, 1:] - u[:, :-1]) + dtq[:, :-1] * u[:, :-1]
        u[:, -1] = coupling @ u[:, 0]
    return u


def _lin_interp_clip(table, edge, pos, h):
    n = table.shape[1] - 1
    idx = np.clip((pos / h).astype(np.int64), 0, n - 1)
    frac = np.clip(pos / h - idx, 0.0, 1.0)
    return K._interp(table, edge, idx, frac)


def _trace_transport_per_read(values, coupling, c, qcum, h, t, cap):
    vals = np.asarray(values, dtype=np.float64)
    bc = np.asarray(coupling, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    qcum = np.asarray(qcum, dtype=np.float64)
    h = float(h)
    times = np.asarray(t, dtype=np.float64)
    t_max = float(np.max(times))
    n_edges, n_nodes = vals.shape
    n = n_nodes - 1
    rows, cols = np.nonzero(bc)
    n_children = np.bincount(rows, minlength=n_edges)
    first_child = np.cumsum(n_children) - n_children
    bweight = bc[rows, cols]
    live = n_children > 0
    while not np.array_equal(fed := (bc != 0) @ live, live):
        live = fed
    levels = np.clip(np.ceil(times * float(np.min(c))) - 1.0, 0.0, cap + 1.0)
    bound = float(np.sum(levels)) * np.count_nonzero(live) * n_nodes
    if bound > K.FRONTIER_LIMIT:
        raise K.frontier_error(t_max, int(bound), exact=False)

    per_time = n_edges * n_nodes
    origin = np.arange(times.size * per_time)
    edge = np.tile(np.repeat(np.arange(n_edges), n_nodes), times.size)
    pos = np.tile(np.arange(n_nodes) * h, n_edges * times.size)
    trem = np.repeat(times.ravel(), per_time)
    weight = np.ones(origin.size)
    out = np.zeros(origin.size)
    total = origin.size
    level = 0
    while origin.size:
        ce = c[edge]
        to_tail = (1.0 - pos) / ce
        done = trem <= to_tail
        e, p = edge[done], pos[done]
        foot = np.minimum(p + ce[done] * trem[done], 1.0)
        gain = (_lin_interp_clip(qcum, e, foot, h) - _lin_interp_clip(qcum, e, p, h)) / ce[done]
        np.add.at(out, origin[done],
                  weight[done] * np.exp(gain) * _lin_interp_clip(vals, e, foot, h))

        go = ~done
        e = edge[go]
        counts = n_children[e]
        size = int(counts.sum())
        if size and level > cap:
            raise RuntimeError("characteristic tracing exceeded the crossing cap")
        total += size
        if total > K.FRONTIER_LIMIT:
            raise K.frontier_error(t_max, total)
        gain = (qcum[e, n] - _lin_interp_clip(qcum, e, pos[go], h)) / ce[go]
        child = (np.repeat(first_child[e], counts) + np.arange(size)
                 - np.repeat(np.cumsum(counts) - counts, counts))
        origin = np.repeat(origin[go], counts)
        trem = np.repeat(trem[go] - to_tail[go], counts)
        weight = np.repeat(weight[go] * np.exp(gain), counts) * bweight[child]
        edge = cols[child]
        pos = np.zeros(size)
        level += 1
    return out.reshape(times.shape + (n_edges, n_nodes))


def _assert_bits_equal(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def _upwind_inputs(n_edges, n_nodes, absorption, seed):
    """Random data, a sparse nonnegative coupling, CFL numbers in (0, 1] and
    a zero-order term ``dtq`` that is zero, one constant per edge or one
    value per node."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_edges, n_nodes))
    coupling = rng.uniform(0.0, 2.0, (n_edges, n_edges))
    coupling *= rng.random((n_edges, n_edges)) < 0.3
    nu = rng.uniform(0.1, 1.0, n_edges)
    dtq = {"zero": np.zeros((n_edges, n_nodes)),
           "per_edge": np.repeat(rng.uniform(-0.01, 0.01, (n_edges, 1)), n_nodes, 1),
           "per_node": rng.uniform(-0.01, 0.01, (n_edges, n_nodes))}[absorption]
    return values, coupling, nu, dtq


def _assert_within_rounding(got, ref, values, n_steps):
    """``got`` is within 2 k eps M of ``ref`` after k = ``n_steps`` steps,
    M = max(max|values|, max|ref|).

    Both forms compute the same real update w = (1 - nu + dtq) u + nu v of a
    cell from u = u_i and v = u_{i+1}: the weighted sum rounds keep (twice),
    its two products and their sum; the difference form rounds v - u, its
    product by nu, dtq u, their sum and the final add.  Each rounding is at
    most eps/2 of a value no larger than 2M, so one step moves the two
    results of a cell apart by a few ulps of M at worst and by about one in
    practice.  The weights have |keep| + nu <= 1 + |dtq|, so a difference
    carried into a step grows by at most 1 % here, and k steps add k new
    ones.  The tail row is the coupling applied to the head row, so its
    difference scales with the tail values, which M includes; within 25
    steps no tail value travels back to a head, so the coupling acts on a
    carried difference once.  Over the nine ``_upwind_inputs`` cases the
    largest |got - ref| / (k eps M) is 0.81 (at k = 1); a change of the
    scheme itself would show as O(dt), far above 2 k eps M."""
    scale = max(np.max(np.abs(values)), np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref)) <= 2 * n_steps * np.finfo(float).eps * scale


@pytest.mark.parametrize("absorption", ["zero", "per_edge", "per_node"])
@pytest.mark.parametrize("n_edges, n_nodes", [(8, 51), (2, 401), (64, 401)],
                         ids=["8x51", "2x401", "64x401"])
def test_upwind_march_matches_the_difference_form(n_edges, n_nodes, absorption):
    values, coupling, nu, dtq = _upwind_inputs(n_edges, n_nodes, absorption, 7)
    layouts = {"c_order": values, "fortran": np.asfortranarray(values),
               "transposed_view": np.ascontiguousarray(values.T).T}
    for n_steps in (0, 1, 25):
        ref = _upwind_sweep_edge_major(values, coupling, nu, dtq, n_steps)
        first = K.upwind_sweep(values, coupling, nu, dtq, n_steps)
        for layout, given in layouts.items():
            before = given.copy()
            got = K.upwind_sweep(given, coupling, nu, dtq, n_steps)
            _assert_bits_equal(got, first)
            assert got.flags.c_contiguous, (layout, n_steps)
            assert not np.shares_memory(got, given), (layout, n_steps)
            assert np.array_equal(given, before), (layout, n_steps)
        if n_steps == 0:
            _assert_bits_equal(first, values)
        else:
            _assert_within_rounding(first, ref, values, n_steps)
    # unit CFL without absorption: keep is exactly 0, so each step shifts
    # every edge by one node exactly
    unit, no_q = np.ones(n_edges), np.zeros_like(dtq)
    got = K.upwind_sweep(values, coupling, unit, no_q, 3)
    _assert_bits_equal(got[:, :-3], values[:, 3:])
    _assert_within_rounding(got, _upwind_sweep_edge_major(values, coupling, unit, no_q, 3),
                            values, 3)


def _upwind_sweep_broadcast(values, coupling, nu, dtq, n_steps):
    # the node-major march as written before nu was spread to a full array,
    # verbatim: an (E,) nu broadcast over the rows, the coupling by matmul
    u = np.array(values.T, order="C")
    keep = np.ascontiguousarray((1.0 - nu) + dtq[:, :-1].T)
    lower, upper, head, tail = u[:-1], u[1:], u[0], u[-1]
    inflow = np.empty_like(lower)
    for _ in range(int(n_steps)):
        np.multiply(nu, upper, out=inflow)
        np.multiply(keep, lower, out=lower)
        np.add(lower, inflow, out=lower)
        np.matmul(coupling, head, out=tail)
    return u.T.copy()


def _one_edge_loop(absorption, seed):
    """One edge whose head feeds its own tail, with a coupling weight that
    is not 1, so that the loop's product is not exact."""
    values, _, nu, dtq = _upwind_inputs(1, 51, absorption, seed)
    return values, np.array([[0.75]]), nu, dtq


UPWIND_PIN_CASES = [(f"{n_edges}x{n_nodes}_{absorption}",
                     lambda n_edges=n_edges, n_nodes=n_nodes, absorption=absorption:
                     _upwind_inputs(n_edges, n_nodes, absorption, 7))
                    for n_edges, n_nodes in ((8, 51), (2, 401), (64, 401))
                    for absorption in ("zero", "per_edge", "per_node")]
UPWIND_PIN_CASES += [(f"one_edge_loop_{absorption}",
                      lambda absorption=absorption: _one_edge_loop(absorption, 7))
                     for absorption in ("zero", "per_edge", "per_node")]


@pytest.mark.parametrize("make", [case[1] for case in UPWIND_PIN_CASES],
                         ids=[case[0] for case in UPWIND_PIN_CASES])
def test_upwind_march_is_bit_identical_to_the_broadcast_march(make):
    values, coupling, nu, dtq = make()
    for n_steps in (0, 1, 25, 200):
        _assert_bits_equal(K.upwind_sweep(values, coupling, nu, dtq, n_steps),
                           _upwind_sweep_broadcast(values, coupling, nu, dtq, n_steps))
    # unit CFL: keep is exactly 0 without absorption and exactly dtq with it
    unit = np.ones_like(nu)
    for q in (np.zeros_like(dtq), dtq):
        _assert_bits_equal(K.upwind_sweep(values, coupling, unit, q, 3),
                           _upwind_sweep_broadcast(values, coupling, unit, q, 3))


def _per_node_absorbing():
    net = semiflow.random_flow_network(6, seed=2, n_cells=40)
    x = net.grid.nodes
    q = np.stack([0.4 * np.sin(3.0 * x + k) for k in range(net.n_edges)])
    return semiflow.Network(net.n_vertices, net.edges, net.weights, net.velocities,
                            q, net.grid)


def _fan_out_absorbing():
    # vertex 0 feeds three edges and vertex 1 two, every other vertex
    # returns to 0; speeds that fit no time grid, and absorption of both
    # signs that varies along each edge
    edges = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0), (1, 2)]
    n_cells = 30
    x = np.linspace(0.0, 1.0, n_cells + 1)
    q = np.stack([0.5 * np.sin(4.0 * x + k) - 0.1 * k for k in range(len(edges))])
    return semiflow.make_network(4, edges, [1.0, 2.0 ** 0.5, 1.5, 2.0, 1.0, 0.7, 1.2],
                                 absorption=q, n_cells=n_cells)


# (name, network, sample seed, times): every tracing case, a network whose
# absorption varies along each edge, a branching one with out-degree 3 as
# well, and blocks of times with t = 0 and a jump line t = (1 - x)/c
# through the node x = 0.5 of each edge of a two-cycle of speeds 1 and 2.5
PARITY_TRACE_CASES = [(name, make, seed, np.array(times))
                      for name, make, seed, times in TRACE_CASES]
PARITY_TRACE_CASES += [
    ("per_node_absorbing", _per_node_absorbing, 6, np.array([0.0, 0.9, 2.4])),
    ("fan_out_absorbing", _fan_out_absorbing, 8, np.array([0.0, 1.3, 3.1, 4.6])),
    ("jump_lines", lambda: _two_cycle(velocities=[1.0, 2.5], absorption=[0.3, -0.2]),
     4, np.array([0.0, 0.2, 0.5, 1.7])),
]


@pytest.mark.parametrize("name, make, seed, times", PARITY_TRACE_CASES,
                         ids=[case[0] for case in PARITY_TRACE_CASES])
def test_trace_reads_each_foot_once_bit_identically(name, make, seed, times):
    net = make()
    st = semiflow.sample_states(net, 1, seed)[0][1]
    args = (st.values, net.coupling, net.velocities, net.absorption_integral,
            net.grid.h)
    cap = int(np.ceil(np.max(times) * np.max(net.velocities))) + 2
    _assert_bits_equal(K.trace_transport(*args, times, cap),
                       _trace_transport_per_read(*args, times, cap))
    for t in times:
        _assert_bits_equal(K.trace_transport(*args, t, cap),
                           _trace_transport_per_read(*args, t, cap))


def test_network_kernels_keep_their_positional_signatures():
    # the benchmark's tracer patches both kernels by name on semiflow.network
    # and reads their arguments by position
    from semiflow import network
    assert list(inspect.signature(K.upwind_sweep).parameters) == [
        "values", "coupling", "nu", "dtq", "n_steps"]
    assert list(inspect.signature(K.trace_transport).parameters) == [
        "values", "coupling", "c", "qcum", "h", "t", "cap"]
    assert network.upwind_sweep is K.upwind_sweep
    assert network.trace_transport is K.trace_transport


def test_damped_integral_keeps_its_positional_signature():
    # the benchmark's tracer patches the damped integral by name on
    # semiflow.network and semiflow.operators and reads its arguments by
    # position: the data first, the rate third; the destination is a keyword
    from semiflow import network, operators
    params = inspect.signature(K.damped_cumulative_integral).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        ("values", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("h", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("rate", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("out", inspect.Parameter.KEYWORD_ONLY)]
    assert network.damped_cumulative_integral is K.damped_cumulative_integral
    assert operators.damped_cumulative_integral is K.damped_cumulative_integral


def _damped_row_major(values, h, rate):
    # the damped integral as written before it marched node-major, verbatim
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] < 2:
        raise ValueError("values must be one row or a stack of rows with at "
                         "least two nodes")
    if not h > 0:
        raise ValueError("panel width must be positive")
    n = v.shape[-1] - 1
    rate_arr = np.asarray(rate, dtype=np.float64)
    per_row = v.ndim == 2 and rate_arr.shape == (v.shape[0], 1)
    if rate_arr.ndim and not per_row and rate_arr.shape != v.shape[:-1] + (n,):
        raise ValueError("rate must be a scalar, one value per row or one value "
                         "per panel of each row")
    panel = rate_arr.ndim > 0 and not per_row
    with np.errstate(over="ignore"):
        z = rate_arr * h
    d, a, b = K.panel_decay_weights(z)
    ha, hb = a * h, b * h
    over = z == np.inf
    if np.any(over):
        hb = np.where(over, 1.0 / np.where(over, rate_arr, 1.0), hb)
    if not rate_arr.ndim:
        d, ha, hb = float(d), float(ha), float(hb)
    out = np.empty_like(v)
    out[..., 0] = 0.0
    w = out[..., 1:]
    np.multiply(ha, v[..., :-1], out=w)
    w += hb * v[..., 1:]
    s = 1
    while s < n and (panel or (np.any(d) if per_row else d)):
        w[..., s:] += (d[..., s:] if panel else d) * w[..., :-s]
        if panel:
            d[..., s:] *= d[..., :-s]
        else:
            d *= d
        s *= 2
    return out


# (panel width, rate draw): ordinary decay; rates whose rate h overflows to
# inf on some panels; negative rates, whose factors overflow to inf and give
# nan where they meet an exact-zero partial sum; and rates whose factors
# underflow to 0 after a pass or two
DAMPED_REGIMES = {
    "decaying": (0.01, lambda rng, shape: rng.uniform(0.05, 3.0, shape)),
    "overflowing": (2.5, lambda rng, shape: np.where(rng.random(shape) < 0.4, 1e308,
                                                     rng.uniform(0.05, 3.0, shape))),
    "negative": (0.01, lambda rng, shape: rng.uniform(-3e4, -0.1, shape)),
    "underflowing": (0.01, lambda rng, shape: rng.uniform(2e3, 9e4, shape)),
}


def _layouts(v):
    """The same data C-ordered, Fortran-ordered, as a transposed view and as
    a view with negative strides (a 1-D row: C-ordered, strided, reversed)."""
    if v.ndim == 1:
        spread = np.zeros(2 * v.size)
        spread[::2] = v
        return {"c_order": v.copy(), "strided": spread[::2],
                "reversed": v[::-1].copy()[::-1]}
    return {"c_order": v.copy(), "fortran": np.asfortranarray(v),
            "transposed_view": np.ascontiguousarray(v.T).T,
            "reversed": v[:, ::-1].copy()[:, ::-1]}


@pytest.mark.parametrize("regime", list(DAMPED_REGIMES))
@pytest.mark.parametrize("rows", [None, 1, 16, 128, 512],
                         ids=["1d", "1", "16", "128", "512"])
def test_damped_integral_node_major_march_is_bit_identical(rows, regime):
    h, draw = DAMPED_REGIMES[regime]
    rng = np.random.default_rng(11)
    non_finite = False
    for n in (1, 2, 5, 200):
        shape = (n + 1,) if rows is None else (rows, n + 1)
        v = rng.standard_normal(shape)
        v[..., :(n + 1) // 2] = 0.0  # exact-zero partial sums
        rates = {"scalar": float(draw(rng, ())),
                 "per_panel": draw(rng, shape[:-1] + (n,))}
        if rows is not None:
            rates["per_row"] = draw(rng, (rows, 1))
        for kind, rate in rates.items():
            for layout, given in _layouts(v).items():
                case = (n, kind, layout)
                before = given.copy()
                with np.errstate(over="ignore", invalid="ignore"):
                    got = K.damped_cumulative_integral(given, h, rate)
                    ref = _damped_row_major(given, h, rate)
                assert got.shape == ref.shape, case
                assert np.array_equal(got, ref, equal_nan=True), case
                assert np.array_equal(np.signbit(got), np.signbit(ref)), case
                assert np.array_equal(given, before), case
                assert got.flags.c_contiguous, case
                assert not np.shares_memory(got, given), case
                non_finite = non_finite or not np.all(np.isfinite(got))
    # only the negative regime reaches the overflow it is meant to test
    assert non_finite == (regime == "negative")


@pytest.mark.parametrize("regime", list(DAMPED_REGIMES))
@pytest.mark.parametrize("rows", [None, 1, 16, 128], ids=["1d", "1", "16", "128"])
def test_damped_integral_destination_matches_the_allocating_call(rows, regime):
    # with out=(work, result) the march runs in the caller's node-major
    # arrays, filled with nan beforehand, and returns result.T: the
    # allocating call's bits, the input untouched
    h, draw = DAMPED_REGIMES[regime]
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 200):
        shape = (n + 1,) if rows is None else (rows, n + 1)
        v = rng.standard_normal(shape)
        v[..., :(n + 1) // 2] = 0.0
        rates = {"scalar": float(draw(rng, ())),
                 "per_panel": draw(rng, shape[:-1] + (n,))}
        if rows is not None:
            rates["per_row"] = draw(rng, (rows, 1))
        for kind, rate in rates.items():
            case = (n, kind)
            before = v.copy()
            out = (np.full(shape[::-1], np.nan), np.full(shape[::-1], np.nan))
            with np.errstate(over="ignore", invalid="ignore"):
                ref = K.damped_cumulative_integral(v, h, rate)
                got = K.damped_cumulative_integral(v, h, rate, out=out)
            assert got.shape == ref.shape, case
            assert got.tobytes() == ref.tobytes(), case
            assert got.base is out[1] or got is out[1], case
            assert v.tobytes() == before.tobytes(), case


def test_damped_integral_destination_must_be_node_major_float64():
    v = np.ones((3, 5))
    for out in ((np.empty((3, 5)), np.empty((3, 5))),
                (np.empty((5, 3)), np.empty((5, 3), dtype=np.float32))):
        with pytest.raises(ValueError, match="node-major"):
            K.damped_cumulative_integral(v, 0.1, 1.0, out=out)


# (rate, panel width): z = rate h just below and just above the series
# switch at |z| = 1e-4, of both signs; z where exp(-z) goes subnormal and
# then 0; rate h overflowing to inf; subnormal rates, whose z is subnormal
# or 0
SCALAR_RATE_EDGES = [
    (np.nextafter(1e-4, 0.0), 1.0), (1e-4, 1.0), (np.nextafter(1e-4, 1.0), 1.0),
    (-np.nextafter(1e-4, 0.0), 1.0), (-np.nextafter(1e-4, 1.0), 1.0),
    (0.99e-2, 0.01), (1.01e-2, 0.01),
    (700.0, 1.0), (709.5, 1.0), (720.0, 1.0), (744.0, 1.0), (745.2, 1.0), (750.0, 1.0),
    (7.45e4, 0.01), (1e308, 10.0), (1e300, 1e10),
    (5e-324, 0.01), (1e-310, 1.0), (2.5e-310, 3.0), (0.0, 0.5), (-0.0, 0.5),
]


@pytest.mark.parametrize("rate, h", SCALAR_RATE_EDGES)
def test_scalar_rate_weights_equal_panel_weights_bit_for_bit(rate, h):
    # a scalar rate takes its weights as Python floats, a per-panel rate
    # from panel_decay_weights: the same integral, sign bits included
    rng = np.random.default_rng(3)
    for n in (1, 2, 64):
        v = rng.standard_normal((2, n + 1))
        v[0, : (n + 1) // 2] = -0.0  # signed-zero partial sums
        with np.errstate(over="ignore", invalid="ignore"):
            a = K.damped_cumulative_integral(v, h, rate)
            b = K.damped_cumulative_integral(v, h, np.full((2, n), rate))
            c = K.damped_cumulative_integral(v[1], h, rate)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (n, rate, h)
        assert np.array_equal(c.view(np.uint64), b[1].view(np.uint64)), (n, rate, h)


def test_scalar_rate_weights_equal_panel_weights_on_random_rates():
    # math.exp and math.expm1 differ from numpy's in the last bit on a few
    # per cent of arguments: the scalar weights take numpy's
    rng = np.random.default_rng(4)
    v = rng.standard_normal((1, 5))
    for z in np.exp(rng.uniform(np.log(1e-6), np.log(750.0), 400)):
        a = K.damped_cumulative_integral(v, 1.0, float(z))
        b = K.damped_cumulative_integral(v, 1.0, np.full((1, 4), z))
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), z
