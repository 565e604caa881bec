"""Kernel-level tests: quadrature weights, recurrences, and the parity of the
vectorized kernels with scalar loop references."""

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
    assert np.array_equal(a, c)


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
    sg = semiflow.network_semigroup(net)
    rows = np.concatenate(list(sg.orbit(times, st)))
    assert calls == [times.tolist()] + [[t] for t in sorted(times, reverse=True)]
    assert all(np.array_equal(row, ref) for row, ref in zip(rows, per_time))
    # t = 20 (212 entries) and t = 30 (312) are each over the limit alone;
    # the error names the block's largest time, not the first failing one
    calls.clear()
    with pytest.raises(ValueError, match=r"t = 30\.0 would create"):
        list(sg.orbit([20.0, 1.0, 30.0, 2.0], st))
    assert calls == [[20.0, 1.0, 30.0, 2.0], [30.0]]


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
], ids=["two_cycle", "two_speeds", "branching", "source_fed_cycle"])
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
    got = np.concatenate(list(semiflow.network_semigroup(net).orbit(times, st)))
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
    got = K._lin_interp(v, edge, np.array([-0.5, 2.5, 0.5, 1.5]), 1.0)
    assert got[0] == 0.0
    assert got[1] == 4.0
    assert got[2] == pytest.approx(0.5)
    assert got[3] == pytest.approx(2.5)

