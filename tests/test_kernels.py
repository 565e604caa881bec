"""Kernel-level tests: quadrature weights, recurrences, and the parity of the
vectorized kernels with scalar loop references."""

import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import semiflow
from semiflow import _kernels as K
from semiflow.network import _absorption_cumulative


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


def test_damped_integral_python_lfilter_parity():
    rng = np.random.default_rng(1)
    v = rng.normal(size=64)
    h = 0.05
    rates = np.full(63, 0.9)
    d, wa, wb = K.panel_decay_weights(rates * h)
    direct = K._damped_cumsum_py(v, d, wa * h, wb * h)
    filt = K._damped_cumsum_lfilter(v, d[0], wa[0] * h, wb[0] * h)
    assert np.max(np.abs(direct - filt)) < 1e-13


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
    for rates in (np.ones(10), np.ones((3, 10)), np.ones((4, 11))):
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


def test_trace_paths_agree():
    # one test over all cases, so that its id stays the same
    for name, make, seed, times in TRACE_CASES:
        net = make()
        st = semiflow.sample_states(net, 1, seed)[0][1]
        indptr, colind, bw = _csr(semiflow.weighted_bc(net))
        qc = _absorption_cumulative(net)
        for t in times:
            cap = int(np.ceil(t * np.max(net.velocities))) + 2
            new = semiflow.step_characteristics(net, st, t).values
            ref = _trace_transport_py(st.values, indptr, colind, bw,
                                      net.velocities, qc, net.grid.h, t, cap)
            err = np.max(np.abs(new - ref))
            assert err <= 1e-15 * np.max(np.abs(ref)), (name, t, err)


def test_trace_crossing_cap_raises():
    net = semiflow.make_network(2, [(0, 1), (1, 0)], velocities=[1.0, 1.0],
                                n_cells=20)
    st = semiflow.initial_state(net)
    bc = semiflow.weighted_bc(net)
    c, qc, h = net.velocities, _absorption_cumulative(net), net.grid.h
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
        semiflow.step_characteristics(net, st, 40.0)
    assert time.perf_counter() - start < 1.0


def test_trace_rejects_fully_fed_graph_before_tracing():
    # the two-cycle of configs/two_cycle.json: 2 x 401 nodes, each crossing
    # once per unit time, so t = 5300 passes 2**22 entries
    net = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=400)
    st = semiflow.initial_state(net)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="t = 5300.0 would create at least"):
        semiflow.step_characteristics(net, st, 5300.0)
    assert time.perf_counter() - start < 0.5


def test_trace_crossing_cap_precedes_up_front_rejection():
    # a caller's small cap ends the trace first, as the loop would
    net = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=400)
    qcum = _absorption_cumulative(net)
    vals = semiflow.initial_state(net).values
    with pytest.raises(RuntimeError, match="crossing cap"):
        K.trace_transport(vals, net.coupling, net.velocities, qcum,
                          net.grid.h, 5300.0, 3)


@pytest.mark.parametrize("edges,velocities", [
    ([(0, 1), (1, 0)], [1.0, 1.0]),
    ([(0, 1), (1, 0)], [1.0, 2.5]),
    ([(0, 1), (1, 2), (2, 0), (1, 0)], [0.7, 1.3, 2.0, 1.0]),
], ids=["two_cycle", "two_speeds", "branching"])
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
            semiflow.step_characteristics(net, st, float(t))
            outcomes.append("traced")
        except ValueError as exc:
            outcomes.append("up_front" if "at least" in str(exc) else "loop")
    assert "up_front" in outcomes
    first = outcomes.index("loop")
    assert "up_front" not in outcomes[:first]
    assert "traced" not in outcomes[first:]


def test_linear_interpolation_clamps():
    v = np.array([[0.0, 1.0, 4.0]])
    edge = np.zeros(4, np.int64)
    got = K._lin_interp(v, edge, np.array([-0.5, 2.5, 0.5, 1.5]), 1.0)
    assert got[0] == 0.0
    assert got[1] == 4.0
    assert got[2] == pytest.approx(0.5)
    assert got[3] == pytest.approx(2.5)
