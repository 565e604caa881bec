"""Graph transport flows: adjacency assembly, conservation, periodicity,
both solvers, the coupled resolvent, and the network generation verdict."""

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from semiflow import (Edge, EdgeState, Grid, GridFunction, Network,
                      ValidationError, build_adjacency,
                      damped_cumulative_integral, defect_budget,
                      initial_state, laplace_resolvent, load_network,
                      make_network, network_generation_verdict,
                      network_resolvent, network_semigroup,
                      random_flow_network, resolvent_defect_norm,
                      sample_states, simulate_flow, step_characteristics,
                      supnorm_l1_weighted, total_mass,
                      velocity_fixed_vector_residual, weighted_bc)
import semiflow.network as nw
from semiflow.generation import CheckReport, Witness
from semiflow.network import UPWIND_CELL_STEP_LIMIT, characteristics_orbit


def two_cycle(n_cells=400, velocities=(1.0, 1.0), absorption=None):
    return make_network(2, [(0, 1), (1, 0)], velocities=list(velocities),
                        absorption=absorption, n_cells=n_cells)


def test_adjacency_two_cycle():
    net = two_cycle()
    b = build_adjacency(net)
    assert np.array_equal(b, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_weighted_coupling_velocity_conjugation():
    net = two_cycle(velocities=(1.0, 2.0))
    bc = weighted_bc(net)
    assert np.allclose(bc, np.array([[0.0, 2.0], [0.5, 0.0]]), atol=1e-15)


def test_fixed_vector_identity_exact():
    net = two_cycle(velocities=(1.0, 2.0))
    assert velocity_fixed_vector_residual(net) < 1e-15


def test_adjacency_rejects_sink():
    with pytest.raises(ValidationError, match="flow sink"):
        build_adjacency(make_network(3, [(0, 1), (1, 2)], velocities=[1.0, 1.0]))


def test_adjacency_rejects_bad_column_sums():
    with pytest.raises(ValidationError, match="sum to 0.5, expected 1"):
        build_adjacency(make_network(2, [(0, 1), (1, 0)],
                                     weights=[(1, 0, 0.5), (0, 1, 1.0)],
                                     velocities=[1.0, 1.0]))


def test_adjacency_rejects_non_adjacent_weight():
    with pytest.raises(ValidationError, match="non-adjacent"):
        build_adjacency(make_network(3, [(0, 1), (1, 2), (2, 0)],
                                     weights=[(0, 0, 1.0), (1, 0, 1.0), (2, 1, 1.0)],
                                     velocities=[1.0, 1.0, 1.0]))


# (vertices, edges, weights, message) of networks that break one structural
# invariant each
STRUCTURE_FAULTS = {
    "sink": (3, [(0, 1), (1, 2)], [(1, 0, 1.0)], "flow sink"),
    "column_sum": (2, [(0, 1), (1, 0)], [(1, 0, 0.5), (0, 1, 1.0)],
                   "sum to 0.5, expected 1"),
    "non_adjacent": (3, [(0, 1), (1, 2), (2, 0)],
                     [(0, 0, 1.0), (1, 0, 1.0), (2, 1, 1.0)], "non-adjacent"),
    "duplicate": (2, [(0, 1), (1, 0)], [(1, 0, 0.5), (1, 0, 0.5), (0, 1, 1.0)],
                  "duplicate weight"),
}


@pytest.mark.parametrize("build", ["make_network", "Network"])
@pytest.mark.parametrize("fault", sorted(STRUCTURE_FAULTS))
def test_structure_is_rejected_when_the_network_is_built(build, fault):
    n_vertices, edges, weights, message = STRUCTURE_FAULTS[fault]
    with pytest.raises(ValidationError, match=message):
        if build == "make_network":
            make_network(n_vertices, edges, [1.0] * len(edges), weights, n_cells=10)
        else:
            Network(n_vertices, tuple(Edge(t, h) for t, h in edges), tuple(weights),
                    np.ones(len(edges)), np.zeros((len(edges), 11)), Grid(0.0, 1.0, 10))


def _two_cycle_with(**kwargs):
    """``make_network`` of the unit two-cycle on 10 cells, with ``kwargs``
    in place of its arguments."""
    args = dict(n_vertices=2, edges=[(0, 1), (1, 0)], velocities=[1.0, 1.0], n_cells=10)
    return make_network(**{**args, **kwargs})


# builders of inputs that break one checked rule each, and their messages
INPUT_FAULTS = {
    "vertex_out_of_range": (lambda: _two_cycle_with(edges=[(0, 1), (1, 2)]),
                            r"edge 1 references vertex outside 0\.\.1"),
    "zero_velocity": (lambda: _two_cycle_with(velocities=[1.0, 0.0]),
                      "velocities must be finite and positive"),
    "nan_velocity": (lambda: _two_cycle_with(velocities=[math.nan, 1.0]),
                     "velocities must be finite and positive"),
    "absorption_shape": (lambda: _two_cycle_with(absorption=np.zeros((2, 5))),
                         r"absorption must have shape \(2, 11\)"),
    "absorption_not_finite": (lambda: _two_cycle_with(absorption=[0.0, math.inf]),
                              "absorption values must be finite"),
    "absorption_length": (lambda: _two_cycle_with(absorption=[0.0, 0.0, 0.0]),
                          "per-edge absorption needs one constant per edge"),
    "unknown_edge": (lambda: _two_cycle_with(weights=[(1, 0, 1.0), (0, 2, 1.0)]),
                     r"weight entry \(0, 2\) references unknown edge"),
    "negative_weight": (lambda: _two_cycle_with(weights=[(1, 0, 1.0), (0, 1, -1.0)]),
                        r"weight for \(into=0, from=1\) must be >= 0"),
    "initial_not_a_list": (lambda: initial_state(_two_cycle_with(), 5),
                           "initial data must be a list"),
    "initial_ragged_row": (lambda: initial_state(_two_cycle_with(), [[[1.0, 2.0], [3.0]], 0.0]),
                           "initial data for edge 0 must be a number or a row of 11 numbers"),
    "norm_weight_count": (lambda: supnorm_l1_weighted(initial_state(_two_cycle_with()), [1.0]),
                          "need one weight per edge"),
}


@pytest.mark.parametrize("fault", sorted(INPUT_FAULTS))
def test_malformed_input_is_rejected(fault):
    build, message = INPUT_FAULTS[fault]
    with pytest.raises(ValidationError, match=message):
        build()


STATE_ENTRIES = {
    "orbit": lambda net, st: list(characteristics_orbit(net, st, [0.5, 1.0])),
    "orbit_sum": lambda net, st: network_semigroup(net).orbit_sum(
        [0.5, 1.0], [1.0, 1.0], st),
    "step_characteristics": lambda net, st: step_characteristics(net, st, 1.0),
    "semigroup_apply": lambda net, st: network_semigroup(net).apply(1.0, st),
    "simulate_characteristics": lambda net, st: simulate_flow(
        net, st, 1.0, "characteristics", n_outputs=3),
    "simulate_upwind": lambda net, st: simulate_flow(net, st, 1.0, "upwind",
                                                     n_outputs=3),
    "resolvent": lambda net, st: network_resolvent(net, 1.0, st),
}


@pytest.mark.parametrize("mismatch", ["other_grid", "edge_count"])
@pytest.mark.parametrize("entry", sorted(STATE_ENTRIES))
def test_state_off_the_network_is_rejected(entry, mismatch):
    net = two_cycle(n_cells=20)
    if mismatch == "other_grid":
        st = EdgeState(Grid(0.0, 2.0, 20), np.ones((2, 21)))
    else:
        st = EdgeState(net.grid, np.ones((3, 21)))
    with pytest.raises(ValidationError, match="state does not match the network"):
        STATE_ENTRIES[entry](net, st)


@pytest.mark.parametrize("solver", ["characteristics", "upwind"])
@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_simulate_flow_rejects_non_finite_time(solver, t):
    net = two_cycle(n_cells=20)
    with pytest.raises(ValueError, match=f"final time must be positive and finite, got {t}"):
        simulate_flow(net, initial_state(net), t, solver)


def test_network_grid_must_be_unit_interval():
    with pytest.raises(ValidationError):
        from semiflow import Edge, Network
        Network(2, (Edge(0, 1), Edge(1, 0)), ((1, 0, 1.0), (0, 1, 1.0)),
                np.array([1.0, 1.0]), np.zeros((2, 11)), Grid(0.0, 2.0, 10))


def test_total_mass_and_supnorm():
    net = two_cycle(n_cells=1000)
    st = initial_state(net)
    assert total_mass(st) == pytest.approx(0.5, abs=1e-6)
    x = net.grid.nodes
    vals = np.stack([x, 1.0 - x])
    st2 = EdgeState(net.grid, vals)
    assert st2.norm() == pytest.approx(1.0)
    st3 = EdgeState(net.grid, np.stack([np.sin(np.pi * x), np.sin(np.pi * x)]))
    assert st3.norm() == pytest.approx(2.0)
    assert EdgeState(net.grid, np.zeros((2, 1001))).norm() == 0.0


def test_characteristics_hop_and_period():
    net = two_cycle()
    st = initial_state(net)
    at1 = step_characteristics(net, st, 1.0)
    assert np.max(np.abs(at1.values[0])) < 1e-12
    assert np.max(np.abs(at1.values[1] - st.values[0])) < 1e-12
    at2 = step_characteristics(net, st, 2.0)
    assert np.max(np.abs(at2.values - st.values)) < 1e-9


def test_characteristics_mass_constant():
    net = two_cycle()
    st = initial_state(net)
    for t in np.linspace(0.0, 10.0, 21):
        assert total_mass(step_characteristics(net, st, t)) == pytest.approx(
            0.5, abs=1e-12)


def test_three_cycle_periodicity():
    # initial data vanishing at edge ends is compatible with the vertex
    # coupling, so the flow is exactly periodic with period 3
    net = make_network(3, [(0, 1), (1, 2), (2, 0)],
                       velocities=[1.0, 1.0, 1.0], n_cells=300)
    x = net.grid.nodes
    vals = np.stack([(k + 1.0) * np.sin(np.pi * x) ** 2 * np.cos(k + 3.0 * x)
                     for k in range(3)])
    st = EdgeState(net.grid, vals)
    back = step_characteristics(net, st, 3.0)
    assert np.max(np.abs(back.values - st.values)) < 1e-9


def test_characteristics_absorption_decay():
    # uniform absorption with rate q < 0 damps the whole flow by e^{q t}
    q = -0.7
    net = two_cycle(absorption=[q, q])
    st = initial_state(net)
    out = step_characteristics(net, st, 2.0)
    assert np.max(np.abs(out.values - np.exp(2.0 * q) * st.values)) < 1e-9


def test_upwind_unit_cfl_matches_characteristics():
    net = two_cycle(n_cells=200)
    st = initial_state(net)
    t = 100 * net.grid.h  # 100 upwind steps at CFL exactly 1
    _, (_, marched) = simulate_flow(net, st, t, "upwind", cfl=1.0, n_outputs=2)
    traced = step_characteristics(net, st, t)
    assert np.max(np.abs(marched.values - traced.values)) < 1e-12


def test_upwind_rejects_cfl_violation():
    net = two_cycle(n_cells=100)
    st = initial_state(net)
    with pytest.raises(ValueError, match="CFL"):
        simulate_flow(net, st, 1.0, "upwind", cfl=10.0)


@pytest.mark.parametrize("solver", ["characteristics", "upwind"])
@pytest.mark.parametrize("cfl", [-5.0, 0.0, 1.5])
def test_simulate_flow_rejects_a_cfl_target_outside_the_unit_interval(solver, cfl):
    # the characteristics solver reads no CFL target, but a summary reports it
    net = two_cycle(n_cells=20)
    with pytest.raises(ValueError, match=re.escape(f"CFL target must lie in (0, 1], got {cfl}")):
        simulate_flow(net, initial_state(net), 1.0, solver, cfl=cfl)


def test_upwind_mass_drift_small():
    net = two_cycle(n_cells=400)
    st = initial_state(net)
    times, states = simulate_flow(net, st, 10.0, "upwind", cfl=0.9,
                                  n_outputs=6)
    m0 = total_mass(states[0])
    drift = max(abs(total_mass(s) - m0) for s in states) / m0
    assert drift <= 1e-3


def test_simulate_characteristics_timeline():
    net = two_cycle()
    st = initial_state(net)
    times, states = simulate_flow(net, st, 2.0, "characteristics",
                                  n_outputs=5)
    assert np.allclose(times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.max(np.abs(states[-1].values - st.values)) < 1e-9
    with pytest.raises(ValueError):
        simulate_flow(net, st, 1.0, "nosuchsolver")


def test_resolvent_constant_input_closed_form():
    net = two_cycle(n_cells=400)
    ones = EdgeState(net.grid, np.ones((2, 401)))
    for lam in (1.0, 5.0):
        f = network_resolvent(net, lam, ones)
        assert np.max(np.abs(f.values - 1.0 / lam)) < 1e-8


def test_resolvent_zero_input():
    net = two_cycle(n_cells=100)
    z = EdgeState(net.grid, np.zeros((2, 101)))
    f = network_resolvent(net, 1.0, z)
    assert np.max(np.abs(f.values)) == 0.0


def test_resolvent_boundary_condition_residual():
    net = random_flow_network(7, seed=2, n_cells=150)
    g = sample_states(net, 1, 8)[0][1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = network_resolvent(net, 2.0, g)
    bc = weighted_bc(net)
    assert np.max(np.abs(f.values[:, -1] - bc @ f.values[:, 0])) < 1e-9


def test_resolvent_defect_within_budget():
    net = random_flow_network(5, seed=6, n_cells=200)
    g = sample_states(net, 1, 0)[0][1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = network_resolvent(net, 3.0, g)
    defect = resolvent_defect_norm(net, 3.0, g, f)
    assert defect <= defect_budget(net, 3.0, f.values, g.values)


def test_resolvent_contraction_unit_velocities_plain_norm():
    for seed in range(4):
        net = random_flow_network(3, seed=seed, n_cells=200,
                                  velocity_range=(1.0, 1.0))
        for _, g in sample_states(net, 2, seed):
            for lam in (1.0, 5.0):
                f = network_resolvent(net, lam, g)
                assert lam * f.norm() <= g.norm() * (1 + 1e-6)


def test_resolvent_contraction_weighted_norm_mixed_velocities():
    for seed in range(4):
        net = random_flow_network(5, seed=seed, n_cells=200)
        c = net.velocities
        for _, g in sample_states(net, 2, seed):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                f = network_resolvent(net, 1.0, g)
            assert supnorm_l1_weighted(f, c) <= (
                supnorm_l1_weighted(g, c) * (1 + 1e-6))


def test_plain_norm_contraction_fails_for_mixed_velocities():
    # documentation of why the weighted norm is the right one: a velocity
    # jump at a vertex amplifies boundary values by c_fast / c_slow, so the
    # unweighted ratio approaches 2 as lambda grows (it would stay <= 1 for
    # a dissipative operator)
    net = two_cycle(n_cells=400, velocities=(1.0, 2.0))
    x = net.grid.nodes
    g = EdgeState(net.grid, np.stack([np.zeros_like(x), np.ones_like(x)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ratios = [lam * network_resolvent(net, lam, g).norm()
                  / g.norm() for lam in (4.0, 20.0)]
    assert ratios[0] > 1.5
    assert ratios[1] > 1.9


def test_weighted_norm_grows_on_mixed_speeds_where_mass_does_not():
    # the two-cycle with speeds 1 and 2, no absorption, and g = 1 on the slow
    # edge 0, 0 on the fast edge 1, so ||g||_c = 1.  A vertex does not
    # amplify in ||.||_c, but the flow does: at t = 0.25 the slow edge keeps
    # its data on [0, 0.75], the fast edge holds c_0 / c_1 = 1/2 of it on
    # [0.5, 1], and on the overlap c_0 * 1 + c_1 / 2 = 2.  The resolvent, the
    # Laplace transform of the flow, grows as well, so a contraction in
    # ||.||_c is a theorem only for equal speeds.  The mass norm sum_j int
    # |f_j| does not grow.
    net = two_cycle(n_cells=400, velocities=(1.0, 2.0))
    c, h = net.velocities, net.grid.h
    ones = np.ones(net.grid.n_cells + 1)
    g = EdgeState(net.grid, np.stack([ones, 0.0 * ones]))
    assert supnorm_l1_weighted(g, c) == 1.0
    (flow,) = characteristics_orbit(net, g, [0.25])
    assert supnorm_l1_weighted(EdgeState(net.grid, flow), c) == 2.0
    for lam in (0.5, 2.0):
        f = network_resolvent(net, lam, g)
        # 1.332 and 1.311
        assert lam * supnorm_l1_weighted(f, c) > 1.25
        # Integrating lam f - c f' = g over the edges, the vertex terms
        # sum_j c_j (f_j(1) - f_j(0)) cancel (c^T Bc = c^T), so
        # lam ||f||_1 = ||g||_1 for f >= 0.  The trapezoid rule errs by at
        # most h^2 / 12 sup|f_j''| on an edge of length 1, and
        # f_j'' = lam (lam f_j - g_j) / c_j^2, monotone in x, so its sup is
        # at a node; 1e-12 covers the rounding of the solve and the sums.
        assert np.all(f.values >= 0.0)
        slack = sum(h * h / 12.0 * lam * np.max(np.abs(lam * fj - gj)) / cj ** 2
                    for fj, gj, cj in zip(f.values, g.values, c))
        tol = lam * slack / total_mass(g) + 1e-12
        assert lam * total_mass(f) / total_mass(g) <= 1.0 + tol


# The per-edge resolvent that the batched solve replaced, kept as written.

def _network_resolvent_per_edge(net, lam, g):
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if g.values.shape[0] != net.n_edges or g.grid != net.grid:
        raise ValidationError("right-hand side does not match the network")
    h = net.grid.h
    n = net.grid.n_cells
    c = net.velocities
    q = net.absorption
    n_edges = net.n_edges

    rates = (lam - 0.5 * (q[:, :-1] + q[:, 1:])) / c[:, None]  # per panel
    backward = np.empty_like(g.values)
    suffix = np.empty((n_edges, n + 1))
    for j in range(n_edges):
        flipped = damped_cumulative_integral(g.values[j][::-1], h, rates[j][::-1])
        backward[j] = flipped[::-1]  # int_x^1 exp-damped g
        zsum = np.zeros(n + 1)
        zsum[:-1] = np.cumsum((rates[j] * h)[::-1])[::-1]
        suffix[j] = np.exp(-zsum)  # exp(phi(x) - phi(1)) <= 1 for lam > q

    nu = suffix[:, 0]
    bc = weighted_bc(net)
    m = np.eye(n_edges) - nu[:, None] * bc
    q_norm = float(np.max((c * nu) @ bc / c))  # ||diag(nu) Bc|| in sum_j c_j |x_j|
    cond = float(np.linalg.cond(m))
    if not q_norm < 1.0:
        # series sufficiency for invertibility fails; solve directly anyway
        warnings.warn(
            "vertex coupling is not strictly damped (q = max_k sum_j nu_j B_jk = "
            f"{q_norm!r}, not below 1); attempting a direct solve, condition number "
            f"{cond:.6e}; increase lambda for a guaranteed solve",
            RuntimeWarning, stacklevel=2)
    if cond > 1e8:
        warnings.warn(
            f"vertex coupling system is ill-conditioned (cond = {cond:.3e}); "
            "increase lambda", RuntimeWarning, stacklevel=2)
    rhs = backward[:, 0] / c
    f0 = np.linalg.solve(m, rhs)
    f1 = bc @ f0
    f = suffix * f1[:, None] + backward / c[:, None]

    bc_residual = float(np.max(np.abs(f[:, -1] - bc @ f[:, 0])))
    if bc_residual > 1e-9:
        raise RuntimeError(
            f"boundary condition residual {bc_residual!r} exceeds 1e-9")
    dfdx = np.gradient(f, h, axis=1, edge_order=2)
    defect = lam * f - (c[:, None] * dfdx + q * f) - g.values
    tol = defect_budget(net, lam, f, g.values)
    worst = float(np.max(np.abs(defect)))
    if worst > tol:
        raise RuntimeError(
            f"resolvent consistency defect {worst!r} exceeds the scheme "
            f"budget {tol!r}")
    return EdgeState(net.grid, f)


def _absorbing(net, seed):
    # the same graph with absorption (q < 0) on every second edge
    rng = np.random.default_rng(seed)
    q = np.where(np.arange(net.n_edges) % 2 == 0,
                 rng.uniform(-0.8, -0.1, net.n_edges), 0.0)
    return make_network(net.n_vertices, [(e.tail, e.head) for e in net.edges],
                        net.velocities, net.weights, q, net.grid.n_cells)


@pytest.mark.parametrize("n_edges", [8, 64])
def test_resolvent_matches_per_edge_reference(n_edges):
    net = _absorbing(random_flow_network(n_edges, seed=n_edges, n_cells=200),
                     n_edges)
    assert np.any(net.absorption < 0) and np.any(net.absorption == 0)
    g = sample_states(net, 1, 3)[0][1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lam in (0.02, 0.1, 1.0, 10.0):
            ref = _network_resolvent_per_edge(net, lam, g)
            assert np.array_equal(network_resolvent(net, lam, g).values,
                                  ref.values), lam


def _growth_absorption(profile, n_cells):
    x = np.linspace(0.0, 1.0, n_cells + 1)
    q = np.where(x > 0.5, 3000.0, -3000.0) if profile == "growth_then_decay" \
        else np.full(n_cells + 1, 3000.0)
    return np.stack([q, q])


@pytest.mark.parametrize("profile", ["growth_then_decay", "growth"])
def test_resolvent_raises_where_edge_growth_overflows(profile):
    # absorption far above lambda makes each panel factor of the damped
    # integral exceed 1, and products over a few panels overflow; a zero
    # right-hand side on the growing part turns them into nan, not 0
    net = two_cycle(n_cells=40, absorption=_growth_absorption(profile, 40))
    x = net.grid.nodes
    for g in (np.zeros((2, 41)), np.ones((2, 41)), np.tile(x <= 0.5, (2, 1))):
        with warnings.catch_warnings(), \
                pytest.raises(RuntimeError, match="the solution is not finite"):
            warnings.simplefilter("ignore")
            network_resolvent(net, 1.0, EdgeState(net.grid, g))


def test_coupling_built_once_per_network(monkeypatch):
    import semiflow.network as network_module
    built = []

    def counting(net):
        built.append(net)
        return build_adjacency(net)

    monkeypatch.setattr(network_module, "build_adjacency", counting)
    net = random_flow_network(6, seed=4, n_cells=40)
    st = initial_state(net)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        network_generation_verdict(net, [0.5, 1.0, 2.0, 5.0], n_samples=2)
    for solver in ("characteristics", "upwind"):
        simulate_flow(net, st, 1.0, solver, n_outputs=3)
    assert built == [net]
    bc = weighted_bc(net)
    assert bc is weighted_bc(net) is net.coupling
    assert not bc.flags.writeable
    with pytest.raises(ValueError):
        bc[0, 0] = 1.0


def test_laplace_transform_consistency_small_graph():
    net = two_cycle(n_cells=200)
    g = sample_states(net, 1, 3)[0][1]
    sg = network_semigroup(net)
    approx, _ = laplace_resolvent(sg, 1.0, g, 20.0, 8000)
    exact = network_resolvent(net, 1.0, g)
    assert (approx - exact).norm() < 1e-3


def test_random_networks_fixed_vector_bulk():
    worst = 0.0
    for seed in range(50):
        net = random_flow_network(3 + (seed * 7) % 198, seed=seed, n_cells=8)
        worst = max(worst, velocity_fixed_vector_residual(net))
    assert worst <= 1e-12


def test_random_network_needs_two_edges():
    with pytest.raises(ValueError, match="need at least two edges"):
        random_flow_network(1, seed=0)


def test_random_network_column_stochastic_and_reproducible():
    net1 = random_flow_network(20, seed=5, n_cells=10)
    net2 = random_flow_network(20, seed=5, n_cells=10)
    assert net1.weights == net2.weights
    assert np.array_equal(net1.velocities, net2.velocities)
    b = build_adjacency(net1)
    assert np.max(np.abs(b.sum(axis=0) - 1.0)) < 1e-12
    # spectral-radius proxy: l1 power-iteration ratio on a positive vector
    # (column sums are 1, so the ratio equals the l1 operator norm, 1)
    v = np.ones(20)
    for _ in range(60):
        w = b @ v
        assert np.sum(np.abs(w)) <= (1.0 + 1e-9) * np.sum(np.abs(v))
        v = w / np.sum(np.abs(w))


NUMBER = r"[0-9.e+-]+"  # a float's repr, not np.float64(...)


@pytest.mark.parametrize("absorption, lam, broke", [
    (None, 1e-12, rf"boundary condition residual {NUMBER} exceeds 1e-9"),
    (None, 1e-17, "the vertex coupling system is singular"),
    (50.0, 1.0, rf"resolvent consistency defect {NUMBER} exceeds the scheme "
                rf"budget {NUMBER}"),
    ("growth", 1.0, "the solution is not finite"),
    ("growth_then_decay", 1.0, "the solution is not finite"),
], ids=["small_lambda", "singular_lambda", "absorption", "growth", "growth_then_decay"])
def test_network_generation_verdict_breakdown_raises(absorption, lam, broke):
    # the verdict has no range witnesses of its own: on the CLI's default
    # samples it stops at the first breakdown of the solve, a RuntimeError
    # that names what broke
    if isinstance(absorption, str):
        absorption = _growth_absorption(absorption, 400)
    with warnings.catch_warnings(), pytest.raises(RuntimeError) as info:
        warnings.simplefilter("ignore")
        network_generation_verdict(two_cycle(absorption=absorption), [lam],
                                   n_samples=5, seed=0)
    assert re.fullmatch(f"network resolvent breaks down at lambda {lam!r}: {broke}",
                        str(info.value)), str(info.value)


def test_network_generation_verdict_passes():
    net = random_flow_network(4, seed=0, n_cells=150)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = network_generation_verdict(net, [1.0, 5.0], n_samples=3, seed=0)
    assert rep.passed
    names = [s.check_name for s in rep.sub_reports]
    assert names == ["network_resolvent_contraction", "adjoint_fixed_vector",
                     "network_range_probe"]


def test_adjoint_fixed_vector_tolerance_scales_with_speed():
    # exact column sums: the residual c_j |sum_i B_ij - 1| is rounding of
    # order ulp(max c), here 3.6e-12, which an absolute 1e-12 would flag
    net = random_flow_network(4, seed=1, n_cells=40, velocity_range=(5e3, 4e4))
    assert velocity_fixed_vector_residual(net) > 1e-12
    rep = network_generation_verdict(net, [1e5])
    leg = rep.sub_reports[1]
    assert leg.check_name == "adjoint_fixed_vector"
    assert leg.tolerance == 1e-12 * float(np.max(net.velocities))
    assert rep.passed


def test_load_network_roundtrip_and_errors():
    import json
    cfg = {
        "vertices": 2,
        "edges": [{"tail": 0, "head": 1}, {"tail": 1, "head": 0}],
        "velocities": [1.0, 2.0],
        "absorption": [0.0, 0.0],
        "grid": {"n_cells": 50},
    }
    net = load_network(json.loads(json.dumps(cfg)))
    assert net.n_edges == 2 and net.grid.n_cells == 50
    assert np.array_equal(net.velocities, [1.0, 2.0])

    # only a parsed object is a document: not a list, nor a file name
    for doc in ([1, 2], "net.json"):
        with pytest.raises(ValidationError, match="must be a JSON object"):
            load_network(doc)

    with pytest.raises(ValidationError, match="missing"):
        load_network({"edges": []})
    bad = dict(cfg)
    bad["weights"] = [{"into_edge": 1, "w": 0.5}]
    with pytest.raises(ValidationError, match="from_edge"):
        load_network(bad)
    sink = {"vertices": 3,
            "edges": [{"tail": 0, "head": 1}, {"tail": 1, "head": 2}],
            "velocities": [1.0, 1.0]}
    with pytest.raises(ValidationError, match="sink"):
        load_network(sink)


@pytest.mark.parametrize("edges, message", [
    (5, "wrong type: 'int' object is not iterable"),
    ([[0, 1], [1, 0]], "wrong type: list indices must be integers"),
    ([{"tail": 0}], "missing field: 'head'"),
], ids=["edges_number", "edge_as_list", "edge_without_head"])
def test_load_network_tells_a_wrong_type_from_a_missing_field(edges, message):
    with pytest.raises(ValidationError, match=f"network config (is|field has the) {message}"):
        load_network({"vertices": 2, "edges": edges})


def _integer_document(vertices=2, tail=0, head=1, into_edge=1, from_edge=0, n_cells=10):
    """The unit two-cycle as a document, with the integer fields of its first
    edge and first weight, its vertex count and its cell count given."""
    return {"vertices": vertices,
            "edges": [{"tail": tail, "head": head}, {"tail": 1, "head": 0}],
            "weights": [{"into_edge": into_edge, "from_edge": from_edge, "w": 1.0},
                        {"into_edge": 0, "from_edge": 1, "w": 1.0}],
            "grid": {"n_cells": n_cells}}


@pytest.mark.parametrize("field, value", [
    ("vertices", 2.7), ("tail", 0.9), ("head", 1.2), ("into_edge", 1.6),
    ("from_edge", 0.5), ("n_cells", 10.5), ("n_cells", "10"), ("tail", False),
    ("head", True),
], ids=["vertices", "tail", "head", "into_edge", "from_edge", "n_cells", "n_cells_string",
        "tail_boolean", "head_boolean"])
def test_load_network_refuses_an_integer_field_that_is_not_an_integer(field, value):
    # int() would truncate each number, read the string as 10 and a boolean
    # as 0 or 1
    name = "grid.n_cells" if field == "n_cells" else field
    with pytest.raises(ValidationError,
                       match=re.escape(f"field {name} must be an integer, got {value!r}")):
        load_network(_integer_document(**{field: value}))


@pytest.mark.parametrize("field, value, bad", [
    ("velocities", ["1", True], "'1'"),
    ("velocities", [1.0, True], "True"),
    ("weights", [{"into_edge": 1, "from_edge": 0, "w": "1.0"},
                 {"into_edge": 0, "from_edge": 1, "w": 1.0}], "'1.0'"),
    ("weights", [{"into_edge": 1, "from_edge": 0, "w": True},
                 {"into_edge": 0, "from_edge": 1, "w": 1.0}], "True"),
    ("absorption", ["0.5", "-1"], "'0.5'"),
    ("absorption", [[0.0] * 11, [0.0] * 10 + [False]], "False"),
], ids=["velocities_string", "velocities_boolean", "w_string", "w_boolean",
        "absorption_string", "absorption_nested_boolean"])
def test_load_network_refuses_a_real_field_that_is_not_a_json_number(field, value, bad):
    # float() would read "1" and true as 1.0, and numpy the nested false as 0.0
    name = "w" if field == "weights" else field
    with pytest.raises(ValidationError,
                       match=re.escape(f"field {name} must be a number, got {bad}")):
        load_network({**_integer_document(), field: value})


def test_load_network_names_a_malformed_grid():
    with pytest.raises(ValidationError,
                       match="malformed velocities, grid or absorption: 'int' object"):
        load_network({**_integer_document(), "grid": 5})


def test_load_network_takes_integral_floats_as_integers():
    net = load_network(_integer_document(2.0, 0.0, 1.0, 1.0, 0.0, 10.0))
    ref = load_network(_integer_document())
    assert (net.n_vertices, net.edges, net.weights, net.grid) == (
        ref.n_vertices, ref.edges, ref.weights, ref.grid)
    assert isinstance(net.n_vertices, int) and isinstance(net.grid.n_cells, int)


def test_edge_state_norm_and_arithmetic():
    net = two_cycle(n_cells=50)
    a = initial_state(net)
    s = a + a
    assert s.norm() == pytest.approx(2.0 * a.norm())
    d = a - a
    assert d.norm() == 0.0
    half = 0.5 * a
    assert half.norm() == pytest.approx(0.5 * a.norm())


# The edge-state arithmetic that subclassing GridFunction replaced, as
# written, less the time stamp that no caller read.

@dataclass(frozen=True, eq=False)
class _ReferenceEdgeState:
    grid: Grid
    values: np.ndarray

    def norm(self):
        return float(np.max(np.sum(np.abs(self.values), axis=0)))

    def _check_compatible(self, other):
        if self.grid != other.grid or self.values.shape != other.values.shape:
            raise ValidationError("edge state mismatch in arithmetic")

    def __add__(self, other):
        self._check_compatible(other)
        return _ReferenceEdgeState(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check_compatible(other)
        return _ReferenceEdgeState(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return _ReferenceEdgeState(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return _ReferenceEdgeState(self.grid, -self.values)


@pytest.mark.parametrize("seed", range(4))
def test_edge_state_arithmetic_matches_reference(seed):
    net = random_flow_network(3 + 5 * seed, seed=seed, n_cells=30)
    (_, a), (_, b) = sample_states(net, 2, seed)
    ra, rb = (_ReferenceEdgeState(s.grid, s.values) for s in (a, b))
    scalar = float(np.random.default_rng(seed).uniform(-3.0, 3.0))
    pairs = [(a + b, ra + rb), (a - b, ra - rb), (a * scalar, ra * scalar),
             (scalar * a, scalar * ra), (-a, -ra)]
    for got, ref in pairs:
        assert type(got) is EdgeState
        assert np.array_equal(got.values, ref.values)
        assert got.norm() == ref.norm()
    assert a.norm() == ra.norm() and b.norm() == rb.norm()


def test_edge_state_is_a_grid_function_with_one_row_per_edge():
    net = two_cycle(n_cells=20)
    state = initial_state(net)
    assert isinstance(state, GridFunction)
    assert state.values.shape == (net.n_edges, 21) and not hasattr(state, "t")
    with pytest.raises(ValidationError, match="shape"):
        EdgeState(net.grid, np.ones(21))
    with pytest.raises(ValidationError, match="finite"):
        EdgeState(net.grid, np.full((2, 21), np.nan))


@pytest.mark.parametrize("edge, row", [
    # the trapezoid sum 1e308 + 1e308 of one panel overflows to inf
    (0, [1e308] * 21),
    # a panel of +inf and a later one of -inf: the running sum ends in nan
    (1, [1e308, 1e308, 0.0, -1e308, -1e308] + [0.0] * 16),
], ids=["inf", "nan"])
def test_absorption_whose_integral_overflows_is_rejected(edge, row):
    q = np.zeros((2, 21))
    q[edge] = row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=f"absorption integral of edge {edge} overflows"):
            Network(2, (Edge(0, 1), Edge(1, 0)), ((1, 0, 1.0), (0, 1, 1.0)),
                    np.ones(2), q, Grid(0.0, 1.0, 20))
    # just below the overflow the network is built and its integral is finite
    net = two_cycle(n_cells=20, absorption=[8e307, 0.0])
    assert np.all(np.isfinite(net.absorption_integral))


def test_edge_state_rows_must_match_in_arithmetic():
    net = two_cycle(n_cells=20)
    one = EdgeState(net.grid, np.ones((1, 21)))
    two = EdgeState(net.grid, np.ones((2, 21)))
    for left, right in ((one, two), (two, one)):
        with pytest.raises(ValueError, match="mismatch"):
            left + right
        with pytest.raises(ValueError, match="mismatch"):
            left - right
    with pytest.raises(ValueError, match="mismatch"):
        GridFunction(net.grid, np.ones(21)) + one


def test_one_row_edge_state_norm_is_the_sup_norm():
    net = two_cycle(n_cells=40)
    row = sample_states(net, 1, 7)[0][1].values[1]
    assert EdgeState(net.grid, row[None, :]).norm() == GridFunction(net.grid, row).norm()


def test_simulate_rejects_too_many_outputs_before_allocating():
    net = two_cycle(n_cells=400)
    st = initial_state(net)
    for solver in ("characteristics", "upwind"):
        with pytest.raises(ValueError, match="stored values"):
            simulate_flow(net, st, 1.0, solver, n_outputs=100_000_000)


def test_simulate_upwind_cell_step_limit(monkeypatch):
    import semiflow.network as network_module
    net = two_cycle(n_cells=40)
    st = initial_state(net)
    with pytest.raises(ValueError, match="cell-steps"):
        simulate_flow(net, st, 1e9, "upwind")
    # t = 1, cfl 0.5, h = 1/40: 80 steps over 2 outputs of 2 x 41 values
    monkeypatch.setattr(network_module, "UPWIND_CELL_STEP_LIMIT", 80 * 82)
    simulate_flow(net, st, 1.0, "upwind", cfl=0.5, n_outputs=3)
    monkeypatch.setattr(network_module, "UPWIND_CELL_STEP_LIMIT", 80 * 82 - 1)
    with pytest.raises(ValueError, match="6560 cell-steps"):
        simulate_flow(net, st, 1.0, "upwind", cfl=0.5, n_outputs=3)


@pytest.mark.parametrize("cfl", [1e-300, 5e-324])
def test_simulate_upwind_refuses_a_tiny_cfl_target_by_its_float_count(cfl):
    # at 1e-300 the count is ~3e305 and at 5e-324 the step dt_max underflows
    # to 0: both are refused with one short line, not the count's 300 digits
    # or a division by zero
    net = two_cycle(n_cells=40)
    with pytest.raises(ValueError) as info:
        simulate_flow(net, initial_state(net), 1.0, "upwind", cfl=cfl, n_outputs=2)
    message = str(info.value)
    assert message.startswith("the upwind march would take ")
    assert (f"cell-steps at CFL target {cfl!r}, more than the limit of "
            f"{UPWIND_CELL_STEP_LIMIT}") in message
    assert "\n" not in message and len(message) < 200


def test_network_verdict_rejects_no_samples():
    net = two_cycle(n_cells=40)
    for n_samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            network_generation_verdict(net, [1.0], n_samples=n_samples)


def test_network_verdict_rejects_no_lambdas():
    # with no lambda no resolvent is solved and the verdict would pass
    with pytest.raises(ValueError, match="at least one lambda"):
        network_generation_verdict(two_cycle(n_cells=40), [])


# The O(E^2) out-edge scans that the vertex-to-out-edges map replaced, as
# written.

def _even_split_reference(edges):
    weights = []
    for j, (_, head) in enumerate(edges):
        outs = [k for k, (tail, _) in enumerate(edges) if tail == head]
        for i in outs:
            weights.append((i, j, 1.0 / len(outs)))
    return tuple(weights)


def _random_flow_network_reference(n_edges, seed, n_cells=50,
                                   velocity_range=(0.5, 4.0)):
    rng = np.random.default_rng(seed)
    n_vertices = int(rng.integers(2, n_edges + 1))
    edges = [(v, (v + 1) % n_vertices) for v in range(n_vertices)]
    for _ in range(n_edges - n_vertices):
        a = int(rng.integers(0, n_vertices))
        b = int(rng.integers(0, n_vertices - 1))
        if b >= a:
            b += 1
        edges.append((a, b))
    weights = []
    for j, (_, head) in enumerate(edges):
        outs = [i for i, (tail, _) in enumerate(edges) if tail == head]
        raw = rng.uniform(0.5, 1.5, len(outs))
        raw /= raw.sum()
        weights.extend((i, j, float(w)) for i, w in zip(outs, raw))
    velocities = rng.uniform(velocity_range[0], velocity_range[1], n_edges)
    return make_network(n_vertices, edges, velocities, weights, None, n_cells)


def test_even_split_weights_match_reference():
    graphs = [[(0, 1), (1, 0)],
              [(0, 1), (0, 1), (1, 0), (1, 0)],
              [(0, 1), (1, 2), (1, 0), (2, 0), (2, 1), (0, 2)]]
    for seed in range(10):
        net = random_flow_network(3 + 4 * seed, seed=seed, n_cells=4)
        graphs.append([(e.tail, e.head) for e in net.edges])
    for edges in graphs:
        n_vertices = 1 + max(max(e) for e in edges)
        net = make_network(n_vertices, edges, [1.0] * len(edges), n_cells=4)
        assert net.weights == _even_split_reference(edges), edges
    # vertex 2 is a sink: edge 1 gets no weights, and the network is refused
    with pytest.raises(ValidationError, match="flow sink"):
        make_network(3, [(0, 1), (1, 2)], [1.0, 1.0], n_cells=4)


@pytest.mark.parametrize("n_edges", [2, 3, 5, 8, 16, 64])
def test_random_flow_network_matches_reference(n_edges):
    for seed in range(5):
        got = random_flow_network(n_edges, seed=seed, n_cells=10)
        ref = _random_flow_network_reference(n_edges, seed, n_cells=10)
        assert got.n_vertices == ref.n_vertices
        assert got.edges == ref.edges
        assert got.weights == ref.weights
        assert np.array_equal(got.velocities, ref.velocities)


def test_resolvent_defect_check_uses_resolvent_defect_norm(monkeypatch):
    import semiflow.network as network_module
    net = random_flow_network(6, seed=2, n_cells=120)
    g = sample_states(net, 1, 4)[0][1]
    worst = resolvent_defect_norm(net, 6.0, g, network_resolvent(net, 6.0, g))
    monkeypatch.setattr(network_module, "defect_budget", lambda *args: -1.0)
    with pytest.raises(RuntimeError, match="consistency defect") as info:
        network_resolvent(net, 6.0, g)
    assert f"defect {worst!r} exceeds" in str(info.value)


# The verdict as one network_resolvent per lambda and sample, with the range
# leg's tolerance from a second defect_budget call.

def _network_verdict_reference(net, lambdas, n_samples, seed):
    states = sample_states(net, n_samples, seed)
    shift = max(0.0, float(np.max(net.absorption)))
    contraction_wit, range_tol = [], 0.0
    for lam in lambdas:
        for sid, gstate in states:
            fstate = network_resolvent(net, lam, gstate)
            if lam > shift:
                lhs = (lam - shift) * supnorm_l1_weighted(fstate, net.velocities)
                rhs = supnorm_l1_weighted(gstate, net.velocities)
                if lhs > rhs * (1.0 + 1e-6):
                    contraction_wit.append(Witness(sid, lam, None, lhs, rhs))
            range_tol = max(range_tol, defect_budget(net, lam, fstate.values,
                                                     gstate.values))
    fixed_tol = 1e-12 * max(1.0, float(np.max(net.velocities)))
    assert velocity_fixed_vector_residual(net) <= fixed_tol
    lambdas = [float(lam) for lam in lambdas]
    sub = [CheckReport("network_resolvent_contraction",
                       {"lambdas": lambdas, "n_samples": n_samples, "seed": seed},
                       1e-6, contraction_wit),
           CheckReport("adjoint_fixed_vector", {"n_edges": net.n_edges}, fixed_tol, []),
           CheckReport("network_range_probe",
                       {"lambdas": lambdas, "n_samples": n_samples}, range_tol, [])]
    return CheckReport("lumer_phillips_network",
                       {"n_edges": net.n_edges, "n_vertices": net.n_vertices,
                        "lambdas": lambdas}, 1e-6, [], sub).to_dict()


def _verdict_networks():
    # graph-verdict style: random graphs with mixed speeds and absorption
    # constant on about half the edges; then absorption that varies along
    # every edge
    nets = []
    for n_edges, seed in ((8, 11), (16, 12)):
        shape = random_flow_network(n_edges, seed=seed, n_cells=100)
        rng = np.random.default_rng(seed)
        q = -rng.uniform(0.0, 1.0, n_edges) * (rng.uniform(size=n_edges) < 0.5)
        nets.append(("constant", make_network(
            shape.n_vertices, [(e.tail, e.head) for e in shape.edges],
            shape.velocities, shape.weights, q, 100)))
    shape = random_flow_network(6, seed=13, n_cells=100)
    q = -np.outer(np.linspace(0.2, 1.0, 6), 1.0 + np.sin(3.0 * shape.grid.nodes))
    nets.append(("varying", make_network(
        shape.n_vertices, [(e.tail, e.head) for e in shape.edges],
        shape.velocities, shape.weights, q, 100)))
    return nets


def test_batched_verdict_matches_per_sample_reference(monkeypatch):
    import semiflow.network as network_module
    lambdas = [0.02, 0.1, 1.0, 10.0]
    calls = []

    def spy(values, h, rate, **kwargs):
        calls.append((np.shape(values), np.shape(rate)))
        return damped_cumulative_integral(values, h, rate, **kwargs)

    for kind, net in _verdict_networks():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = _network_verdict_reference(net, lambdas, 3, 5)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(network_module, "damped_cumulative_integral", spy)
                got = network_generation_verdict(net, lambdas, 3, 5).to_dict()
        assert got == ref, kind
        # one damped integral per lambda over every edge of every sample,
        # with one rate per edge where the absorption is constant along it
        rows, nodes = 3 * net.n_edges, net.grid.n_cells + 1
        panels = 1 if kind == "constant" else net.grid.n_cells
        assert calls == [((rows, nodes), (rows, panels))] * len(lambdas), kind


@pytest.mark.parametrize("absorption, lam", [(None, 1e-12), (50.0, 1.0)],
                         ids=["small_lambda", "absorption"])
def test_batched_verdict_raises_the_first_breakdown(absorption, lam):
    # the samples of the benchmark's breakdown ops and of `check --network`:
    # five at seed 0
    net = two_cycle(absorption=absorption)
    errors = []
    for verdict in (_network_verdict_reference, network_generation_verdict):
        with warnings.catch_warnings(), pytest.raises(RuntimeError) as info:
            warnings.simplefilter("ignore")
            verdict(net, [lam], 5, 0)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_verdict_takes_each_defect_budget_from_its_solve(monkeypatch):
    # the solve computes one budget per sample and lambda and returns it;
    # the verdict calls defect_budget no further time
    import semiflow.network as network_module
    calls = []

    def counting(*args):
        calls.append(args[1])
        return defect_budget(*args)

    monkeypatch.setattr(network_module, "defect_budget", counting)
    net = random_flow_network(6, seed=2, n_cells=80)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        network_generation_verdict(net, [0.5, 2.0, 8.0], n_samples=4)
    assert calls == [0.5] * 4 + [2.0] * 4 + [8.0] * 4


def test_verdict_warns_once_per_lambda():
    # mixed speeds: q = max_k sum_j nu_j B_jk, the norm of diag(nu) Bc in
    # sum_j c_j |x_j|, stays below 1 at every lambda (0.95 at 0.02), so the
    # coupling system is strictly damped and nothing warns
    net = _verdict_networks()[0][1]
    for lam in (0.02, 0.1, 1.0, 10.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            network_generation_verdict(net, [lam], n_samples=3)
    # absorption 50 at lambda = 1: q = e^49, one warning for the five
    # samples, and then the solve breaks down
    with warnings.catch_warnings(record=True) as caught, pytest.raises(RuntimeError):
        warnings.simplefilter("always")
        network_generation_verdict(two_cycle(absorption=50.0), [1.0], 5, 0)
    assert len(caught) == 1
    message = str(caught[0].message)
    prefix = "vertex coupling is not strictly damped (q = max_k sum_j nu_j B_jk = "
    assert message.startswith(prefix)
    assert float(message[len(prefix):].split(",")[0]) == pytest.approx(math.exp(49.0))


def _damping_warning(net, lam, g):
    """The messages of every warning one resolvent solve gives, and the text
    of the breakdown it raises."""
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(RuntimeError) as info:
        warnings.simplefilter("always")
        network_resolvent(net, lam, g)
    return [str(w.message) for w in caught], str(info.value)


def test_overflowed_decay_factor_gives_q_inf():
    # absorption 3000 at lambda 0.1: nu_j = exp(2999.9) overflows, and each
    # meets a zero of the two-cycle's coupling as inf * 0 in (c nu) Bc; that
    # term is 0 and the other one is inf, so q is inf (nan before), and the
    # solve then breaks down
    net = two_cycle(absorption=3000.0)
    g = sample_states(net, 1, 0)[0][1]
    messages, error = _damping_warning(net, 0.1, g)
    assert len(messages) == 1
    assert "(q = max_k sum_j nu_j B_jk = inf, not below 1)" in messages[0]
    assert error == "network resolvent breaks down at lambda 0.1: the solution is not finite"


def test_overflow_on_an_unfed_edge_leaves_q_finite():
    # edge 0 leaves vertex 0, which nothing feeds, so row 0 of Bc is zero and
    # its overflowed nu_0 adds nothing to q: the cycle of edges 1 and 2 gives
    # q = exp(-0.1) < 1, and nothing warns before the breakdown
    net = make_network(3, [(0, 1), (1, 2), (2, 1)], velocities=[1.0, 1.0, 1.0],
                       absorption=[3000.0, 0.0, 0.0], n_cells=50)
    assert not np.any(net.coupling[0])
    g = sample_states(net, 1, 0)[0][1]
    messages, error = _damping_warning(net, 0.1, g)
    assert messages == []
    assert error.endswith("the solution is not finite")


def test_finite_q_is_quoted_as_computed():
    # absorption 50 at lambda 1: q = max_k sum_j c_j nu_j B_jk / c_k, bit for
    # bit as the matrix product gives it
    net = two_cycle(absorption=50.0)
    g = sample_states(net, 1, 0)[0][1]
    messages, _ = _damping_warning(net, 1.0, g)
    rates = (1.0 - 0.5 * (net.absorption[:, :-1] + net.absorption[:, 1:])) \
        / net.velocities[:, None]
    nu = np.exp(-np.cumsum((rates * net.grid.h)[:, ::-1], axis=1)[:, -1])
    c = net.velocities
    q = float(np.max((c * nu) @ net.coupling / c))
    assert math.isfinite(q)
    assert messages == [
        f"vertex coupling is not strictly damped (q = max_k sum_j nu_j B_jk = {q!r}, "
        "not below 1); attempting a direct solve; increase lambda for a "
        "guaranteed solve"]


def test_verdict_solves_no_lambda_after_a_breakdown(monkeypatch):
    # the absorption-50 two-cycle breaks down at lambda = 1, the first of
    # three: one warning, one damped integral, and the error the per-sample
    # reference raises; lambda 2 and 3 are never solved
    import semiflow.network as network_module
    net = two_cycle(absorption=50.0)
    with warnings.catch_warnings(), pytest.raises(RuntimeError) as info:
        warnings.simplefilter("ignore")
        _network_verdict_reference(net, [1.0, 2.0, 3.0], 5, 0)
    expected = str(info.value)
    assert expected.startswith("network resolvent breaks down at lambda 1.0: "
                               "resolvent consistency defect ")
    calls = []

    def spy(values, h, rate, **kwargs):
        calls.append(np.shape(values))
        return damped_cumulative_integral(values, h, rate, **kwargs)

    monkeypatch.setattr(network_module, "damped_cumulative_integral", spy)
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(RuntimeError) as info:
        warnings.simplefilter("always")
        network_generation_verdict(net, [1.0, 2.0, 3.0], 5, 0)
    assert str(info.value) == expected
    assert len(caught) == 1
    assert "not strictly damped" in str(caught[0].message)
    assert calls == [(5 * net.n_edges, net.grid.n_cells + 1)]


def test_sample_states_draws_each_state_through_sample_functions(monkeypatch):
    # the benchmark's tracer times the sample library by patching
    # semiflow.network.sample_functions: one call per state
    import semiflow.network as network_module
    calls = []
    real = network_module.sample_functions

    def spy(grid, count, seed, *args):
        calls.append((count, seed))
        return real(grid, count, seed, *args)

    monkeypatch.setattr(network_module, "sample_functions", spy)
    net = random_flow_network(5, seed=3, n_cells=40)
    for k in (1, 2, 7):
        calls.clear()
        states = sample_states(net, k, 9)
        assert len(states) == k
        assert calls == [(net.n_edges, 9 + 1000 * i) for i in range(k)]


# The solve before the states were taken in groups: one damped integral per
# lambda over every edge of every state.  Copied as it was, but for the
# module prefix of the network's private names and of ``defect_budget``,
# which the solve looks up on its module.

def _network_resolvents_stacked(net, lambdas, gs):
    lambdas = [nw.check_lambda(lam) for lam in lambdas]
    for g in gs:
        nw._check_state(net, g)
    h = net.grid.h
    n = net.grid.n_cells
    c = net.velocities
    q = net.absorption
    bc = net.coupling
    n_edges = net.n_edges
    q_mean = 0.5 * (q[:, :-1] + q[:, 1:])  # per panel
    # every edge of every state, from the tail to the head
    reversed_stack = np.stack([g.values[:, ::-1] for g in gs]).reshape(-1, n + 1)

    for lam in lambdas:
        with np.errstate(over="ignore", invalid="ignore"):
            rates = (lam - q_mean) / c[:, None]
            zsum = np.zeros((n_edges, n + 1))
            zsum[:, :-1] = np.cumsum((rates * h)[:, ::-1], axis=1)[:, ::-1]
            suffix = np.exp(-zsum)  # exp(phi(x) - phi(1)) <= 1 for lam > q
            nu = suffix[:, 0]
            # ||diag(nu) Bc||_c = max_k sum_j c_j nu_j Bc_jk / c_k
            q_norm = float(np.max((c * nu) @ bc / c))
            if math.isnan(q_norm):
                # an overflowed nu_j times a zero of Bc is nan in the
                # product; such a term is 0, and any other one is inf
                terms = np.where(bc != 0, (c * nu)[:, None] * bc, 0.0)
                q_norm = float(np.max(terms.sum(axis=0) / c))
            if not q_norm < 1.0:
                # the Neumann series no longer guarantees that the system is
                # invertible; the solves below are direct either way
                warnings.warn(
                    "vertex coupling is not strictly damped (q = max_k sum_j nu_j B_jk = "
                    f"{q_norm!r}, not below 1); attempting a direct solve; increase "
                    "lambda for a guaranteed solve", RuntimeWarning, stacklevel=3)
            system = np.eye(n_edges) - nu[:, None] * bc
            # int_x^1 exp-damped g, every edge of every state integrated
            # from the tail at once
            row_rates = (rates[:, :1] if np.all(rates == rates[:, :1])
                         else rates[:, ::-1])
            backward = damped_cumulative_integral(
                reversed_stack, h, np.tile(row_rates, (len(gs), 1)))
            backward = backward.reshape(len(gs), n_edges, n + 1)[..., ::-1]

        solved = []
        for g, back in zip(gs, backward):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    f0 = np.linalg.solve(system, back[:, 0] / c)
                except np.linalg.LinAlgError:
                    raise nw._breakdown(lam, "the vertex coupling system is singular") from None
                f = suffix * (bc @ f0)[:, None] + back / c[:, None]
                if not np.all(np.isfinite(f)):
                    raise nw._breakdown(lam, "the solution is not finite")
            bc_residual = float(np.max(np.abs(f[:, -1] - bc @ f[:, 0])))
            if not bc_residual <= 1e-9:
                raise nw._breakdown(lam, f"boundary condition residual {bc_residual!r} "
                                    "exceeds 1e-9")
            fstate = EdgeState(net.grid, f)
            worst = resolvent_defect_norm(net, lam, g, fstate)
            tol = nw.defect_budget(net, lam, f, g.values)
            if not worst <= tol:
                raise nw._breakdown(lam, f"resolvent consistency defect {worst!r} exceeds the "
                                    f"scheme budget {tol!r}")
            solved.append((fstate, tol))
        # only the solutions outlive the lambda
        del rates, zsum, suffix, nu, system, row_rates, backward, back, f
        yield solved


def _lambda_by_lambda(net, lambdas, gs):
    """The grouped solve in the stacked solve's shape: one list of solutions
    per lambda, each lambda's read whole before the next is solved."""
    for lam in lambdas:
        yield list(nw._network_resolvents(net, lam, gs))


def _solve_outcome(solve, net, lambdas, gs):
    """The bytes of every solution and budget that ``solve`` yields, one list
    per lambda, the messages of its warnings and the text of the breakdown
    it raises (None when it raises none)."""
    pairs, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for solved in solve(net, lambdas, gs):
                pairs.append([(f.values.tobytes(), np.float64(budget).tobytes())
                              for f, budget in solved])
        except RuntimeError as exc:
            error = str(exc)
    return pairs, [str(w.message) for w in caught], error


def _counting_integral(calls):
    """``damped_cumulative_integral`` that appends its row count to ``calls``."""
    def spy(values, h, rate, **kwargs):
        calls.append(len(values))
        return damped_cumulative_integral(values, h, rate, **kwargs)
    return spy


def _group_network(n_edges, varying):
    # mixed speeds, absorption on every edge: constant along each edge (one
    # rate per row) or varying along it (per-panel rates)
    shape = random_flow_network(n_edges, seed=n_edges, n_cells=400)
    q = -np.random.default_rng(n_edges).uniform(0.0, 1.0, n_edges)
    if varying:
        q = np.outer(q, 1.0 + np.sin(3.0 * shape.grid.nodes))
    return make_network(shape.n_vertices, [(e.tail, e.head) for e in shape.edges],
                        shape.velocities, shape.weights, q, 400)


@pytest.mark.parametrize("varying", [False, True], ids=["constant", "varying"])
@pytest.mark.parametrize("n_edges", [2, 8, 64])
def test_grouped_resolvents_match_the_stacked_solve(monkeypatch, n_edges, varying):
    net = _group_network(n_edges, varying)
    lambdas = [0.02, 0.1, 1.0, 10.0]
    state_values = n_edges * (net.grid.n_cells + 1)
    gs = [g for _, g in sample_states(net, 5, 7)]
    calls = []
    monkeypatch.setattr(nw, "damped_cumulative_integral", _counting_integral(calls))
    for count in (1, 2, 5):
        expected = _solve_outcome(_network_resolvents_stacked, net, lambdas, gs[:count])
        assert expected[2] is None and len(expected[0]) == len(lambdas)
        for group_values in (nw.GROUP_VALUES, 1, 2 ** 40):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(nw, "GROUP_VALUES", group_values)
                got = _solve_outcome(_lambda_by_lambda, net, lambdas, gs[:count])
            assert got == expected, (count, group_values)
            # at least one state a group, and no more than group_values values
            size = max(1, group_values // state_values)
            groups = [min(size, count - start) for start in range(0, count, size)]
            assert calls == [n_edges * k for k in groups] * len(lambdas)


@pytest.mark.parametrize("group_values, integrals", [(None, 2), (1, 3)],
                         ids=["shipped", "one_state"])
def test_grouped_resolvents_raise_where_the_stacked_solve_does(
        monkeypatch, group_values, integrals):
    # a budget that no defect meets on the third call, the first sample at
    # lambda 1: the stacked solve's error, and lambda 10 is never integrated
    net = _group_network(8, False)
    gs = [g for _, g in sample_states(net, 2, 7)]
    budgets = []

    def third_fails(*args):
        budgets.append(args[1])
        return -1.0 if len(budgets) == 3 else defect_budget(*args)

    monkeypatch.setattr(nw, "defect_budget", third_fails)
    expected = _solve_outcome(_network_resolvents_stacked, net, [0.1, 1.0, 10.0], gs)
    assert expected[2].startswith("network resolvent breaks down at lambda 1.0: "
                                  "resolvent consistency defect ")
    assert expected[2].endswith("exceeds the scheme budget -1.0")
    assert budgets == [0.1, 0.1, 1.0]
    if group_values is not None:
        monkeypatch.setattr(nw, "GROUP_VALUES", group_values)
    calls = []
    monkeypatch.setattr(nw, "damped_cumulative_integral", _counting_integral(calls))
    budgets.clear()
    got = _solve_outcome(_lambda_by_lambda, net, [0.1, 1.0, 10.0], gs)
    assert got == expected
    assert budgets == [0.1, 0.1, 1.0]
    # the groups of lambda 0.1, then the one that holds the first sample at 1
    assert len(calls) == integrals


def test_verdict_working_set_stays_near_one_group():
    # tracemalloc's peak over a second verdict (the first leaves the grid's
    # nodes and the imports behind) on 5 samples at n = 2^16, in units of
    # one state's E (n + 1) float64 values; each state is a group of its
    # own here.  Live throughout: the 5 samples, the three rows of the group
    # work and a lambda's decay factors (9).  At the peak, the contraction
    # norm of a solution, the verdict also holds that solution and the
    # norm's block of columns: 10.5 measured.  The bound is the peak of the
    # verdict that allocated each group's arrays anew, 11.1: the same work
    # with the verdict still holding the previous solution while the next
    # is made reads 11.13, and with the norm's temporaries state-sized 11.5.
    import tracemalloc
    net = two_cycle(n_cells=2 ** 16)
    state_bytes = net.n_edges * (net.grid.n_cells + 1) * 8
    network_generation_verdict(net, [0.1, 1.0, 10.0], 5)
    tracemalloc.start()
    try:
        network_generation_verdict(net, [0.1, 1.0, 10.0], 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / state_bytes <= 11.1


@pytest.mark.parametrize("varying", [False, True], ids=["constant", "varying"])
def test_yielded_states_keep_their_bytes_while_the_work_is_reused(monkeypatch, varying):
    # groups of 2, 2 and 1 states at each of 3 lambdas, all in one work:
    # every state yielded is held to the end and must still read as the
    # stacked solve's, sharing no memory with the work
    net = _group_network(8, varying)
    state_values = net.n_edges * (net.grid.n_cells + 1)
    monkeypatch.setattr(nw, "GROUP_VALUES", 2 * state_values + 1)
    gs = [g for _, g in sample_states(net, 5, 7)]
    lambdas = [0.1, 1.0, 10.0]
    work = nw._group_work(net, len(gs))
    assert work.shape == (3, 2 * state_values)
    held = [[(f, budget) for f, budget in nw._network_resolvents(net, lam, gs, work=work)]
            for lam in lambdas]
    assert not any(np.shares_memory(f.values, work) for solved in held for f, _ in solved)
    got = [[(f.values.tobytes(), np.float64(budget).tobytes()) for f, budget in solved]
           for solved in held]
    assert (got, [], None) == _solve_outcome(_network_resolvents_stacked, net, lambdas, gs)
