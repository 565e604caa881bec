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
from semiflow.generation import CheckReport, Witness


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


STATE_ENTRIES = {
    "orbit": lambda net, st: list(network_semigroup(net).orbit([0.5, 1.0], st)),
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
    mu_min = float(np.min(1.0 / nu))
    col_norm = float(np.max(np.sum(np.abs(bc), axis=0)))
    cond = float(np.linalg.cond(m))
    if mu_min <= col_norm:
        # series sufficiency for invertibility fails; solve directly anyway
        warnings.warn(
            "vertex coupling is not strictly damped (min exp growth factor "
            f"{mu_min!r} <= coupling column norm {col_norm!r}); attempting a "
            f"direct solve, condition number {cond:.6e}; increase lambda for "
            "a guaranteed solve", RuntimeWarning, stacklevel=2)
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


def test_load_network_roundtrip_and_errors(tmp_path):
    import json
    cfg = {
        "vertices": 2,
        "edges": [{"tail": 0, "head": 1}, {"tail": 1, "head": 0}],
        "velocities": [1.0, 2.0],
        "absorption": [0.0, 0.0],
        "grid": {"n_cells": 50},
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(cfg))
    net = load_network(str(path))
    assert net.n_edges == 2 and net.grid.n_cells == 50
    assert np.array_equal(net.velocities, [1.0, 2.0])

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

    def spy(values, h, rate):
        calls.append((np.shape(values), np.shape(rate)))
        return damped_cumulative_integral(values, h, rate)

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
    # mixed speeds: the small lambdas are not strictly damped, lambda = 10 is
    net = _verdict_networks()[0][1]
    counts = []
    for lam in (0.02, 0.1, 1.0, 10.0):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            network_generation_verdict(net, [lam], n_samples=3)
        assert all(str(w.message).startswith("vertex coupling is not strictly damped")
                   for w in caught)
        counts.append(len(caught))
    assert counts[:2] == [1, 1] and counts[-1] == 0 and max(counts) == 1
