"""The benchmark's three workloads: seeded inputs, ops and their oracles.

An op is one call into the public API.  ``make`` builds fresh argument
objects outside the timed region, ``run`` is the timed call, and ``check``
compares the result with the op's oracle and returns its (error,
tolerance) pairs.  Inputs depend only on the seed, and every pass of a
workload runs the same ops on the same inputs.

Where cost would depend on the seed (the path count of exact tracing grows
with the graph's branching and speeds) the structure is fixed and the seed
draws only values, so runs with different seeds do the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles as orc
from oracles import require, within

import semiflow
from semiflow import cli, network, semigroups


@dataclass
class Op:
    kind: str
    make: Callable[[], tuple]
    run: Callable[..., Any]
    check: Callable[[Any], list]
    cache: dict = field(default_factory=dict)

    def reference(self, key: str, compute: Callable[[], Any]) -> Any:
        """Oracle values that depend only on the input are computed once."""
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]


# ---------------------------------------------------------------------------
# interval-checks: the CLI user's path


def run_cli(argv: list[str]) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _witnesses(report: dict) -> list[dict]:
    found = list(report["witnesses"])
    for sub in report.get("sub_reports", []):
        found.extend(_witnesses(sub))
    return found


def _check_left_shift(out) -> list:
    code, report = out
    require(code == 0 and report["passed"] and not _witnesses(report),
            "left shift generates a contraction semigroup; the check must pass")
    return []


def _check_right_translation(out) -> list:
    # p_1 of R(1) applied to the index-2 plateau ramp, the check's witness
    # input; (lam - A) f = (lam - 1) f on [-1, 0] because the ramp vanishes there
    code, report = out
    require(code == 1 and not report["passed"], "ramp resolvent must yield a witness")
    peak = orc.ramp_resolvent_peak(1.0, 2)
    h = 10.0 / 2000
    tol_lhs = 2.0 * h * h / 3.0 * peak + 1e-9
    pairs = []
    ramp = {(w["lambda"], w["n"]): w for w in _witnesses(report)
            if w["input_id"] == "ramp_resolvent"}
    for lam in (0.1, 1.0, 10.0):
        w = ramp.get((lam, 1))
        require((w is not None) == (abs(lam - 1.0) < lam),
                f"ramp witness at lambda={lam}, n=1 disagrees with closed form")
        if w is not None:
            pairs.append(within(abs(w["lhs"] - abs(lam - 1.0) * peak), tol_lhs, "ramp lhs"))
            pairs.append(within(abs(w["rhs"] - lam * peak), 1e-9 * lam * peak, "ramp rhs"))
    return pairs


def _check_laplacian(out) -> list:
    # on f = x^2: p_n((lam - A) f) = max(2, |lam n^2 - 2|) and lam p_n(f) = lam n^2
    code, report = out
    require(code == 1 and not report["passed"], "the parabola must yield witnesses")
    tol = orc.stencil_roundoff(4.0, 4.0 / 4000)
    found = {(w["lambda"], w["n"]): w for w in _witnesses(report)
             if w["input_id"] == "parabola"}
    pairs = []
    for lam in (0.1, 1.0, 10.0):
        for n in (1, 2):
            lhs, rhs = max(2.0, abs(lam * n * n - 2.0)), lam * n * n
            w = found.get((lam, n))
            require((w is not None) == (lhs < rhs),
                    f"parabola witness at lambda={lam}, n={n} disagrees with closed form")
            if w is not None:
                pairs.append(within(abs(w["lhs"] - lhs), tol, "parabola lhs"))
                pairs.append(within(abs(w["rhs"] - rhs), 1e-12 * rhs, "parabola rhs"))
    return pairs


def _check_counterexample(lam: float, n: int):
    def check(out) -> list:
        code, doc = out
        peak = orc.ramp_resolvent_peak(lam, n)
        lower = math.exp(-lam * (n + 1)) / lam
        require(code == 0 and doc["passed"], "the ramp is a counterexample for every lambda")
        return [within(doc["p_n_of_f"], 1e-12, "p_n of the ramp"),
                within(abs(doc["p_1_of_Rf"] - peak), 1e-9 * peak, "p_1 of R f"),
                within(abs(doc["lower_bound"] - lower), 1e-12 * lower, "lower bound")]
    return check


def _check_heat(lam: float, n: int):
    def check(out) -> list:
        code, doc = out
        shifted, scaled = max(2.0, abs(lam * n * n - 2.0)), n * n / lam
        require(code == (0 if shifted < scaled else 1), "heat verdict disagrees with closed form")
        tol = orc.stencil_roundoff(float(n * n), 2.0 * n / 4000)
        return [within(abs(doc["p2_shifted"] - shifted), tol, "p_n((lam - A) f)"),
                within(abs(doc["inv_lambda_p2_f"] - scaled), 1e-12 * scaled, "p_n(f) / lam")]
    return check


def _check_euler(out) -> list:
    code, doc = out
    require(code == 0, "euler must succeed")
    h = 6.0 / 4000
    f2 = orc.bump_second_derivative_sup(1.0)
    pairs = [within(abs(doc["sup_norm_of_f"] - 1.0), h * h * f2 / 8.0, "bump height")]
    for m, err in zip(doc["m_ladder"], doc["errors"]):
        pairs.append(within(err, orc.euler_tolerance(1.0, m, f2, h), f"Euler error m={m}"))
    return pairs


def _check_resolvent(a: float, b: float):
    n_cells, lam, horizon, steps = 2000, 1.0, 15.0, 3000
    h = (b - a) / n_cells
    g = orc.bump_values(np.linspace(a, b, n_cells + 1), 0.5 * (a + b), 0.25 * (b - a))
    tail = math.exp(-lam * horizon) * float(np.max(np.abs(g))) / lam
    bound = tail + orc.laplace_quadrature_bound(lam, horizon / steps, g, h)

    def check(out) -> list:
        code, doc = out
        require(code == 0, "resolvent must succeed")
        return [within(abs(doc["laplace_tail_bound"] - tail), 1e-12 * tail, "tail bound"),
                within(doc["laplace_crosscheck_diff"], bound, "Laplace vs resolvent"),
                within(lam * doc["sup_of_result"], float(np.max(np.abs(g))) * (1 + 1e-12),
                       "resolvent contraction")]
    return check


def interval_checks(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []

    def cli_op(kind, argv, check):
        ops.append(Op(kind, lambda: (list(argv),), run_cli, check))

    # check and the two witness commands twice each, with seeded samples and
    # parameters: these fast ops are then over half the mix, so the median
    # falls inside them and p90 inside the resolvent ops
    for _ in range(2):
        s = str(int(rng.integers(0, 2 ** 31)))
        cli_op("check.left_shift", ["check", "--operator", "left_shift", "--seed", s],
               _check_left_shift)
        cli_op("check.right_translation",
               ["check", "--operator", "right_translation", "--seed", s],
               _check_right_translation)
        cli_op("check.laplacian", ["check", "--operator", "laplacian", "--seed", s],
               _check_laplacian)
        # lambda values keep the heat verdict away from its equality cases
        lam = float(rng.choice([0.4, 0.8, 1.0, 1.25, 1.6]))
        n = int(rng.integers(1, 4))
        cli_op("counterexample", ["counterexample", "--lambda", repr(lam), "--n", str(n)],
               _check_counterexample(lam, n))
        lam = float(rng.choice([0.4, 0.8, 1.0, 1.25, 1.6]))
        n = int(rng.integers(1, 4))
        cli_op("heat", ["heat", "--lambda", repr(lam), "--n", str(n)], _check_heat(lam, n))
    for op_name in ("left_shift", "right_translation"):
        cli_op(f"euler.{op_name}", ["euler", "--operator", op_name], _check_euler)
    cli_op("resolvent.left_shift",
           ["resolvent", "--operator", "left_shift", "--horizon", "15"],
           _check_resolvent(0.0, 20.0))
    cli_op("resolvent.right_translation",
           ["resolvent", "--operator", "right_translation", "--horizon", "15"],
           _check_resolvent(-10.0, 0.0))
    return ops


# ---------------------------------------------------------------------------
# graph-orbit: the network semigroup along orbits


def _coupling(n_edges: int, weights, c: np.ndarray) -> np.ndarray:
    """C^{-1} B C from the weight list, built here for the oracles."""
    b = np.zeros((n_edges, n_edges))
    for i, j, w in weights:
        b[i, j] = w
    return b * (c[None, :] / c[:, None])


def _laplace_op() -> Op:
    # the tier-1 configuration (n = 200, lambda = 1, H = 20, sample seed 3);
    # 20 steps instead of 8000 keep one op near a second
    n_cells, lam, horizon, steps = 200, 1.0, 20.0, 20
    ds = horizon / steps
    net0 = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=n_cells)
    g0 = semiflow.sample_states(net0, 1, 3)[0][1].values
    c = np.ones(2)
    bc = _coupling(2, net0.weights, c)

    def make():
        net = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=n_cells)
        return network.network_semigroup(net), network.EdgeState(net.grid, g0)

    def run(sg, g):
        return semigroups.laplace_resolvent(sg, lam, g, horizon, steps)

    def check(out) -> list:
        approx, tail = out
        h = 1.0 / n_cells
        ref = op.reference("orbit", lambda: orc.trapezoid_orbit(
            [orc.reference_transport(g0, bc, c, h, k * ds) for k in range(steps + 1)],
            lam, ds))
        resolvent = op.reference("resolvent", lambda: network.network_resolvent(
            net0, lam, network.EdgeState(net0.grid, g0)).values)
        state_norm = float(np.max(np.sum(np.abs(g0), axis=0)))
        scale = float(np.max(np.abs(g0))) / lam
        return [
            within(abs(tail - math.exp(-lam * horizon) * state_norm / lam),
                   1e-12 * state_norm, "tail bound"),
            within(np.max(np.abs(approx.values - ref)), 1e-10 * scale,
                   "orbit quadrature vs reference transport"),
            within(np.max(np.abs(approx.values - resolvent)),
                   orc.cycle_laplace_bound(lam, horizon, ds, g0, 2.0),
                   "Laplace transform vs resolvent"),
        ]

    op = Op("laplace.two_cycle", make, run, check)
    return op


def _branching_inputs(seed: int, n_cells: int):
    """Edges and speeds of a fixed branching graph; seeded weights and bumps."""
    shape = semiflow.random_flow_network(8, seed=3, n_cells=n_cells)
    edges = [(e.tail, e.head) for e in shape.edges]
    c = np.array(shape.velocities)
    rng = np.random.default_rng(seed)
    weights = []
    for j, (_, head) in enumerate(edges):
        outs = [i for i, (tail, _) in enumerate(edges) if tail == head]
        raw = rng.uniform(0.5, 1.5, len(outs))
        weights.extend((i, j, float(w)) for i, w in zip(outs, raw / raw.sum()))
    x = np.linspace(0.0, 1.0, n_cells + 1)
    centers = rng.uniform(0.35, 0.65, len(edges))
    widths = rng.uniform(0.25, 0.5, len(edges))
    amps = rng.uniform(0.5, 1.5, len(edges))
    values = np.stack([a * orc.bump_values(x, m, w) for a, m, w in zip(amps, centers, widths)])
    # sum_j c_j^2 int |f_j''| for the cos^2 bumps: 4 pi A / w per bump
    f2_weighted = float(np.sum(c ** 2 * 4.0 * math.pi * amps / widths))
    return shape.n_vertices, edges, c, weights, values, f2_weighted


def _flow_op(seed: int, solver: str, t_final: float) -> Op:
    n_cells, n_outputs = 50, 6
    n_vertices, edges, c, weights, values, f2_weighted = _branching_inputs(seed, n_cells)
    h = 1.0 / n_cells
    bc = _coupling(len(edges), weights, c)
    times = np.linspace(0.0, t_final, n_outputs)

    def make():
        net = semiflow.make_network(n_vertices, edges, c, weights, None, n_cells)
        return net, network.EdgeState(net.grid, values)

    def run(net, state):
        return network.simulate_flow(net, state, t_final, solver, n_outputs=n_outputs)

    def check(out) -> list:
        out_times, states = out
        require(np.array_equal(out_times, times), "output times")
        exact = op.reference("exact", lambda: [
            orc.reference_transport(values, bc, c, h, float(t)) for t in times])
        if solver == "characteristics":
            return [within(np.max(np.abs(st.values - ref)),
                           1e-10 * max(1.0, float(np.max(np.abs(ref)))),
                           f"characteristics vs reference at t={t}")
                    for t, st, ref in zip(times, states, exact)]
        m0 = orc.left_mass(values, h)
        pairs = [within(abs(orc.left_mass(st.values, h) - m0), 1e-9 * abs(m0),
                        f"upwind mass at t={t}") for t, st in zip(times, states)]
        l1 = float(h * np.sum(np.abs(states[-1].values - exact[-1])[:, :-1]))
        pairs.append(within(l1, orc.upwind_error_bound(t_final, h, c, f2_weighted),
                            "upwind vs exact transport"))
        return pairs

    op = Op(f"simulate.{solver}.t{t_final:g}", make, run, check)
    return op


def graph_orbit(seed: int) -> list[Op]:
    ops = [_laplace_op()]
    flow_seed = int(np.random.default_rng(seed).integers(0, 2 ** 31))
    for t_final in (1.0, 3.0, 5.0):
        ops.append(_flow_op(flow_seed, "characteristics", t_final))
        ops.append(_flow_op(flow_seed, "upwind", t_final))
    return ops


# ---------------------------------------------------------------------------
# graph-verdict: generation verdicts on networks of several sizes


def _verdict_op(kind: str, spec: dict, lambdas: list[float], n_samples: int,
                sample_seed: int, breakdown: bool) -> Op:
    def make():
        return (semiflow.make_network(**spec),)

    def run(net):
        return network.network_generation_verdict(net, lambdas, n_samples, sample_seed)

    def check(report) -> list:
        legs = {r.check_name: r for r in report.sub_reports}
        require(legs["adjoint_fixed_vector"].passed, "adjoint fixed-vector identity")
        require(legs["network_resolvent_contraction"].passed, "resolvent contraction")
        if breakdown:
            # the range leg may report the breakdown as a witness
            return []
        require(report.passed, "transport with conservative coupling generates")
        return op.reference("mass", mass_identity)

    def mass_identity() -> list:
        net = semiflow.make_network(**spec)
        g = semiflow.sample_states(net, n_samples, sample_seed)[0][1]
        return [within(*orc.network_mass_identity(
                    network.network_resolvent(net, lam, g).values, g.values, lam,
                    net.absorption[:, 0], net.velocities, net.grid.h),
                    f"mass identity at lambda={lam}")
                for lam in lambdas]

    op = Op(kind, make, run, check)
    return op


def graph_verdict(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    n_cells = 400
    # the two smallest lambdas are below the strict-damping threshold of
    # mixed-speed couplings and take the direct-solve path
    lambdas = [0.02, 0.1, 1.0, 10.0]
    ops = []
    for n_edges in (8, 16, 32, 64):
        for _ in range(2):
            shape = semiflow.random_flow_network(
                n_edges, seed=int(rng.integers(0, 2 ** 31)), n_cells=n_cells)
            q = -rng.uniform(0.0, 1.0, n_edges) * (rng.uniform(size=n_edges) < 0.5)
            spec = dict(n_vertices=shape.n_vertices,
                        edges=[(e.tail, e.head) for e in shape.edges],
                        velocities=shape.velocities, weights=shape.weights,
                        absorption=q, n_cells=n_cells)
            ops.append(_verdict_op(f"verdict.E{n_edges}", spec, lambdas, 2,
                                   int(rng.integers(0, 2 ** 31)), False))
    # the two known resolvent breakdowns, with the CLI's default samples
    # (five, seed 0) as in `semiflow check --network`; both raise
    # RuntimeError today, and whether they do depends on the samples
    two_cycle = dict(n_vertices=2, edges=[(0, 1), (1, 0)], velocities=[1.0, 1.0],
                     n_cells=400)
    ops.append(_verdict_op("verdict.breakdown.small_lambda", two_cycle, [1e-12], 5, 0, True))
    ops.append(_verdict_op("verdict.breakdown.absorption", dict(two_cycle, absorption=50.0),
                           [1.0], 5, 0, True))
    return ops


WORKLOADS = {
    "interval-checks": interval_checks,
    "graph-orbit": graph_orbit,
    "graph-verdict": graph_verdict,
}
