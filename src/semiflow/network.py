"""Transport flows on weighted directed metric graphs.

Every edge is a copy of [0, 1] with the tail at 1 and the head at 0;
material moves from tail to head with constant edge velocity c_j and a
zero-order coefficient q_j(x) acting along the way.  At each vertex the
arriving material is redistributed over the outgoing edges by weights that
sum to one per incoming edge, so the adjacency-weight matrix is column
stochastic and the flow conserves total mass when q = 0.

The vertex coupling enters the evolution through the boundary condition

    u_j(1, t) = sum_k (C^{-1} B C)_{jk} u_k(0, t)

with C = diag(velocities).  Two solvers realize the flow: the exact flow
along characteristics (by the method of steps when the speeds fit a time
grid, by backtracking through vertices otherwise) and an explicit upwind
scheme; ``network_resolvent`` solves (lambda - A) f = g including the
coupling.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from ._kernels import (FrontierLimitError, common_step, damped_cumulative_integral,
                       frontier_error, history_transport, trace_transport,
                       upwind_sweep)
from .generation import CheckReport, Witness
from .grid import Grid, GridFunction, check_lambda, check_lambdas
from .samples import sample_functions
from .semigroups import Semigroup, orbit_semigroup, time_blocks


# Most cell-steps (edge nodes times time steps) one ``simulate_flow`` upwind
# march may take.  On a 2-core Xeon with numpy 2.4 a cell-step costs 8 ns
# with 64 edges of 401 nodes, 21 ns with 2 edges of 401 nodes and 49 ns with
# 8 edges of 51 nodes (per-step overhead dominates small rows), so this keeps
# a march under about 2-13 s.  The default CLI march takes 1.4e6.
UPWIND_CELL_STEP_LIMIT = 2 ** 28

# Largest network a JSON document may describe, checked before anything is
# allocated.  On 2 cores, ``check --network`` on a ring of 10 cells per edge
# takes 4-6 s at 1000 edges and 37 s at 2048 (the E x E coupling solves grow
# like E^3); on the two-cycle it takes 8-9 s and 365 MB at 2^21 node values
# and 22 s and 677 MB at 2^22.  ``make_network`` stays unbounded: its callers
# are code, not documents.
DOCUMENT_EDGE_LIMIT = 2 ** 10
DOCUMENT_VALUE_LIMIT = 2 ** 21


class ValidationError(ValueError):
    """A network description violates a structural invariant."""


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int


@dataclass(frozen=True, eq=False)
class Network:
    """Directed metric graph with redistribution weights and edge velocities,
    checked when built.  Also stores, read-only, the coupling matrix
    C^{-1} B C of the boundary condition and the cumulative trapezoid
    integral of the absorption along each edge."""

    n_vertices: int
    edges: tuple[Edge, ...]
    weights: tuple[tuple[int, int, float], ...]  # (into_edge, from_edge, w)
    velocities: np.ndarray
    absorption: np.ndarray  # per-edge node samples of q, shape (E, n_cells + 1)
    grid: Grid
    coupling: np.ndarray = field(init=False, repr=False)
    absorption_integral: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValidationError("network needs at least one vertex")
        n_edges = len(self.edges)
        if n_edges < 1:
            raise ValidationError("network needs at least one edge")
        for k, e in enumerate(self.edges):
            if not (0 <= e.tail < self.n_vertices and 0 <= e.head < self.n_vertices):
                raise ValidationError(
                    f"edge {k} references vertex outside 0..{self.n_vertices - 1}")
        c = np.array(self.velocities, dtype=np.float64, copy=True)
        if c.shape != (n_edges,):
            raise ValidationError("need one velocity per edge")
        if not np.all(np.isfinite(c)) or not np.all(c > 0):
            raise ValidationError("velocities must be finite and positive")
        if not (self.grid.a == 0.0 and self.grid.b == 1.0):
            raise ValidationError("edges are parametrized on [0, 1]")
        q = np.array(self.absorption, dtype=np.float64, copy=True)
        if q.shape != (n_edges, self.grid.n_cells + 1):
            raise ValidationError(
                f"absorption must have shape ({n_edges}, {self.grid.n_cells + 1})")
        if not np.all(np.isfinite(q)):
            raise ValidationError("absorption values must be finite")
        bc = build_adjacency(self) * (c[None, :] / c[:, None])
        qc = np.zeros_like(q)
        qc[:, 1:] = np.cumsum(0.5 * self.grid.h * (q[:, :-1] + q[:, 1:]), axis=1)
        for name, arr in (("velocities", c), ("absorption", q), ("coupling", bc),
                          ("absorption_integral", qc)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _out_edges(tails: Sequence[int]) -> defaultdict[int, list[int]]:
    """Map each vertex to the edges leaving it, in ascending order."""
    out = defaultdict(list)
    for k, v in enumerate(tails):
        out[v].append(k)
    return out


def make_network(n_vertices: int, edges: Sequence[tuple[int, int]],
                 velocities: Sequence[float],
                 weights: Optional[Sequence[tuple[int, int, float]]] = None,
                 absorption=None, n_cells: int = 100) -> Network:
    """Assemble a network; omitted weights split each vertex outflow evenly."""
    edge_objs = tuple(Edge(int(t), int(h)) for t, h in edges)
    grid = Grid(0.0, 1.0, n_cells)
    n_edges = len(edge_objs)
    if weights is None:
        out_edges = _out_edges([e.tail for e in edge_objs])
        weights = [(i, j, 1.0 / len(out_edges[e.head]))
                   for j, e in enumerate(edge_objs) for i in out_edges[e.head]]
    q = np.zeros((n_edges, n_cells + 1))
    if absorption is not None:
        q_arr = np.asarray(absorption, dtype=np.float64)
        if q_arr.ndim == 0:
            q = np.full((n_edges, n_cells + 1), float(q_arr))
        elif q_arr.ndim == 1:
            if q_arr.shape != (n_edges,):
                raise ValidationError("per-edge absorption needs one constant per edge")
            q = np.repeat(q_arr[:, None], n_cells + 1, axis=1)
        else:
            q = q_arr
    return Network(int(n_vertices), edge_objs,
                   tuple((int(i), int(j), float(w)) for i, j, w in weights),
                   np.asarray(velocities, dtype=np.float64), q, grid)


def build_adjacency(net: Network) -> np.ndarray:
    """Weighted adjacency matrix B of the line graph: B[i, j] = w when edge j
    feeds vertex tail(i) = head(j).  Rejects weights that are negative,
    not finite, name an unknown edge, link non-adjacent edges or repeat an
    entry, and also sinks and non-stochastic columns.
    """
    n = net.n_edges
    b = np.zeros((n, n))
    tails = {e.tail for e in net.edges}
    seen = set()
    for i, j, w in net.weights:
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"weight entry ({i}, {j}) references unknown edge")
        if not math.isfinite(w) or w < 0:
            raise ValidationError(f"weight for (into={i}, from={j}) must be >= 0")
        if net.edges[j].head != net.edges[i].tail:
            raise ValidationError(
                f"weight (into={i}, from={j}) links non-adjacent edges: edge {j} "
                f"ends at vertex {net.edges[j].head}, edge {i} starts at vertex "
                f"{net.edges[i].tail}")
        if (i, j) in seen:
            raise ValidationError(f"duplicate weight entry for (into={i}, from={j})")
        seen.add((i, j))
        b[i, j] = w
    for j in range(n):
        v = net.edges[j].head
        if v not in tails:
            raise ValidationError(
                f"vertex {v} receives edge {j} but has no outgoing edge (flow sink)")
        s = float(np.sum(b[:, j]))
        if abs(s - 1.0) > 1e-12:
            raise ValidationError(
                f"redistribution weights for edge {j} (into vertex {v}) sum to "
                f"{s!r}, expected 1")
    return b


def weighted_bc(net: Network) -> np.ndarray:
    """Velocity-weighted coupling matrix C^{-1} B C used in the boundary
    condition; shares its spectrum with B and fixes the velocity vector
    under transposition.  The same read-only array as ``net.coupling``."""
    return net.coupling


def velocity_fixed_vector_residual(net: Network) -> float:
    """Residual of transpose(net.coupling) applied to the velocities."""
    c = net.velocities
    return float(np.max(np.abs(net.coupling.T @ c - c)))


class EdgeState(GridFunction):
    """Node samples of all edge profiles at one instant: a grid function
    with one row per edge, an element of L-infinity([0, 1]; l1)."""

    # bound here, not inherited, so that wrapping either class's hook (as
    # the benchmark's tracer does) counts edge states apart from grid functions
    __post_init__ = GridFunction.__post_init__

    def _check_values(self, v: np.ndarray) -> None:
        if v.ndim != 2 or v.shape[1] != self.grid.n_cells + 1:
            raise ValidationError(
                f"edge values must have shape (n_edges, {self.grid.n_cells + 1})")
        if not np.all(np.isfinite(v)):
            raise ValidationError("edge values must be finite")

    @property
    def n_edges(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        """Sup over x of the l1 norm across edges (the natural state norm)."""
        return float(np.max(np.sum(np.abs(self.values), axis=0)))


def total_mass(state: EdgeState) -> float:
    """Sum of the trapezoid masses of all edge profiles."""
    return float(np.sum(np.trapezoid(state.values, dx=state.grid.h, axis=1)))


def initial_state(net: Network, profile=None) -> EdgeState:
    """Build an initial state.  ``profile`` may be None (squared-sine profile
    on edge 0, zero elsewhere), a list of per-edge constants, or a list of
    per-edge node arrays."""
    n, nn = net.n_edges, net.grid.n_cells + 1
    vals = np.zeros((n, nn))
    if profile is None:
        vals[0] = np.sin(np.pi * net.grid.nodes) ** 2
    else:
        try:
            rows = [np.asarray(entry, dtype=np.float64) for entry in profile]
        except TypeError as exc:
            raise ValidationError(f"initial data must be numbers: {exc}") from exc
        if len(rows) != n:
            raise ValidationError("initial data needs one entry per edge")
        for j, arr in enumerate(rows):
            vals[j] = arr if arr.ndim else np.full(nn, float(arr))
    return EdgeState(net.grid, vals)


def _check_state(net: Network, state: EdgeState) -> None:
    """Reject a state that does not live on ``net``: its edge count, node
    count and grid must all be the network's."""
    expected = (net.n_edges, net.grid.n_cells + 1)
    if state.values.shape != expected or state.grid != net.grid:
        raise ValidationError(
            f"state does not match the network: shape {state.values.shape} on "
            f"{state.grid}, expected {expected} on {net.grid}")


def characteristics_orbit(net: Network, state: EdgeState,
                          times: Sequence[float]) -> Iterator[np.ndarray]:
    """Yield the exact flow of ``state`` at ``times`` in blocks of node
    values, shape (block, n_edges, n_cells + 1), in the order of ``times``.

    When the speeds and times fit one time grid (``common_step``: some dt
    divides every h/c_k and every time), ``history_transport`` builds the
    head-value history once and reads every block from it, at a cost linear
    in t.  It takes the initial-data side on a jump line, and raises
    ``FrontierLimitError`` naming the largest time if the history would
    hold more than ``FRONTIER_LIMIT`` values.

    Otherwise each block is traced in one ``trace_transport`` call.  A block
    whose frontier goes over ``FRONTIER_LIMIT`` is traced again one time per
    call, the largest time first.  The entry count grows with t, so if any
    time is over the limit on its own, so is the call's largest, and the
    ``FrontierLimitError`` names that time (with the failing time's count
    as a lower bound when that is a smaller time).  An orbit takes one path
    for all its times, so a row of an orbit that traces may differ from the
    history's value for its time alone, within rounding (or by the jump on
    a jump line).
    """
    _check_state(net, state)
    blocks = list(time_blocks(times, state.values.size))
    args = (state.values, net.coupling, net.velocities, net.absorption_integral,
            net.grid.h)
    dt = common_step(net.grid.h, net.velocities, times)
    if dt is not None:
        yield from history_transport(*args, blocks, dt)
        return
    c_max = float(np.max(net.velocities))
    for block in blocks:
        # vertex crossings per traced point are capped at ceil(t c_max) + 2
        # for the block's largest t, which covers every time in the block
        cap = int(math.ceil(float(np.max(block)) * c_max)) + 2
        try:
            values = _trace_block(args, block, cap)
        except FrontierLimitError as exc:
            t_call = max(float(np.max(b)) for b in blocks)
            if float(np.max(block)) == t_call:
                raise
            raise frontier_error(t_call, exc.entries, exact=False) from None
        yield values


def _trace_block(args: tuple, block: np.ndarray, cap: int) -> np.ndarray:
    """Trace one block of times in one call or, over the frontier limit,
    one time per call, the largest time first."""
    try:
        return trace_transport(*args, block, cap)
    except FrontierLimitError:
        if block.size == 1:
            raise
        values = np.empty(block.shape + args[0].shape)
        for k in np.argsort(block)[::-1]:
            values[k] = trace_transport(*args, block[k:k + 1], cap)[0]
        return values


def step_characteristics(net: Network, state: EdgeState, t: float) -> EdgeState:
    """Evolve the state by time t exactly, backtracking characteristics
    through the vertex coupling: the one-time case of
    ``characteristics_orbit``."""
    return EdgeState(net.grid, next(characteristics_orbit(net, state, [t]))[0])


def network_semigroup(net: Network) -> Semigroup:
    """The transport flow as a semigroup acting on edge states."""
    return orbit_semigroup("network_transport",
                           lambda times, st: characteristics_orbit(net, st, times))


def simulate_flow(net: Network, state: EdgeState, t_final: float, solver: str,
                  cfl: float = 0.9, n_outputs: int = 11
                  ) -> tuple[np.ndarray, list[EdgeState]]:
    """Evolve ``state`` to a ladder of output times.

    The characteristics solver evaluates the exact flow from the given state
    along the orbit of all output times, in blocks of times
    (``characteristics_orbit``); the upwind solver marches with a uniform
    step chosen so every output time is a step multiple and the CFL target
    is respected.
    """
    if not 0 < t_final < math.inf:
        raise ValueError(f"final time must be positive and finite, got {t_final!r}")
    _check_state(net, state)
    if n_outputs < 2:
        raise ValueError("need at least two output times")
    n_values = net.n_edges * (net.grid.n_cells + 1)
    if n_outputs * n_values > _kernels.FRONTIER_LIMIT:
        raise ValueError(
            f"{n_outputs} output times of {n_values} values each exceed the "
            f"limit of {_kernels.FRONTIER_LIMIT} stored values; request fewer outputs")
    if solver == "upwind":
        if not 0 < cfl <= 1.0:
            raise ValueError("CFL target must lie in (0, 1]")
        seg = t_final / (n_outputs - 1)
        dt_max = cfl * net.grid.h / float(np.max(net.velocities))
        k_steps = max(1, int(math.ceil(seg / dt_max - 1e-9)))
        cell_steps = (n_outputs - 1) * k_steps * n_values
        if cell_steps > UPWIND_CELL_STEP_LIMIT:
            raise ValueError(
                f"the upwind march would take {cell_steps} cell-steps, more than "
                f"the limit of {UPWIND_CELL_STEP_LIMIT}; shorten t or coarsen "
                "the grid")
    elif solver != "characteristics":
        raise ValueError(f"unknown solver '{solver}' (characteristics or upwind)")
    times = np.linspace(0.0, t_final, n_outputs)
    if solver == "characteristics":
        return times, [EdgeState(net.grid, values) for block in
                       characteristics_orbit(net, state, times) for values in block]
    # k_steps rounds seg / dt_max up, less a 1e-9 slack for rounding, so
    # max(nu) <= cfl (1 + 1e-9) <= 1 + 1e-9: no CFL check is needed here
    dt = seg / k_steps
    nu = net.velocities * dt / net.grid.h
    dtq = dt * net.absorption
    states = [EdgeState(net.grid, state.values)]
    vals = state.values
    for _ in range(1, n_outputs):
        vals = upwind_sweep(vals, net.coupling, nu, dtq, k_steps)
        states.append(EdgeState(net.grid, vals))
    return times, states


def defect_budget(net: Network, lam: float, f_values: np.ndarray,
                  g_values: np.ndarray) -> float:
    """Tolerance for the finite-difference consistency defect of a resolvent
    solution.

    The defect of an exact solution comes entirely from differentiating it
    numerically, so the budget is calibrated from the solution's own discrete
    third differences (which also pick up the curvature inherited from the
    data), plus a roundoff floor.  A genuinely wrong solution overshoots this
    by orders of magnitude because its defect scales with the solution itself
    rather than with h^2.
    """
    h = net.grid.h
    c_max = float(np.max(net.velocities))
    q_max = float(np.max(np.abs(net.absorption)))
    d3 = np.abs(np.diff(f_values, n=3, axis=1))
    t3 = float(np.max(d3)) / h ** 3 if d3.size else 0.0
    scale = max(1.0, float(np.max(np.abs(f_values))),
                float(np.max(np.abs(g_values))))
    roundoff = 100.0 * np.finfo(float).eps * (lam + q_max + c_max / h) * scale
    return float(4.0 * h * h * c_max * t3 + roundoff)


def _breakdown(lam: float, what: str) -> RuntimeError:
    return RuntimeError(f"network resolvent breaks down at lambda {lam!r}: {what}")


def network_resolvent(net: Network, lam: float, g: EdgeState) -> EdgeState:
    """Solve (lambda - A) f = g with (A f)_j = c_j f_j' + q_j f_j and the
    vertex boundary condition f(1) = net.coupling f(0).

    Each edge is integrated backward from the tail with the panel-exact
    damped quadrature (all factors decay for lambda above the absorption),
    and the head values solve the coupled system

        (I - diag(nu) Bc) f(0) = r,   nu_j = exp(-(lambda - qbar_j) / c_j),

    the well-scaled equivalent of the tail-side coupling system.  Of the
    three rate shapes that ``damped_cumulative_integral`` takes, the scalar
    one serves the interval operators.  Here the edges pass one rate per
    row, shape (E, 1), when the panel rates of every edge are equal (the
    absorption is constant along each edge), and their per-panel rates,
    shape (E, n), otherwise.  A solve that breaks down raises ``RuntimeError`` naming what
    broke: a singular coupling system, a non-finite solution, a boundary
    residual over 1e-9 or a consistency defect over the scheme budget (a
    nan residual is over).  Overflow and invalid values in the arithmetic
    raise no numpy warning: the finiteness check reports them.
    """
    return _network_resolvents(net, lam, [g])[0][0]


def _network_resolvents(net: Network, lam: float, gs: Sequence[EdgeState]
                        ) -> list[tuple[EdgeState, float]]:
    """``network_resolvent`` for each state of ``gs`` at one lambda: each
    solution, in the order of ``gs``, with its ``defect_budget``.

    The rates, the decay factors and the coupling system are built once,
    and one damped-integral call integrates all S E edge rows of the S
    states.  The coupling solve and the checks then run state by state, in
    order, so the first breakdown raises as a one-state call would.  The
    "not strictly damped" warning depends on lambda alone: it is given once
    per call, attributed to the caller's caller.
    """
    lam = check_lambda(lam)
    for g in gs:
        _check_state(net, g)
    h = net.grid.h
    n = net.grid.n_cells
    c = net.velocities
    q = net.absorption
    bc = net.coupling
    n_edges = net.n_edges

    with np.errstate(over="ignore", invalid="ignore"):
        rates = (lam - 0.5 * (q[:, :-1] + q[:, 1:])) / c[:, None]  # per panel
        zsum = np.zeros((n_edges, n + 1))
        zsum[:, :-1] = np.cumsum((rates * h)[:, ::-1], axis=1)[:, ::-1]
        suffix = np.exp(-zsum)  # exp(phi(x) - phi(1)) <= 1 for lam > q
        nu = suffix[:, 0]
        mu_min = float(np.min(1.0 / nu))
        col_norm = float(np.max(np.sum(np.abs(bc), axis=0)))
        if mu_min <= col_norm:
            # the Neumann series no longer guarantees that the system is
            # invertible; the solves below are direct either way
            warnings.warn(
                "vertex coupling is not strictly damped (min exp growth factor "
                f"{mu_min!r} <= coupling column norm {col_norm!r}); attempting a "
                "direct solve; increase lambda for a guaranteed solve",
                RuntimeWarning, stacklevel=3)
        system = np.eye(n_edges) - nu[:, None] * bc
        # int_x^1 exp-damped g, every edge of every state integrated from
        # the tail at once
        row_rates = (rates[:, :1] if np.all(rates == rates[:, :1])
                     else rates[:, ::-1])
        stack = np.stack([g.values[:, ::-1] for g in gs]).reshape(-1, n + 1)
        stack = damped_cumulative_integral(stack, h, np.tile(row_rates, (len(gs), 1)))
        backward = stack.reshape(len(gs), n_edges, n + 1)[..., ::-1]

    solved = []
    for g, back in zip(gs, backward):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                f0 = np.linalg.solve(system, back[:, 0] / c)
            except np.linalg.LinAlgError:
                raise _breakdown(lam, "the vertex coupling system is singular") from None
            f = suffix * (bc @ f0)[:, None] + back / c[:, None]
            if not np.all(np.isfinite(f)):
                raise _breakdown(lam, "the solution is not finite")
        bc_residual = float(np.max(np.abs(f[:, -1] - bc @ f[:, 0])))
        if not bc_residual <= 1e-9:
            raise _breakdown(lam, f"boundary condition residual {bc_residual!r} exceeds 1e-9")
        fstate = EdgeState(net.grid, f)
        worst = resolvent_defect_norm(net, lam, g, fstate)
        tol = defect_budget(net, lam, f, g.values)
        if not worst <= tol:
            raise _breakdown(lam, f"resolvent consistency defect {worst!r} exceeds the "
                             f"scheme budget {tol!r}")
        solved.append((fstate, tol))
    return solved


def resolvent_defect_norm(net: Network, lam: float, g: EdgeState,
                          f: EdgeState) -> float:
    """Sup of |lambda f - A f - g| over all edges and nodes."""
    dfdx = np.gradient(f.values, net.grid.h, axis=1, edge_order=2)
    defect = lam * f.values - (net.velocities[:, None] * dfdx
                               + net.absorption * f.values) - g.values
    return float(np.max(np.abs(defect)))


def supnorm_l1_weighted(state: EdgeState, weights: np.ndarray) -> float:
    """Max over grid nodes of the weighted l1 vertex sum of edge values.

    With the edge velocities as weights this is the norm in which the vertex
    redistribution never amplifies: the velocity vector is a left fixed
    vector of the velocity-adjusted coupling matrix, so its weighted column
    sums are exactly 1.  The plain l1 sum can grow at a vertex by a velocity
    ratio, so contraction statements for mixed-velocity networks are made in
    this weighted norm.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (state.values.shape[0],):
        raise ValidationError("need one weight per edge")
    return float(np.max(np.sum(w[:, None] * np.abs(state.values), axis=0)))


def sample_states(net: Network, count: int, seed: int) -> list[tuple[str, EdgeState]]:
    """Seeded library states: independent smooth samples on every edge."""
    out = []
    for k in range(count):
        rows = sample_functions(net.grid, net.n_edges, seed + 1000 * k)
        vals = np.stack([f.values for _, f in rows])
        out.append((f"state:seed={seed}:k={k}", EdgeState(net.grid, vals)))
    return out


def network_generation_verdict(net: Network, lambdas: Sequence[float],
                               n_samples: int = 5, seed: int = 0) -> CheckReport:
    """Generation verdict for the transport operator on the network.

    Three legs: resolvent contraction in the velocity-weighted sup-l1 norm
    (the dissipativity consequence in this setting; the velocity weighting
    is what makes the vertex redistribution non-expansive), the fixed-vector
    identity of the adjoint coupling (the vertex-level pairing identity)
    within 1e-12 max(1, max c), and the surjectivity probe, whose defect and
    boundary-condition residuals ``network_resolvent`` enforces by raising
    ``RuntimeError``.  Positive absorption values shift the contraction
    bound: (lambda - max(0, sup q)) replaces lambda, and lambda values at or
    below the shift are skipped for that leg.  At least one sample and one
    lambda are required.
    """
    if n_samples < 1:
        raise ValueError("the network verdict needs at least one sample")
    lambdas = check_lambdas(lambdas)
    contraction_wit = []
    states = sample_states(net, n_samples, seed)
    shift = max(0.0, float(np.max(net.absorption)))
    range_tol = 0.0
    for lam in lambdas:
        solved = _network_resolvents(net, lam, [g for _, g in states])
        for (sid, gstate), (fstate, budget) in zip(states, solved):
            if lam > shift:
                lhs = (lam - shift) * supnorm_l1_weighted(fstate, net.velocities)
                rhs = supnorm_l1_weighted(gstate, net.velocities)
                if lhs > rhs * (1.0 + 1e-6):
                    contraction_wit.append(Witness(sid, lam, None, lhs, rhs))
            # the solve has enforced both range residuals, the defect within
            # this budget and the boundary condition within 1e-9, by raising
            # (a breakdown exits 2 from the CLI), so the leg has no witnesses
            range_tol = max(range_tol, budget)
    # the residual c_j |sum_i B_ij - 1| has the units of a velocity, and
    # build_adjacency admits column sums within 1e-12 of 1
    identity_wit = []
    fixed_res = velocity_fixed_vector_residual(net)
    fixed_tol = 1e-12 * max(1.0, float(np.max(net.velocities)))
    if fixed_res > fixed_tol:
        identity_wit.append(Witness("velocity_fixed_vector", None, None,
                                    fixed_res, fixed_tol))
    sub = [
        CheckReport("network_resolvent_contraction",
                    {"lambdas": lambdas, "n_samples": n_samples,
                     "seed": seed}, 1e-6, contraction_wit),
        CheckReport("adjoint_fixed_vector",
                    {"n_edges": net.n_edges}, fixed_tol, identity_wit),
        CheckReport("network_range_probe",
                    {"lambdas": lambdas, "n_samples": n_samples},
                    range_tol, []),
    ]
    return CheckReport("lumer_phillips_network",
                       {"n_edges": net.n_edges, "n_vertices": net.n_vertices,
                        "lambdas": lambdas},
                       1e-6, [], sub)


def random_flow_network(n_edges: int, seed: int, n_cells: int = 50,
                        velocity_range: tuple[float, float] = (0.5, 4.0)) -> Network:
    """Seeded random network: a directed ring (so every vertex can pass the
    flow on) plus random chords, random normalized redistribution weights,
    and velocities drawn from ``velocity_range``."""
    if n_edges < 2:
        raise ValueError("need at least two edges")
    rng = np.random.default_rng(seed)
    n_vertices = int(rng.integers(2, n_edges + 1))
    edges = [(v, (v + 1) % n_vertices) for v in range(n_vertices)]
    for _ in range(n_edges - n_vertices):
        a = int(rng.integers(0, n_vertices))
        b = int(rng.integers(0, n_vertices - 1))
        if b >= a:
            b += 1
        edges.append((a, b))
    out_edges = _out_edges([tail for tail, _ in edges])
    weights = []
    for j, (_, head) in enumerate(edges):
        raw = rng.uniform(0.5, 1.5, len(out_edges[head]))
        raw /= raw.sum()
        weights.extend((i, j, float(w)) for i, w in zip(out_edges[head], raw))
    velocities = rng.uniform(velocity_range[0], velocity_range[1], n_edges)
    return make_network(n_vertices, edges, velocities, weights, None, n_cells)


def load_network(source) -> Network:
    """Load a network description from a JSON file path or a parsed dict.

    Schema: {"vertices": int, "edges": [{"tail": int, "head": int}, ...],
    "weights": [{"into_edge": int, "from_edge": int, "w": float}, ...],
    "velocities": [float, ...], "absorption": [float, ...] or nested lists,
    "grid": {"n_cells": int}}.  Weights may be omitted when every vertex
    splits its outflow evenly.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source) as fh:
            doc = json.load(fh)
    try:
        n_vertices = int(doc["vertices"])
        edges = [(int(e["tail"]), int(e["head"])) for e in doc["edges"]]
    except KeyError as exc:
        raise ValidationError(f"network config is missing field: {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"network config field has the wrong type: {exc}") from exc
    weights = None
    if "weights" in doc and doc["weights"] is not None:
        try:
            weights = [(int(w["into_edge"]), int(w["from_edge"]), float(w["w"]))
                       for w in doc["weights"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"weight entries need into_edge, from_edge, w: {exc}") from exc
    try:
        velocities = ([1.0] * len(edges) if doc.get("velocities") is None
                      else [float(v) for v in doc["velocities"]])
        n_cells = int(doc.get("grid", {}).get("n_cells", 100))
        absorption = doc.get("absorption")
        if absorption is not None:
            absorption = np.asarray(absorption, dtype=np.float64)
    except (TypeError, AttributeError) as exc:
        raise ValidationError(
            f"malformed velocities, grid or absorption: {exc}") from exc
    if len(edges) > DOCUMENT_EDGE_LIMIT:
        raise ValidationError(
            f"network document has {len(edges)} edges, more than the limit of "
            f"{DOCUMENT_EDGE_LIMIT}")
    n_values = len(edges) * (n_cells + 1)
    if n_values > DOCUMENT_VALUE_LIMIT:
        raise ValidationError(
            f"network document asks for {n_values} node values ({len(edges)} edges "
            f"of {n_cells + 1} nodes), more than the limit of {DOCUMENT_VALUE_LIMIT}")
    return make_network(n_vertices, edges, velocities, weights, absorption, n_cells)
