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
from .grid import (Grid, GridFunction, check_integer, check_lambda, check_lambdas,
                   check_orbit_sum, check_times)
from .samples import sample_functions
from .semigroups import Semigroup


# Most cell-steps (edge nodes times time steps) one ``simulate_flow`` upwind
# march may take.  On a 2-core Xeon with numpy 2.4 a cell-step of the
# node-major march with full-array weights (best of 5 marches of 2e7
# cell-steps, sample data, best of 3 runs) costs 1.0 ns with 64 edges of
# 401 nodes, 2.6 ns with 2 edges of 401 nodes and 4.2 ns with 8 edges of 51
# nodes (per-step overhead dominates small states; the march that broadcast
# an (E,) nu took 1.2, 6.2 and 7.1 ns), so this keeps a march under about
# 0.3-1.1 s.  The default CLI march takes 1.4e6.
UPWIND_CELL_STEP_LIMIT = 2 ** 28

# Most state values in one block of times of ``characteristics_orbit``.
ORBIT_BLOCK_VALUES = 2 ** 12

# Most node values in one group of states of ``_network_resolvents``, at
# E (n + 1) values a state and at least one state a group, and in one block
# of columns of ``supnorm_l1_weighted``.  At 400 cells 2 samples of 8-32
# edges are one group, 2 of 64 edges two groups and the two-cycle's 5 one;
# at 2^21 node values each state is a group of its own.  On 2 cores,
# graph-verdict's median op takes 3.37 ms with these groups and 4.00 ms
# with one state a group (faster in 4 of 4 alternating pairs of 8 s runs,
# peak RSS within 0.2 MB): small states pay numpy's per-call cost once a
# group, not once a state.
GROUP_VALUES = 2 ** 15

# Largest network a JSON document may describe, checked before anything is
# allocated.  On 2 cores, ``check --network`` at its 3 default lambdas takes
# 0.6 s and 68 MB on a ring of 1024 edges of 10 cells (its verdict 2.9-3.6 s
# at 2048 edges: the E x E coupling solves grow like E^3), and 4.3-5.0 s and
# 253 MB on the two-cycle at 2^21 node values.
# ``make_network`` stays unbounded: its callers are code, not documents.
DOCUMENT_EDGE_LIMIT = 2 ** 10
DOCUMENT_VALUE_LIMIT = 2 ** 21

# Library states of ``network_generation_verdict`` unless a caller sets them;
# ``check --network`` bounds its work by this count.
VERDICT_SAMPLES = 5


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
        # finite absorption near the float limit can still overflow its sums
        with np.errstate(over="ignore", invalid="ignore"):
            qc[:, 1:] = np.cumsum(0.5 * self.grid.h * (q[:, :-1] + q[:, 1:]), axis=1)
        overflow = ~np.isfinite(qc[:, -1])
        if np.any(overflow):
            raise ValidationError(
                f"the absorption integral of edge {int(np.argmax(overflow))} "
                "overflows; absorption values must be smaller")
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
    q = np.asarray(0.0 if absorption is None else absorption, dtype=np.float64)
    if q.ndim == 1 and q.shape != (n_edges,):
        raise ValidationError("per-edge absorption needs one constant per edge")
    if q.ndim < 2:  # one constant for all edges, or one per edge
        q = np.broadcast_to(q.reshape(-1, 1), (n_edges, n_cells + 1))
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

    def norm(self) -> float:
        """Sup over x of the l1 norm across edges (the natural state norm)."""
        return float(np.max(np.sum(np.abs(self.values), axis=0)))


def total_mass(state: EdgeState) -> float:
    """Sum of the trapezoid masses of all edge profiles."""
    return float(np.sum(np.trapezoid(state.values, dx=state.grid.h, axis=1)))


def initial_state(net: Network, profile=None) -> EdgeState:
    """Build an initial state.  ``profile`` may be None (squared-sine profile
    on edge 0, zero elsewhere) or one entry per edge, each a number (a
    constant profile) or a row of n_cells + 1 node values."""
    n, nn = net.n_edges, net.grid.n_cells + 1
    vals = np.zeros((n, nn))
    if profile is None:
        vals[0] = np.sin(np.pi * net.grid.nodes) ** 2
        return EdgeState(net.grid, vals)
    try:
        entries = list(profile)
    except TypeError as exc:
        raise ValidationError(f"initial data must be a list: {exc}") from exc
    if len(entries) != n:
        raise ValidationError("initial data needs one entry per edge")
    for j, entry in enumerate(entries):
        try:
            arr = np.asarray(entry)
        except ValueError:  # a ragged row
            arr = None
        if arr is None or arr.dtype.kind not in "iuf" or arr.shape not in ((), (nn,)):
            raise ValidationError(
                f"initial data for edge {j} must be a number or a row of {nn} numbers")
        vals[j] = arr
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
    """Yield the exact flow of ``state`` at each of ``times``, one row of
    node values of shape (n_edges, n_cells + 1) per time, in the order of
    ``times``, taken in blocks of at most ``ORBIT_BLOCK_VALUES`` values
    (at least one time).

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

    The kernels run without numpy's overflow and invalid-value warnings
    (the warning state is set around each kernel call, never across a
    ``yield``): where the absorption's gain passes the float range a row
    holds inf or nan, for the caller to reject (``simulate_flow`` names the
    first such time).
    """
    _check_state(net, state)
    times = check_times(times)
    per = max(1, ORBIT_BLOCK_VALUES // state.values.size)
    blocks = [times[k:k + per] for k in range(0, times.size, per)]
    args = (state.values, net.coupling, net.velocities, net.absorption_integral,
            net.grid.h)
    dt = common_step(net.grid.h, net.velocities, times)
    if dt is not None:
        history = history_transport(*args, blocks, dt)
        for _ in blocks:
            with np.errstate(over="ignore", invalid="ignore"):
                values = next(history)
            yield from values
        return
    c_max = float(np.max(net.velocities))
    for block in blocks:
        # vertex crossings per traced point are capped at ceil(t c_max) + 2
        # for the block's largest t, which covers every time in the block
        cap = int(math.ceil(float(np.max(block)) * c_max)) + 2
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    values = trace_transport(*args, block, cap)
                except FrontierLimitError:
                    if block.size == 1:
                        raise
                    values = np.empty(block.shape + state.values.shape)
                    for k in np.argsort(block)[::-1]:
                        values[k] = trace_transport(*args, block[k:k + 1], cap)[0]
        except FrontierLimitError as exc:
            t_max = float(np.max(times))
            if float(np.max(block)) == t_max:
                raise
            raise frontier_error(t_max, exc.entries, exact=False) from None
        yield from values


def step_characteristics(net: Network, state: EdgeState, t: float) -> EdgeState:
    """Evolve the state by time t exactly, backtracking characteristics
    through the vertex coupling: the one-time case of
    ``characteristics_orbit``."""
    return EdgeState(net.grid, next(characteristics_orbit(net, state, [t])))


def network_semigroup(net: Network) -> Semigroup:
    """The transport flow as a semigroup acting on edge states: ``apply`` is
    ``step_characteristics``, and ``orbit_sum`` sums the rows of
    ``characteristics_orbit`` in time order."""

    def orbit_sum(times, weights, st: EdgeState) -> np.ndarray:
        times, weights = check_orbit_sum(times, weights)
        acc = None
        for c, values in zip(weights, characteristics_orbit(net, st, times)):
            term = values * c
            acc = term if acc is None else acc + term
        return acc

    return Semigroup("network_transport",
                     lambda t, st: step_characteristics(net, st, t), orbit_sum)


def simulate_flow(net: Network, state: EdgeState, t_final: float, solver: str,
                  cfl: float = 0.9, n_outputs: int = 11
                  ) -> tuple[np.ndarray, list[EdgeState]]:
    """Evolve ``state`` to a ladder of output times.

    The characteristics solver evaluates the exact flow from the given state
    at every output time, one row per time along one orbit
    (``characteristics_orbit``); the upwind solver marches with a uniform
    step chosen so every output time is a step multiple and the CFL target
    is respected.  Both run without numpy's overflow and invalid-value
    warnings, and the first output time whose values are not finite (the
    absorption's gain passed the float range) raises one ``ValueError``
    that names it.
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
    if not 0 < cfl <= 1.0:
        raise ValueError(f"CFL target must lie in (0, 1], got {cfl!r}")
    times = np.linspace(0.0, t_final, n_outputs)
    if solver == "characteristics":
        return times, [_output_state(net, t, values, "along the characteristics")
                       for t, values in zip(times, characteristics_orbit(net, state, times))]
    if solver != "upwind":
        raise ValueError(f"unknown solver '{solver}' (characteristics or upwind)")
    seg = t_final / (n_outputs - 1)
    dt_max = cfl * net.grid.h / float(np.max(net.velocities))
    # counted in floats: a tiny CFL target overflows seg / dt_max or
    # underflows dt_max to 0, and refusing the count before int() keeps
    # its digits out of the message
    steps = np.ceil(max(seg / dt_max - 1e-9, 1.0)) if dt_max else math.inf
    cell_steps = (n_outputs - 1) * steps * n_values
    if cell_steps > UPWIND_CELL_STEP_LIMIT:
        raise ValueError(
            f"the upwind march would take {cell_steps:.15g} cell-steps at CFL "
            f"target {cfl!r}, more than the limit of {UPWIND_CELL_STEP_LIMIT}; "
            "shorten t, coarsen the grid or raise the CFL target")
    # the step count rounds seg / dt_max up, less a 1e-9 slack for rounding,
    # so max(nu) <= cfl (1 + 1e-9) <= 1 + 1e-9: no CFL check is needed here
    k_steps = int(steps)
    dt = seg / k_steps
    nu = net.velocities * dt / net.grid.h
    dtq = dt * net.absorption
    states = [EdgeState(net.grid, state.values)]
    vals = state.values
    for t in times[1:]:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = upwind_sweep(vals, net.coupling, nu, dtq, k_steps)
        states.append(_output_state(net, t, vals, "per upwind step"))
    return times, states


def _output_state(net: Network, t: float, values: np.ndarray, where: str) -> EdgeState:
    """The flow's ``values`` at output time ``t`` as an edge state, or a
    ``ValueError`` naming ``t`` when they are not finite.  Their shape is
    the network's, so the edge state's own check fails only on a value that
    is not finite."""
    try:
        return EdgeState(net.grid, values)
    except ValidationError:
        raise ValueError(f"the flow is not finite at t = {float(t)!r}: the absorption's "
                         f"gain {where} passes the float range") from None


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

    The third differences are those of ``np.diff(f_values, n=3, axis=1)``,
    taken in one array: the second and third levels run in place along the
    flattened rows, so the last entries of each row take differences across
    the seam to the next row, which are never read.
    """
    h = net.grid.h
    c_max = float(np.max(net.velocities))
    q_max = _abs_max(net.absorption)
    d = np.subtract(f_values[:, 1:], f_values[:, :-1])
    flat = d.ravel()
    for _ in range(2):
        np.subtract(flat[1:], flat[:-1], out=flat[:-1])
    d3 = np.abs(d[:, :-2], out=d[:, :-2])
    t3 = float(np.max(d3)) / h ** 3 if d3.size else 0.0
    scale = max(1.0, _abs_max(f_values), _abs_max(g_values))
    roundoff = 100.0 * np.finfo(float).eps * (lam + q_max + c_max / h) * scale
    return float(4.0 * h * h * c_max * t3 + roundoff)


def _abs_max(x: np.ndarray) -> float:
    """max |x| without an array of |x|."""
    return float(max(x.max(), -x.min()))


def _breakdown(lam: float, what: str) -> RuntimeError:
    return RuntimeError(f"network resolvent breaks down at lambda {lam!r}: {what}")


def network_resolvent(net: Network, lam: float, g: EdgeState) -> EdgeState:
    """Solve (lambda - A) f = g with (A f)_j = c_j f_j' + q_j f_j and the
    vertex boundary condition f(1) = net.coupling f(0).

    Each edge is integrated backward from the tail with the panel-exact
    damped quadrature (all factors decay for lambda above the absorption),
    and the head values solve the coupled system

        (I - diag(nu) Bc) f(0) = r,   nu_j = exp(-(lambda - qbar_j) / c_j),

    the well-scaled equivalent of the tail-side coupling system.  In the
    norm ||x||_c = sum_j c_j |x_j|, diag(nu) Bc has the norm
    q = max_k sum_j nu_j B_jk; for q < 1 the Neumann series converges and
    the system is invertible, otherwise a ``RuntimeWarning`` says so.  Of the
    three rate shapes that ``damped_cumulative_integral`` takes, the scalar
    one serves the interval operators.  Here the edges pass one rate per
    row, shape (E, 1), when the panel rates of every edge are equal (the
    absorption is constant along each edge), and their per-panel rates,
    shape (E, n), otherwise.  A solve that breaks down raises
    ``RuntimeError`` naming what broke: a singular coupling system, a
    non-finite solution, a boundary residual over 1e-9 or a consistency
    defect over the scheme budget (a nan residual is over).  Overflow and
    invalid values raise no numpy warning: the finiteness check reports them.
    """
    return next(_network_resolvents(net, lam, [g]))[0]


def _group_work(net: Network, count: int) -> np.ndarray:
    """Three rows of one group's node values, for ``_network_resolvents`` to
    compute in, for groups of up to ``count`` states: as many consecutive
    states as fit in ``GROUP_VALUES`` node values, and at least one."""
    state_values = net.n_edges * (net.grid.n_cells + 1)
    return np.empty((3, min(count, max(1, GROUP_VALUES // state_values)) * state_values))


def _network_resolvents(net: Network, lam: float, gs: Sequence[EdgeState],
                        work: Optional[np.ndarray] = None
                        ) -> Iterator[tuple[EdgeState, float]]:
    """``network_resolvent`` of each state of ``gs`` at ``lam``, in the order
    of ``gs``: each solution with its ``defect_budget``, yielded as soon as
    it has passed its checks.

    The rates, the decay factors and the coupling system are built once.
    The states are then taken in groups of consecutive states, as many as
    the three rows of ``work`` hold (``_group_work``, made for ``gs`` when
    not given), so the working set does not grow with their number, and
    every group computes in those rows: one damped-integral call
    integrates the group's edge rows, reversed, and the finiteness and the
    consistency defect are taken on the whole group.  The first row holds
    the reversed rows and then the solutions; the second is the integral's
    scratch and then holds one term at a time; the third takes the
    integral node-major and then the defect.  A caller that solves several
    lambdas passes one ``work`` to all of them.  The coupling solves and
    the checks run state by state, in order, so the first breakdown raises
    as a one-state call would, and each state yielded is a copy.  The "not
    strictly damped" warning (q >= 1) depends on lambda alone: it is given
    once, before the first integral, attributed to the caller's caller.
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
    if work is None:
        work = _group_work(net, len(gs))
    size = max(1, work.shape[1] // (n_edges * (n + 1)))

    with np.errstate(over="ignore", invalid="ignore"):
        rates = (lam - 0.5 * (q[:, :-1] + q[:, 1:])) / c[:, None]
        # exp(phi(x) - phi(1)) <= 1 for lam > q: exp of minus the sums of
        # rates h from each node to the tail, formed in place
        suffix = np.empty((n_edges, n + 1))
        suffix[:, -1] = 0.0
        zsum = suffix[:, -2::-1]  # the panels from the tail
        np.multiply(rates[:, ::-1], h, out=zsum)
        np.cumsum(zsum, axis=1, out=zsum)
        np.exp(np.negative(suffix, out=suffix), out=suffix)
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
        row_rates = (rates[:, :1].copy() if np.all(rates == rates[:, :1])
                     else rates[:, ::-1])
        del rates  # per-row rates keep only their copy

    for start in range(0, len(gs), size):
        group = gs[start:start + size]
        rows = len(group) * n_edges
        stack, scratch, nodes = work[:, :rows * (n + 1)]
        f = stack.reshape(len(group), n_edges, n + 1)
        for fs, g in zip(f, group):
            fs[...] = g.values[:, ::-1]
        with np.errstate(over="ignore", invalid="ignore"):
            # int_x^1 exp-damped g, every edge of the group integrated
            # from the tail at once
            back = damped_cumulative_integral(
                stack.reshape(rows, n + 1), h, np.tile(row_rates, (len(group), 1)),
                out=(scratch.reshape(n + 1, rows), nodes.reshape(n + 1, rows)))
            np.divide(back.reshape(f.shape)[..., ::-1], c[:, None], out=f)
            term = scratch[:n_edges * (n + 1)].reshape(n_edges, n + 1)
            for fs in f:
                try:
                    f0 = np.linalg.solve(system, fs[:, 0])
                except np.linalg.LinAlgError:
                    raise _breakdown(lam, "the vertex coupling system is singular") from None
                fs += np.multiply(suffix, (bc @ f0)[:, None], out=term)
            finite = np.all(np.isfinite(f), axis=(1, 2))
            worst = _defect_sups(net, lam, f, [g.values for g in group],
                                 work[1:, :f.size])
        for g, fs, fs_finite, fs_worst in zip(group, f, finite, worst.tolist()):
            if not fs_finite:
                raise _breakdown(lam, "the solution is not finite")
            bc_residual = float(np.max(np.abs(fs[:, -1] - bc @ fs[:, 0])))
            if not bc_residual <= 1e-9:
                raise _breakdown(lam, f"boundary condition residual {bc_residual!r} "
                                 "exceeds 1e-9")
            tol = defect_budget(net, lam, fs, g.values)
            if not fs_worst <= tol:
                raise _breakdown(lam, f"resolvent consistency defect {fs_worst!r} "
                                 f"exceeds the scheme budget {tol!r}")
            yield EdgeState(net.grid, fs), tol


def resolvent_defect_norm(net: Network, lam: float, g: EdgeState,
                          f: EdgeState) -> float:
    """Sup of |lambda f - A f - g| over all edges and nodes."""
    return float(_defect_sups(net, lam, f.values[None], [g.values])[0])


def _defect_sups(net: Network, lam: float, fs: np.ndarray, gs,
                 work: Optional[np.ndarray] = None) -> np.ndarray:
    """``resolvent_defect_norm`` of each solution of the stack ``fs``, shape
    (S, E, n + 1), against the right-hand side of ``gs`` in the same place.

    It computes in two arrays of the size of ``fs``, the two rows of
    ``work`` when given: the defect in the second, which starts as
    ``np.gradient(fs, h, axis=-1, edge_order=2)``, its stencil written
    there bit for bit, and the terms q f and lambda f in turn in the first.
    """
    h = net.grid.h
    term, defect = (np.empty((2,) + fs.shape) if work is None
                    else work.reshape((2,) + fs.shape))
    np.subtract(fs[..., 2:], fs[..., :-2], out=defect[..., 1:-1])
    defect[..., 1:-1] /= 2.0 * h
    defect[..., 0] = -1.5 / h * fs[..., 0] + 2.0 / h * fs[..., 1] + -0.5 / h * fs[..., 2]
    defect[..., -1] = 0.5 / h * fs[..., -3] + -2.0 / h * fs[..., -2] + 1.5 / h * fs[..., -1]
    defect *= net.velocities[:, None]
    defect += np.multiply(net.absorption, fs, out=term)
    np.subtract(np.multiply(fs, lam, out=term), defect, out=defect)
    for d, g in zip(defect, gs):
        d -= g
    return np.max(np.abs(defect, out=defect), axis=(1, 2))


def supnorm_l1_weighted(state: EdgeState, weights: np.ndarray) -> float:
    """Max over grid nodes of the weighted l1 vertex sum of edge values.

    With the edge velocities as weights a vertex does not amplify: the
    velocity vector is a left fixed vector of the velocity-adjusted coupling
    matrix, so its weighted column sums are exactly 1, where the plain l1 sum
    can grow at a vertex by a velocity ratio.  The flow itself still grows
    in this norm when the speeds differ: on the two-cycle with speeds 1 and
    2 and data 1 on the slow edge, the slow edge keeps its data on [0, 1 - t]
    and the fast one holds half of it on [1 - 2t, 1], and on the overlap the
    weighted sum is 2.  So a contraction in this norm is a theorem only for
    equal speeds.
    """
    w = np.asarray(weights, dtype=float)
    v = state.values
    if w.shape != (v.shape[0],):
        raise ValidationError("need one weight per edge")
    # blocks of columns of at most GROUP_VALUES values, so that no temporary
    # is state-sized; each column sums its edges as over the whole state
    cols = max(1, GROUP_VALUES // v.shape[0])
    sups = []
    for start in range(0, v.shape[1], cols):
        weighted = np.abs(v[:, start:start + cols])
        weighted *= w[:, None]
        sups.append(np.max(np.sum(weighted, axis=0)))
    return float(np.max(sups))


def sample_states(net: Network, count: int, seed: int) -> list[tuple[str, EdgeState]]:
    """Seeded library states: independent smooth samples on every edge."""
    out = []
    for k in range(count):
        rows = sample_functions(net.grid, net.n_edges, seed + 1000 * k)
        out.append((f"state:seed={seed}:k={k}",
                    EdgeState(net.grid, [f.values for _, f in rows])))
    return out


def network_generation_verdict(net: Network, lambdas: Sequence[float],
                               n_samples: int = VERDICT_SAMPLES,
                               seed: int = 0) -> CheckReport:
    """Generation verdict for the transport operator on the network.

    Three legs: resolvent contraction in the velocity-weighted sup-l1 norm
    (the dissipativity consequence in this setting for equal speeds; on
    mixed speeds lambda ||R(lambda) g||_c can exceed ||g||_c, see
    ``supnorm_l1_weighted``, and the leg passes only where the samples miss
    such data), the fixed-vector
    identity of the adjoint coupling (the vertex-level pairing identity)
    within 1e-12 max(1, max c), and the surjectivity probe, whose defect and
    boundary-condition residuals ``network_resolvent`` enforces by raising
    ``RuntimeError``.  Positive absorption values shift the contraction
    bound: (lambda - max(0, sup q)) replaces lambda, and lambda values at or
    below the shift are skipped for that leg.  If every lambda is skipped,
    the leg has checked nothing and fails with one witness
    ``lambda_above_shift`` whose lhs is the shift and whose rhs is the
    largest lambda; it is added after every lambda is solved, so a
    breakdown still raises first.  At least one sample and one lambda are
    required.
    """
    if n_samples < 1:
        raise ValueError("the network verdict needs at least one sample")
    lambdas = check_lambdas(lambdas)
    contraction_wit = []
    ids, gs = zip(*sample_states(net, n_samples, seed))
    g_norms = [supnorm_l1_weighted(g, net.velocities) for g in gs]
    shift = max(0.0, float(np.max(net.absorption)))
    range_tol = 0.0
    work = _group_work(net, n_samples)
    for lam in lambdas:
        solutions = _network_resolvents(net, lam, gs, work=work)
        for sid, rhs in zip(ids, g_norms):
            fstate, budget = next(solutions)
            if lam > shift:
                lhs = (lam - shift) * supnorm_l1_weighted(fstate, net.velocities)
                if lhs > rhs * (1.0 + 1e-6):
                    contraction_wit.append(Witness(sid, lam, None, lhs, rhs))
            # the solve has enforced both range residuals, the defect within
            # this budget and the boundary condition within 1e-9, by raising
            # (a breakdown exits 2 from the CLI), so the leg has no witnesses
            range_tol = max(range_tol, budget)
            del fstate  # not held while the next solution is made
    if max(lambdas) <= shift:
        # no lambda reached the contraction leg, which must not pass unchecked
        contraction_wit.append(Witness("lambda_above_shift", None, None,
                                       shift, max(lambdas)))
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


def _document_integer(value, name: str) -> int:
    """The integer ``value`` of a network document's field ``name``:
    ``ValidationError`` for a number that is not an integer (10.0 is one), a
    string or a boolean, and ``TypeError`` for a value that is no number at all."""
    try:
        return check_integer(_document_number(value, name), -math.inf, "")
    except ValueError:
        raise ValidationError(
            f"network config field {name} must be an integer, got {value!r}") from None


def _document_number(value, name: str):
    """``value`` of a network document's number field ``name``, as given:
    ``ValidationError`` for a string or a boolean, which JSON does not count as
    numbers (``float`` would read "1" and true as 1)."""
    if isinstance(value, (str, bool)):
        raise ValidationError(f"network config field {name} must be a number, got {value!r}")
    return value


def load_network(doc: dict) -> Network:
    """Build a network from a parsed JSON document, which must be an object.

    Schema: {"vertices": int, "edges": [{"tail": int, "head": int}, ...],
    "weights": [{"into_edge": int, "from_edge": int, "w": float}, ...],
    "velocities": [float, ...], "absorption": [float, ...] or nested lists,
    "grid": {"n_cells": int}}.  Weights may be omitted when every vertex
    splits its outflow evenly.  A number is a JSON number, not a string or a
    boolean.
    """
    if not isinstance(doc, dict):
        raise ValidationError("network config must be a JSON object")
    try:
        n_vertices = _document_integer(doc["vertices"], "vertices")
        edges = [(_document_integer(e["tail"], "tail"), _document_integer(e["head"], "head"))
                 for e in doc["edges"]]
    except KeyError as exc:
        raise ValidationError(f"network config is missing field: {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"network config field has the wrong type: {exc}") from exc
    weights = None
    if doc.get("weights") is not None:
        try:
            weights = [(_document_integer(w["into_edge"], "into_edge"),
                        _document_integer(w["from_edge"], "from_edge"),
                        float(_document_number(w["w"], "w")))
                       for w in doc["weights"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"weight entries need into_edge, from_edge, w: {exc}") from exc
    try:
        velocities = ([1.0] * len(edges) if doc.get("velocities") is None else
                      [float(_document_number(v, "velocities")) for v in doc["velocities"]])
        n_cells = _document_integer(doc.get("grid", {}).get("n_cells", 100), "grid.n_cells")
        absorption = doc.get("absorption")
        if absorption is not None:
            for q in np.asarray(absorption, dtype=object).flat:
                _document_number(q, "absorption")
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
