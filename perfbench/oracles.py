"""Reference values for the benchmark's oracles.

Nothing here reads a value the program under test computed for the same
op.  Each check is either a closed form, an analytic bound evaluated on
the op's input, or an independent solver written in this file.  A check
returns the pair (error, tolerance); an op passes when every error is
within its tolerance.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps


class OracleMismatch(Exception):
    """An op returned a value that its oracle rejects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleMismatch(message)


def within(error: float, tol: float, what: str) -> tuple[float, float]:
    error = float(error)
    if not (math.isfinite(error) and error <= tol):
        raise OracleMismatch(f"{what}: error {error!r} exceeds tolerance {tol!r}")
    return error, tol


# ---------------------------------------------------------------------------
# interval operators


def bump_values(x: np.ndarray, center: float, width: float) -> np.ndarray:
    """cos^2 bump of unit height supported on [center -+ width/2]."""
    r = (x - center) / (width / 2.0)
    return np.where(np.abs(r) < 1.0, np.cos(0.5 * np.pi * r) ** 2, 0.0)


def bump_second_derivative_sup(width: float) -> float:
    """sup |f''| of the unit cos^2 bump: (pi^2 / 2) (2 / width)^2."""
    return 2.0 * math.pi ** 2 / width ** 2


def euler_tolerance(t: float, m: int, f2_sup: float, h: float) -> float:
    """Bound on ||T(t) f - ((m/t) R(m/t))^m f||.

    The first term is the Euler estimate t^2 ||A^2 f|| / (2m) for a
    contraction semigroup.  The second adds the linear-interpolation defect
    h^2 ||f''|| / 8 of each of the m resolvent steps and of the exact
    shift: every step resolves the piecewise-linear interpolant of the
    previous iterate, and lambda R(lambda) is a contraction that commutes
    with d^2/dx^2, so the defects add without amplification.
    """
    return t * t * f2_sup / (2.0 * m) + (m + 1) * h * h * f2_sup / 8.0


def ramp_resolvent_peak(lam: float, n: int) -> float:
    """p_1 of R(lam) applied to the plateau ramp of index n (n >= 1).

    Left of -n the ramp is 1 up to -(n+1) and falls linearly to 0 at -n, so
    for x >= -n the half-line resolvent is K exp(-lam (x + n)) with
    K = (1 - exp(-lam)) / lam^2; on [-1, 0] its maximum sits at x = -1.
    """
    k = (1.0 - math.exp(-lam)) / lam ** 2
    return k * math.exp(-lam * (n - 1))


def laplace_quadrature_bound(lam: float, ds: float, g: np.ndarray, h: float) -> float:
    """Trapezoid error bound for int exp(-lam s) T(s) g ds on a translation orbit.

    T(s) g is the piecewise-linear interpolant of g shifted by s, so the
    integrand's time derivative has bounded variation; the Peano kernel of
    the trapezoid rule gives |error| <= ds^2 / 8 * TV(phi').  With phi(s) =
    exp(-lam s) G(s) that variation is at most lam ||g|| + 2 ||g'|| + TV(g').
    """
    slopes = np.diff(g) / h
    tv_slope = float(np.sum(np.abs(np.diff(slopes)))) + abs(slopes[0]) + abs(slopes[-1])
    return ds * ds / 8.0 * (lam * float(np.max(np.abs(g)))
                            + 2.0 * float(np.max(np.abs(slopes))) + tv_slope)


def stencil_roundoff(values_sup: float, h: float) -> float:
    """Rounding bound of the second-difference stencils on data of size
    ``values_sup``: coefficient mass 320/12 of the widest end stencil, with
    a factor 100 on the unit roundoff."""
    return 100.0 * (320.0 / 12.0) * EPS * values_sup / (h * h)


# ---------------------------------------------------------------------------
# transport on metric graphs


def reference_transport(values: np.ndarray, coupling: np.ndarray, c: np.ndarray,
                        h: float, t: float) -> np.ndarray:
    """Exact transport without absorption, independent of the program's tracer.

    Every node is traced backward in one vectorized frontier: a point that
    reaches its edge's tail within the remaining time is split over the
    feeding edges with the coupling weights and continues from their heads.
    The value at the foot of each path is the linear interpolant of the data.
    """
    n_edges, n_nodes = values.shape
    n = n_nodes - 1
    rows, cols = np.nonzero(coupling)
    children_start = np.searchsorted(rows, np.arange(n_edges + 1))
    origin = np.arange(n_edges * n_nodes)
    edge = np.repeat(np.arange(n_edges), n_nodes)
    pos = np.tile(np.arange(n_nodes) * h, n_edges)
    trem = np.full(origin.shape, float(t))
    weight = np.ones(origin.shape)
    out = np.zeros(n_edges * n_nodes)
    while origin.size:
        to_tail = (1.0 - pos) / c[edge]
        done = trem <= to_tail
        foot = np.minimum(pos[done] + c[edge[done]] * trem[done], 1.0)
        idx = np.clip((foot / h).astype(np.int64), 0, n - 1)
        frac = np.clip(foot / h - idx, 0.0, 1.0)
        e = edge[done]
        val = (1.0 - frac) * values[e, idx] + frac * values[e, idx + 1]
        np.add.at(out, origin[done], weight[done] * val)
        go = ~done
        e = edge[go]
        counts = children_start[e + 1] - children_start[e]
        first = np.repeat(children_start[e], counts)
        offset = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
        child = first + offset
        origin = np.repeat(origin[go], counts)
        trem = np.repeat(trem[go] - to_tail[go], counts)
        weight = np.repeat(weight[go], counts) * coupling[rows[child], cols[child]]
        edge = cols[child]
        pos = np.zeros(edge.shape)
    return out.reshape(n_edges, n_nodes)


def cycle_variation(values: np.ndarray) -> float:
    """Total variation of a two-cycle's edge profiles read around the cycle,
    including both vertex jumps (edge 0's tail feeds from edge 1's head and
    the reverse)."""
    v0, v1 = values
    inner = float(np.sum(np.abs(np.diff(v0))) + np.sum(np.abs(np.diff(v1))))
    return inner + abs(v0[-1] - v1[0]) + abs(v1[-1] - v0[0])


def cycle_laplace_bound(lam: float, horizon: float, ds: float, g: np.ndarray,
                        period: float) -> float:
    """Tail plus quadrature bound for the truncated Laplace transform of a
    conservative unit-speed cycle flow.

    At a fixed point the orbit is periodic in time and its variation per
    period is the cyclic variation of g, so exp(-lam s) u(s) has variation
    at most ||g|| + TV_cycle / (1 - exp(-lam period)).  The trapezoid rule
    misses a function of bounded variation by at most ds / 2 times that
    variation; the tail beyond the horizon is at most exp(-lam H) ||g|| / lam.
    """
    sup = float(np.max(np.abs(g)))
    variation = sup + cycle_variation(g) / (1.0 - math.exp(-lam * period))
    return 0.5 * ds * variation + math.exp(-lam * horizon) * sup / lam


def trapezoid_orbit(states: list[np.ndarray], lam: float, ds: float) -> np.ndarray:
    """Trapezoid sum of exp(-lam s_k) u(s_k) over uniformly spaced orbit samples."""
    steps = len(states) - 1
    acc = np.zeros_like(states[0])
    for k, u in enumerate(states):
        w = 0.5 if k in (0, steps) else 1.0
        acc = acc + u * (w * math.exp(-lam * k * ds))
    return acc * ds


def left_mass(values: np.ndarray, h: float) -> float:
    """Left-endpoint mass h * sum_{i < n} u_i over all edges.

    The upwind march conserves it exactly when q = 0 and the initial data
    meet the coupling (both ends zero): each step moves c_j dt (u_j(1) -
    u_j(0)) across edge j, and the velocity-weighted coupling returns
    sum_j c_j u_j(0) to the tails.
    """
    return float(h * np.sum(values[:, :-1]))


def upwind_error_bound(t: float, h: float, c: np.ndarray, f2_weighted: float) -> float:
    """L1 (left-endpoint) bound on upwind minus exact transport at time t.

    The coupled upwind step is a contraction in that norm, and its local
    truncation error is at most c_j h |u_j''| per node.  Along the exact flow
    sum_j c_j^2 int |u_j''| never grows (a profile entering edge j from edge
    k is scaled by B_jk c_k / c_j and compressed by c_k / c_j), so the error
    after time t is at most t h sum_j c_j^2 int |f_j''| / min(c); a factor 2
    covers the cell-wise sup against the integral.
    """
    return 2.0 * t * h * f2_weighted / float(np.min(c))


def network_mass_identity(f: np.ndarray, g: np.ndarray, lam: float,
                          q: np.ndarray, c: np.ndarray, h: float) -> tuple[float, float]:
    """Residual and tolerance of sum_j int (lam - q_j) f_j - g_j = 0 for f = R(lam) g.

    The identity holds because int c_j f_j' = c_j (f_j(1) - f_j(0)) and the
    velocity vector is a left fixed vector of the weighted coupling.  It is
    evaluated with the trapezoid rule, exact on the piecewise-linear g.  On
    f, smooth inside each panel, the rule misses -h^3/12 sum_i f''(xi_i),
    which differs from the Euler-Maclaurin term -h^2/12 (f'(1) - f'(0)) by
    at most h^3/12 TV(f'').  The equation gives f' = ((lam - q) f - g) / c
    at the ends and bounds the variations:

        TV(f)   <= ((lam - q) int|f| + int|g|) / c
        TV(f')  <= ((lam - q) TV(f) + TV(g)) / c
        TV(f'') <= ((lam - q) TV(f') + TV(g')) / c

    The tolerance is twice the sum of both terms plus a rounding floor, so
    an accurate solve sits near half of it.
    """
    lam_q = lam - q  # per edge, q constant along each edge
    resid = float(np.sum(lam_q * np.trapezoid(f, dx=h, axis=1))
                  - np.sum(np.trapezoid(g, dx=h, axis=1)))
    d1 = (lam_q[:, None] * f[:, [0, -1]] - g[:, [0, -1]]) / c[:, None]
    leading = float(np.sum(lam_q * h * h / 12.0 * (d1[:, 1] - d1[:, 0])))
    slopes = np.diff(g, axis=1) / h
    tv_f = (lam_q * np.trapezoid(np.abs(f), dx=h, axis=1)
            + np.trapezoid(np.abs(g), dx=h, axis=1)) / c
    tv_f1 = (lam_q * tv_f + np.sum(np.abs(np.diff(g, axis=1)), axis=1)) / c
    tv_f2 = (lam_q * tv_f1 + np.sum(np.abs(np.diff(slopes, axis=1)), axis=1)) / c
    remainder = float(np.sum(lam_q * h ** 3 / 12.0 * tv_f2))
    roundoff = 1e3 * EPS * float(np.sum(lam_q * np.max(np.abs(f), axis=1)
                                        + np.max(np.abs(g), axis=1)))
    return abs(resid), 2.0 * (abs(leading) + remainder) + roundoff
