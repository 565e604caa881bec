"""Hot numeric kernels, written with NumPy and SciPy.

Kernels:

``damped_cumulative_integral``
    Cumulative Duhamel integral ``y(x) = int_a^x exp(-int_s^x r) v(s) ds``,
    i.e. the solution of ``y' = -r(x) y + v(x)``, ``y(a) = 0``, for one row
    or a stack of rows at once.  Exact for panel-constant rate and
    piecewise-linear data, which keeps resolvent contraction estimates
    structurally true at any grid resolution.

``upwind_sweep``
    Explicit first-order upwind steps for edge transport toward x = 0 with
    vertex redistribution of the outflow.

``trace_transport``
    Exact evolution of edge transport by backtracking characteristics
    through vertices (one vectorized frontier, weights from the coupling
    matrix).
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

# Most frontier entries one ``trace_transport`` call may create, summed over
# all vertex crossings.  The frontier holds every live path at once, and the
# path count grows exponentially with t on a branching graph.  At about 100
# bytes per entry of the largest level this keeps one call below ~400 MB.
FRONTIER_LIMIT = 2 ** 22


def panel_decay_weights(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-panel decay factor and quadrature weights for the damped integral.

    For one panel of width h with nonnegative rate r and z = r*h, the
    recurrence ``y_i = d y_{i-1} + h*(A v_{i-1} + B v_i)`` integrates
    exp-damped piecewise-linear data exactly:

        d = exp(-z)
        A = ((1 - d)/z - d) / z
        B = (1 - (1 - d)/z) / z

    A small-z series branch avoids the 0/0 cancellation; both branches have
    relative error well below 1e-11.  A + B = (1 - d)/z, so the discrete
    sup-norm bound of the continuum integral is preserved exactly.
    """
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    d = np.exp(-z)
    u = -np.expm1(-zs)  # 1 - exp(-z), no cancellation
    a_big = (u / zs - np.exp(-zs)) / zs
    b_big = (1.0 - u / zs) / zs
    a_ser = 0.5 - z / 3.0 + z * z / 8.0
    b_ser = 0.5 - z / 6.0 + z * z / 24.0
    return d, np.where(small, a_ser, a_big), np.where(small, b_ser, b_big)


# ---------------------------------------------------------------------------
# damped cumulative integral


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


def damped_cumulative_integral(values: np.ndarray, h: float, rate) -> np.ndarray:
    """Cumulative solution of y' = -rate(x) y + v(x), y = 0 at the left end,
    along the last axis of one row or of a stack of rows.

    Parameters
    ----------
    values : node samples of v, shape (n + 1,) or (rows, n + 1)
    h : panel width, positive
    rate : scalar rate, or per-panel rates of shape (n,) for one row and
        (rows, n) for a stack

    Exact when the rate is panel-constant and v is piecewise linear.  Each
    row of a stack gives the same result, bit for bit, as on its own.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] < 2:
        raise ValueError("values must be one row or a stack of rows with at "
                         "least two nodes")
    if not h > 0:
        raise ValueError("panel width must be positive")
    n = v.shape[-1] - 1
    rate_arr = np.asarray(rate, dtype=np.float64)
    if rate_arr.ndim and rate_arr.shape != v.shape[:-1] + (n,):
        raise ValueError("rate must be a scalar or one value per panel of each row")
    d, a, b = panel_decay_weights(rate_arr * h)
    if rate_arr.ndim == 0:
        return _damped_cumsum_lfilter(v, float(d), float(a) * h, float(b) * h)
    return _damped_cumsum_py(v, d, a * h, b * h)


# ---------------------------------------------------------------------------
# upwind sweep


def upwind_sweep(values: np.ndarray, coupling: np.ndarray, nu: np.ndarray,
                 dtq: np.ndarray, n_steps: int) -> np.ndarray:
    """March ``n_steps`` explicit upwind steps and return the new edge values.

    Interior nodes use the one-sided difference toward the tail (transport
    runs from x = 1 toward x = 0); each tail node is then refilled from the
    just-updated head values through the velocity-weighted coupling matrix,
    which keeps the unit-CFL step an exact shift.
    """
    u = np.array(values, dtype=np.float64, copy=True)
    coupling = np.asarray(coupling, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    dtq = np.asarray(dtq, dtype=np.float64)
    for _ in range(int(n_steps)):
        u[:, :-1] += nu[:, None] * (u[:, 1:] - u[:, :-1]) + dtq[:, :-1] * u[:, :-1]
        u[:, -1] = coupling @ u[:, 0]
    return u


# ---------------------------------------------------------------------------
# characteristic tracing


def _lin_interp(table: np.ndarray, edge: np.ndarray, pos: np.ndarray,
                h: float) -> np.ndarray:
    """Linear interpolant of the rows ``table[edge]`` at the points ``pos``,
    clamped to the end panels."""
    n = table.shape[1] - 1
    idx = np.clip((pos / h).astype(np.int64), 0, n - 1)
    frac = np.clip(pos / h - idx, 0.0, 1.0)
    return (1.0 - frac) * table[edge, idx] + frac * table[edge, idx + 1]


def _frontier_error(t: float, entries) -> ValueError:
    return ValueError(
        f"characteristic tracing to t = {t!r} would create {entries} "
        f"frontier entries, more than the limit of {FRONTIER_LIMIT}; "
        "choose a smaller t")


def trace_transport(values: np.ndarray, coupling: np.ndarray, c: np.ndarray,
                    qcum: np.ndarray, h: float, t: float, cap: int) -> np.ndarray:
    """Evaluate the transport flow at time ``t`` by backtracking characteristics.

    ``coupling`` is the velocity-weighted redistribution matrix: its row j
    lists the incoming edges feeding edge j's tail.  ``qcum`` holds per-edge
    cumulative integrals of the zero-order coefficient, used for the
    exponential gain along each characteristic segment.  ``cap`` bounds the
    number of vertex crossings per traced point (``RuntimeError`` beyond it).

    All nodes are traced at once as a frontier of paths.  Each iteration
    advances every path by one edge segment: a path whose foot lies on its
    edge adds its weighted value to its origin node, and every other path
    splits over the children of its edge and continues from their heads.
    A call that would create more than ``FRONTIER_LIMIT`` entries in total
    raises ``ValueError``; when every edge has a child, a call whose
    crossings at the slowest speed alone would pass the limit is rejected
    before tracing.
    """
    vals = np.asarray(values, dtype=np.float64)
    bc = np.asarray(coupling, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    qcum = np.asarray(qcum, dtype=np.float64)
    h, t = float(h), float(t)
    n_edges, n_nodes = vals.shape
    n = n_nodes - 1
    # CSR of the rows of the coupling matrix (children of each edge)
    rows, cols = np.nonzero(bc)
    n_children = np.bincount(rows, minlength=n_edges)
    first_child = np.cumsum(n_children) - n_children
    bweight = bc[rows, cols]
    # Reject up front what the loop would reject.  When every edge has a
    # child, each node keeps a live path while its remaining time exceeds
    # 1/min(c), so each of the first ceil(t min c) - 1 levels adds at least
    # one entry per node; the entries the loop starts with cover a last level
    # lost to rounding.  Levels past `cap` raise the crossing cap instead.
    levels = min(np.ceil(t * float(np.min(c))) - 1.0, cap + 1.0)
    if np.all(n_children > 0) and levels * n_edges * n_nodes > FRONTIER_LIMIT:
        raise _frontier_error(t, f"at least {int(levels) * n_edges * n_nodes}")

    origin = np.arange(n_edges * n_nodes)
    edge = np.repeat(np.arange(n_edges), n_nodes)
    pos = np.tile(np.arange(n_nodes) * h, n_edges)
    trem = np.full(origin.size, t)
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
        gain = (_lin_interp(qcum, e, foot, h) - _lin_interp(qcum, e, p, h)) / ce[done]
        np.add.at(out, origin[done],
                  weight[done] * np.exp(gain) * _lin_interp(vals, e, foot, h))

        go = ~done
        e = edge[go]
        counts = n_children[e]
        size = int(counts.sum())
        if size and level > cap:
            raise RuntimeError("characteristic tracing exceeded the crossing cap")
        total += size
        if total > FRONTIER_LIMIT:
            raise _frontier_error(t, total)
        gain = (qcum[e, n] - _lin_interp(qcum, e, pos[go], h)) / ce[go]
        child = (np.repeat(first_child[e], counts) + np.arange(size)
                 - np.repeat(np.cumsum(counts) - counts, counts))
        origin = np.repeat(origin[go], counts)
        trem = np.repeat(trem[go] - to_tail[go], counts)
        weight = np.repeat(weight[go] * np.exp(gain), counts) * bweight[child]
        edge = cols[child]
        pos = np.zeros(size)
        level += 1
    return out.reshape(n_edges, n_nodes)
