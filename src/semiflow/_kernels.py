"""Hot numeric kernels, written with NumPy.

Kernels:

``damped_cumulative_integral``
    Cumulative Duhamel integral ``y(x) = int_a^x exp(-int_s^x r) v(s) ds``,
    i.e. the solution of ``y' = -r(x) y + v(x)``, ``y(a) = 0``, for one row
    or a stack of rows at once.  Exact for panel-constant rate and
    piecewise-linear data, which keeps resolvent contraction estimates
    structurally true at any grid resolution.

``translation_row``, ``translation_orbit_sum``
    One row of a linearly interpolated translation orbit, and a weighted
    sum of its rows as one causal convolution by FFT.

``upwind_sweep``
    Explicit first-order upwind steps for edge transport toward x = 0 with
    vertex redistribution of the outflow, each followed by the absorption's
    exact factor: a node-major march of four numpy calls per step, each node
    a sum of itself and its upstream neighbour with weights >= 0 for every
    absorption, both full arrays of the data's shape, so that each product
    of a step is one flat loop.

``trace_transport``
    Exact evolution of edge transport by backtracking characteristics
    through vertices, to one time or a block of times (one vectorized
    frontier, weights from the coupling matrix, each level gathered by
    index).

``history_transport``
    The same flow by the method of steps, for speeds and times that fit one
    time grid (``common_step``): the head-value histories are built once and
    every output reads them.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

# Most frontier entries one ``trace_transport`` call may create, summed over
# all vertex crossings and all times of the call.  The frontier holds every
# live path at once, and the path count grows exponentially with t on a
# branching graph.  At about 100 bytes per entry of the largest level this
# keeps one call below ~400 MB.
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
    q = -np.expm1(-zs) / zs  # (1 - exp(-z))/z, no cancellation
    a_big = (q - d) / zs     # zs == z wherever this branch is kept
    b_big = (1.0 - q) / zs
    zr = np.where(small, z, 0.0)  # z * z would overflow for |z| above ~1e154
    a_ser = 0.5 - zr / 3.0 + zr * zr / 8.0
    b_ser = 0.5 - zr / 6.0 + zr * zr / 24.0
    return d, np.where(small, a_ser, a_big), np.where(small, b_ser, b_big)


def _scalar_decay_weights(rate: float, h: float) -> tuple[float, float, float]:
    """d, h A and h B of :func:`panel_decay_weights` for one rate, as Python
    floats from one ``np.exp`` and one ``np.expm1`` (``math``'s differ from
    numpy's in the last bit on some arguments), equal to the per-panel
    weights of the same rate bit for bit; an overflowing z = rate h takes
    its limit d = hA = 0, hB = 1/rate."""
    z = rate * h
    d = float(np.exp(-z))
    if abs(z) < 1e-4:
        return d, (0.5 - z / 3.0 + z * z / 8.0) * h, (0.5 - z / 6.0 + z * z / 24.0) * h
    q = -float(np.expm1(-z)) / z
    return d, (q - d) / z * h, 1.0 / rate if z == math.inf else (1.0 - q) / z * h


# ---------------------------------------------------------------------------
# damped cumulative integral


def damped_cumulative_integral(values: np.ndarray, h: float, rate, *,
                               out: Optional[tuple[np.ndarray, np.ndarray]] = None
                               ) -> np.ndarray:
    """Cumulative solution of y' = -rate(x) y + v(x), y = 0 at the left end,
    along the last axis of one row or of a stack of rows.

    Parameters
    ----------
    values : node samples of v, shape (n + 1,) or (rows, n + 1)
    h : panel width, positive
    rate : one of three shapes: a scalar rate for every panel; one rate per
        row, shape (rows, 1), for a stack; or per-panel rates, shape (n,)
        for one row and (rows, n) for a stack
    out : optional pair ``(work, result)`` of float64 arrays of the
        node-major shape ``values.shape[::-1]``, sharing no memory with
        ``values``, for the march to run in instead of two new arrays:
        ``work`` is its scratch and ``result`` takes the solution node-major,
        so the call returns ``result.T``

    Exact when the rate is panel-constant and v is piecewise linear.  Each
    row of a stack gives the same result, bit for bit, as on its own, and a
    scalar or per-row rate gives the same result as per-panel rates equal
    to it.  Where rate * h overflows to inf, the panel takes its limit as
    rate * h -> inf, d = hA = 0 and hB = 1/rate, so y_i = v_i / rate.

    The march runs node-major, along axis 0: in a transposed copy of the
    data, which then serves as its scratch, and in the node-major result.
    Without ``out`` both arrays are new, and the spent copy then stores the
    result row-major, a new C-ordered array; with ``out`` they are the
    caller's, and the call returns the same values, bit for bit, as the
    transposed view of ``result``.  The input is left as it is either way.
    """
    v = np.asarray(values, dtype=np.float64)
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
    if not rate_arr.ndim:
        d, ha, hb = _scalar_decay_weights(float(rate_arr), float(h))
    else:
        # node-major: the march below runs along axis 0, and node i of every
        # row is one contiguous slice
        if per_row:
            rate_arr = rate_arr[:, 0]
        elif panel:
            rate_arr = np.ascontiguousarray(rate_arr.T)
        with np.errstate(over="ignore"):
            z = rate_arr * h
        d, a, b = panel_decay_weights(z)
        ha, hb = a * h, b * h
        over = z == np.inf
        if np.any(over):
            hb = np.where(over, 1.0 / np.where(over, rate_arr, 1.0), hb)
    # a copy, never the caller's array: once w is built it is spent, and
    # its first n nodes are the buffer of every pass
    if out is None:
        vt = v.T.copy()
        y = np.empty_like(vt)
    else:
        vt, y = out
        if any(a.shape != v.shape[::-1] or a.dtype != np.float64 for a in out):
            raise ValueError("out must be two float64 arrays of the node-major "
                             f"shape {v.shape[::-1]}")
        np.copyto(vt, v.T)
    y[0] = 0.0
    w = y[1:]
    np.multiply(ha, vt[:-1], out=w)
    np.multiply(hb, vt[1:], out=vt[1:])
    w += vt[1:]
    # y_{i+1} = d_i y_i + w_i by recursive doubling.  Before the pass with
    # step s, w_i sums the recurrence over the s panels ending at panel i and
    # d_i is their decay; the pass doubles both spans.  A scalar or per-row
    # factor is squared each pass (a scalar stays one float), and once every
    # factor has underflowed to 0 the passes end.  Negative rates give
    # d > 1: a product over 2s panels can overflow, and inf times an
    # exact-zero partial sum is nan.  No caller returns such a row:
    # network_resolvent checks that its solution is finite and raises.
    s = 1
    while s < n and (panel or (np.any(d) if per_row else d)):
        t = np.multiply(d[s:] if panel else d, w[:-s], vt[:n - s])
        tail = w[s:]
        tail += t
        if panel:
            d[s:] *= d[:-s]
        else:
            d *= d
        s *= 2
    if v.ndim == 1 or out is not None:
        return y.T
    # back to row-major in the spent copy, so no third array is live
    result = vt.reshape(v.shape)
    result[...] = y.T
    return result


# ---------------------------------------------------------------------------
# translation orbit


def translation_row(points: np.ndarray, x: np.ndarray, values: np.ndarray,
                    fill: float) -> np.ndarray:
    """``np.interp(points, x, values, left=fill)`` on the data times 2^-e and
    back, 2^e the ``frexp`` power of two of max|values| >= |fill|: no slope
    overflows, and where ``np.interp`` is finite this is it bit for bit (but
    for about 2^-1074 max|values| where 2^-e takes data below normal range)."""
    _, e = np.frexp(np.max(np.abs(values)))
    return np.ldexp(np.interp(points, x, np.ldexp(values, -e), left=np.ldexp(fill, -e)), e)


def translation_orbit_sum(values: np.ndarray, h: float, fill: float,
                          times: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] T(times[k]) v on the nodes x = arange(n + 1) h, where
    T(s) v is the translation ``translation_row(x - s, x, v, fill)``.

    At a shift s = (j + theta) h the row is (1 - theta) F[i - j] +
    theta F[i - j - 1], with F the data extended to the left by ``fill``,
    so the sum is one causal convolution of F with a kernel of two
    ``np.bincount``s over j, taken by FFT in O(steps + N log N).  Shifts
    are clipped at n + 1 before the integer cast: a row past the grid sees
    only ``fill``.  The blend smears the jump from ``fill`` to v_0 at x = s
    over one cell, so at the nodes j and j + 1 next to it each time adds
    its ``translation_row`` value minus the blend: the side of the jump is the
    one the orbit takes.  The data and the kernel are scaled by powers of
    two, exactly, so that no FFT sum overflows.  ``times`` must be finite
    and nonnegative.

    The result is within about 1e-15 sup|v| sum|weights| of exact linear
    interpolation (FFT rounding).  The row-by-row sum differs from both by
    ``np.interp``'s rounding of x - s, up to about 1e-16 n max|v_{i+1} - v_i|
    per unit weight, which shows only on rough data on fine grids.
    """
    n = values.size - 1
    with np.errstate(over="ignore"):  # s / h may pass the float range
        shift = np.minimum(times / h, n + 1.0)
    j = shift.astype(np.intp)
    theta = shift - j
    taps = int(j.max()) + 2
    kernel = (np.bincount(j, weights * (1.0 - theta), minlength=taps)
              + np.bincount(j + 1, weights * theta, minlength=taps))
    ext = np.concatenate((np.full(taps - 1, float(fill)), values))
    # outputs taps - 1 .. taps - 1 + n read ext only at 0 .. len(ext) - 1, so
    # a cyclic convolution of length >= len(ext) wraps nothing into them
    size = 1 << (ext.size - 1).bit_length()
    rfft, irfft = np.fft.rfft, np.fft.irfft
    _, e_data = np.frexp(np.max(np.abs(ext)))
    _, e_kernel = np.frexp(np.max(np.abs(kernel)))
    conv = irfft(rfft(np.ldexp(ext, -e_data), size)
                 * rfft(np.ldexp(kernel, -e_kernel), size), size)
    out = np.ldexp(conv[taps - 1:taps + n], e_data + e_kernel)
    x = np.arange(n + 1) * h
    near = (float(fill), float(values[0]), float(values[1]))  # F[-1], F[0], F[1]
    for o in (0, 1):
        node = j + o
        on = node <= n
        node, s, th, ck = node[on], times[on], theta[on], weights[on]
        exact = translation_row(x[node] - s, x, values, fill)
        blend = (1.0 - th) * near[o + 1] + th * near[o]
        out += np.bincount(node, ck * (exact - blend), minlength=n + 1)
    return out


# ---------------------------------------------------------------------------
# upwind sweep


def upwind_sweep(values: np.ndarray, coupling: np.ndarray, nu: np.ndarray,
                 dtq: np.ndarray, n_steps: int) -> np.ndarray:
    """March ``n_steps`` explicit upwind steps and return the new edge values,
    a fresh C-ordered array of the shape of ``values``, (E, n + 1).

    Interior nodes take the upwind step toward the tail (transport runs
    from x = 1 toward x = 0) and then the absorption's exact factor over
    the step, e^{dtq} (u_i + nu (u_{i+1} - u_i)), as the weighted sum
    ``keep u_i + inflow u_{i+1}`` with ``keep = (1 - nu) e^{dtq}`` and
    ``inflow = nu e^{dtq}`` formed once per call (equal to rounding).  Both
    weights are >= 0 for any dtq where nu <= 1, and where dtq = 0 they are
    exactly 1 - nu and nu, so a unit-CFL step is an exact shift.  Each tail
    node is then refilled from the just-updated head values through the
    velocity-weighted coupling matrix.

    The march runs node-major, on a copy of shape (n + 1, E), so that the
    head row and the tail row are contiguous, and each step is four numpy
    calls, with one buffer allocated once; the result does not depend on
    the layout of ``values``.  Both weights are full (n, E) arrays, so each
    product is one flat loop over the n E values, where a broadcast (E,)
    factor would loop over an inner axis of only E values, which costs
    most on small graphs.
    """
    u = np.array(values.T, order="C")
    decay = np.exp(dtq[:, :-1].T, order="C")
    keep, inflow_weight = (1.0 - nu) * decay, nu * decay
    lower, upper, head, tail = u[:-1], u[1:], u[0], u[-1]
    inflow = np.empty_like(lower)
    for _ in range(int(n_steps)):
        np.multiply(inflow_weight, upper, out=inflow)
        np.multiply(keep, lower, out=lower)
        np.add(lower, inflow, out=lower)
        np.dot(coupling, head, out=tail)
    return u.T.copy()


# ---------------------------------------------------------------------------
# characteristic tracing


def _interp(table: np.ndarray, edge: np.ndarray, idx: np.ndarray,
            frac: np.ndarray) -> np.ndarray:
    """Rows ``table[edge]`` read ``frac`` of the way across panel ``idx``."""
    return _lerp(table.ravel(), edge * table.shape[1] + idx, frac)


def _lerp(flat: np.ndarray, at: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """The flat table ``flat`` read ``frac`` of the way from entry ``at`` to
    the next, each entry gathered by ``take``."""
    return (1.0 - frac) * flat.take(at) + frac * flat.take(at + 1)


def _panel(pos: np.ndarray, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Panel index and fraction across it of the points ``pos`` on a grid of
    n panels of width h, clamped to the end panels: ``np.clip``'s bounds
    without its slow wrapper.  The one difference, a fraction of +0.0 where
    ``np.clip`` keeps -0.0, needs pos = -0.0, which the tracer never reads."""
    x = pos / h
    idx = np.minimum(np.maximum(x.astype(np.int64), 0), n - 1)
    return idx, np.minimum(np.maximum(x - idx, 0.0), 1.0)


class FrontierLimitError(ValueError):
    """A tracing call would create more than ``FRONTIER_LIMIT`` entries."""


def frontier_error(t: float, entries: int, exact: bool = True) -> FrontierLimitError:
    """The error for tracing to ``t``, which would create ``entries``
    frontier entries (at least that many when not ``exact``); the count is
    kept as the error's ``entries``."""
    err = FrontierLimitError(
        f"characteristic tracing to t = {t!r} would create "
        f"{'' if exact else 'at least '}{entries} frontier entries, more than the "
        f"limit of {FRONTIER_LIMIT}; choose a smaller t")
    err.entries = entries
    return err


def trace_transport(values: np.ndarray, coupling: np.ndarray, c: np.ndarray,
                    qcum: np.ndarray, h: float, t, cap: int) -> np.ndarray:
    """Evaluate the transport flow at time ``t`` by backtracking characteristics.

    ``t`` is one time or a 1-D array of times; the result has shape
    ``np.shape(t) + values.shape``, one state per time.  ``coupling`` is the
    velocity-weighted redistribution matrix: its row j lists the incoming
    edges feeding edge j's tail.  ``qcum`` holds per-edge cumulative
    integrals of the zero-order coefficient, used for the exponential gain
    along each characteristic segment.  ``cap`` bounds the number of vertex
    crossings per traced point (``RuntimeError`` beyond it); ``network``
    passes ceil(t max c) + 2, which no path reaches, since a full edge takes
    at least 1/max c.  The argument stays because the benchmark tracer
    (``perfbench/tracing.py``) reads it.

    All nodes at all times are traced at once as a frontier of paths.  Each
    iteration advances every path by one edge segment: a path whose foot
    lies on its edge adds its weighted value to its origin (time, edge,
    node), and every other path splits over the children of its edge and
    continues from their heads.  Each entry does the same arithmetic as in a
    one-time call, so every row equals the call for its time alone, bit for
    bit.  A foot's panel and fraction (``_panel``) are found once and serve
    both the ``qcum`` read and the data read.  A level gathers its entries
    by index, with one ``np.flatnonzero`` for the paths that end and one for
    those that go on and every array read by ``take``; ``values`` and
    ``qcum`` are read as flat tables at edge (n + 1) + idx.  The gain
    integral at a path's start is the interpolant at its node on the first
    level and ``qcum[edge, 0]`` after a crossing: the interpolant at x = 0
    reads 1 qcum[edge, 0] + 0 qcum[edge, 1], which is that value for finite
    ``qcum`` (``Network`` rejects an overflowing one).

    ``FRONTIER_LIMIT`` counts the entries of every time in the call: a call
    that would create more raises ``FrontierLimitError`` (a ``ValueError``)
    naming its largest time, and a call whose crossings at the slowest speed
    from the live edges alone, summed over its times, would pass the limit
    is rejected before tracing.

    The up-front bound counts one path per node of a live edge and ignores
    branching, so on a branching graph the in-loop limit acts late: a call
    may build a level of nearly ``FRONTIER_LIMIT`` entries before the limit
    rejects the next one.  One such call (two vertices joined by 8 parallel
    edges each way, 55 nodes per edge, t = 4.5) took ~370 MB.  Its speeds
    fit a time grid, so ``characteristics_orbit`` serves it with
    ``history_transport``; this tracer serves speeds that fit no grid, and
    it is the oracle for the history.
    """
    times = np.asarray(t, dtype=np.float64)
    t_max = float(np.max(times))
    n_edges, n_nodes = values.shape
    n = n_nodes - 1
    # CSR of the rows of the coupling matrix (children of each edge)
    rows, cols = np.nonzero(coupling)
    n_children = np.bincount(rows, minlength=n_edges)
    first_child = np.cumsum(n_children) - n_children
    bweight = coupling[rows, cols]
    # Reject up front what the loop would reject.  An edge is live when it
    # has an infinite backward walk, that is when it has a live child: the
    # fixpoint below, reached in at most n_edges passes, each a read of the
    # child table (rows, cols) at O(nnz) cost.  Each node of a live edge
    # keeps a path through live children while its remaining time exceeds
    # 1/min(c), so each of the first ceil(t min c) - 1 levels adds at least
    # one entry per such node; the entries the loop starts with cover a last
    # level lost to rounding.  Levels past `cap` raise the crossing cap
    # instead.  The times of a block trace apart, so their bounds add.
    live = n_children > 0
    while not np.array_equal(fed := np.bincount(rows, live[cols], n_edges) > 0, live):
        live = fed
    levels = np.clip(np.ceil(times * float(np.min(c))) - 1.0, 0.0, cap + 1.0)
    bound = float(np.sum(levels)) * np.count_nonzero(live) * n_nodes
    if bound > FRONTIER_LIMIT:
        raise frontier_error(t_max, int(bound), exact=False)

    per_time = n_edges * n_nodes
    origin = np.arange(times.size * per_time)
    edge = np.tile(np.repeat(np.arange(n_edges), n_nodes), times.size)
    pos = np.tile(np.arange(n_nodes) * h, n_edges * times.size)
    trem = np.repeat(times.ravel(), per_time)
    weight = np.ones(origin.size)
    start_q = _interp(qcum, edge, *_panel(pos, h, n))  # gain integral at each start
    flat_values, flat_q = values.ravel(), qcum.ravel()
    q_head, q_tail = qcum[:, 0], qcum[:, n]
    out = np.zeros(origin.size)
    total = origin.size
    level = 0
    while origin.size:
        ce = c.take(edge)
        to_tail = (1.0 - pos) / ce
        done = trem <= to_tail
        stop, go = np.flatnonzero(done), np.flatnonzero(~done)
        ced = ce.take(stop)
        idx, frac = _panel(np.minimum(pos.take(stop) + ced * trem.take(stop), 1.0), h, n)
        at = edge.take(stop) * n_nodes + idx
        gain = (_lerp(flat_q, at, frac) - start_q.take(stop)) / ced
        np.add.at(out, origin.take(stop),
                  weight.take(stop) * np.exp(gain) * _lerp(flat_values, at, frac))

        e = edge.take(go)
        counts = n_children.take(e)
        size = int(counts.sum())
        if size and level > cap:
            raise RuntimeError("characteristic tracing exceeded the crossing cap")
        total += size
        if total > FRONTIER_LIMIT:
            raise frontier_error(t_max, total)
        gain = (q_tail.take(e) - start_q.take(go)) / ce.take(go)
        child = (np.repeat(first_child.take(e), counts) + np.arange(size)
                 - np.repeat(np.cumsum(counts) - counts, counts))
        origin = np.repeat(origin.take(go), counts)
        trem = np.repeat(trem.take(go) - to_tail.take(go), counts)
        weight = np.repeat(weight.take(go) * np.exp(gain), counts) * bweight.take(child)
        edge = cols.take(child)
        pos = np.zeros(size)
        start_q = q_head.take(edge)
        level += 1
    return out.reshape(times.shape + (n_edges, n_nodes))


# ---------------------------------------------------------------------------
# method of steps


def common_step(h: float, c: np.ndarray, times: Sequence[float]) -> Optional[float]:
    """The largest step dt that divides every cell crossing time h/c_k and
    every time in ``times``, or None if the speeds and times fit no grid.

    dt divides the smallest positive span s0 among them, so dt = s0/m for an
    integer m.  The m from 1 to 64 are tried at once, and the smallest m for
    which every span is an integer multiple of dt, to a relative 64 eps,
    wins.  A span of so many steps that 64 eps of it reach a quarter step
    cannot show a fit, and fails.
    """
    spans = np.concatenate([h / c, np.ravel(times)])
    spans = spans[spans > 0]
    s0 = float(np.min(spans))
    tol = 64 * np.finfo(np.float64).eps
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = spans * (np.arange(1.0, 65.0)[:, None] / s0)
        fits = np.all(np.abs(ratio - np.rint(ratio)) <= tol * ratio, axis=1)
    m = 1 + int(np.argmax(fits))
    # the quarter-step test grows with m, so it can be checked at the fit
    return s0 / m if fits.any() and tol * m * float(np.max(spans)) / s0 < 0.25 else None


def _foot_value(vals: np.ndarray, qcum: np.ndarray, c: np.ndarray, b: np.ndarray,
                edge: np.ndarray, start, cell: np.ndarray,
                rem: np.ndarray) -> np.ndarray:
    """Initial data of ``edge`` at the foot ``cell + rem/b[edge]`` (in cells,
    ``rem == 0`` at the tail node), times the gain from node ``start`` to
    the foot.  The fraction is a quotient of integers, so a foot gives the
    same value for every step that reaches it."""
    n = vals.shape[1] - 1
    idx = np.minimum(cell, n - 1)
    frac = (rem + (cell - idx) * b[edge]) / b[edge]
    gain = (_interp(qcum, edge, idx, frac) - qcum[edge, start]) / c[edge]
    return np.exp(gain) * _interp(vals, edge, idx, frac)


def history_transport(values: np.ndarray, coupling: np.ndarray, c: np.ndarray,
                      qcum: np.ndarray, h: float, blocks: Sequence[np.ndarray],
                      dt: float) -> Iterator[np.ndarray]:
    """Yield the transport flow at each block of times in ``blocks`` by the
    method of steps, shape ``block.shape + values.shape`` per block.  The
    step ``dt`` comes from ``common_step``: every h/c_k and every time is an
    integer multiple of it.  The other arguments are ``trace_transport``'s.

    After its first vertex crossing, every characteristic runs from the head
    x = 0 of some edge, so the head values h_k(s) = u_k(0, s) fix the flow.
    Read back along edge k, h_k(s) is the initial data at c_k s times its
    gain while s <= 1/c_k, and e^{G_k} sum_m Bc_km h_m(s - 1/c_k) after
    that, where G_k is the gain of the whole edge and Bc the coupling.  On
    the grid s = i dt the recursion reads only grid times, so it is exact.
    The history of every edge up to the largest time is built once per
    call, min_k 1/(c_k dt) steps per numpy pass.  A node x of edge j then
    reads the initial data (interpolated as ``trace_transport`` reads it,
    times its gain) while t <= (1 - x)/c_j, and
    e^{gain} sum_m Bc_jm h_m(t - (1 - x)/c_j) after that.  A pass or a block
    with no value on the initial-data side makes no ``_foot_value`` call.

    On a jump line, where t = (1 - x)/c_j or s = 1/c_k exactly, the
    initial-data side is taken, as in ``trace_transport`` when its test
    ``trem <= to_tail`` holds.  Times and positions are kept as integer
    step counts, so a value does not depend on dt: a time gives the same
    values in every call whose step divides it.  Values agree with
    ``trace_transport`` to rounding, except on jump lines, where the side
    that the tracer takes depends on the rounding of its test.

    The history holds t_max/dt + 1 values per edge.  A call whose history
    would hold more than ``FRONTIER_LIMIT`` values raises
    ``FrontierLimitError`` (a ``ValueError``) naming its largest time,
    before any work.
    """
    n_edges, n_nodes = values.shape
    n = n_nodes - 1
    t_max = max((float(np.max(block)) for block in blocks if block.size), default=0.0)
    last = int(round(t_max / dt))
    if (last + 1) * n_edges > FRONTIER_LIMIT:
        raise FrontierLimitError(
            f"characteristic tracing to t = {t_max!r} would store "
            f"{(last + 1) * n_edges} head values, more than the limit of "
            f"{FRONTIER_LIMIT}; choose a smaller t")
    b = np.rint(h / c / dt).astype(np.int64)  # steps per cell of each edge
    # steps to cross each edge; a crossing after the last step is never
    # reached, and capping it there keeps the integers small
    cross = n * np.minimum(b, last + 1)
    rows, cols = np.nonzero(coupling)
    weight = coupling[rows, cols][:, None]
    fed, first = np.unique(rows, return_index=True)
    edge_gain = np.exp(qcum[:, n] / c)[:, None]

    # tail[k, i] = sum_m Bc_km h_m(i dt), the value entering edge k's tail.
    # A pass fills at most min_k 1/(c_k dt) steps, which read only earlier
    # passes, and sums each row's children in a fixed order (reduceat), so
    # a column does not depend on how the steps are split into passes.
    tail = np.zeros((n_edges, last + 1))
    span = int(min(cross.min(), max(1, FRONTIER_LIMIT // rows.size)))
    edges = np.arange(n_edges)[:, None]
    for i0 in range(0, last + 1, span):
        steps = np.arange(i0, min(i0 + span, last + 1))
        back = steps - cross[:, None]  # step of the tail value each head reads
        head = edge_gain * tail[edges, np.maximum(back, 0)]
        k, i = np.nonzero(back < 1)    # s <= 1/c_k: still the initial data
        if k.size:
            head[k, i] = _foot_value(values, qcum, c, b, k, 0, steps[i] // b[k],
                                     steps[i] % b[k])
        tail[fed, i0:i0 + steps.size] = np.add.reduceat(weight * head[cols], first,
                                                        axis=0)

    j = np.repeat(np.arange(n_edges), n_nodes)  # edge and node of each value
    node = np.tile(np.arange(n_nodes), n_edges)
    ahead = (n - node) * np.minimum(b[j], last + 1)  # steps to the tail
    out_gain = np.exp((qcum[j, n] - qcum[j, node]) / c[j])
    for block in blocks:
        a = np.rint(block.ravel() / dt).astype(np.int64)[:, None]
        back = a - ahead
        out = out_gain * tail[j, np.maximum(back, 0)]
        t, p = np.nonzero(back < 1)    # t <= (1 - x)/c_j: the initial data
        if t.size:
            cell, rem = np.divmod(a[t, 0], b[j[p]])
            out[t, p] = _foot_value(values, qcum, c, b, j[p], node[p], node[p] + cell,
                                    rem)
        yield out.reshape(block.shape + values.shape)
