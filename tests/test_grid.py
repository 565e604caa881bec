"""Grid containers, arithmetic, differentiation, windows, the CLI's CSV
writer, the integer check that count arguments share and the lambda check that
every resolvent entry shares."""

import math

import numpy as np
import pytest

from semiflow import (CompactSeminormFamily, EdgeState, Grid, GridFunction,
                      WindowOrientation, check_bi_dissipative, check_hy_powers,
                      check_resolvent_contraction, differentiate, euler_apply,
                      laplace_resolvent, left_shift_generator,
                      lumer_phillips_verdict, make_network,
                      network_generation_verdict, network_resolvent,
                      orbit_integral_residual, plateau_ramp, resolvent_shift,
                      right_translation_resolvent, shift_semigroup,
                      smooth_bump, upwind_discretize, window_sup)
from semiflow.cli import _emit_rows
from semiflow.grid import _first_derivative, window_runs


def test_grid_basic_properties():
    g = Grid(0.0, 10.0, 100)
    assert g.h == pytest.approx(0.1)
    assert g.nodes.shape == (101,)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 10.0
    assert not g.nodes.flags.writeable


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        Grid(2.0, 1.0, 10)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Grid(0.0, float("inf"), 10)


def test_equal_grids_have_equal_float_nodes():
    # endpoints are kept as Python floats: a float32 endpoint equal to a
    # float gives the same grid, float64 nodes included
    g = Grid(np.float32(0.5), 10, 19)
    assert type(g.a) is float and type(g.b) is float
    assert g == Grid(0.5, 10.0, 19) and hash(g) == hash(Grid(0.5, 10.0, 19))
    assert g.nodes.dtype == np.float64
    assert np.array_equal(g.nodes, Grid(0.5, 10.0, 19).nodes)


def test_grid_function_shape_and_immutability():
    g = Grid(0.0, 1.0, 4)
    f = GridFunction(g, np.zeros(5))
    assert not f.values.flags.writeable
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))


def test_grid_function_arithmetic():
    g = Grid(0.0, 1.0, 10)
    f = GridFunction.from_callable(g, lambda x: x)
    k = GridFunction.from_callable(g, lambda x: 1.0 - x)
    assert (f + k).norm() == pytest.approx(1.0)
    assert (f - f).norm() == 0.0
    assert (2.0 * f).norm() == pytest.approx(2.0)
    assert (f / 2.0).norm() == pytest.approx(0.5)
    assert (-f).norm() == pytest.approx(1.0)
    other = Grid(0.0, 2.0, 10)
    with pytest.raises(ValueError):
        _ = f + GridFunction.from_callable(other, lambda x: x)


def test_differentiate():
    g = Grid(0.0, np.pi, 2000)
    f = GridFunction.from_callable(g, np.sin)
    df = differentiate(f)
    assert (df - GridFunction.from_callable(g, np.cos)).norm() < 1e-5


def _rows_with_signed_zeros(rng, shape):
    # random values with +0.0 and -0.0 scattered among them, so that the
    # differences and end stencils meet signed zeros
    v = rng.standard_normal(shape)
    pick = rng.integers(0, 4, shape)
    v[pick == 0] = 0.0
    v[pick == 1] = -0.0
    return v


@pytest.mark.parametrize("shape", [(3,), (4,), (2001,), (3, 2, 41)],
                         ids=["3_nodes", "4_nodes", "2001_nodes", "stack"])
def test_first_derivative_is_np_gradient_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    for h in (0.1, 1.0 / 3.0, 2.5e-3):
        v = _rows_with_signed_zeros(rng, shape)
        ref = np.gradient(v, h, axis=-1, edge_order=2)
        out = np.full(shape, np.nan)
        assert _first_derivative(v, h, out) is out
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))


def test_window_sup():
    g = Grid(0.0, 10.0, 100)
    f = GridFunction.from_callable(g, lambda x: x)
    assert window_sup(f, 0.0, 3.0) == pytest.approx(3.0)
    assert window_sup(f, 2.0, 2.0) == pytest.approx(2.0)
    # window clipped to the grid support
    assert window_sup(f, 8.0, 25.0) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        window_sup(f, 3.0, 2.0)
    with pytest.raises(ValueError):
        window_sup(f, 11.0, 12.0)


@pytest.mark.parametrize("lo, hi, message", [
    (3.0, 2.0, r"window requires lo <= hi"),
    (12.0, 11.0, r"window requires lo <= hi"),  # inverted before outside
    (11.0, 12.0, r"window \[11.0, 12.0\] does not intersect the grid interval"),
    (-3.0, -1.0, r"window \[-3.0, -1.0\] does not intersect the grid interval"),
    (2.01, 2.09, r"window \[2.01, 2.09\] contains no grid node"),
])
def test_window_sup_rejects_windows_without_nodes(lo, hi, message):
    f = GridFunction.from_callable(Grid(0.0, 10.0, 100), lambda x: x)
    with pytest.raises(ValueError, match=message):
        window_sup(f, lo, hi)


def test_csv_bytes_match_reference_writer(tmp_path):
    # the x,value rows of the CLI's resolvent.csv, against csv.writer at 17 digits
    import csv

    g = Grid(-1.0, 1.0, 37)
    f = GridFunction.from_callable(g, lambda x: np.exp(x) * np.sin(5 * x) / 3.0)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(f.grid.nodes, f.values):
            writer.writerow([format(x, ".17g"), format(v, ".17g")])
    _emit_rows(tmp_path / "sub", "got.csv", ["x", "value"], zip(f.grid.nodes, f.values))
    assert (tmp_path / "sub" / "got.csv").read_bytes() == ref.read_bytes()


def test_write_rows_formats_each_kind(tmp_path):
    _emit_rows(tmp_path, "rows.csv", ["i", "f"], [(3, 0.1), (np.int64(-2), np.float64(1 / 3))])
    assert (tmp_path / "rows.csv").read_text().splitlines() == [
        "i,f", "3,0.10000000000000001", "-2,0.33333333333333331"]


def test_window_runs_include_endpoints_within_tolerance():
    g = Grid(0.0, 1.0, 10)
    assert window_runs(g, 0.2, 0.5) == (2, 6)
    assert window_runs(g, 0.2 + 1e-12, 0.5 - 1e-12) == (2, 6)
    assert window_runs(g, 0.21, 0.49) == (3, 5)


def window_mask(grid: Grid, lo: float, hi: float) -> np.ndarray:
    """Nodes in [lo, hi], widened by 1e-9 h so that endpoints on nodes count."""
    tol = 1e-9 * grid.h
    return (grid.nodes >= lo - tol) & (grid.nodes <= hi + tol)


@pytest.mark.parametrize("grid", [Grid(0.0, 1.0, 10), Grid(-2.3, 5.1, 37),
                                  Grid(1e-3, 1e-3 + 1e-12, 5)])
def test_window_runs_select_the_nodes_of_window_mask(grid):
    # bounds on, just inside and just outside each node's widened window edge,
    # where the two comparisons decide alone
    x, tol = grid.nodes, 1e-9 * grid.h
    bounds = np.concatenate([x, x + tol, x - tol, np.nextafter(x + tol, np.inf),
                             np.nextafter(x - tol, -np.inf), [grid.a - 1, grid.b + 1]])
    lo, hi = np.meshgrid(bounds, bounds)
    start, stop = window_runs(grid, lo.ravel(), hi.ravel())
    index = np.arange(x.size)
    for l, h, i, j in zip(lo.ravel(), hi.ravel(), start, stop):
        assert np.array_equal(window_mask(grid, l, h), (index >= i) & (index < j))


# each count argument, called with a value, and the message it rejects with
_G = Grid(0.0, 10.0, 100)
_F = smooth_bump(_G, 4.0, 2.0)
_GEN, _SG = left_shift_generator(), shift_semigroup()
INTEGER_ENTRIES = {
    "Grid.n_cells": (lambda v: Grid(0.0, 1.0, v),
                     "grid requires an integer n_cells >= 2"),
    "max_index": (lambda v: CompactSeminormFamily(WindowOrientation.RIGHT, v),
                  "max_index must be an integer >= 1"),
    "window": (CompactSeminormFamily(WindowOrientation.RIGHT, 3).window,
               "seminorm index must lie in 1..3"),
    "plateau_ramp": (lambda v: plateau_ramp(_G, v),
                     "ramp index n must be an integer >= 1"),
    "upwind_discretize": (lambda v: upwind_discretize(v, 0.1),
                          "matrix size must be an integer >= 1"),
    "check_hy_powers": (lambda v: check_hy_powers(upwind_discretize(5, 0.1), [1.0], v),
                        "n_max must be an integer >= 1"),
    "euler_apply": (lambda v: euler_apply(_GEN, 1.0, v, _F),
                    "Euler step count m must be an integer >= 1"),
    "laplace_steps": (lambda v: laplace_resolvent(_SG, 1.0, _F, 5.0, v),
                      "steps must be an integer >= 1"),
    "orbit_integral_steps": (lambda v: orbit_integral_residual(_GEN, _SG, 0.5, _F, v),
                             "steps must be an integer >= 1"),
}


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
def test_integer_arguments_reject_non_finite_values(entry, value):
    call, message = INTEGER_ENTRIES[entry]
    with pytest.raises(ValueError, match=message):
        call(value)


# each lambda entry: the single ones take one lambda, the list ones a list
_FAMILY = CompactSeminormFamily(WindowOrientation.RIGHT, 3)
_SAMPLES = [("bump", _F)]
_NET = make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=20)
_STATE = EdgeState(_NET.grid, np.ones((2, 21)))
SINGLE_LAMBDA_ENTRIES = {
    "Generator.resolve": lambda lam: _GEN.resolve(lam, _F),
    "resolvent_shift": lambda lam: resolvent_shift(lam, _F),
    "right_translation_resolvent": lambda lam: right_translation_resolvent(lam, _F),
    "laplace_resolvent": lambda lam: laplace_resolvent(_SG, lam, _F, 5.0, 10),
    "network_resolvent": lambda lam: network_resolvent(_NET, lam, _STATE),
}
LAMBDA_LIST_ENTRIES = {
    "check_bi_dissipative": lambda lams: check_bi_dissipative(_GEN, _FAMILY, _SAMPLES, lams),
    "check_resolvent_contraction":
        lambda lams: check_resolvent_contraction(_GEN, _FAMILY, _SAMPLES, lams),
    "check_hy_powers": lambda lams: check_hy_powers(upwind_discretize(5, 0.1), lams, 2),
    "lumer_phillips_verdict":
        lambda lams: lumer_phillips_verdict(_GEN, _FAMILY, _SAMPLES, lams, _SAMPLES),
    "network_generation_verdict": lambda lams: network_generation_verdict(_NET, lams, 1),
}


def _lambda_cases():
    for name, call in sorted(SINGLE_LAMBDA_ENTRIES.items()):
        for lam in (math.inf, math.nan, 0.0, -1.0):
            yield pytest.param(call, lam, f"lambda must be finite and positive, got {lam}",
                               id=f"{name}-{lam}")
    for name, call in sorted(LAMBDA_LIST_ENTRIES.items()):
        for lam in (math.inf, math.nan, 0.0, -1.0):
            yield pytest.param(call, [lam], f"lambda must be finite and positive, got {lam}",
                               id=f"{name}-{lam}")
        yield pytest.param(call, [], "need at least one lambda, got none", id=f"{name}-empty")


@pytest.mark.parametrize("call, arg, message", list(_lambda_cases()))
def test_lambda_entries_reject_non_positive_or_non_finite_lambda(call, arg, message):
    with pytest.raises(ValueError) as info:
        call(arg)
    assert str(info.value) == message
