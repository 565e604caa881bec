"""Grid containers, arithmetic, calculus helpers, and CSV round-trips."""

import numpy as np
import pytest

from semiflow import (Grid, GridFunction, differentiate, integrate, read_csv,
                      supnorm, window_sup, write_csv)
from semiflow.grid import window_mask, write_rows


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
    assert supnorm(f + k) == pytest.approx(1.0)
    assert supnorm(f - f) == 0.0
    assert supnorm(2.0 * f) == pytest.approx(2.0)
    assert supnorm(f / 2.0) == pytest.approx(0.5)
    assert supnorm(-f) == pytest.approx(1.0)
    other = Grid(0.0, 2.0, 10)
    with pytest.raises(ValueError):
        _ = f + GridFunction.from_callable(other, lambda x: x)


def test_integrate_and_differentiate():
    g = Grid(0.0, np.pi, 2000)
    f = GridFunction.from_callable(g, np.sin)
    assert integrate(f) == pytest.approx(2.0, abs=1e-6)
    df = differentiate(f)
    assert supnorm(df - GridFunction.from_callable(g, np.cos)) < 1e-5


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


def test_csv_round_trip(tmp_path):
    g = Grid(-1.0, 1.0, 37)
    f = GridFunction.from_callable(g, lambda x: np.exp(x) * np.sin(5 * x))
    path = tmp_path / "f.csv"
    write_csv(f, path)
    back = read_csv(path)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)


def test_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.0,1.0\n0.1,1.0\n0.35,1.0\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_csv_bytes_match_reference_writer(tmp_path):
    # write_csv before it shared write_rows with the CLI, as written
    import csv

    g = Grid(-1.0, 1.0, 37)
    f = GridFunction.from_callable(g, lambda x: np.exp(x) * np.sin(5 * x) / 3.0)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(f.grid.nodes, f.values):
            writer.writerow([format(x, ".17g"), format(v, ".17g")])
    got = tmp_path / "sub" / "got.csv"
    write_csv(f, got)
    assert got.read_bytes() == ref.read_bytes()


def test_write_rows_formats_each_kind(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, ["s", "i", "f"], [("a", 3, 0.1), ("b", np.int64(-2), np.float64(1 / 3))])
    assert path.read_text().splitlines() == [
        "s,i,f", "a,3,0.10000000000000001", "b,-2,0.33333333333333331"]


def test_window_mask_includes_endpoints_within_tolerance():
    g = Grid(0.0, 1.0, 10)
    assert np.nonzero(window_mask(g, 0.2, 0.5))[0].tolist() == [2, 3, 4, 5]
    assert np.nonzero(window_mask(g, 0.2 + 1e-12, 0.5 - 1e-12))[0].tolist() == [2, 3, 4, 5]
    assert np.nonzero(window_mask(g, 0.21, 0.49))[0].tolist() == [3, 4]
