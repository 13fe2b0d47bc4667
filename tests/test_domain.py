import numpy as np
import pytest

from greenbound import (GridFn, Interval, InvalidGridError, make_grid,
                        read_gridfn_csv, sample, write_gridfn_csv)


def test_make_grid_unit_interval():
    g = make_grid(Interval(0.0, 1.0), 3)
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0])
    assert g.spacing == 0.5


def test_make_grid_symmetric_interval():
    g = make_grid(Interval(-1.0, 1.0), 5)
    assert np.allclose(g.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_make_grid_too_few_nodes():
    with pytest.raises(InvalidGridError):
        make_grid(Interval(0.0, 1.0), 2)


def test_interval_validation():
    with pytest.raises(InvalidGridError):
        Interval(1.0, 0.0)
    with pytest.raises(InvalidGridError):
        Interval(0.0, np.inf)


def test_sample_parabola_values():
    g = make_grid(Interval(0.0, 1.0), 5)
    f = sample(lambda x: x * (1 - x) / 2, g)
    assert np.allclose(f.values, [0.0, 0.09375, 0.125, 0.09375, 0.0])
    assert f.fn is not None


def test_sample_singular_endpoint():
    g = make_grid(Interval(0.0, 1.0), 5)
    f = sample(lambda x: min(x, 1 - x) ** (-1.0), g)
    assert np.isposinf(f.values[0]) and np.isposinf(f.values[-1])
    assert np.all(np.isfinite(f.values[1:-1]))


def test_sample_oscillatory_interior():
    g = make_grid(Interval(0.0, 1.0), 11)
    f = sample(lambda x: np.sin(np.pi / np.sqrt(x)) if x > 0 else np.inf, g)
    assert np.all(np.abs(f.values[1:]) <= 1.0)


def test_gridfn_shape_mismatch():
    g = make_grid(Interval(0.0, 1.0), 5)
    with pytest.raises(InvalidGridError):
        GridFn(g, np.zeros(4))


def test_gridfn_csv_roundtrip_with_inf(tmp_path):
    g = make_grid(Interval(0.0, 1.0), 9)
    vals = np.linspace(-2, 2, 9)
    vals[0], vals[-1] = np.inf, -np.inf
    f = GridFn(g, vals)
    path = tmp_path / "f.csv"
    write_gridfn_csv(f, path)
    back = read_gridfn_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, vals)
