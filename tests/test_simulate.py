import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from funvar.curves import Curve, CurveSet, derivative_set, uniform_grid
from funvar.simulate import (
    SimSpec,
    dataset_from_parts,
    gen_brownian_curves,
    gen_dataset,
    gen_sin_curves,
    rng_stream,
    true_functionals,
)

import oracles


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec("ex4", 10, 0)
    with pytest.raises(ValueError):
        SimSpec("ex1", 0, 0)
    with pytest.raises(ValueError):
        SimSpec("ex1", 10, 0, grid_size=1)


def test_rng_streams_are_distinct_and_reproducible():
    a = rng_stream(5, 0).standard_normal(4)
    b = rng_stream(5, 0).standard_normal(4)
    c = rng_stream(5, 1).standard_normal(4)
    assert_array_equal(a, b)
    assert np.any(a != c)


def test_brownian_start_is_uniform_and_increments_scale_with_dt():
    rng = np.random.default_rng(0)
    g = uniform_grid(101)
    cs = gen_brownian_curves(10_000, g, rng)
    start = cs.values[:, 0]
    assert abs(start.mean()) < 0.02
    assert start.min() >= -1.0 and start.max() <= 1.0
    # total increment over [-1, 1] has variance equal to the elapsed time, 2
    span = cs.values[:, -1] - cs.values[:, 0]
    assert span.var() == pytest.approx(2.0, rel=0.05)
    assert abs(span.mean()) < 0.05


def test_brownian_two_point_grid():
    rng = np.random.default_rng(1)
    cs = gen_brownian_curves(50, uniform_grid(2), rng)
    assert cs.values.shape == (50, 2)


def test_sin_curve_with_forced_params():
    g = uniform_grid(101, 0.0, 1.0)
    params = np.zeros((3, 3))  # w = a = b = 0 -> x(t) = 2*pi*t
    cs, ds, out = gen_sin_curves(3, g, np.random.default_rng(2), params=params)
    assert_array_equal(out, params)
    assert_allclose(cs.values, np.tile(2 * np.pi * g.points, (3, 1)), atol=1e-12)
    assert_allclose(ds.values, np.full((3, g.size), 2 * np.pi), atol=1e-12)


def test_sin_curve_value_at_zero_is_b():
    g = uniform_grid(51, 0.0, 1.0)
    cs, _, params = gen_sin_curves(40, g, np.random.default_rng(3))
    assert_allclose(cs.values[:, 0], np.sin(0.0) + params[:, 2], atol=1e-12)


def test_sin_curves_are_the_formula_bit_for_bit():
    g = uniform_grid(101, 0.0, 1.0)
    cs, ds, params = gen_sin_curves(50, g, np.random.default_rng(5))
    w, slope, b, t = params[:, :1], params[:, 1:2] + 2.0 * np.pi, params[:, 2:3], g.points
    assert_array_equal(cs.values, np.sin(w * t) + slope * t + b)
    assert_array_equal(ds.values, w * np.cos(w * t) + slope)


def test_sin_analytic_derivative_matches_finite_differences():
    g = uniform_grid(201, 0.0, 1.0)
    cs, ds, _ = gen_sin_curves(5, g, np.random.default_rng(4))
    fd = derivative_set(cs, 1)
    # interior only: the one-sided edge stencils are an order less accurate
    assert_allclose(ds.values[:, 1:-1], fd.values[:, 1:-1], atol=1e-2)


def test_true_functionals_flat_curve_ex1_ex2():
    g = uniform_grid(11)
    zero = Curve(g, np.zeros(11))
    m, v = true_functionals("ex1", zero)
    assert m == pytest.approx(0.0)
    assert v == pytest.approx(2.0)  # int |cos 0| over [-1, 1]
    one = Curve(g, np.ones(11))
    m2, v2 = true_functionals("ex2", one)
    assert m2 == pytest.approx(0.0, abs=1e-12)  # int t dt over [-1, 1]
    assert v2 == pytest.approx(1.0, rel=1e-2)  # int |t| dt, trapezoid


def test_true_functionals_ex3_constant_slope():
    g = uniform_grid(101)
    x = Curve(g, 2 * np.pi * g.points)
    dx = Curve(g, np.full(101, 2 * np.pi))
    m, v = true_functionals("ex3", x, dx)
    # int (1 -+ cos(pi t)) dt over [-1, 1] is 2 either way, scaled by |x'|
    assert m == pytest.approx(4 * np.pi, rel=1e-9)
    assert v == pytest.approx(4 * np.pi, rel=1e-9)


def test_ex3_requires_derivatives():
    g = uniform_grid(11)
    with pytest.raises(ValueError):
        true_functionals("ex3", Curve(g, np.zeros(11)))


def test_true_functionals_match_trapezoid_oracle():
    rng = np.random.default_rng(5)
    g = uniform_grid(41)
    pts = g.points.tolist()
    for _ in range(4):
        x = rng.standard_normal(41)
        m1, v1 = true_functionals("ex1", Curve(g, x))
        assert m1 == 0.0
        assert v1 == pytest.approx(
            oracles.trapezoid(np.abs(np.cos(x)).tolist(), pts), abs=1e-12
        )
        m2, v2 = true_functionals("ex2", Curve(g, x))
        assert m2 == pytest.approx(
            oracles.trapezoid((g.points * x).tolist(), pts), abs=1e-12
        )
        assert v2 == pytest.approx(
            oracles.trapezoid((np.abs(g.points) * x * x).tolist(), pts), abs=1e-12
        )


def test_batch_dataset_truths_match_single_curve_functionals():
    ds = gen_dataset(SimSpec("ex3", 6, seed=13))
    for i in range(6):
        m, v = true_functionals("ex3", ds.curves.curve(i), ds.derivs.curve(i))
        assert ds.m_true[i] == pytest.approx(m, abs=1e-12)
        assert ds.v_true[i] == pytest.approx(v, abs=1e-12)
    ds1 = gen_dataset(SimSpec("ex1", 5, seed=14))
    for i in range(5):
        m, v = true_functionals("ex1", ds1.curves.curve(i))
        assert ds1.m_true[i] == pytest.approx(m, abs=1e-12)
        assert ds1.v_true[i] == pytest.approx(v, abs=1e-12)


def test_gen_dataset_is_deterministic():
    spec = SimSpec("ex2", 25, seed=7, stream=3)
    a = gen_dataset(spec)
    b = gen_dataset(spec)
    assert_array_equal(a.curves.values, b.curves.values)
    assert_array_equal(a.y, b.y)
    assert_array_equal(a.eps, b.eps)
    c = gen_dataset(SimSpec("ex2", 25, seed=7, stream=4))
    assert np.any(a.y != c.y)


def test_gen_dataset_shapes_and_consistency():
    for design in ("ex1", "ex2", "ex3"):
        ds = gen_dataset(SimSpec(design, 12, seed=1))
        assert ds.curves.values.shape == (12, 101)
        assert ds.y.shape == (12,)
        assert np.all(ds.v_true >= 0)
        assert_allclose(ds.y, ds.m_true + np.sqrt(ds.v_true) * ds.eps)
        if design == "ex3":
            assert ds.derivs is not None
            assert ds.params.shape == (12, 3)
        else:
            assert ds.derivs is None
            assert ds.params.shape == (12, 1)


def test_ex1_variance_is_bounded_by_two():
    ds = gen_dataset(SimSpec("ex1", 300, seed=9))
    assert np.all(ds.v_true > 0)
    assert np.all(ds.v_true <= 2.0)


def test_response_noise_moments():
    # pin every curve at x = 1 so (m, v) are the same for each draw, then
    # check the sample moments of y over many replicates
    n = 20_000
    g = uniform_grid(101)
    curves = CurveSet(g, np.ones((n, 101)))
    m1, v1 = true_functionals("ex2", curves.curve(0))
    eps = np.random.default_rng(11).standard_normal(n)
    ds = dataset_from_parts(curves, np.full(n, m1), np.full(n, v1), eps)
    assert ds.y.var() == pytest.approx(v1, rel=0.05)
    assert ds.y.mean() == pytest.approx(m1, abs=0.02)


def test_dataset_from_parts_validation():
    g = uniform_grid(5)
    curves = CurveSet(g, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        dataset_from_parts(curves, np.zeros(2), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        dataset_from_parts(curves, np.zeros(3), -np.ones(3), np.zeros(3))
