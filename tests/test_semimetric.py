import numpy as np
import pytest
from numpy.testing import assert_allclose

from funvar.cli import EXIT_COMPUTE
from funvar.cli import main as cli_main
from funvar.curves import (
    Curve,
    CurveSet,
    Grid,
    _spline_operator,
    derivative,
    integrate,
    uniform_grid,
    write_curves_csv,
    write_responses_csv,
)
from funvar.semimetric import (
    SemiMetricSpec,
    _spline_features,
    distance,
    distance_matrix,
    feature_matrix,
    feature_weights,
    pairwise_from_features,
    small_ball_fraction,
    train_projection,
)

import oracles


def random_curves(n, size=21, seed=0, smooth=False):
    rng = np.random.default_rng(seed)
    g = uniform_grid(size)
    if smooth:
        w = rng.uniform(0, 2 * np.pi, (n, 1))
        vals = np.sin(w * g.points) + rng.uniform(-1, 1, (n, 1))
    else:
        vals = rng.standard_normal((n, size))
    return CurveSet(g, vals)


def test_spec_validation():
    with pytest.raises(ValueError):
        SemiMetricSpec("hausdorff")
    with pytest.raises(ValueError):
        SemiMetricSpec.deriv_l2(order=-1)
    with pytest.raises(ValueError):
        SemiMetricSpec.deriv_l2(deriv_method="wavelet")
    with pytest.raises(ValueError):
        SemiMetricSpec.pca_projection(dim=0)
    with pytest.raises(ValueError, match="degree 3 must exceed derivative order 3"):
        SemiMetricSpec.deriv_l2(order=3, deriv_method="bspline", degree=3)
    with pytest.raises(ValueError, match="interior knot"):
        SemiMetricSpec.deriv_l2(order=1, deriv_method="bspline", knots=0)
    # order 0 never fits a spline
    SemiMetricSpec.deriv_l2(order=0, deriv_method="bspline", knots=0, degree=0)


def test_config_roundtrip():
    for spec in (
        SemiMetricSpec.deriv_l2(order=2, deriv_method="bspline", knots=9, degree=4),
        SemiMetricSpec.pca_projection(dim=3),
    ):
        assert SemiMetricSpec.from_config(spec.to_config()) == spec


def test_deriv_l2_order0_matches_oracle():
    cs = random_curves(4, seed=11)
    spec = SemiMetricSpec.deriv_l2()
    pts = cs.grid.points
    for i in range(4):
        for j in range(4):
            expect = oracles.l2_deriv_distance(
                cs.values[i], cs.values[j], pts, 0
            )
            got = distance(spec, cs.curve(i), cs.curve(j))
            assert got == pytest.approx(expect, abs=1e-10)


def test_deriv_l2_order1_matches_oracle():
    cs = random_curves(3, size=31, seed=12, smooth=True)
    spec = SemiMetricSpec.deriv_l2(order=1)
    pts = cs.grid.points
    for i in range(3):
        for j in range(i, 3):
            expect = oracles.l2_deriv_distance(cs.values[i], cs.values[j], pts, 1)
            assert distance(spec, cs.curve(i), cs.curve(j)) == pytest.approx(
                expect, abs=1e-10
            )


def test_distance_matrix_symmetry_and_zero_diagonal_exact():
    cs = random_curves(12, seed=13)
    d = distance_matrix(SemiMetricSpec.deriv_l2(order=1), cs)
    assert np.array_equal(d, d.T)
    assert (np.diag(d) == 0.0).all()
    assert (d[~np.eye(12, dtype=bool)] > 0).all()


def test_distance_matrix_cross():
    a = random_curves(3, seed=14)
    b = random_curves(5, seed=15)
    spec = SemiMetricSpec.deriv_l2()
    d = distance_matrix(spec, a, b)
    assert d.shape == (3, 5)
    assert d[1, 2] == pytest.approx(distance(spec, a.curve(1), b.curve(2)), abs=1e-12)


def test_blockwise_pairwise_equals_naive():
    # n*T large enough that the block loop runs more than once
    rng = np.random.default_rng(16)
    f = rng.standard_normal((300, 101))
    w = rng.uniform(0.01, 1.0, 101)
    got = pairwise_from_features(f, f, w)
    diff = f[:, None, :] - f[None, :, :]
    naive = np.sqrt(np.einsum("ijk,k->ij", diff**2, w))
    assert_allclose(got, naive, atol=1e-10)


def test_pairwise_from_features_matches_naive_in_both_shapes():
    rng = np.random.default_rng(19)
    w = rng.uniform(0.01, 1.0, 17)
    f = rng.standard_normal((40, 17))
    f[5] = f[2]  # a duplicate curve
    q = rng.standard_normal((7, 17))
    q[3] = f[11]  # a query equal to a training curve

    def naive(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return np.sqrt(np.einsum("ijk,k->ij", diff**2, w))

    own = pairwise_from_features(f, f, w)
    assert own.shape == (40, 40)
    assert_allclose(own, naive(f, f), rtol=1e-13, atol=1e-15)
    assert np.array_equal(own, own.T)
    assert np.all(np.diag(own) == 0.0)
    assert own[2, 5] == 0.0 and own[5, 2] == 0.0

    cross = pairwise_from_features(q, f, w)
    assert cross.shape == (7, 40)
    assert_allclose(cross, naive(q, f), rtol=1e-13, atol=1e-15)
    assert cross[3, 11] == 0.0
    assert np.all(np.delete(cross[3], 11) > 0.0)


def test_grid_mismatch_rejected():
    a = random_curves(3, size=11, seed=17)
    b = random_curves(3, size=13, seed=18)
    with pytest.raises(ValueError):
        distance_matrix(SemiMetricSpec.deriv_l2(), a, b)


def test_pca_projection_distance_matches_explicit_eigh():
    cs = random_curves(20, seed=19)
    spec = train_projection(SemiMetricSpec.pca_projection(dim=2), cs)
    # independent reconstruction of the projection scores
    qw = cs.grid.trapezoid_weights
    sq = np.sqrt(qw)
    m = (cs.values * sq) .T @ (cs.values * sq) / len(cs)
    vals, vecs = np.linalg.eigh(m)
    top = vecs[:, ::-1][:, :2]
    for k in range(2):
        lead = np.argmax(np.abs(top[:, k]))
        if top[lead, k] < 0:
            top[:, k] = -top[:, k]
    scores = (cs.values * sq) @ top
    expect = np.sqrt(((scores[:, None, :] - scores[None, :, :]) ** 2).sum(axis=2))
    got = distance_matrix(spec, cs)
    assert_allclose(got, expect, atol=1e-8)


def test_pca_scores_do_not_depend_on_the_curves_sharing_the_call():
    cs = random_curves(600, size=101, seed=23)
    spec = train_projection(SemiMetricSpec.pca_projection(dim=3), cs)
    whole = feature_matrix(spec, cs)
    for rows in (1, 8, 13):
        parts = [feature_matrix(spec, cs.subset(slice(lo, lo + rows)))
                 for lo in range(0, len(cs), rows)]
        assert np.array_equal(np.vstack(parts), whole)


def test_pca_projection_training_is_deterministic():
    cs = random_curves(15, seed=20)
    s1 = train_projection(SemiMetricSpec.pca_projection(dim=3), cs)
    s2 = train_projection(SemiMetricSpec.pca_projection(dim=3), cs)
    assert np.array_equal(s1.basis, s2.basis)


def test_pca_projection_untrained_rejected():
    cs = random_curves(4, seed=21)
    with pytest.raises(ValueError):
        feature_matrix(SemiMetricSpec.pca_projection(dim=2), cs)


def test_pca_dim_bounded_by_sample():
    cs = random_curves(3, size=10, seed=22)
    with pytest.raises(ValueError):
        train_projection(SemiMetricSpec.pca_projection(dim=4), cs)


def test_semimetric_ignores_constant_shift_at_order1():
    cs = random_curves(2, size=25, seed=23, smooth=True)
    spec = SemiMetricSpec.deriv_l2(order=1)
    shifted = CurveSet(cs.grid, cs.values + 7.5)
    d0 = distance(spec, cs.curve(0), cs.curve(1))
    d1 = distance(spec, shifted.curve(0), shifted.curve(1))
    assert d1 == pytest.approx(d0, abs=1e-9)
    # shifting ONE curve by a constant is invisible to the derivative metric
    assert distance(spec, cs.curve(0), shifted.curve(0)) == pytest.approx(
        0.0, abs=1e-9
    )


def test_small_ball_fraction_monotone_and_saturates():
    cs = random_curves(30, seed=24)
    spec = SemiMetricSpec.deriv_l2()
    x = cs.curve(4)
    d = distance_matrix(spec, CurveSet(cs.grid, x.values[None, :]), cs)[0]
    hs = np.linspace(d[d > 0].min(), d.max(), 12)
    fracs = [small_ball_fraction(spec, cs, x, float(h)) for h in hs]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0
    # agrees with a direct count
    for h, f in zip(hs, fracs):
        assert f == pytest.approx(np.mean(d <= h))


def test_small_ball_fraction_validation():
    cs = random_curves(5, seed=25)
    with pytest.raises(ValueError):
        small_ball_fraction(SemiMetricSpec.deriv_l2(), cs, cs.curve(0), 0.0)


def test_feature_weights_shapes():
    cs = random_curves(6, seed=26)
    spec_d = SemiMetricSpec.deriv_l2()
    assert feature_weights(spec_d, cs.grid).shape == (cs.grid.size,)
    spec_p = train_projection(SemiMetricSpec.pca_projection(dim=2), cs)
    assert_allclose(feature_weights(spec_p, cs.grid), np.ones(2))


def spline_curves(n, seed):
    """Smooth curves plus noise on a non-uniform grid of 41 points."""
    rng = np.random.default_rng(seed)
    g = Grid(np.sort(np.r_[-1.0, 1.0, rng.uniform(-1, 1, 39)]))
    freq = rng.uniform(0.5, 4.0, (n, 1))
    vals = np.sin(freq * g.points) + 0.3 * rng.standard_normal((n, g.size))
    return CurveSet(g, vals)


@pytest.mark.parametrize("order, degree", [(1, 3), (2, 3), (1, 5), (2, 5)])
def test_bspline_distances_match_a_loop_over_derivatives(order, degree):
    a, b = spline_curves(9, seed=40), spline_curves(9, seed=40).subset(slice(4, 9))
    spec = SemiMetricSpec.deriv_l2(order, "bspline", knots=10, degree=degree)

    def loop(x, y):
        dx = [derivative(c, order, "bspline", knots=10, degree=degree) for c in x]
        dy = [derivative(c, order, "bspline", knots=10, degree=degree) for c in y]
        return np.array([[np.sqrt(integrate(Curve(x.grid, (u.values - v.values) ** 2)))
                          for v in dy] for u in dx])

    assert_allclose(distance_matrix(spec, a, b), loop(a, b), rtol=1e-10, atol=0)
    d = distance_matrix(spec, a)
    off = ~np.eye(len(a), dtype=bool)
    assert_allclose(d[off], loop(a, a)[off], rtol=1e-10, atol=0)
    assert np.array_equal(d, d.T)
    assert (np.diag(d) == 0.0).all()
    # identical curves, in two sets, are exactly 0 apart
    assert (distance_matrix(spec, a.subset([3, 3]), a.subset([3]))[:, 0] == 0.0).all()


@pytest.mark.parametrize("order, degree, rank", [(1, 3, 13), (2, 3, 12), (1, 5, 15)])
def test_bspline_features_have_the_rank_of_the_spline_derivative(order, degree, rank):
    # knots + degree + 1 coefficients, less the polynomials of degree < order
    cs = spline_curves(5, seed=41)
    spec = SemiMetricSpec.deriv_l2(order, "bspline", knots=10, degree=degree)
    assert feature_matrix(spec, cs).shape == (5, rank)
    assert np.array_equal(feature_weights(spec, cs.grid), np.ones(rank))


def test_bspline_feature_map_is_cached_once_per_equal_grid_and_read_only():
    pts = spline_curves(1, seed=42).grid.points
    g1, g2 = Grid(pts), Grid(pts.copy())
    assert g1 is not g2
    p1 = _spline_features(g1, 1, 10, 3)
    hits = _spline_features.cache_info().hits
    assert _spline_features(g2, 1, 10, 3) is p1
    assert _spline_features.cache_info().hits == hits + 1
    assert not p1.flags.writeable
    assert not _spline_operator(g1, 1, 10, 3).flags.writeable


def test_bspline_grid_too_short_keeps_its_message_and_exit_code(tmp_path, capsys):
    message = "20 knots with degree 3 need at least 24 grid points, got 21"
    cs = random_curves(4, size=21, seed=43)
    spec = SemiMetricSpec.deriv_l2(1, "bspline")
    for call in (lambda: feature_matrix(spec, cs), lambda: feature_weights(spec, cs.grid),
                 lambda: distance_matrix(spec, cs)):
        with pytest.raises(ValueError, match=message):
            call()
    curves_f, resp_f = tmp_path / "c.csv", tmp_path / "y.csv"
    write_curves_csv(curves_f, cs)
    write_responses_csv(resp_f, np.arange(4.0))
    code = cli_main(["--output-dir", str(tmp_path / "out"), "fit", "--curves", str(curves_f),
                     "--responses", str(resp_f), "--deriv-method", "bspline",
                     "--order", "1", "--grid-size", "3"])
    assert code == EXIT_COMPUTE == 4
    assert message in capsys.readouterr().err
