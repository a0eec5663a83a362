import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import funvar.estimators as estimators
from funvar.curves import Curve, CurveSet, uniform_grid
from funvar.estimators import (
    SELF_INCLUSION_MODES,
    BandwidthSelectionError,
    TrainedMetric,
    cv_bandwidth,
    default_bandwidth_grid,
    fit_mean,
    fit_variance,
    predict_mean,
    predict_mean_set,
    predict_variance,
    predict_variance_insample,
    predict_variance_set,
    smoother_matrix,
    squared_residuals,
)
from funvar.kernels import POLICY_ERROR, EmptyNeighborhoodError, weight_matrix
from funvar.semimetric import SemiMetricSpec, distance_matrix, train_projection
from funvar.simulate import SimSpec, gen_dataset

import oracles

SPEC0 = SemiMetricSpec.deriv_l2()


def const_curves(levels, size=3):
    """Constant curves: pairwise distance |li - lj| * sqrt(2) on [-1, 1]."""
    levels = np.asarray(levels, dtype=float)
    g = uniform_grid(size)
    return CurveSet(g, np.outer(levels, np.ones(size)))


def random_instance(n, seed, size=9):
    rng = np.random.default_rng(seed)
    g = uniform_grid(size)
    cs = CurveSet(g, rng.standard_normal((n, size)))
    y = rng.standard_normal(n)
    return cs, y


# ---------------------------------------------------------------- mean fit


def test_fit_mean_validation():
    cs, y = random_instance(4, 0)
    with pytest.raises(ValueError):
        fit_mean(cs, y[:3], SPEC0, bandwidth=1.0)
    with pytest.raises(ValueError):
        fit_mean(cs.subset([0]), y[:1], SPEC0, bandwidth=1.0)
    with pytest.raises(ValueError):
        fit_mean(cs, y, SPEC0, bandwidth=0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        fit_mean(cs, y, SPEC0, bandwidth=10**400)  # an int too large for a float
    bad = y.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        fit_mean(cs, bad, SPEC0, bandwidth=1.0)


def test_two_identical_curves_average_their_responses():
    cs = const_curves([0.5, 0.5])
    fit = fit_mean(cs, [1.0, 3.0], SPEC0, bandwidth=1.0)
    pred = predict_mean(fit, cs.curve(0))
    assert pred.value == pytest.approx(2.0)
    assert not pred.fallback


def test_constant_responses_predict_the_constant():
    cs, _ = random_instance(8, 1)
    fit = fit_mean(cs, np.full(8, 4.25), SPEC0, bandwidth=50.0)
    x = Curve(cs.grid, np.zeros(cs.grid.size))
    assert predict_mean(fit, x).value == pytest.approx(4.25)


def test_hand_computed_three_point_mean():
    # levels 0, 0.25, 2 with uniform kernel, h = 1: only the first two are
    # within range of x = 0.25, so the prediction is the plain average.
    cs = const_curves([0.0, 0.25, 2.0])
    fit = fit_mean(cs, [1.0, 5.0, 100.0], SPEC0, kernel="uniform", bandwidth=1.0)
    pred = predict_mean(fit, cs.curve(1))
    assert pred.value == pytest.approx(3.0)


def test_predict_mean_matches_bruteforce_on_random_instances():
    for seed in range(10):
        cs, y = random_instance(5, seed)
        fit = fit_mean(cs, y, SPEC0, kernel="triangle", bandwidth=2.5)
        x = Curve(cs.grid, np.random.default_rng(seed + 99).standard_normal(cs.grid.size))
        d = distance_matrix(SPEC0, CurveSet(cs.grid, x.values[None, :]), cs)[0]
        expect = oracles.mean_estimate(d, 2.5, "triangle", y)
        got = predict_mean(fit, x)
        if expect is None:
            assert got.fallback
        else:
            assert got.value == pytest.approx(expect, abs=1e-10)


def test_isolated_training_point_returns_its_own_response():
    cs = const_curves([0.0, 10.0, 20.0])
    fit = fit_mean(cs, [7.0, 8.0, 9.0], SPEC0, bandwidth=1.0)
    assert predict_mean(fit, cs.curve(1)).value == pytest.approx(8.0)


def test_predict_rejects_foreign_grid():
    cs, y = random_instance(3, 2)
    fit = fit_mean(cs, y, SPEC0, bandwidth=1.0)
    other = uniform_grid(cs.grid.size, 0.0, 1.0)
    with pytest.raises(ValueError):
        predict_mean(fit, Curve(other, np.zeros(other.size)))


def test_predict_mean_set_matches_pointwise():
    cs, y = random_instance(6, 3)
    xs, _ = random_instance(4, 4)
    fit = fit_mean(cs, y, SPEC0, bandwidth=3.0)
    vals, fbs = predict_mean_set(fit, xs)
    for i in range(4):
        one = predict_mean(fit, xs.curve(i))
        assert vals[i] == pytest.approx(one.value, abs=1e-12)
        assert fbs[i] == one.fallback


# ------------------------------------------------------------- smoother


def test_smoother_identity_below_min_distance():
    cs = const_curves([0.0, 1.0, 2.0])
    fit = fit_mean(cs, [1.0, 2.0, 3.0], SPEC0, bandwidth=1e-6)
    assert_allclose(smoother_matrix(fit), np.eye(3))


def test_smoother_two_identical_curves():
    cs = const_curves([1.0, 1.0])
    fit = fit_mean(cs, [0.0, 1.0], SPEC0, bandwidth=1.0)
    assert_allclose(smoother_matrix(fit), np.full((2, 2), 0.5))


def test_smoother_rows_are_per_point_weights():
    cs, y = random_instance(4, 5)
    fit = fit_mean(cs, y, SPEC0, bandwidth=2.0)
    w = smoother_matrix(fit)
    assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    d = distance_matrix(SPEC0, cs)
    for i in range(4):
        expect = oracles.nw_weights(d[i], 2.0, "quadratic")
        assert_allclose(w[i], expect, atol=1e-12)


# ------------------------------------------------------------- residuals


def test_constant_responses_have_zero_residuals():
    cs, _ = random_instance(5, 6)
    fit = fit_mean(cs, np.full(5, 2.0), SPEC0, bandwidth=5.0)
    r, fb = squared_residuals(fit)
    assert_allclose(r, 0.0, atol=1e-25)
    assert not fb.any()


def test_identity_smoother_gives_zero_residuals():
    cs = const_curves([0.0, 1.0, 2.0])
    fit = fit_mean(cs, [3.0, -1.0, 4.0], SPEC0, bandwidth=1e-9)
    r, _ = squared_residuals(fit, "include_self")
    assert_allclose(r, 0.0)


def test_residuals_match_oracle_both_modes():
    cs, y = random_instance(6, 7)
    fit = fit_mean(cs, y, SPEC0, bandwidth=2.0)
    d = distance_matrix(SPEC0, cs)
    for mode, loo in (("include_self", False), ("leave_one_out", True)):
        r, _ = squared_residuals(fit, mode)
        means = oracles.insample_means(d.tolist(), 2.0, "quadratic", y, loo)
        expect = [(yi - mi) ** 2 for yi, mi in zip(y, means)]
        assert_allclose(r, expect, atol=1e-10)


def test_leave_one_out_flags_isolated_points():
    cs = const_curves([0.0, 0.1, 9.0])
    fit = fit_mean(cs, [1.0, 2.0, 3.0], SPEC0, bandwidth=1.0)
    r, fb = squared_residuals(fit, "leave_one_out")
    assert not fb[0] and not fb[1] and fb[2]
    # the isolated point fell back to its nearest other point's response
    assert r[2] == pytest.approx((3.0 - 2.0) ** 2)


def test_unknown_self_inclusion_mode():
    cs, y = random_instance(3, 8)
    fit = fit_mean(cs, y, SPEC0, bandwidth=1.0)
    with pytest.raises(ValueError):
        squared_residuals(fit, "jackknife")


# ---------------------------------------------------------- variance fits


def test_constant_responses_give_zero_variance_both_methods():
    cs, _ = random_instance(6, 9)
    y = np.full(6, 3.0)
    fit = fit_mean(cs, y, SPEC0, bandwidth=10.0)
    x = Curve(cs.grid, np.zeros(cs.grid.size))
    vres = fit_variance("residual", fit, SPEC0, bandwidth=10.0)
    assert predict_variance(vres, x).value == pytest.approx(0.0, abs=1e-20)
    vdir = fit_variance("direct", fit, SPEC0, bandwidth=10.0)
    pred = predict_variance(vdir, x)
    assert pred.value == 0.0


def test_residual_variance_matches_eq2_oracle():
    for seed in range(8):
        cs, y = random_instance(5, seed + 20)
        fit = fit_mean(cs, y, SPEC0, bandwidth=2.0)
        r, _ = squared_residuals(fit)
        vfit = fit_variance("residual", fit, SPEC0, bandwidth=1.5)
        rng = np.random.default_rng(seed + 200)
        x = Curve(cs.grid, rng.standard_normal(cs.grid.size))
        d = distance_matrix(SPEC0, CurveSet(cs.grid, x.values[None, :]), cs)[0]
        expect = oracles.variance_residual(d, 1.5, "quadratic", r)
        got = predict_variance(vfit, x)
        if expect is None:
            assert got.fallback
        else:
            assert got.value == pytest.approx(expect, abs=1e-10)
            assert got.value >= 0.0


def test_direct_variance_clips_negative_and_flags():
    # h_v only reaches the nearest neighbor while h_m averages everything:
    # s_hat = 1 but m_hat^2 = (5/3)^2, so the raw value is negative.
    cs = const_curves([0.0, 0.3, 0.6])
    y = np.array([1.0, -1.0, 5.0])
    fit = fit_mean(cs, y, SPEC0, kernel="uniform", bandwidth=10.0)
    vfit = fit_variance("direct", fit, SPEC0, kernel="uniform", bandwidth=0.1)
    pred = predict_variance(vfit, cs.curve(0))
    assert pred.value == 0.0
    assert pred.clipped
    raw = 1.0 - (5.0 / 3.0) ** 2
    assert raw < 0


def test_direct_variance_matches_hand_computation():
    cs = const_curves([0.0, 0.5, 1.0, 2.0])
    y = np.array([2.0, 1.0, -1.0, 0.5])
    fit = fit_mean(cs, y, SPEC0, kernel="uniform", bandwidth=1.0)
    vfit = fit_variance("direct", fit, SPEC0, kernel="uniform", bandwidth=2.0)
    x = cs.curve(0)
    d = [abs(0.0 - l) * math.sqrt(2) for l in (0.0, 0.5, 1.0, 2.0)]
    expect = oracles.variance_direct(d, 2.0, d, 1.0, "uniform", y.tolist())
    got = predict_variance(vfit, x)
    assert got.value == pytest.approx(expect, abs=1e-10)


def test_variance_validation():
    cs, y = random_instance(4, 30)
    fit = fit_mean(cs, y, SPEC0, bandwidth=1.0)
    with pytest.raises(ValueError):
        fit_variance("wavelet", fit, SPEC0, bandwidth=1.0)
    with pytest.raises(ValueError):
        fit_variance("residual", fit, SPEC0, bandwidth=-1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        fit_variance("residual", fit, SPEC0, bandwidth=10**400)
    with pytest.raises(ValueError):
        fit_variance("residual", fit, SPEC0, bandwidth=1.0,
                     pseudo_responses=np.full(4, -1.0))
    with pytest.raises(ValueError):
        fit_variance("residual", fit, SPEC0, bandwidth=1.0,
                     pseudo_responses=np.ones(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_variance("direct", fit, SPEC0, bandwidth=1.0,
                         pseudo_responses=np.r_[1.0, 1.0, 1.0, bad])
    # every method checks the mode, also where it computes no residuals
    with pytest.raises(ValueError):
        fit_variance("direct", fit, SPEC0, bandwidth=1.0, self_inclusion="bogus")
    with pytest.raises(ValueError):
        fit_variance("residual", fit, SPEC0, bandwidth=1.0, self_inclusion="bogus",
                     pseudo_responses=np.ones(4))


def test_a_metric_on_other_curves_is_refused_before_any_smooth(monkeypatch):
    cs, y = random_instance(8, 40)
    fit = fit_mean(cs, y, SPEC0, bandwidth=1.0)
    other = TrainedMetric(SPEC0, random_instance(8, 41)[0])
    calls = []
    real = estimators.weight_matrix

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, "weight_matrix", counting)
    for mode in SELF_INCLUSION_MODES:
        with pytest.raises(ValueError, match="the TrainedMetric is on other training curves"):
            fit_variance("residual", fit, other, bandwidth=1.0, self_inclusion=mode)
    assert calls == []  # the squared residuals were never smoothed


@pytest.mark.parametrize("stage", ["mean", "variance"])
@pytest.mark.parametrize("bad, match", [
    ({"kernel": "bogus"}, "unknown kernel 'bogus'"),
    ({"policy": "nope"}, "unknown policy 'nope'"),
], ids=["kernel", "policy"])
def test_fits_reject_an_unknown_kernel_or_policy(stage, bad, match):
    # refused when the fit is frozen, not first at prediction
    cs, y = random_instance(6, 32)
    if stage == "mean":
        with pytest.raises(ValueError, match=match):
            fit_mean(cs, y, SPEC0, bandwidth=1.0, **bad)
        return
    fit = fit_mean(cs, y, SPEC0, bandwidth=1.0)
    for method in ("residual", "direct"):
        with pytest.raises(ValueError, match=match):
            fit_variance(method, fit, SPEC0, bandwidth=1.0, **bad)


def test_known_mean_injection_reproduces_plain_smoothing():
    # with the true mean injected, the residual estimate is exactly the
    # kernel smooth of the injected pseudo-responses
    cs, y = random_instance(7, 31)
    m_true = np.linspace(-1, 1, 7)
    fit = fit_mean(cs, y, SPEC0, bandwidth=2.0)
    pseudo = (y - m_true) ** 2
    vfit = fit_variance("residual", fit, SPEC0, bandwidth=1.8,
                        pseudo_responses=pseudo)
    x = Curve(cs.grid, np.random.default_rng(310).standard_normal(cs.grid.size))
    d = distance_matrix(SPEC0, CurveSet(cs.grid, x.values[None, :]), cs)[0]
    expect = oracles.variance_residual(d, 1.8, "quadratic", pseudo)
    assert predict_variance(vfit, x).value == pytest.approx(expect, abs=1e-12)


def test_response_shift_invariance():
    cs, y = random_instance(8, 32)
    for c in (1.0, -17.5, 400.0):
        f0 = fit_mean(cs, y, SPEC0, bandwidth=2.0)
        f1 = fit_mean(cs, y + c, SPEC0, bandwidth=2.0)
        r0, _ = squared_residuals(f0)
        r1, _ = squared_residuals(f1)
        assert_allclose(r1, r0, atol=1e-9)
        v0 = fit_variance("residual", f0, SPEC0, bandwidth=1.5)
        v1 = fit_variance("residual", f1, SPEC0, bandwidth=1.5)
        a0, _, _ = predict_variance_insample(v0)
        a1, _, _ = predict_variance_insample(v1)
        assert_allclose(a1, a0, atol=1e-9)


def test_response_scale_equivariance():
    cs, y = random_instance(8, 33)
    c = 3.5
    f0 = fit_mean(cs, y, SPEC0, bandwidth=2.0)
    f1 = fit_mean(cs, c * y, SPEC0, bandwidth=2.0)
    v0, _, _ = predict_variance_insample(fit_variance("residual", f0, SPEC0, bandwidth=1.5))
    v1, _, _ = predict_variance_insample(fit_variance("residual", f1, SPEC0, bandwidth=1.5))
    assert_allclose(v1, c * c * v0, rtol=1e-12)


def test_insample_matches_set_prediction_on_training_curves():
    cs, y = random_instance(9, 34)
    fit = fit_mean(cs, y, SPEC0, bandwidth=2.0)
    vfit = fit_variance("direct", fit, SPEC0, bandwidth=2.5)
    ins = predict_variance_insample(vfit)
    out = predict_variance_set(vfit, cs)
    for a, b in zip(ins, out):
        assert_allclose(a, b, atol=1e-12)


def test_error_policy_propagates_to_prediction():
    cs = const_curves([0.0, 0.1])
    fit = fit_mean(cs, [1.0, 2.0], SPEC0, bandwidth=0.05, policy=POLICY_ERROR)
    far = Curve(cs.grid, np.full(cs.grid.size, 50.0))
    with pytest.raises(EmptyNeighborhoodError):
        predict_mean(fit, far)


# ------------------------------------------------------------ bandwidths


def test_cv_single_candidate_is_selected():
    cs, y = random_instance(5, 40)
    d = distance_matrix(SPEC0, cs)
    res = cv_bandwidth(cs, y, SPEC0, "quadratic", [float(d.max())])
    assert res.bandwidth == pytest.approx(d.max())
    assert res.qualified.all()


def test_cv_scores_match_loo_oracle():
    cs, y = random_instance(6, 41)
    d = distance_matrix(SPEC0, cs)
    cands = [1.0, 2.0, float(d.max())]
    res = cv_bandwidth(cs, y, SPEC0, "triangle", cands)
    for k, h in enumerate(cands):
        score, n_fb = oracles.loo_cv_score(d.tolist(), y.tolist(), h, "triangle")
        assert res.scores[k] == pytest.approx(score, abs=1e-9)
        assert res.fallback_rates[k] == pytest.approx(n_fb / 6)
    qualified_scores = [
        (s, h) for s, h, q in zip(res.scores, cands, res.qualified) if q
    ]
    assert res.bandwidth == min(qualified_scores)[1]


def test_cv_hand_example_three_points():
    # constants 0, 1, 2 with uniform kernel; responses 0, 1, 2.
    # h = 1.5*sqrt(2): each end predicts from the middle (err 1), the middle
    # from the average of the ends (err 0) -> score 2.
    # h = 2.5*sqrt(2): ends predict (1+2)/2=1.5 and (0+1)/2=0.5 (err 2.25 each),
    # middle predicts 1 (err 0) -> score 4.5. The smaller h must win.
    cs = const_curves([0.0, 1.0, 2.0])
    y = [0.0, 1.0, 2.0]
    r2 = math.sqrt(2.0)
    res = cv_bandwidth(cs, y, SPEC0, "uniform", [1.5 * r2, 2.5 * r2])
    assert res.scores[0] == pytest.approx(2.0)
    assert res.scores[1] == pytest.approx(4.5)
    assert res.bandwidth == pytest.approx(1.5 * r2)


def test_cv_prefers_small_h_for_lipschitz_responses():
    levels = np.linspace(0.0, 1.0, 24)
    cs = const_curves(levels)
    y = levels.copy()  # 1/sqrt(2)-Lipschitz in the semimetric, noiseless
    d = distance_matrix(SPEC0, cs)
    small = float(np.quantile(d[d > 0], 0.2))
    res = cv_bandwidth(cs, y, SPEC0, "quadratic", [small, float(d.max())])
    assert res.qualified[0]
    assert res.scores[0] < res.scores[1]
    assert res.bandwidth == pytest.approx(small)


def test_cv_tie_breaks_to_smallest_bandwidth():
    cs = const_curves([0.0, 1.0])
    # both candidates see the single other point -> identical scores
    res = cv_bandwidth(cs, [1.0, 2.0], SPEC0, "uniform", [2.0, 3.0])
    assert res.scores[0] == res.scores[1]
    assert res.bandwidth == 2.0


def test_cv_disqualifies_high_fallback_candidates():
    cs = const_curves([0.0, 1.0, 2.0, 3.0])
    y = [0.0, 1.0, 2.0, 3.0]
    # h far below the minimum gap: every LOO row falls back
    res = cv_bandwidth(cs, y, SPEC0, "quadratic", [1e-6, 10.0])
    assert not res.qualified[0] and res.qualified[1]
    assert res.bandwidth == 10.0
    with pytest.raises(BandwidthSelectionError):
        cv_bandwidth(cs, y, SPEC0, "quadratic", [1e-6, 1e-5])


@pytest.mark.parametrize("kernel", ["quadratic", "triangle", "uniform"])
def test_cv_sweep_matches_loo_oracle_on_edge_cases(kernel):
    rng = np.random.default_rng(44)
    cs, y = random_instance(16, 44)
    # three duplicate curves with their own responses: d_ij = 0 for i != j
    cs = CurveSet(cs.grid, np.vstack([cs.values, cs.values[:3]]))
    y = np.concatenate([y, rng.standard_normal(3)])
    d = distance_matrix(SPEC0, cs)
    grid = default_bandwidth_grid(d, 8)
    assert np.isin(grid, d).all()  # pairs sit exactly on every candidate
    tiny = 0.5 * float(d[d > 0].min())  # every row without a duplicate falls back
    # unsorted, with a duplicate, and the smallest candidate not first
    cands = [grid[5], tiny, grid[0], grid[2], grid[5], grid[-1], grid[1]]
    res = cv_bandwidth(cs, y, TrainedMetric(SPEC0, cs, d), kernel, cands,
                       fallback_threshold=1.0)
    n = len(y)
    scores, fb_rates = [], []
    for k, h in enumerate(cands):
        score, n_fb = oracles.loo_cv_score(d.tolist(), y.tolist(), h, kernel)
        assert res.scores[k] == pytest.approx(score, rel=1e-12, abs=1e-12)
        assert res.fallback_rates[k] == n_fb / n
        scores.append(score)
        fb_rates.append(n_fb / n)
    assert fb_rates[1] == (n - 6) / n
    assert 0 < fb_rates[2] < fb_rates[1]  # some rows fall back, others not
    assert_array_equal(res.candidates, cands)
    assert res.bandwidth == min(zip(scores, cands))[1]


def test_cv_uniform_kernel_counts_a_pair_at_d_equal_h():
    cs = const_curves([0.0, 1.0, 2.0])
    y = [0.0, 3.0, 1.0]
    d = distance_matrix(SPEC0, cs)
    h = float(d[0, 1])
    assert d[1, 2] == h
    metric = TrainedMetric(SPEC0, cs, d)
    uni = cv_bandwidth(cs, y, metric, "uniform", [h])
    quad = cv_bandwidth(cs, y, metric, "quadratic", [h], fallback_threshold=1.0)
    for res, kind in ((uni, "uniform"), (quad, "quadratic")):
        score, n_fb = oracles.loo_cv_score(d.tolist(), y, h, kind)
        assert res.scores[0] == pytest.approx(score, abs=1e-12)
        assert res.fallback_rates[0] == n_fb / 3
    # uniform: the middle point averages both ends; quadratic weighs them 0,
    # so every row falls back to its nearest other point
    assert uni.fallback_rates[0] == 0.0 and quad.fallback_rates[0] == 1.0
    assert uni.scores[0] == pytest.approx(9.0 + 2.5**2 + 4.0)


def test_cv_tie_breaks_to_smallest_bandwidth_in_any_order():
    cs = const_curves([0.0, 1.0])
    res = cv_bandwidth(cs, [1.0, 2.0], SPEC0, "uniform", [3.0, 2.0, 2.5])
    assert res.scores[0] == res.scores[1] == res.scores[2]
    assert res.bandwidth == 2.0


def test_cv_rejects_unknown_kernel_and_misshapen_distances():
    cs, y = random_instance(4, 45)
    with pytest.raises(ValueError):
        cv_bandwidth(cs, y, SPEC0, "gaussian", [1.0])
    d = distance_matrix(SPEC0, cs)
    for bad in (d[:3], d[:, :3], np.vstack([d, d[:1]])):
        with pytest.raises(ValueError, match="self-distance matrix"):
            TrainedMetric(SPEC0, cs, bad)


def test_cv_validation():
    cs, y = random_instance(4, 42)
    with pytest.raises(ValueError):
        cv_bandwidth(cs, y, SPEC0, "quadratic", [])
    with pytest.raises(ValueError):
        cv_bandwidth(cs, y, SPEC0, "quadratic", [-1.0])
    with pytest.raises(ValueError):
        cv_bandwidth(cs, y[:2], SPEC0, "quadratic", [1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            cv_bandwidth(cs, np.r_[y[:3], bad], SPEC0, "quadratic", [1.0])


def test_default_grid_quantiles_match_sort_oracle():
    rng = np.random.default_rng(43)
    cs = CurveSet(uniform_grid(7), rng.standard_normal((9, 7)))
    d = distance_matrix(SPEC0, cs)
    grid = default_bandwidth_grid(d, 6)
    pos = d[~np.eye(9, dtype=bool)]
    pos = pos[pos > 0].tolist()
    expect = sorted({oracles.quantile_sorted(pos, q) for q in np.linspace(0.05, 1.0, 6)})
    assert_allclose(grid, expect)


def test_default_grid_size_one_is_max_distance():
    cs, _ = random_instance(5, 44)
    d = distance_matrix(SPEC0, cs)
    grid = default_bandwidth_grid(d, 1)
    assert grid.shape == (1,)
    assert grid[0] == pytest.approx(d.max())


def test_default_grid_collapses_duplicates():
    d = np.full((3, 3), 4.0)
    np.fill_diagonal(d, 0.0)
    grid = default_bandwidth_grid(d, 10)
    assert_allclose(grid, [4.0])


def test_default_grid_rejects_degenerate_matrices():
    with pytest.raises(ValueError):
        default_bandwidth_grid(np.zeros((3, 3)), 5)
    with pytest.raises(ValueError):
        default_bandwidth_grid(np.zeros((2, 3)), 5)
    with pytest.raises(ValueError):
        default_bandwidth_grid(np.ones((3, 3)), 0)


# ------------------------------------------------------- shared distances


def test_variance_fit_keeps_its_own_pca_basis():
    # two PCA specs compare equal whatever their bases, so the variance fit
    # must not borrow the mean fit's distances
    cs, y = random_instance(12, 50)
    other, _ = random_instance(12, 51)
    spec_m = train_projection(SemiMetricSpec.pca_projection(dim=2), cs)
    spec_v = train_projection(SemiMetricSpec.pca_projection(dim=2), other)
    fit = fit_mean(cs, y, spec_m, bandwidth=2.0)
    vfit = fit_variance("residual", fit, spec_v, bandwidth=2.0)
    d_v = distance_matrix(spec_v, cs)
    assert not np.array_equal(d_v, distance_matrix(spec_m, cs))
    w, _ = weight_matrix(d_v, 2.0)
    v_hat, _, _ = predict_variance_insample(vfit)
    assert np.array_equal(v_hat, w @ vfit.pseudo)
    assert np.array_equal(vfit.metric.dist, d_v)


def test_variance_fit_shares_the_mean_metric_for_the_same_basis():
    cs, y = random_instance(10, 52)
    fit = fit_mean(cs, y, SemiMetricSpec.pca_projection(dim=2), bandwidth=2.0)
    # an untrained spec trains to the same basis on the same curves
    for spec in (fit.spec, SemiMetricSpec.pca_projection(dim=2)):
        assert fit_variance("residual", fit, spec).metric is fit.metric
    assert fit_variance("residual", fit, SPEC0).metric is not fit.metric


def test_a_metric_on_other_curves_is_rejected():
    a, ya = random_instance(12, 53)
    b, _ = random_instance(12, 54)
    other = TrainedMetric(SPEC0, b)
    with pytest.raises(ValueError, match="other training curves"):
        fit_mean(a, ya, other)
    with pytest.raises(ValueError, match="other training curves"):
        cv_bandwidth(a, ya, other, "quadratic", other.grid(5))
    fit = fit_mean(a, ya, SPEC0)
    with pytest.raises(ValueError, match="other training curves"):
        fit_variance("residual", fit, other)
    # a copy of the same curves is the same training set
    same = CurveSet(a.grid, a.values.copy())
    assert fit_mean(same, ya, fit.metric).metric is fit.metric
    assert fit_variance("direct", fit, fit.metric).metric is fit.metric


@pytest.mark.parametrize("design, n, spec", [
    ("ex2", 2000, SPEC0),
    ("ex3", 500, SemiMetricSpec.deriv_l2(1, "bspline")),
    ("ex1", 300, SemiMetricSpec.pca_projection(3)),
])
def test_cross_distances_to_the_training_curves_are_the_self_distances(design, n, spec):
    # predict at the training curves relies on this, bit for bit
    curves = gen_dataset(SimSpec(design, n, 0, 0)).curves
    metric = TrainedMetric(spec, curves)
    assert_array_equal(metric.cross(curves), metric.dist)
