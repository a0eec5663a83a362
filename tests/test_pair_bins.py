"""Binned pair sums shared by cross-validation, one metric per trained
basis, in-place kernel weights, and the grid read from each pair once."""

import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.spatial.distance import squareform

import funvar._blocks as blocks
import funvar.estimators as estimators
from funvar.bench import ExperimentConfig, PipelineConfig, fit_pipeline, run_replication
from funvar.curves import CurveSet, uniform_grid
from funvar.estimators import (
    PairBins,
    TrainedMetric,
    cv_bandwidth,
    default_bandwidth_grid,
    fit_mean,
    fit_variance,
    predict_mean_set,
    predict_variance_insample,
    predict_variance_set,
    quantile_grid,
)
from funvar.kernels import KERNEL_KINDS, POLICY_ERROR, EmptyNeighborhoodError, weight_matrix
from funvar.semimetric import SemiMetricSpec, distance_matrix

import oracles

SPEC0 = SemiMetricSpec.deriv_l2()


def random_set(n, seed, size=9):
    rng = np.random.default_rng(seed)
    cs = CurveSet(uniform_grid(size), rng.standard_normal((n, size)))
    return cs, rng.standard_normal(n)


def edge_case_instance():
    """Duplicate curves (d_ij = 0 for i != j), pairs exactly on every grid
    candidate, and a candidate below every positive distance."""
    rng = np.random.default_rng(44)
    cs, y = random_set(16, 44)
    cs = CurveSet(cs.grid, np.vstack([cs.values, cs.values[:3]]))
    y = np.concatenate([y, rng.standard_normal(3)])
    d = distance_matrix(SPEC0, cs)
    grid = default_bandwidth_grid(d, 8)
    assert np.isin(grid, d).all()
    tiny = 0.5 * float(d[d > 0].min())
    return d, y, np.sort(np.append(grid, tiny))


def random_instance():
    cs, y = random_set(30, 7)
    d = distance_matrix(SPEC0, cs)
    return d, y, default_bandwidth_grid(d, 12)


@pytest.mark.parametrize("make", [edge_case_instance, random_instance])
@pytest.mark.parametrize("kernel", KERNEL_KINDS)
def test_loo_fits_off_the_bins_match_the_weight_matrix_path(make, kernel):
    d, y, hs = make()
    bins = PairBins(d, hs, kernel)
    fits = bins.loo_fits(y)
    for j, h in enumerate(hs):
        w, fb = weight_matrix(d, h, kernel, exclude_diag=True)
        assert_array_equal(bins.empty[:, j], fb)
        assert bins.fallback_rates[j] == fb.sum() / len(y)
        # S - T/h^p cancels when a neighbor sits just inside h: the triangle
        # kernel on the random instance is 3.6e-12 off the weights
        np.testing.assert_allclose(fits[:, j], w @ y, rtol=1e-10, atol=1e-12)
    if make is edge_case_instance:
        # at the smallest bandwidth only the six duplicates have neighbors
        assert bins.empty[:, 0].sum() == len(y) - 6
        assert 0 < bins.empty[:, 1].sum() < bins.empty[:, 0].sum()


def count_calls(monkeypatch):
    """Count weight_matrix calls and PairBins constructions in the estimators."""
    calls = {"weight_matrix": 0, "PairBins": 0}

    def counted_weights(*args, **kwargs):
        calls["weight_matrix"] += 1
        return weight_matrix(*args, **kwargs)

    class CountedBins(PairBins):
        def __init__(self, *args):
            calls["PairBins"] += 1
            super().__init__(*args)

    monkeypatch.setattr(estimators, "weight_matrix", counted_weights)
    monkeypatch.setattr(estimators, "PairBins", CountedBins)
    return calls


@pytest.mark.parametrize("self_inclusion, in_sample_fits", [
    ("include_self", 3),  # the mean once, then one per variance stage
    ("leave_one_out", 4),  # plus the leave-one-out mean behind the residuals
])
def test_replication_bins_once_and_weighs_only_in_sample_fits(
    monkeypatch, self_inclusion, in_sample_fits
):
    calls = count_calls(monkeypatch)
    cfg = ExperimentConfig("ex2", n=60, self_inclusion=self_inclusion)
    rec = run_replication(cfg, 0)
    assert not rec.failed
    # three cross-validations (h_m and both h_v) read one set of bins
    assert calls == {"weight_matrix": in_sample_fits, "PairBins": 1}


def test_pipeline_bins_each_metric_once(monkeypatch):
    calls = count_calls(monkeypatch)
    cs, y = random_set(40, 8)
    pca = SemiMetricSpec.pca_projection(2)
    fit = fit_pipeline(cs, y, PipelineConfig(
        SPEC0, "quadratic", [("residual", pca, None), ("direct", SPEC0, None)], grid_size=10))
    assert calls["PairBins"] == 2
    metric = fit.mean.metric
    grid = metric.grid(10)
    assert metric.pair_bins("quadratic", grid) is metric.pair_bins("quadratic", grid)
    cv = cv_bandwidth(cs, y, metric, "quadratic", grid)
    assert calls["PairBins"] == 2
    assert cv.bandwidth == fit.cv_m.bandwidth
    assert_array_equal(cv.scores, fit.cv_m.scores)


def test_a_metric_keeps_only_its_last_binning():
    cs, y = random_set(300, 8)
    metric = TrainedMetric(SPEC0, cs)
    grids = [metric.grid(20) * (1 + k / 100) for k in range(30)]
    tracemalloc.start()
    try:
        metric.pair_bins("quadratic", grids[0])
        one = tracemalloc.get_traced_memory()[0]
        for hs in grids[1:]:  # each grid binned anew
            cv_bandwidth(cs, y, metric, "quadratic", hs)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2 * one
    assert metric.pair_bins("quadratic", grids[-1]) is metric.pair_bins("quadratic", grids[-1])


def test_stages_that_share_a_spec_share_its_metric(monkeypatch):
    calls = count_calls(monkeypatch)
    cs, y = random_set(40, 8)
    pca = SemiMetricSpec.pca_projection(2)
    fit = fit_pipeline(cs, y, PipelineConfig(
        SPEC0, "quadratic", [("residual", SPEC0, None), ("direct", pca, None),
                             ("residual", pca, None)], grid_size=10))
    assert calls["PairBins"] == 2
    metrics = [v.metric for v in fit.variances]
    assert metrics[0] is fit.mean.metric
    assert metrics[1] is metrics[2] and metrics[1] is not metrics[0]


def test_pipeline_predict_builds_each_query_block_once_and_drops_it(monkeypatch):
    cs, y = random_set(40, 8)
    xs, _ = random_set(25, 9)
    pca = SemiMetricSpec.pca_projection(2)
    fit = fit_pipeline(cs, y, PipelineConfig(
        SPEC0, "quadratic", [("residual", SPEC0, None),
                             ("direct", SemiMetricSpec.deriv_l2(1), None),
                             ("direct", pca, None), ("residual", pca, None)], grid_size=10))
    want_mean = predict_mean_set(fit.mean, xs)
    want = [predict_variance_set(v, xs) for v in fit.variances]
    built = []
    real = estimators.pairwise_from_features

    def counting(fa, fb, w):
        # every earlier block, the mean's first, was last used by an earlier fit
        assert all(ref() is None for ref in built)
        out = real(fa, fb, w)
        built.append(weakref.ref(out))
        return out

    monkeypatch.setattr(estimators, "pairwise_from_features", counting)
    mean, stages = fit.predict(xs)
    assert len(built) == 3  # the mean's metric, order 1, the PCA metric
    for got, expect in zip((mean, *stages), (want_mean, *want)):
        assert len(got) == len(expect)
        for a, b in zip(got, expect):
            assert_array_equal(a, b)


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
def test_given_bandwidth_pipeline_matches_the_oracles(kernel):
    cs, y = random_set(12, 9)
    d = distance_matrix(SPEC0, cs)
    h_m, h_v = (float(np.quantile(d[d > 0], q)) for q in (0.4, 0.6))
    fit = fit_pipeline(cs, y, PipelineConfig(
        SPEC0, kernel, [("residual", SPEC0, h_v), ("direct", SPEC0, h_v)], h_m=h_m))
    assert fit.cv_m is None and fit.cv_v == (None, None)
    dl, yl = d.tolist(), y.tolist()
    means = oracles.insample_means(dl, h_m, kernel, yl)
    r2 = [(yi - mi) ** 2 for yi, mi in zip(yl, means)]
    residual, direct = (predict_variance_insample(v)[0] for v in fit.variances)
    for i in range(len(y)):
        assert fit.mean.fitted()[0][i] == pytest.approx(means[i], rel=1e-10, abs=1e-12)
        want_r = oracles.variance_residual(dl[i], h_v, kernel, r2)
        assert residual[i] == pytest.approx(want_r, rel=1e-10, abs=1e-12)
        want_d = oracles.variance_direct(dl[i], h_v, dl[i], h_m, kernel, yl)
        assert direct[i] == pytest.approx(want_d, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("kernel", ["quadratic", "uniform"])
def test_a_300_candidate_grid_bins_in_uint16_and_matches_the_oracle(kernel):
    cs, y = random_set(40, 10)
    fit = fit_pipeline(cs, y, PipelineConfig(SPEC0, kernel, grid_size=300))
    metric = fit.mean.metric
    grid = metric.grid(300)
    assert grid.size > 255
    assert metric.pair_bins(kernel, grid).bins.dtype == np.uint16
    dl, yl = metric.dist.tolist(), y.tolist()
    for h, score, rate in zip(grid, fit.cv_m.scores, fit.cv_m.fallback_rates):
        want, n_fb = oracles.loo_cv_score(dl, yl, h, kernel)
        assert score == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert rate == n_fb / len(y)


@pytest.mark.parametrize("kernel, side", [("quadratic", "right"), ("uniform", "left")])
def test_bins_are_the_first_bandwidth_each_pair_counts_for(kernel, side):
    d, _, hs = edge_case_instance()
    want = np.searchsorted(hs, d, side=side)
    np.fill_diagonal(want, hs.size)
    assert_array_equal(PairBins(d, hs, kernel).bins, want)


def reference_weights(dist, h, kernel, exclude_diag=False):
    """The weights as np.where over fresh temporaries, then normalized."""
    u = dist / h
    p = {"quadratic": 2, "uniform": 0, "triangle": 1}[kernel]
    k = np.where((u >= 0) & (u <= 1), 1.0 - u**p if p else 1.0, 0.0)
    d = np.array(dist, dtype=float)
    if exclude_diag:
        np.fill_diagonal(k, 0.0)
        np.fill_diagonal(d, np.inf)
    totals = k.sum(axis=1)
    empty = totals == 0.0
    for i in np.flatnonzero(empty):
        k[i, np.argmin(d[i])] = 1.0
    return k / k.sum(axis=1)[:, None], empty


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
@pytest.mark.parametrize("exclude_diag", [False, True])
def test_in_place_weights_are_bit_identical_to_the_reference(kernel, exclude_diag):
    d, _, hs = edge_case_instance()
    d = d.copy()
    d[0, 5] = -0.5 * hs[3]  # negative and NaN distances get zero weight
    d[1, 2] = np.nan
    for h in hs:
        w, fb = weight_matrix(d, h, kernel, exclude_diag=exclude_diag)
        want_w, want_fb = reference_weights(d, h, kernel, exclude_diag)
        assert_array_equal(w, want_w)
        assert_array_equal(fb, want_fb)
    # wide; tall over three row blocks of about 128k entries (6896 rows);
    # rows longer than a block; and a square matrix whose diagonal crosses
    # every block (10 of 112 rows)
    queries, _ = random_set(33000, 45)
    tall = distance_matrix(SPEC0, queries.subset(np.arange(20000)),
                           queries.subset(np.arange(19)))
    wide = distance_matrix(SPEC0, queries.subset([0, 1]), queries)
    square = distance_matrix(SPEC0, queries.subset(np.arange(1100)))
    for other in (d[:5], tall, wide, square):
        for h in (hs[0], hs[4]):
            w, fb = weight_matrix(other, h, kernel, exclude_diag=exclude_diag)
            want_w, want_fb = reference_weights(other, h, kernel, exclude_diag)
            assert_array_equal(w, want_w)
            assert_array_equal(fb, want_fb)
    # fallback rows in the first and the last block of the tall matrix
    h = hs[4]
    _, want_fb = reference_weights(tall, h, kernel, exclude_diag)
    assert want_fb[:6896].any() and want_fb[13792:].any()
    with pytest.raises(EmptyNeighborhoodError, match=f"^{want_fb.sum()} rows "):
        weight_matrix(tall, h, kernel, POLICY_ERROR, exclude_diag)


def test_grid_from_the_upper_triangle_matches_every_off_diagonal_entry(monkeypatch):
    # from n = 512 the pairs take several triangle blocks and are read in place
    monkeypatch.setattr(blocks, "usable_cpus", lambda: 2)
    rng = np.random.default_rng(12)
    for n, size in ((7, 5), (30, 20), (41, 33), (600, 20)):
        # small integer curves: many tied distances
        cs = CurveSet(uniform_grid(3), rng.integers(0, 4, size=(n, 3)).astype(float))
        d = distance_matrix(SPEC0, cs)
        off = d[~np.eye(n, dtype=bool)]
        qs = np.linspace(0.05, 1.0, size)
        want = np.unique(np.quantile(off[off > 0], qs, method="inverted_cdf"))
        assert_array_equal(default_bandwidth_grid(d, size), want)
        assert_array_equal(TrainedMetric(SPEC0, cs).grid(size), want)
    def odd_matrix(n):
        """A matrix that no distance gives: zeros, -0.0 and negatives (left
        out), ties, inf (kept) and NaN (left out), in and out of the upper
        triangle."""
        d = rng.integers(-2, 5, size=(n, n)).astype(float)
        special = rng.random((n, n))
        d[special < 0.1] = np.nan
        d[special > 0.9] = np.inf
        d[(0.45 < special) & (special < 0.5)] = -0.0
        d[(0.5 < special) & (special < 0.55)] = -np.inf
        return d

    for n, size in ((2, 1), (9, 4), (40, 20), (61, 300), (600, 20), (700, 1), (1100, 300)):
        for _ in range(5 if n < 600 else 2):
            d = odd_matrix(n)
            upper = squareform(d, checks=False)
            if not (upper > 0).any():
                with pytest.raises(ValueError, match="no positive distance"):
                    default_bandwidth_grid(d, size)
                continue
            assert_array_equal(default_bandwidth_grid(d, size), quantile_grid(upper, size))
    # a fifth of the pairs far below the rest, in the histogram's lowest cell
    # with the zeros, -0.0, NaN and negatives; and a matrix with no positive pair
    d = rng.integers(1, 5, size=(800, 800)).astype(float)
    special = rng.random((800, 800))
    d[special < 0.2] = 1e-9 * rng.integers(1, 4, size=(800, 800))[special < 0.2]
    d[(0.2 < special) & (special < 0.3)] = 0.0
    d[(0.3 < special) & (special < 0.35)] = -0.0
    d[(0.35 < special) & (special < 0.4)] = np.nan
    d[(0.4 < special) & (special < 0.45)] = -1.0
    for size in (1, 20, 300):
        assert_array_equal(default_bandwidth_grid(d, size),
                           quantile_grid(squareform(d, checks=False), size))
    for n in (4, 600):
        d = np.zeros((n, n))
        d[0, 1] = d[2, 3] = np.nan
        d[1, 0] = d[3, 2] = 1.0  # below the diagonal: left out
        with pytest.raises(ValueError, match="no positive distance"):
            default_bandwidth_grid(d, 3)
    # pieces of one row each, and of several rows; the last piece's
    # rectangle d[a:n, n:] is empty
    for piece in (1, 100):
        monkeypatch.setattr(estimators, "GRID_PIECE", piece)
        for n in (512, 600):
            d = odd_matrix(n)
            for size in (1, 20, 300):
                assert_array_equal(default_bandwidth_grid(d, size),
                                   quantile_grid(squareform(d, checks=False), size))


def test_the_grid_of_a_large_matrix_reads_its_pairs_in_place():
    cs, _ = random_set(1200, 14)
    d = distance_matrix(SPEC0, cs)
    want = quantile_grid(squareform(d, checks=False), 20)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid = default_bandwidth_grid(d, 20)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert_array_equal(grid, want)
    # a copy of the pairs alone would take d.nbytes / 2
    assert peak < d.nbytes / 8


def test_grid_picks_the_inverted_cdf_quantiles_of_numpy():
    rng = np.random.default_rng(13)
    sizes = [*range(1, 401), *rng.integers(401, 100_000, 8)]
    for n in sizes:
        # continuous values, and heavy ties among a few integers
        for x in (rng.random(n), rng.integers(0, 4, n).astype(float)):
            x[0] = 1.0  # at least one positive distance
            pos = x[x > 0]
            for size in (1, 2, 20, 300):
                qs = np.array([1.0]) if size == 1 else np.linspace(0.05, 1.0, size)
                want = np.unique(np.quantile(pos, qs, method="inverted_cdf"))
                assert_array_equal(quantile_grid(x, size), want)


def test_cv_with_a_given_dist_never_trains_the_spec():
    # dim 12 exceeds the 9-point grid, so training this projection would raise
    cs, y = random_set(30, 7)
    d = distance_matrix(SPEC0, cs)
    hs = default_bandwidth_grid(d, 12)
    metric = TrainedMetric(SemiMetricSpec.pca_projection(12), cs, d)
    cv = cv_bandwidth(cs, y, metric, "quadratic", hs)
    for h, score in zip(hs, cv.scores):
        assert score == pytest.approx(oracles.loo_cv_score(d, y, h, "quadratic")[0], rel=1e-12)
    # nor do the fits on that metric, nor their in-sample predictions
    fit = fit_mean(cs, y, metric, bandwidth=cv.bandwidth)
    w, _ = weight_matrix(d, cv.bandwidth)
    for method in ("residual", "direct"):
        vfit = fit_variance(method, fit, metric, bandwidth=cv.bandwidth)
        v_hat, _, _ = predict_variance_insample(vfit)
        want = w @ vfit.pseudo - (0.0 if method == "residual" else (w @ y) ** 2)
        assert_allclose(v_hat, np.maximum(want, 0.0), rtol=1e-12, atol=1e-12)

