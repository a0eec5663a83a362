import json
import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import funvar.bench as bench
from funvar.bench import (
    ChemoConfig,
    ExperimentAbortError,
    ExperimentConfig,
    PipelineConfig,
    chemo_workflow,
    convergence_check,
    design_default_spec,
    discrete_mse,
    run_experiment,
    run_replication,
    serialize_report,
)
from funvar.curves import CurveSet, uniform_grid, write_curves_csv, write_responses_csv
from funvar.estimators import (
    BandwidthSelectionError,
    TrainedMetric,
    cv_bandwidth,
    default_bandwidth_grid,
    fit_mean,
    fit_variance,
    predict_mean_set,
    predict_variance_insample,
    predict_variance_set,
    squared_residuals,
)
from funvar.kernels import POLICY_FALLBACK
from funvar.semimetric import SemiMetricSpec, distance_matrix, train_projection
from funvar.simulate import SimSpec, dataset_from_parts, gen_dataset


def test_discrete_mse_hand_values():
    assert discrete_mse([1.0, 1.0], [0.0, 2.0]) == 1.0
    assert discrete_mse([3.0], [0.0]) == 9.0
    assert discrete_mse([2.0, 5.0, -1.0], [2.0, 5.0, -1.0]) == 0.0


def test_discrete_mse_validation():
    with pytest.raises(ValueError):
        discrete_mse([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        discrete_mse([], [])
    with pytest.raises(ValueError):
        discrete_mse(np.zeros((2, 2)), np.zeros((2, 2)))


def test_design_default_specs():
    assert design_default_spec("ex1").order == 0
    assert design_default_spec("ex2").order == 0
    assert design_default_spec("ex3").order == 1
    with pytest.raises(ValueError):
        design_default_spec("ex9")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("ex5")
    with pytest.raises(ValueError):
        ExperimentConfig("ex1", n=1)
    with pytest.raises(ValueError):
        ExperimentConfig("ex1", n_reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig("ex1", kernel="gauss")
    with pytest.raises(ValueError):
        ExperimentConfig("ex1", methods=("residual", "residual"))
    with pytest.raises(ValueError):
        ExperimentConfig("ex1", methods=("ratio",))
    with pytest.raises(ValueError):
        ExperimentConfig("ex1", self_inclusion="bogus", methods=("direct",))
    with pytest.raises(ValueError):
        ExperimentConfig("ex1", grid_size=0)
    with pytest.raises(ValueError):
        ChemoConfig("c.csv", "r.csv", kernel="gauss")
    with pytest.raises(ValueError):  # a degree-2 spline has no order-2 derivative
        ChemoConfig("c.csv", "r.csv", mean_order=2, degree=2)


@pytest.mark.parametrize("bad", [
    {"kernel": "gauss"},
    {"kernel": ["quadratic"]},
    {"policy": "bogus"},
    {"self_inclusion": "bogus"},
    {"stages": [("ratio", SemiMetricSpec.deriv_l2(), None)]},
    {"grid_size": 0},
    {"h_m": 0},
    {"h_m": -1.0},
    {"h_m": float("inf")},
    {"h_m": float("nan")},
    {"h_m": True},
    {"h_m": "1.0"},
    {"stages": [("residual", SemiMetricSpec.deriv_l2(), 0.0)]},
    {"stages": [("direct", SemiMetricSpec.deriv_l2(), False)]},
    {"h_m": 10**400},  # an int too large for a float
    {"stages": [("direct", SemiMetricSpec.deriv_l2(), 10**400)]},
])
def test_pipeline_config_refuses_a_bad_field_when_built(bad):
    with pytest.raises(ValueError):
        PipelineConfig(SemiMetricSpec.deriv_l2(), **bad)


def test_pipeline_config_refuses_only_identical_stages():
    spec = SemiMetricSpec.deriv_l2()
    pca_a, pca_b = (train_projection(SemiMetricSpec.pca_projection(1),
                                     gen_dataset(SimSpec("ex1", 10, seed)).curves)
                    for seed in (1, 2))
    # another method, h_v, spec or trained basis makes a stage distinct
    stages = [("residual", spec, None), ("direct", spec, None), ("residual", spec, 1.0),
              ("residual", SemiMetricSpec.deriv_l2(1), None), ("residual", pca_a, None),
              ("residual", pca_b, None)]
    assert len(PipelineConfig(spec, stages=stages).stages) == 6
    for repeat in (("residual", SemiMetricSpec.deriv_l2(), None), ("residual", pca_a, None)):
        with pytest.raises(ValueError, match=r"^duplicate stage: residual on SemiMetricSpec\("):
            PipelineConfig(spec, stages=[*stages, repeat])


@pytest.mark.parametrize("spec", [
    SemiMetricSpec.deriv_l2(1),
    SemiMetricSpec.deriv_l2(2, "bspline", knots=12, degree=4),
    SemiMetricSpec.pca_projection(2),
], ids=["finite_diff", "bspline", "pca"])
def test_pipeline_config_round_trips_through_its_model_fields(spec):
    cfg = PipelineConfig(spec, "triangle", [("direct", SemiMetricSpec.deriv_l2(), 0.7)],
                         0.5, policy="error", self_inclusion="leave_one_out")
    assert PipelineConfig.from_config(cfg.to_config()) == cfg
    assert PipelineConfig.from_config(json.loads(json.dumps(cfg.to_config()))) == cfg
    for key in ("h_m", "h_v"):  # None would mean cross-validation
        with pytest.raises(ValueError):
            PipelineConfig.from_config({**cfg.to_config(), key: None})
    for key in cfg.to_config():
        with pytest.raises(ValueError):
            PipelineConfig.from_config({k: v for k, v in cfg.to_config().items() if k != key})


def test_only_a_one_stage_pipeline_has_model_fields():
    spec = SemiMetricSpec.deriv_l2()
    for stages in ((), [("residual", spec, 1.0), ("direct", spec, 1.0)]):
        with pytest.raises(ValueError):
            PipelineConfig(spec, stages=stages, h_m=1.0).to_config()


def test_config_dict_has_no_runtime_fields():
    d = ExperimentConfig("ex2").to_dict()
    assert "threads" not in d and "wall_clock" not in d
    assert d["semimetric"]["order"] == 0
    assert d["methods"] == ["residual", "direct"]


def test_replication_with_no_methods_is_minimal():
    cfg = ExperimentConfig("ex1", n=20, n_reps=1, base_seed=5, methods=())
    rec = run_replication(cfg, 0)
    assert not rec.failed
    assert rec.h_m is not None
    assert rec.mse == {} and rec.h_v == {}


def test_known_mean_constant_variance_is_recovered_exactly():
    # v is constant and eps is a sign vector, so the injected pseudo
    # responses are exactly v everywhere and the smoother returns them
    n = 30
    curves = gen_dataset(SimSpec("ex1", n, seed=2)).curves
    rng = np.random.default_rng(3)
    eps = rng.choice([-1.0, 1.0], size=n)
    ds = dataset_from_parts(curves, np.zeros(n), np.full(n, 1.7), eps)
    cfg = ExperimentConfig("ex1", n=n, n_reps=1, methods=("residual",))
    rec = run_replication(cfg, 0, dataset=ds, known_mean=True)
    assert rec.mse["residual"] <= 1e-10


def test_replication_matches_manually_scripted_pipeline():
    cfg = ExperimentConfig("ex2", n=40, n_reps=1, base_seed=3, grid_size=12)
    rec = run_replication(cfg, 1)

    ds = gen_dataset(SimSpec("ex2", 40, 3, 1))
    spec = design_default_spec("ex2")
    dist = distance_matrix(spec, ds.curves)
    metric = TrainedMetric(spec, ds.curves, dist)
    grid = default_bandwidth_grid(dist, 12)
    cv_m = cv_bandwidth(ds.curves, ds.y, metric, "quadratic", grid)
    assert rec.h_m == cv_m.bandwidth
    mfit = fit_mean(ds.curves, ds.y, metric, "quadratic", cv_m.bandwidth,
                    POLICY_FALLBACK)
    pseudo, _ = squared_residuals(mfit, "include_self")
    cv_r = cv_bandwidth(ds.curves, pseudo, metric, "quadratic", grid)
    vfit = fit_variance("residual", mfit, metric, bandwidth=cv_r.bandwidth,
                        pseudo_responses=pseudo)
    v_hat, _, _ = predict_variance_insample(vfit)
    assert rec.h_v["residual"] == cv_r.bandwidth
    assert rec.mse["residual"] == discrete_mse(v_hat, ds.v_true)

    cv_d = cv_bandwidth(ds.curves, ds.y**2, metric, "quadratic", grid)
    vdir = fit_variance("direct", mfit, metric, bandwidth=cv_d.bandwidth,
                        pseudo_responses=ds.y**2)
    d_hat, _, _ = predict_variance_insample(vdir)
    assert rec.h_v["direct"] == cv_d.bandwidth
    assert rec.mse["direct"] == discrete_mse(d_hat, ds.v_true)


def test_replication_runs_with_a_pca_spec():
    cfg = ExperimentConfig("ex2", n=60, spec=SemiMetricSpec.pca_projection(2))
    rec = run_replication(cfg, 0)
    assert not rec.failed, rec.error
    assert set(rec.mse) == {"residual", "direct"}
    assert cfg.to_dict()["semimetric"] == {"kind": "pca_projection", "dim": 2}


def test_pipeline_stages_share_distances_only_under_the_same_metric():
    ds = gen_dataset(SimSpec("ex2", 30, 4))
    spec = design_default_spec("ex2")
    fit = bench.fit_pipeline(
        ds.curves, ds.y,
        bench.PipelineConfig(spec, stages=[("residual", spec, None),
                                           ("direct", SemiMetricSpec.deriv_l2(order=1), 2.0)],
                             grid_size=8),
    )
    res, direct = fit.variances
    assert res.metric is fit.mean.metric
    assert direct.metric is not fit.mean.metric
    assert np.array_equal(direct.metric.dist,
                          distance_matrix(SemiMetricSpec.deriv_l2(order=1), ds.curves))
    assert fit.cv_m.bandwidth == fit.mean.bandwidth
    assert fit.cv_v[0].bandwidth == res.bandwidth
    assert fit.cv_v[1] is None and direct.bandwidth == 2.0


def test_methods_share_the_mean_bandwidth():
    cfg = ExperimentConfig("ex1", n=30, n_reps=1, base_seed=8)
    rec = run_replication(cfg, 0)
    only_res = run_replication(
        ExperimentConfig("ex1", n=30, n_reps=1, base_seed=8, methods=("residual",)), 0
    )
    assert rec.h_m == only_res.h_m
    assert rec.mse["residual"] == only_res.mse["residual"]


def test_experiment_single_rep_median_is_that_rep():
    cfg = ExperimentConfig("ex1", n=25, n_reps=1, base_seed=4)
    report = run_experiment(cfg)
    assert report.medians["residual"] == report.records[0].mse["residual"]
    assert report.n_failed == 0
    assert report.wall_clock > 0


def test_experiment_median_matches_numpy():
    cfg = ExperimentConfig("ex1", n=20, n_reps=5, base_seed=6, methods=("direct",))
    report = run_experiment(cfg)
    vals = [rec.mse["direct"] for rec in report.records]
    assert report.medians["direct"] == float(np.median(vals))


def test_thread_count_does_not_change_the_serialized_report():
    cfg = ExperimentConfig("ex2", n=25, n_reps=6, base_seed=1)
    a = serialize_report(run_experiment(cfg, threads=1))
    b = serialize_report(run_experiment(cfg, threads=4))
    assert a == b
    data = json.loads(a)
    assert "wall_clock" not in a
    assert len(data["replications"]) == 6
    assert set(data["median_mse"]) == {"residual", "direct"}


def test_failed_replication_record_fields(monkeypatch):
    def boom(*args, **kwargs):
        raise BandwidthSelectionError("no qualified bandwidth")

    monkeypatch.setattr(bench, "cv_bandwidth", boom)
    rec = run_replication(ExperimentConfig("ex1", n=20, n_reps=1), 3)
    assert rec.failed
    assert rec.rep == 3
    assert "qualified" in rec.error
    assert rec.h_m is None and rec.mse == {}


def test_experiment_aborts_when_too_many_replications_fail(monkeypatch):
    def boom(*args, **kwargs):
        raise BandwidthSelectionError("nope")

    monkeypatch.setattr(bench, "cv_bandwidth", boom)
    with pytest.raises(ExperimentAbortError):
        run_experiment(ExperimentConfig("ex1", n=20, n_reps=4))


def test_experiment_tolerates_isolated_failures(monkeypatch):
    real = cv_bandwidth
    calls = {"k": 0}

    def flaky(*args, **kwargs):
        calls["k"] += 1
        if calls["k"] == 1:  # first call belongs to rep 0's mean stage
            raise BandwidthSelectionError("nope")
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "cv_bandwidth", flaky)
    cfg = ExperimentConfig("ex1", n=20, n_reps=5, base_seed=2, methods=("residual",))
    report = run_experiment(cfg, threads=1)
    assert report.n_failed == 1
    assert report.records[0].failed
    good = [rec.mse["residual"] for rec in report.records[1:]]
    assert report.medians["residual"] == float(np.median(good))


def test_report_totals_aggregate_over_replications():
    cfg = ExperimentConfig("ex1", n=20, n_reps=3, base_seed=9)
    report = run_experiment(cfg)
    data = report.to_dict()
    for key in ("residual_pseudo", "residual_eval", "direct_eval"):
        assert data["fallback_totals"][key] == sum(
            rec.fallbacks[key] for rec in report.records
        )
    assert data["clip_totals"]["direct"] == sum(
        rec.clips["direct"] for rec in report.records
    )


def test_convergence_check_validation():
    with pytest.raises(ValueError):
        convergence_check("ex1", [50], 2, 0)
    with pytest.raises(ValueError):
        convergence_check("ex1", [50, 30], 2, 0)


def test_convergence_check_repeated_n_gives_identical_medians():
    rows = convergence_check("ex1", [20, 20], 3, base_seed=1, threads=2)
    assert rows[0]["n"] == rows[1]["n"] == 20
    assert rows[0]["median_mse"] == rows[1]["median_mse"]
    assert rows[0]["n_failed"] == rows[1]["n_failed"]


# ------------------------------------------------------------------ chemo


def bump_curves(n, seed, grid_size=101):
    rng = np.random.default_rng(seed)
    g = uniform_grid(grid_size, 0.0, 1.0)
    centers = rng.uniform(0.3, 0.7, size=(n, 1))
    widths = rng.uniform(0.06, 0.15, size=(n, 1))
    vals = np.exp(-((g.points[None, :] - centers) ** 2) / (2 * widths**2))
    return CurveSet(g, vals)


def write_chemo_files(tmp_path, curves, y):
    cf = tmp_path / "curves.csv"
    rf = tmp_path / "resp.csv"
    write_curves_csv(cf, curves)
    write_responses_csv(rf, np.asarray(y, dtype=float))
    return str(cf), str(rf)


def test_chemo_constant_responses_give_vanishing_mse(tmp_path):
    curves = bump_curves(60, 0)
    cf, rf = write_chemo_files(tmp_path, curves, np.full(60, 5.0))
    cfg = ChemoConfig(cf, rf, train_size=40, candidate_orders=(2, 0, 1),
                      knots=12, degree=4)
    report = chemo_workflow(cfg)
    # constant responses leave only rounding noise in every residual
    assert all(v < 1e-30 for v in report.val_mse.values())
    assert set(report.val_mse) == {0, 1, 2}
    assert report.chosen_order == min((2, 0, 1), key=lambda o: report.val_mse[o])
    assert np.all(np.abs(report.v_hat) < 1e-14)
    assert np.all(report.r_hat < 1e-28)


def test_chemo_requires_heldout_curves(tmp_path):
    curves = bump_curves(10, 1)
    cf, rf = write_chemo_files(tmp_path, curves, np.zeros(10))
    with pytest.raises(ValueError):
        chemo_workflow(ChemoConfig(cf, rf, train_size=10))
    with pytest.raises(ValueError):
        chemo_workflow(ChemoConfig(cf, rf, train_size=150))


def test_chemo_rejects_mismatched_responses(tmp_path):
    curves = bump_curves(12, 2)
    cf, rf = write_chemo_files(tmp_path, curves, np.zeros(11))
    with pytest.raises(ValueError):
        chemo_workflow(ChemoConfig(cf, rf, train_size=8))


def test_chemo_matches_manually_scripted_pipeline(tmp_path):
    n, n_train = 55, 40
    curves = bump_curves(n, 3)
    rng = np.random.default_rng(30)
    y = np.sin(curves.values.sum(axis=1) / 10.0) + 0.05 * rng.standard_normal(n)
    cf, rf = write_chemo_files(tmp_path, curves, y)
    cfg = ChemoConfig(cf, rf, train_size=n_train, mean_order=1,
                      candidate_orders=(0, 1), knots=10, degree=3, grid_size=10)
    report = chemo_workflow(cfg)

    train = curves.subset(np.arange(n_train))
    val = curves.subset(np.arange(n_train, n))
    spec_m = cfg.semimetric(1)
    dist_m = distance_matrix(spec_m, train)
    metric_m = TrainedMetric(spec_m, train, dist_m)
    grid_m = default_bandwidth_grid(dist_m, 10)
    cv_m = cv_bandwidth(train, y[:n_train], metric_m, "quadratic", grid_m)
    assert report.h_m == cv_m.bandwidth
    mfit = fit_mean(train, y[:n_train], metric_m, "quadratic", cv_m.bandwidth,
                    POLICY_FALLBACK)
    m_val, _ = predict_mean_set(mfit, val)
    r_val = (y[n_train:] - m_val) ** 2
    assert_array_equal(report.r_hat, r_val)
    pseudo, _ = squared_residuals(mfit)

    for order in (0, 1):
        spec_v = cfg.semimetric(order)
        dist_v = distance_matrix(spec_v, train)
        metric_v = TrainedMetric(spec_v, train, dist_v)
        grid_v = default_bandwidth_grid(dist_v, 10)
        cv_v = cv_bandwidth(train, pseudo, metric_v, "quadratic", grid_v)
        assert report.h_v[order] == cv_v.bandwidth
        vfit = fit_variance("residual", mfit, metric_v, bandwidth=cv_v.bandwidth,
                            pseudo_responses=pseudo)
        v_hat, _, _ = predict_variance_set(vfit, val)
        assert report.val_mse[order] == discrete_mse(v_hat, r_val)
        if order == report.chosen_order:
            assert_array_equal(report.v_hat, v_hat)

    assert report.chosen_order == min((0, 1), key=lambda o: report.val_mse[o])
    data = report.to_dict()
    assert data["chosen_order"] == report.chosen_order
    assert len(data["pairs"]) == n - n_train
    assert data["pairs"][0]["r_squared"] == r_val[0]


def test_worker_count_is_capped_by_reps_and_cpus(monkeypatch):
    # the CPUs counted are the process's affinity mask, or every CPU on a
    # platform without one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert bench.worker_count(1, 100) == 1
    assert bench.worker_count(3, 100) == 3
    assert bench.worker_count(64, 100) == 4
    assert bench.worker_count(64, 2) == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert bench.worker_count(64, 100) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert bench.worker_count(8, 100) == 1
    with pytest.raises(ValueError):
        bench.worker_count(0, 5)


def test_worker_count_counts_only_the_cpus_the_process_may_use(monkeypatch):
    # pinned to one CPU of eight (taskset, cpuset)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert bench.worker_count(4, 10) == 1


def test_run_experiment_starts_the_capped_pool(monkeypatch):
    started = []
    real_pool = bench.ThreadPoolExecutor

    def recording_pool(max_workers):
        started.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
    monkeypatch.setattr(bench, "ThreadPoolExecutor", recording_pool)
    cfg = ExperimentConfig("ex1", n=12, n_reps=3, base_seed=4, grid_size=5)
    report = run_experiment(cfg, threads=64)
    assert started == [2]
    assert serialize_report(report) == serialize_report(run_experiment(cfg))
