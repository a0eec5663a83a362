"""Row blocks of the distances and the kernel smooths on the shared pool:
the same bits as the whole-matrix computations, at any number of workers."""

import os
import signal
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.spatial.distance import cdist, pdist, squareform

import funvar._blocks as blocks
from funvar.bench import ExperimentConfig, run_experiment, serialize_report
from funvar.curves import CurveSet, uniform_grid
from funvar.estimators import TrainedMetric, default_bandwidth_grid
from funvar.kernels import (
    KERNEL_KINDS,
    POLICY_ERROR,
    EmptyNeighborhoodError,
    weight_matrix,
)
from funvar.semimetric import SemiMetricSpec, distance_matrix, pairwise_from_features
from funvar.simulate import SimSpec, gen_dataset

SPEC0 = SemiMetricSpec.deriv_l2()


@pytest.fixture(scope="module")
def ex2():
    """The ex2 training set at n = 2000, its distances and responses."""
    ds = gen_dataset(SimSpec("ex2", 2000, 0, 0))
    return ds, TrainedMetric(SPEC0, ds.curves)


def random_set(n, seed, size=9):
    rng = np.random.default_rng(seed)
    return CurveSet(uniform_grid(size), rng.standard_normal((n, size)))


def one_worker(monkeypatch):
    monkeypatch.setattr(blocks, "usable_cpus", lambda: 1)


def two_workers(monkeypatch):
    monkeypatch.setattr(blocks, "usable_cpus", lambda: 2)


def assert_smooth_is_the_weights_times_the_values(d, y, h, kernel, exclude_diag):
    w, fb = weight_matrix(d, h, kernel, exclude_diag=exclude_diag)
    got, got_fb = weight_matrix(d, h, kernel, exclude_diag=exclude_diag, values=y)
    assert_array_equal(got, w @ y)
    assert_array_equal(got_fb, fb)
    return fb


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
@pytest.mark.parametrize("exclude_diag", [False, True])
def test_smooth_equals_weights_times_values_on_ex2_at_n2000(ex2, kernel, exclude_diag):
    ds, metric = ex2
    hs = metric.grid(20)
    for h in (hs[0], hs[5], hs[15]):
        assert_smooth_is_the_weights_times_the_values(
            metric.dist, ds.y, h, kernel, exclude_diag)


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
def test_smooth_equals_weights_times_values_on_other_shapes(kernel):
    rng = np.random.default_rng(81)
    curves = random_set(5000, 82)
    # query rows unaligned with the 8-row blocks of 5000 x 500 and 777 x 333
    for rows, cols in ((5000, 500), (777, 333)):
        d = distance_matrix(SPEC0, curves.subset(np.arange(rows)),
                            curves.subset(np.arange(cols)))
        hs = default_bandwidth_grid(d[:cols], 20)
        y = rng.standard_normal(cols)
        for exclude_diag in (False, True):
            for h in (hs[0], hs[10]):
                assert_smooth_is_the_weights_times_the_values(d, y, h, kernel, exclude_diag)
    # 3600 x 19 in one block, and 20000 x 19 over three blocks of 6896 rows
    # on the pool, with fallback rows in the first block and the last
    many = random_set(20000, 83)
    for rows, last in ((3600, 0), (20000, 13792)):
        d = distance_matrix(SPEC0, many.subset(np.arange(rows)), curves.subset(np.arange(19)))
        h = default_bandwidth_grid(d[:19], 20)[4]
        y = rng.standard_normal(19)
        for exclude_diag in (False, True):
            fb = assert_smooth_is_the_weights_times_the_values(d, y, h, kernel, exclude_diag)
            assert fb[:6896].any() and fb[last:].any()


def test_the_error_policy_counts_every_empty_row():
    curves = random_set(3600, 83)
    d = distance_matrix(SPEC0, curves, curves.subset(np.arange(19)))
    h = default_bandwidth_grid(d[:19], 20)[4]
    _, fb = weight_matrix(d, h)
    assert 1 < fb.sum() < len(fb)
    for values in (None, np.ones(19)):
        with pytest.raises(EmptyNeighborhoodError, match=f"^{fb.sum()} rows "):
            weight_matrix(d, h, policy=POLICY_ERROR, values=values)


def test_smooth_rejects_values_of_the_wrong_length():
    d = distance_matrix(SPEC0, random_set(4, 84))
    with pytest.raises(ValueError, match="values"):
        weight_matrix(d, 1.0, values=np.ones(3))


def test_distances_above_the_threshold_are_the_whole_matrix_ones(ex2, monkeypatch):
    two_workers(monkeypatch)
    ds, metric = ex2
    n = len(ds.curves)
    assert n * n >= blocks.MIN_CELLS
    scaled = metric.features * np.sqrt(metric.weights)
    d = pairwise_from_features(metric.features, metric.features, metric.weights)
    assert_array_equal(d, squareform(pdist(scaled)))
    assert_array_equal(d, d.T)
    assert not np.diag(d).any()
    assert_array_equal(metric.dist, d)
    assert_array_equal(metric.cross(ds.curves), d)
    fq = metric.features[:1500] + 0.5  # 1500 query curves
    assert_array_equal(
        pairwise_from_features(fq, metric.features, metric.weights),
        cdist(fq * np.sqrt(metric.weights), scaled),
    )


def test_a_pass_below_the_threshold_runs_inline(monkeypatch):
    calls = []
    monkeypatch.setattr(blocks, "run", lambda fn, bounds: calls.append(len(bounds)))
    two_workers(monkeypatch)
    assert blocks.task_count(blocks.MIN_CELLS - 1) == 1
    assert blocks.task_count(blocks.MIN_CELLS) > 1
    f = np.zeros((511, 3))
    pairwise_from_features(f, f, np.ones(3))  # one pdist, no blocks at all
    pairwise_from_features(f, f[:2], np.ones(3))
    weight_matrix(np.zeros((511, 511)), 1.0)
    assert calls == [1, 1]
    pairwise_from_features(np.zeros((512, 3)), np.zeros((512, 3)), np.ones(3))
    assert calls[-1] > 1


def test_split_covers_the_rows_in_aligned_ranges():
    assert blocks.split(0, 4) == []
    assert blocks.split(5, 8) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    for n, parts, align in ((2000, 16, 16), (777, 16, 40), (7, 3, 8), (3600, 5, 1720)):
        bounds = blocks.split(n, parts, align)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        assert all(lo % align == 0 and lo < hi for lo, hi in bounds)
        assert len(bounds) <= parts


def test_one_worker_gives_the_same_bytes(ex2, monkeypatch):
    ds, metric = ex2
    f, w = metric.features, metric.weights
    h = metric.grid(20)[3]
    cfg = ExperimentConfig("ex2", n=600, n_reps=2, base_seed=3)
    assert cfg.n * cfg.n >= blocks.MIN_CELLS
    results = []
    for workers in (two_workers, one_worker):
        workers(monkeypatch)
        d = pairwise_from_features(f, f, w)
        cross = pairwise_from_features(f[:1500], f, w)
        smooth = [weight_matrix(d, h, kernel, exclude_diag=exclude_diag, values=ds.y)
                  for kernel in KERNEL_KINDS for exclude_diag in (False, True)]
        weights = weight_matrix(cross, h)[0]
        results.append((d, cross, smooth, weights, serialize_report(run_experiment(cfg))))
    (d2, cross2, smooth2, w2, report2), (d1, cross1, smooth1, w1, report1) = results
    assert_array_equal(d2, d1)
    assert_array_equal(cross2, cross1)
    for (v2, fb2), (v1, fb1) in zip(smooth2, smooth1):
        assert_array_equal(v2, v1)
        assert_array_equal(fb2, fb1)
    assert_array_equal(w2, w1)
    assert report2 == report1


def test_more_workers_than_cpus_switching_often_write_every_block(ex2, monkeypatch):
    ds, metric = ex2
    f, w = metric.features[:1200], metric.weights
    h = metric.grid(20)[3]

    def passes():
        d = pairwise_from_features(f, f, w)
        return d, pairwise_from_features(f[:700], f, w), weight_matrix(d, h, values=ds.y[:1200])

    one_worker(monkeypatch)
    want = passes()
    monkeypatch.setattr(blocks, "usable_cpus", lambda: 8)
    monkeypatch.setattr(blocks, "_pool", None)  # a fresh pool of 8 threads
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: got.append(passes()))
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        if blocks._pool is not None:
            blocks._pool.shutdown()
    assert not worker.is_alive() and len(got) == 1
    (d, cross, (v, fb)), (want_d, want_cross, (want_v, want_fb)) = got[0], want
    assert_array_equal(d, want_d)
    assert_array_equal(cross, want_cross)
    assert_array_equal(v, want_v)
    assert_array_equal(fb, want_fb)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    two_workers(monkeypatch)
    f = np.random.default_rng(85).standard_normal((600, 5))
    want = pairwise_from_features(f, f, np.ones(5))  # the pool now has threads
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: answer within 30 s, or be killed
        try:
            signal.alarm(30)
            same = np.array_equal(pairwise_from_features(f, f, np.ones(5)), want)
            os.write(write, b"1" if same else b"0")
        finally:
            os._exit(0)
    os.close(write)
    os.waitpid(pid, 0)
    with os.fdopen(read, "rb") as answer:
        assert answer.read() == b"1"
