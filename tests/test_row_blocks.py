"""Row blocks of the distances and the kernel smooths on the shared pool:
the same bits as the whole-matrix computations, at any number of workers,
and temporaries that come from the C allocator's heap and go back to it."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.spatial.distance import cdist, pdist, squareform

import funvar._blocks as blocks
from funvar.bench import ExperimentConfig, canonical_json, run_experiment, run_replication, \
    serialize_report
from funvar.curves import CurveSet, uniform_grid
from funvar.estimators import PairBins, TrainedMetric, default_bandwidth_grid
from funvar.kernels import (
    KERNEL_KINDS,
    POLICY_ERROR,
    EmptyNeighborhoodError,
    weight_matrix,
)
import funvar.semimetric as semimetric
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


def test_self_distances_on_one_cpu_make_no_condensed_copy(monkeypatch):
    # the triangle blocks run inline, each with its own small pdist, so no
    # n(n - 1)/2 vector of the whole set is made beside the output
    one_worker(monkeypatch)
    f = np.random.default_rng(87).standard_normal((2000, 3))
    tracemalloc.start()
    try:
        d = pairwise_from_features(f, f, np.ones(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_array_equal(d, squareform(pdist(f)))
    assert peak < 1.25 * d.nbytes


def test_a_pass_below_the_threshold_runs_inline(monkeypatch):
    two_workers(monkeypatch)
    here = threading.current_thread()

    def threads(cells):
        seen = []
        blocks.run(lambda lo, hi: seen.append(threading.current_thread()),
                   [(0, 1), (1, 2), (2, 3)], cells)
        assert len(seen) == 3
        return set(seen)

    assert blocks.inline(blocks.MIN_CELLS - 1) and not blocks.inline(blocks.MIN_CELLS)
    assert threads(blocks.MIN_CELLS - 1) == {here}
    assert here not in threads(blocks.MIN_CELLS)
    one_worker(monkeypatch)
    assert blocks.inline(blocks.MIN_CELLS) and threads(blocks.MIN_CELLS) == {here}
    # no pass of the package below the threshold hands a block to the pool
    two_workers(monkeypatch)
    pool = blocks._shared_pool
    monkeypatch.setattr(blocks, "_shared_pool", lambda: pytest.fail("pool used"))
    f = np.random.default_rng(86).standard_normal((512, 3))
    g = f[:511]
    d = pairwise_from_features(g, g, np.ones(3))  # one pdist, no blocks at all
    assert_array_equal(d, squareform(pdist(g)))
    assert_array_equal(pairwise_from_features(g, f[:2], np.ones(3)), cdist(g, f[:2]))
    weight_matrix(d, 1.0, values=np.ones(511))
    PairBins(d, np.array([0.5, 1.0]), "quadratic").loo_fits(np.ones(511))
    # and one at the threshold does
    used = []
    monkeypatch.setattr(blocks, "_shared_pool", lambda: used.append(1) or pool())
    assert_array_equal(pairwise_from_features(f, f, np.ones(3)), squareform(pdist(f)))
    assert used


@pytest.mark.parametrize("n", [1, 2, 3, 40, 511])
def test_the_kernel_helpers_are_scipys_distance_functions(n):
    f = np.random.default_rng(88 + n).standard_normal((n, 4))
    g = f[::-1, 1:]  # a non-contiguous view
    for x in (f, g):
        v = semimetric.euclidean_pdist(x)
        assert_array_equal(v, pdist(x))
        assert_array_equal(semimetric.to_square(v), squareform(pdist(x)))
        assert_array_equal(pairwise_from_features(x, x, np.ones(x.shape[1])),
                           squareform(pdist(x)))
        m = squareform(pdist(x))
        for sq in (m, m[::-1, ::-1], m[:, :]):
            assert_array_equal(semimetric.to_condensed(sq), squareform(sq, checks=False))
        y = f[: min(n, 3), : x.shape[1]] + 0.5
        out = np.full((n, len(y)), np.nan)
        assert semimetric.euclidean_cdist(x, y, out=out) is out
        assert_array_equal(out, cdist(x, y))
        assert_array_equal(semimetric.euclidean_cdist(x, y), cdist(x, y))
    # no pairs: squareform's 1 x 1 zero matrix, and back to no pairs
    assert_array_equal(semimetric.to_square(np.empty(0)), squareform(np.empty(0)))
    assert semimetric.to_condensed(np.zeros((1, 1))).shape == (0,)
    with pytest.raises(ValueError):
        semimetric.to_square(np.ones(2))
    with pytest.raises(ValueError):
        semimetric.to_condensed(np.ones((2, 3)))


def test_a_scipy_build_without_a_kernel_file_names_it():
    with pytest.raises(ImportError, match="_no_such_kernels"):
        semimetric._scipy_extension("_no_such_kernels")


FAULTS_PER_REPLICATION = """
import resource, sys
from funvar.bench import ExperimentConfig, run_replication
from funvar.simulate import SimSpec, gen_dataset
cfg = ExperimentConfig("ex3", n=200, n_reps=1)
ds = gen_dataset(SimSpec("ex3", 200, 0, 0))
for k in range(5):  # warm up
    run_replication(cfg, k, dataset=ds)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for k in range(20):
    run_replication(cfg, k, dataset=ds)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's malloc")
def test_small_replications_reuse_the_heap_without_page_faults():
    # the temporaries of an ex3 replication at n = 200 are up to a block of
    # 1 MB: with glibc's first mmap threshold (128 KB) each one would be
    # mapped afresh, about 110 page faults a replication
    src = str(Path(blocks.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", FAULTS_PER_REPLICATION], env=env, check=True,
                       capture_output=True, text=True)
    assert float(r.stdout) <= 10


def test_a_failed_block_raises_once_every_block_has_finished(monkeypatch):
    monkeypatch.setattr(blocks, "inline", lambda cells: False)  # the pool, on any CPUs
    finished = []

    def fn(lo, hi):
        if lo == 0:
            raise KeyError("first block")
        time.sleep(0.3)
        finished.append(lo)
        if lo == 2:
            raise ValueError("last block")

    # block 0's error, though block 2 raises one too
    with pytest.raises(KeyError):
        blocks.run(fn, [(0, 1), (1, 2), (2, 3)], blocks.MIN_CELLS)
    assert sorted(finished) == [1, 2]


def test_row_blocks_cover_the_rows_in_aligned_ranges():
    assert blocks.row_blocks(0, 9) == [] and blocks.triangle_blocks(0) == []
    assert blocks.row_blocks(5, 1 << 20) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    assert blocks.row_blocks(5, 0) == [(0, 5)]
    for n, m, align in ((2000, 2000, 8), (777, 333, 8), (7, 1 << 20, 8), (20000, 19, 8),
                        (3600, 5, 1720), (1500, 2000, 1)):
        bounds = blocks.row_blocks(n, m, align)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        assert all(lo % align == 0 and lo < hi for lo, hi in bounds)
        # about BLOCK_CELLS entries a block, or one aligned group of rows
        rows = bounds[0][1]
        assert rows == n or rows == align or rows * m <= blocks.BLOCK_CELLS < (rows + align) * m
    assert blocks.row_blocks(20000, 19, 8)[:2] == [(0, 6896), (6896, 13792)]
    for n in (1, 2, 511, 512, 600, 2000, 5000):
        bounds = blocks.triangle_blocks(n)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        pairs = [sum(n - i for i in range(lo, hi)) for lo, hi in bounds]
        assert sum(pairs) == n * (n + 1) // 2
        assert len(bounds) == -(-sum(pairs) // blocks.BLOCK_CELLS)
        # equal shares of the pairs, to within one row
        assert max(pairs) - min(pairs) <= 2 * n


def test_chunks_are_groups_of_8_rows_of_about_twice_the_pool_threshold():
    assert blocks.CHUNK_CELLS == 2 * blocks.MIN_CELLS
    assert blocks.chunk_rows(500) == 1048  # the benchmark's 500 training curves
    for m in (1, 7, 500, 2000, 65535, 10**5, 10**7):
        rows = blocks.chunk_rows(m)
        assert rows % 8 == 0
        assert rows == 8 or rows * m <= blocks.CHUNK_CELLS < (rows + 8) * m
        assert rows == 8 or rows * m >= blocks.MIN_CELLS  # still big enough for the pool


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
        bins = PairBins(metric.dist, metric.grid(20), "quadratic")
        bins = (bins.bins, bins.den, bins.fallback_rates, bins.loo_fits(ds.y))
        results.append((d, cross, smooth, weights, bins,
                        serialize_report(run_experiment(cfg))))
    (d2, cross2, smooth2, w2, bins2, report2), (d1, cross1, smooth1, w1, bins1, report1) = results
    assert_array_equal(d2, d1)
    assert_array_equal(cross2, cross1)
    for (v2, fb2), (v1, fb1) in zip(smooth2, smooth1):
        assert_array_equal(v2, v1)
        assert_array_equal(fb2, fb1)
    assert_array_equal(w2, w1)
    for a2, a1 in zip(bins2, bins1):
        assert_array_equal(a2, a1)
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


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
def test_a_result_is_unchanged_by_a_later_call_with_other_values(kernel):
    rng = np.random.default_rng(87)
    d = distance_matrix(SPEC0, random_set(200, 88))
    hs = default_bandwidth_grid(d, 20)
    bins = PairBins(d, hs, kernel)
    y1, y2 = rng.standard_normal(200), rng.standard_normal(200)
    fits = bins.loo_fits(y1)
    want = fits.copy()
    smooth, fb = weight_matrix(d, hs[3], kernel, values=y1)
    want_smooth, want_fb = smooth.copy(), fb.copy()
    for y in (y2, y1 * 1e6):
        bins.loo_fits(y)
        PairBins(d, hs[::2], kernel).loo_fits(y)
        weight_matrix(d, hs[10], kernel, exclude_diag=True, values=y)
    assert_array_equal(fits, want)
    assert_array_equal(smooth, want_smooth)
    assert_array_equal(fb, want_fb)
    # and equal to a fresh thread's
    fresh = []
    thread = threading.Thread(target=lambda: fresh.append(
        (PairBins(d, hs, kernel).loo_fits(y1), weight_matrix(d, hs[3], kernel, values=y1)[0])))
    thread.start()
    thread.join()
    assert_array_equal(fresh[0][0], want)
    assert_array_equal(fresh[0][1], want_smooth)


def test_a_pass_keeps_no_memory_once_it_returns():
    # the temporaries of the binning, the binned sums and the values= smooth
    # go back to the heap with the pass; tracemalloc does not count the
    # pages the heap keeps
    d = distance_matrix(SPEC0, random_set(200, 89))
    hs = default_bandwidth_grid(d, 20)
    y = np.random.default_rng(90).standard_normal(200)
    traced = []

    def passes():
        tracemalloc.start()
        try:
            results = (PairBins(d, hs, "quadratic").loo_fits(y), weight_matrix(d, hs[3], values=y))
            del results
            traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=passes)
    thread.start()
    thread.join()
    assert traced[0] < 64 << 10


ONE_REPLICATION = """
import sys
from funvar.bench import ExperimentConfig, canonical_json, run_replication
print(canonical_json(run_replication(ExperimentConfig("ex3", n=200, base_seed=4),
                                     int(sys.argv[1])).to_dict()), end="")
"""


def test_replications_in_one_process_match_fresh_processes():
    # the second replication runs on the buffers the first one left behind
    cfg = ExperimentConfig("ex3", n=200, base_seed=4)
    here = [canonical_json(run_replication(cfg, k).to_dict()) for k in (0, 1)]
    src = str(Path(blocks.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = [subprocess.run([sys.executable, "-c", ONE_REPLICATION, str(k)], env=env,
                            check=True, capture_output=True, text=True).stdout
             for k in (0, 1)]
    assert here == fresh
    assert not any(json.loads(r)["failed"] for r in here)
