"""The benchmark's own tests: ``python3 -m pytest perfbench``."""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import funvar  # noqa: E402
import spans  # noqa: E402
from funvar import estimators, kernels, semimetric  # noqa: E402
from funvar.curves import CurveSet, uniform_grid  # noqa: E402


def test_tracing_wraps_every_alias_and_restores_originals():
    original = kernels.weight_matrix
    rec = spans.SpanRecorder()
    cs = CurveSet(uniform_grid(11), [[float(i * j) for j in range(11)] for i in range(4)])
    spec = semimetric.SemiMetricSpec.deriv_l2()
    with rec.installed():
        assert estimators.weight_matrix is kernels.weight_matrix is funvar.weight_matrix
        assert estimators.weight_matrix is not original
        with rec.root("bench.run_replication", 0):
            fit = estimators.fit_mean(cs, [0.0, 1.0, 2.0, 3.0], spec, bandwidth=5.0)
            estimators.predict_mean_set(fit, cs)
        estimators.predict_mean_set(fit, cs)  # outside a root: not recorded
    assert kernels.weight_matrix is original and estimators.weight_matrix is original
    m = rec.metrics(1, 0.0)
    assert m["kernels.weight_matrix.calls"] == 1
    assert m["kernels.weight_matrix.cells"] == 16
    assert m["semimetric.pairwise_from_features.calls"] == 2
    # the self block in fit_mean is new, the query block repeats the same inputs
    assert m["semimetric.pairwise_from_features.useful_frac"] == 0.5
    selfs = spans.self_times(rec.spans)
    overhead = sum(s.overhead for s in rec.spans if s.parent >= 0)
    assert abs(sum(selfs) + overhead - m["trace.wall_s"]) < 1e-9


def test_self_test_passes():
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--self-test"],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stdout + r.stderr
