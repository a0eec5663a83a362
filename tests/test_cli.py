import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import funvar
import funvar._blocks as _blocks
import funvar.bench as bench
import funvar.cli as cli
import funvar.estimators as estimators
from funvar._blocks import usable_cpus
from funvar.cli import main, parse_args
from funvar.curves import (
    CurveSet,
    Grid,
    read_curves_csv,
    read_responses_csv,
    uniform_grid,
    write_curves_csv,
    write_responses_csv,
)
from funvar.estimators import (
    VARIANCE_METHODS,
    fit_mean,
    fit_variance,
    predict_variance_insample,
    smoother_matrix,
    squared_residuals,
)
from funvar.semimetric import SemiMetricSpec
from funvar.simulate import SimSpec, gen_dataset


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def simulate_small(tmp_path, sub="data", example="ex1", n=14, seed=11):
    out = tmp_path / sub
    code = run("--seed", seed, "--output-dir", out, "simulate",
               "--example", example, "--n", n, "--grid-size", 31)
    assert code == 0
    return str(out / f"{example}_curves.csv"), str(out / f"{example}_responses.csv")


def test_simulate_writes_expected_files(tmp_path):
    code = run("--seed", 3, "--output-dir", tmp_path / "a", "simulate",
               "--example", "ex3", "--n", 9, "--grid-size", 21, "--stem", "demo")
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["demo_curves.csv", "demo_responses.csv", "demo_truth.csv"]
    truth = read_rows(tmp_path / "a" / "demo_truth.csv")
    assert len(truth) == 9
    assert set(truth[0]) == {"true_m", "true_v", "param_1", "param_2", "param_3"}


def test_simulate_is_byte_identical_across_runs(tmp_path):
    for sub in ("one", "two"):
        assert run("--seed", 5, "--output-dir", tmp_path / sub, "simulate",
                   "--example", "ex2", "--n", 8, "--grid-size", 17) == 0
    for name in ("ex2_curves.csv", "ex2_responses.csv", "ex2_truth.csv"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b


def test_simulate_output_reingests_exactly(tmp_path):
    curves_f, resp_f = simulate_small(tmp_path, example="ex2", n=10, seed=42)
    ds = gen_dataset(SimSpec("ex2", 10, 42, 0, 31))
    cs = read_curves_csv(curves_f)
    assert_array_equal(cs.values, ds.curves.values)
    assert_array_equal(cs.grid.points, ds.curves.grid.points)
    assert_array_equal(read_responses_csv(resp_f), ds.y)


def test_seed_is_required_for_stochastic_commands(tmp_path):
    assert run("simulate", "--example", "ex1") == 2
    assert run("--output-dir", tmp_path, "bench", "--example", "ex1") == 2


def test_usage_errors_exit_2(tmp_path):
    assert run("--seed", 1, "simulate", "--example", "ex7") == 2
    assert run("--seed", 1, "simulate") == 2  # missing required flag
    assert run("fit", "--curves", "c.csv", "--responses", "r.csv",
               "--kernel", "quartic") == 2
    assert run("--threads", 0, "--seed", 1, "simulate", "--example", "ex1") == 2
    assert run("--help") == 0


def test_threads_env_var(monkeypatch):
    monkeypatch.setenv("FUNVAR_THREADS", "3")
    args = parse_args(["--seed", "1", "bench", "--example", "ex1"])
    assert args.threads == 3
    # an explicit flag wins over the environment
    args = parse_args(["--seed", "1", "--threads", "2", "bench", "--example", "ex1"])
    assert args.threads == 2
    monkeypatch.setenv("FUNVAR_THREADS", "many")
    assert main(["--seed", "1", "bench", "--example", "ex1"]) == 2


def test_missing_input_file_exits_3(tmp_path):
    assert run("--output-dir", tmp_path, "fit", "--curves",
               tmp_path / "absent.csv", "--responses", tmp_path / "also.csv") == 3
    assert run("--output-dir", tmp_path, "smallball", "--curves",
               tmp_path / "absent.csv") == 3


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_a_non_finite_response_exits_3(tmp_path, bad):
    curves_f, resp_f = simulate_small(tmp_path, n=10, seed=23)
    lines = Path(resp_f).read_text().splitlines()
    lines[4] = bad
    Path(resp_f).write_text("\n".join(lines) + "\n")
    assert run("--output-dir", tmp_path, "fit", "--curves", curves_f,
               "--responses", resp_f) == 3


@pytest.mark.parametrize("bad", ["1.0,2.0", "abc", "1_000", "   "])
def test_a_malformed_response_row_exits_3_and_names_its_line(tmp_path, capsys, bad):
    curves_f, resp_f = simulate_small(tmp_path, n=10, seed=23)
    lines = Path(resp_f).read_text().splitlines()
    lines[4] = bad
    Path(resp_f).write_text("\n".join(lines) + "\n")
    assert run("--output-dir", tmp_path, "fit", "--curves", curves_f,
               "--responses", resp_f) == 3
    assert "line 5 is not one finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["fit"],
    ["chemo", "--train-size", 5, "--mean-order", 0, "--orders", "0",
     "--deriv-method", "finite_diff"],
])
def test_a_responses_file_of_only_its_header_exits_3(tmp_path, capsys, command):
    curves_f, resp_f = simulate_small(tmp_path, n=10, seed=23)
    Path(resp_f).write_text("y\n")
    assert run("--output-dir", tmp_path, command[0], "--curves", curves_f,
               "--responses", resp_f, *command[1:]) == 3
    assert f"cannot read responses from {resp_f}: {resp_f}: no response rows" in (
        capsys.readouterr().err)


def test_a_non_finite_curve_sample_exits_3_and_names_its_line(tmp_path, capsys):
    bad = tmp_path / "f.csv"
    bad.write_text("t,0,0.5,1\n1,2,3\n3,nan,4\n")
    assert run("--output-dir", tmp_path, "smallball", "--curves", bad) == 3
    assert f"{bad}: line 3 " in capsys.readouterr().err


def test_output_files_get_the_process_umask(tmp_path):
    old = os.umask(0o027)
    try:
        curves_f, resp_f = simulate_small(tmp_path, n=10, seed=6)
        out = tmp_path / "out"
        assert run("--output-dir", out, "fit", "--curves", curves_f,
                   "--responses", resp_f, "--grid-size", 6) == 0
        assert run("--output-dir", out, "predict", "--model", out / "model.json",
                   "--curves", curves_f) == 0
        assert run("--output-dir", out, "smallball", "--curves", curves_f) == 0
        assert run("--output-dir", out, "--format", "json", "smallball",
                   "--curves", curves_f) == 0
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777
             for d in (tmp_path / "data", out) for p in d.iterdir()}
    assert len(modes) == 7 and set(modes.values()) == {0o666 & ~0o027}


def test_invalid_bandwidth_exits_4(tmp_path):
    curves_f, resp_f = simulate_small(tmp_path)
    assert run("--output-dir", tmp_path, "fit", "--curves", curves_f,
               "--responses", resp_f, "--h-m", -1.0) == 4


def test_infinite_bandwidth_exits_4(tmp_path):
    # the model would store Infinity, which predict rejects as malformed
    curves_f, resp_f = simulate_small(tmp_path)
    for flag in ("--h-m", "--h-v"):
        assert run("--output-dir", tmp_path, "fit", "--curves", curves_f,
                   "--responses", resp_f, flag, "inf") == 4


def test_fit_predict_round_trip(tmp_path):
    curves_f, resp_f = simulate_small(tmp_path, example="ex1", n=16, seed=2)
    fit_dir = tmp_path / "fit"
    assert run("--output-dir", fit_dir, "fit", "--curves", curves_f,
               "--responses", resp_f, "--grid-size", 8) == 0
    model = json.loads((fit_dir / "model.json").read_text())
    assert set(model) == {
        "curves_file", "curves_sha256", "responses_file", "responses_sha256",
        "semimetric", "variance_semimetric", "kernel", "policy", "self_inclusion",
        "variance_method", "h_m", "h_v", "cv_m", "cv_v", "counters",
    }
    assert model["variance_method"] == "residual"
    assert model["h_m"] > 0 and model["h_v"] > 0
    chosen = [r for r in model["cv_m"] if r["bandwidth"] == model["h_m"]]
    assert len(chosen) == 1 and chosen[0]["qualified"]
    assert set(model["counters"]) == {
        "pseudo_fallbacks", "insample_eval_fallbacks", "insample_clips"
    }

    assert run("--output-dir", fit_dir, "predict", "--model",
               fit_dir / "model.json", "--curves", curves_f) == 0
    rows = read_rows(fit_dir / "predictions.csv")
    assert len(rows) == 16

    # predictions at the training curves equal the fit's in-sample values
    train = read_curves_csv(curves_f)
    y = read_responses_csv(resp_f)
    spec = SemiMetricSpec.from_config(model["semimetric"])
    mfit = fit_mean(train, y, spec, model["kernel"], model["h_m"])
    ins_m = smoother_matrix(mfit) @ y
    pseudo, _ = squared_residuals(mfit)
    vfit = fit_variance("residual", mfit, spec, bandwidth=model["h_v"],
                        pseudo_responses=pseudo)
    ins_v, _, _ = predict_variance_insample(vfit)
    for i, row in enumerate(rows):
        assert float(row["m_hat"]) == ins_m[i]
        assert float(row["v_hat"]) == ins_v[i]
        assert float(row["v_hat"]) >= 0.0


def test_fit_with_explicit_bandwidths_skips_cv(tmp_path):
    curves_f, resp_f = simulate_small(tmp_path, example="ex1", n=10, seed=8)
    assert run("--output-dir", tmp_path, "fit", "--curves", curves_f,
               "--responses", resp_f, "--h-m", 5.0, "--h-v", 4.0,
               "--method", "direct") == 0
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["h_m"] == 5.0 and model["h_v"] == 4.0
    assert model["cv_m"] is None and model["cv_v"] is None
    assert model["counters"]["pseudo_fallbacks"] == 0


def test_predict_from_another_directory(tmp_path, monkeypatch):
    fit_dir = tmp_path / "a"
    fit_dir.mkdir()
    monkeypatch.chdir(fit_dir)
    assert run("--seed", 2, "simulate", "--example", "ex1", "--n", 16,
               "--grid-size", 31) == 0
    assert run("fit", "--curves", "ex1_curves.csv", "--responses",
               "ex1_responses.csv", "--grid-size", 8) == 0
    other = tmp_path / "b"
    other.mkdir()
    monkeypatch.chdir(other)
    assert run("predict", "--model", "../a/model.json",
               "--curves", "../a/ex1_curves.csv") == 0
    assert len(read_rows(other / "predictions.csv")) == 16


def test_v_order_with_pca_is_a_usage_error():
    assert run("fit", "--curves", "c.csv", "--responses", "r.csv",
               "--semimetric", "pca_projection", "--v-order", 1) == 2


@pytest.mark.parametrize("command", [["fit", "--responses", "r.csv"], ["smallball"]])
@pytest.mark.parametrize("order", [0, 2])
def test_order_with_pca_is_a_usage_error(command, order):
    assert run(command[0], "--curves", "c.csv", *command[1:],
               "--semimetric", "pca_projection", "--order", order) == 2


def test_predict_computes_the_query_block_once(tmp_path, monkeypatch):
    curves_f, resp_f = simulate_small(tmp_path, example="ex2", n=40, seed=5)
    assert run("--output-dir", tmp_path, "fit", "--curves", curves_f,
               "--responses", resp_f, "--method", "direct", "--grid-size", 6) == 0
    blocks = []
    real = estimators.pairwise_from_features

    def counting(fa, fb, w):
        blocks.append((len(fa), len(fb)))
        return real(fa, fb, w)

    monkeypatch.setattr(estimators, "pairwise_from_features", counting)
    assert run("--output-dir", tmp_path, "predict", "--model",
               tmp_path / "model.json", "--curves", curves_f) == 0
    assert blocks == [(40, 40)]
    assert len(read_rows(tmp_path / "predictions.csv")) == 40


@pytest.mark.parametrize("method", VARIANCE_METHODS)
@pytest.mark.parametrize("flags", [
    ("--order", 1),
    ("--deriv-method", "bspline", "--order", 1, "--v-order", 0),
    ("--semimetric", "pca_projection", "--dim", 2),
], ids=["finite_diff", "bspline", "pca"])
def test_streamed_predictions_equal_one_whole_set_prediction(tmp_path, monkeypatch,
                                                             flags, method):
    n, queries, rows = 40, 43, 8  # 5 chunks of 8 queries, then one of 3
    curves_f, resp_f = simulate_small(tmp_path, example="ex2", n=n, seed=31)
    query_f, _ = simulate_small(tmp_path, sub="query", example="ex2", n=queries, seed=32)
    assert run("--output-dir", tmp_path, "fit", "--curves", curves_f, "--responses", resp_f,
               *flags, "--method", method, "--grid-size", 6) == 0
    blocks = []
    real = estimators.pairwise_from_features

    def recording(fa, fb, w):
        if fa is not fb:  # not the training self-distances of the residuals
            blocks.append((fb, fa))
        return real(fa, fb, w)

    monkeypatch.setattr(estimators, "pairwise_from_features", recording)
    outputs, features = [], []
    for chunk in (rows, 10**6):  # chunks of 8 rows, then the whole set in one
        monkeypatch.setattr(_blocks, "CHUNK_CELLS", chunk * n)
        blocks.clear()
        assert run("--output-dir", tmp_path, "predict", "--model", tmp_path / "model.json",
                   "--curves", query_f, "--out", f"predictions-{chunk}.csv") == 0
        outputs.append((tmp_path / f"predictions-{chunk}.csv").read_bytes())
        by_metric: dict = {}  # the query blocks of each metric, in order
        for fb, fa in blocks:
            assert len(fa) <= chunk
            by_metric.setdefault(id(fb), []).append(fa)
        assert all(len(fas) == (6 if chunk == rows else 1) for fas in by_metric.values())
        features.append([np.vstack(fas) for fas in by_metric.values()])
    assert outputs[0] == outputs[1]
    # each metric's blocks hold every query once, in file order
    assert len(features[0]) == len(features[1]) == (2 if "bspline" in flags else 1)
    for streamed, whole in zip(*features):
        assert len(whole) == queries and np.array_equal(streamed, whole)


def test_a_bad_query_file_exits_3_and_leaves_no_output(tmp_path, monkeypatch, capsys):
    n = 12
    curves_f, resp_f = simulate_small(tmp_path, n=n, seed=33)
    assert run("--output-dir", tmp_path, "fit", "--curves", curves_f,
               "--responses", resp_f, "--grid-size", 6) == 0
    monkeypatch.setattr(_blocks, "CHUNK_CELLS", 8 * n)  # chunks of 8 queries

    def predict(queries):
        return run("--output-dir", tmp_path / "out", "predict", "--model",
                   tmp_path / "model.json", "--curves", queries)

    assert predict(curves_f) == 0
    before = (tmp_path / "out" / "predictions.csv").read_bytes()
    lines = Path(curves_f).read_text().splitlines(keepends=True)
    lines[10] = "0.5,oops" + lines[10][lines[10].index(","):]  # line 11, in chunk 2
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    capsys.readouterr()
    assert predict(bad) == 3
    err = capsys.readouterr().err
    assert f"cannot read curves from {bad}" in err and "line 11 " in err
    bad.write_text(lines[0])  # the grid and no curve
    assert predict(bad) == 3
    assert "no curve rows" in capsys.readouterr().err
    assert run("--seed", 34, "--output-dir", tmp_path / "other", "simulate",
               "--example", "ex1", "--n", 9, "--grid-size", 21) == 0
    assert predict(tmp_path / "other" / "ex1_curves.csv") == 4
    assert "not on the training grid" in capsys.readouterr().err
    # no temporary file left, the earlier predictions untouched
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["predictions.csv"]
    assert (tmp_path / "out" / "predictions.csv").read_bytes() == before


def test_predict_rejects_tampered_training_data(tmp_path):
    curves_f, resp_f = simulate_small(tmp_path, example="ex1", n=10, seed=9)
    assert run("--output-dir", tmp_path, "fit", "--curves", curves_f,
               "--responses", resp_f, "--grid-size", 6) == 0
    with open(resp_f, "a") as f:
        f.write("0.123\n")
    assert run("--output-dir", tmp_path, "predict", "--model",
               tmp_path / "model.json", "--curves", curves_f) == 3


def test_predict_rejects_incomplete_model(tmp_path):
    bad = tmp_path / "model.json"
    curves_f, _ = simulate_small(tmp_path, n=6, seed=1)
    for content in ({"h_m": 1.0}, [1.0, 2.0]):
        bad.write_text(json.dumps(content))
        assert run("--output-dir", tmp_path, "predict", "--model", bad,
                   "--curves", curves_f) == 3


@pytest.mark.parametrize("field, value", [
    ("semimetric", {"kind": "bogus"}),
    ("semimetric", {"kind": "pca_projection"}),
    ("variance_semimetric", {"kind": "deriv_l2", "order": 3, "method": "bspline",
                             "knots": 20, "degree": 3}),
    ("variance_semimetric", {"kind": "deriv_l2", "order": 3, "method": "bspline",
                             "knots": 0, "degree": 3}),
    ("variance_semimetric", {"kind": "deriv_l2", "order": 3, "method": "bspline",
                             "knots": 0, "degree": 5}),
    ("h_m", "abc"),
    ("self_inclusion", "bogus"),
    ("kernel", "bogus"),
    ("kernel", ["quadratic"]),
    ("variance_method", "bogus"),
    ("policy", "bogus"),
    ("h_v", 0),
    ("h_m", -1.0),
    ("h_v", float("inf")),  # json writes and reads it as Infinity
    ("h_m", True),
    ("h_m", None),
    ("h_v", None),
    # json writes an int too large for a float as its 401 digits
    pytest.param("h_m", 10**400, id="h_m-int_too_large_for_a_float"),
    pytest.param("h_v", 10**400, id="h_v-int_too_large_for_a_float"),
    ("curves_file", None),
    ("curves_file", ["curves.csv"]),
    ("responses_sha256", None),
])
def test_predict_rejects_a_malformed_model(tmp_path, field, value):
    curves_f, resp_f = simulate_small(tmp_path, example="ex1", n=12, seed=4)
    assert run("--output-dir", tmp_path, "fit", "--curves", curves_f,
               "--responses", resp_f, "--method", "direct", "--grid-size", 6) == 0
    path = tmp_path / "model.json"
    model = json.loads(path.read_text())
    model[field] = value
    path.write_text(json.dumps(model))
    assert run("--output-dir", tmp_path, "predict", "--model", path,
               "--curves", curves_f) == 3


def test_bench_cli_reports_are_byte_identical(tmp_path):
    for sub, threads in (("t1", 1), ("t2", 2)):
        code = run("--seed", 7, "--threads", threads, "--output-dir",
                   tmp_path / sub, "bench", "--example", "ex1", "--n", 18,
                   "--reps", 3, "--grid-size", 8)
        assert code == 0
    a = (tmp_path / "t1" / "report.json").read_bytes()
    b = (tmp_path / "t2" / "report.json").read_bytes()
    assert a == b
    data = json.loads(a)
    assert data["config"]["n_reps"] == 3
    assert len(data["replications"]) == 3
    assert "wall_clock" not in json.dumps(data)


@pytest.mark.parametrize("flags, semimetric", [
    ((), {"kind": "deriv_l2", "order": 1, "method": "finite_diff"}),
    (("--deriv-method", "bspline", "--order", 1),
     {"kind": "deriv_l2", "order": 1, "method": "bspline", "knots": 20, "degree": 3}),
    (("--semimetric", "pca_projection", "--dim", 2), {"kind": "pca_projection", "dim": 2}),
], ids=["design_default", "bspline", "pca"])
def test_bench_runs_the_semimetric_its_flags_name(tmp_path, flags, semimetric):
    assert run("--seed", 3, "--output-dir", tmp_path, "bench", "--example", "ex3",
               "--n", 20, "--reps", 2, "--grid-size", 6, *flags) == 0
    report = json.loads((tmp_path / "report.json").read_bytes())
    assert report["config"]["semimetric"] == semimetric
    assert [r["failed"] for r in report["replications"]] == [False, False]


def test_bench_without_semimetric_flags_runs_the_design_default(tmp_path):
    for sub, flags in (("default", ()), ("named", ("--order", 1))):
        assert run("--seed", 3, "--output-dir", tmp_path / sub, "bench", "--example",
                   "ex3", "--n", 20, "--reps", 2, "--grid-size", 6, *flags) == 0
    assert ((tmp_path / "default" / "report.json").read_bytes()
            == (tmp_path / "named" / "report.json").read_bytes())
    assert run("--seed", 3, "bench", "--example", "ex3", "--semimetric",
               "pca_projection", "--order", 1) == 2


def test_bench_rejects_unknown_method(tmp_path):
    assert run("--seed", 1, "--output-dir", tmp_path, "bench", "--example",
               "ex1", "--n", 12, "--reps", 1, "--methods", "residual,ratio") == 4


def test_smallball_table(tmp_path):
    curves_f, _ = simulate_small(tmp_path, example="ex1", n=20, seed=13)
    assert run("--output-dir", tmp_path, "smallball", "--curves", curves_f,
               "--size", 6) == 0
    rows = read_rows(tmp_path / "smallball.csv")
    hs = [float(r["h"]) for r in rows]
    fr = [float(r["fraction"]) for r in rows]
    assert hs == sorted(hs)
    assert fr == sorted(fr)  # monotone in h
    assert fr[-1] == 1.0  # h at the max distance covers every curve
    assert all(0.0 < f <= 1.0 for f in fr)

    assert run("--output-dir", tmp_path, "--format", "json", "smallball",
               "--curves", curves_f, "--size", 6) == 0
    data = json.loads((tmp_path / "smallball.json").read_text())
    assert [r["fraction"] for r in data["rows"]] == fr


def test_smallball_index_bounds(tmp_path):
    curves_f, _ = simulate_small(tmp_path, n=5, seed=14)
    assert run("--output-dir", tmp_path, "smallball", "--curves", curves_f,
               "--index", 5) == 4


def test_chemo_cli_outputs(tmp_path):
    # reuse the simulated Brownian curves as a stand-in spectra file
    curves_f, resp_f = simulate_small(tmp_path, example="ex2", n=30, seed=21)
    out = tmp_path / "chemo"
    code = run("--output-dir", out, "chemo", "--curves", curves_f,
               "--responses", resp_f, "--train-size", 20, "--mean-order", 0,
               "--orders", "0,1", "--deriv-method", "finite_diff",
               "--grid-size", 8)
    assert code == 0
    report = json.loads((out / "chemo_report.json").read_text())
    assert report["chosen_order"] in (0, 1)
    assert set(report["validation_mse"]) == {"0", "1"}
    pairs = read_rows(out / "chemo_pairs.csv")
    assert len(pairs) == 10
    assert [r["index"] for r in pairs] == [str(i) for i in range(10)]
    got = [float(r["v_hat"]) for r in pairs]
    expect = [p["v_hat"] for p in report["pairs"]]
    assert got == expect


def test_chemo_reads_each_input_file_once(tmp_path, monkeypatch):
    curves_f, resp_f = simulate_small(tmp_path, example="ex2", n=30, seed=21)
    reads = []

    def counting(real):
        def read(path):
            reads.append((real.__name__, str(path)))
            return real(path)
        return read

    for module in (cli, bench):
        monkeypatch.setattr(module, "read_curves_csv", counting(read_curves_csv))
        monkeypatch.setattr(module, "read_responses_csv",
                            counting(read_responses_csv))
    assert run("--output-dir", tmp_path / "chemo", "chemo", "--curves", curves_f,
               "--responses", resp_f, "--train-size", 20, "--mean-order", 0,
               "--orders", "0,1", "--deriv-method", "finite_diff",
               "--grid-size", 8) == 0
    assert sorted(reads) == [("read_curves_csv", str(curves_f)),
                             ("read_responses_csv", str(resp_f))]


def test_chemo_unparsable_input_exits_3(tmp_path):
    curves_f, resp_f = simulate_small(tmp_path, n=10, seed=22)
    with open(resp_f, "a") as f:
        f.write("not-a-number\n")
    assert run("--output-dir", tmp_path, "chemo", "--curves", curves_f,
               "--responses", resp_f, "--train-size", 5, "--mean-order", 0,
               "--orders", "0", "--deriv-method", "finite_diff") == 3


def test_chemo_train_size_too_large_exits_4(tmp_path):
    curves_f, resp_f = simulate_small(tmp_path, n=10, seed=22)
    assert run("--output-dir", tmp_path, "chemo", "--curves", curves_f,
               "--responses", resp_f, "--train-size", 10,
               "--mean-order", 0, "--orders", "0",
               "--deriv-method", "finite_diff") == 4


def test_a_repeated_stage_exits_4(tmp_path, capsys):
    curves_f, resp_f = simulate_small(tmp_path, n=10, seed=22)
    assert run("--output-dir", tmp_path, "chemo", "--curves", curves_f,
               "--responses", resp_f, "--train-size", 6, "--mean-order", 0,
               "--orders", "0,0,1", "--deriv-method", "finite_diff") == 4
    assert "duplicate stage: residual on SemiMetricSpec(" in capsys.readouterr().err
    assert run("--seed", 1, "--output-dir", tmp_path, "bench", "--example", "ex1",
               "--n", 12, "--reps", 1, "--methods", "direct,residual,direct") == 4
    assert "duplicate stage: direct on SemiMetricSpec(" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def test_inputs_are_never_modified(tmp_path):
    curves_f, resp_f = simulate_small(tmp_path, n=12, seed=23)
    before = (open(curves_f, "rb").read(), open(resp_f, "rb").read())
    assert run("--output-dir", tmp_path / "o", "fit", "--curves", curves_f,
               "--responses", resp_f, "--grid-size", 6) == 0
    after = (open(curves_f, "rb").read(), open(resp_f, "rb").read())
    assert before == after


# each BLAS-thread process runs these argument lists through cli.main in turn
RUN_ARGVS = ("import json, sys; from funvar.cli import main; "
             "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))")


@pytest.fixture(scope="module")
def blas_thread_outputs(tmp_path_factory):
    """model.json and predictions.csv of a PCA and a B-spline fit and
    predict, at 1 and at 2 BLAS threads, one process per thread count."""
    tmp_path = tmp_path_factory.mktemp("blas")
    for stem, n, stream in (("train", 700, 0), ("query", 1500, 1)):
        assert run("--seed", 21, "--output-dir", tmp_path, "simulate", "--example", "ex2",
                   "--n", n, "--stream", stream, "--stem", stem) == 0
    fit_flags = {
        "pca": ("--semimetric", "pca_projection", "--dim", 3),
        # the spline map P comes from a LAPACK SVD and its products from einsum
        "bspline": ("--deriv-method", "bspline", "--order", 1, "--v-order", 0),
    }
    src = str(Path(funvar.__file__).resolve().parent.parent)
    outputs = {name: [] for name in fit_flags}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argvs = []
        for name, flags in fit_flags.items():
            out = tmp_path / f"threads{threads}" / name
            argvs += [
                ["--output-dir", out, "fit", "--curves", tmp_path / "train_curves.csv",
                 "--responses", tmp_path / "train_responses.csv", *flags,
                 "--method", "direct"],
                ["--output-dir", out, "predict", "--model", out / "model.json",
                 "--curves", tmp_path / "query_curves.csv"],
            ]
        subprocess.run([sys.executable, "-c", RUN_ARGVS,
                        json.dumps([[str(a) for a in argv] for argv in argvs])],
                       env=env, check=True, capture_output=True)
        for name in fit_flags:
            out = tmp_path / f"threads{threads}" / name
            outputs[name].append({p.name: p.read_bytes() for p in out.iterdir()})
            assert sorted(outputs[name][-1]) == ["model.json", "predictions.csv"]
    return outputs


@pytest.mark.skipif(usable_cpus() < 2, reason="needs 2 usable CPUs")
def test_pca_fit_and_predict_do_not_depend_on_the_blas_thread_count(blas_thread_outputs):
    one, two = blas_thread_outputs["pca"]
    assert one == two


@pytest.mark.skipif(usable_cpus() < 2, reason="needs 2 usable CPUs")
def test_bspline_fit_and_predict_do_not_depend_on_the_blas_thread_count(blas_thread_outputs):
    one, two = blas_thread_outputs["bspline"]
    assert one == two


def test_every_csv_the_cli_writes_is_the_bytes_csv_writes(tmp_path):
    curves_f, resp_f = simulate_small(tmp_path, example="ex2", n=30, seed=21)
    out = tmp_path / "out"
    assert run("--output-dir", out, "fit", "--curves", curves_f,
               "--responses", resp_f, "--grid-size", 6) == 0
    assert run("--output-dir", out, "predict", "--model", out / "model.json",
               "--curves", curves_f) == 0
    assert run("--output-dir", out, "chemo", "--curves", curves_f,
               "--responses", resp_f, "--train-size", 20, "--mean-order", 0,
               "--orders", "0", "--deriv-method", "finite_diff", "--grid-size", 8) == 0
    assert run("--output-dir", out, "smallball", "--curves", curves_f) == 0
    written = sorted([*(tmp_path / "data").glob("*.csv"), *out.glob("*.csv")])
    assert [p.name for p in written] == [
        "ex2_curves.csv", "ex2_responses.csv", "ex2_truth.csv",
        "chemo_pairs.csv", "predictions.csv", "smallball.csv"]

    def number(cell):
        try:
            return int(cell)
        except ValueError:
            return float(cell)

    for path in written:
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        ref = io.StringIO()
        w = csv.writer(ref)
        w.writerow(header)
        w.writerows([number(c) for c in row] for row in rows)
        assert path.read_bytes() == ref.getvalue().encode(), path.name


def test_no_run_loads_scipy_interpolate(tmp_path):
    # the B-spline operator is built in numpy: neither the package, a
    # replication, B-spline features nor a B-spline fit and predict load it
    src = str(Path(funvar.__file__).resolve().parent.parent)
    script = """
import contextlib, io, sys
loaded = []
import funvar
loaded.append("scipy.interpolate" in sys.modules)
from funvar.bench import ExperimentConfig, run_replication
from funvar.cli import main
from funvar.curves import uniform_grid, CurveSet
from funvar.semimetric import SemiMetricSpec, feature_matrix
run_replication(ExperimentConfig("ex3", n=40, n_reps=1), 0)
loaded.append("scipy.interpolate" in sys.modules)
cs = CurveSet(uniform_grid(31), [[float(i * j) for j in range(31)] for i in range(3)])
feature_matrix(SemiMetricSpec.deriv_l2(order=1, deriv_method="bspline", knots=5), cs)
loaded.append("scipy.interpolate" in sys.modules)
out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["--seed", "5", "--output-dir", out, "simulate", "--example", "ex3",
                   "--n", "30", "--grid-size", "31"]),
             main(["--output-dir", out, "fit", "--curves", out + "/ex3_curves.csv",
                   "--responses", out + "/ex3_responses.csv", "--deriv-method", "bspline",
                   "--order", "1", "--knots", "5", "--grid-size", "6"]),
             main(["--output-dir", out, "predict", "--model", out + "/model.json",
                   "--curves", out + "/ex3_curves.csv"])]
loaded.append("scipy.interpolate" in sys.modules)
print(codes, loaded)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, check=True,
                       capture_output=True, text=True)
    assert r.stdout.strip() == "[0, 0, 0] [False, False, False, False]"
    assert (tmp_path / "predictions.csv").exists()


def test_a_rank_deficient_spline_design_exits_4(tmp_path):
    # 29 points within 3e-11 and one at 1: see test_curves.clustered_grid
    grid = Grid(np.r_[np.arange(29) * 1e-12, 1.0])
    rng = np.random.default_rng(4)
    write_curves_csv(tmp_path / "c.csv", CurveSet(grid, rng.standard_normal((12, 30))))
    write_responses_csv(tmp_path / "r.csv", rng.standard_normal(12))
    assert run("--output-dir", tmp_path, "fit", "--curves", tmp_path / "c.csv",
               "--responses", tmp_path / "r.csv", "--deriv-method", "bspline",
               "--order", 1, "--knots", 5, "--grid-size", 6) == 4


def test_an_ill_conditioned_spline_design_exits_4(tmp_path, capsys):
    # 97 knots on 101 points: condition number 1.5e7, see test_curves
    rng = np.random.default_rng(5)
    write_curves_csv(tmp_path / "c.csv",
                     CurveSet(uniform_grid(101), rng.standard_normal((12, 101))))
    write_responses_csv(tmp_path / "r.csv", rng.standard_normal(12))
    assert run("--output-dir", tmp_path, "fit", "--curves", tmp_path / "c.csv",
               "--responses", tmp_path / "r.csv", "--deriv-method", "bspline",
               "--order", 1, "--knots", 97, "--grid-size", 6) == 4
    assert "ill-conditioned spline design" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()
