"""The benchmark in ``perfbench/`` traces funvar's layer functions by name and
counts their work from the arguments it binds, and ``tools/bench_layers.py``
times layer functions found by name. These tests read those scripts without
running them, changing them or compiling them into their directories, and
check that funvar still offers what they use."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import re
import sys
from pathlib import Path

import pytest

from funvar import cli

ROOT = Path(__file__).resolve().parents[1]


def load(path):
    """The script at ``path`` as a module, compiled in memory (no __pycache__)."""
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(f"loaded_{path.stem}", loader=None))
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture(scope="module")
def spans():
    return load(ROOT / "perfbench" / "spans.py")


def test_every_traced_layer_is_a_funvar_function_with_the_arguments_it_counts(spans):
    read = set()
    for layer in spans.LAYERS:
        fn = getattr(importlib.import_module(f"funvar.{layer.module}"), layer.func, None)
        assert inspect.isfunction(fn), layer.name
        # the counter reads bound arguments by name: a["dist"], a["fa"], ...
        arg = next(iter(inspect.signature(layer.count).parameters))
        names = set(re.findall(rf'\b{arg}\["(\w+)"\]', inspect.getsource(layer.count)))
        assert names <= set(inspect.signature(fn).parameters), layer.name
        read |= names
    # the source scan finds what the counters read
    assert read >= {"path", "xs", "dist", "fa", "fb", "w", "spec", "cs", "order"}


def test_every_layer_bench_layers_times_is_a_funvar_function():
    # the script writes null for a layer it cannot find, so a rename would
    # go unnoticed there
    layers = load(ROOT / "tools" / "bench_layers.py").LAYERS
    for layer, (module, path) in layers.items():
        fn = importlib.import_module(f"funvar.{module}")
        for attr in path.split("."):
            fn = getattr(fn, attr, None)
        assert inspect.isfunction(fn), layer


def test_the_cli_round_trip_calls_the_predictors_the_benchmark_requires(tmp_path, spans):
    flags = load(ROOT / "perfbench" / "workloads.py").CliRoundTrip.FIT_FLAGS
    out = str(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        for stem, stream, n in (("train", 0, 30), ("query", 1, 12)):
            assert cli.main(["--seed", "0", "--output-dir", out, "simulate", "--example",
                             "ex3", "--n", str(n), "--grid-size", "31", "--stream",
                             str(stream), "--stem", stem]) == 0
        rec = spans.SpanRecorder()
        with rec.installed():
            with rec.root("cli.fit", 0):
                assert cli.main(["--output-dir", out, "fit", "--curves",
                                 f"{out}/train_curves.csv", "--responses",
                                 f"{out}/train_responses.csv", *flags]) == 0
            with rec.root("cli.predict", 0):
                assert cli.main(["--output-dir", out, "predict", "--model",
                                 f"{out}/model.json", "--curves",
                                 f"{out}/query_curves.csv"]) == 0
    assert rec.missing == []
    called = {s.name for s in rec.spans}
    assert {"curves.read_curves_csv", "estimators.predict_mean_set",
            "estimators.predict_variance_set"} <= called
