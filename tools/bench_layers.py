"""Layer timings of one Monte-Carlo replication, written to BENCH_<label>.json.

Usage, from the root of a source checkout:

    python3 tools/bench_layers.py LABEL [--src DIR] [--out-dir DIR]

Imports ``funvar`` from ``--src`` (default: this checkout's ``src/``), so the
same script can time an older checkout. BLAS runs on one thread. For each
n in ``SIZES`` it draws one ex2 dataset (seed 0, stream 0) and times
``run_replication`` on it ``REPEATS`` times (default grid of 20 candidates,
quadratic kernel, both variance methods). The fastest replication is kept,
with its time per layer, and beside it each layer's median over the
``REPEATS`` runs. A layer's time is the time spent in these functions,
found by identity in every ``funvar`` module and wrapped for the run:

* ``distances``: ``semimetric.pairwise_from_features``;
* ``grid``: ``estimators.default_bandwidth_grid``;
* ``binning``: ``estimators.PairBins.__init__`` (null in a tree without it,
  where the binning is part of every cross-validation);
* ``cv_scores``: ``estimators.cv_bandwidth``, less the binning inside it;
* ``in_sample_fits``: ``estimators._smooth`` (kernel weights and the
  weighted sums);
* ``other``: the rest of the replication.

It then times the CLI round trip ``funvar fit`` then ``funvar predict``
in process, ``REPEATS`` times, on the sizes of the benchmark's
``cli_ex3_fit_predict`` workload (``CLI_TRAIN`` ex3 training curves,
seed 0 stream 0; ``CLI_QUERIES`` query curves, stream 1; ``CLI_FIT_FLAGS``),
and keeps the fastest round trip with the same layers and medians; there
``in_sample_fits`` also holds the smooths at the query curves, and
``other`` the CSV reading and writing.

The output also records the machine (CPU model, core count, the threads
that run the package's row blocks, Python, numpy, scipy) and a digest of
the package's source files.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fixed, so that any two BENCH files compare
SIZES = (200, 800, 2000)
REPEATS = 7
CLI_TRAIN = 500
CLI_QUERIES = 5000
CLI_FIT_FLAGS = ("--deriv-method", "bspline", "--order", "1", "--v-order", "0",
                 "--method", "direct")
LAYERS = {
    "distances": ("semimetric", "pairwise_from_features"),
    "grid": ("estimators", "default_bandwidth_grid"),
    "binning": ("estimators", "PairBins.__init__"),
    "cv_scores": ("estimators", "cv_bandwidth"),
    "in_sample_fits": ("estimators", "_smooth"),
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("label", help="names the output file BENCH_<label>.json")
    p.add_argument("--src", type=Path, default=ROOT / "src")
    p.add_argument("--out-dir", type=Path, default=Path("."))
    return p.parse_args(argv)


class LayerClock:
    """Inclusive wall time per layer, by wrapping each layer's function
    wherever a ``funvar`` module or class holds it."""

    def __init__(self):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._restore = []

    def _wrap(self, layer, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[layer] += time.perf_counter() - t0
                self.calls[layer] += 1
        return timed

    def install(self) -> set:
        """Wrap every layer found; returns the layers the package lacks."""
        mods = [m for name, m in sys.modules.items()
                if m is not None and name.startswith("funvar")]
        missing = set()
        for layer, (module, path) in LAYERS.items():
            owner = importlib.import_module(f"funvar.{module}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                missing.add(layer)
                continue
            timed = self._wrap(layer, fn)
            holders = [owner] if cls else mods
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, timed)
                        self._restore.append((holder, key, fn))
        return missing

    def uninstall(self):
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def reset(self):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:  # the pool the row blocks run on; a package without one runs inline
        from funvar._blocks import usable_cpus
        row_block_threads = usable_cpus()
    except ImportError:
        row_block_threads = 1
    return {"cpu": cpu, "cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": 1,
            "row_block_threads": row_block_threads}


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "funvar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def layer_times(seconds: dict, missing: set, wall: float) -> dict:
    """Per-layer seconds of one run: the binning taken out of the CV
    scores, null for a layer the package lacks, the rest as ``other``."""
    layers = {k: (None if k in missing else v) for k, v in seconds.items()}
    if layers["binning"] is not None:
        layers["cv_scores"] -= layers["binning"]
    layers["other"] = wall - sum(v for v in layers.values() if v is not None)
    return layers


def median_layers(runs: list) -> dict:
    """Each layer's median over the per-run layer times (null stays null)."""
    return {k: None if runs[0][k] is None else statistics.median(r[k] for r in runs)
            for k in runs[0]}


def print_run(name: str, wall: float, layers: dict) -> None:
    print(f"{name}: {wall:.4f} s " + " ".join(
        f"{k}={'-' if v is None else f'{v:.4f}'}" for k, v in layers.items()))


def cli_round_trip(cli, clock: LayerClock, missing: set) -> dict:
    """The fastest of ``REPEATS`` CLI fit -> predict round trips."""

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(argv))
        if rc != 0:
            raise RuntimeError(f"funvar {argv[2]} exited {rc}")

    with tempfile.TemporaryDirectory() as tmp:
        for stem, n, stream in (("train", CLI_TRAIN, 0), ("query", CLI_QUERIES, 1)):
            run("--seed", "0", "--output-dir", tmp, "simulate", "--example", "ex3",
                "--n", str(n), "--stream", str(stream), "--stem", stem)
        best = None
        walls = []
        all_layers = []
        for _ in range(REPEATS):
            clock.reset()
            t0 = time.perf_counter()
            run("--output-dir", tmp, "fit", "--curves", f"{tmp}/train_curves.csv",
                "--responses", f"{tmp}/train_responses.csv", *CLI_FIT_FLAGS,
                "--model-out", "model.json")
            t1 = time.perf_counter()
            run("--output-dir", tmp, "predict", "--model", f"{tmp}/model.json",
                "--curves", f"{tmp}/query_curves.csv", "--out", "predictions.csv")
            t2 = time.perf_counter()
            walls.append(t2 - t0)
            all_layers.append(layer_times(clock.seconds, missing, t2 - t0))
            if best is None or t2 - t0 < best[0]:
                best = (t2 - t0, t1 - t0, t2 - t1, all_layers[-1], dict(clock.calls))
    wall, fit_s, predict_s, layers, calls = best
    print_run("cli", wall, layers)
    return {"n_train": CLI_TRAIN, "queries": CLI_QUERIES, "fit_flags": list(CLI_FIT_FLAGS),
            "round_trip_s": wall, "round_trip_s_all": walls,
            "round_trip_s_median": statistics.median(walls), "fit_s": fit_s,
            "predict_s": predict_s, "layers_s": layers,
            "layers_s_median": median_layers(all_layers), "calls": calls}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, str(args.src.resolve()))
    from funvar import cli  # before the clock installs, so its names are wrapped too
    from funvar.bench import ExperimentConfig, run_replication
    from funvar.simulate import SimSpec, gen_dataset

    clock = LayerClock()
    missing = clock.install()
    runs = []
    try:
        for n in SIZES:
            cfg = ExperimentConfig("ex2", n=n, n_reps=1)
            ds = gen_dataset(SimSpec("ex2", n, 0, 0))
            best = None
            walls = []
            all_layers = []
            for _ in range(REPEATS):
                clock.reset()
                t0 = time.perf_counter()
                rec = run_replication(cfg, 0, dataset=ds)
                wall = time.perf_counter() - t0
                walls.append(wall)
                all_layers.append(layer_times(clock.seconds, missing, wall))
                if best is None or wall < best[0]:
                    best = (wall, all_layers[-1], dict(clock.calls), rec)
            wall, layers, calls, rec = best
            runs.append({"n": n, "replication_s": wall, "replication_s_all": walls,
                         "replication_s_median": statistics.median(walls),
                         "layers_s": layers, "layers_s_median": median_layers(all_layers),
                         "calls": calls, "h_m": rec.h_m, "h_v": rec.h_v, "mse": rec.mse})
            print_run(f"n={n}", wall, layers)
        cli_run = cli_round_trip(cli, clock, missing)
    finally:
        clock.uninstall()
    out = {"label": args.label, "machine": machine(),
           "source_sha256": source_digest(args.src),
           "config": {"design": "ex2", "seed": 0, "stream": 0, "kernel": "quadratic",
                      "grid_size": 20, "methods": ["residual", "direct"],
                      "repeats": REPEATS},
           "runs": runs, "cli_round_trip": cli_run}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
