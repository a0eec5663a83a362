"""Layer timings of one Monte-Carlo replication, written to BENCH_<label>.json.

Usage, from the root of a source checkout:

    python3 tools/bench_layers.py LABEL [--src DIR] [--out-dir DIR]

Imports ``funvar`` from ``--src`` (default: this checkout's ``src/``), so the
same script can time an older checkout. BLAS runs on one thread. For each
n in ``SIZES`` it draws one ex2 dataset (seed 0, stream 0) and times
``run_replication`` on it ``REPEATS`` times (default grid of 20 candidates,
quadratic kernel, both variance methods). The fastest replication is kept,
with its time per layer, and beside it each layer's median over the
``REPEATS`` runs, and the minor page faults (``ru_minflt``) of every
replication. ``ex3_run`` holds the same for one ex3 dataset at
``EX3_SIZE`` curves, the size of the benchmark's ``mc_ex3_n200``
workload, timed first, as in that workload's own process, and
``EX3_REPEATS`` times. A layer's time is the time spent in these functions,
found by identity in every ``funvar`` module and wrapped for the run:

* ``features``: ``semimetric.feature_matrix`` (derivatives, spline or
  projection features of the training and query curves);
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
and keeps the fastest round trip with the same layers and medians, and
the minor page faults of every round trip; there
``in_sample_fits`` also holds the smooths at the query curves, and
``other`` the CSV reading and writing. ``predict_peak_rss_mb`` is the
peak resident memory (``ru_maxrss``, in 10^6 bytes) of one more
``funvar predict`` of the same model and queries, run alone in a fresh
Python process. ``replication_peak_rss_mb`` is the same for one ex2
replication at ``RSS_SIZE`` curves (seed 0, stream 0): the median over
``COLD_STARTS`` fresh processes, each of which imports the package, draws
the dataset and runs the replication, with every run in
``replication_peak_rss_mb_all``.

``cold_start`` holds ``import funvar`` alone, in ``COLD_STARTS`` fresh
Python processes: the median and every run of its wall time (measured
inside the process, around the import) and of the process's peak resident
memory, and whether the import loaded ``scipy.interpolate`` and
``scipy.spatial``. Its ``bspline_fit`` key holds the same for one
``funvar fit`` of the CLI training curves with ``CLI_FIT_FLAGS`` (a
B-spline semi-metric) per fresh process, timed from before the package is
imported to the end of the fit.

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
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fixed, so that any two BENCH files compare
SIZES = (200, 800, 2000)
EX3_SIZE = 200
RSS_SIZE = 2000
# a replication at EX3_SIZE takes about 5 ms: more of them, for a steadier best
EX3_REPEATS = 49
REPEATS = 7
CLI_TRAIN = 500
CLI_QUERIES = 5000
CLI_FIT_FLAGS = ("--deriv-method", "bspline", "--order", "1", "--v-order", "0",
                 "--method", "direct")
LAYERS = {
    "features": ("semimetric", "feature_matrix"),
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


def minor_faults() -> int:
    """Minor page faults of this process so far, over all its threads."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


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


# ru_maxrss keeps the high-water mark of the process image that exec
# replaced, which for a child of this process is this process's own resident
# size; so a small launcher starts the run and reads its rusage from wait4
PEAK_RSS_LAUNCHER = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
                     "_, status, usage = os.wait4(p.pid, 0); print(usage.ru_maxrss); "
                     "sys.exit(os.waitstatus_to_exitcode(status))")
CLI_MAIN = "import sys; sys.path.insert(0, sys.argv[1]); from funvar.cli import main; " \
           "sys.exit(main(sys.argv[2:]))"


# the wall time, then whether each of these was loaded
LOADED = "'scipy.interpolate' in sys.modules, 'scipy.spatial' in sys.modules"
COLD_IMPORT = "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); " \
              f"import funvar; print(time.perf_counter() - t0, {LOADED})"
COLD_FIT = "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); " \
           "from funvar.cli import main; rc = main(sys.argv[2:]); " \
           f"print(time.perf_counter() - t0, {LOADED}); sys.exit(rc)"
COLD_STARTS = 5
REPLICATION = "import sys; sys.path.insert(0, sys.argv[1]); " \
              "from funvar.bench import ExperimentConfig, run_replication; " \
              "from funvar.simulate import SimSpec, gen_dataset; n = int(sys.argv[2]); " \
              "run_replication(ExperimentConfig('ex2', n=n, n_reps=1), 0, " \
              "dataset=gen_dataset(SimSpec('ex2', n, 0, 0)))"


def fresh_process(*argv) -> tuple[str, float]:
    """The output of ``python argv`` run in a fresh process, and its peak
    resident memory in MB."""
    r = subprocess.run([sys.executable, "-c", PEAK_RSS_LAUNCHER, sys.executable, *argv],
                       capture_output=True, text=True, check=True)
    out, _, rss_kb = r.stdout.rstrip().rpartition("\n")
    return out, int(rss_kb) * 1024 / 1e6


def predict_peak_rss_mb(src: Path, *argv) -> float:
    """Peak resident memory of ``funvar`` with ``argv`` (imported from
    ``src``) in a fresh process, in MB."""
    return fresh_process("-c", CLI_MAIN, str(src.resolve()), *argv)[1]


def replication_peaks(src: Path) -> list:
    """Peak resident memory, in MB, of one ex2 replication at ``RSS_SIZE``
    curves (imported from ``src``) in each of ``COLD_STARTS`` fresh processes."""
    peaks = [fresh_process("-c", REPLICATION, str(src.resolve()), str(RSS_SIZE))[1]
             for _ in range(COLD_STARTS)]
    print(f"ex2 n={RSS_SIZE} replication peak RSS: median {statistics.median(peaks):.1f} MB")
    return peaks


def cold_runs(name: str, script: str, src: Path, *argv) -> tuple[list, dict]:
    """``script`` with ``src`` and ``argv`` in ``COLD_STARTS`` fresh
    processes: the wall time each prints on its last line, and the
    readings beside it: each one's peak resident memory, and whether
    ``scipy.interpolate`` and ``scipy.spatial`` were loaded."""
    walls, peaks = [], []
    for _ in range(COLD_STARTS):
        out, peak_mb = fresh_process("-c", script, str(src.resolve()), *argv)
        wall, interp, spatial = out.splitlines()[-1].split()
        walls.append(float(wall))
        peaks.append(peak_mb)
    interp, spatial = interp == "True", spatial == "True"
    print(f"cold start: {name} {statistics.median(walls):.3f} s, "
          f"peak RSS {statistics.median(peaks):.1f} MB, scipy.interpolate loaded: {interp}, "
          f"scipy.spatial loaded: {spatial}")
    return walls, {"peak_rss_mb_median": statistics.median(peaks), "peak_rss_mb_all": peaks,
                   "scipy_interpolate_loaded": interp, "scipy_spatial_loaded": spatial}


def cold_start(src: Path, data: str) -> dict:
    """``import funvar`` (from ``src``) alone, then a B-spline ``funvar fit``
    of the training files in ``data``, each in ``COLD_STARTS`` fresh processes."""
    walls, readings = cold_runs("import", COLD_IMPORT, src)
    fit_walls, fit_readings = cold_runs(
        "bspline fit", COLD_FIT, src, "--output-dir", data, "fit",
        "--curves", f"{data}/train_curves.csv", "--responses", f"{data}/train_responses.csv",
        *CLI_FIT_FLAGS, "--model-out", "cold_model.json")
    return {"runs": COLD_STARTS, "import_s_median": statistics.median(walls),
            "import_s_all": walls, **readings,
            "bspline_fit": {"fit_flags": list(CLI_FIT_FLAGS), "n_train": CLI_TRAIN,
                            "wall_s_median": statistics.median(fit_walls),
                            "wall_s_all": fit_walls, **fit_readings}}


def cli_round_trip(cli, clock: LayerClock, missing: set, src: Path) -> tuple[dict, dict]:
    """The fastest of ``REPEATS`` CLI fit -> predict round trips, and the
    :func:`cold_start` readings, which fit the same training files."""

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
        faults = []
        all_layers = []
        for _ in range(REPEATS):
            clock.reset()
            f0 = minor_faults()
            t0 = time.perf_counter()
            run("--output-dir", tmp, "fit", "--curves", f"{tmp}/train_curves.csv",
                "--responses", f"{tmp}/train_responses.csv", *CLI_FIT_FLAGS,
                "--model-out", "model.json")
            t1 = time.perf_counter()
            run("--output-dir", tmp, "predict", "--model", f"{tmp}/model.json",
                "--curves", f"{tmp}/query_curves.csv", "--out", "predictions.csv")
            t2 = time.perf_counter()
            faults.append(minor_faults() - f0)
            walls.append(t2 - t0)
            all_layers.append(layer_times(clock.seconds, missing, t2 - t0))
            if best is None or t2 - t0 < best[0]:
                best = (t2 - t0, t1 - t0, t2 - t1, all_layers[-1], dict(clock.calls))
        peak_mb = predict_peak_rss_mb(
            src, "--output-dir", tmp, "predict", "--model", f"{tmp}/model.json",
            "--curves", f"{tmp}/query_curves.csv", "--out", "predictions.csv")
        cold = cold_start(src, tmp)
    print(f"cli predict peak RSS: {peak_mb:.1f} MB")
    wall, fit_s, predict_s, layers, calls = best
    print_run("cli", wall, layers)
    print(f"cli minor faults per round trip: median {statistics.median(faults)}")
    return {"n_train": CLI_TRAIN, "queries": CLI_QUERIES, "fit_flags": list(CLI_FIT_FLAGS),
            "round_trip_s": wall, "round_trip_s_all": walls,
            "round_trip_s_median": statistics.median(walls), "fit_s": fit_s,
            "predict_s": predict_s, "layers_s": layers,
            "layers_s_median": median_layers(all_layers), "calls": calls,
            "predict_peak_rss_mb": peak_mb, "minor_faults_all": faults,
            "minor_faults_median": statistics.median(faults)}, cold


def replication_run(design: str, n: int, clock: LayerClock, missing: set,
                    repeats: int = REPEATS) -> dict:
    """The fastest of ``repeats`` replications of one dataset of ``design``
    at ``n`` (seed 0, stream 0), with its layers, the per-layer medians and
    the minor page faults of every replication."""
    from funvar.bench import ExperimentConfig, run_replication
    from funvar.simulate import SimSpec, gen_dataset

    cfg = ExperimentConfig(design, n=n, n_reps=1)
    ds = gen_dataset(SimSpec(design, n, 0, 0))
    best = None
    walls = []
    faults = []
    all_layers = []
    for _ in range(repeats):
        clock.reset()
        f0 = minor_faults()
        t0 = time.perf_counter()
        rec = run_replication(cfg, 0, dataset=ds)
        wall = time.perf_counter() - t0
        faults.append(minor_faults() - f0)
        walls.append(wall)
        all_layers.append(layer_times(clock.seconds, missing, wall))
        if best is None or wall < best[0]:
            best = (wall, all_layers[-1], dict(clock.calls), rec)
    wall, layers, calls, rec = best
    print_run(f"{design} n={n}", wall, layers)
    print(f"{design} n={n} minor faults per replication: median {statistics.median(faults)}")
    return {"n": n, "replication_s": wall, "replication_s_all": walls,
            "replication_s_median": statistics.median(walls),
            "layers_s": layers, "layers_s_median": median_layers(all_layers),
            "calls": calls, "h_m": rec.h_m, "h_v": rec.h_v, "mse": rec.mse,
            "minor_faults_all": faults, "minor_faults_median": statistics.median(faults)}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, str(args.src.resolve()))
    from funvar import cli  # before the clock installs, so its names are wrapped too

    clock = LayerClock()
    missing = clock.install()
    try:
        # first, as in the benchmark's own process: once a larger run has
        # freed large arrays, the C allocator trims the heap less often
        ex3_run = replication_run("ex3", EX3_SIZE, clock, missing, EX3_REPEATS)
        runs = [replication_run("ex2", n, clock, missing) for n in SIZES]
        cli_run, cold = cli_round_trip(cli, clock, missing, args.src)
    finally:
        clock.uninstall()
    rss = replication_peaks(args.src)
    out = {"label": args.label, "machine": machine(),
           "source_sha256": source_digest(args.src),
           "config": {"design": "ex2", "seed": 0, "stream": 0, "kernel": "quadratic",
                      "grid_size": 20, "methods": ["residual", "direct"],
                      "repeats": REPEATS},
           "runs": runs, "ex3_run": ex3_run, "cli_round_trip": cli_run, "cold_start": cold,
           "replication_peak_rss_mb": statistics.median(rss),
           "replication_peak_rss_mb_all": rss}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
