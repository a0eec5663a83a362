"""The benchmark's workloads: set-up, one operation, and the correctness gate.

``mc_*``: one operation is one ``bench.run_replication`` of the paper's
Monte-Carlo comparison (defaults: p = 101 grid points, quadratic kernel,
20 candidate bandwidths, both variance methods). Replication indices are
consecutive: the untimed warm-up is replication 0.

``cli_ex3_fit_predict``: set-up writes an ex3 training set and a query set
with ``funvar simulate``; one operation is an in-process ``funvar fit``
followed by ``funvar predict`` of every query curve with that model.

The gate checks structure for any seed (finite values, non-negative
variances, chosen bandwidths on their candidate grid, exit codes 0) and,
for the reference seed, every output against reference files written from
the commit that added the benchmark: floats within ``REL_TOL`` relative,
counts exactly. An operation that runs twice on the same inputs (the
traced half of a pair, every CLI round trip) must reproduce its first
outputs exactly.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import json
import math
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from funvar import cli
from funvar.bench import ExperimentConfig, run_replication
from funvar.curves import read_curves_csv
from funvar.semimetric import SemiMetricSpec, feature_matrix, feature_weights
from funvar.simulate import SimSpec, gen_dataset

WORKLOADS = ("mc_ex2_n2000", "mc_ex3_n200", "cli_ex3_fit_predict")
REFERENCE_SEED = 0
REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
GRID_POINTS = SimSpec("ex1", 1, 0).grid_size
PREDICTION_COLUMNS = ("index", "m_hat", "m_fallback", "v_hat", "v_fallback", "v_clipped")
FLOAT_COLUMNS = ("m_hat", "v_hat")


def plain_root(name: str):
    """Root-span factory for untraced operations."""
    return contextlib.nullcontext()


def make(name: str, seed: int, tiny: bool = False):
    """The named workload; ``tiny`` shrinks it to self-test size."""
    if name == "mc_ex2_n2000":
        return Replications(name, "ex2", 40 if tiny else 2000, seed, tiny)
    if name == "mc_ex3_n200":
        return Replications(name, "ex3", 40 if tiny else 200, seed, tiny)
    if name == "cli_ex3_fit_predict":
        return CliRoundTrip(name, seed, 40 if tiny else 500, 50 if tiny else 5000, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# --- comparison helpers ----------------------------------------------------


def compare(ref, got, rtol: float, path: str = "") -> list[str]:
    """Mismatches between two JSON-like values; floats within ``rtol``."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            keys = sorted(got) if isinstance(got, dict) else type(got).__name__
            return [f"{path}: keys {keys} != {sorted(ref)}"]
        return [e for k in sorted(ref) for e in compare(ref[k], got[k], rtol, f"{path}.{k}")]
    if isinstance(ref, list):
        a, b = np.asarray(ref), np.asarray(got)
        if a.shape != b.shape:
            return [f"{path}: shape {b.shape} != {a.shape}"]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            bad = np.abs(a - b) > rtol * np.maximum(np.abs(a), np.abs(b))
        else:
            bad = a != b
        idx = np.flatnonzero(bad)
        return [f"{path}[{i}]: {b[i]!r} != {a[i]!r}" for i in idx[:5]]
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(ref, (int, float)):
            return [f"{path}: {got!r} != {ref!r}"]
        if ref == got or abs(ref - got) <= rtol * max(abs(ref), abs(got)):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def quantile_grid(features: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Candidate bandwidths recomputed independently of the program.

    Same rule as ``estimators.default_bandwidth_grid`` (quantiles 0.05..1 of
    the positive pairwise distances), but distances come from the Gram
    expansion over the upper triangle, in row blocks, so the check shares
    no distance code with the program and stays small in memory.
    """
    fw = np.asarray(features, dtype=float) * np.sqrt(weights)
    n = fw.shape[0]
    sq = np.einsum("ij,ij->i", fw, fw)
    vals = np.empty(n * (n - 1) // 2)
    pos = 0
    for lo in range(0, n, 256):
        hi = min(lo + 256, n)
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (fw[lo:hi] @ fw.T)
        for i in range(lo, hi):
            row = d2[i - lo, i + 1:]
            vals[pos:pos + row.size] = row
            pos += row.size
    d = np.sqrt(np.maximum(vals, 0.0))
    d = d[d > 0]
    qs = np.array([1.0]) if size == 1 else np.linspace(0.05, 1.0, size)
    return np.unique(np.quantile(d, qs, method="inverted_cdf"))


def on_grid(h, grid: np.ndarray) -> bool:
    return (
        isinstance(h, float)
        and math.isfinite(h)
        and h > 0
        and float(np.min(np.abs(grid - h))) <= REL_TOL * h
    )


def count_ok(c, n: int) -> bool:
    return type(c) is int and 0 <= c <= n


def reference_path(name: str, tiny: bool) -> Path:
    return REFERENCE_DIR / f"{name}{'-tiny' if tiny else ''}.json.gz"


def write_reference(path: Path, records: list) -> None:
    payload = json.dumps({"seed": REFERENCE_SEED, "records": records}, sort_keys=True)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
        f.write(payload.encode())


class Workload:
    """Shared reference lookup; subclasses define set-up, run and checks."""

    name: str
    seed: int
    tiny: bool

    def reference(self, k: int):
        if self.seed != REFERENCE_SEED:
            return None
        if not hasattr(self, "_reference"):
            with gzip.open(reference_path(self.name, self.tiny), "rt") as f:
                self._reference = json.load(f)["records"]
        key = self.input_key(k)
        return self._reference[key] if key < len(self._reference) else None

    def check(self, k: int, out) -> tuple[dict | None, list[str]]:
        """(record of the outputs, mismatches) for operation k."""
        try:
            rec = self.record(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return None, [f"op {k}: unreadable outputs: {exc}"]
        errs = self.structure(out, rec)
        ref = self.reference(k)
        if ref is not None:
            errs += compare(ref, rec, REL_TOL, "reference")
        return rec, [f"op {k}: {e}" for e in errs]


class Replications(Workload):
    def __init__(self, name: str, design: str, n: int, seed: int, tiny: bool):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.cfg = ExperimentConfig(design, n=n, base_seed=seed)
        self.reference_count = 20 if tiny else (24 if n > 1000 else 500)

    def sizes(self) -> dict:
        return {"n": self.cfg.n, "p": GRID_POINTS, "queries": 0,
                "grid_size": self.cfg.grid_size}

    def setup(self, workdir: str) -> None:
        pass

    def input_key(self, k: int) -> int:
        return k

    def run(self, k: int, root) -> tuple[object, dict]:
        t0 = perf_counter()
        with root("bench.run_replication"):
            rec = run_replication(self.cfg, k)
        return rec, {"op_s": perf_counter() - t0}

    def record(self, rec) -> dict:
        return {"rep": rec.rep, "failed": rec.failed, "h_m": rec.h_m, "h_v": rec.h_v,
                "mse": rec.mse, "fallbacks": rec.fallbacks, "clips": rec.clips}

    def structure(self, out, rec: dict) -> list[str]:
        if rec["failed"]:
            return [f"replication failed: {out.error}"]
        cfg = self.cfg
        ds = gen_dataset(SimSpec(cfg.design, cfg.n, cfg.base_seed, rec["rep"]))
        spec = cfg.resolved_spec
        grid = quantile_grid(feature_matrix(spec, ds.curves),
                             feature_weights(spec, ds.curves.grid), cfg.grid_size)
        errs = []
        if not on_grid(rec["h_m"], grid):
            errs.append(f"h_m {rec['h_m']!r} is not a grid candidate")
        for m in cfg.methods:
            if not on_grid(rec["h_v"].get(m), grid):
                errs.append(f"h_v[{m}] {rec['h_v'].get(m)!r} is not a grid candidate")
            mse = rec["mse"].get(m)
            if not (isinstance(mse, float) and math.isfinite(mse) and mse >= 0):
                errs.append(f"mse[{m}] {mse!r} is not a finite non-negative number")
        expected = {"residual_pseudo", "residual_eval", "direct_eval"}
        if set(rec["fallbacks"]) != expected or set(rec["clips"]) != {"direct"}:
            errs.append(f"counter keys {sorted(rec['fallbacks'])} {sorted(rec['clips'])}")
        for key, c in [*rec["fallbacks"].items(), *rec["clips"].items()]:
            if not count_ok(c, cfg.n):
                errs.append(f"counter {key} = {c!r} outside [0, {cfg.n}]")
        return errs


class CliRoundTrip(Workload):
    FIT_FLAGS = ("--deriv-method", "bspline", "--order", "1", "--v-order", "0",
                 "--method", "direct")

    def __init__(self, name: str, seed: int, n_train: int, n_query: int, tiny: bool):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.n_train, self.n_query = n_train, n_query
        self.reference_count = 1
        self._grids = None

    def sizes(self) -> dict:
        return {"n": self.n_train, "p": GRID_POINTS, "queries": self.n_query,
                "grid_size": 20}

    def _simulate(self, stem: str, n: int, stream: int) -> None:
        argv = ["--seed", str(self.seed), "--output-dir", self.dir, "simulate",
                "--example", "ex3", "--n", str(n), "--stream", str(stream), "--stem", stem]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"funvar simulate exited {rc}")

    def setup(self, workdir: str) -> None:
        self.dir = os.path.abspath(workdir)
        self._simulate("train", self.n_train, 0)
        self._simulate("query", self.n_query, 1)
        self.train_curves = os.path.join(self.dir, "train_curves.csv")
        self.train_responses = os.path.join(self.dir, "train_responses.csv")
        self.query_curves = os.path.join(self.dir, "query_curves.csv")
        self._calls = 0

    def input_key(self, k: int) -> int:
        return 0

    def run(self, k: int, root) -> tuple[object, dict]:
        # every call writes its own files, so outputs can be checked after the timed loop
        self._calls += 1
        model = os.path.join(self.dir, f"model-{self._calls}.json")
        predictions = os.path.join(self.dir, f"predictions-{self._calls}.csv")
        fit_argv = ["--output-dir", self.dir, "fit", "--curves", self.train_curves,
                    "--responses", self.train_responses, *self.FIT_FLAGS,
                    "--model-out", os.path.basename(model)]
        predict_argv = ["--output-dir", self.dir, "predict", "--model", model,
                        "--curves", self.query_curves, "--out", os.path.basename(predictions)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            with root("cli.fit"):
                rc_fit = cli.main(fit_argv)
            t1 = perf_counter()
            with root("cli.predict"):
                rc_predict = cli.main(predict_argv)
            t2 = perf_counter()
        out = (rc_fit, rc_predict, model, predictions)
        return out, {"op_s": t2 - t0, "fit_s": t1 - t0, "predict_s": t2 - t1}

    def record(self, out) -> dict:
        """The outputs of one round trip; its files are removed once read."""
        _, _, model_path, predictions_path = out
        try:
            with open(model_path, encoding="utf-8") as f:
                model = json.load(f)
            with open(predictions_path, newline="", encoding="utf-8") as f:
                rows = list(csv.reader(f))
        finally:
            for path in (model_path, predictions_path):
                if os.path.exists(path):
                    os.unlink(path)
        if tuple(rows[0]) != PREDICTION_COLUMNS:
            raise ValueError(f"prediction header {rows[0]}")
        cols = {}
        for j, name in enumerate(PREDICTION_COLUMNS):
            kind = float if name in FLOAT_COLUMNS else int
            cols[name] = [kind(r[j]) for r in rows[1:]]
        return {"h_m": model["h_m"], "h_v": model["h_v"], "counters": model["counters"],
                "predictions": cols}

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        if self._grids is None:
            train = read_curves_csv(self.train_curves)
            self._grids = tuple(
                quantile_grid(feature_matrix(spec, train),
                              feature_weights(spec, train.grid), 20)
                for spec in (SemiMetricSpec.deriv_l2(1, "bspline"),
                             SemiMetricSpec.deriv_l2(0, "bspline"))
            )
        return self._grids

    def structure(self, out, rec: dict) -> list[str]:
        errs = [f"{cmd} exited {rc}" for cmd, rc in zip(("fit", "predict"), out[:2]) if rc != 0]
        grid_m, grid_v = self.grids()
        if not on_grid(rec["h_m"], grid_m):
            errs.append(f"h_m {rec['h_m']!r} is not a grid candidate")
        if not on_grid(rec["h_v"], grid_v):
            errs.append(f"h_v {rec['h_v']!r} is not a grid candidate")
        expected = {"pseudo_fallbacks", "insample_eval_fallbacks", "insample_clips"}
        if set(rec["counters"]) != expected:
            errs.append(f"counter keys {sorted(rec['counters'])}")
        for key, c in rec["counters"].items():
            if not count_ok(c, self.n_train):
                errs.append(f"counter {key} = {c!r} outside [0, {self.n_train}]")
        p = {k: np.asarray(v) for k, v in rec["predictions"].items()}
        if p["index"].shape != (self.n_query,) or np.any(p["index"] != np.arange(self.n_query)):
            errs.append(f"prediction rows are not indices 0..{self.n_query - 1}")
            return errs
        if not np.all(np.isfinite(p["m_hat"])):
            errs.append("non-finite mean prediction")
        if not np.all(np.isfinite(p["v_hat"]) & (p["v_hat"] >= 0)):
            errs.append("variance prediction not finite and non-negative")
        for flag in ("m_fallback", "v_fallback", "v_clipped"):
            if not np.all((p[flag] == 0) | (p[flag] == 1)):
                errs.append(f"{flag} is not 0/1")
        if np.any((p["v_clipped"] == 1) & (p["v_hat"] != 0)):
            errs.append("clipped variance prediction is not 0")
        return errs


class Gate:
    """Counts operations and mismatches; remembers first outputs per input."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first: dict = {}

    def check(self, k: int, out, exc: BaseException | None = None) -> None:
        self.attempted += 1
        if exc is not None:
            errs = [f"op {k}: {''.join(traceback.format_exception(exc)).strip()}"]
        else:
            rec, errs = self.wl.check(k, out)
            key = self.wl.input_key(k)
            if rec is not None and key in self._first:
                errs += [f"op {k}: rerun differs: {e}"
                         for e in compare(self._first[key], rec, 0.0, "rerun")]
            elif rec is not None:
                self._first[key] = rec
        if errs:
            self.failed += 1
            self.errors.extend(errs)
            for e in errs[:3]:
                print(f"mismatch: {e}", file=sys.stderr)


def run_op(wl, k: int, root):
    try:
        out, times = wl.run(k, root)
        return out, times, None
    except Exception as exc:  # a failed operation is counted, the run goes on
        return None, None, exc
