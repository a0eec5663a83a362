"""funvar benchmark: Monte-Carlo replications and the CLI fit -> predict round trip.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc_ex3_n200 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each
    python3 perfbench/run.py --self-test                  # tiny sizes, same code paths
    python3 perfbench/run.py --write-reference [--tiny]   # regenerate the gate's reference

The package is imported from ``src/`` of the checkout; nothing is installed.
BLAS runs on one pinned thread. A run sets up (imports, input files, one
untimed warm-up operation), then runs operations for ``--seconds`` (at
least three), checking every output, and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end:

* ``op_min_s``: wall time of the fastest operation of the run (one
  replication, or one CLI ``fit`` plus ``predict`` round trip). On a shared
  host other tenants only ever add time, in phases of tens of seconds that
  the median of one run follows; the fastest operation comes closest to
  the program's cost on an idle core;
* ``peak_rss_mb``: peak resident memory of this process, in 10^6 bytes;
* ``setup_s``: median over several set-ups (this process and fresh probe
  processes, at least three) of the time from start to the end of the
  warm-up.

With ``--trace 1`` each operation runs twice, untraced and traced; the
metrics are per layer (see ``spans.py``), as means per traced operation.
Lines before the JSON also give the median ``op_s``, ``rep_s``/``rep_s_p90``
or ``fit_s``/``predict_s`` and ``fail_frac``, and ``perfbench/out/`` keeps a
results file per run with the environment, sizes, timings and spans.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_OPS = 3          # timed operations per untraced run, however short --seconds is
MIN_PAIRS = 1        # untraced + traced pairs per traced run
# setup_s is the median of at least SETUP_MIN set-ups (this process and fresh
# probe processes), more while probing has taken under SETUP_PROBE_S
SETUP_MIN, SETUP_MAX, SETUP_PROBE_S = 3, 9, 5.0
P90_MIN_OPS = 100    # a p90 needs at least ten samples above it
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"op_min_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (n = 40, 50 queries)")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


# --- environment record ----------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run from a plain copy of the sources)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "funvar").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --- one workload in this process ------------------------------------------


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under perfbench/.work, removed afterwards."""
    WORK_DIR.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                       cwd=ROOT)
    if r.returncode != 0:
        raise RuntimeError(f"set-up probe exited {r.returncode}:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args, wl, workdir: str) -> int:
    import spans
    from workloads import Gate, plain_root, run_op

    wl.setup(workdir)
    warm_out, _, warm_exc = run_op(wl, 0, plain_root)
    setup_s = perf_counter() - T_START
    if args.setup_probe:
        if warm_exc is not None:
            raise warm_exc
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # outputs are checked after the timed loop, so checking work does not
    # disturb the caches and memory of the operations being timed
    outputs = [(0, warm_out, warm_exc)]
    times: list[dict] = []
    overheads: list[float] = []
    recorder = spans.SpanRecorder()
    k = 1
    t_loop = perf_counter()
    min_ops = MIN_PAIRS if args.trace else MIN_OPS
    while k <= min_ops or perf_counter() - t_loop < args.seconds:
        out, t, exc = run_op(wl, k, plain_root)
        outputs.append((k, out, exc))
        if args.trace:
            with recorder.installed():
                out, t_traced, exc = run_op(wl, k, lambda name, k=k: recorder.root(name, k))
            outputs.append((k, out, exc))
            if t is not None and t_traced is not None:
                overheads.append(t_traced["op_s"] - t["op_s"])
        if t is not None:
            times.append(t)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    gate = Gate(wl)
    for k, out, exc in outputs:
        gate.check(k, out, exc)
    if not times:
        print("error: every operation failed", file=sys.stderr)
        for e in gate.errors[:20]:
            print(e, file=sys.stderr)
        return 1

    op_s = [t["op_s"] for t in times]
    summary = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
               "fail_frac": gate.failed / gate.attempted, "ops_timed": len(op_s),
               "op_s": statistics.median(op_s), "op_min_s": min(op_s)}
    if "fit_s" in times[0]:
        summary["fit_s"] = statistics.median(t["fit_s"] for t in times)
        summary["predict_s"] = statistics.median(t["predict_s"] for t in times)
    else:
        summary["rep_s"] = statistics.median(op_s)
        if len(op_s) >= P90_MIN_OPS:
            summary["rep_s_p90"] = statistics.quantiles(op_s, n=10)[-1]

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": environment(),
              "sizes": wl.sizes(), "summary": summary, "op_times": times,
              "attempted": gate.attempted, "failed": gate.failed,
              "errors": gate.errors[:50]}
    if args.trace:
        n_traced = len(overheads) or 1
        metrics = recorder.metrics(n_traced, statistics.fmean(overheads) if overheads else 0.0)
        selfs = spans.self_times(recorder.spans)
        residual = (sum(selfs) + sum(s.overhead for s in recorder.spans if s.parent >= 0)
                    - sum(s.end - s.start for s in recorder.spans if s.parent < 0))
        result.update(additivity_residual_s=residual, missing_layers=recorder.missing,
                      spans=[asdict(s) for s in recorder.spans])
        units = spans.metric_units()
    else:
        setups = [setup_s]
        t_probe = perf_counter()
        budget = 0.0 if args.tiny else SETUP_PROBE_S
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                          and perf_counter() - t_probe < budget):
            setups.append(probe_setup(args))
        result["setup_samples"] = setups
        summary["setup_s"] = statistics.median(setups)
        metrics = {"op_min_s": min(op_s), "peak_rss_mb": peak_rss_mb,
                   "setup_s": statistics.median(setups)}
        units = E2E_UNITS
    result["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    summary_units = {"setup_s": "s", "rep_s": "s", "rep_s_p90": "s", "fit_s": "s",
                   "predict_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
                   "ops_timed": "count", "op_s": "s", "op_min_s": "s"}
    for name, value in summary.items():
        print(f"{args.workload} {name} = {value:.6g} {summary_units[name]}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


def run_one(args) -> int:
    import funvar
    import workloads

    if not Path(funvar.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported funvar from {funvar.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed, args.tiny)
    with scratch_dir(f"{args.workload}-") as workdir:
        return measure(args, wl, workdir)


# --- several workloads, each in its own process ----------------------------


def child_run(workload: str, seed: int, seconds: float, trace: int, tiny: bool):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                       cwd=ROOT)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if r.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    return r, lines[:-1], result


def run_all(args) -> int:
    from workloads import WORKLOADS

    results = {}
    status = 0
    for w in WORKLOADS:
        r, lines, result = child_run(w, args.seed, args.seconds, args.trace, args.tiny)
        print("\n".join(lines), flush=True)
        if result is None:
            print(f"{w}: exited {r.returncode}\n{r.stderr[-2000:]}", file=sys.stderr)
            status = 1
        results[w] = result
    print(json.dumps({"workloads": results}))
    return status


# --- self-test -------------------------------------------------------------


def self_test() -> int:
    """Every workload at tiny size, untraced and traced, against
    BENCHMARK.json; then the benchmark without the package must fail."""
    import spans
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if expected[0] != E2E_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {expected[0]} != {E2E_UNITS}")
    if expected[1] != spans.metric_units():
        problems.append("BENCHMARK.json per_layer differs from spans.metric_units()")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    must_call = {
        "mc_ex2_n2000": ("simulate.gen_dataset", "kernels.weight_matrix",
                         "estimators.cv_bandwidth", "bench.run_replication"),
        "mc_ex3_n200": ("simulate.gen_dataset", "curves.derivative_set",
                        "semimetric.pairwise_from_features", "bench.run_replication"),
        "cli_ex3_fit_predict": ("curves.read_curves_csv", "estimators.predict_mean_set",
                                "estimators.predict_variance_set", "cli.fit", "cli.predict"),
    }
    for w in WORKLOADS:
        for trace in (0, 1):
            tag = f"{w} trace={trace}"
            r, _, result = child_run(w, 0, 0.5, trace, tiny=True)
            if result is None:
                problems.append(f"{tag}: exited {r.returncode}: {r.stderr[-1500:]}")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] is True and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{tag}: gate failed: {r.stderr[-1500:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metric names or units differ from BENCHMARK.json")
            for k, v in result["metrics"].items():
                if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
                    problems.append(f"{tag}: {k} = {v['value']!r}")
            if trace:
                stem = f"{w}-seed0-trace1-tiny.json"
                saved = json.loads((OUT_DIR / stem).read_text())
                if abs(saved["additivity_residual_s"]) > 1e-6:
                    problems.append(f"{tag}: self times do not add up to the traced wall "
                                    f"({saved['additivity_residual_s']!r} s)")
                if saved["missing_layers"]:
                    problems.append(f"{tag}: layers not found: {saved['missing_layers']}")
                for name in must_call[w]:
                    if not result["metrics"][f"{name}.calls"]["value"] > 0:
                        problems.append(f"{tag}: {name} was never traced")
            print(f"self-test {tag}: ok" if not any(p.startswith(tag) for p in problems)
                  else f"self-test {tag}: FAILED", flush=True)

    # a copy holding only BENCHMARK.json and the benchmark has no package to run
    with scratch_dir("bare-") as bare_dir:
        bare = Path(bare_dir)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        r = subprocess.run([sys.executable, str(bare / BENCH_DIR.name / "run.py"),
                            "--workload", WORKLOADS[1], "--seed", "0", "--seconds", "1",
                            "--trace", "0"], capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S, cwd=bare)
        if r.returncode == 0 or r.stdout.strip():
            problems.append("a bare copy without src/ did not fail cleanly")

    for p in problems:
        print(f"problem: {p}")
    print("self-test passed" if not problems else f"self-test FAILED ({len(problems)})")
    return 0 if not problems else 1


def write_references(tiny: bool) -> int:
    import workloads
    from workloads import REFERENCE_SEED, WORKLOADS, plain_root

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        wl = workloads.make(name, REFERENCE_SEED, tiny)
        records = []
        with scratch_dir(f"{name}-") as workdir:
            wl.setup(workdir)
            for k in range(wl.reference_count):
                out, _ = wl.run(k, plain_root)
                rec = wl.record(out)
                errs = wl.structure(out, rec)
                if errs:
                    raise RuntimeError(f"{name} op {k}: {errs}")
                records.append(rec)
        path = workloads.reference_path(name, tiny)
        workloads.write_reference(path, records)
        print(f"wrote {path.relative_to(ROOT)} ({len(records)} records)", flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    os.environ["FUNVAR_THREADS"] = "1"
    if not (SRC / "funvar" / "__init__.py").is_file():
        print(f"error: no funvar package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.write_reference:
        return write_references(args.tiny)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
