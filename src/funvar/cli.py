"""Command-line interface.

Subcommands: simulate (write a seeded dataset), fit (train mean+variance
estimators, write a model JSON), predict (apply a model to new curves),
bench (Monte-Carlo experiment report), chemo (train/validation workflow on
curve files), smallball (small-ball fraction table).

Exit codes: 0 success, 2 usage error, 3 file/I-O error, 4 computation
error. All randomness flows from --seed, which is mandatory for the
stochastic subcommands. Output files are written atomically (temp file +
rename) with the process umask; input files are never modified.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from contextlib import closing, contextmanager
from typing import Iterator

import numpy as np

from ._blocks import chunk_rows
from .bench import (
    ChemoConfig,
    ExperimentConfig,
    PipelineConfig,
    canonical_json,
    chemo_workflow,
    design_default_spec,
    fit_pipeline,
    run_experiment,
    serialize_report,
)
from .curves import (
    CurveSet,
    _atomic_write,
    _write_rows,
    iter_curves_csv,
    read_curves_csv,
    read_responses_csv,
    write_curves_csv,
    write_responses_csv,
)
from .estimators import (
    SELF_INCLUSION_MODES,
    VARIANCE_METHODS,
    TrainedMetric,
    predict_variance_insample,
    quantile_grid,
)
from .kernels import KERNEL_KINDS, POLICY_FALLBACK, WEIGHT_POLICIES
from .semimetric import DERIV_METHODS, SEMIMETRIC_KINDS, SemiMetricSpec
from .simulate import DESIGNS, SimSpec, gen_dataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_COMPUTE = 4


class CliIoError(RuntimeError):
    """A file could not be read, parsed, or written."""


def _write_text(path: str, text: str) -> None:
    with _atomic_write(path) as f:
        f.write(text)


@contextmanager
def _reading(what: str, path: str) -> Iterator[None]:
    """Report a file that cannot be read or parsed as CliIoError."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise CliIoError(f"cannot read {what} from {path}: {exc}") from exc


def _read_curves(path: str) -> CurveSet:
    with _reading("curves", path):
        return read_curves_csv(path)


def _curve_chunks(path: str, rows: int) -> Iterator[CurveSet]:
    with _reading("curves", path):
        yield from iter_curves_csv(path, rows)


def _read_responses(path: str) -> np.ndarray:
    with _reading("responses", path):
        return read_responses_csv(path)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise CliIoError(f"cannot hash {path}: {exc}") from exc
    return h.hexdigest()


def _out_path(args, name: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


def _semimetric_from_args(args, order: int | None = None) -> SemiMetricSpec:
    if args.semimetric == "pca_projection":
        return SemiMetricSpec.pca_projection(dim=args.dim)
    order = args.order if order is None else order
    return SemiMetricSpec.deriv_l2(
        order=order or 0,
        deriv_method=args.deriv_method,
        knots=args.knots,
        degree=args.degree,
    )


def _add_semimetric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--semimetric", choices=SEMIMETRIC_KINDS, default="deriv_l2")
    p.add_argument("--order", type=int, default=None,
                   help="deriv_l2 derivative order (default 0; for bench, the design's order)")
    p.add_argument("--deriv-method", choices=DERIV_METHODS, default="finite_diff")
    p.add_argument("--knots", type=int, default=20)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--dim", type=int, default=1,
                   help="number of components for the pca_projection semi-metric")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="funvar",
        description="Kernel mean/variance function estimation for curve data.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed; required for simulate and bench")
    parser.add_argument("--threads", type=int, default=None,
                        help="harness parallelism (env FUNVAR_THREADS also works)")
    parser.add_argument("--output-dir", default=".",
                        help="directory for all output files")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format for tabular results")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw one seeded dataset and write it")
    p.add_argument("--example", choices=DESIGNS, required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--grid-size", type=int, default=101)
    p.add_argument("--stream", type=int, default=0,
                   help="replication stream id under the seed")
    p.add_argument("--stem", default=None,
                   help="output file name stem (default: the example name)")

    p = sub.add_parser("fit", help="fit mean and variance estimators")
    p.add_argument("--curves", required=True)
    p.add_argument("--responses", required=True)
    _add_semimetric_flags(p)
    p.add_argument("--v-order", type=int, default=None,
                   help="variance-stage derivative order (default: --order)")
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="quadratic")
    p.add_argument("--policy", choices=WEIGHT_POLICIES, default=POLICY_FALLBACK)
    p.add_argument("--self-inclusion", choices=SELF_INCLUSION_MODES,
                   default="include_self")
    p.add_argument("--method", choices=VARIANCE_METHODS, default="residual",
                   help="variance estimation method")
    p.add_argument("--h-m", type=float, default=None,
                   help="mean bandwidth (default: cross-validated)")
    p.add_argument("--h-v", type=float, default=None,
                   help="variance bandwidth (default: cross-validated)")
    p.add_argument("--grid-size", type=int, default=20,
                   help="number of cross-validation bandwidth candidates")
    p.add_argument("--model-out", default="model.json")

    p = sub.add_parser("predict", help="apply a fitted model to curves")
    p.add_argument("--model", required=True)
    p.add_argument("--curves", required=True)
    p.add_argument("--out", default="predictions.csv")

    p = sub.add_parser("bench", help="Monte-Carlo benchmark across replications")
    p.add_argument("--example", choices=DESIGNS, required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--reps", type=int, default=100)
    _add_semimetric_flags(p)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="quadratic")
    p.add_argument("--self-inclusion", choices=SELF_INCLUSION_MODES,
                   default="include_self")
    p.add_argument("--methods", default=",".join(VARIANCE_METHODS),
                   help=f"comma-separated subset of {','.join(VARIANCE_METHODS)}")
    p.add_argument("--grid-size", type=int, default=20)
    p.add_argument("--out", default="report.json")

    p = sub.add_parser("chemo", help="train/validation workflow on curve files")
    p.add_argument("--curves", required=True)
    p.add_argument("--responses", required=True)
    p.add_argument("--train-size", type=int, default=150)
    p.add_argument("--mean-order", type=int, default=2)
    p.add_argument("--orders", default="0,1,2",
                   help="comma-separated candidate variance-stage orders")
    p.add_argument("--deriv-method", choices=DERIV_METHODS, default="bspline")
    p.add_argument("--knots", type=int, default=20)
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="quadratic")
    p.add_argument("--grid-size", type=int, default=20)
    p.add_argument("--report-out", default="chemo_report.json")
    p.add_argument("--pairs-out", default="chemo_pairs.csv")

    p = sub.add_parser("smallball",
                       help="empirical small-ball fraction over a bandwidth grid")
    p.add_argument("--curves", required=True)
    p.add_argument("--index", type=int, default=0,
                   help="index of the center curve within the file")
    _add_semimetric_flags(p)
    p.add_argument("--size", type=int, default=20, help="bandwidth grid size")
    p.add_argument("--out", default=None,
                   help="output file (default: smallball.csv or .json)")

    args = parser.parse_args(argv)
    if args.command in ("simulate", "bench") and args.seed is None:
        parser.error(f"--seed is required for {args.command}")
    if args.command in ("fit", "bench", "smallball") and args.semimetric == "pca_projection":
        for flag in ("order", "v_order"):
            if getattr(args, flag, None) is not None:
                parser.error(f"--{flag.replace('_', '-')} applies to the "
                             "deriv_l2 semi-metric only")
    if args.threads is None:
        env = os.environ.get("FUNVAR_THREADS")
        if env is not None:
            try:
                args.threads = int(env)
            except ValueError:
                parser.error(f"FUNVAR_THREADS must be an integer, got {env!r}")
        else:
            args.threads = 1
    if args.threads < 1:
        parser.error("--threads must be positive")
    return args


def _cmd_simulate(args) -> int:
    ds = gen_dataset(SimSpec(args.example, args.n, args.seed, args.stream,
                             args.grid_size))
    stem = args.stem or args.example
    curves_path = _out_path(args, f"{stem}_curves.csv")
    resp_path = _out_path(args, f"{stem}_responses.csv")
    truth_path = _out_path(args, f"{stem}_truth.csv")
    write_curves_csv(curves_path, ds.curves)
    write_responses_csv(resp_path, ds.y)
    header = ["true_m", "true_v"] + [f"param_{k + 1}" for k in range(ds.params.shape[1])]
    truth = np.column_stack([ds.m_true, ds.v_true, ds.params])
    _write_rows(truth_path, header, (row.tolist() for row in truth))
    for path in (curves_path, resp_path, truth_path):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    train = _read_curves(args.curves)
    y = _read_responses(args.responses)
    spec_v = _semimetric_from_args(args, order=args.v_order)
    cfg = PipelineConfig(_semimetric_from_args(args), args.kernel,
                         [(args.method, spec_v, args.h_v)], args.h_m, args.grid_size,
                         args.policy, args.self_inclusion)
    fit = fit_pipeline(train, y, cfg)
    (vfit,), (cv_v,) = fit.variances, fit.cv_v
    _, fb_eval, clip_eval = predict_variance_insample(vfit)

    model = {
        # absolute paths, so that predict finds the training files from any directory
        "curves_file": os.path.abspath(args.curves),
        "curves_sha256": _sha256(args.curves),
        "responses_file": os.path.abspath(args.responses),
        "responses_sha256": _sha256(args.responses),
        **cfg.to_config(),
        # the chosen bandwidths, so that predict refits without cross-validation
        "h_m": fit.mean.bandwidth,
        "h_v": vfit.bandwidth,
        "cv_m": None if fit.cv_m is None else fit.cv_m.to_table(),
        "cv_v": None if cv_v is None else cv_v.to_table(),
        "counters": {
            "pseudo_fallbacks": fit.pseudo_fallbacks,
            "insample_eval_fallbacks": int(fb_eval.sum()),
            "insample_clips": int(clip_eval.sum()),
        },
    }
    out = _out_path(args, args.model_out)
    _write_text(out, canonical_json(model))
    print(f"wrote {out}")
    return EXIT_OK


def _load_model(path: str) -> tuple[dict, PipelineConfig]:
    """The model and its pipeline; CliIoError if the file is unreadable or
    any value predict passes on is missing or malformed."""
    with _reading("model", path):
        with open(path, encoding="utf-8") as f:
            model = json.load(f)
        files = ("curves_file", "responses_file", "curves_sha256", "responses_sha256")
        bad = [k for k in files
               if not isinstance(model, dict) or not isinstance(model.get(k), str)]
        if bad:
            raise ValueError(f"missing or non-string fields: {', '.join(bad)}")
        return model, PipelineConfig.from_config(model)


def _cmd_predict(args) -> int:
    model, cfg = _load_model(args.model)
    for kind in ("curves", "responses"):
        path = model[f"{kind}_file"]
        if not os.path.exists(path):
            raise CliIoError(f"training {kind} file {path} not found")
        got = _sha256(path)
        if got != model[f"{kind}_sha256"]:
            raise CliIoError(
                f"training {kind} file {path} changed since the model was fit "
                f"(sha256 {got} != {model[f'{kind}_sha256']})"
            )
    train = _read_curves(model["curves_file"])
    y = _read_responses(model["responses_file"])
    # the query curves, a chunk at a time: each chunk is parsed, predicted and
    # written before the next is read, so memory does not grow with the queries
    with closing(_curve_chunks(args.curves, chunk_rows(len(train)))) as chunks:
        first = next(chunks)  # a query file that cannot be read fails before the fit
        fit = fit_pipeline(train, y, cfg)

        def rows():
            start = 0
            for xs in itertools.chain([first], chunks):
                (m_hat, m_fb), ((v_hat, v_fb, v_clip),) = fit.predict(xs)
                cols = (np.arange(start, start + len(xs)), m_hat, m_fb.astype(int),
                        v_hat, v_fb.astype(int), v_clip.astype(int))
                yield from zip(*(c.tolist() for c in cols))
                start += len(xs)

        out = _out_path(args, args.out)
        # a failure in any chunk leaves no output file
        _write_rows(out, ["index", "m_hat", "m_fallback", "v_hat", "v_fallback",
                          "v_clipped"], rows())
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    methods = tuple(m for m in args.methods.split(",") if m)
    order = design_default_spec(args.example).order if args.order is None else args.order
    cfg = ExperimentConfig(
        args.example,
        n=args.n,
        n_reps=args.reps,
        base_seed=args.seed,
        spec=_semimetric_from_args(args, order),
        kernel=args.kernel,
        grid_size=args.grid_size,
        self_inclusion=args.self_inclusion,
        methods=methods,
    )
    report = run_experiment(cfg, threads=args.threads)
    out = _out_path(args, args.out)
    _write_text(out, serialize_report(report))
    summary = " ".join(
        f"{m}={report.medians[m]:.6g}" for m in cfg.methods
    )
    print(f"median MSE: {summary}" if summary else "no methods requested")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_chemo(args) -> int:
    orders = tuple(int(o) for o in args.orders.split(",") if o != "")
    # classify unreadable/unparsable inputs as I/O failures up front; any
    # ValueError out of the workflow itself is then a computation error
    curves = _read_curves(args.curves)
    y = _read_responses(args.responses)
    cfg = ChemoConfig(
        curves_file=args.curves,
        responses_file=args.responses,
        train_size=args.train_size,
        mean_order=args.mean_order,
        candidate_orders=orders,
        deriv_method=args.deriv_method,
        knots=args.knots,
        degree=args.degree,
        kernel=args.kernel,
        grid_size=args.grid_size,
    )
    report = chemo_workflow(cfg, curves, y)
    out_json = _out_path(args, args.report_out)
    _write_text(out_json, serialize_report(report))
    out_csv = _out_path(args, args.pairs_out)
    cols = (np.arange(len(report.v_hat)), report.v_hat, report.r_hat)
    _write_rows(out_csv, ["index", "v_hat", "r_squared"], zip(*(c.tolist() for c in cols)))
    mses = " ".join(f"order{o}={report.val_mse[o]:.6g}" for o in orders)
    print(f"chosen order: {report.chosen_order} ({mses})")
    print(f"wrote {out_json}")
    print(f"wrote {out_csv}")
    return EXIT_OK


def _cmd_smallball(args) -> int:
    cs = _read_curves(args.curves)
    if not 0 <= args.index < len(cs):
        raise ValueError(f"--index {args.index} out of range for {len(cs)} curves")
    metric = TrainedMetric(_semimetric_from_args(args), cs)
    d = metric.cross(cs.subset([args.index]))[0]
    hs = quantile_grid(d, args.size)
    fractions = [float(np.mean(d <= h)) for h in hs]
    out_name = args.out or ("smallball.json" if args.format == "json" else "smallball.csv")
    out = _out_path(args, out_name)
    if args.format == "json":
        payload = {
            "rows": [{"h": float(h), "fraction": f} for h, f in zip(hs, fractions)]
        }
        _write_text(out, canonical_json(payload))
    else:
        _write_rows(out, ["h", "fraction"], zip(hs.tolist(), fractions))
    print(f"wrote {out}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
    "chemo": _cmd_chemo,
    "smallball": _cmd_smallball,
}


def dispatch(args) -> int:
    """Run a parsed command, mapping failures to the documented exit codes."""
    try:
        return _COMMANDS[args.command](args)
    except (CliIoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
