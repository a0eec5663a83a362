"""Monte-Carlo benchmark harness and the spectrometric train/validation workflow.

A replication draws one dataset, selects the mean bandwidth by
cross-validation on the responses, then selects a variance bandwidth per
method by cross-validation on that method's pseudo-responses (squared
residuals, or squared responses for the direct method), and scores each
variance estimate by discrete MSE against the true variance at the n
training curves. Replications are keyed by (base_seed, rep_index) and are
reproducible independently and in parallel; serialized reports are
byte-identical at any thread count.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from ._blocks import usable_cpus
from .curves import CurveSet, read_curves_csv, read_responses_csv
from .estimators import (
    VARIANCE_METHODS,
    BandwidthSelectionError,
    CvResult,
    MeanFit,
    TrainedMetric,
    VarianceFit,
    _check_smoother,
    _check_variance,
    cv_bandwidth,
    fit_mean,
    fit_variance,
    predict_mean_set,
    predict_variance_insample,
    predict_variance_set,
    squared_residuals,
)
from .kernels import POLICY_FALLBACK
from .semimetric import SemiMetricSpec
from .simulate import DESIGNS, SimSpec, SimulatedDataset, gen_dataset


class ExperimentAbortError(RuntimeError):
    """Too many replications failed for the aggregate to mean anything."""


def design_default_spec(design: str) -> SemiMetricSpec:
    """Per-design semi-metric: plain L2 for the Brownian designs, first
    derivatives for the smooth sinusoids."""
    if design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}")
    return SemiMetricSpec.deriv_l2(order=1 if design == "ex3" else 0)


@dataclass(frozen=True)
class PipelineConfig:
    """What :func:`fit_pipeline` fits, checked once when built: a mean on
    ``spec``, then a variance fit per stage (method, variance spec, h_v)."""

    spec: SemiMetricSpec
    kernel: str = "quadratic"
    stages: tuple = ()
    h_m: float | None = None
    grid_size: int = 20
    policy: str = POLICY_FALLBACK
    self_inclusion: str = "include_self"

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(tuple(s) for s in self.stages))
        given = [h for h in (self.h_m, *(h for _, _, h in self.stages)) if h is not None]
        if not all(isinstance(h, (int, float)) and not isinstance(h, bool) for h in given):
            raise ValueError(f"bandwidths must be numbers, got {given!r}")
        _check_smoother(self.kernel, self.policy, *given)
        _check_variance(self.self_inclusion, *(m for m, _, _ in self.stages))
        if self.grid_size < 1:
            raise ValueError("bandwidth grid size must be positive")
        # spec equality ignores a projection's basis, so the bases are compared too
        for i, (method, spec_v, h_v) in enumerate(self.stages):
            if any(s == (method, spec_v, h_v) and np.array_equal(
                    getattr(s[1], "basis", None), getattr(spec_v, "basis", None))
                   for s in self.stages[:i]):
                raise ValueError(f"duplicate stage: {method} on {spec_v!r}, h_v={h_v}")

    def to_config(self) -> dict:
        """The ``model.json`` fields of a one-stage pipeline, else ValueError."""
        ((method, spec_v, h_v),) = self.stages  # ValueError unless one stage
        return {"semimetric": self.spec.to_config(),
                "variance_semimetric": spec_v.to_config(), "kernel": self.kernel,
                "policy": self.policy, "self_inclusion": self.self_inclusion,
                "variance_method": method, "h_m": self.h_m, "h_v": h_v}

    @classmethod
    def from_config(cls, cfg: dict) -> PipelineConfig:
        """The pipeline of a :meth:`to_config` dict; ValueError if a value is
        missing or malformed, or a bandwidth is None (that would mean CV)."""
        if not isinstance(cfg, dict) or cfg.get("h_m") is None or cfg.get("h_v") is None:
            raise ValueError("the config must give both bandwidths, h_m and h_v")
        spec, spec_v = (SemiMetricSpec.from_config(cfg.get(k))
                        for k in ("semimetric", "variance_semimetric"))
        stage = (cfg.get("variance_method"), spec_v, cfg["h_v"])
        return cls(spec, cfg.get("kernel"), [stage], cfg["h_m"], policy=cfg.get("policy"),
                   self_inclusion=cfg.get("self_inclusion"))


@dataclass(frozen=True)
class ExperimentConfig:
    design: str
    n: int = 200
    n_reps: int = 100
    base_seed: int = 0
    spec: SemiMetricSpec | None = None  # None -> design default
    kernel: str = "quadratic"
    grid_size: int = 20
    self_inclusion: str = "include_self"
    methods: tuple[str, ...] = VARIANCE_METHODS

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.n_reps < 1:
            raise ValueError("n_reps must be positive")
        self.pipeline  # checks the kernel, grid size, self-inclusion mode and methods

    @property
    def resolved_spec(self) -> SemiMetricSpec:
        return self.spec if self.spec is not None else design_default_spec(self.design)

    @property
    def pipeline(self) -> PipelineConfig:
        """One stage per method, all on the resolved semi-metric, with CV."""
        spec = self.resolved_spec
        return PipelineConfig(spec, self.kernel, [(m, spec, None) for m in self.methods],
                              grid_size=self.grid_size, self_inclusion=self.self_inclusion)

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["spec"]
        return {**d, "semimetric": self.resolved_spec.to_config(),
                "methods": list(self.methods)}


@dataclass(frozen=True)
class ReplicationRecord:
    rep: int
    failed: bool = False
    error: str | None = None
    h_m: float | None = None
    h_v: dict = field(default_factory=dict)
    mse: dict = field(default_factory=dict)
    fallbacks: dict = field(default_factory=dict)
    clips: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentReport:
    """Everything run_experiment produced.

    ``wall_clock`` is informational only and is excluded from to_dict()
    so that serialized reports are byte-identical across runs and thread
    counts; every serialized aggregate is recomputable from the records.
    """

    config: ExperimentConfig
    records: tuple
    medians: dict
    n_failed: int
    wall_clock: float

    def to_dict(self) -> dict:
        fallbacks: dict[str, int] = {}
        clips: dict[str, int] = {}
        for rec in self.records:
            for k, c in rec.fallbacks.items():
                fallbacks[k] = fallbacks.get(k, 0) + c
            for k, c in rec.clips.items():
                clips[k] = clips.get(k, 0) + c
        return {
            "config": self.config.to_dict(),
            "replications": [rec.to_dict() for rec in self.records],
            "median_mse": dict(self.medians),
            "n_failed": self.n_failed,
            "fallback_totals": fallbacks,
            "clip_totals": clips,
        }


def canonical_json(data) -> str:
    """Canonical JSON text (sorted keys, indent 2, final newline); stable byte-for-byte."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def serialize_report(report) -> str:
    """Canonical JSON text for a report; stable byte-for-byte."""
    return canonical_json(report.to_dict())


def discrete_mse(estimates, truths) -> float:
    """Mean of squared differences between two equal-length sequences."""
    e = np.asarray(estimates, dtype=float)
    t = np.asarray(truths, dtype=float)
    if e.ndim != 1 or e.shape != t.shape:
        raise ValueError(f"length mismatch: {e.shape} vs {t.shape}")
    if e.size < 1:
        raise ValueError("need at least one value")
    return float(np.mean(np.square(e - t)))


@dataclass(frozen=True)
class PipelineFit:
    """What :func:`fit_pipeline` produced.

    ``cv_m`` and each entry of ``cv_v`` are None where the bandwidth was
    given; ``pseudo_fallbacks`` counts the squared residuals whose
    smoothing fell back to a nearest neighbor (0 when none were computed).
    """

    mean: MeanFit
    cv_m: CvResult | None
    variances: tuple[VarianceFit, ...]
    cv_v: tuple[CvResult | None, ...]
    pseudo_fallbacks: int

    def predict(self, xs: CurveSet) -> tuple[tuple, tuple[tuple, ...]]:
        """The mean's (values, fallback mask) and each stage's (values,
        fallback mask, clip mask) at ``xs``. Each metric's distances from
        ``xs`` are built once, used by every fit on that metric, the mean's
        first, and dropped before the next metric's are built."""
        fits = (self.mean, *self.variances)
        out: list = [None] * len(fits)
        for metric in dict.fromkeys(f.metric for f in fits):
            d = metric.cross(xs)
            for i, f in enumerate(fits):
                if f.metric is metric:
                    out[i] = (predict_mean_set(f, xs, d) if i == 0
                              else predict_variance_set(f, xs, out[0], d))
            del d
        return out[0], tuple(out[1:])


def fit_pipeline(
    train: CurveSet, y, config: PipelineConfig, residual_pseudo=None
) -> PipelineFit:
    """Fit the mean, then one variance function per stage of ``config``.

    A bandwidth left as None is chosen by cross-validation over the default
    grid of its stage's semi-metric: h_m on the responses, h_v on the
    stage's pseudo-responses (squared residuals around the fitted mean, or
    squared responses for the direct method). Stages whose specs one metric
    :meth:`~TrainedMetric.runs`, the mean's or an earlier stage's, share its
    features, distances, grid and binned pairs, so each semi-metric bins its
    pairs once. ``residual_pseudo`` replaces the squared residuals, e.g.
    with squared errors around a known mean.
    """

    def select(metric: TrainedMetric, responses, h):
        # a given bandwidth skips cross-validation
        if h is not None:
            return h, None
        cv = cv_bandwidth(train, responses, metric, config.kernel,
                          metric.grid(config.grid_size))
        return cv.bandwidth, cv

    metric = TrainedMetric(config.spec, train)
    h_m, cv_m = select(metric, y, config.h_m)
    mean_fit = fit_mean(train, y, metric, config.kernel, h_m, config.policy)
    residuals = residual_pseudo
    pseudo_fallbacks = 0
    fits, cvs = [], []
    for method, spec_v, h_v in config.stages:
        if method == "residual" and residuals is None:
            residuals, fb = squared_residuals(mean_fit, config.self_inclusion)
            pseudo_fallbacks = int(fb.sum())
        pseudo = residuals if method == "residual" else mean_fit.y**2
        metric_v = TrainedMetric.of(spec_v, train,
                                    near=(metric, *(f.metric for f in fits)))
        h_v, cv_v = select(metric_v, pseudo, h_v)
        fits.append(fit_variance(method, mean_fit, metric_v, bandwidth=h_v,
                                 self_inclusion=config.self_inclusion,
                                 pseudo_responses=pseudo))
        cvs.append(cv_v)
    return PipelineFit(mean_fit, cv_m, tuple(fits), tuple(cvs), pseudo_fallbacks)


def run_replication(
    cfg: ExperimentConfig,
    rep_index: int,
    dataset: SimulatedDataset | None = None,
    known_mean: bool = False,
) -> ReplicationRecord:
    """One Monte-Carlo replication.

    Steps: draw the dataset for (base_seed, rep_index); run
    :func:`fit_pipeline` with one variance stage per method, all on the
    config's semi-metric, so the distances and the candidate grid are built
    once; then score each method's in-sample variance estimates against
    the true variance.

    ``dataset`` substitutes a pre-built dataset for the seeded draw;
    ``known_mean`` replaces the residual method's pseudo-responses with
    squared errors around the true mean (a diagnostic that isolates the
    variance stage from mean estimation error).
    """
    if rep_index < 0:
        raise ValueError("rep_index must be nonnegative")
    if dataset is None:
        dataset = gen_dataset(SimSpec(cfg.design, cfg.n, cfg.base_seed, rep_index))
    known = (dataset.y - dataset.m_true) ** 2 if known_mean else None
    try:
        fit = fit_pipeline(dataset.curves, dataset.y, cfg.pipeline, residual_pseudo=known)
    except BandwidthSelectionError as exc:
        return ReplicationRecord(rep_index, failed=True, error=str(exc))

    h_v: dict = {}
    mse: dict = {}
    fallbacks: dict = {}
    clips: dict = {}
    if "residual" in cfg.methods and not known_mean:
        fallbacks["residual_pseudo"] = fit.pseudo_fallbacks
    for method, vfit in zip(cfg.methods, fit.variances):
        v_hat, fb, clip = predict_variance_insample(vfit)
        h_v[method] = vfit.bandwidth
        mse[method] = discrete_mse(v_hat, dataset.v_true)
        fallbacks[f"{method}_eval"] = int(fb.sum())
        if method == "direct":
            clips["direct"] = int(clip.sum())
    return ReplicationRecord(rep_index, h_m=fit.mean.bandwidth, h_v=h_v, mse=mse,
                             fallbacks=fallbacks, clips=clips)


def worker_count(threads: int, n_reps: int) -> int:
    """Replication threads to start: ``threads``, capped by the number of
    replications and of usable CPUs, since more would only wait."""
    if threads < 1:
        raise ValueError("threads must be positive")
    return min(threads, n_reps, usable_cpus())


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Run all replications and aggregate per-method median MSE.

    Aborts if more than 20% of replications fail. At most
    :func:`worker_count` threads run replications. The report is identical
    at any ``threads`` value: replications are independent and aggregation
    happens in rep-index order.
    """
    workers = worker_count(threads, cfg.n_reps)
    t0 = time.perf_counter()
    reps = range(cfg.n_reps)
    if workers == 1:
        records = [run_replication(cfg, r) for r in reps]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda r: run_replication(cfg, r), reps))
    n_failed = sum(rec.failed for rec in records)
    if n_failed > 0.2 * cfg.n_reps:
        lines = [
            f"rep {rec.rep}: {rec.error}" for rec in records if rec.failed
        ]
        raise ExperimentAbortError(
            f"{n_failed} of {cfg.n_reps} replications failed (> 20%):\n"
            + "\n".join(lines)
        )
    medians = {}
    for method in cfg.methods:
        vals = [rec.mse[method] for rec in records if not rec.failed]
        medians[method] = float(np.median(vals))
    return ExperimentReport(
        cfg, tuple(records), medians, n_failed, time.perf_counter() - t0
    )


def convergence_check(
    design: str,
    n_values,
    n_reps: int,
    base_seed: int,
    threads: int = 1,
) -> list[dict]:
    """Median residual-method MSE at each sample size, same seeds throughout.

    Consistency of the estimator should show up as medians decreasing in n.
    """
    ns = [int(n) for n in n_values]
    if len(ns) < 2:
        raise ValueError("need at least two sample sizes")
    if any(b < a for a, b in zip(ns, ns[1:])):
        raise ValueError("sample sizes must be nondecreasing")
    rows = []
    for n in ns:
        cfg = ExperimentConfig(
            design,
            n=n,
            n_reps=n_reps,
            base_seed=base_seed,
            methods=("residual",),
        )
        report = run_experiment(cfg, threads=threads)
        rows.append(
            {
                "n": n,
                "median_mse": report.medians["residual"],
                "n_failed": report.n_failed,
            }
        )
    return rows


@dataclass(frozen=True)
class ChemoConfig:
    """Train/validation workflow over curves read from files.

    The mean is fit with an order-2 derivative semi-metric; the variance
    semi-metric order is chosen among candidates by validation MSE against
    the held-out squared residuals.
    """

    curves_file: str
    responses_file: str
    train_size: int = 150
    mean_order: int = 2
    candidate_orders: tuple[int, ...] = (0, 1, 2)
    deriv_method: str = "bspline"
    knots: int = 20
    degree: int = 5
    kernel: str = "quadratic"
    grid_size: int = 20

    def __post_init__(self):
        if self.train_size < 2:
            raise ValueError("train_size must be at least 2")
        if not self.candidate_orders:
            raise ValueError("need at least one candidate order")
        self.pipeline()  # checks the kernel, grid size and every semi-metric

    def semimetric(self, order: int) -> SemiMetricSpec:
        return SemiMetricSpec.deriv_l2(
            order=order,
            deriv_method=self.deriv_method,
            knots=self.knots,
            degree=self.degree,
        )

    def pipeline(self) -> PipelineConfig:
        """One residual stage per candidate order; not a field, as to_dict is asdict."""
        stages = [("residual", self.semimetric(o), None) for o in self.candidate_orders]
        return PipelineConfig(self.semimetric(self.mean_order), self.kernel, stages,
                              grid_size=self.grid_size)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ChemoReport:
    config: ChemoConfig
    n_total: int
    h_m: float
    h_v: dict
    val_mse: dict
    chosen_order: int
    v_hat: np.ndarray = field(repr=False)
    r_hat: np.ndarray = field(repr=False)
    mean_fallbacks: int = 0
    var_fallbacks: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "n_total": self.n_total,
            "h_m": self.h_m,
            "h_v": {str(k): v for k, v in self.h_v.items()},
            "validation_mse": {str(k): v for k, v in self.val_mse.items()},
            "chosen_order": self.chosen_order,
            "pairs": [
                {"index": i, "v_hat": float(v), "r_squared": float(r)}
                for i, (v, r) in enumerate(zip(self.v_hat, self.r_hat))
            ],
            "mean_fallbacks": self.mean_fallbacks,
            "var_fallbacks": {str(k): v for k, v in self.var_fallbacks.items()},
        }


def chemo_workflow(
    cfg: ChemoConfig, curves: CurveSet | None = None, y=None
) -> ChemoReport:
    """Fit on the leading curves, choose the variance semi-metric order on
    the held-out rest.

    Validation MSE for a candidate order is the mean of
    (R_hat_i - v_hat(X_i))^2 over held-out curves, where R_hat_i is the
    squared validation residual around the fitted mean. Bandwidths are
    cross-validated on training data only. Ties in the order selection go
    to the first candidate listed. ``curves`` and ``y`` may pass in the
    contents of the config's files when the caller has already read them.
    """
    if curves is None:
        curves = read_curves_csv(cfg.curves_file)
    if y is None:
        y = read_responses_csv(cfg.responses_file)
    n = len(curves)
    if y.shape != (n,):
        raise ValueError(f"{y.shape[0]} responses for {n} curves")
    if cfg.train_size >= n:
        raise ValueError(f"train_size {cfg.train_size} must be below {n} curves")
    idx = np.arange(n)
    train = curves.subset(idx[: cfg.train_size])
    val = curves.subset(idx[cfg.train_size :])
    y_train = y[: cfg.train_size]
    y_val = y[cfg.train_size :]

    fit = fit_pipeline(train, y_train, cfg.pipeline())
    (m_val, fb_mean), v_val = fit.predict(val)
    if fb_mean.all():
        raise RuntimeError(
            "every validation mean prediction fell back to a nearest neighbor; "
            "the selected mean bandwidth does not cover the validation curves"
        )
    r_val = (y_val - m_val) ** 2

    h_v: dict = {}
    val_mse: dict = {}
    var_fallbacks: dict = {}
    v_by_order: dict = {}
    for order, vfit, (v_hat, fb_v, _) in zip(cfg.candidate_orders, fit.variances, v_val):
        h_v[order] = vfit.bandwidth
        val_mse[order] = discrete_mse(v_hat, r_val)
        var_fallbacks[order] = int(fb_v.sum())
        v_by_order[order] = v_hat

    chosen = min(cfg.candidate_orders, key=lambda o: val_mse[o])
    return ChemoReport(cfg, n, fit.mean.bandwidth, h_v, val_mse, chosen,
                       v_by_order[chosen], r_val, int(fb_mean.sum()), var_fallbacks)
