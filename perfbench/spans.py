"""In-memory span recorder around calls into funvar's layer functions.

Each traced function is wrapped by replacing, in every loaded ``funvar``
module, each attribute that holds that same function object. Call sites
import names directly (``from .kernels import weight_matrix``), so an
identity scan keeps the trace correct wherever a later change moves them.
The originals are put back when tracing is switched off.

Spans are kept in memory as (name, start, end, parent, operation id) and
written out by the caller when the run ends. A span's self time is its
duration minus the time its child spans cover. The time a wrapper spends
counting work (argument binding, content digests) is charged to no layer:
it is recorded as the span's ``overhead`` and reported as
``trace.bookkeeping_s``, so that per operation

    sum(self times of every span) + bookkeeping == traced wall time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    op: int
    overhead: float = 0.0  # counting time spent inside the parent, outside [start, end]
    counts: dict = field(default_factory=dict)


def digest(*parts) -> bytes:
    """Content digest of arrays (dtype, shape and bytes) and plain values."""
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            a = np.ascontiguousarray(p)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.data)
        else:
            h.update(repr(p).encode())
    return h.digest()


# --- exact work counters, computed from argument shapes -------------------
#
# Each returns (counts, key, weight). ``key`` is a content digest of the
# inputs, or None; ``weight`` is what ``useful_frac`` weighs a call by.


def _weight_matrix(a, result):
    n, m = a["dist"].shape
    return {"cells": n * m, "fallback_rows": int(np.sum(result[1]))}, None, 0


def _cv_bandwidth(a, result):
    return {
        "candidates": int(result.candidates.size),
        "_qualified": int(np.sum(result.qualified)),
    }, None, 0


def _pairwise(a, result):
    fa, fb, w = a["fa"], a["fb"], a["w"]
    n, p = fa.shape
    m = fb.shape[0]
    pairs = n * m
    counts = {
        "pairs": pairs,
        # direct differences: subtract, square, weight and add per feature, then sqrt
        "flops": pairs * (4 * p + 1),
        # read both feature blocks and the weights, write the distances
        "bytes": 8 * (n * p + m * p + p + pairs),
    }
    return counts, digest(fa, fb, w), pairs


def _feature_matrix(a, result):
    spec, cs = a["spec"], a["cs"]
    basis = spec.basis if spec.basis is not None else ()
    key = digest(spec.to_config(), basis, cs.grid.points, cs.values)
    return {}, key, len(cs)


def _derivative_set(a, result):
    return {"curves": len(a["cs"]) if a["order"] > 0 else 0}, None, 0


def _queries(a, result):
    return {"queries": len(a["xs"])}, None, 0


def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}, None, 0


def _nothing(a, result):
    return {}, None, 0


@dataclass(frozen=True)
class Layer:
    module: str  # short module name under ``funvar``
    func: str
    count: object = _nothing
    metrics: tuple = ()  # reported beyond calls and self_s, with units

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


LAYERS = (
    Layer("curves", "read_curves_csv", _file_bytes, (("bytes", "B"),)),
    Layer("curves", "read_responses_csv"),
    Layer("curves", "derivative_set", _derivative_set, (("curves", "count"),)),
    Layer("semimetric", "feature_matrix", _feature_matrix, (("useful_frac", "ratio"),)),
    Layer("semimetric", "pairwise_from_features", _pairwise, (
        ("pairs", "count"), ("flops", "flop"), ("bytes", "B"), ("useful_frac", "ratio"),
    )),
    Layer("kernels", "weight_matrix", _weight_matrix, (
        ("cells", "count"), ("fallback_rows", "count"),
    )),
    Layer("estimators", "default_bandwidth_grid"),
    Layer("estimators", "cv_bandwidth", _cv_bandwidth, (
        ("candidates", "count"), ("qualified_frac", "ratio"),
    )),
    Layer("estimators", "fit_mean"),
    Layer("estimators", "fit_variance"),
    Layer("estimators", "squared_residuals"),
    Layer("estimators", "predict_variance_insample"),
    Layer("estimators", "predict_mean_set", _queries, (("queries", "count"),)),
    Layer("estimators", "predict_variance_set", _queries, (("queries", "count"),)),
    Layer("simulate", "gen_dataset"),
)

# spans the benchmark opens itself around each operation
ROOTS = ("bench.run_replication", "cli.fit", "cli.predict")

# ratio metrics: name -> (numerator count, denominator count)
RATIOS = {
    "useful_frac": ("_useful", "_weight"),
    "qualified_frac": ("_qualified", "candidates"),
}


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        for key, unit in layer.metrics:
            units[f"{layer.name}.{key}"] = unit
    for name in ROOTS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.bookkeeping_s"] = "s"
    return units


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += (s.end - s.start) + s.overhead
    return [(s.end - s.start) - c for s, c in zip(spans, covered)]


class SpanRecorder:
    """Records spans for operations run inside :meth:`root`.

    Wrapped functions called outside a root span pass straight through.
    Content digests for ``useful_frac`` are scoped to one root span, i.e.
    to one in-process pipeline run (one replication, one CLI call).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._seen: set = set()
        self._op = -1

    @contextmanager
    def root(self, name: str, op: int):
        self._op = op
        self._seen = set()
        span = Span(name, 0.0, 0.0, -1, op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        patches = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "funvar" or name.startswith("funvar."))]
        try:
            for layer in LAYERS:
                try:
                    mod = importlib.import_module(f"funvar.{layer.module}")
                except ModuleNotFoundError:
                    mod = None
                fn = getattr(mod, layer.func, None)
                if fn is None:
                    if layer.name not in self.missing:
                        self.missing.append(layer.name)
                    continue
                wrapper = self._wrap(layer, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            patches.append((m, attr, fn))
                            setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, fn in reversed(patches):
                setattr(m, attr, fn)

    def _wrap(self, layer: Layer, fn):
        sig = inspect.signature(fn)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec._stack:
                return fn(*args, **kwargs)
            entered = perf_counter()
            span = Span(layer.name, 0.0, 0.0, rec._stack[-1], rec._op)
            rec.spans.append(span)
            rec._stack.append(len(rec.spans) - 1)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                rec._stack.pop()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts, key, weight = layer.count(bound.arguments, result)
            if key is not None:
                first = key not in rec._seen
                rec._seen.add(key)
                counts["_weight"] = weight
                counts["_useful"] = weight if first else 0
            span.counts = counts
            span.overhead = (span.start - entered) + (perf_counter() - span.end)
            return result

        return traced

    def metrics(self, n_ops: int, overhead_s: float) -> dict:
        """Per-operation means of every per-layer metric.

        Functions never called report 0 for every metric, ratios included.
        """
        selfs = self_times(self.spans)
        calls: dict = {}
        self_s: dict = {}
        sums: dict = {}
        wall = bookkeeping = 0.0
        for s, t in zip(self.spans, selfs):
            calls[s.name] = calls.get(s.name, 0) + 1
            self_s[s.name] = self_s.get(s.name, 0.0) + t
            for k, v in s.counts.items():
                sums[(s.name, k)] = sums.get((s.name, k), 0) + v
            if s.parent < 0:
                wall += s.end - s.start
            else:
                bookkeeping += s.overhead
        out = {}
        for name in metric_units():
            layer, _, key = name.rpartition(".")
            if layer == "trace":
                continue
            if key == "calls":
                value = calls.get(layer, 0) / n_ops
            elif key == "self_s":
                value = self_s.get(layer, 0.0) / n_ops
            elif key in RATIOS:
                num, den = RATIOS[key]
                d = sums.get((layer, den), 0)
                value = sums.get((layer, num), 0) / d if d else 0.0
            else:
                value = sums.get((layer, key), 0) / n_ops
            out[name] = value
        out["trace.overhead_s"] = overhead_s
        out["trace.wall_s"] = wall / n_ops
        out["trace.bookkeeping_s"] = bookkeeping / n_ops
        return out
