"""Span tracer that wraps flrlab's public functions from outside the package.

A traced call records one span: layer name, start, end, parent span, thread
id and workload. Spans stay in memory and are summarized into per-layer
metrics when the traced operation ends. A layer's self time is its span's
duration minus the part of that interval its child spans cover.

Wrapping rules:

* a function is replaced in its defining module and in every ``flrlab``
  module that imported it with ``from ... import`` (found by identity), so
  ``flrlab.risk.sample_design`` and ``flrlab.cli.sample_design`` are both
  traced;
* ``DesignSample.values`` is replaced as a property and traced only when the
  access materializes the grid;
* ``numpy.linalg.eigh`` and ``numpy.linalg.slogdet`` are replaced by
  attribute, which splits the covariance layer into eigh, determinant and
  the rest;
* every thread keeps its own span stack. Work submitted to a
  ``ThreadPoolExecutor`` runs in a continuation span of the submitting
  layer, parented to the submitting span, so replications on worker threads
  are attributed rather than lost.

A call into the layer that is already innermost on the thread's stack (for
example ``sample_design`` calling ``sample_basis_design``) is not a new span.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# layer -> (defining module, public functions traced as that layer)
FUNCTION_LAYERS = {
    "designs.sample": ("flrlab.designs",
                       ("sample_design", "sample_basis_design", "sample_gaussian_design")),
    "covariance.empirical": ("flrlab.covariance", ("empirical_covariance",)),
    "covariance.sqrt_apply": ("flrlab.covariance", ("sqrt_apply",)),
    "equivalence.responses": ("flrlab.equivalence", ("simulate_flr_responses",)),
    "equivalence.direct_wn": ("flrlab.equivalence", ("simulate_empirical_wn",)),
    "equivalence.transform": ("flrlab.equivalence",
                              ("build_gram_transform", "flr_to_whitenoise", "whitenoise_to_flr")),
    "estimators.gamma_solve": ("flrlab.estimators", ("pinsker_gamma_oracle",)),
    "estimators.data_driven_gamma": ("flrlab.estimators", ("data_driven_gamma",)),
    "estimators.plugin_fit": ("flrlab.estimators", ("flr_pinsker_fit", "flr_pinsker_estimator")),
    "estimators.cutoff": ("flrlab.estimators", ("cutoff_estimator", "select_cutoff")),
    "estimators.sample_theta": ("flrlab.estimators", ("sample_theta",)),
    "risk": ("flrlab.risk", ("mise_monte_carlo", "gamma_consistency_study", "delta56_study",
                             "two_route_draws", "pinsker_decomposition_draws",
                             "rate_regression", "tv_bound", "classifier_tv_proxy")),
    "risk.ks": ("flrlab.risk", ("two_sample_equivalence_test",)),
    "streams.derive_rng": ("flrlab.streams", ("derive_rng", "derive_seed_sequence")),
    "config.load": ("flrlab.config", ("load_config",)),
    "serialize.write": ("flrlab.serialize",
                        ("write_json", "write_grid_function", "write_basis",
                         "write_design_sample", "write_responses", "write_wn_coefficients",
                         "write_seq_observation", "write_eigenpairs", "write_eigenfunctions",
                         "write_kernel", "write_matrix", "write_table")),
    "svgplot": ("flrlab.svgplot", ("line_plot",)),
    "cli": ("flrlab.cli", ("main",)),
}
# layer -> (module, class, property)
PROPERTY_LAYERS = {"designs.values": ("flrlab.designs", "DesignSample", "values")}
# layer -> (module, attribute)
ATTRIBUTE_LAYERS = {
    "linalg.eigh": ("numpy.linalg", "eigh"),
    "linalg.slogdet": ("numpy.linalg", "slogdet"),
}

# (metric, layer, field, unit); every time field is self time in seconds.
# A layer called at least 1000 times per operation on some workload
# (derive_rng) also reports per-call p50/p99 span durations.
LAYER_METRICS = [
    ("designs.sample.calls", "designs.sample", "calls", "count"),
    ("designs.sample.s", "designs.sample", "self_s", "s"),
    ("designs.values.calls", "designs.values", "calls", "count"),
    ("designs.values.s", "designs.values", "self_s", "s"),
    ("designs.values.bytes", "designs.values", "bytes", "bytes"),
    ("covariance.empirical.calls", "covariance.empirical", "calls", "count"),
    ("covariance.empirical.s", "covariance.empirical", "self_s", "s"),
    ("covariance.sqrt_apply.s", "covariance.sqrt_apply", "self_s", "s"),
    ("linalg.eigh.calls", "linalg.eigh", "calls", "count"),
    ("linalg.eigh.s", "linalg.eigh", "self_s", "s"),
    ("linalg.eigh.order3", "linalg.eigh", "order3", "count"),
    ("linalg.slogdet.calls", "linalg.slogdet", "calls", "count"),
    ("linalg.slogdet.s", "linalg.slogdet", "self_s", "s"),
    ("equivalence.responses.s", "equivalence.responses", "self_s", "s"),
    ("equivalence.direct_wn.s", "equivalence.direct_wn", "self_s", "s"),
    ("equivalence.transform.s", "equivalence.transform", "self_s", "s"),
    ("estimators.gamma_solve.calls", "estimators.gamma_solve", "calls", "count"),
    ("estimators.gamma_solve.s", "estimators.gamma_solve", "self_s", "s"),
    ("estimators.gamma_solve.failures", "estimators.gamma_solve", "failures", "count"),
    ("estimators.data_driven_gamma.self_s", "estimators.data_driven_gamma", "self_s", "s"),
    ("estimators.plugin_fit.s", "estimators.plugin_fit", "self_s", "s"),
    ("estimators.cutoff.s", "estimators.cutoff", "self_s", "s"),
    ("estimators.sample_theta.s", "estimators.sample_theta", "self_s", "s"),
    ("risk.self_s", "risk", "self_s", "s"),
    ("risk.ks.s", "risk.ks", "self_s", "s"),
    ("streams.derive_rng.calls", "streams.derive_rng", "calls", "count"),
    ("streams.derive_rng.s", "streams.derive_rng", "self_s", "s"),
    ("streams.derive_rng.call_p50_us", "streams.derive_rng", "p50_us", "us"),
    ("streams.derive_rng.call_p99_us", "streams.derive_rng", "p99_us", "us"),
    ("config.load.s", "config.load", "self_s", "s"),
    ("serialize.write.calls", "serialize.write", "calls", "count"),
    ("serialize.write.s", "serialize.write", "self_s", "s"),
    ("serialize.write.bytes", "serialize.write", "bytes", "bytes"),
    ("svgplot.s", "svgplot", "self_s", "s"),
    ("cli.self_s", "cli", "self_s", "s"),
]

# Counts that must repeat exactly between two runs at one seed.
EXACT_COUNTS = ("designs.values.bytes", "linalg.eigh.calls", "linalg.eigh.order3",
                "estimators.gamma_solve.calls", "serialize.write.bytes")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    workload: str
    call: bool = True          # False for a thread-pool continuation of the parent's layer
    end: float = 0.0
    bytes: int = 0
    order3: int = 0
    failed: bool = False


@dataclass
class Tracer:
    """Collects spans of one workload; one span stack per thread."""

    workload: str
    spans: list = field(default_factory=list)

    def __post_init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def run(self, name, fn, args, kwargs, *, call=True, parent=None, measure=None):
        stack = self._stack()
        if stack and stack[-1].name == name:
            return fn(*args, **kwargs)
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    threading.get_ident(), self.workload, call)
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                measure(span, args + tuple(kwargs.values()), result)
            return result
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _measure_eigh(span, args, result):
    shape = args[0].shape
    batch = 1
    for d in shape[:-2]:
        batch *= d
    span.order3 = batch * shape[-1] ** 3


def _measure_files(span, args, result):
    span.bytes = sum(os.path.getsize(a) for a in args if isinstance(a, (str, Path)))


_MEASURES = {"linalg.eigh": _measure_eigh, "serialize.write": _measure_files}


def flrlab_modules() -> list:
    """Every loaded flrlab module, after importing the ones that hold traced names."""
    importlib.import_module("flrlab.cli")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "flrlab" or name.startswith("flrlab."))]


def wrapped_names() -> list:
    """(owner module, attribute) of every traced public name."""
    names = [(mod, attr) for mod, attrs in FUNCTION_LAYERS.values() for attr in attrs]
    names += [(f"{mod}.{cls}", attr) for mod, cls, attr in PROPERTY_LAYERS.values()]
    names += list(ATTRIBUTE_LAYERS.values())
    return names


class installed:
    """Context manager: wrappers in place on entry, originals restored on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._restore: list = []

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        tracer = self.tracer
        modules = flrlab_modules()
        for layer, (mod_name, attrs) in FUNCTION_LAYERS.items():
            home = importlib.import_module(mod_name)
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = _function_wrapper(tracer, layer, original, _MEASURES.get(layer))
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, name, wrapper)
        for layer, (mod_name, cls_name, attr) in PROPERTY_LAYERS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._set(cls, attr, _values_property(tracer, layer, cls.__dict__[attr]))
        for layer, (mod_name, attr) in ATTRIBUTE_LAYERS.items():
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._set(module, attr, _function_wrapper(tracer, layer, original,
                                                      _MEASURES.get(layer)))
        pool = concurrent.futures.ThreadPoolExecutor
        self._set(pool, "submit", _submit_wrapper(tracer, pool.submit))
        return tracer

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False


def _function_wrapper(tracer, layer, fn, measure):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.run(layer, fn, args, kwargs, measure=measure)
    return traced


def _values_property(tracer, layer, prop):
    def measure(span, args, result):
        sample = args[0]
        span.bytes = sample.n * sample.grid_size * 8

    def values(sample):
        if sample._values is not None:
            return prop.fget(sample)
        return tracer.run(layer, prop.fget, (sample,), {}, measure=measure)
    return property(values, doc=prop.__doc__)


def _submit_wrapper(tracer, submit):
    @functools.wraps(submit)
    def traced_submit(pool, fn, /, *args, **kwargs):
        parent = tracer.current()
        if parent is None:
            return submit(pool, fn, *args, **kwargs)

        def continued(*a, **k):
            return tracer.run(parent.name, fn, a, k, call=False, parent=parent.id)
        return submit(pool, continued, *args, **kwargs)
    return traced_submit


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


_EMPTY = {"calls": 0, "self_s": 0.0, "bytes": 0, "order3": 0, "failures": 0,
          "p50_us": 0.0, "p99_us": 0.0}


def layer_stats(spans) -> dict:
    """layer -> calls, self_s, bytes, order3, failures, p50_us, p99_us."""
    selfs = self_times(spans)
    layers: dict = {}
    for s in spans:
        agg = layers.setdefault(s.name, {**_EMPTY, "durations": []})
        agg["self_s"] += selfs[s.id]
        agg["bytes"] += s.bytes
        agg["order3"] += s.order3
        if s.call:
            agg["calls"] += 1
            agg["failures"] += int(s.failed)
            agg["durations"].append(s.end - s.start)
    for agg in layers.values():
        durations = sorted(agg.pop("durations"))
        agg["p50_us"] = _quantile(durations, 0.5) * 1e6
        agg["p99_us"] = _quantile(durations, 0.99) * 1e6
    return layers


def summarize(spans) -> dict:
    """Per-layer metrics (LAYER_METRICS names) plus ``trace.self_sum_s``."""
    layers = layer_stats(spans)
    metrics = {name: layers.get(layer, _EMPTY)[fld] for name, layer, fld, _ in LAYER_METRICS}
    metrics["trace.self_sum_s"] = sum(agg["self_s"] for agg in layers.values())
    return metrics
