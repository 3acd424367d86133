"""Checks on the benchmark itself: tracer coverage, exact counts, the manifest.

    python3 -m pytest perfbench -q

The short runs use each workload's warm-up plan, which runs the same code
paths as the measured plan at the smallest Monte Carlo sizes.
"""

import importlib
import json
from pathlib import Path

import pytest

import worker  # puts src/ on sys.path
from run import END_TO_END_UNITS, PER_LAYER_UNITS, SELF_SUM_SHARE, WORKLOAD_NAMES
from tracer import (EXACT_COUNTS, LAYER_METRICS, Span, Tracer, layer_stats, self_times,
                    summarize, wrapped_names)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# Layers that must report calls > 0 on each workload at this commit. A change
# that legitimately removes a layer's work from a workload updates this table
# in a benchmark change of its own.
ACTIVE = {
    "cutoff-flr": {"designs.sample", "covariance.empirical", "linalg.eigh",
                   "estimators.gamma_solve", "estimators.cutoff", "estimators.sample_theta",
                   "streams.derive_rng", "risk"},
    "dd-pinsker-flr": {"designs.sample", "designs.values", "covariance.empirical",
                       "linalg.eigh", "equivalence.responses", "estimators.gamma_solve",
                       "estimators.data_driven_gamma", "estimators.plugin_fit",
                       "estimators.sample_theta", "streams.derive_rng", "risk"},
    "cli-gaussian": {"cli", "config.load", "designs.sample", "covariance.empirical",
                     "covariance.sqrt_apply", "linalg.eigh", "linalg.slogdet",
                     "equivalence.responses", "equivalence.direct_wn",
                     "equivalence.transform", "estimators.gamma_solve",
                     "estimators.plugin_fit", "estimators.cutoff", "estimators.sample_theta",
                     "risk", "risk.ks", "streams.derive_rng", "serialize.write", "svgplot"},
}


def traced_short_run(name, tmp_path):
    workload = WORKLOADS[name]
    plan = workload.build(7, tmp_path, True)
    tracer = Tracer(name)
    run = worker.execute(plan, tracer=tracer, checked=False)
    assert not [o["error"] for o in run["ops"] if o["error"]]
    return run, tracer.take()


@pytest.fixture(scope="module")
def short_runs(tmp_path_factory):
    return {name: traced_short_run(name, tmp_path_factory.mktemp(name)) for name in WORKLOADS}


def test_wrapped_names_resolve_to_public_attributes():
    for owner_name, attr in wrapped_names():
        module_name, _, cls_name = owner_name.rpartition(".")
        try:
            owner = importlib.import_module(owner_name)
        except ModuleNotFoundError:
            owner = getattr(importlib.import_module(module_name), cls_name)
        assert not attr.startswith("_"), f"{owner_name}.{attr} is private"
        value = vars(owner).get(attr)
        assert callable(value) or isinstance(value, property), f"{owner_name}.{attr} is missing"


@pytest.mark.parametrize("name", sorted(ACTIVE))
def test_active_layers_report_calls(short_runs, name):
    _, spans = short_runs[name]
    stats = layer_stats(spans)
    silent = sorted(layer for layer in ACTIVE[name] if stats.get(layer, {}).get("calls", 0) == 0)
    assert not silent, f"{name}: layers with no traced calls: {silent}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_sum_to_traced_wall(short_runs, name):
    run, spans = short_runs[name]
    total, wall = sum(self_times(spans).values()), run["wall_s"]
    threads = WORKLOADS[name].threads
    assert (1 - SELF_SUM_SHARE) * wall <= total <= (1 + SELF_SUM_SHARE) * threads * wall


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_at_one_seed(short_runs, name, tmp_path):
    _, first = short_runs[name]
    _, second = traced_short_run(name, tmp_path)
    a, b = summarize(first), summarize(second)
    assert {k: a[k] for k in EXACT_COUNTS} == {k: b[k] for k in EXACT_COUNTS}


def test_self_time_subtracts_union_of_children():
    spans = [Span(1, "risk", 0.0, None, 1, "w", end=10.0),
             Span(2, "linalg.eigh", 1.0, 1, 2, "w", end=3.0),
             Span(3, "linalg.eigh", 2.0, 1, 3, "w", end=5.0),     # overlaps span 2
             Span(4, "designs.sample", 9.0, 1, 1, "w", end=12.0)]  # clipped at the parent's end
    assert self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 3.0}


def test_manifest_matches_the_benchmark():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == PER_LAYER_UNITS
    assert [m["name"] for m in manifest["per_layer"]][:len(LAYER_METRICS)] == \
        [name for name, _, _, _ in LAYER_METRICS]
    assert manifest["paths"] == [HERE.name]
