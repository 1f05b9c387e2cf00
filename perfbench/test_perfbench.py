"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

Every workload runs at a tiny size, untraced and traced, and must emit every
metric BENCHMARK.json names with its declared unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import cfextract  # noqa: E402
import spans  # noqa: E402
import workloads as w  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {
    "tree-mixed": lambda: w.TreeMixed(depth=4, targets=(w.TreeTarget(0, None, None, None),)),
    "adversarial-anytime": lambda: w.AdversarialAnytime(s=(4, 3), eval_points=200),
    "forest-exact": lambda: w.ForestExact(
        n_trees=2, depth=2, targets=(w.ForestTarget(0, None, None, None),)),
    "baselines": lambda: w.Baselines(
        depth=3, server_sample=50, sample_budget=50, budget=40, fidelity_points=200,
        targets=(w.BaselineTarget(0, None, None, None, None),)),
}


def _check_metrics(result: dict, kind: str) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert isinstance(metric["value"], (int, float)), name


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(w.WORKLOADS) == {x["name"] for x in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = run.measure_untraced(TINY[name](), seed=3, seconds=0)
    _check_metrics(result, "end_to_end")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["success_rate"] == 1.0
    for key in ("setup_s", "attack_s", "verify_s", "queries", "peak_rss_mb", "fidelity"):
        assert values[key] > 0, key


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name):
    result, tracer = run.measure_traced(TINY[name](), seed=3, seconds=0)
    _check_metrics(result, "per_layer")
    assert result["metrics"]["oracles.query.calls"]["value"] > 0
    assert tracer.names


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_self_times_fit_in_their_phases(name):
    tracer = spans.Tracer()
    tracer.install()
    try:
        phases = w.Phases(tracer)
        result = run._setup_and_round(TINY[name](), 5, phases)
    finally:
        tracer.uninstall()
    assert not result.failures
    roots = tracer.roots()
    assert {tracer.names[r] for r in roots} <= set(w.PHASES)
    for i, p in enumerate(tracer.parents):
        if p >= 0:  # a child span lies inside its parent
            assert tracer.starts[p] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[p]
    own = tracer.self_times()
    assert min(own) >= 0
    layer_time = {name: 0.0 for name in w.PHASES}
    for i, root in enumerate(roots):
        if i != root:
            layer_time[tracer.names[root]] += own[i]
    for name in w.PHASES:  # the layers' self times never exceed the phase's wall time
        assert layer_time[name] <= phases.seconds[name]


def test_uninstall_restores_every_binding():
    modules = {n: m for n, m in sys.modules.items()
               if n == "cfextract" or n.startswith("cfextract.")}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    methods = {(c, k): v for c in (cfextract.CounterfactualOracle, cfextract.TreeModel,
                                   cfextract.ForestModel, cfextract.ExtractionState,
                                   cfextract.LeafIdOracle, cfextract.Distance)
               for k, v in vars(c).items()}
    tracer = spans.Tracer()
    tracer.install()
    assert cfextract.tra.split is not before[("cfextract.tra", "split")]
    tracer.uninstall()
    assert before == {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert methods == {(c, k): v for (c, k) in methods for v in [vars(c)[k]]}


def test_rebinding_reaches_callers_that_imported_the_name():
    tracer = spans.Tracer()
    tracer.install()
    try:
        schema = cfextract.FeatureSchema([cfextract.NumericFeature("x", 0, 1, "1/8")])
        tree = cfextract.gen_random_tree(schema, 2, 0)
        cfextract.tra_extract(cfextract.CounterfactualOracle(tree), snapshot_every=0)
    finally:
        tracer.uninstall()
    names = set(tracer.names)
    assert {"tra.tra_extract", "oracles.query", "oracles.exact_tree_cf",
            "regions.split", "regions.center", "regions.grid_volume"} <= names
    assert tracer.counters["tra.queue_peak"] >= 1


def test_a_mismatched_pin_is_a_counted_failure_not_an_abort():
    workload = w.TreeMixed(depth=4, targets=(w.TreeTarget(0, None, 1, None),))
    result = run.measure_untraced(workload, seed=0, seconds=0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert result["metrics"]["queries"]["value"] > 1


def test_size_class_tables_start_at_the_reference_target():
    for kind in (w.TreeMixed, w.ForestExact, w.Baselines):
        seeds = [t.gen_seed for t in kind.TARGETS]
        assert seeds[0] == 0
        assert len(set(seeds)) == len(seeds)


def test_benchmark_json_shape():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    bounds = [m["bound"] for m in SPEC["end_to_end"]]
    assert max(bounds) <= 0.25 and setup[0]["bound"] == max(bounds)
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))


def test_exits_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-mixed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
