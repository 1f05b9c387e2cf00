import gc
import hashlib
import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cfextract as cx
from tests.conftest import false_absences, make_schema, run_optimized
from tests.test_models import single_split_tree


def run(target, **kwargs):
    oracle = cx.CounterfactualOracle(target)
    return cx.tra_extract(oracle, **kwargs)


def test_constant_target_one_query(schema_grid10):
    res = run(cx.TreeModel(schema_grid10, [cx.Leaf(2)]))
    assert res.log.count == 1
    assert res.model.node_count == 1 and res.model.nodes[0].label == 2
    assert res.certified


def test_single_split_three_queries(schema_grid10):
    target = single_split_tree(schema_grid10, 0, 5)
    res = run(target)
    assert res.log.count == 3
    ok, _ = cx.functional_equivalence(target, res.model, schema_grid10)
    assert ok


def test_certified_fraction_trajectory():
    # ordinal axis of 4 values split in the middle: two equal-volume leaves
    sch = cx.FeatureSchema([cx.OrdinalFeature("x", 4)])
    target = cx.TreeModel(sch, [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 1, 0, 1)], root=2)
    oracle = cx.CounterfactualOracle(target)
    res = cx.tra_extract(oracle, snapshot_every=1)
    fracs = [s.certified_fraction for s in res.snapshots]
    assert fracs[0] == 0  # discovery query finalizes nothing
    assert fracs[1] == Fraction(1, 2)
    assert fracs[-1] == 1
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))


def test_heuristic_run_certifies_no_volume():
    # a depth-7 tree on a 1/1024 axis, an ordinal and a one-hot group: with
    # library defaults, the heuristic run drains its queue, finalizing the
    # whole grid, and still misses part of its target
    sch = cx.FeatureSchema(
        [cx.NumericFeature("x", 0, 1, Fraction(1, 1024)), cx.OrdinalFeature("level", 16),
         cx.CategoricalFeature("colour", ("red", "green", "blue", "grey"))])
    target = cx.gen_random_tree(sch, 7, 5)
    res = cx.tra_extract(cx.CounterfactualOracle(target, cx.OracleConfig(mode="heuristic")))
    assert not cx.functional_equivalence(target, res.model, sch)[0]
    assert not res.certified
    assert [s.certified_fraction for s in res.snapshots] == [0] * len(res.snapshots)


def test_equivalence_on_random_mixed_targets(schema_mixed):
    for seed in range(6):
        target = cx.gen_random_tree(schema_mixed, depth=5, seed=seed)
        res = run(target)
        ok, witness = cx.functional_equivalence(target, res.model, schema_mixed)
        assert ok, witness
        assert res.log.count <= cx.bound_report(target).worst_case_queries


def test_forest_extraction_equivalence(schema_mixed):
    forest = cx.gen_random_forest(schema_mixed, n_trees=3, depth=3, seed=5)
    res = run(forest)
    ok, _ = cx.functional_equivalence(forest, res.model, schema_mixed)
    assert ok


def test_multiclass_provisional_labels_unknown():
    sch = make_schema("grid10")
    target = cx.gen_chessboard(sch, (2, 1), n_classes=3)
    oracle = cx.CounterfactualOracle(target)
    res = cx.tra_extract(oracle, snapshot_every=1)
    assert len(oracle.labels) == 3
    # some early snapshot must carry an unknown region
    assert any(s.model.is_partial for s in res.snapshots[:-1])
    assert not res.model.is_partial
    ok, _ = cx.functional_equivalence(target, res.model, sch)
    assert ok


def test_binary_provisional_labels_cover_all_leaves(schema_grid10):
    target = single_split_tree(schema_grid10, 0, 5)
    oracle = cx.CounterfactualOracle(target)
    res = cx.tra_extract(oracle, snapshot_every=1)
    assert not any(s.model.is_partial for s in res.snapshots)
    # after the first (discovery) query the partial model is already perfect here
    first = res.snapshots[0].model
    assert cx.fidelity(target, first, schema_grid10, 500, seed=1).fidelity == 1.0


def test_ordering_neutrality(schema_mixed):
    for seed in (0, 4):
        target = cx.gen_random_tree(schema_mixed, depth=5, seed=seed)
        runs = [
            run(target, order="fifo"),
            run(target, order="lifo"),
            run(target, order="random", order_seed=123),
        ]
        counts = {r.log.count for r in runs}
        assert len(counts) == 1
        for other in runs[1:]:
            ok, _ = cx.functional_equivalence(runs[0].model, other.model, schema_mixed)
            assert ok


@given(seed=st.integers(0, 2**16), depth=st.integers(1, 5), classes=st.sampled_from([2, 3]),
       order=st.sampled_from(["fifo", "lifo", "random"]))
def test_resolution_stamps_never_decrease_from_root_to_leaf(seed, depth, classes, order):
    # the premise of the anytime replay: a child slot is made by the query that
    # resolves its parent, and a chain of continuation slots shares one stamp
    target = cx.gen_random_tree(make_schema("mixed"), depth, seed, classes)
    res = cx.tra_extract(cx.CounterfactualOracle(target), order=order, order_seed=seed,
                         snapshot_every=0)
    state = res.snapshots[-1].state
    resolved_at = state.resolved_at
    assert all(at <= res.log.count for at in resolved_at)  # the run resolved every slot
    for slot, node in enumerate(state.nodes):
        if not isinstance(node, cx.Leaf):
            assert resolved_at[node.left] >= resolved_at[slot]
            assert resolved_at[node.right] >= resolved_at[slot]


def test_snapshot_cadence(schema_mixed):
    target = cx.gen_random_tree(schema_mixed, depth=6, seed=8)
    res = run(target, snapshot_every=20)
    qs = [s.queries for s in res.snapshots]
    assert qs[-1] == res.log.count
    assert all(q % 20 == 0 for q in qs[:-1])
    assert qs == sorted(qs)


def counting_materialize(monkeypatch) -> list[int]:
    calls = [0]
    materialize = cx.ExtractionState.materialize

    def counted(state, *args):
        calls[0] += 1
        return materialize(state, *args)

    monkeypatch.setattr(cx.ExtractionState, "materialize", counted)
    return calls


@pytest.mark.parametrize("snapshot_every", [0, 1, 7])
def test_terminal_tree_is_built_once(schema_mixed, monkeypatch, snapshot_every):
    calls = counting_materialize(monkeypatch)
    res = run(cx.gen_random_tree(schema_mixed, depth=4, seed=3),
              snapshot_every=snapshot_every)
    assert calls[0] == 1
    assert res.snapshots[-1].model is res.model


def test_snapshots_are_built_on_first_read(schema_mixed, monkeypatch):
    calls = counting_materialize(monkeypatch)
    res = run(cx.gen_random_tree(schema_mixed, depth=4, seed=3), snapshot_every=1)
    assert len(res.snapshots) == res.log.count and calls[0] == 1
    first = res.snapshots[0].model
    assert res.snapshots[0].model is first and calls[0] == 2
    assert first.node_count < res.model.node_count


def live_query_records() -> int:
    gc.collect()
    return sum(type(o) is cx.QueryRecord for o in gc.get_objects())


def test_log_keeps_no_record_without_a_sink(schema_mixed):
    # the meter counts; a record outlives its query only in a sink
    target = cx.gen_random_tree(schema_mixed, depth=4, seed=3)
    before = live_query_records()
    res = cx.tra_extract(cx.CounterfactualOracle(target), snapshot_every=1)
    assert res.log.count > 1 and live_query_records() == before
    records = []
    kept = cx.tra_extract(cx.CounterfactualOracle(target, sink=records.append),
                          snapshot_every=1)
    assert len(records) == kept.log.count == res.log.count
    assert live_query_records() == before + len(records)


def test_negative_snapshot_every_rejected(schema_grid10):
    oracle = cx.CounterfactualOracle(cx.gen_random_tree(schema_grid10, depth=2, seed=0))
    with pytest.raises(cx.ContractViolation, match="snapshot_every"):
        cx.tra_extract(oracle, snapshot_every=-5)
    assert oracle.log.count == 0


def test_snapshot_needs_a_model_or_a_state(schema_grid10):
    with pytest.raises(cx.ContractViolation):
        cx.Snapshot(1, None, Fraction(0))
    res = run(single_split_tree(schema_grid10, 0, 5))
    with pytest.raises(cx.ContractViolation):
        cx.Snapshot(1, res.model, Fraction(0), state=res.snapshots[0].state)


UNCERTIFIED_DRAIN = """
import cfextract as cx
finalize = cx.ExtractionState.finalize
cx.ExtractionState.finalize = lambda state, slot, label, volume: finalize(state, slot, label, 0)
schema = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, "1/8")])
cx.tra_extract(cx.CounterfactualOracle(cx.TreeModel(schema, [cx.Leaf(0)])))
"""


def test_drained_queue_without_full_volume_is_refused_even_under_optimize(monkeypatch):
    # every finalized leaf counts no volume, so the drained queue covers none of the grid
    finalize = cx.ExtractionState.finalize
    monkeypatch.setattr(cx.ExtractionState, "finalize",
                        lambda state, slot, label, volume: finalize(state, slot, label, 0))
    schema = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, "1/8")])
    with pytest.raises(cx.ContractViolation, match="finalized leaves"):
        cx.tra_extract(cx.CounterfactualOracle(cx.TreeModel(schema, [cx.Leaf(0)])))
    proc = run_optimized(UNCERTIFIED_DRAIN)
    assert proc.returncode == 1
    assert "ContractViolation: the queue drained" in proc.stderr


def test_queue_safety_bound(schema_mixed):
    target = cx.gen_random_tree(schema_mixed, depth=6, seed=8)
    oracle = cx.CounterfactualOracle(target)
    with pytest.raises(cx.CapacityError):
        cx.tra_extract(oracle, max_regions=3)


def test_heuristic_oracle_extraction(schema_mixed):
    target = cx.gen_random_tree(schema_mixed, depth=5, seed=2)
    rng = np.random.default_rng(0)
    training = [cx.sample_point(cx.full_region(schema_mixed), rng) for _ in range(300)]
    records = []
    oracle = cx.CounterfactualOracle(
        target, cx.OracleConfig(mode="heuristic"), training_data=training,
        sink=records.append)
    res = cx.tra_extract(oracle)
    assert not res.certified  # heuristic runs never claim a certificate
    if not false_absences(target, records, oracle.distance):
        ok, _ = cx.functional_equivalence(target, res.model, schema_mixed)
        assert ok


@pytest.mark.parametrize("steps, depth, queries", [
    ((1000, 999, 997, 991), 5, 106),  # lcm of the spans about 2**40
    ((1000003, 999983, 999979, 1000033), 4, 25),  # about 2**80, past int64 itself
])
def test_wide_grid_tree_is_extracted_exactly(steps, depth, queries):
    # too wide for an int64 L2 row sum, which the tree oracle does not use
    sch = cx.FeatureSchema([cx.NumericFeature(f"x{i}", 0, 1, Fraction(1, q))
                            for i, q in enumerate(steps)])
    assert not cx.Distance(sch).vectorizable
    target = cx.gen_random_tree(sch, depth=depth, seed=0)
    res = run(target, snapshot_every=0)
    assert res.log.count == queries
    assert res.certified
    ok, _ = cx.functional_equivalence(target, res.model, sch)
    assert ok


@pytest.mark.parametrize("steps, n_trees, depth, queries", [
    ((256,) * 4, 5, 4, 1097),  # 125,902 split-level cells, past the default cap
    ((1000, 999, 997, 991), 3, 3, 75),  # too wide for an int64 L2 row sum
])
def test_forest_past_the_cell_scan_is_extracted_exactly(steps, n_trees, depth, queries):
    sch = cx.FeatureSchema([cx.NumericFeature(f"x{i}", 0, 1, Fraction(1, q))
                            for i, q in enumerate(steps)])
    target = cx.gen_random_forest(sch, n_trees, depth, seed=0)
    res = run(target, snapshot_every=0)
    assert res.log.count == queries
    assert res.certified
    ok, _ = cx.functional_equivalence(target, res.model, sch)
    assert ok
    # the forest's own numpy vote, which does not go through its compiled tree
    assert cx.fidelity(target, res.model, sch).fidelity == 1.0


# -- golden extractions ----------------------------------------------------------

GOLDEN_TRA = {
    "tree": lambda: cx.gen_random_tree(make_schema("mixed"), 5, seed=3, n_classes=3),
    "forest": lambda: cx.gen_random_forest(make_schema("mixed"), 2, 2, seed=4),
}


def golden_tra_path(case: str) -> str:
    return os.path.join(os.path.dirname(__file__), f"golden_tra_{case}.json")


@pytest.mark.parametrize("case", sorted(GOLDEN_TRA))
def test_extraction_matches_golden(case, tmp_path):
    # FIFO queue, exact L2 oracle; the file pins every node of the extracted tree
    res = run(GOLDEN_TRA[case](), snapshot_every=0)
    assert res.certified
    out = tmp_path / "extracted.json"
    cx.save_model(str(out), res.model, "schema.json")
    with open(golden_tra_path(case), "rb") as fh:
        assert out.read_bytes() == fh.read()


# -- golden query traces --------------------------------------------------------


def _mixed_tree():
    """Depth-7 random tree (generator seed 0) on four numeric axes at 1/1024,
    a 16-level ordinal and a four-way one-hot group."""
    sch = cx.FeatureSchema(
        [cx.NumericFeature(f"x{i}", 0, 1, Fraction(1, 1024)) for i in range(4)]
        + [cx.OrdinalFeature("level", 16),
           cx.CategoricalFeature("colour", ("red", "green", "blue", "grey"))])
    return cx.gen_random_tree(sch, 7, 0)


def _forest():
    sch = cx.FeatureSchema([cx.NumericFeature(f"x{i}", 0, 1, Fraction(1, 256))
                            for i in range(5)])
    return cx.gen_random_forest(sch, 3, 3, seed=0)


# run name -> (target, oracle distance, queue order)
TRACE_RUNS = {
    "tree-mixed/l2": (_mixed_tree, "l2", "fifo"),
    "tree-mixed/l1": (_mixed_tree, "l1", "fifo"),
    "tree-mixed/lifo": (_mixed_tree, "l2", "lifo"),
    "adversarial/3,2": (lambda: cx.gen_adversarial(cx.AdversarialSpec((3, 2))), "l2", "fifo"),
    "forest/3xd3": (_forest, "l2", "fifo"),
}
GOLDEN_TRACES = os.path.join(os.path.dirname(__file__), "golden_tra_traces.json")


def trace_digest(records) -> str:
    """SHA-256 of the billed records (x, region, label, counterfactual) as
    compact JSON in grid indices, allowed categories sorted."""
    def point(p):
        return None if p is None else [list(p.ivals), list(p.cats)]

    rows = [[point(r.x), [[list(iv) for iv in r.region.intervals],
                          [sorted(s) for s in r.region.allowed]],
             r.label, point(r.counterfactual)] for r in records]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def trace_summary(name: str) -> dict:
    build, distance, order = TRACE_RUNS[name]
    records = []
    oracle = cx.CounterfactualOracle(build(), cx.OracleConfig(distance=distance),
                                     sink=records.append)
    res = cx.tra_extract(oracle, order=order, snapshot_every=0)
    return {"queries": res.log.count, "sha256": trace_digest(records)}


@pytest.mark.parametrize("name", sorted(TRACE_RUNS))
def test_query_trace_matches_golden_digest(name):
    # every billed record of the run, point for point, as the file pins it
    with open(GOLDEN_TRACES) as fh:
        assert trace_summary(name) == json.load(fh)[name]
