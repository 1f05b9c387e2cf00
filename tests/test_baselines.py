import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cfextract as cx
from cfextract import baselines
from tests.conftest import make_schema
from tests.test_models import single_split_tree


# -- PathFinding ---------------------------------------------------------------


def test_pathfinding_single_leaf_costs_seed_plus_boundaries(schema_grid10):
    target = cx.TreeModel(schema_grid10, [cx.Leaf(0)])
    oracle = cx.LeafIdOracle(target)
    model, log = cx.pathfinding_extract(oracle, schema_grid10,
                                        epsilon=Fraction(1, 10))
    assert model.node_count == 1
    # one seed query plus one confirmation probe per axis side
    assert log.count == 1 + 2 * schema_grid10.m


def test_pathfinding_single_split_exact_and_costlier_than_tra():
    sch = cx.FeatureSchema([
        cx.NumericFeature("x1", 0, 1, Fraction(1, 1024)),
        cx.NumericFeature("x2", 0, 1, Fraction(1, 1024)),
    ])
    target = single_split_tree(sch, 0, 511)
    model, log = cx.pathfinding_extract(cx.LeafIdOracle(target), sch,
                                        epsilon=Fraction(1, 1024))
    ok, _ = cx.functional_equivalence(target, model, sch)
    assert ok
    tra_res = cx.tra_extract(cx.CounterfactualOracle(target))
    assert tra_res.log.count == 3
    # bisection pays out log2(1/delta) probes per discovered boundary
    assert log.count > 5 * tra_res.log.count


def test_pathfinding_equivalence_on_random_trees(schema_mixed):
    delta = min(ax.step for ax in schema_mixed.interval_axes)
    for seed in range(4):
        target = cx.gen_random_tree(schema_mixed, depth=5, seed=seed)
        model, log = cx.pathfinding_extract(cx.LeafIdOracle(target), schema_mixed, delta)
        ok, witness = cx.functional_equivalence(target, model, schema_mixed)
        assert ok, witness
        assert log.count > cx.stats(target).leaf_count  # strictly more than one per leaf


@pytest.mark.parametrize("kind, match", [("forest", "single tree"),
                                         ("null-leaf", "unknown leaves")],
                         ids=["forest", "null-leaf"])
def test_pathfinding_rejects_forests(schema_mixed, kind, match):
    target = (cx.gen_random_forest(schema_mixed, 2, 2, seed=0) if kind == "forest" else
              cx.TreeModel(schema_mixed, [cx.Leaf(0), cx.Leaf(None), cx.SplitNode(0, 20, 0, 1)],
                           root=2))
    with pytest.raises(cx.UnsupportedModelError, match=match):
        cx.LeafIdOracle(target)


def test_pathfinding_epsilon_below_grid_rejected(schema_grid10):
    target = single_split_tree(schema_grid10, 0, 5)
    with pytest.raises(cx.ContractViolation):
        cx.pathfinding_extract(cx.LeafIdOracle(target), schema_grid10,
                               epsilon=Fraction(1, 100_000))


@pytest.mark.parametrize("kind", ["small3", "mixed"])
def test_pathfinding_without_epsilon_is_equivalent(kind):
    # small3's numeric axes have different steps, so no single precision fits
    sch = make_schema(kind)
    target = cx.gen_random_tree(sch, 5, seed=3)
    model, oracle = cx.pathfinding_extract(cx.LeafIdOracle(target), sch)
    assert cx.functional_equivalence(target, model, sch) == (True, None)
    assert oracle.count > target.leaf_count


def test_pathfinding_epsilon_coarser_than_a_numeric_step_rejected():
    sch = make_schema("small3")
    target = cx.gen_random_tree(sch, 3, seed=0)
    with pytest.raises(cx.ContractViolation, match="axis a"):
        cx.pathfinding_extract(cx.LeafIdOracle(target), sch, epsilon=Fraction(1, 15))
    with pytest.raises(cx.ContractViolation, match="axis c"):
        cx.pathfinding_extract(cx.LeafIdOracle(target), sch, epsilon=Fraction(1, 31))


@given(kind=st.sampled_from(["mixed", "groups2", "small3"]), depth=st.integers(0, 5),
       classes=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
def test_pathfinding_boxes_are_the_target_leaves(kind, depth, classes, seed):
    # bisection to the grid step finds each leaf whole, so none is found twice
    sch = make_schema(kind)
    target = cx.gen_random_tree(sch, depth, seed, classes)
    compiled = []
    compile_boxes = baselines.boxes_to_tree
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "boxes_to_tree", lambda schema, boxes:
                   compiled.append(boxes) or compile_boxes(schema, boxes))
        cx.pathfinding_extract(cx.LeafIdOracle(target), sch)
    (boxes,) = compiled
    assert len(boxes) == target.leaf_count
    assert set(boxes) == set(target.leaf_regions())


# -- budgets -----------------------------------------------------------------------


def test_default_budget_is_fifty_times_nodes(schema_grid10):
    target = single_split_tree(schema_grid10, 0, 5)
    assert cx.default_budget(target).max_queries == 50 * 3


def test_budget_validation():
    with pytest.raises(cx.ContractViolation):
        cx.AttackBudget(0)


# -- CF ------------------------------------------------------------------------------


def test_cf_round_bills_one_query(schema_mixed):
    target = cx.gen_random_tree(schema_mixed, depth=4, seed=1)
    oracle = cx.CounterfactualOracle(target)
    res = cx.cf_attack(oracle, cx.AttackBudget(17), seed=0)
    assert res.log.count == 17
    assert res.method == "cf" and not res.certified


def test_cf_constant_target_constant_surrogate(schema_grid10):
    target = cx.TreeModel(schema_grid10, [cx.Leaf(1)])
    records = []
    oracle = cx.CounterfactualOracle(target, sink=records.append)
    res = cx.cf_attack(oracle, cx.AttackBudget(10), seed=0)
    assert len(records) == 10
    assert all(rec.counterfactual is None for rec in records)
    assert res.model.node_count == 1
    assert cx.fidelity(target, res.model, schema_grid10, 500, seed=0).fidelity == 1.0


def test_cf_budget_one_trains_on_at_most_two_points():
    sch = make_schema("grid10")
    target = single_split_tree(sch, 0, 5)  # mid split: both priors 0.5
    oracle = cx.CounterfactualOracle(target)
    res = cx.cf_attack(oracle, cx.AttackBudget(1), seed=3)
    assert res.log.count == 1
    assert res.model.leaf_count <= 2
    fid = cx.fidelity(target, res.model, sch, 2000, seed=1).fidelity
    assert fid >= 0.5  # never below the max class prior here


# -- DualCF ---------------------------------------------------------------------------


def test_dualcf_round_bills_two_queries(schema_mixed):
    target = cx.gen_random_tree(schema_mixed, depth=4, seed=1)
    records = []
    oracle = cx.CounterfactualOracle(target, sink=records.append)
    res = cx.dualcf_attack(oracle, cx.AttackBudget(20), seed=0)
    assert res.log.count == len(records) == 20
    # rounds alternate original and ccf queries over the full domain
    regions = {rec.region for rec in records}
    assert regions == {cx.full_region(schema_mixed)}


def test_dualcf_tightens_threshold_vs_cf():
    # single mid split: ccf points straddle the boundary from both sides, so
    # the dualcf surrogate's threshold lands at least as close to the truth
    sch = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, 256))])
    true_t = 128
    target = cx.TreeModel(sch, [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, true_t, 0, 1)],
                          root=2)

    def learned_threshold(res):
        ts = [n.threshold for n in res.model.nodes if isinstance(n, cx.SplitNode)]
        return min(abs(t - true_t) for t in ts) if ts else 10**9

    budget = cx.AttackBudget(6)
    cf_res = cx.cf_attack(cx.CounterfactualOracle(target), budget, seed=5)
    dual_res = cx.dualcf_attack(cx.CounterfactualOracle(target), budget, seed=5)
    assert learned_threshold(dual_res) <= learned_threshold(cf_res)


def test_surrogate_fidelity_reasonable(schema_mixed):
    target = cx.gen_random_tree(schema_mixed, depth=4, seed=7)
    budget = cx.AttackBudget(300)
    cf_res = cx.cf_attack(cx.CounterfactualOracle(target), budget, seed=1)
    dual_res = cx.dualcf_attack(cx.CounterfactualOracle(target), budget, seed=1)
    for res in (cf_res, dual_res):
        fid = cx.fidelity(target, res.model, schema_mixed, 2000, seed=2).fidelity
        assert fid >= 0.8
        assert res.snapshots[-1].queries == 300


@pytest.mark.parametrize("attack", [cx.cf_attack, cx.dualcf_attack])
def test_final_surrogate_is_trained_once(schema_mixed, monkeypatch, attack):
    calls = []
    train = cx.baselines.train_prefixes
    monkeypatch.setattr(cx.baselines, "train_prefixes",
                        lambda *args: calls.extend(args[3]) or train(*args))
    target = cx.gen_random_tree(schema_mixed, depth=4, seed=7)
    res = attack(cx.CounterfactualOracle(target), cx.AttackBudget(300), seed=1,
                 snapshot_every=20)
    # the snapshot due at the budget is the final one: taken, and trained, once
    assert [s.queries for s in res.snapshots].count(300) == 1
    assert res.snapshots[-1].queries == 300
    assert res.model is res.snapshots[-1].model
    assert len(calls) == len(res.snapshots)


@given(method=st.sampled_from(["tra", "cf", "dualcf"]), seed=st.integers(0, 2**16),
       classes=st.sampled_from([2, 3]), snapshot_every=st.sampled_from([0, 1, 3, 20]),
       rounds=st.integers(1, 3), extra=st.sampled_from([0, 0, 1, 2]))
def test_every_attack_takes_snapshots_by_one_rule(method, seed, classes, snapshot_every,
                                                  rounds, extra):
    target = cx.gen_random_tree(make_schema("mixed"), 3, seed, classes)
    oracle = cx.CounterfactualOracle(target)
    calls = []
    train = cx.baselines.train_prefixes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx.baselines, "train_prefixes",
                   lambda *args: calls.extend(args[3]) or train(*args))
        if method == "tra":
            res = cx.tra_extract(oracle, snapshot_every=snapshot_every)
        else:
            # budgets at, and just past, multiples of snapshot_every
            budget = cx.AttackBudget((snapshot_every or 7) * rounds + extra)
            attack = cx.cf_attack if method == "cf" else cx.dualcf_attack
            res = attack(oracle, budget, seed=seed, snapshot_every=snapshot_every)
    qs = [s.queries for s in res.snapshots]
    assert all(a < b for a, b in zip(qs, qs[1:]))
    assert qs[-1] == res.log.count
    assert res.model is res.snapshots[-1].model
    if method != "tra":
        assert len(calls) == len(res.snapshots)


def training_set_from_records(records, labels, dual):
    """The CF/DualCF training set, points and labels, as the billed records
    spell it out.

    A round starts with the query of a uniform point x. Its counterfactual
    is the first hop and, for DualCF, that counterfactual's own the second.
    A hop's label is the next record's, a query of that counterfactual,
    except the last hop's in a binary task: the other class, billed nowhere.
    A hop whose query no record holds (the budget ran out) is not kept.
    """
    pts, lbls = [], []
    i = 0
    while i < len(records):
        asked = records[i]
        i += 1
        pts.append(asked.x)
        lbls.append(asked.label)
        for last in ([False, True] if dual else [True]):
            cf = asked.counterfactual
            if cf is None:
                break
            if last and len(labels) == 2:
                pts.append(cf)
                lbls.append(labels[0] if asked.label == labels[1] else labels[1])
                break
            if i == len(records):
                break
            asked = records[i]
            i += 1
            assert asked.x == cf  # the hop's query is of the counterfactual
            pts.append(cf)
            lbls.append(asked.label)
    return pts, lbls


# budgets that run out in the middle of a round
@example(method="cf", seed=0, classes=3, budget=3, snapshot_every=0)
@example(method="dualcf", seed=0, classes=2, budget=3, snapshot_every=0)
@example(method="dualcf", seed=0, classes=3, budget=4, snapshot_every=0)
@given(method=st.sampled_from(["cf", "dualcf"]), seed=st.integers(0, 2**16),
       classes=st.sampled_from([2, 3]), budget=st.integers(1, 5),
       snapshot_every=st.sampled_from([0, 1, 2]))
def test_surrogate_trains_on_what_the_records_spell_out(method, seed, classes, budget,
                                                        snapshot_every):
    target = cx.gen_random_tree(make_schema("mixed"), 3, seed, classes)
    records = []
    oracle = cx.CounterfactualOracle(target, sink=records.append)
    trained = []
    train = cx.baselines.train_prefixes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx.baselines, "train_prefixes",
                   lambda *args: trained.extend((args[1][:n], args[2][:n]) for n in args[3])
                   or train(*args))
        attack = cx.cf_attack if method == "cf" else cx.dualcf_attack
        res = attack(oracle, cx.AttackBudget(budget), seed=seed, snapshot_every=snapshot_every)
    assert res.log.count == len(records) == budget
    # each snapshot's surrogate trains on the records billed before it
    assert trained == [training_set_from_records(records[:s.queries], oracle.labels,
                                                 method == "dualcf") for s in res.snapshots]


@pytest.mark.parametrize("attack", [cx.cf_attack, cx.dualcf_attack])
def test_negative_snapshot_every_rejected(schema_grid10, attack):
    oracle = cx.CounterfactualOracle(cx.gen_random_tree(schema_grid10, depth=2, seed=0))
    with pytest.raises(cx.ContractViolation, match="snapshot_every"):
        attack(oracle, cx.AttackBudget(10), snapshot_every=-5)
    assert oracle.log.count == 0


def test_forest_surrogate_kind(schema_mixed):
    target = cx.gen_random_tree(schema_mixed, depth=3, seed=2)
    oracle = cx.CounterfactualOracle(target)
    res = cx.cf_attack(oracle, cx.AttackBudget(40),
                       cx.SurrogateSpec(kind="forest", train=cx.TrainConfig(n_trees=3)),
                       seed=0)
    assert isinstance(res.model, cx.ForestModel)


def test_multiclass_cf_bills_extra_label_queries():
    sch = make_schema("grid10")
    target = cx.gen_chessboard(sch, (2, 1), n_classes=3)
    records = []
    oracle = cx.CounterfactualOracle(target, sink=records.append)
    res = cx.cf_attack(oracle, cx.AttackBudget(30), seed=0)
    assert res.log.count == len(records) == 30
    # counterfactual labels come from their own billed queries here: some
    # queried points must coincide with previously returned counterfactuals
    xs = [rec.x for rec in records]
    cfs = [rec.counterfactual for rec in records if rec.counterfactual]
    assert any(cf in xs for cf in cfs)


# -- golden surrogates ----------------------------------------------------------

GOLDEN_SURROGATES = os.path.join(os.path.dirname(__file__), "golden_surrogates.json")


def surrogate_models_json() -> str:
    """CF and DualCF final and snapshot surrogates, as pretty-printed JSON, on
    a fixed depth-4 three-class tree behind the heuristic oracle."""
    sch = make_schema("mixed")
    target = cx.gen_random_tree(sch, 4, seed=4, n_classes=3)
    rng = np.random.default_rng(7)
    domain = cx.full_region(sch)
    sample = [cx.sample_point(domain, rng) for _ in range(200)]
    config = cx.OracleConfig(mode="heuristic", sample_budget=300, seed=1)
    out = {}
    for name, attack in (("cf", cx.cf_attack), ("dualcf", cx.dualcf_attack)):
        oracle = cx.CounterfactualOracle(target, config, training_data=sample)
        res = attack(oracle, cx.AttackBudget(120), seed=2, snapshot_every=20)
        out[name] = {
            "model": cx.model_json_dict(res.model, "surrogate"),
            "snapshots": [[s.queries, cx.model_json_dict(s.model, "surrogate")]
                          for s in res.snapshots],
        }
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_surrogates_match_golden():
    # written by the per-cut split search that the vectorised one replaced
    with open(GOLDEN_SURROGATES) as fh:
        assert surrogate_models_json() == fh.read()
