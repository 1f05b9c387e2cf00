from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cfextract as cx
from cfextract.evaluation import _replay
from tests.conftest import (enumerate_region, make_schema, reference_equivalence,
                            reference_replay)
from tests.test_models import single_split_tree


def test_equivalence_reflexive(schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=5, seed=0)
    ok, witness = cx.functional_equivalence(t, t, schema_mixed)
    assert ok and witness is None


def test_equivalence_detects_shifted_threshold(schema_grid10):
    a = single_split_tree(schema_grid10, 0, 5)
    b = single_split_tree(schema_grid10, 0, 6)
    ok, witness = cx.functional_equivalence(a, b, schema_grid10)
    assert not ok
    assert a.predict(witness) != b.predict(witness)
    assert witness.ivals[0] == 6  # the one-step sliver


def test_equivalence_checker_matches_dense_sampling(schema_mixed):
    rng = np.random.default_rng(0)
    iv, cats = cx.uniform_points(schema_mixed, 100_000, seed=9)
    for seed in range(6):
        f = cx.gen_random_tree(schema_mixed, depth=5, seed=seed)
        g = cx.gen_random_tree(schema_mixed, depth=5, seed=seed + 100)
        ok, witness = cx.functional_equivalence(f, g, schema_mixed)
        sampled_equal = bool((f.predict_arrays(iv, cats) == g.predict_arrays(iv, cats)).all())
        if ok:
            assert sampled_equal
        else:
            assert f.predict(witness) != g.predict(witness)


def test_equivalence_tree_vs_forest(schema_mixed):
    forest = cx.gen_random_forest(schema_mixed, 3, 3, seed=1)
    res = cx.tra_extract(cx.CounterfactualOracle(forest))
    ok, _ = cx.functional_equivalence(forest, res.model, schema_mixed)
    assert ok
    ok2, _ = cx.functional_equivalence(res.model, forest, schema_mixed)
    assert ok2


def test_equivalence_capacity_error():
    sch = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, 1024))])
    t = cx.gen_random_tree(sch, depth=6, seed=0)
    with pytest.raises(cx.CapacityError):
        cx.functional_equivalence(t, t, sch, cell_budget=2)


def _second_model(kind, sch, f, seed, data):
    """A model to compare with the tree ``f``: another random tree, ``f``
    itself, ``f`` rebuilt from its boxes, a partial TRA snapshot of ``f``
    (with unknown leaves) or a random forest (for "forests" the test then
    swaps ``f`` for a forest too)."""
    if kind == "tree":
        return cx.gen_random_tree(sch, data.draw(st.integers(0, 5)), seed + 1, 3)
    if kind == "same":
        return f
    if kind == "rebuilt":
        return cx.boxes_to_tree(sch, f.leaf_regions())
    if kind == "snapshot":
        res = cx.tra_extract(cx.CounterfactualOracle(f), snapshot_every=1)
        return data.draw(st.sampled_from(res.snapshots)).model
    return cx.gen_random_forest(sch, data.draw(st.integers(1, 3)), 3, seed + 1, 3)


def _model_pair(kind, depth, seed, other, data):
    """A schema and two models on it: a random tree and ``_second_model``."""
    sch = make_schema(kind)
    f = cx.gen_random_tree(sch, depth, seed, 3)
    g = _second_model(other, sch, f, seed, data)
    if other == "forests":  # a forest against a forest: f takes the place of g's first tree
        f = cx.ForestModel(sch, (f, *g.trees[1:]))
    return sch, f, g


def _disagree(f, g, p) -> bool:
    """Whether ``f`` and ``g`` differ at ``p``; an unknown label agrees with nothing."""
    a, b = f.predict(p), g.predict(p)
    return a is None or b is None or a != b


MODEL_PAIRS = (st.sampled_from(["mixed", "grid10"]), st.integers(0, 5), st.integers(0, 2**16),
               st.sampled_from(["tree", "same", "rebuilt", "snapshot", "forest", "forests"]))


@given(*MODEL_PAIRS, st.booleans(), st.data())
def test_equivalence_matches_the_region_reference(kind, depth, seed, other, swap, data):
    sch, f, g = _model_pair(kind, depth, seed, other, data)
    if swap:
        f, g = g, f
    budget = data.draw(st.integers(0, f.leaf_count + g.leaf_count))

    def outcome(check):
        try:
            return check(f, g, sch, budget)
        except cx.CapacityError as exc:
            return "CapacityError", str(exc)

    assert outcome(cx.functional_equivalence) == outcome(reference_equivalence)
    # the grids are small enough to enumerate: check the verdict point by point
    ok, witness = cx.functional_equivalence(f, g, sch)
    iv, cats = enumerate_region(sch, cx.full_region(sch))
    pred = f.predict_arrays(iv, cats)
    assert ok == bool(((pred == g.predict_arrays(iv, cats)) & (pred != -1)).all())
    if not ok:
        assert _disagree(f, g, witness)


@given(*MODEL_PAIRS, st.data())
def test_equivalence_verdict_is_the_same_in_either_order(kind, depth, seed, other, data):
    sch, f, g = _model_pair(kind, depth, seed, other, data)
    (ok, witness), (ok_swapped, witness_swapped) = (cx.functional_equivalence(f, g, sch),
                                                    cx.functional_equivalence(g, f, sch))
    assert ok == ok_swapped
    for w in (witness, witness_swapped):
        assert (w is None) == ok
        assert ok or _disagree(f, g, w)


def _striped_split(sch):
    """``single_split_tree(sch, 0, 4)`` with each side cut into 10 stripes of
    its label by a chain of splits on x2 at 0..8: the same function, 20 leaves."""
    nodes = []
    roots = []
    for label in (0, 1):
        nodes.append(cx.Leaf(label))  # x2 > 8
        for t in range(8, -1, -1):  # the stripe x2 <= t, else the chain built so far
            nodes.append(cx.Leaf(label))
            nodes.append(cx.SplitNode(1, t, len(nodes) - 1, len(nodes) - 2))
        roots.append(len(nodes) - 1)
    nodes.append(cx.SplitNode(0, 4, *roots))
    return cx.TreeModel(sch, nodes, root=len(nodes) - 1)


def test_equivalence_walks_the_smaller_tree_outside(schema_grid10, monkeypatch):
    small, big = single_split_tree(schema_grid10, 0, 4), _striped_split(schema_grid10)
    assert (small.leaf_count, big.leaf_count) == (2, 20)
    walks = []
    leaf_boxes = cx.TreeModel.leaf_boxes

    def counting(self, intervals, allowed):
        walks.append(self)
        return leaf_boxes(self, intervals, allowed)

    monkeypatch.setattr(cx.TreeModel, "leaf_boxes", counting)
    for f, g in ((small, big), (big, small)):
        walks.clear()
        assert cx.functional_equivalence(f, g, schema_grid10) == (True, None)
        # one walk of the 2-leaf tree, then one of the 20-leaf tree in each of its boxes
        assert walks == [small, big, big]
        # the overlay has 20 cells whichever tree is outside
        assert cx.functional_equivalence(f, g, schema_grid10, cell_budget=20) == (True, None)
        with pytest.raises(cx.CapacityError):
            cx.functional_equivalence(f, g, schema_grid10, cell_budget=19)


def test_fidelity_identical_models(schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=4, seed=3)
    rep = cx.fidelity(t, t, schema_mixed)
    assert rep.fidelity == 1.0 and rep.sample_count == 3000


def test_fidelity_half_disagreement():
    sch = cx.FeatureSchema([cx.OrdinalFeature("x", 10), cx.OrdinalFeature("y", 10)])
    const = cx.TreeModel(sch, [cx.Leaf(0)])
    half = cx.TreeModel(sch, [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 4, 0, 1)], root=2)
    rep = cx.fidelity(const, half, sch, n_samples=3000, seed=11)
    assert abs(rep.fidelity - 0.5) <= 0.02  # binomial at 3000 samples


def test_fidelity_equals_one_when_equivalent(schema_mixed):
    target = cx.gen_random_tree(schema_mixed, depth=5, seed=6)
    res = cx.tra_extract(cx.CounterfactualOracle(target))
    ok, _ = cx.functional_equivalence(target, res.model, schema_mixed)
    assert ok
    assert cx.fidelity(target, res.model, schema_mixed, seed=4).fidelity == 1.0


def test_fidelity_on_supplied_test_points(schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=4, seed=3)
    rng = np.random.default_rng(1)
    pts = [cx.sample_point(cx.full_region(schema_mixed), rng) for _ in range(64)]
    rep = cx.fidelity(t, t, schema_mixed, points=pts)
    assert rep.fidelity == 1.0 and rep.kind == "test" and rep.sample_count == 64


def test_fidelity_kind_follows_the_points(schema_grid10):
    t = single_split_tree(schema_grid10, 0, 5)
    assert cx.fidelity(t, t, schema_grid10, 10).kind == "uniform"
    with pytest.raises(TypeError):
        cx.fidelity(t, t, schema_grid10, 10, kind="test")


# -- anytime fidelity -----------------------------------------------------------------


def _eval_arrays(schema, n=400, seed=0):
    return cx.uniform_points(schema, n, seed)


def test_anytime_constant_curve_for_exact_surrogate(schema_grid10):
    t = single_split_tree(schema_grid10, 0, 5)
    snaps = [cx.Snapshot(20, t, Fraction(1)), cx.Snapshot(40, t, Fraction(1))]
    curve = cx.anytime_fidelity([(t, snaps, _eval_arrays(schema_grid10))])
    assert [v for _, v in curve] == [1.0, 1.0]


def test_anytime_mean_of_two_runs(schema_grid10):
    sch = schema_grid10
    target = single_split_tree(sch, 0, 5)
    good = target
    bad = cx.TreeModel(sch, [cx.Leaf(0)])
    iv, cats = _eval_arrays(sch)
    bad_fid = float((bad.predict_arrays(iv, cats)
                     == target.predict_arrays(iv, cats)).mean())
    runs = [
        (target, [cx.Snapshot(20, good, Fraction(1))], (iv, cats)),
        (target, [cx.Snapshot(20, bad, Fraction(0))], (iv, cats)),
    ]
    curve = cx.anytime_fidelity(runs)
    assert curve[0][1] == pytest.approx((1.0 + bad_fid) / 2)


def test_anytime_carries_last_snapshot_forward(schema_grid10):
    sch = schema_grid10
    target = single_split_tree(sch, 0, 5)
    arrays = _eval_arrays(sch)
    runs = [
        (target, [cx.Snapshot(20, target, Fraction(1))], arrays),  # short run
        (target, [cx.Snapshot(20, cx.TreeModel(sch, [cx.Leaf(0)]), Fraction(0)),
                  cx.Snapshot(60, target, Fraction(1))], arrays),
    ]
    curve = cx.anytime_fidelity(runs)
    assert curve[-1][0] == 60
    assert curve[-1][1] == 1.0


def test_anytime_resamples_to_coarsest_grid(schema_grid10):
    sch = schema_grid10
    target = single_split_tree(sch, 0, 5)
    arrays = _eval_arrays(sch)
    runs = [
        (target, [cx.Snapshot(10, target, Fraction(1)),
                  cx.Snapshot(30, target, Fraction(1))], arrays),
        (target, [cx.Snapshot(20, target, Fraction(1))], arrays),
    ]
    curve = cx.anytime_fidelity(runs, checkpoint=20)
    assert [q for q, _ in curve] == [20, 30]


@pytest.mark.parametrize("n_samples, points", [(0, None), (-1, None), (3000, [])])
def test_fidelity_requires_evaluation_points(schema_grid10, n_samples, points):
    t = single_split_tree(schema_grid10, 0, 5)
    with pytest.raises(cx.ContractViolation, match="evaluation point"):
        cx.fidelity(t, t, schema_grid10, n_samples, points=points)


def test_snapshot_fidelities_refuse_zero_points_before_predicting(schema_mixed):
    # a forest target cannot even predict zero rows' votes: the check comes first
    forest = cx.gen_random_forest(schema_mixed, n_trees=3, depth=3, seed=0, n_classes=3)
    iv, cats = cx.uniform_points(schema_mixed, 0, seed=0)
    snaps = [cx.Snapshot(1, forest.trees[0], Fraction(0))]
    with pytest.raises(cx.ContractViolation, match="evaluation point"):
        cx.snapshot_fidelities(forest, snaps, iv, cats)


def test_uniform_points_refuse_a_negative_count(schema_mixed):
    with pytest.raises(cx.ContractViolation, match="-3 evaluation points"):
        cx.uniform_points(schema_mixed, -3, seed=0)
    iv, cats = cx.uniform_points(schema_mixed, 0, seed=0)
    assert iv.shape == (0, 3) and cats.shape == (0, 1)


@pytest.mark.parametrize("steps, refused", [(2 ** 63 - 1, False), (2 ** 63, True),
                                            (2 ** 64, True)])
def test_array_evaluation_refuses_a_grid_past_int64(steps, refused):
    # grid indices run 0..steps: the last must fit numpy's int64
    sch = cx.FeatureSchema([cx.OrdinalFeature("o", 3),
                            cx.NumericFeature("wide", 0, 1, Fraction(1, steps))])
    last = cx.Point((2, steps), ())
    full = cx.full_region(sch)
    rng = np.random.default_rng(0)
    if refused:
        for call in (lambda: cx.uniform_points(sch, 5, seed=0),
                     lambda: cx.models.points_to_arrays(sch, [last]),
                     lambda: cx.gen_random_tree(sch, 3, seed=0)):
            with pytest.raises(cx.ContractViolation, match=f"axis 'wide' has {steps} grid steps"):
                call()
        with pytest.raises(cx.ContractViolation, match="past grid index 2\\*\\*63 - 1"):
            cx.sample_point(full, rng)
    else:
        iv, _ = cx.uniform_points(sch, 5, seed=0)
        assert iv.dtype == np.int64 and ((0 <= iv[:, 1]) & (iv[:, 1] <= steps)).all()
        iv, _ = cx.models.points_to_arrays(sch, [last])
        assert iv.tolist() == [[2, steps]]
        # the random draws take the whole grid up to its last index
        assert cx.contains(full, cx.sample_point(full, rng))
        assert cx.gen_random_tree(sch, 3, seed=0).leaf_count > 1


@pytest.mark.parametrize("checkpoint", [0, -5])
def test_anytime_refuses_a_checkpoint_below_one(schema_grid10, checkpoint):
    t = single_split_tree(schema_grid10, 0, 5)
    runs = [(t, [cx.Snapshot(20, t, Fraction(1))], _eval_arrays(schema_grid10))]
    with pytest.raises(cx.ContractViolation, match="checkpoint"):
        cx.anytime_fidelity(runs, checkpoint=checkpoint)


def test_anytime_requires_a_run():
    with pytest.raises(cx.ContractViolation, match="at least one run"):
        cx.anytime_fidelity([])


def test_anytime_requires_evaluation_points(schema_grid10):
    t = single_split_tree(schema_grid10, 0, 5)
    res = cx.tra_extract(cx.CounterfactualOracle(t))
    with pytest.raises(cx.ContractViolation):
        cx.anytime_fidelity([(t, res.snapshots, _eval_arrays(schema_grid10, n=0))])


def _agreement(target, model, iv, cats) -> float:
    ref = target.predict_arrays(iv, cats)
    pred = model.predict_arrays(iv, cats)
    return float(((pred == ref) & (pred != -1)).mean())


def _replay_target(family, kind, depth, seed, classes, data):
    """A target of ``family``: a random tree or forest on the ``kind`` schema,
    or an adversarial chain of drawn non-increasing split counts."""
    if family == "adversarial":
        s = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        return cx.gen_adversarial(cx.AdversarialSpec(tuple(sorted(s, reverse=True))))
    if family == "forest":
        return cx.gen_random_forest(make_schema(kind), 2, min(depth, 3), seed, classes)
    return cx.gen_random_tree(make_schema(kind), depth, seed, classes)


@given(seed=st.integers(0, 2**16), depth=st.integers(1, 5), classes=st.sampled_from([2, 3]),
       order=st.sampled_from(["fifo", "lifo", "random"]),
       snapshot_every=st.sampled_from([1, 3, 20]),
       kind=st.sampled_from(["mixed", "2num", "small3", "groups2"]),
       family=st.sampled_from(["tree", "forest", "adversarial"]), data=st.data())
def test_replayed_fidelities_match_the_snapshot_trees(seed, depth, classes, order,
                                                       snapshot_every, kind, family, data):
    # schemas with no groups (2num, small3) and with groups first (groups2)
    target = _replay_target(family, kind, depth, seed, classes, data)
    sch = target.schema
    # the tree after each query, built when the next query starts
    eager = {}
    pop = cx.ExtractionState.pop

    def recording_pop(state):
        eager[state.oracle.log.count] = state.materialize().nodes
        return pop(state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx.ExtractionState, "pop", recording_pop)
        res = cx.tra_extract(cx.CounterfactualOracle(target), order=order, order_seed=seed,
                             snapshot_every=snapshot_every)
    eager[res.log.count] = res.model.nodes
    iv, cats = cx.uniform_points(sch, 300, seed)
    replayed = cx.snapshot_fidelities(target, res.snapshots, iv, cats)
    assert replayed == [_agreement(target, s.model, iv, cats) for s in res.snapshots]
    for snap in res.snapshots:
        assert snap.model.nodes == eager[snap.queries]
    # the level pass gives the per-slot walk's numbers, on any ascending checkpoints
    checkpoints = sorted(data.draw(st.sets(st.integers(0, res.log.count + 2), min_size=1)))
    state, ref = res.snapshots[-1].state, target.predict_arrays(iv, cats)
    assert (_replay(state, checkpoints, iv, cats, ref)
            == reference_replay(state, checkpoints, iv, cats, ref))
    # in one call and shuffled: a subset of the run's snapshots that ends below its
    # final count, a second run's snapshots and a snapshot that carries a model
    early = data.draw(st.permutations(res.snapshots[:-1] or res.snapshots))
    second = cx.tra_extract(cx.CounterfactualOracle(target), order="lifo", snapshot_every=2)
    model = cx.Snapshot(7, cx.gen_random_tree(sch, 2, seed + 1, classes), Fraction(0))
    mixed = data.draw(st.permutations(
        early[:data.draw(st.integers(1, len(early)))] + second.snapshots + [model]))
    assert (cx.snapshot_fidelities(target, mixed, iv, cats)
            == [_agreement(target, s.model, iv, cats) for s in mixed])


@given(seed=st.integers(0, 2**16), depth=st.integers(1, 4), classes=st.sampled_from([2, 3]),
       kind=st.sampled_from(["mixed", "2num", "groups2"]), data=st.data())
def test_replay_against_a_partial_target_matches_the_snapshot_trees_point_for_point(
        seed, depth, classes, kind, data):
    # the run extracts a full tree; its snapshots are scored against a copy with
    # one leaf unknown, where no label agrees, an unknown provisional one included
    sch = make_schema(kind)
    full = cx.gen_random_tree(sch, depth, seed, classes)
    leaves = [i for i, node in enumerate(full.nodes) if isinstance(node, cx.Leaf)]
    unknown = data.draw(st.sampled_from(leaves))
    partial = cx.TreeModel(sch, [cx.Leaf(None) if i == unknown else node
                                 for i, node in enumerate(full.nodes)], full.root)
    res = cx.tra_extract(cx.CounterfactualOracle(full), snapshot_every=2)
    iv, cats = cx.uniform_points(sch, 40, seed)
    for i in range(len(iv)):
        point = iv[i:i + 1], cats[i:i + 1]
        assert (cx.snapshot_fidelities(partial, res.snapshots, *point)
                == [_agreement(partial, s.model, *point)
                    for s in res.snapshots])


# anytime curves (checkpoint 5, 400 uniform points of seed 0) of two TRA runs with
# snapshot_every=5, as predicting every snapshot's tree computed them
GOLDEN_ANYTIME = {
    "adversarial (6, 6)": [
        (5, 0.3425), (10, 0.4325), (15, 0.635), (20, 0.6775), (25, 0.7275),
        (30, 0.7325), (35, 0.765), (40, 0.7525), (45, 0.785), (50, 0.8075),
        (55, 0.8325), (60, 0.855), (65, 0.8725), (70, 0.885), (75, 0.9125),
        (80, 0.9325), (85, 0.9475), (90, 0.9675), (95, 0.9925), (97, 1.0)],
    "mixed depth 5": [
        (5, 0.6575), (10, 0.7325), (15, 0.81), (20, 0.8175), (25, 0.845), (30, 0.8525),
        (35, 0.8875), (40, 0.9125), (45, 0.9475), (50, 0.95), (55, 0.97), (60, 0.97),
        (65, 0.97), (70, 0.975), (75, 0.9825), (80, 0.98), (85, 0.985), (90, 0.985),
        (95, 0.985), (100, 1.0), (105, 1.0), (106, 1.0)],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ANYTIME))
def test_anytime_curve_matches_golden(case):
    if case == "mixed depth 5":
        target = cx.gen_random_tree(make_schema("mixed"), 5, 2)
    else:
        target = cx.gen_adversarial(cx.AdversarialSpec((6, 6)))
    res = cx.tra_extract(cx.CounterfactualOracle(target), snapshot_every=5)
    arrays = cx.uniform_points(target.schema, 400, 0)
    assert cx.anytime_fidelity([(target, res.snapshots, arrays)], checkpoint=5) \
        == GOLDEN_ANYTIME[case]


# -- bounds ---------------------------------------------------------------------------


def test_bound_report_base_cases():
    r = cx.bound_report((1, 1))
    assert (r.worst_case_queries, r.opt_queries_lower, r.c_tra) == (7, 3, Fraction(7, 3))
    r = cx.bound_report((2, 1))
    assert r.worst_case_queries == 11 and r.c_tra == Fraction(11, 4)
    r = cx.bound_report((1,))
    assert r.worst_case_queries == 3 and r.c_tra == Fraction(3, 2)


def test_bound_report_of_no_axes_is_refused():
    with pytest.raises(cx.ContractViolation):
        cx.bound_report(())


def test_bound_report_exact_identity():
    r = cx.bound_report((3, 2, 0, 5))
    assert r.c_tra * (r.n + 1) == r.worst_case_queries
    assert r.prop1_bound <= r.cor1_bound


def test_bound_report_from_model(schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=5, seed=1)
    r = cx.bound_report(t)
    assert r.s == cx.stats(t).s
    assert r.worst_case_queries == 2 * r.prop1_bound - 1
    forest = cx.gen_random_forest(schema_mixed, 3, 3, seed=1)
    assert cx.bound_report(forest) == cx.bound_report(cx.stats(forest).s)


def test_measured_ratio_requires_certificate(schema_mixed):
    target = cx.gen_random_tree(schema_mixed, depth=4, seed=2)
    res = cx.tra_extract(cx.CounterfactualOracle(target))
    ratio = cx.measured_ratio(res.log.count, target, res.model, schema_mixed)
    assert ratio <= cx.bound_report(target).c_tra
    wrong = cx.TreeModel(schema_mixed, [cx.Leaf(0)])
    with pytest.raises(cx.ContractViolation):
        cx.measured_ratio(1, target, wrong, schema_mixed)


def test_measured_ratio_constant_target(schema_grid10):
    target = cx.TreeModel(schema_grid10, [cx.Leaf(0)])
    res = cx.tra_extract(cx.CounterfactualOracle(target))
    assert cx.measured_ratio(res.log.count, target, res.model, schema_grid10) == 1
