from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cfextract as cx
from tests.conftest import (brute_force_cf, false_absences, make_schema, random_subregion,
                            reference_heuristic_cf, reference_line_search, run_optimized,
                            verify_local_optimality)
from tests.test_models import single_split_tree, two_split_target


def test_query_returns_nearest_counterfactual(schema_grid10):
    target = two_split_target(schema_grid10)
    oracle = cx.CounterfactualOracle(target)
    x = schema_grid10.point_of("0.5", "0.5")
    resp = oracle.query(x, cx.full_region(schema_grid10))
    assert resp.counterfactual == schema_grid10.point_of("0.5", "0.4")
    assert resp.label != target.predict(resp.counterfactual)


def test_query_region_inside_leaf_returns_none(schema_grid10):
    target = two_split_target(schema_grid10)
    oracle = cx.CounterfactualOracle(target)
    region = cx.Region(((0, 3), (0, 3)), ())  # inside the lower leaf
    resp = oracle.query(cx.center(region), region)
    assert resp.counterfactual is None


def test_query_precondition(schema_grid10):
    oracle = cx.CounterfactualOracle(two_split_target(schema_grid10))
    region = cx.Region(((0, 3), (0, 3)), ())
    with pytest.raises(cx.ContractViolation):
        oracle.query(schema_grid10.point_of("0.9", "0.9"), region)
    assert oracle.log.count == 0  # rejected calls are not billed


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
@pytest.mark.parametrize("x, region", [
    (cx.Point((3, 4, 5), ()), None),  # one index too many
    (cx.Point((3,), ()), None),  # one too few
    (cx.Point((3, 4), (0,)), None),  # a category for a group the schema lacks
    (cx.Point((3, 4), ()), cx.Region(((0, 9), (0, 9), (0, 9)), ())),
    (cx.Point((3,), ()), cx.Region(((0, 9),), ())),  # both one short, alike
])
def test_query_refuses_a_point_or_region_of_the_wrong_arity(schema_grid10, mode, x, region):
    oracle = cx.CounterfactualOracle(two_split_target(schema_grid10), cx.OracleConfig(mode=mode))
    with pytest.raises(cx.ContractViolation, match="arity"):
        oracle.query(x, region or cx.full_region(schema_grid10))
    assert oracle.log.count == 0


def test_contains_is_false_for_a_point_of_another_arity():
    region = cx.Region(((0, 9), (0, 9)), (frozenset({0, 1}),))
    assert cx.contains(region, cx.Point((3, 4), (1,)))
    for p in (cx.Point((3, 4, 5), (1,)), cx.Point((3,), (1,)), cx.Point((3, 4), ()),
              cx.Point((3, 4), (1, 0))):
        assert not cx.contains(region, p)


def _maybe_outside(draw, region: cx.Region, how: str) -> cx.Point:
    """A point of ``region``, then moved out of it as ``how`` says: below or
    above one interval, to a category its group does not allow, or to
    another arity. Where the region leaves no room for a move, the point
    stays inside."""
    ivals = [draw(st.integers(a, b)) for a, b in region.intervals]
    cats = [draw(st.sampled_from(sorted(s))) for s in region.allowed]
    ivs = region.intervals
    if how == "below" and any(a > 0 for a, _ in ivs):
        i = draw(st.sampled_from([i for i, (a, _) in enumerate(ivs) if a > 0]))
        ivals[i] = draw(st.integers(0, ivs[i][0] - 1))
    elif how == "above":
        i = draw(st.integers(0, len(ivs) - 1))
        ivals[i] = draw(st.integers(ivs[i][1] + 1, ivs[i][1] + 3))
    elif how == "category" and any(len(s) < 3 for s in region.allowed):
        g = draw(st.sampled_from([g for g, s in enumerate(region.allowed) if len(s) < 3]))
        cats[g] = draw(st.sampled_from(sorted({0, 1, 2} - region.allowed[g])))
    elif how == "longer":
        ivals.append(0)
    elif how == "shorter":
        ivals.pop()
    return cx.Point(tuple(ivals), tuple(cats))


def _refusal(call) -> str | None:
    """The message of the ContractViolation ``call()`` raises; None if none."""
    try:
        call()
    except cx.ContractViolation as exc:
        return str(exc)
    return None


@settings(max_examples=150)
@given(st.sampled_from(["mixed", "groups2"]), st.integers(0, 2**32 - 1),
       st.sampled_from(["x", "cf"]),
       st.sampled_from(["inside", "below", "above", "category", "longer", "shorter"]),
       st.data())
def test_fused_checks_refuse_exactly_the_points_contains_puts_outside(kind, seed, moved, how,
                                                                      data):
    # split and exact_tree_cf check containment in the pass that reads the
    # coordinates; each must still refuse exactly what contains rejects, and
    # say which point is out (a piece's own validation would refuse some of
    # them too, as an empty interval)
    sch = make_schema(kind)
    region = random_subregion(sch, np.random.default_rng(seed))
    x = _maybe_outside(data.draw, region, how if moved == "x" else "inside")
    cf = _maybe_outside(data.draw, region, how if moved == "cf" else "inside")
    tree = cx.gen_random_tree(sch, depth=4, seed=seed % 1000)
    x_out = None if cx.contains(region, x) else "query point outside region"
    assert _refusal(lambda: cx.split(region, x, cf, sch)) == (
        x_out or (None if cx.contains(region, cf) else "counterfactual outside region")
        or ("query equals counterfactual" if x == cf else None))
    assert _refusal(lambda: cx.exact_tree_cf(tree, x, region, cx.Distance(sch, "l2"))) == x_out


def test_exact_single_split_example():
    sch = cx.FeatureSchema([cx.NumericFeature("x1", 0, 1, Fraction(1, 10)),
                            cx.NumericFeature("x2", 0, 1, Fraction(1, 10))])
    t = single_split_tree(sch, 0, 5)
    d = cx.Distance(sch)
    assert cx.exact_tree_cf(t, sch.point_of("0.2", "0.9"), cx.full_region(sch), d) == (
        0, sch.point_of("0.6", "0.9"))


def test_exact_none_when_all_labels_match(schema_grid10):
    t = cx.TreeModel(schema_grid10, [cx.Leaf(0)])
    d = cx.Distance(schema_grid10)
    assert cx.exact_tree_cf(t, schema_grid10.point_of("0.5", "0.5"),
                            cx.full_region(schema_grid10), d) == (0, None)


def test_exact_picks_nearer_leaf(schema_grid10):
    sch = schema_grid10
    # leaves at x1 <= 0.2 (class 1) and x1 >= 0.8 (class 1), middle class 0
    nodes = [cx.Leaf(1), cx.Leaf(0), cx.Leaf(1),
             cx.SplitNode(0, 7, 1, 2), cx.SplitNode(0, 2, 0, 3)]
    t = cx.TreeModel(sch, nodes, root=4)
    d = cx.Distance(sch)
    label, cf = cx.exact_tree_cf(t, sch.point_of("0.4", "0.5"), cx.full_region(sch), d)
    assert (label, cf) == (0, sch.point_of("0.2", "0.5"))  # distance 0.2 beats 0.4


def test_exact_tie_breaks_lexicographically():
    sch = cx.FeatureSchema([cx.NumericFeature("x1", 0, 1, Fraction(1, 4)),
                            cx.NumericFeature("x2", 0, 1, Fraction(1, 4))])
    board = cx.gen_chessboard(sch, (1, 1))
    d = cx.Distance(sch)
    x = sch.point_of("0.25", "0.25")
    label, cf = cx.exact_tree_cf(board, x, cx.full_region(sch), d)
    assert label == board.predict(x)
    # both (0.25, 0.5+delta) and (0.5+delta, 0.25) flip at equal distance
    assert cf == sch.point_of("0.25", "0.75")
    ref_d, ref_p = brute_force_cf(board, x, cx.full_region(sch), d)
    assert cf == ref_p and d.scaled(x, cf) == ref_d



@pytest.mark.parametrize("metric", ["l2", "l1"])
def test_exact_descends_a_box_that_already_excludes_x(schema_grid10, metric):
    # Below y <= 5, x1 is cut at 1 and then at 5, so the [6, 10] leaf is reached
    # through a box whose x1 range already starts past the query. Its bound must
    # drop the old gap (x1 = 2) when it adds the new one (x1 = 6): the answer
    # (6, 0) at 36 (L2) / 6 (L1) beats the competitor (1, 6) at 37 / 7.
    nodes = [cx.Leaf(0), cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 5, 1, 2),
             cx.SplitNode(0, 1, 0, 3), cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 0, 5, 6),
             cx.SplitNode(1, 5, 4, 7)]
    t = cx.TreeModel(schema_grid10, nodes, root=8)
    d = cx.Distance(schema_grid10, metric)
    x = cx.Point((0, 0), ())
    full = cx.full_region(schema_grid10)
    assert cx.exact_tree_cf(t, x, full, d) == (0, cx.Point((6, 0), ()))
    assert brute_force_cf(t, x, full, d)[1] == cx.Point((6, 0), ())

def test_ensemble_one_tree_matches_tree_oracle(schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=4, seed=9)
    forest = cx.ForestModel(schema_mixed, [t])
    d = cx.Distance(schema_mixed)
    rng = np.random.default_rng(0)
    for _ in range(50):
        region = random_subregion(schema_mixed, rng)
        x = cx.sample_point(region, rng)
        label_a, a = cx.exact_tree_cf(t, x, region, d)
        label_b, b = cx.exact_ensemble_cf(forest, x, region, d, cell_cap=100_000)
        assert label_a == label_b == t.predict(x)
        if a is None:
            assert b is None
        else:
            assert d.scaled(x, a) == d.scaled(x, b)
            assert a == b


def test_ensemble_capacity_error(schema_mixed):
    forest = cx.gen_random_forest(schema_mixed, 3, 3, seed=2)
    d = cx.Distance(schema_mixed)
    x = cx.center(cx.full_region(schema_mixed))
    with pytest.raises(cx.CapacityError):
        cx.exact_ensemble_cf(forest, x, cx.full_region(schema_mixed), d, cell_cap=10)


def test_exact_oracle_matches_brute_force_tree():
    sch = make_schema("small3")
    d = cx.Distance(sch)
    rng = np.random.default_rng(42)
    for seed in range(4):
        t = cx.gen_random_tree(sch, depth=5, seed=seed)
        for _ in range(120):
            region = random_subregion(sch, rng)
            x = cx.sample_point(region, rng)
            label, got = cx.exact_tree_cf(t, x, region, d)
            assert label == t.predict(x)
            ref = brute_force_cf(t, x, region, d)
            if ref is None:
                assert got is None
            else:
                assert got is not None
                assert d.scaled(x, got) == ref[0]
                assert got == ref[1]


def test_exact_oracle_matches_brute_force_forest():
    sch = make_schema("small3")
    d = cx.Distance(sch)
    rng = np.random.default_rng(1)
    f = cx.gen_random_forest(sch, 3, 3, seed=3)
    for _ in range(120):
        region = random_subregion(sch, rng)
        x = cx.sample_point(region, rng)
        label, got = cx.exact_ensemble_cf(f, x, region, d, cell_cap=200_000)
        assert label == f.predict(x)
        ref = brute_force_cf(f, x, region, d)
        if ref is None:
            assert got is None
        else:
            assert got is not None
            assert d.scaled(x, got) == ref[0]
            assert got == ref[1]


def test_exact_oracle_l1_matches_brute_force():
    sch = make_schema("mixed")
    d = cx.Distance(sch, "l1")
    rng = np.random.default_rng(5)
    t = cx.gen_random_tree(sch, depth=5, seed=13)
    for _ in range(80):
        region = random_subregion(sch, rng)
        x = cx.sample_point(region, rng)
        label, got = cx.exact_tree_cf(t, x, region, d)
        assert label == t.predict(x)
        ref = brute_force_cf(t, x, region, d)
        if ref is None:
            assert got is None
        else:
            assert d.scaled(x, got) == ref[0]
            assert got == ref[1]



def random_subregion_within(region: cx.Region, rng) -> cx.Region:
    intervals = []
    for a, b in region.intervals:
        lo = int(rng.integers(a, b + 1))
        intervals.append((lo, int(rng.integers(lo, b + 1))))
    allowed = []
    for s in region.allowed:
        cats = sorted(s)
        n_pick = int(rng.integers(1, len(cats) + 1))
        allowed.append(frozenset(int(c) for c in rng.choice(cats, size=n_pick, replace=False)))
    return cx.Region(tuple(intervals), tuple(allowed))


@given(kind=st.sampled_from(["mixed", "small3", "groups2"]),
       metric=st.sampled_from(["l2", "l1"]),
       depth=st.integers(0, 8), n_classes=st.sampled_from([2, 3]),
       tree_seed=st.integers(0, 2**16), rng_seed=st.integers(0, 2**32 - 1),
       inside_leaf=st.booleans())
def test_exact_tree_cf_matches_brute_force_point_for_point(
        kind, metric, depth, n_classes, tree_seed, rng_seed, inside_leaf):
    sch = make_schema(kind)
    t = cx.gen_random_tree(sch, depth, tree_seed, n_classes)
    d = cx.Distance(sch, metric)
    rng = np.random.default_rng(rng_seed)
    if inside_leaf:
        leaves = t.leaf_regions()
        region = random_subregion_within(leaves[int(rng.integers(len(leaves)))][0], rng)
    else:
        region = random_subregion(sch, rng)
    for _ in range(10):
        x = cx.sample_point(region, rng)
        label, got = cx.exact_tree_cf(t, x, region, d)
        assert label == t.predict(x)
        ref = brute_force_cf(t, x, region, d)
        if inside_leaf:
            assert ref is None
        assert got == (None if ref is None else ref[1])
        # the ensemble oracle serves a tree as itself: its cap bounds only a forest
        assert cx.exact_ensemble_cf(t, x, region, d, cell_cap=1) == (label, got)


# Five levels per axis and a three-way group: under L1 every term is a small
# integer, so many label-flipping leaves tie at the best distance.
TIE_SCHEMA = cx.FeatureSchema([cx.OrdinalFeature("a", 5), cx.OrdinalFeature("b", 5),
                               cx.OrdinalFeature("c", 5),
                               cx.CategoricalFeature("g", ("u", "v", "w"))])


@given(metric=st.sampled_from(["l1", "l1", "l2"]), depth=st.integers(3, 7),
       n_classes=st.sampled_from([2, 3]), tree_seed=st.integers(0, 2**16),
       rng_seed=st.integers(0, 2**32 - 1))
def test_exact_tree_cf_matches_brute_force_on_partial_trees_and_ties(
        metric, depth, n_classes, tree_seed, rng_seed):
    # partial trees from TRA snapshots: with three classes their pending
    # counterfactual sides are unknown (None) leaves, which agree with nothing
    target = cx.gen_random_tree(TIE_SCHEMA, depth, tree_seed, n_classes)
    d = cx.Distance(TIE_SCHEMA, metric)
    res = cx.tra_extract(cx.CounterfactualOracle(target, cx.OracleConfig(distance=metric)),
                         snapshot_every=1)
    rng = np.random.default_rng(rng_seed)
    for pick in rng.integers(len(res.snapshots), size=4):
        tree = res.snapshots[pick].model
        for region in (cx.full_region(TIE_SCHEMA), random_subregion(TIE_SCHEMA, rng)):
            for _ in range(10):
                x = cx.sample_point(region, rng)
                ref = brute_force_cf(tree, x, region, d)
                assert cx.exact_tree_cf(tree, x, region, d) == (
                    tree.predict(x), None if ref is None else ref[1])


def test_exact_tree_cf_unknown_leaves_never_agree(schema_grid10):
    # as in brute force, an unknown label differs from every label, its own included
    nodes = [cx.Leaf(None), cx.Leaf(1), cx.Leaf(None),
             cx.SplitNode(0, 7, 1, 2), cx.SplitNode(0, 2, 0, 3)]
    t = cx.TreeModel(schema_grid10, nodes, root=4)
    d = cx.Distance(schema_grid10)
    full = cx.full_region(schema_grid10)
    inside_unknown = schema_grid10.point_of("0.1", "0.5")
    assert cx.exact_tree_cf(t, inside_unknown, full, d) == (None, inside_unknown)
    for x in (inside_unknown, schema_grid10.point_of("0.5", "0.5")):
        assert cx.exact_tree_cf(t, x, full, d) == (t.predict(x), brute_force_cf(t, x, full, d)[1])


# -- line search and local optimality ----------------------------------------------


def test_line_search_fixpoint_unchanged(schema_grid10):
    t = single_split_tree(schema_grid10, 0, 5)
    x = schema_grid10.point_of("0.2", "0.9")
    boundary = schema_grid10.point_of("0.6", "0.9")
    assert cx.line_search(t, x, boundary) == boundary


def test_line_search_single_split():
    sch = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, 10))])
    t = cx.TreeModel(sch, [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 5, 0, 1)], root=2)
    out = cx.line_search(t, sch.point_of("0.2"), sch.point_of("0.9"))
    assert out == sch.point_of("0.6")


def test_line_search_moves_free_axis_home(schema_grid10):
    # flip region is the half-plane x1 > 0.5: x2 should return to the query's value
    t = single_split_tree(schema_grid10, 0, 5)
    x = schema_grid10.point_of("0.2", "0.2")
    cand = schema_grid10.point_of("0.9", "0.9")
    out = cx.line_search(t, x, cand)
    assert out == schema_grid10.point_of("0.6", "0.2")
    assert verify_local_optimality(t, x, out, cx.Distance(schema_grid10))


def test_line_search_precondition(schema_grid10):
    t = single_split_tree(schema_grid10, 0, 5)
    with pytest.raises(cx.ContractViolation):
        cx.line_search(t, schema_grid10.point_of("0.2", "0.2"),
                       schema_grid10.point_of("0.3", "0.3"))


def test_verify_rejects_interior_point(schema_grid10):
    t = single_split_tree(schema_grid10, 0, 5)
    d = cx.Distance(schema_grid10)
    x = schema_grid10.point_of("0.2", "0.2")
    deep = schema_grid10.point_of("0.9", "0.2")  # far inside the flip region
    assert not verify_local_optimality(t, x, deep, d)
    edge = schema_grid10.point_of("0.6", "0.2")
    assert verify_local_optimality(t, x, edge, d)


def test_exact_outputs_verify_locally_optimal(schema_mixed):
    d = cx.Distance(schema_mixed)
    rng = np.random.default_rng(17)
    for seed in range(4):
        t = cx.gen_random_tree(schema_mixed, depth=5, seed=seed)
        for _ in range(40):
            region = random_subregion(schema_mixed, rng)
            x = cx.sample_point(region, rng)
            _, cf = cx.exact_tree_cf(t, x, region, d)
            if cf is not None:
                assert verify_local_optimality(t, x, cf, d)


def test_line_search_outputs_verify_locally_optimal(schema_mixed):
    d = cx.Distance(schema_mixed)
    rng = np.random.default_rng(23)
    for seed in range(4):
        t = cx.gen_random_tree(schema_mixed, depth=5, seed=seed)
        full = cx.full_region(schema_mixed)
        for _ in range(40):
            x = cx.sample_point(full, rng)
            cand = cx.sample_point(full, rng)
            if t.predict(cand) == t.predict(x):
                continue
            out = cx.line_search(t, x, cand)
            assert t.predict(out) != t.predict(x)
            assert verify_local_optimality(t, x, out, d)


def random_model(schema, forest_trees: int, depth: int, n_classes: int, seed: int):
    """A random tree (``forest_trees`` 0) or forest of that many trees."""
    if forest_trees:
        return cx.gen_random_forest(schema, forest_trees, depth, seed, n_classes)
    return cx.gen_random_tree(schema, depth, seed, n_classes)


@given(kind=st.sampled_from(["mixed", "groups2", "small3"]),
       forest_trees=st.integers(0, 5), depth=st.integers(0, 4),
       n_classes=st.sampled_from([2, 3]), metric=st.sampled_from(["l2", "l1"]),
       model_seed=st.integers(0, 2**16), rng_seed=st.integers(0, 2**32 - 1))
def test_exact_query_bills_the_label_predict_gives(kind, forest_trees, depth, n_classes,
                                                   metric, model_seed, rng_seed):
    # in exact mode the billed label is read from the descent's first leaf
    # (for a forest, a leaf of the tree it compiles to), not from predict
    schema = make_schema(kind)
    model = random_model(schema, forest_trees, depth, n_classes, model_seed)
    oracle = cx.CounterfactualOracle(model, cx.OracleConfig(distance=metric))
    rng = np.random.default_rng(rng_seed)
    for _ in range(10):
        region = random_subregion(schema, rng)
        x = cx.sample_point(region, rng)
        assert oracle.query(x, region).label == model.predict(x)


@given(kind=st.sampled_from(["mixed", "groups2", "small3"]),
       forest_trees=st.integers(0, 5), depth=st.integers(0, 7),
       n_classes=st.sampled_from([2, 3]), model_seed=st.integers(0, 2**16),
       rng_seed=st.integers(0, 2**32 - 1))
def test_line_search_matches_per_probe_reference_point_for_point(
        kind, forest_trees, depth, n_classes, model_seed, rng_seed):
    schema = make_schema(kind)
    model = random_model(schema, forest_trees, depth, n_classes, model_seed)
    full = cx.full_region(schema)
    rng = np.random.default_rng(rng_seed)
    for _ in range(20):
        x, start = cx.sample_point(full, rng), cx.sample_point(full, rng)
        if model.predict(start) != model.predict(x):
            assert cx.line_search(model, x, start) == reference_line_search(model, x, start)


@given(kind=st.sampled_from(["grid10", "mixed", "groups2", "small3"]),
       forest_trees=st.integers(0, 5), depth=st.integers(0, 6),
       n_classes=st.sampled_from([2, 3]), model_seed=st.integers(0, 2**16),
       rng_seed=st.integers(0, 2**32 - 1))
def test_line_table_label_equals_predict_at_every_index(
        kind, forest_trees, depth, n_classes, model_seed, rng_seed):
    schema = make_schema(kind)
    model = random_model(schema, forest_trees, depth, n_classes, model_seed)
    rng = np.random.default_rng(rng_seed)
    p = cx.sample_point(cx.full_region(schema), rng)
    axis = int(rng.integers(len(schema.iv_sizes)))
    lo = int(rng.integers(schema.iv_sizes[axis]))
    hi = int(rng.integers(lo, schema.iv_sizes[axis]))
    label_at = model.line(p.ivals, p.cats, axis, lo, hi)
    for v in range(lo, hi + 1):
        q = cx.Point(p.ivals[:axis] + (v,) + p.ivals[axis + 1:], p.cats)
        assert label_at(v) == model.predict(q)


def test_line_segments_ascend_and_cut_only_at_the_axis_thresholds(schema_grid10):
    # x1 <= 2 | 2 < x1 <= 6 split again on x2 | x1 > 6
    nodes = [cx.Leaf(0), cx.Leaf(1), cx.Leaf(0), cx.SplitNode(1, 4, 1, 2), cx.Leaf(1),
             cx.SplitNode(0, 6, 3, 4), cx.SplitNode(0, 2, 0, 5)]
    t = cx.TreeModel(schema_grid10, nodes, root=6)
    assert t.line_segments((0, 3), (), 0, 0, 10) == ([0, 3, 7], [0, 1, 1])
    assert t.line_segments((0, 8), (), 0, 1, 5) == ([1, 3], [0, 0])
    assert t.line_segments((5, 0), (), 1, 0, 10) == ([0, 5], [1, 0])


# -- heuristic oracle ---------------------------------------------------------------


def test_heuristic_uses_training_point(schema_grid10):
    t = single_split_tree(schema_grid10, 0, 5)
    training = [schema_grid10.point_of("0.9", "0.5")]
    oracle = cx.CounterfactualOracle(
        t, cx.OracleConfig(mode="heuristic"), training_data=training)
    x = schema_grid10.point_of("0.2", "0.5")
    resp = oracle.query(x, cx.full_region(schema_grid10))
    assert resp.counterfactual is not None
    assert verify_local_optimality(t, x, resp.counterfactual, oracle.distance)


def test_heuristic_scan_hit_builds_no_generator(schema_grid10, monkeypatch):
    built = []
    rng_for = cx.CounterfactualOracle._rng_for

    def counting(self, region):
        built.append(region)
        return rng_for(self, region)

    monkeypatch.setattr(cx.CounterfactualOracle, "_rng_for", counting)
    t = single_split_tree(schema_grid10, 0, 5)
    oracle = cx.CounterfactualOracle(
        t, cx.OracleConfig(mode="heuristic"),
        training_data=[schema_grid10.point_of("0.9", "0.5")])
    full = cx.full_region(schema_grid10)
    # answered by the scan: the training point flips the label
    assert oracle.query(schema_grid10.point_of("0.2", "0.5"), full).counterfactual is not None
    assert built == []
    # the scan misses (the training point has the query's label): sampling starts
    assert oracle.query(schema_grid10.point_of("0.8", "0.5"), full).counterfactual is not None
    assert built == [full]


def test_heuristic_region_inside_leaf_none(schema_grid10):
    t = single_split_tree(schema_grid10, 0, 5)
    oracle = cx.CounterfactualOracle(t, cx.OracleConfig(mode="heuristic", seed=3))
    region = cx.Region(((0, 2), (0, 10)), ())
    resp = oracle.query(cx.center(region), region)
    assert resp.counterfactual is None


def test_heuristic_finds_large_flip_region(schema_grid10):
    # flip region is half the volume; 1000 draws fail with prob 2^-1000
    t = single_split_tree(schema_grid10, 0, 4)
    oracle = cx.CounterfactualOracle(t, cx.OracleConfig(mode="heuristic", seed=7))
    x = schema_grid10.point_of("0.2", "0.5")
    resp = oracle.query(x, cx.full_region(schema_grid10))
    assert resp.counterfactual is not None


def test_heuristic_audit_flags_false_absence():
    # tiny flip region: uniform sampling with a small budget misses it
    sch = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, 1024))])
    nodes = [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 1022, 0, 1)]
    t = cx.TreeModel(sch, nodes, root=2)
    records = []
    oracle = cx.CounterfactualOracle(
        t, cx.OracleConfig(mode="heuristic", sample_budget=5, seed=0), sink=records.append)
    x = sch.point_of("0.25")
    resp = oracle.query(x, cx.full_region(sch))
    assert resp.counterfactual is None
    assert false_absences(t, records, oracle.distance) == [0]


def test_heuristic_deterministic_per_region(schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=4, seed=3)
    region = cx.full_region(schema_mixed)
    x = cx.center(region)
    a = cx.CounterfactualOracle(t, cx.OracleConfig(mode="heuristic", seed=5))
    b = cx.CounterfactualOracle(t, cx.OracleConfig(mode="heuristic", seed=5))
    # consume an extra unrelated query on one oracle first: same region still
    # samples identically because the stream is derived per region
    sub = cx.Region(((0, 10), (0, 1), (0, 7)), (frozenset({0, 1, 2}),))
    b.query(cx.center(sub), sub)
    assert a.query(x, region).counterfactual == b.query(x, region).counterfactual


class _RowRecorder:
    """A model that labels every row ``label`` and keeps the rows it was asked
    about, as the points they stand for."""

    def __init__(self, label):
        self.label, self.rows = label, []

    def predict_arrays(self, iv, cats):
        self.rows += [cx.Point(tuple(a), tuple(c)) for a, c in zip(iv.tolist(), cats.tolist())]
        return np.full(len(iv), self.label, dtype=np.int64)


@st.composite
def sampling_regions(draw):
    """Regions with point intervals, an axis ending at index 2**63 - 1 and
    single-category groups among the rest."""
    intervals = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["point", "small", "top"]))
        if kind == "top":
            intervals.append((draw(st.integers(0, 2**63 - 1)), 2**63 - 1))
        else:
            a = draw(st.integers(0, 2**40))
            intervals.append((a, a if kind == "point" else a + draw(st.integers(1, 300))))
    allowed = [frozenset(draw(st.sets(st.integers(0, 6), min_size=1, max_size=5)))
               for _ in range(draw(st.integers(0, 3)))]
    return cx.Region(tuple(intervals), tuple(allowed))


@given(region=sampling_regions(), seed=st.integers(0, 2**32),
       budget=st.one_of(st.integers(1, 400), st.integers(5400, 5500)))
def test_sample_blocks_are_successive_sample_point_draws(region, seed, budget):
    # no row flips the label: every block is drawn and labelled, and its rows in
    # order are the draws of sample_point from a generator of the same seed (a
    # budget past 5,456 = 16 + 64 + 256 + 1,024 + 4,096 draws a second largest block)
    recorder = _RowRecorder(0)
    x = cx.center(region)
    assert cx.heuristic_cf(recorder, x, 0, region, None, budget,
                           lambda: np.random.default_rng(seed)) is None
    rng = np.random.default_rng(seed)
    assert recorder.rows == [cx.sample_point(region, rng) for _ in range(budget)]


def test_sampling_past_index_2_63_minus_1_is_refused():
    region = cx.Region(((0, 2**63),), ())
    with pytest.raises(cx.ContractViolation, match="2\\*\\*63"):
        cx.heuristic_cf(_RowRecorder(0), cx.Point((0,), ()), 0, region, None, 10,
                        lambda: np.random.default_rng(0))


@given(kind=st.sampled_from(["mixed", "groups2", "small3", "2num"]), seed=st.integers(0, 2**16),
       forest=st.booleans(), method=st.sampled_from(["tra", "cf", "dualcf"]),
       train=st.integers(0, 20), budget=st.integers(1, 80))
@settings(max_examples=25)
def test_heuristic_attacks_bill_the_records_of_per_point_sampling(kind, seed, forest, method,
                                                                   train, budget):
    sch = make_schema(kind)
    target = (cx.gen_random_forest(sch, 3, 3, seed, 3) if forest
              else cx.gen_random_tree(sch, 4, seed, 2))
    rng = np.random.default_rng(seed)
    training = [cx.sample_point(cx.full_region(sch), rng) for _ in range(train)]

    def run():
        records = []
        oracle = cx.CounterfactualOracle(
            target, cx.OracleConfig(mode="heuristic", sample_budget=budget, seed=seed),
            training_data=training, sink=records.append)
        if method == "tra":
            res = cx.tra_extract(oracle, snapshot_every=0)
        else:
            attack = cx.cf_attack if method == "cf" else cx.dualcf_attack
            res = attack(oracle, cx.AttackBudget(60), cx.SurrogateSpec(), seed=seed,
                         snapshot_every=0)
        return records, res.model.nodes

    blocks = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx.oracles, "heuristic_cf", reference_heuristic_cf)
        assert blocks == run()


def test_metering_counts_api_calls_only(schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=4, seed=3)
    records = []
    oracle = cx.CounterfactualOracle(t, sink=records.append)
    full = cx.full_region(schema_mixed)
    rng = np.random.default_rng(0)
    for i in range(10):
        oracle.query(cx.sample_point(full, rng), full)
        assert oracle.log.count == i + 1
    assert [rec.index for rec in records] == list(range(10))


def test_query_returns_the_billed_record(schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=4, seed=3)
    full = cx.full_region(schema_mixed)
    for mode in ("exact", "heuristic"):
        records = []
        oracle = cx.CounterfactualOracle(t, cx.OracleConfig(mode=mode), sink=records.append)
        x = cx.center(full)
        resp = oracle.query(x, full)
        assert len(records) == 1 and records[0] is resp
        assert (resp.index, resp.x, resp.region, resp.label) == (0, x, full, t.predict(x))


FORGED_COUNTERFACTUAL = """
import cfextract as cx
schema = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, "1/8")])
tree = cx.TreeModel(schema, [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 3, 0, 1)], root=2)
oracle = cx.CounterfactualOracle(tree)
oracle._exact = lambda x, region: (0, cx.Point(({cf},), ()))
oracle.query(cx.Point((0,), ()), cx.Region(((0, 3),), ()))
"""


@pytest.mark.parametrize("cf", [7, 2])  # outside the region; inside with the query's label
def test_forged_counterfactual_is_refused_even_under_optimize(cf):
    code = FORGED_COUNTERFACTUAL.format(cf=cf)
    with pytest.raises(cx.ContractViolation, match="counterfactual"):
        exec(code, {})
    proc = run_optimized(code)
    assert proc.returncode == 1
    assert "ContractViolation: counterfactual search returned" in proc.stderr
