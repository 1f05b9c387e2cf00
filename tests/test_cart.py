from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cfextract as cx
from cfextract import cart
from cfextract.cart import CCP_GRID, _square_sum, accuracy, cost_complexity_prune
from tests.conftest import (make_schema, reference_cost_complexity_prune, reference_prune,
                            reference_train_tree)


def one_feature_schema(size=101):
    return cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, size - 1))])


def test_linearly_separable_gets_one_split():
    sch = one_feature_schema()
    pts = [sch.point_of(v) for v in ("0.1", "0.2", "0.3", "0.7", "0.8", "0.9")]
    ys = [0, 0, 0, 1, 1, 1]
    t = cx.train_tree(sch, pts, ys)
    assert t.depth == 1
    st = cx.stats(t)
    assert st.n == 1
    threshold = sch.interval_axes[0].value(t.nodes[t.root].threshold)
    assert Fraction(3, 10) <= threshold < Fraction(7, 10)


def test_pure_data_single_leaf():
    sch = one_feature_schema()
    pts = [sch.point_of("0.1"), sch.point_of("0.9")]
    t = cx.train_tree(sch, pts, [1, 1])
    assert t.node_count == 1 and t.predict(pts[0]) == 1


def test_empty_data_rejected():
    sch = one_feature_schema()
    with pytest.raises(cx.ContractViolation):
        cx.train_tree(sch, [], [])


@pytest.mark.parametrize("train", [cx.train_tree, cx.train_forest])
def test_negative_max_depth_rejected(train):
    sch = one_feature_schema()
    pts = [sch.point_of(v) for v in ("0.1", "0.9")]
    with pytest.raises(cx.ContractViolation, match="max_depth"):
        train(sch, pts, [0, 1], cx.TrainConfig(max_depth=-1))


def test_xor_two_levels():
    sch = make_schema("grid10")
    pts = [sch.point_of(a, b) for a in ("0.2", "0.8") for b in ("0.2", "0.8")]
    ys = [0, 1, 1, 0]
    t = cx.train_tree(sch, pts, ys)
    assert t.depth == 2
    assert accuracy(t, pts, ys) == 1


def test_training_accuracy_one_on_distinct_points(schema_mixed):
    rng = np.random.default_rng(3)
    full = cx.full_region(schema_mixed)
    pts, seen = [], set()
    while len(pts) < 80:
        p = cx.sample_point(full, rng)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    ys = [int(v) for v in rng.integers(0, 2, size=len(pts))]
    t = cx.train_tree(schema_mixed, pts, ys)
    assert accuracy(t, pts, ys) == 1


def test_categorical_split_support():
    sch = cx.FeatureSchema([cx.CategoricalFeature("c", ("a", "b", "z")),
                            cx.BinaryFeature("f")])
    pts = [sch.point_of(c, f) for c in ("a", "b", "z") for f in (0, 1)]
    ys = [1 if c.cats[0] == 2 else 0 for c in pts]
    t = cx.train_tree(sch, pts, ys)
    assert accuracy(t, pts, ys) == 1
    assert any(isinstance(n, cx.CatNode) for n in t.nodes)


def test_reproducible_model_json(schema_mixed):
    rng = np.random.default_rng(11)
    full = cx.full_region(schema_mixed)
    pts = [cx.sample_point(full, rng) for _ in range(60)]
    ys = [int(v) for v in rng.integers(0, 2, size=60)]
    cfg = cx.TrainConfig(seed=5, n_trees=4)
    a = cx.model_json_dict(cx.train_forest(schema_mixed, pts, ys, cfg), "s")
    b = cx.model_json_dict(cx.train_forest(schema_mixed, pts, ys, cfg), "s")
    assert a == b


def test_forest_separable_training_accuracy():
    # bootstrap resampling makes exact training accuracy seed-dependent;
    # this (data, train) seed pair was checked to recover the separator
    sch = make_schema("grid10")
    rng = np.random.default_rng(0)
    pts = [cx.sample_point(cx.full_region(sch), rng) for _ in range(60)]
    ys = [int(p.ivals[0] <= 5) for p in pts]
    f = cx.train_forest(sch, pts, ys, cx.TrainConfig(n_trees=5, seed=0))
    assert accuracy(f, pts, ys) == 1


def _noisy_setup(seed=0, n=200):
    sch = make_schema("grid10")
    rng = np.random.default_rng(seed)
    full = cx.full_region(sch)
    pts = [cx.sample_point(full, rng) for _ in range(n)]
    true = lambda p: int(p.ivals[0] <= 5)
    ys = [true(p) if rng.random() > 0.2 else 1 - true(p) for p in pts]
    val = [cx.sample_point(full, rng) for _ in range(120)]
    yval = [true(p) for p in val]
    return sch, pts, ys, val, yval


def test_ccp_alpha_zero_is_identity():
    sch, pts, ys, _, _ = _noisy_setup()
    t = cx.train_tree(sch, pts, ys)
    p = cost_complexity_prune(t, pts, ys, 0)
    assert cx.model_json_dict(p, "s") == cx.model_json_dict(t, "s")


def test_ccp_large_alpha_root_leaf():
    sch, pts, ys, _, _ = _noisy_setup()
    t = cx.train_tree(sch, pts, ys)
    p = cost_complexity_prune(t, pts, ys, 1)
    assert p.node_count == 1
    majority = int(np.bincount(ys).argmax())
    assert p.nodes[0].label == majority


def test_ccp_size_non_increasing_in_alpha():
    sch, pts, ys, _, _ = _noisy_setup()
    t = cx.train_tree(sch, pts, ys)
    sizes = [cost_complexity_prune(t, pts, ys, a).node_count for a in CCP_GRID]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[0] == t.node_count


def test_prune_improves_noisy_fit():
    sch, pts, ys, val, yval = _noisy_setup(seed=9)
    t = cx.train_tree(sch, pts, ys)
    pruned = cx.prune(t, pts, ys, val, yval)
    assert accuracy(pruned, val, yval) >= accuracy(t, val, yval)
    assert pruned.node_count < t.node_count


def test_prune_tie_prefers_larger_alpha():
    # all alphas give the same validation accuracy on pure data: the pruned
    # tree must be the smallest candidate
    sch = one_feature_schema()
    pts = [sch.point_of(v) for v in ("0.1", "0.2", "0.8", "0.9")]
    ys = [0, 0, 1, 1]
    t = cx.train_tree(sch, pts, ys)
    pruned = cx.prune(t, pts, ys, pts, ys)
    assert pruned.node_count <= t.node_count


def test_ccp_grid_is_fifty_steps_over_fifth():
    assert len(CCP_GRID) == 50
    assert CCP_GRID[0] == 0 and CCP_GRID[-1] == Fraction(1, 5)


def test_prune_routes_the_training_sample_once(monkeypatch):
    calls = []
    route = cart._route_counts
    monkeypatch.setattr(cart, "_route_counts", lambda *args: calls.append(1) or route(*args))
    sch, pts, ys, val, yval = _noisy_setup()
    cx.prune(cx.train_tree(sch, pts, ys), pts, ys, val, yval)
    assert len(calls) == 1


# -- the pruning path against the per-penalty reference ------------------------

@st.composite
def noisy_training_sets(draw):
    """Labels of a random depth-3 tree on 2-4 classes, a share of them
    replaced by uniform noise; half of the points serve as validation."""
    schema = make_schema(draw(st.sampled_from(["mixed", "small3", "groups2"])))
    classes = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**16))
    noise = draw(st.sampled_from([0, 0.1, 0.25]))
    n = draw(st.integers(2, 60))
    truth = cx.gen_random_tree(schema, 3, seed, classes)
    rng = np.random.default_rng(seed)
    full = cx.full_region(schema)
    pts = [cx.sample_point(full, rng) for _ in range(2 * n)]
    ys = [int(rng.integers(classes)) if rng.random() < noise else truth.predict(p)
          for p in pts]
    return schema, pts[:n], ys[:n], pts[n:], ys[n:]


penalties = (st.sampled_from(CCP_GRID + (Fraction(0), Fraction(1), Fraction(1, 1000)))
             | st.fractions(0, 1, max_denominator=997))


@given(noisy_training_sets(), st.lists(penalties, min_size=1, max_size=4))
def test_pruning_path_matches_reference(data, alphas):
    schema, pts, ys, val, yval = data
    tree = cx.train_tree(schema, pts, ys)
    for alpha in alphas:
        assert (cx.model_json_dict(cost_complexity_prune(tree, pts, ys, alpha), "s")
                == cx.model_json_dict(reference_cost_complexity_prune(tree, pts, ys, alpha),
                                      "s"))
    assert (cx.model_json_dict(cx.prune(tree, pts, ys, val, yval), "s")
            == cx.model_json_dict(reference_prune(tree, pts, ys, val, yval), "s"))


# -- split search against the per-cut reference --------------------------------

SPLIT_SCHEMAS = (
    make_schema("mixed"),
    make_schema("small3"),
    cx.FeatureSchema([
        cx.CategoricalFeature("g", ("a", "b", "c", "d")),
        cx.NumericFeature("x", 0, 1, Fraction(1, 8)),
        cx.OrdinalFeature("o", 5),
        cx.CategoricalFeature("h", ("u", "v")),
    ]),
)
# seven interval axes around a one-hot group; drawn with 1-2-value spreads,
# many axes tie for the node's best cut at once
WIDE_SCHEMA = cx.FeatureSchema([
    cx.NumericFeature("x0", 0, 1, Fraction(1, 16)),
    cx.BinaryFeature("b0"),
    cx.OrdinalFeature("o0", 6),
    cx.CategoricalFeature("g", ("a", "b", "c")),
    cx.NumericFeature("x1", 0, 1, Fraction(1, 4)),
    cx.OrdinalFeature("o1", 3),
    cx.NumericFeature("x2", 0, 1, Fraction(1, 8)),
    cx.BinaryFeature("b1"),
])


@st.composite
def training_sets(draw):
    schema = draw(st.sampled_from(SPLIT_SCHEMAS + (WIDE_SCHEMA,)))
    n = draw(st.integers(2, 60))
    # few distinct values per axis make many exactly tied cuts
    spread = draw(st.sampled_from([1, 2] if schema is WIDE_SCHEMA else [1, 2, 4, None]))
    ivals = st.tuples(*(st.integers(0, size - 1 if spread is None else min(size - 1, spread))
                        for size in schema.iv_sizes))
    cats = st.tuples(*(st.integers(0, k - 1) for k in schema.group_sizes))
    points = draw(st.lists(st.builds(cx.Point, ivals, cats), min_size=n, max_size=n))
    classes = draw(st.integers(2, 4))
    labels = draw(st.lists(st.sampled_from((0, 1, 3, 6)[:classes]), min_size=n, max_size=n))
    return schema, points, labels


@given(training_sets(), st.booleans(), st.integers(0, 3))
def test_split_search_matches_reference(data, forest, seed):
    schema, points, labels = data
    if not forest:
        assert (cx.model_json_dict(cx.train_tree(schema, points, labels), "s")
                == cx.model_json_dict(reference_train_tree(schema, points, labels), "s"))
        return
    # bootstrap plus sqrt(m) feature subsampling per split; the reference
    # forest's trees grown by the reference from the same draws: each tree's
    # seed from the forest's generator, then its bootstrap rows, then its
    # splits' axis pools in pre-order
    config = cx.TrainConfig(n_trees=3, seed=seed)
    rng, n = np.random.default_rng(seed), len(points)
    trees = []
    for _ in range(config.n_trees):
        tree_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        trees.append(reference_train_tree(schema, points, labels, config, _rng=tree_rng,
                                          _subsample=tree_rng.integers(0, n, size=n)))
    assert (cx.model_json_dict(cx.train_forest(schema, points, labels, config), "s")
            == cx.model_json_dict(cx.ForestModel(schema, trees), "s"))


@given(training_sets(), st.data(), st.sampled_from([None, 0, 1, 3]))
def test_prefix_trees_match_reference(data, draw, max_depth):
    schema, points, labels = data
    # duplicate points, and ascending prefix sizes that may repeat and start at 1
    points = points + draw.draw(st.lists(st.sampled_from(points), max_size=10))
    labels = labels + draw.draw(st.lists(st.sampled_from(labels), min_size=len(points) - len(labels),
                                         max_size=len(points) - len(labels)))
    sizes = sorted(draw.draw(st.lists(st.integers(1, len(points)), min_size=1, max_size=6)))
    # one batch, or batches of a few prefixes or of one each
    max_rows = draw.draw(st.sampled_from([cart._BATCH_ROWS, 2 * len(points), 1]))
    config = cx.TrainConfig(max_depth=max_depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cart, "_BATCH_ROWS", max_rows)
        trees = cart.train_prefixes(schema, points, labels, sizes, config)
    assert len(trees) == len(sizes)
    for n, tree in zip(sizes, trees):
        assert (cx.model_json_dict(tree, "s") == cx.model_json_dict(
            reference_train_tree(schema, points[:n], labels[:n], config), "s"))


@pytest.mark.parametrize("max_rows, batches", [
    (100, [[3, 5, 8, 8]]), (16, [[3, 5, 8], [8]]), (8, [[3, 5], [8], [8]]),
    (4, [[3], [5], [8], [8]])])
def test_prefix_batches_stay_within_batch_rows(monkeypatch, max_rows, batches):
    sch = one_feature_schema()
    pts = [sch.point_of(f"0.{d}") for d in range(1, 9)]
    seen = []
    grow_together = cart._grow_together
    monkeypatch.setattr(cart, "_grow_together",
                        lambda data, sizes: seen.append(sizes) or grow_together(data, sizes))
    monkeypatch.setattr(cart, "_BATCH_ROWS", max_rows)
    trees = cart.train_prefixes(sch, pts, [0, 1] * 4, [3, 5, 8, 8])
    # consecutive prefixes, each batch within max_rows unless one prefix exceeds it
    assert seen == batches
    assert [t.predict(pts[1]) for t in trees] == [1] * 4


@pytest.mark.parametrize("sizes", [[0], [5], [2, 7]])
def test_prefix_sizes_outside_the_sample_rejected(sizes):
    sch = one_feature_schema()
    pts = [sch.point_of(v) for v in ("0.1", "0.2", "0.8", "0.9")]
    with pytest.raises(cx.ContractViolation, match="prefix sizes"):
        cart.train_prefixes(sch, pts, [0, 0, 1, 1], sizes)


@pytest.mark.parametrize("first", ["x", "g", "z"])
def test_tied_axes_lowest_axis_wins(first):
    features = {"x": cx.NumericFeature("x", 0, 1, Fraction(1, 10)),
                "g": cx.CategoricalFeature("g", ("a", "b")),
                "z": cx.NumericFeature("z", 0, 1, Fraction(1, 10))}
    order = [first] + [f for f in "xgz" if f != first]
    sch = cx.FeatureSchema([features[f] for f in order])
    # x <= 0.3, category "a" and z <= 0.4 each separate the labels perfectly
    rows = [{"x": "0.1", "g": "a", "z": "0.2"}, {"x": "0.3", "g": "a", "z": "0.4"},
            {"x": "0.7", "g": "b", "z": "0.6"}, {"x": "0.9", "g": "b", "z": "0.8"}]
    pts = [sch.point_of(*(r[f] for f in order)) for r in rows]
    t = cx.train_tree(sch, pts, [0, 0, 1, 1])
    root = t.nodes[t.root]
    assert t.node_count == 3
    if first == "g":
        assert isinstance(root, cx.CatNode)
    else:
        assert isinstance(root, cx.SplitNode) and root.iv_axis == 0


def test_tied_cuts_lowest_threshold_wins():
    sch = one_feature_schema(11)
    pts = [sch.point_of(v) for v in ("0.1", "0.5", "0.9")]
    # both cuts score 2: {0} | {1, 0} and {0, 1} | {0}
    t = cx.train_tree(sch, pts, [0, 1, 0])
    assert t.nodes[t.root].threshold == 3


def test_square_sum_is_exact_past_int64():
    big = np.array([2**40, 3], dtype=np.int64)
    assert _square_sum(big) == 2**80 + 9


def test_exact_ties_that_round_apart_reach_the_exact_check():
    # both cuts score exactly 16/3: x's {0, 1} | {1, 5} class counts and z's
    # {0, 2} | {2, 4}; in floats, x's rounds to 5.333333333333333 and z's to
    # 5.333333333333334, so only the band below the maximum keeps x's cut,
    # which wins the tie as the lower axis
    sch = cx.FeatureSchema([cx.OrdinalFeature("x", 2), cx.OrdinalFeature("z", 2)])
    rows = [(0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)] + [(1, 1, 1)] * 4
    t = cx.train_tree(sch, [cx.Point((x, z), ()) for x, z, _ in rows], [y for *_, y in rows])
    assert t.nodes[t.root].iv_axis == 0
