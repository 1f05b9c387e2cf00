from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cfextract as cx
from tests.conftest import (enumerate_region, make_schema, malformed, random_subregion,
                            reference_forest_compile, reference_leaves_within)


def single_split_tree(sch, iv_axis=0, t=None, left=0, right=1):
    size = sch.iv_sizes[iv_axis]
    t = (size - 1) // 2 if t is None else t
    return cx.TreeModel(sch, [cx.Leaf(left), cx.Leaf(right),
                              cx.SplitNode(iv_axis, t, 0, 1)], root=2)


def two_split_target(sch):
    """Split x2 at 0.4 (below -> class 1), then x1 at 0.7 (left -> 0, right -> 1)."""
    nodes = [cx.Leaf(1), cx.Leaf(0), cx.Leaf(1),
             cx.SplitNode(0, sch.interval_axes[0].index("0.7"), 1, 2),
             cx.SplitNode(1, sch.interval_axes[1].index("0.4"), 0, 3)]
    return cx.TreeModel(sch, nodes, root=4)


def test_predict_single_split(schema_grid10):
    t = single_split_tree(schema_grid10)
    assert t.predict(schema_grid10.point_of("0.2", "0.9")) == 0
    assert t.predict(schema_grid10.point_of("0.6", "0.1")) == 1


def test_predict_two_split_target(schema_grid10):
    t = two_split_target(schema_grid10)
    a = t.predict(schema_grid10.point_of("0.5", "0.5"))
    b = t.predict(schema_grid10.point_of("0.5", "0.4"))
    assert a != b  # the lower point is a valid counterfactual of the upper


def test_forest_majority_vote(schema_grid10):
    sch = schema_grid10
    trees = [single_split_tree(sch, 0, 4, 0, 1),
             single_split_tree(sch, 0, 6, 0, 1),
             single_split_tree(sch, 1, 5, 1, 0)]
    forest = cx.ForestModel(sch, trees)
    p = sch.point_of("0.5", "0.2")
    votes = [t.predict(p) for t in trees]
    assert sorted(votes) == [0, 1, 1]
    assert forest.predict(p) == 1


def test_forest_tie_breaks_to_lowest_label(schema_grid10):
    sch = schema_grid10
    trees = [single_split_tree(sch, 0, 4, 0, 1), single_split_tree(sch, 0, 4, 1, 0)]
    forest = cx.ForestModel(sch, trees)
    p = sch.point_of("0.2", "0.2")
    assert forest.predict(p) == 0
    iv, cats = cx.models.points_to_arrays(sch, [p])
    assert forest.predict_arrays(iv, cats)[0] == 0


def test_forest_predict_arrays_counts_votes_per_class_whatever_the_labels(schema_grid10):
    # a table with a row per label value up to 2**40 could not be allocated
    sch, big = schema_grid10, 2 ** 40
    trees = [single_split_tree(sch, 0, 4, 0, big), single_split_tree(sch, 0, 6, big, 0),
             single_split_tree(sch, 1, 5, 0, big), single_split_tree(sch, 1, 2, big, 0)]
    iv, cats = enumerate_region(sch, cx.full_region(sch))
    points = [cx.Point(tuple(map(int, a)), ()) for a in iv]
    for n_trees in (3, 4):  # four trees tie 2-2 at some points: the lowest label wins
        forest = cx.ForestModel(sch, trees[:n_trees])
        expected = [forest.predict(p) for p in points]
        assert set(expected) == {0, big}
        assert forest.predict_arrays(iv, cats).tolist() == expected
    assert cx.TreeModel(sch, [cx.Leaf(2 ** 63 - 1)]).labels == (2 ** 63 - 1,)


def test_forest_predict_arrays_on_zero_rows_is_empty_as_for_a_tree(schema_mixed):
    forest = cx.gen_random_forest(schema_mixed, n_trees=3, depth=3, seed=2, n_classes=3)
    iv, cats = cx.uniform_points(schema_mixed, 0, seed=0)
    for model in (forest, forest.trees[0]):
        out = model.predict_arrays(iv, cats)
        assert out.shape == (0,) and out.dtype == np.int64


def test_forest_order_invariance(schema_mixed):
    f = cx.gen_random_forest(schema_mixed, n_trees=5, depth=3, seed=11)
    g = cx.ForestModel(schema_mixed, f.trees[::-1])
    iv, cats = cx.uniform_points(schema_mixed, 500, seed=3)
    assert (f.predict_arrays(iv, cats) == g.predict_arrays(iv, cats)).all()


def test_forest_cell_box_set_checks_the_cap_on_every_call(schema_grid10):
    sch = schema_grid10
    trees = [single_split_tree(sch, 0, 4, 0, 1), single_split_tree(sch, 1, 5, 1, 0)]
    forest = cx.ForestModel(sch, trees)
    with pytest.raises(cx.CapacityError):
        forest.cell_box_set(3)
    cells = forest.cell_box_set(100)
    assert len(cells) == 4
    assert forest.cell_box_set(4) is cells
    with pytest.raises(cx.CapacityError, match="4 cells exceed the cap of 3"):
        forest.cell_box_set(3)


@given(st.sampled_from(["mixed", "groups2", "small3"]), st.integers(1, 5), st.integers(0, 4),
       st.integers(2, 3), st.integers(0, 2**16))
def test_forest_compiles_to_a_tree_with_the_same_vote(kind, n_trees, depth, n_classes, seed):
    sch = make_schema(kind)
    forest = cx.gen_random_forest(sch, n_trees, depth, seed, n_classes)
    tree = forest.tree(100_000)
    iv, cats = enumerate_region(sch, cx.full_region(sch))
    expected = [forest.predict(cx.Point(tuple(map(int, a)), tuple(map(int, c))))
                for a, c in zip(iv, cats)]
    assert tree.predict_arrays(iv, cats).tolist() == expected
    assert tree.leaf_count <= len(forest.cell_box_set(100_000))


@given(st.sampled_from(["mixed", "groups2", "small3"]), st.integers(1, 5), st.integers(0, 4),
       st.integers(2, 3), st.integers(0, 2**16))
def test_forest_compile_on_integer_boxes_matches_the_region_reference(
        kind, n_trees, depth, n_classes, seed):
    forest = cx.gen_random_forest(make_schema(kind), n_trees, depth, seed, n_classes)
    tree, reference = forest.tree(100_000), reference_forest_compile(forest)
    assert (tree.root, tree.nodes) == (reference.root, reference.nodes)


def test_forest_tree_stops_at_a_decided_vote(schema_grid10):
    # three trees: once two agree, the third cannot change the vote
    sch = schema_grid10
    trees = [single_split_tree(sch, 0, 4, 0, 1), single_split_tree(sch, 0, 4, 0, 1),
             single_split_tree(sch, 1, 5, 1, 0)]
    tree = cx.ForestModel(sch, trees).tree(100)
    assert tree.leaf_count == 2 and tree.depth == 1


def test_forest_tree_checks_the_cap_on_every_call(schema_grid10):
    sch = schema_grid10
    trees = [single_split_tree(sch, 0, 4, 0, 1), single_split_tree(sch, 1, 5, 1, 0)]
    forest = cx.ForestModel(sch, trees)
    with pytest.raises(cx.CapacityError):
        forest.tree(2)
    tree = forest.tree(100)
    # a 0 from the first tree wins even a tie, so only its right side grafts
    assert tree.leaf_count == 3
    assert forest.tree(3) is tree
    # a tree is a forest of one, served as itself whatever the cap
    assert tree.trees == (tree,) and tree.tree(1) is tree
    with pytest.raises(cx.CapacityError, match="3 leaves, past the cap of 2"):
        forest.tree(2)


def test_stats_single_split(schema_grid10):
    st = cx.stats(single_split_tree(schema_grid10))
    assert st.n == 1 and st.s == (1, 0)
    assert st.leaf_count == st.node_count - st.leaf_count + 1


def test_stats_two_split(schema_grid10):
    st = cx.stats(two_split_target(schema_grid10))
    assert st.n == 2 and st.s == (1, 1)


def test_stats_duplicate_level_counts_once(schema_grid10):
    sch = schema_grid10
    # the same (axis 1, t=5) level appears in both branches of the root
    nodes = [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(1, 5, 0, 1),
             cx.Leaf(1), cx.Leaf(0), cx.SplitNode(1, 5, 3, 4),
             cx.SplitNode(0, 4, 2, 5)]
    t = cx.TreeModel(sch, nodes, root=6)
    st = cx.stats(t)
    assert st.n == 2 and st.s == (1, 1)
    assert sum(st.s) == st.n


def test_stats_chessboard():
    sch = make_schema("grid10")
    board = cx.gen_chessboard(sch, (2, 2))
    st = cx.stats(board)
    assert st.n == 4 and st.s == (2, 2)


def test_leaf_regions_single_leaf(schema_grid10):
    t = cx.TreeModel(schema_grid10, [cx.Leaf(0)])
    regions = t.leaf_regions()
    assert len(regions) == 1
    assert regions[0][0] == cx.full_region(schema_grid10)


def test_leaf_regions_volumes():
    sch = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, 4))])
    t = cx.TreeModel(sch, [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 2, 0, 1)], root=2)
    vols = sorted(r.volume for r, _ in t.leaf_regions())
    assert vols == [2, 3]


def test_leaf_regions_match_predict(schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=4, seed=5)
    for region, label in t.leaf_regions():
        iv, cats = enumerate_region(schema_mixed, region)
        take = np.random.default_rng(0).choice(len(iv), size=min(20, len(iv)), replace=False)
        assert (t.predict_arrays(iv[take], cats[take]) == label).all()


@given(st.sampled_from(["mixed", "groups2"]), st.integers(0, 7), st.integers(2, 4),
       st.integers(0, 2**32 - 1), st.booleans())
def test_leaf_boxes_partition_a_subregion(kind, depth, n_classes, seed, whole_grid):
    sch = make_schema(kind)
    rng = np.random.default_rng(seed)
    t = cx.gen_random_tree(sch, depth, seed, n_classes)
    sub = cx.full_region(sch) if whole_grid else random_subregion(sch, rng)
    whole = dict(reference_leaves_within(t, cx.full_region(sch)))
    boxes = list(t.leaf_boxes(sub.intervals, sub.allowed))
    # the same leaves and parts, in the same order, as the walk on Regions
    assert [(i, cx.Region(*box)) for i, *box in boxes] == list(reference_leaves_within(t, sub))
    parts = {i: cx.Region(*box) for i, *box in boxes}
    assert len(parts) == len(boxes)
    assert sum(r.volume for r in parts.values()) == sub.volume
    regions = list(parts.values())
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            assert cx.intersect(regions[i], regions[j]) is None
    for i, ivs, allowed in boxes:
        assert parts[i] == cx.intersect(whole[i], sub)
        for corner in (tuple(a for a, _ in ivs), tuple(b for _, b in ivs)):
            p = cx.Point(corner, tuple(min(s) for s in allowed))
            q = cx.Point(corner, tuple(max(s) for s in allowed))
            assert t.leaf_index(p) == t.leaf_index(q) == i
        assert (t.predict_arrays(*enumerate_region(sch, parts[i])) == t.nodes[i].label).all()
    oracle = cx.LeafIdOracle(t)
    iv, cats = enumerate_region(sch, sub)
    for r in rng.choice(len(iv), size=min(100, len(iv)), replace=False):
        p = cx.Point(tuple(int(v) for v in iv[r]), tuple(int(c) for c in cats[r]))
        i = t.leaf_index(p)
        assert cx.contains(parts[i], p)
        assert oracle.query(p)[0] == i
        assert t.predict(p) == t.nodes[i].label


@given(st.sampled_from(["mixed", "groups2", "grid10"]), st.integers(0, 6),
       st.integers(0, 2**16))
def test_leaf_regions_are_built_on_first_read(kind, depth, seed):
    sch = make_schema(kind)
    built = []

    class CountingRegion(cx.Region):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx.models, "Region", CountingRegion)
        t = cx.gen_random_tree(sch, depth, seed)
        forest = cx.ForestModel(sch, [t, cx.gen_random_tree(sch, depth, seed + 1)])
        compiled = forest.tree(100_000)
        forest.tree(compiled.leaf_count)  # the cap check counts, it builds nothing
        assert built == []
        regions = t.leaf_regions()
        assert len(built) == t.leaf_count == len(regions)
        assert t.leaf_regions() is regions
    assert [(r.intervals, r.allowed, lab) for r, lab in regions] == [
        (r.intervals, r.allowed, t.nodes[i].label)
        for i, r in reference_leaves_within(t, cx.full_region(sch))]


def test_nested_split_on_the_same_axis_is_accepted(schema_grid10):
    nodes = [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 4, 0, 1),
             cx.Leaf(0), cx.SplitNode(0, 8, 2, 3)]
    assert cx.TreeModel(schema_grid10, nodes, root=4).leaf_count == 3


MALFORMED_TREES = {
    # a second split at 4 below the left branch of a split at 4 is dead
    "interval-dead-branch": ("grid10", [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 4, 0, 1),
                                        cx.Leaf(0), cx.SplitNode(0, 4, 2, 3)], 4),
    # the left branch of "d == q" allows only q, so testing q again is dead
    "category-dead-branch": ("mixed", [cx.Leaf(0), cx.Leaf(1), cx.CatNode(0, 1, 0, 1),
                                       cx.Leaf(2), cx.CatNode(0, 1, 2, 3)], 4),
    "reachable-twice": ("grid10", [cx.Leaf(0), cx.SplitNode(0, 4, 0, 0)], 1),
    "cycle-through-root": ("grid10", [cx.Leaf(0), cx.SplitNode(0, 4, 0, 1)], 1),
    "unreachable-node": ("grid10", [cx.Leaf(0), cx.Leaf(1), cx.SplitNode(0, 4, 0, 1),
                                    cx.Leaf(0)], 2),
    "child-out-of-range": ("grid10", [cx.Leaf(0), cx.SplitNode(0, 4, 0, 2)], 1),
    "root-out-of-range": ("grid10", [cx.Leaf(0)], 1),
    "no-nodes": ("grid10", [], 0),
    "negative-label": ("grid10", [cx.Leaf(-1)], 0),
    # array evaluation holds labels in int64
    "label-past-int64": ("grid10", [cx.Leaf(2 ** 63)], 0),
    # fields the walks would misread: each names its node
    "bad-field-split-axis-out-of-range": ("grid10", [cx.Leaf(0), cx.Leaf(1),
                                                     cx.SplitNode(7, 4, 0, 1)], 2),
    "bad-field-split-axis-negative": ("grid10", [cx.Leaf(0), cx.Leaf(1),
                                                 cx.SplitNode(-1, 4, 0, 1)], 2),
    "bad-field-float-threshold": ("grid10", [cx.Leaf(0), cx.Leaf(1),
                                             cx.SplitNode(0, 4.5, 0, 1)], 2),
    "bad-field-group-out-of-range": ("mixed", [cx.Leaf(0), cx.Leaf(1),
                                               cx.CatNode(5, 0, 0, 1)], 2),
    "bad-field-group-negative": ("mixed", [cx.Leaf(0), cx.Leaf(1),
                                           cx.CatNode(-1, 0, 0, 1)], 2),
    "bad-field-float-child": ("grid10", [cx.Leaf(0), cx.Leaf(1),
                                         cx.SplitNode(0, 4, 0, 1.0)], 2),
    "bad-field-bool-label": ("grid10", [cx.Leaf(True)], 0),
}


@pytest.mark.parametrize("case", list(MALFORMED_TREES))
def test_dead_branch_rejected(case):
    kind, nodes, root = MALFORMED_TREES[case]
    with pytest.raises(cx.DataFormatError):
        cx.TreeModel(make_schema(kind), nodes, root=root)


@pytest.mark.parametrize("case", [c for c in MALFORMED_TREES if c.startswith("bad-field")])
def test_a_bad_node_field_names_the_node(case):
    kind, nodes, root = MALFORMED_TREES[case]
    with pytest.raises(cx.DataFormatError, match=rf"^(node|leaf) {root}: "):
        cx.TreeModel(make_schema(kind), nodes, root=root)


def test_boxes_to_tree_single_box(schema_grid10):
    t = cx.boxes_to_tree(schema_grid10, [(cx.full_region(schema_grid10), 3)])
    assert t.node_count == 1 and t.predict(schema_grid10.point_of("0.1", "0.1")) == 3


def test_boxes_to_tree_two_half_spaces(schema_grid10):
    boxes = [(cx.Region(((0, 4), (0, 10)), ()), 0), (cx.Region(((5, 10), (0, 10)), ()), 1)]
    t = cx.boxes_to_tree(schema_grid10, boxes)
    assert t.leaf_count == 2
    assert t.predict(schema_grid10.point_of("0.2", "0.9")) == 0


def test_boxes_to_tree_chessboard(schema_grid10):
    sch = schema_grid10
    boxes = []
    for i, (a, b) in enumerate([((0, 5), (0, 5)), ((0, 5), (6, 10)),
                                ((6, 10), (0, 5)), ((6, 10), (6, 10))]):
        boxes.append((cx.Region((a, b), ()), i % 2 if i < 2 else (i + 1) % 2))
    t = cx.boxes_to_tree(sch, boxes)
    iv, cats = enumerate_region(sch, cx.full_region(sch))
    pred = t.predict_arrays(iv, cats)
    ref = np.where((iv[:, 0] <= 5) == (iv[:, 1] <= 5), 0, 1)
    assert (pred == ref).all()


def test_boxes_to_tree_rejects_overlap_and_gaps(schema_grid10):
    full = cx.full_region(schema_grid10)
    with pytest.raises(cx.ContractViolation):
        cx.boxes_to_tree(schema_grid10, [(full, 0), (cx.Region(((0, 0), (0, 0)), ()), 1)])
    with pytest.raises(cx.ContractViolation):
        cx.boxes_to_tree(schema_grid10, [(cx.Region(((0, 4), (0, 10)), ()), 0)])


def _box(x, y):
    return cx.Region((x, y), ())


# each case but the plain gap has the grid10 domain's volume, 121, and the
# check that rejects it
BAD_BOXES = {
    # the column x = 5 is held by both labels, and x = 10 by neither
    "overlap of two labels": (
        [(_box((0, 5), (0, 10)), 0), (_box((5, 9), (0, 10)), 1)], "no separating edge"),
    # the leaf y <= 4 holds 55 cells of label 0: x = 5 twice, x = 10 never,
    # so its volumes sum up right and only the disjointness check sees it
    "same-label overlap and a gap in one leaf": (
        [(_box((0, 5), (0, 4)), 0), (_box((5, 9), (0, 4)), 0), (_box((0, 10), (5, 10)), 1)],
        "overlap"),
    "gap": ([(_box((0, 4), (0, 10)), 0), (_box((6, 10), (0, 10)), 1)], "cover"),
    "no boxes": ([], "no boxes"),
}


@pytest.mark.parametrize("case", list(BAD_BOXES))
def test_boxes_to_tree_rejects(case, schema_grid10):
    boxes, message = BAD_BOXES[case]
    with pytest.raises(cx.ContractViolation, match=message):
        cx.boxes_to_tree(schema_grid10, boxes)


@given(st.sampled_from(["mixed", "groups2"]), st.integers(0, 6), st.integers(0, 2**16),
       st.integers(2, 4))
def test_boxes_to_tree_rebuilds_any_tree_with_no_more_leaves(kind, depth, seed, classes):
    sch = make_schema(kind)
    t = cx.gen_random_tree(sch, depth, seed, classes)
    rebuilt = cx.boxes_to_tree(sch, t.leaf_regions())
    assert cx.functional_equivalence(t, rebuilt, sch) == (True, None)
    assert rebuilt.leaf_count <= t.leaf_count


def test_boxes_roundtrip_equivalence(schema_mixed):
    for seed in range(5):
        t = cx.gen_random_tree(schema_mixed, depth=4, seed=seed)
        rebuilt = cx.boxes_to_tree(schema_mixed, t.leaf_regions())
        ok, _ = cx.functional_equivalence(t, rebuilt, schema_mixed)
        assert ok


def test_model_json_roundtrip(tmp_path, schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=5, seed=2)
    cx.save_schema(str(tmp_path / "s.json"), schema_mixed)
    path = str(tmp_path / "m.json")
    cx.save_model(path, t, "s.json")
    loaded = cx.load_model(path)
    assert loaded.schema == schema_mixed
    assert cx.model_json_dict(loaded, "s.json") == cx.model_json_dict(t, "s.json")
    f = cx.gen_random_forest(schema_mixed, 3, 3, seed=4)
    path2 = str(tmp_path / "f.json")
    cx.save_model(path2, f, "s.json")
    loaded2 = cx.load_model(path2)
    assert cx.model_json_dict(loaded2, "s.json") == cx.model_json_dict(f, "s.json")


def test_partial_labels_never_agree(schema_grid10):
    t = cx.TreeModel(schema_grid10, [cx.Leaf(None)])
    iv, cats = cx.uniform_points(schema_grid10, 50, 0)
    assert (t.predict_arrays(iv, cats) == -1).all()
    rep = cx.fidelity(t, t, schema_grid10, n_samples=50, seed=0)
    assert rep.fidelity == 0.0


def valid_model_docs():
    sch = make_schema("mixed")
    tree = cx.gen_random_tree(sch, depth=3, seed=1)
    forest = cx.gen_random_forest(sch, 2, 2, seed=2)
    return [cx.model_json_dict(m, "s.json") for m in (tree, forest)]


VALID_MODEL_DOCS = valid_model_docs()


@pytest.mark.parametrize("doc", [
    {"kind": "tree", "nodes": [{"kind": "leaf", "label": 0}]},  # node without id
    {"nodes": [{"id": 0, "kind": "leaf", "label": "a"}]},
    {"nodes": [{"id": 5, "kind": "leaf", "label": 0}]},  # id past a 1-node list
    {"nodes": [{"id": -1, "kind": "leaf", "label": 0}]},
    {"nodes": [{"id": 0, "kind": "split", "axis": 0, "threshold": "1/3",
                "left": 1, "right": 2}, {"id": 1, "kind": "leaf", "label": 0},
               {"id": 2, "kind": "leaf", "label": 1}]},  # threshold off the 1/64 grid
    {"kind": "forest", "trees": "nope"},
    [1],
    "tree",
])
def test_malformed_model_json_is_a_data_format_error(doc):
    with pytest.raises(cx.DataFormatError):
        cx.model_from_json_dict(doc, make_schema("mixed"))


@settings(max_examples=300)
@given(st.data())
def test_model_loader_fuzz_raises_only_data_format_error(data):
    doc = data.draw(malformed(data.draw(st.sampled_from(VALID_MODEL_DOCS))))
    try:
        model = cx.model_from_json_dict(doc, make_schema("mixed"))
    except cx.DataFormatError:
        return
    assert isinstance(model, (cx.TreeModel, cx.ForestModel))


def test_load_model_rejects_a_non_object_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[]")
    with pytest.raises(cx.DataFormatError):
        cx.load_model(str(path))
