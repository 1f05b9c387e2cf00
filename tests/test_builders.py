"""Every tree builder against models written before they shared ``grow``, and
on inputs deep enough to exhaust Python's recursion limit.

The ``boxes_to_tree/*`` goldens pin the fewest-cut rule, which replaced the
lowest-edge rule the other goldens were written beside; every other entry is
byte for byte the recursive builders' output."""

import json
import os
from fractions import Fraction

import numpy as np

import cfextract as cx
from cfextract.cart import accuracy, cost_complexity_prune
from tests.conftest import make_schema

GOLDEN_BUILDERS = os.path.join(os.path.dirname(__file__), "golden_builders.json")


def _noisy_sample(schema, target, n, seed):
    """``n`` uniform points labeled by ``target``, each label moved to the next
    class with probability 1/5."""
    rng = np.random.default_rng(seed)
    domain = cx.full_region(schema)
    pts = [cx.sample_point(domain, rng) for _ in range(n)]
    ys = [target.predict(p) for p in pts]
    ys = [(y + 1) % 3 if rng.random() < 0.2 else y for y in ys]
    return pts, ys


def builder_models() -> dict:
    """One model per builder and setting, keyed by a readable name."""
    out = {}
    for kind in ("mixed", "groups2"):
        sch = make_schema(kind)
        for depth in range(6):
            tree = cx.gen_random_tree(sch, depth, seed=depth, n_classes=2 + depth % 2)
            out[f"gen_random_tree/{kind}/d{depth}"] = tree
            if depth <= 3:  # deeper trees compile to hundreds of boxes
                out[f"boxes_to_tree/{kind}/d{depth}"] = cx.boxes_to_tree(
                    sch, tree.leaf_regions())
        forest = cx.gen_random_forest(sch, 4, 3, seed=5, n_classes=3)
        out[f"forest.tree/{kind}"] = forest.tree(100_000)
    sch = make_schema("2num")
    out["gen_chessboard/2num/3x4"] = cx.gen_chessboard(sch, (3, 4), n_classes=3)
    out["gen_chessboard/1num/7"] = cx.gen_chessboard(
        cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, 64))]), (7,))

    sch = make_schema("mixed")
    target = cx.gen_random_tree(sch, 4, seed=11, n_classes=3)
    pts, ys = _noisy_sample(sch, target, 200, seed=12)
    val, yval = _noisy_sample(sch, target, 100, seed=13)
    full = cx.train_tree(sch, pts, ys)
    out["train_tree/max_depth=None"] = full
    out["train_tree/max_depth=3"] = cx.train_tree(sch, pts, ys, cx.TrainConfig(max_depth=3))
    out["train_forest/bootstrap,subsampling"] = cx.train_forest(
        sch, pts, ys, cx.TrainConfig(n_trees=3, seed=4))
    for alpha in ("0", "1/1000", "1/100", "1/20"):
        out[f"cost_complexity_prune/{alpha}"] = cost_complexity_prune(
            full, pts, ys, Fraction(alpha))
    out["prune"] = cx.prune(full, pts, ys, val, yval)
    return out


def builder_models_json() -> str:
    """``builder_models`` as a JSON object, one model per line."""
    rows = [f"{json.dumps(name)}: {json.dumps(cx.model_json_dict(model, 's'), sort_keys=True)}"
            for name, model in builder_models().items()]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_builders_match_golden():
    # written by the hand-written recursive builders that ``grow`` replaced
    with open(GOLDEN_BUILDERS) as fh:
        assert builder_models_json() == fh.read()


# -- trees deeper than the recursion limit -------------------------------------

def test_cart_grows_and_prunes_a_chain_deeper_than_the_recursion_limit():
    # alternating labels on one axis: every split peels one point, so the
    # tree is a chain 1,499 levels deep
    sch = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, 2048))])
    pts = [cx.Point((i,), ()) for i in range(1500)]
    ys = [i % 2 for i in range(1500)]
    tree = cx.train_tree(sch, pts, ys)
    assert tree.depth == 1499
    assert accuracy(tree, pts, ys) == 1
    assert cost_complexity_prune(tree, pts, ys, 0).nodes == tree.nodes
    assert cost_complexity_prune(tree, pts, ys, Fraction(1, 1000)).node_count == 1
    assert cx.prune(tree, pts, ys, pts, ys).nodes == tree.nodes
    again = cx.model_from_json_dict(cx.model_json_dict(tree, "s"), sch)
    assert again.nodes == tree.nodes and again.root == tree.root


def _board_601():
    sch = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, 1024))])
    return sch, cx.gen_chessboard(sch, (600,))


def test_boxes_to_tree_on_601_boxes_in_a_row():
    # no edge cuts a box, so the lowest edge wins and peels one box per
    # level: a chain 600 levels deep
    sch, board = _board_601()
    tree = cx.boxes_to_tree(sch, board.leaf_regions())
    assert tree.depth == 600
    assert cx.functional_equivalence(board, tree, sch) == (True, None)


def test_pathfinding_on_601_boxes_in_a_row():
    sch, board = _board_601()
    model, _ = cx.pathfinding_extract(cx.LeafIdOracle(board), sch, Fraction(1, 1024))
    assert model.leaf_count == 601
    assert cx.functional_equivalence(board, model, sch) == (True, None)


# -- a deep trained target -----------------------------------------------------

def _alternating_tree(n):
    """An unpruned CART tree on ``n`` uniform points of a 1/1024 square whose
    labels alternate row by row: no pattern, so about 0.4 n leaves."""
    sch = cx.FeatureSchema([cx.NumericFeature(f"x{i}", 0, 1, Fraction(1, 1024))
                            for i in range(2)])
    rng = np.random.default_rng(0)
    pts = [cx.Point(tuple(int(v) for v in rng.integers(0, 1025, 2)), ()) for _ in range(n)]
    return sch, cx.train_tree(sch, pts, [i % 2 for i in range(n)])


def test_boxes_to_tree_on_a_thousand_trained_leaves():
    sch, target = _alternating_tree(2500)
    assert target.leaf_count > 950
    tree = cx.boxes_to_tree(sch, target.leaf_regions())
    assert tree.leaf_count <= target.leaf_count
    assert cx.functional_equivalence(target, tree, sch) == (True, None)


def test_pathfinding_on_three_hundred_trained_leaves():
    sch, target = _alternating_tree(800)
    assert target.leaf_count > 280
    model, _ = cx.pathfinding_extract(cx.LeafIdOracle(target), sch, Fraction(1, 1024))
    assert model.leaf_count <= target.leaf_count
    assert cx.functional_equivalence(target, model, sch) == (True, None)
