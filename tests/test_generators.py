from fractions import Fraction

import numpy as np
import pytest

import cfextract as cx
from tests.conftest import make_schema


def test_random_tree_depth_zero_constant(schema_mixed):
    t = cx.gen_random_tree(schema_mixed, depth=0, seed=1)
    assert t.node_count == 1


def test_random_tree_seed_reproducible(schema_mixed):
    a = cx.gen_random_tree(schema_mixed, depth=6, seed=9)
    b = cx.gen_random_tree(schema_mixed, depth=6, seed=9)
    assert cx.model_json_dict(a, "s") == cx.model_json_dict(b, "s")
    c = cx.gen_random_tree(schema_mixed, depth=6, seed=10)
    assert cx.model_json_dict(a, "s") != cx.model_json_dict(c, "s")


def test_random_tree_has_two_classes(schema_mixed):
    for seed in range(20):
        t = cx.gen_random_tree(schema_mixed, depth=3, seed=seed)
        if t.node_count > 1:
            assert len(t.labels) >= 2


def test_random_tree_structural_counts():
    sch = cx.FeatureSchema([
        cx.NumericFeature(f"x{i}", 0, 1, Fraction(1, 64)) for i in range(5)
    ])
    t = cx.gen_random_tree(sch, depth=8, seed=4)
    st = cx.stats(t)
    assert 1 <= st.n <= 2**8 - 1
    assert st.depth <= 8


def test_random_forest_determinism(schema_mixed):
    a = cx.gen_random_forest(schema_mixed, 4, 3, seed=2)
    b = cx.gen_random_forest(schema_mixed, 4, 3, seed=2)
    assert cx.model_json_dict(a, "s") == cx.model_json_dict(b, "s")


def test_chessboard_cells_and_labels():
    sch = make_schema("grid10")
    t = cx.gen_chessboard(sch, (1, 1))
    assert cx.stats(t).n == 2
    assert t.leaf_count == 4
    assert len(t.labels) == 2
    # adjacent cells disagree
    assert t.predict(sch.point_of("0.2", "0.2")) != t.predict(sch.point_of("0.8", "0.2"))
    assert t.predict(sch.point_of("0.2", "0.2")) != t.predict(sch.point_of("0.2", "0.8"))


def test_chessboard_tra_query_range():
    sch = make_schema("grid10")
    t = cx.gen_chessboard(sch, (1, 1))
    res = cx.tra_extract(cx.CounterfactualOracle(t))
    assert 4 <= res.log.count <= 7  # one per cell at least, worst case at most
    ok, _ = cx.functional_equivalence(t, res.model, sch)
    assert ok


def test_chessboard_2x2_bound():
    sch = make_schema("2num")
    t = cx.gen_chessboard(sch, (2, 2))
    res = cx.tra_extract(cx.CounterfactualOracle(t))
    assert res.log.count <= 17  # 2 * 9 - 1
    ok, _ = cx.functional_equivalence(t, res.model, sch)
    assert ok


def test_chessboard_rejects_groups_and_bad_s(schema_mixed):
    with pytest.raises(cx.ContractViolation):
        cx.gen_chessboard(schema_mixed, (1, 1, 1))
    sch = make_schema("grid10")
    with pytest.raises(cx.ContractViolation):
        cx.gen_chessboard(sch, (0, 1))
    with pytest.raises(cx.ContractViolation):
        cx.gen_chessboard(sch, (1,))


def test_adversarial_level_placement():
    t = cx.gen_adversarial(cx.AdversarialSpec((1, 1)))
    sch = t.schema
    levels = sorted(
        (sch.interval_axes[n.iv_axis].name, sch.interval_axes[n.iv_axis].value(n.threshold))
        for n in t.nodes if isinstance(n, cx.SplitNode)
    )
    eps = 2 * sch.interval_axes[0].step
    assert levels == [("x1", Fraction(1, 2)), ("x2", Fraction(3, 4) + eps)]


def test_adversarial_single_dimension_chain():
    k = 3
    t = cx.gen_adversarial(cx.AdversarialSpec((k,)))
    sch = t.schema
    levels = sorted(sch.interval_axes[0].value(n.threshold)
                    for n in t.nodes if isinstance(n, cx.SplitNode))
    assert levels == [Fraction(p, k + 1) for p in range(1, k + 1)]
    st = cx.stats(t)
    assert st.n == k and st.leaf_count == k + 1


def test_adversarial_spec_validation():
    with pytest.raises(cx.ContractViolation):
        cx.AdversarialSpec((1, 2))  # must be non-increasing
    with pytest.raises(cx.ContractViolation):
        cx.AdversarialSpec((2, 0))
    with pytest.raises(cx.ContractViolation):
        cx.gen_adversarial(cx.AdversarialSpec((2, 2), epsilon=Fraction(1, 2)))
    with pytest.raises(cx.ContractViolation):
        cx.gen_adversarial(cx.AdversarialSpec((1, 1), delta=Fraction(1, 7)))  # off-grid


def test_adversarial_boundaries_all_genuine():
    # every internal boundary must separate distinct labels, otherwise the
    # worst-case query equality cannot hold
    for s in [(1, 1), (2, 1), (2, 2), (3, 2), (2, 2, 1)]:
        t = cx.gen_adversarial(cx.AdversarialSpec(s))
        sch = t.schema
        for node in t.nodes:
            if not isinstance(node, cx.SplitNode):
                continue
            axis, thr = node.iv_axis, node.threshold
            rng = np.random.default_rng(0)
            found = False
            for _ in range(200):
                p = cx.sample_point(cx.full_region(sch), rng)
                lo = cx.Point(p.ivals[:axis] + (thr,) + p.ivals[axis + 1:], p.cats)
                hi = cx.Point(p.ivals[:axis] + (thr + 1,) + p.ivals[axis + 1:], p.cats)
                if t.predict(lo) != t.predict(hi):
                    found = True
                    break
            assert found, (s, axis, thr)


def test_adversarial_discovery_order_lowest_dimension_first():
    # within any region the attack visits, the split it discovers lies on the
    # lowest-indexed dimension that still has boundaries strictly inside
    for s in [(2, 1), (2, 2), (3, 2)]:
        t = cx.gen_adversarial(cx.AdversarialSpec(s))
        sch = t.schema
        levels: dict[int, list[int]] = {}
        for node in t.nodes:
            if isinstance(node, cx.SplitNode):
                levels.setdefault(node.iv_axis, []).append(node.threshold)
        records = []
        oracle = cx.CounterfactualOracle(t, sink=records.append)
        cx.tra_extract(oracle)
        for rec in records:
            if rec.counterfactual is None:
                continue
            _, steps = cx.split(rec.region, rec.x, rec.counterfactual, sch)
            dims_inside = [
                axis for axis, ts in sorted(levels.items())
                if any(rec.region.intervals[axis][0] <= v < rec.region.intervals[axis][1]
                       for v in ts)
            ]
            assert steps[0][0].iv_axis == min(dims_inside)
