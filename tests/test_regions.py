import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cfextract as cx
from tests.conftest import (enumerate_region, make_schema, random_subregion, reference_split,
                            region_from_json)

import numpy as np


# -- center --------------------------------------------------------------------


def test_center_of_unit_square():
    sch = cx.FeatureSchema([
        cx.NumericFeature("x1", 0, 1, Fraction(1, 1024)),
        cx.NumericFeature("x2", 0, 1, Fraction(1, 1024)),
    ])
    c = cx.center(cx.full_region(sch))
    assert c == sch.point_of("0.5", "0.5")


def test_center_degenerate_region():
    sch = make_schema("grid10")
    r = cx.Region(((3, 3), (7, 7)), ())
    assert cx.center(r) == sch.point_of("0.3", "0.7")


def test_center_rounds_down_to_grid():
    # [0,1] x [0.4..., 1] on the 2^-10 grid: lower index 410 is the first grid
    # point above 0.4; the midpoint index (410+1024)//2 = 717 is 0.7002 to 4dp
    sch = cx.FeatureSchema([
        cx.NumericFeature("x1", 0, 1, Fraction(1, 1024)),
        cx.NumericFeature("x2", 0, 1, Fraction(1, 1024)),
    ])
    r = cx.Region(((0, 1024), (410, 1024)), ())
    c = cx.center(r)
    assert c.ivals == (512, 717)
    assert c == sch.point_of("0.5", Fraction(717, 1024))
    assert round(float(Fraction(717, 1024)), 4) == 0.7002


def test_center_binary_and_groups():
    sch = make_schema("mixed")
    r = cx.Region(((0, 64), (0, 1), (2, 5)), (frozenset({1, 2}),))
    c = cx.center(r)
    assert c.ivals[1] == 0  # smaller allowed binary value
    assert c.cats[0] == 1  # lowest allowed category
    assert cx.contains(r, c)


# -- split ---------------------------------------------------------------------


def test_split_single_axis_paper_example(schema_grid10):
    sch = schema_grid10
    full = cx.full_region(sch)
    x, cf = sch.point_of("0.5", "0.5"), sch.point_of("0.5", "0.4")
    pieces, steps = cx.split(full, x, cf, sch)
    assert len(pieces) == 2 and len(steps) == 1
    assert pieces[0].intervals == ((0, 10), (5, 10))  # x side: x2 > 0.4
    assert pieces[1].intervals == ((0, 10), (0, 4))  # counterfactual side
    (test, x_left), = steps
    assert test == cx.SplitNode(1, 4) and not x_left  # t = 0.4
    assert sch.interval_axes[1].value(test.threshold) == Fraction(2, 5)


def test_split_two_axes_peel_order(schema_grid10):
    sch = schema_grid10
    full = cx.full_region(sch)
    x, cf = sch.point_of("0.2", "0.2"), sch.point_of("0.6", "0.7")
    pieces, steps = cx.split(full, x, cf, sch)
    assert [p.intervals for p in pieces] == [
        ((0, 5), (0, 10)),  # z1 <= 0.6 - delta
        ((6, 10), (0, 6)),  # z1 >= 0.6, z2 <= 0.7 - delta
        ((6, 10), (7, 10)),  # z1 >= 0.6, z2 >= 0.7
    ]
    assert steps == [(cx.SplitNode(0, 5), True), (cx.SplitNode(1, 6), True)]


def test_split_contract_violations(schema_grid10):
    sch = schema_grid10
    full = cx.full_region(sch)
    x = sch.point_of("0.5", "0.5")
    with pytest.raises(cx.ContractViolation):
        cx.split(full, x, x, sch)
    sub = cx.Region(((0, 4), (0, 4)), ())
    with pytest.raises(cx.ContractViolation):
        cx.split(sub, x, sch.point_of("0.1", "0.1"), sch)


def test_split_one_hot_membership():
    sch = make_schema("mixed")
    full = cx.full_region(sch)
    x = sch.point_of("0.5", 0, 3, "p")
    cf = sch.point_of("0.5", 0, 3, "r")
    pieces, steps = cx.split(full, x, cf, sch)
    assert len(pieces) == 3
    assert pieces[0].allowed[0] == {0}  # x's category peeled first
    assert pieces[1].allowed[0] == {1}  # what is neither p nor r
    assert pieces[2].allowed[0] == {2}  # counterfactual side
    assert cx.contains(pieces[0], x) and cx.contains(pieces[-1], cf)
    assert steps == [(cx.CatNode(0, 0), True), (cx.CatNode(0, 2), False)]


def test_split_one_hot_two_categories_skips_empty_peel():
    sch = cx.FeatureSchema([cx.CategoricalFeature("g", ("a", "b")), cx.BinaryFeature("z")])
    full = cx.full_region(sch)
    x = sch.point_of("b", 0)
    cf = sch.point_of("a", 0)
    pieces, steps = cx.split(full, x, cf, sch)
    assert len(pieces) == 2 and len(steps) == 1
    assert pieces[0].allowed[0] == {1} and pieces[1].allowed[0] == {0}


# -- grid_volume -----------------------------------------------------------------


def test_grid_volume_endpoints_inclusive():
    sch = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, 4))])
    assert cx.grid_volume(cx.full_region(sch), sch) == 5


def test_grid_volume_product():
    sch = cx.FeatureSchema([cx.NumericFeature("x", 0, 1, Fraction(1, 4)),
                            cx.BinaryFeature("b")])
    r = cx.Region(((0, 2), (0, 1)), ())
    assert cx.grid_volume(r, sch) == 6


def test_empty_intersection_is_none():
    a = cx.Region(((0, 3),), ())
    b = cx.Region(((5, 7),), ())
    assert cx.intersect(a, b) is None


# -- properties ------------------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
def test_split_soundness_random(seed):
    sch = make_schema("mixed")
    rng = np.random.default_rng(seed)
    region = random_subregion(sch, rng)
    x = cx.sample_point(region, rng)
    cf = cx.sample_point(region, rng)
    if x == cf:
        return
    pieces, steps = cx.split(region, x, cf, sch)
    assert len(pieces) == len(steps) + 1
    assert sum(p.volume for p in pieces) == region.volume
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            assert cx.intersect(pieces[i], pieces[j]) is None
    assert cx.contains(pieces[0], x)
    assert cx.contains(pieces[-1], cf)
    # determinism
    again, _ = cx.split(region, x, cf, sch)
    assert again == pieces


# groups before, between and after interval axes, one of them nine-way
WALK_SCHEMA = cx.FeatureSchema([
    cx.CategoricalFeature("g", tuple("abcdefghi")),
    cx.NumericFeature("a", 0, 1, Fraction(1, 8)),
    cx.OrdinalFeature("o", 5),
    cx.CategoricalFeature("h", ("p", "q", "r")),
    cx.BinaryFeature("b"),
    cx.CategoricalFeature("k", ("s", "t")),
])


@st.composite
def split_cases(draw):
    sch = WALK_SCHEMA
    intervals = []
    for size in sch.iv_sizes:
        a = draw(st.integers(0, size - 1))
        intervals.append((a, draw(st.integers(a, size - 1))))
    allowed = [frozenset(draw(st.sets(st.integers(0, k - 1), min_size=1)))
               for k in sch.group_sizes]
    inside = ([st.integers(a, b) for a, b in intervals]
              + [st.sampled_from(sorted(s)) for s in allowed])
    anywhere = [st.integers(0, n - 1) for n in sch.iv_sizes + sch.group_sizes]
    # x mostly inside; x_cf equal to x, or per axis a draw from inside or from
    # anywhere, or x's value
    x = draw(st.tuples(*draw(st.sampled_from([inside, inside, inside, anywhere]))))
    cf_axes = draw(st.sampled_from([inside, anywhere, inside, []]))
    cf = tuple(draw(st.one_of(a, st.just(v))) for v, a in zip(x, cf_axes)) or x
    n_iv = len(sch.iv_sizes)
    return (cx.Region(tuple(intervals), tuple(allowed)),
            cx.Point(x[:n_iv], x[n_iv:]), cx.Point(cf[:n_iv], cf[n_iv:]))


@settings(max_examples=300)
@given(split_cases())
def test_split_matches_the_sorted_events_reference(case):
    region, x, cf = case
    try:
        want = reference_split(region, x, cf, WALK_SCHEMA)
    except cx.ContractViolation as exc:
        with pytest.raises(cx.ContractViolation) as got:
            cx.split(region, x, cf, WALK_SCHEMA)
        assert str(got.value) == str(exc)
        return
    assert cx.split(region, x, cf, WALK_SCHEMA) == want


# a second group the other box lacks: a pairwise walk would stop before it
LOPSIDED = (cx.Region(((0, 9), (0, 9)), (frozenset({0, 1}),)), cx.Region(((0, 9), (0, 9)), ()))


@pytest.mark.parametrize("op", [cx.intersect, cx.subtract])
@pytest.mark.parametrize("a, b", [LOPSIDED, LOPSIDED[::-1],
                                  (cx.Region(((0, 9),), ()), cx.Region(((0, 9), (5, 5)), ())),
                                  (cx.Region(((0, 9), (0, 3)), ()), cx.Region(((4, 9),), ()))])
def test_boxes_of_different_arity_are_refused(op, a, b):
    # the last pair is disjoint on its first axis: refused all the same
    with pytest.raises(cx.ContractViolation, match="different arity"):
        op(a, b)


@given(st.integers(0, 2**32 - 1))
def test_subtract_partitions(seed):
    # a minus b in disjoint pieces, peeled in order: interval axes ascending,
    # each below b then above it, then the groups. A piece is cut to b on every
    # axis before the one it was peeled on, and is still a on every one after.
    sch = make_schema("groups2")
    rng = np.random.default_rng(seed)
    n_iv = len(sch.iv_sizes)
    for _ in range(20):
        a, b = random_subregion(sch, rng), random_subregion(sch, rng)
        pieces = cx.subtract(a, b)
        inter = cx.intersect(a, b)
        if inter is None:
            assert pieces == [a]
            continue
        assert sum(p.volume for p in pieces) == a.volume - inter.volume
        for i, p in enumerate(pieces):
            assert cx.intersect(p, b) is None
            assert all(cx.intersect(p, q) is None for q in pieces[i + 1:])
        a_axes, b_axes = a.intervals + a.allowed, inter.intervals + inter.allowed
        keys = []
        for p in pieces:
            axes = p.intervals + p.allowed
            k = next(k for k, v in enumerate(axes) if v != b_axes[k])
            assert axes[k + 1:] == a_axes[k + 1:]
            if k < n_iv:
                (lo, hi), (b_lo, b_hi) = axes[k], b_axes[k]
                assert hi < b_lo or lo > b_hi
                keys.append((k, lo > b_hi))
            else:
                assert not axes[k] & b_axes[k]
                keys.append((k, False))
        assert keys == sorted(set(keys))


@given(st.sampled_from(["mixed", "groups2"]), st.integers(0, 2**32 - 1))
def test_cut_sends_each_point_of_a_box_to_the_side_its_test_picks(kind, seed):
    sch = make_schema(kind)
    rng = np.random.default_rng(seed)
    region = random_subregion(sch, rng)
    if rng.integers(2):
        k = int(rng.integers(len(sch.iv_sizes)))
        test = cx.SplitNode(k, int(rng.integers(sch.iv_sizes[k])))
    else:
        g = int(rng.integers(len(sch.group_sizes)))
        test = cx.CatNode(g, int(rng.integers(sch.group_sizes[g])))

    def grid_points(iv, cats):
        return set(zip(map(tuple, iv.tolist()), map(tuple, cats.tolist())))

    iv, cats = enumerate_region(sch, region)
    left = test.left_mask(iv, cats, np.arange(len(iv)))
    for side, mask in zip(test.cut(region.intervals, region.allowed), (left, ~left)):
        held = grid_points(iv[mask], cats[mask])
        if side is None:
            assert not held
        else:
            assert grid_points(*enumerate_region(sch, cx.Region(*side))) == held


@given(st.integers(0, 2**32 - 1))
def test_center_containment_random(seed):
    sch = make_schema("mixed")
    rng = np.random.default_rng(seed)
    region = random_subregion(sch, rng)
    assert cx.contains(region, cx.center(region))


def test_region_json_roundtrip():
    sch = make_schema("mixed")
    rng = np.random.default_rng(7)
    for _ in range(25):
        r = random_subregion(sch, rng)
        data = cx.region_json(r, sch)
        assert region_from_json(data, sch) == r


# -- value types -----------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: cx.Point((1, 2), (0,)),
    lambda: cx.Region(((0, 3), (2, 2)), (frozenset({0, 2}),)),
    lambda: cx.SplitNode(0, 5),
    lambda: cx.CatNode(0, 5, 1, 2),
    lambda: cx.Leaf(1),
    lambda: cx.QueryRecord(0, cx.Point((1,), ()), cx.Region(((0, 3),), ()), 1, None),
])
def test_value_types_stay_frozen_and_hash_by_value(make):
    value = make()
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, 0)
    assert not hasattr(value, "__dict__")  # slotted: no attribute beyond the fields
    twin = make()
    assert twin is not value and twin == value and hash(twin) == hash(value)


def test_node_tests_of_different_kinds_are_never_equal():
    assert cx.SplitNode(0, 5) != cx.CatNode(0, 5)
    assert cx.SplitNode(0, 5, 1, 2) != cx.CatNode(0, 5, 1, 2)
    assert len({cx.SplitNode(0, 5), cx.CatNode(0, 5)}) == 2
