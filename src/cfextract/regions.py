"""Axis-aligned regions of a quantized feature space and their algebra.

A region is a product of inclusive grid-index intervals (one per
numeric/ordinal/binary axis) and non-empty allowed-category sets (one per
one-hot group). Regions are always non-empty by construction. All operations
here are pure and deterministic.

Its two fields are the one box format: the walks that cut a box at every
node (``split``, ``TreeModel.leaf_boxes``, the exact oracle's descent, the
forest compiler) carry its tuple of ``(lo, hi)`` pairs and its tuple of
allowed sets, rebuilding one entry per cut, and build no ``Region`` per node.

The two tree node tests live here too, since each is a cut of a region:
``SplitNode`` and ``CatNode`` route rows of index arrays (``left_mask``) and
cut a box (``cut``: its two sides as box fields, None for an empty one).
``cut`` is the one box cut: ``split``, ``subtract``, the forest compiler,
``boxes_to_tree`` and the random tree generator all cut through it. Three hot
walks keep the cut inline, each saying why: ``TreeModel.leaf_boxes``,
``exact_tree_cf`` and ``TreeModel.line_segments`` (which cuts 1-D spans).

Uniform draws come in one way: ``sample_point`` draws one point, and
``sample_blocks`` draws the same stream as blocks of index-array rows, for
the heuristic oracle's samples and the surrogate attacks' query points.

Where the checks on TRA's query path live: ``contains`` is the one membership
test (a point of another arity is never inside), which the oracle calls.
``split`` checks the query point and the counterfactual against the region in
the same pass over the axes that finds their differences, and
``Region.__post_init__`` validates every piece it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ContractViolation
from .schema import FeatureSchema, Point


@dataclass(frozen=True, slots=True)
class Region:
    intervals: tuple[tuple[int, int], ...]
    allowed: tuple[frozenset[int], ...]

    def __post_init__(self):
        for a, b in self.intervals:
            if a > b:
                raise ContractViolation(f"empty interval [{a}, {b}]")
        for s in self.allowed:
            if not s:
                raise ContractViolation("empty allowed-category set")

    @property
    def volume(self) -> int:
        n = 1
        for a, b in self.intervals:
            n *= b - a + 1
        for s in self.allowed:
            n *= len(s)
        return n


@dataclass(frozen=True, slots=True)
class SplitNode:
    """Interval test: a point goes left iff its index on ``iv_axis`` is
    <= ``threshold``. ``left`` and ``right`` are node indices, -1 while the
    test is not yet attached to children."""

    iv_axis: int
    threshold: int
    left: int = -1
    right: int = -1

    def with_children(self, left: int, right: int) -> "SplitNode":
        """This test attached to the nodes ``left`` and ``right``."""
        return SplitNode(self.iv_axis, self.threshold, left, right)

    def left_mask(self, iv, cats, sel):
        """Which of the index-array rows ``sel`` go left."""
        return iv[sel, self.iv_axis] <= self.threshold

    def cut(self, ivs, allowed):
        """The box ``ivs``, ``allowed`` (a ``Region``'s fields) cut by this
        test: its left and right sides, each an ``(intervals, allowed)`` pair,
        or None when that side is empty."""
        k, t = self.iv_axis, self.threshold
        a, b = ivs[k]
        if t >= b:
            return (ivs, allowed), None
        if t < a:
            return None, (ivs, allowed)
        head, tail = ivs[:k], ivs[k + 1:]
        return (head + ((a, t),) + tail, allowed), (head + ((t + 1, b),) + tail, allowed)


@dataclass(frozen=True, slots=True)
class CatNode:
    """Category test: a point goes left iff its category in ``group`` is
    ``category``. Children as for ``SplitNode``."""

    group: int
    category: int
    left: int = -1
    right: int = -1

    def with_children(self, left: int, right: int) -> "CatNode":
        """This test attached to the nodes ``left`` and ``right``."""
        return CatNode(self.group, self.category, left, right)

    def left_mask(self, iv, cats, sel):
        """Which of the index-array rows ``sel`` go left."""
        return cats[sel, self.group] == self.category

    def cut(self, ivs, allowed):
        """The box ``ivs``, ``allowed`` cut by this test, as ``SplitNode.cut``."""
        g, c = self.group, self.category
        s = allowed[g]
        if c not in s:
            return None, (ivs, allowed)
        if len(s) == 1:
            return (ivs, allowed), None
        head, tail = allowed[:g], allowed[g + 1:]
        return (ivs, head + (frozenset((c,)),) + tail), (ivs, head + (s - {c},) + tail)


def full_region(schema: FeatureSchema) -> Region:
    return Region(
        tuple((0, size - 1) for size in schema.iv_sizes),
        tuple(frozenset(range(k)) for k in schema.group_sizes),
    )


def contains(region: Region, p: Point) -> bool:
    if len(p.ivals) != len(region.intervals) or len(p.cats) != len(region.allowed):
        return False
    for (a, b), v in zip(region.intervals, p.ivals):
        if not a <= v <= b:
            return False
    for s, c in zip(region.allowed, p.cats):
        if c not in s:
            return False
    return True


def grid_volume(region: Region, schema: FeatureSchema) -> int:
    """Exact number of grid points in ``region`` under ``schema``."""
    if len(region.intervals) != len(schema.iv_sizes) or len(region.allowed) != len(
        schema.group_sizes
    ):
        raise ContractViolation("region has wrong arity for this schema")
    for (a, b), size in zip(region.intervals, schema.iv_sizes):
        if not (0 <= a and b < size):
            raise ContractViolation("region exceeds schema bounds")
    for s, k in zip(region.allowed, schema.group_sizes):
        if max(s) >= k or min(s) < 0:
            raise ContractViolation("region allows unknown categories")
    return region.volume


def center(region: Region) -> Point:
    """Center grid point: interval midpoints rounded down, lowest allowed category."""
    return Point(tuple([(a + b) // 2 for a, b in region.intervals]),
                 tuple([min(s) for s in region.allowed]))


def _check_arity(a: Region, b: Region) -> None:
    """Refuse two boxes of different arity: a pairwise walk over their axes
    would stop at the shorter one."""
    if len(a.intervals) != len(b.intervals) or len(a.allowed) != len(b.allowed):
        raise ContractViolation("regions of different arity")


def intersect(a: Region, b: Region) -> Region | None:
    _check_arity(a, b)
    intervals = []
    for (al, ah), (bl, bh) in zip(a.intervals, b.intervals):
        lo, hi = max(al, bl), min(ah, bh)
        if lo > hi:
            return None
        intervals.append((lo, hi))
    allowed = []
    for sa, sb in zip(a.allowed, b.allowed):
        s = sa & sb
        if not s:
            return None
        allowed.append(s)
    return Region(tuple(intervals), tuple(allowed))


def subtract(a: Region, b: Region) -> list[Region]:
    """Disjoint pieces covering a minus b (guillotine peel), in peel order:
    per interval axis in turn, the part of the remainder below b, then the
    part above, each remainder cut to b on that axis; then per group, the
    remainder's categories that b does not allow.

    Most of PathFinding's calls meet a box that misses ``a``, so the first
    pass only tests the two for disjointness, axis by axis, and returns
    ``[a]`` on the first axis that separates them; no intersection is built."""
    _check_arity(a, b)
    for (a_lo, a_hi), (b_lo, b_hi) in zip(a.intervals, b.intervals):
        if a_hi < b_lo or b_hi < a_lo:
            return [a]
    for sa, sb in zip(a.allowed, b.allowed):
        if sa.isdisjoint(sb):
            return [a]
    pieces: list[Region] = []
    rest = a.intervals, a.allowed
    # cut only where a side is non-empty: two cuts per axis took ~35% longer
    for i, ((a_lo, a_hi), (b_lo, b_hi)) in enumerate(zip(a.intervals, b.intervals)):
        if a_lo < b_lo:
            below, rest = SplitNode(i, b_lo - 1).cut(*rest)
            pieces.append(Region(*below))
        if b_hi < a_hi:
            rest, above = SplitNode(i, b_hi).cut(*rest)
            pieces.append(Region(*above))
    ivs, al = rest
    for g, sb in enumerate(b.allowed):
        s = al[g] & sb
        if al[g] != s:
            pieces.append(Region(ivs, al[:g] + (al[g] - s,) + al[g + 1:]))
            al = al[:g] + (s,) + al[g + 1:]
    return pieces


def _outside(region: Region, x: Point) -> ContractViolation:
    """The refusal of a ``split`` whose query point or counterfactual is not
    in ``region``: the query point's if it is outside, else the
    counterfactual's."""
    return ContractViolation("query point outside region" if not contains(region, x)
                             else "counterfactual outside region")


def split(
    region: Region, x: Point, x_cf: Point, schema: FeatureSchema
) -> tuple[list[Region], list[tuple[SplitNode | CatNode, bool]]]:
    """Partition ``region`` along the axes where ``x`` and ``x_cf`` differ.

    Walks the features in order, so the differing axes come in ascending
    global order, and cuts each axis as it reads it: it cuts the remainder
    with one node test (children unattached) and peels off the side holding
    ``x``; the final remainder holds ``x_cf``. A one-hot group peels its lower
    category first. Returns the pieces in peel order (remainder last) and,
    per peeled piece, its node test and ``x_left``: whether the piece is the
    test's left side. A test that leaves one side empty (possible within a
    one-hot group) peels nothing.

    The same walk checks that ``x`` and ``x_cf`` lie in ``region`` and that
    they differ. The remainder between cuts is carried as plain tuples; a
    ``Region`` is built, and validated, only for each piece returned.
    """
    ivs, al = region.intervals, region.allowed
    x_iv, cf_iv, x_cats, cf_cats = x.ivals, x_cf.ivals, x.cats, x_cf.cats
    n_iv, n_groups = len(schema.interval_axes), len(schema.groups)
    if len(ivs) != n_iv or len(al) != n_groups:
        raise ContractViolation("region has wrong arity for this schema")
    if not (len(x_iv) == len(cf_iv) == n_iv and len(x_cats) == len(cf_cats) == n_groups):
        raise _outside(region, x)

    pieces: list[Region] = []
    steps: list[tuple[SplitNode | CatNode, bool]] = []
    for tag, i in schema.layout:  # features in order: global axes ascending
        if tag == "i":
            (a, b), vx, v = ivs[i], x_iv[i], cf_iv[i]
            if not (a <= vx <= b and a <= v <= b):
                raise _outside(region, x)
            if v == vx:
                continue
            # counterfactual below the query: x keeps values >= v+1; above: <= v-1
            tests = ((SplitNode(i, v), False),) if v < vx else ((SplitNode(i, v - 1), True),)
        else:
            s, cx, cv = al[i], x_cats[i], cf_cats[i]
            if cx not in s or cv not in s:
                raise _outside(region, x)
            if cx == cv:
                continue
            # peel {category == cx} and {category != cv}, the lower category first
            tests = ((CatNode(i, cx), True), (CatNode(i, cv), False))
            if cv < cx:
                tests = tests[::-1]
        for test, x_left in tests:
            left, right = test.cut(ivs, al)
            if left is None or right is None:  # a one-hot test may peel nothing; x and
                continue  # x_cf lie on either side of an interval test
            piece, (ivs, al) = (left, right) if x_left else (right, left)
            pieces.append(Region(*piece))
            steps.append((test, x_left))
    # a differing axis always peels: an interval test, or a group's first test
    if not pieces:
        raise ContractViolation("query equals counterfactual")
    pieces.append(Region(ivs, al))
    return pieces, steps


def _refuse_past_int64(region: Region) -> None:
    if any(b >= 2 ** 63 for _, b in region.intervals):
        raise ContractViolation("cannot sample past grid index 2**63 - 1: numpy draws int64")


def sample_point(region: Region, rng) -> Point:
    """Uniform grid point of ``region`` drawn from a numpy Generator. Its
    draws are int64, so a region reaching past grid index 2**63 - 1 is
    refused."""
    _refuse_past_int64(region)
    ivals = tuple(int(rng.integers(a, b + 1)) for a, b in region.intervals)
    cats = tuple(
        sorted(s)[int(rng.integers(len(s)))] if len(s) > 1 else next(iter(s))
        for s in region.allowed
    )
    return Point(ivals, cats)


# rows of the blocks of sample_blocks: each is 4 times the one before, up to the
# largest, so that a long stream of draws keeps memory bounded
_FIRST_BLOCK, _LARGEST_BLOCK = 16, 4096


def sample_blocks(region: Region, rng, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``n`` points that successive ``sample_point`` calls on ``region``
    would draw from ``rng``, in order, as blocks of index-array rows: ``(iv,
    cats)`` pairs of int64 arrays of 16, 64, 256, 1,024 and then 4,096 rows
    (the last cut to ``n``), each drawn only when it is asked for.

    A block is one ``rng.integers`` call over the interval axes, then over
    the index into the sorted allowed set of each group with more than one,
    the draws ``sample_point`` makes for a point, row after row; a group with
    one allowed category draws nothing, as there. So a caller that takes the
    rows one by one, and leaves the generator to no other draw, sees
    ``sample_point``'s stream; rows drawn past the last one it takes are only
    thrown away. A region reaching past grid index 2**63 - 1 is refused here,
    before any block is drawn."""
    _refuse_past_int64(region)
    n_iv = len(region.intervals)
    choices = [np.array(sorted(s), dtype=np.int64) for s in region.allowed]
    drawn = [g for g, s in enumerate(choices) if len(s) > 1]
    lo = [a for a, _ in region.intervals] + [0] * len(drawn)
    hi = [b for _, b in region.intervals] + [len(choices[g]) - 1 for g in drawn]
    fixed = np.array([s[0] for s in choices], dtype=np.int64)  # one category, or a placeholder

    def blocks():
        left, size = n, _FIRST_BLOCK
        while left > 0:
            rows = min(size, left)
            block = rng.integers(lo, hi, size=(rows, len(lo)), endpoint=True, dtype=np.int64)
            cats = np.tile(fixed, (rows, 1))
            for j, g in enumerate(drawn):
                cats[:, g] = choices[g][block[:, n_iv + j]]
            yield block[:, :n_iv], cats
            left -= rows
            size = min(4 * size, _LARGEST_BLOCK)

    return blocks()


def region_json(region: Region, schema: FeatureSchema) -> list:
    """Per-axis [lo, hi] bounds; one-hot axes use {allowed -> hi=1} encoding."""
    out: list = []
    for entry in schema.axis_table:
        if entry[0] == "i":
            axis = schema.interval_axes[entry[1]]
            out.append([axis.file_value(i) for i in region.intervals[entry[1]]])
        else:
            _, gi, c = entry
            s = region.allowed[gi]
            if c in s:
                out.append([1, 1] if len(s) == 1 else [0, 1])
            else:
                out.append([0, 0])
    return out
