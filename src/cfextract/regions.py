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
a region (``split_region``).

Where the checks on TRA's query path live: ``contains`` is the one membership
test (a point of another arity is never inside), which the oracle calls.
``split`` checks the query point and the counterfactual against the region in
the same pass over the axes that finds their differences, and
``Region.__post_init__`` validates every piece it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import ContractViolation
from .schema import FeatureSchema, Point, number_str


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

    def split_region(self, region: Region) -> tuple[Region | None, Region | None]:
        """The parts of ``region`` sent left and right; None for an empty side."""
        k, t = self.iv_axis, self.threshold
        ivs = region.intervals
        a, b = ivs[k]
        if t >= b:
            return region, None
        if t < a:
            return None, region
        head, tail = ivs[:k], ivs[k + 1:]
        return (Region(head + ((a, t),) + tail, region.allowed),
                Region(head + ((t + 1, b),) + tail, region.allowed))


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

    def split_region(self, region: Region) -> tuple[Region | None, Region | None]:
        """The parts of ``region`` sent left and right; None for an empty side."""
        g, c = self.group, self.category
        al = region.allowed
        s = al[g]
        if c not in s:
            return None, region
        if len(s) == 1:
            return region, None
        head, tail = al[:g], al[g + 1:]
        return (Region(region.intervals, head + (frozenset((c,)),) + tail),
                Region(region.intervals, head + (s - {c},) + tail))


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


def intersect(a: Region, b: Region) -> Region | None:
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
    """Disjoint pieces covering a minus b (guillotine peel)."""
    inter = intersect(a, b)
    if inter is None:
        return [a]
    pieces: list[Region] = []
    cur_iv = list(a.intervals)
    cur_al = list(a.allowed)

    def emit(iv_override=None, al_override=None):
        iv = list(cur_iv)
        al = list(cur_al)
        if iv_override is not None:
            iv[iv_override[0]] = iv_override[1]
        if al_override is not None:
            al[al_override[0]] = al_override[1]
        pieces.append(Region(tuple(iv), tuple(al)))

    for i, ((al_, ah_), (bl_, bh_)) in enumerate(zip(a.intervals, inter.intervals)):
        if al_ < bl_:
            emit(iv_override=(i, (al_, bl_ - 1)))
        if ah_ > bh_:
            emit(iv_override=(i, (bh_ + 1, ah_)))
        cur_iv[i] = (bl_, bh_)
    for g, (sa, sb) in enumerate(zip(a.allowed, inter.allowed)):
        extra = sa - sb
        if extra:
            emit(al_override=(g, frozenset(extra)))
        cur_al[g] = sb
    return pieces


_event_axis = itemgetter(0)  # the global axis a cut event of ``split`` sorts by


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

    Iterates differing axes in ascending global order. On each it cuts the
    remainder with one node test (children unattached) and peels off the side
    holding ``x``; the final remainder holds ``x_cf``. Returns the pieces in
    peel order (remainder last) and, per peeled piece, its node test and
    ``x_left``: whether the piece is the test's left side. A test that leaves
    one side empty (possible within a one-hot group) peels nothing.

    The one pass over the axes that finds the cuts also checks that ``x`` and
    ``x_cf`` lie in ``region`` and that they differ. The remainder between
    cuts is carried as plain tuples; a ``Region`` is built, and validated,
    only for each piece returned.
    """
    ivs, al = region.intervals, region.allowed
    x_iv, cf_iv, x_cats, cf_cats = x.ivals, x_cf.ivals, x.cats, x_cf.cats
    n_iv, n_groups = len(schema.interval_axes), len(schema.groups)
    if len(ivs) != n_iv or len(al) != n_groups:
        raise ContractViolation("region has wrong arity for this schema")
    if not (len(x_iv) == len(cf_iv) == n_iv and len(x_cats) == len(cf_cats) == n_groups):
        raise _outside(region, x)

    events: list[tuple[int, SplitNode | CatNode, bool]] = []
    for iv, axis in enumerate(schema.interval_axes):
        a, b = ivs[iv]
        v, vx = cf_iv[iv], x_iv[iv]
        if not (a <= vx <= b and a <= v <= b):
            raise _outside(region, x)
        if v < vx:  # counterfactual below the query: x keeps values >= v+1
            events.append((axis.global_axis, SplitNode(iv, v), False))
        elif v > vx:  # counterfactual above: x keeps values <= v-1
            events.append((axis.global_axis, SplitNode(iv, v - 1), True))
    for gi, grp in enumerate(schema.groups):
        s = al[gi]
        cx, cv = x_cats[gi], cf_cats[gi]
        if cx not in s or cv not in s:
            raise _outside(region, x)
        if cx != cv:
            # peel {category == cx}, then {category != cv}
            events.append((grp.global_axis0 + cx, CatNode(gi, cx), True))
            events.append((grp.global_axis0 + cv, CatNode(gi, cv), False))
    if not events:
        raise ContractViolation("query equals counterfactual")
    if len(events) > 1:
        events.sort(key=_event_axis)

    pieces: list[Region] = []
    steps: list[tuple[SplitNode | CatNode, bool]] = []
    for _, test, x_left in events:
        if type(test) is SplitNode:
            # both sides are non-empty: x and x_cf lie in [a, b] on either side
            # of the cut, and no earlier cut touched this axis
            k, t = test.iv_axis, test.threshold
            a, b = ivs[k]
            head, tail = ivs[:k], ivs[k + 1:]
            left, right = head + ((a, t),) + tail, head + ((t + 1, b),) + tail
            piece, ivs = (left, right) if x_left else (right, left)
            pieces.append(Region(piece, al))
        else:
            g, c = test.group, test.category
            s = al[g]
            if c not in s or len(s) == 1:
                continue
            head, tail = al[:g], al[g + 1:]
            left, right = head + (frozenset((c,)),) + tail, head + (s - {c},) + tail
            piece, al = (left, right) if x_left else (right, left)
            pieces.append(Region(ivs, piece))
        steps.append((test, x_left))
    pieces.append(Region(ivs, al))
    return pieces, steps


def sample_point(region: Region, rng) -> Point:
    """Uniform grid point of ``region`` drawn from a numpy Generator. Its
    draws are int64, so a region reaching past grid index 2**63 - 1 is
    refused."""
    if any(b >= 2 ** 63 for _, b in region.intervals):
        raise ContractViolation("cannot sample past grid index 2**63 - 1: numpy draws int64")
    ivals = tuple(int(rng.integers(a, b + 1)) for a, b in region.intervals)
    cats = tuple(
        sorted(s)[int(rng.integers(len(s)))] if len(s) > 1 else next(iter(s))
        for s in region.allowed
    )
    return Point(ivals, cats)


def region_json(region: Region, schema: FeatureSchema) -> list:
    """Per-axis [lo, hi] bounds; one-hot axes use {allowed -> hi=1} encoding."""
    out: list = []
    for entry in schema.axis_table:
        if entry[0] == "i":
            iv = entry[1]
            axis = schema.interval_axes[iv]
            a, b = region.intervals[iv]
            if axis.kind == "numeric":
                out.append([number_str(axis.value(a)), number_str(axis.value(b))])
            else:
                out.append([a, b])
        else:
            _, gi, c = entry
            s = region.allowed[gi]
            if c in s:
                out.append([1, 1] if len(s) == 1 else [0, 1])
            else:
                out.append([0, 0])
    return out
