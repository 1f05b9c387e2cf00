"""Axis-parallel classifiers: decision trees, majority-vote forests.

A tree is a tuple of nodes: ``Leaf``s and two node tests, ``SplitNode`` (a
point goes left iff its grid index on an interval axis is <= the threshold
index) and ``CatNode`` (left iff its category in a one-hot group is the
tested one). The node tests, defined next to ``Region``, route rows of index
arrays (``left_mask``) and cut boxes (``cut``: the two sides of a ``Region``'s
own fields, its ``(lo, hi)`` pairs and allowed sets, None for an empty one).
A tree is walked through a box of the grid in one way, ``leaf_boxes``, which
keeps that cut inline, and a point in one way, ``leaf_index``. Trees are
validated on construction so every root-to-leaf path carries a non-empty
region (no dead branches). A tree is built one way, ``grow``: top-down on an
explicit stack, so a tree may be as deep as its data makes it.

Every model has one serving surface: ``trees``, the trees it votes over, and
``tree(cap)``, the one tree it is served as. A tree is a forest of one: its
``trees`` is ``(self,)`` and its ``tree(cap)`` is itself. A forest is served
through the one tree it compiles to (``ForestModel.tree``, at most ``cap``
leaves), so the exact oracle and the equivalence check only ever walk trees,
and ask no model its kind. ``cells_within`` enumerates a model's
split-level cells, which ``ForestModel.cell_box_set`` keeps: no oracle and
no check walks them, and they are a reference for the tests and the
benchmark's forest set-up.

Leaf labels are non-negative ints; ``None`` marks the provisionally unknown
leaves of in-progress reconstructions and never agrees with anything.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import CapacityError, ContractViolation, DataFormatError
from .regions import CatNode, Region, SplitNode, full_region, intersect
from .schema import (FeatureSchema, Point, exact_number, json_int, load_schema,
                     number_str, read_json, write_json)

UNKNOWN = -1  # array sentinel for None labels


@dataclass(frozen=True, slots=True)
class Leaf:
    label: int | None


Node = Union[SplitNode, CatNode, Leaf]


def grow(item, expand) -> tuple[list[Node], int]:
    """The nodes and root index of the tree grown from ``item``.

    ``expand(item)`` returns a ``Leaf``, or ``(test, left item, right item)``
    with ``test``'s children unattached. Items are expanded in pre-order, left
    subtree first, and children are stored before their parent, as a
    recursion would; the stack is explicit, so depth is unbounded."""
    nodes: list[Node] = []
    done: list[int] = []  # roots of grown subtrees, awaiting their parents
    # an entry is (None, item) to expand, or (test, None) to attach to the
    # last two entries of ``done``
    stack: list = [(None, item)]
    while stack:
        test, item = stack.pop()
        if test is None:
            node = expand(item)
            if type(node) is not Leaf:
                test, left, right = node
                stack += ((test, None), (None, right), (None, left))
                continue
        else:
            right = done.pop()
            node = test.with_children(done.pop(), right)
        nodes.append(node)
        done.append(len(nodes) - 1)
    return nodes, done.pop()


class TreeModel:
    def __init__(self, schema: FeatureSchema, nodes: Sequence[Node], root: int = 0):
        self.schema = schema
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.root = root
        self._leaf_regions: list[tuple[Region, int | None]] | None = None
        self._boxset: BoxSet | None = None
        self._validate()

    def _validate(self) -> None:
        n = len(self.nodes)
        if not n:
            raise DataFormatError("tree has no nodes")
        if not 0 <= self.root < n:
            raise DataFormatError("root index out of range")
        n_iv, n_groups = len(self.schema.iv_sizes), len(self.schema.group_sizes)
        children: list[int] = []
        leaves = 0
        for i, node in enumerate(self.nodes):
            kind = type(node)
            if kind is Leaf:
                leaves += 1
                # array evaluation holds labels in int64
                if node.label is not None and (type(node.label) is not int
                                               or not 0 <= node.label < 2 ** 63):
                    raise DataFormatError(f"leaf {i}: bad label {node.label!r}")
            elif kind is SplitNode or kind is CatNode:
                axis, value, arity = ((node.iv_axis, node.threshold, n_iv) if kind is SplitNode
                                      else (node.group, node.category, n_groups))
                # the walks would misread a float, a bool or a negative axis, not refuse it
                if not (type(axis) is type(value) is type(node.left) is type(node.right) is int
                        and 0 <= axis < arity):
                    raise DataFormatError(f"node {i}: bad field in {node!r}")
                children += (node.left, node.right)
            else:
                raise DataFormatError(f"node {i}: unknown node type")
        for c in (min(children, default=0), max(children, default=0)):
            if not 0 <= c < n:
                raise DataFormatError(f"child index {c} out of range")
        distinct = set(children)
        if len(distinct) < len(children):
            raise DataFormatError("a node is reachable twice")
        if self.root in distinct:
            raise DataFormatError("the root is a child of some node")
        # no node has two parents and the root has none, so the descent from
        # the root meets no node twice; a dead branch, or a part cut off from
        # the root, holds a leaf that the descent never reaches
        domain = full_region(self.schema)
        missed = leaves - sum(1 for _ in self.leaf_boxes(domain.intervals, domain.allowed))
        if missed:
            raise DataFormatError(f"{missed} leaves lie on a dead branch or are unreachable")
        self._leaf_count = leaves

    # -- descent ------------------------------------------------------------
    def leaf_boxes(self, intervals: tuple[tuple[int, int], ...],
                   allowed: tuple[frozenset[int], ...]) -> Iterator[tuple]:
        """Each leaf meeting the box with per-axis ``(lo, hi)`` ``intervals``
        and category sets ``allowed`` (a ``Region``'s fields), as (node index,
        intervals, allowed) of its part of the box, left subtrees first; the
        parts partition the box. A test with one side empty is followed in
        place. No ``Region`` is built.

        The cut is ``cut``'s, written inline: the walk mostly follows one side,
        and a ``cut`` call builds a box pair at every level, which made the
        equivalence check about 55% slower."""
        nodes = self.nodes
        stack = [(self.root, intervals, allowed)]
        while stack:
            i, ivs, allowed = stack.pop()
            node = nodes[i]
            while type(node) is not Leaf:
                if type(node) is SplitNode:
                    a, t = node.iv_axis, node.threshold
                    lo, hi = ivs[a]
                    if t >= hi:
                        i = node.left
                    elif t < lo:
                        i = node.right
                    else:
                        head, tail = ivs[:a], ivs[a + 1:]
                        stack.append((node.right, head + ((t + 1, hi),) + tail, allowed))
                        i, ivs = node.left, head + ((lo, t),) + tail
                else:
                    g, c = node.group, node.category
                    s = allowed[g]
                    if c not in s:
                        i = node.right
                    elif len(s) == 1:
                        i = node.left
                    else:
                        head, tail = allowed[:g], allowed[g + 1:]
                        stack.append((node.right, ivs, head + (s - {c},) + tail))
                        i, allowed = node.left, head + (frozenset((c,)),) + tail
                node = nodes[i]
            yield i, ivs, allowed

    def leaf_index(self, p: Point) -> int:
        """Index of the leaf holding ``p``."""
        # the point test is inline, not a node method: a call per level made
        # every predict about 25% slower, and oracles predict on each probe
        nodes = self.nodes
        i = self.root
        node = nodes[i]
        while type(node) is not Leaf:
            if type(node) is SplitNode:
                i = node.left if p.ivals[node.iv_axis] <= node.threshold else node.right
            else:
                i = node.left if p.cats[node.group] == node.category else node.right
            node = nodes[i]
        return i

    def line_segments(self, ivals: Sequence[int], cats: Sequence[int], axis: int,
                      lo: int, hi: int) -> tuple[list[int], list[int | None]]:
        """The labels along interval axis ``axis`` over ``[lo, hi]``, every
        other coordinate fixed at ``ivals``/``cats``: the ascending starts of
        the segments the leaves cut the line into, and each segment's label.

        One integer walk: a test on ``axis`` follows both non-empty sides,
        clipping the span; every other test follows the point's side. The
        right side is pushed and the left followed, so segments come out in
        ascending order. No ``Region`` is built; the spans are 1-D, not boxes,
        so ``cut`` does not apply."""
        nodes = self.nodes
        starts: list[int] = []
        labels: list[int | None] = []
        stack = [(self.root, lo, hi)]
        while stack:
            i, a, b = stack.pop()
            node = nodes[i]
            while type(node) is not Leaf:
                if type(node) is SplitNode:
                    t = node.threshold
                    if node.iv_axis != axis:
                        i = node.left if ivals[node.iv_axis] <= t else node.right
                    elif t >= b:
                        i = node.left
                    elif t < a:
                        i = node.right
                    else:
                        stack.append((node.right, t + 1, b))
                        i, b = node.left, t
                else:
                    i = node.left if cats[node.group] == node.category else node.right
                node = nodes[i]
            starts.append(a)
            labels.append(node.label)
        return starts, labels

    # -- serving ------------------------------------------------------------
    @property
    def trees(self) -> tuple[TreeModel, ...]:
        """The trees the model votes over: a tree is a forest of one."""
        return (self,)

    def tree(self, cap: int) -> TreeModel:
        """The one tree the model is served as: the tree itself. ``cap``
        bounds only a forest's compile."""
        return self

    # -- evaluation ---------------------------------------------------------
    def predict(self, p: Point) -> int | None:
        return self.nodes[self.leaf_index(p)].label

    def predict_arrays(self, iv: np.ndarray, cats: np.ndarray) -> np.ndarray:
        n = iv.shape[0]
        out = np.empty(n, dtype=np.int64)
        stack: list[tuple[int, np.ndarray]] = [(self.root, np.arange(n))]
        while stack:
            i, sel = stack.pop()
            if sel.size == 0:
                continue
            node = self.nodes[i]
            if type(node) is Leaf:
                out[sel] = UNKNOWN if node.label is None else node.label
            else:
                mask = node.left_mask(iv, cats, sel)
                stack.append((node.left, sel[mask]))
                stack.append((node.right, sel[~mask]))
        return out

    # -- structure ----------------------------------------------------------
    def leaf_regions(self) -> list[tuple[Region, int | None]]:
        """Disjoint regions covering the grid, paired with their leaf labels,
        left subtrees first; built from ``leaf_boxes`` on the first call and
        kept."""
        if self._leaf_regions is None:
            nodes, domain = self.nodes, full_region(self.schema)
            self._leaf_regions = [(Region(ivs, allowed), nodes[i].label) for i, ivs, allowed
                                  in self.leaf_boxes(domain.intervals, domain.allowed)]
        return self._leaf_regions

    def box_set(self) -> "BoxSet":
        if self._boxset is None:
            labeled = self.leaf_regions()
            self._boxset = BoxSet(tuple(r for r, _ in labeled), np.array(
                [UNKNOWN if lab is None else lab for _, lab in labeled], dtype=np.int64))
        return self._boxset

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def leaf_count(self) -> int:
        return self._leaf_count

    @property
    def depth(self) -> int:
        depths = {self.root: 0}
        best = 0
        stack = [self.root]
        while stack:
            i = stack.pop()
            node = self.nodes[i]
            if isinstance(node, Leaf):
                best = max(best, depths[i])
            else:
                for c in (node.left, node.right):
                    depths[c] = depths[i] + 1
                    stack.append(c)
        return best

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(sorted({n.label for n in self.nodes
                             if isinstance(n, Leaf) and n.label is not None}))

    @property
    def is_partial(self) -> bool:
        return any(isinstance(n, Leaf) and n.label is None for n in self.nodes)


def _vote(counts: Sequence[int], undecided: int = 0) -> int | None:
    """The class with the most votes, ties to the lowest, from per-class vote
    ``counts`` in ascending class-id order; None while ``undecided`` votes
    still to come could change it."""
    top = max(counts)
    lead = counts.index(top)  # the first maximum: the lowest tied class
    for c, n in enumerate(counts):
        # a class below the leader wins by drawing level, one above by passing it
        if c != lead and n + undecided >= top + (c > lead):
            return None
    return lead


class ForestModel:
    """Majority vote over trees; ties go to the lowest class id."""

    def __init__(self, schema: FeatureSchema, trees: Sequence[TreeModel]):
        if not trees:
            raise DataFormatError("forest needs at least one tree")
        for t in trees:
            if t.schema != schema:
                raise DataFormatError("all forest trees must share one schema")
            if t.is_partial:
                raise DataFormatError("forest trees cannot have unknown leaves")
        self.schema = schema
        self.trees: tuple[TreeModel, ...] = tuple(trees)
        self.labels: tuple[int, ...] = tuple(sorted({lab for t in self.trees
                                                     for lab in t.labels}))
        self._class_of = {lab: c for c, lab in enumerate(self.labels)}
        self._cells: BoxSet | None = None
        self._tree: TreeModel | None = None

    def predict(self, p: Point) -> int:
        counts = [0] * len(self.labels)
        for t in self.trees:
            counts[self._class_of[t.predict(p)]] += 1
        return self.labels[_vote(counts)]

    def line_segments(self, ivals: Sequence[int], cats: Sequence[int], axis: int,
                      lo: int, hi: int) -> tuple[list[int], list[int]]:
        """``TreeModel.line_segments`` for the vote, in the same format: one
        segment per piece the trees' leaves cut the line into, labelled as
        ``predict`` votes there.

        The trees' tables are merged at their breakpoints: each breakpoint
        moves one vote, from the class of the tree's segment that ends there
        to the class of the one that starts, so only the trees whose segment
        changes are touched, and each segment's vote is one scan of the class
        counts: O(S x C) for S segments and C classes, plus the sort of the
        breakpoints, where a vote over all T trees per segment is O(S x T)."""
        class_of, labels = self._class_of, self.labels
        counts = [0] * len(labels)
        moves: list[tuple[int, int, int]] = []  # (breakpoint, class left, class entered)
        for t in self.trees:
            starts, leaf_labels = t.line_segments(ivals, cats, axis, lo, hi)
            classes = [class_of[lab] for lab in leaf_labels]
            counts[classes[0]] += 1
            moves += zip(starts[1:], classes, classes[1:])
        moves.sort()
        starts, out = [lo], []
        for at, old, new in moves:
            if at != starts[-1]:
                out.append(labels[counts.index(max(counts))])  # ties to the lowest class
                starts.append(at)
            counts[old] -= 1
            counts[new] += 1
        out.append(labels[counts.index(max(counts))])
        return starts, out

    def predict_arrays(self, iv: np.ndarray, cats: np.ndarray) -> np.ndarray:
        """The vote at each row, counted per class: the table is classes x rows,
        whatever the label values."""
        labels = np.array(self.labels, dtype=np.int64)
        n = iv.shape[0]
        counts = np.zeros((len(labels), n), dtype=np.int32)
        idx = np.arange(n)
        for t in self.trees:
            counts[np.searchsorted(labels, t.predict_arrays(iv, cats)), idx] += 1
        return labels[counts.argmax(axis=0)]  # argmax takes the lowest class on ties

    @property
    def node_count(self) -> int:
        return sum(t.node_count for t in self.trees)

    @property
    def leaf_count(self) -> int:
        return sum(t.leaf_count for t in self.trees)

    @property
    def depth(self) -> int:
        return max(t.depth for t in self.trees)

    def tree(self, cap: int) -> TreeModel:
        """One tree computing the forest's vote, with at most ``cap`` leaves
        (a born-again tree, Vidal & Schiffer, ICML 2020, grafted rather than
        made minimal).

        Each tree is grafted onto every leaf of the trees before it, cut to
        that leaf's region: only the non-empty sides of its tests are
        followed, and a test is kept only where both sides are. A leaf is
        placed, labeled by the vote, as soon as the trees still to come cannot
        change it. Every leaf is a non-empty intersection of leaf regions, one
        per tree, so there are never more leaves than split-level cells.

        Built once and kept; raises CapacityError whenever the leaf count
        exceeds ``cap``, including on later calls with a smaller cap."""
        if self._tree is None:
            self._tree = self._compile(cap)
        elif self._tree.leaf_count > cap:
            raise CapacityError(
                f"the forest compiles to {self._tree.leaf_count} leaves, "
                f"past the cap of {cap}; use sampled fidelity or the heuristic oracle"
            )
        return self._tree

    def _compile(self, cap: int) -> TreeModel:
        """The tree ``tree`` keeps, grown from the whole grid. An item is a box
        (a ``Region``'s ``(lo, hi)`` pairs and allowed sets, cut by ``cut``), a
        tree, a node of that tree, and the votes of the trees before it."""
        trees = self.trees
        class_of = self._class_of
        leaves = 0

        def expand(item):
            nonlocal leaves
            ivs, allowed, k, i, votes = item
            while True:
                node = trees[k].nodes[i]
                if type(node) is Leaf:
                    c = class_of[node.label]
                    votes = votes[:c] + (votes[c] + 1,) + votes[c + 1:]
                    k += 1
                    lead = _vote(votes, len(trees) - k)
                    if lead is None:
                        i = trees[k].root
                        continue
                    leaves += 1
                    if leaves > cap:
                        raise CapacityError(
                            f"the forest compiles to more than {cap} leaves; use "
                            "sampled fidelity or the heuristic oracle"
                        )
                    return Leaf(self.labels[lead])
                left, right = node.cut(ivs, allowed)
                if right is None:
                    i = node.left
                elif left is None:
                    i = node.right
                else:
                    return node, (*left, k, node.left, votes), (*right, k, node.right, votes)

        domain = full_region(self.schema)
        root_item = (domain.intervals, domain.allowed, 0, trees[0].root, (0,) * len(self.labels))
        return TreeModel(self.schema, *grow(root_item, expand))

    def cell_box_set(self, cap: int) -> "BoxSet":
        """Cells of the union split-level grid, labeled by the forest vote.

        Built once and kept; raises CapacityError whenever the cell count
        exceeds ``cap``, including on later calls with a smaller cap."""
        if self._cells is None:
            self._cells = cells_within(self, full_region(self.schema), cap)
        elif len(self._cells) > cap:
            raise CapacityError(
                f"{len(self._cells)} cells exceed the cap of {cap}; use sampled "
                "fidelity or the heuristic oracle"
            )
        return self._cells


Model = Union[TreeModel, ForestModel]


@dataclass(frozen=True)
class BoxSet:
    """A labeled box decomposition: disjoint regions and their labels."""

    regions: tuple[Region, ...]
    labels: np.ndarray  # (n,) int64, UNKNOWN for None

    def __len__(self) -> int:
        return len(self.labels)


def _split_levels(model: Model) -> set[tuple[int, int]]:
    """Distinct (global axis, threshold index) pairs used anywhere in the model."""
    levels: set[tuple[int, int]] = set()
    schema = model.schema
    for t in model.trees:
        for node in t.nodes:
            if isinstance(node, SplitNode):
                levels.add((schema.interval_axes[node.iv_axis].global_axis, node.threshold))
            elif isinstance(node, CatNode):
                levels.add((schema.groups[node.group].global_axis0 + node.category, 0))
    return levels


@dataclass(frozen=True)
class ModelStats:
    n: int
    s: tuple[int, ...]  # distinct split levels per global axis
    node_count: int
    leaf_count: int
    depth: int


def stats(model: Model) -> ModelStats:
    levels = _split_levels(model)
    s = [0] * model.schema.m
    for axis, _ in levels:
        s[axis] += 1
    return ModelStats(
        n=len(levels),
        s=tuple(s),
        node_count=model.node_count,
        leaf_count=model.leaf_count,
        depth=model.depth,
    )


def check_int64_grid(schema: FeatureSchema) -> None:
    """Refuse a schema whose grid indices numpy's int64 cannot hold: an
    interval axis of 2**63 or more grid steps. Exact code (TRA, the oracles,
    the equivalence check) is in Python ints and takes any grid; array code
    and the random tree generator call this first."""
    for axis in schema.interval_axes:
        if axis.size > 2 ** 63:
            raise ContractViolation(
                f"axis {axis.name!r} has {axis.size - 1} grid steps; numpy's int64 "
                "takes at most 2**63 - 1")


def points_to_arrays(schema: FeatureSchema, points: Sequence[Point]):
    check_int64_grid(schema)
    iv = np.array([p.ivals for p in points], dtype=np.int64).reshape(
        len(points), len(schema.iv_sizes)
    )
    cats = np.array([p.cats for p in points], dtype=np.int64).reshape(
        len(points), len(schema.group_sizes)
    )
    return iv, cats


def cells_within(model: Model, region: Region, cap: int) -> BoxSet:
    """Cells induced inside ``region`` by the model's split levels.

    Interval axes are cut at every threshold falling strictly inside the
    region; groups that the model tests anywhere are refined to single
    categories. Within each cell every tree of the model is constant. Raises
    CapacityError when the cell count exceeds ``cap``.
    """
    schema = model.schema
    per_axis: list[list[int]] = [[] for _ in schema.iv_sizes]
    tested_groups: set[int] = set()
    for t in model.trees:
        for node in t.nodes:
            if isinstance(node, SplitNode):
                per_axis[node.iv_axis].append(node.threshold)
            elif isinstance(node, CatNode):
                tested_groups.add(node.group)

    segments: list[list[tuple[int, int]]] = []
    for iv, thresholds in enumerate(per_axis):
        a, b = region.intervals[iv]
        cuts = sorted({t for t in thresholds if a <= t < b})
        segs = []
        lo = a
        for t in cuts:
            segs.append((lo, t))
            lo = t + 1
        segs.append((lo, b))
        segments.append(segs)
    group_choices: list[list[frozenset[int]]] = []
    for g, s in enumerate(region.allowed):
        if g in tested_groups and len(s) > 1:
            group_choices.append([frozenset({c}) for c in sorted(s)])
        else:
            group_choices.append([s])

    count = 1
    for segs in segments:
        count *= len(segs)
    for choices in group_choices:
        count *= len(choices)
    if count > cap:
        raise CapacityError(
            f"{count} cells exceed the cap of {cap}; use sampled fidelity or "
            "the heuristic oracle"
        )

    cells: list[Region] = []
    reps: list[Point] = []
    for combo in itertools.product(*segments, *group_choices):
        intervals = tuple(combo[: len(segments)])
        allowed = tuple(combo[len(segments):])
        cells.append(Region(intervals, allowed))
        reps.append(Point(tuple(a for a, _ in intervals),
                          tuple(min(s) for s in allowed)))
    iv_arr, cat_arr = points_to_arrays(schema, reps)
    return BoxSet(tuple(cells), model.predict_arrays(iv_arr, cat_arr).astype(np.int64))


def boxes_to_tree(schema: FeatureSchema, boxes: Sequence[tuple[Region, int]]) -> TreeModel:
    """Greedy tree agreeing with a disjoint, covering box labeling.

    Each node splits on the box edge strictly inside its region that cuts the
    fewest of the boxes clipped to it; ties go to interval axes before groups,
    then the lowest axis, then the lowest threshold or category. A test
    ``index <= t`` cuts the boxes with low <= t < high, so each axis counts its
    cuts by bisecting its sorted box lows and highs. Splitting stops when one
    label remains. The input is checked leaf by leaf: a leaf's clipped boxes
    must be pairwise disjoint and fill its volume. A point held by two boxes
    lies in one leaf, which both boxes reach, so every overlap is found (a
    volume sum alone misses an overlap offset by a gap in the same leaf).
    Overlaps, gaps and differing labels with no edge between them raise
    ContractViolation.
    """
    if not boxes:
        raise ContractViolation("no boxes given")
    domain = full_region(schema)
    if sum(r.volume for r, _ in boxes) != domain.volume:
        raise ContractViolation("boxes do not cover the domain exactly")

    def fewest_cut(region, items):
        keys = []  # (boxes cut, 0 for an interval axis or 1 for a group, axis, edge)
        for iv, (a, b) in enumerate(region.intervals):
            lows = sorted(box.intervals[iv][0] for box, _ in items)
            highs = sorted(box.intervals[iv][1] for box, _ in items)
            edges = {lo - 1 for lo in lows if lo > a} | {hi for hi in highs if hi < b}
            keys += ((bisect_right(lows, t) - bisect_right(highs, t), 0, iv, t) for t in edges)
        for g, s in enumerate(region.allowed):
            # a category test cuts the boxes holding its category and another
            held = Counter(c for box, _ in items for c in box.allowed[g])
            cut = Counter(c for box, _ in items if len(box.allowed[g]) > 1 for c in box.allowed[g])
            keys += ((cut[c], 1, g, c) for c in s if held[c] < len(items))
        if not keys:
            raise ContractViolation("conflicting labels with no separating edge")
        _, kind, axis, edge = min(keys)
        return SplitNode(axis, edge) if kind == 0 else CatNode(axis, edge)

    def expand(item):
        region, items = item
        labels = {lab for _, lab in items}
        if len(labels) <= 1:  # no label where a gap fills a whole side
            for (p, _), (q, _) in itertools.combinations(items, 2):
                if intersect(p, q) is not None:
                    raise ContractViolation("boxes overlap")
            if sum(box.volume for box, _ in items) != region.volume:
                raise ContractViolation("boxes do not cover the domain exactly")
            return Leaf(labels.pop())
        test = fewest_cut(region, items)
        left, right = test.cut(region.intervals, region.allowed)  # both hold a box edge
        sides = [test.cut(box.intervals, box.allowed) + (lab,) for box, lab in items]
        return (test, (Region(*left), [(Region(*l), lab) for l, _, lab in sides if l is not None]),
                (Region(*right), [(Region(*r), lab) for _, r, lab in sides if r is not None]))

    return TreeModel(schema, *grow((domain, list(boxes)), expand))


# -- serialization -----------------------------------------------------------

def _tree_nodes_json(tree: TreeModel) -> dict:
    schema = tree.schema
    nodes = []
    for i, node in enumerate(tree.nodes):
        if isinstance(node, Leaf):
            nodes.append({"id": i, "kind": "leaf", "label": node.label})
        elif isinstance(node, SplitNode):
            axis = schema.interval_axes[node.iv_axis]
            nodes.append(
                {
                    "id": i,
                    "kind": "split",
                    "axis": axis.global_axis,
                    "threshold": number_str(axis.value(node.threshold)),
                    "left": node.left,
                    "right": node.right,
                }
            )
        else:
            grp = schema.groups[node.group]
            nodes.append(
                {
                    "id": i,
                    "kind": "split",
                    "axis": grp.global_axis0 + node.category,
                    "categories": [node.category],
                    "left": node.left,
                    "right": node.right,
                }
            )
    return {"root": tree.root, "nodes": nodes}


def _tree_from_json(schema: FeatureSchema, data) -> TreeModel:
    if not isinstance(data, dict):
        raise DataFormatError("model JSON: a tree must be an object")
    raw = data.get("nodes")
    if not isinstance(raw, list):
        raise DataFormatError("model JSON: 'nodes' must be a list")
    nodes: list[Node | None] = [None] * len(raw)
    for entry in raw:
        if not isinstance(entry, dict):
            raise DataFormatError("model JSON: every node must be an object")
        i = json_int(entry.get("id"), "node id")
        if not 0 <= i < len(raw):
            raise DataFormatError(f"node id {i} outside 0..{len(raw) - 1}")
        kind = entry.get("kind")
        if kind == "leaf":
            label = entry.get("label")
            nodes[i] = Leaf(None if label is None else json_int(label, f"node {i}: label"))
        elif kind == "split":
            axis = json_int(entry.get("axis"), f"node {i}: axis")
            if not 0 <= axis < schema.m:
                raise DataFormatError(f"node {i}: axis {axis} out of range")
            left = json_int(entry.get("left"), f"node {i}: left")
            right = json_int(entry.get("right"), f"node {i}: right")
            spec = schema.axis_table[axis]
            if "categories" in entry:
                if spec[0] != "g":
                    raise DataFormatError(f"node {i}: categories on a non-group axis")
                _, gi, cat = spec
                if entry["categories"] != [cat]:
                    raise DataFormatError(
                        f"node {i}: categories must be the singleton [{cat}] for axis {axis}"
                    )
                nodes[i] = CatNode(gi, cat, left, right)
            else:
                if spec[0] != "i":
                    raise DataFormatError(f"node {i}: threshold on a one-hot axis")
                iv = spec[1]
                try:
                    t = schema.interval_axes[iv].index(exact_number(entry.get("threshold")))
                except ContractViolation as exc:  # unparsable or off the axis grid
                    raise DataFormatError(f"node {i}: {exc}") from exc
                nodes[i] = SplitNode(iv, t, left, right)
        else:
            raise DataFormatError(f"node {i}: unknown kind {kind!r}")
    if any(n is None for n in nodes):
        raise DataFormatError("model JSON: node ids must cover 0..n-1")
    return TreeModel(schema, nodes, json_int(data.get("root", 0), "root"))


def model_json_dict(model: Model, schema_ref: str) -> dict:
    if isinstance(model, ForestModel):
        return {
            "schema_ref": schema_ref,
            "kind": "forest",
            "trees": [_tree_nodes_json(t) for t in model.trees],
        }
    out = {"schema_ref": schema_ref, "kind": "tree"}
    out.update(_tree_nodes_json(model))
    return out


def model_from_json_dict(data: dict, schema: FeatureSchema) -> Model:
    """Model from its JSON form; any malformed input raises DataFormatError."""
    if not isinstance(data, dict):
        raise DataFormatError("model JSON must be an object")
    kind = data.get("kind", "tree")
    if kind == "forest":
        trees = data.get("trees")
        if not isinstance(trees, list):
            raise DataFormatError("model JSON: 'trees' must be a list")
        return ForestModel(schema, [_tree_from_json(schema, t) for t in trees])
    if kind != "tree":
        raise DataFormatError(f"unknown model kind {kind!r}")
    return _tree_from_json(schema, data)


def save_model(path: str, model: Model, schema_ref: str) -> None:
    write_json(path, model_json_dict(model, schema_ref))


def load_model(path: str, schema: FeatureSchema | None = None) -> Model:
    data = read_json(path)
    if not isinstance(data, dict):
        raise DataFormatError(f"{path}: model JSON must be an object")
    if schema is None:
        ref = data.get("schema_ref")
        if not ref or not isinstance(ref, str):
            raise DataFormatError(f"{path}: no schema_ref and no schema given")
        schema = load_schema(os.path.join(os.path.dirname(os.path.abspath(path)), ref))
    return model_from_json_dict(data, schema)
