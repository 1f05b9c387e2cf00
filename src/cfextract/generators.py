"""Synthetic target generators: random trees/forests, chessboards, and the
single-branch adversarial family that drives the attack to its worst case.

All generators are deterministic under their seed, and every threshold they
emit lies on the schema grid. Random trees and chessboards grow through
``models.grow``, whose pre-order expansion fixes the order of seeded draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import ContractViolation
from .models import CatNode, ForestModel, Leaf, Node, SplitNode, TreeModel, check_int64_grid, grow
from .regions import full_region
from .schema import FeatureSchema, NumericFeature


def gen_random_tree(schema: FeatureSchema, depth: int, seed: int,
                    n_classes: int = 2) -> TreeModel:
    """Random axis/threshold recursion on the grid.

    Guarantees at least two classes whenever the tree has an internal node.
    Thresholds are numpy int64 draws, so a grid past int64 is refused
    (``check_int64_grid``).
    """
    if depth < 0:
        raise ContractViolation("depth must be >= 0")
    if n_classes < 2:
        raise ContractViolation("n_classes must be >= 2")
    check_int64_grid(schema)
    rng = np.random.default_rng(seed)

    def expand(item):
        ivs, allowed, d = item
        splittable: list[tuple] = []
        if d > 0:
            for iv, (a, b) in enumerate(ivs):
                if a < b:
                    splittable.append(("i", iv))
            for g, s in enumerate(allowed):
                if len(s) > 1:
                    splittable.append(("g", g))
        if not splittable:
            return Leaf(int(rng.integers(n_classes)))
        kind, idx = splittable[int(rng.integers(len(splittable)))]
        if kind == "i":
            a, b = ivs[idx]
            test = SplitNode(idx, int(rng.integers(a, b)))
        else:
            s = sorted(allowed[idx])
            test = CatNode(idx, s[int(rng.integers(len(s)))])
        left, right = test.cut(ivs, allowed)  # both sides non-empty
        return test, (*left, d - 1), (*right, d - 1)

    domain = full_region(schema)
    nodes, root = grow((domain.intervals, domain.allowed, depth), expand)
    leaves = [i for i, node in enumerate(nodes) if type(node) is Leaf]
    if len(leaves) > 1 and len({nodes[i].label for i in leaves}) == 1:
        nodes[leaves[-1]] = Leaf((nodes[leaves[-1]].label + 1) % n_classes)
    return TreeModel(schema, nodes, root)


def gen_random_forest(schema: FeatureSchema, n_trees: int, depth: int, seed: int,
                      n_classes: int = 2) -> ForestModel:
    if n_trees < 1:
        raise ContractViolation("n_trees must be >= 1")
    rng = np.random.default_rng(seed)
    trees = [
        gen_random_tree(schema, depth, int(rng.integers(0, 2**63 - 1)), n_classes)
        for _ in range(n_trees)
    ]
    return ForestModel(schema, trees)


def gen_chessboard(schema: FeatureSchema, s: tuple[int, ...],
                   n_classes: int = 2) -> TreeModel:
    """Full grid partition with prod(s_i + 1) cells, adjacent cells differing.

    ``s`` gives the number of evenly spaced split levels per interval axis.
    """
    if n_classes < 2:
        raise ContractViolation("n_classes must be >= 2")
    if schema.group_sizes:
        raise ContractViolation("chessboard targets use interval axes only")
    if len(s) != len(schema.iv_sizes):
        raise ContractViolation("need one split count per axis")
    if any(v < 1 for v in s):
        raise ContractViolation("chessboard needs s_i >= 1")
    thresholds: list[list[int]] = []
    for (count, size) in zip(s, schema.iv_sizes):
        ts = sorted({(p * (size - 1)) // (count + 1) for p in range(1, count + 1)})
        if len(ts) != count or ts[0] < 0 or ts[-1] >= size - 1:
            raise ContractViolation(
                "grid too coarse for the requested split counts"
            )
        thresholds.append(ts)

    def expand(cell):
        # cell index ranges over the per-axis threshold segments
        cell_lo, cell_hi = cell
        for iv in range(len(s)):
            if cell_lo[iv] < cell_hi[iv]:
                mid = (cell_lo[iv] + cell_hi[iv]) // 2
                hi2 = list(cell_hi)
                hi2[iv] = mid
                lo2 = list(cell_lo)
                lo2[iv] = mid + 1
                return SplitNode(iv, thresholds[iv][mid]), (cell_lo, hi2), (lo2, cell_hi)
        return Leaf(sum(cell_lo) % n_classes)

    return TreeModel(schema, *grow(([0] * len(s), list(s)), expand))


@dataclass(frozen=True)
class AdversarialSpec:
    """Single-branch worst-case family over [0,1]^m numeric axes.

    ``s`` must be non-increasing. Level placement: dimension 1 splits at
    p/(s_1+1); dimension j>1 splits at (p - sum_{i<j} s_i)/(2(s_j+1)) + 1/2 +
    epsilon, where p indexes levels grouped by dimension. The tree splits on
    dimensions in decreasing order, each node peeling one leaf, so within any
    visited region the closest boundary to the center always lies on the
    lowest dimension that still has undiscovered levels there.
    """

    s: tuple[int, ...]
    epsilon: Fraction | None = None
    delta: Fraction | None = None

    def __post_init__(self):
        s = tuple(int(v) for v in self.s)
        object.__setattr__(self, "s", s)
        if not s or any(v < 1 for v in s):
            raise ContractViolation("adversarial spec needs s_j >= 1 everywhere")
        if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
            raise ContractViolation("s must be non-increasing")

    @property
    def m(self) -> int:
        return len(self.s)

    @property
    def n(self) -> int:
        return sum(self.s)


def gen_adversarial(spec: AdversarialSpec) -> TreeModel:
    """Build the worst-case instance (schema included, all levels on-grid).

    Leaf labels: the branch end is class 0; the strips of the dimension
    ranked r from the deepest alternate classes r (lowest strip) and r-1
    upward, so every internal boundary separates distinct classes.
    """
    s = spec.s
    m = spec.m
    base = lcm(s[0] + 1, *[2 * (sj + 1) for sj in s[1:]]) if m > 1 else (s[0] + 1)
    delta = spec.delta if spec.delta is not None else Fraction(1, 4 * base)
    epsilon = spec.epsilon if spec.epsilon is not None else 2 * delta
    if epsilon <= 0:
        raise ContractViolation("epsilon must be positive")
    for sj in s[1:]:
        if epsilon >= Fraction(1, 2 * (sj + 1)):
            raise ContractViolation("epsilon too large for the level placement")

    schema = FeatureSchema(
        [NumericFeature(f"x{j + 1}", Fraction(0), Fraction(1), delta) for j in range(m)]
    )

    def level(j: int, p_in_dim: int) -> Fraction:
        # j is 1-based dimension, p_in_dim counts levels within it (1-based)
        if j == 1:
            return Fraction(p_in_dim, s[0] + 1)
        return Fraction(p_in_dim, 2 * (s[j - 1] + 1)) + Fraction(1, 2) + epsilon

    def to_index(v: Fraction) -> int:
        q = v / delta
        if q.denominator != 1 or not 0 < q < (Fraction(1) / delta):
            raise ContractViolation(
                f"level {v} does not land on the grid; choose a finer delta"
            )
        return int(q)

    # single branch: dimensions in decreasing order, levels high-to-low
    nodes: list[Node] = []

    def leaf(label: int) -> int:
        nodes.append(Leaf(label))
        return len(nodes) - 1

    next_child = leaf(0)  # branch end: everything below every level
    for j in range(1, m + 1):  # build bottom-up: deepest dimension first
        rank = j
        for p in range(1, s[j - 1] + 1):  # low-to-high thresholds, bottom-up
            strip_label = rank if p % 2 == 1 else rank - 1
            t = to_index(level(j, p))  # test "x_j <= level"
            right = leaf(strip_label)
            nodes.append(SplitNode(j - 1, t, next_child, right))
            next_child = len(nodes) - 1
    return TreeModel(schema, nodes, next_child)
