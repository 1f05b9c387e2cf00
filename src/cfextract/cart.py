"""Greedy decision-tree induction and random forests on the quantized grid.

Gini impurity, candidate thresholds at floor midpoints between consecutive
distinct grid values, and a deterministic tie-break toward the lowest global
axis then lowest threshold. A node scores every interval axis of its pool in
one vectorised pass: one stable sort of its n x a block of values, one cumsum
of one-hot class counts, one score matrix. The float scores are only a
pre-filter: the cuts within a relative 1e-9 of the node's best float score
are re-checked by exact cross-multiplication in Python ints (no float ties,
no int64 overflow). The labels are encoded as 0..k-1 once per training, with
one one-hot table that every node reads its class counts from. Trees grow
through ``models.grow``.

Cost-complexity pruning computes a tree's weakest-link path once: the nested
sequence of subtrees that collapsing the cheapest links in turn produces
(Breiman et al., 1984). A penalty selects a prefix of that path, and ``prune``
scores the prefixes for 50 evenly spaced penalties over [0, 0.2] against a
validation set, preferring the larger penalty on ties. Neither the path's
walk nor a pruned tree's rebuild recurses, so trees may be as deep as their data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .models import CatNode, Leaf, SplitNode, TreeModel, ForestModel, grow, points_to_arrays
from .schema import FeatureSchema, Point

CCP_GRID: tuple[Fraction, ...] = tuple(
    Fraction(1, 5) * Fraction(i, 49) for i in range(50)
)


@dataclass(frozen=True)
class TrainConfig:
    max_depth: int | None = None
    n_trees: int = 10
    seed: int = 0


def _square_sum(counts: np.ndarray) -> int:
    """Exact sum of squared class counts, in Python ints."""
    return sum(c * c for c in counts.tolist())


class _Builder:
    def __init__(self, schema: FeatureSchema, iv: np.ndarray, cats: np.ndarray,
                 labels: np.ndarray, config: TrainConfig, rng=None):
        self.schema = schema
        self.iv = iv
        self.cats = cats
        self.labels = labels
        # labels encoded once as 0..k-1 (ascending ids) with a one-hot table;
        # a class absent from a node adds zero columns, which change no score
        self.classes, self.codes = np.unique(labels, return_inverse=True)
        self.onehot = self.codes[:, None] == np.arange(len(self.classes))
        self.config = config
        self.rng = rng
        # a forest's trees (the ones given an rng) see sqrt(m) axes per split
        self.n_sub = max(1, int(math.sqrt(schema.m))) if rng is not None else schema.m

    def _axis_pool(self) -> list[int]:
        m = self.schema.m
        if self.n_sub >= m:
            return list(range(m))
        picked = self.rng.choice(m, size=self.n_sub, replace=False)
        return sorted(int(a) for a in picked)

    def _best_split(self, idx: np.ndarray):
        """Best (num, den, global_axis, tie_t, test) over candidate cuts, or None;
        ``test`` is the cut's node test, its children unattached.

        The score maximized is sum_side (sum_c count_c^2) / n_side, compared
        exactly by cross-multiplication in Python ints. Only cuts at least as
        good as the unsplit parent qualify.
        """
        n = len(idx)
        y = self.codes[idx]
        k = len(self.classes)
        total = np.bincount(y, minlength=k)
        s_parent = _square_sum(total)
        best = None  # (num, den, global_axis, tie_t, test)

        def consider(s_l, n_l, s_r, n_r, g_axis, tie_t, test):
            nonlocal best
            num = s_l * n_r + s_r * n_l
            den = n_l * n_r
            # impure nodes split on the best candidate even at zero gain
            # (XOR-style patterns need the zero-gain first cut)
            if num * n < s_parent * den:
                return
            if best is not None:
                b_num, b_den, b_axis, b_t, _ = best
                lhs = num * b_den
                rhs = b_num * den
                if lhs < rhs or (lhs == rhs and (g_axis, tie_t) >= (b_axis, b_t)):
                    return
            best = (num, den, g_axis, tie_t, test)

        pool = self._axis_pool()
        table = self.schema.axis_table
        axes = [g for g in pool if table[g][0] == "i"]
        if axes:
            ivxs = [table[g][1] for g in axes]
            block = self.iv[idx][:, ivxs]  # n x a
            order = np.argsort(block, axis=0, kind="stable")
            sv = np.take_along_axis(block, order, axis=0)
            # left[j, a]: class counts of sorted positions <= j in column a
            left = np.cumsum(self.onehot[idx[order]], axis=0)[:-1]
            lf = left.astype(np.float64)
            rf = total - lf
            n_l = np.arange(1.0, n)[:, None]
            score = (np.einsum("jac,jac->ja", lf, lf) / n_l
                     + np.einsum("jac,jac->ja", rf, rf) / (n - n_l))
            # a cut after sorted position j exists only where the value changes
            score[sv[1:] == sv[:-1]] = -np.inf
            top = score.max()
            # the float scores are within a few ulps of the exact ones, so the
            # relative 1e-9 band below the node's maximum holds every cut that
            # can win; consider() then decides among them exactly
            if top > -np.inf:
                for j, a in np.argwhere(score >= top - 1e-9 * top).tolist():
                    t = (int(sv[j, a]) + int(sv[j + 1, a])) // 2
                    consider(_square_sum(left[j, a]), j + 1, _square_sum(total - left[j, a]),
                             n - j - 1, axes[a], t, SplitNode(ivxs[a], t))
        for g_axis in pool:
            entry = table[g_axis]
            if entry[0] == "g":
                _, gi, c = entry
                mask = self.cats[idx, gi] == c
                n_l = int(mask.sum())
                if n_l == 0 or n_l == n:
                    continue
                lc = np.bincount(y[mask], minlength=k)
                consider(_square_sum(lc), n_l, _square_sum(total - lc), n - n_l,
                         g_axis, 0, CatNode(gi, c))
        return best

    def expand(self, item):
        """``grow``'s step on (sample indices, depth): a leaf, or a split."""
        idx, depth = item
        codes = self.codes[idx]
        max_depth = self.config.max_depth
        best = None
        if codes.min() < codes.max() and (max_depth is None or depth < max_depth):
            best = self._best_split(idx)
        if best is None:
            # the majority class, the lowest id on ties
            return Leaf(int(self.classes[np.bincount(codes).argmax()]))
        test = best[-1]
        mask = test.left_mask(self.iv, self.cats, idx)
        return test, (idx[mask], depth + 1), (idx[~mask], depth + 1)


def train_tree(schema: FeatureSchema, points: Sequence[Point], labels: Sequence[int],
               config: TrainConfig = TrainConfig(), _rng=None,
               _subsample=None) -> TreeModel:
    if len(points) == 0:
        raise ContractViolation("training needs at least one sample")
    if len(points) != len(labels):
        raise ContractViolation("points and labels disagree in length")
    if config.max_depth is not None and config.max_depth < 0:
        raise ContractViolation("max_depth must be >= 0")
    iv, cats = points_to_arrays(schema, points)
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0:
        raise ContractViolation("labels must be non-negative ints")
    idx = np.arange(len(points)) if _subsample is None else _subsample
    builder = _Builder(schema, iv, cats, y, config, rng=_rng)
    return TreeModel(schema, *grow((idx, 0), builder.expand))


def train_forest(schema: FeatureSchema, points: Sequence[Point],
                 labels: Sequence[int], config: TrainConfig = TrainConfig()) -> ForestModel:
    """Bootstrap-bagged trees with per-split feature subsampling."""
    if config.n_trees < 1:
        raise ContractViolation("n_trees must be >= 1")
    rng = np.random.default_rng(config.seed)
    n = len(points)
    trees = []
    for _ in range(config.n_trees):
        tree_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        trees.append(train_tree(schema, points, labels, config, _rng=tree_rng,
                                _subsample=tree_rng.integers(0, n, size=n)))
    return ForestModel(schema, trees)


# -- cost-complexity pruning ---------------------------------------------------

def _route_counts(tree: TreeModel, iv: np.ndarray, cats: np.ndarray,
                  labels: np.ndarray) -> dict[int, np.ndarray]:
    """Per-node class counts for the training sample, keyed parents before
    children (right subtrees first)."""
    k = int(labels.max()) + 1
    counts: dict[int, np.ndarray] = {}
    stack = [(tree.root, np.arange(len(labels)))]
    while stack:
        i, sel = stack.pop()
        counts[i] = np.bincount(labels[sel], minlength=k)
        node = tree.nodes[i]
        if isinstance(node, Leaf):
            continue
        mask = node.left_mask(iv, cats, sel)
        stack.append((node.left, sel[mask]))
        stack.append((node.right, sel[~mask]))
    return counts


def _pruning_path(tree: TreeModel, train_points: Sequence[Point],
                  train_labels: Sequence[int]):
    """Per-node class counts of the training sample, and the tree's weakest-link
    path: steps ``(g, nodes)`` in order, each collapsing every live internal
    node whose link penalty g = (R(node) - R(subtree)) / (leaves - 1) ties the
    minimum. Risks count training misclassifications over the sample size."""
    iv, cats = points_to_arrays(tree.schema, train_points)
    y = np.asarray(train_labels, dtype=np.int64)
    if len(y) == 0:
        raise ContractViolation("pruning needs training samples")
    counts = _route_counts(tree, iv, cats, y)
    errors = {i: int(c.sum() - c.max()) for i, c in counts.items()}
    nodes = tree.nodes
    # the live internal nodes, children before parents, left subtrees first
    live = [i for i in reversed(counts) if type(nodes[i]) is not Leaf]
    path: list[tuple[Fraction, list[int]]] = []
    while live:
        best, weakest = None, []  # (gain, links) of the minimum g, and its nodes
        subtree: dict[int, tuple[int, int]] = {}  # (errors, leaves) of each live one
        for i in live:
            node = nodes[i]
            el, nl = subtree.get(node.left, (errors[node.left], 1))
            er, nr = subtree.get(node.right, (errors[node.right], 1))
            gain, links = errors[i] - el - er, nl + nr - 1
            # g = gain / links, compared exactly by cross-multiplication
            if best is None or gain * best[1] < best[0] * links:
                best, weakest = (gain, links), [i]
            elif gain * best[1] == best[0] * links:
                weakest.append(i)
            subtree[i] = (el + er, nl + nr)
        path.append((Fraction(best[0], best[1] * len(y)), weakest))
        # a collapsed link cuts off every node below it; parents come last
        cut = set(weakest)
        for i in reversed(live):
            if i in cut:
                cut.update((nodes[i].left, nodes[i].right))
        live = [i for i in live if i not in cut]
    return counts, path


def _pruned(tree: TreeModel, counts, path, alpha: Fraction) -> TreeModel:
    """The tree after every path step before the first with g >= ``alpha``;
    a collapsed node becomes a leaf of its training majority."""
    collapsed: set[int] = set()
    for g, weakest in path:
        if g >= alpha:
            break
        collapsed.update(weakest)

    def expand(i: int):
        node = tree.nodes[i]
        if i in collapsed:
            return Leaf(int(counts[i].argmax()))  # lowest id on ties
        if type(node) is Leaf:
            return node
        return node, node.left, node.right

    return TreeModel(tree.schema, *grow(tree.root, expand))


def cost_complexity_prune(tree: TreeModel, train_points: Sequence[Point],
                          train_labels: Sequence[int], alpha) -> TreeModel:
    """Weakest-link pruning with penalty ``alpha`` on training misclassification.

    Collapses subtrees while the cheapest link's effective penalty stays
    strictly below ``alpha`` (so ``alpha = 0`` returns the tree unchanged).
    """
    counts, path = _pruning_path(tree, train_points, train_labels)
    return _pruned(tree, counts, path, Fraction(alpha))


def accuracy(model, points: Sequence[Point], labels: Sequence[int]) -> Fraction:
    if not points:
        raise ContractViolation("empty evaluation set")
    iv, cats = points_to_arrays(model.schema, points)
    pred = model.predict_arrays(iv, cats)
    return Fraction(int((pred == np.asarray(labels)).sum()), len(points))


def prune(tree: TreeModel, train_points: Sequence[Point], train_labels: Sequence[int],
          val_points: Sequence[Point], val_labels: Sequence[int]) -> TreeModel:
    """Pick a subtree on the tree's one weakest-link path: the path is computed
    once, and each ``CCP_GRID`` penalty selects a prefix of it. Best validation
    accuracy wins; ties go to the larger penalty (smaller tree)."""
    counts, path = _pruning_path(tree, train_points, train_labels)
    best = None  # (acc, alpha, model)
    for alpha in CCP_GRID:
        cand = _pruned(tree, counts, path, alpha)
        acc = accuracy(cand, val_points, val_labels)
        if best is None or (acc, alpha) > (best[0], best[1]):
            best = (acc, alpha, cand)
    return best[2]
