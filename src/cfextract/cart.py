"""Greedy decision-tree induction and random forests on the quantized grid.

Gini impurity, candidate thresholds at floor midpoints between consecutive
distinct grid values, and a deterministic tie-break toward the lowest global
axis then lowest threshold. A one-hot category is read as a 0/1 column with
one cut, so both kinds of axis are scored alike.

One kernel, ``_Samples.best_cuts``, scores every cut of a batch of nodes at
once, one global axis at a time. It sorts the batch's rows by one argsort
keyed by (node, dense rank of the value), so each node's rows come out
sorted and contiguous. Per class, one cumsum over the whole batch, corrected
to each node's start, gives every cut's left counts, and
``np.fmax.reduceat`` takes each node's best float score. The float scores
are only a shortlist: the cuts within a relative 1e-9 of their node's best
float score are re-checked by exact cross-multiplication in Python ints, so
no tie-break rests on a float. The labels are encoded as 0..k-1 once per
training set. A batch holds only the arrays of the axis it scores, each one
row long per sample row of the batch.

``train_prefixes`` grows the trees of several prefixes of one training set
together and breadth-first, as SLIQ does (Mehta, Agrawal & Rissanen, 1996):
each depth is one kernel call over every open node of every prefix of a
batch. A batch holds consecutive prefixes of at most 2^14 rows in all, or one
larger prefix, so the kernel's arrays stay near the size of one training's.
Each tree is then assembled from its nodes' recorded decisions through
``models.grow``, so its nodes come out in the order of a depth-first build.
``train_tree`` is its one-prefix case. ``train_forest`` encodes its sample
once for all its trees and grows each tree depth first, one node per kernel
call: each split draws its sqrt(m) axes from the tree's generator, and those
draws have always come in pre-order, so a seed keeps giving the same forest.

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


def _band(top):
    """The lowest float score a cut may have to be checked exactly, given its
    node's best: the float scores are within a few ulps of the exact ones,
    so a relative 1e-9 band below the maximum holds every cut that can win."""
    return top * (1 - 1e-9)


class _Samples:
    """One training set, encoded once for every node that ``best_cuts`` scores.

    Every global axis is read as one int column, ``values[g]``, that a cut
    (g, t) sends left where it is <= t: an interval axis's grid index, and
    for a one-hot category 0 where a row has it and 1 where not (its one cut
    has t = 0). ``ranks[g]`` holds the column's dense ranks.
    """

    def __init__(self, schema: FeatureSchema, points: Sequence[Point],
                 labels: Sequence[int], config: TrainConfig):
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
        self.schema = schema
        self.config = config
        # labels encoded once as 0..k-1 (ascending ids); a class absent from
        # a node adds zero counts, which change no score
        self.classes, self.codes = np.unique(y, return_inverse=True)
        self.onehot = (self.codes[:, None] == np.arange(len(self.classes))).astype(np.int64)
        self.values = np.array([iv[:, e[1]] if e[0] == "i" else cats[:, e[1]] != e[2]
                                for e in schema.axis_table], dtype=np.int64)
        self.ranks = np.array([np.unique(col, return_inverse=True)[1] for col in self.values])
        # a (node, rank) key sorts the rows of many nodes at once
        self.n_ranks = int(self.ranks.max(initial=0)) + 1

    def deeper(self, depth: int) -> bool:
        return self.config.max_depth is None or depth < self.config.max_depth

    def test(self, g: int, t: int):
        """The node test of cut (g, t), its children unattached."""
        entry = self.schema.axis_table[g]
        return SplitNode(entry[1], t) if entry[0] == "i" else CatNode(entry[1], entry[2])

    def _axis_cuts(self, g: int, rows, starts, sizes, totals, n_l, n_r, top):
        """The cuts on global axis ``g`` in each node of a batch, one after
        each of its rows sorted by value: each node's best float score, and
        the shortlist (node, s_l, n_l, s_r, t, score) of the cuts within the
        band below ``top`` raised by it. s_l and s_r are the exact
        sum_c count_c^2 of the rows up to the cut in its node and after it."""
        key = np.repeat(np.arange(len(sizes)) * self.n_ranks, sizes) + self.ranks[g, rows]
        # rows of equal value may come in any order: no cut falls between them
        srows = rows[np.argsort(key)]
        del key
        codes = self.codes[srows]
        s_l = np.zeros(len(rows), dtype=np.int64)
        s_r = np.zeros(len(rows), dtype=np.int64)
        for c in range(totals.shape[1]):
            hit = codes == c
            left = np.cumsum(hit)
            left -= np.repeat(left[starts] - hit[starts], sizes)  # the counts before each node
            right = np.repeat(totals[:, c], sizes)
            right -= left
            left *= left
            s_l += left
            right *= right
            s_r += right
        del codes, hit, left, right
        vals = self.values[g, srows]
        del srows
        with np.errstate(divide="ignore", invalid="ignore"):
            score = s_l / n_l
            score += s_r / n_r
        # a cut exists only where the value changes within a node
        ok = n_r > 0
        ok[:-1] &= vals[1:] != vals[:-1]
        score[~ok] = np.nan
        node_max = np.fmax.reduceat(score, starts)
        j = np.flatnonzero(score >= np.repeat(_band(np.fmax(top, node_max)), sizes))
        # t = floor((v_j + v_j+1) / 2), without overflowing int64
        t = vals[j] + (vals[j + 1] - vals[j]) // 2
        return node_max, (np.searchsorted(starts, j, side="right") - 1, s_l[j], n_l[j], s_r[j],
                          t, score[j])

    def best_cuts(self, rows: np.ndarray, sizes: np.ndarray, totals: np.ndarray,
                  pool) -> list:
        """The best cut (g, t) of each node of a batch over the global axes
        ``pool``, or None where no cut exists.

        ``rows`` concatenates the nodes' sample rows, ``sizes`` counts them
        and ``totals`` holds each node's class counts. The score maximized is
        sum_side (sum_c count_c^2) / n_side, compared exactly by
        cross-multiplication in Python ints, and ties go to the lowest
        (g, t). Only cuts at least as good as the unsplit parent qualify.
        """
        starts = np.cumsum(sizes) - sizes
        # per sorted row, the sizes of the two sides of a cut after it
        n_l = np.arange(len(rows)) - np.repeat(starts - 1, sizes)
        n_r = np.repeat(sizes, sizes) - n_l
        top = np.full(len(sizes), -np.inf)
        found = []  # per axis, its shortlist
        for g in pool:
            node_max, cut = self._axis_cuts(g, rows, starts, sizes, totals, n_l, n_r, top)
            top = np.fmax(top, node_max)
            if len(cut[0]):
                found.append((g, cut))
        best = [None] * len(sizes)  # (num, den, g, t) of each node
        n = sizes.tolist()
        s_parent = [_square_sum(t) for t in totals]
        for g, cut in found:
            keep = cut[-1] >= _band(top[cut[0]])
            for s, sl, nl, sr, t in zip(*(f[keep].tolist() for f in cut[:-1])):
                nr = n[s] - nl
                num = sl * nr + sr * nl
                den = nl * nr
                # impure nodes split on the best candidate even at zero gain
                # (XOR-style patterns need the zero-gain first cut)
                if num * n[s] < s_parent[s] * den:
                    continue
                b = best[s]
                if b is not None:
                    lhs = num * b[1]
                    rhs = b[0] * den
                    if lhs < rhs or (lhs == rhs and (g, t) >= (b[2], b[3])):
                        continue
                best[s] = (num, den, g, t)
        return [None if b is None else b[2:] for b in best]


# the most sample rows one ``_grow_together`` call holds, unless one prefix
# alone has more: a batch's kernel arrays grow with its rows, and the sizes of
# all snapshots of a long attack sum to about snapshots x points / 2
_BATCH_ROWS = 1 << 14


def train_prefixes(schema: FeatureSchema, points: Sequence[Point], labels: Sequence[int],
                   sizes: Sequence[int], config: TrainConfig = TrainConfig()) -> list[TreeModel]:
    """For each ``n`` in ``sizes``, the tree ``train_tree`` grows on the
    first ``n`` points and labels.

    Consecutive sizes are grown together in batches of at most ``_BATCH_ROWS``
    rows in all (a larger prefix forms a batch of its own), so the memory a
    call takes stays near that of training its largest prefix alone.
    """
    data = _Samples(schema, points, labels, config)
    sizes = [int(n) for n in sizes]
    if any(not 1 <= n <= len(points) for n in sizes):
        raise ContractViolation(f"prefix sizes must lie in 1..{len(points)}")
    batches: list[list[int]] = [[]]
    rows = 0
    for n in sizes:
        if batches[-1] and rows + n > _BATCH_ROWS:
            batches.append([])
            rows = 0
        batches[-1].append(n)
        rows += n
    return [tree for batch in batches for tree in _grow_together(data, batch)]


def _grow_together(data: _Samples, sizes: list[int]) -> list[TreeModel]:
    """The trees of the prefixes ``sizes`` of ``data``, grown together one
    depth at a time: each depth scores every open node of every tree in one
    kernel call. ``decisions[i]`` records node ``i``'s leaf or its test and
    two child nodes, and ``grow`` then assembles each tree from its root's
    record."""
    schema = data.schema
    decisions: list = [None] * len(sizes)
    ids = list(range(len(sizes)))  # the open nodes of this depth
    counts = np.array(sizes, dtype=np.int64)  # their rows, concatenated in ``rows``
    rows = np.concatenate([np.arange(n) for n in sizes] or [np.arange(0)])
    pool = range(schema.m)
    depth = 0
    while ids:
        totals = np.add.reduceat(data.onehot[rows], np.cumsum(counts) - counts)
        search = (np.count_nonzero(totals, axis=1) > 1) & data.deeper(depth)
        cuts = [None] * len(ids)
        if search.any():
            found = data.best_cuts(rows[np.repeat(search, counts)], counts[search],
                                   totals[search], pool)
            for s, cut in zip(np.flatnonzero(search).tolist(), found):
                cuts[s] = cut
        split = np.array([cut is not None for cut in cuts])
        children = []
        # a leaf's label: the majority class, the lowest id on ties
        for i, cut, label in zip(ids, cuts, data.classes[totals.argmax(axis=1)].tolist()):
            if cut is None:
                decisions[i] = Leaf(label)
            else:
                decisions[i] = (data.test(*cut), len(decisions), len(decisions) + 1)
                children += decisions[i][1:]
                decisions += (None, None)
        if not children:
            break
        # each split node's rows, to its left child and then its right one
        rows, counts = rows[np.repeat(split, counts)], counts[split]
        g, t = np.array([cut for cut in cuts if cut is not None]).T
        node = np.repeat(np.arange(len(counts)), counts)
        child = 2 * node + (data.values[g[node], rows] > t[node])
        rows, counts = rows[np.argsort(child)], np.bincount(child, minlength=len(children))
        ids = children
        depth += 1
    return [TreeModel(schema, *grow(root, decisions.__getitem__)) for root in range(len(sizes))]


def train_tree(schema: FeatureSchema, points: Sequence[Point], labels: Sequence[int],
               config: TrainConfig = TrainConfig()) -> TreeModel:
    """A CART tree on ``points`` and ``labels``."""
    return train_prefixes(schema, points, labels, [len(points)], config)[0]


def train_forest(schema: FeatureSchema, points: Sequence[Point],
                 labels: Sequence[int], config: TrainConfig = TrainConfig()) -> ForestModel:
    """Bootstrap-bagged trees with per-split feature subsampling, all grown
    on one encoding of the sample. Each tree's generator is seeded from the
    forest's and draws the bootstrap rows, then each split's sqrt(m) axes in
    pre-order."""
    if config.n_trees < 1:
        raise ContractViolation("n_trees must be >= 1")
    data = _Samples(schema, points, labels, config)
    m, n = schema.m, len(points)
    n_sub = max(1, int(math.sqrt(m)))

    def expand(item):
        """``grow``'s step on (sample rows, depth, the tree's generator): a
        split, or a leaf of the majority class, the lowest id on ties."""
        idx, depth, rng = item
        totals = np.bincount(data.codes[idx], minlength=len(data.classes))
        if np.count_nonzero(totals) > 1 and data.deeper(depth):
            # with one axis the draw is [0], and only pool draws follow it
            pool = sorted(rng.choice(m, size=n_sub, replace=False).tolist())
            cut = data.best_cuts(idx, np.array([len(idx)]), totals[None], pool)[0]
            if cut is not None:
                mask = data.values[cut[0], idx] <= cut[1]
                return data.test(*cut), (idx[mask], depth + 1, rng), (idx[~mask], depth + 1, rng)
        return Leaf(int(data.classes[totals.argmax()]))

    forest_rng = np.random.default_rng(config.seed)
    trees = []
    for _ in range(config.n_trees):
        rng = np.random.default_rng(forest_rng.integers(0, 2**63 - 1))
        trees.append(TreeModel(schema, *grow((rng.integers(0, n, size=n), 0, rng), expand)))
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
