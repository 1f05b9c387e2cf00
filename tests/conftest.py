"""Shared fixtures: schema builders and the brute-force references.

The brute-force counterfactual search below enumerates every grid point of a
region and is deliberately independent of the projection-based oracle it
checks against, and ``verify_local_optimality`` checks a counterfactual
against its one-step neighbours. ``region_from_json`` reads back the regions
a query trace records. ``reference_train_tree`` grows a CART tree one node at a
time, recursively, with ``reference_best_split``, a per-cut split search in
exact ints; the level-wise batch kernel in ``cfextract.cart`` must reproduce
its trees exactly;
``reference_cost_complexity_prune`` re-derives the weakest links for one
penalty at a time, as the pruning path in ``cfextract.cart`` must agree with.
``reference_line_search`` is the line search with one ``predict`` per probe,
which the per-axis label tables of ``cfextract.line_search`` must reproduce.
``false_absences`` audits a heuristic run's log against the exact oracle.
``reference_split_region`` cuts a whole ``Region`` by a node test, written
apart from ``SplitNode.cut`` and ``CatNode.cut`` so the walks built on it do
not share the code they check. ``reference_split`` is ``cx.split`` as a list
of cut events sorted by global axis before any cut, which the one walk over
the features must reproduce piece for piece. ``reference_leaves_within``
walks a tree through a region one ``Region`` per node with it, and
``reference_equivalence`` is the equivalence check built on that, which the
box walks of ``TreeModel.leaf_boxes`` and ``cfextract.functional_equivalence``
(on a ``Region``'s fields, no ``Region`` per node) must reproduce exactly.
``reference_forest_compile`` grafts a forest into one tree on ``Region``s, cut
with ``reference_split_region``, which ``ForestModel.tree``'s walk through
``cut`` must reproduce node for node.
``reference_heuristic_cf`` is the heuristic search with one ``sample_point``
and one ``predict`` per draw, whose records the block sampler of
``cfextract.heuristic_cf`` must reproduce. ``reference_replay`` is the anytime
replay walking the node store one slot at a time, whose fidelities the
level pass of ``evaluation._replay`` must reproduce.
``malformed`` edits a valid JSON document at random, for the loader fuzz tests.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import settings, strategies as st

import cfextract as cx

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")


def make_schema(kind: str) -> cx.FeatureSchema:
    if kind == "2num":
        return cx.FeatureSchema([
            cx.NumericFeature("x1", 0, 1, Fraction(1, 256)),
            cx.NumericFeature("x2", 0, 1, Fraction(1, 256)),
        ])
    if kind == "grid10":
        return cx.FeatureSchema([
            cx.NumericFeature("x1", 0, 1, Fraction(1, 10)),
            cx.NumericFeature("x2", 0, 1, Fraction(1, 10)),
        ])
    if kind == "mixed":
        return cx.FeatureSchema([
            cx.NumericFeature("a", 0, 1, Fraction(1, 64)),
            cx.BinaryFeature("b"),
            cx.OrdinalFeature("c", 8),
            cx.CategoricalFeature("d", ("p", "q", "r")),
        ])
    if kind == "groups2":
        return cx.FeatureSchema([
            cx.CategoricalFeature("g", ("u", "v", "w")),
            cx.NumericFeature("a", 0, 1, Fraction(1, 8)),
            cx.CategoricalFeature("h", ("s", "t", "u", "v")),
            cx.OrdinalFeature("b", 5),
        ])
    if kind == "small3":
        return cx.FeatureSchema([
            cx.NumericFeature("a", 0, 1, Fraction(1, 31)),
            cx.OrdinalFeature("b", 16),
            cx.NumericFeature("c", 0, 1, Fraction(1, 15)),
        ])
    raise ValueError(kind)


@pytest.fixture
def schema_2num():
    return make_schema("2num")


@pytest.fixture
def schema_grid10():
    return make_schema("grid10")


@pytest.fixture
def schema_mixed():
    return make_schema("mixed")


def enumerate_region(schema: cx.FeatureSchema, region: cx.Region):
    """All grid points of a region as (iv, cats) index arrays."""
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in region.intervals]
    cat_axes = [np.array(sorted(s), dtype=np.int64) for s in region.allowed]
    grids = np.meshgrid(*axes, *cat_axes, indexing="ij") if (axes or cat_axes) else []
    cols = [g.reshape(-1) for g in grids]
    n_iv = len(axes)
    n = cols[0].size if cols else 1
    iv = (np.stack(cols[:n_iv], axis=1) if n_iv
          else np.zeros((n, 0), dtype=np.int64))
    cats = (np.stack(cols[n_iv:], axis=1) if cat_axes
            else np.zeros((n, 0), dtype=np.int64))
    return iv, cats


def brute_force_cf(model, x: cx.Point, region: cx.Region, dist: cx.Distance):
    """Reference oracle: full enumeration of the region's grid points."""
    schema = model.schema
    iv, cats = enumerate_region(schema, region)
    labels = model.predict_arrays(iv, cats)
    y = model.predict(x)
    flip = labels != y
    if not flip.any():
        return None
    x_iv = np.asarray(x.ivals, dtype=np.int64)
    x_cat = np.asarray(x.cats, dtype=np.int64)
    w = np.asarray(dist.weights, dtype=np.int64)
    if iv.shape[1]:
        diff = (iv - x_iv) * w
        base = (diff * diff).sum(axis=1) if dist.kind == "l2" else np.abs(diff).sum(axis=1)
    else:
        base = np.zeros(len(labels), dtype=np.int64)
    if cats.shape[1]:
        base = base + (cats != x_cat).sum(axis=1) * dist.group_term
    d = np.where(flip, base, np.iinfo(np.int64).max)
    best = int(d.min())
    ties = np.flatnonzero(d == best)
    pts = [cx.Point(tuple(int(v) for v in iv[i]), tuple(int(c) for c in cats[i]))
           for i in ties]
    return best, min(pts, key=schema.lex_key)


def verify_local_optimality(target, x: cx.Point, x_cf: cx.Point, dist: cx.Distance) -> bool:
    """Check every single-axis one-grid-step perturbation of the counterfactual.

    True iff each such neighbor either restores the query's label, does not
    get closer to the query, or leaves the domain.
    """
    schema = target.schema
    y = target.predict(x)
    if target.predict(x_cf) == y:
        raise cx.ContractViolation("not a counterfactual of x")
    base = dist.scaled(x, x_cf)
    ivals = list(x_cf.ivals)
    for i, axis in enumerate(schema.interval_axes):
        for d in (-1, 1):
            v = ivals[i] + d
            if not 0 <= v < axis.size:
                continue
            probe = cx.Point(tuple(ivals[:i] + [v] + ivals[i + 1:]), x_cf.cats)
            if target.predict(probe) == y:
                continue
            if dist.scaled(x, probe) < base:
                return False
    return True


def false_absences(target: cx.TreeModel, records, dist: cx.Distance) -> list[int]:
    """Audit a heuristic run after it ends: the indices of the billed
    ``records`` (collected by a list sink) that answered "no counterfactual"
    where the exact search finds one."""
    return [rec.index for rec in records if rec.counterfactual is None
            and cx.exact_tree_cf(target, rec.x, rec.region, dist)[1] is not None]


def region_from_json(data, schema: cx.FeatureSchema) -> cx.Region:
    """The region ``cx.region_json`` wrote, read back."""
    if len(data) != schema.m:
        raise cx.ContractViolation(f"expected {schema.m} axis bounds, got {len(data)}")
    intervals = [None] * len(schema.interval_axes)
    allowed = [set() for _ in schema.groups]
    for entry, bounds in zip(schema.axis_table, data):
        lo, hi = bounds
        if entry[0] == "i":
            iv = entry[1]
            axis = schema.interval_axes[iv]
            intervals[iv] = (axis.index(lo), axis.index(hi))
        else:
            _, gi, c = entry
            if int(hi) == 1:
                allowed[gi].add(c)
    return cx.Region(tuple(intervals), tuple(frozenset(s) for s in allowed))


def random_subregion(schema: cx.FeatureSchema, rng) -> cx.Region:
    intervals = []
    for size in schema.iv_sizes:
        a = int(rng.integers(0, size))
        b = int(rng.integers(a, size))
        intervals.append((a, b))
    allowed = []
    for k in schema.group_sizes:
        n_pick = int(rng.integers(1, k + 1))
        allowed.append(frozenset(int(c) for c in rng.choice(k, size=n_pick, replace=False)))
    return cx.Region(tuple(intervals), tuple(allowed))


def reference_split_region(node, region: cx.Region):
    """The parts of ``region`` that the node test ``node`` sends left and
    right, None for an empty side."""
    if isinstance(node, cx.SplitNode):
        k, t = node.iv_axis, node.threshold
        ivs = region.intervals
        a, b = ivs[k]
        if t >= b:
            return region, None
        if t < a:
            return None, region
        head, tail = ivs[:k], ivs[k + 1:]
        return (cx.Region(head + ((a, t),) + tail, region.allowed),
                cx.Region(head + ((t + 1, b),) + tail, region.allowed))
    g, c = node.group, node.category
    al = region.allowed
    s = al[g]
    if c not in s:
        return None, region
    if len(s) == 1:
        return region, None
    head, tail = al[:g], al[g + 1:]
    return (cx.Region(region.intervals, head + (frozenset((c,)),) + tail),
            cx.Region(region.intervals, head + (s - {c},) + tail))


def reference_split(region: cx.Region, x: cx.Point, x_cf: cx.Point, schema: cx.FeatureSchema):
    """``cx.split`` by cut events: collect one event per differing interval
    axis and two per differing one-hot group, sort them by global axis, and
    only then cut; the same pieces and steps, or the same refusal."""
    def outside():
        return cx.ContractViolation("query point outside region" if not cx.contains(region, x)
                                    else "counterfactual outside region")

    ivs, al = region.intervals, region.allowed
    x_iv, cf_iv, x_cats, cf_cats = x.ivals, x_cf.ivals, x.cats, x_cf.cats
    n_iv, n_groups = len(schema.interval_axes), len(schema.groups)
    if len(ivs) != n_iv or len(al) != n_groups:
        raise cx.ContractViolation("region has wrong arity for this schema")
    if not (len(x_iv) == len(cf_iv) == n_iv and len(x_cats) == len(cf_cats) == n_groups):
        raise outside()

    events = []
    for iv, axis in enumerate(schema.interval_axes):
        a, b = ivs[iv]
        v, vx = cf_iv[iv], x_iv[iv]
        if not (a <= vx <= b and a <= v <= b):
            raise outside()
        if v < vx:  # counterfactual below the query: x keeps values >= v+1
            events.append((axis.global_axis, cx.SplitNode(iv, v), False))
        elif v > vx:  # counterfactual above: x keeps values <= v-1
            events.append((axis.global_axis, cx.SplitNode(iv, v - 1), True))
    for gi, grp in enumerate(schema.groups):
        s = al[gi]
        cx_, cv = x_cats[gi], cf_cats[gi]
        if cx_ not in s or cv not in s:
            raise outside()
        if cx_ != cv:
            # peel {category == cx}, then {category != cv}
            events.append((grp.global_axis0 + cx_, cx.CatNode(gi, cx_), True))
            events.append((grp.global_axis0 + cv, cx.CatNode(gi, cv), False))
    if not events:
        raise cx.ContractViolation("query equals counterfactual")
    events.sort(key=lambda event: event[0])

    pieces, steps = [], []
    for _, test, x_left in events:
        left, right = reference_split_region(test, cx.Region(ivs, al))
        if left is None or right is None:
            continue
        piece, rest = (left, right) if x_left else (right, left)
        ivs, al = rest.intervals, rest.allowed
        pieces.append(piece)
        steps.append((test, x_left))
    pieces.append(cx.Region(ivs, al))
    return pieces, steps


def reference_leaves_within(tree: cx.TreeModel, region: cx.Region):
    """Each leaf of ``tree`` meeting ``region``, as (node index, the part of
    ``region`` it holds), left subtrees first: one ``Region`` per node."""
    stack = [(tree.root, region)]
    while stack:
        i, reg = stack.pop()
        node = tree.nodes[i]
        if isinstance(node, cx.Leaf):
            yield i, reg
            continue
        left, right = reference_split_region(node, reg)
        if right is not None:
            stack.append((node.right, right))
        if left is not None:
            stack.append((node.left, left))


def reference_equivalence(f, g, schema: cx.FeatureSchema, cell_budget: int):
    """``functional_equivalence`` on ``Region``s: the walk through the leaf
    regions of the tree with fewer leaves (``g`` on a tie), checking the
    other (``f``) for constancy on each within ``cell_budget`` leaves of
    ``f``; (True, None), or (False, the center of the first part where they
    differ)."""
    f, g = f.tree(cell_budget), g.tree(cell_budget)
    f, g = (g, f) if f.leaf_count < g.leaf_count else (f, g)
    budget = cell_budget
    for j, region in reference_leaves_within(g, cx.full_region(schema)):
        label = g.nodes[j].label
        if label is None:
            return False, cx.center(region)
        for i, part in reference_leaves_within(f, region):
            budget -= 1
            if budget < 0:
                raise cx.CapacityError(
                    "equivalence check exceeded its cell budget; use sampled fidelity"
                )
            if f.nodes[i].label != label:
                return False, cx.center(part)
    return True, None


def reference_forest_compile(forest: cx.ForestModel) -> cx.TreeModel:
    """The tree ``forest.tree`` compiles to (with no cap), grafted one
    ``Region`` per item: each tree onto every leaf of the trees before it,
    following only the non-empty sides of its tests, with a leaf as soon as
    the trees still to come cannot change the vote."""
    trees, labels = forest.trees, forest.labels
    class_of = {lab: c for c, lab in enumerate(labels)}

    def expand(item):
        region, k, i, votes = item
        while True:
            node = trees[k].nodes[i]
            if isinstance(node, cx.Leaf):
                votes = list(votes)
                votes[class_of[node.label]] += 1
                k += 1
                lead = cx.models._vote(votes, len(trees) - k)
                if lead is None:
                    i = trees[k].root
                    continue
                return cx.Leaf(labels[lead])
            left, right = reference_split_region(node, region)
            if right is None:
                i = node.left
            elif left is None:
                i = node.right
            else:
                return node, (left, k, node.left, votes), (right, k, node.right, votes)

    root_item = (cx.full_region(forest.schema), 0, trees[0].root, [0] * len(labels))
    return cx.TreeModel(forest.schema, *cx.models.grow(root_item, expand))


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh ``python -O`` process (asserts stripped) that
    imports this checkout's ``cfextract``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cx.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    prelude = "import sys\nif not sys.flags.optimize: raise SystemExit('not optimized')\n"
    return subprocess.run([sys.executable, "-O", "-c", prelude + code], env=env,
                          capture_output=True, text=True, timeout=120)


def reference_train_tree(schema, points, labels, config=cx.TrainConfig(), _rng=None,
                         _subsample=None):
    """``cx.train_tree`` one node at a time: a recursive build, and a split
    search over one candidate cut at a time in exact ints.

    ``_rng`` draws each split's sqrt(m) axes in pre-order, and
    ``_subsample`` gives the bootstrap rows, so it grows a tree of
    ``cx.train_forest`` from that tree's draws.
    """
    iv = np.array([p.ivals for p in points], dtype=np.int64).reshape(len(points), -1)
    cats = np.array([p.cats for p in points], dtype=np.int64).reshape(len(points), -1)
    labels = np.asarray(labels, dtype=np.int64)
    m = schema.m
    n_sub = m if _rng is None else max(1, int(np.sqrt(m)))
    nodes = []

    def build(idx, depth):
        """The index of the subtree grown on ``idx``; children before parents."""
        ys = labels[idx].tolist()
        if len(set(ys)) > 1 and (config.max_depth is None or depth < config.max_depth):
            pool = (list(range(m)) if n_sub >= m
                    else sorted(int(a) for a in _rng.choice(m, size=n_sub, replace=False)))
            best = reference_best_split(schema, iv, cats, labels, idx, pool)
            if best is not None:
                test = best[-1]
                mask = test.left_mask(iv, cats, idx)
                left = build(idx[mask], depth + 1)
                right = build(idx[~mask], depth + 1)
                nodes.append(test.with_children(left, right))
                return len(nodes) - 1
        # the majority label, the lowest one on ties
        nodes.append(cx.Leaf(min(set(ys), key=lambda y: (-ys.count(y), y))))
        return len(nodes) - 1

    idx = np.arange(len(points)) if _subsample is None else np.asarray(_subsample)
    root = build(idx, 0)
    return cx.TreeModel(schema, nodes, root)


def reference_best_split(schema, iv, cats, labels, idx: np.ndarray, pool):
    """Best (num, den, global_axis, tie_t, test) over the cuts of the rows
    ``idx`` on the axes ``pool``, one candidate cut at a time in exact ints."""
    n = len(idx)
    classes, y = np.unique(labels[idx], return_inverse=True)
    k = len(classes)
    total = np.bincount(y, minlength=k)
    s_parent = int((total.astype(object) ** 2).sum())
    best = None  # (num, den, global_axis, tie_t, spec)

    def consider(s_l, n_l, s_r, n_r, g_axis, tie_t, spec):
        nonlocal best
        num = s_l * n_r + s_r * n_l
        den = n_l * n_r
        if num * n < s_parent * den:
            return
        if best is not None:
            b_num, b_den, b_axis, b_t, _ = best
            lhs = num * b_den
            rhs = b_num * den
            if lhs < rhs or (lhs == rhs and (g_axis, tie_t) >= (b_axis, b_t)):
                return
        best = (num, den, g_axis, tie_t, spec)

    for g_axis in pool:
        entry = schema.axis_table[g_axis]
        if entry[0] == "i":
            ivx = entry[1]
            col = iv[idx, ivx]
            order = np.argsort(col, kind="stable")
            sv = col[order]
            sy = y[order]
            counts = np.zeros(k, dtype=np.int64)
            s_l = 0
            n_l = 0
            for j in range(n - 1):
                c = sy[j]
                s_l += 2 * counts[c] + 1
                counts[c] += 1
                n_l += 1
                if sv[j] != sv[j + 1]:
                    t = int((int(sv[j]) + int(sv[j + 1])) // 2)
                    rc = total - counts
                    s_r = int((rc.astype(object) ** 2).sum())
                    consider(int(s_l), n_l, s_r, n - n_l, g_axis, t, cx.SplitNode(ivx, t))
        else:
            _, gi, c = entry
            col = cats[idx, gi]
            mask = col == c
            n_l = int(mask.sum())
            if n_l == 0 or n_l == n:
                continue
            lc = np.bincount(y[mask], minlength=k)
            rc = total - lc
            s_l = int((lc.astype(object) ** 2).sum())
            s_r = int((rc.astype(object) ** 2).sum())
            consider(s_l, n_l, s_r, n - n_l, g_axis, 0, cx.CatNode(gi, c))
    return best


def reference_line_search(target, x: cx.Point, x_cand: cx.Point) -> cx.Point:
    """``cx.line_search`` with every probe a full ``predict`` of a fresh point:
    the same sweep, the same steps, the same result."""
    y = target.predict(x)
    if target.predict(x_cand) == y:
        raise cx.ContractViolation("line_search needs a label-flipped start point")
    ivals = list(x_cand.ivals)
    cats = list(x_cand.cats)
    moved = True
    while moved:
        moved = False
        for i in range(len(ivals)):
            gap = x.ivals[i] - ivals[i]
            if gap == 0:
                continue
            direction = 1 if gap > 0 else -1
            step = 1 << (abs(gap).bit_length() - 1)
            while step:
                if step <= abs(x.ivals[i] - ivals[i]):
                    trial = ivals[i] + direction * step
                    probe = cx.Point(tuple(ivals[:i] + [trial] + ivals[i + 1:]), tuple(cats))
                    if target.predict(probe) != y:
                        ivals[i] = trial
                        moved = True
                        continue
                step >>= 1
        for g in range(len(cats)):
            if cats[g] != x.cats[g]:
                probe = cx.Point(tuple(ivals), tuple(cats[:g] + [x.cats[g]] + cats[g + 1:]))
                if target.predict(probe) != y:
                    cats[g] = x.cats[g]
                    moved = True
    return cx.Point(tuple(ivals), tuple(cats))


def reference_heuristic_cf(target, x: cx.Point, y, region: cx.Region, training_data,
                           sample_budget: int, make_rng):
    """``cx.heuristic_cf`` drawing one ``sample_point`` and one ``predict`` at
    a time: the same scan, the same draws, the same result."""
    if training_data:
        for p in training_data:
            if cx.contains(region, p) and target.predict(p) != y:
                return cx.line_search(target, x, p)
    rng = make_rng()
    for _ in range(sample_budget):
        p = cx.sample_point(region, rng)
        if target.predict(p) != y:
            return cx.line_search(target, x, p)
    return None


def reference_replay(state: cx.ExtractionState, checkpoints, iv, cats, ref) -> list[float]:
    """``evaluation._replay`` one slot at a time: a walk from slot 0 that
    carries each set of points with the query count it arrived at and adds
    each integer change in the agreement count under the first checkpoint at
    or after its stamp, as ``_replay``'s level pass must reproduce."""
    def hits(sel, label):
        return 0 if label is None else int(np.count_nonzero(ref[sel] == label))

    horizon = checkpoints[-1]
    change = [0] * (len(checkpoints) + 1)
    stack = [(0, 0, np.arange(len(ref)))]  # (slot, arrival, points)
    while stack:
        s, arrived, sel = stack.pop()
        at = state.resolved_at[s]
        if at != arrived:
            n = hits(sel, state.provisional[s])
            change[bisect_left(checkpoints, arrived)] += n
            change[bisect_left(checkpoints, at)] -= n
        if at > horizon:
            continue
        node = state.nodes[s]
        if isinstance(node, cx.Leaf):
            change[bisect_left(checkpoints, at)] += hits(sel, node.label)
        else:
            mask = node.left_mask(iv, cats, sel)
            for child, part in ((node.left, sel[mask]), (node.right, sel[~mask])):
                if part.size:
                    stack.append((child, at, part))
    return [agree / len(ref) for agree in accumulate(change[:-1])]


def reference_cost_complexity_prune(tree, train_points, train_labels, alpha):
    """Weakest-link pruning for one penalty, re-deriving every link's penalty
    from scratch after each collapse: the same tree as
    ``cart.cost_complexity_prune``."""
    from cfextract.cart import _route_counts
    from cfextract.models import points_to_arrays

    alpha = Fraction(alpha)
    iv, cats = points_to_arrays(tree.schema, train_points)
    y = np.asarray(train_labels, dtype=np.int64)
    n_total = len(y)
    counts = _route_counts(tree, iv, cats, y)
    children = {i: None if isinstance(node, cx.Leaf) else (node.left, node.right)
                for i, node in enumerate(tree.nodes)}

    def node_risk(i):
        c = counts[i]
        return Fraction(int(c.sum() - c.max()), n_total) if c.sum() else Fraction(0)

    collapsed = set()

    def subtree(i):
        """(risk, leaf count) for the current pruned structure below i."""
        if children[i] is None or i in collapsed:
            return node_risk(i), 1
        rl, nl = subtree(children[i][0])
        rr, nr = subtree(children[i][1])
        return rl + rr, nl + nr

    def internal_nodes():
        out, stack = [], [tree.root]
        while stack:
            i = stack.pop()
            if children[i] is not None and i not in collapsed:
                out.append(i)
                stack.extend(children[i])
        return out

    while True:
        live = internal_nodes()
        if not live:
            break
        best_g, weakest = None, []
        for i in live:
            r_sub, leaves = subtree(i)
            g = (node_risk(i) - r_sub) / (leaves - 1)
            if best_g is None or g < best_g:
                best_g, weakest = g, [i]
            elif g == best_g:
                weakest.append(i)
        if best_g >= alpha:
            break
        collapsed.update(weakest)

    nodes = []

    def rebuild(i):
        if i in collapsed:
            c = counts[i]
            nodes.append(cx.Leaf(int(c.argmax()) if c.sum() else 0))
        elif children[i] is None:
            nodes.append(cx.Leaf(tree.nodes[i].label))
        else:
            left, right = rebuild(children[i][0]), rebuild(children[i][1])
            nodes.append(tree.nodes[i].with_children(left, right))
        return len(nodes) - 1

    root = rebuild(tree.root)
    return cx.TreeModel(tree.schema, nodes, root)


def reference_prune(tree, train_points, train_labels, val_points, val_labels):
    """``cart.prune`` over ``reference_cost_complexity_prune``: every
    ``CCP_GRID`` penalty pruned from scratch; best validation accuracy wins,
    then the larger penalty."""
    from cfextract.cart import CCP_GRID, accuracy

    best = None
    for alpha in CCP_GRID:
        cand = reference_cost_complexity_prune(tree, train_points, train_labels, alpha)
        acc = accuracy(cand, val_points, val_labels)
        if best is None or (acc, alpha) > (best[0], best[1]):
            best = (acc, alpha, cand)
    return best[2]


JSON_KEYS = ("id", "kind", "label", "axis", "threshold", "categories", "left", "right",
             "root", "nodes", "trees", "features", "name", "lo", "hi", "delta", "levels", "k")
# Integers stay small: a valid config may declare a k-way categorical, whose k
# category names are then built.
json_scalars = (st.none() | st.booleans() | st.integers(-3, 40)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4)
                | st.sampled_from(["0.5", "1/3", "1/0", "leaf", "split", "tree", "forest",
                                   "numeric", "ordinal", "binary", "categorical"]))
json_values = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(JSON_KEYS) | st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


def _locations(doc, path=()):
    yield path
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        items = []
    for key, value in items:
        yield from _locations(value, path + (key,))


@st.composite
def malformed(draw, doc):
    """``doc`` after one to three random edits, each at a random location: the
    value replaced, the key or item removed, or a key or item added inside."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_locations(doc))))
        edit = draw(st.sampled_from(("replace", "remove", "add")))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        here = parent[path[-1]]
        if edit == "remove":
            del parent[path[-1]]
        elif edit == "add" and isinstance(here, dict):
            here[draw(st.sampled_from(JSON_KEYS))] = draw(json_values)
        elif edit == "add" and isinstance(here, list):
            here.append(draw(json_values))
        else:
            parent[path[-1]] = draw(json_values)
    return doc
