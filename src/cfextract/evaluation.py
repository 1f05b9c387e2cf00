"""Verification and measurement: exact equivalence, fidelity, bounds, ratios.

The equivalence check never materializes the full product grid of split
levels: it serves each model as one tree (``tree(cap)``: a tree itself, a
forest the tree it compiles to), walks the smaller tree's leaf boxes and the
other tree's leaves within each box, on a ``Region``'s own fields with no
``Region`` per node, so comparisons stay near-linear in the leaves. All
bound arithmetic is exact (Fractions).

The anytime curve of a TRA run builds none of its partial trees: it replays
the evaluation points through the node store's resolution stamps
(``_replay``), one tree level at a time. The store is read once into flat
int64 arrays, and each level is one numpy pass over the points still
walking, so the cost is one Python pass over the slots plus a numpy pass per
tree depth, not a numpy step per slot.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapacityError, ContractViolation
from .models import (UNKNOWN, ForestModel, Model, TreeModel, check_int64_grid,
                     points_to_arrays, stats)
from .regions import CatNode, Region, SplitNode, center, full_region
from .schema import FeatureSchema, Point
from .tra import ExtractionState, Snapshot

DEFAULT_CELL_BUDGET = 2_000_000


@dataclass(frozen=True)
class BoundReport:
    n: int
    s: tuple[int, ...]
    prop1_bound: int  # prod(s_i + 1)
    cor1_bound: Fraction  # (1 + n/m)^m
    worst_case_queries: int  # 2*prod(s_i + 1) - 1
    opt_queries_lower: int  # n + 1
    c_tra: Fraction  # worst_case / (n + 1)


@dataclass(frozen=True)
class FidelityReport:
    fidelity: float
    sample_count: int
    seed: int
    kind: str  # "uniform" | "test"


def functional_equivalence(
    f: Model, g: Model, schema: FeatureSchema, cell_budget: int = DEFAULT_CELL_BUDGET
) -> tuple[bool, Point | None]:
    """Exact agreement of two axis-parallel models over the whole grid.

    Each model is first served as the one tree computing its function
    (``tree(cell_budget)``: a tree is itself, a forest compiles to at most
    ``cell_budget`` leaves). Then the walk goes through the leaf boxes of the
    tree with fewer leaves (``g``'s on a tie) and, within each, through the
    other tree's, checking it for constancy. The cells visited are the same
    either way, the overlay of the two partitions, but each outer leaf
    restarts a descent of the inner tree from its root: the smaller tree
    outside restarts fewer. Fastest of 200 calls on a 2-core VM, with the TRA
    result outside against the target outside: 5.5-5.9 against 4.3-4.5 ms
    on a depth-7 random tree (128 leaves, result 2,354), 0.67-0.80 against
    0.42-0.47 ms on the adversarial (20,20) target (41 leaves, result 441).
    A forest can compile to more leaves than its TRA result (231 against 105
    for a 4-tree depth-3 forest on five axes at 1/256); there the result
    stays outside, and the other order took 20-36% longer.

    Returns (True, None) on equivalence, else (False, a point where they
    differ, whatever the argument order: the center of the first box where
    they do; an unknown label agrees with nothing). Raises CapacityError when
    a compiled tree, or the cells the walk visits, exceed ``cell_budget``.
    """
    if f.schema != schema or g.schema != schema:
        raise ContractViolation("models must share the given schema")
    inner, outer = f.tree(cell_budget), g.tree(cell_budget)
    if inner.leaf_count < outer.leaf_count:
        inner, outer = outer, inner
    inner_nodes, outer_nodes = inner.nodes, outer.nodes
    budget = cell_budget
    domain = full_region(schema)
    for j, ivs, allowed in outer.leaf_boxes(domain.intervals, domain.allowed):
        label = outer_nodes[j].label
        if label is None:
            return False, center(Region(ivs, allowed))
        for i, ivs, allowed in inner.leaf_boxes(ivs, allowed):  # its parts of the outer box
            budget -= 1
            if budget < 0:
                raise CapacityError(
                    "equivalence check exceeded its cell budget; use sampled fidelity"
                )
            if inner_nodes[i].label != label:
                return False, center(Region(ivs, allowed))
    return True, None


def uniform_points(schema: FeatureSchema, n: int, seed: int):
    """Uniform grid sample of ``n`` >= 0 points as int64 index arrays (iv,
    cats); a grid past int64 is refused (``check_int64_grid``)."""
    if n < 0:
        raise ContractViolation(f"cannot draw {n} evaluation points")
    check_int64_grid(schema)
    rng = np.random.default_rng(seed)
    n_iv = len(schema.iv_sizes)
    iv = np.empty((n, n_iv), dtype=np.int64)
    for i, size in enumerate(schema.iv_sizes):
        iv[:, i] = rng.integers(0, size, size=n)
    cats = np.empty((n, len(schema.group_sizes)), dtype=np.int64)
    for g, k in enumerate(schema.group_sizes):
        cats[:, g] = rng.integers(0, k, size=n)
    return iv, cats


def _agreement(pred: np.ndarray, ref: np.ndarray) -> float:
    """Share of points where two label arrays agree; unknown labels never agree."""
    return float(((pred == ref) & (pred != UNKNOWN)).mean())


def fidelity(f: Model, g: Model, schema: FeatureSchema, n_samples: int = 3000,
             seed: int = 0, points=None) -> FidelityReport:
    """Agreement fraction on uniform grid samples, or on ``points`` (kind "test")."""
    if f.schema != schema or g.schema != schema:
        raise ContractViolation("models must share the given schema")
    if points is not None:
        n_samples = len(points)
    if n_samples < 1:
        raise ContractViolation("need at least one evaluation point")
    iv, cats = (points_to_arrays(schema, points) if points is not None
                else uniform_points(schema, n_samples, seed))
    return FidelityReport(_agreement(f.predict_arrays(iv, cats), g.predict_arrays(iv, cats)),
                          n_samples, seed, "uniform" if points is None else "test")


_NEVER = -2  # a label array entry no target label equals, UNKNOWN included
_BELOW = np.iinfo(np.int64).min  # the low end of a SplitNode's left test


def _replay(state: ExtractionState, checkpoints: Sequence[int], iv: np.ndarray, cats: np.ndarray,
            ref: np.ndarray) -> list[float]:
    """Agreement with ``ref`` of a TRA run's partial trees after each of the
    ascending query counts ``checkpoints``, from the store's resolution
    stamps alone.

    Each point walks from slot 0 with the query count at which it arrived in
    its slot (the stamp of the parent). A slot stamped later than that shows
    its provisional label from the arrival until its stamp; a resolved leaf
    shows its label from its stamp on; a test slot sends the point on to a
    child. The walk stops below slots resolved after the last checkpoint.
    Each of these is a +1 or -1 in the agreement count stamped with a query
    count, and the count at a checkpoint is the sum of those stamped at or
    before it. This rests on stamps never decreasing down the store
    (``ExtractionState``). The result is the same, point for point, as
    ``predict_arrays`` on each partial tree.

    The store's lists are read once into flat int64 arrays, one entry per
    slot: the column a test reads in the matrix of ``iv`` then ``cats``
    columns, the ``[lo, hi]`` range that sends a point left (a ``SplitNode``
    ``(-inf, threshold]``, a ``CatNode`` ``[c, c]``), the children, the leaf
    and provisional labels (``_NEVER`` for none), and the stamp as its
    bucket, the first checkpoint at or after it (one ``searchsorted``; a
    stamp past the last checkpoint, pending ones too, falls in one bucket
    past them all). A change counts only through its bucket, so a provisional
    label whose arrival and stamp share a bucket is skipped: its +1 and -1
    cancel. The walk then goes one tree level at a time: one vectorised step
    over all points still walking sums their changes per bucket
    (``bincount``), drops the points that stop and routes the rest with one
    gather. The cost is O(slots) Python to build the arrays and O(depth)
    numpy passes over at most every point. On the (20,20) adversarial store
    (881 slots, depth 11) and 3,000 points, the fastest of 300 calls on a
    2-core VM took 1.3 ms (0.35 ms of it building the arrays), against 3.4
    ms for a walk of one numpy step per slot; on a depth-7 tree-mixed
    target's store (4,707 slots, depth 20) 4.4-5.6 ms against 8.0-9.5 ms.
    The walk holds a few arrays one entry per point at a time: the traced
    peak of one adversarial call is about 350 KiB, against 54 KiB for the
    per-slot walk.
    """
    horizon, n_iv = checkpoints[-1], iv.shape[1]
    slots = np.array([
        (node.iv_axis, _BELOW, node.threshold, node.left, node.right, _NEVER)
        if type(node) is SplitNode else
        (n_iv + node.group, node.category, node.category, node.left, node.right, _NEVER)
        if type(node) is CatNode else  # a leaf, or a slot still pending (None)
        (0, 0, 0, -1, -1, _NEVER if node is None or node.label is None else node.label)
        for node in state.nodes], dtype=np.int64)
    col, lo, hi, left, right, leaf_label = slots.T
    provisional = np.array([_NEVER if label is None else label for label in state.provisional],
                           dtype=np.int64)
    stamp = np.array([at if at <= horizon else horizon + 1 for at in state.resolved_at],
                     dtype=np.int64)
    # each slot's stamp as the first checkpoint at or after it; the last bucket
    # takes the stamps after every checkpoint
    bins = len(checkpoints) + 1
    bucket = np.searchsorted(np.asarray(checkpoints, dtype=np.int64), stamp, side="left")
    descends = (left >= 0) & (bucket < bins - 1)
    matrix = np.hstack((iv, cats))

    # per level: the walking points, their target labels, slots and arrival buckets
    pts, target = np.arange(len(ref)), ref
    slot = arrived = np.zeros(len(ref), dtype=np.int64)
    change = np.zeros(bins, dtype=np.int64)
    while pts.size:
        at = bucket[slot]
        # a provisional label shown from arrival to stamp; within one bucket it cancels
        shown = (at != arrived) & (provisional[slot] == target)
        change += (np.bincount(arrived[shown], minlength=bins)
                   - np.bincount(at[shown], minlength=bins)
                   + np.bincount(at[leaf_label[slot] == target], minlength=bins))
        go = descends[slot]
        pts, target, slot, arrived = pts[go], target[go], slot[go], at[go]
        v = matrix[pts, col[slot]]
        slot = np.where((lo[slot] <= v) & (v <= hi[slot]), left[slot], right[slot])
    return [agree / len(ref) for agree in np.cumsum(change[:-1]).tolist()]


def snapshot_fidelities(target: Model, snapshots: Sequence[Snapshot], iv: np.ndarray,
                        cats: np.ndarray) -> list[float]:
    """Agreement of each snapshot's model with ``target`` on the points
    (``iv``, ``cats``), in the order given; unknown labels never agree.

    Snapshots that carry a model are predicted directly. The lazy snapshots
    of a TRA run are not built: the points are replayed once through the
    run's resolution stamps (``_replay``).
    """
    if not iv.shape[0]:
        raise ContractViolation("need at least one evaluation point")
    ref = target.predict_arrays(iv, cats)
    out = [0.0] * len(snapshots)
    replays: dict = {}  # TRA state -> indices of its snapshots
    for i, snap in enumerate(snapshots):
        if snap.state is None:
            out[i] = _agreement(snap.model.predict_arrays(iv, cats), ref)
        else:
            replays.setdefault(snap.state, []).append(i)
    for state, idx in replays.items():
        idx.sort(key=lambda i: snapshots[i].queries)
        fids = _replay(state, [snapshots[i].queries for i in idx], iv, cats, ref)
        for i, fid in zip(idx, fids):
            out[i] = fid
    return out


def mean_curve(runs: Sequence[Sequence[tuple[int, float]]],
               checkpoints: Sequence[int]) -> list[float]:
    """The mean over ``runs`` at each checkpoint, by the anytime step rule: a
    run, an ascending list of (queries, value) pairs, counts its latest value
    at or before the checkpoint (a finished run its last), 0 before its first."""
    if not runs:
        raise ContractViolation("need at least one run")
    totals = [0.0] * len(checkpoints)
    for run in runs:
        queries = [q for q, _ in run]
        for j, checkpoint in enumerate(checkpoints):
            i = bisect_right(queries, checkpoint)
            totals[j] += run[i - 1][1] if i else 0.0
    return [total / len(runs) for total in totals]


def anytime_fidelity(runs, checkpoint: int = 20):
    """Mean-over-runs fidelity as a function of queries spent.

    ``runs`` is a sequence of (target, snapshots, eval_arrays) triples, where
    ``eval_arrays`` is an (iv, cats) pair of evaluation points. Checkpoints
    are the multiples of ``checkpoint`` below the longest run's count, then
    that count. ``snapshot_fidelities`` scores the snapshots (a TRA run's by
    replaying its record), and ``mean_curve`` averages them by the step rule:
    a run counts its latest snapshot at or before each checkpoint, 0 before.
    """
    if checkpoint < 1:
        raise ContractViolation(f"checkpoint must be >= 1, got {checkpoint}")
    curves = []
    for target, snapshots, (iv, cats) in runs:
        if not snapshots:
            raise ContractViolation("run without snapshots")
        snaps = sorted(snapshots, key=lambda s: s.queries)
        fids = snapshot_fidelities(target, snaps, iv, cats)
        curves.append([(s.queries, fid) for s, fid in zip(snaps, fids)])
    horizon = max((curve[-1][0] for curve in curves), default=0)  # no runs: mean_curve refuses
    qs = [*range(checkpoint, horizon, checkpoint), horizon]
    return list(zip(qs, mean_curve(curves, qs)))


def bound_report(arg) -> BoundReport:
    """Worst-case query bounds and competitive ratio from a model or an s vector."""
    if isinstance(arg, (TreeModel, ForestModel)):
        s = stats(arg).s
    else:
        s = tuple(int(v) for v in arg)
        if any(v < 0 for v in s):
            raise ContractViolation("split-level counts must be non-negative")
    if not s:
        raise ContractViolation("need split-level counts for at least one axis")
    n = sum(s)
    m = len(s)
    prod = 1
    for v in s:
        prod *= v + 1
    cor1 = (1 + Fraction(n, m)) ** m
    worst = 2 * prod - 1
    return BoundReport(
        n=n,
        s=s,
        prop1_bound=prod,
        cor1_bound=cor1,
        worst_case_queries=worst,
        opt_queries_lower=n + 1,
        c_tra=Fraction(worst, n + 1),
    )


def measured_ratio(query_count: int, target: Model, extracted: Model,
                   schema: FeatureSchema) -> Fraction:
    """Measured queries over the omniscient lower bound n+1.

    Only defined for equivalence-certified runs; raises otherwise.
    """
    ok, _ = functional_equivalence(target, extracted, schema)
    if not ok:
        raise ContractViolation("run is not equivalence-certified")
    n = stats(target).n
    return Fraction(query_count, n + 1)
