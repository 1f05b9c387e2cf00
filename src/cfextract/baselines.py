"""Comparison attacks: leaf-id PathFinding and the CF / DualCF surrogates.

PathFinding assumes a stronger API than the counterfactual attacks: each
query reveals a stable identifier of the tree leaf the point falls in (plus
its label), so it applies to single trees only. It bisects to the grid step
only, which finds every boundary exactly. Every probe is billed, as a count:
a leaf-id probe has no region and no counterfactual, so it leaves no query
record.

CF trains a surrogate on (query, label) pairs augmented with the returned
counterfactuals; DualCF additionally queries the counterfactual of each
counterfactual, paying one extra call per round. Neither certifies
functional equivalence; their outputs are tagged non-certified. A snapshot's
surrogate is the one trained on the pairs gathered before it. The attack
notes only how many pairs each snapshot covers, and trains all the snapshots'
surrogates when its rounds end: tree surrogates together, as prefixes of one
training set (``cart.train_prefixes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cart import TrainConfig, train_forest, train_prefixes
from .errors import ContractViolation, UnsupportedModelError
from .models import Leaf, Model, TreeModel, boxes_to_tree, stats
from .oracles import CounterfactualOracle
from .regions import Region, center, full_region, sample_point, subtract
from .schema import FeatureSchema, Point, exact_number
from .tra import AttackResult, Snapshot, other_label, take_snapshot


@dataclass(frozen=True)
class AttackBudget:
    max_queries: int

    def __post_init__(self):
        if self.max_queries < 1:
            raise ContractViolation("budget must be >= 1")


def default_budget(target: Model) -> AttackBudget:
    """50 queries per node of the target."""
    return AttackBudget(50 * stats(target).node_count)


class _Mark(NamedTuple):
    """A surrogate snapshot before training: its billed query count, and the
    number of training points it covers."""

    queries: int
    size: int


SURROGATE_KINDS = ("tree", "forest")


@dataclass(frozen=True)
class SurrogateSpec:
    kind: str = "tree"  # one of SURROGATE_KINDS
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        if self.kind not in SURROGATE_KINDS:
            raise ContractViolation(f"unknown surrogate kind {self.kind!r}")


# -- PathFinding ---------------------------------------------------------------


class LeafIdOracle:
    """Billed access to (leaf id, label) of a single target tree; ``count``
    is the number of probes billed so far. A tree with unknown leaves is
    refused, as the counterfactual oracle refuses it."""

    def __init__(self, target: TreeModel):
        if not isinstance(target, TreeModel):
            raise UnsupportedModelError("leaf-id oracle requires a single tree")
        if target.is_partial:
            raise UnsupportedModelError("the leaf-id oracle serves no target with "
                                        "unknown leaves (a null label)")
        self.target = target
        self.schema = target.schema
        self.count = 0

    def query(self, x: Point) -> tuple[int, int]:
        i = self.target.leaf_index(x)
        self.count += 1
        return i, self.target.nodes[i].label


def pathfinding_extract(
    leaf_oracle: LeafIdOracle, schema: FeatureSchema, epsilon=None
) -> tuple[TreeModel, LeafIdOracle]:
    """Recover each leaf's box by per-axis bisection probes, then rebuild.

    A worklist of still-uncovered regions seeds discoveries; every bisection
    probe and category check is one billed leaf-id query, counted in the
    returned oracle's ``count``. Bisection runs to the grid step, so each
    discovered box is a whole leaf of the target, no leaf is found twice and
    the reconstruction is functionally equivalent. ``epsilon``, if given,
    must be the step of every numeric axis.
    """
    if schema != leaf_oracle.schema:
        raise ContractViolation("oracle and schema disagree")
    if epsilon is not None:
        eps = exact_number(epsilon)
        for axis in schema.interval_axes:
            if axis.kind == "numeric" and eps != axis.step:
                raise ContractViolation(
                    f"precision {epsilon} is not the grid step of axis {axis.name}"
                )

    def probe(p: Point) -> int:
        return leaf_oracle.query(p)[0]

    def discover_box(seed: Point, seed_id: int) -> Region:
        intervals = []
        for i, axis in enumerate(schema.interval_axes):
            s = seed.ivals[i]
            lo = _boundary(seed, i, s, 0, seed_id, probe)
            hi = _boundary(seed, i, s, axis.size - 1, seed_id, probe)
            intervals.append((lo, hi))
        allowed = []
        for g, grp in enumerate(schema.groups):
            cats = {seed.cats[g]}
            for c in range(grp.k):
                if c == seed.cats[g]:
                    continue
                alt = Point(seed.ivals, seed.cats[:g] + (c,) + seed.cats[g + 1:])
                if probe(alt) == seed_id:
                    cats.add(c)
            allowed.append(frozenset(cats))
        return Region(tuple(intervals), tuple(allowed))

    worklist: list[Region] = [full_region(schema)]
    boxes: list[tuple[Region, int]] = []  # one whole leaf each, in discovery order
    while worklist:
        piece = worklist.pop()
        seed = center(piece)
        seed_id, label = leaf_oracle.query(seed)
        box = discover_box(seed, seed_id)
        boxes.append((box, label))
        remaining: list[Region] = []
        for w in [piece] + worklist:
            remaining.extend(subtract(w, box))
        worklist = remaining

    return boxes_to_tree(schema, boxes), leaf_oracle


def _boundary(seed: Point, axis: int, start: int, limit: int, seed_id: int,
              probe) -> int:
    """Furthest index from ``start`` towards ``limit`` still inside the seed's
    box: bisection stops when its inside and outside ends are adjacent."""
    if start == limit:
        return start

    def at(v: int) -> Point:
        return Point(seed.ivals[:axis] + (v,) + seed.ivals[axis + 1:], seed.cats)

    if probe(at(limit)) == seed_id:
        return limit
    inside, outside = start, limit
    while abs(outside - inside) > 1:
        mid = (inside + outside) // 2
        if probe(at(mid)) == seed_id:
            inside = mid
        else:
            outside = mid
    return inside


# -- CF / DualCF -----------------------------------------------------------------


def _train_surrogates(schema: FeatureSchema, points, labels, sizes,
                      spec: SurrogateSpec) -> list[Model]:
    """The surrogate trained on each prefix of ``sizes`` points: the trees
    all in one ``train_prefixes`` call, a forest per prefix."""
    if not points:  # no round ran: the constant surrogate
        return [TreeModel(schema, [Leaf(0)], 0) for _ in sizes]
    if spec.kind == "forest":
        return [train_forest(schema, points[:n], labels[:n], spec.train) for n in sizes]
    return train_prefixes(schema, points, labels, sizes, spec.train)


def _surrogate_rounds(oracle: CounterfactualOracle, budget: AttackBudget,
                      surrogate: SurrogateSpec, seed: int, snapshot_every: int,
                      dual: bool) -> AttackResult:
    """Query rounds until the budget is spent. A snapshot records only its
    query count and how many training points it covers; when the rounds end,
    still within the attack, the surrogates of all snapshots are trained
    together."""
    if snapshot_every < 0:
        raise ContractViolation("snapshot_every must be >= 0")
    schema = oracle.schema
    rng = np.random.default_rng(seed)
    domain = full_region(schema)
    binary = len(oracle.labels) == 2
    pts: list[Point] = []
    lbls: list[int] = []
    marks: list[_Mark] = []

    def mark() -> _Mark:
        return _Mark(oracle.log.count, len(pts))

    while oracle.log.count < budget.max_queries:
        x = sample_point(domain, rng)
        resp = oracle.query(x, domain)
        pts.append(x)
        lbls.append(resp.label)
        for hop in range(1 + dual):  # x's counterfactual, then (DualCF) its own
            cf = resp.counterfactual
            if cf is None:
                break
            if hop == dual and binary:  # the last label is free: the other class
                label = other_label(oracle.labels, resp.label)
            elif oracle.log.count < budget.max_queries:
                resp = oracle.query(cf, domain)
                label = resp.label
            else:
                break
            pts.append(cf)
            lbls.append(label)
        take_snapshot(marks, oracle.log.count, snapshot_every, mark)

    take_snapshot(marks, oracle.log.count, 1, mark)  # the final one
    models = _train_surrogates(schema, pts, lbls, [m.size for m in marks], surrogate)
    snapshots = [Snapshot(m.queries, model, Fraction(0)) for m, model in zip(marks, models)]
    return AttackResult(
        model=snapshots[-1].model,
        log=oracle.log,
        snapshots=snapshots,
        method="dualcf" if dual else "cf",
        certified=False,
    )


def cf_attack(oracle: CounterfactualOracle, budget: AttackBudget,
              surrogate: SurrogateSpec = SurrogateSpec(), seed: int = 0,
              snapshot_every: int = 20) -> AttackResult:
    """Label + counterfactual pairs from uniform queries, fit a surrogate."""
    return _surrogate_rounds(oracle, budget, surrogate, seed, snapshot_every, dual=False)


def dualcf_attack(oracle: CounterfactualOracle, budget: AttackBudget,
                  surrogate: SurrogateSpec = SurrogateSpec(), seed: int = 0,
                  snapshot_every: int = 20) -> AttackResult:
    """CF plus one billed counterfactual-of-counterfactual query per round."""
    return _surrogate_rounds(oracle, budget, surrogate, seed, snapshot_every, dual=True)
