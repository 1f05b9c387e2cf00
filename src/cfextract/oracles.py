"""The metered prediction + counterfactual API.

One billed call returns the ``QueryRecord`` it bills: the query's label and,
when one exists in the requested region, a counterfactual point. The exact
mode returns a global distance minimizer among label-flipping grid points of
the region (absence is then a certificate); the heuristic mode scans
server-side training data and uniform samples, refining hits with a per-axis
line search, and its absences are only a search failure. Whether one was
false is a question for an audit after the run: the meter keeps no record, so
collect them with a sink (``CounterfactualOracle(..., sink=records.append)``)
and replay each one's ``x``, ``region`` and ``counterfactual`` through
``exact_ensemble_cf``, which takes any model. The line search takes each
interval move off a table of the target's labels along the axis it is
sweeping (``line_segments``: one walk of each tree, a forest's tables merged
at their breakpoints), rebuilt each time the sweep turns to an axis: when the
flipped labels form one run from the current coordinate, the move is that
run's far end, read in one step; otherwise the halving descent runs on the
table, one bisection per probe. The sampling generator is built only when
the training-data scan misses. The uniform samples come from
``regions.sample_blocks`` and are labelled one block at a time, one
``predict_arrays`` call each; a block's rows are the points that one
``sample_point`` call after another would draw from the same generator, so
the first hit, and every answer, is theirs. Server-side
computation (including every predict issued internally) is not billed; only
``query`` calls count.

The exact mode is deterministic: among all minimizers it returns the
lexicographically smallest point (``FeatureSchema.lex_key``), so the answer,
not only its distance, is a function of the query. For a tree,
``exact_tree_cf`` runs a branch-and-bound descent restricted to the region, in
Python ints, visiting only subtrees whose box can still hold a point as near
as the best found (the per-leaf search of Carreira-Perpiñán & Hada, AAAI 2021,
run as one pruned descent). It follows the child on the query's side in place
and stacks only the far child; a candidate's lexicographic key is computed
only when its distance ties the best. Every model is served by the same
descent, on the one tree it is served as (``tree(cap)``, see ``models``): a
tree is its own, a forest the tree it compiles to. That tree computes the
model's function, and the answer depends on nothing else; the oracle never
asks the model its kind.

Where the checks of a query live: ``query`` refuses a point or region whose
arity is not the schema's. ``contains`` is the one membership test: in exact
mode ``exact_tree_cf`` checks with it that the point lies in the region, in
heuristic mode ``query`` does. The query's label comes, in exact mode, from
the descent itself (the first leaf it reaches holds ``x``), so the target is
walked once per query; in heuristic mode ``query`` calls ``predict``. Either
way, ``query`` checks every answer before billing it: the counterfactual lies
in the region (``contains``) and ``predict`` gives it another label than the
query's.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from math import inf
from typing import Callable, Sequence

import numpy as np

from .distances import Distance
from .errors import ContractViolation, UnsupportedModelError
from .models import UNKNOWN, Leaf, Model, SplitNode, TreeModel
from .regions import Region, contains, sample_blocks
from .schema import FeatureSchema, Point

ORACLE_MODES = ("exact", "heuristic")


@dataclass
class OracleConfig:
    distance: str = "l2"
    mode: str = "exact"  # one of ORACLE_MODES
    sample_budget: int = 1000  # uniform draws tried by the heuristic search
    cell_cap: int = 100_000  # max leaves of the tree a forest compiles to (exact mode)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ORACLE_MODES:
            raise ContractViolation(f"unknown oracle mode {self.mode!r}")
        if self.sample_budget < 1:
            raise ContractViolation("sample_budget must be >= 1")
        if self.cell_cap < 1:
            raise ContractViolation("cell_cap must be >= 1")


@dataclass(frozen=True, slots=True)
class QueryRecord:
    index: int
    x: Point
    region: Region
    label: int
    counterfactual: Point | None


class QueryLog:
    """The billing meter: ``count`` is the number of API calls billed so far.

    It keeps no record. Each billed ``QueryRecord`` goes to ``sink``, if one
    is given (for example ``list.append``, or a writer of a query trace), as
    the call is billed; with no sink it is dropped once the caller is done
    with it, and with it the queried region, so memory does not grow with
    the number of queries.
    """

    __slots__ = ("count", "sink")

    def __init__(self, sink: Callable[[QueryRecord], object] | None = None):
        self.count = 0
        self.sink = sink

    def bill(self, x: Point, region: Region, label: int,
             counterfactual: Point | None) -> QueryRecord:
        record = QueryRecord(self.count, x, region, label, counterfactual)
        self.count += 1
        if self.sink is not None:
            self.sink(record)
        return record


def exact_tree_cf(target: TreeModel, x: Point, region: Region,
                  dist: Distance) -> tuple[int | None, Point | None]:
    """The label of ``x`` and the globally nearest label flip inside
    ``region``, for a single tree: ``(label, counterfactual)``.

    A depth-first branch-and-bound descent of the tree, restricted to
    ``region``. Each stack entry is a node with its box (a ``Region``'s
    ``(lo, hi)`` pairs and allowed sets, cut from the region's) and the scaled
    distance from ``x`` to its projection on that box, which bounds every leaf
    below. A split changes one axis term, a category test one group term. The
    descent follows the child on x's side in place, keeping the bound, and
    pushes only the far child, with its grown bound, when that bound can still
    tie the best distance found; so the first leaf reached is the one that
    holds ``x`` (distance 0), and its label is the ``label`` returned (None
    for an unknown leaf), with no second descent. A subtree is dropped only
    when its bound is strictly greater than the best distance found, so every
    tied label-flipping leaf is seen; the counterfactual is the
    lexicographically smallest of their projections, whose keys are computed
    only when two of them tie. Arithmetic is in Python ints, so it is exact
    for any grid. A ``None`` counterfactual certifies that no flip point
    exists in the region.

    Each box is cut as ``cut`` cuts it, written inline: the cut is fused with
    the bound of the far side and the choice of which side is near.
    """
    if not contains(region, x):
        raise ContractViolation("query point outside region")
    xi, xc = x.ivals, x.cats
    w = dist.weights
    l2 = dist.kind == "l2"
    group_term = dist.group_term
    lex_key = target.schema.lex_key
    nodes = target.nodes
    y = None
    own_leaf_seen = False
    best = inf  # until a flip leaf is found; Python compares int and float exactly
    best_point = best_key = None  # the key only once a tie needs it
    stack = [(target.root, region.intervals, region.allowed, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, ivs, allowed, d = pop()
        if d > best:
            continue
        node = nodes[i]
        kind = type(node)
        # Follow x's side in place: its bound stays d, and best cannot change
        # before a leaf, so it needs no check. The far child's bound can only
        # grow; it is pushed, to be explored after this descent.
        while kind is not Leaf:
            if kind is SplitNode:
                a, t = node.iv_axis, node.threshold
                la, hb = ivs[a]
                if t >= hb:
                    i = node.left
                elif t < la:
                    i = node.right
                else:
                    v = xi[a]
                    if v <= t:
                        old = (la - v) * w[a] if v < la else 0
                        new = (t + 1 - v) * w[a]
                        d_far = d - old * old + new * new if l2 else d - old + new
                        if d_far <= best:
                            push((node.right, ivs[:a] + ((t + 1, hb),) + ivs[a + 1:], allowed,
                                  d_far))
                        i, ivs = node.left, ivs[:a] + ((la, t),) + ivs[a + 1:]
                    else:
                        old = (v - hb) * w[a] if v > hb else 0
                        new = (v - t) * w[a]
                        d_far = d - old * old + new * new if l2 else d - old + new
                        if d_far <= best:
                            push((node.left, ivs[:a] + ((la, t),) + ivs[a + 1:], allowed, d_far))
                        i, ivs = node.right, ivs[:a] + ((t + 1, hb),) + ivs[a + 1:]
            else:
                g, c = node.group, node.category
                s = allowed[g]
                if c not in s:
                    i = node.right
                elif len(s) == 1:
                    i = node.left
                else:
                    head, tail = allowed[:g], allowed[g + 1:]
                    xg = xc[g]
                    d_far = d + group_term if xg in s else d  # else both sides already pay it
                    if xg == c:
                        if d_far <= best:
                            push((node.right, ivs, head + (s - {c},) + tail, d_far))
                        i, allowed = node.left, head + (frozenset((c,)),) + tail
                    else:
                        if d_far <= best:
                            push((node.left, ivs, head + (frozenset((c,)),) + tail, d_far))
                        i, allowed = node.right, head + (s - {c},) + tail
            node = nodes[i]
            kind = type(node)
        if not own_leaf_seen:
            own_leaf_seen = True
            y = node.label
            if y is not None:  # an unknown label agrees with nothing, even itself
                continue
        elif y is not None and node.label == y:
            continue
        point = Point(
            tuple([a if v < a else b if v > b else v for v, (a, b) in zip(xi, ivs)]),
            tuple([c if c in s else min(s) for c, s in zip(xc, allowed)]),
        )
        if d < best:
            best, best_point, best_key = d, point, None
        else:  # d == best: the descent never reaches a leaf past the bound
            if best_key is None:
                best_key = lex_key(best_point)
            key = lex_key(point)
            if key < best_key:
                best_point, best_key = point, key
    return y, best_point


def exact_ensemble_cf(target: Model, x: Point, region: Region,
                      dist: Distance, cell_cap: int) -> tuple[int | None, Point | None]:
    """Exact oracle for any model: ``exact_tree_cf`` on the one tree the
    model is served as (``target.tree(cell_cap)``: a tree itself, a forest
    the tree it compiles to), and its ``(label, counterfactual)`` pair. The
    answer depends only on the prediction function, so both are the model's
    own: the label is ``target.predict(x)``. Raises CapacityError when a forest
    compiles to more than ``cell_cap`` leaves (use the heuristic mode then);
    the cap does not bound a tree.
    """
    return exact_tree_cf(target.tree(cell_cap), x, region, dist)


def line_search(target: Model, x: Point, x_cand: Point) -> Point:
    """Pull a valid counterfactual toward ``x`` axis by axis on the grid.

    Sweeps axes in ascending order, repeatedly: each differing interval
    coordinate moves toward the query as far as the label stays flipped
    (doubling steps, so long runs cost log probes); differing categories snap
    back to the query's category when that keeps the flip. At the fixpoint no
    single-axis one-step move toward ``x`` preserves the flip, which makes the
    result locally optimal.

    An interval move is read off the target's segment table along the axis
    being swept (``target.line_segments`` over the span between the current
    coordinate ``v`` and the query's, ``home``, every other coordinate fixed),
    built once each time the sweep turns to an axis, since the other
    coordinates may have moved since its last visit. The greedy halving
    descent moves from ``v`` by the largest step that lands on a flipped
    label, and tries the same step again after each move. When the flipped
    labels form one run that starts at ``v`` (every label past it is the
    query's), each step lands inside the run exactly when it does not pass the
    run's far end, so the descent stops at that end, or at ``home`` when the
    run reaches it: that end is taken in one step. Otherwise the same descent
    runs, each probe a bisection of the table. Category probes call
    ``predict``.
    """
    y = target.predict(x)
    if target.predict(x_cand) == y:
        raise ContractViolation("line_search needs a label-flipped start point")
    ivals = list(x_cand.ivals)
    cats = list(x_cand.cats)
    moved = True
    while moved:
        moved = False
        for i, home in enumerate(x.ivals):
            v = ivals[i]
            if v == home:
                continue
            up = home > v
            starts, labels = target.line_segments(ivals, cats, i, min(v, home), max(v, home))
            flips = [label != y for label in labels]
            run = flips.count(True)  # segments in the flipped run, when it is one
            if run == len(flips):
                end = home
            elif up and all(flips[:run]):
                end = starts[run] - 1
            elif not up and all(flips[-run:]):
                end = starts[-run]
            else:  # the descent itself, each probe read off the table
                direction = 1 if up else -1
                end = v
                step = 1 << (abs(home - v).bit_length() - 1)
                while step:
                    if step <= abs(home - end):
                        trial = end + direction * step
                        if flips[bisect_right(starts, trial) - 1]:
                            end = trial
                            continue
                    step >>= 1
            if end != v:
                ivals[i] = end
                moved = True
        for g in range(len(cats)):
            if cats[g] != x.cats[g]:
                probe = Point(tuple(ivals), tuple(cats[:g] + [x.cats[g]] + cats[g + 1:]))
                if target.predict(probe) != y:
                    cats[g] = x.cats[g]
                    moved = True
    return Point(tuple(ivals), tuple(cats))


def heuristic_cf(target: Model, x: Point, y: int | None, region: Region,
                 training_data: Sequence[Point] | None, sample_budget: int,
                 make_rng: Callable[[], np.random.Generator]) -> Point | None:
    """Training-data scan, then uniform sampling, then line-search refinement.

    ``y`` is the query's label, ``target.predict(x)``. ``make_rng()`` gives
    the sampling generator; it is called only when the scan finds no flip
    and sampling starts.

    The ``sample_budget`` uniform draws come from ``sample_blocks``, in
    growing blocks whose rows are the points that successive
    ``sample_point`` calls draw from the same generator, in order.
    ``predict_arrays`` labels each block, and the first row of another label
    than ``y`` is the hit: the point the per-point search would hit, and the
    rows drawn past it are only thrown away, since the generator is the
    query's own.

    Returns a locally optimal counterfactual when the search hits one;
    ``None`` only means the search failed, not that none exists.
    """
    if training_data:
        for p in training_data:
            if contains(region, p) and target.predict(p) != y:
                return line_search(target, x, p)
    y_row = UNKNOWN if y is None else y
    for iv, cats in sample_blocks(region, make_rng(), sample_budget):
        flips = np.flatnonzero(target.predict_arrays(iv, cats) != y_row)
        if flips.size:
            i = flips[0]
            return line_search(target, x, Point(tuple(iv[i].tolist()), tuple(cats[i].tolist())))
    return None


class CounterfactualOracle:
    """Serves one fixed target model; every ``query`` call bills the meter,
    ``log``, which hands the billed record to ``sink`` if one is given.

    The label set of the target is treated as public API metadata (attacks
    use it to tell binary tasks apart from multi-class ones). A target with
    unknown leaves is refused (``UnsupportedModelError``): such a leaf agrees
    with no label, so no answer about it would be a model's.
    """

    def __init__(self, target: Model, config: OracleConfig | None = None,
                 training_data: Sequence[Point] | None = None,
                 sink: Callable[[QueryRecord], object] | None = None):
        if any(t.is_partial for t in target.trees):
            raise UnsupportedModelError("the counterfactual oracle serves no target with "
                                        "unknown leaves (a null label)")
        self.target = target
        self.schema: FeatureSchema = target.schema
        self.config = config or OracleConfig()
        self.distance = Distance(self.schema, self.config.distance)
        self.training_data = tuple(training_data) if training_data else ()
        self.log = QueryLog(sink)
        self.labels: tuple[int, ...] = target.labels
        self._arity = (len(self.schema.iv_sizes), len(self.schema.group_sizes))

    def _rng_for(self, region: Region):
        fingerprint = zlib.crc32(repr(
            (region.intervals, tuple(sorted(map(sorted, region.allowed))))
        ).encode())
        return np.random.default_rng(
            np.random.SeedSequence([self.config.seed, fingerprint])
        )

    def _exact(self, x: Point, region: Region) -> tuple[int | None, Point | None]:
        return exact_ensemble_cf(self.target, x, region, self.distance, self.config.cell_cap)

    def query(self, x: Point, region: Region) -> QueryRecord:
        n_iv, n_groups = self._arity
        if (len(x.ivals) != n_iv or len(x.cats) != n_groups
                or len(region.intervals) != n_iv or len(region.allowed) != n_groups):
            raise ContractViolation("query point or region has the wrong arity for the schema")
        if self.config.mode == "exact":
            # the descent checks that x lies in the region, and reads x's label
            # from x's own leaf, the first it reaches
            y, cf = self._exact(x, region)
        else:
            if not contains(region, x):
                raise ContractViolation("query point outside the requested region")
            y = self.target.predict(x)
            cf = heuristic_cf(self.target, x, y, region, self.training_data,
                              self.config.sample_budget, partial(self._rng_for, region))
        if cf is not None and not (contains(region, cf) and self.target.predict(cf) != y):
            raise ContractViolation(
                "counterfactual search returned a point outside the region or with "
                "the query's label"
            )
        return self.log.bill(x, region, y, cf)
