"""The four benchmark workloads and their correctness gates.

Each workload builds its target from the workload seed (the program only ever
sees the generated target). A set-up does what a user pays once per target:
build it, construct the oracle and warm the target's lazy geometry. A round
then runs the attack calls, each against a fresh oracle so that billing
starts from zero, and the checks a user runs on their result. A round holds
one operation per attack; an operation fails on an exception, on a TRA or
PathFinding result that is not certified equivalent to the target, or on a
pinned count that does not match. Failures are recorded, never raised, so one
bad round does not end the run.

Random targets come from a size class. Each random workload maps ``--seed``
to an entry of its ``TARGETS`` table, ``TARGETS[seed % len(TARGETS)]``: a
generator seed whose target makes about the same amount of work as entry 0
in set-up, attack and verify alike (see ``perfbench/scan.py``); entry 0 is
generator seed 0, the workload's reference target. Without the size
class one seed's target can bill five times the queries of another's, and no
bound would hold across seeds. Every entry pins the counts that target must
reproduce; ``perfbench/scan.py`` regenerates the tables.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from time import perf_counter

import numpy as np

import cfextract as cx

PHASES = ("setup", "attack", "verify")


class Phases:
    """Wall time per benchmark phase; with a tracer, each phase is a root span.

    Every phase starts from a collected heap, so that when the garbage
    collector runs inside it does not depend on what ran before.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = {name: 0.0 for name in PHASES}

    def __call__(self, name: str):
        return _PhaseBlock(self, name)


class _PhaseBlock:
    def __init__(self, phases: Phases, name: str):
        self.phases = phases
        self.name = name

    def __enter__(self):
        gc.collect()
        tracer = self.phases.tracer
        self.span = tracer.begin(self.name) if tracer is not None else None
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.phases.seconds[self.name] += perf_counter() - self.t0
        if self.span is not None:
            self.phases.tracer.end(self.span)
        return False


@dataclass
class Round:
    """Results of one round: every attack of the workload plus its checks."""

    queries: int = 0
    fidelities: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # the pinnable numbers, by name

    def operation(self, label: str, run) -> None:
        """Run one attack-plus-checks operation; a failure is recorded."""
        self.attempted += 1
        try:
            problems = run()
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


def _pin(problems: list[str], what: str, got, want) -> None:
    if want is not None and got != want:
        problems.append(f"{what} is {got}, pinned {want}")


def _pin_all(problems: list[str], entry, counts: dict) -> None:
    """Pin each count to the field of the same name in a ``TARGETS`` entry."""
    for name, got in counts.items():
        _pin(problems, name, got, getattr(entry, name))


def _equivalent(problems: list[str], verdict: tuple) -> bool:
    ok, witness = verdict
    if not ok:
        problems.append(f"not equivalent to the target (witness {witness})")
    return ok


def _fidelity(equivalent: bool, target, model, schema) -> float:
    """Uniform agreement of a TRA result: exactly 1 once equivalence on the
    whole grid is shown, else sampled (outside the timed phases)."""
    if equivalent:
        return 1.0
    return cx.fidelity(target, model, schema).fidelity


def _certified(problems: list[str], result) -> None:
    if not result.certified:
        problems.append("result is not certified")


# -- tree-mixed ------------------------------------------------------------------


@dataclass(frozen=True)
class TreeTarget:
    gen_seed: int
    boxes: int  # leaf boxes of the target, built in set-up
    queries: int
    leaves: int  # leaves of the result, walked by the equivalence check


class TreeMixed:
    """TRA with the exact L2 oracle, snapshots off, on a depth-7 random tree
    over numeric, ordinal and one-hot axes."""

    name = "tree-mixed"
    STEP = Fraction(1, 1024)
    # size class of generator seed 0 (scan.py found no other below 350)
    TARGETS = (
        TreeTarget(gen_seed=0, boxes=128, queries=4187, leaves=2354),
    )

    def __init__(self, depth: int = 7, targets: tuple | None = None):
        self.depth = depth
        self.targets = self.TARGETS if targets is None else targets

    def schema(self):
        return cx.FeatureSchema(
            [cx.NumericFeature(f"x{i}", 0, 1, self.STEP) for i in range(4)]
            + [cx.OrdinalFeature("level", 16),
               cx.CategoricalFeature("colour", ("red", "green", "blue", "grey"))]
        )

    def setup(self, seed: int):
        entry = self.targets[seed % len(self.targets)]
        schema = self.schema()
        target = cx.gen_random_tree(schema, self.depth, entry.gen_seed)
        cx.CounterfactualOracle(target)
        boxes = len(target.box_set().regions)
        return entry, schema, target, boxes

    def round(self, ctx, phases: Phases) -> Round:
        entry, schema, target, boxes = ctx
        out = Round()

        def operation():
            problems: list[str] = []
            oracle = cx.CounterfactualOracle(target)
            with phases("attack"):
                result = cx.tra_extract(oracle, snapshot_every=0)
            with phases("verify"):
                verdict = cx.functional_equivalence(target, result.model, schema)
            equivalent = _equivalent(problems, verdict)
            _certified(problems, result)
            counts = dict(boxes=boxes, queries=result.log.count,
                          leaves=len(result.model.leaf_regions()))
            _pin_all(problems, entry, counts)
            out.queries += result.log.count
            out.counts.update(counts)
            out.fidelities.append(_fidelity(equivalent, target, result.model, schema))
            return problems

        out.operation("tra", operation)
        return out


# -- adversarial-anytime ---------------------------------------------------------


class AdversarialAnytime:
    """TRA on the single-branch worst case with the CLI's snapshot default,
    then anytime fidelity over the snapshots on uniform points."""

    name = "adversarial-anytime"
    SNAPSHOT_EVERY = 20

    def __init__(self, s: tuple[int, ...] = (20, 20), eval_points: int = 3000):
        self.s = s
        self.eval_points = eval_points

    def setup(self, seed: int):
        target = cx.gen_adversarial(cx.AdversarialSpec(self.s))
        cx.CounterfactualOracle(target)
        target.box_set()
        points = cx.uniform_points(target.schema, self.eval_points, seed)
        return target, points

    def round(self, ctx, phases: Phases) -> Round:
        target, points = ctx
        schema = target.schema
        worst_case = 2 * prod(v + 1 for v in self.s) - 1
        out = Round()

        def operation():
            problems: list[str] = []
            oracle = cx.CounterfactualOracle(target)
            with phases("attack"):
                result = cx.tra_extract(oracle, snapshot_every=self.SNAPSHOT_EVERY)
            with phases("verify"):
                verdict = cx.functional_equivalence(target, result.model, schema)
                curve = cx.anytime_fidelity([(target, result.snapshots, points)],
                                            checkpoint=self.SNAPSHOT_EVERY)
            _equivalent(problems, verdict)
            _certified(problems, result)
            _pin(problems, "queries", result.log.count, worst_case)
            _pin(problems, "bound_report worst case",
                 cx.bound_report(target).worst_case_queries, worst_case)
            _pin(problems, "final anytime fidelity", curve[-1], (result.log.count, 1.0))
            out.queries += result.log.count
            out.fidelities.append(curve[-1][1])
            return problems

        out.operation("tra", operation)
        return out


# -- forest-exact ----------------------------------------------------------------


@dataclass(frozen=True)
class ForestTarget:
    gen_seed: int
    cells: int  # split-level cells of the forest, enumerated in set-up
    queries: int
    leaves: int  # leaves of the result, walked by the equivalence check


class ForestExact:
    """TRA with the exact oracle, snapshots off, on a random forest whose
    split-level cells fit the oracle's cap."""

    name = "forest-exact"
    AXES = 5
    STEP = Fraction(1, 256)
    CELL_CAP = 100_000
    # size class of generator seed 0 (scan.py found only 153 below 600)
    TARGETS = (
        ForestTarget(gen_seed=0, cells=9600, queries=191, leaves=105),
        ForestTarget(gen_seed=153, cells=9600, queries=189, leaves=99),
    )

    def __init__(self, n_trees: int = 4, depth: int = 3, targets: tuple | None = None):
        self.n_trees = n_trees
        self.depth = depth
        self.targets = self.TARGETS if targets is None else targets

    def schema(self):
        return cx.FeatureSchema(
            [cx.NumericFeature(f"x{i}", 0, 1, self.STEP) for i in range(self.AXES)]
        )

    def setup(self, seed: int):
        entry = self.targets[seed % len(self.targets)]
        schema = self.schema()
        target = cx.gen_random_forest(schema, self.n_trees, self.depth, entry.gen_seed)
        config = cx.OracleConfig(cell_cap=self.CELL_CAP)
        cx.CounterfactualOracle(target, config)
        cells = len(target.cell_box_set(self.CELL_CAP).regions)
        return entry, schema, target, config, cells

    def round(self, ctx, phases: Phases) -> Round:
        entry, schema, target, config, cells = ctx
        out = Round()

        def operation():
            problems: list[str] = []
            oracle = cx.CounterfactualOracle(target, config)
            with phases("attack"):
                result = cx.tra_extract(oracle, snapshot_every=0)
            with phases("verify"):
                verdict = cx.functional_equivalence(target, result.model, schema)
            equivalent = _equivalent(problems, verdict)
            _certified(problems, result)
            counts = dict(cells=cells, queries=result.log.count,
                          leaves=len(result.model.leaf_regions()))
            _pin_all(problems, entry, counts)
            out.queries += result.log.count
            out.counts.update(counts)
            out.fidelities.append(_fidelity(equivalent, target, result.model, schema))
            return problems

        out.operation("tra", operation)
        return out


# -- baselines -------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineTarget:
    gen_seed: int
    boxes: int  # leaf boxes of the target, built in set-up
    pathfinding_queries: int
    cf_fidelity: float
    dualcf_fidelity: float


class Baselines:
    """CF and DualCF against the heuristic oracle, then PathFinding at grid
    precision, on one random tree; no TRA."""

    name = "baselines"
    AXES = 6
    STEP = Fraction(1, 1024)
    SNAPSHOT_EVERY = 20
    # size class of generator seed 0 (scan.py found only 25 below 80)
    TARGETS = (
        BaselineTarget(gen_seed=0, boxes=32, pathfinding_queries=1751,
                       cf_fidelity=0.8733333333333333, dualcf_fidelity=0.816),
        BaselineTarget(gen_seed=25, boxes=32, pathfinding_queries=1693,
                       cf_fidelity=0.935, dualcf_fidelity=0.8953333333333333),
    )

    def __init__(self, depth: int = 5, server_sample: int = 500, sample_budget: int = 1000,
                 budget: int = 300, fidelity_points: int = 3000,
                 targets: tuple | None = None):
        self.depth = depth
        self.server_sample = server_sample
        self.sample_budget = sample_budget
        self.budget = budget
        self.fidelity_points = fidelity_points
        self.targets = self.TARGETS if targets is None else targets

    def schema(self):
        return cx.FeatureSchema(
            [cx.NumericFeature(f"x{i}", 0, 1, self.STEP) for i in range(self.AXES)]
        )

    def setup(self, seed: int):
        entry = self.targets[seed % len(self.targets)]
        schema = self.schema()
        target = cx.gen_random_tree(schema, self.depth, entry.gen_seed)
        # the server's labeled sample, drawn as `cfextract attack` draws it
        rng = np.random.default_rng(entry.gen_seed + 7_777_777)
        domain = cx.full_region(schema)
        sample = [cx.sample_point(domain, rng) for _ in range(self.server_sample)]
        config = cx.OracleConfig(mode="heuristic", sample_budget=self.sample_budget,
                                 seed=entry.gen_seed)
        cx.CounterfactualOracle(target, config, training_data=sample)
        boxes = len(target.box_set().regions)
        points = cx.uniform_points(schema, self.fidelity_points, entry.gen_seed)
        return entry, schema, target, config, sample, points, boxes

    def round(self, ctx, phases: Phases) -> Round:
        entry, schema, target, config, sample, points, boxes = ctx
        out = Round()
        surrogate = cx.SurrogateSpec(train=cx.TrainConfig(seed=entry.gen_seed))

        def surrogate_attack(label, attack):
            def operation():
                problems: list[str] = []
                oracle = cx.CounterfactualOracle(target, config, training_data=sample)
                with phases("attack"):
                    result = attack(oracle, cx.AttackBudget(self.budget), surrogate,
                                    seed=entry.gen_seed, snapshot_every=self.SNAPSHOT_EVERY)
                with phases("verify"):
                    cx.anytime_fidelity([(target, result.snapshots, points)],
                                        checkpoint=self.SNAPSHOT_EVERY)
                    fid = cx.fidelity(target, result.model, schema,
                                      n_samples=self.fidelity_points,
                                      seed=entry.gen_seed).fidelity
                _pin(problems, "queries", result.log.count, self.budget)
                _pin_all(problems, entry, {f"{label}_fidelity": fid})
                out.queries += result.log.count
                out.fidelities.append(fid)
                out.counts[f"{label}_fidelity"] = fid
                return problems
            return operation

        def pathfinding():
            problems: list[str] = []
            oracle = cx.LeafIdOracle(target)
            eps = min(axis.step for axis in schema.interval_axes)
            with phases("attack"):
                model, log = cx.pathfinding_extract(oracle, schema, eps)
            with phases("verify"):
                verdict = cx.functional_equivalence(target, model, schema)
            _equivalent(problems, verdict)
            counts = dict(boxes=boxes, pathfinding_queries=log.count)
            _pin_all(problems, entry, counts)
            out.queries += log.count
            out.counts.update(counts)
            return problems

        out.operation("cf", surrogate_attack("cf", cx.cf_attack))
        out.operation("dualcf", surrogate_attack("dualcf", cx.dualcf_attack))
        out.operation("pathfinding", pathfinding)
        return out


WORKLOADS = {w.name: w for w in (TreeMixed, AdversarialAnytime, ForestExact, Baselines)}
