"""Region-queue model extraction through counterfactual queries (``tra``).

The attack maintains a queue of unexplored regions, initially the whole
domain. Each iteration pops a region, queries its center (one billed call
returning label + optional in-region counterfactual), and either finalizes
the region as a leaf (no counterfactual: the region is label-constant under
an exact oracle) or splits it along the axes where the counterfactual differs
from the query, materializing the cuts as tree nodes. Pieces on the query's
side inherit its label provisionally; the counterfactual's side gets the
complementary label in binary tasks and stays unknown otherwise, so partial
models are honest about unexplored space.

With an exact oracle the final tree is functionally equivalent to the target
on the entire grid. The queue order (FIFO, LIFO, random) shapes anytime
behavior only; the regions created, the final model, and the total query
count do not depend on it.

Each answer is one call on the run's ``ExtractionState``: ``finalize`` turns
the region's slot into a leaf and counts its volume (the domain is validated
once, and ``split`` only cuts it), and ``expand`` applies a split, appending
both slots of each peeled piece at once and resolving the split slot by index.
TRA adds no check of its own on the query path. ``query`` checks that the
center lies in the region and that the counterfactual lies in it with another
label; ``split`` checks both points against the region in the pass that finds
their differing axes, and validates each piece it returns.

Snapshots are lazy. The node store only appends slots and resolves pending
ones, and it stamps each slot with the query that resolved it, so the partial
tree at any earlier query can be rebuilt from it. A snapshot is therefore a
query count and a store size, taken in O(1); its ``model`` is built on first
read. ``evaluation.anytime_fidelity`` builds no trees at all: it reads only
the resolution stamps, since a point's predicted label changes only at the
stamps of the slots on its path from the root.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ContractViolation
from .models import Leaf, Model, Node, TreeModel
from .oracles import CounterfactualOracle, QueryLog
from .regions import Region, center, full_region, grid_volume, split

QUEUE_ORDERS = ("fifo", "lifo", "random")
_PENDING = math.inf  # resolution stamp of a slot no query has resolved yet


class Snapshot:
    """The extraction after ``queries`` billed queries.

    Built with a ``model`` (the baselines' surrogates, hand-made snapshots),
    it carries that model. TRA builds it with no model, from its run's
    ``state`` and the number of slots (``size``) the node store held then;
    ``model`` is that partial tree, built from the state's record on first
    read and kept. Anytime fidelity never reads it: it replays the record.
    """

    __slots__ = ("queries", "certified_fraction", "state", "size", "_model")

    def __init__(self, queries: int, model: Model | None, certified_fraction: Fraction,
                 *, state: ExtractionState | None = None, size: int = 0):
        if (model is None) == (state is None):
            raise ContractViolation("a snapshot takes either a model or an extraction state")
        self.queries = queries
        self.certified_fraction = certified_fraction
        self.state = state
        self.size = size
        self._model = model

    @property
    def model(self) -> Model:
        if self._model is None:
            self._model = self.state.materialize(self.queries, self.size)
        return self._model

    def __repr__(self) -> str:
        return (f"Snapshot(queries={self.queries}, "
                f"certified_fraction={self.certified_fraction})")


def take_snapshot(snapshots: list, queries: int, every: int, take) -> None:
    """Append ``take()`` once the billed count ``queries`` has passed a
    multiple of ``every`` (if not 0) since the last snapshot. Every attack
    snapshots by this rule, and at its end by it with ``every`` 1: a final
    snapshot unless the last is already at the final count. A snapshot need
    only have its ``queries``: the surrogate attacks take marks that they
    train into snapshots when they end."""
    last = snapshots[-1].queries if snapshots else 0
    if every and queries // every > last // every:
        snapshots.append(take())


def other_label(labels: tuple[int, ...], y: int) -> int:
    """The label of a binary task that is not ``y``: a counterfactual's label,
    known without a query."""
    return labels[0] if y == labels[1] else labels[1]


@dataclass
class AttackResult:
    model: TreeModel
    log: QueryLog
    snapshots: list[Snapshot]
    method: str
    certified: bool  # equivalent by construction: TRA under the exact oracle


class ExtractionState:
    """Node store plus work queue; regions in flight partition the domain.

    The store is three parallel lists indexed by slot. ``nodes[s]`` is the
    slot's tree node once a query resolved it and ``None`` before;
    ``provisional[s]`` is the label its leaf shows while pending; and
    ``resolved_at[s]`` is the billed query count after the resolving query,
    ``math.inf`` before. Slots are only appended and resolved once, so the
    tree as it stood after any earlier query can be rebuilt from this record.
    Along every root-to-leaf path of the store, ``resolved_at`` never
    decreases: a child slot is created by the query that resolves its parent,
    and a query's chain of continuation slots shares that one stamp. A store
    seeded from a prior tree, its internal nodes stamped 0, would keep this
    too. The anytime replay (``evaluation._replay``) rests on it.
    An answer changes the store in one call, ``finalize`` or ``expand``;
    ``push``, which enforces ``max_regions``, is the only way onto the queue.
    """

    def __init__(self, oracle: CounterfactualOracle, order: str, order_seed: int,
                 max_regions: int):
        if order not in QUEUE_ORDERS:
            raise ContractViolation(f"unknown queue order {order!r}")
        self.oracle = oracle
        self.schema = oracle.schema
        self.order = order
        self.rng = np.random.default_rng(order_seed) if order == "random" else None
        self.max_regions = max_regions
        self.total_volume = grid_volume(full_region(self.schema), self.schema)
        self.finalized_volume = 0
        self.nodes: list[Node | None] = [None]
        self.provisional: list[int | None] = [None]
        self.resolved_at: list[float] = [_PENDING]
        self.queue: deque[tuple[Region, int]] = deque()
        self.queue.append((full_region(self.schema), 0))

    @property
    def finalized_fraction(self) -> Fraction:
        """Share of grid volume inside finalized leaves. Under the exact
        oracle a region is finalized only when no other label occurs in it,
        so the share is certified and lower-bounds uniform fidelity at any
        point of the run. A heuristic oracle finalizes the regions where its
        search missed a counterfactual too, so there it certifies nothing."""
        return Fraction(self.finalized_volume, self.total_volume)

    def pop(self) -> tuple[Region, int]:
        if self.order == "fifo":
            return self.queue.popleft()
        if self.order == "lifo":
            return self.queue.pop()
        i = int(self.rng.integers(len(self.queue)))
        self.queue.rotate(-i)
        item = self.queue.popleft()
        self.queue.rotate(i)
        return item

    def push(self, region: Region, slot: int) -> None:
        self.queue.append((region, slot))
        if len(self.nodes) > self.max_regions:
            raise CapacityError(
                f"extraction exceeded the safety bound of {self.max_regions} regions "
                f"(queue={len(self.queue)}, queries={self.oracle.log.count}); "
                "the target may be adversarial or the bound too small"
            )

    def finalize(self, slot: int, label: int, volume: int) -> None:
        """Resolve ``slot`` to a leaf of ``label`` whose region holds
        ``volume`` grid points: the answer held no counterfactual."""
        self.nodes[slot] = Leaf(label)
        self.resolved_at[slot] = self.oracle.log.count
        self.finalized_volume += volume

    def expand(self, slot: int, pieces: list[Region], steps: list, label: int,
               cf_label: int | None) -> None:
        """Apply one split of the region at ``slot`` (``regions.split``'s
        ``pieces`` and ``steps``) in one call.

        Each peeled piece appends two slots at once, the piece (pending with
        the query's ``label``) and the continuation (pending with
        ``cf_label``), and the current slot resolves by index to the piece's
        test over them; the piece is queued. The last continuation holds the
        remainder, which is queued pending.
        """
        nodes, provisional, resolved_at = self.nodes, self.provisional, self.resolved_at
        at = self.oracle.log.count
        for piece, (test, x_left) in zip(pieces, steps):
            piece_slot = len(nodes)
            nodes += (None, None)
            provisional += (label, cf_label)
            resolved_at += (_PENDING, _PENDING)
            nodes[slot] = (test.with_children(piece_slot, piece_slot + 1) if x_left
                           else test.with_children(piece_slot + 1, piece_slot))
            resolved_at[slot] = at
            self.push(piece, piece_slot)
            slot = piece_slot + 1
        self.push(pieces[-1], slot)

    def snapshot(self) -> Snapshot:
        """The run now. Its certified fraction is the finalized share under
        the exact oracle, and 0 under a heuristic one."""
        certified = self.finalized_fraction if self.oracle.config.mode == "exact" else Fraction(0)
        return Snapshot(self.oracle.log.count, None, certified, state=self, size=len(self.nodes))

    def materialize(self, queries: int | None = None, size: int | None = None) -> TreeModel:
        """The tree after ``queries`` billed queries, when the store held
        ``size`` slots (by default, the tree now). Slots still pending then
        are leaves with their provisional label."""
        if queries is None:
            queries = self.oracle.log.count
        if size is None:
            size = len(self.nodes)
        nodes = [node if at <= queries else Leaf(label) for node, label, at in
                 zip(self.nodes[:size], self.provisional, self.resolved_at)]
        return TreeModel(self.schema, nodes, root=0)


def tra_extract(
    oracle: CounterfactualOracle,
    *,
    order: str = "fifo",
    order_seed: int = 0,
    snapshot_every: int = 20,
    max_regions: int = 10_000_000,
) -> AttackResult:
    """Run the extraction until the queue drains.

    Returns the reconstructed tree, the oracle's billing meter (its ``count``;
    the records went to the oracle's sink, if it has one), and lazy snapshots
    taken by ``take_snapshot`` every ``snapshot_every`` queries and at
    termination; the last snapshot's model is the returned tree.

    ``max_regions`` bounds the node store's slots; one more raises
    ``CapacityError``. The meter keeps no record, so the store and the queue
    are what a run holds: about 250 B per slot (a random tree of depth 10 on
    ten 1/1024 axes, 5.5 M slots, peaked at 1.4 GB), about 2.5 GB at the
    default bound.
    """
    if snapshot_every < 0:
        raise ContractViolation("snapshot_every must be >= 0")
    state = ExtractionState(oracle, order, order_seed, max_regions)
    schema = oracle.schema
    binary = len(oracle.labels) == 2
    snapshots: list[Snapshot] = []

    while state.queue:
        region, slot = state.pop()
        x = center(region)
        resp = oracle.query(x, region)
        y = resp.label
        if resp.counterfactual is None:
            # split cut this region from the validated domain: no re-validation
            state.finalize(slot, y, region.volume)
        else:
            pieces, steps = split(region, x, resp.counterfactual, schema)
            state.expand(slot, pieces, steps, y,
                         other_label(oracle.labels, y) if binary else None)
        if snapshot_every:
            take_snapshot(snapshots, oracle.log.count, snapshot_every, state.snapshot)

    take_snapshot(snapshots, oracle.log.count, 1, state.snapshot)  # the final one
    if state.finalized_fraction != 1:
        raise ContractViolation(
            f"the queue drained with only {state.finalized_fraction} of the grid "
            "volume in finalized leaves"
        )
    return AttackResult(
        model=snapshots[-1].model,
        log=oracle.log,
        snapshots=snapshots,
        method="tra",
        certified=oracle.config.mode == "exact",
    )
