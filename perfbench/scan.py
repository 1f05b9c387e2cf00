"""Find the generator seeds of a random workload's size class.

    python3 perfbench/scan.py --workload tree-mixed --from 0 --to 200

For each generator seed in the range, builds the workload's target, runs a
round of the workload and prints a ``TARGETS`` entry, with the counts it pins,
for every target in the size class of generator seed 0. A target is in the
class when its pinned work counts are near those of seed 0 and so is the
fastest time of every timed phase (set-up, attack and verify) over a few
rounds that alternate with rounds on seed 0's target. Counts alone do not
bound the time: the baselines' CART retraining and PathFinding's region
algebra vary twofold between trees of one query count. Run the scan on an
otherwise idle machine; the entries it prints pin only counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from run import _setup_and_round, import_program

import_program()

from workloads import PHASES, WORKLOADS, Phases  # noqa: E402

# largest relative distance from seed 0 of each count and fastest phase time
CLASSES = {
    "tree-mixed": {"queries": 0.02, "leaves": 0.05,
                   "setup": 0.1, "attack": 0.05, "verify": 0.05},
    "forest-exact": {"cells": 0.05, "queries": 0.05, "leaves": 0.1,
                     "setup": 0.1, "attack": 0.05, "verify": 0.05},
    "baselines": {"pathfinding_queries": 0.05,
                  "setup": 0.1, "attack": 0.05, "verify": 0.05},
}
REPEATS = 4  # alternating pairs of timed rounds per candidate


def _near(value, ref, tolerance: float) -> bool:
    return abs(value - ref) <= tolerance * ref


def _workload(kind, gen_seed: int):
    """The workload on the one target of ``gen_seed``, with no counts pinned."""
    blank = {f.name: None for f in dataclasses.fields(kind.TARGETS[0])
             if f.name != "gen_seed"}
    return kind(targets=(type(kind.TARGETS[0])(gen_seed, **blank),))


def _timed(workload, fastest: dict):
    """Set up and run one round; lower ``fastest`` to this run's phase times."""
    phases = Phases()
    result = _setup_and_round(workload, 0, phases)
    for name in PHASES:
        fastest[name] = min(fastest.get(name, float("inf")), phases.seconds[name])
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CLASSES))
    p.add_argument("--from", dest="start", type=int, default=0)
    p.add_argument("--to", dest="stop", type=int, default=100)
    args = p.parse_args(argv)

    kind = WORKLOADS[args.workload]
    tolerance = CLASSES[args.workload]
    entry_type = type(kind.TARGETS[0])
    pinned = [f.name for f in dataclasses.fields(entry_type) if f.name != "gen_seed"]
    reference = _workload(kind, 0)
    ref = _timed(reference, {}).counts
    for gen_seed in range(args.start, args.stop):
        workload = _workload(kind, gen_seed)
        result = _timed(workload, {})
        if result.failures:
            print(f"# {gen_seed}: {result.failures}", file=sys.stderr)
            continue
        if not all(_near(result.counts[k], ref[k], t)
                   for k, t in tolerance.items() if k in ref):
            continue
        # rounds alternate with the reference's, so that drift of the host
        # between targets does not enter the comparison
        fastest: dict = {}
        ref_fastest: dict = {}
        for _ in range(REPEATS):
            _timed(reference, ref_fastest)
            _timed(workload, fastest)
        if all(_near(fastest[k], ref_fastest[k], t)
               for k, t in tolerance.items() if k in PHASES):
            entry = entry_type(gen_seed, **{k: result.counts[k] for k in pinned})
            ratios = ", ".join(f"{k} {fastest[k] / ref_fastest[k]:.3f}" for k in PHASES)
            print(f"        {entry!r},  # time / seed 0's: {ratios}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
