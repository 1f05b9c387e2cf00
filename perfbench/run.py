"""Benchmark of ``cfextract``: one workload per run, one process, one thread.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tree-mixed --seed 0 --seconds 28 --trace 0

The program is imported from ``src/`` of the same checkout and nowhere else;
without it the run exits with an error and prints no result.

``--trace 0`` repeats rounds for ``--seconds``. A round sets the target up,
runs the attacks and the user's checks on their results, and then times
``reference_work``, a fixed piece of work that uses nothing of the program.
It reports the end-to-end metrics: the median set-up time and the attack and
verify times of the fastest round, all three scaled by ``REFERENCE_SECONDS``
over the fastest ``reference_work``; the medians of the counts; the process's
peak resident memory; and the share of operations that passed their
correctness gates. A round takes a second or less, so a run holds tens of
them. On a shared host both scalings matter. Bursts of delay lasting seconds
move a run's median attack time by a fifth from one run to the next, and its
fastest round by a few hundredths. Slow spells lasting minutes slow every
round of a run alike, and scaling by the reference work takes out most of
them. The unscaled times and the round count go to standard error.

``--trace 1`` alternates an untraced and a traced set-up-plus-round for
``--seconds`` and reports the per-layer metrics of the traced ones (medians
over pairs), with ``trace.overhead_s``, the fastest traced minus the fastest
untraced wall time. It writes the last traced pair's spans to
``.bench_trace/<workload>-seed<seed>.json`` and prints each layer's share of
self time to standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

# seconds that reference_work takes on the host the times are scaled to
REFERENCE_SECONDS = 0.05


def import_program():
    """Import ``cfextract`` from this checkout's ``src/``; exit if it is absent."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import cfextract
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cfextract from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(cfextract.__file__))) != SRC:
        raise SystemExit(f"perfbench: cfextract was imported from {cfextract.__file__}, "
                         f"not from {SRC}")


def _within(seconds: float):
    """Yield once, then again for as long as one more repetition, taking as
    long as the longest so far, would still end within ``seconds``."""
    t0 = last = perf_counter()
    longest = 0.0
    while True:
        yield
        now = perf_counter()
        longest = max(longest, now - last)
        last = now
        if now - t0 + longest > seconds:
            return


def reference_work() -> float:
    """Seconds taken by a fixed piece of interpreter work that uses nothing
    of the program: dictionary stores, string building, ``Fraction``
    arithmetic and small ``numpy`` array operations, the kinds of work the
    program does. A change to the program cannot move it, so times scaled by
    it still show the change."""
    t0 = perf_counter()
    table: dict[int, tuple[int, str]] = {}
    for i in range(120_000):
        table[i % 4096] = (i, str(i))
    total = sum(Fraction(i, 7) for i in range(8_000))
    rows = np.arange(4_096 * 5).reshape(4_096, 5)
    for _ in range(80):
        rows = np.clip(rows * 3 - 7, 0, 1 << 20) % 65_521
    if total <= 0 or rows.shape != (4_096, 5):
        raise RuntimeError("reference work computed nothing")
    return perf_counter() - t0


def _setup_and_round(workload, seed: int, phases):
    with phases("setup"):
        ctx = workload.setup(seed)
    return workload.round(ctx, phases)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure_untraced(workload, seed: int, seconds: float) -> dict:
    from workloads import PHASES, Phases

    rounds = []
    reference = []
    for _ in _within(seconds):
        phases = Phases()
        rounds.append((_setup_and_round(workload, seed, phases), phases.seconds))
        reference.append(reference_work())

    times = {name: [s[name] for _, s in rounds] for name in PHASES}
    scale = REFERENCE_SECONDS / min(reference)
    raw = {"rounds": len(rounds), "reference_s": min(reference), "scale": scale}
    for name in PHASES:
        raw[f"{name}_min_s"] = min(times[name])
        raw[f"{name}_median_s"] = statistics.median(times[name])
    print(f"perfbench: unscaled {json.dumps(raw)}", file=sys.stderr)
    attempted = sum(r.attempted for r, _ in rounds)
    failures = [f for r, _ in rounds for f in r.failures]
    values = {
        "setup_s": raw["setup_median_s"] * scale,
        "attack_s": raw["attack_min_s"] * scale,
        "verify_s": raw["verify_min_s"] * scale,
        "queries": statistics.median(r.queries for r, _ in rounds),
        "peak_rss_mb": _peak_rss_mib(),
        "fidelity": statistics.median(statistics.fmean(r.fidelities) if r.fidelities
                                      else 0.0 for r, _ in rounds),
        "success_rate": 1 - len(failures) / attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units("end_to_end").items()}
    return _result(attempted, failures, metrics)


def measure_traced(workload, seed: int, seconds: float):
    """Per-layer metrics; returns the result and the last pair's tracer."""
    from spans import Tracer
    from workloads import Phases

    samples: list[dict[str, float]] = []
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    attempted = 0
    failures: list[str] = []
    for _ in _within(seconds):
        t = perf_counter()
        plain = _setup_and_round(workload, seed, Phases())
        walls["untraced"].append(perf_counter() - t)

        tracer = Tracer()
        tracer.install()
        try:
            t = perf_counter()
            traced = _setup_and_round(workload, seed, Phases(tracer))
            walls["traced"].append(perf_counter() - t)
        finally:
            tracer.uninstall()
        samples.append(tracer.layer_metrics())
        for r in (plain, traced):
            attempted += r.attempted
            failures.extend(r.failures)

    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    # like the end-to-end times, the overhead compares the fastest runs of each kind
    values["trace.overhead_s"] = min(walls["traced"]) - min(walls["untraced"])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units("per_layer").items()}
    return _result(attempted, failures, metrics), tracer


def _result(attempted: int, failures: list[str], metrics: dict) -> dict:
    for f in failures:
        print(f"perfbench: failed: {f}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def units(kind: str) -> dict[str, str]:
    """Metric name to unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json
    declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _report_self_times(tracer) -> None:
    shares = tracer.self_time_by_name()
    total = sum(shares.values()) or 1.0
    print("self time by span (last traced pair):", file=sys.stderr)
    for name, t in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {name:40s} {t:9.4f} s {100 * t / total:5.1f}%", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.trace:
        result, tracer = measure_traced(workload, args.seed, args.seconds)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json"))
        _report_self_times(tracer)
    else:
        result = measure_untraced(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
