"""In-memory span recorder for the traced run, and the per-layer metrics.

A traced run rebinds each measured layer function or method to a wrapper that
records one span per call: name, start, end and parent span. For a function
that a module imports by name, the wrapper replaces that name in every
``cfextract`` module that holds it, so callers inside the program see it too.
Nothing under ``src/`` changes, and untraced runs never install a wrapper.

Spans stay in memory (parallel lists) and are written out only when the run
ends. A span's self time is its duration minus the durations of its direct
children; on one thread children never overlap, so the self times of all
spans under a root sum to that root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

# (span name, module, attribute path) of every layer call the traced run times.
LAYERS = (
    ("oracles.query", "cfextract.oracles", "CounterfactualOracle.query"),
    ("oracles.exact_tree_cf", "cfextract.oracles", "exact_tree_cf"),
    ("oracles.exact_ensemble_cf", "cfextract.oracles", "exact_ensemble_cf"),
    ("oracles.heuristic_cf", "cfextract.oracles", "heuristic_cf"),
    ("oracles.line_search", "cfextract.oracles", "line_search"),
    ("distances.scaled_rows", "cfextract.distances", "Distance.scaled_rows"),
    ("models.cells_within", "cfextract.models", "cells_within"),
    ("models.TreeModel.init", "cfextract.models", "TreeModel.__init__"),
    ("models.predict_arrays", "cfextract.models", "TreeModel.predict_arrays"),
    ("models.predict_arrays", "cfextract.models", "ForestModel.predict_arrays"),
    ("models.boxes_to_tree", "cfextract.models", "boxes_to_tree"),
    ("regions.split", "cfextract.regions", "split"),
    ("regions.center", "cfextract.regions", "center"),
    ("regions.grid_volume", "cfextract.regions", "grid_volume"),
    ("regions.subtract", "cfextract.regions", "subtract"),
    ("tra.tra_extract", "cfextract.tra", "tra_extract"),
    ("tra.materialize", "cfextract.tra", "ExtractionState.materialize"),
    ("cart.train_tree", "cfextract.cart", "train_tree"),
    ("baselines.LeafIdOracle.query", "cfextract.baselines", "LeafIdOracle.query"),
    ("evaluation.functional_equivalence", "cfextract.evaluation", "functional_equivalence"),
    ("evaluation.anytime_fidelity", "cfextract.evaluation", "anytime_fidelity"),
    ("evaluation.fidelity", "cfextract.evaluation", "fidelity"),
)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------
    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def _inside(self, name: str) -> bool:
        """Whether the innermost open span is already a ``name`` span."""
        return bool(self._open) and self.names[self._open[-1]] == name

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = tracer._inside(name)
            i = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(i)
            if after is not None:
                after(args, out, nested)
            return out

        return traced

    # -- installing wrappers ---------------------------------------------------
    def install(self) -> None:
        """Rebind every layer in ``LAYERS`` (and the queue hook) to a wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        after = {
            "oracles.query": self._after_query,
            "models.predict_arrays": self._after_predict_arrays,
            "tra.tra_extract": self._after_tra,
        }
        for name, module, path in LAYERS:
            self._rebind(module, path, lambda fn, n=name: self.wrap(n, fn, after.get(n)))
        self._rebind("cfextract.tra", "ExtractionState.push", self._queue_hook)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, module: str, path: str, make) -> None:
        mod = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(mod, path)
        wrapper = make(original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name != "cfextract" and not loaded_name.startswith("cfextract."):
                continue
            if getattr(loaded, path, None) is original:
                self._restore.append((loaded, path, original))
                setattr(loaded, path, wrapper)

    def _after_query(self, args, response, nested) -> None:
        if response.counterfactual is not None:
            self.count("oracles.cf_returned")

    def _after_predict_arrays(self, args, out, nested) -> None:
        if not nested:  # a forest's call already counted its trees' rows
            self.count("models.predict_arrays.rows", len(out))

    def _after_tra(self, args, result, nested) -> None:
        self.count("tra.snapshots", len(result.snapshots))

    def _queue_hook(self, push):
        tracer = self

        @functools.wraps(push)
        def hooked(state, region, slot):
            push(state, region, slot)
            tracer.peak("tra.queue_peak", len(state.queue))

        return hooked

    # -- analysis --------------------------------------------------------------
    def self_times(self) -> list[float]:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= durations[i]
        return own

    def roots(self) -> list[int]:
        """Index of each span's root (parents always precede children)."""
        out: list[int] = []
        for i, p in enumerate(self.parents):
            out.append(i if p < 0 else out[p])
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of this tracer's spans, keyed by metric name.

        ``.s`` is inclusive time of the outermost calls of a layer (a forest's
        ``predict_arrays`` contains its trees' calls); ``.calls`` counts every
        call. ``models.cells_within`` leaves out the verify phase, where the
        equivalence check calls it once per box by design.
        """
        own = self.self_times()
        roots = self.roots()
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_total: dict[str, float] = {}
        query_us: list[float] = []
        for i, name in enumerate(self.names):
            if name == "models.cells_within" and self.names[roots[i]] == "verify":
                continue
            d = self.ends[i] - self.starts[i]
            calls[name] = calls.get(name, 0) + 1
            self_total[name] = self_total.get(name, 0.0) + own[i]
            p = self.parents[i]
            if p < 0 or self.names[p] != name:
                total[name] = total.get(name, 0.0) + d
            if name == "oracles.query":
                query_us.append(d * 1e6)

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return total.get(name, 0.0)

        queries = c("oracles.query")
        return {
            "oracles.query.calls": queries,
            "oracles.query.self_s": self_total.get("oracles.query", 0.0),
            "oracles.query.p50_us": _percentile(query_us, 50),
            "oracles.query.p99_us": _percentile(query_us, 99),
            "oracles.cf_hit_ratio":
                self.counters.get("oracles.cf_returned", 0) / queries if queries else 0.0,
            "oracles.exact_tree_cf.s": s("oracles.exact_tree_cf"),
            "oracles.exact_ensemble_cf.s": s("oracles.exact_ensemble_cf"),
            "oracles.heuristic_cf.s": s("oracles.heuristic_cf"),
            "oracles.line_search.calls": c("oracles.line_search"),
            "oracles.line_search.s": s("oracles.line_search"),
            "distances.scaled_rows.calls": c("distances.scaled_rows"),
            "distances.scaled_rows.s": s("distances.scaled_rows"),
            "models.cells_within.calls": c("models.cells_within"),
            "models.cells_within.s": s("models.cells_within"),
            "models.TreeModel.init.calls": c("models.TreeModel.init"),
            "models.TreeModel.init.s": s("models.TreeModel.init"),
            "models.predict_arrays.calls": c("models.predict_arrays"),
            "models.predict_arrays.rows": self.counters.get("models.predict_arrays.rows", 0),
            "models.predict_arrays.s": s("models.predict_arrays"),
            "models.boxes_to_tree.s": s("models.boxes_to_tree"),
            "regions.split.calls": c("regions.split"),
            "regions.split.s": s("regions.split"),
            "regions.center.s": s("regions.center"),
            "regions.grid_volume.s": s("regions.grid_volume"),
            "regions.subtract.calls": c("regions.subtract"),
            "regions.subtract.s": s("regions.subtract"),
            "tra.materialize.calls": c("tra.materialize"),
            "tra.materialize.s": s("tra.materialize"),
            "tra.snapshots": self.counters.get("tra.snapshots", 0),
            "tra.self_s": self_total.get("tra.tra_extract", 0.0),
            "tra.queue_peak": self.counters.get("tra.queue_peak", 0),
            "cart.train_tree.calls": c("cart.train_tree"),
            "cart.train_tree.s": s("cart.train_tree"),
            "baselines.LeafIdOracle.query.calls": c("baselines.LeafIdOracle.query"),
            "baselines.LeafIdOracle.query.s": s("baselines.LeafIdOracle.query"),
            "evaluation.functional_equivalence.s": s("evaluation.functional_equivalence"),
            "evaluation.anytime_fidelity.s": s("evaluation.anytime_fidelity"),
            "evaluation.fidelity.s": s("evaluation.fidelity"),
        }

    def self_time_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, t in zip(self.names, self.self_times()):
            out[name] = out.get(name, 0.0) + t
        return out

    def write(self, path: str) -> None:
        """Write every span as ``[name, start, end, parent]``, times in seconds
        from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent"],
                "counters": self.counters,
                "spans": [[n, s - t0, e - t0, p] for n, s, e, p in
                          zip(self.names, self.starts, self.ends, self.parents)],
            }, fh, separators=(",", ":"))
            fh.write("\n")


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
