"""Command-line pipelines: gen | train | attack | eval | report.

Exit codes: 0 success (also when the reader of stdout closes it early: the
output ends there), 1 usage error (including a missing or unreadable file),
2 contract violation, 3 capacity.

One rule holds for options: a command refuses any option that its choice
does not read (the kind for gen and train, the method for attack, the
reports asked for in eval), and any that its choice needs but is left out,
before it reads or writes a file. Such options default to None in the
parser; each command's table below holds their readers and their defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .baselines import (SURROGATE_KINDS, AttackBudget, LeafIdOracle, SurrogateSpec,
                        cf_attack, default_budget, dualcf_attack, pathfinding_extract)
from .cart import TrainConfig, prune, train_forest, train_tree, accuracy
from .datasets import ingest_csv
from .distances import DISTANCE_KINDS
from .errors import CapacityError, ContractViolation, DataFormatError, UnsupportedModelError
from .evaluation import (bound_report, fidelity, functional_equivalence, mean_curve,
                         measured_ratio, snapshot_fidelities, uniform_points)
from .generators import (AdversarialSpec, gen_adversarial, gen_chessboard,
                         gen_random_forest, gen_random_tree)
from .models import check_int64_grid, load_model, save_model, stats
from .oracles import ORACLE_MODES, CounterfactualOracle, OracleConfig
from .regions import full_region, region_json, sample_point
from .schema import exact_number, load_schema, read_json, save_schema, write_json
from .tra import QUEUE_ORDERS, tra_extract


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}") from exc


def _budget(text: str):
    """``--budget``: ``auto`` or a query count."""
    return text if text == "auto" else int(text)


def build_parser() -> _Parser:
    p = _Parser(prog="cfextract", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic target model",
                       description="An option that the chosen kind does not read is a "
                       "usage error.")
    g.add_argument("--kind", required=True,
                   choices=["random-tree", "random-forest", "chessboard", "adversarial"])
    g.add_argument("--schema", help="schema JSON (random-* and chessboard kinds)")
    g.add_argument("--depth", type=int)
    g.add_argument("--trees", type=int)
    g.add_argument("--classes", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--s", type=_int_list,
                   help="comma-separated split counts (chessboard, adversarial)")
    g.add_argument("--epsilon", type=exact_number,
                   help="adversarial placement offset (exact number)")
    g.add_argument("--delta", type=exact_number, help="adversarial grid step (exact number)")
    g.add_argument("--out", required=True, help="output model JSON")

    t = sub.add_parser("train", help="train a target on an ingested CSV dataset",
                       description="An option that the chosen kind does not read is a "
                       "usage error.")
    t.add_argument("--data", required=True)
    t.add_argument("--schema-config", required=True)
    t.add_argument("--label", required=True, help="label column name")
    t.add_argument("--kind", choices=["tree", "forest"], default="tree")
    t.add_argument("--trees", type=int, help="forest: number of trees (default 10)")
    t.add_argument("--max-depth", type=int)
    t.add_argument("--no-prune", action="store_true", default=None,
                   help="tree: keep the grown tree")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)

    a = sub.add_parser("attack", help="run an extraction attack against a model",
                       description="An option that the chosen method does not read is a "
                       "usage error.")
    a.add_argument("--method", required=True, choices=["tra", "pathfinding", "cf", "dualcf"])
    a.add_argument("--target", required=True, help="target model JSON")
    a.add_argument("--schema", help="schema JSON (defaults to the model's schema_ref)")
    a.add_argument("--oracle", choices=ORACLE_MODES)
    a.add_argument("--distance", choices=DISTANCE_KINDS)
    a.add_argument("--seed", type=int)
    a.add_argument("--budget", type=_budget,
                   help="query budget for cf/dualcf (int or 'auto')")
    a.add_argument("--order", choices=QUEUE_ORDERS, help="TRA's queue order")
    a.add_argument("--snapshot-every", type=int)
    a.add_argument("--surrogate", choices=SURROGATE_KINDS, help="cf/dualcf surrogate")
    a.add_argument("--oracle-samples", type=int,
                   help="heuristic oracle: uniform draws per query")
    a.add_argument("--oracle-train-size", type=int,
                   help="heuristic oracle: size of its server-side labeled sample")
    a.add_argument("--fidelity-samples", type=int, help="evaluation points of the curve")
    a.add_argument("--out", required=True, help="extracted model JSON")
    a.add_argument("--trace", help="JSON-lines query trace (not for pathfinding)")
    a.add_argument("--curve", help="anytime curve CSV (not for pathfinding)")

    e = sub.add_parser("eval", help="equivalence / fidelity / bounds / ratio reports",
                       description="An option that no report asked for reads is a usage "
                       "error.")
    e.add_argument("--equivalence", nargs=2, metavar=("A", "B"))
    e.add_argument("--fidelity", nargs=2, metavar=("A", "B"))
    e.add_argument("--bounds", metavar="MODEL")
    e.add_argument("--ratio", action="store_true")
    e.add_argument("--target")
    e.add_argument("--extracted")
    e.add_argument("--trace")
    e.add_argument("--schema", help="schema JSON for every model (defaults to each "
                   "model's own schema_ref)")
    e.add_argument("--samples", type=int)
    e.add_argument("--seed", type=int)
    e.add_argument("--out")

    r = sub.add_parser("report", help="aggregate anytime curves (means over runs)",
                       description=_cmd_report.__doc__)
    r.add_argument("curves", nargs="+", help="curve CSVs from 'attack'")
    r.add_argument("--out", required=True)
    return p


_REQUIRED = object()  # the default of an option that its readers cannot do without
# Per command, option -> (the choices that read it, its default or _REQUIRED).
# An option that every choice of its command reads is left out of the table.
_GEN_OPTIONS = {
    "schema": (("random-tree", "random-forest", "chessboard"), _REQUIRED),
    "depth": (("random-tree", "random-forest"), 4),
    "seed": (("random-tree", "random-forest"), 0),
    "trees": (("random-forest",), 5),
    "classes": (("random-tree", "random-forest", "chessboard"), 2),
    "s": (("chessboard", "adversarial"), _REQUIRED),
    "epsilon": (("adversarial",), None),
    "delta": (("adversarial",), None),
}
_TRAIN_OPTIONS = {
    "trees": (("forest",), TrainConfig.n_trees),
    "no_prune": (("tree",), False),
}
_COUNTERFACTUAL = ("tra", "cf", "dualcf")
_SURROGATE = ("cf", "dualcf")
# Pathfinding reads only --target, --schema and --out: it takes no snapshots
# to draw a curve from, and its leaf-id probes have no region or
# counterfactual to trace.
_ATTACK_OPTIONS = {
    "oracle": (_COUNTERFACTUAL, "exact"),
    "distance": (_COUNTERFACTUAL, "l2"),
    "seed": (_COUNTERFACTUAL, 0),
    "budget": (_SURROGATE, "auto"),
    "order": (("tra",), "fifo"),
    "snapshot_every": (_COUNTERFACTUAL, 20),
    "surrogate": (_SURROGATE, "tree"),
    "oracle_samples": (_COUNTERFACTUAL, 1000),
    "oracle_train_size": (_COUNTERFACTUAL, 500),
    "fidelity_samples": (_COUNTERFACTUAL, 3000),
    "trace": (_COUNTERFACTUAL, None),
    "curve": (_COUNTERFACTUAL, None),
}
_EVAL_OPTIONS = {
    "target": (("ratio",), _REQUIRED),
    "extracted": (("ratio",), _REQUIRED),
    "trace": (("ratio",), _REQUIRED),
    "samples": (("fidelity",), 3000),
    "seed": (("fidelity",), 0),
}


def _options(args, chosen: dict, table: dict) -> None:
    """Refuse every option of ``table`` that is given but that no choice in
    ``chosen`` reads, then every required one that a chosen choice reads and
    that is left out; fill in the defaults of the others left out.
    ``chosen`` maps each choice made (a kind, a method or a report) to its
    name in a message."""
    unread, missing = [], []
    for name, (readers, default) in table.items():
        read = not chosen.keys().isdisjoint(readers)
        if getattr(args, name) is not None:
            if not read:
                unread.append("--" + name.replace("_", "-"))
        elif default is not _REQUIRED:
            setattr(args, name, default)
        elif read:
            missing.append("--" + name.replace("_", "-"))
    named, s = " ".join(chosen.values()), "s" if len(chosen) == 1 else ""
    if unread:
        raise _UsageError(f"{named} read{s} no {', '.join(unread)}")
    if missing:
        raise _UsageError(f"{named} need{s} {', '.join(missing)}")


@contextlib.contextmanager
def _trace_sink(path, schema):
    """A record sink that writes each billed query as one JSON line of the
    trace ``path`` (no sink when ``path`` is None). The lines go to a sibling
    temporary file, moved onto ``path`` only when the block completes, so a
    failed attack leaves no trace."""
    if path is None:
        yield None
        return
    tmp = f"{path}.part"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            yield lambda rec: fh.write(json.dumps({
                "index": rec.index,
                "x": schema.point_json(rec.x),
                "region": region_json(rec.region, schema),
                "label": rec.label,
                "counterfactual": None if rec.counterfactual is None
                else schema.point_json(rec.counterfactual),
            }) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _trace_queries(path) -> int:
    """The queries a trace ``path`` bills: its lines, each a JSON object whose
    ``index`` is the line's 0-based position, as ``_trace_sink`` writes them.
    A trace has at least one: every attack that writes one bills a query."""
    n = 0
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            try:
                rec = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep
                rec = None
            if not (isinstance(rec, dict) and type(rec.get("index")) is int
                    and rec["index"] == n - 1):
                raise DataFormatError(f"{path}, line {n}: not a query-trace record "
                                      f"with index {n - 1}")
    if n == 0:
        raise DataFormatError(f"{path}: a query trace with no records")
    return n


def _save_with_schema(path, model, schema):
    """Write ``model`` to ``path`` and ``schema`` beside it, to
    ``<path>.schema.json``, which the model file names."""
    schema_path = path + ".schema.json"
    save_schema(schema_path, schema)
    save_model(path, model, os.path.basename(schema_path))


def _write_curve(path, method, target, schema, snapshots, samples, seed):
    iv, cats = uniform_points(schema, samples, seed)
    fids = snapshot_fidelities(target, snapshots, iv, cats)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["attack", "queries", "certified_fraction", "fidelity_uniform"])
        for snap, fid in zip(snapshots, fids):
            w.writerow([method, snap.queries, float(snap.certified_fraction), fid])


def _cmd_gen(args) -> int:
    # before any file is read
    _options(args, {args.kind: f"--kind {args.kind}"}, _GEN_OPTIONS)
    if args.kind == "adversarial":
        model = gen_adversarial(AdversarialSpec(args.s, epsilon=args.epsilon,
                                                delta=args.delta))
        _save_with_schema(args.out, model, model.schema)
    else:
        schema = load_schema(args.schema)
        if args.kind == "random-tree":
            model = gen_random_tree(schema, args.depth, args.seed, args.classes)
        elif args.kind == "random-forest":
            model = gen_random_forest(schema, args.trees, args.depth, args.seed,
                                      args.classes)
        else:
            model = gen_chessboard(schema, args.s, args.classes)
        # the model names the given schema, relative to the model's own directory
        save_model(args.out, model, os.path.relpath(
            os.path.abspath(args.schema), os.path.dirname(os.path.abspath(args.out))))
    st = stats(model)
    print(f"wrote {args.out}: n={st.n} nodes={st.node_count} leaves={st.leaf_count}")
    return 0


def _cmd_train(args) -> int:
    # before any file is read
    _options(args, {args.kind: f"--kind {args.kind}"}, _TRAIN_OPTIONS)
    bundle = ingest_csv(args.data, read_json(args.schema_config), args.label, args.seed)
    cfg = TrainConfig(max_depth=args.max_depth, seed=args.seed, n_trees=args.trees)
    train_p, train_y = bundle.train
    if args.kind == "forest":
        model = train_forest(bundle.schema, train_p, train_y, cfg)
    else:
        model = train_tree(bundle.schema, train_p, train_y, cfg)
        if not args.no_prune and bundle.val_idx:
            val_p, val_y = bundle.val
            model = prune(model, train_p, train_y, val_p, val_y)
    _save_with_schema(args.out, model, bundle.schema)
    test_p, test_y = bundle.test
    acc = float(accuracy(model, test_p, test_y)) if test_p else float("nan")
    print(f"wrote {args.out}: test_accuracy={acc:.4f} nodes={stats(model).node_count}")
    return 0


def _cmd_attack(args) -> int:
    # before any file is read
    _options(args, {args.method: f"--method {args.method}"}, _ATTACK_OPTIONS)
    if args.fidelity_samples < 1:  # refused before the attack writes anything
        raise ContractViolation("--fidelity-samples must be >= 1")
    target = load_model(args.target, load_schema(args.schema) if args.schema else None)
    schema = target.schema
    if args.curve:  # the curve's sample is int64 arrays
        check_int64_grid(schema)
    if args.method == "pathfinding":
        model, log = pathfinding_extract(LeafIdOracle(target), schema)
        snapshots = []
        result_method = "pathfinding"
        _save_with_schema(args.out, model, schema)
    else:
        if args.oracle_train_size < 0:  # as OracleConfig checks --oracle-samples
            raise ContractViolation("--oracle-train-size must be >= 0")
        training = None
        if args.oracle == "heuristic":
            rng = np.random.default_rng(args.seed + 7_777_777)
            domain = full_region(schema)
            training = [sample_point(domain, rng) for _ in range(args.oracle_train_size)]
        with _trace_sink(args.trace, schema) as sink:
            oracle = CounterfactualOracle(
                target,
                OracleConfig(distance=args.distance, mode=args.oracle,
                             sample_budget=args.oracle_samples, seed=args.seed),
                training_data=training, sink=sink,
            )
            if args.method == "tra":
                res = tra_extract(oracle, order=args.order, order_seed=args.seed,
                                  snapshot_every=args.snapshot_every)
            else:
                budget = (default_budget(target) if args.budget == "auto"
                          else AttackBudget(args.budget))
                attack = cf_attack if args.method == "cf" else dualcf_attack
                res = attack(oracle, budget,
                             SurrogateSpec(kind=args.surrogate,
                                           train=TrainConfig(seed=args.seed)),
                             seed=args.seed, snapshot_every=args.snapshot_every)
            model, log, snapshots = res.model, res.log, res.snapshots
            result_method = res.method
            _save_with_schema(args.out, model, schema)
    if args.curve:
        _write_curve(args.curve, result_method, target, schema, snapshots,
                     args.fidelity_samples, args.seed)
    print(f"{result_method}: {log.count} queries, extracted -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    # refused before any work, whichever report is asked for
    if args.samples is not None and args.samples < 1:
        raise ContractViolation("--samples must be >= 1")
    chosen = {name: "--" + name for name in ("equivalence", "fidelity", "bounds", "ratio")
              if getattr(args, name)}
    if not chosen:
        raise _UsageError("eval needs at least one of --equivalence/--fidelity/--bounds/--ratio")
    # before any file is read
    _options(args, chosen, _EVAL_OPTIONS)
    report: dict = {}
    schema = load_schema(args.schema) if args.schema else None
    if args.equivalence:
        a, b = (load_model(path, schema) for path in args.equivalence)
        ok, witness = functional_equivalence(a, b, a.schema)
        report["equivalence"] = {
            "equivalent": ok,
            "witness": None if witness is None else a.schema.point_json(witness),
        }
    if args.fidelity:
        a, b = (load_model(path, schema) for path in args.fidelity)
        report["fidelity"] = asdict(fidelity(a, b, a.schema, n_samples=args.samples,
                                             seed=args.seed))
    if args.bounds:
        model = load_model(args.bounds, schema)
        br = bound_report(model)
        report["bounds"] = {
            "n": br.n,
            "s": list(br.s),
            "prop1_bound": br.prop1_bound,
            "cor1_bound": str(br.cor1_bound),
            "cor1_bound_float": float(br.cor1_bound),
            "worst_case_queries": br.worst_case_queries,
            "opt_queries_lower": br.opt_queries_lower,
            "c_tra": str(br.c_tra),
            "c_tra_float": float(br.c_tra),
        }
    if args.ratio:
        target = load_model(args.target, schema)
        extracted = load_model(args.extracted, schema)
        queries = _trace_queries(args.trace)
        ratio = measured_ratio(queries, target, extracted, target.schema)
        report["ratio"] = {"queries": queries, "ratio": str(ratio),
                           "ratio_float": float(ratio)}
    if args.out:
        write_json(args.out, report)
    else:
        print(json.dumps(report, indent=2))
    return 0


def _cmd_report(args) -> int:
    """Mean certified fraction and fidelity per attack over curve CSVs. Each
    file is one run of each attack it names, rows ascending in queries. At
    every query count some run of an attack reports, each run counts its
    latest row at or before that count, and 0 before its first row."""
    runs: dict[str, dict[int, list[tuple[int, float, float]]]] = {}  # attack -> file -> rows
    for k, path in enumerate(args.curves):
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rows = csv.DictReader(fh)
            try:
                for row in rows:
                    q = int(row["queries"])
                    run = runs.setdefault(row["attack"], {}).setdefault(k, [])
                    if run and q < run[-1][0]:
                        raise ValueError(f"queries go back from {run[-1][0]} to {q}")
                    run.append((q, float(row["certified_fraction"]),
                                float(row["fidelity_uniform"])))
            # a missing column, a short row (None fields), an unreadable value or a step back
            except (KeyError, TypeError, ValueError, csv.Error) as exc:
                raise DataFormatError(f"{path}, line {rows.line_num}: not an anytime-curve "
                                      f"row ({type(exc).__name__}: {exc})") from exc
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["attack", "queries", "mean_certified_fraction", "mean_fidelity"])
        for attack in sorted(runs):
            qs = sorted({row[0] for run in runs[attack].values() for row in run})
            certified, fids = (mean_curve([[(row[0], row[k]) for row in run]
                                           for run in runs[attack].values()], qs)
                               for k in (1, 2))
            w.writerows([attack, *row] for row in zip(qs, certified, fids))
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "attack": _cmd_attack,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if (getattr(args, "seed", None) or 0) < 0:  # numpy's generators refuse it, after work
            raise ContractViolation("--seed must be >= 0")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader left: flush what stdout holds to devnull at exit
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except (UnsupportedModelError, OSError) as exc:  # OSError: a file that cannot be read
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
