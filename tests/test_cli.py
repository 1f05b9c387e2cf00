import csv
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import cfextract as cx
from cfextract.cli import main


SCHEMA_CONFIG = {
    "features": [
        {"name": "a", "kind": "numeric", "lo": "0", "hi": "1", "delta": "0.015625"},
        {"name": "b", "kind": "ordinal", "levels": 6},
        {"name": "c", "kind": "binary"},
    ]
}


@pytest.fixture
def workdir(tmp_path):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(SCHEMA_CONFIG))
    return tmp_path


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def test_gen_attack_eval_roundtrip(workdir, capsys):
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "4", "--seed", "3", "--out", target) == 0
    extracted = workdir / "ex.json"
    trace = workdir / "trace.jsonl"
    curve = workdir / "curve.csv"
    assert run_cli("attack", "--method", "tra", "--oracle", "exact",
                   "--target", target, "--seed", "1", "--out", extracted,
                   "--trace", trace, "--curve", curve,
                   "--fidelity-samples", "500") == 0
    report = workdir / "rep.json"
    assert run_cli("eval", "--equivalence", target, extracted, "--out", report) == 0
    data = json.loads(report.read_text())
    assert data["equivalence"]["equivalent"] is True

    # trace is one JSON record per billed query
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert [r["index"] for r in lines] == list(range(len(lines)))
    assert all("region" in r and "x" in r for r in lines)

    with open(curve) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["attack"] == "tra"
    assert float(rows[-1]["certified_fraction"]) == 1.0
    assert float(rows[-1]["fidelity_uniform"]) == 1.0


# rows of the anytime curve for the target below, as the predict-every-snapshot
# computation wrote them; the replayed curve must reproduce them byte for byte
GOLDEN_CURVE = [
    "attack,queries,certified_fraction,fidelity_uniform",
    "tra,5,0.0,0.328",
    "tra,10,0.2423076923076923,0.484",
    "tra,15,0.2923076923076923,0.608",
    "tra,20,0.3487179487179487,0.732",
    "tra,25,0.6153846153846154,0.816",
    "tra,30,0.8102564102564103,0.924",
    "tra,35,0.8794871794871795,0.992",
    "tra,40,0.9076923076923077,0.998",
    "tra,43,1.0,1.0",
]


def test_attack_curve_matches_golden_rows(workdir):
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "4", "--seed", "3", "--classes", "3", "--out", target) == 0
    curve = workdir / "curve.csv"
    assert run_cli("attack", "--method", "tra", "--target", target, "--seed", "1",
                   "--order", "random", "--snapshot-every", "5",
                   "--fidelity-samples", "500", "--out", workdir / "ex.json",
                   "--curve", curve) == 0
    assert curve.read_bytes() == "".join(row + "\r\n" for row in GOLDEN_CURVE).encode()


def test_eval_identical_files(workdir):
    target = workdir / "t.json"
    run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
            "--depth", "3", "--seed", "0", "--out", target)
    rep = workdir / "r.json"
    assert run_cli("eval", "--equivalence", target, target, "--out", rep) == 0
    assert json.loads(rep.read_text())["equivalence"]["equivalent"] is True


def test_adversarial_gen_and_ratio(workdir):
    adv = workdir / "adv.json"
    assert run_cli("gen", "--kind", "adversarial", "--s", "2,1", "--out", adv) == 0
    ex = workdir / "adv_ex.json"
    tr = workdir / "adv_tr.jsonl"
    assert run_cli("attack", "--method", "tra", "--target", adv, "--out", ex,
                   "--trace", tr) == 0
    assert len(tr.read_text().splitlines()) == 11
    rep = workdir / "ratio.json"
    assert run_cli("eval", "--ratio", "--target", adv, "--extracted", ex,
                   "--trace", tr, "--out", rep) == 0
    data = json.loads(rep.read_text())
    assert data["ratio"]["ratio"] == "11/4"


@pytest.mark.parametrize("text", [
    b"a,y\n0.1,0\n",  # a CSV
    b'{"index": 0}\n[0]\n',  # a line that is not an object
    b'{"index": 1}\n',  # an index that is not the line's position
    b'{"index": 0}\n{"index": 2}\n',  # a record left out
    b'{"index": true}\n',  # a bool is not an index
    b'{"index": 0}\n\n',  # a blank line
    b'{"index": 0}\n\xff\n',  # not UTF-8
    b'{"index": 0}\n' + b"[" * 100_000 + b"]" * 100_000 + b"\n",  # nested too deep
])
def test_eval_ratio_refuses_a_file_that_is_not_a_trace(workdir, capsys, text):
    adv, ex, trace = workdir / "adv.json", workdir / "ex.json", workdir / "t.jsonl"
    assert run_cli("gen", "--kind", "adversarial", "--s", "2,1", "--out", adv) == 0
    assert run_cli("attack", "--method", "tra", "--target", adv, "--out", ex) == 0
    trace.write_bytes(text)
    capsys.readouterr()
    assert run_cli("eval", "--ratio", "--target", adv, "--extracted", ex, "--trace", trace,
                   "--out", workdir / "r.json") == 2
    assert "not a query-trace record" in capsys.readouterr().err
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize("epsilon", [None, "1/96"])
def test_adversarial_schema_step_is_the_given_delta(workdir, epsilon):
    out = workdir / "adv.json"
    extra = [] if epsilon is None else ["--epsilon", epsilon]
    assert run_cli("gen", "--kind", "adversarial", "--s", "3,2", "--delta", "1/96", *extra,
                   "--out", out) == 0
    schema = cx.load_schema(str(out) + ".schema.json")
    assert [f.delta for f in schema.features] == [Fraction(1, 96)] * 2


@pytest.mark.parametrize("epsilon, problem", [
    ("1/100", "does not land on the grid"),  # off the default 1/48 grid
    ("1/6", "epsilon too large"),  # 1/(2(s_2 + 1)) for s = (3, 2)
])
def test_adversarial_bad_epsilon_exits_2_and_writes_nothing(workdir, capsys, epsilon, problem):
    out = workdir / "adv.json"
    assert run_cli("gen", "--kind", "adversarial", "--s", "3,2", "--epsilon", epsilon,
                   "--out", out) == 2
    assert problem in capsys.readouterr().err
    assert os.listdir(workdir) == ["schema.json"]


def test_train_no_prune_writes_the_tree_grown_on_the_training_split(workdir):
    rng = np.random.default_rng(0)
    data, cfg = workdir / "d.csv", workdir / "cfg.json"
    # a threshold at 0.5 and one label in five flipped: pruning has noise to cut
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        for v in rng.integers(0, 101, size=200).tolist():
            w.writerow([f"{v / 100:.2f}", int(v > 50) ^ int(rng.random() < 0.2)])
    config = {"features": [{"name": "x", "kind": "numeric", "delta": "0.01"}]}
    cfg.write_text(json.dumps(config))
    for flag, out in [("--no-prune", "full.json"), (None, "pruned.json")]:
        assert run_cli("train", "--data", data, "--schema-config", cfg, "--label", "y",
                       *([flag] if flag else []), "--out", workdir / out) == 0
    bundle = cx.ingest_csv(str(data), config, "y", 0)
    grown = cx.train_tree(bundle.schema, *bundle.train)
    full, pruned = (cx.load_model(str(workdir / name)) for name in ("full.json", "pruned.json"))
    assert (full.nodes, full.root) == (grown.nodes, grown.root)
    assert len(pruned.nodes) < len(full.nodes)


def _train_data(workdir):
    """A 60-row CSV of one numeric feature and its schema config."""
    rng = np.random.default_rng(1)
    data, cfg = workdir / "d.csv", workdir / "cfg.json"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        for v in rng.integers(0, 101, size=60).tolist():
            w.writerow([f"{v / 100:.2f}", int(v > 50) ^ int(rng.random() < 0.2)])
    config = {"features": [{"name": "x", "kind": "numeric", "delta": "0.01"}]}
    cfg.write_text(json.dumps(config))
    return data, cfg, config


@pytest.mark.parametrize("kind, option", [("tree", ["--trees", "7"]),
                                          ("forest", ["--no-prune"])])
def test_train_option_the_kind_does_not_read_is_a_usage_error(workdir, capsys, kind, option):
    data, cfg, _ = _train_data(workdir)
    before = sorted(workdir.iterdir())
    assert run_cli("train", "--data", data, "--schema-config", cfg, "--label", "y",
                   "--kind", kind, *option, "--out", workdir / "m.json") == 1
    assert capsys.readouterr().err == f"--kind {kind} reads no {option[0]}\n"
    assert sorted(workdir.iterdir()) == before  # refused before any file is written


def test_train_defaults_are_a_pruned_tree_and_a_forest_of_ten(workdir):
    data, cfg, config = _train_data(workdir)
    for kind, extra, out in [("tree", [], "tree.json"), ("forest", [], "forest.json"),
                             ("forest", ["--trees", "3"], "forest3.json")]:
        assert run_cli("train", "--data", data, "--schema-config", cfg, "--label", "y",
                       "--kind", kind, *extra, "--out", workdir / out) == 0
    bundle = cx.ingest_csv(str(data), config, "y", 0)
    train_p, train_y = bundle.train
    tree = cx.prune(cx.train_tree(bundle.schema, train_p, train_y), train_p, train_y,
                    *bundle.val)
    assert cx.load_model(str(workdir / "tree.json")).nodes == tree.nodes
    for out, n_trees in [("forest.json", 10), ("forest3.json", 3)]:
        forest = cx.train_forest(bundle.schema, train_p, train_y, cx.TrainConfig(n_trees=n_trees))
        assert [t.nodes for t in cx.load_model(str(workdir / out)).trees] \
            == [t.nodes for t in forest.trees]


def test_bounds_report(workdir):
    adv = workdir / "adv.json"
    run_cli("gen", "--kind", "adversarial", "--s", "1,1", "--out", adv)
    rep = workdir / "b.json"
    assert run_cli("eval", "--bounds", adv, "--out", rep) == 0
    data = json.loads(rep.read_text())["bounds"]
    assert data["worst_case_queries"] == 7 and data["c_tra"] == "7/3"


def test_pathfinding_on_forest_is_usage_error(workdir, capsys):
    forest = workdir / "f.json"
    run_cli("gen", "--kind", "random-forest", "--schema", workdir / "schema.json",
            "--trees", "3", "--depth", "2", "--seed", "0", "--out", forest)
    capsys.readouterr()
    code = run_cli("attack", "--method", "pathfinding", "--target", forest,
                   "--out", workdir / "x.json")
    assert code == 1
    # the leaf-id oracle refuses the forest before anything is written
    assert "single tree" in capsys.readouterr().err
    assert not (workdir / "x.json").exists()
    assert not (workdir / "x.json.schema.json").exists()


def test_unknown_flag_is_usage_error(workdir):
    assert run_cli("gen", "--kind", "bogus", "--out", workdir / "x.json") == 1


def test_contract_violation_exit_code(workdir, capsys):
    # chessboard with a group-bearing schema is a contract violation
    cfg = {"features": [{"name": "g", "kind": "categorical", "categories": ["a", "b"]}]}
    path = workdir / "cat_schema.json"
    path.write_text(json.dumps(cfg))
    code = run_cli("gen", "--kind", "chessboard", "--schema", path, "--s", "1",
                   "--out", workdir / "x.json")
    assert code == 2
    # so is a chessboard of fewer than two classes, whose adjacent cells cannot differ
    path.write_text(json.dumps({"features": [
        {"name": "a", "kind": "numeric", "lo": "0", "hi": "1", "delta": "1/16"}]}))
    capsys.readouterr()
    before = sorted(workdir.iterdir())
    for classes in ("0", "1", "-1"):
        assert run_cli("gen", "--kind", "chessboard", "--schema", path, "--s", "3",
                       "--classes", classes, "--out", workdir / "x.json") == 2
        assert capsys.readouterr().err == "contract violation: n_classes must be >= 2\n"
        assert sorted(workdir.iterdir()) == before


def test_fidelity_without_samples_exit_code(workdir, capsys):
    target = workdir / "t.json"
    run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
            "--depth", "3", "--seed", "0", "--out", target)
    capsys.readouterr()
    assert run_cli("eval", "--fidelity", target, target, "--samples", "0") == 2
    assert "NaN" not in capsys.readouterr().out


@pytest.mark.parametrize("kind, samples", [("random-forest", 0), ("random-forest", -3),
                                           ("random-tree", -3)])
def test_curve_with_no_evaluation_points_exits_2(workdir, capsys, kind, samples):
    target = workdir / "t.json"
    trees = ["--trees", "3"] if kind == "random-forest" else []  # a tree reads no --trees
    assert run_cli("gen", "--kind", kind, "--schema", workdir / "schema.json", "--classes", "3",
                   *trees, "--depth", "3", "--out", target) == 0
    capsys.readouterr()
    before = sorted(workdir.iterdir())
    assert run_cli("attack", "--method", "tra", "--target", target, "--out", workdir / "x.json",
                   "--curve", workdir / "c.csv", "--fidelity-samples", samples) == 2
    err = capsys.readouterr().err
    assert err.startswith("contract violation:") and err.count("\n") == 1
    assert sorted(workdir.iterdir()) == before  # refused before the attack writes anything


def test_capacity_exit_code(workdir, monkeypatch):
    target = workdir / "t.json"
    run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
            "--depth", "5", "--seed", "1", "--out", target)
    import cfextract.cli as cli_mod

    def tiny_tra(oracle, **kwargs):
        kwargs["max_regions"] = 2
        return cx.tra_extract(oracle, **kwargs)

    monkeypatch.setattr(cli_mod, "tra_extract", tiny_tra)
    before = sorted(workdir.iterdir())
    code = run_cli("attack", "--method", "tra", "--target", target,
                   "--out", workdir / "x.json", "--trace", workdir / "q.jsonl")
    assert code == 3
    assert sorted(workdir.iterdir()) == before  # no model, and no trace nor its partial file


def test_trace_that_cannot_be_moved_into_place_leaves_no_partial_file(workdir, capsys):
    target, trace = workdir / "t.json", workdir / "q.jsonl"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "3", "--out", target) == 0
    trace.mkdir()
    capsys.readouterr()
    assert run_cli("attack", "--method", "tra", "--target", target, "--out", workdir / "x.json",
                   "--trace", trace) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (workdir / "q.jsonl.part").exists() and not any(trace.iterdir())


TREE = ("--kind", "random-tree", "--depth", "4", "--seed", "3")
FOREST = ("--kind", "random-forest", "--trees", "3", "--depth", "3", "--classes", "3",
          "--seed", "1")
# (target, method, billed queries, SHA-256 of the `attack --trace` file) as the trace
# was written after the run from a kept record list; the streamed file must match
TRACE_SHA256 = {
    "tree": (TREE, "tra", 37, "adf2e6c01e80c3e6c0ea184a067fc9e7bef19d675dfe9422e61ff9e690bef772"),
    "forest": (FOREST, "tra", 50,
               "adfee4b7e178fa573e4817d3b070ace8cfb0e665f57388fad579c4efb3b3df4d"),
    "cf": (TREE, "cf", 40, "b6f2b178786586b34eff8e30b81bae384fe482e855684e5bec7ae7860c029872"),
    "dualcf": (TREE, "dualcf", 40,
               "bc9aca2d67889d8a1f54661970d7cf9ffcda22caeacec518a18c77047d4f1c71"),
}


@pytest.mark.parametrize("run", sorted(TRACE_SHA256))
def test_attack_trace_matches_pinned_digest(workdir, capsys, run):
    gen, method, queries, digest = TRACE_SHA256[run]
    target, trace = workdir / "t.json", workdir / "q.jsonl"
    assert run_cli("gen", *gen, "--schema", workdir / "schema.json", "--out", target) == 0
    budget = ["--budget", "40"] if method != "tra" else []  # TRA reads no budget
    assert run_cli("attack", "--method", method, *budget, "--target", target,
                   "--out", workdir / "x.json", "--trace", trace) == 0
    assert capsys.readouterr().out.endswith(f"{method}: {queries} queries, extracted -> "
                                            f"{workdir / 'x.json'}\n")
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest
    assert not (workdir / "q.jsonl.part").exists()


def test_train_then_extract(workdir):
    data = workdir / "d.csv"
    rng = np.random.default_rng(0)
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["age", "color", "y"])
        for _ in range(120):
            age = round(float(rng.uniform(0, 4)), 1)
            color = ["red", "green"][rng.integers(2)]
            w.writerow([age, color, int(age > 2) ^ (color == "red")])
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"features": [
        {"name": "age", "kind": "numeric", "delta": "0.1"},
        {"name": "color", "kind": "categorical", "categories": ["green", "red"]},
    ]}))
    trained = workdir / "trained.json"
    assert run_cli("train", "--data", data, "--schema-config", cfg, "--label", "y",
                   "--seed", "1", "--out", trained) == 0
    ex = workdir / "ex.json"
    assert run_cli("attack", "--method", "cf", "--target", trained, "--budget", "80",
                   "--out", ex, "--curve", workdir / "c.csv",
                   "--fidelity-samples", "300") == 0


def test_heuristic_attack_cli(workdir):
    target = workdir / "t.json"
    run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
            "--depth", "3", "--seed", "5", "--out", target)
    assert run_cli("attack", "--method", "tra", "--oracle", "heuristic",
                   "--oracle-train-size", "200", "--target", target, "--seed", "2",
                   "--out", workdir / "hx.json") == 0


def test_report_aggregates_curves(workdir, tmp_path):
    c1 = workdir / "c1.csv"
    c2 = workdir / "c2.csv"
    for path, fids in ((c1, (0.4, 0.8)), (c2, (0.6, 1.0))):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["attack", "queries", "certified_fraction", "fidelity_uniform"])
            for q, f in zip((20, 40), fids):
                w.writerow(["cf", q, 0.0, f])
    out = workdir / "mean.csv"
    assert run_cli("report", c1, c2, "--out", out) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["mean_fidelity"]) for r in rows] == [0.5, 0.9]


def write_curve(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["attack", "queries", "certified_fraction", "fidelity_uniform"])
        w.writerows(rows)


def report_rows(*curves, out) -> list[dict]:
    assert run_cli("report", *curves, "--out", out) == 0
    with open(out) as fh:
        return list(csv.DictReader(fh))


def test_report_counts_each_run_once_by_the_step_rule(workdir):
    # c1 repeats its last row; c3 starts after the others' first row
    c1, c2, c3 = (workdir / f"c{i}.csv" for i in (1, 2, 3))
    write_curve(c1, [["cf", 20, 0.5, 0.4], ["cf", 40, 1.0, 0.8], ["cf", 40, 1.0, 0.8]])
    write_curve(c2, [["cf", 20, 0.5, 0.6], ["cf", 40, 1.0, 1.0]])
    write_curve(c3, [["cf", 40, 1.0, 0.6]])
    rows = report_rows(c1, c2, out=workdir / "mean12.csv")
    assert [(int(r["queries"]), float(r["mean_fidelity"])) for r in rows] == [(20, 0.5), (40, 0.9)]
    rows = report_rows(c2, c3, out=workdir / "mean23.csv")
    assert [(int(r["queries"]), float(r["mean_certified_fraction"]), float(r["mean_fidelity"]))
            for r in rows] == [(20, 0.25, 0.3), (40, 1.0, 0.8)]


def adversarial_curves(workdir, snapshot_every=20) -> list:
    """``attack --curve`` files of TRA on the adversarial (3, 2) and (4, 3)
    targets, 23 and 39 queries, with the targets they were taken on; the
    defaults score them on 3000 uniform points of seed 0."""
    runs = []
    for s in ("3,2", "4,3"):
        target, curve = workdir / f"adv{s[0]}.json", workdir / f"adv{s[0]}.csv"
        assert run_cli("gen", "--kind", "adversarial", "--s", s, "--out", target) == 0
        assert run_cli("attack", "--method", "tra", "--target", target, "--snapshot-every",
                       snapshot_every, "--out", workdir / f"ex{s[0]}.json",
                       "--curve", curve) == 0
        runs.append((target, curve))
    return runs


def test_report_steps_a_run_still_going_to_its_latest_row(workdir):
    (_, short), (_, long) = adversarial_curves(workdir)
    with open(long) as fh:
        at = {int(r["queries"]): float(r["fidelity_uniform"]) for r in csv.DictReader(fh)}
    assert sorted(at) == [20, 39]
    rows = {int(r["queries"]): float(r["mean_fidelity"])
            for r in report_rows(short, long, out=workdir / "mean.csv")}
    assert sorted(rows) == [20, 23, 39]
    assert rows[23] == (1.0 + at[20]) / 2 == pytest.approx(0.886, abs=5e-4)


def test_report_equals_anytime_fidelity_where_both_print(workdir):
    runs = adversarial_curves(workdir, snapshot_every=5)
    curves = [c for _, c in runs]
    rows = {int(r["queries"]): float(r["mean_fidelity"])
            for r in report_rows(*curves, out=workdir / "mean.csv")}
    anytime = []
    for target_path, _ in runs:
        target = cx.load_model(target_path)
        res = cx.tra_extract(cx.CounterfactualOracle(target), snapshot_every=5)
        anytime.append((target, res.snapshots, cx.uniform_points(target.schema, 3000, 0)))
    curve = dict(cx.anytime_fidelity(anytime, checkpoint=5))
    both = sorted(set(rows) & set(curve))
    assert both == [5, 10, 15, 20, 25, 30, 35, 39]  # past 23, the short run counts its last row
    assert [rows[q] for q in both] == [curve[q] for q in both]


def test_malformed_model_file_exits_2_without_a_traceback(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"schema_ref": "schema.json", "kind": "tree",
                               "nodes": [{"kind": "leaf", "label": 0}]}))
    assert run_cli("eval", "--equivalence", bad, bad) == 2
    err = capsys.readouterr().err
    assert "contract violation" in err and "Traceback" not in err


def test_missing_model_file_exits_1_without_a_traceback(workdir, capsys):
    missing = workdir / "missing.json"
    assert run_cli("eval", "--equivalence", missing, missing) == 1
    err = capsys.readouterr().err
    assert "missing.json" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_missing_schema_config_exits_1_without_a_traceback(workdir, capsys):
    data = workdir / "d.csv"
    data.write_text("age,y\n0.5,0\n1.5,1\n")
    assert run_cli("train", "--data", data, "--schema-config", workdir / "missing.json",
                   "--label", "y", "--out", workdir / "m.json") == 1
    err = capsys.readouterr().err
    assert "missing.json" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_undecodable_schema_config_exits_2(workdir, capsys):
    data = workdir / "d.csv"
    data.write_text("age,y\n0.5,0\n1.5,1\n")
    cfg = workdir / "cfg.json"
    cfg.write_text("{bad")
    assert run_cli("train", "--data", data, "--schema-config", cfg, "--label", "y",
                   "--out", workdir / "m.json") == 2
    err = capsys.readouterr().err
    assert "contract violation" in err and "Traceback" not in err


@pytest.mark.parametrize("command, option", [
    ("gen", "--epsilon abc"),
    ("gen", "--delta 1/0"),
    ("attack", "--budget abc"),
])
def test_malformed_number_option_is_a_usage_error(workdir, capsys, command, option):
    args = {"gen": ["gen", "--kind", "adversarial", "--s", "2,2"],
            "attack": ["attack", "--method", "cf", "--target", workdir / "t.json"]}[command]
    assert run_cli(*args, *option.split(), "--out", workdir / "x.json") == 1
    err = capsys.readouterr().err
    assert option.split()[0] in err and "Traceback" not in err
    assert not (workdir / "x.json").exists()


CURVE_HEADER = "attack,queries,certified_fraction,fidelity_uniform\n"


@pytest.mark.parametrize("text, where, problem", [
    (CURVE_HEADER.replace("attack", "method") + "cf,20,0.0,0.5\n", "line 2", "'attack'"),
    (CURVE_HEADER + "cf,20,0.0,0.4\ncf,x,0.0,0.5\n", "line 3", "'x'"),
    (CURVE_HEADER + "cf,40,0.0,0.4\ntra,20,0.0,0.5\ncf,20,0.0,0.5\n", "line 4",
     "queries go back from 40 to 20"),
], ids=["missing-column", "bad-queries", "queries-go-back"])
def test_malformed_curve_is_a_data_format_error(workdir, capsys, text, where, problem):
    curve = workdir / "bad.csv"
    curve.write_text(text)
    assert run_cli("report", curve, "--out", workdir / "mean.csv") == 2
    err = capsys.readouterr().err
    assert f"bad.csv, {where}" in err and problem in err and "Traceback" not in err


def test_broken_stdout_pipe_ends_the_output_quietly(workdir, capsys, monkeypatch):
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "adversarial", "--s", "2,2", "--out", target) == 0
    capsys.readouterr()
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", buffering=1) as stdout:  # line-buffered: print meets the pipe
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run_cli("eval", "--bounds", target) == 0
        monkeypatch.undo()
    # closing flushed what the pipe refused without raising, as at interpreter exit
    assert capsys.readouterr().err == ""


def test_train_negative_max_depth_exits_2(workdir, capsys):
    data = workdir / "d.csv"
    data.write_text("a,y\n0.1,0\n0.2,1\n0.3,0\n0.4,1\n")
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"features": [{"name": "a", "kind": "numeric", "delta": "0.1"}]}))
    out = workdir / "m.json"
    assert run_cli("train", "--data", data, "--schema-config", cfg, "--label", "y",
                   "--max-depth", "-1", "--out", out) == 2
    assert "max_depth" in capsys.readouterr().err and not out.exists()


def test_pathfinding_on_a_chessboard_deeper_than_the_recursion_limit(workdir):
    # 601 boxes in a row: PathFinding's box compiler peels one per level
    schema = workdir / "line.json"
    schema.write_text(json.dumps({"features": [
        {"name": "x", "kind": "numeric", "lo": "0", "hi": "1", "delta": "0.0009765625"}]}))
    target, extracted, report = workdir / "board.json", workdir / "ex.json", workdir / "r.json"
    assert run_cli("gen", "--kind", "chessboard", "--schema", schema, "--s", "600",
                   "--out", target) == 0
    assert run_cli("attack", "--method", "pathfinding", "--target", target,
                   "--out", extracted) == 0
    assert run_cli("eval", "--equivalence", target, extracted, "--out", report) == 0
    assert json.loads(report.read_text())["equivalence"]["equivalent"] is True


@pytest.mark.parametrize("method", ["tra", "cf"])
def test_negative_snapshot_every_exits_2(workdir, capsys, method):
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "2", "--out", target) == 0
    budget = ["--budget", "40"] if method == "cf" else []  # TRA reads no budget
    assert run_cli("attack", "--method", method, "--target", target, *budget,
                   "--snapshot-every", "-5", "--out", workdir / "x.json") == 2
    assert "snapshot_every" in capsys.readouterr().err


def test_cli_runs_as_a_module(workdir):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cx.__file__)))
    out = workdir / "t.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cfextract.cli", "gen", "--kind", "adversarial", "--s", "2,2",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.exists() and "wrote" in proc.stdout


def test_pathfinding_curve_is_a_usage_error_before_the_attack(workdir, capsys):
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "3", "--out", target) == 0
    capsys.readouterr()
    # pathfinding takes no snapshots, so there is no curve to write
    assert run_cli("attack", "--method", "pathfinding", "--target", target,
                   "--out", workdir / "x.json", "--curve", workdir / "c.csv") == 1
    assert "--curve" in capsys.readouterr().err
    assert not (workdir / "c.csv").exists() and not (workdir / "x.json").exists()


def test_pathfinding_trace_is_a_usage_error_before_the_attack(workdir, capsys):
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "3", "--out", target) == 0
    capsys.readouterr()
    # a leaf-id probe has no region and no counterfactual to record
    assert run_cli("attack", "--method", "pathfinding", "--target", target,
                   "--out", workdir / "x.json", "--trace", workdir / "t.jsonl") == 1
    assert "--trace" in capsys.readouterr().err
    assert not (workdir / "t.jsonl").exists() and not (workdir / "x.json").exists()


@pytest.mark.parametrize("features", [
    # numeric steps 1/31 and 1/15: no single precision fits both
    [{"name": "a", "kind": "numeric", "lo": "0", "hi": "1", "delta": "1/31"},
     {"name": "b", "kind": "ordinal", "levels": 16},
     {"name": "c", "kind": "numeric", "lo": "0", "hi": "1", "delta": "1/15"}],
    [{"name": "g", "kind": "categorical", "categories": ["u", "v", "w"]},
     {"name": "h", "kind": "categorical", "categories": ["s", "t", "u", "v"]}],
], ids=["mixed-steps", "categorical-only"])
def test_pathfinding_extracts_an_equivalent_model_at_grid_precision(workdir, capsys,
                                                                     features):
    schema, target = workdir / "s.json", workdir / "t.json"
    schema.write_text(json.dumps({"features": features}))
    assert run_cli("gen", "--kind", "random-tree", "--schema", schema, "--depth", "5",
                   "--seed", "1", "--out", target) == 0
    assert run_cli("attack", "--method", "pathfinding", "--target", target,
                   "--out", workdir / "x.json") == 0
    assert "Traceback" not in capsys.readouterr().err
    report = workdir / "r.json"
    assert run_cli("eval", "--equivalence", target, workdir / "x.json", "--out", report) == 0
    assert json.loads(report.read_text())["equivalence"]["equivalent"] is True


@pytest.mark.parametrize("mode", ["--equivalence", "--fidelity", "--ratio"])
@pytest.mark.parametrize("first", ["a", "b"])
def test_eval_reads_each_model_under_its_own_schema(workdir, capsys, mode, first):
    # the same 5-point grid index on x in [0, 1] and on x in [0, 2]
    models = {}
    for name, hi, delta in [("a", "1", "0.25"), ("b", "2", "0.5")]:
        schema, models[name] = workdir / f"{name}.schema.json", workdir / f"{name}.json"
        schema.write_text(json.dumps({"features": [
            {"name": "x", "kind": "numeric", "lo": "0", "hi": hi, "delta": delta}]}))
        assert run_cli("gen", "--kind", "chessboard", "--schema", schema, "--s", "1",
                       "--out", models[name]) == 0
    one, other = models[first], models["b" if first == "a" else "a"]
    trace = workdir / "t.jsonl"
    trace.write_text('{"index": 0}\n')  # a well-formed trace: the schemas are what is refused
    args = (["--ratio", "--target", one, "--extracted", other, "--trace", trace]
            if mode == "--ratio" else [mode, one, other])
    capsys.readouterr()
    assert run_cli("eval", *args) == 2
    assert "models must share the given schema" in capsys.readouterr().err


@pytest.mark.parametrize("oracle, size, code", [("heuristic", -5, 2), ("exact", -5, 2),
                                                ("heuristic", 0, 0)])
def test_oracle_train_size_must_not_be_negative(workdir, capsys, oracle, size, code):
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "3", "--out", target) == 0
    capsys.readouterr()
    assert run_cli("attack", "--method", "tra", "--oracle", oracle,
                   "--oracle-train-size", size, "--target", target,
                   "--out", workdir / "x.json") == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("contract violation:") and err.count("\n") == 1
        assert not (workdir / "x.json").exists()


@pytest.mark.parametrize("command", ["gen", "train", "attack", "eval"])
def test_negative_seed_exits_2_before_any_work(workdir, capsys, command):
    target, data, cfg = workdir / "t.json", workdir / "d.csv", workdir / "cfg.json"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "3", "--out", target) == 0
    data.write_text("a,y\n0.1,0\n0.2,1\n0.3,0\n0.4,1\n")
    cfg.write_text(json.dumps({"features": [{"name": "a", "kind": "numeric", "delta": "0.1"}]}))
    capsys.readouterr()
    out = workdir / "out.json"
    args = {
        "gen": ("--kind", "random-tree", "--schema", workdir / "schema.json", "--out", out),
        "train": ("--data", data, "--schema-config", cfg, "--label", "y", "--out", out),
        "attack": ("--method", "tra", "--target", target, "--out", out,
                   "--curve", workdir / "c.csv", "--trace", workdir / "q.jsonl"),
        "eval": ("--fidelity", target, target, "--out", out),
    }[command]
    before = sorted(workdir.iterdir())
    assert run_cli(command, *args, "--seed", "-1") == 2
    assert capsys.readouterr().err == "contract violation: --seed must be >= 0\n"
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("report", ["--bounds", "--equivalence", "--fidelity", "--ratio"])
def test_eval_samples_below_one_exits_2_before_any_report(workdir, capsys, report):
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "3", "--out", target) == 0
    capsys.readouterr()
    args = {"--bounds": (target,), "--equivalence": (target, target),
            "--fidelity": (target, target),
            "--ratio": ("--target", target, "--extracted", target,
                        "--trace", workdir / "missing.jsonl")}[report]
    assert run_cli("eval", report, *args, "--samples", "-1",
                   "--out", workdir / "r.json") == 2
    assert capsys.readouterr().err == "contract violation: --samples must be >= 1\n"
    assert not (workdir / "r.json").exists()


def test_grid_past_int64_exits_2_without_a_traceback(workdir, capsys):
    # TRA is exact on any grid; the curve and sampled fidelity are int64 arrays
    schema_path = workdir / "wide.json"
    schema_path.write_text(json.dumps({"features": [
        {"name": "wide", "kind": "numeric", "lo": "0", "hi": "1",
         "delta": "1/18446744073709551616"},
        {"name": "b", "kind": "ordinal", "levels": 4}]}))
    schema = cx.load_schema(str(schema_path))
    target = workdir / "t.json"
    cx.save_model(str(target), cx.TreeModel(schema, [cx.Leaf(0), cx.Leaf(1),
                                                    cx.SplitNode(0, 2 ** 63, 0, 1)], root=2),
                  "wide.json")
    refused = f"contract violation: axis 'wide' has {2 ** 64} grid steps"
    before = sorted(workdir.iterdir())
    assert run_cli("attack", "--method", "tra", "--target", target, "--out", workdir / "x.json",
                   "--curve", workdir / "c.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith(refused) and err.count("\n") == 1
    assert sorted(workdir.iterdir()) == before  # refused before the attack
    # random draws are int64 too: the tree generator and the uniform samples
    # of the surrogate attacks and the heuristic oracle refuse before any write
    sampled = "contract violation: cannot sample past grid index 2**63 - 1"
    for args, message in (
            (("gen", "--kind", "random-tree", "--schema", schema_path,
              "--out", workdir / "g.json"), refused),
            (("attack", "--method", "cf", "--target", target, "--out", workdir / "x.json"),
             sampled),
            (("attack", "--method", "tra", "--oracle", "heuristic", "--target", target,
              "--out", workdir / "x.json"), sampled)):
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert sorted(workdir.iterdir()) == before
    assert run_cli("attack", "--method", "tra", "--target", target,
                   "--out", workdir / "x.json") == 0
    assert run_cli("attack", "--method", "pathfinding", "--target", target,
                   "--out", workdir / "p.json") == 0
    capsys.readouterr()
    for extracted in ("x.json", "p.json"):
        assert run_cli("eval", "--equivalence", target, workdir / extracted) == 0
        assert json.loads(capsys.readouterr().out)["equivalence"]["equivalent"]
    assert run_cli("eval", "--fidelity", target, target) == 2
    err = capsys.readouterr().err
    assert err.startswith(refused) and err.count("\n") == 1


@pytest.mark.parametrize("samples", [0, -5])
def test_fidelity_samples_below_one_exits_2_without_a_curve(workdir, capsys, samples):
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "3", "--out", target) == 0
    capsys.readouterr()
    before = sorted(workdir.iterdir())
    assert run_cli("attack", "--method", "tra", "--target", target, "--out", workdir / "x.json",
                   "--fidelity-samples", samples) == 2
    assert capsys.readouterr().err == "contract violation: --fidelity-samples must be >= 1\n"
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("method, oracle", [("tra", "exact"), ("tra", "heuristic"),
                                            ("cf", "exact"), ("dualcf", "heuristic"),
                                            ("pathfinding", "exact")])
def test_attack_on_a_target_with_unknown_leaves_exits_1_before_any_write(workdir, capsys,
                                                                          method, oracle):
    schema = cx.load_schema(str(workdir / "schema.json"))
    target = workdir / "t.json"
    cx.save_model(str(target), cx.TreeModel(schema, [cx.Leaf(0), cx.Leaf(None),
                                                    cx.SplitNode(0, 20, 0, 1)], root=2),
                  "schema.json")
    before = sorted(workdir.iterdir())
    # pathfinding reads no oracle, trace or curve: any of them is a usage error of its own
    options = [] if method == "pathfinding" else ["--oracle", oracle,
                                                  "--trace", workdir / "t.jsonl",
                                                  "--curve", workdir / "c.csv"]
    assert run_cli("attack", "--method", method, "--target", target,
                   "--out", workdir / "x.json", *options) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "unknown leaves" in err and err.count("\n") == 1
    assert sorted(workdir.iterdir()) == before  # no model, schema sidecar, trace or curve


def test_label_past_int64_exits_2_before_any_write(workdir, capsys):
    # array evaluation (sampled fidelity, the curve) holds labels in int64
    target = workdir / "t.json"
    target.write_text(json.dumps({"schema_ref": "schema.json", "kind": "tree", "root": 2,
                                  "nodes": [{"id": 0, "kind": "leaf", "label": 0},
                                            {"id": 1, "kind": "leaf", "label": 2 ** 64},
                                            {"id": 2, "kind": "split", "axis": 0,
                                             "threshold": "0.5", "left": 0, "right": 1}]}))
    before = sorted(workdir.iterdir())
    for args in (("eval", "--fidelity", target, target),
                 ("attack", "--method", "tra", "--target", target, "--out", workdir / "x.json",
                  "--curve", workdir / "c.csv")):
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err == f"contract violation: leaf 1: bad label {2 ** 64}\n"
        assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("method, options", [
    ("pathfinding", ["--oracle", "heuristic"]),
    ("pathfinding", ["--oracle", "exact"]),  # given explicitly, even at the default
    ("pathfinding", ["--distance", "l1"]),
    ("pathfinding", ["--budget", "5"]),
    ("pathfinding", ["--order", "lifo"]),
    ("pathfinding", ["--seed", "1"]),
    ("pathfinding", ["--snapshot-every", "5"]),
    ("pathfinding", ["--surrogate", "tree"]),
    ("pathfinding", ["--oracle-samples", "10"]),
    ("pathfinding", ["--oracle-train-size", "10"]),
    ("pathfinding", ["--fidelity-samples", "10"]),
    ("pathfinding", ["--oracle", "heuristic", "--budget", "5", "--order", "lifo",
                     "--distance", "l1"]),
    ("cf", ["--order", "lifo"]),
    ("dualcf", ["--order", "fifo"]),
    ("tra", ["--budget", "5"]),
    ("tra", ["--surrogate", "forest"]),
])
def test_attack_option_the_method_does_not_read_is_a_usage_error(workdir, capsys, method,
                                                                   options):
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "adversarial", "--s", "2,2", "--out", target) == 0
    capsys.readouterr()
    before = sorted(workdir.iterdir())
    assert run_cli("attack", "--method", method, "--target", target, *options,
                   "--out", workdir / "x.json") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"--method {method} reads no ") and err.count("\n") == 1
    for option in options[::2]:
        assert option in err
    assert sorted(workdir.iterdir()) == before  # refused before any file is written


@pytest.mark.parametrize("text", [b'{"features": ["\xff\xfe"]}', b'{"features": [{"name": "a", ',
                                  b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "truncated", "nested-too-deep"])
@pytest.mark.parametrize("source", ["gen --schema", "attack --schema", "attack --target",
                                    "eval --equivalence", "eval schema_ref",
                                    "train --schema-config"])
def test_a_json_input_that_is_not_json_exits_2_naming_it(workdir, capsys, source, text):
    target, data, bad = workdir / "t.json", workdir / "d.csv", workdir / "bad.json"
    assert run_cli("gen", "--kind", "random-tree", "--schema", workdir / "schema.json",
                   "--depth", "3", "--out", target) == 0
    data.write_text("a,y\n0.1,0\n0.2,1\n0.3,0\n0.4,1\n")
    bad.write_bytes(text)
    refers = workdir / "refers.json"  # a model whose schema_ref is the bad file
    model = json.loads(target.read_text())
    refers.write_text(json.dumps({**model, "schema_ref": "bad.json"}))
    out = workdir / "out.json"
    args = {
        "gen --schema": ("gen", "--kind", "random-tree", "--schema", bad),
        "attack --schema": ("attack", "--method", "tra", "--target", target, "--schema", bad),
        "attack --target": ("attack", "--method", "tra", "--target", bad),
        "eval --equivalence": ("eval", "--equivalence", target, bad),
        "eval schema_ref": ("eval", "--bounds", refers),
        "train --schema-config": ("train", "--data", data, "--schema-config", bad,
                                  "--label", "y"),
    }[source]
    capsys.readouterr()
    before = sorted(workdir.iterdir())
    assert run_cli(*args, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"contract violation: {bad}: not valid JSON") and err.count("\n") == 1
    assert sorted(workdir.iterdir()) == before


# gen option -> (a value it takes, the kinds that read it, whether they need it)
_GEN_READS = {
    "--schema": ("schema.json", {"random-tree", "random-forest", "chessboard"}, True),
    "--depth": ("3", {"random-tree", "random-forest"}, False),
    "--seed": ("1", {"random-tree", "random-forest"}, False),
    "--trees": ("3", {"random-forest"}, False),
    "--classes": ("3", {"random-tree", "random-forest", "chessboard"}, False),
    "--s": ("1,1,1", {"chessboard", "adversarial"}, True),
    "--epsilon": ("1/96", {"adversarial"}, False),
    "--delta": ("1/48", {"adversarial"}, False),
}
_GEN_KINDS = ("random-tree", "random-forest", "chessboard", "adversarial")


def _gen_args(workdir, kind, skip=None):
    """The options ``kind`` needs, but ``skip``."""
    args = []
    for option, (value, kinds, needed) in _GEN_READS.items():
        if needed and kind in kinds and option != skip:
            args += [option, workdir / value if option == "--schema" else value]
    return args


@pytest.mark.parametrize("kind, option", [(kind, option) for kind in _GEN_KINDS
                                          for option, (_, kinds, _) in _GEN_READS.items()
                                          if kind not in kinds])
def test_gen_option_the_kind_does_not_read_is_a_usage_error(workdir, capsys, kind, option):
    value = _GEN_READS[option][0]
    value = workdir / value if option == "--schema" else value
    before = sorted(workdir.iterdir())
    assert run_cli("gen", "--kind", kind, *_gen_args(workdir, kind), option, value,
                   "--out", workdir / "m.json") == 1
    assert capsys.readouterr().err == f"--kind {kind} reads no {option}\n"
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("kind, option", [(kind, option) for kind in _GEN_KINDS
                                          for option, (_, kinds, needed) in _GEN_READS.items()
                                          if needed and kind in kinds])
def test_gen_option_the_kind_needs_is_a_usage_error_when_left_out(workdir, capsys, kind,
                                                                  option):
    before = sorted(workdir.iterdir())
    assert run_cli("gen", "--kind", kind, *_gen_args(workdir, kind, skip=option),
                   "--out", workdir / "m.json") == 1
    assert capsys.readouterr().err == f"--kind {kind} needs {option}\n"
    assert sorted(workdir.iterdir()) == before


def test_gen_defaults_are_depth_4_seed_0_five_trees_and_two_classes(workdir):
    schema = cx.load_schema(str(workdir / "schema.json"))
    expected = {"random-tree": cx.gen_random_tree(schema, 4, 0, 2),
                "random-forest": cx.gen_random_forest(schema, 5, 4, 0, 2),
                "chessboard": cx.gen_chessboard(schema, (1, 1, 1), 2),
                "adversarial": cx.gen_adversarial(cx.AdversarialSpec((1, 1, 1)))}
    for kind, model in expected.items():
        out = workdir / f"{kind}.json"
        assert run_cli("gen", "--kind", kind, *_gen_args(workdir, kind), "--out", out) == 0
        assert json.loads(out.read_text()) == cx.model_json_dict(
            model, json.loads(out.read_text())["schema_ref"])


_EVAL_REPORTS = ("--equivalence", "--fidelity", "--bounds", "--ratio")
# eval option -> (a value it takes, the reports that read it)
_EVAL_READS = {"--target": ("t.json", {"--ratio"}), "--extracted": ("t.json", {"--ratio"}),
               "--trace": ("q.jsonl", {"--ratio"}), "--samples": ("5", {"--fidelity"}),
               "--seed": ("1", {"--fidelity"})}


def _eval_args(workdir, report, skip=None):
    """``report`` and the files it reads, but ``skip``."""
    if report != "--ratio":
        return [report] + [workdir / "t.json"] * (1 if report == "--bounds" else 2)
    return [report] + [a for option, (value, reports) in _EVAL_READS.items()
                       if "--ratio" in reports and option != skip
                       for a in (option, workdir / value)]


@pytest.fixture
def evaldir(workdir):
    """A target, its extraction and the trace of that run, all in ``workdir``."""
    target = workdir / "t.json"
    assert run_cli("gen", "--kind", "adversarial", "--s", "2,1", "--out", target) == 0
    assert run_cli("attack", "--method", "tra", "--target", target, "--out", workdir / "x.json",
                   "--trace", workdir / "q.jsonl") == 0
    return workdir


@pytest.mark.parametrize("report, option", [(report, option) for report in _EVAL_REPORTS
                                            for option, (_, reports) in _EVAL_READS.items()
                                            if report not in reports])
def test_eval_option_the_report_does_not_read_is_a_usage_error(evaldir, capsys, report,
                                                               option):
    value = _EVAL_READS[option][0]
    value = value if option in ("--samples", "--seed") else evaldir / value
    capsys.readouterr()
    before = sorted(evaldir.iterdir())
    assert run_cli("eval", *_eval_args(evaldir, report), option, value,
                   "--out", evaldir / "r.json") == 1
    assert capsys.readouterr().err == f"{report} reads no {option}\n"
    assert sorted(evaldir.iterdir()) == before


def test_eval_option_read_by_one_report_asked_for_is_not_refused(evaldir, capsys):
    # --samples is read by --fidelity, so --bounds beside it does not refuse it
    assert run_cli("eval", "--bounds", evaldir / "t.json", "--fidelity", evaldir / "t.json",
                   evaldir / "x.json", "--samples", "7", "--out", evaldir / "r.json") == 0
    assert json.loads((evaldir / "r.json").read_text())["fidelity"]["sample_count"] == 7
    capsys.readouterr()
    assert run_cli("eval", "--bounds", evaldir / "t.json", "--equivalence", evaldir / "t.json",
                   evaldir / "x.json", "--seed", "1", "--out", evaldir / "s.json") == 1
    assert capsys.readouterr().err == "--equivalence --bounds read no --seed\n"
    assert not (evaldir / "s.json").exists()


@pytest.mark.parametrize("option", ["--target", "--extracted", "--trace"])
def test_eval_ratio_without_an_option_it_needs_is_a_usage_error(evaldir, capsys, option):
    capsys.readouterr()
    before = sorted(evaldir.iterdir())
    assert run_cli("eval", *_eval_args(evaldir, "--ratio", skip=option),
                   "--out", evaldir / "r.json") == 1
    assert capsys.readouterr().err == f"--ratio needs {option}\n"
    assert sorted(evaldir.iterdir()) == before


def test_eval_fidelity_defaults_are_3000_samples_and_seed_0(evaldir):
    assert run_cli("eval", "--fidelity", evaldir / "t.json", evaldir / "x.json",
                   "--out", evaldir / "r.json") == 0
    report = json.loads((evaldir / "r.json").read_text())["fidelity"]
    assert (report["sample_count"], report["seed"]) == (3000, 0)


def test_eval_ratio_refuses_an_empty_trace(evaldir, capsys):
    empty = evaldir / "empty.jsonl"
    empty.write_bytes(b"")
    capsys.readouterr()
    assert run_cli("eval", "--ratio", "--target", evaldir / "t.json", "--extracted",
                   evaldir / "x.json", "--trace", empty, "--out", evaldir / "r.json") == 2
    assert capsys.readouterr().err == \
        f"contract violation: {empty}: a query trace with no records\n"
    assert not (evaldir / "r.json").exists()
