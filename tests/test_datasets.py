import csv

import numpy as np
import pytest

import cfextract as cx


TOY_CONFIG = {
    "features": [
        {"name": "age", "kind": "numeric", "delta": "0.5"},
        {"name": "color", "kind": "categorical", "categories": ["blue", "green", "red"]},
    ]
}


def write_csv(path, rows, header=("age", "color", "label")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def test_ingest_toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    rows = [[i * 0.5, ["blue", "green", "red"][i % 3], i % 2] for i in range(10)]
    write_csv(path, rows)
    bundle = cx.ingest_csv(str(path), TOY_CONFIG, "label", seed=0)
    # 1 numeric + 3 one-hot axes
    assert bundle.schema.m == 4
    assert len(bundle.points) == 10
    assert sorted(bundle.label_names) == ["0", "1"]
    assert len(bundle.train_idx) == 6 and len(bundle.val_idx) == 2 and len(bundle.test_idx) == 2


def test_split_sizes_1000(tmp_path):
    path = tmp_path / "big.csv"
    rng = np.random.default_rng(0)
    rows = [[round(float(rng.uniform(0, 5)) * 2) / 2, "blue", int(rng.integers(2))]
            for _ in range(1000)]
    write_csv(path, rows)
    bundle = cx.ingest_csv(str(path), TOY_CONFIG, "label", seed=3)
    assert (len(bundle.train_idx), len(bundle.val_idx), len(bundle.test_idx)) == (600, 200, 200)
    all_idx = sorted(bundle.train_idx + bundle.val_idx + bundle.test_idx)
    assert all_idx == list(range(1000))


def test_numeric_snapping_and_inferred_range(tmp_path):
    from fractions import Fraction

    path = tmp_path / "snap.csv"
    write_csv(path, [[0.26, "blue", 0], [1.9, "red", 1]])
    bundle = cx.ingest_csv(str(path), TOY_CONFIG, "label", seed=0)
    axis = bundle.schema.interval_axes[0]
    # range inferred from data, snapped outward to the 0.5 grid
    assert axis.lo == 0 and axis.value(axis.size - 1) == 2
    vals = sorted(axis.value(p.ivals[0]) for p in bundle.points)
    assert vals == [Fraction(1, 2), Fraction(2)]  # 0.26 -> 0.5, 1.9 -> 2.0


def test_row_indexed_errors(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, [[0.5, "blue", 0], [0.5, "purple", 1]])
    with pytest.raises(cx.DataFormatError, match="row 1"):
        cx.ingest_csv(str(path), TOY_CONFIG, "label", seed=0)
    write_csv(path, [[0.5, "blue", 0], ["oops", "red", 1]])
    with pytest.raises(cx.DataFormatError, match="row 1"):
        cx.ingest_csv(str(path), TOY_CONFIG, "label", seed=0)
    write_csv(path, [[0.5, "blue", ""]])
    with pytest.raises(cx.DataFormatError, match="row 0"):
        cx.ingest_csv(str(path), TOY_CONFIG, "label", seed=0)
    write_csv(path, [[0.5, "blue", 0]], header=("age", "color", "y"))
    with pytest.raises(cx.DataFormatError, match="label"):
        cx.ingest_csv(str(path), TOY_CONFIG, "label", seed=0)


def test_duplicates_preserved(tmp_path):
    path = tmp_path / "dup.csv"
    write_csv(path, [[0.5, "blue", 0]] * 5)
    bundle = cx.ingest_csv(str(path), TOY_CONFIG, "label", seed=0)
    assert len(bundle.points) == 5
    assert len(set(bundle.points)) == 1


def test_roundtrip_same_splits(tmp_path):
    path = tmp_path / "toy.csv"
    rng = np.random.default_rng(5)
    rows = [[round(float(rng.uniform(0, 5)) * 2) / 2,
             ["blue", "green", "red"][rng.integers(3)], int(rng.integers(2))]
            for _ in range(50)]
    write_csv(path, rows)
    bundle = cx.ingest_csv(str(path), TOY_CONFIG, "label", seed=11)
    out = tmp_path / "rt.csv"
    bundle.write_csv(str(out))
    config = bundle.schema.to_config()  # pin the inferred numeric range
    again = cx.ingest_csv(str(out), config, "label", seed=11)
    assert again.schema == bundle.schema
    assert again.points == bundle.points
    assert again.labels == bundle.labels
    assert (again.train_idx, again.val_idx, again.test_idx) == (
        bundle.train_idx, bundle.val_idx, bundle.test_idx)


def test_trained_targets_are_attackable(tmp_path):
    path = tmp_path / "learn.csv"
    rng = np.random.default_rng(1)
    rows = []
    for _ in range(150):
        age = round(float(rng.uniform(0, 5)) * 2) / 2
        color = ["blue", "green", "red"][rng.integers(3)]
        rows.append([age, color, int(age > 2.5) ^ int(color == "red")])
    write_csv(path, rows)
    bundle = cx.ingest_csv(str(path), TOY_CONFIG, "label", seed=2)
    tr_p, tr_y = bundle.train
    model = cx.train_tree(bundle.schema, tr_p, tr_y, cx.TrainConfig(seed=0))
    res = cx.tra_extract(cx.CounterfactualOracle(model))
    ok, _ = cx.functional_equivalence(model, res.model, bundle.schema)
    assert ok


BAD_CONFIGS = {
    "ordinal-levels-not-an-int": {"features": [{"name": "age", "kind": "ordinal",
                                                "levels": "z"}]},
    "numeric-without-delta": {"features": [{"name": "age", "kind": "numeric"}]},
    "numeric-zero-delta": {"features": [{"name": "age", "kind": "numeric", "delta": 0}]},
    "feature-not-an-object": {"features": [3]},
    "features-not-a-list": {"features": "x"},
    "config-not-an-object": [1, 2],
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_malformed_config_is_a_data_format_error(case, tmp_path):
    path = tmp_path / "toy.csv"
    write_csv(path, [[0.5, "blue", 0], [1.5, "red", 1]])
    with pytest.raises(cx.DataFormatError):
        cx.ingest_csv(str(path), BAD_CONFIGS[case], "label", seed=0)
