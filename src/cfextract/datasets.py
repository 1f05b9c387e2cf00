"""CSV ingestion with one-hot encoding, grid snapping, and 60/20/20 splits."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataFormatError
from .schema import FeatureSchema, Point, exact_number

TRAIN_FRACTION = Fraction(3, 5)
VAL_FRACTION = Fraction(1, 5)


@dataclass(frozen=True)
class DatasetBundle:
    schema: FeatureSchema
    points: tuple[Point, ...]
    labels: tuple[int, ...]
    label_names: tuple[str, ...]
    train_idx: tuple[int, ...]
    val_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    seed: int

    def subset(self, idx):
        return [self.points[i] for i in idx], [self.labels[i] for i in idx]

    @property
    def train(self):
        return self.subset(self.train_idx)

    @property
    def val(self):
        return self.subset(self.val_idx)

    @property
    def test(self):
        return self.subset(self.test_idx)

    def write_csv(self, path: str, label_column: str = "label") -> None:
        """Serialize rows back out (feature order, exact value strings)."""
        schema = self.schema
        header = [f.name for f in schema.features] + [label_column]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for p, y in zip(self.points, self.labels):
                w.writerow([schema.interval_axes[idx].file_value(p.ivals[idx]) if tag == "i"
                            else schema.groups[idx].categories[p.cats[idx]]
                            for tag, idx in schema.layout] + [self.label_names[y]])


def _split_sizes(n: int) -> tuple[int, int, int]:
    n_train = int(round(TRAIN_FRACTION * n))
    n_val = int(round(VAL_FRACTION * n))
    n_test = n - n_train - n_val
    return n_train, n_val, n_test


def ingest_csv(path: str, schema_config: dict, label_column: str,
               seed: int = 0) -> DatasetBundle:
    """Read a header CSV, validate and snap every cell, split 60/20/20.

    Numeric features may omit lo/hi in the config; the observed min/max are
    then recorded (snapped outward to the grid). Unknown categories,
    non-numeric cells and missing labels raise row-indexed errors. Duplicate
    rows are preserved.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: missing header row")
        rows = list(reader)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    if label_column not in rows[0]:
        raise DataFormatError(f"{path}: no column named {label_column!r}")

    features_cfg = schema_config.get("features") if isinstance(schema_config, dict) else None
    if not isinstance(features_cfg, list) or not features_cfg:
        raise DataFormatError("schema config must list features")

    def cell(row_i: int, name: str) -> str:
        v = rows[row_i].get(name)
        if v is None or v == "":
            raise DataFormatError(f"{path}: row {row_i}: missing value for {name!r}")
        return v

    def number(row_i: int, name: str) -> Fraction:
        try:
            return exact_number(cell(row_i, name))
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: row {row_i}: non-numeric cell in {name!r}") from exc

    # fill in what the config leaves open from the data, then parse it as a schema file
    filled = []
    parsed: dict[str, list[Fraction]] = {}  # the numeric columns read to fill in lo/hi
    for i, spec in enumerate(features_cfg):
        if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
            raise DataFormatError(f"feature {i} of the config needs a name")
        name = spec["name"]
        if name not in rows[0]:
            raise DataFormatError(f"{path}: no column named {name!r}")
        spec = dict(spec)
        kind = spec.get("kind")
        if kind == "numeric" and "delta" in spec and ("lo" not in spec or "hi" not in spec):
            delta = exact_number(spec["delta"])
            if delta > 0:  # NumericFeature rejects any other step
                vals = parsed[name] = [number(r, name) for r in range(len(rows))]
                lo = Fraction((min(vals) / delta).__floor__()) * delta
                hi = Fraction(-((-max(vals) / delta).__floor__())) * delta
                spec.setdefault("lo", lo)
                spec.setdefault("hi", hi if hi != lo else lo + delta)
        elif kind == "categorical" and spec.get("categories") is None:
            spec["categories"] = sorted({cell(r, name) for r in range(len(rows))})
        filled.append(spec)
    schema = FeatureSchema.from_config({"features": filled})

    points: list[Point] = []
    raw_labels: list[str] = []
    for i in range(len(rows)):
        ivals: list[int] = []
        cats: list[int] = []
        for (tag, idx), feat in zip(schema.layout, schema.features):
            v = cell(i, feat.name)
            if tag == "i":
                axis = schema.interval_axes[idx]
                num = parsed[feat.name][i] if feat.name in parsed else number(i, feat.name)
                if axis.kind == "numeric":
                    ivals.append(axis.snap_index(num))
                else:
                    if num.denominator != 1 or not 0 <= num < axis.size:
                        raise DataFormatError(
                            f"{path}: row {i}: {feat.name!r} value {v} out of range"
                        )
                    ivals.append(int(num))
            else:
                grp = schema.groups[idx]
                if v not in grp.categories:
                    raise DataFormatError(
                        f"{path}: row {i}: unknown category {v!r} for {feat.name!r}"
                    )
                cats.append(grp.categories.index(v))
        points.append(Point(tuple(ivals), tuple(cats)))
        raw_labels.append(cell(i, label_column))

    label_names = tuple(sorted(set(raw_labels)))
    label_ids = {name: j for j, name in enumerate(label_names)}
    labels = tuple(label_ids[v] for v in raw_labels)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(rows))
    n_train, n_val, _ = _split_sizes(len(rows))
    train_idx = tuple(sorted(int(i) for i in perm[:n_train]))
    val_idx = tuple(sorted(int(i) for i in perm[n_train:n_train + n_val]))
    test_idx = tuple(sorted(int(i) for i in perm[n_train + n_val:]))
    return DatasetBundle(
        schema=schema,
        points=tuple(points),
        labels=labels,
        label_names=label_names,
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
        seed=seed,
    )
