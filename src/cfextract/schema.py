"""Quantized feature spaces: feature declarations, compiled axis tables, points.

Numeric features carry an explicit grid step, so the whole input domain is a
finite grid. Everything downstream (membership, splitting, distances,
equivalence) works on integer grid indices, which keeps the geometry exact.
Exact rationals (and decimal strings) only appear at the file boundary.

A numeric, ordinal or binary feature compiles to one ``IntervalAxis`` (a
grid of ``size`` values ``lo + i*step``); a categorical feature with k
categories compiles to one ``CategoryGroup`` of k one-hot axes, so the total
axis count is ``m = #numeric + #binary + #ordinal + sum(k_j)``. A point holds
one index per interval axis and one category per group: it is built from
feature values by ``point_of`` and written out per axis by ``point_json``.

The file boundary is three functions. ``read_json`` and ``write_json`` are
the only places that open a JSON file: schemas, models and schema configs all
go through them, and every file that is not UTF-8 JSON is a
``DataFormatError`` naming its path. ``IntervalAxis.file_value`` is the one
rule for writing an interval index to a file: an exact string on a numeric
axis, an int otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence, Union

from .errors import ContractViolation, DataFormatError


def exact_number(x) -> Fraction:
    """Parse a number into an exact Fraction.

    Floats go through ``repr``, so a JSON ``0.1`` means literally 1/10.
    Strings accept both decimal ("0.25") and ratio ("1/3") forms.
    """
    if isinstance(x, bool):
        raise DataFormatError(f"expected a number, got {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, str)):
        try:
            return Fraction(repr(x) if isinstance(x, float) else x)
        except (ValueError, ZeroDivisionError) as exc:  # also inf and nan
            raise DataFormatError(f"cannot parse number {x!r}") from exc
    raise DataFormatError(f"cannot interpret {x!r} as an exact number")


def json_int(x, what: str) -> int:
    """An integer field of a loaded file; anything else is a DataFormatError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DataFormatError(f"{what} must be an integer, got {x!r}")
    return x


def number_str(v: Fraction) -> str:
    """Exact string form: terminating decimal when possible, else 'p/q'."""
    num, den = v.numerator, v.denominator
    if den == 1:
        return str(num)
    e2 = e5 = 0
    d = den
    while d % 2 == 0:
        d //= 2
        e2 += 1
    while d % 5 == 0:
        d //= 5
        e5 += 1
    if d != 1:
        return f"{num}/{den}"
    exp = max(e2, e5)
    scaled = abs(num) * 10**exp // den
    digits = str(scaled).rjust(exp + 1, "0")
    head, tail = digits[:-exp], digits[-exp:]
    sign = "-" if num < 0 else ""
    return f"{sign}{head}.{tail}"


@dataclass(frozen=True)
class NumericFeature:
    """A real-valued feature on the grid {lo, lo+delta, ..., hi}."""

    name: str
    lo: Fraction
    hi: Fraction
    delta: Fraction
    kind: ClassVar[str] = "numeric"

    def __post_init__(self):
        object.__setattr__(self, "lo", exact_number(self.lo))
        object.__setattr__(self, "hi", exact_number(self.hi))
        object.__setattr__(self, "delta", exact_number(self.delta))
        if self.delta <= 0:
            raise DataFormatError(f"{self.name}: delta must be positive")
        if not self.lo < self.hi:
            raise DataFormatError(f"{self.name}: requires lo < hi")
        steps = (self.hi - self.lo) / self.delta
        if steps.denominator != 1:
            raise DataFormatError(
                f"{self.name}: (hi - lo)/delta = {steps} is not an integer"
            )

    @property
    def steps(self) -> int:
        return int((self.hi - self.lo) / self.delta)


@dataclass(frozen=True)
class OrdinalFeature:
    """An integer-leveled feature taking values 0 .. levels-1."""

    name: str
    levels: int
    kind: ClassVar[str] = "ordinal"

    def __post_init__(self):
        if not isinstance(self.levels, int) or self.levels < 2:
            raise DataFormatError(f"{self.name}: ordinal needs levels >= 2")


@dataclass(frozen=True)
class BinaryFeature:
    name: str
    kind: ClassVar[str] = "binary"


@dataclass(frozen=True)
class CategoricalFeature:
    """A k-way categorical feature, represented as a one-hot group of k axes."""

    name: str
    categories: tuple[str, ...]
    kind: ClassVar[str] = "categorical"

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        if len(self.categories) < 2:
            raise DataFormatError(f"{self.name}: categorical needs k >= 2")
        if len(set(self.categories)) != len(self.categories):
            raise DataFormatError(f"{self.name}: duplicate category names")

    @property
    def k(self) -> int:
        return len(self.categories)


FeatureSpec = Union[NumericFeature, OrdinalFeature, BinaryFeature, CategoricalFeature]


@dataclass(frozen=True)
class IntervalAxis:
    """Compiled view of a numeric/ordinal/binary feature.

    Grid indices run 0 .. size-1; ``value(i) = lo + i*step``.
    """

    name: str
    kind: str
    size: int
    lo: Fraction
    step: Fraction
    global_axis: int

    def value(self, idx: int) -> Fraction:
        return self.lo + idx * self.step

    def file_value(self, idx: int):
        """``value(idx)`` as files hold it: an exact string on a numeric
        axis, an int on an ordinal or binary one."""
        v = self.value(idx)
        return number_str(v) if self.kind == "numeric" else int(v)

    def index(self, value) -> int:
        v = exact_number(value)
        q = (v - self.lo) / self.step
        if q.denominator != 1:
            raise ContractViolation(
                f"axis {self.name}: value {number_str(v)} is off-grid"
            )
        i = int(q)
        if not 0 <= i < self.size:
            raise ContractViolation(
                f"axis {self.name}: value {number_str(v)} outside [lo, hi]"
            )
        return i

    def snap_index(self, value) -> int:
        """Nearest grid index for a possibly off-grid value, clamped in range."""
        v = exact_number(value)
        q = (v - self.lo) / self.step
        i = (2 * q.numerator + q.denominator) // (2 * q.denominator)
        return min(max(int(i), 0), self.size - 1)


@dataclass(frozen=True)
class CategoryGroup:
    """Compiled view of a categorical feature's one-hot axis group."""

    name: str
    categories: tuple[str, ...]
    global_axis0: int

    @property
    def k(self) -> int:
        return len(self.categories)


@dataclass(frozen=True, slots=True)
class Point:
    """A grid point: one index per interval axis, one category per group."""

    ivals: tuple[int, ...]
    cats: tuple[int, ...]


class FeatureSchema:
    """An ordered feature list compiled into flat axis tables."""

    def __init__(self, features: Sequence[FeatureSpec]):
        features = tuple(features)
        if not features:
            raise DataFormatError("schema needs at least one feature")
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise DataFormatError("duplicate feature names")
        self.features: tuple[FeatureSpec, ...] = features

        interval_axes: list[IntervalAxis] = []
        groups: list[CategoryGroup] = []
        layout: list[tuple[str, int]] = []  # per feature: ("i", idx) or ("g", idx)
        axis_table: list[tuple] = []  # per global axis: ("i", iv) or ("g", g, cat)
        g_axis = 0
        for f in features:
            if isinstance(f, CategoricalFeature):
                gi = len(groups)
                groups.append(CategoryGroup(f.name, f.categories, g_axis))
                layout.append(("g", gi))
                axis_table += [("g", gi, c) for c in range(f.k)]
                g_axis += f.k
                continue
            if isinstance(f, NumericFeature):
                size, lo, step = f.steps + 1, f.lo, f.delta
            elif isinstance(f, OrdinalFeature):
                size, lo, step = f.levels, Fraction(0), Fraction(1)
            elif isinstance(f, BinaryFeature):
                size, lo, step = 2, Fraction(0), Fraction(1)
            else:  # pragma: no cover - guarded by typing
                raise DataFormatError(f"unknown feature spec {f!r}")
            layout.append(("i", len(interval_axes)))
            axis_table.append(("i", len(interval_axes)))
            interval_axes.append(IntervalAxis(f.name, f.kind, size, lo, step, g_axis))
            g_axis += 1

        self.interval_axes: tuple[IntervalAxis, ...] = tuple(interval_axes)
        self.groups: tuple[CategoryGroup, ...] = tuple(groups)
        self.layout: tuple[tuple[str, int], ...] = tuple(layout)
        self.axis_table: tuple[tuple, ...] = tuple(axis_table)
        self.m: int = g_axis
        self.iv_sizes: tuple[int, ...] = tuple(a.size for a in self.interval_axes)
        self.group_sizes: tuple[int, ...] = tuple(g.k for g in self.groups)

    # -- identity ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureSchema) and self.features == other.features

    def __hash__(self) -> int:
        return hash(self.features)

    def __repr__(self) -> str:
        return f"FeatureSchema({len(self.features)} features, m={self.m})"

    # -- points -----------------------------------------------------------
    def point_of(self, *feature_values) -> Point:
        """Build a point from one value per feature (categories by index or name)."""
        if len(feature_values) != len(self.features):
            raise ContractViolation("expected one value per feature")
        ivals: list[int] = []
        cats: list[int] = []
        for (tag, idx), v in zip(self.layout, feature_values):
            if tag == "i":
                ivals.append(self.interval_axes[idx].index(v))
            else:
                grp = self.groups[idx]
                if isinstance(v, str):
                    if v not in grp.categories:
                        raise ContractViolation(f"group {grp.name}: unknown category {v!r}")
                    cats.append(grp.categories.index(v))
                else:
                    if not 0 <= int(v) < grp.k:
                        raise ContractViolation(f"group {grp.name}: category {v} out of range")
                    cats.append(int(v))
        return Point(tuple(ivals), tuple(cats))

    def point_json(self, p: Point) -> list:
        out: list = []
        for entry in self.axis_table:
            if entry[0] == "i":
                out.append(self.interval_axes[entry[1]].file_value(p.ivals[entry[1]]))
            else:
                _, gi, c = entry
                out.append(1 if p.cats[gi] == c else 0)
        return out

    def lex_key(self, p: Point) -> tuple:
        """Feature-order comparison key (monotone in axis values)."""
        key: list[int] = []
        for tag, idx in self.layout:
            key.append(p.ivals[idx] if tag == "i" else p.cats[idx])
        return tuple(key)

    # -- serialization ----------------------------------------------------
    def to_config(self) -> dict:
        feats = []
        for f in self.features:
            if isinstance(f, NumericFeature):
                feats.append(
                    {
                        "name": f.name,
                        "kind": "numeric",
                        "lo": number_str(f.lo),
                        "hi": number_str(f.hi),
                        "delta": number_str(f.delta),
                    }
                )
            elif isinstance(f, OrdinalFeature):
                feats.append({"name": f.name, "kind": "ordinal", "levels": f.levels})
            elif isinstance(f, BinaryFeature):
                feats.append({"name": f.name, "kind": "binary"})
            else:
                feats.append(
                    {"name": f.name, "kind": "categorical", "categories": list(f.categories)}
                )
        return {"features": feats}

    @staticmethod
    def from_config(config: dict) -> "FeatureSchema":
        if not isinstance(config, dict) or not isinstance(config.get("features"), list):
            raise DataFormatError("schema config must be an object with a 'features' list")
        feats: list[FeatureSpec] = []
        for i, entry in enumerate(config["features"]):
            if not isinstance(entry, dict):
                raise DataFormatError(f"feature {i} must be an object")
            kind = entry.get("kind")
            name = entry.get("name", f"f{i}")
            if not isinstance(name, str):
                raise DataFormatError(f"feature {i}: name must be a string")
            if kind == "numeric":
                try:
                    feats.append(
                        NumericFeature(name, entry["lo"], entry["hi"], entry["delta"])
                    )
                except KeyError as exc:
                    raise DataFormatError(f"{name}: numeric needs lo/hi/delta") from exc
            elif kind == "ordinal":
                feats.append(OrdinalFeature(name, entry.get("levels")))
            elif kind == "binary":
                feats.append(BinaryFeature(name))
            elif kind == "categorical":
                cats = entry.get("categories")
                if cats is None:
                    cats = [str(j) for j in range(json_int(entry.get("k", 0), f"{name}: k"))]
                if not isinstance(cats, list):
                    raise DataFormatError(f"{name}: categories must be a list")
                feats.append(CategoricalFeature(name, tuple(str(c) for c in cats)))
            else:
                raise DataFormatError(f"{name}: unknown feature kind {kind!r}")
        return FeatureSchema(feats)


def read_json(path: str):
    """The JSON value in the file ``path``; a file that is not UTF-8 JSON is
    a DataFormatError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # RecursionError: arrays or objects nested past the decoder's depth
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc


def write_json(path: str, data) -> None:
    """Write ``data`` to ``path`` as indented JSON and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def save_schema(path: str, schema: FeatureSchema) -> None:
    write_json(path, schema.to_config())


def load_schema(path: str) -> FeatureSchema:
    return FeatureSchema.from_config(read_json(path))
