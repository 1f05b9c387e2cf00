import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cfextract as cx
from cfextract.schema import exact_number, number_str
from tests.conftest import make_schema, malformed


def test_axis_accounting_mixed(schema_mixed):
    # numeric + binary + ordinal + 3 one-hot axes
    assert schema_mixed.m == 6
    assert len(schema_mixed.interval_axes) == 3
    assert schema_mixed.group_sizes == (3,)


def test_numeric_grid_must_close():
    with pytest.raises(cx.DataFormatError):
        cx.NumericFeature("x", 0, 1, Fraction(3, 10))  # (hi-lo)/delta not integer
    with pytest.raises(cx.DataFormatError):
        cx.NumericFeature("x", 1, 0, Fraction(1, 2))
    with pytest.raises(cx.DataFormatError):
        cx.OrdinalFeature("x", 1)
    with pytest.raises(cx.DataFormatError):
        cx.CategoricalFeature("x", ("only",))


def test_exact_number_float_repr():
    assert exact_number(0.1) == Fraction(1, 10)
    assert exact_number(2**-10) == Fraction(1, 1024)
    assert exact_number("1/3") == Fraction(1, 3)


def test_number_str_roundtrip():
    for v in [Fraction(1, 2), Fraction(7, 10), Fraction(-3, 8), Fraction(5),
              Fraction(1, 3), Fraction(717, 1024)]:
        assert exact_number(number_str(v)) == v
    assert number_str(Fraction(1, 2)) == "0.5"
    assert number_str(Fraction(1, 3)) == "1/3"


def test_point_json(schema_mixed):
    p = schema_mixed.point_of("0.5", 1, 3, "q")
    # one value per axis: numeric axes as exact strings, one-hot groups expanded
    assert schema_mixed.point_json(p) == ["0.5", 1, 3, 0, 1, 0]


def test_off_grid_point_rejected(schema_grid10):
    with pytest.raises(cx.ContractViolation):
        schema_grid10.point_of("0.55", "0.5")
    with pytest.raises(cx.ContractViolation):
        schema_grid10.point_of("1.1", "0.5")


def test_schema_json_roundtrip(tmp_path, schema_mixed):
    path = tmp_path / "schema.json"
    cx.save_schema(str(path), schema_mixed)
    loaded = cx.load_schema(str(path))
    assert loaded == schema_mixed
    raw = json.loads(path.read_text())
    assert raw["features"][0]["delta"] == number_str(Fraction(1, 64))


def test_lex_key_feature_order(schema_mixed):
    a = schema_mixed.point_of(0, 0, 0, "q")
    b = schema_mixed.point_of(0, 0, 1, "p")
    # feature c comes before d, and a has the smaller c value
    assert schema_mixed.lex_key(a) < schema_mixed.lex_key(b)


@pytest.mark.parametrize("config", [
    {"features": "x"},
    {"features": [{"name": "o", "kind": "ordinal", "levels": "z"}]},
    {"features": [3]},
    {"features": [{"name": ["n"], "kind": "binary"}]},
    {"features": [{"name": "c", "kind": "categorical", "categories": "abc"}]},
    {"features": [{"name": "c", "kind": "categorical", "k": "3"}]},
    {"features": [{"name": "a", "kind": "numeric", "lo": 0, "hi": float("inf"), "delta": 1}]},
    [],
])
def test_malformed_schema_config_is_a_data_format_error(config):
    with pytest.raises(cx.DataFormatError):
        cx.FeatureSchema.from_config(config)


@settings(max_examples=300)
@given(st.data())
def test_schema_loader_fuzz_raises_only_data_format_error(data):
    valid = data.draw(st.sampled_from(["mixed", "groups2", "small3"]))
    config = data.draw(malformed(make_schema(valid).to_config()))
    try:
        schema = cx.FeatureSchema.from_config(config)
    except cx.DataFormatError:
        return
    assert isinstance(schema, cx.FeatureSchema)


def test_undecodable_files_are_a_data_format_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"features": "\xff"}')
    with pytest.raises(cx.DataFormatError):
        cx.load_schema(str(path))
    with pytest.raises(cx.DataFormatError):
        cx.load_model(str(path))


@given(st.data())
def test_points_regions_and_csv_rows_write_an_index_as_file_value(tmp_path_factory, data):
    schema = make_schema(data.draw(st.sampled_from(["2num", "grid10", "mixed", "groups2",
                                                    "small3"])))
    spans = [tuple(sorted(data.draw(st.tuples(st.integers(0, size - 1),
                                              st.integers(0, size - 1)))))
             for size in schema.iv_sizes]
    cats = tuple(data.draw(st.integers(0, k - 1)) for k in schema.group_sizes)
    lo = cx.Point(tuple(a for a, _ in spans), cats)
    region = cx.Region(tuple(spans), tuple(frozenset([c]) for c in cats))
    bundle = cx.DatasetBundle(schema, (lo,), (0,), ("y0",), (0,), (), (), 0)
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    bundle.write_csv(str(path))
    row = path.read_text(encoding="utf-8").splitlines()[1].split(",")
    point, bounds = schema.point_json(lo), cx.region_json(region, schema)
    for (tag, idx), cell in zip(schema.layout, row):
        if tag != "i":
            continue
        axis = schema.interval_axes[idx]
        a, b = spans[idx]
        # an exact string on a numeric axis, the grid value as an int otherwise
        for i in (a, b):
            v = axis.file_value(i)
            if axis.kind == "numeric":
                assert type(v) is str and exact_number(v) == axis.value(i)
            else:
                assert type(v) is int and v == axis.value(i) == i
        assert point[axis.global_axis] == axis.file_value(a)
        assert bounds[axis.global_axis] == [axis.file_value(a), axis.file_value(b)]
        assert cell == str(axis.file_value(a))
