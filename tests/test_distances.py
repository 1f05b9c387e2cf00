import numpy as np
import pytest

import cfextract as cx

SPAN = 1 << 29


def ordinal_schema(n_axes: int) -> cx.FeatureSchema:
    return cx.FeatureSchema([cx.OrdinalFeature(f"o{i}", SPAN + 1) for i in range(n_axes)])


def far_rows(schema: cx.FeatureSchema):
    """The origin and the row at the opposite corner: every term at its maximum."""
    x = cx.Point((0,) * len(schema.iv_sizes), ())
    far = cx.Point((SPAN,) * len(schema.iv_sizes), ())
    return x, far, np.array([far.ivals], dtype=np.int64), np.zeros(1, dtype=np.int64)


def test_scaled_rows_refuses_a_row_sum_past_int64():
    # 40 axes of span 2**29: each L2 term is 2**58, the row sum 40 * 2**58 > 2**63
    sch = ordinal_schema(40)
    d = cx.Distance(sch, "l2")
    x, far, rows, mismatch = far_rows(sch)
    assert d.scaled(x, far) == 40 * SPAN**2
    assert not d.vectorizable
    with pytest.raises(cx.ContractViolation, match="int64"):
        d.scaled_rows(x, rows, mismatch)


@pytest.mark.parametrize("n_axes, kind, vectorizable", [
    (31, "l2", True),   # 31 * 2**58 < 2**63
    (32, "l2", False),  # 32 * 2**58 == 2**63
    (40, "l1", True),
])
def test_scaled_rows_guard_sits_at_the_int64_bound(n_axes, kind, vectorizable):
    sch = ordinal_schema(n_axes)
    d = cx.Distance(sch, kind)
    x, far, rows, mismatch = far_rows(sch)
    assert d.vectorizable is vectorizable
    if vectorizable:
        assert int(d.scaled_rows(x, rows, mismatch)[0]) == d.scaled(x, far)
    else:
        with pytest.raises(cx.ContractViolation):
            d.scaled_rows(x, rows, mismatch)


def test_group_terms_count_toward_the_bound():
    # 31 interval axes fit alone; one one-hot group more pushes the sum past int64
    base = [cx.OrdinalFeature(f"o{i}", SPAN + 1) for i in range(31)]
    assert cx.Distance(cx.FeatureSchema(base)).vectorizable
    wider = cx.FeatureSchema(base + [cx.CategoricalFeature("g", ("a", "b"))])
    assert not cx.Distance(wider).vectorizable
