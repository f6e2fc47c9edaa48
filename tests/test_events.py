import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadkin.events import PARAM_NAMES, EventParams, ParamTable, Severity, SourceGroup

finite = st.floats(allow_nan=False, allow_infinity=False)
rows = st.builds(
    EventParams,
    event_id=st.text(max_size=6),
    **{name: finite for name in PARAM_NAMES},
    weight=st.floats(min_value=1e-6, max_value=1e6),
    source_group=st.none() | st.sampled_from(SourceGroup),
    severity=st.none() | st.sampled_from(Severity),
    native_weight=st.none() | st.floats(min_value=1e-6, max_value=1e6),
)


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(rows, max_size=10))
def test_from_rows_iterates_back_to_the_rows(rows):
    table = ParamTable.from_rows(rows)
    assert len(table) == len(rows)
    assert list(table) == rows
    for j, name in enumerate(PARAM_NAMES):
        assert table[name].tolist() == [getattr(r, name) for r in rows]
        assert table[name].tolist() == table.values[:, j].tolist()
    assert all(type(r.v_c) is float and type(r.weight) is float for r in table)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), rows=st.lists(rows, min_size=1, max_size=10))
def test_take_keeps_the_given_order(data, rows):
    table = ParamTable.from_rows(rows)
    index = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=12))
    assert list(table.take(index)) == [rows[i] for i in index]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))))
    assert list(table.take(mask)) == [r for r, keep in zip(rows, mask) if keep]
    weights = data.draw(st.lists(finite, min_size=len(rows), max_size=len(rows)))
    reweighted = table.with_weights(weights)
    assert reweighted.weight.tolist() == weights
    assert reweighted.event_id.tolist() == table.event_id.tolist()
    assert list(ParamTable.concat([table, reweighted])) == rows + list(reweighted)


@pytest.mark.parametrize(
    "column", ["weight", "event_id", "source_group", "severity", "native_weight"]
)
def test_unequal_columns_raise(column):
    values = np.zeros((3, len(PARAM_NAMES)))
    with pytest.raises(ValueError, match="unequal length"):
        ParamTable(values, **{column: [1.0] * 2})
    with pytest.raises(ValueError, match="unequal length"):
        ParamTable(values, **{column: [1.0] * 4})


def test_values_must_have_six_columns():
    with pytest.raises(ValueError, match="shape"):
        ParamTable(np.zeros((3, 5)))
    with pytest.raises(ValueError, match="shape"):
        ParamTable(np.zeros(6))
