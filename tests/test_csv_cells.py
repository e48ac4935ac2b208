"""The CSV writers' column formatter against ``fmt``, cell by cell.

``io._cells`` formats a whole column at once: a number or bool array once
per distinct value (floats by their bits), a column of text once per
distinct value.  Each of its cells must be the text ``fmt`` gives that
value, quoted as ``_csv_cell`` quotes it, and NaN is refused wherever
``fmt`` refuses it: in ``write_csv``, and in ``write_matrices`` in a
present direction's access, egress and transfers cells.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hubmodal import LegMatrices, fmt, write_csv, write_matrices
from hubmodal.io import _cells, _coded_cells, _csv_cell

SETTINGS = settings(max_examples=200, deadline=None, database=None)

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, math.inf)
floats = st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_FLOATS))
ids = st.text(alphabet='ab0 ,"\r\n', max_size=4)
values = st.one_of(floats, st.integers(), st.booleans(), st.none(), ids)


def fmt_cells(column) -> list[str]:
    return [_csv_cell(fmt(v)) for v in column]


@SETTINGS
@given(st.lists(floats))
@example([0.0, -0.0, 0.0, -0.0])
@example([5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1e308])
def test_float_array_cells_are_fmt_cells(column):
    assert _cells(np.array(column, dtype=float)) == fmt_cells(column)


@SETTINGS
@given(st.lists(floats), st.data())
def test_blank_float_cells_are_empty_and_may_be_nan(column, data):
    blank = np.array(data.draw(st.lists(st.booleans(), min_size=len(column), max_size=len(column))), dtype=bool)
    array = np.array(column, dtype=float)
    array[blank] = np.nan
    expected = ["" if b else cell for b, cell in zip(blank.tolist(), fmt_cells(column))]
    assert _cells(array, blank) == expected


@SETTINGS
@given(st.lists(st.integers(-(2**63), 2**63 - 1)), st.lists(st.booleans()))
def test_integer_and_bool_array_cells_are_fmt_cells(ints, flags):
    assert _cells(np.array(ints, dtype=np.int64)) == fmt_cells(ints)
    assert _cells(np.array(flags, dtype=bool)) == fmt_cells(flags) == ["1" if f else "0" for f in flags]


@SETTINGS
@given(st.lists(values))
@example([None, True, 1, 1.0, -0.0, 0.0, "1", 'a,"b'])
def test_cells_of_python_values_are_fmt_cells(column):
    assert _cells(column) == fmt_cells(column)
    assert _cells(tuple(column)) == fmt_cells(column)


@SETTINGS
@given(st.lists(ids, min_size=1), st.data())
def test_coded_text_cells_are_fmt_cells(labels, data):
    codes = data.draw(st.lists(st.integers(0, len(labels) - 1)))
    assert _cells(labels) == fmt_cells(labels)
    assert _coded_cells(labels, np.array(codes, dtype=np.int64)) == fmt_cells([labels[c] for c in codes])


@pytest.mark.parametrize("column", [[1.0, math.nan], np.array([1.0, math.nan]), [np.float64(math.nan)]])
def test_write_csv_refuses_nan(tmp_path, column):
    with pytest.raises(ValueError, match="refusing to write NaN"):
        write_csv(tmp_path / "t.csv", ("x",), [[v] for v in column])
    with pytest.raises(ValueError, match="refusing to write NaN"):
        _cells(column)


def _one_row(to_hub: list[float], from_hub: list[float]) -> LegMatrices:
    return LegMatrices(["z"], ["h"], [0], [0], [0], np.array([[to_hub], [from_hub]], dtype=float))


PRESENT = [10.0, 1.0, 2.0, 0.0, 3.5]


@pytest.mark.parametrize("direction", [0, 1])
@pytest.mark.parametrize("field", [1, 2, 3])
def test_write_matrices_refuses_nan_in_a_present_direction(tmp_path, direction, field):
    legs = [list(PRESENT), list(PRESENT)]
    legs[direction][field] = math.nan
    with pytest.raises(ValueError, match="refusing to write NaN"):
        write_matrices(_one_row(*legs), tmp_path / "m.csv")


def test_write_matrices_blanks_absent_directions_and_unknown_miles(tmp_path):
    absent = [math.nan, math.nan, 4.0, math.nan, 1.0]  # an absent direction's other cells are not written
    path = write_matrices(_one_row(PRESENT[:4] + [math.nan], absent), tmp_path / "m.csv")
    assert path.read_text().splitlines()[1] == "z,h,bike_share,10.0,1.0,2.0,0.0,,,,,,"
