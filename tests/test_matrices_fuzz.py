"""Property tests for the leg-matrix loader and writer.

Valid tables written by ``write_matrices`` load back to the same entries
and re-write to the same bytes.  One malformed cell planted in such a
table (a bad number, ``nan``/``inf`` text, an unknown leg mode, an empty
key cell, or a repeated key, within one file or across two) makes
``load_matrices`` raise ``ParseError`` naming the file, the row and the
column of that cell.  Irregular input planted in such a table (padding,
literal NaN or infinity, quotes, CRLF, blank lines, ragged rows, blank
or ``nan`` keys) loads to the same store, or the same error, as when
every batch goes through csv.reader.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import IRREGULAR, load_both, plant_irregular
from hubmodal import LegMatrices, LegTimes, Mode, ParseError, load_matrices, write_matrices
from hubmodal.choice import LEG_MODES
from hubmodal.io import MATRIX_COLUMNS

SETTINGS = settings(max_examples=80, deadline=None, database=None)

ids = st.text(alphabet="abz019/_-.", min_size=1, max_size=5)
finite = st.floats(allow_nan=False, allow_infinity=False)
legs = st.builds(
    LegTimes,
    minutes=finite,
    access_min=finite,
    egress_min=finite,
    transfers=finite,
    miles=st.none() | finite,
)
rows = st.tuples(ids, ids, st.sampled_from(LEG_MODES), st.none() | legs, st.none() | legs)
tables = st.lists(rows, min_size=1, max_size=12, unique_by=lambda r: r[:3])

NUMERIC_COLUMNS = MATRIX_COLUMNS[3:]
BAD_NUMBERS = ("abc", "1.2.3", "--1", "5e", "0x10", "nan", "NaN", "inf", "-inf", "Infinity", "1e999")
BAD_MODES = ("teleport", "BUS", "walk_leg", "car share")


def _build(table) -> LegMatrices:
    matrices = LegMatrices()
    for zone, hub, mode, to_hub, from_hub in table:
        matrices.add(zone, hub, mode, to_hub, from_hub)
    return matrices


def _error_pattern(path: Path, row: int, column: str) -> str:
    return rf"{re.escape(str(path))} row {row}: .* in column '{column}'$"


@SETTINGS
@given(table=tables)
# negative zeros in the count cells, which a blank-means-0 rule can lose
@example(table=[("z", "h", Mode.BUS, LegTimes(1.0, -0.0, -0.0, -0.0, -0.0), None)])
def test_valid_tables_round_trip_losslessly(table):
    matrices = _build(table)
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "a.csv"
        second = Path(tmp) / "b.csv"
        write_matrices(matrices, first)
        back = load_matrices([first])
        assert back.entries == matrices.entries
        for zone, hub, mode, to_hub, from_hub in table:
            assert back.entries[zone, hub, mode] == (to_hub, from_hub)
        write_matrices(back, second)
        assert second.read_bytes() == first.read_bytes()


@SETTINGS
@given(table=tables, data=st.data())
def test_malformed_cell_names_file_row_and_column(table, data):
    kind = data.draw(st.sampled_from(("number", "mode", "empty")))
    if kind == "number":
        column = data.draw(st.sampled_from(NUMERIC_COLUMNS))
        token = data.draw(st.sampled_from(BAD_NUMBERS))
    elif kind == "mode":
        column, token = "mode", data.draw(st.sampled_from(BAD_MODES))
    else:
        column, token = data.draw(st.sampled_from(MATRIX_COLUMNS[:3])), ""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        write_matrices(_build(table), path)
        lines = path.read_text().splitlines()
        line = data.draw(st.integers(1, len(lines) - 1))
        cells = lines[line].split(",")
        cells[MATRIX_COLUMNS.index(column)] = token
        lines[line] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=_error_pattern(path, line + 1, column)):
            load_matrices([path])


@SETTINGS
@given(table=tables.filter(lambda t: len(t) >= 2), data=st.data())
def test_repeated_key_names_the_later_row(table, data):
    first = data.draw(st.integers(0, len(table) - 2))
    later = data.draw(st.integers(first + 1, len(table) - 1))
    split = data.draw(st.integers(1, len(table)))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "m1.csv", Path(tmp) / "m2.csv"]
        write_matrices(_build(table), paths[0])
        header, *data_rows = paths[0].read_text().splitlines()
        # Data rows 0..split-1 go to the first file, the rest to the
        # second; the later row takes the earlier row's key.
        key = data_rows[first].split(",")[:3]
        cells = data_rows[later].split(",")
        data_rows[later] = ",".join(key + cells[3:])
        paths[0].write_text("\n".join([header] + data_rows[:split]) + "\n")
        paths[1].write_text("\n".join([header] + data_rows[split:]) + "\n")
        if later < split:
            path, row = paths[0], later + 2
        else:
            path, row = paths[1], later - split + 2
        with pytest.raises(ParseError, match=_error_pattern(path, row, "zone_id")):
            load_matrices(paths)


@SETTINGS
@given(table=tables, data=st.data())
def test_irregular_input_reads_as_csv_reader_reads_it(table, data):
    kind = data.draw(st.sampled_from(IRREGULAR))
    key = data.draw(st.integers(0, 2))
    number = data.draw(st.integers(3, len(MATRIX_COLUMNS) - 1))
    line = data.draw(st.integers(1, len(table)))
    batch_chars = data.draw(st.sampled_from((64, 1 << 17)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        write_matrices(_build(table), path)
        path.write_bytes(plant_irregular(path.read_text(), kind, line, key, number).encode())
        fast, exact = load_both(lambda p: load_matrices([p]), path, batch_chars)
        assert fast == exact

