"""The CSV writers' column formatter against ``fmt``, cell by cell, and
the block writer against a row-by-row rendering.

``writers._cells`` formats a whole column at once: a number or bool
array once per distinct value (floats by their bits), a column of text
once per distinct value.  It gives a table of cell texts and each row's
code into it, in the narrowest unsigned dtype that holds the table's
last code.  Each cell, the table at its code, must be the text ``fmt``
gives that value, quoted as ``_csv_cell`` quotes it, and NaN is refused
wherever ``fmt`` refuses it: in ``write_csv``, and in ``write_matrices``
in a present direction's access, egress and transfers cells.  The writers
then write ``writers._WRITE_ROWS`` rows at a time; the bytes must not
depend on that size, a failed write must leave the target as it was, and
the write's memory must grow with the rows by at most a stated bound.
"""

from __future__ import annotations

import csv
import errno
import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hubmodal.io
import hubmodal.writers
from hubmodal import LegMatrices, fmt, load_markets, write_csv, write_markets, write_matrices
from hubmodal.choice import LEG_MODE_ORDER
from hubmodal.fixtures import generate_fixture
from hubmodal.io import MATRIX_COLUMNS
from hubmodal.writers import _cells, _csv_cell, _label_cells

SETTINGS = settings(max_examples=200, deadline=None, database=None)

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, math.inf)
floats = st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_FLOATS))
ids = st.text(alphabet='ab0 ,"\r\n', max_size=4)
values = st.one_of(floats, st.integers(), st.booleans(), st.none(), ids)


def fmt_cells(column) -> list[str]:
    return [_csv_cell(fmt(v)) for v in column]


def cells(column, blank=None) -> list[str]:
    """``_cells``' table expanded by its codes, which must be unsigned and
    as narrow as the table's last code allows."""
    texts, codes = _cells(column, blank)
    assert codes.dtype == np.min_scalar_type(max(len(texts) - 1, 0))
    return texts[codes].tolist()


@SETTINGS
@given(st.lists(floats))
@example([0.0, -0.0, 0.0, -0.0])
@example([5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1e308])
def test_float_array_cells_are_fmt_cells(column):
    assert cells(np.array(column, dtype=float)) == fmt_cells(column)


@SETTINGS
@given(st.lists(floats), st.data())
def test_blank_float_cells_are_empty_and_may_be_nan(column, data):
    blank = np.array(data.draw(st.lists(st.booleans(), min_size=len(column), max_size=len(column))), dtype=bool)
    array = np.array(column, dtype=float)
    array[blank] = np.nan
    expected = ["" if b else cell for b, cell in zip(blank.tolist(), fmt_cells(column))]
    assert cells(array, blank) == expected


@SETTINGS
@given(st.lists(st.integers(-(2**63), 2**63 - 1)), st.lists(st.booleans()))
def test_integer_and_bool_array_cells_are_fmt_cells(ints, flags):
    assert cells(np.array(ints, dtype=np.int64)) == fmt_cells(ints)
    assert cells(np.array(flags, dtype=bool)) == fmt_cells(flags) == ["1" if f else "0" for f in flags]


@SETTINGS
@given(st.lists(values))
@example([None, True, 1, 1.0, -0.0, 0.0, "1", 'a,"b'])
def test_cells_of_python_values_are_fmt_cells(column):
    assert cells(column) == fmt_cells(column)
    assert cells(tuple(column)) == fmt_cells(column)


@SETTINGS
@given(st.lists(ids, min_size=1), st.data())
def test_coded_text_cells_are_fmt_cells(labels, data):
    codes = data.draw(st.lists(st.integers(0, len(labels) - 1)))
    assert cells(labels) == fmt_cells(labels)
    assert _label_cells(labels)[np.array(codes, dtype=np.int64)].tolist() == fmt_cells([labels[c] for c in codes])


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


# ----------------------------------------------------------------------
# the block writer
# ----------------------------------------------------------------------


def _awkward_store() -> LegMatrices:
    """Every (zone, hub, leg mode) row of three zones and two hubs, with
    absent directions, blank miles and -0.0 cells; one zone id needs
    quotes and one spans two lines."""
    keys = [(z, h, m) for z in range(3) for h in range(2) for m in range(len(LEG_MODE_ORDER))]
    legs = np.round(np.random.default_rng(5).uniform(0.0, 30.0, (2, len(keys), 5)), 1)
    legs[:, ::4, 1] = -0.0
    legs[0, ::5, 0] = np.nan  # an absent to-hub direction keeps its other cells, which are not written
    legs[1, 1::6] = np.nan
    legs[:, 2::3, 4] = np.nan
    return LegMatrices(['z,"1"', "z2", "z\n3"], ["h1", "h2"], *np.array(keys).T, legs)


def _csv_text(rows: list[list[str]]) -> str:
    """Rows of cell texts as the csv module writes them, LF-ended."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _matrix_rows(store: LegMatrices) -> list[list[str]]:
    """The header and each row's cell texts, rendered row by row."""
    rows = [list(MATRIX_COLUMNS)]
    for z, h, m, to_hub, from_hub in zip(store.zone.tolist(), store.hub.tolist(), store.mode.tolist(), *store.legs):
        row = [store.zone_ids[z], store.hub_ids[h], LEG_MODE_ORDER[m].value]
        for leg in (to_hub.tolist(), from_hub.tolist()):
            present = not math.isnan(leg[0])
            row += [repr(v) if present and not math.isnan(v) else "" for v in leg]
        rows.append(row)
    return rows


CSV_ROWS = [
    [i, f"id{i}" if i % 3 else 'x,"y"\n', -0.0 if i % 2 else 1.5 * i, None if i % 4 else True] for i in range(20)
]


@pytest.mark.parametrize("write_rows", [1, 7, hubmodal.writers._WRITE_ROWS], ids=["one_row", "seven_rows", "default"])
def test_writers_write_the_same_bytes_at_every_block_size(tmp_path, monkeypatch, write_rows):
    """write_matrices and write_csv write what a row-by-row rendering
    gives, and write_markets what it wrote at the default block size."""
    generate_fixture(tmp_path / "fx", seed=3, od_pairs=5)  # 20 markets
    markets = tmp_path / "fx" / "markets.csv"
    monkeypatch.setattr(hubmodal.writers, "_WRITE_ROWS", write_rows)
    store = _awkward_store()
    assert write_matrices(store, tmp_path / "m.csv").read_text() == _csv_text(_matrix_rows(store))
    expected = _csv_text([["i", "id", "x", "flag"], *([fmt(v) for v in row] for row in CSV_ROWS)])
    assert write_csv(tmp_path / "t.csv", ("i", "id", "x", "flag"), CSV_ROWS).read_text() == expected
    assert write_markets(load_markets(markets), tmp_path / "k.csv").read_bytes() == markets.read_bytes()


class _FailingFile:
    """A text file whose ``fail_at``-th write raises ENOSPC."""

    def __init__(self, fh, fail_at: int):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(text)

    def writelines(self, texts) -> None:
        for text in texts:
            self.write(text)


@pytest.mark.parametrize("writer", ["write_csv", "write_matrices"])
def test_a_failed_block_write_keeps_the_target_and_leaves_no_temp_file(tmp_path, monkeypatch, writer):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old bytes\n")
    files = []

    def failing_open(*args, **kwargs):
        files.append(_FailingFile(open(*args, **kwargs), fail_at=3))  # the header, the first block, the second
        return files[-1]

    monkeypatch.setattr(hubmodal.writers, "_WRITE_ROWS", 7)
    monkeypatch.setattr(hubmodal.io, "open", failing_open, raising=False)
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        if writer == "write_csv":
            write_csv(target, ("i", "id", "x", "flag"), CSV_ROWS)
        else:
            write_matrices(_awkward_store(), target)
    assert [f.writes for f in files] == [3]
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def _bulk_store(n: int) -> LegMatrices:
    """``n`` rows (a multiple of 10) of two hubs and every leg mode, their
    values rounded to one of a thousand as a skim rounds them; a tenth of
    the from-hub directions absent and a tenth of the miles blank."""
    rng = np.random.default_rng(n)
    key = np.arange(n)
    legs = np.round(rng.uniform(0.0, 100.0, (2, n, 5)), 1)
    legs[1, rng.random(n) < 0.1] = np.nan
    legs[:, rng.random(n) < 0.1, 4] = np.nan
    return LegMatrices([f"z{i:06d}" for i in range(n // 10)], ["h1", "h2"], key // 10, key // 5 % 2, key % 5, legs)


def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# What a matrices write may hold per row beyond a fixed amount: each leg
# column's codes, one column's np.unique at a time, and the zone labels.
# The writers that held every cell's string and every line used about
# 360 bytes a row.
WRITE_BYTES_PER_ROW = 100


def test_write_matrices_memory_grows_by_a_bounded_amount_a_row(tmp_path):
    small, large = _bulk_store(20_000), _bulk_store(80_000)
    peaks = [_traced_peak(lambda: write_matrices(store, tmp_path / "m.csv")) for store in (small, large)]
    assert peaks[1] - peaks[0] <= WRITE_BYTES_PER_ROW * (len(large) - len(small))
