"""Property tests for the markets, survey and observed-usage loaders.

Valid tables written by ``write_markets``, ``write_survey`` and
``write_hub_records`` load back to the same values (markets as a
MarketTable) and re-write to the same bytes.  One malformed cell planted
in such a table (a bad number, a bad 0/1 flag, an unknown segment or leg
mode, an empty required cell) makes the loader raise ``ParseError``
naming the file, the row and the column of that cell, and so does a
market attribute or taste coefficient beyond VALUE_BOUND in magnitude,
or a usage count outside the range its route formula takes: valid
tables are drawn within them.  Irregular input planted in such a
table (padding, literal NaN or infinity, quotes, CRLF, blank lines,
ragged rows, blank or ``nan`` keys) loads to the same value, or the same
error, in one-record batches as in one batch holding the whole file.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IRREGULAR, assert_same_markets, load_batched, plant_irregular
from reference_model import Market, ModeAttr, TasteVector, table_from_markets
from hubmodal import (
    TASTE_FIELDS,
    GeoPoint,
    HubRecord,
    ParseError,
    Segment,
    SurveyRecord,
    load_hub_records,
    load_markets,
    load_survey,
    write_hub_records,
    write_markets,
    write_survey,
)
from hubmodal.choice import LEG_MODES
from hubmodal.hubs import MARKET_MODE_COLUMNS, VALUE_BOUND
from hubmodal.io import HUB_RECORD_COLUMNS, MARKET_BASE_COLUMNS, MARKET_COLUMNS, SURVEY_COLUMNS

SETTINGS = settings(max_examples=60, deadline=None, database=None)

ids = st.text(alphabet="abz019/_-.", min_size=1, max_size=5)
finite = st.floats(allow_nan=False, allow_infinity=False)
# market attributes and taste coefficients, within the bound
bounded = st.floats(-VALUE_BOUND, VALUE_BOUND)
not_negative = st.floats(min_value=-0.0, max_value=VALUE_BOUND)  # -0.0 is not below 0
beyond = st.floats(min_value=VALUE_BOUND, exclude_min=True, allow_infinity=False)
points = st.builds(GeoPoint, lat=st.floats(-90.0, 90.0), lon=st.floats(-180.0, 180.0))
segments = st.sampled_from(list(Segment))

BAD_NUMBERS = ("abc", "1.2.3", "--1", "5e", "0x10", "nan", "inf", "-inf", "1e999")
BAD_FLAGS = ("2", "yes", "-1", "1.0")
BAD_SEGMENTS = ("elderly", "Senior", "low income")
BAD_MODES = ("teleport", "BUS", "walk_leg")


@st.composite
def markets(draw) -> Market:
    n_modes = len(MARKET_MODE_COLUMNS)
    available = draw(st.lists(st.booleans(), min_size=n_modes, max_size=n_modes).filter(any))
    attrs = {
        # times and transfer counts are never negative; a cost may be
        mode: ModeAttr(available=flag, **{f: draw(bounded if f == "cost_usd" else not_negative) for f in fields_})
        for (_, mode, fields_), flag in zip(MARKET_MODE_COLUMNS, available)
    }
    taste = {name: draw(bounded) for name in TASTE_FIELDS}
    taste["beta_cost"] = draw(st.floats(-VALUE_BOUND, 0.0, exclude_max=True))
    return Market(
        od_id=draw(ids),
        segment=draw(segments),
        origin=draw(points),
        destination=draw(points),
        trips_per_day=draw(st.floats(min_value=0.0, allow_infinity=False)),
        driving_miles=draw(finite),
        attrs=attrs,
        taste=TasteVector(**taste),
        o_zone=draw(ids),
        d_zone=draw(ids),
    )


survey_records = st.builds(
    SurveyRecord,
    hub_id=ids,
    origin=points,
    destination=points,
    entry_mode=st.sampled_from(LEG_MODES),
    exit_mode=st.sampled_from(LEG_MODES),
    segment=st.none() | segments,
    complete=st.booleans(),
)


# usage counts within the loader's range rules
counts = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
shares = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def hub_records(draw, hub_id: str) -> HubRecord:
    backend = draw(st.none() | counts)
    backend_route = {
        "backend_trips_per_month": backend,
        "days_per_month": draw(positive if backend is not None else st.none() | positive),
        "service_share": draw(shares if backend is not None else st.none() | shares),
    }
    return HubRecord(
        hub_id=hub_id,
        location=draw(points),
        car_share_available=draw(st.booleans()),
        bike_share_available=draw(st.booleans()),
        **backend_route,
        survey_responses=draw(st.none() | counts),
        survey_days=draw(st.none() | positive),
        sample_rate=draw(st.none() | positive),
    )


market_tables = st.lists(markets(), min_size=1, max_size=8, unique_by=lambda m: m.market_id)
survey_tables = st.lists(survey_records, min_size=1, max_size=8)
hub_tables = st.lists(ids, min_size=1, max_size=6, unique=True).flatmap(
    lambda hub_ids: st.tuples(*(hub_records(h) for h in hub_ids)).map(list)
)


def _round_trip(records, write, load):
    """What ``load`` reads back from ``write``'s file, once re-writing it
    has given the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "a.csv"
        second = Path(tmp) / "b.csv"
        write(records, first)
        back = load(first)
        write(back, second)
        assert second.read_bytes() == first.read_bytes()
        return back


@SETTINGS
@given(table=market_tables)
def test_markets_round_trip(table):
    table = table_from_markets(table)
    assert_same_markets(_round_trip(table, write_markets, load_markets), table)


@SETTINGS
@given(table=survey_tables)
def test_survey_round_trip(table):
    assert _round_trip(table, write_survey, load_survey) == table


@SETTINGS
@given(table=hub_tables)
def test_observed_usage_round_trip(table):
    assert _round_trip(table, write_hub_records, load_hub_records) == sorted(table, key=lambda r: r.hub_id)


# column -> malformed tokens for it
_MODE_NUMBERS = [f"{prefix}_{f}" for prefix, _, fields_ in MARKET_MODE_COLUMNS for f in fields_]
MARKET_FAULTS = {
    "od_id": ("",),
    "segment": ("", *BAD_SEGMENTS),
    **dict.fromkeys(MARKET_BASE_COLUMNS[2:], ("", *BAD_NUMBERS)),
    # an unavailable mode's numeric cells may be blank, never malformed
    **dict.fromkeys(_MODE_NUMBERS, BAD_NUMBERS),
    **{f"{prefix}_available": ("", *BAD_FLAGS) for prefix, _, _ in MARKET_MODE_COLUMNS},
    **dict.fromkeys(TASTE_FIELDS, ("", *BAD_NUMBERS)),
}
SURVEY_FAULTS = {
    "hub_id": ("",),
    **dict.fromkeys(SURVEY_COLUMNS[1:5], ("", *BAD_NUMBERS)),
    "entry_mode": ("", *BAD_MODES),
    "exit_mode": ("", *BAD_MODES),
    # a blank segment is unlabelled and a blank complete flag means 1
    "segment": BAD_SEGMENTS,
    "complete": BAD_FLAGS,
}
HUB_FAULTS = {
    "hub_id": ("",),
    "lat": ("", *BAD_NUMBERS),
    "lon": ("", *BAD_NUMBERS),
    "car_share_available": ("", *BAD_FLAGS),
    "bike_share_available": ("", *BAD_FLAGS),
    # a malformed number, or a count outside its route formula's range
    "backend_trips_per_month": (*BAD_NUMBERS, "-1"),
    "days_per_month": (*BAD_NUMBERS, "0", "-2.5"),
    "service_share": (*BAD_NUMBERS, "0", "1.5"),
    "survey_responses": (*BAD_NUMBERS, "-1"),
    "survey_days": (*BAD_NUMBERS, "0", "-3"),
    "sample_rate": (*BAD_NUMBERS, "0", "-0.25"),
}


def _plant_fault(data, records, write, load, header, faults):
    column = data.draw(st.sampled_from(sorted(faults)))
    token = data.draw(st.sampled_from(faults[column]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write(records, path)
        lines = path.read_text().splitlines()
        line = data.draw(st.integers(1, len(lines) - 1))
        cells = lines[line].split(",")
        cells[list(header).index(column)] = token
        lines[line] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        pattern = rf"^{re.escape(str(path))} row {line + 1}: .* in column '{column}'$"
        with pytest.raises(ParseError, match=pattern):
            load(path)


@SETTINGS
@given(table=market_tables, data=st.data())
def test_malformed_market_cell_names_file_row_and_column(table, data):
    _plant_fault(data, table_from_markets(table), write_markets, load_markets, MARKET_COLUMNS, MARKET_FAULTS)


@SETTINGS
@given(table=market_tables, data=st.data())
def test_market_value_beyond_the_bound_names_file_row_and_column(table, data):
    # a time or transfer count drawn negative would break another rule first
    column = data.draw(st.sampled_from([*_MODE_NUMBERS, *TASTE_FIELDS]))
    sign = -1.0 if column.endswith("_cost_usd") or column in TASTE_FIELDS else 1.0
    value = sign * data.draw(beyond)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_markets(table_from_markets(table), path)
        lines = path.read_text().splitlines()
        line = data.draw(st.integers(1, len(lines) - 1))
        cells = lines[line].split(",")
        cells[MARKET_COLUMNS.index(column)] = repr(value)
        lines[line] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        why = re.escape(f"magnitude of {value!r} above {VALUE_BOUND!r}")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))} row {line + 1}: {why} in column '{column}'$"):
            load_markets(path)


@SETTINGS
@given(table=survey_tables, data=st.data())
def test_malformed_survey_cell_names_file_row_and_column(table, data):
    _plant_fault(data, table, write_survey, load_survey, SURVEY_COLUMNS, SURVEY_FAULTS)


@SETTINGS
@given(table=hub_tables, data=st.data())
def test_malformed_observed_usage_cell_names_file_row_and_column(table, data):
    _plant_fault(data, table, write_hub_records, load_hub_records, HUB_RECORD_COLUMNS, HUB_FAULTS)


# text columns, then number columns, to plant irregular input in
_MARKET_TEXT = ["od_id", "segment", *(f"{prefix}_available" for prefix, _, _ in MARKET_MODE_COLUMNS), "o_zone", "d_zone"]
MARKET_CELLS = (_MARKET_TEXT, [c for c in MARKET_COLUMNS if c not in _MARKET_TEXT])
SURVEY_CELLS = (["hub_id", "entry_mode", "exit_mode", "segment", "complete"], list(SURVEY_COLUMNS[1:5]))
HUB_CELLS = (["hub_id", "car_share_available", "bike_share_available"], ["lat", "lon", *HUB_RECORD_COLUMNS[5:]])


def _plant_irregular(data, records, write, load, header, cells):
    text_columns, number_columns = cells
    kind = data.draw(st.sampled_from(IRREGULAR))
    key = list(header).index(data.draw(st.sampled_from(text_columns)))
    number = list(header).index(data.draw(st.sampled_from(number_columns)))
    line = data.draw(st.integers(1, len(records)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write(records, path)
        path.write_bytes(plant_irregular(path.read_text(), kind, line, key, number).encode())
        one_record, whole = load_batched(load, path)
        assert one_record == whole


@SETTINGS
@given(table=market_tables, data=st.data())
def test_irregular_market_input_reads_as_csv_reader_reads_it(table, data):
    _plant_irregular(data, table_from_markets(table), write_markets, load_markets, MARKET_COLUMNS, MARKET_CELLS)


@SETTINGS
@given(table=survey_tables, data=st.data())
def test_irregular_survey_input_reads_as_csv_reader_reads_it(table, data):
    _plant_irregular(data, table, write_survey, load_survey, SURVEY_COLUMNS, SURVEY_CELLS)


@SETTINGS
@given(table=hub_tables, data=st.data())
def test_irregular_observed_usage_input_reads_as_csv_reader_reads_it(table, data):
    _plant_irregular(data, table, write_hub_records, load_hub_records, HUB_RECORD_COLUMNS, HUB_CELLS)
