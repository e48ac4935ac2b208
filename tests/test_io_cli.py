"""File format round-trips, parse errors, and the command-line pipeline.

CLI commands run in-process through main(argv) against a generated
fixture in a temp directory.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import io
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from conftest import OFF_DEFAULTS, assert_same_markets, full_attrs, load_batched, load_taste_parameters, make_market, make_taste, snapshot
from reference_model import ModeAttr, add_leg, table_from_markets

from hubmodal import (
    FareTable,
    Manifest,
    MAIN_MODES,
    GeoPoint,
    HubRecord,
    LegMatrices,
    LegTimes,
    Mode,
    ParseError,
    PipelineConfig,
    Segment,
    TASTE_FIELDS,
    StopRecord,
    SurveyRecord,
    fmt,
    load_fares,
    load_hub_records,
    load_markets,
    load_matrices,
    load_params,
    load_pr_lots,
    load_stops,
    load_survey,
    sha256_digest,
    write_fares,
    write_hub_records,
    write_json,
    write_markets,
    write_matrices,
    write_pr_lots,
    write_stops,
    write_survey,
)
import hubmodal.cli
import hubmodal.io
from hubmodal.cli import main
from hubmodal.hubs import MARKET_MODE_COLUMNS, MarketError
from hubmodal.io import MATRIX_COLUMNS
from hubmodal.siting import METRIC_KEYS


def test_fmt_values():
    assert fmt(None) == ""
    assert fmt(True) == "1"
    assert fmt(False) == "0"
    assert fmt(np.bool_(True)) == "1"
    assert fmt(1.5) == "1.5"
    assert fmt(np.float64(1.5)) == "1.5"  # no numpy scalar repr leakage
    assert fmt(np.int64(7)) == "7"
    assert fmt("plain") == "plain"
    assert float(fmt(0.1 + 0.2)) == 0.1 + 0.2  # round-trips exactly
    with pytest.raises(ValueError, match="NaN"):
        fmt(float("nan"))


def test_write_json_writes_numpy_types_as_json_values(tmp_path):
    blob = {"a": np.float64(1.5), "b": [np.int32(2), np.bool_(False)], "c": np.arange(3)}
    blob["d"] = MappingProxyType({"e": np.float32(0.5)})
    path = write_json(tmp_path / "blob.json", blob)
    assert json.loads(path.read_text()) == {"a": 1.5, "b": [2, False], "c": [0, 1, 2], "d": {"e": 0.5}}


def test_markets_round_trip(tmp_path):
    markets = [
        make_market(od_id="od1", segment=Segment.LOW_INCOME, trips=10.25, miles=4.125),
        make_market(od_id="od1", segment=Segment.SENIOR, trips=3.5),
        make_market(od_id="od2", segment=Segment.STUDENT, taste=make_taste(beta_cost=-0.123456)),
    ]
    path = tmp_path / "markets.csv"
    write_markets(table_from_markets(markets), path)
    back = load_markets(path)
    assert back.ids == tuple(sorted(m.market_id for m in markets))
    assert_same_markets(back, table_from_markets(markets))


# ids holding a comma, a quote or a line break: written quoted, as the
# csv module quotes them, and read back whole
AWKWARD_IDS = ("od,0000", 'od"1"', "od\n2", "od\r3", 'a,"b"\r\nc')


def test_markets_round_trip_quotes_awkward_ids(tmp_path):
    markets = [make_market(od_id=od_id) for od_id in AWKWARD_IDS]
    path = tmp_path / "markets.csv"
    write_markets(table_from_markets(markets), path)
    assert '"od,0000"' in path.read_text() and '"od""1"""' in path.read_text()
    back = load_markets(path)
    assert_same_markets(back, table_from_markets(markets))
    again = tmp_path / "again.csv"
    write_markets(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_matrices_round_trip_quotes_awkward_ids(tmp_path):
    matrices = LegMatrices()
    for zone, hub in zip(AWKWARD_IDS, reversed(AWKWARD_IDS)):
        add_leg(matrices, zone, hub, Mode.BUS, LegTimes(5.0, 1.0, 2.0, 0.0, 3.5), None)
    path = tmp_path / "m.csv"
    write_matrices(matrices, path)
    back = load_matrices([path])
    assert back.entries == matrices.entries
    again = tmp_path / "again.csv"
    write_matrices(back, again)
    assert again.read_bytes() == path.read_bytes()


def _csv_module_cell(text: str) -> str:
    out = io.StringIO()
    csv.writer(out).writerow([text])  # the default dialect, CRLF line ends
    return out.getvalue()[:-2]


def test_csv_cells_are_quoted_as_the_csv_module_quotes_them(tmp_path):
    path = tmp_path / "stops.csv"
    stops = [StopRecord(stop_id, GeoPoint(42.1, -73.2)) for stop_id in ("s0", *AWKWARD_IDS)]
    write_stops(stops, path)
    lines = ["stop_id,lat,lon", *(f"{_csv_module_cell(s.stop_id)},42.1,-73.2" for s in stops)]
    assert path.read_bytes().decode() == "\n".join(lines) + "\n"
    assert load_stops(path) == stops


def test_markets_header_only_is_empty(tmp_path):
    path = tmp_path / "markets.csv"
    write_markets(table_from_markets([]), path)
    assert len(load_markets(path)) == 0
    assert snapshot(load_markets(path)) == snapshot(table_from_markets([]))  # every column, shaped and typed
    assert path.read_text().count("\n") == 1


def test_markets_unavailable_modes_may_have_blank_cells(tmp_path):
    market = make_market()
    attrs = dict(market.attrs)
    del attrs[Mode.BIKING]
    trimmed = make_market(od_id="trim", attrs=attrs)
    path = tmp_path / "markets.csv"
    write_markets(table_from_markets([trimmed]), path)
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    cells[header.split(",").index("biking_ivt_min")] = ""
    path.write_text(f"{header}\n{','.join(cells)}\n")
    back = load_markets(path)
    biking = MAIN_MODES.index(Mode.BIKING)
    assert not back.available[0, biking]
    assert back.attrs["ivt_min"][0, biking] == 0.0
    # an unavailable mode never enters the choice set
    assert back.unimodal_utilities()[0, biking] == -np.inf
    assert_same_markets(back, table_from_markets([trimmed]))


def test_markets_reject_nonnegative_beta_cost(tmp_path):
    path = tmp_path / "markets.csv"
    write_markets(table_from_markets([make_market(od_id="bad", taste=make_taste(beta_cost=-0.3))]), path)
    text = path.read_text().replace("-0.3", "0.1")
    path.write_text(text)
    with pytest.raises(ParseError, match=r"row 2.*beta_cost must be negative.*beta_cost"):
        load_markets(path)


def test_markets_duplicate_rows_rejected(tmp_path):
    # the fourth line repeats the second: the later row is named
    path = tmp_path / "markets.csv"
    write_markets(table_from_markets([make_market(od_id="od1"), make_market(od_id="od2")]), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(ParseError, match=r"row 4: duplicate market od1\|low_income in column 'od_id'$"):
        load_markets(path)


def _write_two_markets(path, **cells) -> list[str]:
    """Markets od1 and od2 written to ``path`` with cells of od2's row
    (line 3) replaced; the file's lines."""
    write_markets(table_from_markets([make_market(od_id="od1"), make_market(od_id="od2")]), path)
    header, first, second = path.read_text().splitlines()
    columns, row = header.split(","), second.split(",")
    for column, text in cells.items():
        row[columns.index(column)] = text
    lines = [header, first, ",".join(row)]
    path.write_text("\n".join(lines) + "\n")
    return lines


@pytest.mark.parametrize(
    "cells, error",
    [
        ({"d_lat": "95.0"}, r"invalid coordinate: \(95.0, -73.7\) in column 'd_lat'"),
        ({"trips_per_day": "-1.0"}, "negative trips in column 'trips_per_day'"),
        ({"transit_access_min": ""}, "empty value in column 'transit_access_min'"),
        (
            {f"{prefix}_available": "0" for prefix, _, _ in MARKET_MODE_COLUMNS},
            "needs at least one available mode in column 'driving_available'",
        ),
        # a row's first broken rule is named, in the order the rules run
        ({"o_lat": "-91.0", "trips_per_day": "-1.0"}, r"invalid coordinate: \(-91.0, -73.76\) in column 'o_lat'"),
        ({"trips_per_day": "-1.0", "carpool_ivt_min": ""}, "negative trips in column 'trips_per_day'"),
        ({"transit_transfers": "-3.0"}, "negative value -3.0 in column 'transit_transfers'"),
        ({"driving_ivt_min": "-30.0"}, "negative value -30.0 in column 'driving_ivt_min'"),
        # times of an unavailable mode are never read, but are not negative either
        ({"biking_available": "0", "biking_ivt_min": "-5.0"}, "negative value -5.0 in column 'biking_ivt_min'"),
        # no attribute, of any mode, and no taste coefficient above 1e6 in magnitude
        ({"transit_cost_usd": "-2e6"}, r"magnitude of -2000000.0 above 1000000.0 in column 'transit_cost_usd'"),
        (
            {"walking_available": "0", "walking_ivt_min": "1e308"},
            r"magnitude of 1e\+308 above 1000000.0 in column 'walking_ivt_min'",
        ),
        ({"asc_transit": "-1000000.5"}, "magnitude of -1000000.5 above 1000000.0 in column 'asc_transit'"),
        # an attribute's rule runs before a taste coefficient's
        (
            {"driving_ivt_min": "1e7", "beta_auto_tt": "1e7"},
            "magnitude of 10000000.0 above 1000000.0 in column 'driving_ivt_min'",
        ),
    ],
)
def test_markets_rules_name_row_and_column(tmp_path, cells, error):
    path = tmp_path / "markets.csv"
    _write_two_markets(path, **cells)
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))} row 3: {error}$"):
        load_markets(path)


def test_markets_at_the_bound_load_and_give_finite_utilities(tmp_path):
    path = tmp_path / "markets.csv"
    _write_two_markets(path, driving_ivt_min="1e6", driving_cost_usd="-1e6", beta_auto_tt="-1e6", beta_cost="-1e6")
    table = load_markets(path)
    assert np.isfinite(table.unimodal_utilities()).all()


def test_joined_taste_beyond_the_bound_names_the_taste_file(tmp_path):
    markets, tastes = tmp_path / "markets.csv", tmp_path / "taste.csv"
    senior = [make_market(od_id=od_id, segment=Segment.SENIOR) for od_id in ("od1", "od2")]
    write_markets(table_from_markets(senior), markets)
    lines = [line.split(",") for line in markets.read_text().splitlines()]
    keep = [i for i, column in enumerate(lines[0]) if column not in TASTE_FIELDS]
    markets.write_text("\n".join(",".join(line[i] for i in keep) for line in lines) + "\n")
    _write_two_taste_rows(tastes)
    header, od1, od2 = tastes.read_text().splitlines()
    # od1, on line 2 of the markets file, takes line 3 of the taste file
    tastes.write_text("\n".join([header, od2, od1.replace("-0.05", "-5e6", 1)]) + "\n")
    error = "magnitude of -5000000.0 above 1000000.0 in column 'beta_auto_tt'"
    with pytest.raises(ParseError, match=rf"^{re.escape(str(tastes))} row 3: {error}$"):
        load_markets(markets, tastes)


def test_blank_zone_beside_literal_nan_names_the_nan(tmp_path):
    # An unavailable mode's number cell may be blank, but not a literal nan,
    # whatever blank text cell stands beside it.
    path = tmp_path / "markets.csv"
    _write_two_markets(path, biking_available="0", biking_ivt_min="nan", d_zone="")
    one_record, whole = load_batched(load_markets, path)
    assert one_record == whole == f"ParseError: {path} row 3: non-finite number 'nan' in column 'biking_ivt_min'"


def test_markets_first_faulty_row_in_input_order(tmp_path):
    # a duplicate on line 3 comes before a bad coordinate on line 4
    path = tmp_path / "markets.csv"
    header, first, bad = _write_two_markets(path, o_lat="95.0")
    path.write_text("\n".join([header, first, first, bad]) + "\n")
    with pytest.raises(ParseError, match=r"row 3: duplicate market od1\|low_income in column 'od_id'$"):
        load_markets(path)


def test_market_table_rejects_non_finite_attribute_of_available_mode():
    attrs = full_attrs()
    attrs[Mode.TRANSIT] = ModeAttr(ivt_min=math.nan, access_min=6.0, egress_min=4.0, transfers=1.0, cost_usd=1.5)
    markets = [make_market(od_id="od1"), make_market(od_id="od2", attrs=attrs)]
    with pytest.raises(MarketError, match=r"^market od2\|low_income: empty value in column 'transit_ivt_min'$") as err:
        table_from_markets(markets)
    assert (err.value.row, err.value.column) == (1, "transit_ivt_min")
    attrs[Mode.TRANSIT] = ModeAttr(ivt_min=35.0, cost_usd=math.inf)
    with pytest.raises(ValueError, match=r"non-finite value inf in column 'transit_cost_usd'$"):
        table_from_markets([make_market(attrs=attrs)])
    # an unavailable mode's attributes are never read
    attrs[Mode.TRANSIT] = ModeAttr(ivt_min=math.nan, available=False)
    table = table_from_markets([make_market(attrs=attrs)])
    assert table.attrs["ivt_min"][0, 1] == 0.0
    assert np.isfinite(np.delete(table.unimodal_utilities()[0], 1)).all()


def test_markets_missing_column_named_in_error(tmp_path):
    path = tmp_path / "markets.csv"
    write_markets(table_from_markets([make_market()]), path)
    header, row = path.read_text().splitlines()
    cols = header.split(",")
    i = cols.index("trips_per_day")
    cells = row.split(",")
    cells[i] = ""
    path.write_text(",".join(cols) + "\n" + ",".join(cells) + "\n")
    with pytest.raises(ParseError, match="trips_per_day"):
        load_markets(path)


def test_markets_taste_join(tmp_path):
    taste = make_taste(beta_cost=-0.42)
    market = make_market(od_id="od9", segment=Segment.SENIOR, taste=taste)
    full = tmp_path / "markets_full.csv"
    write_markets(table_from_markets([market]), full)
    text = full.read_text().splitlines()
    header = text[0].split(",")
    from hubmodal import TASTE_FIELDS

    keep = [i for i, c in enumerate(header) if c not in TASTE_FIELDS]
    slim = tmp_path / "markets_slim.csv"
    slim.write_text(
        "\n".join(",".join(line.split(",")[i] for i in keep) for line in text) + "\n"
    )
    taste_path = tmp_path / "taste.csv"
    taste_header = ["od_id", "segment", *TASTE_FIELDS]
    taste_row = ["od9", "senior"] + [repr(getattr(taste, f)) for f in TASTE_FIELDS]
    taste_path.write_text(",".join(taste_header) + "\n" + ",".join(taste_row) + "\n")

    back = load_markets(slim, taste_path)
    assert {name: back.taste[name][0] for name in TASTE_FIELDS} == asdict(taste)
    assert_same_markets(back, table_from_markets([market]))
    # no taste columns and no taste file is an error
    with pytest.raises(ParseError, match="taste"):
        load_markets(slim)
    # a market without a matching taste row is an error
    other = tmp_path / "taste_other.csv"
    other.write_text(",".join(taste_header) + "\n" + ",".join(["odX", "senior"] + taste_row[2:]) + "\n")
    with pytest.raises(ParseError, match="no taste parameters"):
        load_markets(slim, other)


def test_taste_parameters_duplicate_key_rejected(tmp_path):
    from hubmodal import TASTE_FIELDS

    taste = make_taste()
    path = tmp_path / "taste.csv"
    header = ["od_id", "segment", *TASTE_FIELDS]
    row = ["od1", "senior"] + [repr(getattr(taste, f)) for f in TASTE_FIELDS]
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n" + ",".join(row) + "\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_taste_parameters(path)


def test_survey_round_trip(tmp_path):
    records = [
        SurveyRecord("h1", GeoPoint(42.1, -73.2), GeoPoint(42.3, -73.4), Mode.CAR, Mode.BUS, Segment.SENIOR, True),
        SurveyRecord("h1", GeoPoint(42.5, -73.6), GeoPoint(42.7, -73.8), Mode.BIKE_SHARE, Mode.WALK_LEG, None, False),
    ]
    path = tmp_path / "survey.csv"
    write_survey(records, path)
    back = load_survey(path)
    assert back == records  # frozen dataclasses compare by value
    assert back[1].segment is None


def test_survey_rejects_unknown_leg_mode(tmp_path):
    path = tmp_path / "survey.csv"
    write_survey([SurveyRecord("h1", GeoPoint(42.1, -73.2), GeoPoint(42.3, -73.4), Mode.CAR, Mode.BUS)], path)
    path.write_text(path.read_text().replace("car", "teleport"))
    with pytest.raises(ParseError, match="teleport"):
        load_survey(path)


def test_stops_and_lots_round_trip(tmp_path):
    stops = [StopRecord("s1", GeoPoint(42.1, -73.2)), StopRecord("s2", GeoPoint(42.3, -73.4))]
    spath = tmp_path / "stops.csv"
    write_stops(stops, spath)
    assert load_stops(spath) == stops
    lots = [GeoPoint(42.5, -73.6), GeoPoint(42.7, -73.8)]
    lpath = tmp_path / "lots.csv"
    write_pr_lots(lots, lpath)
    assert load_pr_lots(lpath) == lots


@pytest.mark.parametrize("batch_cells", [1, hubmodal.io._BATCH_CELLS], ids=["one_record", "default"])
def test_bad_cell_after_a_quoted_line_break_names_its_file_line(tmp_path, monkeypatch, batch_cells):
    # the quoted id spans lines 3 and 4 and line 5 is blank, so the bad
    # lat of the third record is on line 6
    path = tmp_path / "stops.csv"
    path.write_text('stop_id,lat,lon\ns1,42.6,-73.7\n"s\n2",42.61,-73.71\n\ns3,north,-73.72\n')
    monkeypatch.setattr(hubmodal.io, "_BATCH_CELLS", batch_cells)
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))} row 6: malformed number 'north' in column 'lat'$"):
        load_stops(path)


def test_matrices_round_trip_and_blank_direction(tmp_path):
    matrices = LegMatrices()
    add_leg(matrices, "z1", "h1", Mode.BUS,
            LegTimes(minutes=15.0, access_min=5.0, egress_min=5.0, transfers=0.0, miles=3.25), None)
    add_leg(matrices, "z2", "h1", Mode.CAR, LegTimes(minutes=9.0, miles=2.5), LegTimes(minutes=10.0, miles=2.5))
    add_leg(matrices, "z1", "h1", Mode.WALK_LEG, None, LegTimes(minutes=12.0))
    path = tmp_path / "matrix.csv"
    write_matrices(matrices, path)
    back = load_matrices([path])
    assert back.entries == matrices.entries
    # a blank to_hub_min means that direction is unavailable
    to_hub, from_hub = back.entries[("z1", "h1", Mode.WALK_LEG)]
    assert to_hub is None
    assert from_hub == LegTimes(minutes=12.0)


def test_matrices_duplicate_key_across_files_rejected(tmp_path):
    matrices = LegMatrices()
    add_leg(matrices, "z1", "h1", Mode.BUS, LegTimes(minutes=15.0), None)
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    write_matrices(matrices, p1)
    write_matrices(matrices, p2)
    assert len(load_matrices([p1]).entries) == 1
    with pytest.raises(ParseError, match="duplicate matrix entry"):
        load_matrices([p1, p2])


MATRIX_HEADER = ",".join(MATRIX_COLUMNS)


@pytest.mark.parametrize(
    "row, column",
    [
        # the blank to_hub_min makes the direction absent, which must not
        # hide the malformed access cell beside it
        ("z1,h1,bus,,abc,,,,5.0,,,,", "to_hub_access_min"),
        # a row with fewer cells than the header
        ("z1,h1,bus,5.0", "to_hub_access_min"),
    ],
)
def test_matrices_malformed_row_names_row_and_column(tmp_path, row, column):
    path = tmp_path / "m.csv"
    path.write_text(f"{MATRIX_HEADER}\n{row}\n")
    with pytest.raises(ParseError, match=rf"row 2: .* in column '{column}'"):
        load_matrices([path])


# Error rows are file lines: a blank line is skipped but still counted.
def test_error_row_counts_blank_lines(tmp_path):
    path = tmp_path / "stops.csv"
    path.write_text("stop_id,lat,lon\ns1,42.6,-73.7\n\ns2,abc,-73.8\n")
    with pytest.raises(ParseError, match=r"row 4: malformed number 'abc' in column 'lat'$"):
        load_stops(path)


def _write_two_taste_rows(path):
    rows = [[od_id, "senior", *(repr(getattr(make_taste(), f)) for f in TASTE_FIELDS)] for od_id in ("od1", "od2")]
    path.write_text("\n".join(",".join(r) for r in [["od_id", "segment", *TASTE_FIELDS], *rows]) + "\n")


def _write_two_matrix_rows(path):
    matrices = LegMatrices()
    for zone in ("z1", "z2"):
        add_leg(matrices, zone, "h1", Mode.BUS, LegTimes(5.0, 1.0, 2.0, 0.0, 3.5), LegTimes(6.0, 1.0, 2.0, 1.0, 3.5))
    write_matrices(matrices, path)


def _two_hub_records() -> list[HubRecord]:
    return [
        HubRecord(
            hub_id=hub_id, location=GeoPoint(42.1, -73.2),
            car_share_available=True, bike_share_available=False,
            backend_trips_per_month=120.0, days_per_month=30.0, service_share=0.35,
            survey_responses=16.0, survey_days=4.0, sample_rate=0.25,
        )
        for hub_id in ("hub-a", "hub-b")
    ]


# loader, writer of a two-record file, a column to cut a row short
# before, a numeric column
CSV_LOADERS = {
    "markets": (
        load_markets,
        lambda p: write_markets(table_from_markets([make_market(od_id="od1"), make_market(od_id="od2")]), p),
        "driving_available",
        "trips_per_day",
    ),
    "taste_parameters": (load_taste_parameters, _write_two_taste_rows, "beta_cost", "asc_transit"),
    "survey": (
        load_survey,
        lambda p: write_survey(
            [SurveyRecord(h, GeoPoint(42.1, -73.2), GeoPoint(42.3, -73.4), Mode.CAR, Mode.BUS) for h in "ab"],
            p,
        ),
        "segment",
        "o_lon",
    ),
    "stops": (
        load_stops,
        lambda p: write_stops([StopRecord("s1", GeoPoint(42.1, -73.2)), StopRecord("s2", GeoPoint(42.3, -73.4))], p),
        "lon",
        "lat",
    ),
    "pr_lots": (load_pr_lots, lambda p: write_pr_lots([GeoPoint(42.1, -73.2), GeoPoint(42.3, -73.4)], p), "lon", "lat"),
    "matrices": (lambda p: load_matrices([p]), _write_two_matrix_rows, "to_hub_access_min", "from_hub_miles"),
    "observed_usage": (
        load_hub_records,
        lambda p: write_hub_records(_two_hub_records(), p),
        "backend_trips_per_month",
        "sample_rate",
    ),
}


# Every CSV loader reads through one parser: a row with too few cells
# names its first missing cell, and a malformed number its cell; a blank
# line before the row still counts toward its number.
@pytest.mark.parametrize("fault", ["short_row", "malformed_number"])
@pytest.mark.parametrize("name", list(CSV_LOADERS))
def test_every_csv_loader_names_file_row_and_column(tmp_path, name, fault):
    load, write, short_column, number_column = CSV_LOADERS[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    header, first, second = path.read_text().splitlines()
    columns, cells = header.split(","), second.split(",")
    if fault == "short_row":
        cells = cells[: columns.index(short_column)]
        error = f"missing cell in column '{short_column}'"
    else:
        cells[columns.index(number_column)] = "abc"
        error = f"malformed number 'abc' in column '{number_column}'"
    path.write_text("\n".join([header, first, "", ",".join(cells)]) + "\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))} row 4: {error}$"):
        load(path)


@pytest.mark.parametrize(
    "row, error",
    [
        ("z2,h1,bus,abc,,,,,,,,,", "malformed number 'abc' in column 'to_hub_min'"),
        ("z2,h1,bus,5.0", "missing cell in column 'to_hub_access_min'"),
        ("z1,h1,bus,7.0,,,,,,,,,", r"duplicate matrix entry \(z1, h1, bus\) in column 'zone_id'"),
        # no leg cell below 0 or above 1e6: the first one in the row is named
        ("z2,h1,bus,-30.0,-1,0,-2,-1.0,,,,,", "negative value -30.0 in column 'to_hub_min'"),
        ("z2,h1,bus,5.0,,,,1e300,,,,,", r"value 1e\+300 above 1000000.0 in column 'to_hub_miles'"),
        ("z2,h1,bus,,,,,,5.0,,,-1.0,", "negative value -1.0 in column 'from_hub_transfers'"),
        ("z2,h1,bus,,-0.5,,,,5.0,,,,", "negative value -0.5 in column 'to_hub_access_min'"),
    ],
)
def test_matrices_error_row_counts_blank_lines(tmp_path, row, error):
    path = tmp_path / "m.csv"
    path.write_text(f"{MATRIX_HEADER}\nz1,h1,bus,5.0,,,,,,,,,\n\n{row}\n")
    with pytest.raises(ParseError, match=rf"row 4: {error}$"):
        load_matrices([path])


def test_matrices_error_row_counts_blank_lines_across_batches(tmp_path):
    # blank lines in earlier parse batches shift the failing row's line
    lines = [MATRIX_HEADER]
    for i in range(3000):
        lines += [f"z{i},h1,bus,5.0,,,,,,,,,", ""]
    lines[-2] = "z2999,h1,bus,5.0,,,,,,,,,x"
    path = tmp_path / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=rf"row {len(lines) - 1}: malformed number 'x' in column 'from_hub_miles'$"):
        load_matrices([path])


def _fixture_csv(fixture_dir: Path, tmp_path: Path, name: str) -> Path:
    """A CSV file of the generated fixture; a taste-parameters file is cut
    from its markets file."""
    if name != "taste.csv":
        return fixture_dir / name
    with open(fixture_dir / "markets.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    path = tmp_path / name
    columns = ["od_id", "segment", *TASTE_FIELDS]
    path.write_text("\n".join(",".join(row) for row in [columns, *([r[c] for c in columns] for r in rows)]) + "\n")
    return path


FIXTURE_LOADERS = {
    "markets.csv": load_markets,
    "taste.csv": load_taste_parameters,
    "survey.csv": load_survey,
    "stops.csv": load_stops,
    "pr_lots.csv": load_pr_lots,
    "matrices.csv": lambda p: load_matrices([p]),
    "observed_usage.csv": load_hub_records,
}


@pytest.mark.parametrize("name", list(FIXTURE_LOADERS))
def test_every_csv_loader_reads_a_byte_order_mark(fixture_dir, tmp_path, name):
    # what spreadsheet "CSV UTF-8" exports write
    load = FIXTURE_LOADERS[name]
    original = _fixture_csv(fixture_dir, tmp_path, name)
    marked = tmp_path / f"bom-{name}"
    marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    assert snapshot(load(marked)) == snapshot(load(original))


JSON_READERS = {
    "fares.json": load_fares,
    "config.json": PipelineConfig.from_json,
    "manifest.json": Manifest.from_json,
    "params.json": load_params,
}


@pytest.fixture
def json_inputs(fixture_dir, tmp_path) -> Path:
    """The fixture's JSON inputs, and a params file, in a writable copy."""
    out = tmp_path / "fx"
    shutil.copytree(fixture_dir, out)
    params = {"beta_hub": 0.3, "asc_by_segment": {s.value: -4.0 for s in Segment}}
    (out / "params.json").write_text(json.dumps(params), encoding="utf-8")
    return out


@pytest.mark.parametrize("name", list(JSON_READERS))
def test_every_json_reader_reads_a_byte_order_mark(json_inputs, name):
    # what Windows editors write
    read = JSON_READERS[name]
    marked = json_inputs / f"bom-{name}"
    marked.write_bytes(b"\xef\xbb\xbf" + (json_inputs / name).read_bytes())
    assert read(marked) == read(json_inputs / name)


@pytest.mark.parametrize("name", list(JSON_READERS))
def test_every_json_reader_names_a_truncated_file(json_inputs, name):
    cut = json_inputs / f"cut-{name}"
    text = (json_inputs / name).read_bytes()
    cut.write_bytes(text[: len(text) // 2])
    with pytest.raises(ParseError, match=f"^{re.escape(str(cut))}: malformed JSON"):
        JSON_READERS[name](cut)


def test_cli_truncated_fares_is_a_parse_error_naming_the_file(json_inputs, tmp_path, capsys):
    fares = json_inputs / "fares.json"
    fares.write_text(fares.read_text()[:40])
    assert main(["calibrate", "--manifest", str(json_inputs / "manifest.json"), "--out-dir", str(tmp_path / "o")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ParseError"
    assert record["message"].startswith(f"{fares}: malformed JSON")


@pytest.mark.parametrize(
    "load, header, row, column",
    [
        (load_stops, "stop_id,lat,lon,lat", "s1,42.6,-73.7,42.7", "lat"),
        (lambda p: load_matrices([p]), MATRIX_HEADER + ",hub_id", "z1,h1,bus,5.0,,,,,,,,,,h2", "hub_id"),
    ],
    ids=["stops", "matrices"],
)
def test_column_named_twice_in_the_header_is_an_error(tmp_path, load, header, row, column):
    path = tmp_path / "t.csv"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: column '{column}' appears twice in the header$"):
        load(path)


def test_generated_csv_files_read_alike_as_windows_exports(tmp_path):
    # the quick-start fixture and the 1,000-market x 100-candidate one,
    # each file also as a Windows export (CRLF line ends and a byte-order
    # mark)
    for seed, size in (("7", []), ("11", ["--od-pairs", "250", "--stops", "100", "--pr-lots", "5"])):
        out = tmp_path / seed
        assert main(["gen-fixture", "--seed", seed, *size, "--out-dir", str(out)]) == 0
        for name, load in FIXTURE_LOADERS.items():
            path = _fixture_csv(out, tmp_path, name)
            windows = tmp_path / f"windows-{name}"
            windows.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
            assert snapshot(load(windows)) == snapshot(load(path))


def test_matrices_rewrite_generated_fixture_byte_for_byte(fixture_dir, tmp_path):
    original = fixture_dir / "matrices.csv"
    copy = tmp_path / "matrices.csv"
    write_matrices(load_matrices([original]), copy)
    assert copy.read_bytes() == original.read_bytes()


def test_fares_round_trip(tmp_path):
    fares = FareTable(
        bus_fare_usd=1.50,
        car_share_usd_per_hour=5.0,
        bike_share_steps=((30.0, 1.0), (60.0, 2.5), (math.inf, 5.0)),
    )
    path = tmp_path / "fares.json"
    write_fares(fares, path)
    back = load_fares(path)
    assert back == fares
    # the open-ended last step serializes as null
    assert json.loads(path.read_text())["bike_share_steps"][-1]["up_to_min"] is None


def test_fares_unknown_key_rejected(tmp_path):
    path = tmp_path / "fares.json"
    path.write_text(json.dumps({"bus_fare_usd": 1.0, "car_share_usd_per_hour": 5.0, "surge": 2.0}))
    with pytest.raises(ParseError, match="surge"):
        load_fares(path)


def test_hub_records_round_trip(tmp_path):
    records = [
        HubRecord(
            hub_id="hub-a", location=GeoPoint(42.1, -73.2),
            car_share_available=True, bike_share_available=True,
            backend_trips_per_month=120.0, days_per_month=30.0, service_share=0.35,
            survey_responses=16.0, survey_days=4.0, sample_rate=None,
        ),
        HubRecord(
            hub_id="hub-b", location=GeoPoint(42.3, -73.4),
            car_share_available=False, bike_share_available=True,
            backend_trips_per_month=None, days_per_month=None, service_share=None,
            survey_responses=9.0, survey_days=20.0, sample_rate=0.4375,
        ),
    ]
    path = tmp_path / "hubs.csv"
    write_hub_records(records, path)
    back = load_hub_records(path)
    assert len(back) == 2
    for a, b in zip(back, records):
        for name in (
            "hub_id", "car_share_available", "bike_share_available",
            "backend_trips_per_month", "days_per_month", "service_share",
            "survey_responses", "survey_days", "sample_rate",
        ):
            assert getattr(a, name) == getattr(b, name), name
    assert back[0].has_backend and not back[1].has_backend


def test_hub_records_duplicate_rejected(tmp_path):
    path = tmp_path / "hubs.csv"
    rec = HubRecord(
        hub_id="hub-a", location=GeoPoint(42.1, -73.2),
        car_share_available=True, bike_share_available=True,
        backend_trips_per_month=None, days_per_month=None, service_share=None,
        survey_responses=5.0, survey_days=4.0, sample_rate=0.5,
    )
    write_hub_records([rec, rec], path)
    with pytest.raises(ParseError, match="duplicate"):
        load_hub_records(path)


@pytest.mark.parametrize(
    "column, value, rule",
    [
        ("backend_trips_per_month", "-1", "value -1.0 must be non-negative"),
        ("days_per_month", "0", "value 0.0 must be positive"),
        ("service_share", "1.5", r"value 1.5 must be in \(0, 1\]"),
        ("survey_responses", "-2", "value -2.0 must be non-negative"),
        # beside backend counts, a survey_days of 0 was once skipped silently
        ("survey_days", "0", "value 0.0 must be positive"),
        ("sample_rate", "-0.25", "value -0.25 must be positive"),
    ],
)
def test_hub_record_count_outside_its_range_names_file_row_and_column(tmp_path, column, value, rule):
    path = tmp_path / "observed_usage.csv"
    write_hub_records(_two_hub_records(), path)
    header, first, second = path.read_text().splitlines()
    cells = second.split(",")
    cells[header.split(",").index(column)] = value
    path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))} row 3: {rule} in column '{column}'$"):
        load_hub_records(path)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=["022", "027", "077"])
def test_written_files_get_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        written = [hubmodal.io.write_json(tmp_path / "a.json", {"x": 1}), write_stops([], tmp_path / "s.csv")]
        assert main(["gen-fixture", "--seed", "7", "--od-pairs", "4", "--out-dir", str(tmp_path / "fx")]) == 0
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    written += sorted((tmp_path / "fx").iterdir())
    assert len(written) == 11
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in written}
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)
    assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == 0o666 & ~umask


def test_atomic_write_leaves_no_temp_files(tmp_path):
    from hubmodal import write_json

    write_json(tmp_path / "a.json", {"x": 1})
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    assert sha256_digest(tmp_path / "a.json") == sha256_digest(tmp_path / "a.json")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): sha256_digest(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fix") / "inputs"
    code = main(["gen-fixture", "--seed", "7", "--out-dir", str(out), "--od-pairs", "24", "--stops", "8"])
    assert code == 0
    return out


def test_gen_fixture_is_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["gen-fixture", "--seed", "7", "--out-dir", str(a), "--od-pairs", "10", "--stops", "6"]) == 0
    assert main(["gen-fixture", "--seed", "7", "--out-dir", str(b), "--od-pairs", "10", "--stops", "6"]) == 0
    assert _tree_digest(a) == _tree_digest(b)
    c = tmp_path / "c"
    assert main(["gen-fixture", "--seed", "8", "--out-dir", str(c), "--od-pairs", "10", "--stops", "6"]) == 0
    assert _tree_digest(a) != _tree_digest(c)


# sha256 of every file gen-fixture writes, recorded before its markets and
# writers went columnar: seed 7 places a small stop roster, seed 11 at this
# size (perfbench's rank-1k fixture) a stop grid.  config.json is the default
# PipelineConfig, re-pinned when its literal_lower_branch key was removed.
_SAME_IN_BOTH = {
    "config.json": "4f153995e47f1e556f2dffc4f775b2dbea599e7be7cbac73033026f3ba55fef3",
    "fares.json": "f412ade0b9396b8f76d78d1a698fa5f7c2d59fd73f74f395c758771d2b806ada",
    "manifest.json": "4fe6291d91cc74c390660378596d21a2b1afa542214e7f77a6f64082a8b7b342",
    "observed_usage.csv": "00cd40fa209535ee8b19222342b0b0487afe02295a5ceda59ddb2227f34b55c8",
}
FIXTURE_DIGESTS = {
    ("--seed", "7"): {
        **_SAME_IN_BOTH,
        "markets.csv": "a86c6dbdcfb5a4bf7bfef653d629ade76871d8e9baca88d065c2e2912fe7de82",
        "matrices.csv": "0d5bfb198e6f5b6cc68d722f99c9bffb166010adeb984f357cb32a7de6780db3",
        "pr_lots.csv": "4b2382fb48e16daadfc12fc49a9e7f10925a5d26f99d4e83db030e52aeb6284c",
        "stops.csv": "c2af2803a235075274f3faecce1daf8dafbae47f82329c4d941506c2feec52a3",
        "survey.csv": "ece5f18c248417038de4be04d36890b514c4946085b09d38df0e918e7eb54cc8",
    },
    ("--seed", "11", "--od-pairs", "250", "--stops", "100", "--pr-lots", "5"): {
        **_SAME_IN_BOTH,
        "markets.csv": "3f5bc011c89af5889e56720ba936470d7926d9712fb52eea0c783f18c2c30006",
        "matrices.csv": "eec18efb5b583b0b9b0ddd4e1bf9f14852c18e7d1cbe8ae2bc01f578f18c7555",
        "pr_lots.csv": "10799aff90383852ae3ff95e6cb4f7d9d4de206617da8d0cb4b4a83c8acc2e35",
        "stops.csv": "a7f50ca9a2771c571c5217d518b57a2d6d64a2ccf16eb4b20475849181519b7f",
        "survey.csv": "1b3bd5863e9f3087a090ed7af87e00bc0cbe48f3b39f93f456e29917149c8942",
    },
}


@pytest.mark.parametrize("args", FIXTURE_DIGESTS, ids=["seed7-stop-roster", "seed11-stop-grid"])
def test_gen_fixture_bytes_are_pinned(tmp_path, args):
    assert main(["gen-fixture", *args, "--out-dir", str(tmp_path)]) == 0
    assert _tree_digest(tmp_path) == FIXTURE_DIGESTS[args]


def test_gen_fixture_outputs_parse(fixture_dir):
    manifest = json.loads((fixture_dir / "manifest.json").read_text())
    markets = load_markets(fixture_dir / manifest["markets"])
    assert len(markets) and (markets.taste["beta_cost"] < 0).all()
    load_survey(fixture_dir / manifest["survey"])
    load_stops(fixture_dir / manifest["stops"])
    load_pr_lots(fixture_dir / manifest["pr_lots"])
    load_fares(fixture_dir / manifest["fares"])
    load_hub_records(fixture_dir / manifest["observed_usage"])
    load_matrices([fixture_dir / p for p in manifest["leg_matrices"]])


def _run(args, out: Path) -> dict:
    code = main([*args, "--out-dir", str(out)])
    assert code == 0, args
    return {p.name: p for p in out.iterdir()}


def test_cli_pipeline_end_to_end(fixture_dir, tmp_path):
    manifest = str(fixture_dir / "manifest.json")

    files = _run(["derive-threshold", "--manifest", manifest], tmp_path / "thr")
    threshold = json.loads(files["threshold.json"].read_text())
    assert threshold["threshold"] >= 1.0
    assert threshold["threshold_source"] == "survey_p90"
    assert threshold["inputs"]

    files = _run(["identify-trips", "--manifest", manifest], tmp_path / "ident")
    trips = files["trips.csv"].read_text().splitlines()
    assert trips[0] == "hub_id,market_id"
    assert len(trips) > 1
    report = json.loads(files["identify.json"].read_text())
    assert set(report["hubs"]) == {"hub-a", "hub-b"}
    for entry in report["hubs"].values():
        assert entry["potential_trips_per_day"] > 0

    files = _run(["calibrate", "--manifest", manifest], tmp_path / "cal")
    cal = json.loads(files["calibration.json"].read_text())
    assert 0 < cal["params"]["beta_hub"] <= 1
    assert set(cal["params"]["asc_by_segment"]) == {s.value for s in Segment}
    assert cal["objective"] < 1e-4
    assert cal["rank_deficient"] is True  # two hubs, five parameters
    assert len(cal["per_hub"]) == 2

    params_file = files["calibration.json"]
    files = _run(["assess", "--manifest", manifest, "--params", str(params_file)], tmp_path / "ass")
    impacts = json.loads(files["impacts.json"].read_text())
    assert set(impacts["hubs"]) == {"hub-a", "hub-b"}
    totals = impacts["totals"]
    assert totals["potential_demand_trips_per_day"] > 0
    assert totals["consumer_surplus_usd_per_day"] >= 0

    files = _run(["rank", "--manifest", manifest, "--params", str(params_file)], tmp_path / "rank")
    lines = files["ranking.csv"].read_text().splitlines()
    assert lines[0].startswith("candidate_id,is_reference")
    summary = json.loads(files["rank_summary.json"].read_text())
    assert summary["n_candidates"] > 0
    assert summary["n_references"] == 2
    geo = json.loads(files["candidates.geojson"].read_text())
    assert geo["type"] == "FeatureCollection"
    assert len(geo["features"]) == summary["n_candidates"] + summary["n_references"]


def test_cli_rank_is_thread_invariant(fixture_dir, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    a = tmp_path / "t1"
    b = tmp_path / "t4"
    assert main(["rank", "--manifest", manifest, "--threads", "1", "--out-dir", str(a)]) == 0
    assert main(["rank", "--manifest", manifest, "--threads", "4", "--out-dir", str(b)]) == 0
    assert _tree_digest(a) == _tree_digest(b)


def test_cli_rank_rejects_threads_below_one(fixture_dir, tmp_path, capsys):
    manifest = str(fixture_dir / "manifest.json")
    code = main(["rank", "--manifest", manifest, "--threads", "0", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "--threads" in record["message"]


def test_cli_rank_checks_its_manifest_before_reading_any_input(fixture_dir, tmp_path, capsys, monkeypatch):
    inputs = shutil.copytree(fixture_dir, tmp_path / "inputs")
    for sidecar in inputs.glob(".*.legs"):
        sidecar.unlink()
    manifest = inputs / "manifest.json"
    entries = json.loads(manifest.read_text())
    del entries["stops"]
    manifest.write_text(json.dumps(entries))
    loads = []
    load = hubmodal.io.load_matrices
    monkeypatch.setattr(hubmodal.io, "load_matrices", lambda *args: loads.append(args) or load(*args))
    code = main(["rank", "--manifest", str(manifest), "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "ValueError", "message": "manifest is missing required entries: ['stops']"}
    assert loads == []
    assert list(inputs.glob(".*.legs")) == []


@pytest.mark.parametrize(
    "data",
    [
        {"threads": 2},
        {"optimizer": {"method": "nelder-mead"}},
        {"optimizer": {"ridge_weight": 0.1}},
        {"optimizer": {"restarts": 3}},
        {"optimizer": {"simplex_tol": 1e-10}},
        {"optimizer": {"objective_tol": 1e-12}},
        {"literal_lower_branch": True},
    ],
    ids=["threads", "method", "ridge_weight", "restarts", "simplex_tol", "objective_tol", "literal_lower_branch"],
)
def test_config_rejects_removed_keys(data):
    with pytest.raises(ValueError, match=r"unknown (config|optimizer) keys"):
        PipelineConfig.from_dict(data)


@pytest.mark.parametrize(
    "optimizer, key",
    [
        ({"beta_bounds": [0.01, 2], "init_beta": 1.5}, "beta_bounds"),
        ({"beta_bounds": [0, 0]}, "beta_bounds"),
        ({"beta_bounds": [-0.5, 0.5]}, "beta_bounds"),
        ({"beta_bounds": [0.8, 0.2]}, "beta_bounds"),
        ({"beta_bounds": [0.5]}, "beta_bounds"),
        ({"beta_bounds": [float("nan"), 1.0]}, "beta_bounds"),
        ({"asc_bounds": [0, -12]}, "asc_bounds"),
        ({"asc_bounds": [-12, 0, 1]}, "asc_bounds"),
    ],
    ids=["above-one", "zero", "negative", "unordered", "one-value", "nan", "asc-unordered", "asc-three-values"],
)
def test_config_rejects_bad_optimizer_bounds(optimizer, key):
    with pytest.raises(ValueError, match=rf"optimizer\.{key} must be"):
        PipelineConfig.from_dict({"optimizer": optimizer})


def test_cli_names_a_bad_optimizer_bound_before_fitting(fixture_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"optimizer": {"beta_bounds": [0.01, 2], "init_beta": 1.5}}))
    manifest = str(fixture_dir / "manifest.json")
    assert main(["calibrate", "--manifest", manifest, "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert record["message"].startswith("optimizer.beta_bounds must be")
    assert not (tmp_path / "o").exists()


def test_config_accepts_degenerate_optimizer_bounds():
    # coinciding bounds hold a parameter fixed, and beta_hub = 1 is the flat logit
    cfg = PipelineConfig.from_dict({"optimizer": {"beta_bounds": [1, 1], "asc_bounds": [-3, -3]}})
    assert cfg.optimizer.beta_bounds == (1, 1) and cfg.optimizer.asc_bounds == (-3, -3)


@pytest.mark.parametrize(
    "data, key",
    [
        ({"include_on_demand_auto_vmt": "false"}, "include_on_demand_auto_vmt"),
        ({"include_on_demand_auto_vmt": 0}, "include_on_demand_auto_vmt"),
        ({"circuity_factor": "x"}, "circuity_factor"),
        ({"days_per_year": True}, "days_per_year"),
        ({"condition2_km": None}, "condition2_km"),
        ({"threshold_override": "2"}, "threshold_override"),
        ({"optimizer": 3}, "optimizer"),
        ({"optimizer": [1]}, "optimizer"),
        ({"optimizer": {"max_iter": "5"}}, "optimizer.max_iter"),
        ({"optimizer": {"max_iter": 5.0}}, "optimizer.max_iter"),
        ({"optimizer": {"max_iter": True}}, "optimizer.max_iter"),
        ({"optimizer": {"init_beta": "0.5"}}, "optimizer.init_beta"),
        ({"optimizer": {"init_asc": False}}, "optimizer.init_asc"),
        ({"optimizer": {"beta_bounds": "ab"}}, "optimizer.beta_bounds"),
        ({"optimizer": {"beta_bounds": 1}}, "optimizer.beta_bounds"),
        ({"optimizer": {"asc_bounds": [-12, "0"]}}, "optimizer.asc_bounds"),
        ({"optimizer": {"asc_bounds": [-12, False]}}, "optimizer.asc_bounds"),
    ],
)
def test_config_value_of_the_wrong_json_type_names_its_key(data, key):
    with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be "):
        PipelineConfig.from_dict(data)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "template, key",
    [
        ('{"condition2_km": %s}', "condition2_km"),
        ('{"grams_co2_per_mile": %s}', "grams_co2_per_mile"),
        ('{"days_per_year": %s}', "days_per_year"),
        ('{"circuity_factor": %s}', "circuity_factor"),
        ('{"car_cost_per_mile": %s}', "car_cost_per_mile"),
        ('{"threshold_override": %s}', "threshold_override"),
        ('{"optimizer": {"init_beta": %s}}', "optimizer.init_beta"),
        ('{"optimizer": {"init_asc": %s}}', "optimizer.init_asc"),
        ('{"optimizer": {"beta_bounds": [0.01, %s]}}', "optimizer.beta_bounds"),
        ('{"optimizer": {"asc_bounds": [%s, 0]}}', "optimizer.asc_bounds"),
        # several at once: the first key checked is named
        ('{"circuity_factor": %s, "days_per_year": Infinity, "condition2_km": NaN}', "condition2_km"),
    ],
)
def test_config_non_finite_json_number_names_its_key(tmp_path, template, key, literal):
    # Python's json parses these literals, so the config check must catch them
    path = tmp_path / "config.json"
    path.write_text(template % literal, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be (a|\[low, high\]) finite number"):
        PipelineConfig.from_json(path)


def test_config_takes_json_integers_for_numbers_as_given():
    data = {"circuity_factor": 2, "threshold_override": 2, "optimizer": {"init_beta": 1, "init_asc": -4, "max_iter": 5}}
    cfg = PipelineConfig.from_dict(data)
    assert (cfg.circuity_factor, cfg.threshold_override, cfg.optimizer.init_beta, cfg.optimizer.max_iter) == (2, 2, 1, 5)
    assert cfg.to_dict()["circuity_factor"] == 2 and cfg.include_on_demand_auto_vmt is False


@pytest.mark.parametrize(
    "data, key, value",
    [
        ({"markets": 3}, "markets", "3"),
        ({"stops": ["stops.csv"]}, "stops", "['stops.csv']"),
        ({"leg_matrices": 5}, "leg_matrices", "5"),
        ({"leg_matrices": [None]}, "leg_matrices", "None"),
        ({"leg_matrices": ["m.csv", {"path": "m.csv"}]}, "leg_matrices", "{'path': 'm.csv'}"),
    ],
)
def test_manifest_value_of_the_wrong_json_type_names_the_file_and_key(tmp_path, data, key, value):
    (tmp_path / "m.csv").write_text("")
    (tmp_path / "stops.csv").write_text("")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    error = f"{path}: manifest key '{key}' holds {value}, not a file path"
    with pytest.raises(ValueError, match=rf"^{re.escape(error)}$"):
        Manifest.from_json(path)


PARAMS_OK = {"beta_hub": 0.3, "asc_by_segment": {s.value: -4.0 for s in Segment}}
FARES_OK = {
    "bus_fare_usd": 1.5,
    "car_share_usd_per_hour": 5.0,
    "bike_share_steps": [{"up_to_min": 30, "fare_usd": 1.0}, {"up_to_min": None, "fare_usd": 2.5}],
}
# a value that a float() cast would take, and the number rule refuses
HUGE_INT = "1" + "0" * 400
NOT_NUMBERS = ["true", "false", "null", '"0.3"', "NaN", "Infinity", "-Infinity", HUGE_INT]


def _short(value):
    return "huge-int" if value == HUGE_INT else None


def _json_with(tmp_path, name, data, key_path, literal) -> Path:
    """``data`` as a JSON file with the value at ``key_path`` spelled ``literal``."""
    marker = "@@value@@"
    node = data = json.loads(json.dumps(data))
    for key in key_path[:-1]:
        node = node[key]
    node[key_path[-1]] = marker
    path = tmp_path / name
    path.write_text(json.dumps(data).replace(f'"{marker}"', literal), encoding="utf-8")
    return path


@pytest.mark.parametrize("literal", NOT_NUMBERS, ids=_short)
@pytest.mark.parametrize(
    "key_path, key",
    [
        (["beta_hub"], "beta_hub"),
        (["asc_by_segment", "low_income"], "asc_by_segment.low_income"),
    ],
)
def test_params_file_value_that_is_not_a_finite_number_names_the_file_and_key(tmp_path, key_path, key, literal):
    # "beta_hub": true once ran with beta 1.0, and "low_income": false with a constant of 0.0
    path = _json_with(tmp_path, "params.json", PARAMS_OK, key_path, literal)
    error = f"{path}: malformed params: {key} must be a finite number, got "
    with pytest.raises(ValueError, match=rf"^{re.escape(error)}"):
        load_params(path)


@pytest.mark.parametrize("asc", ["[-4.0]", '"-4"', "3"])
def test_params_file_segment_constants_must_be_an_object(tmp_path, asc):
    path = _json_with(tmp_path, "params.json", PARAMS_OK, ["asc_by_segment"], asc)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: malformed params: asc_by_segment must be an object"):
        load_params(path)


def test_params_file_takes_json_integers_as_numbers(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"params": {"beta_hub": 1, "asc_by_segment": {s.value: -4 for s in Segment}}}))
    params = load_params(path)
    assert params == load_params(_json_with(tmp_path, "float.json", PARAMS_OK, ["beta_hub"], "1.0"))
    assert type(params.beta_hub) is float and {type(v) for v in params.asc_by_segment.values()} == {float}


FARE_KEYS = [
    (["bus_fare_usd"], "bus_fare_usd"),
    (["car_share_usd_per_hour"], "car_share_usd_per_hour"),
    (["bike_share_steps", 0, "up_to_min"], "bike_share_steps[0].up_to_min"),
    (["bike_share_steps", 1, "fare_usd"], "bike_share_steps[1].fare_usd"),
]


@pytest.mark.parametrize(
    "key_path, key, literal",
    # a null bound is the open-ended last step
    [(*k, literal) for k in FARE_KEYS for literal in NOT_NUMBERS if not (literal == "null" and k[1].endswith("up_to_min"))],
    ids=_short,
)
def test_fares_value_that_is_not_a_finite_number_names_the_file_and_key(tmp_path, key_path, key, literal):
    # "bus_fare_usd": true once priced the bus at $1
    path = _json_with(tmp_path, "fares.json", FARES_OK, key_path, literal)
    error = f"{path}: malformed fares: {key} must be a finite number, got "
    with pytest.raises(ParseError, match=rf"^{re.escape(error)}"):
        load_fares(path)


def test_fares_take_json_integers_as_numbers(tmp_path):
    path = tmp_path / "fares.json"
    path.write_text(json.dumps(FARES_OK))
    fares = load_fares(path)
    assert fares == FareTable(1.5, 5.0, ((30.0, 1.0), (math.inf, 2.5)))
    assert type(fares.bike_share_steps[0][0]) is float


def test_cli_builds_each_observed_hub_setup_once(fixture_dir, tmp_path, monkeypatch):
    import hubmodal.cli as cli
    import hubmodal.siting as siting

    built = {"cli": [], "siting": []}
    for module, name in ((cli, "cli"), (siting, "siting")):

        def counting(table, hubs, *args, real=module.prepare_hub, name=name, **kwargs):
            built[name].extend(hub.id for hub in hubs)
            return real(table, hubs, *args, **kwargs)

        monkeypatch.setattr(module, "prepare_hub", counting)
    manifest = str(fixture_dir / "manifest.json")
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS_OK))
    # the fit, the impact reports and rank's reference rows share one
    # setup per observed hub; candidate scoring builds only candidates'
    for stage in ("assess", "rank"):
        for fit in ([], ["--params", str(params)]):
            built["cli"].clear()
            built["siting"].clear()
            assert main([stage, "--manifest", manifest, *fit, "--out-dir", str(tmp_path / stage)]) == 0
            assert sorted(built["cli"]) == ["hub-a", "hub-b"], (stage, fit)
            assert all(hub_id.startswith("c-") for hub_id in built["siting"]), (stage, fit)
            assert bool(built["siting"]) == (stage == "rank")


def test_each_stage_screens_the_observed_hubs_once(fixture_dir, tmp_path, monkeypatch):
    import hubmodal.cli as cli

    screens = []
    real = cli.screen_trips

    def counting(table, hub_lat, *args, **kwargs):
        screens.append(len(hub_lat))
        return real(table, hub_lat, *args, **kwargs)

    monkeypatch.setattr(cli, "screen_trips", counting)
    manifest = str(fixture_dir / "manifest.json")
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS_OK))
    for stage in (["identify-trips"], ["calibrate"], ["assess"], ["rank"], ["rank", "--params", str(params)]):
        screens.clear()
        assert main([*stage, "--manifest", manifest, "--out-dir", str(tmp_path / stage[0])]) == 0
        assert screens == [2], stage  # one screen of both observed hubs


def _reference_cells(out: Path, hub_id: str) -> tuple[list[str], list[str]]:
    """The four metric cells of ``hub_id``'s row in ranking.csv, and the
    same four properties of its feature in candidates.geojson, as repr text."""
    with open(out / "ranking.csv", newline="") as fh:
        (row,) = [r for r in csv.DictReader(fh) if r["candidate_id"] == hub_id]
    assert row["is_reference"] == "1"
    features = json.loads((out / "candidates.geojson").read_text())["features"]
    (props,) = [f["properties"] for f in features if f["properties"]["candidate_id"] == hub_id]
    assert props["reference"] and not props["no_potential_trips"]
    return [row[k] for k in METRIC_KEYS], [repr(props[k]) for k in METRIC_KEYS]


@pytest.mark.parametrize("fit", ["params", "in-process"])
def test_rank_reference_rows_are_the_assess_figures(fixture_dir, tmp_path, fit):
    # the fixture's hub-a survey lacks car+bike_share and hub-b's bus+walk,
    # two combos of the service-profile template a candidate is scored with
    manifest = str(fixture_dir / "manifest.json")
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS_OK))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(OFF_DEFAULTS))
    opts = ["--params", str(params)] if fit == "params" else []
    runs = []
    for name, settings in (("defaults", []), ("off-defaults", ["--config", str(config)])):
        args = ["--manifest", manifest, *settings, *opts]
        impacts = json.loads(_run(["assess", *args], tmp_path / name / "a")["impacts.json"].read_text())
        _run(["rank", *args], tmp_path / name / "r")
        assert sorted(impacts["hubs"]) == ["hub-a", "hub-b"]
        figures = {}
        for hub_id, block in impacts["hubs"].items():
            expected = [
                repr(block["potential_demand_trips_per_day"]),
                repr(block["transit_delta_trips_per_day"]),
                repr(block["vmt"]["reduced_per_day"]),
                repr(block["consumer_surplus_total_usd_per_day"]),
            ]
            row, props = _reference_cells(tmp_path / name / "r", hub_id)
            assert row == expected, (name, hub_id)
            assert props == expected, (name, hub_id)
            figures[hub_id] = expected
        runs.append(figures)
    # the settings reach both scoring paths: every ranked figure moves
    default, off = runs
    assert all(a != b for hub_id in default for a, b in zip(default[hub_id], off[hub_id]))


@pytest.mark.parametrize("stage", ["assess", "rank"])
@pytest.mark.parametrize("fit", ["params", "in-process"])
def test_an_observed_hub_with_no_potential_trips_is_an_error(fixture_dir, tmp_path, capsys, stage, fit):
    # hub-b moved far from every market: no stage scores it, nor ranks an
    # all-zero row for it
    inputs = shutil.copytree(fixture_dir, tmp_path / "inputs")
    usage = inputs / "observed_usage.csv"
    lines = usage.read_text().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == "hub-b":
            cells[1:3] = ["44.9", "-70.0"]
            lines[i] = ",".join(cells)
    usage.write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threshold_override": 1.5}))
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS_OK))
    opts = ["--params", str(params)] if fit == "params" else []
    out = tmp_path / "out"
    code = main([stage, "--manifest", str(inputs / "manifest.json"), "--config", str(config), *opts, "--out-dir", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError", "message": "hub hub-b: no potential trips at threshold 1.5"}
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "incomplete, why",
    [(False, "empty survey for hub"), (True, "empty survey for hub: no complete records")],
    ids=["no-rows", "incomplete"],
)
def test_a_hub_with_no_complete_survey_responses_is_named(fixture_dir, tmp_path, capsys, incomplete, why):
    # hub-b's survey rows dropped, or each marked incomplete
    inputs = shutil.copytree(fixture_dir, tmp_path / "inputs")
    survey = inputs / "survey.csv"
    lines = survey.read_text().splitlines()
    hub_b = [line for line in lines if line.startswith("hub-b,")]
    lines = [line for line in lines if not line.startswith("hub-b,")]
    if incomplete:
        lines += [line[: line.rindex(",")] + ",0" for line in hub_b]
    survey.write_text("\n".join(lines) + "\n")
    code = main(["calibrate", "--manifest", str(inputs / "manifest.json"), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError", "message": f"hub hub-b: {why}"}


@pytest.mark.parametrize("stage", ["calibrate", "assess"])
def test_a_hub_whose_surveyed_combos_all_need_an_absent_service_is_named(fixture_dir, tmp_path, capsys, stage):
    # every hub-b response entered by car share, which hub-b does not
    # offer: no stage fits or scores the hub with an empty choice set
    inputs = shutil.copytree(fixture_dir, tmp_path / "inputs")
    with open(inputs / "observed_usage.csv", newline="") as fh:
        assert [r["car_share_available"] for r in csv.DictReader(fh) if r["hub_id"] == "hub-b"] == ["0"]
    survey = inputs / "survey.csv"
    lines = survey.read_text().splitlines()
    column = lines[0].split(",").index("entry_mode")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == "hub-b":
            cells[column] = "car_share"
            lines[i] = ",".join(cells)
    survey.write_text("\n".join(lines) + "\n")
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS_OK))
    opts = ["--params", str(params)] if stage == "assess" else []
    out = tmp_path / "out"
    assert main([stage, "--manifest", str(inputs / "manifest.json"), *opts, "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {
        "error": "ValueError",
        "message": "hub hub-b: no usable combo: every surveyed combo uses a service the hub does not offer (car_share)",
    }
    assert not out.exists() or not any(out.iterdir())


def test_cli_missing_manifest_is_an_error(tmp_path, capsys):
    code = main(["derive-threshold", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    record = json.loads(err)
    assert record["error"]
    assert "manifest" in record["message"]


def test_cli_unreadable_input_is_an_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"markets": "missing.csv"}))
    code = main(["identify-trips", "--manifest", str(manifest), "--out-dir", str(tmp_path / "x")])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]


def test_cli_short_survey_row_is_a_parse_error(fixture_dir, tmp_path, capsys):
    inputs = shutil.copytree(fixture_dir, tmp_path / "inputs")
    survey = inputs / "survey.csv"
    lines = survey.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:7])
    survey.write_text("\n".join(lines) + "\n")
    code = main(["derive-threshold", "--manifest", str(inputs / "manifest.json"), "--out-dir", str(tmp_path / "x")])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ParseError"
    assert record["message"] == f"{survey} row 3: missing cell in column 'segment'"


@pytest.mark.parametrize("stage", ["derive-threshold", "identify-trips", "calibrate"])
@pytest.mark.parametrize("config", [{}, {"threshold_override": 1.5}], ids=["survey-p90", "override"])
def test_a_survey_row_of_an_unknown_hub_is_an_error(fixture_dir, tmp_path, capsys, stage, config):
    # whatever the threshold's source: a pinned threshold reads no detour
    # ratio, yet the row still names a hub the observed usage lacks
    inputs = shutil.copytree(fixture_dir, tmp_path / "inputs")
    survey = inputs / "survey.csv"
    lines = survey.read_text().splitlines()
    lines.append("hub-z," + lines[1].split(",", 1)[1])
    survey.write_text("\n".join(lines) + "\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [stage, "--manifest", str(inputs / "manifest.json"), "--config", str(config_path), "--out-dir", str(out)]
    assert main(argv) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError", "message": "survey references unknown hub 'hub-z'"}
    assert not out.exists() or not any(out.iterdir())


def test_cli_identify_and_calibrate_agree_on_potential_trips(fixture_dir, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    identify = json.loads(_run(["identify-trips", "--manifest", manifest], tmp_path / "i")["identify.json"].read_text())
    files = _run(["calibrate", "--manifest", manifest], tmp_path / "c")
    calibration = json.loads(files["calibration.json"].read_text())
    assert set(identify["hubs"]) == set(calibration["observed"])
    for hub_id, entry in identify["hubs"].items():
        assert entry["potential_trips_per_day"] == calibration["observed"][hub_id]["potential_trips_per_day"], hub_id


def test_cli_threshold_override(fixture_dir, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threshold_override": 1.9}))
    files = _run(["derive-threshold", "--manifest", manifest, "--config", str(config)], tmp_path / "o")
    report = json.loads(files["threshold.json"].read_text())
    assert report["threshold"] == 1.9
    assert report["threshold_source"] == "override"


def test_reports_are_byte_identical_with_and_without_a_leg_matrix_sidecar(fixture_dir, tmp_path, monkeypatch):
    inputs = tmp_path / "fx"
    shutil.copytree(fixture_dir, inputs)
    for sidecar in inputs.glob(".*.legs"):
        sidecar.unlink()
    parses = []
    parse = hubmodal.io._parse_matrices
    monkeypatch.setattr(hubmodal.io, "_parse_matrices", lambda paths: parses.append(paths) or parse(paths))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"beta_hub": 0.3, "asc_by_segment": {s.value: -4.0 for s in Segment}}))
    manifest = str(inputs / "manifest.json")

    def reports(run: str) -> dict:
        out = tmp_path / run
        assert main(["assess", "--manifest", manifest, "--out-dir", str(out)]) == 0
        assert main(["rank", "--manifest", manifest, "--params", str(params), "--out-dir", str(out)]) == 0
        return _tree_digest(out)

    absent = reports("absent")  # the first load parses and writes the sidecar
    assert len(parses) == 1 and len(list(inputs.glob(".matrices.csv.*.legs"))) == 1
    assert reports("present") == absent
    assert len(parses) == 1
    for sidecar in inputs.glob(".*.legs"):
        sidecar.unlink()
    assert reports("deleted") == absent
    assert len(parses) == 2
    assert sorted(absent) == ["candidates.geojson", "impacts.json", "rank_summary.json", "ranking.csv"]


def test_rank_hashes_each_input_once(fixture_dir, tmp_path, monkeypatch):
    hashed = []
    digest = hubmodal.io.sha256_digest
    monkeypatch.setattr(hubmodal.io, "sha256_digest", lambda path: hashed.append(str(path)) or digest(path))
    out = tmp_path / "rank"
    assert main(["rank", "--manifest", str(fixture_dir / "manifest.json"), "--out-dir", str(out)]) == 0
    inputs = json.loads((out / "rank_summary.json").read_text())["inputs"]
    assert sorted(hashed) == sorted(entry["path"] for entry in inputs.values())
    assert len(set(hashed)) == len(hashed) == 7


# sha256 of each rank report on a small multi-segment fixture at criterion
# 10's params.  Recorded before rank's leg lookup, screen and stop
# clustering were rewritten, and re-recorded when the reference rows became
# the observed hubs' assess figures: this fixture surveys 15 of hub-a's 16
# template combos and 8 of hub-b's 9.  The inputs are named relative to the
# working directory, so the reports' "inputs" paths are the same on every run.
RANK_REPORT_DIGESTS = {
    "candidates.geojson": "8da02c54656b75a3b11fcc822ead29f9984a7906039fa425251767714a30b465",
    "rank_summary.json": "683563c830a8f6a47f8aca071f595dad4c84cdbc1e6e2ebd5f578e4e7426be66",
    "ranking.csv": "5618b74ab23a2a69c6c0f4db569433963225657ddab69a5644a0959860f67695",
}


def test_rank_reports_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fixture = ["--seed", "11", "--od-pairs", "40", "--stops", "30", "--pr-lots", "2"]
    assert main(["gen-fixture", *fixture, "--out-dir", "fx"]) == 0
    Path("params.json").write_text(json.dumps({"params": {"beta_hub": 0.3, "asc_by_segment": {s.value: -4.0 for s in Segment}}}))
    assert main(["rank", "--manifest", "fx/manifest.json", "--params", "params.json", "--out-dir", "rank"]) == 0
    assert _tree_digest(Path("rank")) == RANK_REPORT_DIGESTS


# sha256 of each report of the stages that fit, on the default seed-7
# fixture: calibrate's, and assess's and rank's without --params, which
# embed the fit under "calibration".  Recorded before the fit's
# observation routes and report block moved from the CLI into the
# calibration module.  Relative paths keep the reports' "inputs" the same.
FIT_REPORT_DIGESTS = {
    "calibration.json": "dbc6594f1f8338ebeee789896857f9363a6b4148f611feb9d724dce57d3a8c87",
    "candidates.geojson": "d189d676aef1c0a4598321a21431216db56d4a9b43d591a9a7754c4004852296",
    "impacts.json": "465217cde45059a0b3e9563d87c83225f2988d33c34a68c1d65a8237f85c7111",
    "rank_summary.json": "f86a292bec30d734ee7b5ad09808b3332dc97ba87686193f7da8cbc10755ad11",
    "ranking.csv": "8010722ff90de512289c52441060267ba59178b126aab898e60ae16c8beafc3f",
}


def test_fit_reports_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-fixture", "--seed", "7", "--out-dir", "fx"]) == 0
    for stage in ("calibrate", "assess", "rank"):
        assert main([stage, "--manifest", "fx/manifest.json", "--out-dir", "fit"]) == 0
    assert _tree_digest(Path("fit")) == FIT_REPORT_DIGESTS


# ----------------------------------------------------------------------
# the parser and the stage process's exit
# ----------------------------------------------------------------------

HELP_AND_USAGE_ERRORS = [
    ["--help"],
    [],
    ["nope"],
    ["--help", "rank"],
    ["rank", "--help"],
    ["gen-fixture", "-h"],
    ["rank", "--bogus"],
    ["rank", "--threads", "x"],
    ["calibrate", "extra"],
]


def _exit_and_output(argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


@pytest.mark.parametrize("argv", HELP_AND_USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "no-args")
def test_help_and_usage_errors_read_as_with_every_subcommand_built(argv, monkeypatch, capsys):
    lone = _exit_and_output(argv, capsys)
    build_all = hubmodal.cli.build_parser
    monkeypatch.setattr(hubmodal.cli, "build_parser", lambda command=None: build_all())
    assert _exit_and_output(argv, capsys) == lone
    assert lone[0] == (0 if "--help" in argv or "-h" in argv else 2)


@pytest.mark.parametrize(
    "argv, built",
    [
        (["rank", "--help"], ["rank"]),
        (["gen-fixture", "--help"], ["gen-fixture"]),
        (["--help"], list(hubmodal.cli._COMMANDS)),
        (["nope"], list(hubmodal.cli._COMMANDS)),
    ],
)
def test_main_builds_only_the_invoked_subcommands_parser(argv, built, monkeypatch, capsys):
    names = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", lambda self, name, **kw: names.append(name) or add_parser(self, name, **kw))
    _exit_and_output(argv, capsys)
    assert names == built


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_in_process_main_leaves_the_collector_as_it_found_it(fixture_dir, tmp_path, monkeypatch, enabled):
    exit_hooks = []  # stands in for atexit's registry

    def unregister(func):
        exit_hooks[:] = [f for f in exit_hooks if f != func]

    monkeypatch.setattr(atexit, "register", exit_hooks.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    manifest = str(fixture_dir / "manifest.json")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert gc.get_freeze_count() == 0
        codes = [
            main(["derive-threshold", "--manifest", manifest, "--out-dir", str(tmp_path / "a")]),
            main(["identify-trips", "--manifest", manifest, "--out-dir", str(tmp_path / "b")]),
            main(["derive-threshold", "--out-dir", str(tmp_path / "c")]),  # an error record
        ]
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert codes == [0, 0, 1]
    assert exit_hooks == [gc.freeze]  # once, for the process's exit


CLI_CHILD = "import sys\nfrom hubmodal.cli import main\nsys.exit(main())"


def _stage_process(args, cwd: Path, code: str = CLI_CHILD) -> subprocess.CompletedProcess:
    """A stage in a fresh interpreter, run as perfbench runs it."""
    src = str(Path(hubmodal.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_stage_process_exits_with_the_reports_of_an_in_process_run(fixture_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(fixture_dir, "fx")
    Path("params.json").write_text(json.dumps({"params": {"beta_hub": 0.3, "asc_by_segment": {s.value: -4.0 for s in Segment}}}))
    args = ["rank", "--manifest", "fx/manifest.json", "--params", "params.json", "--out-dir"]
    assert main([*args, "in"]) == 0
    in_process = capsys.readouterr()
    done = _stage_process([*args, "child"], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == in_process.out.replace("in/", "child/")
    assert _tree_digest(Path("child")) == _tree_digest(Path("in"))
    assert sorted(_tree_digest(Path("in"))) == ["candidates.geojson", "rank_summary.json", "ranking.csv"]


def test_stage_process_error_is_one_json_line_and_nothing_after(tmp_path):
    done = _stage_process(["identify-trips", "--manifest", "missing/manifest.json", "--out-dir", "x"], tmp_path)
    assert done.returncode == 1
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert done.stderr == line + "\n"
    record = json.loads(line)
    assert record["error"] and "missing/manifest.json" in record["message"]


def test_stage_process_freezes_its_objects_before_finalization(tmp_path):
    # registered before main(), so atexit runs it after main's hook
    probe = "import atexit, gc\natexit.register(lambda: print(gc.get_freeze_count(), gc.isenabled()))\n"
    done = _stage_process(["derive-threshold", "--out-dir", "x"], tmp_path, probe + CLI_CHILD)
    assert done.returncode == 1
    frozen, enabled = done.stdout.split()
    assert int(frozen) > 1000 and enabled == "True"
