"""File format round-trips, parse errors, and the command-line pipeline.

CLI commands run in-process through main(argv) against a generated
fixture in a temp directory.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import shutil
import stat
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_markets, full_attrs, load_both, load_taste_parameters, make_market, make_taste, snapshot

from hubmodal import (
    FareTable,
    Manifest,
    MAIN_MODES,
    GeoPoint,
    HubRecord,
    LegMatrices,
    LegTimes,
    Market,
    Mode,
    ModeAttr,
    ParseError,
    PipelineConfig,
    Segment,
    TASTE_FIELDS,
    StopRecord,
    TasteVector,
    SurveyRecord,
    fmt,
    jsonable,
    load_fares,
    load_hub_records,
    load_markets,
    load_matrices,
    load_pr_lots,
    load_stops,
    load_survey,
    sha256_digest,
    write_fares,
    write_hub_records,
    write_markets,
    write_matrices,
    write_pr_lots,
    write_stops,
    write_survey,
)
import hubmodal.io
from hubmodal.cli import _read_params, main
from hubmodal.hubs import MARKET_MODE_COLUMNS, MarketError, MarketTable
from hubmodal.io import MATRIX_COLUMNS


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


def test_jsonable_strips_numpy_types():
    blob = {"a": np.float64(1.5), "b": [np.int32(2), np.bool_(False)], "c": np.arange(3)}
    got = jsonable(blob)
    assert got == {"a": 1.5, "b": [2, False], "c": [0, 1, 2]}
    json.dumps(got)  # must be serializable as-is


def test_markets_round_trip(tmp_path):
    markets = [
        make_market(od_id="od1", segment=Segment.LOW_INCOME, trips=10.25, miles=4.125),
        make_market(od_id="od1", segment=Segment.SENIOR, trips=3.5),
        make_market(od_id="od2", segment=Segment.STUDENT, taste=make_taste(beta_cost=-0.123456)),
    ]
    path = tmp_path / "markets.csv"
    write_markets(MarketTable.from_markets(markets), path)
    back = load_markets(path)
    assert back.ids == tuple(sorted(m.market_id for m in markets))
    assert_same_markets(back, MarketTable.from_markets(markets))


# ids holding a comma, a quote or a line break: written quoted, as the
# csv module quotes them, and read back whole
AWKWARD_IDS = ("od,0000", 'od"1"', "od\n2", "od\r3", 'a,"b"\r\nc')


def test_markets_round_trip_quotes_awkward_ids(tmp_path):
    markets = [make_market(od_id=od_id) for od_id in AWKWARD_IDS]
    path = tmp_path / "markets.csv"
    write_markets(MarketTable.from_markets(markets), path)
    assert '"od,0000"' in path.read_text() and '"od""1"""' in path.read_text()
    back = load_markets(path)
    assert_same_markets(back, MarketTable.from_markets(markets))
    again = tmp_path / "again.csv"
    write_markets(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_matrices_round_trip_quotes_awkward_ids(tmp_path):
    matrices = LegMatrices()
    for zone, hub in zip(AWKWARD_IDS, reversed(AWKWARD_IDS)):
        matrices.add(zone, hub, Mode.BUS, LegTimes(5.0, 1.0, 2.0, 0.0, 3.5), None)
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
    write_markets(MarketTable.from_markets([]), path)
    assert len(load_markets(path)) == 0
    assert path.read_text().count("\n") == 1


def test_markets_unavailable_modes_may_have_blank_cells(tmp_path):
    market = make_market()
    attrs = dict(market.attrs)
    del attrs[Mode.BIKING]
    trimmed = make_market(od_id="trim", attrs=attrs)
    path = tmp_path / "markets.csv"
    write_markets(MarketTable.from_markets([trimmed]), path)
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
    assert_same_markets(back, MarketTable.from_markets([trimmed]))


def test_markets_reject_nonnegative_beta_cost(tmp_path):
    path = tmp_path / "markets.csv"
    write_markets(MarketTable.from_markets([make_market(od_id="bad", taste=make_taste(beta_cost=-0.3))]), path)
    text = path.read_text().replace("-0.3", "0.1")
    path.write_text(text)
    with pytest.raises(ParseError, match=r"row 2.*beta_cost must be negative.*beta_cost"):
        load_markets(path)


def test_markets_duplicate_rows_rejected(tmp_path):
    # the fourth line repeats the second: the later row is named
    path = tmp_path / "markets.csv"
    write_markets(MarketTable.from_markets([make_market(od_id="od1"), make_market(od_id="od2")]), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(ParseError, match=r"row 4: duplicate market od1\|low_income in column 'od_id'$"):
        load_markets(path)


def _write_two_markets(path, **cells) -> list[str]:
    """Markets od1 and od2 written to ``path`` with cells of od2's row
    (line 3) replaced; the file's lines."""
    write_markets(MarketTable.from_markets([make_market(od_id="od1"), make_market(od_id="od2")]), path)
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
    write_markets(MarketTable.from_markets(senior), markets)
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


def test_blank_zone_beside_literal_nan_is_the_exact_paths_error(tmp_path):
    # Rewritten for numpy, the blank d_zone reads "nan" beside the literal
    # nan of an unavailable mode: a count of NaN numbers alone would match
    # the one rewrite and take the literal for a blank.
    path = tmp_path / "markets.csv"
    _write_two_markets(path, biking_available="0", biking_ivt_min="nan", d_zone="")
    fast, exact = load_both(load_markets, path, 1 << 17)
    assert fast == exact == f"ParseError: {path} row 3: non-finite number 'nan' in column 'biking_ivt_min'"


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
        MarketTable.from_markets(markets)
    assert (err.value.row, err.value.column) == (1, "transit_ivt_min")
    attrs[Mode.TRANSIT] = ModeAttr(ivt_min=35.0, cost_usd=math.inf)
    with pytest.raises(ValueError, match=r"non-finite value inf in column 'transit_cost_usd'$"):
        MarketTable.from_markets([make_market(attrs=attrs)])
    # an unavailable mode's attributes are never read
    attrs[Mode.TRANSIT] = ModeAttr(ivt_min=math.nan, available=False)
    table = MarketTable.from_markets([make_market(attrs=attrs)])
    assert table.attrs["ivt_min"][0, 1] == 0.0
    assert np.isfinite(np.delete(table.unimodal_utilities()[0], 1)).all()


def test_markets_missing_column_named_in_error(tmp_path):
    path = tmp_path / "markets.csv"
    write_markets(MarketTable.from_markets([make_market()]), path)
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
    write_markets(MarketTable.from_markets([market]), full)
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
    assert_same_markets(back, MarketTable.from_markets([market]))
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


def test_matrices_round_trip_and_blank_direction(tmp_path):
    matrices = LegMatrices()
    matrices.add("z1", "h1", Mode.BUS,
                 LegTimes(minutes=15.0, access_min=5.0, egress_min=5.0, transfers=0.0, miles=3.25), None)
    matrices.add("z2", "h1", Mode.CAR, LegTimes(minutes=9.0, miles=2.5), LegTimes(minutes=10.0, miles=2.5))
    matrices.add("z1", "h1", Mode.WALK_LEG, None, LegTimes(minutes=12.0))
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
    matrices.add("z1", "h1", Mode.BUS, LegTimes(minutes=15.0), None)
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
        matrices.add(zone, "h1", Mode.BUS, LegTimes(5.0, 1.0, 2.0, 0.0, 3.5), LegTimes(6.0, 1.0, 2.0, 1.0, 3.5))
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
        lambda p: write_markets(MarketTable.from_markets([make_market(od_id="od1"), make_market(od_id="od2")]), p),
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
    "params.json": _read_params,
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


def test_generated_csv_files_never_take_the_exact_path(tmp_path, monkeypatch):
    # the quick-start fixture and the 1,000-market x 100-candidate one,
    # each file also as a Windows export (CRLF line ends and a byte-order
    # mark), which must read alike
    exact = []
    exact_batch = hubmodal.io._exact_batch
    monkeypatch.setattr(hubmodal.io, "_exact_batch", lambda path, *args: exact.append(path) or exact_batch(path, *args))
    for seed, size in (("7", []), ("11", ["--od-pairs", "250", "--stops", "100", "--pr-lots", "5"])):
        out = tmp_path / seed
        assert main(["gen-fixture", "--seed", seed, *size, "--out-dir", str(out)]) == 0
        for name, load in FIXTURE_LOADERS.items():
            path = _fixture_csv(out, tmp_path, name)
            windows = tmp_path / f"windows-{name}"
            windows.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
            assert snapshot(load(windows)) == snapshot(load(path))
    assert exact == []


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


def test_cli_builds_each_observed_hub_setup_once(fixture_dir, tmp_path, monkeypatch):
    import hubmodal.cli as cli

    built = []
    real = cli.prepare_hub

    def counting(table, hubs, *args, **kwargs):
        built.extend(hub.id for hub in hubs)
        return real(table, hubs, *args, **kwargs)

    monkeypatch.setattr(cli, "prepare_hub", counting)
    manifest = str(fixture_dir / "manifest.json")
    # the in-process fit and the impact report share one setup per hub
    assert main(["assess", "--manifest", manifest, "--out-dir", str(tmp_path / "a")]) == 0
    assert sorted(built) == ["hub-a", "hub-b"]

    built.clear()
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"beta_hub": 0.3, "asc_by_segment": {s.value: -4.0 for s in Segment}}))
    assert main(["rank", "--manifest", manifest, "--params", str(params), "--out-dir", str(tmp_path / "r")]) == 0
    assert built == []


def test_each_stage_screens_the_observed_hubs_once(fixture_dir, tmp_path, monkeypatch):
    import hubmodal.cli as cli

    screens = []
    real = cli.potential_trip_mask

    def counting(table, hub_lat, *args, **kwargs):
        screens.append(len(hub_lat))
        return real(table, hub_lat, *args, **kwargs)

    monkeypatch.setattr(cli, "potential_trip_mask", counting)
    manifest = str(fixture_dir / "manifest.json")
    for stage in ("identify-trips", "calibrate", "assess"):
        screens.clear()
        assert main([stage, "--manifest", manifest, "--out-dir", str(tmp_path / stage)]) == 0
        assert screens == [2], stage  # one screen of both observed hubs


def test_cli_builds_no_market_objects(tmp_path, monkeypatch):
    # the quick start's stages read the markets file straight into columns
    fx, run = tmp_path / "fx", tmp_path / "run"
    assert main(["gen-fixture", "--seed", "7", "--out-dir", str(fx)]) == 0
    built = []
    real = Market.__post_init__
    monkeypatch.setattr(Market, "__post_init__", lambda self: built.append(self.market_id) or real(self))
    manifest = str(fx / "manifest.json")
    assert main(["calibrate", "--manifest", manifest, "--out-dir", str(run)]) == 0
    params = str(run / "calibration.json")
    assert main(["rank", "--manifest", manifest, "--params", params, "--out-dir", str(run)]) == 0
    assert built == []


def test_gen_fixture_builds_no_market_objects(tmp_path, monkeypatch):
    # the markets are drawn straight into MarketTable columns
    built = []
    for cls in (Market, TasteVector):
        real = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, real=real: built.append(type(self).__name__) or real(self))
    real_attr = ModeAttr.__init__
    monkeypatch.setattr(ModeAttr, "__init__", lambda self, *a, **k: built.append("ModeAttr") or real_attr(self, *a, **k))
    assert main(["gen-fixture", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    assert built == []
    make_market()  # the patches see a market built
    assert {"Market", "TasteVector", "ModeAttr"} <= set(built)


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
