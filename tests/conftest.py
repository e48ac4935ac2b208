"""Shared builders for the test suite.

Markets, hubs, and matrices here are deliberately tiny and fully
specified, so tests can hand-compute the expected numbers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import hubmodal.io
from hubmodal import (
    SEGMENTS,
    TASTE_FIELDS,
    ComboId,
    FareTable,
    GeoPoint,
    Hub,
    HubParams,
    LegMatrices,
    Market,
    MarketTable,
    Mode,
    ModeAttr,
    ParseError,
    Segment,
    TasteVector,
    potential_trip_mask,
    prepare_hub,
)
from hubmodal.hubs import LEG_MODE_ORDER

BASE_TASTE = dict(
    beta_auto_tt=-0.05,
    beta_trans_ivt=-0.03,
    beta_trans_at=-0.05,
    beta_trans_et=-0.05,
    beta_trans_n=-0.4,
    beta_nonveh_tt=-0.07,
    beta_cost=-0.3,
    asc_driving=0.5,
    asc_transit=-0.5,
    asc_ondemand=-1.0,
    asc_biking=-1.5,
    asc_walking=-0.8,
)


def make_taste(**over) -> TasteVector:
    values = dict(BASE_TASTE)
    values.update(over)
    return TasteVector(**values)


def full_attrs(
    drive_min: float = 20.0,
    drive_cost: float = 3.0,
    transit_min: float = 35.0,
    transit_cost: float = 1.5,
) -> dict[Mode, ModeAttr]:
    """All six unimodal modes available with round numbers."""
    return {
        Mode.DRIVING: ModeAttr(ivt_min=drive_min, cost_usd=drive_cost),
        Mode.TRANSIT: ModeAttr(ivt_min=transit_min, access_min=6.0, egress_min=4.0, transfers=1.0, cost_usd=transit_cost),
        Mode.ON_DEMAND_AUTO: ModeAttr(ivt_min=drive_min * 1.2, cost_usd=8.0),
        Mode.BIKING: ModeAttr(ivt_min=40.0),
        Mode.WALKING: ModeAttr(ivt_min=80.0),
        Mode.CARPOOL: ModeAttr(ivt_min=drive_min * 1.15, cost_usd=drive_cost * 0.5),
    }


def make_market(
    od_id: str = "od1",
    segment: Segment = Segment.LOW_INCOME,
    o: tuple[float, float] = (42.65, -73.76),
    d: tuple[float, float] = (42.70, -73.70),
    trips: float = 10.0,
    miles: float = 5.0,
    taste: TasteVector | None = None,
    attrs: dict[Mode, ModeAttr] | None = None,
) -> Market:
    return Market(
        od_id=od_id,
        segment=segment,
        origin=GeoPoint(lat=o[0], lon=o[1]),
        destination=GeoPoint(lat=d[0], lon=d[1]),
        trips_per_day=trips,
        driving_miles=miles,
        attrs=attrs if attrs is not None else full_attrs(),
        taste=taste if taste is not None else make_taste(),
    )


def assert_same_markets(table: MarketTable, expected: MarketTable) -> None:
    """``table`` holds every value of ``expected``, row for row in
    market-id order."""
    assert table.ids == expected.ids
    assert table.od_ids == expected.od_ids
    for name in ("segment_codes", "o_lat", "o_lon", "d_lat", "d_lon", "trips", "drive_miles", "available"):
        assert np.array_equal(getattr(table, name), getattr(expected, name)), name
    for field, column in expected.attrs.items():
        assert np.array_equal(table.attrs[field], column), field
    for name, column in expected.taste.items():
        assert np.array_equal(table.taste[name], column), name

    def zones(t: MarketTable) -> list[list[str]]:
        return [[t.zone_ids[z] for z in codes.tolist()] for codes in (t.o_zone_codes, t.d_zone_codes)]

    assert zones(table) == zones(expected)


def one_hub_setup(markets, hub: Hub, matrices: LegMatrices, fares: FareTable, **kwargs):
    """``prepare_hub`` for ``hub`` over every one of ``markets``."""
    table = MarketTable.from_markets(markets)
    return prepare_hub(table, [hub], np.ones((1, len(table)), dtype=bool), matrices, fares, **kwargs)


def kept_ids(markets, hub: GeoPoint, threshold: float, **kwargs) -> list[str]:
    """Ids of the ``markets`` that ``potential_trip_mask`` keeps for a hub
    at ``hub``, in market-id order."""
    table = MarketTable.from_markets(markets)
    (keep,) = potential_trip_mask(table, [hub.lat], [hub.lon], threshold, **kwargs)
    return [table.ids[i] for i in np.flatnonzero(keep).tolist()]


def load_taste_parameters(path) -> dict[tuple[str, Segment], TasteVector]:
    """Taste vectors keyed by (od_id, segment) from a standalone
    taste-parameters file, as ``load_markets`` joins them."""
    rows, taste = hubmodal.io._read_tastes(path)
    values = zip(*(taste[name].tolist() for name in TASTE_FIELDS))
    return {(od_id, SEGMENTS[code]): TasteVector(*v) for (od_id, code), v in zip(rows, values)}


def make_params(beta: float = 0.5, asc: float = -4.0, **per_segment) -> HubParams:
    ascs = {seg: per_segment.get(seg.value, asc) for seg in Segment}
    return HubParams(beta_hub=beta, asc_by_segment=ascs)


def simple_fares() -> FareTable:
    return FareTable(
        bus_fare_usd=1.50,
        car_share_usd_per_hour=5.0,
        bike_share_steps=((30.0, 1.0), (math.inf, 2.5)),
    )


def full_matrices(
    zones: dict[str, GeoPoint],
    hub_id: str,
    minutes: float = 10.0,
    miles: float | None = 2.0,
) -> LegMatrices:
    """Every leg mode available both directions for every zone."""
    zone_ids = list(zones)
    n_modes = len(LEG_MODE_ORDER)
    leg_miles = math.nan if miles is None else miles
    legs = [
        [minutes, 3.0, 2.0, 0.0, leg_miles] if mode is Mode.BUS else [minutes, 0.0, 0.0, 0.0, leg_miles]
        for mode in LEG_MODE_ORDER
    ]
    block = np.tile(legs, (len(zone_ids), 1))
    return LegMatrices(
        zone_ids,
        [hub_id],
        np.repeat(np.arange(len(zone_ids)), n_modes),
        np.zeros(len(block), dtype=int),
        np.tile(np.arange(n_modes), len(zone_ids)),
        np.stack([block, block]),
    )


def make_hub(
    hub_id: str = "h1",
    loc: tuple[float, float] = (42.67, -73.73),
    combos: tuple[ComboId, ...] = (ComboId(Mode.CAR, Mode.BUS), ComboId(Mode.WALK_LEG, Mode.BUS)),
    car_share: bool = True,
    bike_share: bool = True,
) -> Hub:
    return Hub(
        id=hub_id,
        location=GeoPoint(lat=loc[0], lon=loc[1]),
        car_share_available=car_share,
        bike_share_available=bike_share,
        combos=frozenset(combos),
    )


def random_taste(rng: np.random.Generator) -> TasteVector:
    return make_taste(
        beta_auto_tt=-float(rng.uniform(0.02, 0.09)),
        beta_trans_ivt=-float(rng.uniform(0.01, 0.06)),
        beta_trans_at=-float(rng.uniform(0.02, 0.09)),
        beta_trans_et=-float(rng.uniform(0.02, 0.09)),
        beta_trans_n=-float(rng.uniform(0.1, 0.8)),
        beta_nonveh_tt=-float(rng.uniform(0.03, 0.12)),
        beta_cost=-float(rng.uniform(0.05, 0.6)),
        asc_driving=float(rng.uniform(-2, 2)),
        asc_transit=float(rng.uniform(-3, 1)),
        asc_ondemand=float(rng.uniform(-3, 1)),
        asc_biking=float(rng.uniform(-3, 1)),
        asc_walking=float(rng.uniform(-3, 1)),
    )


def random_point(rng: np.random.Generator, spread: float = 0.08) -> GeoPoint:
    return GeoPoint(
        lat=42.65 + float(rng.uniform(-spread, spread)),
        lon=-73.75 + float(rng.uniform(-spread, spread)),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def snapshot(value):
    """A picture of a loaded value that compares equal exactly when the
    values do, NaN and signed zeros included: arrays by dtype, shape and
    bytes, stores and tables by their fields, anything else by repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return {k: snapshot(v) for k, v in value.items()}
    if isinstance(value, (LegMatrices, MarketTable)):
        return snapshot(vars(value))
    return repr(value)


def load_both(load, path, batch_chars: int) -> tuple:
    """The snapshot of ``load(path)``, or its ParseError text, read in
    batches of ``batch_chars`` characters: first as the loader reads it,
    then with every batch sent to the exact path (csv.reader), which the
    first must match."""

    def attempt():
        try:
            return snapshot(load(path))
        except ParseError as err:
            return f"ParseError: {err}"

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hubmodal.io, "_BATCH_CHARS", batch_chars)
        fast = attempt()
        mp.setattr(hubmodal.io, "_parse_batch", lambda *args: None)
        return fast, attempt()


# Irregular input that numpy's reader could take otherwise than
# csv.reader does; plant_irregular puts one in a file.
IRREGULAR = (
    "none",
    "padded_number",
    "blank_number",
    "space_number",
    "padded_key",
    "long_key",
    "unicode_key",
    "underscore_number",
    "nan_number",
    "inf_number",
    "huge_number",
    "hash_key",
    "nul_key",
    "quoted_comma_key",
    "late_quote",
    "crlf",
    "cr",
    "blank_line",
    "short_row",
    "extra_cells",
    "blank_key",
    "nan_key",
    "blank_key_beside_nan",
)
_CELL_PLANTS = {
    "padded_number": ("number", lambda text: f" {text} "),
    "blank_number": ("number", lambda text: ""),
    "space_number": ("number", lambda text: " "),
    "padded_key": ("key", lambda text: f"  {text}\t"),
    "long_key": ("key", lambda text: text * 20 + "-x"),
    "unicode_key": ("key", lambda text: f"{text}\u00e9\u20ac"),
    "underscore_number": ("number", lambda text: "1_000"),
    "nan_number": ("number", lambda text: "nan"),
    "inf_number": ("number", lambda text: "-inf"),
    "huge_number": ("number", lambda text: "1e999"),
    "hash_key": ("key", lambda text: f"#{text}"),
    "nul_key": ("key", lambda text: f"{text}\x00"),
    "quoted_comma_key": ("key", lambda text: f'"{text},q"'),
    "blank_key": ("key", lambda text: ""),
    "nan_key": ("key", lambda text: "nan"),
}


def plant_irregular(text: str, kind: str, line: int, key: int, number: int) -> str:
    """``text``, a CSV file of one-line records with no quote, with
    ``kind`` planted at line ``line`` (0 is the header) in cell ``key`` or
    ``number``, a text and a number column of the file."""
    lines = text.splitlines()
    cells = lines[line].split(",")
    if kind in _CELL_PLANTS:
        column, plant = _CELL_PLANTS[kind]
        pick = key if column == "key" else number
        cells[pick] = plant(cells[pick])
    elif kind == "short_row":
        cells = cells[: max(key, number)]
    elif kind == "extra_cells":
        cells += ["x", ""]
    elif kind == "blank_key_beside_nan":
        cells[key] = ""
    lines[line] = ",".join(cells)
    if kind == "blank_key_beside_nan":  # a literal nan on the last line, maybe this one
        last = lines[-1].split(",")
        last[number] = "nan"
        lines[-1] = ",".join(last)
    elif kind == "late_quote":  # the last line's first cell quoted
        first, rest = lines[-1].split(",", 1)
        lines[-1] = f'"{first}",{rest}'
    elif kind == "blank_line":
        lines.insert(line, "")
    end = {"crlf": "\r\n", "cr": "\r"}.get(kind, "\n")
    return end.join(lines) + end
