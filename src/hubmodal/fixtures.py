"""Deterministic synthetic study area for demos and scale tests.

Everything is a pure function of the seed and the size knobs, so two
runs with the same arguments produce byte-identical files.  The layout
mimics a small metro: an OD market table with per-segment tastes, two
operating hubs (one with car share), a bus-stop roster that clusters
into siting candidates, park-and-ride lots, transfer-leg skims with
deliberate coverage holes, an intercept survey at each hub, and the
usage observations the calibration step consumes.

About 2% of skim rows are dropped outright and a further slice lose
their from-hub direction, because real skims have holes and the model
must treat a missing leg as unavailable rather than free.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .choice import LEG_MODE_ORDER, MAIN_MODES, SEGMENTS, ComboId, Mode
from .config import PipelineConfig
from .geo import MILES_PER_KM, GeoPoint, haversine_km
from .hubs import ATTR_FIELDS, CAR_SHARE_PROFILE_COMBOS, STANDARD_PROFILE_COMBOS, MarketTable, SurveyRecord
from .io import HubRecord, write_json
from .legs import FareTable, LegMatrices
from .siting import StopRecord, assign_services, cluster_stops
from .writers import write_fares, write_hub_records, write_markets, write_matrices, write_pr_lots, write_stops, write_survey

_CENTER_LAT = 42.652
_CENTER_LON = -73.757
_HALF_LAT = 0.054  # about 6 km
_HALF_LON = 0.073  # about 6 km east-west at this latitude

_M_PER_DEG_LAT = 111_320.0

# taste template all segments share before segment tilts and jitter
_BASE_TASTE = {
    "beta_auto_tt": -0.055,
    "beta_trans_ivt": -0.032,
    "beta_trans_at": -0.055,
    "beta_trans_et": -0.048,
    "beta_trans_n": -0.45,
    "beta_nonveh_tt": -0.07,
    "beta_cost": -0.30,
    "asc_driving": 0.8,
    "asc_transit": -0.7,
    "asc_ondemand": -1.2,
    "asc_biking": -1.6,
    "asc_walking": -0.9,
}

_SEGMENT_TILT = {
    "not_low_income": {"beta_cost": -0.20, "beta_auto_tt": -0.062},
    "low_income": {"beta_cost": -0.50, "asc_driving": 0.3},
    "senior": {"beta_nonveh_tt": -0.10, "beta_trans_at": -0.08},
    "student": {"beta_cost": -0.45, "asc_biking": -0.9},
}


def _offset(point: GeoPoint, dist_m: float, bearing_rad: float) -> GeoPoint:
    dlat = dist_m * math.cos(bearing_rad) / _M_PER_DEG_LAT
    dlon = dist_m * math.sin(bearing_rad) / (_M_PER_DEG_LAT * math.cos(math.radians(point.lat)))
    return GeoPoint(lat=point.lat + dlat, lon=point.lon + dlon)


def _box_point(rng: np.random.Generator) -> tuple[float, float]:
    return (
        _CENTER_LAT + float(rng.uniform(-_HALF_LAT, _HALF_LAT)),
        _CENTER_LON + float(rng.uniform(-_HALF_LON, _HALF_LON)),
    )


def _make_stops(rng: np.random.Generator, n: int) -> list[StopRecord]:
    """Bus stops.  Small rosters get satellite stops within clustering
    range; large rosters go on a spaced grid so every stop is its own
    candidate and the count is predictable."""
    stops: list[StopRecord] = []
    if n >= 50:
        side = math.ceil(math.sqrt(n))
        for i in range(n):
            r, c = divmod(i, side)
            lat = _CENTER_LAT - _HALF_LAT + (r + 0.5) * (2 * _HALF_LAT / side)
            lon = _CENTER_LON - _HALF_LON + (c + 0.5) * (2 * _HALF_LON / side)
            lat += float(rng.uniform(-2.5e-4, 2.5e-4))
            lon += float(rng.uniform(-2.5e-4, 2.5e-4))
            stops.append(StopRecord(stop_id=f"s{i:04d}", location=GeoPoint(lat=lat, lon=lon)))
        return stops
    n_sat = n // 3
    n_anchor = n - n_sat
    anchors = [GeoPoint(*_box_point(rng)) for _ in range(n_anchor)]
    for i, pt in enumerate(anchors):
        stops.append(StopRecord(stop_id=f"s{i:04d}", location=pt))
    for j in range(n_sat):
        base = anchors[j % n_anchor]
        pt = _offset(base, float(rng.uniform(60.0, 140.0)), float(rng.uniform(0.0, 2 * math.pi)))
        stops.append(StopRecord(stop_id=f"s{n_anchor + j:04d}", location=pt))
    return stops


# Each segment's taste bases (a row per segment), in _BASE_TASTE order,
# the order of its draws: a beta is its base times U(0.85, 1.15), a
# constant its base plus U(-0.3, 0.3).
_TASTE_BASES = np.array(
    [[{**_BASE_TASTE, **_SEGMENT_TILT[seg.value]}[name] for name in _BASE_TASTE] for seg in SEGMENTS]
)
_BETA = np.array([name.startswith("beta") for name in _BASE_TASTE])
_TASTE_LOW = np.where(_BETA, 0.85, -0.3)
_TASTE_SPAN = np.where(_BETA, 1.15, 0.3) - _TASTE_LOW


def _make_markets(rng: np.random.Generator, n_od: int) -> MarketTable:
    """``n_od`` OD pairs of one market per segment, drawn in (OD pair,
    segment) order straight into MarketTable columns.  The destination's
    rejection loop and the lognormal trips take a variable number of
    draws, so the pairs are drawn one at a time."""
    n_seg = len(SEGMENTS)
    points, drive_miles = np.empty((n_od, 4)), np.empty(n_od)  # o_lat, o_lon, d_lat, d_lon
    attrs = {f: np.zeros((n_od, len(MAIN_MODES))) for f in ATTR_FIELDS}
    available = np.zeros((n_od, len(MAIN_MODES)), dtype=bool)
    trips = np.empty(n_od * n_seg)
    tastes = np.empty((n_od * n_seg, len(_BASE_TASTE)))

    def mode(i: int, j: int, **values: float) -> None:  # j indexes MAIN_MODES
        available[i, j] = True
        for f, value in values.items():
            attrs[f][i, j] = value

    for i in range(n_od):
        origin = _box_point(rng)
        destination = _box_point(rng)
        km = haversine_km(*origin, *destination)
        for _ in range(50):
            if km >= 1.2:
                break
            destination = _box_point(rng)
            km = haversine_km(*origin, *destination)
        points[i] = (*origin, *destination)
        gc_mi = float(km) * MILES_PER_KM
        drive_mi = round(gc_mi * 1.3 * (1.0 + float(rng.uniform(0.0, 0.12))), 3)
        drive_min = round(drive_mi / 28.0 * 60.0 + float(rng.uniform(2.0, 6.0)), 2)
        drive_cost = round(drive_mi * 0.20 + float(rng.uniform(0.0, 3.0)), 2)
        drive_miles[i] = drive_mi
        mode(i, 0, ivt_min=drive_min, cost_usd=drive_cost)
        if rng.random() < 0.85:
            transfers = float(rng.integers(0, 3))
            mode(
                i, 1, ivt_min=round(drive_min * float(rng.uniform(1.5, 2.2)), 2),
                access_min=round(float(rng.uniform(4.0, 12.0)), 2), egress_min=round(float(rng.uniform(3.0, 8.0)), 2),
                transfers=transfers, cost_usd=round(1.50 + 0.75 * transfers, 2),
            )
        if rng.random() < 0.8:
            ivt_min = round(drive_min * float(rng.uniform(1.05, 1.25)), 2)
            mode(i, 2, ivt_min=ivt_min, cost_usd=round(3.0 + 1.6 * drive_mi, 2))
        if gc_mi <= 4.5:
            mode(i, 3, ivt_min=round(gc_mi * 1.35 / 11.0 * 60.0, 2))
        if gc_mi <= 2.2:
            mode(i, 4, ivt_min=round(gc_mi * 1.25 / 3.1 * 60.0, 2))
        mode(i, 5, ivt_min=round(drive_min * float(rng.uniform(1.1, 1.3)), 2), cost_usd=round(drive_cost * 0.5, 2))

        for r in range(i * n_seg, (i + 1) * n_seg):
            trips[r] = round(max(0.5, float(rng.lognormal(2.5, 0.7))), 2)
            rng.random(out=tastes[r])  # one double per name, in order, as scalar calls draw them

    n = n_od * n_seg
    # U(low, high) as rng.uniform computes it from a double, low + (high - low) * double
    u = _TASTE_LOW + _TASTE_SPAN * tastes
    bases = np.tile(_TASTE_BASES, (n_od, 1))
    tastes = np.where(_BETA, bases * u, bases + u)
    # Python's round: np.round rounds some halfway values otherwise
    tastes = np.array([round(v, 6) for v in tastes.ravel().tolist()]).reshape(n, -1)
    per_market = functools.partial(np.repeat, repeats=n_seg, axis=0)  # an OD pair's values, once per segment
    return MarketTable(
        [f"od{i:04d}" for i in range(n_od) for _ in SEGMENTS], np.tile(np.arange(n_seg), n_od),
        *per_market(points).T, trips, per_market(drive_miles),
        attrs={f: per_market(column) for f, column in attrs.items()}, available=per_market(available),
        taste=dict(zip(_BASE_TASTE, tastes.T)), o_zones=[""] * n, d_zones=[""] * n,
    )


def _survey_od(rng: np.random.Generator, hub: GeoPoint) -> tuple[GeoPoint, GeoPoint]:
    """An O/D pair routed past the hub with a controlled lateral miss.

    The hub sits off the direct line by a fraction of the trip length,
    so the implied detour ratios spread over roughly 1.0 to 1.8 and the
    derived threshold says something useful.  With the hub at the
    midpoint and lateral miss w, the ratio is sqrt(1 + (2w/L)**2)."""
    bearing = float(rng.uniform(0.0, 2 * math.pi))
    length_m = float(rng.uniform(1500.0, 7000.0))
    lateral_m = length_m * float(rng.uniform(0.0, 0.65))
    along_m = length_m * float(rng.uniform(-0.15, 0.15))
    midpoint = _offset(hub, lateral_m, bearing + math.pi / 2)
    midpoint = _offset(midpoint, along_m, bearing)
    origin = _offset(midpoint, length_m / 2, bearing + math.pi)
    dest = _offset(midpoint, length_m / 2, bearing)
    return origin, dest


def _make_survey(
    rng: np.random.Generator, hub_a: GeoPoint, hub_b: GeoPoint
) -> tuple[list[SurveyRecord], dict[str, int]]:
    records: list[SurveyRecord] = []

    def add(hub_id: str, hub_loc: GeoPoint, combos: list[ComboId], n_extra: int, incomplete_at: set[int]):
        picks = list(combos)
        picks += [combos[int(rng.integers(0, len(combos)))] for _ in range(n_extra)]
        for i, combo in enumerate(picks):
            origin, dest = _survey_od(rng, hub_loc)
            segment = SEGMENTS[int(rng.integers(0, len(SEGMENTS)))] if rng.random() > 0.15 else None
            records.append(
                SurveyRecord(
                    hub_id=hub_id,
                    origin=origin,
                    destination=dest,
                    entry_mode=combo.entry,
                    exit_mode=combo.exit,
                    segment=segment,
                    complete=i not in incomplete_at,
                )
            )

    add("hub-a", hub_a, list(CAR_SHARE_PROFILE_COMBOS), n_extra=6, incomplete_at={7, 19})
    add("hub-b", hub_b, list(STANDARD_PROFILE_COMBOS), n_extra=3, incomplete_at={4})
    counts = {}
    for r in records:
        if r.complete:
            counts[r.hub_id] = counts.get(r.hub_id, 0) + 1
    return records, counts


def _make_matrices(
    rng: np.random.Generator,
    markets: MarketTable,
    hub_points: dict[str, GeoPoint],
    car_share_ids: set[str],
) -> LegMatrices:
    # each market zone's point, the zones in id order
    zlat, zlon = np.empty((2, len(markets.zone_ids)))
    zlat[markets.o_zone_codes], zlon[markets.o_zone_codes] = markets.o_lat, markets.o_lon
    zlat[markets.d_zone_codes], zlon[markets.d_zone_codes] = markets.d_lat, markets.d_lon
    order = sorted(range(len(zlat)), key=markets.zone_ids.__getitem__)
    zone_ids = [markets.zone_ids[z] for z in order]
    zlat, zlon = zlat[order], zlon[order]
    hub_ids = sorted(hub_points)
    hlat = np.array([hub_points[h].lat for h in hub_ids])
    hlon = np.array([hub_points[h].lon for h in hub_ids])
    d = haversine_km(zlat[:, None], zlon[:, None], hlat[None, :], hlon[None, :])
    shape = d.shape
    in_range = d <= 7.0  # km a hub serves
    cs_col = np.array([h in car_share_ids for h in hub_ids])

    # availability per leg mode, then coverage holes
    avail = {
        Mode.BUS: in_range & (d >= 0.25) & (rng.random(shape) < 0.92),
        Mode.CAR: in_range.copy(),
        Mode.CAR_SHARE: in_range & cs_col[None, :],
        Mode.BIKE_SHARE: in_range & (d <= 5.0),
        Mode.WALK_LEG: in_range & (d <= 2.0),
    }
    dropped = {m: rng.random(shape) < 0.02 for m in avail}
    oneway = {m: rng.random(shape) < 0.015 for m in avail}

    speeds_kmh = {Mode.BUS: 22.0, Mode.CAR: 40.0, Mode.CAR_SHARE: 38.0, Mode.BIKE_SHARE: 15.0, Mode.WALK_LEG: 4.8}
    circuity = {Mode.BUS: 1.30, Mode.CAR: 1.28, Mode.CAR_SHARE: 1.28, Mode.BIKE_SHARE: 1.25, Mode.WALK_LEG: 1.20}

    to_jit = {m: rng.uniform(0.95, 1.15, shape) for m in avail}
    from_jit = {m: rng.uniform(0.90, 1.15, shape) for m in avail}
    bus_wait_to = rng.uniform(3.0, 10.0, shape)
    bus_wait_from = rng.uniform(3.0, 10.0, shape)
    bus_access = rng.uniform(3.0, 10.0, shape)
    bus_egress = rng.uniform(2.0, 6.0, shape)
    bus_transfers = (rng.random(shape) < 0.35).astype(float)
    mile_jit = {m: rng.uniform(0.98, 1.10, shape) for m in (Mode.CAR, Mode.CAR_SHARE, Mode.BUS)}

    # the rows kept, the only cells computed, each mode's in a slice of one
    # leg block whose spare row the store adopts as its sentinel
    cells = {mode: np.nonzero(ok & ~dropped[mode]) for mode, ok in avail.items()}
    n = sum(len(zi) for zi, _ in cells.values())
    legs = np.empty((2, n + 1, 5))
    zone_codes, hub_codes, mode_codes = np.empty((3, n), dtype=np.intp)
    start = 0
    for mode, cell in cells.items():
        rows = slice(start, start + len(cell[0]))
        zone_codes[rows], hub_codes[rows] = cell
        mode_codes[rows] = LEG_MODE_ORDER.index(mode)
        to_hub, from_hub = legs[:, rows]
        km = d[cell]
        base_min = km * circuity[mode] / speeds_kmh[mode] * 60.0
        to_hub[:, 0] = np.round(base_min * to_jit[mode][cell], 2)
        from_hub[:, 0] = np.round(base_min * from_jit[mode][cell], 2)
        if mode is Mode.BUS:
            access, egress = bus_access[cell], bus_egress[cell]
            to_hub[:, 1], to_hub[:, 2] = np.round(access + bus_wait_to[cell] * 0.3, 2), np.round(egress, 2)
            from_hub[:, 1], from_hub[:, 2] = np.round(egress + bus_wait_from[cell] * 0.3, 2), np.round(access * 0.8, 2)
            to_hub[:, 3] = from_hub[:, 3] = bus_transfers[cell]
            to_hub[:, 4] = from_hub[:, 4] = np.round(km * 1.25 * MILES_PER_KM * mile_jit[mode][cell], 3)
        else:
            to_hub[:, 1:4] = from_hub[:, 1:4] = 0.0
            miles = np.round(km * 1.3 * MILES_PER_KM * mile_jit[mode][cell], 3) if mode in mile_jit else np.nan
            to_hub[:, 4] = from_hub[:, 4] = miles
        from_hub[oneway[mode][cell]] = np.nan
        start = rows.stop
    return LegMatrices(zone_ids, hub_ids, zone_codes, hub_codes, mode_codes, legs)


def generate_fixture(
    out_dir: str | Path,
    *,
    seed: int = 2024,
    od_pairs: int = 40,
    stops: int = 12,
    pr_lots: int = 2,
) -> dict[str, Path]:
    """Write a complete input set under out_dir and return the paths."""
    if od_pairs < 1 or stops < 2 or pr_lots < 1:
        raise ValueError("fixture needs at least 1 OD pair, 2 stops, and 1 lot")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    hub_a = GeoPoint(lat=_CENTER_LAT + 0.004, lon=_CENTER_LON - 0.006)
    hub_b = _offset(GeoPoint(lat=_CENTER_LAT, lon=_CENTER_LON), 2600.0, 0.7)

    stop_records = _make_stops(rng, stops)
    markets = _make_markets(rng, od_pairs)
    survey, complete_counts = _make_survey(rng, hub_a, hub_b)

    candidates = cluster_stops(stop_records)
    lots: list[GeoPoint] = []
    step = max(1, len(candidates) // pr_lots)
    for i in range(pr_lots):
        anchor = candidates[(i * step) % len(candidates)].location
        lots.append(_offset(anchor, float(rng.uniform(200.0, 420.0)), float(rng.uniform(0.0, 2 * math.pi))))
    candidates = assign_services(candidates, lots)

    hub_points = {"hub-a": hub_a, "hub-b": hub_b}
    for c in candidates:
        hub_points[c.candidate_id] = c.location
    car_share_ids = {"hub-a"} | {c.candidate_id for c in candidates if c.car_share_available}
    matrices = _make_matrices(rng, markets, hub_points, car_share_ids)

    fares = FareTable(
        bus_fare_usd=1.50,
        car_share_usd_per_hour=5.00,
        bike_share_steps=((30.0, 1.0), (60.0, 2.5), (float("inf"), 5.0)),
    )
    hub_records = [
        HubRecord(
            hub_id="hub-a",
            location=hub_a,
            car_share_available=True,
            bike_share_available=True,
            backend_trips_per_month=120.0,
            days_per_month=30.0,
            service_share=0.35,
            survey_responses=float(complete_counts["hub-a"]),
            survey_days=4.0,
        ),
        HubRecord(
            hub_id="hub-b",
            location=hub_b,
            car_share_available=False,
            bike_share_available=True,
            survey_responses=float(complete_counts["hub-b"]),
            survey_days=20.0,
        ),
    ]

    paths = {
        "markets": write_markets(markets, out / "markets.csv"),
        "stops": write_stops(stop_records, out / "stops.csv"),
        "pr_lots": write_pr_lots(lots, out / "pr_lots.csv"),
        "survey": write_survey(survey, out / "survey.csv"),
        "matrices": write_matrices(matrices, out / "matrices.csv"),
        "fares": write_fares(fares, out / "fares.json"),
        "observed_usage": write_hub_records(hub_records, out / "observed_usage.csv"),
        "config": write_json(out / "config.json", PipelineConfig().to_dict()),
    }
    manifest = {
        "markets": "markets.csv",
        "leg_matrices": ["matrices.csv"],
        "fares": "fares.json",
        "stops": "stops.csv",
        "pr_lots": "pr_lots.csv",
        "survey": "survey.csv",
        "observed_usage": "observed_usage.csv",
    }
    paths["manifest"] = write_json(out / "manifest.json", manifest)
    return paths
