#!/usr/bin/env python3
"""Impact accounting for one implemented hub.

Builds a small region, assesses the hub, and prints the ledger: mode
shift, bus ridership change, vehicle miles removed, CO2, and the
monetized welfare gain.
"""

import numpy as np

from hubmodal import (
    MAIN_MODES,
    ComboId,
    EmissionFactor,
    FareTable,
    GeoPoint,
    Hub,
    HubParams,
    LegMatrices,
    MarketTable,
    Mode,
    Segment,
    assess_hubs,
    prepare_hub,
    screen_trips,
)
from hubmodal.choice import LEG_MODE_ORDER

rng = np.random.default_rng(21)
TASTE = dict(
    beta_auto_tt=-0.05, beta_trans_ivt=-0.03, beta_trans_at=-0.05,
    beta_trans_et=-0.05, beta_trans_n=-0.4, beta_nonveh_tt=-0.07, beta_cost=-0.3,
    asc_driving=0.5, asc_transit=-0.5, asc_ondemand=-1.0, asc_biking=-1.5, asc_walking=-0.8,
)
fares = FareTable(bus_fare_usd=1.50, car_share_usd_per_hour=5.0, bike_share_steps=((30.0, 1.0), (float("inf"), 2.5)))

hub = Hub(
    id="uptown", location=GeoPoint(lat=42.686, lon=-73.824),
    car_share_available=True, bike_share_available=True,
    combos=frozenset({
        ComboId(Mode.CAR, Mode.BUS),
        ComboId(Mode.CAR_SHARE, Mode.BUS),
        ComboId(Mode.WALK_LEG, Mode.BUS),
        ComboId(Mode.BIKE_SHARE, Mode.WALK_LEG),
    }),
)

# 60 OD markets, one row each in the table's columns
n = 60
od_ids = [f"od{i:02d}" for i in range(n)]
drive_min, o_lat, o_lon, d_lat, d_lon, trips = np.empty((6, n))
for i in range(n):
    drive_min[i] = rng.uniform(12, 35)
    o_lat[i], o_lon[i] = 42.686 + rng.uniform(-0.05, 0.05), -73.824 + rng.uniform(-0.05, 0.05)
    d_lat[i], d_lon[i] = 42.686 + rng.uniform(-0.05, 0.05), -73.824 + rng.uniform(-0.05, 0.05)
    trips[i] = rng.uniform(2, 30)

# level of service over MAIN_MODES, one (markets, modes) array per
# attribute; on-demand auto and biking are unavailable
attrs = {f: np.zeros((n, len(MAIN_MODES))) for f in ("ivt_min", "access_min", "egress_min", "transfers", "cost_usd")}
available = np.zeros((n, len(MAIN_MODES)), dtype=bool)
for mode, values in {
    Mode.DRIVING: dict(ivt_min=drive_min, cost_usd=drive_min * 0.15),
    Mode.TRANSIT: dict(ivt_min=drive_min * 1.8, access_min=6.0, egress_min=4.0, transfers=1.0, cost_usd=1.5),
    Mode.CARPOOL: dict(ivt_min=drive_min * 1.15, cost_usd=drive_min * 0.07),
    Mode.WALKING: dict(ivt_min=drive_min * 4.0),
}.items():
    j = MAIN_MODES.index(mode)
    available[:, j] = True
    for field, value in values.items():
        attrs[field][:, j] = value

table = MarketTable(
    od_ids, np.arange(n) % len(Segment), o_lat, o_lon, d_lat, d_lon, trips, drive_min / 2.5,
    attrs=attrs, available=available, taste={name: np.full(n, value) for name, value in TASTE.items()},
    o_zones=[""] * n, d_zones=[""] * n,
)

# leg times between each market's origin and destination zone and the
# hub, the same both ways: one row per (zone, leg mode), in the order of
# LEG_MODE_ORDER, which the mode codes index
zones = [f"{od_id}/{end}" for od_id in od_ids for end in "od"]
mins = rng.uniform(5, 15, size=len(zones))
none = np.zeros(len(zones))
veh = np.column_stack([mins, none, none, none, mins / 3.0])
bus = np.column_stack([mins * 1.4, none + 3.0, none + 2.0, none, mins / 3.0])
block = np.concatenate([bus if mode is Mode.BUS else veh for mode in LEG_MODE_ORDER])
matrices = LegMatrices(
    zones, [hub.id], np.tile(np.arange(len(zones)), len(LEG_MODE_ORDER)), np.zeros(len(block), dtype=int),
    np.repeat(np.arange(len(LEG_MODE_ORDER)), len(zones)), np.stack([block, block]),
)

# every market of the table is one of the hub's potential trips: the
# screen's verdicts give way to an all-True mask, its distances stay
screen = screen_trips(table, [hub.location.lat], [hub.location.lon], 1.0)
setup = prepare_hub(table, [hub], screen.with_keep(np.ones((1, len(table)), dtype=bool)), matrices, fares)
params = HubParams(beta_hub=0.4, asc_by_segment={s: -2.5 for s in Segment})
(report,) = assess_hubs(setup, params, emissions=EmissionFactor())

print(f"hub {report.hub_id}: {report.n_markets} potential markets, "
      f"{report.potential_demand:.0f} potential trips/day")
print(f"predicted hub trips: {report.multimodal_total:.2f}/day "
      f"({100 * report.hub_trip_proportion:.2f}% of potential)")

print("\nunimodal trips/day (before -> after):")
for mode, before in sorted(report.unimodal_before.items()):
    after = report.unimodal_after[mode]
    print(f"  {mode:14s} {before:8.2f} -> {after:8.2f}  ({after - before:+.2f})")

print("\nmultimodal trips by leg mode (distance-weighted split):")
for mode, trips in sorted(report.multimodal_leg_trips.items()):
    print(f"  {mode:14s} {trips:8.2f}")

print(f"\nbus ridership change: {report.transit_delta:+.2f} trips/day")
print(f"vehicle miles removed: {report.vmt.reduced:.2f}/day "
      f"({report.vmt.reduced_annual_thousand_miles:.2f} thousand/yr)")
print(f"co2 avoided: {report.vmt.emissions_kg_per_day:.2f} kg/day = {report.vmt.emissions_tons_per_year:.3f} t/yr")
print(f"consumer surplus: ${report.cs_per_trip:.4f}/trip, ${report.cs_total:.2f}/day")

# trips are conserved: what the unimodal modes lose, the hub gains
before_total = sum(report.unimodal_before.values())
after_total = sum(report.unimodal_after.values()) + report.multimodal_total
print(f"\ntrip conservation: {before_total:.6f} before vs {after_total:.6f} after")
