#!/usr/bin/env python3
"""Impact accounting for one implemented hub.

Builds a small region, assesses the hub, and prints the ledger: mode
shift, bus ridership change, vehicle miles removed, CO2, and the
monetized welfare gain.
"""

import numpy as np

from hubmodal import (
    ComboId,
    EmissionFactor,
    FareTable,
    GeoPoint,
    Hub,
    HubParams,
    LegMatrices,
    LegTimes,
    Market,
    MarketTable,
    Mode,
    ModeAttr,
    Segment,
    TasteVector,
    assess_hubs,
    prepare_hub,
)

rng = np.random.default_rng(21)
taste = TasteVector(
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

markets = []
for i in range(60):
    seg = list(Segment)[i % 4]
    drive_min = float(rng.uniform(12, 35))
    markets.append(Market(
        od_id=f"od{i:02d}", segment=seg,
        origin=GeoPoint(lat=42.686 + rng.uniform(-0.05, 0.05), lon=-73.824 + rng.uniform(-0.05, 0.05)),
        destination=GeoPoint(lat=42.686 + rng.uniform(-0.05, 0.05), lon=-73.824 + rng.uniform(-0.05, 0.05)),
        trips_per_day=float(rng.uniform(2, 30)),
        driving_miles=drive_min / 2.5,
        attrs={
            Mode.DRIVING: ModeAttr(ivt_min=drive_min, cost_usd=drive_min * 0.15),
            Mode.TRANSIT: ModeAttr(ivt_min=drive_min * 1.8, access_min=6.0, egress_min=4.0, transfers=1.0, cost_usd=1.5),
            Mode.CARPOOL: ModeAttr(ivt_min=drive_min * 1.15, cost_usd=drive_min * 0.07),
            Mode.WALKING: ModeAttr(ivt_min=drive_min * 4.0),
        },
        taste=taste,
    ))

matrices = LegMatrices()
for m in markets:
    for zone in (m.o_zone, m.d_zone):
        mins = float(rng.uniform(5, 15))
        veh = LegTimes(minutes=mins, access_min=0.0, egress_min=0.0, transfers=0.0, miles=mins / 3.0)
        bus = LegTimes(minutes=mins * 1.4, access_min=3.0, egress_min=2.0, transfers=0.0, miles=mins / 3.0)
        for mode in (Mode.CAR, Mode.CAR_SHARE, Mode.BIKE_SHARE, Mode.WALK_LEG):
            matrices.add(zone, hub.id, mode, veh, veh)
        matrices.add(zone, hub.id, Mode.BUS, bus, bus)

# every market of the table is one of the hub's potential trips
table = MarketTable.from_markets(markets)
setup = prepare_hub(table, [hub], np.ones((1, len(table)), dtype=bool), matrices, fares)
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
