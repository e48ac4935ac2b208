#!/usr/bin/env python3
"""Derive a detour threshold from survey trips, then screen OD markets.

Synthetic intercept-survey trips around a downtown hub give a spread of
detour ratios; the screening threshold is their 90th percentile.  A
second population of OD markets is then filtered against that hub.
"""

import numpy as np

from hubmodal import (
    GeoPoint,
    Market,
    MarketTable,
    ModeAttr,
    Mode,
    Segment,
    TasteVector,
    derive_threshold,
    detour_ratio,
    potential_trip_mask,
)

rng = np.random.default_rng(7)
hub = GeoPoint(lat=42.6526, lon=-73.7562)  # downtown Albany


def point(spread=0.08):
    return GeoPoint(lat=42.65 + rng.uniform(-spread, spread), lon=-73.75 + rng.uniform(-spread, spread))


# surveyed trips: people already routing through the hub, so most
# detour ratios are modest, with a long-ish tail
records = []
while len(records) < 60:
    o, d = point(), point()
    try:
        rec = detour_ratio(o, d, hub)
    except ValueError:
        continue
    if rec.ratio < 3.0:
        records.append(rec)

threshold = derive_threshold(records)
ratios = sorted(r.ratio for r in records)
print(f"surveyed trips: {len(records)}")
print(f"detour ratios:  min {ratios[0]:.3f}  median {ratios[len(ratios) // 2]:.3f}  max {ratios[-1]:.3f}")
print(f"p90 threshold:  {threshold:.3f} (always one of the observed ratios)")

# candidate demand: a fresh cloud of OD markets
taste = TasteVector(
    beta_auto_tt=-0.05, beta_trans_ivt=-0.03, beta_trans_at=-0.05,
    beta_trans_et=-0.05, beta_trans_n=-0.4, beta_nonveh_tt=-0.07, beta_cost=-0.3,
    asc_driving=0.5, asc_transit=-0.5, asc_ondemand=-1.0, asc_biking=-1.5, asc_walking=-0.8,
)
markets = [
    Market(
        od_id=f"od{i:03d}", segment=Segment.LOW_INCOME,
        origin=point(), destination=point(),
        trips_per_day=float(rng.uniform(1, 25)), driving_miles=5.0,
        attrs={Mode.DRIVING: ModeAttr(ivt_min=20.0, cost_usd=3.0)}, taste=taste,
    )
    for i in range(400)
]

# the markets become one table, screened against the hub in one mask
table = MarketTable.from_markets(markets)
(kept,) = potential_trip_mask(table, [hub.lat], [hub.lon], threshold)
print(f"\nmarkets kept at threshold {threshold:.3f}: {kept.sum()} of {len(table)}")

# the screen loosens monotonically with the threshold
for t in sorted((1.05, 1.2, threshold, 2.0, 2.5)):
    n = potential_trip_mask(table, [hub.lat], [hub.lon], t).sum()
    print(f"  threshold {t:5.3f} -> {n:3d} markets")

# trips ending within a kilometre of the hub pass regardless of detour
close_d = Market(
    od_id="ends-at-hub", segment=Segment.SENIOR,
    origin=GeoPoint(lat=42.40, lon=-74.10),
    destination=GeoPoint(lat=hub.lat + 0.003, lon=hub.lon),
    trips_per_day=2.0, driving_miles=20.0,
    attrs={Mode.DRIVING: ModeAttr(ivt_min=40.0, cost_usd=6.0)}, taste=taste,
)
close_table = MarketTable.from_markets([close_d])
(near,) = potential_trip_mask(close_table, [hub.lat], [hub.lon], 1.1)
print(f"\nawkward detour but destination near hub -> {[close_table.ids[i] for i in near.nonzero()[0]]}")
