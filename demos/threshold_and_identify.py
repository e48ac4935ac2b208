#!/usr/bin/env python3
"""Derive a detour threshold from survey trips, then screen OD markets.

Synthetic intercept-survey trips around a downtown hub give a spread of
detour ratios; the screening threshold is their 90th percentile.  A
second population of OD markets is then filtered against that hub.
"""

import numpy as np

from hubmodal import (
    MAIN_MODES,
    SEGMENTS,
    GeoPoint,
    MarketTable,
    Mode,
    Segment,
    derive_threshold,
    detour_ratio,
    screen_trips,
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
TASTE = dict(
    beta_auto_tt=-0.05, beta_trans_ivt=-0.03, beta_trans_at=-0.05,
    beta_trans_et=-0.05, beta_trans_n=-0.4, beta_nonveh_tt=-0.07, beta_cost=-0.3,
    asc_driving=0.5, asc_transit=-0.5, asc_ondemand=-1.0, asc_biking=-1.5, asc_walking=-0.8,
)


def driving_markets(od_ids, segment, ends, trips, miles, ivt_min, cost_usd):
    """Markets whose one mode is driving, as MarketTable columns: each of
    ``ends`` is an (origin, destination) pair of points."""
    n = len(od_ids)
    attrs = {f: np.zeros((n, len(MAIN_MODES))) for f in ("ivt_min", "access_min", "egress_min", "transfers", "cost_usd")}
    available = np.zeros((n, len(MAIN_MODES)), dtype=bool)
    driving = MAIN_MODES.index(Mode.DRIVING)
    attrs["ivt_min"][:, driving], attrs["cost_usd"][:, driving], available[:, driving] = ivt_min, cost_usd, True
    return MarketTable(
        od_ids, np.full(n, SEGMENTS.index(segment)),
        [o.lat for o, _ in ends], [o.lon for o, _ in ends], [d.lat for _, d in ends], [d.lon for _, d in ends],
        np.asarray(trips, dtype=float), np.full(n, miles), attrs=attrs, available=available,
        taste={name: np.full(n, value) for name, value in TASTE.items()}, o_zones=[""] * n, d_zones=[""] * n,
    )


ends, trips = [], []
for _ in range(400):
    ends.append((point(), point()))
    trips.append(rng.uniform(1, 25))

# the markets are one table, screened against the hub in one mask
table = driving_markets([f"od{i:03d}" for i in range(400)], Segment.LOW_INCOME, ends, trips, 5.0, 20.0, 3.0)
(kept,) = screen_trips(table, [hub.lat], [hub.lon], threshold).keep
print(f"\nmarkets kept at threshold {threshold:.3f}: {kept.sum()} of {len(table)}")

# the screen loosens monotonically with the threshold
for t in sorted((1.05, 1.2, threshold, 2.0, 2.5)):
    n = screen_trips(table, [hub.lat], [hub.lon], t).keep.sum()
    print(f"  threshold {t:5.3f} -> {n:3d} markets")

# trips ending within a kilometre of the hub pass regardless of detour
close_table = driving_markets(
    ["ends-at-hub"], Segment.SENIOR, [(GeoPoint(lat=42.40, lon=-74.10), GeoPoint(lat=hub.lat + 0.003, lon=hub.lon))],
    [2.0], 20.0, 40.0, 6.0,
)
(near,) = screen_trips(close_table, [hub.lat], [hub.lon], 1.1).keep
print(f"\nawkward detour but destination near hub -> {[close_table.ids[i] for i in near.nonzero()[0]]}")
