#!/usr/bin/env python3
"""Recover known nest parameters from synthetic hub usage counts.

Five hubs with different segment mixes are simulated at a known
(beta_hub, segment constants) and their usage proportions treated as
observed.  The calibrator should drive the squared error to ~0 and
land on the generating parameters.
"""

import numpy as np

from hubmodal import (
    MAIN_MODES,
    ComboId,
    FareTable,
    GeoPoint,
    Hub,
    HubParams,
    LegMatrices,
    MarketTable,
    Mode,
    ObservedUsage,
    OptimizerSettings,
    Segment,
    calibrate,
    predict_hub_proportion,
    prepare_hub,
    screen_trips,
)
from hubmodal.choice import LEG_MODE_ORDER

TRUTH = HubParams(
    beta_hub=0.3,
    asc_by_segment={
        Segment.NOT_LOW_INCOME: -4.0,
        Segment.LOW_INCOME: -5.0,
        Segment.SENIOR: -3.0,
        Segment.STUDENT: -4.0,
    },
)

TASTE = dict(
    beta_auto_tt=-0.05, beta_trans_ivt=-0.03, beta_trans_at=-0.05,
    beta_trans_et=-0.05, beta_trans_n=-0.4, beta_nonveh_tt=-0.07, beta_cost=-0.3,
    asc_driving=0.5, asc_transit=-0.5, asc_ondemand=-1.0, asc_biking=-1.5, asc_walking=-0.8,
)
fares = FareTable(bus_fare_usd=1.50, car_share_usd_per_hour=5.0, bike_share_steps=((30.0, 1.0), (float("inf"), 2.5)))

# trip weights per segment, one row per hub; no two hubs lean on the
# same segments, which is what identifies the four constants
MIXES = (
    (5.0, 1.0, 9.0, 2.0),
    (1.0, 8.0, 2.0, 5.0),
    (9.0, 2.0, 1.0, 7.0),
    (2.0, 6.0, 5.0, 1.0),
    (7.0, 4.0, 3.0, 9.0),
)


def build_setup(i):
    hub_id = f"hub-{i}"
    lat, lon = 42.60 + 0.03 * i, -73.80 + 0.025 * i
    hub = Hub(
        id=hub_id, location=GeoPoint(lat=lat, lon=lon),
        car_share_available=True, bike_share_available=True,
        combos=frozenset({ComboId(Mode.CAR, Mode.BUS), ComboId(Mode.WALK_LEG, Mode.BUS)}),
    )
    # two markets per segment, driving and transit available
    n = 2 * len(Segment)
    seg, k = np.repeat(np.arange(len(Segment)), 2), np.tile([0, 1], len(Segment))
    attrs = {f: np.zeros((n, len(MAIN_MODES))) for f in ("ivt_min", "access_min", "egress_min", "transfers", "cost_usd")}
    available = np.zeros((n, len(MAIN_MODES)), dtype=bool)
    for mode, values in {
        Mode.DRIVING: dict(ivt_min=20.0, cost_usd=3.0),
        Mode.TRANSIT: dict(ivt_min=35.0, access_min=6.0, egress_min=4.0, transfers=1.0, cost_usd=1.5),
    }.items():
        j = MAIN_MODES.index(mode)
        available[:, j] = True
        for field, value in values.items():
            attrs[field][:, j] = value
    od_ids = [f"{hub_id}-{s.value}-{j}" for s in Segment for j in range(2)]
    table = MarketTable(
        od_ids, seg, lat - 0.04 - 0.004 * k, np.full(n, lon - 0.035), np.full(n, lat + 0.03), lon + 0.04 + 0.004 * k,
        np.array(MIXES[i])[seg] + k, np.full(n, 6.0), attrs=attrs, available=available,
        taste={name: np.full(n, value) for name, value in TASTE.items()}, o_zones=[""] * n, d_zones=[""] * n,
    )
    # car, walk and bus legs between every market zone and the hub, the
    # same both ways; mode codes index LEG_MODE_ORDER
    zones = [f"{od_id}/{end}" for od_id in od_ids for end in "od"]
    minutes = 9.0 + 1.5 * i
    legs = {
        Mode.CAR: [minutes, 0.0, 0.0, 0.0, 2.0],
        Mode.WALK_LEG: [minutes, 0.0, 0.0, 0.0, 2.0],
        Mode.BUS: [minutes, 3.0, 2.0, 0.0, 2.0],
    }
    block = np.repeat(list(legs.values()), len(zones), axis=0)
    matrices = LegMatrices(
        zones, [hub_id], np.tile(np.arange(len(zones)), len(legs)), np.zeros(len(block), dtype=int),
        np.repeat([LEG_MODE_ORDER.index(mode) for mode in legs], len(zones)), np.stack([block, block]),
    )
    # every market of the table is one of this hub's potential trips: the
    # screen's verdicts give way to an all-True mask, its distances stay
    screen = screen_trips(table, [hub.location.lat], [hub.location.lon], 1.0)
    return prepare_hub(table, [hub], screen.with_keep(np.ones((1, len(table)), dtype=bool)), matrices, fares)


setups = {f"hub-{i}": build_setup(i) for i in range(5)}

observed = []
print("simulated observations at the true parameters:")
for hub_id, setup in setups.items():
    prop = predict_hub_proportion(setup, TRUTH)
    demand = float(setup.trips.sum())
    observed.append(ObservedUsage(
        hub_id=hub_id, observed_trips_per_day=prop * demand,
        potential_trips_per_day=demand, observed_proportion=prop,
    ))
    print(f"  {hub_id}: {prop * demand:6.3f} of {demand:5.1f} trips/day ({100 * prop:.3f}%)")

result = calibrate(observed, setups, settings=OptimizerSettings())

print(f"\nconverged: {result.converged}   rank: {result.rank} of {result.n_free}   "
      f"fit_within_tolerance: {result.fit_within_tolerance}")
print(f"objective: {result.objective:.3e}   evaluations: {result.n_evaluations}")
print(f"beta_hub: {result.params.beta_hub:.6f}   (truth {TRUTH.beta_hub})")
for seg in Segment:
    got = result.params.asc_by_segment[seg]
    print(f"asc[{seg.value:15s}] {got:9.6f}   (truth {TRUTH.asc_by_segment[seg]:.1f})")

print("\nper-hub fit:")
for fit in result.per_hub:
    print(f"  {fit.hub_id}: observed {fit.observed:.6e}  predicted {fit.predicted:.6e}"
          f"  relative residual {fit.relative_residual:+.1e}")

print(f"\ntrace is the objective at each accepted step, {len(result.trace)} entries; last five: "
      + ", ".join(f"{v:.2e}" for v in result.trace[-5:]))
