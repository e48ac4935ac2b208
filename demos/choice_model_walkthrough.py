#!/usr/bin/env python3
"""Walk one market through the two-level mode choice model.

Shows the utility each unimodal mode gets, how the hub's transfer
combos form a nest, and what the nesting coefficient and the segment
constant do to the predicted shares.
"""

import math

import numpy as np

from hubmodal import (
    MAIN_MODES,
    SEGMENTS,
    ComboId,
    GeoPoint,
    Hub,
    HubChoiceSetup,
    HubParams,
    MarketTable,
    Mode,
    Segment,
    mode_utility,
    unimodal_terms,
)

# taste coefficients by name, as mode_utility reads them
taste = dict(
    beta_auto_tt=-0.05, beta_trans_ivt=-0.03, beta_trans_at=-0.05,
    beta_trans_et=-0.05, beta_trans_n=-0.4, beta_nonveh_tt=-0.07, beta_cost=-0.3,
    asc_driving=0.5, asc_transit=-0.5, asc_ondemand=-1.0, asc_biking=-1.5, asc_walking=-0.8,
)
print(f"value of auto time: ${60.0 * taste['beta_auto_tt'] / taste['beta_cost']:.2f}/hour")

attrs = {
    Mode.DRIVING: dict(ivt_min=22.0, cost_usd=3.2),
    Mode.TRANSIT: dict(ivt_min=38.0, access_min=7.0, egress_min=5.0, transfers=1.0, cost_usd=1.5),
    Mode.CARPOOL: dict(ivt_min=26.0, cost_usd=1.6),
    Mode.WALKING: dict(ivt_min=85.0),
}
# the market as a one-row table: each attribute over MAIN_MODES, and the
# flags of the modes it has
cells = {f: np.zeros((1, len(MAIN_MODES))) for f in ("ivt_min", "access_min", "egress_min", "transfers", "cost_usd")}
for m, values in attrs.items():
    for field, value in values.items():
        cells[field][0, MAIN_MODES.index(m)] = value
here = GeoPoint(lat=42.65, lon=-73.76)
segment = SEGMENTS.index(Segment.LOW_INCOME)
table = MarketTable(
    ["od1"], np.array([segment]), [here.lat], [here.lon], [here.lat], [here.lon], np.ones(1), np.ones(1),
    attrs=cells, available=np.array([[m in attrs for m in MAIN_MODES]]),
    taste={name: np.array([value]) for name, value in taste.items()}, o_zones=[""], d_zones=[""],
)
# one row over MAIN_MODES, -inf where a mode is unavailable
uni_row = table.unimodal_utilities()[0]
uni = {m: uni_row[MAIN_MODES.index(m)] for m in attrs}
print("\nunimodal utilities:")
for m, v in uni.items():
    print(f"  {m.value:14s} {v:7.3f}")

# two transfer combos at the hub: park the car and ride the bus, or
# walk in and ride the bus
combos = {
    ComboId(Mode.CAR, Mode.BUS): (
        mode_utility(taste, Mode.CAR, ivt_min=9.0, cost_usd=0.5 * 3.5)
        + mode_utility(taste, Mode.BUS, ivt_min=16.0, access_min=3.0, egress_min=2.0, cost_usd=1.5)
    ),
    ComboId(Mode.WALK_LEG, Mode.BUS): (
        mode_utility(taste, Mode.WALK_LEG, ivt_min=12.0)
        + mode_utility(taste, Mode.BUS, ivt_min=16.0, access_min=3.0, egress_min=2.0, cost_usd=1.5)
    ),
}
print("\ncombo utilities:")
for c, v in combos.items():
    print(f"  {c.entry.value}+{c.exit.value:10s} {v:7.3f}")

# the hub's choice setup for this one market: the kernel every stage runs
hub = Hub(id="hub", location=here, car_share_available=False, bike_share_available=False, combos=frozenset(combos))
ordered = hub.sorted_combos()
setup = HubChoiceSetup(
    [hub], np.zeros(1, dtype=np.int64), np.arange(1), np.array([segment]), np.ones(1), np.ones(1),
    uni_row[None, :], unimodal_terms(uni_row[None, :]), np.array([[combos[c] for c in ordered]]),
    np.zeros((1, len(ordered), 2)), np.zeros((1, len(ordered), 2)), np.full(1, taste["beta_cost"]), bounds=(0, 1),
)
car_bus = setup.combos.index(ComboId(Mode.CAR, Mode.BUS))


def shares(beta: float, asc: float):
    return setup.choice_shares(HubParams(beta_hub=beta, asc_by_segment={s: asc for s in Segment}))


ns = shares(0.5, -2.0)
# at a zero constant the nest utility is the logsum itself
print(f"\nnest logsum (beta 0.5): {shares(0.5, 0.0).v_hub[0]:.3f}")
print(f"hub nest share: {ns.hub[0]:.4f}")
print("upper-level shares:")
for m in sorted(uni, key=lambda m: m.value):
    print(f"  {m.value:14s} {ns.upper[0, MAIN_MODES.index(m)]:.4f}")
print("within-nest shares and joint probabilities:")
for j, c in enumerate(setup.combos):
    print(f"  {c.entry.value}+{c.exit.value:10s} {ns.lower[0, j]:.4f}   joint {ns.joint[0, j]:.4f}")

total = ns.upper[0].sum() + ns.hub[0]
print(f"shares sum to {total:.12f}")

# beta_hub = 1 with a zero constant collapses the nest: the combos just
# join the flat MNL choice set
flat = shares(1.0, 0.0)
pooled = list(uni.values()) + list(combos.values())
denom = sum(math.exp(v) for v in pooled)
print(f"\ncollapsed joint of car+bus: {flat.joint[0, car_bus]:.6f}")
print(f"flat MNL same alternative:  {math.exp(combos[ComboId(Mode.CAR, Mode.BUS)]) / denom:.6f}")

# the segment constant moves the whole nest up or down
print("\nhub share by nest constant (beta 0.5):")
for asc in (-6.0, -4.0, -2.0, -1.0, 0.0):
    print(f"  asc {asc:5.1f} -> {shares(0.5, asc).hub[0]:.4f}")

# a smaller beta_hub sharpens competition inside the nest
print("\nwithin-nest share of car+bus by beta_hub:")
for beta in (1.0, 0.6, 0.3, 0.1):
    print(f"  beta {beta:3.1f} -> {shares(beta, -2.0).lower[0, car_bus]:.4f}")
