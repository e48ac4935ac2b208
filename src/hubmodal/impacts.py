"""Impact metrics for an implemented or candidate hub.

All metrics compare the no-hub baseline (MNL over the unimodal modes)
with the with-hub state (hub nest added) over the hub's potential
markets:

* potential demand, total trips/day exposed to the hub
* mode shift, trips/day by mode before and after, with multimodal trips
  split over leg modes by distance weight
* transit ridership delta, multimodal bus legs plus the unimodal transit
  change
* VMT delta, driving and carpool vehicle miles removed (car legs of
  multimodal trips count as driving VMT, car-share legs as carpool VMT)
* consumer surplus, the logsum gain priced by each market's cost
  coefficient

Emission factors turn VMT reductions into CO2 at a flat grams/mile rate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .calibration import HubParams
from .choice import MAIN_MODES, Mode
from .hubs import HubChoiceSetup, HubShares

logger = logging.getLogger(__name__)

_MODE_COL = {mode: j for j, mode in enumerate(MAIN_MODES)}


@dataclass(frozen=True)
class EmissionFactor:
    """Flat CO2 emission factor and annualization constants."""

    grams_co2_per_mile: float = 400.0
    days_per_year: float = 365.0

    def __post_init__(self) -> None:
        if self.grams_co2_per_mile <= 0 or self.days_per_year <= 0:
            raise ValueError("emission factor constants must be positive")

    def kg_per_day(self, vmt_per_day: float) -> float:
        return vmt_per_day * self.grams_co2_per_mile / 1000.0

    def tons_per_year(self, vmt_per_day: float) -> float:
        return self.kg_per_day(vmt_per_day) * self.days_per_year / 1000.0

    def annual_thousand_miles(self, vmt_per_day: float) -> float:
        return vmt_per_day * self.days_per_year / 1000.0


def _hub_sums(setup: HubChoiceSetup, *parts: np.ndarray) -> list[list[float]]:
    """Each hub's sums of the rows of ``parts`` (each (p, m)) over its own
    markets, one list per hub.  A sum is one contiguous slice of one row,
    so it adds the same numbers in the same order as a setup of that hub
    alone would, and gives the same float.  (That needs each row to be
    contiguous: ``concatenate`` alone would keep the transposed layout of
    its parts, and a strided row sums in another order.)"""
    block = np.empty((sum(map(len, parts)), setup.n_markets))
    np.concatenate(parts, out=block)
    return [block[:, a:b].sum(axis=1).tolist() for a, b in setup.spans]


@dataclass(frozen=True)
class ModeShiftResult:
    """Daily trips by mode before and after the hub."""

    before: dict[Mode, float]
    after_unimodal: dict[Mode, float]
    multimodal_total: float
    multimodal_leg_trips: dict[Mode, float]


def mode_shifts(setup: HubChoiceSetup, s: HubShares) -> list[ModeShiftResult]:
    """Trips/day by mode without and with each hub of ``setup``, in hub
    order, from its shares ``s``.

    Multimodal trips are attributed to leg modes by each leg's share of
    the combo's total distance, so a combo with legs of 3 and 1 miles
    sends 75% of its trips to the entry leg's mode.  Legs with zero total
    distance split evenly.  Unimodal trips after the hub use the upper
    level; the two-level shares conserve total trips exactly.
    """
    d = setup.trips[:, None]
    parts = [(d * s.before).T, (d * s.upper).T, (setup.trips * s.hub)[None]]
    if setup.n_combos:
        w = setup.weight_miles
        total_w = w[:, :, 0] + w[:, :, 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            frac_entry = np.where(total_w > 0.0, w[:, :, 0] / total_w, 0.5)
        joint_trips = d * s.joint
        parts += [(joint_trips * frac_entry).T, (joint_trips * (1.0 - frac_entry)).T]

    n, k = len(MAIN_MODES), setup.n_combos
    out = []
    for sums in _hub_sums(setup, *parts):
        leg_trips: dict[Mode, float] = {}
        entry, exit = sums[2 * n + 1 : 2 * n + 1 + k], sums[2 * n + 1 + k :]
        for combo, entry_t, exit_t in zip(setup.combos, entry, exit):
            leg_trips[combo.entry] = leg_trips.get(combo.entry, 0.0) + entry_t
            leg_trips[combo.exit] = leg_trips.get(combo.exit, 0.0) + exit_t
        out.append(
            ModeShiftResult(
                before=dict(zip(MAIN_MODES, sums[:n])),
                after_unimodal=dict(zip(MAIN_MODES, sums[n : 2 * n])),
                multimodal_total=sums[2 * n],
                multimodal_leg_trips=leg_trips,
            )
        )
    return out


def transit_delta(shift: ModeShiftResult) -> float:
    """Change in daily transit ridership: bus legs of multimodal trips
    plus the unimodal transit gain or loss."""
    bus_legs = shift.multimodal_leg_trips.get(Mode.BUS, 0.0)
    return bus_legs + shift.after_unimodal[Mode.TRANSIT] - shift.before[Mode.TRANSIT]


@dataclass(frozen=True)
class VmtResult:
    """Vehicle miles traveled per day by category, before and after."""

    before_driving: float
    before_carpool: float
    after_driving: float
    after_carpool: float
    reduced: float
    emissions_kg_per_day: float
    emissions_tons_per_year: float
    reduced_annual_thousand_miles: float

    @property
    def before_total(self) -> float:
        return self.before_driving + self.before_carpool

    @property
    def after_total(self) -> float:
        return self.after_driving + self.after_carpool


def vmt_deltas(
    setup: HubChoiceSetup, s: HubShares, emissions: EmissionFactor = EmissionFactor(), include_on_demand_auto: bool = False
) -> list[VmtResult]:
    """Daily VMT before and after each hub of ``setup``, in hub order, and
    the implied emissions.

    Unimodal VMT is trip distance times the driving and carpool shares
    (optionally counting on-demand auto as driving).  Multimodal trips add
    the car legs as driving VMT and the car-share legs as carpool VMT.
    reduced = before - after, positive when the hub removes vehicle miles.
    Markets with a missing trip distance are excluded with a warning.
    """
    miles = setup.drive_miles
    ok = np.isfinite(miles)
    n_bad = int((~ok).sum())
    if n_bad:
        logger.warning("excluded %d market(s) with missing trip distance from VMT", n_bad)
    w = (setup.trips * np.where(ok, miles, 0.0))[:, None]

    # driving columns, then carpool
    cols = [_MODE_COL[Mode.DRIVING]]
    if include_on_demand_auto:
        cols.append(_MODE_COL[Mode.ON_DEMAND_AUTO])
    n_drive = len(cols)
    cols.append(_MODE_COL[Mode.CARPOOL])
    parts = [(w * s.before[:, cols]).T, (w * s.upper[:, cols]).T]

    # car legs add driving VMT, car-share legs carpool VMT, in combo order
    car_legs = [
        (j, pos, mode == Mode.CAR)
        for j, combo in enumerate(setup.combos)
        for pos, mode in enumerate(combo)
        if mode in (Mode.CAR, Mode.CAR_SHARE)
    ]
    if car_legs:
        js, poss, _ = zip(*car_legs)
        joint_trips = (setup.trips * ok)[:, None] * s.joint[:, js]
        parts.append((joint_trips * setup.vmt_miles[:, js, poss]).T)

    out = []
    n = len(cols)
    for sums in _hub_sums(setup, *parts):
        before_driving = float(sum(sums[:n_drive]))
        before_carpool = sums[n_drive]
        after_driving = float(sum(sums[n : n + n_drive]))
        after_carpool = sums[n + n_drive]
        for (_, _, is_car), leg in zip(car_legs, sums[2 * n :]):
            if is_car:
                after_driving += leg
            else:
                after_carpool += leg
        reduced = (before_driving + before_carpool) - (after_driving + after_carpool)
        out.append(
            VmtResult(
                before_driving=before_driving,
                before_carpool=before_carpool,
                after_driving=after_driving,
                after_carpool=after_carpool,
                reduced=reduced,
                emissions_kg_per_day=emissions.kg_per_day(reduced),
                emissions_tons_per_year=emissions.tons_per_year(reduced),
                reduced_annual_thousand_miles=emissions.annual_thousand_miles(reduced),
            )
        )
    return out


@dataclass(frozen=True)
class ConsumerSurplusResult:
    """Daily consumer surplus gain from adding the hub."""

    cs_per_trip: float
    cs_total: float
    n_excluded: int
    potential_demand: float


def consumer_surpluses(setup: HubChoiceSetup, s: HubShares) -> list[ConsumerSurplusResult]:
    """Each hub's logsum welfare gain, in hub order, priced by each
    market's cost coefficient.

    Per-market gain is (logsum with hub - logsum without) / |beta_cost|,
    non-negative by construction and exactly zero when no combo is
    available.  Markets whose beta_cost is not negative cannot be priced
    and are excluded with a warning (ingestion normally rejects them).
    cs_total sums trips * gain; cs_per_trip divides by potential demand.
    """
    priceable = setup.beta_cost < 0.0
    n_excluded = int((~priceable).sum())
    if n_excluded:
        logger.warning("excluded %d market(s) with non-negative beta_cost from consumer surplus", n_excluded)
    gain = np.where(priceable, s.cs_gain_util / np.abs(np.where(priceable, setup.beta_cost, -1.0)), 0.0)
    out = []
    for cs_total, pd_total, excluded in _hub_sums(setup, np.stack([setup.trips * gain, setup.trips, ~priceable])):
        cs_per_trip = cs_total / pd_total if pd_total > 0.0 else 0.0
        out.append(ConsumerSurplusResult(cs_per_trip, cs_total, int(excluded), pd_total))
    return out


@dataclass(frozen=True)
class ImpactReport:
    """Full impact assessment of one hub."""

    hub_id: str
    potential_demand: float
    hub_trip_proportion: float
    multimodal_total: float
    multimodal_leg_trips: dict[str, float]
    unimodal_before: dict[str, float]
    unimodal_after: dict[str, float]
    transit_delta: float
    vmt: VmtResult
    cs_per_trip: float
    cs_total: float
    n_markets: int

    def to_dict(self) -> dict:
        return {
            "hub_id": self.hub_id,
            "n_markets": self.n_markets,
            "potential_demand_trips_per_day": self.potential_demand,
            "hub_trip_proportion": self.hub_trip_proportion,
            "multimodal_trips_per_day": self.multimodal_total,
            "multimodal_leg_trips_per_day": dict(sorted(self.multimodal_leg_trips.items())),
            "unimodal_trips_before": dict(sorted(self.unimodal_before.items())),
            "unimodal_trips_after": dict(sorted(self.unimodal_after.items())),
            "transit_delta_trips_per_day": self.transit_delta,
            "vmt": {
                "before_driving": self.vmt.before_driving,
                "before_carpool": self.vmt.before_carpool,
                "after_driving": self.vmt.after_driving,
                "after_carpool": self.vmt.after_carpool,
                "reduced_per_day": self.vmt.reduced,
                "emissions_kg_per_day": self.vmt.emissions_kg_per_day,
                "emissions_tons_per_year": self.vmt.emissions_tons_per_year,
                "reduced_annual_thousand_miles": self.vmt.reduced_annual_thousand_miles,
            },
            "consumer_surplus_per_trip_usd": self.cs_per_trip,
            "consumer_surplus_total_usd_per_day": self.cs_total,
        }


def assess_hubs(
    setup: HubChoiceSetup,
    params: HubParams,
    *,
    emissions: EmissionFactor = EmissionFactor(),
    include_on_demand_auto: bool = False,
) -> list[ImpactReport]:
    """Every impact metric for each hub of a (stacked) setup, in hub order,
    from one share pass over all its rows."""
    shares = setup.choice_shares(params)
    shifts = mode_shifts(setup, shares)
    vmts = vmt_deltas(setup, shares, emissions, include_on_demand_auto)
    surpluses = consumer_surpluses(setup, shares)
    reports = []
    for hub, (a, b), shift, vmt, cs in zip(setup.hubs, setup.spans, shifts, vmts, surpluses):
        pd_total = cs.potential_demand
        reports.append(
            ImpactReport(
                hub_id=hub.id,
                potential_demand=pd_total,
                hub_trip_proportion=shift.multimodal_total / pd_total if pd_total > 0 else 0.0,
                multimodal_total=shift.multimodal_total,
                multimodal_leg_trips={
                    m.value: t for m, t in sorted(shift.multimodal_leg_trips.items(), key=lambda kv: kv[0].value)
                },
                unimodal_before={m.value: t for m, t in shift.before.items()},
                unimodal_after={m.value: t for m, t in shift.after_unimodal.items()},
                transit_delta=transit_delta(shift),
                vmt=vmt,
                cs_per_trip=cs.cs_per_trip,
                cs_total=cs.cs_total,
                n_markets=b - a,
            )
        )
    return reports
