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


def potential_demand(setup: HubChoiceSetup) -> float:
    """Total trips/day over the hub's potential markets."""
    return float(setup.trips.sum())


@dataclass(frozen=True)
class ModeShiftResult:
    """Daily trips by mode before and after the hub."""

    before: dict[Mode, float]
    after_unimodal: dict[Mode, float]
    multimodal_total: float
    multimodal_leg_trips: dict[Mode, float]

    @property
    def total(self) -> float:
        return float(sum(self.before.values()))


def _resolve_shares(setup: HubChoiceSetup, params: HubParams, literal_lower_branch: bool, shares) -> HubShares:
    if shares is None:
        return setup.choice_shares(params, literal_lower_branch=literal_lower_branch)
    return shares


def mode_shift(
    setup: HubChoiceSetup,
    params: HubParams,
    *,
    literal_lower_branch: bool = False,
    shares: HubShares | None = None,
) -> ModeShiftResult:
    """Trips/day by mode without and with the hub.

    Multimodal trips are attributed to leg modes by each leg's share of
    the combo's total distance, so a combo with legs of 3 and 1 miles
    sends 75% of its trips to the entry leg's mode.  Legs with zero total
    distance split evenly.  Unimodal trips after the hub use the upper
    level; the two-level shares conserve total trips exactly.
    """
    s = _resolve_shares(setup, params, literal_lower_branch, shares)
    d = setup.trips
    before = {mode: float((d * s.before[:, j]).sum()) for mode, j in _MODE_COL.items()}
    after = {mode: float((d * s.upper[:, j]).sum()) for mode, j in _MODE_COL.items()}
    multimodal_total = float((d * s.hub).sum())

    leg_trips: dict[Mode, float] = {}
    if setup.n_combos:
        w = setup.leg_miles(1.0)
        total_w = w.sum(axis=2)
        with np.errstate(invalid="ignore", divide="ignore"):
            frac_entry = np.where(total_w > 0.0, w[:, :, 0] / total_w, 0.5)
        joint_trips = d[:, None] * s.joint
        for j, combo in enumerate(setup.combos):
            entry_t = float((joint_trips[:, j] * frac_entry[:, j]).sum())
            exit_t = float((joint_trips[:, j] * (1.0 - frac_entry[:, j])).sum())
            leg_trips[combo.entry] = leg_trips.get(combo.entry, 0.0) + entry_t
            leg_trips[combo.exit] = leg_trips.get(combo.exit, 0.0) + exit_t
    return ModeShiftResult(
        before=before,
        after_unimodal=after,
        multimodal_total=multimodal_total,
        multimodal_leg_trips=leg_trips,
    )


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


def vmt_delta(
    setup: HubChoiceSetup,
    params: HubParams,
    *,
    emissions: EmissionFactor = EmissionFactor(),
    include_on_demand_auto: bool = False,
    literal_lower_branch: bool = False,
    shares: HubShares | None = None,
) -> VmtResult:
    """Daily VMT before and after the hub, and the implied emissions.

    Unimodal VMT is trip distance times the driving and carpool shares
    (optionally counting on-demand auto as driving).  Multimodal trips add
    the car legs as driving VMT and the car-share legs as carpool VMT.
    reduced = before - after, positive when the hub removes vehicle miles.
    Markets with a missing trip distance are excluded with a warning.
    """
    s = _resolve_shares(setup, params, literal_lower_branch, shares)
    miles = setup.drive_miles
    ok = np.isfinite(miles)
    n_bad = int((~ok).sum())
    if n_bad:
        logger.warning("excluded %d market(s) with missing trip distance from VMT", n_bad)
    w = setup.trips * np.where(ok, miles, 0.0)

    drive_cols = [_MODE_COL[Mode.DRIVING]]
    if include_on_demand_auto:
        drive_cols.append(_MODE_COL[Mode.ON_DEMAND_AUTO])
    cp = _MODE_COL[Mode.CARPOOL]

    before_driving = float(sum((w * s.before[:, j]).sum() for j in drive_cols))
    before_carpool = float((w * s.before[:, cp]).sum())
    after_driving = float(sum((w * s.upper[:, j]).sum() for j in drive_cols))
    after_carpool = float((w * s.upper[:, cp]).sum())

    if setup.n_combos:
        leg_miles = setup.leg_miles(setup.circuity_factor)
        joint_trips = (setup.trips * ok)[:, None] * s.joint
        for j, combo in enumerate(setup.combos):
            for leg_pos, leg_mode in ((0, combo.entry), (1, combo.exit)):
                if leg_mode == Mode.CAR:
                    after_driving += float((joint_trips[:, j] * leg_miles[:, j, leg_pos]).sum())
                elif leg_mode == Mode.CAR_SHARE:
                    after_carpool += float((joint_trips[:, j] * leg_miles[:, j, leg_pos]).sum())

    reduced = (before_driving + before_carpool) - (after_driving + after_carpool)
    return VmtResult(
        before_driving=before_driving,
        before_carpool=before_carpool,
        after_driving=after_driving,
        after_carpool=after_carpool,
        reduced=reduced,
        emissions_kg_per_day=emissions.kg_per_day(reduced),
        emissions_tons_per_year=emissions.tons_per_year(reduced),
        reduced_annual_thousand_miles=emissions.annual_thousand_miles(reduced),
    )


@dataclass(frozen=True)
class ConsumerSurplusResult:
    """Daily consumer surplus gain from adding the hub."""

    cs_per_trip: float
    cs_total: float
    n_excluded: int


def consumer_surplus_delta(
    setup: HubChoiceSetup,
    params: HubParams,
    *,
    literal_lower_branch: bool = False,
    shares: HubShares | None = None,
) -> ConsumerSurplusResult:
    """Logsum welfare gain priced by each market's cost coefficient.

    Per-market gain is (logsum with hub - logsum without) / |beta_cost|,
    non-negative by construction and exactly zero when no combo is
    available.  Markets whose beta_cost is not negative cannot be priced
    and are excluded with a warning (ingestion normally rejects them).
    cs_total sums trips * gain; cs_per_trip divides by potential demand.
    """
    s = _resolve_shares(setup, params, literal_lower_branch, shares)
    pd_total = float(setup.trips.sum())
    priceable = setup.beta_cost < 0.0
    n_excluded = int((~priceable).sum())
    if n_excluded:
        logger.warning("excluded %d market(s) with non-negative beta_cost from consumer surplus", n_excluded)
    gain = np.where(priceable, s.cs_gain_util / np.abs(np.where(priceable, setup.beta_cost, -1.0)), 0.0)
    cs_total = float((setup.trips * gain).sum())
    cs_per_trip = cs_total / pd_total if pd_total > 0.0 else 0.0
    return ConsumerSurplusResult(cs_per_trip=cs_per_trip, cs_total=cs_total, n_excluded=n_excluded)


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


def assess_hub(
    setup: HubChoiceSetup,
    params: HubParams,
    *,
    emissions: EmissionFactor = EmissionFactor(),
    include_on_demand_auto: bool = False,
    literal_lower_branch: bool = False,
) -> ImpactReport:
    """Compute every impact metric for one hub in a single share pass."""
    shares = setup.choice_shares(params, literal_lower_branch=literal_lower_branch)
    pd_total = potential_demand(setup)
    shift = mode_shift(setup, params, shares=shares)
    vmt = vmt_delta(
        setup,
        params,
        emissions=emissions,
        include_on_demand_auto=include_on_demand_auto,
        shares=shares,
    )
    cs = consumer_surplus_delta(setup, params, shares=shares)
    proportion = float((setup.trips * shares.hub).sum() / pd_total) if pd_total > 0 else 0.0
    return ImpactReport(
        hub_id=setup.hub.id,
        potential_demand=pd_total,
        hub_trip_proportion=proportion,
        multimodal_total=shift.multimodal_total,
        multimodal_leg_trips={m.value: t for m, t in sorted(shift.multimodal_leg_trips.items(), key=lambda kv: kv[0].value)},
        unimodal_before={m.value: t for m, t in shift.before.items()},
        unimodal_after={m.value: t for m, t in shift.after_unimodal.items()},
        transit_delta=transit_delta(shift),
        vmt=vmt,
        cs_per_trip=cs.cs_per_trip,
        cs_total=cs.cs_total,
        n_markets=setup.n_markets,
    )
