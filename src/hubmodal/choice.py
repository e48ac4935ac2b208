"""Modes, segments and the utility formula of the hub mode choice model.

Each market is one (population segment, OD pair) demand cell with its own
taste coefficients and mode attributes.  This module holds the mode and
segment enums, the coefficient family of every mode, TasteVector, the
per-market records (ModeAttr, Market, ComboId) and ``mode_utility``, the
one utility formula.

Utilities are linear in time and cost.  There are three coefficient
families (auto, transit, non-vehicle); every mode, including hub leg
modes, maps to exactly one family plus a mode constant.  Carpool is the
zero-constant reference mode.

The model is a nested logit.  Base choice is multinomial logit over the
unimodal modes.  Introducing a hub adds one nest whose alternatives are
entry/exit leg combinations; the nest enters the upper level through its
logsum utility

    V_hub = beta_hub * ln(sum_c exp(V_c / beta_hub)) + asc_segment

and the within-nest split is logit over the scaled combo utilities,
P(c | hub) = exp(V_c / beta_hub) / sum_k exp(V_k / beta_hub).  That nest
math lives in ``hubs.HubChoiceSetup``, which evaluates it over arrays of
markets with max-subtraction, stable for utilities anywhere in
[-700, 700].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

from .geo import GeoPoint


class Segment(str, Enum):
    """Population segments; each gets its own hub nest constant."""

    NOT_LOW_INCOME = "not_low_income"
    LOW_INCOME = "low_income"
    SENIOR = "senior"
    STUDENT = "student"


# Canonical segment order; vector layouts and reports follow it.
SEGMENTS: tuple[Segment, ...] = tuple(Segment)


class Mode(str, Enum):
    # unimodal trip modes
    DRIVING = "driving"
    TRANSIT = "transit"
    ON_DEMAND_AUTO = "on_demand_auto"
    BIKING = "biking"
    WALKING = "walking"
    CARPOOL = "carpool"
    # hub transfer leg modes
    BUS = "bus"
    CAR = "car"
    CAR_SHARE = "car_share"
    BIKE_SHARE = "bike_share"
    WALK_LEG = "walk"


MAIN_MODES: tuple[Mode, ...] = (
    Mode.DRIVING,
    Mode.TRANSIT,
    Mode.ON_DEMAND_AUTO,
    Mode.BIKING,
    Mode.WALKING,
    Mode.CARPOOL,
)
LEG_MODES: tuple[Mode, ...] = (Mode.BUS, Mode.CAR, Mode.CAR_SHARE, Mode.BIKE_SHARE, Mode.WALK_LEG)

_AUTO = "auto"
_TRANSIT = "transit"
_NONVEH = "nonvehicle"

# Coefficient family and constant field for every mode.  Leg modes reuse
# the family of the unimodal mode they stand in for.
MODE_FAMILY: dict[Mode, tuple[str, str | None]] = {
    Mode.DRIVING: (_AUTO, "asc_driving"),
    Mode.TRANSIT: (_TRANSIT, "asc_transit"),
    Mode.ON_DEMAND_AUTO: (_AUTO, "asc_ondemand"),
    Mode.BIKING: (_NONVEH, "asc_biking"),
    Mode.WALKING: (_NONVEH, "asc_walking"),
    Mode.CARPOOL: (_AUTO, None),
    Mode.BUS: (_TRANSIT, "asc_transit"),
    Mode.CAR: (_AUTO, "asc_driving"),
    Mode.CAR_SHARE: (_AUTO, "asc_driving"),
    Mode.BIKE_SHARE: (_NONVEH, "asc_biking"),
    Mode.WALK_LEG: (_NONVEH, "asc_walking"),
}

TASTE_FIELDS: tuple[str, ...] = (
    "beta_auto_tt",
    "beta_trans_ivt",
    "beta_trans_at",
    "beta_trans_et",
    "beta_trans_n",
    "beta_nonveh_tt",
    "beta_cost",
    "asc_driving",
    "asc_transit",
    "asc_ondemand",
    "asc_biking",
    "asc_walking",
)


@dataclass(frozen=True)
class TasteVector:
    """Per-market utility coefficients.

    Time coefficients are per minute, beta_cost per dollar.  Carpool is the
    reference mode and has no constant.  All fields must be finite; the
    beta_cost < 0 requirement is enforced at ingestion and by the
    operations that divide by it, so synthetic vectors with beta_cost = 0
    remain constructible for utility-only arithmetic.
    """

    beta_auto_tt: float = 0.0
    beta_trans_ivt: float = 0.0
    beta_trans_at: float = 0.0
    beta_trans_et: float = 0.0
    beta_trans_n: float = 0.0
    beta_nonveh_tt: float = 0.0
    beta_cost: float = 0.0
    asc_driving: float = 0.0
    asc_transit: float = 0.0
    asc_ondemand: float = 0.0
    asc_biking: float = 0.0
    asc_walking: float = 0.0

    def __post_init__(self) -> None:
        for name in TASTE_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"invalid attribute: non-finite {name}")


@dataclass(frozen=True)
class ModeAttr:
    """Level-of-service attributes of one mode for one market."""

    ivt_min: float = 0.0
    access_min: float = 0.0
    egress_min: float = 0.0
    transfers: float = 0.0
    cost_usd: float = 0.0
    available: bool = True


class ComboId(NamedTuple):
    """Entry and exit leg modes of one hub transfer alternative."""

    entry: Mode
    exit: Mode

    def label(self) -> str:
        return f"{self.entry.value}+{self.exit.value}"


def combo_sort_key(combo: ComboId) -> tuple[str, str]:
    return (combo.entry.value, combo.exit.value)


@dataclass(frozen=True)
class Market:
    """One (segment, OD pair) demand cell.

    ``attrs`` maps unimodal modes to their level-of-service attributes;
    modes absent from the mapping are unavailable.  ``o_zone``/``d_zone``
    key the leg travel-time matrices and default to ``<od_id>/o`` and
    ``<od_id>/d``.  The market rules (trips, available modes, finite
    attributes) are MarketTable's, checked when markets become a table.
    """

    od_id: str
    segment: Segment
    origin: GeoPoint
    destination: GeoPoint
    trips_per_day: float
    driving_miles: float
    attrs: Mapping[Mode, ModeAttr]
    taste: TasteVector
    o_zone: str = ""
    d_zone: str = ""

    def __post_init__(self) -> None:
        if not self.o_zone:
            object.__setattr__(self, "o_zone", f"{self.od_id}/o")
        if not self.d_zone:
            object.__setattr__(self, "d_zone", f"{self.od_id}/d")

    @property
    def market_id(self) -> str:
        return f"{self.od_id}|{self.segment.value}"


def _coef(taste, name: str):
    if isinstance(taste, TasteVector):
        return getattr(taste, name)
    return taste[name]


def mode_utility(taste, mode: Mode, *, ivt_min=0.0, access_min=0.0, egress_min=0.0, transfers=0.0, cost_usd=0.0):
    """Family utility formula; elementwise over scalars or numpy arrays.

    ``taste`` is a TasteVector or a mapping of coefficient name to array.
    Only the attributes the mode's family uses enter the sum; every family
    adds beta_cost * cost plus the mode constant.
    """
    family, asc = MODE_FAMILY[mode]
    if family == _AUTO:
        v = _coef(taste, "beta_auto_tt") * ivt_min
    elif family == _TRANSIT:
        v = (
            _coef(taste, "beta_trans_ivt") * ivt_min
            + _coef(taste, "beta_trans_at") * access_min
            + _coef(taste, "beta_trans_et") * egress_min
            + _coef(taste, "beta_trans_n") * transfers
        )
    else:
        v = _coef(taste, "beta_nonveh_tt") * ivt_min
    v = v + _coef(taste, "beta_cost") * cost_usd
    if asc is not None:
        v = v + _coef(taste, asc)
    return v
