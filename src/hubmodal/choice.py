"""Modes, segments and the utility formula of the hub mode choice model.

Each market is one (population segment, OD pair) demand cell with its own
taste coefficients and mode attributes, held as columns of a
``hubs.MarketTable``.  This module holds the mode and segment enums, the
coefficient family of every mode, the taste coefficient names
(TASTE_FIELDS), the transfer combo id (ComboId) and ``mode_utility``,
the one utility formula.

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

from enum import Enum
from typing import NamedTuple


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
# Leg modes in the order of their names.  A row's mode code indexes this
# tuple, so rows sorted by code are sorted by mode name.
LEG_MODE_ORDER: tuple[Mode, ...] = tuple(sorted(LEG_MODES, key=lambda m: m.value))
_LEG_MODE_CODE = {mode: i for i, mode in enumerate(LEG_MODE_ORDER)}

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

# The taste coefficients of a market, by name.  Time coefficients are per
# minute, beta_cost per dollar; carpool is the reference mode and has no
# constant.
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


class ComboId(NamedTuple):
    """Entry and exit leg modes of one hub transfer alternative."""

    entry: Mode
    exit: Mode

    def label(self) -> str:
        return f"{self.entry.value}+{self.exit.value}"


def combo_sort_key(combo: ComboId) -> tuple[str, str]:
    return (combo.entry.value, combo.exit.value)


def mode_utility(taste, mode: Mode, *, ivt_min=0.0, access_min=0.0, egress_min=0.0, transfers=0.0, cost_usd=0.0):
    """Family utility formula; elementwise over scalars or numpy arrays.

    ``taste`` maps each coefficient name of TASTE_FIELDS to a scalar or an
    array (a MarketTable's ``taste`` columns), read as ``taste[name]``.
    Only the attributes the mode's family uses enter the sum; every family
    adds beta_cost * cost plus the mode constant.
    """
    family, asc = MODE_FAMILY[mode]
    if family == _AUTO:
        v = taste["beta_auto_tt"] * ivt_min
    elif family == _TRANSIT:
        v = (
            taste["beta_trans_ivt"] * ivt_min
            + taste["beta_trans_at"] * access_min
            + taste["beta_trans_et"] * egress_min
            + taste["beta_trans_n"] * transfers
        )
    else:
        v = taste["beta_nonveh_tt"] * ivt_min
    v = v + taste["beta_cost"] * cost_usd
    if asc is not None:
        v = v + taste[asc]
    return v
