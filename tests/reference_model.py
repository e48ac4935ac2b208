"""Scalar reference model: the oracle the differential tests compare the
package's array kernels against.

Each function prices or shares one market at a time with plain loops
over dicts, as the paper writes the model: unimodal utilities, combo
utilities from two priced legs, the nest logsum and the two-level shares.
The package computes the same quantities as arrays (``prepare_hub`` and
``HubChoiceSetup.choice_shares``); none of this code runs in a CLI stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from hubmodal.calibration import HubParams
from hubmodal.choice import ComboId, Market, Mode, ModeAttr, Segment, TasteVector, combo_sort_key, mode_utility
from hubmodal.geo import MILES_PER_KM, GeoPoint, haversine_km
from hubmodal.hubs import FareTable, Hub, LegMatrices, LegTimes, leg_cost_usd


def systematic_utility(taste: TasteVector, attrs: ModeAttr, mode: Mode) -> float:
    """Systematic utility of one mode for one market.

    Raises ValueError when the mode is unavailable or any attribute is
    non-finite.
    """
    if not attrs.available:
        raise ValueError(f"mode unavailable: {mode.value}")
    for name in ("ivt_min", "access_min", "egress_min", "transfers", "cost_usd"):
        if not math.isfinite(getattr(attrs, name)):
            raise ValueError(f"invalid attribute: non-finite {name} for {mode.value}")
    return float(
        mode_utility(
            taste,
            mode,
            ivt_min=attrs.ivt_min,
            access_min=attrs.access_min,
            egress_min=attrs.egress_min,
            transfers=attrs.transfers,
            cost_usd=attrs.cost_usd,
        )
    )


def mnl_shares(utilities) -> np.ndarray:
    """Multinomial logit shares of a utility vector.

    Max-subtraction keeps the exponentials in range; the result is
    renormalized once after the softmax so shares sum to one within
    floating-point error.
    """
    v = np.asarray(utilities, dtype=float)
    if v.ndim != 1:
        raise ValueError("utilities must be a flat vector")
    if v.size == 0:
        raise ValueError("empty choice set")
    if np.isnan(v).any() or np.isposinf(v).any():
        raise ValueError("invalid utility: NaN or +inf")
    m = v.max()
    if not np.isfinite(m):
        raise ValueError("no finite utility in choice set")
    e = np.exp(v - m)
    s = e / e.sum()
    return s / s.sum()


def combo_utility(market: Market, hub: "Hub | None", combo: ComboId, leg_attrs: tuple[ModeAttr, ModeAttr]) -> float:
    """Utility of one transfer combination: entry leg plus exit leg.

    Each leg is priced with the coefficient family of its leg mode.  The
    combo must belong to the hub's choice set (when a hub is given) and
    both legs must be available.
    """
    if hub is not None and combo not in hub.combos:
        raise ValueError(f"combo unavailable: {combo.label()} not offered at hub {hub.id}")
    entry_attrs, exit_attrs = leg_attrs
    if not (entry_attrs.available and exit_attrs.available):
        raise ValueError(f"combo unavailable: missing leg data for {combo.label()}")
    return systematic_utility(market.taste, entry_attrs, combo.entry) + systematic_utility(
        market.taste, exit_attrs, combo.exit
    )


def nest_logsum(combo_utilities, beta_hub: float, asc_hub: float = 0.0) -> float:
    """Nest utility beta_hub * ln(sum exp(V / beta_hub)) + asc_hub.

    Utilities are summed in sorted order so the result is exactly
    invariant under permutation of the combo list.
    """
    if not 0.0 < beta_hub <= 1.0:
        raise ValueError(f"invalid nesting coefficient: {beta_hub}")
    v = np.sort(np.asarray(list(combo_utilities), dtype=float))
    if v.size == 0:
        raise ValueError("empty nest")
    if np.isnan(v).any() or np.isposinf(v).any():
        raise ValueError("invalid utility: NaN or +inf")
    m = v[-1]
    if not np.isfinite(m):
        raise ValueError("no finite utility in nest")
    return float(m + beta_hub * np.log(np.exp((v - m) / beta_hub).sum()) + asc_hub)


@dataclass(frozen=True)
class NestedShares:
    """Upper-level shares over unimodal modes plus the hub nest, and the
    within-nest conditional shares."""

    upper: dict[Mode, float]
    hub_share: float
    lower: dict[ComboId, float]

    def joint(self, combo: ComboId) -> float:
        """Unconditional probability of one transfer combination."""
        return self.hub_share * self.lower[combo]


def nested_shares(
    unimodal_utilities: Mapping[Mode, float],
    combo_utilities: Mapping[ComboId, float],
    params: "HubParams",
    segment: Segment,
) -> NestedShares:
    """Two-level choice shares for one market.

    The hub nest competes with the unimodal modes through its logsum
    utility.  With an empty combo set the hub share is zero and the upper
    level reduces to plain MNL over the unimodal modes.  At beta_hub = 1
    and a zero constant the joint combo probabilities collapse to flat MNL
    over the pooled choice set.
    """
    if not unimodal_utilities:
        raise ValueError("empty choice set")
    modes = sorted(unimodal_utilities, key=lambda m: m.value)
    uni = [unimodal_utilities[m] for m in modes]
    if not combo_utilities:
        shares = mnl_shares(uni)
        return NestedShares(upper=dict(zip(modes, shares)), hub_share=0.0, lower={})

    combos = sorted(combo_utilities, key=combo_sort_key)
    cu = [combo_utilities[c] for c in combos]
    v_hub = nest_logsum(cu, params.beta_hub, params.asc_by_segment[segment])
    all_shares = mnl_shares(uni + [v_hub])
    lower = mnl_shares([v / params.beta_hub for v in cu])
    return NestedShares(
        upper=dict(zip(modes, all_shares[: len(modes)])),
        hub_share=float(all_shares[-1]),
        lower=dict(zip(combos, lower)),
    )


def assemble_leg_attrs(
    market: Market,
    hub: Hub,
    combo: ComboId,
    matrices: LegMatrices,
    fares: FareTable,
    *,
    car_cost_per_mile: float = 0.20,
    circuity_factor: float = 1.3,
) -> tuple[ModeAttr, ModeAttr] | None:
    """Entry and exit leg attributes for one market/combo pair.

    Returns None when either leg is missing from the matrices (the combo
    is unavailable for that market, not an error).  Car leg distances fall
    back to circuity-adjusted great-circle when the matrices carry no
    network miles.
    """
    to_leg = matrices.entries.get((market.o_zone, hub.id, combo.entry), (None, None))[0]
    from_leg = matrices.entries.get((market.d_zone, hub.id, combo.exit), (None, None))[1]
    if to_leg is None or from_leg is None:
        return None

    def _miles(times: LegTimes, frm: GeoPoint, to: GeoPoint) -> float:
        if times.miles is not None:
            return times.miles
        return haversine_km(frm.lat, frm.lon, to.lat, to.lon) * MILES_PER_KM * circuity_factor

    def _attr(mode: Mode, times: LegTimes, frm: GeoPoint, to: GeoPoint) -> ModeAttr:
        cost = leg_cost_usd(mode, times.minutes, _miles(times, frm, to), fares, car_cost_per_mile=car_cost_per_mile)
        return ModeAttr(
            ivt_min=times.minutes,
            access_min=times.access_min,
            egress_min=times.egress_min,
            transfers=times.transfers,
            cost_usd=cost,
            available=True,
        )

    return (
        _attr(combo.entry, to_leg, market.origin, hub.location),
        _attr(combo.exit, from_leg, hub.location, market.destination),
    )
