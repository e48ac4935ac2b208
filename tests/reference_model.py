"""Scalar reference model: the oracle the differential tests compare the
package's array kernels against.

Each function prices or shares one market at a time with plain loops
over dicts, as the paper writes the model: unimodal utilities, combo
utilities from two priced legs, the nest logsum and the two-level shares.
The package computes the same quantities as arrays (``prepare_hub`` and
``HubChoiceSetup.choice_shares``); none of this code runs in a CLI stage.

The first part holds the records the oracle prices (TasteVector,
ModeAttr, Market) and the row-at-a-time builders that turn them into
the package's column forms: ``table_from_markets`` for a MarketTable and
``add_leg`` for one LegMatrices row.

The last part holds the package's former forms of its lookups and
screens, which the current forms must match bit for bit: the
great-circle formula written as one expression, the leg lookup by
``searchsorted``, the detour screen of every market, and stop
clustering and P+R assignment one point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from hubmodal.choice import (
    _LEG_MODE_CODE,
    LEG_MODE_ORDER,
    MAIN_MODES,
    SEGMENTS,
    TASTE_FIELDS,
    ComboId,
    Mode,
    Segment,
    combo_sort_key,
    mode_utility,
)
from hubmodal.geo import CONDITION2_MODES, EARTH_RADIUS_KM, MILES_PER_KM, GeoPoint, haversine_km
from hubmodal.hubs import ATTR_FIELDS, Hub, HubParams, MarketTable
from hubmodal.legs import FareTable, LegMatrices, LegTimes, leg_cost_usd
from hubmodal.siting import Candidate, StopRecord, _UnionFind

# ----------------------------------------------------------------------
# records and row-at-a-time builders
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TasteVector:
    """Per-market utility coefficients, read by name as ``taste[name]``
    the way ``mode_utility`` reads a MarketTable's taste columns.

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

    def __getitem__(self, name: str) -> float:
        return getattr(self, name)


@dataclass(frozen=True)
class ModeAttr:
    """Level-of-service attributes of one mode for one market."""

    ivt_min: float = 0.0
    access_min: float = 0.0
    egress_min: float = 0.0
    transfers: float = 0.0
    cost_usd: float = 0.0
    available: bool = True


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


_SEGMENT_CODE = {seg: i for i, seg in enumerate(SEGMENTS)}
_MAIN_INDEX = {mode: i for i, mode in enumerate(MAIN_MODES)}


def table_from_markets(markets: Iterable[Market]) -> MarketTable:
    """The MarketTable of Market objects, their fields turned into columns."""
    ms = list(markets)
    cells = np.zeros((len(ms), len(MAIN_MODES), len(ATTR_FIELDS) + 1))  # attributes, then the flag
    for i, m in enumerate(ms):
        for mode, a in m.attrs.items():
            if mode not in _MAIN_INDEX:
                raise ValueError(f"market {m.market_id}: {mode.value} is not a unimodal mode")
            cells[i, _MAIN_INDEX[mode]] = (*map(a.__getattribute__, ATTR_FIELDS), a.available)
    numbers = [
        (m.origin.lat, m.origin.lon, m.destination.lat, m.destination.lon, m.trips_per_day, m.driving_miles)
        + tuple(map(m.taste.__getattribute__, TASTE_FIELDS))
        for m in ms
    ]
    columns = np.array(numbers, dtype=float).reshape(len(ms), 6 + len(TASTE_FIELDS)).T
    return MarketTable(
        [m.od_id for m in ms],
        np.array([_SEGMENT_CODE[m.segment] for m in ms], dtype=np.int64),
        *columns[:6],
        attrs={f: cells[:, :, i] for i, f in enumerate(ATTR_FIELDS)},
        available=cells[:, :, -1] == 1.0,
        taste=dict(zip(TASTE_FIELDS, columns[6:])),
        o_zones=[m.o_zone for m in ms],
        d_zones=[m.d_zone for m in ms],
    )


def _leg_cells(leg: LegTimes | None) -> list[float]:
    if leg is None:
        return [np.nan] * 5
    return [leg.minutes, leg.access_min, leg.egress_min, leg.transfers, np.nan if leg.miles is None else leg.miles]


def add_leg(
    matrices: LegMatrices, zone_id: str, hub_id: str, mode: Mode, to_hub: LegTimes | None, from_hub: LegTimes | None
) -> None:
    """Add one row to ``matrices`` in place, replacing any row with the
    same key.  Each call rebuilds the store through its constructor."""
    matrices.__init__(
        matrices.zone_ids + (zone_id,),
        matrices.hub_ids + (hub_id,),
        np.append(matrices.zone, len(matrices.zone_ids)),
        np.append(matrices.hub, len(matrices.hub_ids)),
        np.append(matrices.mode, _LEG_MODE_CODE[mode]),
        np.concatenate([matrices.legs, [[_leg_cells(to_hub)], [_leg_cells(from_hub)]]], axis=1),
    )


# ----------------------------------------------------------------------
# the scalar model
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# former lookups and screens
# ----------------------------------------------------------------------


def haversine_expr(lat1, lon1, lat2, lon2):
    """Great-circle distance in km; accepts scalars or numpy arrays."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=float)) for x in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.square(np.sin(dlat / 2.0)) + np.cos(lat1) * np.cos(lat2) * np.square(np.sin(dlon / 2.0))
    return EARTH_RADIUS_KM * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def leg_rows(self: LegMatrices, zones: np.ndarray, hubs: np.ndarray, modes: Iterable[Mode]) -> dict[Mode, np.ndarray]:
    """Row of each (zone code, hub code) pair, for each of ``modes``;
    ``len(self)`` where the store has no such row (and for code -1).

    The queries are sorted once: the order that sorts zone * H + hub
    also sorts every mode's key, and sorted queries walk the key
    column in order."""
    base = np.where((zones < 0) | (hubs < 0), -1, zones * len(self.hub_ids) + hubs)
    order = np.argsort(base, kind="stable")
    base = base[order] * len(LEG_MODE_ORDER)
    keys = np.append(self.key, np.iinfo(np.int64).max)  # a last key no query equals
    out = {}
    for mode in modes:
        found = np.full(len(base), len(self))
        code = _LEG_MODE_CODE.get(mode)
        if code is not None:
            # Code -1 gives a negative key, which matches no row.
            key = base + code
            pos = np.searchsorted(keys[:-1], key)
            found[order] = np.where(keys[pos] == key, pos, len(self))
        out[mode] = found
    return out


def trip_mask(
    table: MarketTable,
    hub_lat: Sequence[float],
    hub_lon: Sequence[float],
    threshold: float,
    *,
    condition2_mode: str = "literal_hd_1km",
    condition2_km: float = 1.0,
) -> tuple[np.ndarray, int]:
    """The (hubs, markets) detour screen of every market, and the count
    of markets with a degenerate OD pair."""
    assert threshold >= 1.0 and condition2_mode in CONDITION2_MODES
    o_lat, o_lon, d_lat, d_lon = table.o_lat, table.o_lon, table.d_lat, table.d_lon
    lat = np.asarray(hub_lat, dtype=float)[:, None]
    lon = np.asarray(hub_lon, dtype=float)[:, None]
    od = haversine_expr(o_lat, o_lon, d_lat, d_lon)
    oh = haversine_expr(o_lat, o_lon, lat, lon)
    hd = haversine_expr(lat, lon, d_lat, d_lon)

    degenerate = od <= 0.0
    cond1 = (oh + hd) < threshold * od
    if condition2_mode == "literal_hd_1km":
        cond2 = hd < condition2_km
    else:
        cond2 = (oh + hd) < od + condition2_km
    return (cond1 | cond2) & ~degenerate, int(degenerate.sum())


def cluster_stops(stops: Sequence[StopRecord], *, radius_m: float = 200.0) -> list[Candidate]:
    """Collapse stops within radius_m of each other into candidate sites,
    one stop against every later one at a time."""
    ordered = sorted(stops, key=lambda s: s.stop_id)
    ids = [s.stop_id for s in ordered]
    n = len(ordered)
    if n == 0:
        return []
    lat = np.array([s.location.lat for s in ordered])
    lon = np.array([s.location.lon for s in ordered])
    uf = _UnionFind(n)
    radius_km = radius_m / 1000.0
    for i in range(n - 1):
        d = haversine_expr(lat[i], lon[i], lat[i + 1 :], lon[i + 1 :])
        for off in np.nonzero(d <= radius_km)[0]:
            uf.union(i, i + 1 + int(off))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    out = []
    for root in sorted(groups, key=lambda r: ids[r]):
        members = sorted(ids[i] for i in groups[root])
        centroid = GeoPoint(
            lat=float(np.mean([lat[i] for i in groups[root]])),
            lon=float(np.mean([lon[i] for i in groups[root]])),
        )
        out.append(Candidate(candidate_id=f"c-{members[0]}", location=centroid, member_stop_ids=tuple(members)))
    return sorted(out, key=lambda c: c.candidate_id)


def assign_services(candidates: Sequence[Candidate], pr_lots: Sequence[GeoPoint], *, radius_m: float = 500.0) -> list[Candidate]:
    """Flag car share where a park-and-ride lot is within radius_m, one
    candidate at a time."""
    out = []
    lot_lat = np.array([p.lat for p in pr_lots])
    lot_lon = np.array([p.lon for p in pr_lots])
    radius_km = radius_m / 1000.0
    for cand in candidates:
        has_lot = False
        if len(pr_lots):
            d = haversine_expr(cand.location.lat, cand.location.lon, lot_lat, lot_lon)
            has_lot = bool((d <= radius_km).any())
        out.append(replace(cand, car_share_available=has_lot, bike_share_available=True))
    return out
