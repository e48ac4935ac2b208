"""Hub choice-set assembly: transfer combos, leg attributes, and the
param-independent per-market arrays that calibration and impact metrics
evaluate against.

Combos observed in an intercept survey define a hub's transfer choice
set.  Leg times come from zone-to-hub matrices keyed by (zone, hub, leg
mode); a missing entry makes the combo unavailable for that market, it is
never zero-filled.  Leg costs follow the service fare rules: flat bus
fare, hourly car-share rate, a step-function bike-share schedule, per-mile
car cost, walking free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .choice import (
    MAIN_MODES,
    MODE_FAMILY,
    SEGMENTS,
    TASTE_FIELDS,
    ComboId,
    Market,
    Mode,
    ModeAttr,
    Segment,
    combo_sort_key,
    mode_utility,
)
from .geo import MILES_PER_KM, GeoPoint, haversine_km

_SEGMENT_CODE = {seg: i for i, seg in enumerate(SEGMENTS)}
_MAIN_INDEX = {mode: i for i, mode in enumerate(MAIN_MODES)}


def _combo(entry: Mode, exit: Mode) -> ComboId:
    return ComboId(entry=entry, exit=exit)


# Transfer choice-set templates for candidate hubs.  The car-share profile
# is the full 16-combo set of a hub offering bus, car drop-off, car share,
# bike share, and walking legs; the standard profile is the same set with
# every car_share-referencing combo removed (9 combos).
CAR_SHARE_PROFILE_COMBOS: tuple[ComboId, ...] = tuple(
    sorted(
        [
            _combo(Mode.BUS, Mode.BUS),
            _combo(Mode.BUS, Mode.CAR_SHARE),
            _combo(Mode.BUS, Mode.WALK_LEG),
            _combo(Mode.BUS, Mode.BIKE_SHARE),
            _combo(Mode.CAR_SHARE, Mode.BUS),
            _combo(Mode.CAR_SHARE, Mode.WALK_LEG),
            _combo(Mode.CAR_SHARE, Mode.BIKE_SHARE),
            _combo(Mode.CAR, Mode.BUS),
            _combo(Mode.CAR, Mode.WALK_LEG),
            _combo(Mode.CAR, Mode.CAR_SHARE),
            _combo(Mode.CAR, Mode.BIKE_SHARE),
            _combo(Mode.BIKE_SHARE, Mode.BUS),
            _combo(Mode.BIKE_SHARE, Mode.WALK_LEG),
            _combo(Mode.BIKE_SHARE, Mode.CAR_SHARE),
            _combo(Mode.WALK_LEG, Mode.BUS),
            _combo(Mode.WALK_LEG, Mode.CAR_SHARE),
        ],
        key=combo_sort_key,
    )
)

STANDARD_PROFILE_COMBOS: tuple[ComboId, ...] = tuple(
    c for c in CAR_SHARE_PROFILE_COMBOS if Mode.CAR_SHARE not in (c.entry, c.exit)
)


@dataclass(frozen=True)
class Hub:
    """A mobility hub: location, offered services, and transfer choice set."""

    id: str
    location: GeoPoint
    car_share_available: bool
    bike_share_available: bool
    combos: frozenset[ComboId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "combos", frozenset(self.combos))
        for combo in self.combos:
            if not self.car_share_available and Mode.CAR_SHARE in (combo.entry, combo.exit):
                raise ValueError(f"hub {self.id}: combo {combo.label()} references unavailable car share")
            if not self.bike_share_available and Mode.BIKE_SHARE in (combo.entry, combo.exit):
                raise ValueError(f"hub {self.id}: combo {combo.label()} references unavailable bike share")

    def sorted_combos(self) -> tuple[ComboId, ...]:
        return tuple(sorted(self.combos, key=combo_sort_key))


@dataclass(frozen=True)
class SurveyRecord:
    """One intercept-survey response at a hub."""

    hub_id: str
    origin: GeoPoint
    destination: GeoPoint
    entry_mode: Mode
    exit_mode: Mode
    segment: Segment | None = None
    complete: bool = True


def build_combos(
    records: Sequence[SurveyRecord],
    *,
    car_share_available: bool = True,
    bike_share_available: bool = True,
) -> tuple[ComboId, ...]:
    """Deduplicated transfer combos from survey responses, service-filtered.

    Only complete records contribute.  Combos referencing a service the
    hub does not offer are dropped.  The result is order-canonicalized, so
    it does not depend on record order.
    """
    if not records:
        raise ValueError("empty survey for hub")
    combos = {ComboId(r.entry_mode, r.exit_mode) for r in records if r.complete}
    if not combos:
        raise ValueError("empty survey for hub: no complete records")
    if not car_share_available:
        combos = {c for c in combos if Mode.CAR_SHARE not in (c.entry, c.exit)}
    if not bike_share_available:
        combos = {c for c in combos if Mode.BIKE_SHARE not in (c.entry, c.exit)}
    return tuple(sorted(combos, key=combo_sort_key))


# ----------------------------------------------------------------------
# fares
# ----------------------------------------------------------------------

_INF = float("inf")


@dataclass(frozen=True)
class FareTable:
    """Service fares.  bike_share_steps maps ride minutes to a fare via a
    step function: the first step whose up_to_min bound covers the duration
    applies; durations past the last bound pay the last fare."""

    bus_fare_usd: float
    car_share_usd_per_hour: float
    bike_share_steps: tuple[tuple[float, float], ...] = ((_INF, 0.0),)

    def __post_init__(self) -> None:
        if self.bus_fare_usd < 0 or self.car_share_usd_per_hour < 0:
            raise ValueError("fares must be non-negative")
        if not self.bike_share_steps:
            raise ValueError("bike_share_steps must not be empty")
        bounds = [b for b, _ in self.bike_share_steps]
        if bounds != sorted(bounds):
            raise ValueError("bike_share_steps must be sorted by up_to_min")
        if any(f < 0 for _, f in self.bike_share_steps):
            raise ValueError("fares must be non-negative")

    def bike_share_fare(self, minutes):
        """Fare for a ride of ``minutes``; elementwise over scalars or arrays."""
        bounds = np.array([b for b, _ in self.bike_share_steps], dtype=float)
        fares = np.array([f for _, f in self.bike_share_steps], dtype=float)
        idx = np.searchsorted(bounds, minutes, side="left")
        return fares[np.minimum(idx, len(fares) - 1)]


# ----------------------------------------------------------------------
# leg time matrices
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LegTimes:
    """Travel attributes of one leg direction.  Non-bus legs only use
    minutes; miles is the optional network distance."""

    minutes: float
    access_min: float = 0.0
    egress_min: float = 0.0
    transfers: float = 0.0
    miles: float | None = None


@dataclass
class LegMatrices:
    """Zone-to-hub leg lookup.  Keys are (zone_id, hub_id, mode); each
    entry holds the to-hub and from-hub directions, either possibly None."""

    entries: dict[tuple[str, str, Mode], tuple[LegTimes | None, LegTimes | None]] = field(default_factory=dict)

    def add(self, zone_id: str, hub_id: str, mode: Mode, to_hub: LegTimes | None, from_hub: LegTimes | None) -> None:
        self.entries[(zone_id, hub_id, mode)] = (to_hub, from_hub)

    def to_hub(self, zone_id: str, hub_id: str, mode: Mode) -> LegTimes | None:
        entry = self.entries.get((zone_id, hub_id, mode))
        return entry[0] if entry else None

    def from_hub(self, zone_id: str, hub_id: str, mode: Mode) -> LegTimes | None:
        entry = self.entries.get((zone_id, hub_id, mode))
        return entry[1] if entry else None


def leg_cost_usd(
    mode: Mode,
    minutes,
    miles,
    fares: FareTable,
    *,
    car_cost_per_mile: float = 0.20,
):
    """Out-of-pocket cost of one leg; elementwise over scalars or arrays of
    ride minutes and leg miles."""
    minutes = np.asarray(minutes, dtype=float)
    if mode == Mode.BUS:
        cost = np.full(minutes.shape, fares.bus_fare_usd)
    elif mode == Mode.CAR:
        cost = car_cost_per_mile * np.asarray(miles, dtype=float)
    elif mode == Mode.CAR_SHARE:
        cost = fares.car_share_usd_per_hour * minutes / 60.0
    elif mode == Mode.BIKE_SHARE:
        cost = fares.bike_share_fare(minutes)
    elif mode == Mode.WALK_LEG:
        cost = np.zeros(minutes.shape)
    else:
        raise ValueError(f"not a leg mode: {mode.value}")
    return cost[()]


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
    to_leg = matrices.to_hub(market.o_zone, hub.id, combo.entry)
    from_leg = matrices.from_hub(market.d_zone, hub.id, combo.exit)
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
# vectorized market storage
# ----------------------------------------------------------------------


class MarketTable:
    """Column-array view of a market list, sorted by market id.

    Built once and shared across hubs and candidates so repeated
    evaluations avoid re-walking Market objects.
    """

    def __init__(self, markets: Iterable[Market]):
        ms = sorted(markets, key=lambda m: m.market_id)
        ids = [m.market_id for m in ms]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate market ids: {dupes[:5]}")
        self.markets: tuple[Market, ...] = tuple(ms)
        self.ids: tuple[str, ...] = tuple(ids)
        self.id_index: dict[str, int] = {mid: i for i, mid in enumerate(ids)}
        n = len(ms)
        self.segment_codes = np.array([_SEGMENT_CODE[m.segment] for m in ms], dtype=np.int64)
        self.trips = np.array([m.trips_per_day for m in ms], dtype=float)
        self.drive_miles = np.array([m.driving_miles for m in ms], dtype=float)
        self.o_lat = np.array([m.origin.lat for m in ms], dtype=float)
        self.o_lon = np.array([m.origin.lon for m in ms], dtype=float)
        self.d_lat = np.array([m.destination.lat for m in ms], dtype=float)
        self.d_lon = np.array([m.destination.lon for m in ms], dtype=float)
        self.o_zones: tuple[str, ...] = tuple(m.o_zone for m in ms)
        self.d_zones: tuple[str, ...] = tuple(m.d_zone for m in ms)
        self.taste: dict[str, np.ndarray] = {
            name: np.array([getattr(m.taste, name) for m in ms], dtype=float) for name in TASTE_FIELDS
        }
        k = len(MAIN_MODES)
        self.attr_ivt = np.zeros((n, k))
        self.attr_access = np.zeros((n, k))
        self.attr_egress = np.zeros((n, k))
        self.attr_transfers = np.zeros((n, k))
        self.attr_cost = np.zeros((n, k))
        self.attr_avail = np.zeros((n, k), dtype=bool)
        for i, m in enumerate(ms):
            for mode, attr in m.attrs.items():
                j = _MAIN_INDEX.get(mode)
                if j is None:
                    raise ValueError(f"market {m.market_id}: {mode.value} is not a unimodal mode")
                self.attr_ivt[i, j] = attr.ivt_min
                self.attr_access[i, j] = attr.access_min
                self.attr_egress[i, j] = attr.egress_min
                self.attr_transfers[i, j] = attr.transfers
                self.attr_cost[i, j] = attr.cost_usd
                self.attr_avail[i, j] = attr.available
        uni = np.full((n, k), -np.inf)
        for j, mode in enumerate(MAIN_MODES):
            u = mode_utility(
                self.taste,
                mode,
                ivt_min=self.attr_ivt[:, j],
                access_min=self.attr_access[:, j],
                egress_min=self.attr_egress[:, j],
                transfers=self.attr_transfers[:, j],
                cost_usd=self.attr_cost[:, j],
            )
            uni[:, j] = np.where(self.attr_avail[:, j], u, -np.inf)
        self._unimodal_utilities = uni

    @classmethod
    def ensure(cls, markets) -> "MarketTable":
        return markets if isinstance(markets, MarketTable) else cls(markets)

    def __len__(self) -> int:
        return len(self.ids)

    def unimodal_utilities(self) -> np.ndarray:
        """(n, 6) systematic utilities over MAIN_MODES, -inf where unavailable."""
        return self._unimodal_utilities


# ----------------------------------------------------------------------
# prepared hub data and share computation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HubShares:
    """Per-market choice probabilities for one hub at given parameters.

    Arrays are (m, 6) over MAIN_MODES, (m,) for the nest, and (m, k) over
    the hub's sorted combos.  cs_gain_util is the logsum gain
    logsum(J+) - logsum(J) in utility units (non-negative by construction,
    exactly zero where no combo is available).
    """

    before: np.ndarray
    upper: np.ndarray
    hub: np.ndarray
    lower: np.ndarray
    logsum_j: np.ndarray
    v_hub: np.ndarray
    cs_gain_util: np.ndarray

    @property
    def joint(self) -> np.ndarray:
        return self.hub[:, None] * self.lower


class HubChoiceSetup:
    """Parameter-independent choice data for one hub over its potential
    markets: unimodal utilities, combo utilities, and leg distances.

    Combo utilities are -inf where a leg is missing from the matrices.
    ``matrix_miles`` is NaN where the matrices carried no network
    distance; distance weighting then uses plain great-circle leg miles
    and VMT/cost use the circuity-adjusted value.
    """

    def __init__(
        self,
        hub: Hub,
        market_ids: Sequence[str],
        segment_codes: np.ndarray,
        trips: np.ndarray,
        drive_miles: np.ndarray,
        uni_util: np.ndarray,
        combos: Sequence[ComboId],
        combo_util: np.ndarray,
        matrix_miles: np.ndarray,
        entry_gc_miles: np.ndarray,
        exit_gc_miles: np.ndarray,
        beta_cost: np.ndarray,
        circuity_factor: float = 1.3,
    ):
        self.hub = hub
        self.market_ids = tuple(market_ids)
        self.segment_codes = segment_codes
        self.trips = trips
        self.drive_miles = drive_miles
        self.uni_util = uni_util
        self.combos = tuple(combos)
        self.combo_util = combo_util
        self.matrix_miles = matrix_miles
        self.entry_gc_miles = entry_gc_miles
        self.exit_gc_miles = exit_gc_miles
        self.beta_cost = beta_cost
        self.circuity_factor = circuity_factor

    @property
    def n_markets(self) -> int:
        return len(self.market_ids)

    @property
    def n_combos(self) -> int:
        return len(self.combos)

    def leg_miles(self, circuity: float) -> np.ndarray:
        """(m, k, 2) leg distances: network miles when the matrices carry
        them, otherwise great-circle miles times ``circuity``.  Trip
        weighting uses plain great-circle (circuity 1), VMT the setup's
        circuity factor."""
        shape = self.matrix_miles.shape[:2]
        gc = np.stack(
            [
                np.broadcast_to(self.entry_gc_miles[:, None], shape),
                np.broadcast_to(self.exit_gc_miles[:, None], shape),
            ],
            axis=2,
        )
        return np.where(np.isnan(self.matrix_miles), gc * circuity, self.matrix_miles)

    def _upper_level(self, params):
        """Pieces of the upper-level softmax over the unimodal modes and the
        hub nest: which markets have a reachable combo, the combo anchor,
        the nest utility, the shifted exponentials and their total."""
        beta = params.beta_hub
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"invalid nesting coefficient: {beta}")
        c = self.combo_util
        with np.errstate(invalid="ignore"):
            c_max = c.max(axis=1, initial=-np.inf)
        has = np.isfinite(c_max)
        anchor = np.where(has, c_max, 0.0)
        e_c = np.exp((c - anchor[:, None]) / beta)
        sum_c = e_c.sum(axis=1)
        logsum = np.where(has, anchor + beta * np.log(np.where(has, sum_c, 1.0)), -np.inf)
        asc = np.array([params.asc_by_segment[s] for s in SEGMENTS])[self.segment_codes]
        v_hub = np.where(has, logsum + asc, -np.inf)

        uni = self.uni_util
        m_all = np.maximum(uni.max(axis=1), np.where(has, v_hub, -np.inf))
        e_u = np.exp(uni - m_all[:, None])
        e_h = np.where(has, np.exp(v_hub - m_all), 0.0)
        return has, anchor, v_hub, e_u, e_h, e_u.sum(axis=1) + e_h

    def hub_nest_share(self, params) -> np.ndarray:
        """(m,) upper-level probability of the hub nest; the hot path for
        calibration."""
        _, _, _, _, e_h, total = self._upper_level(params)
        return e_h / total

    def choice_shares(self, params, *, literal_lower_branch: bool = False) -> HubShares:
        """Full before/after share arrays for one parameter vector."""
        has, anchor, v_hub, e_u, e_h, total = self._upper_level(params)
        uni = self.uni_util
        m_j = uni.max(axis=1)
        e_j = np.exp(uni - m_j[:, None])
        sum_j = e_j.sum(axis=1)
        logsum_j = m_j + np.log(sum_j)

        scale = 1.0 if literal_lower_branch else params.beta_hub
        e_l = np.exp((self.combo_util - anchor[:, None]) / scale)
        sum_l = e_l.sum(axis=1)
        lower = np.where(has[:, None], e_l / np.where(sum_l > 0.0, sum_l, 1.0)[:, None], 0.0)

        # logaddexp keeps the logsum gain non-negative in floating point
        # and exactly zero where the nest is empty.
        cs_gain = np.logaddexp(0.0, v_hub - logsum_j)
        return HubShares(
            before=e_j / sum_j[:, None],
            upper=e_u / total[:, None],
            hub=e_h / total,
            lower=lower,
            logsum_j=logsum_j,
            v_hub=v_hub,
            cs_gain_util=cs_gain,
        )


def _gather_leg(
    idx: np.ndarray,
    zones: Sequence[str],
    hub: Hub,
    mode: Mode,
    matrices: LegMatrices,
    direction: str,
) -> dict[str, np.ndarray]:
    m = len(idx)
    minutes = np.full(m, np.nan)
    access = np.zeros(m)
    egress = np.zeros(m)
    transfers = np.zeros(m)
    miles = np.full(m, np.nan)
    avail = np.zeros(m, dtype=bool)
    get = matrices.to_hub if direction == "to" else matrices.from_hub
    for row, i in enumerate(idx):
        times = get(zones[i], hub.id, mode)
        if times is None:
            continue
        avail[row] = True
        minutes[row] = times.minutes
        access[row] = times.access_min
        egress[row] = times.egress_min
        transfers[row] = times.transfers
        if times.miles is not None:
            miles[row] = times.miles
    return {
        "minutes": minutes,
        "access": access,
        "egress": egress,
        "transfers": transfers,
        "miles": miles,
        "avail": avail,
    }


def prepare_hub(
    markets,
    hub: Hub,
    market_ids: Iterable[str],
    matrices: LegMatrices,
    fares: FareTable,
    *,
    car_cost_per_mile: float = 0.20,
    circuity_factor: float = 1.3,
) -> HubChoiceSetup:
    """Build the evaluation arrays for one hub over its potential markets.

    ``markets`` is a Market sequence or a MarketTable; ``market_ids``
    selects the potential trips (typically the identify step's output).
    """
    table = MarketTable.ensure(markets)
    ids = sorted(set(market_ids))
    try:
        idx = np.array([table.id_index[i] for i in ids], dtype=np.int64)
    except KeyError as err:
        raise ValueError(f"unknown market id: {err.args[0]!r}") from None

    combos = hub.sorted_combos()
    m, k = len(ids), len(combos)
    taste = {name: col[idx] for name, col in table.taste.items()}

    entry_gc = (
        haversine_km(table.o_lat[idx], table.o_lon[idx], hub.location.lat, hub.location.lon) * MILES_PER_KM
    )
    exit_gc = (
        haversine_km(hub.location.lat, hub.location.lon, table.d_lat[idx], table.d_lon[idx]) * MILES_PER_KM
    )

    o_zones = table.o_zones
    d_zones = table.d_zones
    leg_cache: dict[tuple[Mode, str], dict[str, np.ndarray]] = {}
    util_cache: dict[tuple[Mode, str], np.ndarray] = {}

    def leg_data(mode: Mode, direction: str) -> dict[str, np.ndarray]:
        key = (mode, direction)
        if key not in leg_cache:
            zones = o_zones if direction == "to" else d_zones
            leg_cache[key] = _gather_leg(idx, zones, hub, mode, matrices, direction)
        return leg_cache[key]

    def leg_util(mode: Mode, direction: str) -> np.ndarray:
        key = (mode, direction)
        if key not in util_cache:
            data = leg_data(mode, direction)
            gc = entry_gc if direction == "to" else exit_gc
            minutes = np.where(data["avail"], data["minutes"], 0.0)
            cost_miles = np.where(np.isnan(data["miles"]), gc * circuity_factor, data["miles"])
            cost = leg_cost_usd(mode, minutes, cost_miles, fares, car_cost_per_mile=car_cost_per_mile)
            u = mode_utility(
                taste,
                mode,
                ivt_min=minutes,
                access_min=data["access"],
                egress_min=data["egress"],
                transfers=data["transfers"],
                cost_usd=cost,
            )
            util_cache[key] = np.where(data["avail"], u, -np.inf)
        return util_cache[key]

    combo_util = np.full((m, k), -np.inf)
    matrix_miles = np.full((m, k, 2), np.nan)
    for j, combo in enumerate(combos):
        eu = leg_util(combo.entry, "to")
        xu = leg_util(combo.exit, "from")
        combo_util[:, j] = eu + xu
        matrix_miles[:, j, 0] = leg_data(combo.entry, "to")["miles"]
        matrix_miles[:, j, 1] = leg_data(combo.exit, "from")["miles"]

    return HubChoiceSetup(
        hub=hub,
        market_ids=ids,
        segment_codes=table.segment_codes[idx],
        trips=table.trips[idx],
        drive_miles=table.drive_miles[idx],
        uni_util=table.unimodal_utilities()[idx],
        combos=combos,
        combo_util=combo_util,
        matrix_miles=matrix_miles,
        entry_gc_miles=entry_gc,
        exit_gc_miles=exit_gc,
        beta_cost=taste["beta_cost"],
        circuity_factor=circuity_factor,
    )
