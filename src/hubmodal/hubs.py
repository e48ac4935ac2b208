"""Hub choice-set assembly: transfer combos, leg attributes, and the
param-independent per-market arrays that calibration and impact metrics
evaluate against.  ``prepare_hub`` builds them from a MarketTable and a
(hubs, markets) potential-trip mask, the one form every stage uses.

Combos observed in an intercept survey define a hub's transfer choice
set.  Leg times come from zone-to-hub matrices keyed by (zone, hub, leg
mode); a missing entry makes the combo unavailable for that market, it is
never zero-filled.  Leg costs follow the service fare rules: flat bus
fare, hourly car-share rate, a step-function bike-share schedule, per-mile
car cost, walking free.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .choice import (
    LEG_MODES,
    MAIN_MODES,
    SEGMENTS,
    TASTE_FIELDS,
    ComboId,
    Market,
    Mode,
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


# Leg modes in the order of their names.  A row's mode code indexes this
# tuple, so rows sorted by code are sorted by mode name.
LEG_MODE_ORDER: tuple[Mode, ...] = tuple(sorted(LEG_MODES, key=lambda m: m.value))
_LEG_MODE_CODE = {mode: i for i, mode in enumerate(LEG_MODE_ORDER)}


def _sorted_ids(ids: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted distinct ``ids``, and the index in them of each of ``ids``."""
    distinct = tuple(sorted(set(ids)))
    rank = {v: i for i, v in enumerate(distinct)}
    return distinct, np.array([rank[v] for v in ids], dtype=np.int64)


def _int_codes(codes) -> np.ndarray:
    codes = np.asarray(codes)
    return codes if codes.dtype.kind in "iu" else codes.astype(np.int64)


def _sort_rows(key: np.ndarray, legs: np.ndarray, n: int) -> int:
    """Sort the first ``n`` rows of ``key`` and of each ``legs`` direction
    by key in place, keeping the last of the rows that share a key, and
    return the number kept.  Only one direction-sized buffer is
    allocated."""
    order = np.argsort(key[:n], kind="stable")
    sorted_key = key[:n][order]
    last = np.ones(n, dtype=bool)
    last[:-1] = sorted_key[1:] != sorted_key[:-1]
    rows = order[last]
    kept = len(rows)
    key[:kept] = sorted_key[last]
    buffer = np.empty((kept, legs.shape[2]))
    for direction in legs:
        np.take(direction[:n], rows, axis=0, out=buffer, mode="clip")
        direction[:kept] = buffer
    return kept


def _codes(code: dict[str, int], ids: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(code.get, ids, itertools.repeat(-1)), dtype=np.int64, count=len(ids))


def _leg_times(cells: np.ndarray) -> LegTimes | None:
    minutes, access, egress, transfers, miles = cells.tolist()
    if minutes != minutes:
        return None
    return LegTimes(minutes, access, egress, transfers, None if miles != miles else miles)


def _leg_cells(leg: LegTimes | None) -> list[float]:
    if leg is None:
        return [np.nan] * 5
    return [leg.minutes, leg.access_min, leg.egress_min, leg.transfers, np.nan if leg.miles is None else leg.miles]


class LegMatrices:
    """Zone-to-hub leg store: one row per (zone, hub, leg mode), held as a
    key column and a leg block.

    ``zone_ids`` and ``hub_ids`` are sorted.  Each row is held as its
    ``key``, (zone * len(hub_ids) + hub) * len(LEG_MODE_ORDER) + mode, so
    rows sorted by key are sorted by (zone, hub, mode name), and its
    ``legs``: ``legs[0]`` and ``legs[1]`` are the to-hub and from-hub
    (n, 5) blocks of minutes, access, egress, transfers and miles.  NaN
    minutes means the direction is absent, NaN miles that no network
    distance is known.  The ``zone``, ``hub`` and ``mode`` codes, into
    ``zone_ids``, ``hub_ids`` and LEG_MODE_ORDER, are decoded from the key.

    The constructor takes rows column-wise: ``zone``/``hub`` codes into
    ``zone_ids``/``hub_ids`` (in any order, repeats allowed), ``mode``
    codes into LEG_MODE_ORDER, and ``legs`` of shape (2, n, 5).  A later
    row replaces an earlier one with the same key.  A float64 ``legs``
    with rows to spare past the n given becomes the store's block: rows
    that arrive in strictly increasing key order are kept where they are,
    others are sorted in place, and the first spare row becomes the
    sentinel.  Any other ``legs`` is copied.  The store is complete once
    built; lookups never change it.
    """

    def __init__(
        self,
        zone_ids: Sequence[str] = (),
        hub_ids: Sequence[str] = (),
        zone=(),
        hub=(),
        mode=(),
        legs=None,
    ):
        self.zone_ids, zone_rank = _sorted_ids(zone_ids)
        self.hub_ids, hub_rank = _sorted_ids(hub_ids)
        n = len(zone)
        legs = np.empty((2, 0, 5)) if legs is None else np.asarray(legs, dtype=float)
        if legs.shape[1] <= n:  # no spare row: copy into a block with one
            legs = np.concatenate([legs, np.empty((2, 1, 5))], axis=1)
        key = np.empty(n + 1, dtype=np.int64)
        rows = key[:n]
        rows[:] = zone_rank[_int_codes(zone)]
        rows *= len(self.hub_ids)
        rows += hub_rank[_int_codes(hub)]
        rows *= len(LEG_MODE_ORDER)
        rows += _int_codes(mode)
        if (rows[1:] <= rows[:-1]).any():
            n = _sort_rows(key, legs, n)
        # One trailing row past the end: an all-NaN leg for absent keys and
        # a key no lookup can equal.
        key[n] = np.iinfo(np.int64).max
        legs[:, n] = np.nan
        self._legs = legs[:, : n + 1]
        self._key = key[: n + 1]
        self.legs = self._legs[:, :n]
        self.key = self._key[:n]
        self._zone_code = {z: i for i, z in enumerate(self.zone_ids)}
        self._hub_code = {h: i for i, h in enumerate(self.hub_ids)}

    @property
    def zone(self) -> np.ndarray:
        """Each row's code into ``zone_ids``."""
        return self.key // (len(self.hub_ids) * len(LEG_MODE_ORDER))

    @property
    def hub(self) -> np.ndarray:
        """Each row's code into ``hub_ids``."""
        return self.key // len(LEG_MODE_ORDER) % len(self.hub_ids)

    @property
    def mode(self) -> np.ndarray:
        """Each row's code into LEG_MODE_ORDER."""
        return self.key % len(LEG_MODE_ORDER)

    def __len__(self) -> int:
        return len(self.key)

    @property
    def entries(self) -> Mapping[tuple[str, str, Mode], tuple[LegTimes | None, LegTimes | None]]:
        """Read-only view of the rows as (zone, hub, mode) -> (to-hub, from-hub)."""
        return _LegEntries(self)

    def add(self, zone_id: str, hub_id: str, mode: Mode, to_hub: LegTimes | None, from_hub: LegTimes | None) -> None:
        """Add one row, replacing any row with the same key.  Each call
        rebuilds the store; bulk data goes through the constructor."""
        self.__init__(
            self.zone_ids + (zone_id,),
            self.hub_ids + (hub_id,),
            np.append(self.zone, len(self.zone_ids)),
            np.append(self.hub, len(self.hub_ids)),
            np.append(self.mode, _LEG_MODE_CODE[mode]),
            np.concatenate([self.legs, [[_leg_cells(to_hub)], [_leg_cells(from_hub)]]], axis=1),
        )

    def zone_codes(self, zone_ids: Sequence[str]) -> np.ndarray:
        """This store's code for each zone id, -1 where it has none."""
        return _codes(self._zone_code, zone_ids)

    def hub_codes(self, hub_ids: Sequence[str]) -> np.ndarray:
        """This store's code for each hub id, -1 where it has none."""
        return _codes(self._hub_code, hub_ids)

    def rows(self, zones: np.ndarray, hubs: np.ndarray, modes: Iterable[Mode]) -> dict[Mode, np.ndarray]:
        """Row of each (zone code, hub code) pair, for each of ``modes``;
        ``len(self)`` where the store has no such row (and for code -1).

        The queries are sorted once: the order that sorts zone * H + hub
        also sorts every mode's key, and sorted queries walk the key
        column in order."""
        base = np.where((zones < 0) | (hubs < 0), -1, zones * len(self.hub_ids) + hubs)
        order = np.argsort(base, kind="stable")
        base = base[order] * len(LEG_MODE_ORDER)
        out = {}
        for mode in modes:
            found = np.full(len(base), len(self))
            code = _LEG_MODE_CODE.get(mode)
            if code is not None:
                # Code -1 gives a negative key, which matches no row.
                key = base + code
                pos = np.searchsorted(self.key, key)
                found[order] = np.where(self._key[pos] == key, pos, len(self))
            out[mode] = found
        return out

    def _row(self, zone_id: str, hub_id: str, mode: Mode) -> int:
        return int(self.rows(self.zone_codes([zone_id]), self.hub_codes([hub_id]), [mode])[mode][0])


class _LegEntries(Mapping):
    """(zone, hub, mode) -> (to-hub, from-hub) view over a LegMatrices."""

    def __init__(self, matrices: LegMatrices):
        self._m = matrices

    def __len__(self) -> int:
        return len(self._m)

    def __iter__(self):
        m = self._m
        for z, h, c in zip(m.zone.tolist(), m.hub.tolist(), m.mode.tolist()):
            yield m.zone_ids[z], m.hub_ids[h], LEG_MODE_ORDER[c]

    def __getitem__(self, key):
        try:
            zone_id, hub_id, mode = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        row = self._m._row(zone_id, hub_id, mode)
        if row == len(self._m):
            raise KeyError(key)
        return _leg_times(self._m.legs[0, row]), _leg_times(self._m.legs[1, row])


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


# ----------------------------------------------------------------------
# vectorized market storage
# ----------------------------------------------------------------------


# Markets-file column prefix of each unimodal mode, in MAIN_MODES order,
# with the ModeAttr fields the file carries for it.
MARKET_MODE_COLUMNS: tuple[tuple[str, Mode, tuple[str, ...]], ...] = (
    ("driving", Mode.DRIVING, ("ivt_min", "cost_usd")),
    ("transit", Mode.TRANSIT, ("ivt_min", "access_min", "egress_min", "transfers", "cost_usd")),
    ("ondemand", Mode.ON_DEMAND_AUTO, ("ivt_min", "cost_usd")),
    ("biking", Mode.BIKING, ("ivt_min",)),
    ("walking", Mode.WALKING, ("ivt_min",)),
    ("carpool", Mode.CARPOOL, ("ivt_min", "cost_usd")),
)
ATTR_FIELDS: tuple[str, ...] = ("ivt_min", "access_min", "egress_min", "transfers", "cost_usd")


class MarketError(ValueError):
    """A broken market rule: the input ``row``, markets-file ``column`` and ``why``."""

    def __init__(self, market_id: str, row: int, column: str, why: str):
        super().__init__(f"market {market_id}: {why} in column '{column}'")
        self.row, self.column, self.why = row, column, why


class MarketTable:
    """Markets as column arrays sorted by market id, the form every kernel
    reads, built once and shared across hubs and candidates.

    The constructor takes array columns in any row order: ``segment_codes``
    index SEGMENTS, ``attrs`` maps each ATTR_FIELDS name to an (n, 6)
    array over MAIN_MODES beside the (n, 6) ``available`` flags, ``taste``
    maps each TASTE_FIELDS name to an array, and a blank zone id is
    ``<od_id>/o`` or ``<od_id>/d``.  The market rules run here and only
    here: coordinates in range, trips finite and not negative, each
    attribute of an available mode finite, no time or transfer count
    below 0 (of any mode, available or not), an available mode, and one
    row per (od_id, segment).  A cost may be negative: a fare credit is
    real.  The first faulty row in input order raises MarketError for the
    first rule it breaks, in that order.  Non-finite attributes of
    unavailable modes are stored as 0.
    """

    def __init__(
        self, od_ids: Sequence[str], segment_codes, o_lat, o_lon, d_lat, d_lon, trips, drive_miles,
        attrs: Mapping[str, np.ndarray], available, taste: Mapping[str, np.ndarray], o_zones: Sequence[str],
        d_zones: Sequence[str],
    ):
        lat, lon = np.array([o_lat, d_lat], dtype=float), np.array([o_lon, d_lon], dtype=float)  # origin, destination
        ids = [f"{od_id}|{SEGMENTS[code].value}" for od_id, code in zip(od_ids, segment_codes.tolist())]
        order = sorted(range(len(ids)), key=ids.__getitem__)

        repeated = np.zeros(len(ids), dtype=bool)
        repeated[[b for a, b in zip(order, order[1:]) if ids[a] == ids[b]]] = True
        bad_point = ~((-90 <= lat) & (lat <= 90) & (-180 <= lon) & (lon <= 180))  # NaN too
        bad_attr = np.stack([available & ~np.isfinite(attrs[f]) for f in ATTR_FIELDS], axis=2)  # (n, 6, 5)
        negative = np.stack([attrs[f] < 0 for f in ATTR_FIELDS], axis=2) & (np.array(ATTR_FIELDS) != "cost_usd")

        def cell(bad, i):
            j, f = np.argwhere(bad[i])[0]  # the first in (mode, field) order
            return f"{MARKET_MODE_COLUMNS[j][0]}_{ATTR_FIELDS[f]}", attrs[ATTR_FIELDS[f]][i, j]

        def attribute(i):
            column, value = cell(bad_attr, i)
            return column, "empty value" if np.isnan(value) else f"non-finite value {value}"

        def negative_attribute(i):
            column, value = cell(negative, i)
            return column, f"negative value {value}"

        def trips_fault(i):
            return "trips_per_day", "negative trips" if trips[i] < 0 else f"non-finite trips {trips[i]}"

        # (faulty rows, row -> (column, why)), in the order a row is checked
        rules = (
            (bad_point[0], lambda i: ("o_lat", f"invalid coordinate: ({lat[0, i]}, {lon[0, i]})")),
            (bad_point[1], lambda i: ("d_lat", f"invalid coordinate: ({lat[1, i]}, {lon[1, i]})")),
            (~(np.isfinite(trips) & (trips >= 0)), trips_fault),
            (bad_attr.any(axis=(1, 2)), attribute),
            (negative.any(axis=(1, 2)), negative_attribute),
            (~available.any(axis=1), lambda i: ("driving_available", "needs at least one available mode")),
            (repeated, lambda i: ("od_id", f"duplicate market {ids[i]}")),
        )
        faults = [(int(np.argmax(rows)), k) for k, (rows, _) in enumerate(rules) if rows.any()]
        if faults:
            i, k = min(faults)
            raise MarketError(ids[i], i, *rules[k][1](i))

        idx = np.array(order, dtype=np.int64)
        self.ids: tuple[str, ...] = tuple(map(ids.__getitem__, order))
        self.od_ids: tuple[str, ...] = tuple(map(list(od_ids).__getitem__, order))
        self.segment_codes, self.trips, self.drive_miles = segment_codes[idx], trips[idx], drive_miles[idx]
        (self.o_lat, self.d_lat), (self.o_lon, self.d_lon) = lat[:, idx], lon[:, idx]
        self.attrs: dict[str, np.ndarray] = {f: attrs[f][idx] for f in ATTR_FIELDS}
        for column in self.attrs.values():
            column[~np.isfinite(column)] = 0.0
        self.available = available[idx]
        self.taste: dict[str, np.ndarray] = {name: taste[name][idx] for name in TASTE_FIELDS}
        zones = [
            [given[i] or f"{self.od_ids[r]}/{end}" for r, i in enumerate(order)]
            for given, end in ((o_zones, "o"), (d_zones, "d"))
        ]
        zone_code = {z: i for i, z in enumerate(dict.fromkeys(itertools.chain(*zones)))}
        self.zone_ids: tuple[str, ...] = tuple(zone_code)
        self.o_zone_codes, self.d_zone_codes = (_codes(zone_code, z) for z in zones)

        uni = np.full(self.available.shape, -np.inf)
        for j, mode in enumerate(MAIN_MODES):
            u = mode_utility(self.taste, mode, **{f: self.attrs[f][:, j] for f in ATTR_FIELDS})
            uni[:, j] = np.where(self.available[:, j], u, -np.inf)
        self._unimodal_utilities = uni

    @classmethod
    def from_markets(cls, markets: Iterable[Market]) -> "MarketTable":
        """The table of Market objects, their fields turned into columns."""
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
        return cls(
            [m.od_id for m in ms],
            np.array([_SEGMENT_CODE[m.segment] for m in ms], dtype=np.int64),
            *columns[:6],
            attrs={f: cells[:, :, i] for i, f in enumerate(ATTR_FIELDS)},
            available=cells[:, :, -1] == 1.0,
            taste=dict(zip(TASTE_FIELDS, columns[6:])),
            o_zones=[m.o_zone for m in ms],
            d_zones=[m.d_zone for m in ms],
        )

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
    """Parameter-independent choice data for the potential markets of one
    or more hubs that share a choice set: unimodal utilities, combo
    utilities, and leg distances.

    The rows are stacked hub by hub: ``bounds`` (len(hubs) + 1 offsets)
    gives each hub its run of rows, in hub order, and ``rows`` is each
    row's index in the MarketTable it was built from.  Every array is per
    row, so a share pass over a stack is the share pass of each of its
    hubs, and a hub's impact sums are sums over its own rows.

    Combo utilities are -inf where a leg is missing from the matrices.
    ``vmt_miles`` and ``weight_miles`` (m, k, 2) are each combo's entry
    and exit leg miles: network miles where the matrices carry them, else
    great-circle miles, times the circuity factor in ``vmt_miles``.

    The softmax terms that do not depend on the parameters (which markets
    have a reachable combo, the combo utilities shifted by their row
    maximum, the unimodal row maximum) are computed once here, so each
    evaluation during calibration does only the parameter-dependent work.
    The utility arrays are treated as read-only after construction.
    """

    def __init__(
        self,
        hubs: Sequence[Hub],
        rows: np.ndarray,
        segment_codes: np.ndarray,
        trips: np.ndarray,
        drive_miles: np.ndarray,
        uni_util: np.ndarray,
        combos: Sequence[ComboId],
        combo_util: np.ndarray,
        vmt_miles: np.ndarray,
        weight_miles: np.ndarray,
        beta_cost: np.ndarray,
        *,
        bounds: Sequence[int],
    ):
        self.hubs = tuple(hubs)
        self.rows = rows
        bounds = tuple(map(int, bounds))
        if len(bounds) != len(self.hubs) + 1 or bounds[0] != 0 or bounds[-1] != len(rows):
            raise ValueError("bounds must run from 0 to the row count, one span per hub")
        self.spans = tuple(zip(bounds[:-1], bounds[1:]))
        self.segment_codes = segment_codes
        self.trips = trips
        self.drive_miles = drive_miles
        self.uni_util = uni_util
        self.combos = tuple(combos)
        self.combo_util = combo_util
        self.vmt_miles = vmt_miles
        self.weight_miles = weight_miles
        self.beta_cost = beta_cost
        with np.errstate(invalid="ignore"):
            c_max = combo_util.max(axis=1, initial=-np.inf)
        self._has = np.isfinite(c_max)
        self._anchor = np.where(self._has, c_max, 0.0)
        self._c_shift = combo_util - self._anchor[:, None]
        self._uni_max = uni_util.max(axis=1)

    @property
    def n_markets(self) -> int:
        return len(self.rows)

    @property
    def n_combos(self) -> int:
        return len(self.combos)

    @cached_property
    def _c_shift_finite(self) -> np.ndarray:
        """``_c_shift`` with unavailable combos at 0, so that q * c~ is 0
        there (their weight q is 0) instead of 0 * -inf = NaN.  Only the
        gradient reads it, so setups that are never fitted skip the copy."""
        return np.where(np.isfinite(self._c_shift), self._c_shift, 0.0)

    def _upper_level(self, params):
        """Pieces of the upper-level softmax over the unimodal modes and the
        hub nest: the nest utility, the shifted exponentials and their
        total, and the within-nest exponentials exp(c~/beta) with their
        row sums S (1 where the nest is empty)."""
        beta = params.beta_hub
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"invalid nesting coefficient: {beta}")
        has, anchor = self._has, self._anchor
        e_c = np.exp(self._c_shift / beta)
        sum_c = np.where(has, e_c.sum(axis=1), 1.0)
        logsum = np.where(has, anchor + beta * np.log(sum_c), -np.inf)
        asc = np.array([params.asc_by_segment[s] for s in SEGMENTS])[self.segment_codes]
        v_hub = np.where(has, logsum + asc, -np.inf)

        m_all = np.maximum(self._uni_max, v_hub)
        e_u = np.exp(self.uni_util - m_all[:, None])
        e_h = np.where(has, np.exp(v_hub - m_all), 0.0)
        return v_hub, e_u, e_h, e_u.sum(axis=1) + e_h, e_c, sum_c

    def hub_nest_share(self, params) -> np.ndarray:
        """(m,) upper-level probability of the hub nest."""
        _, _, e_h, total, _, _ = self._upper_level(params)
        return e_h / total

    def hub_nest_share_and_gradient(self, params) -> tuple[np.ndarray, np.ndarray]:
        """(m,) hub nest share s, as ``hub_nest_share`` gives it, and its
        (m, 1 + len(SEGMENTS)) derivatives with respect to beta_hub and
        each segment constant: the hot path for calibration.

        With c~ the combo utilities shifted by their row maximum,
        S = sum_k exp(c~_k / beta) and q_k = exp(c~_k / beta) / S:

            ds/dasc_g = s (1 - s) [segment = g]
            ds/dbeta  = s (1 - s) (log S - sum_k q_k c~_k / beta)

        Both are 0 where the nest is empty.
        """
        _, e_u, e_h, total, e_c, sum_c = self._upper_level(params)
        share = e_h / total
        slope = share * (e_u.sum(axis=1) / total)  # s (1 - s) without cancellation
        d_logsum = np.log(sum_c) - (e_c * self._c_shift_finite).sum(axis=1) / (sum_c * params.beta_hub)
        grad = np.zeros((self.n_markets, 1 + len(SEGMENTS)))
        grad[:, 0] = slope * d_logsum
        grad[np.arange(self.n_markets), 1 + self.segment_codes] = slope
        return share, grad

    def choice_shares(self, params) -> HubShares:
        """Full before/after share arrays for one parameter vector."""
        v_hub, e_u, e_h, total, e_l, sum_l = self._upper_level(params)
        m_j = self._uni_max
        e_j = np.exp(self.uni_util - m_j[:, None])
        sum_j = e_j.sum(axis=1)
        logsum_j = m_j + np.log(sum_j)

        # The within-nest split reuses the nest's exp(c~/beta); S is 1 on empty rows.
        lower = np.where(self._has[:, None], e_l / sum_l[:, None], 0.0)

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


def prepare_hub(
    table: MarketTable,
    hubs: Sequence[Hub],
    keep: np.ndarray,
    matrices: LegMatrices,
    fares: FareTable,
    *,
    zone_map: np.ndarray | None = None,
    car_cost_per_mile: float = 0.20,
    circuity_factor: float = 1.3,
) -> HubChoiceSetup:
    """Build the evaluation arrays of one stacked setup for ``hubs``, which
    must share one choice set, over their potential markets.

    ``keep`` is a (len(hubs), len(table)) boolean mask over the table rows,
    as ``potential_trip_mask`` gives it; the rows are stacked hub by hub,
    markets in table order.  ``zone_map`` is
    ``matrices.zone_codes(table.zone_ids)``, for callers that build many
    setups over one table.
    """
    if keep.shape != (len(hubs), len(table)):
        raise ValueError(f"mask shape {keep.shape} is not (hubs, markets) = {(len(hubs), len(table))}")
    own, idx = np.nonzero(keep)
    combos = hubs[0].sorted_combos()
    if any(h.combos != hubs[0].combos for h in hubs):
        raise ValueError("stacked hubs must share one choice set")
    m, k = len(idx), len(combos)
    taste = {name: col[idx] for name, col in table.taste.items()}

    hub_lat = np.array([h.location.lat for h in hubs])[own]
    hub_lon = np.array([h.location.lon for h in hubs])[own]
    entry_gc = haversine_km(table.o_lat[idx], table.o_lon[idx], hub_lat, hub_lon) * MILES_PER_KM
    exit_gc = haversine_km(hub_lat, hub_lon, table.d_lat[idx], table.d_lon[idx]) * MILES_PER_KM

    # Zone codes of the rows' origins (to-hub legs) and destinations
    # (from-hub legs), and hub codes, in the matrices' own coding.
    if zone_map is None:
        zone_map = matrices.zone_codes(table.zone_ids)
    hub_codes = matrices.hub_codes([h.id for h in hubs])[own]
    zones = (zone_map[table.o_zone_codes[idx]], zone_map[table.d_zone_codes[idx]])
    gcs = (entry_gc, exit_gc)
    leg_util: dict[tuple[Mode, int], np.ndarray] = {}
    leg_miles: dict[tuple[Mode, int], tuple[np.ndarray, np.ndarray]] = {}
    leg_modes = (dict.fromkeys(c.entry for c in combos), dict.fromkeys(c.exit for c in combos))
    for direction, modes in enumerate(leg_modes):
        for mode, found in matrices.rows(zones[direction], hub_codes, modes).items():
            minutes, access, egress, transfers, miles = matrices._legs[direction].take(found, axis=0).T
            avail = ~np.isnan(minutes)
            minutes = np.where(avail, minutes, 0.0)
            # network miles, else great-circle: times the circuity factor for cost and VMT
            no_network = np.isnan(miles)
            vmt_miles = np.where(no_network, gcs[direction] * circuity_factor, miles)
            cost = leg_cost_usd(mode, minutes, vmt_miles, fares, car_cost_per_mile=car_cost_per_mile)
            u = mode_utility(
                taste,
                mode,
                ivt_min=minutes,
                access_min=access,
                egress_min=egress,
                transfers=transfers,
                cost_usd=cost,
            )
            leg_util[mode, direction] = np.where(avail, u, -np.inf)
            leg_miles[mode, direction] = vmt_miles, np.where(no_network, gcs[direction], miles)

    combo_util = np.full((m, k), -np.inf)
    miles = np.empty((2, m, k, 2))  # vmt, then weight
    for j, combo in enumerate(combos):
        combo_util[:, j] = leg_util[combo.entry, 0] + leg_util[combo.exit, 1]
        miles[:, :, j, 0] = leg_miles[combo.entry, 0]
        miles[:, :, j, 1] = leg_miles[combo.exit, 1]

    return HubChoiceSetup(
        hubs,
        idx,
        table.segment_codes[idx],
        table.trips[idx],
        table.drive_miles[idx],
        table.unimodal_utilities()[idx],
        combos,
        combo_util,
        miles[0],
        miles[1],
        taste["beta_cost"],
        bounds=np.searchsorted(own, np.arange(len(hubs) + 1)),
    )
