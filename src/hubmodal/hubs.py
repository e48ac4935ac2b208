"""Hub choice-set assembly: transfer combos, leg attributes, and the
param-independent per-market arrays that calibration and impact metrics
evaluate against.  ``prepare_hub`` builds them from a MarketTable and a
detour screen of it (``geo.TripScreen``), the one form every stage uses.

Combos observed in an intercept survey define a hub's transfer choice
set.  Their legs are looked up in the leg store and priced at its fares
(``legs``).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .choice import (
    _LEG_MODE_CODE,
    LEG_MODE_ORDER,
    LEG_MODES,
    MAIN_MODES,
    SEGMENTS,
    TASTE_FIELDS,
    ComboId,
    Mode,
    Segment,
    combo_sort_key,
    mode_utility,
)
from .geo import MILES_PER_KM, GeoPoint, TripScreen
from .legs import FareTable, LegMatrices, _codes, leg_cost_usd
from .records import record


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


@record(frozen=True)
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
        return _combo_layout(self.combos).combos


class _ComboLayout:
    """Where the combos of one choice set find their legs.

    ``combos`` are in combo_sort_key order.  A leg is a (mode, direction)
    pair, direction 0 the entry (to-hub) leg and 1 the exit (from-hub)
    leg.  ``legs`` are the distinct legs the combos use, sorted, so that
    each mode's legs are one ``run`` (mode, slice of ``legs``);
    ``direction`` is each leg's direction, and ``by_direction`` each
    direction's leg modes and their places in ``legs``.  ``column`` is
    each combo's entry and exit leg, a (2, k) index into ``legs``.
    ``reaches[a, b]`` says whether some combo's entry mode is in the
    bitmask ``a`` (bit ``code`` into LEG_MODE_ORDER) and its exit mode in
    ``b``: whether a row whose timed legs are those can reach a combo.
    ``sites`` maps each leg mode to where the combos use it: a (2, n)
    array of combo indices over leg positions (0 entry, 1 exit), in combo
    order, entry first.  Every later figure that reads a leg mode (VMT,
    bus boardings) takes its legs from here.
    """

    def __init__(self, combos: frozenset[ComboId]):
        self.combos = tuple(sorted(combos, key=combo_sort_key))
        self.legs = tuple(sorted({(c[d], d) for c in self.combos for d in (0, 1)}, key=lambda leg: (leg[0].value, leg[1])))
        place = {leg: i for i, leg in enumerate(self.legs)}
        self.column = np.array([[place[c[d], d] for c in self.combos] for d in (0, 1)], dtype=np.intp)
        self.direction = np.array([d for _, d in self.legs], dtype=np.intp)
        self.by_direction = tuple(
            (tuple(mode for mode, e in self.legs if e == d), np.flatnonzero(self.direction == d)) for d in (0, 1)
        )
        modes = [mode for mode, _ in self.legs]
        self.runs = tuple((mode, slice(modes.index(mode), modes.index(mode) + modes.count(mode))) for mode in dict.fromkeys(modes))
        self.sites = MappingProxyType(
            {
                mode: np.array([(j, d) for j, c in enumerate(self.combos) for d in (0, 1) if c[d] == mode], dtype=np.intp).reshape(-1, 2).T
                for mode in LEG_MODES
            }
        )
        masks = np.arange(1 << len(LEG_MODE_ORDER))
        self.reaches = np.zeros((len(masks), len(masks)), dtype=bool)
        for entry, exit in self.combos:
            self.reaches |= np.outer(masks >> _LEG_MODE_CODE[entry] & 1, masks >> _LEG_MODE_CODE[exit] & 1).astype(bool)
        for index in (self.column, self.direction, self.reaches, *(at for _, at in self.by_direction), *self.sites.values()):
            index.flags.writeable = False  # one layout serves every setup of its choice set


# A frozenset keeps its hash, so the setups of one service profile look
# their layout up instead of rebuilding it.
_combo_layout = functools.lru_cache(maxsize=64)(_ComboLayout)


def _shared_layout(hubs: Sequence[Hub]) -> _ComboLayout:
    """The layout of the one choice set that ``hubs`` must share."""
    if any(h.combos != hubs[0].combos for h in hubs):
        raise ValueError("stacked hubs must share one choice set")
    return _combo_layout(hubs[0].combos)


@record(frozen=True)
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
    hub does not offer are dropped; when that drops every combo, a
    ValueError names the services.  The result is order-canonicalized, so
    it does not depend on record order.
    """
    if not records:
        raise ValueError("empty survey for hub")
    combos = {ComboId(r.entry_mode, r.exit_mode) for r in records if r.complete}
    if not combos:
        raise ValueError("empty survey for hub: no complete records")
    offered = {Mode.CAR_SHARE: car_share_available, Mode.BIKE_SHARE: bike_share_available}
    usable = {c for c in combos if offered.get(c.entry, True) and offered.get(c.exit, True)}
    if not usable:
        dropped = sorted({mode.value for c in combos for mode in c if not offered.get(mode, True)})
        raise ValueError(f"no usable combo: every surveyed combo uses a service the hub does not offer ({', '.join(dropped)})")
    return tuple(sorted(usable, key=combo_sort_key))


# ----------------------------------------------------------------------
# vectorized market storage
# ----------------------------------------------------------------------


# Markets-file column prefix of each unimodal mode, in MAIN_MODES order,
# with the attribute fields the file carries for it.
MARKET_MODE_COLUMNS: tuple[tuple[str, Mode, tuple[str, ...]], ...] = (
    ("driving", Mode.DRIVING, ("ivt_min", "cost_usd")),
    ("transit", Mode.TRANSIT, ("ivt_min", "access_min", "egress_min", "transfers", "cost_usd")),
    ("ondemand", Mode.ON_DEMAND_AUTO, ("ivt_min", "cost_usd")),
    ("biking", Mode.BIKING, ("ivt_min",)),
    ("walking", Mode.WALKING, ("ivt_min",)),
    ("carpool", Mode.CARPOOL, ("ivt_min", "cost_usd")),
)
ATTR_FIELDS: tuple[str, ...] = ("ivt_min", "access_min", "egress_min", "transfers", "cost_usd")

# The largest magnitude a market attribute, a taste coefficient or a leg
# matrix cell may have.  A utility sums a few products of a coefficient
# and an attribute, so it stays within about 1e13, far from overflow.
VALUE_BOUND = 1e6


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
    below 0 (of any mode, available or not), no finite attribute and no
    taste coefficient of a magnitude above VALUE_BOUND (1e6), an
    available mode, and one row per (od_id, segment).  A cost may be
    negative: a fare credit is real.  The first faulty row in input order
    raises MarketError for the first rule it breaks, in that order.
    Non-finite attributes of unavailable modes are stored as 0.
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
        huge = np.stack([(np.abs(attrs[f]) > VALUE_BOUND) & np.isfinite(attrs[f]) for f in ATTR_FIELDS], axis=2)
        bad_taste = np.stack([~(np.abs(taste[name]) <= VALUE_BOUND) for name in TASTE_FIELDS], axis=1)  # NaN too

        def attribute_rule(bad, why):
            """The rule of the (n, 6, 5) ``bad`` cells: a faulty row's
            first bad cell in (mode, field) order, and ``why`` of its value."""

            def fault(i):
                j, f = np.argwhere(bad[i])[0]
                return f"{MARKET_MODE_COLUMNS[j][0]}_{ATTR_FIELDS[f]}", why(attrs[ATTR_FIELDS[f]][i, j])

            return bad.any(axis=(1, 2)), fault

        def taste_fault(i):
            name = TASTE_FIELDS[int(np.argmax(bad_taste[i]))]
            value = taste[name][i]
            return name, f"magnitude of {value} above {VALUE_BOUND}" if np.isfinite(value) else f"non-finite value {value}"

        def trips_fault(i):
            return "trips_per_day", "negative trips" if trips[i] < 0 else f"non-finite trips {trips[i]}"

        # (faulty rows, row -> (column, why)), in the order a row is checked
        rules = (
            (bad_point[0], lambda i: ("o_lat", f"invalid coordinate: ({lat[0, i]}, {lon[0, i]})")),
            (bad_point[1], lambda i: ("d_lat", f"invalid coordinate: ({lat[1, i]}, {lon[1, i]})")),
            (~(np.isfinite(trips) & (trips >= 0)), trips_fault),
            attribute_rule(bad_attr, lambda v: "empty value" if np.isnan(v) else f"non-finite value {v}"),
            attribute_rule(negative, lambda v: f"negative value {v}"),
            attribute_rule(huge, lambda v: f"magnitude of {v} above {VALUE_BOUND}"),
            (bad_taste.any(axis=1), taste_fault),
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
        self.uni_terms = unimodal_terms(uni)  # once per market: no term depends on a hub

    def __len__(self) -> int:
        return len(self.ids)

    def unimodal_utilities(self) -> np.ndarray:
        """(n, 6) systematic utilities over MAIN_MODES, -inf where unavailable."""
        return self._unimodal_utilities


def _row_max(a: np.ndarray) -> np.ndarray:
    """Row maxima of an (m, k) array, -inf where k = 0: an exact fold of np.maximum, faster than max(axis=1) on short rows."""
    out = np.full(len(a), -np.inf)
    for column in a.T:
        np.maximum(out, column, out=out)
    return out


def unimodal_terms(uni_util: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The no-hub softmax of (m, 6) unimodal utilities, row by row: the
    row maximum, the logsum ``logsum_j`` and the (m, 6) shares ``before``."""
    uni_max = _row_max(uni_util)
    before = np.exp(uni_util - uni_max[:, None])
    sum_j = before.sum(axis=1)
    before /= sum_j[:, None]
    return uni_max, uni_max + np.log(sum_j), before


# ----------------------------------------------------------------------
# prepared hub data and share computation
# ----------------------------------------------------------------------


@record(frozen=True)
class HubParams:
    """Calibrated nest parameters: one nesting coefficient shared by all
    hubs and one hub constant per population segment.

    As a vector (``as_vector``, ``from_vector``, ``fill`` and the columns
    of ``HubChoiceSetup.hub_nest_share_and_gradient``) they are beta_hub
    followed by the constants in ``SEGMENTS`` order, named by ``NAMES``.
    """

    NAMES = ("beta_hub", *(f"asc_by_segment.{s.value}" for s in SEGMENTS))

    beta_hub: float
    asc_by_segment: Mapping[Segment, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.beta_hub <= 1.0:
            raise ValueError(f"invalid nesting coefficient: {self.beta_hub}")
        missing = [s.value for s in SEGMENTS if s not in self.asc_by_segment]
        if missing:
            raise ValueError(f"missing segment constants: {missing}")
        for seg in SEGMENTS:
            if not math.isfinite(self.asc_by_segment[seg]):
                raise ValueError(f"invalid attribute: non-finite constant for {seg.value}")

    def as_vector(self) -> np.ndarray:
        return np.array([self.beta_hub] + [self.asc_by_segment[s] for s in SEGMENTS], dtype=float)

    @classmethod
    def from_vector(cls, x) -> "HubParams":
        x = np.asarray(x, dtype=float)
        return cls(beta_hub=float(x[0]), asc_by_segment={s: float(x[1 + i]) for i, s in enumerate(SEGMENTS)})

    @staticmethod
    def fill(beta: float, asc: float) -> np.ndarray:
        """The vector with ``beta`` at beta_hub and ``asc`` at every
        constant, unchecked: a start or a bound, not a parameter point."""
        return np.array([beta] + [asc] * len(SEGMENTS), dtype=float)


@record(frozen=True)
class HubShares:
    """Per-market choice probabilities for one hub at given parameters.

    Arrays are (m, 6) over MAIN_MODES and (m,) for the nest, over every
    row of the setup.  ``lower`` is (len(live), k) over the hub's sorted
    combos, for the rows ``live`` alone (the setup's ``live``): every
    other row has no combo to choose and a within-nest share of 0.
    cs_gain_util is the logsum gain logsum(J+) - logsum(J) in utility
    units (non-negative by construction, exactly zero where no combo is
    available).
    """

    before: np.ndarray
    upper: np.ndarray
    hub: np.ndarray
    live: np.ndarray
    lower: np.ndarray
    logsum_j: np.ndarray
    v_hub: np.ndarray
    cs_gain_util: np.ndarray

    @cached_property
    def joint(self) -> np.ndarray:
        """(len(live), k) unconditional combo probabilities of the live
        rows, computed once for every kernel that reads them."""
        return self.hub[self.live, None] * self.lower


class HubChoiceSetup:
    """Parameter-independent choice data for the potential markets of one
    or more hubs that share a choice set: unimodal utilities, combo
    utilities, and leg distances.

    The rows are stacked hub by hub: ``bounds`` (len(hubs) + 1 offsets)
    gives each hub its run of rows, in hub order, and ``rows`` is each
    row's index in the MarketTable it was built from.  Every array is per
    row, so a share pass over a stack is the share pass of each of its
    hubs, and a hub's impact sums are sums over its own rows.

    ``live`` indexes the rows that can choose the hub: those with a combo
    of finite utility.  Only they have combo arrays: ``combo_util``,
    ``vmt_miles`` and ``entry_fraction`` are over the live rows, in
    ``live`` order, and so are a share pass's ``lower`` and ``joint``.
    The constructor takes them over a superset of its live rows (every
    row, for a hand-built setup) and drops the rows with no finite combo
    utility.  Combo utilities are -inf where a leg is missing from the
    matrices.  ``vmt_miles`` (live, k, 2) holds each combo's entry and exit
    leg miles: network miles where the matrices carry them, else
    great-circle miles times the circuity factor.  ``entry_fraction``
    (live, k) is the entry leg's share of the combo's distance, with the
    great-circle miles taken as they are, and 0.5 where both legs total
    0 miles.  Every other array is over all m rows.

    The choice set is the hubs' own: they must share one, and ``layout``
    (``_ComboLayout``) is its map from combos to legs, so ``combos`` is
    ``layout.combos``, the k columns of every (m, k) array.

    ``uni_terms`` is ``unimodal_terms(uni_util)``, gathered by ``prepare_hub``
    from its MarketTable and kept as ``logsum_j`` and ``before``.  The nest
    is evaluated on the live rows alone, from terms gathered once here; the
    other rows take an empty nest's closed form: hub share 0, ``upper``
    equal to ``before``, ``v_hub`` -inf and no surplus gain.  The arrays
    are treated as read-only after construction.
    """

    def __init__(
        self,
        hubs: Sequence[Hub],
        rows: np.ndarray,
        live: np.ndarray,
        segment_codes: np.ndarray,
        trips: np.ndarray,
        drive_miles: np.ndarray,
        uni_util: np.ndarray,
        uni_terms: tuple[np.ndarray, np.ndarray, np.ndarray],
        combo_util: np.ndarray,
        vmt_miles: np.ndarray,
        entry_fraction: np.ndarray,
        beta_cost: np.ndarray,
        *,
        bounds: Sequence[int],
    ):
        self.hubs = tuple(hubs)
        self.layout = _shared_layout(self.hubs)
        self.combos = self.layout.combos
        self.rows = rows
        bounds = tuple(map(int, bounds))
        if len(bounds) != len(self.hubs) + 1 or bounds[0] != 0 or bounds[-1] != len(rows):
            raise ValueError("bounds must run from 0 to the row count, one span per hub")
        self.spans = tuple(zip(bounds[:-1], bounds[1:]))
        self.segment_codes = segment_codes
        self.trips = trips
        self.drive_miles = drive_miles
        self.uni_util = uni_util
        uni_max, self.logsum_j, self.before = uni_terms
        self.beta_cost = beta_cost
        with np.errstate(invalid="ignore"):
            c_max = _row_max(combo_util)
        finite = np.isfinite(c_max)  # rows whose combos all priced to -inf (or NaN) are dead too
        arrays = live, combo_util, vmt_miles, entry_fraction, c_max
        self.live, self.combo_util, self.vmt_miles, self.entry_fraction, self._anchor = (
            arrays if finite.all() else (a[finite] for a in arrays)
        )
        live = self.live
        # C-ordered: each row sums in one order
        self._c_shift = np.subtract(self.combo_util, self._anchor[:, None], order="C")
        self._segments, self._uni_max, self._uni_util = segment_codes[live], uni_max[live], uni_util[live]

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
        hub nest, on the live rows: the nest utility, the shifted exponentials
        and their total, and the within-nest exp(c~/beta) with their sums S."""
        beta = params.beta_hub
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"invalid nesting coefficient: {beta}")
        e_c = np.exp(self._c_shift / beta)
        sum_c = e_c.sum(axis=1)
        asc = np.array([params.asc_by_segment[s] for s in SEGMENTS])[self._segments]
        v_hub = self._anchor + beta * np.log(sum_c) + asc

        m_all = np.maximum(self._uni_max, v_hub)
        e_u = np.exp(self._uni_util - m_all[:, None])
        e_h = np.exp(v_hub - m_all)
        return v_hub, e_u, e_h, e_u.sum(axis=1) + e_h, e_c, sum_c

    def _spread(self, live: np.ndarray, fill) -> np.ndarray:
        """A full-length array of ``fill`` with the live rows' ``live`` in place."""
        out = np.full((self.n_markets, *live.shape[1:]), fill)
        out[self.live] = live
        return out

    def hub_nest_share(self, params) -> np.ndarray:
        """(m,) upper-level probability of the hub nest."""
        _, _, e_h, total, _, _ = self._upper_level(params)
        return self._spread(np.divide(e_h, total, out=e_h), 0.0)

    def hub_nest_share_and_gradient(self, params) -> tuple[np.ndarray, np.ndarray]:
        """(m,) hub nest share s, as ``hub_nest_share`` gives it, and its
        (m, len(HubParams.NAMES)) derivatives with respect to each entry of
        the parameter vector: the hot path for calibration.

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
        grad = np.zeros((self.n_markets, len(HubParams.NAMES)))
        grad[self.live, 0] = slope * d_logsum
        grad[self.live, 1 + self._segments] = slope
        return self._spread(share, 0.0), grad

    def choice_shares(self, params) -> HubShares:
        """Full before/after share arrays for one parameter vector."""
        v_hub, e_u, e_h, total, e_l, sum_l = self._upper_level(params)
        upper = self.before.copy()
        upper[self.live] = np.divide(e_u, total[:, None], out=e_u)
        # logaddexp keeps the logsum gain non-negative in floating point
        cs_gain = np.logaddexp(0.0, v_hub - self.logsum_j[self.live])
        return HubShares(
            before=self.before,
            upper=upper,
            hub=self._spread(np.divide(e_h, total, out=e_h), 0.0),
            live=self.live,
            lower=np.divide(e_l, sum_l[:, None], out=e_l),
            logsum_j=self.logsum_j,
            v_hub=self._spread(v_hub, -np.inf),
            cs_gain_util=self._spread(cs_gain, 0.0),
        )


def _price_legs(
    layout: _ComboLayout,
    taste: Mapping[str, np.ndarray],
    found: list[np.ndarray],
    gcs: np.ndarray,
    matrices: LegMatrices,
    fares: FareTable,
    car_cost_per_mile: float,
    circuity_factor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every leg of ``layout`` over n rows, as (legs, n) blocks: its
    utility (-inf where the matrices lack the leg), its VMT miles and its
    distance weight.  ``found`` holds the rows' store rows per direction,
    as ``LegMatrices.rows`` gives them, and ``gcs`` their (2, n)
    great-circle miles per direction.  Each mode's legs are priced in one
    pass, and the matrices cells gathered here are freed on return."""
    cells = np.empty((len(layout.legs), gcs.shape[1], 5))
    for direction, (_, at) in enumerate(layout.by_direction):
        for leg, rows in zip(at.tolist(), found[direction]):
            np.take(matrices._legs[direction], rows, axis=0, out=cells[leg], mode="clip")
    minutes, access, egress, transfers, miles = cells.transpose(2, 0, 1)
    absent = np.isnan(minutes)
    minutes[absent] = 0.0
    # network miles, else great-circle: times the circuity factor for cost and VMT
    network = ~np.isnan(miles)
    weight = gcs[layout.direction]
    vmt = weight * circuity_factor
    np.copyto(vmt, miles, where=network)
    np.copyto(weight, miles, where=network)
    util = np.empty(minutes.shape)
    for mode, run in layout.runs:
        cost = leg_cost_usd(mode, minutes[run], vmt[run], fares, car_cost_per_mile=car_cost_per_mile)
        util[run] = mode_utility(
            taste,
            mode,
            ivt_min=minutes[run],
            access_min=access[run],
            egress_min=egress[run],
            transfers=transfers[run],
            cost_usd=cost,
        )
    util[absent] = -np.inf
    return util, vmt, weight


def prepare_hub(
    table: MarketTable,
    hubs: Sequence[Hub],
    screen: TripScreen,
    matrices: LegMatrices,
    fares: FareTable,
    *,
    zone_map: np.ndarray | None = None,
    car_cost_per_mile: float = 0.20,
    circuity_factor: float = 1.3,
) -> HubChoiceSetup:
    """Build the evaluation arrays of one stacked setup for ``hubs``, which
    must share one choice set, over their potential markets.

    ``screen`` is ``geo.screen_trips`` of ``table`` against ``hubs``, in
    that order; its (len(hubs), len(table)) ``keep`` mask picks the rows,
    stacked hub by hub, markets in table order, and its great-circle
    distances price the legs that have no network miles.  Legs are priced
    for the rows that can reach a combo alone.  ``zone_map`` is
    ``matrices.zone_codes(table.zone_ids)``, for callers that build many
    setups over one table.
    """
    keep = screen.keep
    if keep.shape != (len(hubs), len(table)):
        raise ValueError(f"mask shape {keep.shape} is not (hubs, markets) = {(len(hubs), len(table))}")
    if len(screen.oh_km) != len(hubs) or len(screen.pair) != len(table):
        raise ValueError("the screen's distances are not of these hubs and markets")
    own, idx = np.nonzero(keep)
    layout = _shared_layout(hubs)

    # Zone codes of the rows' origins (to-hub legs) and destinations
    # (from-hub legs), and the hubs' codes, in the matrices' own coding.
    if zone_map is None:
        zone_map = matrices.zone_codes(table.zone_ids)
    zones = (zone_map[table.o_zone_codes[idx]], zone_map[table.d_zone_codes[idx]])
    hub_codes = matrices.hub_codes([h.id for h in hubs])

    # The live rows, those that can reach a combo: the matrices hold
    # minutes for the entry leg of one of its combos in the to-hub
    # direction and for its exit leg in the from-hub direction, as the
    # pair index's timed modes tell before any leg is looked up.  The live
    # rows' store rows are then looked up per direction, a (modes, rows)
    # block each.
    live = np.flatnonzero(layout.reaches[tuple(matrices.timed_zones(d, hub_codes)[own, zones[d]] for d in (0, 1))])
    found = [matrices.rows(zones[d][live], hub_codes[own[live]], modes) for d, (modes, _) in enumerate(layout.by_direction)]

    # Great-circle miles of the live rows' entry (to-hub) and exit
    # (from-hub) legs, from the screen's cells.
    hub, market = own[live], idx[live]
    pair = screen.pair[market]
    gcs = np.stack((screen.oh_km[hub, pair], screen.hd_km[hub, pair])) * MILES_PER_KM
    # the live rows' taste coefficients price the legs, and are freed after
    taste = {name: col[market] for name, col in table.taste.items()}
    util, vmt, weight = _price_legs(layout, taste, found, gcs, matrices, fares, car_cost_per_mile, circuity_factor)
    del taste

    # Each combo pairs its entry leg with its exit leg, a (k, n) block
    # turned (n, k).  combo_util is copied C-ordered: a row sum over the
    # combos must add in one order.
    entry, exit = layout.column
    combo_util = util[entry]
    combo_util += util[exit]
    combo_util = np.ascontiguousarray(combo_util.T)
    vmt_miles = np.stack((vmt[entry].T, vmt[exit].T), axis=2)
    w_entry = weight[entry]
    total = weight[exit]
    total += w_entry
    entry_fraction = np.full(total.shape, 0.5)  # legs that total 0 miles split evenly
    np.divide(w_entry, total, out=entry_fraction, where=total > 0.0)

    return HubChoiceSetup(
        hubs,
        idx,
        live,
        table.segment_codes[idx],
        table.trips[idx],
        table.drive_miles[idx],
        table.unimodal_utilities()[idx],
        tuple(term[idx] for term in table.uni_terms),
        combo_util,
        vmt_miles,
        entry_fraction.T,
        table.taste["beta_cost"][idx],
        bounds=np.searchsorted(own, np.arange(len(hubs) + 1)),
    )
