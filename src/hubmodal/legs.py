"""The zone-to-hub leg store and the fares that price its legs.

Leg times come from zone-to-hub matrices keyed by (zone, hub, leg mode),
held as one LegMatrices store; a missing entry makes a combo that uses
the leg unavailable for that market, it is never zero-filled.  Leg costs
follow the service fare rules: flat bus fare, hourly car-share rate, a
step-function bike-share schedule, per-mile car cost, walking free.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Iterator, Sequence

import numpy as np

from .choice import _LEG_MODE_CODE, LEG_MODE_ORDER, Mode
from .records import record

# ----------------------------------------------------------------------
# fares
# ----------------------------------------------------------------------

_INF = float("inf")


@record(frozen=True)
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


@record(frozen=True)
class LegTimes:
    """Travel attributes of one leg direction.  Non-bus legs only use
    minutes; miles is the optional network distance."""

    minutes: float
    access_min: float = 0.0
    egress_min: float = 0.0
    transfers: float = 0.0
    miles: float | None = None


# _MODE_OFFSET[code][bits]: where a (zone, hub) pair holds the modes set in
# ``bits``, how many of them come before mode ``code`` in its run of rows,
# or -1 when it lacks that mode.  Its last row, code len(LEG_MODE_ORDER),
# is -1 throughout: the code of any mode that is not a leg mode.
_MODE_OFFSET = np.array(
    [
        [bin(bits & ((1 << code) - 1)).count("1") if bits >> code & 1 else -1 for bits in range(1 << len(LEG_MODE_ORDER))]
        for code in range(len(LEG_MODE_ORDER) + 1)
    ],
    dtype=np.int64,
)


# _POPCOUNT[bits]: how many bits ``bits`` sets, which is how many rows a
# (zone, hub) pair with those mode bits holds.
_POPCOUNT = np.array([bin(bits).count("1") for bits in range(256)], dtype=np.uint8)

# Rows of the key that _pair_index decodes, and pairs of the index that
# _first_rows counts, at a time.  Either holds only a few block-length
# arrays (the largest int64, 16 KiB) whatever the store's length, so the
# checks of a sidecar hit stay within 64 KiB of working memory.
_INDEX_BLOCK = 2048


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


def _pair_index(key: np.ndarray, legs: np.ndarray, pairs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair index of a store of ``pairs`` (zone, hub) pairs whose rows
    have the strictly increasing ``key`` and the leg block ``legs``: each
    pair's first row (int32), the bitmask of its modes (bit ``code``,
    uint8) and each direction's bitmask of the modes whose minutes are not
    NaN, plus an empty last entry whose first row is the row count.  A pair
    with no rows has the first row the next pair would have.

    The key is read in blocks of _INDEX_BLOCK rows, decoded to an int32
    pair and a uint8 mode code, so no temporary is as long as the key."""
    bits = np.zeros(pairs + 1, dtype=np.uint8)
    timed = np.zeros((2, pairs + 1), dtype=np.uint8)
    for start in range(0, len(key), _INDEX_BLOCK):
        block = key[start : start + _INDEX_BLOCK]
        pair = (block // len(LEG_MODE_ORDER)).astype(np.int32)
        mode_bit = np.left_shift(np.uint8(1), (block - pair * len(LEG_MODE_ORDER)).astype(np.uint8))
        # each key is distinct, so a pair's mode bits are each added once
        np.add.at(bits, pair, mode_bit)
        for d in (0, 1):  # and those of the rows with minutes that way
            np.add.at(timed[d], pair, mode_bit * ~np.isnan(legs[d, start : start + len(block), 0]))
    first = np.empty(pairs + 1, dtype=np.int32)
    for start, rows in _first_rows(bits):
        first[start : start + len(rows)] = rows
    return first, bits, timed


def _first_rows(bits: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(start, rows) for each block of _INDEX_BLOCK pairs of the mode
    bitmasks ``bits``: the block's first pair, and for each of its pairs
    the count (int64) of the rows that the pairs before it hold, which is
    its first row."""
    total = 0
    for start in range(0, len(bits), _INDEX_BLOCK):
        counts = _POPCOUNT[bits[start : start + _INDEX_BLOCK]]
        rows = np.cumsum(counts, dtype=np.int64)
        rows += total
        total = int(rows[-1])
        rows -= counts
        yield start, rows


class LegMatrices:
    """Zone-to-hub leg store: one row per (zone, hub, leg mode), held as a
    pair index and a leg block.

    ``zone_ids`` and ``hub_ids`` are sorted.  The rows are sorted by
    (zone, hub, mode name).  ``legs[0]`` and ``legs[1]`` are their to-hub
    and from-hub (n, 5) blocks of minutes, access, egress, transfers and
    miles.  NaN minutes means the direction is absent, NaN miles that no
    network distance is known.

    The pair index is the store's one row directory: for each (zone, hub)
    pair, zone * len(hub_ids) + hub, its first row (int32), the bitmask of
    the leg modes it holds (bit ``code`` for LEG_MODE_ORDER[code], uint8)
    and each direction's bitmask of those whose minutes are not NaN (uint8
    each), 7 bytes a pair, plus an empty last entry that code -1 reads.  A
    pair's rows are its modes in code order, from its first row on.  Each
    row's ``key``, (zone * len(hub_ids) + hub) * len(LEG_MODE_ORDER) +
    mode, and its ``zone``, ``hub`` and ``mode`` codes are derived from the
    index when asked for; no lookup reads them.

    The constructor takes rows column-wise: ``zone``/``hub`` codes into
    ``zone_ids``/``hub_ids`` (in any order, repeats allowed), ``mode``
    codes into LEG_MODE_ORDER, and ``legs`` of shape (2, n, 5).  A later
    row replaces an earlier one with the same key.  A float64 ``legs``
    with rows to spare past the n given becomes the store's block: rows
    that arrive in strictly increasing key order are kept where they are,
    others are sorted in place, and the first spare row becomes the
    sentinel, an all-NaN leg that absent rows read.  Any other ``legs`` is
    copied.  The constructor builds the index from the rows' keys, then
    drops the keys.  The store is complete once built; lookups never
    change it.
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
        key = zone_rank[_int_codes(zone)]
        key *= len(self.hub_ids)
        key += hub_rank[_int_codes(hub)]
        key *= len(LEG_MODE_ORDER)
        key += _int_codes(mode)
        if (key[1:] <= key[:-1]).any():
            n = _sort_rows(key, legs, n)
        pairs = len(self.zone_ids) * len(self.hub_ids)
        self._adopt(legs[:, : n + 1], *_pair_index(key[:n], legs, pairs))

    @classmethod
    def from_store(cls, zone_ids: Sequence[str], hub_ids: Sequence[str], first, bits, timed, legs):
        """The store another store held: its sorted ids, then its
        ``arrays``, adopted without a copy or a rebuild.  Raises ValueError
        when they do not make a store.  The checks read the index a block
        of _INDEX_BLOCK pairs at a time."""
        self = cls.__new__(cls)
        self.zone_ids, self.hub_ids = tuple(zone_ids), tuple(hub_ids)
        for ids in (self.zone_ids, self.hub_ids):
            if any(a >= b for a, b in zip(ids, ids[1:])):
                raise ValueError("ids are not sorted and distinct")
        entries = (len(self.zone_ids) * len(self.hub_ids) + 1,)
        index = [(a.dtype, a.shape) for a in (first, bits, timed)]
        if index != [(np.int32, entries), (np.uint8, entries), (np.uint8, (2, *entries))] or legs.dtype != np.float64:
            raise ValueError("the pair index and the leg block do not match")
        if bits[-1] or timed[:, -1].any():
            raise ValueError("the pair index's last entry is not empty")
        for start, rows in _first_rows(bits):
            pairs = slice(start, start + len(rows))
            if (bits[pairs] >> len(LEG_MODE_ORDER)).any() or (timed[:, pairs] & ~bits[pairs]).any():
                raise ValueError("a pair times a mode that is not one of its leg modes")
            if (first[pairs] != rows).any():
                raise ValueError("a pair's first row is not the count of the rows before it")
        # the last entry's first row, checked above, is the row count
        if legs.shape != (2, int(first[-1]) + 1, 5):
            raise ValueError("the leg block does not hold the pair index's rows")
        self._adopt(legs, first, bits, timed)
        return self

    def _adopt(self, legs: np.ndarray, first: np.ndarray, bits: np.ndarray, timed: np.ndarray) -> None:
        """Hold ``legs``, whose last row becomes the sentinel, and the pair
        index ``first``, ``bits`` and ``timed``."""
        legs[:, -1] = np.nan
        self._legs, self.legs = legs, legs[:, :-1]
        self._first, self._bits, self._timed = first, bits, timed
        self._zone_code = {z: i for i, z in enumerate(self.zone_ids)}
        self._hub_code = {h: i for i, h in enumerate(self.hub_ids)}

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What ``from_store`` adopts after the ids: the pair index's
        ``first``, ``bits`` and ``timed``, and the leg block with the
        sentinel row."""
        return self._first, self._bits, self._timed, self._legs

    @property
    def key(self) -> np.ndarray:
        """Each row's key, strictly increasing, derived from the pair index."""
        return np.flatnonzero(self._bits[:-1, None] >> np.arange(len(LEG_MODE_ORDER), dtype=np.uint8) & 1)

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
        return self.legs.shape[1]

    @property
    def entries(self) -> Mapping[tuple[str, str, Mode], tuple[LegTimes | None, LegTimes | None]]:
        """Read-only view of the rows as (zone, hub, mode) -> (to-hub, from-hub)."""
        return _LegEntries(self)

    def zone_codes(self, zone_ids: Sequence[str]) -> np.ndarray:
        """This store's code for each zone id, -1 where it has none."""
        return _codes(self._zone_code, zone_ids)

    def hub_codes(self, hub_ids: Sequence[str]) -> np.ndarray:
        """This store's code for each hub id, -1 where it has none."""
        return _codes(self._hub_code, hub_ids)

    def rows(self, zones: np.ndarray, hubs: np.ndarray, modes: Sequence[Mode]) -> np.ndarray:
        """(len(modes), len(zones)) row of each (zone code, hub code) pair,
        for each of ``modes`` in turn; ``len(self)`` where the store has no
        such row (and for code -1).

        Each pair's first row and mode bits are gathered once from the
        pair index; a mode's row is then that first row plus the count of
        the pair's modes that sort before it."""
        # Code -1 reads the index's empty last entry.
        pair = np.where((zones < 0) | (hubs < 0), len(self._bits) - 1, zones * len(self.hub_ids) + hubs)
        first, bits = self._first[pair], self._bits[pair]
        codes = np.array([_LEG_MODE_CODE.get(mode, len(LEG_MODE_ORDER)) for mode in modes], dtype=np.intp)
        offset = _MODE_OFFSET[codes].take(bits, axis=1)
        return np.where(offset >= 0, first + offset, len(self))

    def timed_zones(self, direction: int, hubs: np.ndarray) -> np.ndarray:
        """(len(hubs), len(zone_ids) + 1): the bitmask (bit ``code``,
        uint8) of the leg modes whose minutes in ``direction`` (0 to the
        hub, 1 from it) the store holds for each (zone code, hub code) pair,
        for each of the hub codes ``hubs`` and every zone code.  A row with
        NaN minutes in that direction does not count.  The last column,
        which zone code -1 reads, and the rows of hub code -1 are 0."""
        out = np.zeros((len(hubs), len(self.zone_ids) + 1), dtype=np.uint8)
        out[hubs >= 0, :-1] = self._timed[direction, :-1].reshape(len(self.zone_ids), len(self.hub_ids))[:, hubs[hubs >= 0]].T
        return out

    def _row(self, zone_id: str, hub_id: str, mode: Mode) -> int:
        return int(self.rows(self.zone_codes([zone_id]), self.hub_codes([hub_id]), [mode])[0, 0])


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
