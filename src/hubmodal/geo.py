"""Great-circle geometry, detour ratios, and the potential-trip screen.

A trip can plausibly divert through a hub when the detour it causes is
small.  The detour of routing origin -> hub -> destination is summarized
by the ratio (OH + HD) / OD of great-circle distances.  A population of
surveyed hub users pins down how much detour real users accept; the 90th
percentile of their ratios becomes the inclusion threshold with which
``screen_trips`` screens a whole MarketTable against many hubs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import _warn
from .records import record

if TYPE_CHECKING:
    from .hubs import MarketTable

# IUGG mean Earth radius.
EARTH_RADIUS_KM = 6371.0088
MILES_PER_KM = 1.0 / 1.609344

CONDITION2_MODES = ("literal_hd_1km", "od_plus_1km")


@record(frozen=True)
class GeoPoint:
    """A WGS84 coordinate pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"invalid coordinate: ({self.lat}, {self.lon})")
        if not (-90.0 <= self.lat <= 90.0 and -180.0 <= self.lon <= 180.0):
            raise ValueError(f"invalid coordinate: ({self.lat}, {self.lon})")


@record(frozen=True)
class DetourRecord:
    """Distances and detour ratio for one surveyed hub trip."""

    od_km: float
    oh_km: float
    hd_km: float
    ratio: float


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km; accepts scalars or numpy arrays.  Over
    arrays the terms are built in place, so at most two arrays of the
    output's shape are alive at once; each operation is the plain
    formula's, on the same operands, so the bits are those of
    2R asin(sqrt(clip(sin^2(dlat/2) + cos lat1 cos lat2 sin^2(dlon/2)))),
    which scalars take as written."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=float)) for x in (lat1, lon1, lat2, lon2))
    shape = np.broadcast(lat1, lon1, lat2, lon2).shape
    if not shape:  # scalars: numpy's scalar math, in the same operations
        a = np.square(np.sin((lat2 - lat1) / 2.0)) + np.cos(lat1) * np.cos(lat2) * np.square(np.sin((lon2 - lon1) / 2.0))
        return EARTH_RADIUS_KM * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    # cos lat1 cos lat2 sin^2(dlon / 2)
    term = np.multiply(np.cos(lat1), np.cos(lat2), out=np.empty(shape))
    a = np.subtract(lon2, lon1, out=np.empty(shape))
    a /= 2.0
    np.sin(a, out=a)
    np.square(a, out=a)
    term *= a
    # sin^2(dlat / 2) + that term
    np.subtract(lat2, lat1, out=a)
    a /= 2.0
    np.sin(a, out=a)
    np.square(a, out=a)
    a += term
    del term
    np.clip(a, 0.0, 1.0, out=a)
    np.sqrt(a, out=a)
    np.arcsin(a, out=a)
    a *= EARTH_RADIUS_KM * 2.0
    return a[()]


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in km."""
    return float(haversine_km(a.lat, a.lon, b.lat, b.lon))


def detour_ratio(origin: GeoPoint, destination: GeoPoint, hub: GeoPoint) -> DetourRecord:
    """Detour of routing origin -> hub -> destination relative to the direct trip.

    Raises ValueError for a degenerate OD pair (zero direct distance).
    """
    od = great_circle_km(origin, destination)
    if od <= 0.0:
        raise ValueError("degenerate OD pair: origin equals destination")
    oh = great_circle_km(origin, hub)
    hd = great_circle_km(hub, destination)
    return DetourRecord(od_km=od, oh_km=oh, hd_km=hd, ratio=(oh + hd) / od)


def derive_threshold(records: Sequence[DetourRecord]) -> float:
    """Nearest-rank 90th percentile of surveyed detour ratios.

    The returned value is always one of the observed ratios (1-based index
    ceil(0.9 n) of the ascending sort, computed with integer arithmetic).
    """
    if not records:
        raise ValueError("no detour records")
    ratios = sorted(r.ratio for r in records)
    n = len(ratios)
    idx = -((-9 * n) // 10)  # ceil(0.9 n) without float error
    return ratios[idx - 1]


class TripScreen:
    """One detour screen of a MarketTable against many hubs: its verdicts
    and the distances it judged them by.

    ``keep`` is the (hubs, markets) mask of potential trips, markets in
    table order.  ``pair`` gives each market's distinct OD pair, and
    ``oh_km`` and ``hd_km`` are the (hubs, pairs) great-circle km from each
    pair's origin to each hub and from each hub to the pair's destination,
    for every cell, whatever its verdict.  ``prepare_hub`` prices its legs
    from these distances, so a caller that wants other markets than the
    screen kept replaces the mask (``with_keep``), never the distances.
    """

    __slots__ = ("keep", "pair", "oh_km", "hd_km")

    def __init__(self, keep: np.ndarray, pair: np.ndarray, oh_km: np.ndarray, hd_km: np.ndarray):
        self.keep, self.pair, self.oh_km, self.hd_km = keep, pair, oh_km, hd_km

    def __getitem__(self, hubs) -> TripScreen:
        """The screen of the hubs selected by ``hubs`` (a slice or an index
        array) alone, in that order."""
        return TripScreen(self.keep[hubs], self.pair, self.oh_km[hubs], self.hd_km[hubs])

    def with_keep(self, keep: np.ndarray) -> TripScreen:
        """This screen with ``keep``, a (hubs, markets) mask, in place of
        its verdicts."""
        return TripScreen(keep, self.pair, self.oh_km, self.hd_km)


def screen_trips(
    table: MarketTable,
    hub_lat: Sequence[float],
    hub_lon: Sequence[float],
    threshold: float,
    *,
    condition2_mode: str = "literal_hd_1km",
    condition2_km: float = 1.0,
) -> TripScreen:
    """Screen every row of ``table`` against every hub: which markets'
    trips could plausibly divert through each hub, as a TripScreen whose
    ``keep`` row of a hub marks that hub's potential trip markets.

    A market qualifies when OH + HD < threshold * OD, or under the short
    final-leg condition: HD < condition2_km ("literal_hd_1km" mode) or
    OH + HD < OD + condition2_km ("od_plus_1km" mode).  Markets with a
    degenerate OD pair are excluded, with one logged warning per call
    that counts them.  Each distinct OD pair is screened once and its
    verdict copied to its markets, so the float arrays scale with
    hubs x distinct pairs, not hubs x markets.
    """
    if not threshold >= 1.0:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if condition2_mode not in CONDITION2_MODES:
        raise ValueError(f"unknown condition2_mode: {condition2_mode!r}")
    # The segments of one OD pair share its coordinates: screen each
    # distinct (o_lat, o_lon, d_lat, d_lon), compared by bits, once.
    coords = np.stack([table.o_lat, table.o_lon, table.d_lat, table.d_lon], axis=1)
    _, first, pair = np.unique(coords.view(np.uint64), axis=0, return_index=True, return_inverse=True)
    o_lat, o_lon, d_lat, d_lon = coords[first].T
    lat = np.asarray(hub_lat, dtype=float)[:, None]
    lon = np.asarray(hub_lon, dtype=float)[:, None]
    od = haversine_km(o_lat, o_lon, d_lat, d_lon)
    degenerate = od <= 0.0
    n_bad = int(np.count_nonzero(degenerate[pair]))
    if n_bad:
        _warn(__name__, "excluded %d market(s) with degenerate OD pairs", n_bad)

    oh = haversine_km(o_lat, o_lon, lat, lon)
    hd = haversine_km(lat, lon, d_lat, d_lon)
    detour = oh + hd
    keep = detour < threshold * od
    keep |= hd < condition2_km if condition2_mode == "literal_hd_1km" else detour < od + condition2_km
    keep &= ~degenerate
    return TripScreen(keep[:, pair], pair, oh, hd)
