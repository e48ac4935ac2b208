"""Great-circle geometry, detour ratios, and the potential-trip screen.

A trip can plausibly divert through a hub when the detour it causes is
small.  The detour of routing origin -> hub -> destination is summarized
by the ratio (OH + HD) / OD of great-circle distances.  A population of
surveyed hub users pins down how much detour real users accept; the 90th
percentile of their ratios becomes the inclusion threshold with which
``potential_trip_mask`` screens a whole MarketTable against many hubs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .hubs import MarketTable

logger = logging.getLogger(__name__)

# IUGG mean Earth radius.
EARTH_RADIUS_KM = 6371.0088
MILES_PER_KM = 1.0 / 1.609344

CONDITION2_MODES = ("literal_hd_1km", "od_plus_1km")


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 coordinate pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"invalid coordinate: ({self.lat}, {self.lon})")
        if not (-90.0 <= self.lat <= 90.0 and -180.0 <= self.lon <= 180.0):
            raise ValueError(f"invalid coordinate: ({self.lat}, {self.lon})")


@dataclass(frozen=True)
class DetourRecord:
    """Distances and detour ratio for one surveyed hub trip."""

    od_km: float
    oh_km: float
    hd_km: float
    ratio: float


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km; accepts scalars or numpy arrays."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=float)) for x in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return EARTH_RADIUS_KM * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


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


def potential_trip_mask(
    table: MarketTable,
    hub_lat: Sequence[float],
    hub_lon: Sequence[float],
    threshold: float,
    *,
    condition2_mode: str = "literal_hd_1km",
    condition2_km: float = 1.0,
) -> np.ndarray:
    """(hubs, markets) mask of the rows of ``table`` whose trips could
    plausibly divert through each hub, markets in table order, which is
    market-id order.  Each True row of the mask is one potential trip
    market of that hub; ``prepare_hub`` takes the mask as it is.

    A market qualifies when OH + HD < threshold * OD, or under the short
    final-leg condition: HD < condition2_km ("literal_hd_1km" mode) or
    OH + HD < OD + condition2_km ("od_plus_1km" mode).  Markets with a
    degenerate OD pair are excluded, with one logged warning per call.
    """
    if not threshold >= 1.0:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if condition2_mode not in CONDITION2_MODES:
        raise ValueError(f"unknown condition2_mode: {condition2_mode!r}")
    o_lat, o_lon, d_lat, d_lon = table.o_lat, table.o_lon, table.d_lat, table.d_lon
    lat = np.asarray(hub_lat, dtype=float)[:, None]
    lon = np.asarray(hub_lon, dtype=float)[:, None]
    od = haversine_km(o_lat, o_lon, d_lat, d_lon)
    oh = haversine_km(o_lat, o_lon, lat, lon)
    hd = haversine_km(lat, lon, d_lat, d_lon)

    degenerate = od <= 0.0
    n_bad = int(degenerate.sum())
    if n_bad:
        logger.warning("excluded %d market(s) with degenerate OD pairs", n_bad)

    cond1 = (oh + hd) < threshold * od
    if condition2_mode == "literal_hd_1km":
        cond2 = hd < condition2_km
    else:
        cond2 = (oh + hd) < od + condition2_km
    return (cond1 | cond2) & ~degenerate
