"""Distance, detour, and trip-identification tests.

The haversine oracle here goes through 3D chord vectors and atan2, a
different formulation from the implementation's half-angle sine form.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import kept_ids, make_market, random_point

from hubmodal import (
    EARTH_RADIUS_KM,
    DetourRecord,
    GeoPoint,
    derive_threshold,
    detour_ratio,
    great_circle_km,
    haversine_km,
)


def oracle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance via unit vectors and atan2(|u x v|, u.v)."""

    def unit(p: GeoPoint) -> np.ndarray:
        lat, lon = math.radians(p.lat), math.radians(p.lon)
        return np.array(
            [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
        )

    u, v = unit(a), unit(b)
    angle = math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))
    return EARTH_RADIUS_KM * angle


ALBANY = GeoPoint(lat=42.6526, lon=-73.7562)
COHOES = GeoPoint(lat=42.7762, lon=-73.7002)


def test_known_pair_against_oracle():
    d = great_circle_km(ALBANY, COHOES)
    assert abs(d - oracle_km(ALBANY, COHOES)) < 1e-3  # within a metre
    assert 14.0 < d < 15.0


def test_antipodal_distance_is_half_circumference():
    a = GeoPoint(lat=0.0, lon=0.0)
    b = GeoPoint(lat=0.0, lon=180.0)
    assert abs(great_circle_km(a, b) - math.pi * EARTH_RADIUS_KM) < 0.1


def test_zero_distance_for_identical_points():
    assert great_circle_km(ALBANY, ALBANY) == 0.0


def test_distance_matches_oracle_on_random_points(rng):
    for _ in range(300):
        a = GeoPoint(lat=float(rng.uniform(-80, 80)), lon=float(rng.uniform(-180, 180)))
        b = GeoPoint(lat=float(rng.uniform(-80, 80)), lon=float(rng.uniform(-180, 180)))
        assert great_circle_km(a, b) == pytest.approx(oracle_km(a, b), abs=1e-3)


def test_distance_symmetry_and_triangle_inequality(rng):
    for _ in range(200):
        a, b, c = (random_point(rng, spread=20.0) for _ in range(3))
        ab = great_circle_km(a, b)
        assert ab == great_circle_km(b, a)
        assert ab <= great_circle_km(a, c) + great_circle_km(c, b) + 1e-9


def test_haversine_vectorized_matches_scalar(rng):
    lats = rng.uniform(-70, 70, size=50)
    lons = rng.uniform(-170, 170, size=50)
    vec = haversine_km(lats, lons, 10.0, 20.0)
    for i in range(50):
        assert vec[i] == great_circle_km(GeoPoint(lats[i], lons[i]), GeoPoint(10.0, 20.0))


def test_detour_ratio_via_midpoint_is_one():
    o = GeoPoint(lat=0.0, lon=0.0)
    d = GeoPoint(lat=0.0, lon=1.0)
    h = GeoPoint(lat=0.0, lon=0.5)  # on the direct path
    rec = detour_ratio(o, d, h)
    assert rec.ratio == pytest.approx(1.0, abs=1e-9)
    assert rec.od_km == pytest.approx(rec.oh_km + rec.hd_km, rel=1e-12)


def test_detour_ratio_hub_at_origin_is_exactly_one():
    o = GeoPoint(lat=42.0, lon=-73.0)
    d = GeoPoint(lat=42.1, lon=-73.2)
    rec = detour_ratio(o, d, o)
    assert rec.oh_km == 0.0
    assert rec.ratio == 1.0


def test_detour_ratio_never_below_one(rng):
    for _ in range(300):
        o, d, h = (random_point(rng, spread=0.5) for _ in range(3))
        if great_circle_km(o, d) <= 0.0:
            continue
        assert detour_ratio(o, d, h).ratio >= 1.0 - 1e-12


def test_detour_ratio_rejects_degenerate_od():
    p = GeoPoint(lat=42.0, lon=-73.0)
    with pytest.raises(ValueError, match="degenerate"):
        detour_ratio(p, p, GeoPoint(lat=42.1, lon=-73.1))


def _records(ratios):
    return [DetourRecord(od_km=1.0, oh_km=r, hd_km=0.0, ratio=r) for r in ratios]


def test_threshold_nearest_rank_example():
    # ten ratios 1.0 .. 1.9; ceil(0.9 * 10) = 9 -> ninth smallest
    ratios = [1.0 + 0.1 * i for i in range(10)]
    assert derive_threshold(_records(ratios)) == pytest.approx(1.8)


def test_threshold_is_an_observed_value(rng):
    for _ in range(100):
        ratios = list(1.0 + rng.exponential(0.4, size=int(rng.integers(1, 40))))
        thr = derive_threshold(_records(ratios))
        assert any(math.isclose(thr, r) for r in ratios)


def test_threshold_constant_list():
    assert derive_threshold(_records([1.3] * 7)) == 1.3


def test_threshold_single_record():
    assert derive_threshold(_records([1.45])) == 1.45


def test_threshold_order_invariant(rng):
    ratios = list(1.0 + rng.exponential(0.4, size=23))
    forward = derive_threshold(_records(ratios))
    shuffled = list(ratios)
    rng.shuffle(shuffled)
    assert derive_threshold(_records(shuffled)) == forward


def test_threshold_empty_raises():
    with pytest.raises(ValueError):
        derive_threshold([])


def test_threshold_monotone_in_fraction_covered(rng):
    # p90 of a superset containing larger values never decreases
    base = list(1.0 + rng.exponential(0.3, size=30))
    low = derive_threshold(_records(base))
    high = derive_threshold(_records(base + [max(base) + 1.0] * 30))
    assert high >= low


def brute_force_identify(markets, hub, threshold, cond2_km=1.0):
    keep = []
    for m in markets:
        od = great_circle_km(m.origin, m.destination)
        if od <= 0.0:
            continue
        oh = great_circle_km(m.origin, hub)
        hd = great_circle_km(hub, m.destination)
        if oh + hd < threshold * od or hd < cond2_km:
            keep.append(m.market_id)
    return sorted(keep)


def test_identify_matches_brute_force(rng):
    hub = GeoPoint(lat=42.65, lon=-73.75)
    for trial in range(40):
        markets = [
            make_market(
                od_id=f"od{i}",
                o=(random_point(rng).lat, random_point(rng).lon),
                d=(random_point(rng).lat, random_point(rng).lon),
            )
            for i in range(25)
        ]
        threshold = 1.0 + float(rng.uniform(0.0, 1.0))
        got = kept_ids(markets, hub, threshold)
        assert got == brute_force_identify(markets, hub, threshold)


def test_identify_short_final_leg_condition():
    # awkward detour but hub within 1 km of the destination
    o = (42.60, -73.90)
    d = (42.60, -73.60)
    hub = GeoPoint(lat=42.605, lon=-73.60)
    m = make_market(od_id="near", o=o, d=d)
    assert great_circle_km(hub, m.destination) < 1.0
    assert kept_ids([m], hub, 1.0) == ["near|low_income"]


def test_identify_od_plus_mode_differs_from_literal():
    # hub slightly off the midpoint: detour excess under 1 km, but the
    # final leg is ~4 km, so only the od_plus variant accepts it
    o = GeoPoint(lat=42.60, lon=-73.90)
    d = GeoPoint(lat=42.60, lon=-73.80)
    hub = GeoPoint(lat=42.603, lon=-73.85)
    m = make_market(od_id="mid", o=(o.lat, o.lon), d=(d.lat, d.lon))
    od = great_circle_km(o, d)
    oh = great_circle_km(o, hub)
    hd = great_circle_km(hub, d)
    assert hd > 1.0 and od < oh + hd < od + 1.0
    assert kept_ids([m], hub, 1.0) == []
    assert kept_ids([m], hub, 1.0, condition2_mode="od_plus_1km") == [
        "mid|low_income"
    ]


def test_identify_monotone_in_threshold(rng):
    hub = GeoPoint(lat=42.65, lon=-73.75)
    markets = [
        make_market(
            od_id=f"od{i}",
            o=(random_point(rng).lat, random_point(rng).lon),
            d=(random_point(rng).lat, random_point(rng).lon),
        )
        for i in range(60)
    ]
    prev: set[str] = set()
    for threshold in np.linspace(1.0, 3.0, 21):
        got = set(kept_ids(markets, hub, float(threshold)))
        assert prev <= got  # relaxing the threshold only adds markets
        prev = got


def test_identify_empty_markets():
    assert kept_ids([], GeoPoint(42.0, -73.0), 1.5) == []


def test_identify_rejects_threshold_below_one():
    with pytest.raises(ValueError, match="threshold"):
        kept_ids([], GeoPoint(42.0, -73.0), 0.9)


def test_identify_rejects_unknown_condition2_mode():
    with pytest.raises(ValueError, match="condition2_mode"):
        kept_ids([], GeoPoint(42.0, -73.0), 1.5, condition2_mode="bogus")


def test_identify_skips_degenerate_markets():
    good = make_market(od_id="ok")
    bad = make_market(od_id="dg", o=(42.65, -73.76), d=(42.65, -73.76))
    hub = GeoPoint(lat=42.67, lon=-73.73)
    got = kept_ids([good, bad], hub, 5.0)
    assert "dg|low_income" not in got
