"""Distance, detour, and trip-identification tests.

The haversine oracle here goes through 3D chord vectors and atan2, a
different formulation from the implementation's half-angle sine form.
The screen works on distinct OD pairs; it must give the mask, and the
degenerate-pair warning, of the former screen of every market
(``reference_model.trip_mask``).
"""

from __future__ import annotations

import logging
import math
import tracemalloc

import numpy as np
import pytest

from conftest import kept_ids, make_market, random_point
from reference_model import haversine_expr, trip_mask

from hubmodal import (
    EARTH_RADIUS_KM,
    SEGMENTS,
    TASTE_FIELDS,
    DetourRecord,
    GeoPoint,
    MarketTable,
    derive_threshold,
    detour_ratio,
    great_circle_km,
    haversine_km,
    screen_trips,
)
from hubmodal.hubs import ATTR_FIELDS


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


def test_haversine_vectorized_matches_scalar():
    # 20,000 pairs of Albany-area points: squaring with the scalar ``** 2``
    # missed the array branch's last bit on 6 of them
    rng = np.random.default_rng(0)
    n = 20_000
    lat1, lat2 = rng.uniform(42.5, 42.9, (2, n))
    lon1, lon2 = rng.uniform(-73.8, -73.4, (2, n))
    vec = haversine_km(lat1, lon1, lat2, lon2)
    scalar = [great_circle_km(GeoPoint(*a), GeoPoint(*b)) for a, b in zip(zip(lat1, lon1), zip(lat2, lon2))]
    assert [i for i in range(n) if vec[i] != scalar[i]] == []


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


@pytest.mark.parametrize(
    "shapes",
    [((), (), (), ()), ((50,), (50,), (), ()), ((50,), (50,), (7, 1), (7, 1)), ((7, 1), (1,), (50,), (7, 50))],
)
def test_haversine_gives_the_bits_of_its_one_expression_form(rng, shapes):
    args = [rng.uniform(-80.0, 80.0, shape) if shape else float(rng.uniform(-80.0, 80.0)) for shape in shapes]
    got, expected = haversine_km(*args), haversine_expr(*args)
    assert type(got) is type(expected) and np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def _pair_table(o_lat, o_lon, d_lat, d_lon, segments=SEGMENTS) -> MarketTable:
    """One market per OD pair and segment, every pair in each segment;
    driving is the one available mode."""
    pairs, k = len(o_lat), len(segments)
    n = pairs * k
    od_ids = [f"od{i:05d}" for i in range(pairs)] * k
    codes = np.repeat([SEGMENTS.index(seg) for seg in segments], pairs)
    available = np.zeros((n, 6), dtype=bool)
    available[:, 0] = True
    return MarketTable(
        od_ids, codes, *(np.tile(np.asarray(c, dtype=float), k) for c in (o_lat, o_lon, d_lat, d_lon)),
        np.full(n, 10.0), np.full(n, 5.0),
        attrs={f: np.zeros((n, 6)) for f in ATTR_FIELDS}, available=available,
        taste={name: np.full(n, -0.1) for name in TASTE_FIELDS}, o_zones=[""] * n, d_zones=[""] * n,
    )  # fmt: skip


def _random_pairs(rng, pairs: int) -> list[np.ndarray]:
    o_lat, o_lon, d_lat, d_lon = (rng.uniform(-0.08, 0.08, pairs) + c for c in (42.65, -73.75, 42.65, -73.75))
    same = rng.uniform(size=pairs) < 0.1  # degenerate pairs
    d_lat[same], d_lon[same] = o_lat[same], o_lon[same]
    return [o_lat, o_lon, d_lat, d_lon]


@pytest.mark.parametrize("mode", ["literal_hd_1km", "od_plus_1km"])
def test_screen_of_distinct_pairs_gives_the_mask_of_every_market(rng, caplog, mode):
    for trial in range(20):
        pairs = int(rng.integers(1, 40))
        coords = _random_pairs(rng, pairs)
        repeat = rng.integers(0, pairs, int(rng.integers(0, pairs + 1)))  # pairs under a second od_id
        table = _pair_table(*(np.concatenate([c, c[repeat]]) for c in coords), segments=SEGMENTS[: trial % 4 + 1])
        hubs = [random_point(rng) for _ in range(int(rng.integers(0, 6)))]
        args = (table, [h.lat for h in hubs], [h.lon for h in hubs], float(rng.uniform(1.0, 2.0)))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hubmodal.geo"):
            got = screen_trips(*args, condition2_mode=mode).keep
        expected, n_bad = trip_mask(*args, condition2_mode=mode)
        assert got.dtype == bool and got.shape == expected.shape
        assert got.tolist() == expected.tolist()
        warned = [r.getMessage() for r in caplog.records]
        assert warned == ([f"excluded {n_bad} market(s) with degenerate OD pairs"] if n_bad else [])


def test_degenerate_warning_counts_the_markets_of_a_shared_pair(caplog):
    # every segment of one degenerate OD pair is a market of its own
    table = _pair_table([42.65, 42.60], [-73.76, -73.90], [42.65, 42.70], [-73.76, -73.70])
    assert len(table) == 2 * len(SEGMENTS)
    with caplog.at_level(logging.WARNING, logger="hubmodal.geo"):
        (keep,) = screen_trips(table, [42.67], [-73.73], 5.0).keep
    assert [r.getMessage() for r in caplog.records] == [f"excluded {len(SEGMENTS)} market(s) with degenerate OD pairs"]
    assert [table.ids[i] for i in np.flatnonzero(keep)] == [f"od00001|{seg.value}" for seg in sorted(SEGMENTS, key=lambda s: s.value)]


def test_degenerate_warning_is_logged_for_screen_trips(caplog):
    # the warning names the module's logger and the function that warns
    table = _pair_table([42.65], [-73.76], [42.65], [-73.76])
    with caplog.at_level(logging.WARNING, logger="hubmodal.geo"):
        screen_trips(table, [42.67], [-73.73], 5.0)
    assert [(r.name, r.levelname, r.funcName) for r in caplog.records] == [("hubmodal.geo", "WARNING", "screen_trips")]


def test_screen_peak_memory_is_bounded_per_distinct_pair():
    # rank-1k's shape: 100 hubs, 250 OD pairs of 4 segments each
    rng = np.random.default_rng(11)
    table = _pair_table(*_random_pairs(rng, 250), segments=SEGMENTS[:4])
    hub_lat, hub_lon = 42.65 + rng.uniform(-0.1, 0.1, 100), -73.75 + rng.uniform(-0.1, 0.1, 100)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        keep = screen_trips(table, hub_lat, hub_lon, 1.3).keep
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert keep.shape == (100, 1000)
    # 60 bytes a (hub, distinct pair) cell and the mask's byte a (hub, market)
    assert peak <= 60 * 100 * 250 + keep.size


def test_screen_holds_at_most_three_float_arrays_of_its_cells():
    # 100 hubs against 1,250 distinct OD pairs, one market each: the
    # distances of one (hub, pair) cell take 8 bytes an array.  The screen
    # keeps its two distance arrays and at its peak builds the third (the
    # haversine's second term, or the detour sum), beside a few byte masks
    # over the same cells.  Four float arrays at once, as a haversine with
    # out-of-place terms holds, exceed the bound.
    rng = np.random.default_rng(11)
    table = _pair_table(*_random_pairs(rng, 1250), segments=SEGMENTS[:1])
    hub_lat, hub_lon = 42.65 + rng.uniform(-0.1, 0.1, 100), -73.75 + rng.uniform(-0.1, 0.1, 100)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        keep = screen_trips(table, hub_lat, hub_lon, 1.3).keep
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    cells = 100 * 1250
    assert keep.shape == (100, 1250)
    assert peak <= (3 * 8 + 4) * cells
