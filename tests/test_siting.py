"""Candidate generation, scoring, and ranking tests.

Clustering is verified against a brute-force BFS over the pairwise
distance graph, and against the former stop-by-stop loop
(``reference_model.cluster_stops``) at any distance block size;
candidate scores are verified against the single-hub impact pipeline run
by hand.
"""

from __future__ import annotations

import collections
import copy
import weakref

import numpy as np
import pytest

import hubmodal.siting as siting
import reference_model
from conftest import OFF_DEFAULTS, full_matrices, make_market, make_params, random_point, random_taste, simple_fares
from reference_model import add_leg, table_from_markets

from hubmodal import (
    CAR_SHARE_PROFILE_COMBOS,
    STANDARD_PROFILE_COMBOS,
    Candidate,
    CandidateMetrics,
    EmissionFactor,
    GeoPoint,
    MAIN_MODES,
    MILES_PER_KM,
    HubChoiceSetup,
    LegMatrices,
    Mode,
    PipelineConfig,
    Segment,
    StopRecord,
    assess_hubs,
    assign_services,
    candidate_hub,
    cluster_stops,
    evaluate_candidates,
    great_circle_km,
    haversine_km,
    prepare_hub,
    rank_and_summarize,
    screen_trips,
)
from hubmodal.choice import LEG_MODE_ORDER

CENTER = GeoPoint(lat=42.652, lon=-73.757)


def offset_m(base: GeoPoint, north_m: float, east_m: float) -> GeoPoint:
    lat = base.lat + north_m / 111320.0
    lon = base.lon + east_m / (111320.0 * np.cos(np.radians(base.lat)))
    return GeoPoint(lat=lat, lon=lon)


def test_two_stops_150m_apart_merge():
    stops = [
        StopRecord("s1", CENTER),
        StopRecord("s2", offset_m(CENTER, 150.0, 0.0)),
    ]
    got = cluster_stops(stops, radius_m=200.0)
    assert len(got) == 1
    assert got[0].member_stop_ids == ("s1", "s2")
    assert got[0].candidate_id == "c-s1"


def test_two_stops_250m_apart_stay_separate():
    stops = [
        StopRecord("s1", CENTER),
        StopRecord("s2", offset_m(CENTER, 250.0, 0.0)),
    ]
    got = cluster_stops(stops, radius_m=200.0)
    assert [c.candidate_id for c in got] == ["c-s1", "c-s2"]
    assert all(len(c.member_stop_ids) == 1 for c in got)


def test_chain_merging_is_single_linkage():
    # s1-s2 and s2-s3 are each within range, s1-s3 is not; all three merge
    stops = [
        StopRecord("s1", CENTER),
        StopRecord("s2", offset_m(CENTER, 180.0, 0.0)),
        StopRecord("s3", offset_m(CENTER, 360.0, 0.0)),
    ]
    got = cluster_stops(stops, radius_m=200.0)
    assert len(got) == 1
    assert got[0].member_stop_ids == ("s1", "s2", "s3")


def test_cluster_centroid_is_member_mean():
    a = CENTER
    b = offset_m(CENTER, 100.0, 60.0)
    got = cluster_stops([StopRecord("a", a), StopRecord("b", b)], radius_m=200.0)
    assert got[0].location.lat == pytest.approx((a.lat + b.lat) / 2)
    assert got[0].location.lon == pytest.approx((a.lon + b.lon) / 2)


def brute_force_components(stops, radius_m):
    n = len(stops)
    adj = collections.defaultdict(list)
    for i in range(n):
        for j in range(i + 1, n):
            if great_circle_km(stops[i].location, stops[j].location) * 1000.0 <= radius_m:
                adj[i].append(j)
                adj[j].append(i)
    seen = set()
    comps = []
    for i in range(n):
        if i in seen:
            continue
        queue, comp = [i], set()
        while queue:
            k = queue.pop()
            if k in comp:
                continue
            comp.add(k)
            queue.extend(adj[k])
        seen |= comp
        comps.append(frozenset(stops[k].stop_id for k in comp))
    return set(comps)


def test_clustering_matches_bfs_components(rng):
    stops = _scattered_stops(rng)
    for radius in (80.0, 150.0, 300.0):
        got = cluster_stops(stops, radius_m=radius)
        got_comps = {frozenset(c.member_stop_ids) for c in got}
        assert got_comps == brute_force_components(stops, radius)
        # members partition the stop set
        all_members = [sid for c in got for sid in c.member_stop_ids]
        assert sorted(all_members) == sorted(s.stop_id for s in stops)


def test_clustering_order_invariant(rng):
    stops = [
        StopRecord(
            f"s{i:02d}",
            offset_m(CENTER, float(rng.uniform(-600, 600)), float(rng.uniform(-600, 600))),
        )
        for i in range(40)
    ]
    base = cluster_stops(stops, radius_m=250.0)
    shuffled = list(stops)
    rng.shuffle(shuffled)
    again = cluster_stops(shuffled, radius_m=250.0)
    assert [c.candidate_id for c in base] == [c.candidate_id for c in again]
    assert [c.member_stop_ids for c in base] == [c.member_stop_ids for c in again]


def test_cluster_rejects_duplicates_and_negative_radius():
    with pytest.raises(ValueError, match="duplicate"):
        cluster_stops([StopRecord("s1", CENTER), StopRecord("s1", CENTER)])
    with pytest.raises(ValueError, match="radius"):
        cluster_stops([], radius_m=-1.0)
    assert cluster_stops([]) == []


def _scattered_stops(rng) -> list[StopRecord]:
    """200 stops scattered over 3 km x 3 km around CENTER."""
    return [
        StopRecord(
            f"s{i:03d}",
            offset_m(CENTER, float(rng.uniform(-1500, 1500)), float(rng.uniform(-1500, 1500))),
        )
        for i in range(200)
    ]


@pytest.mark.parametrize("block_cells", [siting.DISTANCE_BLOCK_CELLS, 1, 3 * 200])
def test_clustering_equals_the_stop_by_stop_loop(rng, monkeypatch, block_cells):
    monkeypatch.setattr(siting, "DISTANCE_BLOCK_CELLS", block_cells)
    stops = _scattered_stops(rng)
    for radius in (80.0, 150.0, 300.0):
        assert cluster_stops(stops, radius_m=radius) == reference_model.cluster_stops(stops, radius_m=radius)


def test_chain_across_distance_blocks_merges(monkeypatch):
    # a 150 m-step chain whose ids alternate between its two ends, so that
    # with 2-row blocks every link joins stops of different blocks
    n = 12
    order = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    stops = [StopRecord(f"s{k:02d}", offset_m(CENTER, 150.0 * pos, 0.0)) for k, pos in enumerate(order)]
    monkeypatch.setattr(siting, "DISTANCE_BLOCK_CELLS", 2 * n)
    assert siting._block_rows(n) == 2
    (only,) = cluster_stops(stops, radius_m=200.0)
    assert only.member_stop_ids == tuple(s.stop_id for s in stops)
    assert [c.member_stop_ids for c in cluster_stops(stops, radius_m=100.0)] == [(s.stop_id,) for s in stops]


@pytest.mark.parametrize("block_cells", [siting.DISTANCE_BLOCK_CELLS, 1, 7])
def test_assign_services_equals_the_candidate_by_candidate_loop(rng, monkeypatch, block_cells):
    monkeypatch.setattr(siting, "DISTANCE_BLOCK_CELLS", block_cells)
    candidates = cluster_stops(_scattered_stops(rng), radius_m=150.0)
    for n_lots in (0, 1, 5):
        lots = [offset_m(CENTER, float(rng.uniform(-1500, 1500)), float(rng.uniform(-1500, 1500))) for _ in range(n_lots)]
        got = assign_services(candidates, lots, radius_m=400.0)
        assert got == reference_model.assign_services(candidates, lots, radius_m=400.0)
        assert sum(c.car_share_available for c in got) > 0 or n_lots == 0
    assert assign_services([], [CENTER]) == []


def test_assign_services_radius_behavior():
    cand = cluster_stops([StopRecord("s1", CENTER)])[0]
    lot_near = offset_m(CENTER, 0.0, 400.0)
    lot_far = offset_m(CENTER, 0.0, 600.0)
    with_near = assign_services([cand], [lot_near])
    assert with_near[0].car_share_available
    with_far = assign_services([cand], [lot_far])
    assert not with_far[0].car_share_available
    none = assign_services([cand], [])
    assert not none[0].car_share_available
    assert none[0].bike_share_available


def test_assign_services_zero_radius_needs_exact_match():
    cand = cluster_stops([StopRecord("s1", CENTER)])[0]
    got = assign_services([cand], [cand.location], radius_m=0.0)
    assert got[0].car_share_available
    got = assign_services([cand], [offset_m(CENTER, 1.0, 0.0)], radius_m=0.0)
    assert not got[0].car_share_available


def test_candidate_hub_uses_service_profiles():
    cand = Candidate("c-x", CENTER, ("x",), car_share_available=True)
    hub = candidate_hub(cand)
    assert hub.combos == frozenset(CAR_SHARE_PROFILE_COMBOS)
    plain = candidate_hub(Candidate("c-y", CENTER, ("y",), car_share_available=False))
    assert plain.combos == frozenset(STANDARD_PROFILE_COMBOS)
    assert all(Mode.CAR_SHARE not in (c.entry, c.exit) for c in plain.combos)


def _market_cloud(n: int = 12):
    markets = []
    for i in range(n):
        markets.append(
            make_market(
                od_id=f"od{i}",
                segment=list(Segment)[i % 4],
                o=(42.652 - 0.020 - 0.002 * i, -73.757 - 0.025),
                d=(42.652 + 0.020, -73.757 + 0.025 + 0.002 * i),
                trips=4.0 + i,
                miles=4.5,
            )
        )
    return markets


def _matrices_for(markets, hub_ids):
    zones = {z: None for m in markets for z in (m.o_zone, m.d_zone)}
    out = full_matrices(zones, hub_ids[0], minutes=12.0, miles=2.2)
    for hid in hub_ids[1:]:
        for (zone, hub, mode), (to_hub, from_hub) in full_matrices(zones, hid, minutes=12.0, miles=2.2).entries.items():
            add_leg(out, zone, hub, mode, to_hub, from_hub)
    return out


def test_evaluate_matches_single_hub_pipeline():
    markets = _market_cloud()
    cand = Candidate("c-s1", CENTER, ("s1",), car_share_available=True)
    matrices = _matrices_for(markets, ["c-s1"])
    params = make_params(beta=0.4, asc=-2.0)
    table = table_from_markets(markets)
    evaluated = evaluate_candidates([cand], table, params, 1.6, matrices, simple_fares())
    m = evaluated[0].metrics
    assert m is not None and not m.no_potential_trips

    hub = candidate_hub(cand)
    screen = screen_trips(table, [cand.location.lat], [cand.location.lon], 1.6)
    setup = prepare_hub(table, [hub], screen, matrices, simple_fares())
    (report,) = assess_hubs(setup, params)
    assert m.potential_demand == pytest.approx(report.potential_demand)
    assert m.transit_delta == pytest.approx(report.transit_delta, abs=1e-12)
    assert m.vmt_reduced == pytest.approx(report.vmt.reduced, abs=1e-12)
    assert m.cs_total == pytest.approx(report.cs_total, abs=1e-12)


def test_evaluate_flags_candidates_without_reachable_markets():
    markets = _market_cloud()
    far = Candidate("c-far", GeoPoint(lat=44.9, lon=-70.0), ("far",))
    matrices = _matrices_for(markets, ["c-far"])
    evaluated = evaluate_candidates([far], table_from_markets(markets), make_params(), 1.2, matrices, simple_fares())
    m = evaluated[0].metrics
    assert m.no_potential_trips
    assert (m.potential_demand, m.transit_delta, m.vmt_reduced, m.cs_total) == (0, 0, 0, 0)


def test_evaluate_thread_count_does_not_change_results():
    markets = _market_cloud()
    cands = [
        Candidate("c-a", CENTER, ("a",), car_share_available=True),
        Candidate("c-b", offset_m(CENTER, 900.0, 400.0), ("b",)),
        Candidate("c-c", offset_m(CENTER, -700.0, -500.0), ("c",)),
    ]
    matrices = _matrices_for(markets, [c.candidate_id for c in cands])
    params = make_params(beta=0.4, asc=-2.0)
    serial = evaluate_candidates(cands, table_from_markets(markets), params, 1.6, matrices, simple_fares(), threads=1)
    threaded = evaluate_candidates(cands, table_from_markets(markets), params, 1.6, matrices, simple_fares(), threads=4)
    for a, b in zip(serial, threaded):
        assert a.candidate_id == b.candidate_id
        assert a.metrics == b.metrics  # bitwise-identical dataclasses


def _mixed_case(rng):
    """Markets, candidates of both profiles and patchy matrices: random
    leg rows and single directions are missing, some legs carry no miles,
    one origin zone is absent from the matrices, one candidate is absent
    from them, one reaches no market, and one market has a degenerate OD
    pair.  Most OD pairs have one segment market; five have 2 to 4, which
    share the pair's screen cell, and two distinct pairs share an origin
    but not a destination."""
    markets = [
        make_market(
            od_id=f"od{i}",
            segment=list(Segment)[i % 4],
            o=(p.lat, p.lon),
            d=(q.lat, q.lon),
            trips=float(rng.uniform(1.0, 30.0)),
            miles=float(rng.uniform(1.0, 12.0)),
            taste=random_taste(rng),
        )
        for i, (p, q) in enumerate((random_point(rng, 0.05), random_point(rng, 0.05)) for _ in range(40))
    ]
    for i, n_segments in enumerate((2, 3, 4, 2, 4)):
        p, q = random_point(rng, 0.05), random_point(rng, 0.05)
        markets += [
            make_market(
                od_id=f"multi{i}",
                segment=segment,
                o=(p.lat, p.lon),
                d=(q.lat, q.lon),
                trips=float(rng.uniform(1.0, 30.0)),
                miles=float(rng.uniform(1.0, 12.0)),
                taste=random_taste(rng),
            )
            for segment in list(Segment)[:n_segments]
        ]
    fork = random_point(rng, 0.05)
    markets += [
        make_market(od_id=f"fork-{end}", o=(fork.lat, fork.lon), d=(q.lat, q.lon), taste=random_taste(rng))
        for end, q in (("a", random_point(rng, 0.05)), ("b", random_point(rng, 0.05)))
    ]
    markets.append(make_market(od_id="loop", o=(42.66, -73.74), d=(42.66, -73.74)))
    cands = [
        Candidate(f"c-{i:02d}", random_point(rng, 0.03), (f"s{i}",), car_share_available=bool(i % 3 == 0))
        for i in range(14)
    ]
    cands.append(Candidate("c-far", GeoPoint(lat=44.9, lon=-70.0), ("far",), car_share_available=True))
    cands.append(Candidate("c-unmapped", CENTER, ("u",)))

    zones = sorted({z for m in markets for z in (m.o_zone, m.d_zone)} - {markets[0].o_zone})
    hub_ids = [c.candidate_id for c in cands if c.candidate_id != "c-unmapped"]
    keys = [(z, h, c) for z in range(len(zones)) for h in range(len(hub_ids)) for c in range(len(LEG_MODE_ORDER))]
    keys = [k for k in keys if rng.uniform() > 0.15]
    zone, hub, mode = (np.array(col) for col in zip(*keys))
    n = len(keys)
    cells = [rng.uniform(2, 30, n), rng.uniform(0, 5, n), rng.uniform(0, 5, n), rng.integers(0, 3, n), rng.uniform(0.2, 6, n)]
    legs = np.stack([np.stack(cells, axis=1), np.stack(cells, axis=1) * 1.1])
    legs[:, rng.uniform(size=n) < 0.3, 4] = np.nan  # no network miles
    gone = np.flatnonzero(rng.uniform(size=n) < 0.1)
    legs[rng.integers(0, 2, len(gone)), gone, 0] = np.nan  # one direction absent
    return markets, cands, LegMatrices(zones, hub_ids, zone, hub, mode, legs)


def _each_alone(cands, table, params, threshold, matrices, fares, config) -> dict[str, CandidateMetrics]:
    """Each candidate's metrics from a screen, setup and impact call of its
    own, under ``config``'s settings spelt out as kernel keywords."""
    emissions = EmissionFactor(grams_co2_per_mile=config.grams_co2_per_mile, days_per_year=config.days_per_year)
    expected = {}
    for cand in cands:
        screen = screen_trips(
            table,
            [cand.location.lat],
            [cand.location.lon],
            threshold,
            condition2_mode=config.condition2_mode,
            condition2_km=config.condition2_km,
        )
        if not screen.keep.any():
            expected[cand.candidate_id] = CandidateMetrics(0.0, 0.0, 0.0, 0.0, no_potential_trips=True)
            continue
        setup = prepare_hub(
            table,
            [candidate_hub(cand)],
            screen,
            matrices,
            fares,
            car_cost_per_mile=config.car_cost_per_mile,
            circuity_factor=config.circuity_factor,
        )
        (report,) = assess_hubs(
            setup, params, emissions=emissions, include_on_demand_auto=config.include_on_demand_auto_vmt
        )
        # a hub's sums are numpy's own sums over its rows
        assert report.multimodal_total == float((setup.trips * setup.choice_shares(params).hub).sum())
        expected[cand.candidate_id] = CandidateMetrics(
            report.potential_demand, report.transit_delta, report.vmt.reduced, report.cs_total
        )
    return expected


def test_evaluate_equals_each_candidate_alone_bit_for_bit(rng, monkeypatch):
    markets, cands, matrices = _mixed_case(rng)
    params = make_params(beta=0.45, asc=-2.5, student=-1.5)
    fares = simple_fares()
    threshold = 1.4
    table = table_from_markets(markets)
    # each profile's stack holds rows that reach a combo and rows that reach
    # none, so the comparison covers the kernel's scatter of an empty nest
    ordered = sorted(cands, key=lambda c: c.candidate_id)
    for car_share in (False, True):
        hubs = [candidate_hub(c) for c in ordered if c.car_share_available == car_share]
        screen = screen_trips(table, [h.location.lat for h in hubs], [h.location.lon for h in hubs], threshold)
        stack = prepare_hub(table, hubs, screen, matrices, fares)
        assert 0 < np.isfinite(stack.combo_util).any(axis=1).sum() < stack.n_markets
    runs = []
    for config in (None, PipelineConfig(**OFF_DEFAULTS)):
        expected = _each_alone(cands, table, params, threshold, matrices, fares, config or PipelineConfig())
        assert expected["c-far"].no_potential_trips
        assert sum(not m.no_potential_trips for m in expected.values()) >= 12

        for cells in (siting.CHUNK_CELLS, 50, 1):
            monkeypatch.setattr(siting, "CHUNK_CELLS", cells)
            got = evaluate_candidates(list(reversed(cands)), table, params, threshold, matrices, fares, config=config)
            assert [c.candidate_id for c in got] == sorted(expected)
            assert {c.candidate_id: c.metrics for c in got} == expected  # ==, not approx
        runs.append(expected)
    # the settings reach the scores: every candidate with hub trips moves
    default, off = runs
    assert all(off[c] != m for c, m in default.items() if m.cs_total)


def test_stacked_setup_prices_each_row_from_its_own_screen_cell(rng):
    """With no network miles, every leg's VMT miles are the great circle
    the screen took for that row's (hub, OD pair) cell, times the
    circuity factor: the per-row haversine of the row's own coordinates,
    bit for bit, for markets that share a pair or an origin too."""
    markets, cands, store = _mixed_case(rng)
    legs = store.legs.copy()
    legs[:, :, 4] = np.nan
    matrices = LegMatrices(store.zone_ids, store.hub_ids, store.zone, store.hub, store.mode, legs)
    table = table_from_markets(markets)
    hubs = [candidate_hub(c) for c in cands if not c.car_share_available and c.candidate_id != "c-far"]
    lat, lon = np.array([h.location.lat for h in hubs]), np.array([h.location.lon for h in hubs])
    screen = screen_trips(table, lat, lon, 1.4)
    setup = prepare_hub(table, hubs, screen, matrices, simple_fares(), circuity_factor=1.3)
    # legs are priced for the live rows alone
    own = np.repeat(np.arange(len(hubs)), [b - a for a, b in setup.spans])[setup.live]
    rows = setup.rows[setup.live]
    assert len(set(np.array(table.od_ids)[rows].tolist())) < len(rows)  # pairs of several markets are kept
    to_hub = haversine_km(table.o_lat[rows], table.o_lon[rows], lat[own], lon[own]) * MILES_PER_KM * 1.3
    from_hub = haversine_km(lat[own], lon[own], table.d_lat[rows], table.d_lon[rows]) * MILES_PER_KM * 1.3
    k = setup.n_combos
    assert setup.vmt_miles[:, :, 0].tolist() == np.repeat(to_hub[:, None], k, axis=1).tolist()
    assert setup.vmt_miles[:, :, 1].tolist() == np.repeat(from_hub[:, None], k, axis=1).tolist()


def test_evaluate_runs_one_share_pass_per_chunk(rng, monkeypatch):
    markets, cands, matrices = _mixed_case(rng)
    calls = []
    real = HubChoiceSetup.choice_shares

    def counting(self, *args, **kwargs):
        calls.append(len(self.hubs))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(HubChoiceSetup, "choice_shares", counting)
    evaluate_candidates(cands, table_from_markets(markets), make_params(), 1.4, matrices, simple_fares())
    scored = sum(calls)
    assert scored >= 12
    assert len(calls) == 2  # one chunk per service profile, not one per candidate

    calls.clear()
    monkeypatch.setattr(siting, "CHUNK_CELLS", 1)
    evaluate_candidates(cands, table_from_markets(markets), make_params(), 1.4, matrices, simple_fares())
    assert calls == [1] * scored


def test_evaluate_holds_one_bounded_chunk_at_a_time(rng, monkeypatch):
    """Every stacked setup holds at most CHUNK_CELLS cells, its market x
    unimodal-mode cells and its live-row x combo cells, unless it holds a
    single candidate, and each is freed, shares and all, before the next
    one is built."""
    markets, cands, matrices = _mixed_case(rng)
    built, sizes = [], []
    real = siting.prepare_hub

    def recording(*args, **kwargs):
        assert [ref() for ref in built if ref() is not None] == []  # no earlier chunk's setup is alive
        setup = real(*args, **kwargs)
        built.append(weakref.ref(setup))
        sizes.append((len(setup.hubs), setup.n_markets * len(MAIN_MODES) + len(setup.live) * setup.n_combos))
        return setup

    monkeypatch.setattr(siting, "prepare_hub", recording)
    monkeypatch.setattr(siting, "CHUNK_CELLS", 500)
    evaluate_candidates(cands, table_from_markets(markets), make_params(), 1.4, matrices, simple_fares())
    assert all(cells <= siting.CHUNK_CELLS or n_hubs == 1 for n_hubs, cells in sizes), sizes
    # the case has chunks of several candidates and a candidate over the budget
    assert any(n_hubs > 1 for n_hubs, _ in sizes) and any(cells > siting.CHUNK_CELLS for _, cells in sizes)
    assert len(built) == len(sizes) > 2


def test_evaluate_warns_about_degenerate_pairs_once(rng, caplog):
    markets, cands, matrices = _mixed_case(rng)
    with caplog.at_level("WARNING", logger="hubmodal.geo"):
        evaluate_candidates(cands, table_from_markets(markets), make_params(), 1.4, matrices, simple_fares())
    degenerate = [r for r in caplog.records if "degenerate OD" in r.getMessage()]
    assert [r.getMessage() for r in degenerate] == ["excluded 1 market(s) with degenerate OD pairs"]


# ----------------------------------------------------------------------
# scaling every market's trips
# ----------------------------------------------------------------------

# ImpactReport.to_dict entries that are ratios or counts, not trips, miles
# or money: scaling the trips leaves their bits as they are.
_TRIP_FREE = ("hub_id", "n_markets", "hub_trip_proportion", "consumer_surplus_per_trip_usd")


def _trips_times(table, factor: float):
    """``table`` with every market's trips times ``factor``."""
    scaled = copy.copy(table)
    scaled.trips = table.trips * factor
    return scaled


def _assert_scaled(got, base, factor: float) -> None:
    """Each number of ``got`` is that of ``base`` times ``factor``, bit for
    bit, through nested dicts; the _TRIP_FREE entries are ``base``'s own."""
    if isinstance(base, list):
        assert len(got) == len(base)
        for a, b in zip(got, base):
            _assert_scaled(a, b, factor)
    elif isinstance(base, dict):
        assert list(got) == list(base)
        for key in base:
            _assert_scaled(got[key], base[key], 1.0 if key in _TRIP_FREE else factor)
    elif isinstance(base, float):
        assert np.float64(got).tobytes() == np.float64(base * factor).tobytes()
    else:
        assert got == base


def _reports(table, hubs, threshold, matrices, fares, params, config) -> tuple:
    """Each hub's impact report, from one stacked setup of ``hubs``, and
    that setup."""
    screen = screen_trips(table, [h.location.lat for h in hubs], [h.location.lon for h in hubs], threshold, **config.screen_options())
    setup = prepare_hub(table, hubs, screen, matrices, fares, **config.setup_options())
    return [r.to_dict() for r in assess_hubs(setup, params, **config.impact_options())], setup


def _assert_metrics_scaled(got, base, factor: float) -> None:
    for a, b in zip(got, base, strict=True):
        assert a.candidate_id == b.candidate_id and a.metrics.no_potential_trips == b.metrics.no_potential_trips
        _assert_scaled({key: a.metrics.get(key) for key in siting.METRIC_KEYS}, {key: b.metrics.get(key) for key in siting.METRIC_KEYS}, factor)


def test_scaling_every_markets_trips_by_a_power_of_two_scales_the_seed7_figures_exactly(seed7):
    """Trips enter every figure linearly, and a power of two scales a
    float without rounding: each trips, VMT and surplus figure of the
    observed hubs' impact reports and of the candidates' metrics scales
    by 2**j, bit for bit, and the proportions keep their bits."""
    config, params = seed7.config, seed7.result.params
    hubs = [setup.hubs[0] for setup in seed7.setups.values()]
    cands = assign_services(cluster_stops(seed7.stops), seed7.lots)
    args = (seed7.threshold, seed7.matrices, seed7.fares)
    base = [_reports(seed7.table, [hub], *args, params, config)[0] for hub in hubs]  # each its own choice set
    base_metrics = evaluate_candidates(cands, seed7.table, params, *args, config=config)
    assert sum(not c.metrics.no_potential_trips for c in base_metrics) >= 2
    for j in range(-3, 4):
        table = _trips_times(seed7.table, 2.0**j)
        _assert_scaled([_reports(table, [hub], *args, params, config)[0] for hub in hubs], base, 2.0**j)
        _assert_metrics_scaled(evaluate_candidates(cands, table, params, *args, config=config), base_metrics, 2.0**j)


def test_scaling_every_markets_trips_scales_a_stack_of_live_and_dead_rows_exactly(rng):
    """The same property on stacks whose rows are live and dead: a dead
    row must add an exact zero to every trips and VMT sum, whatever its
    trips."""
    markets, cands, matrices = _mixed_case(rng)
    table, params, fares, config = table_from_markets(markets), make_params(beta=0.45, asc=-2.5), simple_fares(), PipelineConfig()
    ordered = sorted(cands, key=lambda c: c.candidate_id)
    stacks = [[candidate_hub(c) for c in ordered if c.car_share_available == car_share] for car_share in (False, True)]
    base = [_reports(table, hubs, 1.4, matrices, fares, params, config) for hubs in stacks]
    assert all(0 < len(setup.live) < setup.n_markets for _, setup in base)
    base_metrics = evaluate_candidates(cands, table, params, 1.4, matrices, fares)
    for j in range(-3, 4):
        scaled = _trips_times(table, 2.0**j)
        for hubs, (reports, _) in zip(stacks, base):
            _assert_scaled(_reports(scaled, hubs, 1.4, matrices, fares, params, config)[0], reports, 2.0**j)
        _assert_metrics_scaled(evaluate_candidates(cands, scaled, params, 1.4, matrices, fares), base_metrics, 2.0**j)


def _cands_with_metrics(values):
    out = []
    for i, v in enumerate(values):
        out.append(
            Candidate(
                f"c-{i}",
                CENTER,
                (f"s{i}",),
                metrics=CandidateMetrics(
                    potential_demand=v, transit_delta=v, vmt_reduced=v, cs_total=v
                ),
            )
        )
    return out


def test_rank_descending_with_percentiles():
    rows, summary = rank_and_summarize(_cands_with_metrics([10.0, 20.0, 30.0]))
    by_id = {r.candidate_id: r for r in rows}
    assert by_id["c-0"].rank["potential_demand"] == 3
    assert by_id["c-1"].rank["potential_demand"] == 2
    assert by_id["c-2"].rank["potential_demand"] == 1
    # percentile is the fraction strictly outperformed
    assert by_id["c-1"].percentile["potential_demand"] == pytest.approx(1 / 3)
    assert by_id["c-0"].percentile["potential_demand"] == 0.0
    assert by_id["c-2"].percentile["potential_demand"] == pytest.approx(2 / 3)
    assert summary["n_ranked"] == 3
    assert summary["metrics"]["cs_total"]["mean"] == pytest.approx(20.0)
    assert summary["metrics"]["cs_total"]["min"] == 10.0
    assert summary["metrics"]["cs_total"]["max"] == 30.0


def test_rank_single_candidate():
    (row,), summary = rank_and_summarize(_cands_with_metrics([5.0]))
    assert all(row.rank[k] == 1 for k in row.rank)
    assert all(p == 0.0 for p in row.percentile.values())
    assert summary["metrics"]["potential_demand"]["sd"] == 0.0


def test_rank_ties_break_by_candidate_id():
    rows, _ = rank_and_summarize(_cands_with_metrics([7.0, 7.0, 7.0]))
    assert [r.candidate_id for r in rows] == ["c-0", "c-1", "c-2"]
    assert [r.rank["cs_total"] for r in rows] == [1, 2, 3]
    assert all(r.percentile["cs_total"] == 0.0 for r in rows)


def test_rank_order_invariant_under_input_permutation(rng):
    cands = _cands_with_metrics(list(rng.normal(size=9)))
    base, _ = rank_and_summarize(cands)
    shuffled = list(cands)
    rng.shuffle(shuffled)
    again, _ = rank_and_summarize(shuffled)
    assert [r.candidate_id for r in base] == [r.candidate_id for r in again]
    assert [r.rank for r in base] == [r.rank for r in again]


def test_rank_histogram_counts_cover_all_rows():
    _, summary = rank_and_summarize(_cands_with_metrics(list(range(20))), bins=5)
    hist = summary["metrics"]["vmt_reduced"]["histogram"]
    assert sum(hist["counts"]) == 20
    assert len(hist["bin_edges"]) == 6


def test_rank_reference_placement():
    cands = _cands_with_metrics([10.0, 20.0, 30.0, 40.0])
    _, summary = rank_and_summarize(cands, reference_ids=("c-2", "c-9"))
    assert summary["references"] == {
        "c-2": {k: pytest.approx(0.5) for k in ("potential_demand", "transit_delta", "vmt_reduced", "cs_total")}
    }


def test_unknown_reference_is_logged_for_rank_and_summarize(caplog):
    with caplog.at_level("WARNING", logger="hubmodal.siting"):
        rank_and_summarize(_cands_with_metrics([10.0, 20.0]), reference_ids=("c-9",))
    assert [(r.name, r.funcName, r.getMessage()) for r in caplog.records] == [
        ("hubmodal.siting", "rank_and_summarize", "unknown reference id skipped: c-9")
    ]


def test_rank_requires_evaluated_candidates():
    with pytest.raises(ValueError, match="no evaluated"):
        rank_and_summarize([])
    with pytest.raises(ValueError, match="not evaluated"):
        rank_and_summarize([Candidate("c-0", CENTER, ("s0",))])


def test_metric_scaling_preserves_ranks(rng):
    values = list(rng.normal(size=8) * 10)
    base, _ = rank_and_summarize(_cands_with_metrics(values))
    scaled, _ = rank_and_summarize(_cands_with_metrics([v * 3.0 for v in values]))
    for b, s in zip(base, scaled):
        assert b.rank == s.rank
        assert b.percentile == s.percentile
