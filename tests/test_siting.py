"""Candidate generation, scoring, and ranking tests.

Clustering is verified against a brute-force BFS over the pairwise
distance graph; candidate scores are verified against the single-hub
impact pipeline run by hand.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

import hubmodal.siting as siting
from conftest import full_matrices, make_market, make_params, random_point, random_taste, simple_fares

from hubmodal import (
    CAR_SHARE_PROFILE_COMBOS,
    STANDARD_PROFILE_COMBOS,
    Candidate,
    CandidateMetrics,
    GeoPoint,
    HubChoiceSetup,
    LegMatrices,
    MarketTable,
    Mode,
    Segment,
    StopRecord,
    assess_hubs,
    assign_services,
    candidate_hub,
    cluster_stops,
    evaluate_candidates,
    great_circle_km,
    potential_trip_mask,
    prepare_hub,
    rank_and_summarize,
)
from hubmodal.hubs import LEG_MODE_ORDER

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
    stops = [
        StopRecord(
            f"s{i:03d}",
            offset_m(CENTER, float(rng.uniform(-1500, 1500)), float(rng.uniform(-1500, 1500))),
        )
        for i in range(200)
    ]
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
            out.add(zone, hub, mode, to_hub, from_hub)
    return out


def test_evaluate_matches_single_hub_pipeline():
    markets = _market_cloud()
    cand = Candidate("c-s1", CENTER, ("s1",), car_share_available=True)
    matrices = _matrices_for(markets, ["c-s1"])
    params = make_params(beta=0.4, asc=-2.0)
    table = MarketTable.from_markets(markets)
    evaluated = evaluate_candidates([cand], table, params, 1.6, matrices, simple_fares())
    m = evaluated[0].metrics
    assert m is not None and not m.no_potential_trips

    hub = candidate_hub(cand)
    keep = potential_trip_mask(table, [cand.location.lat], [cand.location.lon], 1.6)
    setup = prepare_hub(table, [hub], keep, matrices, simple_fares())
    (report,) = assess_hubs(setup, params)
    assert m.potential_demand == pytest.approx(report.potential_demand)
    assert m.transit_delta == pytest.approx(report.transit_delta, abs=1e-12)
    assert m.vmt_reduced == pytest.approx(report.vmt.reduced, abs=1e-12)
    assert m.cs_total == pytest.approx(report.cs_total, abs=1e-12)


def test_evaluate_flags_candidates_without_reachable_markets():
    markets = _market_cloud()
    far = Candidate("c-far", GeoPoint(lat=44.9, lon=-70.0), ("far",))
    matrices = _matrices_for(markets, ["c-far"])
    evaluated = evaluate_candidates([far], MarketTable.from_markets(markets), make_params(), 1.2, matrices, simple_fares())
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
    serial = evaluate_candidates(cands, MarketTable.from_markets(markets), params, 1.6, matrices, simple_fares(), threads=1)
    threaded = evaluate_candidates(cands, MarketTable.from_markets(markets), params, 1.6, matrices, simple_fares(), threads=4)
    for a, b in zip(serial, threaded):
        assert a.candidate_id == b.candidate_id
        assert a.metrics == b.metrics  # bitwise-identical dataclasses


def _mixed_case(rng):
    """Markets, candidates of both profiles and patchy matrices: random
    leg rows and single directions are missing, some legs carry no miles,
    one origin zone is absent from the matrices, one candidate is absent
    from them, one reaches no market, and one market has a degenerate OD
    pair."""
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


def test_evaluate_equals_each_candidate_alone_bit_for_bit(rng, monkeypatch):
    markets, cands, matrices = _mixed_case(rng)
    params = make_params(beta=0.45, asc=-2.5, student=-1.5)
    fares = simple_fares()
    threshold = 1.4
    table = MarketTable.from_markets(markets)
    expected = {}
    for cand in cands:
        keep = potential_trip_mask(table, [cand.location.lat], [cand.location.lon], threshold)
        if not keep.any():
            expected[cand.candidate_id] = CandidateMetrics(0.0, 0.0, 0.0, 0.0, no_potential_trips=True)
            continue
        setup = prepare_hub(table, [candidate_hub(cand)], keep, matrices, fares)
        (report,) = assess_hubs(setup, params)
        # a hub's sums are numpy's own sums over its rows
        assert report.multimodal_total == float((setup.trips * setup.choice_shares(params).hub).sum())
        expected[cand.candidate_id] = CandidateMetrics(
            report.potential_demand, report.transit_delta, report.vmt.reduced, report.cs_total
        )
    assert expected["c-far"].no_potential_trips
    assert sum(not m.no_potential_trips for m in expected.values()) >= 12

    for cells in (siting.CHUNK_CELLS, 50, 1):
        monkeypatch.setattr(siting, "CHUNK_CELLS", cells)
        got = evaluate_candidates(list(reversed(cands)), table, params, threshold, matrices, fares)
        assert [c.candidate_id for c in got] == sorted(expected)
        assert {c.candidate_id: c.metrics for c in got} == expected  # ==, not approx


def test_evaluate_runs_one_share_pass_per_chunk(rng, monkeypatch):
    markets, cands, matrices = _mixed_case(rng)
    calls = []
    real = HubChoiceSetup.choice_shares

    def counting(self, *args, **kwargs):
        calls.append(len(self.hubs))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(HubChoiceSetup, "choice_shares", counting)
    evaluate_candidates(cands, MarketTable.from_markets(markets), make_params(), 1.4, matrices, simple_fares())
    scored = sum(calls)
    assert scored >= 12
    assert len(calls) == 2  # one chunk per service profile, not one per candidate

    calls.clear()
    monkeypatch.setattr(siting, "CHUNK_CELLS", 1)
    evaluate_candidates(cands, MarketTable.from_markets(markets), make_params(), 1.4, matrices, simple_fares())
    assert calls == [1] * scored


def test_evaluate_warns_about_degenerate_pairs_once(rng, caplog):
    markets, cands, matrices = _mixed_case(rng)
    with caplog.at_level("WARNING", logger="hubmodal.geo"):
        evaluate_candidates(cands, MarketTable.from_markets(markets), make_params(), 1.4, matrices, simple_fares())
    degenerate = [r for r in caplog.records if "degenerate OD" in r.getMessage()]
    assert [r.getMessage() for r in degenerate] == ["excluded 1 market(s) with degenerate OD pairs"]


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
    table, summary = rank_and_summarize(_cands_with_metrics([10.0, 20.0, 30.0]))
    assert table.row("c-0").rank["potential_demand"] == 3
    assert table.row("c-1").rank["potential_demand"] == 2
    assert table.row("c-2").rank["potential_demand"] == 1
    # percentile is the fraction strictly outperformed
    assert table.row("c-1").percentile["potential_demand"] == pytest.approx(1 / 3)
    assert table.row("c-0").percentile["potential_demand"] == 0.0
    assert table.row("c-2").percentile["potential_demand"] == pytest.approx(2 / 3)
    assert summary["n_ranked"] == 3
    assert summary["metrics"]["cs_total"]["mean"] == pytest.approx(20.0)
    assert summary["metrics"]["cs_total"]["min"] == 10.0
    assert summary["metrics"]["cs_total"]["max"] == 30.0


def test_rank_single_candidate():
    table, summary = rank_and_summarize(_cands_with_metrics([5.0]))
    row = table.rows[0]
    assert all(row.rank[k] == 1 for k in row.rank)
    assert all(p == 0.0 for p in row.percentile.values())
    assert summary["metrics"]["potential_demand"]["sd"] == 0.0


def test_rank_ties_break_by_candidate_id():
    table, _ = rank_and_summarize(_cands_with_metrics([7.0, 7.0, 7.0]))
    assert [table.row(f"c-{i}").rank["cs_total"] for i in range(3)] == [1, 2, 3]
    assert all(table.row(f"c-{i}").percentile["cs_total"] == 0.0 for i in range(3))


def test_rank_order_invariant_under_input_permutation(rng):
    cands = _cands_with_metrics(list(rng.normal(size=9)))
    base, _ = rank_and_summarize(cands)
    shuffled = list(cands)
    rng.shuffle(shuffled)
    again, _ = rank_and_summarize(shuffled)
    assert [r.candidate_id for r in base.rows] == [r.candidate_id for r in again.rows]
    assert [r.rank for r in base.rows] == [r.rank for r in again.rows]


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


def test_rank_requires_evaluated_candidates():
    with pytest.raises(ValueError, match="no evaluated"):
        rank_and_summarize([])
    with pytest.raises(ValueError, match="not evaluated"):
        rank_and_summarize([Candidate("c-0", CENTER, ("s0",))])


def test_metric_scaling_preserves_ranks(rng):
    values = list(rng.normal(size=8) * 10)
    base, _ = rank_and_summarize(_cands_with_metrics(values))
    scaled, _ = rank_and_summarize(_cands_with_metrics([v * 3.0 for v in values]))
    for b, s in zip(base.rows, scaled.rows):
        assert b.rank == s.rank
        assert b.percentile == s.percentile
