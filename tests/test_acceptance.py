"""Acceptance suite: reference-figure arithmetic and property checks.

One test per criterion, each with a pinned tolerance and, where stated,
a wall-clock budget.  Criterion 5 carries a strict xfail for one
reference row whose components do not reproduce it; the companion test
locks the value the arithmetic actually gives.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    full_matrices,
    kept_ids,
    make_hub,
    make_market,
    make_params,
    one_hub_setup,
    random_point,
    random_taste,
    simple_fares,
)
from reference_model import nest_logsum, nested_shares

from hubmodal import (
    LEG_MODES,
    MAIN_MODES,
    ComboId,
    EmissionFactor,
    GeoPoint,
    HubChoiceSetup,
    HubParams,
    Mode,
    ModeAttr,
    ModeShiftResult,
    ObservedUsage,
    OptimizerSettings,
    SEGMENTS,
    Segment,
    StopRecord,
    calibrate,
    cluster_stops,
    consumer_surpluses,
    derive_observed_rate,
    derive_sample_rate,
    great_circle_km,
    infer_trips_from_sample,
    percent_difference,
    predict_hub_proportion,
    transit_delta,
)
from hubmodal.cli import main


# --- 1. usage-rate arithmetic ------------------------------------------------


def test_criterion_01_usage_rate_arithmetic():
    # backend counts: 28 trips/month, 30 days, 15% of hub trips, 5,470 potential
    usage = derive_observed_rate(28.0, 30.0, 0.15, 5470.0)
    assert usage.observed_trips_per_day == pytest.approx(6.22, abs=0.01)
    assert 100.0 * usage.observed_proportion == pytest.approx(0.1137, abs=0.01)

    # intercept survey: 18 responses over 61 days against 6.22 trips/day
    rate = derive_sample_rate(18.0, 6.22, 61.0)
    assert 100.0 * rate == pytest.approx(4.74, abs=0.01)

    # survey expansion: 25 responses, 60 days, 4.74% sample rate, 20,511 potential
    usage = infer_trips_from_sample(25.0, 60.0, 0.0474, 20511.0)
    assert usage.observed_trips_per_day == pytest.approx(8.79, abs=0.01)
    assert 100.0 * usage.observed_proportion == pytest.approx(0.0429, abs=0.01)


# --- 2. emission and annualization arithmetic --------------------------------


def test_criterion_02_emission_annualization_arithmetic():
    ef = EmissionFactor()
    for vmt, kg_day, kmi_yr, tons_yr in (
        (55.83, 22.33, 20.37, 8.15),
        (36.06, 14.45, 13.16, 5.27),
    ):
        assert ef.kg_per_day(vmt) == pytest.approx(kg_day, rel=0.005)
        assert ef.annual_thousand_miles(vmt) == pytest.approx(kmi_yr, rel=0.005)
        assert ef.tons_per_year(vmt) == pytest.approx(tons_yr, rel=0.005)


# --- 3. consumer-surplus totals ----------------------------------------------


def _engineered_cs(cs_per_trip: float, trips: float):
    """One market whose welfare gain per trip is exactly cs_per_trip.

    Baseline is a lone carpool alternative; the hub offers a single
    walk+walk combo whose leg minutes are solved so that the priced
    logsum gain hits the target.
    """
    taste_cost, nonveh, auto_tt, asc_walk = -0.3, -0.07, -0.05, -0.8
    v_before = auto_tt * 10.0
    gain_util = cs_per_trip * abs(taste_cost)
    x = math.log(math.expm1(gain_util))  # v_hub - baseline logsum
    asc_seg = -1.0
    v_combo = x + v_before - asc_seg  # single combo: v_hub = V_c + asc
    walk_min = (v_combo / 2.0 - asc_walk) / nonveh
    market = make_market(od_id="cs", trips=trips, attrs={Mode.CARPOOL: ModeAttr(ivt_min=10.0)})
    hub = make_hub(hub_id="cs-hub", combos=(ComboId(Mode.WALK_LEG, Mode.WALK_LEG),))
    zones = {market.o_zone: None, market.d_zone: None}
    mats = full_matrices(zones, "cs-hub", minutes=walk_min, miles=0.5)
    setup = one_hub_setup([market], hub, mats, simple_fares())
    (cs,) = consumer_surpluses(setup, setup.choice_shares(make_params(beta=0.4, asc=asc_seg)))
    return cs


def test_criterion_03_consumer_surplus_totals():
    r = _engineered_cs(0.1950, 20511.0)
    assert r.cs_per_trip == pytest.approx(0.1950, abs=1e-9)
    assert r.cs_total == pytest.approx(4000.0, abs=5.0)

    r = _engineered_cs(0.3185, 5470.0)
    assert r.cs_per_trip == pytest.approx(0.3185, abs=1e-9)
    assert r.cs_total == pytest.approx(1742.0, abs=2.0)


# --- 4. mode-shift composition -----------------------------------------------


def test_criterion_04_mode_shift_composition():
    total = 8.83
    shares = (0.5350, 0.1947, 0.1789, 0.0914)
    expected = (4.72, 1.72, 1.58, 0.81)
    for share, trips in zip(shares, expected):
        assert total * share == pytest.approx(trips, abs=0.01)

    # bus legs gain 4.72 while unimodal transit loses 0.27
    shift = ModeShiftResult(
        before={Mode.TRANSIT: 1.00},
        after_unimodal={Mode.TRANSIT: 0.73},
        multimodal_total=total,
        multimodal_leg_trips={Mode.BUS: 4.72},
    )
    assert transit_delta(shift) == pytest.approx(4.45, abs=0.01)


# --- 5. bus-count validation arithmetic --------------------------------------


def test_criterion_05_bus_count_percent_differences():
    assert percent_difference(213.0, 267.0) == pytest.approx(-20.2, abs=0.1)
    assert percent_difference(221.0, 234.0) == pytest.approx(-5.5, abs=0.1)
    assert percent_difference(204.0, 220.0) == pytest.approx(-7.3, abs=0.1)
    # the remaining reference row is -9.1, but (175 - 192) / 192 is -8.854;
    # no percent-difference convention reproduces -9.1 from these counts
    # ((175-192)/175 is -9.71, symmetric mean -9.26, log ratio -9.27), so
    # the arithmetic value is locked here and the stated figure is the
    # strict xfail below
    assert percent_difference(175.0, 192.0) == pytest.approx(-8.854, abs=0.001)


@pytest.mark.xfail(
    strict=True,
    reason="stated -9.1% is not reproducible from counts (175, 192); arithmetic gives -8.854%",
)
def test_criterion_05_second_row_as_stated():
    assert percent_difference(175.0, 192.0) == pytest.approx(-9.1, abs=0.1)


# --- 6. nested-logit properties on random fixtures ---------------------------


def _random_utilities(rng):
    n_modes = int(rng.integers(1, 7))
    mode_picks = rng.choice(len(MAIN_MODES), size=n_modes, replace=False)
    uni = {MAIN_MODES[i]: float(rng.normal() * 2) for i in mode_picks}
    all_combos = [ComboId(e, x) for e in LEG_MODES for x in LEG_MODES]
    picks = rng.choice(len(all_combos), size=int(rng.integers(1, 8)), replace=False)
    combos = {all_combos[i]: float(rng.normal() * 2) for i in picks}
    return uni, combos


def _one_row_setup(uni, combos, segment: Segment) -> HubChoiceSetup:
    """The kernel's setup of one market with the given utilities: -inf for
    each absent mode, and the combos in sorted order."""
    hub = make_hub(combos=tuple(combos))
    ordered = hub.sorted_combos()
    return HubChoiceSetup(
        [hub],
        np.zeros(1, dtype=np.int64),
        np.array([SEGMENTS.index(segment)]),
        np.ones(1),
        np.ones(1),
        np.array([[uni.get(m, -np.inf) for m in MAIN_MODES]]),
        ordered,
        np.array([[combos[c] for c in ordered]]),
        np.zeros((1, len(ordered), 2)),
        np.zeros((1, len(ordered), 2)),
        np.full(1, -0.3),
        bounds=(0, 1),
    )


def test_criterion_06_nested_logit_property_suite():
    rng = np.random.default_rng(41)
    flat_params = make_params(beta=1.0, asc=0.0)
    start = time.perf_counter()
    for _ in range(1000):
        uni, combos = _random_utilities(rng)
        beta = float(rng.uniform(0.05, 1.0))
        params = make_params(beta=beta, asc=float(rng.uniform(-6.0, 0.0)))
        ns = nested_shares(uni, combos, params, Segment.SENIOR)

        # the kernel gives the scalar oracle's shares
        setup = _one_row_setup(uni, combos, Segment.SENIOR)
        kernel = setup.choice_shares(params)
        assert np.abs(kernel.upper[0] - [ns.upper.get(m, 0.0) for m in MAIN_MODES]).max() <= 1e-12
        assert abs(kernel.hub[0] - ns.hub_share) <= 1e-12
        assert np.abs(kernel.lower[0] - [ns.lower[c] for c in setup.combos]).max() <= 1e-12

        # normalization at both levels
        assert abs(sum(ns.upper.values()) + ns.hub_share - 1.0) <= 1e-12
        assert abs(sum(ns.lower.values()) - 1.0) <= 1e-12

        # beta_hub = 1 with zero constant collapses to one flat MNL
        flat = nested_shares(uni, combos, flat_params, Segment.SENIOR)
        anchor = max(max(uni.values()), max(combos.values()))
        denom = sum(math.exp(v - anchor) for v in uni.values()) + sum(
            math.exp(v - anchor) for v in combos.values()
        )
        for m, v in uni.items():
            assert abs(flat.upper[m] - math.exp(v - anchor) / denom) <= 1e-12
        for c, v in combos.items():
            assert abs(flat.joint(c) - math.exp(v - anchor) / denom) <= 1e-12

        # nest logsum grows when a combo is added
        extra = next(c for c in (ComboId(e, x) for e in LEG_MODES for x in LEG_MODES) if c not in combos)
        grown = dict(combos)
        grown[extra] = float(rng.normal() * 2)
        assert nest_logsum(grown.values(), beta) >= nest_logsum(combos.values(), beta) - 1e-12

        # translation invariance
        c_shift = float(rng.uniform(-40.0, 40.0))
        shifted = nested_shares(
            {m: v + c_shift for m, v in uni.items()},
            {k: v + c_shift for k, v in combos.items()},
            params,
            Segment.SENIOR,
        )
        assert abs(shifted.hub_share - ns.hub_share) <= 1e-12
        for m in uni:
            assert abs(shifted.upper[m] - ns.upper[m]) <= 1e-12

        # positive scaling preserves each level's winner (the unscaled
        # nest constant moves the hub column, so only within-level
        # rankings are invariant)
        lam = float(rng.uniform(0.2, 5.0))
        scaled = nested_shares(
            {m: v * lam for m, v in uni.items()},
            {k: v * lam for k, v in combos.items()},
            params,
            Segment.SENIOR,
        )
        assert max(scaled.upper, key=scaled.upper.get) == max(ns.upper, key=ns.upper.get)
        assert max(scaled.lower, key=scaled.lower.get) == max(ns.lower, key=ns.lower.get)
    assert time.perf_counter() - start < 10.0


# --- 7. welfare gain is non-negative -----------------------------------------


def _random_setup(rng, n_markets: int, combos: tuple[ComboId, ...]):
    hub_loc = random_point(rng, spread=0.03)
    hub = make_hub(hub_id="w", loc=(hub_loc.lat, hub_loc.lon), combos=combos)
    markets = [
        make_market(
            od_id=f"w{i}",
            segment=list(Segment)[int(rng.integers(0, 4))],
            o=(random_point(rng).lat, random_point(rng).lon),
            d=(random_point(rng).lat, random_point(rng).lon),
            trips=float(rng.uniform(0.5, 40.0)),
            taste=random_taste(rng),
        )
        for i in range(n_markets)
    ]
    zones = {z: None for m in markets for z in (m.o_zone, m.d_zone)}
    mats = full_matrices(zones, "w", minutes=float(rng.uniform(4.0, 25.0)), miles=float(rng.uniform(0.5, 4.0)))
    return one_hub_setup(markets, hub, mats, simple_fares())


def test_criterion_07_welfare_gain_nonnegative():
    rng = np.random.default_rng(42)
    pool = [ComboId(e, x) for e in LEG_MODES for x in LEG_MODES]
    start = time.perf_counter()
    seen = 0
    for _ in range(48):
        picks = rng.choice(len(pool), size=int(rng.integers(1, 6)), replace=False)
        setup = _random_setup(rng, 21, tuple(pool[i] for i in picks))
        params = make_params(beta=float(rng.uniform(0.05, 1.0)), asc=float(rng.uniform(-6.0, 0.0)))
        shares = setup.choice_shares(params)
        assert (shares.cs_gain_util >= 0.0).all()
        (r,) = consumer_surpluses(setup, shares)
        assert r.cs_per_trip >= 0.0 and r.cs_total >= 0.0 and r.n_excluded == 0
        seen += setup.n_markets

    # an empty combo set leaves welfare exactly at the baseline
    empty = _random_setup(rng, 10, ())
    shares = empty.choice_shares(make_params())
    assert (shares.cs_gain_util == 0.0).all()
    (r,) = consumer_surpluses(empty, shares)
    assert r.cs_per_trip == 0.0 and r.cs_total == 0.0
    seen += empty.n_markets

    assert seen >= 1000
    assert time.perf_counter() - start < 10.0


# --- 8. calibration recovery -------------------------------------------------

RECOVERY_TRUTH = HubParams(
    beta_hub=0.3,
    asc_by_segment={
        Segment.NOT_LOW_INCOME: -4.0,
        Segment.LOW_INCOME: -5.0,
        Segment.SENIOR: -3.0,
        Segment.STUDENT: -4.0,
    },
)

# trip weights per segment, one row per hub, no two alike
RECOVERY_MIXES = (
    (5.0, 1.0, 9.0, 2.0),
    (1.0, 8.0, 2.0, 5.0),
    (9.0, 2.0, 1.0, 7.0),
    (2.0, 6.0, 5.0, 1.0),
    (7.0, 4.0, 3.0, 9.0),
)


def _recovery_setup(i: int):
    hub_id = f"hub-{i}"
    loc = (42.60 + 0.03 * i, -73.80 + 0.025 * i)
    hub = make_hub(
        hub_id=hub_id,
        loc=loc,
        combos=(
            ComboId(Mode.CAR, Mode.BUS),
            ComboId(Mode.WALK_LEG, Mode.BUS),
            ComboId(Mode.BIKE_SHARE, Mode.WALK_LEG),
        ),
    )
    markets = []
    for j, seg in enumerate(Segment):
        for k in range(2):
            markets.append(
                make_market(
                    od_id=f"{hub_id}-{seg.value}-{k}",
                    segment=seg,
                    o=(loc[0] - 0.040 - 0.004 * k - 0.002 * j, loc[1] - 0.035),
                    d=(loc[0] + 0.030, loc[1] + 0.040 + 0.004 * k),
                    trips=RECOVERY_MIXES[i][j] + k,
                )
            )
    zones = {z: None for m in markets for z in (m.o_zone, m.d_zone)}
    mats = full_matrices(zones, hub_id, minutes=9.0 + 1.5 * i, miles=2.0 + 0.2 * i)
    return one_hub_setup(markets, hub, mats, simple_fares())


def test_criterion_08_calibration_recovery():
    start = time.perf_counter()
    setups = {f"hub-{i}": _recovery_setup(i) for i in range(5)}
    observed = []
    for hub_id, setup in setups.items():
        prop = predict_hub_proportion(setup, RECOVERY_TRUTH)
        demand = float(setup.trips.sum())
        observed.append(
            ObservedUsage(
                hub_id=hub_id,
                observed_trips_per_day=prop * demand,
                potential_trips_per_day=demand,
                observed_proportion=prop,
            )
        )

    result = calibrate(observed, setups, settings=OptimizerSettings())
    assert result.objective < 1e-10
    assert result.converged and not result.rank_deficient
    for fit in result.per_hub:
        assert abs(fit.predicted - fit.observed) <= 1e-6
    assert result.params.beta_hub == pytest.approx(0.3, abs=1e-4)
    for seg in Segment:
        assert result.params.asc_by_segment[seg] == pytest.approx(
            RECOVERY_TRUTH.asc_by_segment[seg], abs=1e-3
        )

    # 2 observations against 5 free parameters is flagged, not rejected
    with pytest.warns(RuntimeWarning):
        short = calibrate(observed[:2], setups)
    assert short.rank_deficient

    assert time.perf_counter() - start < 60.0


# --- 9. geometry oracles ------------------------------------------------------


def _brute_force_keep(market, hub: GeoPoint, threshold: float) -> bool:
    od = great_circle_km(market.origin, market.destination)
    if od <= 0.0:
        return False
    oh = great_circle_km(market.origin, hub)
    hd = great_circle_km(hub, market.destination)
    return oh + hd < threshold * od or hd < 1.0


def test_criterion_09_geometry_oracles():
    rng = np.random.default_rng(43)
    start = time.perf_counter()

    # element-wise identification on random O/D/hub triples
    for i in range(1000):
        o = random_point(rng)
        d = o if i % 25 == 0 else random_point(rng)  # sprinkle degenerate pairs
        market = make_market(od_id=f"t{i}", o=(o.lat, o.lon), d=(d.lat, d.lon))
        hub = random_point(rng)
        threshold = 1.0 + float(rng.uniform(0.0, 1.2))
        got = kept_ids([market], hub, threshold)
        want = [market.market_id] if _brute_force_keep(market, hub, threshold) else []
        assert got == want

    # single-linkage clusters equal brute-force connected components
    stops = [
        StopRecord(stop_id=f"s{i:03d}", location=random_point(rng, spread=0.012))
        for i in range(200)
    ]
    got_comps = {frozenset(c.member_stop_ids) for c in cluster_stops(stops, radius_m=200.0)}
    n = len(stops)
    adj = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if great_circle_km(stops[i].location, stops[j].location) * 1000.0 <= 200.0:
                adj[i].append(j)
                adj[j].append(i)
    seen: set[int] = set()
    want_comps = set()
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
        want_comps.add(frozenset(stops[k].stop_id for k in comp))
    assert got_comps == want_comps

    # a larger threshold can only keep more markets
    markets = [
        make_market(od_id=f"m{i}", o=(random_point(rng).lat, random_point(rng).lon), d=(random_point(rng).lat, random_point(rng).lon))
        for i in range(300)
    ]
    hub = GeoPoint(lat=42.65, lon=-73.75)
    thresholds = sorted(1.0 + float(rng.uniform(0.0, 1.5)) for _ in range(100))
    prev: set[str] = set()
    for t in thresholds:
        cur = set(kept_ids(markets, hub, t))
        assert prev <= cur
        prev = cur

    assert time.perf_counter() - start < 10.0


# --- 10. determinism and scale ------------------------------------------------


def _tree_digest(root) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_determinism_and_scale(tmp_path):
    # same seed, same bytes
    a, b = tmp_path / "fx-a", tmp_path / "fx-b"
    assert main(["gen-fixture", "--seed", "7", "--out-dir", str(a)]) == 0
    assert main(["gen-fixture", "--seed", "7", "--out-dir", str(b)]) == 0
    assert _tree_digest(a) == _tree_digest(b)

    # 5,000 markets, 100 candidates: rank under a minute, bytes stable
    # across thread counts
    fx = tmp_path / "fx-big"
    assert main(
        ["gen-fixture", "--seed", "11", "--out-dir", str(fx), "--od-pairs", "1250", "--stops", "100", "--pr-lots", "5"]
    ) == 0
    assert len((fx / "markets.csv").read_text().splitlines()) == 5001  # header + rows

    params = tmp_path / "params.json"
    params.write_text(
        json.dumps(
            {
                "params": {
                    "beta_hub": 0.3,
                    "asc_by_segment": {s.value: -4.0 for s in Segment},
                }
            }
        )
    )

    digests = []
    for threads in ("1", "4"):
        out = tmp_path / f"rank-t{threads}"
        started = time.perf_counter()
        code = main(
            ["rank", "--manifest", str(fx / "manifest.json"), "--params", str(params), "--threads", threads, "--out-dir", str(out)]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 60.0
        digests.append(_tree_digest(out))
    assert digests[0] == digests[1]

    summary = json.loads((tmp_path / "rank-t1" / "rank_summary.json").read_text())
    assert summary["n_candidates"] == 100
