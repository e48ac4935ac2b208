"""Impact metric tests: mode shift, transit delta, VMT, emissions, and
consumer surplus, cross-checked against the scalar reference model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (
    full_matrices,
    make_hub,
    make_market,
    make_params,
    make_taste,
    one_hub_setup,
    simple_fares,
)
from reference_model import (
    Market,
    ModeAttr,
    add_leg,
    assemble_leg_attrs,
    combo_utility,
    mnl_shares,
    nested_shares,
    systematic_utility,
)

from hubmodal import (
    ComboId,
    EmissionFactor,
    GeoPoint,
    LegMatrices,
    LegTimes,
    Mode,
    Segment,
    assess_hubs,
    assign_services,
    candidate_hub,
    cluster_stops,
    consumer_surpluses,
    mode_shifts,
    prepare_hub,
    screen_trips,
    transit_delta,
    vmt_deltas,
)


def test_emission_factor_arithmetic():
    f = EmissionFactor(grams_co2_per_mile=400.0, days_per_year=365.0)
    assert f.kg_per_day(10.0) == pytest.approx(4.0)
    assert f.tons_per_year(10.0) == pytest.approx(4.0 * 365 / 1000)
    assert f.annual_thousand_miles(10.0) == pytest.approx(3.65)


def test_emission_factor_linearity():
    base = EmissionFactor(grams_co2_per_mile=400.0)
    tenth = EmissionFactor(grams_co2_per_mile=40.0)
    assert tenth.kg_per_day(55.83) == pytest.approx(base.kg_per_day(55.83) / 10.0)


def test_emission_factor_validation():
    with pytest.raises(ValueError):
        EmissionFactor(grams_co2_per_mile=0.0)


def test_potential_demand_sums_trips():
    markets = [make_market(od_id=f"od{i}", trips=t) for i, t in enumerate([3.0, 4.0, 5.0])]
    _, _, _, setup = _impact_setup(markets=markets)
    assert float(setup.trips.sum()) == 12.0
    (report,) = assess_hubs(setup, make_params())
    assert report.potential_demand == 12.0


def _impact_setup(n: int = 4, combos=None, markets=None):
    hub = make_hub(
        hub_id="h1",
        combos=combos if combos is not None else (
            ComboId(Mode.CAR, Mode.BUS),
            ComboId(Mode.WALK_LEG, Mode.BUS),
            ComboId(Mode.CAR_SHARE, Mode.WALK_LEG),
        ),
    )
    if markets is None:
        markets = [
            make_market(
                od_id=f"od{i}",
                segment=list(Segment)[i % 4],
                o=(42.64 - 0.004 * i, -73.77),
                d=(42.70, -73.69 - 0.004 * i),
                trips=5.0 + i,
                miles=4.0 + 0.5 * i,
            )
            for i in range(n)
        ]
    zones = {z: None for m in markets for z in (m.o_zone, m.d_zone)}
    matrices = full_matrices(zones, "h1", minutes=11.0, miles=2.5)
    setup = one_hub_setup(markets, hub, matrices, simple_fares())
    return markets, hub, matrices, setup


def test_null_intervention_changes_nothing():
    # a hub offering no transfer combos must leave every metric at zero
    _, _, _, setup = _impact_setup(combos=())
    (report,) = assess_hubs(setup, make_params(beta=0.5, asc=-1.0))
    assert report.multimodal_total == 0.0
    assert report.multimodal_leg_trips == {}
    assert report.transit_delta == 0.0
    assert report.vmt.reduced == 0.0
    assert report.vmt.emissions_kg_per_day == 0.0
    assert report.cs_total == 0.0
    assert report.cs_per_trip == 0.0
    assert report.unimodal_before == report.unimodal_after


def test_trip_conservation():
    _, _, _, setup = _impact_setup()
    (shift,) = mode_shifts(setup, setup.choice_shares(make_params(beta=0.4, asc=-2.0)))
    total_before = sum(shift.before.values())
    total_after = sum(shift.after_unimodal.values()) + shift.multimodal_total
    assert total_before == pytest.approx(float(setup.trips.sum()), abs=1e-9)
    assert total_after == pytest.approx(total_before, abs=1e-9)


def test_multimodal_leg_trips_sum_to_multimodal_total():
    _, _, _, setup = _impact_setup()
    (shift,) = mode_shifts(setup, setup.choice_shares(make_params(beta=0.4, asc=-2.0)))
    assert sum(shift.multimodal_leg_trips.values()) == pytest.approx(shift.multimodal_total, abs=1e-12)


def test_leg_split_follows_distance_weights():
    # single market, single combo, 3-mile entry leg and 1-mile exit leg:
    # 75% of multimodal trips go to the entry mode
    market = make_market(od_id="solo", trips=8.0)
    matrices = LegMatrices()
    add_leg(matrices, market.o_zone, "h1", Mode.CAR, LegTimes(minutes=9.0, miles=3.0), None)
    add_leg(matrices, market.d_zone, "h1", Mode.BUS, None, LegTimes(minutes=12.0, access_min=3.0, miles=1.0))
    hub = make_hub(combos=(ComboId(Mode.CAR, Mode.BUS),), car_share=False, bike_share=False)
    setup = one_hub_setup([market], hub, matrices, simple_fares())
    (shift,) = mode_shifts(setup, setup.choice_shares(make_params(beta=0.5, asc=-1.0)))
    assert shift.multimodal_leg_trips[Mode.CAR] == pytest.approx(0.75 * shift.multimodal_total)
    assert shift.multimodal_leg_trips[Mode.BUS] == pytest.approx(0.25 * shift.multimodal_total)


def test_leg_split_even_for_equal_distances():
    market = make_market(od_id="solo", trips=8.0)
    matrices = LegMatrices()
    add_leg(matrices, market.o_zone, "h1", Mode.CAR, LegTimes(minutes=9.0, miles=2.0), None)
    add_leg(matrices, market.d_zone, "h1", Mode.BUS, None, LegTimes(minutes=12.0, miles=2.0))
    hub = make_hub(combos=(ComboId(Mode.CAR, Mode.BUS),), car_share=False, bike_share=False)
    setup = one_hub_setup([market], hub, matrices, simple_fares())
    (shift,) = mode_shifts(setup, setup.choice_shares(make_params(beta=0.5, asc=-1.0)))
    assert shift.multimodal_leg_trips[Mode.CAR] == pytest.approx(shift.multimodal_leg_trips[Mode.BUS])


def test_transit_delta_formula():
    _, _, _, setup = _impact_setup()
    (shift,) = mode_shifts(setup, setup.choice_shares(make_params(beta=0.4, asc=-2.0)))
    expected = (
        shift.multimodal_leg_trips.get(Mode.BUS, 0.0)
        + shift.after_unimodal[Mode.TRANSIT]
        - shift.before[Mode.TRANSIT]
    )
    assert transit_delta(shift) == pytest.approx(expected, abs=1e-15)


def test_single_market_vmt_hand_computed():
    taste = make_taste()
    market = make_market(od_id="solo", trips=10.0, miles=5.0, taste=taste)
    matrices = LegMatrices()
    add_leg(matrices, market.o_zone, "h1", Mode.CAR, LegTimes(minutes=9.0, miles=2.5), None)
    add_leg(matrices, market.d_zone, "h1", Mode.BUS, None, LegTimes(minutes=12.0, access_min=3.0, miles=4.0))
    hub = make_hub(combos=(ComboId(Mode.CAR, Mode.BUS),), car_share=False, bike_share=False)
    setup = one_hub_setup([market], hub, matrices, simple_fares())
    params = make_params(beta=0.5, asc=-1.0)

    # scalar reference shares
    uni = {m: systematic_utility(taste, a, m) for m, a in market.attrs.items()}
    combo = ComboId(Mode.CAR, Mode.BUS)
    legs = assemble_leg_attrs(market, hub, combo, matrices, simple_fares())
    ns = nested_shares(uni, {combo: combo_utility(market, hub, combo, legs)}, params, market.segment)

    (vmt,) = vmt_deltas(setup, setup.choice_shares(params))
    w = 10.0 * 5.0
    assert vmt.before_driving == pytest.approx(w * ns_upper_before(uni, Mode.DRIVING), abs=1e-9)
    assert vmt.before_carpool == pytest.approx(w * ns_upper_before(uni, Mode.CARPOOL), abs=1e-9)
    # with the hub: unimodal VMT shrinks to the upper shares, and the car
    # entry leg adds 2.5 network miles per multimodal trip
    expected_after_driving = w * ns.upper[Mode.DRIVING] + 10.0 * ns.hub_share * 2.5
    assert vmt.after_driving == pytest.approx(expected_after_driving, abs=1e-9)
    assert vmt.after_carpool == pytest.approx(w * ns.upper[Mode.CARPOOL], abs=1e-9)
    before, after = vmt.before_driving + vmt.before_carpool, vmt.after_driving + vmt.after_carpool
    assert vmt.reduced == pytest.approx(before - after, abs=1e-12)
    assert vmt.emissions_kg_per_day == pytest.approx(vmt.reduced * 0.4, abs=1e-12)


def ns_upper_before(uni, mode):
    modes = sorted(uni, key=lambda m: m.value)
    shares = mnl_shares([uni[m] for m in modes])
    return float(shares[modes.index(mode)])


def test_car_share_legs_count_as_carpool_vmt():
    market = make_market(od_id="solo", trips=6.0, miles=4.0)
    matrices = LegMatrices()
    add_leg(matrices, market.o_zone, "h1", Mode.CAR_SHARE, LegTimes(minutes=10.0, miles=3.0), None)
    add_leg(matrices, market.d_zone, "h1", Mode.WALK_LEG, None, LegTimes(minutes=8.0))
    hub = make_hub(combos=(ComboId(Mode.CAR_SHARE, Mode.WALK_LEG),))
    setup = one_hub_setup([market], hub, matrices, simple_fares())
    params = make_params(beta=0.5, asc=-1.0)
    (vmt,) = vmt_deltas(setup, setup.choice_shares(params))
    shares = setup.choice_shares(params)
    hub_trips = 6.0 * float(shares.hub[0])
    carpool_unimodal = 6.0 * 4.0 * float(shares.upper[0, 5])
    assert vmt.after_carpool == pytest.approx(carpool_unimodal + hub_trips * 3.0, abs=1e-9)


def test_include_on_demand_auto_flag():
    _, _, _, setup = _impact_setup()
    params = make_params(beta=0.4, asc=-2.0)
    shares = setup.choice_shares(params)
    (base,) = vmt_deltas(setup, shares)
    (wide,) = vmt_deltas(setup, shares, include_on_demand_auto=True)
    # counting on-demand trips as driving VMT raises both sides
    assert wide.before_driving > base.before_driving
    assert wide.after_driving > base.after_driving


def test_consumer_surplus_hand_computed():
    # carpool-only market with zero attributes: baseline logsum is 0;
    # a single walk+walk combo gives v_hub = 2 * beta_nonveh * minutes + asc
    taste = make_taste(beta_nonveh_tt=-0.07, asc_walking=0.0, beta_cost=-0.4)
    market = Market(
        od_id="solo", segment=Segment.SENIOR,
        origin=GeoPoint(42.65, -73.76), destination=GeoPoint(42.70, -73.70),
        trips_per_day=10.0, driving_miles=3.0,
        attrs={Mode.CARPOOL: ModeAttr()}, taste=taste,
    )
    matrices = LegMatrices()
    walk = LegTimes(minutes=10.0)
    add_leg(matrices, market.o_zone, "h1", Mode.WALK_LEG, walk, None)
    add_leg(matrices, market.d_zone, "h1", Mode.WALK_LEG, None, walk)
    hub = make_hub(combos=(ComboId(Mode.WALK_LEG, Mode.WALK_LEG),))
    setup = one_hub_setup([market], hub, matrices, simple_fares())
    params = make_params(beta=0.5, asc=-1.0)

    v_hub = 2 * (-0.07 * 10.0) - 1.0
    expected_gain = math.log(1.0 + math.exp(v_hub))  # logsum 0 -> log(e^0 + e^v)
    (cs,) = consumer_surpluses(setup, setup.choice_shares(params))
    assert cs.cs_per_trip == pytest.approx(expected_gain / 0.4, abs=1e-12)
    assert cs.cs_total == pytest.approx(10.0 * expected_gain / 0.4, abs=1e-10)
    assert cs.n_excluded == 0


def test_consumer_surplus_gain_formula():
    # per-trip surplus is (logsum gain) / |beta_cost|
    delta_logsum = 1.2 - 1.0
    assert delta_logsum / 0.4 == pytest.approx(0.5)


def test_consumer_surplus_non_negative(rng):
    for asc in (-8.0, -4.0, -1.0, 0.0):
        _, _, _, setup = _impact_setup()
        (cs,) = consumer_surpluses(setup, setup.choice_shares(make_params(beta=0.5, asc=asc)))
        assert cs.cs_total >= 0.0
        assert cs.cs_per_trip >= 0.0


def test_consumer_surplus_monotone_in_hub_constant():
    _, _, _, setup = _impact_setup()
    params = [make_params(beta=0.5, asc=a) for a in (-6.0, -3.0, -1.0)]
    values = [consumer_surpluses(setup, setup.choice_shares(p))[0].cs_total for p in params]
    assert values == sorted(values)


def test_consumer_surplus_excludes_unpriceable_markets():
    taste = make_taste(beta_cost=0.1)  # construction allows it; pricing cannot
    market = make_market(od_id="odd", taste=taste)
    _, _, _, setup = _impact_setup(markets=[market])
    (cs,) = consumer_surpluses(setup, setup.choice_shares(make_params(beta=0.5, asc=-1.0)))
    assert cs.n_excluded == 1
    assert cs.cs_total == 0.0


def test_unpriceable_markets_are_logged_for_consumer_surpluses(caplog):
    market = make_market(od_id="odd", taste=make_taste(beta_cost=0.1))
    _, _, _, setup = _impact_setup(markets=[market])
    with caplog.at_level("WARNING", logger="hubmodal.impacts"):
        consumer_surpluses(setup, setup.choice_shares(make_params(beta=0.5, asc=-1.0)))
    assert [(r.name, r.funcName, r.getMessage()) for r in caplog.records] == [
        ("hubmodal.impacts", "consumer_surpluses", "excluded 1 market(s) with non-negative beta_cost from consumer surplus")
    ]


def _assert_surplus_is_the_nest_logsum(setup, params) -> None:
    """Each market's logsum gain is -log(1 - s) for its hub nest share s.
    With every s at most 1/2, s <= -log(1 - s) <= 2 log(2) s bounds the
    priced total by the hub trips over the extreme cost coefficients."""
    shares = setup.choice_shares(params)
    expected = -np.log1p(-shares.hub)
    assert np.all(np.abs(shares.cs_gain_util - expected) <= 1e-12 * expected)
    assert shares.hub.max() <= 0.5
    cs_total = sum(cs.cs_total for cs in consumer_surpluses(setup, shares))
    hub_trips = float(setup.trips @ shares.hub)
    cost = np.abs(setup.beta_cost)
    assert hub_trips / cost.max() <= cs_total <= 1.39 * hub_trips / cost.min()


def _standard_candidate_stack(seed7):
    """The seed-7 candidates of the standard service profile, stacked in
    one setup."""
    standard = [c for c in assign_services(cluster_stops(seed7.stops), seed7.lots) if not c.car_share_available]
    cfg = seed7.config
    screen = screen_trips(
        seed7.table,
        [c.location.lat for c in standard],
        [c.location.lon for c in standard],
        seed7.threshold,
        **cfg.screen_options(),
    )
    stacked = prepare_hub(
        seed7.table, [candidate_hub(c) for c in standard], screen, seed7.matrices, seed7.fares, **cfg.setup_options()
    )
    assert len(stacked.hubs) > 1
    return stacked


def test_consumer_surplus_is_the_nest_share_logsum(seed7):
    params = seed7.result.params
    for setup in [*seed7.setups.values(), _standard_candidate_stack(seed7)]:
        _assert_surplus_is_the_nest_logsum(setup, params)


def test_unimodal_shares_after_are_the_shares_before_times_one_minus_the_nest(seed7):
    # IIA: the hub nest takes the same fraction s of every unimodal mode,
    # so upper = before * (1 - s) to within rounding
    params = seed7.result.params
    for setup in [*seed7.setups.values(), _standard_candidate_stack(seed7)]:
        shares = setup.choice_shares(params)
        expected = shares.before * (1.0 - shares.hub)[:, None]
        assert np.all(np.abs(shares.upper - expected) <= 1e-15 * expected)
        assert np.count_nonzero(expected) > len(expected)  # more than one mode a market


def test_assess_hub_report_shape():
    _, _, _, setup = _impact_setup()
    (report,) = assess_hubs(setup, make_params(beta=0.4, asc=-2.0))
    d = report.to_dict()
    assert d["hub_id"] == "h1"
    assert d["n_markets"] == setup.n_markets
    assert d["potential_demand_trips_per_day"] == pytest.approx(float(setup.trips.sum()))
    assert set(d["unimodal_trips_before"]) == {m.value for m in Mode if m.value in d["unimodal_trips_before"]}
    assert "driving" in d["unimodal_trips_before"] and "carpool" in d["unimodal_trips_before"]
    assert d["multimodal_trips_per_day"] == pytest.approx(
        sum(d["multimodal_leg_trips_per_day"].values()), abs=1e-9
    )
    assert d["vmt"]["reduced_per_day"] == pytest.approx(
        d["vmt"]["before_driving"] + d["vmt"]["before_carpool"]
        - d["vmt"]["after_driving"] - d["vmt"]["after_carpool"],
        abs=1e-12,
    )
    assert d["hub_trip_proportion"] == pytest.approx(
        d["multimodal_trips_per_day"] / d["potential_demand_trips_per_day"]
    )
