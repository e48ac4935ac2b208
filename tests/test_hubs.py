"""Hub assembly: survey-derived combo sets, leg pricing, and the
vectorized choice setup checked against the scalar reference model."""

from __future__ import annotations

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    every_market,
    full_attrs,
    full_matrices,
    make_hub,
    make_market,
    make_params,
    make_taste,
    one_hub_setup,
    random_taste,
    simple_fares,
)
from reference_model import (
    ModeAttr,
    add_leg,
    assemble_leg_attrs,
    combo_utility,
    nested_shares,
    systematic_utility,
    table_from_markets,
)

from hubmodal import (
    CAR_SHARE_PROFILE_COMBOS,
    LEG_MODES,
    MAIN_MODES,
    STANDARD_PROFILE_COMBOS,
    ComboId,
    FareTable,
    GeoPoint,
    Hub,
    HubChoiceSetup,
    HubParams,
    LegMatrices,
    LegTimes,
    Mode,
    Segment,
    SurveyRecord,
    build_combos,
    leg_cost_usd,
    prepare_hub,
    unimodal_terms,
)

import hubmodal.hubs
from hubmodal.choice import LEG_MODE_ORDER
from hubmodal.impacts import assess_hubs

P1 = GeoPoint(lat=42.65, lon=-73.76)
P2 = GeoPoint(lat=42.70, lon=-73.70)


def record(entry: Mode, exit: Mode, complete: bool = True) -> SurveyRecord:
    return SurveyRecord(
        hub_id="h1", origin=P1, destination=P2,
        entry_mode=entry, exit_mode=exit, complete=complete,
    )


def test_build_combos_single_record():
    got = build_combos([record(Mode.CAR, Mode.BUS)])
    assert got == (ComboId(Mode.CAR, Mode.BUS),)


def test_build_combos_deduplicates():
    recs = [record(Mode.CAR, Mode.BUS)] * 3 + [record(Mode.WALK_LEG, Mode.BUS)]
    got = build_combos(recs)
    assert got == (ComboId(Mode.CAR, Mode.BUS), ComboId(Mode.WALK_LEG, Mode.BUS))


def test_build_combos_directional():
    # car->bus and bus->car are distinct alternatives
    got = build_combos([record(Mode.CAR, Mode.BUS), record(Mode.BUS, Mode.CAR)])
    assert len(got) == 2


def test_build_combos_ignores_incomplete_records():
    recs = [record(Mode.CAR, Mode.BUS), record(Mode.BIKE_SHARE, Mode.BUS, complete=False)]
    assert build_combos(recs) == (ComboId(Mode.CAR, Mode.BUS),)


def test_build_combos_filters_unavailable_services():
    recs = [
        record(Mode.CAR_SHARE, Mode.BUS),
        record(Mode.BUS, Mode.BIKE_SHARE),
        record(Mode.WALK_LEG, Mode.BUS),
    ]
    got = build_combos(recs, car_share_available=False, bike_share_available=False)
    assert got == (ComboId(Mode.WALK_LEG, Mode.BUS),)


def test_build_combos_order_independent(rng):
    legs = [Mode.BUS, Mode.CAR, Mode.WALK_LEG, Mode.BIKE_SHARE]
    recs = [record(e, x) for e in legs for x in legs]
    base = build_combos(recs)
    for _ in range(5):
        rng.shuffle(recs)
        assert build_combos(recs) == base


def test_build_combos_empty_errors():
    with pytest.raises(ValueError, match="empty survey"):
        build_combos([])
    with pytest.raises(ValueError, match="no complete records"):
        build_combos([record(Mode.CAR, Mode.BUS, complete=False)])
    # every combo needs a service the hub does not offer
    shared = [record(Mode.CAR_SHARE, Mode.BUS), record(Mode.BUS, Mode.BIKE_SHARE), record(Mode.WALK_LEG, Mode.CAR_SHARE)]
    with pytest.raises(ValueError, match=r"^no usable combo: .* \(bike_share, car_share\)$"):
        build_combos(shared, car_share_available=False, bike_share_available=False)
    with pytest.raises(ValueError, match=r"\(car_share\)$"):
        build_combos(shared[:1], car_share_available=False)
    # a combo left over is no error
    assert build_combos(shared, car_share_available=False) == (ComboId(Mode.BUS, Mode.BIKE_SHARE),)


def test_hub_rejects_combo_for_missing_service():
    with pytest.raises(ValueError, match="car share"):
        Hub(
            id="h1", location=P1, car_share_available=False, bike_share_available=True,
            combos=frozenset({ComboId(Mode.CAR_SHARE, Mode.BUS)}),
        )


def test_sorted_combos_is_deterministic():
    hub = make_hub(combos=(
        ComboId(Mode.WALK_LEG, Mode.BUS),
        ComboId(Mode.BUS, Mode.CAR),
        ComboId(Mode.CAR, Mode.BUS),
    ), car_share=False, bike_share=False)
    labels = [c.label() for c in hub.sorted_combos()]
    assert labels == sorted(labels)


def test_leg_costs():
    fares = simple_fares()
    walk = LegTimes(minutes=12.0)
    assert leg_cost_usd(Mode.WALK_LEG, walk.minutes, 0.5, fares) == 0.0
    # 30 minutes of car share at $5/hour
    assert leg_cost_usd(Mode.CAR_SHARE, 30.0, 0.0, fares) == pytest.approx(2.50)
    assert leg_cost_usd(Mode.BUS, 20.0, 3.0, fares) == 1.50
    assert leg_cost_usd(Mode.CAR, 10.0, 4.0, fares) == pytest.approx(0.80)
    with pytest.raises(ValueError, match="not a leg mode"):
        leg_cost_usd(Mode.DRIVING, walk.minutes, 1.0, fares)


def test_bike_share_step_schedule():
    fares = FareTable(
        bus_fare_usd=1.0, car_share_usd_per_hour=5.0,
        bike_share_steps=((30.0, 1.0), (60.0, 2.5), (math.inf, 5.0)),
    )
    assert fares.bike_share_fare(10.0) == 1.0
    assert fares.bike_share_fare(30.0) == 1.0  # boundary belongs to the lower step
    assert fares.bike_share_fare(31.0) == 2.5
    assert fares.bike_share_fare(60.0) == 2.5
    assert fares.bike_share_fare(200.0) == 5.0
    got = fares.bike_share_fare(np.array([10.0, 30.0, 31.0, 60.0, 200.0]))
    assert list(got) == [1.0, 1.0, 2.5, 2.5, 5.0]


def test_bike_share_steps_must_be_sorted():
    with pytest.raises(ValueError, match="sorted"):
        FareTable(bus_fare_usd=1.0, car_share_usd_per_hour=5.0,
                  bike_share_steps=((60.0, 2.5), (30.0, 1.0)))


def test_bus_leg_attributes_field_by_field():
    market = make_market()
    matrices = LegMatrices()
    add_leg(matrices, market.o_zone, "h1", Mode.BUS,
            LegTimes(minutes=15.0, access_min=5.0, egress_min=5.0, transfers=0.0), None)
    add_leg(matrices, market.d_zone, "h1", Mode.BUS,
            None, LegTimes(minutes=18.0, access_min=2.0, egress_min=3.0, transfers=1.0))
    hub = make_hub(combos=(ComboId(Mode.BUS, Mode.BUS),), car_share=False, bike_share=False)
    attrs = assemble_leg_attrs(market, hub, ComboId(Mode.BUS, Mode.BUS), matrices, simple_fares())
    entry, exit = attrs
    assert (entry.ivt_min, entry.access_min, entry.egress_min, entry.transfers) == (15.0, 5.0, 5.0, 0.0)
    assert entry.cost_usd == 1.50
    assert (exit.ivt_min, exit.access_min, exit.egress_min, exit.transfers) == (18.0, 2.0, 3.0, 1.0)
    assert exit.cost_usd == 1.50


def test_assemble_returns_none_for_missing_leg():
    market = make_market()
    matrices = LegMatrices()
    add_leg(matrices, market.o_zone, "h1", Mode.CAR, LegTimes(minutes=10.0, miles=3.0), None)
    hub = make_hub(combos=(ComboId(Mode.CAR, Mode.CAR),), car_share=False, bike_share=False)
    # exit direction is absent from the matrices
    assert assemble_leg_attrs(market, hub, ComboId(Mode.CAR, Mode.CAR), matrices, simple_fares()) is None


def test_car_leg_miles_fall_back_to_circuity_adjusted_great_circle():
    from hubmodal import MILES_PER_KM, great_circle_km

    market = make_market()
    matrices = LegMatrices()
    add_leg(matrices, market.o_zone, "h1", Mode.CAR, LegTimes(minutes=10.0, miles=None), None)
    add_leg(matrices, market.d_zone, "h1", Mode.CAR, None, LegTimes(minutes=10.0, miles=2.0))
    hub = make_hub(combos=(ComboId(Mode.CAR, Mode.CAR),), car_share=False, bike_share=False)
    entry, exit = assemble_leg_attrs(market, hub, ComboId(Mode.CAR, Mode.CAR), matrices, simple_fares())
    gc_miles = great_circle_km(market.origin, hub.location) * MILES_PER_KM
    assert entry.cost_usd == pytest.approx(0.20 * gc_miles * 1.3)
    assert exit.cost_usd == pytest.approx(0.20 * 2.0)


def test_combo_utility_is_sum_of_leg_utilities():
    taste = make_taste()
    market = make_market(taste=taste)
    entry = systematic_utility(taste, make_leg_attr(12.0, 1.5), Mode.BUS)
    exit = systematic_utility(taste, make_leg_attr(8.0, 0.0), Mode.WALK_LEG)
    got = combo_utility(
        market, None, ComboId(Mode.BUS, Mode.WALK_LEG),
        (make_leg_attr(12.0, 1.5), make_leg_attr(8.0, 0.0)),
    )
    assert got == pytest.approx(entry + exit)


def make_leg_attr(ivt: float, cost: float):
    return ModeAttr(ivt_min=ivt, cost_usd=cost)


def test_combo_utility_rejects_combo_outside_hub_choice_set():
    hub = make_hub(combos=(ComboId(Mode.CAR, Mode.BUS),), car_share=False, bike_share=False)
    market = make_market()
    with pytest.raises(ValueError, match="combo unavailable"):
        combo_utility(market, hub, ComboId(Mode.BUS, Mode.CAR),
                      (make_leg_attr(5.0, 0.0), make_leg_attr(5.0, 0.0)))


def _small_setup(n_markets: int = 4):
    hub = make_hub(
        hub_id="h1",
        combos=(
            ComboId(Mode.CAR, Mode.BUS),
            ComboId(Mode.WALK_LEG, Mode.BUS),
            ComboId(Mode.BIKE_SHARE, Mode.WALK_LEG),
        ),
        car_share=False,
    )
    markets = [
        make_market(
            od_id=f"od{i}",
            segment=list(Segment)[i % 4],
            o=(42.63 + 0.01 * i, -73.78),
            d=(42.70, -73.69 - 0.005 * i),
            trips=5.0 + i,
            miles=4.0 + i,
        )
        for i in range(n_markets)
    ]
    zones = {z: None for m in markets for z in (m.o_zone, m.d_zone)}
    matrices = full_matrices(zones, "h1", minutes=11.0, miles=2.5)
    setup = one_hub_setup(markets, hub, matrices, simple_fares())
    return markets, hub, matrices, setup


def test_prepare_hub_against_scalar_shares():
    markets, hub, matrices, setup = _small_setup()
    fares = simple_fares()
    params = make_params(beta=0.4, asc=-3.0)
    shares = setup.choice_shares(params)
    for row, market in enumerate(sorted(markets, key=lambda m: m.market_id)):
        uni = {m: systematic_utility(market.taste, a, m) for m, a in market.attrs.items()}
        combo_u = {}
        for combo in setup.combos:
            legs = assemble_leg_attrs(market, hub, combo, matrices, fares)
            combo_u[combo] = combo_utility(market, hub, combo, legs)
        ns = nested_shares(uni, combo_u, params, market.segment)
        assert shares.hub[row] == pytest.approx(ns.hub_share, abs=1e-12)
        assert setup.hub_nest_share(params)[row] == pytest.approx(ns.hub_share, abs=1e-12)
        for j, combo in enumerate(setup.combos):
            assert shares.lower[row, j] == pytest.approx(ns.lower[combo], abs=1e-12)
        # setup columns follow MAIN_MODES order
        for col, mode in enumerate(MAIN_MODES):
            assert shares.upper[row, col] == pytest.approx(ns.upper[mode], abs=1e-12)


def test_setup_evaluations_carry_no_state_between_parameter_sets():
    """The parameter-free softmax terms are computed once per setup; each of
    two parameter sets evaluated in turn matches the scalar reference,
    including markets with some or no reachable combos."""
    markets, hub, _, _ = _small_setup()
    fares = simple_fares()
    full = [markets[0], markets[3]]
    matrices = full_matrices({z: None for m in full for z in (m.o_zone, m.d_zone)}, "h1", minutes=11.0, miles=2.5)
    # market 1 reaches only the walk+bus combo; market 2 reaches none
    add_leg(matrices, markets[1].o_zone, "h1", Mode.WALK_LEG, LegTimes(minutes=9.0), None)
    add_leg(matrices, markets[1].d_zone, "h1", Mode.BUS, None, LegTimes(minutes=14.0, access_min=3.0))
    setup = one_hub_setup(markets, hub, matrices, fares)
    combo_util, uni_util = setup.combo_util.copy(), setup.uni_util.copy()
    ordered = sorted(markets, key=lambda m: m.market_id)
    unreachable = ordered.index(markets[2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in (make_params(beta=0.4, asc=-3.0), make_params(beta=0.9, asc=-5.0, senior=-1.0)):
            nest = setup.hub_nest_share(params)
            shares = setup.choice_shares(params)
            lower = np.zeros((setup.n_markets, setup.n_combos))  # the live rows' within-nest shares, 0 elsewhere
            lower[shares.live] = shares.lower
            assert unreachable not in shares.live
            assert nest[unreachable] == 0.0
            assert shares.hub[unreachable] == 0.0
            for row, market in enumerate(ordered):
                uni = {m: systematic_utility(market.taste, a, m) for m, a in market.attrs.items()}
                combo_u = {}
                for combo in setup.combos:
                    legs = assemble_leg_attrs(market, hub, combo, matrices, fares)
                    if legs is not None:
                        combo_u[combo] = combo_utility(market, hub, combo, legs)
                ns = nested_shares(uni, combo_u, params, market.segment)
                assert nest[row] == pytest.approx(ns.hub_share, abs=1e-12)
                assert shares.hub[row] == pytest.approx(ns.hub_share, abs=1e-12)
                for j, combo in enumerate(setup.combos):
                    assert lower[row, j] == pytest.approx(ns.lower.get(combo, 0.0), abs=1e-12)
                for col, mode in enumerate(MAIN_MODES):
                    assert shares.upper[row, col] == pytest.approx(ns.upper[mode], abs=1e-12)
    np.testing.assert_array_equal(setup.combo_util, combo_util)
    np.testing.assert_array_equal(setup.uni_util, uni_util)


def test_prepare_hub_stacks_rows_in_market_id_order():
    markets, hub, matrices, _ = _small_setup()
    table = table_from_markets(reversed(markets))
    setup = prepare_hub(table, [hub], every_market(table, [hub]), matrices, simple_fares())
    assert (np.diff(setup.rows) > 0).all()
    assert [table.ids[i] for i in setup.rows.tolist()] == sorted(m.market_id for m in markets)


@pytest.mark.parametrize("shape", [(1, 3), (2, 4), (4,)])
def test_prepare_hub_rejects_a_mask_of_another_shape(shape):
    markets, hub, matrices, _ = _small_setup(4)
    table = table_from_markets(markets)
    screen = every_market(table, [hub]).with_keep(np.ones(shape, dtype=bool))
    with pytest.raises(ValueError, match=rf"{re.escape(str(shape))}.*\(1, 4\)"):
        prepare_hub(table, [hub], screen, matrices, simple_fares())


def test_prepare_hub_rejects_the_distances_of_other_hubs():
    markets, hub, matrices, _ = _small_setup(4)
    table = table_from_markets(markets)
    two = every_market(table, [hub, hub])
    with pytest.raises(ValueError, match="distances are not of these hubs"):
        prepare_hub(table, [hub], two.with_keep(two.keep[:1]), matrices, simple_fares())
    assert prepare_hub(table, [hub], two[1:], matrices, simple_fares()).n_markets == 4


def test_stacked_hubs_must_share_one_choice_set():
    markets, hub, matrices, setup = _small_setup(2)
    other = make_hub(hub_id="h2", combos=(ComboId(Mode.WALK_LEG, Mode.BUS),), car_share=False)
    table = table_from_markets(markets)
    with pytest.raises(ValueError, match="^stacked hubs must share one choice set$"):
        prepare_hub(table, [hub, other], every_market(table, [hub, other]), matrices, simple_fares())
    # a hand-built setup takes its choice set from its hubs, under the same
    # rule; here the second hub keeps no market
    arrays = (
        setup.rows, setup.live, setup.segment_codes, setup.trips, setup.drive_miles, setup.uni_util,
        unimodal_terms(setup.uni_util), setup.combo_util, setup.vmt_miles, setup.entry_fraction, setup.beta_cost,
    )  # fmt: skip
    bounds = (0, setup.n_markets, setup.n_markets)
    with pytest.raises(ValueError, match="^stacked hubs must share one choice set$"):
        HubChoiceSetup([hub, other], *arrays, bounds=bounds)
    twin = make_hub(hub_id="h2", combos=tuple(hub.combos), car_share=False)
    stacked = HubChoiceSetup([hub, twin], *arrays, bounds=bounds)
    assert stacked.combos == setup.combos == hub.sorted_combos()
    assert stacked.layout is setup.layout  # one layout per choice set


def _surveyed_combos(seed7):
    records = [record(Mode.BUS, Mode.BUS), record(Mode.CAR, Mode.BUS), record(Mode.BUS, Mode.CAR_SHARE)]
    records += [record(Mode.CAR, Mode.CAR), record(Mode.WALK_LEG, Mode.BIKE_SHARE), record(Mode.CAR_SHARE, Mode.CAR)]
    return [build_combos(records), *(tuple(setup.hubs[0].combos) for setup in seed7.setups.values())]


@pytest.mark.parametrize("choice_set", ["car_share_profile", "standard_profile", "surveyed"])
def test_layout_sites_are_a_scan_of_the_combos(seed7, choice_set):
    """Each leg mode's sites are where a plain scan of the sorted combos,
    entry leg before exit leg, finds it, in that order."""
    sets = {
        "car_share_profile": [CAR_SHARE_PROFILE_COMBOS],
        "standard_profile": [STANDARD_PROFILE_COMBOS],
        "surveyed": _surveyed_combos(seed7),
    }[choice_set]
    for combos in sets:
        hub = make_hub(combos=combos)
        markets = [make_market(od_id="od0", segment=Segment.SENIOR)]
        zones = {markets[0].o_zone: None, markets[0].d_zone: None}
        setup = one_hub_setup(markets, hub, full_matrices(zones, "h1"), simple_fares())
        layout = setup.layout
        assert setup.combos == layout.combos == hub.sorted_combos()
        assert set(layout.sites) == set(LEG_MODES)
        for mode in LEG_MODES:
            scan = [(j, d) for j, combo in enumerate(setup.combos) for d, leg in enumerate((combo.entry, combo.exit)) if leg == mode]
            sites = layout.sites[mode]
            assert sites.shape == (2, len(scan)) and sites.dtype == np.intp
            assert list(zip(*sites.tolist())) == scan
            assert not sites.flags.writeable


def test_prepare_hub_marks_missing_legs_unavailable():
    markets, hub, _, _ = _small_setup(2)
    sparse = LegMatrices()
    # only the walk+bus combo has data, and only for the first market
    m0 = markets[0]
    add_leg(sparse, m0.o_zone, "h1", Mode.WALK_LEG, LegTimes(minutes=9.0), LegTimes(minutes=9.0))
    add_leg(sparse, m0.d_zone, "h1", Mode.BUS, LegTimes(minutes=14.0, access_min=3.0), LegTimes(minutes=14.0, access_min=3.0))
    setup = one_hub_setup(markets, hub, sparse, simple_fares())
    j = setup.combos.index(ComboId(Mode.WALK_LEG, Mode.BUS))
    row0 = sorted(m.market_id for m in markets).index(m0.market_id)
    # the other market reaches no combo: it has no combo row, and none of its legs is priced
    assert setup.live.tolist() == [row0]
    assert np.isfinite(setup.combo_util[0, j])
    other = [c for c in range(setup.n_combos) if c != j]
    assert np.isneginf(setup.combo_util[0, other]).all()
    row1 = 1 - row0
    # a market with no reachable combo contributes zero nest share
    assert setup.hub_nest_share(make_params())[row1] == 0.0


# Only beta_cost is non-zero, and at -1, so a leg's utility is minus its cost.
COST_ONLY_TASTE = make_taste(
    beta_auto_tt=0.0, beta_trans_ivt=0.0, beta_trans_at=0.0, beta_trans_et=0.0,
    beta_trans_n=0.0, beta_nonveh_tt=0.0, beta_cost=-1.0,
    asc_driving=0.0, asc_transit=0.0, asc_ondemand=0.0, asc_biking=0.0, asc_walking=0.0,
)


def _entry_leg_costs(entry_mode: Mode, legs: list[LegTimes], fares: FareTable) -> np.ndarray:
    """Entry-leg cost per market as prepare_hub prices it, read off the
    combo utility of entry_mode + a free walk exit leg."""
    markets = [make_market(od_id=f"od{i}", taste=COST_ONLY_TASTE) for i in range(len(legs))]
    matrices = LegMatrices()
    for market, leg in zip(markets, legs):
        add_leg(matrices, market.o_zone, "h1", entry_mode, leg, None)
        add_leg(matrices, market.d_zone, "h1", Mode.WALK_LEG, None, LegTimes(minutes=5.0))
    hub = make_hub(combos=(ComboId(entry_mode, Mode.WALK_LEG),))
    setup = one_hub_setup(markets, hub, matrices, fares)
    assert setup.rows.tolist() == list(range(len(markets)))
    return -setup.combo_util[:, 0]


def test_prepare_hub_prices_car_leg_by_circuity_adjusted_great_circle():
    from hubmodal import MILES_PER_KM, great_circle_km

    market = make_market()
    hub = make_hub()
    gc_miles = great_circle_km(market.origin, hub.location) * MILES_PER_KM
    # no network miles: origin to hub is 3.311 km = 2.0575 mi great-circle,
    # x 1.3 circuity x $0.20/mi = $0.5349; 4 network miles cost $0.80
    got = _entry_leg_costs(Mode.CAR, [LegTimes(minutes=10.0), LegTimes(minutes=10.0, miles=4.0)], simple_fares())
    assert got[0] == pytest.approx(gc_miles * 1.3 * 0.20, rel=1e-12)
    assert got[0] == pytest.approx(0.5349, abs=1e-4)
    assert got[1] == pytest.approx(0.80, rel=1e-12)


def test_prepare_hub_prices_bike_share_leg_on_the_step_schedule():
    fares = FareTable(
        bus_fare_usd=1.0, car_share_usd_per_hour=5.0,
        bike_share_steps=((30.0, 1.0), (60.0, 2.5), (math.inf, 5.0)),
    )
    legs = [LegTimes(minutes=t) for t in (10.0, 30.0, 31.0, 60.0, 200.0)]
    # a ride of exactly a step's bound pays that step's fare
    assert list(_entry_leg_costs(Mode.BIKE_SHARE, legs, fares)) == [1.0, 1.0, 2.5, 2.5, 5.0]


def test_prepare_hub_prices_car_share_leg_at_the_hourly_rate():
    legs = [LegTimes(minutes=t) for t in (30.0, 90.0, 12.0)]
    # $5/hour
    got = _entry_leg_costs(Mode.CAR_SHARE, legs, simple_fares())
    np.testing.assert_allclose(got, [2.50, 7.50, 1.00], rtol=1e-12)


def test_entry_fraction_and_vmt_miles_fallbacks():
    from hubmodal import MILES_PER_KM, great_circle_km

    walk_bus, walk_walk = ComboId(Mode.WALK_LEG, Mode.BUS), ComboId(Mode.WALK_LEG, Mode.WALK_LEG)
    bus_bus, bus_walk = ComboId(Mode.BUS, Mode.BUS), ComboId(Mode.BUS, Mode.WALK_LEG)
    hub = make_hub(combos=(walk_bus, walk_walk, bus_bus, bus_walk))
    # the second market starts at the hub: its walk leg's great circle is 0 miles
    m0 = make_market(od_id="od0")
    m1 = make_market(od_id="od1", o=(hub.location.lat, hub.location.lon))
    matrices = LegMatrices()
    for m in (m0, m1):
        add_leg(matrices, m.o_zone, "h1", Mode.WALK_LEG, LegTimes(minutes=9.0), None)  # no network miles
        add_leg(matrices, m.o_zone, "h1", Mode.BUS, LegTimes(minutes=14.0, miles=0.0), None)
        add_leg(matrices, m.d_zone, "h1", Mode.BUS, None, LegTimes(minutes=14.0, miles=3.1))
        add_leg(matrices, m.d_zone, "h1", Mode.WALK_LEG, None, LegTimes(minutes=5.0, miles=0.0))
    setup = one_hub_setup([m0, m1], hub, matrices, simple_fares())
    j = {combo: setup.combos.index(combo) for combo in (walk_bus, walk_walk, bus_bus, bus_walk)}
    frac, vmt = setup.entry_fraction, setup.vmt_miles
    assert frac.shape == (2, 4) and vmt.shape == (2, 4, 2)
    gc = great_circle_km(m0.origin, hub.location) * MILES_PER_KM
    # an entry leg with no network miles weighs its raw great circle, and
    # its VMT applies the circuity factor on top
    assert frac[0, j[walk_bus]] == gc / (gc + 3.1)
    assert vmt[0, j[walk_bus]].tolist() == [gc * 1.3, 3.1]
    # legs with network miles use them as they are, 0 miles included
    assert frac[0, j[bus_bus]] == 0.0
    assert vmt[0, j[bus_bus]].tolist() == [0.0, 3.1]
    assert frac[0, j[walk_walk]] == 1.0
    # legs that total 0 miles split evenly, in network miles or in great circle
    assert frac[:, j[bus_walk]].tolist() == [0.5, 0.5]
    assert vmt[1, j[walk_walk]].tolist() == [0.0, 0.0]
    assert frac[1, j[walk_walk]] == 0.5


def test_choice_shares_before_is_plain_mnl():
    _, _, _, setup = _small_setup()
    shares = setup.choice_shares(make_params())
    np.testing.assert_allclose(shares.before.sum(axis=1), 1.0, atol=1e-12)
    total = shares.upper.sum(axis=1) + shares.hub
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


# --- the unimodal terms and the live-row kernel --------------------------------


def _bits(a: np.ndarray) -> tuple:
    """An array's dtype, shape and bytes: equal exactly when two arrays are
    equal bit for bit, signed zeros and infinities included."""
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def _assert_terms_are_each_rows_softmax(table, setup) -> None:
    """The unimodal terms ``prepare_hub`` gathered for ``setup`` are the
    softmax of each of its rows' utilities taken on its own."""
    uni_max, logsum_j, before = (term[setup.rows] for term in table.uni_terms)
    assert _bits(setup.logsum_j) == _bits(logsum_j)
    assert _bits(setup.before) == _bits(before)
    for row, util in enumerate(setup.uni_util):
        top = util.max()
        e = np.exp(util - top)
        total = e.sum()
        assert _bits(uni_max[row]) == _bits(top)
        assert _bits(logsum_j[row]) == _bits(top + np.log(total))
        assert _bits(before[row]) == _bits(e / total)


def test_gathered_unimodal_terms_are_each_rows_softmax(seed7, rng):
    for setup in seed7.setups.values():
        _assert_terms_are_each_rows_softmax(seed7.table, setup)
    # a table whose markets lack random unimodal modes
    markets = []
    for i in range(30):
        modes = [m for m in MAIN_MODES if rng.uniform() < 0.5] or [MAIN_MODES[i % len(MAIN_MODES)]]
        attrs = {m: a for m, a in full_attrs(drive_min=float(rng.uniform(5, 40))).items() if m in modes}
        segment, origin = list(Segment)[i % 4], (42.63 + 0.002 * i, -73.78)
        markets.append(make_market(od_id=f"od{i}", segment=segment, o=origin, taste=random_taste(rng), attrs=attrs))
    table = table_from_markets(markets)
    assert np.isinf(table.unimodal_utilities()).any()
    hub = make_hub(combos=(ComboId(Mode.WALK_LEG, Mode.BUS),), car_share=False)
    matrices = full_matrices({z: None for m in markets for z in (m.o_zone, m.d_zone)}, "h1")
    setup = prepare_hub(table, [hub], every_market(table, [hub]), matrices, simple_fares())
    _assert_terms_are_each_rows_softmax(table, setup)
    assert _bits(unimodal_terms(table.unimodal_utilities())[2]) == _bits(table.uni_terms[2])


# Three combos over four leg modes, so that a missing leg takes some of a
# row's combos and missing legs together can take them all.
_KERNEL_COMBOS = (ComboId(Mode.CAR, Mode.BUS), ComboId(Mode.WALK_LEG, Mode.BUS), ComboId(Mode.BIKE_SHARE, Mode.WALK_LEG))


@st.composite
def _patchy_stacks(draw):
    """A stack of 1 to 3 hubs over a table of 1 to 5 markets, each hub
    keeping markets of its own, on matrices that lack every leg, none, or
    a drawn set: no row, every row or some rows reach a combo."""
    n, n_hubs = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    ends = [((42.63 + 0.01 * i, -73.78), (42.70, -73.69 - 0.005 * i)) for i in range(n)]
    markets = [make_market(od_id=f"od{i}", segment=list(Segment)[i % 4], o=o, d=d) for i, (o, d) in enumerate(ends)]
    hubs = [make_hub(hub_id=f"h{h}", combos=_KERNEL_COMBOS, car_share=False) for h in range(n_hubs)]
    zones = sorted({z for m in markets for z in (m.o_zone, m.d_zone)})
    keys = [(z, h, c) for z in range(len(zones)) for h in range(n_hubs) for c in range(len(LEG_MODE_ORDER))]
    cells = functools.partial(st.lists, min_size=len(keys), max_size=len(keys))
    legs = draw(st.sampled_from(["none", "all", "some"]))
    present = draw(cells(st.booleans())) if legs == "some" else [legs == "all"] * len(keys)
    minutes = draw(cells(st.floats(1.0, 60.0)))
    rows = [(k, t) for k, t, p in zip(keys, minutes, present) if p]
    zone, hub, mode = (np.array([k[i] for k, _ in rows], dtype=np.int64) for i in range(3))
    block = np.zeros((len(rows), 5))
    block[:, 0] = [t for _, t in rows]
    block[:, 4] = np.nan  # no network miles: the legs are priced on the great circle
    matrices = LegMatrices(zones, [h.id for h in hubs], zone, hub, mode, np.stack([block, block * 1.1]))
    keep = np.array(draw(st.lists(st.booleans(), min_size=n_hubs * n, max_size=n_hubs * n))).reshape(n_hubs, n)
    table = table_from_markets(markets)
    return table, hubs, every_market(table, hubs).with_keep(keep), matrices


@settings(max_examples=80, deadline=None)
@given(case=_patchy_stacks(), beta=st.floats(0.05, 1.0), asc=st.floats(-6.0, 2.0))
def test_live_row_kernel_scatters_the_closed_form_of_an_empty_nest(case, beta, asc):
    """Rows with no reachable combo get an empty nest's closed form, and
    live rows are bit for bit those of a setup of the live rows alone."""
    table, hubs, screen, matrices = case
    params = make_params(beta=beta, asc=asc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = prepare_hub(table, hubs, screen, matrices, simple_fares())
        assert np.isfinite(stack.combo_util).any(axis=1).all()  # the combo rows are the live rows'
        live = np.zeros(stack.n_markets, dtype=bool)
        live[stack.live] = True
        dead = int((~live).sum())
        shares = stack.choice_shares(params)
        share, grad = stack.hub_nest_share_and_gradient(params)
        assert _bits(share) == _bits(stack.hub_nest_share(params)) == _bits(shares.hub)
        for name in ("hub", "cs_gain_util"):
            assert _bits(getattr(shares, name)[~live]) == _bits(np.zeros(dead)), name
        assert shares.lower.shape == (len(stack.live), stack.n_combos)
        assert _bits(shares.v_hub[~live]) == _bits(np.full(dead, -np.inf))
        assert _bits(shares.upper[~live]) == _bits(shares.before[~live])
        assert _bits(grad[~live]) == _bits(np.zeros((dead, len(HubParams.NAMES))))

        # the same hubs keeping only the live rows
        own = np.repeat(np.arange(len(hubs)), [b - a for a, b in stack.spans])
        keep = np.zeros_like(screen.keep)
        keep[own[live], stack.rows[live]] = True
        alone = prepare_hub(table, hubs, screen.with_keep(keep), matrices, simple_fares())
        assert alone.live.tolist() == list(range(alone.n_markets))
        expected = alone.choice_shares(params)
        for name in ("before", "upper", "hub", "logsum_j", "v_hub", "cs_gain_util"):
            assert _bits(getattr(shares, name)[live]) == _bits(getattr(expected, name)), name
        assert _bits(shares.lower) == _bits(expected.lower)
        alone_share, alone_grad = alone.hub_nest_share_and_gradient(params)
        assert _bits(share[live]) == _bits(alone_share)
        assert _bits(grad[live]) == _bits(alone_grad)


# Why a (market, hub) row of _dead_row_stacks can or cannot reach one of
# _KERNEL_COMBOS: its origin or destination (zone, hub) pair has no matrix
# row; the pairs have rows of every leg mode, but no minutes either way;
# the rows carry minutes the wrong way only (from the hub at the origin,
# to it at the destination); or it is live.
_ROW_KINDS = ("missing_pair", "nan_minutes", "one_way", "live")


@st.composite
def _dead_row_stacks(draw):
    """A stack of 1 to 3 hubs over 2 to 6 markets, each row of a drawn
    kind (_ROW_KINDS), at least one dead, and each hub keeping a drawn set
    of markets; with the set of live rows as (hub, market) pairs."""
    n, n_hubs = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    markets = [make_market(od_id=f"od{i}", segment=list(Segment)[i % 4], o=(42.63 + 0.01 * i, -73.78), d=(42.70, -73.69 - 0.005 * i)) for i in range(n)]
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=n * n_hubs, max_size=n * n_hubs).filter(lambda k: "live" != min(k)))
    hubs = [make_hub(hub_id=f"h{h}", combos=_KERNEL_COMBOS, car_share=False) for h in range(n_hubs)]
    zones = sorted({z for m in markets for z in (m.o_zone, m.d_zone)})
    entry, exit = {c.entry for c in _KERNEL_COMBOS}, {c.exit for c in _KERNEL_COMBOS}
    rows = []  # (zone, hub, mode, to-hub minutes, from-hub minutes)
    for (h, i), kind in zip([(h, i) for h in range(n_hubs) for i in range(n)], kinds):
        ends = [(zones.index(markets[i].o_zone), entry, 0), (zones.index(markets[i].d_zone), exit, 1)]
        if kind == "missing_pair":
            del ends[draw(st.integers(0, 1))]
        for zone, modes, way in ends:
            for mode in modes:
                minutes = [np.nan, np.nan]
                if kind != "nan_minutes":
                    minutes[1 - way if kind == "one_way" else way] = draw(st.floats(1.0, 60.0))
                rows.append((zone, h, LEG_MODE_ORDER.index(mode), *minutes))
    zone, hub, mode = (np.array([r[k] for r in rows], dtype=np.int64) for k in range(3))
    legs = np.zeros((2, len(rows), 5))
    legs[:, :, 0] = np.array([r[3:] for r in rows]).T
    legs[:, :, 4] = np.nan  # no network miles: the legs are priced on the great circle
    matrices = LegMatrices(zones, [h.id for h in hubs], zone, hub, mode, legs)
    keep = np.array(draw(st.lists(st.booleans(), min_size=n * n_hubs, max_size=n * n_hubs))).reshape(n_hubs, n)
    table = table_from_markets(markets)
    market_row = [table.ids.index(m.market_id) for m in markets]
    live = {(h, market_row[i]) for (h, i), kind in zip([(h, i) for h in range(n_hubs) for i in range(n)], kinds) if kind == "live"}
    return table, hubs, every_market(table, hubs).with_keep(keep), matrices, live


@settings(max_examples=60, deadline=None)
@given(case=_dead_row_stacks())
def test_legs_are_priced_for_live_rows_alone_and_the_stack_scores_as_each_hub_alone(case):
    """A stacked setup prices the legs of the rows that can reach a combo
    and of no other, whichever way a row is dead, and each hub's impact
    figures equal those of a setup of that hub alone, bit for bit."""
    table, hubs, screen, matrices, live = case
    params = make_params(beta=0.6, asc=-1.5)
    priced = []  # the rows of each leg utility the pricing computes
    utility = hubmodal.hubs.mode_utility
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hubmodal.hubs, "mode_utility", lambda *a, **k: priced.append(np.shape(k["ivt_min"])[-1]) or utility(*a, **k))
        stack = prepare_hub(table, hubs, screen, matrices, simple_fares())
    own = np.repeat(np.arange(len(hubs)), [b - a for a, b in stack.spans])
    kept_live = sorted((h, r) for h, r in zip(own.tolist(), stack.rows.tolist()) if (h, r) in live)
    assert priced and set(priced) == {len(kept_live)}
    assert sorted(zip(own[stack.live].tolist(), stack.rows[stack.live].tolist())) == kept_live
    reports = assess_hubs(stack, params)
    for h, (hub, report) in enumerate(zip(hubs, reports)):
        alone = prepare_hub(table, [hub], screen[h : h + 1], matrices, simple_fares())
        (expected,) = assess_hubs(alone, params)
        assert repr(report.to_dict()) == repr(expected.to_dict())
        assert _bits(stack.hub_nest_share(params)[own == h]) == _bits(alone.hub_nest_share(params))
