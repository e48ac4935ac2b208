"""Hub assembly: survey-derived combo sets, leg pricing, and the
vectorized choice setup checked against the scalar reference model."""

from __future__ import annotations

import math
import re
import warnings

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
from reference_model import assemble_leg_attrs, combo_utility, nested_shares, systematic_utility

from hubmodal import (
    MAIN_MODES,
    ComboId,
    FareTable,
    GeoPoint,
    Hub,
    LegMatrices,
    LegTimes,
    MarketTable,
    Mode,
    Segment,
    SurveyRecord,
    build_combos,
    leg_cost_usd,
    prepare_hub,
)

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
    matrices.add(market.o_zone, "h1", Mode.BUS,
                 LegTimes(minutes=15.0, access_min=5.0, egress_min=5.0, transfers=0.0), None)
    matrices.add(market.d_zone, "h1", Mode.BUS,
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
    matrices.add(market.o_zone, "h1", Mode.CAR, LegTimes(minutes=10.0, miles=3.0), None)
    hub = make_hub(combos=(ComboId(Mode.CAR, Mode.CAR),), car_share=False, bike_share=False)
    # exit direction is absent from the matrices
    assert assemble_leg_attrs(market, hub, ComboId(Mode.CAR, Mode.CAR), matrices, simple_fares()) is None


def test_car_leg_miles_fall_back_to_circuity_adjusted_great_circle():
    from hubmodal import MILES_PER_KM, great_circle_km

    market = make_market()
    matrices = LegMatrices()
    matrices.add(market.o_zone, "h1", Mode.CAR, LegTimes(minutes=10.0, miles=None), None)
    matrices.add(market.d_zone, "h1", Mode.CAR, None, LegTimes(minutes=10.0, miles=2.0))
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
    from hubmodal import ModeAttr

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
    matrices.add(markets[1].o_zone, "h1", Mode.WALK_LEG, LegTimes(minutes=9.0), None)
    matrices.add(markets[1].d_zone, "h1", Mode.BUS, None, LegTimes(minutes=14.0, access_min=3.0))
    setup = one_hub_setup(markets, hub, matrices, fares)
    combo_util, uni_util = setup.combo_util.copy(), setup.uni_util.copy()
    ordered = sorted(markets, key=lambda m: m.market_id)
    unreachable = ordered.index(markets[2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in (make_params(beta=0.4, asc=-3.0), make_params(beta=0.9, asc=-5.0, senior=-1.0)):
            nest = setup.hub_nest_share(params)
            shares = setup.choice_shares(params)
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
                    assert shares.lower[row, j] == pytest.approx(ns.lower.get(combo, 0.0), abs=1e-12)
                for col, mode in enumerate(MAIN_MODES):
                    assert shares.upper[row, col] == pytest.approx(ns.upper[mode], abs=1e-12)
    np.testing.assert_array_equal(setup.combo_util, combo_util)
    np.testing.assert_array_equal(setup.uni_util, uni_util)


def test_prepare_hub_stacks_rows_in_market_id_order():
    markets, hub, matrices, _ = _small_setup()
    table = MarketTable.from_markets(reversed(markets))
    setup = prepare_hub(table, [hub], np.ones((1, len(table)), dtype=bool), matrices, simple_fares())
    assert (np.diff(setup.rows) > 0).all()
    assert [table.ids[i] for i in setup.rows.tolist()] == sorted(m.market_id for m in markets)


@pytest.mark.parametrize("shape", [(1, 3), (2, 4), (4,)])
def test_prepare_hub_rejects_a_mask_of_another_shape(shape):
    markets, hub, matrices, _ = _small_setup(4)
    table = MarketTable.from_markets(markets)
    with pytest.raises(ValueError, match=rf"{re.escape(str(shape))}.*\(1, 4\)"):
        prepare_hub(table, [hub], np.ones(shape, dtype=bool), matrices, simple_fares())


def test_prepare_hub_marks_missing_legs_unavailable():
    markets, hub, _, _ = _small_setup(2)
    sparse = LegMatrices()
    # only the walk+bus combo has data, and only for the first market
    m0 = markets[0]
    sparse.add(m0.o_zone, "h1", Mode.WALK_LEG, LegTimes(minutes=9.0), LegTimes(minutes=9.0))
    sparse.add(m0.d_zone, "h1", Mode.BUS, LegTimes(minutes=14.0, access_min=3.0), LegTimes(minutes=14.0, access_min=3.0))
    setup = one_hub_setup(markets, hub, sparse, simple_fares())
    j = setup.combos.index(ComboId(Mode.WALK_LEG, Mode.BUS))
    row0 = sorted(m.market_id for m in markets).index(m0.market_id)
    assert np.isfinite(setup.combo_util[row0, j])
    other = [c for c in range(setup.n_combos) if c != j]
    assert np.isneginf(setup.combo_util[row0, other]).all()
    row1 = 1 - row0
    assert np.isneginf(setup.combo_util[row1]).all()
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
        matrices.add(market.o_zone, "h1", entry_mode, leg, None)
        matrices.add(market.d_zone, "h1", Mode.WALK_LEG, None, LegTimes(minutes=5.0))
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


def test_weight_and_vmt_miles_fallbacks():
    markets, hub, _, _ = _small_setup(1)
    m0 = markets[0]
    matrices = LegMatrices()
    matrices.add(m0.o_zone, "h1", Mode.WALK_LEG, LegTimes(minutes=9.0, miles=None), LegTimes(minutes=9.0))
    matrices.add(m0.d_zone, "h1", Mode.BUS, LegTimes(minutes=14.0, miles=3.1), LegTimes(minutes=14.0, miles=3.1))
    from hubmodal import MILES_PER_KM, great_circle_km

    setup = one_hub_setup([m0], hub, matrices, simple_fares())
    j = setup.combos.index(ComboId(Mode.WALK_LEG, Mode.BUS))
    weight, vmt = setup.weight_miles, setup.vmt_miles
    entry_gc_miles = great_circle_km(m0.origin, hub.location) * MILES_PER_KM
    # entry leg has no network miles: weighting uses raw great-circle,
    # VMT applies the circuity factor on top
    assert weight[0, j, 0] == pytest.approx(entry_gc_miles)
    assert vmt[0, j, 0] == pytest.approx(entry_gc_miles * 1.3)
    # exit leg has network miles: both use them as-is
    assert weight[0, j, 1] == 3.1
    assert vmt[0, j, 1] == 3.1


def test_choice_shares_before_is_plain_mnl():
    _, _, _, setup = _small_setup()
    shares = setup.choice_shares(make_params())
    np.testing.assert_allclose(shares.before.sum(axis=1), 1.0, atol=1e-12)
    total = shares.upper.sum(axis=1) + shares.hub
    np.testing.assert_allclose(total, 1.0, atol=1e-12)
