"""Utility, logit, and nesting tests: ``mode_utility`` and the scalar
reference model that the kernel tests use as their oracle.

Collapse and invariance properties are checked against brute-force
reference computations written with plain math.exp loops.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import make_params, make_taste
from reference_model import ModeAttr, mnl_shares, nest_logsum, nested_shares, systematic_utility

from hubmodal import (
    LEG_MODES,
    MAIN_MODES,
    ComboId,
    HubParams,
    Mode,
    Segment,
    mode_utility,
)


def test_hand_computed_auto_utility():
    taste = make_taste(beta_auto_tt=-0.05, beta_cost=-0.5, asc_driving=1.0)
    attrs = ModeAttr(ivt_min=20.0, cost_usd=2.0)
    # -0.05*20 - 0.5*2 + 1.0
    assert systematic_utility(taste, attrs, Mode.DRIVING) == pytest.approx(-1.0)


def test_transit_utility_uses_all_four_time_terms():
    taste = make_taste(
        beta_trans_ivt=-0.02, beta_trans_at=-0.04, beta_trans_et=-0.05,
        beta_trans_n=-0.3, beta_cost=-0.2, asc_transit=-0.6,
    )
    attrs = ModeAttr(ivt_min=30.0, access_min=5.0, egress_min=4.0, transfers=2.0, cost_usd=1.5)
    expected = -0.02 * 30 - 0.04 * 5 - 0.05 * 4 - 0.3 * 2 - 0.2 * 1.5 - 0.6
    assert systematic_utility(taste, attrs, Mode.TRANSIT) == pytest.approx(expected)


def test_carpool_is_the_reference_mode():
    # no constant: zero attributes give exactly zero utility
    taste = make_taste()
    assert systematic_utility(taste, ModeAttr(), Mode.CARPOOL) == 0.0


def test_each_main_mode_uses_its_own_family_and_constant():
    taste = make_taste()
    attrs = ModeAttr(ivt_min=10.0, cost_usd=1.0)
    cases = {
        Mode.DRIVING: taste.beta_auto_tt * 10 + taste.beta_cost + taste.asc_driving,
        Mode.TRANSIT: taste.beta_trans_ivt * 10 + taste.beta_cost + taste.asc_transit,
        Mode.ON_DEMAND_AUTO: taste.beta_auto_tt * 10 + taste.beta_cost + taste.asc_ondemand,
        Mode.BIKING: taste.beta_nonveh_tt * 10 + taste.beta_cost + taste.asc_biking,
        Mode.WALKING: taste.beta_nonveh_tt * 10 + taste.beta_cost + taste.asc_walking,
        Mode.CARPOOL: taste.beta_auto_tt * 10 + taste.beta_cost,
    }
    for mode, expected in cases.items():
        assert systematic_utility(taste, attrs, mode) == pytest.approx(expected), mode


def test_leg_modes_map_to_families():
    taste = make_taste()
    # bus prices like transit, car legs like driving, shared bike like biking
    assert mode_utility(taste, Mode.BUS, ivt_min=10.0) == pytest.approx(taste.beta_trans_ivt * 10 + taste.asc_transit)
    assert mode_utility(taste, Mode.CAR, ivt_min=10.0) == pytest.approx(taste.beta_auto_tt * 10 + taste.asc_driving)
    assert mode_utility(taste, Mode.CAR_SHARE, ivt_min=10.0) == pytest.approx(taste.beta_auto_tt * 10 + taste.asc_driving)
    assert mode_utility(taste, Mode.BIKE_SHARE, ivt_min=10.0) == pytest.approx(taste.beta_nonveh_tt * 10 + taste.asc_biking)
    assert mode_utility(taste, Mode.WALK_LEG, ivt_min=10.0) == pytest.approx(taste.beta_nonveh_tt * 10 + taste.asc_walking)


def test_mode_utility_broadcasts_over_arrays():
    taste = make_taste()
    ivt = np.array([5.0, 10.0, 15.0])
    got = mode_utility(taste, Mode.DRIVING, ivt_min=ivt)
    for i, t in enumerate(ivt):
        assert got[i] == systematic_utility(taste, ModeAttr(ivt_min=t), Mode.DRIVING)


def test_unavailable_mode_rejected():
    with pytest.raises(ValueError, match="unavailable"):
        systematic_utility(make_taste(), ModeAttr(available=False), Mode.DRIVING)


def test_non_finite_attribute_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        systematic_utility(make_taste(), ModeAttr(ivt_min=math.nan), Mode.DRIVING)


def test_taste_vector_requires_finite_fields():
    with pytest.raises(ValueError):
        make_taste(beta_cost=math.inf)


def test_mnl_shares_worked_example():
    got = mnl_shares([1.0, 2.0, 3.0])
    assert np.allclose(got, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)


def test_mnl_shares_ln3_example():
    got = mnl_shares([math.log(3.0), 0.0])
    assert np.allclose(got, [0.75, 0.25], atol=1e-12)


def test_mnl_shares_equal_utilities():
    assert np.allclose(mnl_shares([0.0, 0.0]), [0.5, 0.5])
    assert np.allclose(mnl_shares([7.0] * 5), [0.2] * 5)


def test_mnl_shares_sum_to_one_under_extreme_offsets(rng):
    for offset in (-700.0, 0.0, 700.0):
        v = rng.normal(size=8) + offset
        s = mnl_shares(v)
        assert abs(s.sum() - 1.0) <= 1e-12
        assert (s > 0).all()


def test_mnl_shares_translation_invariant(rng):
    v = rng.normal(size=6)
    assert np.allclose(mnl_shares(v), mnl_shares(v + 123.456), atol=1e-12)


def test_mnl_shares_single_alternative():
    assert mnl_shares([-3.0]) == pytest.approx([1.0])


def test_mnl_shares_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        mnl_shares([])
    with pytest.raises(ValueError):
        mnl_shares([1.0, math.nan])
    with pytest.raises(ValueError):
        mnl_shares([1.0, math.inf])


def test_nest_logsum_single_combo_passes_through():
    # one alternative: logsum is just v + asc for any coefficient
    for beta in (0.1, 0.5, 1.0):
        assert nest_logsum([-2.5], beta, -4.0) == pytest.approx(-6.5)


def test_nest_logsum_two_equal_utilities():
    assert nest_logsum([0.0, 0.0], 1.0) == pytest.approx(math.log(2.0))
    assert nest_logsum([0.0, 0.0], 0.1237) == pytest.approx(0.1237 * math.log(2.0), abs=1e-5)
    assert nest_logsum([0.0, 0.0], 0.1237) == pytest.approx(0.08574, abs=1e-4)


def test_nest_logsum_stable_at_large_magnitudes():
    assert nest_logsum([-700.0, -700.0], 0.5) == pytest.approx(-700.0 + 0.5 * math.log(2.0))
    assert nest_logsum([700.0, 700.0], 0.5) == pytest.approx(700.0 + 0.5 * math.log(2.0))


def test_nest_logsum_permutation_invariant(rng):
    for _ in range(50):
        v = list(rng.normal(size=6) * 3)
        beta = float(rng.uniform(0.05, 1.0))
        base = nest_logsum(v, beta)
        rng.shuffle(v)
        assert nest_logsum(v, beta) == base  # bitwise, not approx


def test_nest_logsum_bounds():
    # between max(v) and max(v) + beta*ln(n)
    v = [1.0, 0.5, -2.0]
    for beta in (0.2, 0.7, 1.0):
        ls = nest_logsum(v, beta)
        assert max(v) < ls <= max(v) + beta * math.log(len(v)) + 1e-12


def test_nest_logsum_rejects_bad_beta():
    with pytest.raises(ValueError, match="nesting coefficient"):
        nest_logsum([0.0], 0.0)
    with pytest.raises(ValueError, match="nesting coefficient"):
        nest_logsum([0.0], 1.5)
    with pytest.raises(ValueError, match="empty"):
        nest_logsum([], 0.5)


def _random_case(rng):
    n_modes = int(rng.integers(1, 7))
    mode_picks = rng.choice(len(MAIN_MODES), size=n_modes, replace=False)
    uni = {MAIN_MODES[i]: float(rng.normal() * 2) for i in mode_picks}
    all_combos = [ComboId(e, x) for e in LEG_MODES for x in LEG_MODES]
    n_combos = int(rng.integers(1, 8))
    picks = rng.choice(len(all_combos), size=n_combos, replace=False)
    combos = {all_combos[i]: float(rng.normal() * 2) for i in picks}
    return uni, combos


def test_nested_shares_normalize(rng):
    for _ in range(300):
        uni, combos = _random_case(rng)
        params = make_params(beta=float(rng.uniform(0.05, 1.0)), asc=float(rng.uniform(-6, 0)))
        ns = nested_shares(uni, combos, params, Segment.SENIOR)
        assert abs(sum(ns.upper.values()) + ns.hub_share - 1.0) <= 1e-12
        assert abs(sum(ns.lower.values()) - 1.0) <= 1e-12
        total = sum(ns.upper.values()) + sum(ns.joint(c) for c in combos)
        assert abs(total - 1.0) <= 1e-12


def test_nested_shares_collapse_to_flat_mnl(rng):
    # beta_hub = 1, zero constant: joint probabilities equal one flat MNL
    params = make_params(beta=1.0, asc=0.0)
    for _ in range(200):
        uni, combos = _random_case(rng)
        ns = nested_shares(uni, combos, params, Segment.STUDENT)
        denom = sum(math.exp(v) for v in uni.values()) + sum(math.exp(v) for v in combos.values())
        for m, v in uni.items():
            assert ns.upper[m] == pytest.approx(math.exp(v) / denom, abs=1e-12)
        for c, v in combos.items():
            assert ns.joint(c) == pytest.approx(math.exp(v) / denom, abs=1e-12)


def test_nested_shares_empty_combo_set_is_plain_mnl():
    uni = {Mode.DRIVING: 1.0, Mode.TRANSIT: 0.0}
    ns = nested_shares(uni, {}, make_params(), Segment.LOW_INCOME)
    assert ns.hub_share == 0.0
    assert ns.lower == {}
    assert ns.upper[Mode.DRIVING] == pytest.approx(math.exp(1.0) / (math.exp(1.0) + 1.0))


def test_nested_shares_deeply_negative_constant_kills_the_nest():
    uni = {Mode.DRIVING: 0.0, Mode.TRANSIT: -0.5}
    combos = {ComboId(Mode.CAR, Mode.BUS): 0.0}
    params = make_params(beta=0.5, asc=-50.0)
    ns = nested_shares(uni, combos, params, Segment.NOT_LOW_INCOME)
    assert ns.hub_share < 1e-15
    flat = mnl_shares([0.0, -0.5])
    assert ns.upper[Mode.DRIVING] == pytest.approx(float(flat[0]), abs=1e-12)


def test_nested_shares_translation_invariance(rng):
    # shifting every utility (unimodal and combo) by c leaves shares alone
    for _ in range(100):
        uni, combos = _random_case(rng)
        params = make_params(beta=float(rng.uniform(0.05, 1.0)), asc=float(rng.uniform(-4, 0)))
        base = nested_shares(uni, combos, params, Segment.SENIOR)
        c = float(rng.uniform(-40, 40))
        shifted = nested_shares(
            {m: v + c for m, v in uni.items()},
            {k: v + c for k, v in combos.items()},
            params,
            Segment.SENIOR,
        )
        assert shifted.hub_share == pytest.approx(base.hub_share, abs=1e-12)
        for m in uni:
            assert shifted.upper[m] == pytest.approx(base.upper[m], abs=1e-12)
        for k in combos:
            assert shifted.lower[k] == pytest.approx(base.lower[k], abs=1e-12)


def test_nested_shares_adding_a_combo_raises_hub_share(rng):
    for _ in range(100):
        uni, combos = _random_case(rng)
        params = make_params(beta=float(rng.uniform(0.05, 1.0)), asc=float(rng.uniform(-4, 0)))
        base = nested_shares(uni, combos, params, Segment.STUDENT)
        extra_combo = next(
            ComboId(e, x)
            for e in LEG_MODES
            for x in LEG_MODES
            if ComboId(e, x) not in combos
        )
        grown = dict(combos)
        grown[extra_combo] = float(rng.normal() * 2)
        more = nested_shares(uni, grown, params, Segment.STUDENT)
        assert more.hub_share >= base.hub_share - 1e-12


def test_nested_shares_lower_split_scales_by_beta_hub():
    combos = {ComboId(Mode.CAR, Mode.BUS): 1.0, ComboId(Mode.WALK_LEG, Mode.BUS): 0.0}
    uni = {Mode.DRIVING: 0.0}
    params = make_params(beta=0.25, asc=-1.0)
    shares = nested_shares(uni, combos, params, Segment.SENIOR)
    # the within-nest split is logit over V_c / beta_hub: a gap of 1 becomes 4
    assert shares.lower[ComboId(Mode.CAR, Mode.BUS)] == pytest.approx(1.0 / (1.0 + math.exp(-4.0)))


def test_nested_shares_uses_segment_constant():
    uni = {Mode.DRIVING: 0.0}
    combos = {ComboId(Mode.CAR, Mode.BUS): 0.0}
    params = HubParams(
        beta_hub=0.5,
        asc_by_segment={
            Segment.NOT_LOW_INCOME: -8.0,
            Segment.LOW_INCOME: -1.0,
            Segment.SENIOR: -8.0,
            Segment.STUDENT: -8.0,
        },
    )
    rich = nested_shares(uni, combos, params, Segment.NOT_LOW_INCOME)
    poor = nested_shares(uni, combos, params, Segment.LOW_INCOME)
    assert poor.hub_share > rich.hub_share


def test_nested_shares_argmax_stable_under_positive_scaling(rng):
    # scaling all utilities by k > 0 preserves which alternative wins
    for _ in range(100):
        uni, combos = _random_case(rng)
        params = make_params(beta=float(rng.uniform(0.05, 1.0)), asc=0.0)
        base = nested_shares(uni, combos, params, Segment.SENIOR)
        k = float(rng.uniform(0.2, 5.0))
        scaled = nested_shares(
            {m: v * k for m, v in uni.items()},
            {c: v * k for c, v in combos.items()},
            params,
            Segment.SENIOR,
        )
        base_joint = {**{m.value: base.upper[m] for m in uni}, **{c.label(): base.joint(c) for c in combos}}
        scaled_joint = {**{m.value: scaled.upper[m] for m in uni}, **{c.label(): scaled.joint(c) for c in combos}}
        base_best = max(base_joint, key=base_joint.get)
        # ties can flip under scaling; only check clear winners
        ordered = sorted(base_joint.values(), reverse=True)
        if len(ordered) > 1 and ordered[0] - ordered[1] < 1e-9:
            continue
        assert max(scaled_joint, key=scaled_joint.get) == base_best


def test_nested_shares_requires_some_unimodal_mode():
    with pytest.raises(ValueError, match="empty choice set"):
        nested_shares({}, {}, make_params(), Segment.SENIOR)
