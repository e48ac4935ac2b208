"""Usage-rate arithmetic and nest-parameter calibration tests.

The 1-D recovery case is checked against an independent bisection
solver; multi-hub fits are checked in prediction space.  The analytic
Jacobian the fit steps on is checked against central differences.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import test_acceptance as acceptance
from conftest import every_market, full_matrices, make_hub, make_market, make_params, one_hub_setup, simple_fares
from reference_model import add_leg, table_from_markets

from hubmodal import (
    ComboId,
    HubChoiceSetup,
    HubParams,
    LegTimes,
    Mode,
    ObservedUsage,
    OptimizerSettings,
    Segment,
    calibrate,
    derive_observed_rate,
    derive_sample_rate,
    infer_trips_from_sample,
    percent_difference,
    predict_hub_proportion,
    prepare_hub,
    unimodal_terms,
    validate_leg_counts,
)
from hubmodal.cli import main


def test_backend_rate_worked_example():
    # 60 trips/month over 30 days, counting a service that is half of
    # hub activity: 4 trips/day, 1% of a 400 trips/day potential
    usage = derive_observed_rate(60.0, 30.0, 0.5, 400.0, hub_id="h")
    assert usage.observed_trips_per_day == pytest.approx(4.0)
    assert usage.observed_proportion == pytest.approx(0.01)


def test_backend_rate_validation():
    with pytest.raises(ValueError, match="share"):
        derive_observed_rate(60.0, 30.0, 0.0, 400.0)
    with pytest.raises(ValueError, match="share"):
        derive_observed_rate(60.0, 30.0, 1.2, 400.0)
    with pytest.raises(ValueError, match="days"):
        derive_observed_rate(60.0, 0.0, 0.5, 400.0)
    with pytest.raises(ValueError, match="non-negative"):
        derive_observed_rate(-1.0, 30.0, 0.5, 400.0)


def test_sample_rate_worked_example():
    # 30 responses over 60 days at 5 trips/day -> 10% capture
    assert derive_sample_rate(30.0, 5.0, 60.0) == pytest.approx(0.10)


def test_sample_rate_validation():
    with pytest.raises(ValueError):
        derive_sample_rate(30.0, 0.0, 60.0)
    with pytest.raises(ValueError):
        derive_sample_rate(-1.0, 5.0, 60.0)


def test_infer_trips_worked_example():
    # 12 responses, 30 days, 10% sample rate -> 4 trips/day, 0.5% of 800
    usage = infer_trips_from_sample(12.0, 30.0, 0.10, 800.0, hub_id="h")
    assert usage.observed_trips_per_day == pytest.approx(4.0)
    assert usage.observed_proportion == pytest.approx(0.005)
    assert usage.sample_rate == 0.10


def test_infer_trips_validation():
    with pytest.raises(ValueError, match="sample rate"):
        infer_trips_from_sample(12.0, 30.0, 0.0, 800.0)
    with pytest.raises(ValueError, match="survey_days"):
        infer_trips_from_sample(12.0, 0.0, 0.1, 800.0)


@pytest.mark.parametrize("potential", [0.0, -5.0])
def test_observed_usage_needs_a_positive_potential_demand(potential):
    # checked before the proportion divides by it, with the hub named
    why = "^hub hub-z: potential demand must be positive$"
    with pytest.raises(ValueError, match=why):
        derive_observed_rate(60.0, 30.0, 0.5, potential, hub_id="hub-z")
    with pytest.raises(ValueError, match=why):
        infer_trips_from_sample(12.0, 30.0, 0.10, potential, hub_id="hub-z")


def test_observed_usage_consistency_enforced():
    ObservedUsage("h", 4.0, 400.0, 0.01)
    with pytest.raises(ValueError, match="inconsistent"):
        ObservedUsage("h", 4.0, 400.0, 0.02)
    with pytest.raises(ValueError, match="positive"):
        ObservedUsage("h", 4.0, 0.0, 0.0)


def _setup_for(segment: Segment, n: int = 4, hub_id: str = "h1", loc=(42.67, -73.73)):
    hub = make_hub(
        hub_id=hub_id,
        loc=loc,
        combos=(ComboId(Mode.CAR, Mode.BUS), ComboId(Mode.WALK_LEG, Mode.BUS)),
        car_share=False,
    )
    markets = [
        make_market(
            od_id=f"{hub_id}-od{i}",
            segment=segment,
            o=(loc[0] - 0.03 - 0.005 * i, loc[1] - 0.04),
            d=(loc[0] + 0.03, loc[1] + 0.04 + 0.005 * i),
            trips=3.0 + i,
        )
        for i in range(n)
    ]
    zones = {z: None for m in markets for z in (m.o_zone, m.d_zone)}
    matrices = full_matrices(zones, hub_id, minutes=10.0 + 2.0 * hash(hub_id) % 5, miles=2.0)
    return one_hub_setup(markets, hub, matrices, simple_fares())


def test_predict_is_trip_weighted_mean_of_nest_shares():
    setup = _setup_for(Segment.SENIOR)
    params = make_params(beta=0.4, asc=-3.0)
    by_market = setup.hub_nest_share(params)
    expected = float((setup.trips * by_market).sum() / setup.trips.sum())
    assert predict_hub_proportion(setup, params) == pytest.approx(expected, abs=1e-15)


def test_predict_vanishes_for_deeply_negative_constant():
    setup = _setup_for(Segment.STUDENT)
    assert predict_hub_proportion(setup, make_params(beta=0.5, asc=-12.0)) < 1e-3
    # far below the bound the nest share is numerically zero
    loose = HubParams(beta_hub=0.5, asc_by_segment={s: -50.0 for s in Segment})
    assert predict_hub_proportion(setup, loose) < 1e-12


def test_predict_monotone_in_segment_constant():
    setup = _setup_for(Segment.LOW_INCOME)
    props = [predict_hub_proportion(setup, make_params(beta=0.5, asc=a)) for a in (-9.0, -6.0, -3.0, -1.0)]
    assert props == sorted(props)
    assert all(0.0 <= p <= 1.0 for p in props)


def test_predict_rejects_empty_setup():
    setup = _setup_for(Segment.SENIOR)
    table = table_from_markets([make_market(od_id="far", segment=Segment.SENIOR)])
    screen = every_market(table, setup.hubs).with_keep(np.zeros((1, 1), dtype=bool))
    empty = prepare_hub(table, setup.hubs, screen, full_matrices({}, "h1"), simple_fares())
    with pytest.raises(ValueError, match="no potential trips"):
        predict_hub_proportion(empty, make_params())


def _bisect_asc(setup, beta: float, target: float, segment: Segment) -> float:
    lo, hi = -12.0, 0.0

    def prop(asc: float) -> float:
        return predict_hub_proportion(setup, make_params(beta=beta, asc=asc))

    assert prop(lo) < target < prop(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if prop(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_single_hub_recovery_matches_bisection():
    setup = _setup_for(Segment.LOW_INCOME, n=5)
    beta = 0.35
    true_asc = -3.7
    target = predict_hub_proportion(setup, make_params(beta=beta, asc=true_asc))
    observed = ObservedUsage("h1", target * setup.trips.sum(), setup.trips.sum(), target)

    with pytest.warns(RuntimeWarning, match="under-determined"):
        result = calibrate([observed], {"h1": setup}, settings=OptimizerSettings(beta_bounds=(beta, beta)))
    assert result.objective < 1e-12
    assert result.rank_deficient
    recovered = result.params.asc_by_segment[Segment.LOW_INCOME]
    oracle = _bisect_asc(setup, beta, target, Segment.LOW_INCOME)
    assert oracle == pytest.approx(true_asc, abs=1e-6)  # the oracle itself is sound
    assert recovered == pytest.approx(oracle, abs=1e-3)
    assert result.params.beta_hub == beta


def test_calibrate_fixed_point_returns_init():
    # five hubs whose observations equal the prediction at the start point
    init = make_params(beta=0.5, asc=-5.0)
    setups = {}
    observed = []
    for i, seg in enumerate([*Segment, Segment.SENIOR]):
        hub_id = f"h{i}"
        setups[hub_id] = _setup_for(seg, hub_id=hub_id, loc=(42.64 + 0.01 * i, -73.74))
        p = predict_hub_proportion(setups[hub_id], init)
        observed.append(ObservedUsage(hub_id, p * 100.0, 100.0, p))
    result = calibrate(observed, setups, init=init)
    assert result.objective == 0.0
    assert list(result.params.as_vector()) == list(init.as_vector())
    assert result.converged


def test_calibrate_trace_is_non_increasing():
    setup = _setup_for(Segment.SENIOR)
    observed = ObservedUsage("h1", 2.0, setup.trips.sum(), 2.0 / setup.trips.sum())
    with pytest.warns(RuntimeWarning):
        result = calibrate([observed], {"h1": setup})
    assert len(result.trace) >= 1
    assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))
    assert result.trace[-1] == result.objective
    assert result.n_evaluations >= len(result.trace)


def test_calibrate_rank_deficiency_warning_below_five_observations():
    setup = _setup_for(Segment.SENIOR)
    observed = ObservedUsage("h1", 1.0, setup.trips.sum(), 1.0 / setup.trips.sum())
    with pytest.warns(RuntimeWarning, match="under-determined"):
        result = calibrate([observed], {"h1": setup})
    assert result.rank_deficient


def test_fit_start_is_clipped_into_the_box(seed7):
    # beta_hub 1.5 is no nesting coefficient, but as a start it is the
    # box's nearest point, as are constants above their upper bound
    fits = []
    for init_beta, init_asc in ((1.5, 3.0), (1.0, 0.0)):
        settings = OptimizerSettings(init_beta=init_beta, init_asc=init_asc)
        with pytest.warns(RuntimeWarning, match="under-determined"):
            fits.append(calibrate(seed7.observed, seed7.setups, settings=settings))
    assert fits[0] == fits[1]


def test_fit_evaluates_each_hub_once_per_step(seed7, monkeypatch):
    # each step's one evaluation gives the proportions, the Jacobian and,
    # at the accepted point, the reported predictions
    calls = {"hub_nest_share": [], "hub_nest_share_and_gradient": []}
    for name, record in calls.items():

        def counting(setup, params, real=getattr(HubChoiceSetup, name), record=record):
            record.append(setup.hubs[0].id)
            return real(setup, params)

        monkeypatch.setattr(HubChoiceSetup, name, counting)
    with pytest.warns(RuntimeWarning, match="under-determined"):
        result = calibrate(seed7.observed, seed7.setups, settings=seed7.config.optimizer)
    assert calls["hub_nest_share"] == []
    evaluated = calls["hub_nest_share_and_gradient"]
    assert {hub_id: evaluated.count(hub_id) for hub_id in seed7.setups} == dict.fromkeys(
        seed7.setups, result.n_evaluations
    )
    for fit in result.per_hub:
        assert fit.predicted == predict_hub_proportion(seed7.setups[fit.hub_id], result.params)
    assert result == seed7.result


def test_calibrate_input_validation():
    setup = _setup_for(Segment.SENIOR)
    obs = ObservedUsage("h1", 1.0, setup.trips.sum(), 1.0 / setup.trips.sum())
    with pytest.raises(ValueError, match="no observations"):
        calibrate([], {})
    with pytest.raises(ValueError, match="duplicate"):
        calibrate([obs, obs], {"h1": setup})
    with pytest.raises(ValueError, match="no prepared markets"):
        calibrate([obs], {})


def _h1_h2_setups():
    """A setup stacking hubs h1 and h2, each over its own markets, and the
    setups of h1 alone and of h2 alone, over one table."""
    hubs = [make_hub("h1", (42.67, -73.73), car_share=False), make_hub("h2", (42.72, -73.66), car_share=False)]
    markets = [
        make_market(
            od_id=f"{hub.id}-od{i}",
            o=(hub.location.lat - 0.03, hub.location.lon - 0.04 - 0.005 * i),
            d=(hub.location.lat + 0.03, hub.location.lon + 0.04),
        )
        for hub in hubs
        for i in range(3)
    ]
    matrices = full_matrices({z: None for m in markets for z in (m.o_zone, m.d_zone)}, "h1")
    for z in matrices.zone_ids:
        for mode in (Mode.CAR, Mode.WALK_LEG, Mode.BUS):
            add_leg(matrices, z, "h2", mode, LegTimes(minutes=12.0, miles=2.0), LegTimes(minutes=12.0, miles=2.0))
    table = table_from_markets(markets)
    screen = every_market(table, hubs).with_keep(np.array([[mid.startswith(hub.id) for mid in table.ids] for hub in hubs]))
    stacked = prepare_hub(table, hubs, screen, matrices, simple_fares())
    h1, h2 = (prepare_hub(table, [hub], screen[h : h + 1], matrices, simple_fares()) for h, hub in enumerate(hubs))
    return stacked, h1, h2


def test_calibration_takes_a_setup_of_the_one_hub_it_fits():
    stacked, h1, h2 = _h1_h2_setups()
    params = make_params(beta=0.4, asc=-3.0)
    p1 = predict_hub_proportion(h1, params)
    obs = ObservedUsage("h1", p1 * h1.trips.sum(), h1.trips.sum(), p1)
    with pytest.warns(RuntimeWarning, match="under-determined"):
        assert calibrate([obs], {"h1": h1}).per_hub[0].hub_id == "h1"
    # a stacked setup would pool both hubs' rows into h1's proportion
    for setup in (stacked, h2):
        with pytest.raises(ValueError, match="hub h1"):
            calibrate([obs], {"h1": setup})
    with pytest.raises(ValueError, match="hub h1, h2"):
        predict_hub_proportion(stacked, params)
    with pytest.raises(ValueError, match="hub h1, h2"):
        validate_leg_counts(stacked, params, {"pickup": 1.0})


def test_percent_difference_examples():
    assert percent_difference(213.0, 267.0) == pytest.approx(100 * (213 - 267) / 267)
    assert percent_difference(267.0, 267.0) == 0.0
    assert percent_difference(5.0, 0.0) is None


def test_validate_leg_counts_directions():
    setup = _setup_for(Segment.LOW_INCOME)
    params = make_params(beta=0.4, asc=-2.0)
    shares = setup.choice_shares(params)
    joint = setup.trips[:, None] * shares.hub[:, None] * shares.lower
    exit_bus = np.array([c.exit == Mode.BUS for c in setup.combos])
    entry_bus = np.array([c.entry == Mode.BUS for c in setup.combos])
    expected_pickup = float(joint[:, exit_bus].sum())
    expected_dropoff = float(joint[:, entry_bus].sum())

    rows = validate_leg_counts(setup, params, {"dropoff": 0.0, "pickup": 10.0})
    by_dir = {r.direction: r for r in rows}
    assert by_dir["pickup"].predicted == pytest.approx(expected_pickup)
    assert by_dir["pickup"].observed == 10.0
    assert by_dir["pickup"].percent_diff == pytest.approx(100 * (expected_pickup - 10.0) / 10.0)
    # zero observed count: only the absolute gap is reportable
    assert by_dir["dropoff"].percent_diff is None
    assert by_dir["dropoff"].absolute_gap == pytest.approx(expected_dropoff)


def test_validate_leg_counts_adds_unimodal_boardings():
    setup = _setup_for(Segment.LOW_INCOME)
    params = make_params(beta=0.4, asc=-2.0)
    base = validate_leg_counts(setup, params, {"pickup": 50.0})[0]
    bumped = validate_leg_counts(setup, params, {"pickup": 50.0}, unimodal_boardings={"pickup": 7.0})[0]
    assert bumped.predicted == pytest.approx(base.predicted + 7.0)


def test_validate_leg_counts_rejects_unknown_direction():
    setup = _setup_for(Segment.LOW_INCOME)
    with pytest.raises(ValueError, match="unknown direction"):
        validate_leg_counts(setup, make_params(), {"sideways": 1.0})


# --- the analytic Jacobian and what the fit reports ---------------------------


def _recovery_problem():
    """Criterion 8's five hubs and their planted-truth observations."""
    setups = {f"hub-{i}": acceptance._recovery_setup(i) for i in range(5)}
    observed = []
    for hub_id, setup in setups.items():
        p = predict_hub_proportion(setup, acceptance.RECOVERY_TRUTH)
        demand = float(setup.trips.sum())
        observed.append(ObservedUsage(hub_id, p * demand, demand, p))
    return setups, observed


def _central_differences(setup, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    cols = []
    for j in range(len(x)):
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        plus = setup.hub_nest_share(HubParams.from_vector(up))
        minus = setup.hub_nest_share(HubParams.from_vector(down))
        cols.append((plus - minus) / (2.0 * h))
    return np.stack(cols, axis=1)


def _assert_gradient_matches(setup, params):
    share, grad = setup.hub_nest_share_and_gradient(params)
    assert np.array_equal(share, setup.hub_nest_share(params))
    numeric = _central_differences(setup, params.as_vector())
    assert np.all(np.isfinite(grad))
    assert np.abs(grad - numeric).max() <= 1e-6 * np.abs(numeric).max()
    return grad


def test_nest_share_gradient_matches_central_differences():
    setups, _ = _recovery_problem()
    points = (acceptance.RECOVERY_TRUTH, make_params(beta=0.5, asc=-5.0), make_params(beta=0.9, asc=-2.0, senior=-6.0))
    for setup in setups.values():
        for params in points:
            grad = _assert_gradient_matches(setup, params)
            # each market's constant moves only its own segment's column
            segment = np.zeros_like(grad[:, 1:])
            segment[np.arange(setup.n_markets), setup.segment_codes] = 1.0
            assert np.all(grad[:, 1:][segment == 0.0] == 0.0)


def test_one_parameter_layout(seed7):
    params = make_params(beta=0.4, not_low_income=-1.0, low_income=-2.0, senior=-3.0, student=-4.0)
    _, grad = seed7.setups["hub-a"].hub_nest_share_and_gradient(params)
    assert len(HubParams.NAMES) == len(params.as_vector()) == grad.shape[1]
    named = dict(zip(HubParams.NAMES, params.as_vector().tolist()))
    assert named == {"beta_hub": 0.4, **{f"asc_by_segment.{s.value}": params.asc_by_segment[s] for s in Segment}}
    assert HubParams.from_vector(params.as_vector()) == params
    assert HubParams.fill(0.4, -2.0).tolist() == make_params(beta=0.4, asc=-2.0).as_vector().tolist()


def test_nest_share_gradient_with_unavailable_combos():
    base = _setup_for(Segment.SENIOR, n=3)
    util = base.combo_util.copy()
    util[0, 1] = -np.inf  # one combo missing: its weight and its term are 0
    util[1, :] = -np.inf  # no combo at all: empty nest, zero share and gradient
    setup = HubChoiceSetup(
        base.hubs, base.rows, base.live, base.segment_codes, base.trips, base.drive_miles, base.uni_util,
        unimodal_terms(base.uni_util), util, base.vmt_miles, base.entry_fraction, base.beta_cost, bounds=(0, base.n_markets),
    )
    with np.errstate(invalid="raise", divide="raise"):
        grad = _assert_gradient_matches(setup, make_params(beta=0.4, asc=-3.0))
    assert np.all(grad[1] == 0.0)
    # one reachable combo left: beta no longer moves the nest utility
    assert grad[0, 0] == 0.0 and grad[0, 1 + setup.segment_codes[0]] > 0.0
    assert grad[2, 0] != 0.0


def test_recovery_fit_takes_few_evaluations():
    setups, observed = _recovery_problem()
    first = calibrate(observed, setups)
    again = calibrate(observed, setups)
    assert first.n_evaluations <= 40
    assert again.n_evaluations == first.n_evaluations
    assert list(again.params.as_vector()) == list(first.params.as_vector())
    assert first.converged and first.fit_within_tolerance
    assert first.rank == first.n_free == 5
    assert first.params_at_bound == ()


def test_unidentified_parameters_stay_at_init():
    # every market is low-income, so one observation moves beta and the
    # low-income constant; the other constants cannot change the fit
    setup = _setup_for(Segment.LOW_INCOME, n=5)
    target = predict_hub_proportion(setup, make_params(beta=0.35, asc=-3.7))
    observed = ObservedUsage("h1", target * setup.trips.sum(), setup.trips.sum(), target)
    init = make_params(beta=0.6, asc=-5.0, not_low_income=-6.5, senior=-2.25, student=-9.0)
    with pytest.warns(RuntimeWarning, match="under-determined"):
        result = calibrate([observed], {"h1": setup}, init=init)
    assert result.objective < 1e-20
    assert result.converged and result.fit_within_tolerance
    for seg in (Segment.NOT_LOW_INCOME, Segment.SENIOR, Segment.STUDENT):
        assert result.params.asc_by_segment[seg] == init.asc_by_segment[seg]
    assert result.rank == 1 and result.n_free == 5
    assert len(result.singular_values) == 1
    assert result.params_at_bound == ()


def test_identification_reports_parameters_at_a_bound():
    setup = _setup_for(Segment.SENIOR)
    # more use than the widest constant allows: the constant ends on its upper bound
    ceiling = predict_hub_proportion(setup, make_params(beta=0.5, asc=0.0))
    target = min(1.0, 1.5 * ceiling)
    observed = ObservedUsage("h1", target * setup.trips.sum(), setup.trips.sum(), target)
    with pytest.warns(RuntimeWarning, match="under-determined"):
        result = calibrate([observed], {"h1": setup}, settings=OptimizerSettings(beta_bounds=(0.5, 0.5)))
    assert result.params_at_bound == ("asc_by_segment.senior",)
    assert result.n_free == 4
    assert not result.fit_within_tolerance
    assert result.per_hub[0].relative_residual == pytest.approx(ceiling / target - 1.0)


def test_seed7_identification_report(tmp_path):
    fx, out = tmp_path / "fx", tmp_path / "run"
    assert main(["gen-fixture", "--seed", "7", "--out-dir", str(fx)]) == 0
    assert main(["calibrate", "--manifest", str(fx / "manifest.json"), "--out-dir", str(out)]) == 0
    report = json.loads((out / "calibration.json").read_text())
    ident = report["identification"]
    # two hub counts identify one direction out of five parameters
    assert ident["rank"] == 1 and ident["n_free_params"] == 5
    assert len(ident["singular_values"]) == 2
    assert ident["singular_values"][1] < ident["rank_cutoff"] * ident["singular_values"][0]
    assert ident["params_at_bound"] == []
    assert ident["fit_within_tolerance"] is False
    assert report["converged"] is True
    # the fit stops once the second direction falls below the cutoff; the
    # infimum, with three constants on their -12 bound, is 4.88e-8
    assert 4.8e-8 < report["objective"] < 5.5e-8
    residuals = {h["hub_id"]: h["relative_residual"] for h in report["per_hub"]}
    assert abs(residuals["hub-a"]) < ident["fit_rel_tol"]
    assert residuals["hub-b"] == pytest.approx(-0.23, abs=0.015)
