"""Usage-rate arithmetic and calibration of the hub nest parameters.

Observed hub usage arrives by one of two routes: monthly backend counts
scaled by observation days and the service's share of hub activity, or
survey response counts expanded by a sample rate.  Either route yields
trips/day; dividing by the hub's potential demand gives the observed
proportion the model is fit to.

Calibration searches the five hub parameters (beta_hub plus one nest
constant per segment) minimizing the sum of squared gaps between
predicted and observed proportions across hubs.  The fit is a bounded
Levenberg-Marquardt least-squares fit on the analytic Jacobian of the
predicted proportions (``HubChoiceSetup.hub_nest_share_and_gradient``).
Each step goes through a truncated SVD of that Jacobian, so it moves only
along directions the observations identify at the current point, and
parameters the observations do not reach at all keep their start values
instead of drifting to a bound.  The result reports the Jacobian's
singular values and rank, so a reader can see how many directions the
counts pin down.  It is numpy only and fully deterministic.

``fit_observed_hubs`` is the stages' one way in: it takes each observed
hub's route from its ``io.HubRecord``, fits, and builds the report block
that calibrate writes at the top level of its report and that assess and
rank embed when they fit.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping, Sequence

import numpy as np

from .choice import Mode
from .config import OptimizerSettings
from .hubs import HubChoiceSetup, HubParams
from .io import HubRecord, params_json
from .records import record

# Singular values of the Jacobian below this fraction of the largest mark
# directions the observations do not identify: steps leave them alone and
# the report does not count them in the rank.
RANK_CUTOFF = 1e-3
# The fit stops once a step moves the parameters by less than this,
# relative to their norm.
STEP_TOL = 1e-10
# Starting Levenberg-Marquardt damping, relative to the largest squared
# column norm of the Jacobian at the start point.
INITIAL_DAMPING = 1.0
# A hub fits when its prediction is within this fraction of its observation.
FIT_REL_TOL = 0.01


@record(frozen=True)
class ObservedUsage:
    """Observed usage of one hub, normalized to trips/day and to a
    proportion of potential demand."""

    hub_id: str
    observed_trips_per_day: float
    potential_trips_per_day: float
    observed_proportion: float
    sample_rate: float | None = None

    def __post_init__(self) -> None:
        if self.potential_trips_per_day <= 0.0:
            raise ValueError(f"hub {self.hub_id}: potential demand must be positive")
        if self.observed_trips_per_day < 0.0:
            raise ValueError(f"hub {self.hub_id}: observed trips must be non-negative")
        expected = self.observed_trips_per_day / self.potential_trips_per_day
        if not math.isclose(self.observed_proportion, expected, rel_tol=1e-9, abs_tol=1e-15):
            raise ValueError(f"hub {self.hub_id}: proportion inconsistent with trips and potential demand")


def derive_observed_rate(
    backend_trips_per_month: float,
    days_per_month: float,
    service_share: float,
    potential_trips: float,
    hub_id: str = "",
) -> ObservedUsage:
    """Observed usage from backend counts of one service.

    trips/day = backend / (days * share); the share is the fraction of all
    hub trips the counted service represents.
    """
    if backend_trips_per_month < 0:
        raise ValueError("backend trips must be non-negative")
    if days_per_month <= 0:
        raise ValueError("days_per_month must be positive")
    if not 0.0 < service_share <= 1.0:
        raise ValueError(f"service share must be in (0, 1], got {service_share}")
    trips_day = backend_trips_per_month / (days_per_month * service_share)
    return ObservedUsage(
        hub_id=hub_id,
        observed_trips_per_day=trips_day,
        potential_trips_per_day=potential_trips,
        observed_proportion=trips_day / potential_trips,
    )


def derive_sample_rate(survey_responses: float, trips_per_day: float, survey_days: float) -> float:
    """Fraction of hub trips the intercept survey captured."""
    if survey_responses < 0:
        raise ValueError("survey responses must be non-negative")
    if trips_per_day <= 0 or survey_days <= 0:
        raise ValueError("trips_per_day and survey_days must be positive")
    return survey_responses / (trips_per_day * survey_days)


def infer_trips_from_sample(
    survey_responses: float,
    survey_days: float,
    sample_rate: float,
    potential_trips: float,
    hub_id: str = "",
) -> ObservedUsage:
    """Observed usage expanded from survey counts at a known sample rate."""
    if survey_responses < 0:
        raise ValueError("survey responses must be non-negative")
    if survey_days <= 0:
        raise ValueError("survey_days must be positive")
    if sample_rate <= 0:
        raise ValueError(f"sample rate must be positive, got {sample_rate}")
    trips_day = survey_responses / (survey_days * sample_rate)
    return ObservedUsage(
        hub_id=hub_id,
        observed_trips_per_day=trips_day,
        potential_trips_per_day=potential_trips,
        observed_proportion=trips_day / potential_trips,
        sample_rate=sample_rate,
    )


def predict_hub_proportion(setup: HubChoiceSetup, params: HubParams) -> float:
    """Trip-weighted mean upper-level hub share over the potential markets
    of the one hub of ``setup``."""
    total = _total_trips(setup)
    return float((setup.trips * setup.hub_nest_share(params)).sum() / total)


def _hub_id(setup: HubChoiceSetup, hub_id: str | None = None) -> str:
    """The id of the one hub of ``setup``, which must be ``hub_id`` when
    given: the sums here run over every row of a setup, so a stacked
    setup would pool its hubs."""
    ids = [h.id for h in setup.hubs]
    if len(ids) != 1 or hub_id not in (None, ids[0]):
        raise ValueError(f"hub {hub_id or ', '.join(ids)}: needs a setup of that hub alone, got one of hubs {ids}")
    return ids[0]


def _total_trips(setup: HubChoiceSetup, hub_id: str | None = None) -> float:
    """The positive trip total of the one hub of ``setup`` (``_hub_id``)."""
    hub_id = _hub_id(setup, hub_id)
    total = setup.trips.sum()
    if setup.n_markets == 0 or total <= 0.0:
        raise ValueError(f"hub {hub_id}: no potential trips to predict over")
    return total


@record(frozen=True)
class HubFit:
    hub_id: str
    observed: float
    predicted: float

    @property
    def relative_residual(self) -> float | None:
        """(predicted - observed) / observed; None when nothing was observed."""
        if self.observed == 0.0:
            return None
        return (self.predicted - self.observed) / self.observed


@record(frozen=True)
class CalibrationResult:
    """A fitted parameter vector and what the observations say about it.

    ``converged`` means the optimizer's stop test fired (a step below
    ``STEP_TOL``) before ``max_iter`` ran out; it says nothing about fit
    quality.  ``fit_within_tolerance`` does: every hub's prediction is
    within ``FIT_REL_TOL`` of its observation.  ``singular_values`` are
    those of the Jacobian of the predicted proportions with respect to
    the free parameters at the returned point, and ``rank`` counts those
    above ``RANK_CUTOFF`` times the largest: the number of parameter
    directions the observations identify.  ``params_at_bound`` names the
    free parameters that ended on a bound.
    """

    params: HubParams
    objective: float
    converged: bool
    rank_deficient: bool
    n_evaluations: int
    trace: tuple[float, ...]
    per_hub: tuple[HubFit, ...]
    singular_values: tuple[float, ...]
    rank: int
    n_free: int
    params_at_bound: tuple[str, ...]
    fit_within_tolerance: bool


def _rank(sv: np.ndarray) -> int:
    """Number of singular values (sorted, largest first) above
    ``RANK_CUTOFF`` times the largest."""
    return int((sv > RANK_CUTOFF * sv[0]).sum()) if sv.size and sv[0] > 0.0 else 0


def _truncated_step(jac: np.ndarray, resid: np.ndarray, damping: float) -> np.ndarray:
    """Levenberg-Marquardt step -(J'J + damping I)^-1 J' r through the SVD
    of ``jac``, keeping only the singular values ``_rank`` counts, so the
    step has no component along directions the data do not identify.
    With no damping it is the truncated Gauss-Newton step -J+ r."""
    u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    k = _rank(sv)
    sv = sv[:k]
    return -vt[:k].T @ (sv / (sv**2 + damping) * (u[:, :k].T @ resid))


def calibrate(
    observed: Sequence[ObservedUsage],
    setups: Mapping[str, HubChoiceSetup],
    *,
    init: HubParams | None = None,
    settings: OptimizerSettings | None = None,
) -> CalibrationResult:
    """Fit beta_hub and the segment constants to observed hub proportions.

    Fewer observations than parameters leaves the fit rank-deficient; a
    RuntimeWarning is emitted and the flag is set on the result, but the
    best-fit point is still returned.  A parameter whose ``settings``
    bounds coincide is held there; a start outside the bounds is clipped
    into them.  The trace records the objective at each accepted step, so
    it is non-increasing.
    """
    settings = settings or OptimizerSettings()
    obs = sorted(observed, key=lambda o: o.hub_id)
    if not obs:
        raise ValueError("no observations to calibrate against")
    for a, b in zip(obs, obs[1:]):  # sorted, so a repeated hub's observations sit together
        if a.hub_id == b.hub_id:
            raise ValueError(f"duplicate observation for hub {a.hub_id}")
    pairs = []
    for o in obs:
        setup = setups.get(o.hub_id)
        if setup is None:
            raise ValueError(f"no prepared markets for observed hub {o.hub_id}")
        pairs.append((setup, _total_trips(setup, o.hub_id)))

    lo, hi = (HubParams.fill(beta, asc) for beta, asc in zip(settings.beta_bounds, settings.asc_bounds))
    free = lo < hi
    x0 = init.as_vector() if init is not None else HubParams.fill(settings.init_beta, settings.init_asc)
    x = np.clip(x0, lo, hi)

    rank_deficient = len(obs) < len(x)
    if rank_deficient:
        warnings.warn(
            f"calibration under-determined: {len(obs)} observation(s) for {len(x)} parameters",
            RuntimeWarning,
            stacklevel=2,
        )

    targets = np.array([o.observed_proportion for o in obs])
    n_eval = 0

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Each hub's ``predict_hub_proportion`` at ``x``, its residual, their
        Jacobian and the objective, from one nest evaluation per hub."""
        nonlocal n_eval
        n_eval += 1
        params = HubParams.from_vector(x)
        predicted = np.empty(len(pairs))
        jac = np.empty((len(pairs), len(x)))
        for i, (setup, total) in enumerate(pairs):
            share, grad = setup.hub_nest_share_and_gradient(params)
            predicted[i] = (setup.trips * share).sum() / total
            jac[i] = setup.trips @ grad / total
        resid = predicted - targets
        return predicted, resid, jac, float(resid @ resid)

    def lm_step(x: np.ndarray, resid: np.ndarray, jac: np.ndarray, damping: float) -> np.ndarray:
        # hold free parameters on a bound the gradient pushes against, and
        # those the data do not touch at all, where they are
        grad = jac.T @ resid
        move = free & ~((x <= lo) & (grad > 0.0)) & ~((x >= hi) & (grad < 0.0)) & (jac != 0.0).any(axis=0)
        step = np.zeros(len(x))
        step[move] = _truncated_step(jac[:, move], resid, damping)
        return np.clip(x + step, lo, hi)

    # Levenberg-Marquardt with Nielsen's damping update: a step that
    # lowers the objective is taken and the damping eased by how well the
    # linear model predicted the drop; any other step raises the damping,
    # doubling the factor on each refusal in a row.
    predicted, resid, jac, f = evaluate(x)
    trace = [f]
    damping = INITIAL_DAMPING * float(np.max((jac[:, free] ** 2).sum(axis=0), initial=0.0))
    growth = 2.0
    converged = False
    for _ in range(settings.max_iter):
        trial = lm_step(x, resid, jac, damping)
        if np.linalg.norm(trial - x) <= STEP_TOL * (STEP_TOL + np.linalg.norm(x)):
            converged = True
            break
        t_predicted, t_resid, t_jac, t_f = evaluate(trial)
        model = resid + jac @ (trial - x)
        drop = f - float(model @ model)
        if t_f < f and drop > 0.0:
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * (f - t_f) / drop - 1.0) ** 3)
            growth = 2.0
            x, predicted, resid, jac, f = trial, t_predicted, t_resid, t_jac, t_f
            trace.append(f)
        else:
            damping *= growth
            growth *= 2.0

    per_hub = tuple(HubFit(o.hub_id, o.observed_proportion, p) for o, p in zip(obs, predicted.tolist()))
    if not converged:
        warnings.warn("calibration did not converge; returning best point found", RuntimeWarning, stacklevel=2)
    sv = np.linalg.svd(jac[:, free], compute_uv=False)
    at_bound = free & ((x <= lo) | (x >= hi))
    return CalibrationResult(
        params=HubParams.from_vector(x),
        objective=f,
        converged=converged,
        rank_deficient=rank_deficient,
        n_evaluations=n_eval,
        trace=tuple(trace),
        per_hub=per_hub,
        singular_values=tuple(float(v) for v in sv),
        rank=_rank(sv),
        n_free=int(free.sum()),
        params_at_bound=tuple(name for name, hit in zip(HubParams.NAMES, at_bound) if hit),
        fit_within_tolerance=all(abs(h.predicted - h.observed) <= FIT_REL_TOL * h.observed for h in per_hub),
    )


def _resolve_observed(hub_recs: Sequence[HubRecord], potentials: Mapping[str, float]) -> tuple[list[ObservedUsage], dict]:
    """Each hub's raw observations as an observed proportion of its
    potential trips, and each hub's route to it.

    Backend counts win when present.  Survey-expanded hubs need a sample
    rate; a blank one inherits the rate derived at the backend-counted
    hubs, and inheritance requires that derived rate to be unique.
    """
    backend = {
        rec.hub_id: derive_observed_rate(
            rec.backend_trips_per_month, rec.days_per_month, rec.service_share, potentials[rec.hub_id], hub_id=rec.hub_id
        )
        for rec in hub_recs
        if rec.has_backend
    }
    derived_rates = {
        rec.hub_id: derive_sample_rate(rec.survey_responses, backend[rec.hub_id].observed_trips_per_day, rec.survey_days)
        for rec in hub_recs
        if rec.hub_id in backend and rec.survey_responses is not None and rec.survey_days
    }
    inheritable: list[float] = []
    for v in sorted(derived_rates.values()):
        if not inheritable or abs(v - inheritable[-1]) > 1e-9 * max(1.0, abs(v)):
            inheritable.append(v)

    observed = []
    routes: dict[str, dict] = {}
    for rec in hub_recs:
        if rec.hub_id in backend:
            observed.append(backend[rec.hub_id])
            routes[rec.hub_id] = {"route": "backend"}
            if rec.hub_id in derived_rates:
                routes[rec.hub_id]["sample_rate"] = derived_rates[rec.hub_id]
            continue
        if rec.survey_responses is None or rec.survey_days is None:
            raise ValueError(f"hub {rec.hub_id}: neither backend counts nor survey counts are present")
        rate, source = rec.sample_rate, "given"
        if rate is None:
            if not inheritable:
                raise ValueError(f"hub {rec.hub_id}: no sample rate given and none derivable from backend hubs")
            if len(inheritable) > 1:
                raise ValueError(f"hub {rec.hub_id}: ambiguous sample rate inheritance, candidates {inheritable}")
            rate, source = inheritable[0], "inherited"
        observed.append(
            infer_trips_from_sample(rec.survey_responses, rec.survey_days, rate, potentials[rec.hub_id], hub_id=rec.hub_id)
        )
        routes[rec.hub_id] = {"route": "survey", "sample_rate": rate, "sample_rate_source": source}
    return observed, routes


def _report(result: CalibrationResult, observed: Sequence[ObservedUsage], routes: Mapping[str, dict], setups) -> dict:
    # The public predictor's figures at the written params (the fit's own, bit for bit): the
    # one hub_nest_share pass of a fitting stage, which perfbench times (ROADMAP item 1).
    predicted = [predict_hub_proportion(setups[f.hub_id], result.params) for f in result.per_hub]
    return {
        "params": params_json(result.params),
        "objective": result.objective,
        "converged": result.converged,
        "rank_deficient": result.rank_deficient,
        "n_evaluations": result.n_evaluations,
        "trace": list(result.trace),
        "identification": {
            "singular_values": list(result.singular_values),
            "rank": result.rank,
            "n_free_params": result.n_free,
            "rank_cutoff": RANK_CUTOFF,
            "params_at_bound": list(result.params_at_bound),
            "fit_rel_tol": FIT_REL_TOL,
            "fit_within_tolerance": result.fit_within_tolerance,
        },
        "per_hub": [
            {"hub_id": f.hub_id, "observed": f.observed, "predicted": p, "relative_residual": f.relative_residual}
            for f, p in zip(result.per_hub, predicted)
        ],
        "observed": {
            u.hub_id: {
                "trips_per_day": u.observed_trips_per_day,
                "potential_trips_per_day": u.potential_trips_per_day,
                "proportion": u.observed_proportion,
                **routes[u.hub_id],
            }
            for u in observed
        },
    }


def fit_observed_hubs(
    setups: Mapping[str, HubChoiceSetup],
    hub_recs: Sequence[HubRecord],
    settings: OptimizerSettings,
) -> tuple[CalibrationResult, list[ObservedUsage], dict]:
    """Fit the nest parameters to the observed usage of ``hub_recs``, each
    hub over its own setup in ``setups``.

    Returns the fit, the observations it fit, and the report block of the
    stages that fit: the params, the fit and its identification, each
    hub's observation and route to it, and the warnings the fit raised,
    listed there instead of emitted.
    """
    potentials = {hub_id: float(setup.trips.sum()) for hub_id, setup in setups.items()}
    observed, routes = _resolve_observed(hub_recs, potentials)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = calibrate(observed, setups, settings=settings)
    return result, observed, {**_report(result, observed, routes, setups), "warnings": [str(w.message) for w in caught]}


def percent_difference(predicted: float, observed: float) -> float | None:
    """(predicted - observed) / observed as a percentage; None when the
    observed count is zero."""
    if observed == 0.0:
        return None
    return 100.0 * (predicted - observed) / observed


@record(frozen=True)
class LegCountRow:
    """Predicted vs observed daily bus boardings in one direction."""

    direction: str
    predicted: float
    observed: float
    percent_diff: float | None
    absolute_gap: float


def validate_leg_counts(
    setup: HubChoiceSetup,
    params: HubParams,
    observed_counts: Mapping[str, float],
    *,
    unimodal_boardings: Mapping[str, float] | None = None,
) -> list[LegCountRow]:
    """Compare modeled daily bus boardings at the hub with ground truth.

    Pick-up counts board a bus leaving the hub (exit legs); drop-off
    counts arrive by bus (entry legs).  ``unimodal_boardings`` adds
    unimodal-transit boardings at the hub stop when a count for them is
    available.  Zero observed counts report the absolute gap and a None
    percent difference.  ``setup`` holds the one hub counted.
    """
    _hub_id(setup)
    shares = setup.choice_shares(params)
    joint_trips = setup.trips[:, None] * shares.joint
    rows = []
    for direction in sorted(observed_counts):
        if direction == "pickup":
            mask = np.array([c.exit == Mode.BUS for c in setup.combos], dtype=bool)
        elif direction == "dropoff":
            mask = np.array([c.entry == Mode.BUS for c in setup.combos], dtype=bool)
        else:
            raise ValueError(f"unknown direction: {direction!r}")
        predicted = float(joint_trips[:, mask].sum()) if setup.n_combos else 0.0
        if unimodal_boardings:
            predicted += float(unimodal_boardings.get(direction, 0.0))
        obs = float(observed_counts[direction])
        rows.append(
            LegCountRow(
                direction=direction,
                predicted=predicted,
                observed=obs,
                percent_diff=percent_difference(predicted, obs),
                absolute_gap=predicted - obs,
            )
        )
    return rows
