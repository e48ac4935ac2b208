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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .choice import SEGMENTS, Mode, Segment
from .config import OptimizerSettings
from .hubs import HubChoiceSetup

N_PARAMS = 1 + len(SEGMENTS)
PARAM_NAMES: tuple[str, ...] = ("beta_hub", *(f"asc_by_segment.{s.value}" for s in SEGMENTS))

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


@dataclass(frozen=True)
class HubParams:
    """Calibrated nest parameters: one nesting coefficient shared by all
    hubs and one hub constant per population segment."""

    beta_hub: float
    asc_by_segment: Mapping[Segment, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.beta_hub <= 1.0:
            raise ValueError(f"invalid nesting coefficient: {self.beta_hub}")
        missing = [s.value for s in SEGMENTS if s not in self.asc_by_segment]
        if missing:
            raise ValueError(f"missing segment constants: {missing}")
        for seg in SEGMENTS:
            if not math.isfinite(self.asc_by_segment[seg]):
                raise ValueError(f"invalid attribute: non-finite constant for {seg.value}")

    def as_vector(self) -> np.ndarray:
        return np.array([self.beta_hub] + [self.asc_by_segment[s] for s in SEGMENTS], dtype=float)

    @classmethod
    def from_vector(cls, x) -> "HubParams":
        x = np.asarray(x, dtype=float)
        return cls(beta_hub=float(x[0]), asc_by_segment={s: float(x[1 + i]) for i, s in enumerate(SEGMENTS)})


@dataclass(frozen=True)
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


def _total_trips(setup: HubChoiceSetup) -> float:
    hub_id = _hub_id(setup)
    total = setup.trips.sum()
    if setup.n_markets == 0 or total <= 0.0:
        raise ValueError(f"hub {hub_id}: no potential trips to predict over")
    return total


def _proportion_and_gradient(setup: HubChoiceSetup, params: HubParams) -> tuple[float, np.ndarray]:
    """``predict_hub_proportion`` and its (N_PARAMS,) gradient: trip-weighted
    means of the market nest shares and of their derivatives."""
    total = _total_trips(setup)
    share, grad = setup.hub_nest_share_and_gradient(params)
    return float((setup.trips * share).sum() / total), setup.trips @ grad / total


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _default_bounds(settings: OptimizerSettings) -> list[tuple[float, float]]:
    return [settings.beta_bounds] + [settings.asc_bounds] * len(SEGMENTS)


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
    bounds: Sequence[tuple[float, float]] | None = None,
    settings: OptimizerSettings | None = None,
) -> CalibrationResult:
    """Fit beta_hub and the segment constants to observed hub proportions.

    Fewer observations than parameters leaves the fit rank-deficient; a
    RuntimeWarning is emitted and the flag is set on the result, but the
    best-fit point is still returned.  Parameters whose bounds coincide
    are held there.  The trace records the objective at each accepted
    step, so it is non-increasing.
    """
    settings = settings or OptimizerSettings()
    obs = sorted(observed, key=lambda o: o.hub_id)
    if not obs:
        raise ValueError("no observations to calibrate against")
    seen = set()
    for o in obs:
        if o.hub_id in seen:
            raise ValueError(f"duplicate observation for hub {o.hub_id}")
        seen.add(o.hub_id)
    pairs = []
    for o in obs:
        setup = setups.get(o.hub_id)
        if setup is None:
            raise ValueError(f"no prepared markets for observed hub {o.hub_id}")
        _hub_id(setup, o.hub_id)
        pairs.append((setup, o.observed_proportion))

    rank_deficient = len(pairs) < N_PARAMS
    if rank_deficient:
        warnings.warn(
            f"calibration under-determined: {len(pairs)} observation(s) for {N_PARAMS} parameters",
            RuntimeWarning,
            stacklevel=2,
        )

    box = list(bounds) if bounds is not None else _default_bounds(settings)
    if len(box) != N_PARAMS:
        raise ValueError(f"expected {N_PARAMS} bound pairs, got {len(box)}")
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    if (lo > hi).any():
        raise ValueError("lower bound exceeds upper bound")
    free = lo < hi

    if init is not None:
        x0 = init.as_vector()
    else:
        x0 = np.array([settings.init_beta] + [settings.init_asc] * len(SEGMENTS), dtype=float)
    x = np.clip(x0, lo, hi)

    targets = np.array([target for _, target in pairs])
    n_eval = 0

    def residuals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        nonlocal n_eval
        n_eval += 1
        params = HubParams.from_vector(x)
        fits = [_proportion_and_gradient(setup, params) for setup, _ in pairs]
        resid = np.array([p for p, _ in fits]) - targets
        return resid, np.array([g for _, g in fits]), float(resid @ resid)

    def lm_step(x: np.ndarray, resid: np.ndarray, jac: np.ndarray, damping: float) -> np.ndarray:
        # hold free parameters on a bound the gradient pushes against, and
        # those the data do not touch at all, where they are
        grad = jac.T @ resid
        move = free & ~((x <= lo) & (grad > 0.0)) & ~((x >= hi) & (grad < 0.0)) & (jac != 0.0).any(axis=0)
        step = np.zeros(N_PARAMS)
        step[move] = _truncated_step(jac[:, move], resid, damping)
        return np.clip(x + step, lo, hi)

    # Levenberg-Marquardt with Nielsen's damping update: a step that
    # lowers the objective is taken and the damping eased by how well the
    # linear model predicted the drop; any other step raises the damping,
    # doubling the factor on each refusal in a row.
    resid, jac, f = residuals(x)
    trace = [f]
    damping = INITIAL_DAMPING * float(np.max((jac[:, free] ** 2).sum(axis=0), initial=0.0))
    growth = 2.0
    converged = False
    for _ in range(settings.max_iter):
        trial = lm_step(x, resid, jac, damping)
        if np.linalg.norm(trial - x) <= STEP_TOL * (STEP_TOL + np.linalg.norm(x)):
            converged = True
            break
        t_resid, t_jac, t_f = residuals(trial)
        model = resid + jac @ (trial - x)
        predicted = f - float(model @ model)
        if t_f < f and predicted > 0.0:
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * (f - t_f) / predicted - 1.0) ** 3)
            growth = 2.0
            x, resid, jac, f = trial, t_resid, t_jac, t_f
            trace.append(f)
        else:
            damping *= growth
            growth *= 2.0

    params = HubParams.from_vector(x)
    per_hub = tuple(
        HubFit(hub_id=o.hub_id, observed=o.observed_proportion, predicted=predict_hub_proportion(setup, params))
        for (setup, _), o in zip(pairs, obs)
    )
    if not converged:
        warnings.warn("calibration did not converge; returning best point found", RuntimeWarning, stacklevel=2)
    sv = np.linalg.svd(jac[:, free], compute_uv=False)
    at_bound = free & ((x <= lo) | (x >= hi))
    return CalibrationResult(
        params=params,
        objective=f,
        converged=converged,
        rank_deficient=rank_deficient,
        n_evaluations=n_eval,
        trace=tuple(trace),
        per_hub=per_hub,
        singular_values=tuple(float(v) for v in sv),
        rank=_rank(sv),
        n_free=int(free.sum()),
        params_at_bound=tuple(name for name, hit in zip(PARAM_NAMES, at_bound) if hit),
        fit_within_tolerance=all(abs(h.predicted - h.observed) <= FIT_REL_TOL * h.observed for h in per_hub),
    )


def percent_difference(predicted: float, observed: float) -> float | None:
    """(predicted - observed) / observed as a percentage; None when the
    observed count is zero."""
    if observed == 0.0:
        return None
    return 100.0 * (predicted - observed) / observed


@dataclass(frozen=True)
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
