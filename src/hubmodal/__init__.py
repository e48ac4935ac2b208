"""Mobility hub demand, impact, and siting toolkit.

The pipeline: derive a detour threshold from intercept surveys, identify
the potential market for a hub, assemble its transfer choice set, fit
the nest parameters to observed usage, and score impacts (demand,
transit ridership, vehicle miles, consumer surplus) for operating hubs
or ranked siting candidates.

Importing the package loads none of its modules: each name below is
imported from its home module on first use (PEP 562), so a script loads
only the modules whose names it uses.
"""

from importlib import import_module

# The public names, by home module.
_EXPORTS = {
    "calibration": (
        "CalibrationResult",
        "LegCountRow",
        "ObservedUsage",
        "calibrate",
        "derive_observed_rate",
        "derive_sample_rate",
        "fit_observed_hubs",
        "infer_trips_from_sample",
        "percent_difference",
        "predict_hub_proportion",
        "validate_leg_counts",
    ),
    "choice": (
        "LEG_MODES",
        "MAIN_MODES",
        "SEGMENTS",
        "TASTE_FIELDS",
        "ComboId",
        "Mode",
        "Segment",
        "mode_utility",
    ),
    "config": ("Manifest", "OptimizerSettings", "PipelineConfig"),
    "fixtures": ("generate_fixture",),
    "geo": (
        "EARTH_RADIUS_KM",
        "MILES_PER_KM",
        "DetourRecord",
        "GeoPoint",
        "TripScreen",
        "derive_threshold",
        "detour_ratio",
        "great_circle_km",
        "haversine_km",
        "screen_trips",
    ),
    "hubs": (
        "CAR_SHARE_PROFILE_COMBOS",
        "STANDARD_PROFILE_COMBOS",
        "FareTable",
        "Hub",
        "HubChoiceSetup",
        "HubParams",
        "HubShares",
        "LegMatrices",
        "LegTimes",
        "MarketError",
        "MarketTable",
        "SurveyRecord",
        "build_combos",
        "leg_cost_usd",
        "prepare_hub",
    ),
    "impacts": (
        "ConsumerSurplusResult",
        "EmissionFactor",
        "ImpactReport",
        "ModeShiftResult",
        "VmtResult",
        "assess_hubs",
        "consumer_surpluses",
        "mode_shifts",
        "transit_delta",
        "vmt_deltas",
    ),
    "io": (
        "HubRecord",
        "ParseError",
        "candidates_geojson",
        "fmt",
        "load_fares",
        "load_hub_records",
        "load_markets",
        "load_matrices",
        "load_params",
        "load_pr_lots",
        "load_stops",
        "load_survey",
        "params_json",
        "sha256_digest",
        "write_csv",
        "write_fares",
        "write_hub_records",
        "write_json",
        "write_markets",
        "write_matrices",
        "write_pr_lots",
        "write_stops",
        "write_survey",
    ),
    "siting": (
        "Candidate",
        "CandidateMetrics",
        "RankingRow",
        "StopRecord",
        "assign_services",
        "candidate_hub",
        "cluster_stops",
        "evaluate_candidates",
        "rank_and_summarize",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
