"""Mobility hub demand, impact, and siting toolkit.

The pipeline: derive a detour threshold from intercept surveys, identify
the potential market for a hub, assemble its transfer choice set, fit
the nest parameters to observed usage, and score impacts (demand,
transit ridership, vehicle miles, consumer surplus) for operating hubs
or ranked siting candidates.
"""

from .calibration import (
    CalibrationResult,
    HubParams,
    LegCountRow,
    ObservedUsage,
    calibrate,
    derive_observed_rate,
    derive_sample_rate,
    infer_trips_from_sample,
    percent_difference,
    predict_hub_proportion,
    validate_leg_counts,
)
from .choice import (
    LEG_MODES,
    MAIN_MODES,
    SEGMENTS,
    TASTE_FIELDS,
    ComboId,
    Market,
    Mode,
    ModeAttr,
    NestedShares,
    Segment,
    TasteVector,
    combo_utility,
    mnl_shares,
    mode_utility,
    nest_logsum,
    nested_shares,
    systematic_utility,
    value_of_time,
)
from .config import Manifest, OptimizerSettings, PipelineConfig
from .fixtures import generate_fixture
from .geo import (
    EARTH_RADIUS_KM,
    MILES_PER_KM,
    DetourRecord,
    GeoPoint,
    derive_threshold,
    detour_ratio,
    great_circle_km,
    haversine_km,
    identify_potential_trips,
)
from .hubs import (
    CAR_SHARE_PROFILE_COMBOS,
    STANDARD_PROFILE_COMBOS,
    FareTable,
    Hub,
    HubChoiceSetup,
    HubShares,
    LegMatrices,
    LegTimes,
    MarketError,
    MarketTable,
    SurveyRecord,
    assemble_leg_attrs,
    build_combos,
    leg_cost_usd,
    prepare_hub,
)
from .impacts import (
    ConsumerSurplusResult,
    EmissionFactor,
    ImpactReport,
    ModeShiftResult,
    VmtResult,
    assess_hubs,
    consumer_surpluses,
    mode_shifts,
    transit_delta,
    vmt_deltas,
)
from .io import (
    HubRecord,
    ParseError,
    candidates_geojson,
    fmt,
    jsonable,
    load_fares,
    load_hub_records,
    load_markets,
    load_matrices,
    load_pr_lots,
    load_stops,
    load_survey,
    load_taste_parameters,
    sha256_digest,
    write_csv,
    write_fares,
    write_hub_records,
    write_json,
    write_markets,
    write_matrices,
    write_pr_lots,
    write_stops,
    write_survey,
)
from .siting import (
    Candidate,
    CandidateMetrics,
    RankingRow,
    RankingTable,
    StopRecord,
    assign_services,
    candidate_hub,
    cluster_stops,
    evaluate_candidates,
    rank_and_summarize,
)

__version__ = "0.1.0"
