"""Command line front end.

Subcommands mirror the pipeline stages: derive-threshold, identify-trips,
calibrate, assess, rank, and gen-fixture.  Inputs come from a JSON
manifest (--manifest) naming the data files and an optional JSON config
(--config).  Reports land in --out-dir, echo the active config, and
carry sha256 digests of every input consumed, so a result can always be
traced back to its exact inputs.  Failures print a single-line JSON
error record to stderr and exit 1.

rank accepts --threads (default 1) for compatibility.  Candidate scoring
runs as a few stacked array passes in the calling thread, so the value
changes neither the schedule nor any output byte.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np

from . import io
from .choice import Segment
from .config import Manifest, PipelineConfig
from .geo import derive_threshold, detour_ratio, potential_trip_mask
from .hubs import Hub, build_combos, prepare_hub


def _lazy(name: str) -> ModuleType:
    """Submodule ``name`` of this package, run on its first attribute
    access: importlib's lazy-import recipe.  It sits in ``sys.modules``
    from the start, so ``import`` statements and code that patches the
    loaded modules (a tracer, a test) see the one module object the
    stage later runs."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Every stage loads the modules above.  These four run only in some
# stages, which alone pay for compiling them and building their
# dataclasses: calibration in calibrate, assess and rank; impacts in
# assess and rank; siting in rank and gen-fixture; fixtures in
# gen-fixture.
calibration = _lazy("calibration")
impacts = _lazy("impacts")
siting = _lazy("siting")
fixtures = _lazy("fixtures")


def _load_base(args) -> tuple[Manifest, PipelineConfig]:
    if not args.manifest:
        raise ValueError("--manifest is required for this command")
    manifest = Manifest.from_json(args.manifest)
    config = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    return manifest, config


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _digests(manifest: Manifest) -> dict:
    out = {}
    for name in ("markets", "taste_parameters", "fares", "stops", "pr_lots", "survey", "observed_usage"):
        p = getattr(manifest, name)
        if p:
            out[name] = {"path": str(p), "sha256": io.sha256_digest(p)}
    for i, p in enumerate(manifest.leg_matrices):
        out[f"leg_matrices[{i}]"] = {"path": str(p), "sha256": io.sha256_digest(p)}
    return out


def _report_base(args, manifest: Manifest, config: PipelineConfig) -> dict:
    return {"config": config.to_dict(), "inputs": _digests(manifest), "seed": args.seed}


def _resolve_threshold(config: PipelineConfig, survey, hub_locations) -> tuple[float, dict]:
    """Detour threshold: the configured override, or the survey's
    90th-percentile detour ratio.  Survey rows with a degenerate OD pair
    are skipped and counted."""
    if config.threshold_override is not None:
        return float(config.threshold_override), {
            "threshold_source": "override",
            "n_detour_records": 0,
            "n_skipped_degenerate": 0,
        }
    records = []
    skipped = 0
    for rec in survey:
        loc = hub_locations.get(rec.hub_id)
        if loc is None:
            raise ValueError(f"survey references unknown hub {rec.hub_id!r}")
        try:
            records.append(detour_ratio(rec.origin, rec.destination, loc))
        except ValueError:
            skipped += 1
    if not records:
        raise ValueError("no usable survey records to derive a detour threshold")
    thr = derive_threshold(records)
    return thr, {
        "threshold_source": "survey_p90",
        "n_detour_records": len(records),
        "n_skipped_degenerate": skipped,
    }


def _build_hub(rec: io.HubRecord, survey) -> Hub:
    rows = [r for r in survey if r.hub_id == rec.hub_id]
    combos = build_combos(
        rows,
        car_share_available=rec.car_share_available,
        bike_share_available=rec.bike_share_available,
    )
    return Hub(
        id=rec.hub_id,
        location=rec.location,
        car_share_available=rec.car_share_available,
        bike_share_available=rec.bike_share_available,
        combos=combos,
    )


def _screen(table, hub_recs, config, threshold) -> np.ndarray:
    """(hubs, markets) potential-trip mask of the observed hubs, in
    ``hub_recs`` order, from one screen of the table."""
    return potential_trip_mask(
        table,
        [rec.location.lat for rec in hub_recs],
        [rec.location.lon for rec in hub_recs],
        threshold,
        condition2_mode=config.condition2_mode,
        condition2_km=config.condition2_km,
    )


def _build_setups(table, hub_recs, survey, matrices, fares, config, threshold):
    keep = _screen(table, hub_recs, config, threshold)
    setups = {}
    for h, rec in enumerate(hub_recs):
        hub = _build_hub(rec, survey)
        if not keep[h].any():
            raise ValueError(f"hub {rec.hub_id}: no potential trips at threshold {threshold}")
        setups[rec.hub_id] = prepare_hub(
            table,
            [hub],
            keep[h : h + 1],
            matrices,
            fares,
            car_cost_per_mile=config.car_cost_per_mile,
            circuity_factor=config.circuity_factor,
        )
    return setups


def _resolve_observed(hub_recs, potentials) -> tuple[list[calibration.ObservedUsage], dict]:
    """Normalize each hub's raw observations to an observed proportion.

    Backend counts win when present.  Survey-expanded hubs need a sample
    rate; a blank one inherits the rate derived at the backend-counted
    hubs, and inheritance requires that derived rate to be unique.
    """
    backend: dict[str, calibration.ObservedUsage] = {}
    for rec in hub_recs:
        if rec.has_backend:
            backend[rec.hub_id] = calibration.derive_observed_rate(
                rec.backend_trips_per_month,
                rec.days_per_month,
                rec.service_share,
                potentials[rec.hub_id],
                hub_id=rec.hub_id,
            )
    derived_rates: dict[str, float] = {}
    for rec in hub_recs:
        usage = backend.get(rec.hub_id)
        if usage is not None and rec.survey_responses is not None and rec.survey_days:
            derived_rates[rec.hub_id] = calibration.derive_sample_rate(
                rec.survey_responses, usage.observed_trips_per_day, rec.survey_days
            )

    observed = []
    meta: dict[str, dict] = {}
    for rec in hub_recs:
        if rec.hub_id in backend:
            observed.append(backend[rec.hub_id])
            meta[rec.hub_id] = {"route": "backend"}
            if rec.hub_id in derived_rates:
                meta[rec.hub_id]["sample_rate"] = derived_rates[rec.hub_id]
            continue
        if rec.survey_responses is None or rec.survey_days is None:
            raise ValueError(f"hub {rec.hub_id}: neither backend counts nor survey counts are present")
        rate = rec.sample_rate
        source = "given"
        if rate is None:
            uniq: list[float] = []
            for v in sorted(derived_rates.values()):
                if not uniq or abs(v - uniq[-1]) > 1e-9 * max(1.0, abs(v)):
                    uniq.append(v)
            if not uniq:
                raise ValueError(f"hub {rec.hub_id}: no sample rate given and none derivable from backend hubs")
            if len(uniq) > 1:
                raise ValueError(f"hub {rec.hub_id}: ambiguous sample rate inheritance, candidates {uniq}")
            rate = uniq[0]
            source = "inherited"
        observed.append(
            calibration.infer_trips_from_sample(
                rec.survey_responses, rec.survey_days, rate, potentials[rec.hub_id], hub_id=rec.hub_id
            )
        )
        meta[rec.hub_id] = {"route": "survey", "sample_rate": rate, "sample_rate_source": source}
    return observed, meta


def _params_dict(params: calibration.HubParams) -> dict:
    return {
        "beta_hub": params.beta_hub,
        "asc_by_segment": {seg.value: params.asc_by_segment[seg] for seg in sorted(params.asc_by_segment, key=lambda s: s.value)},
    }


def _read_params(path: str | Path) -> calibration.HubParams:
    data = io.read_json(path, "params file")
    node = data.get("params", data)
    try:
        return calibration.HubParams(
            beta_hub=float(node["beta_hub"]),
            asc_by_segment={Segment(k): float(v) for k, v in node["asc_by_segment"].items()},
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed params: {err}") from None


def _run_calibration(setups, hub_recs, config):
    potentials = {hub_id: float(setup.trips.sum()) for hub_id, setup in setups.items()}
    observed, obs_meta = _resolve_observed(hub_recs, potentials)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = calibration.calibrate(observed, setups, settings=config.optimizer)
    notes = [str(w.message) for w in caught]
    return result, observed, obs_meta, notes


def _calibration_report(result: calibration.CalibrationResult, observed, obs_meta) -> dict:
    return {
        "params": _params_dict(result.params),
        "objective": result.objective,
        "converged": result.converged,
        "rank_deficient": result.rank_deficient,
        "n_evaluations": result.n_evaluations,
        "trace": list(result.trace),
        "identification": {
            "singular_values": list(result.singular_values),
            "rank": result.rank,
            "n_free_params": result.n_free,
            "rank_cutoff": calibration.RANK_CUTOFF,
            "params_at_bound": list(result.params_at_bound),
            "fit_rel_tol": calibration.FIT_REL_TOL,
            "fit_within_tolerance": result.fit_within_tolerance,
        },
        "per_hub": [
            {
                "hub_id": f.hub_id,
                "observed": f.observed,
                "predicted": f.predicted,
                "relative_residual": f.relative_residual,
            }
            for f in result.per_hub
        ],
        "observed": {
            u.hub_id: {
                "trips_per_day": u.observed_trips_per_day,
                "potential_trips_per_day": u.potential_trips_per_day,
                "proportion": u.observed_proportion,
                **obs_meta[u.hub_id],
            }
            for u in observed
        },
    }


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_derive_threshold(args) -> int:
    manifest, config = _load_base(args)
    manifest.require("survey", "observed_usage")
    survey = io.load_survey(manifest.survey)
    hub_recs = io.load_hub_records(manifest.observed_usage)
    thr, thr_meta = _resolve_threshold(config, survey, {r.hub_id: r.location for r in hub_recs})
    report = {"threshold": thr, **thr_meta, **_report_base(args, manifest, config)}
    path = io.write_json(_out_dir(args) / "threshold.json", report)
    print(f"threshold {thr}")
    print(f"wrote {path}")
    return 0


def _cmd_identify_trips(args) -> int:
    manifest, config = _load_base(args)
    manifest.require("markets", "observed_usage")
    table = io.load_markets(manifest.markets, manifest.taste_parameters)
    hub_recs = io.load_hub_records(manifest.observed_usage)
    if config.threshold_override is None:
        manifest.require("survey")
    survey = io.load_survey(manifest.survey) if manifest.survey else []
    thr, thr_meta = _resolve_threshold(config, survey, {r.hub_id: r.location for r in hub_recs})

    rows = []
    hubs_report = {}
    for rec, kept in zip(hub_recs, _screen(table, hub_recs, config, thr)):
        idx = np.flatnonzero(kept)
        # summed as calibrate sums a setup's trips, so the two reports agree
        trips = table.trips[idx].sum()
        hubs_report[rec.hub_id] = {"n_markets": len(idx), "potential_trips_per_day": float(trips)}
        rows.extend((rec.hub_id, table.ids[i]) for i in idx.tolist())

    out = _out_dir(args)
    trips_path = io.write_csv(out / "trips.csv", ("hub_id", "market_id"), rows)
    report = {"threshold": thr, **thr_meta, "hubs": hubs_report, **_report_base(args, manifest, config)}
    json_path = io.write_json(out / "identify.json", report)
    print(f"wrote {trips_path}")
    print(f"wrote {json_path}")
    return 0


def _load_model_inputs(args):
    manifest, config = _load_base(args)
    manifest.require("markets", "fares", "survey", "observed_usage", "leg_matrices")
    # The matrices parse sets the stage's peak RSS: no other input sits under it.
    matrices = io.load_matrices(manifest.leg_matrices)
    table = io.load_markets(manifest.markets, manifest.taste_parameters)
    survey = io.load_survey(manifest.survey)
    hub_recs = io.load_hub_records(manifest.observed_usage)
    fares = io.load_fares(manifest.fares)
    thr, thr_meta = _resolve_threshold(config, survey, {r.hub_id: r.location for r in hub_recs})
    return manifest, config, table, survey, hub_recs, matrices, fares, thr, thr_meta


def _cmd_calibrate(args) -> int:
    manifest, config, table, survey, hub_recs, matrices, fares, thr, thr_meta = _load_model_inputs(args)
    setups = _build_setups(table, hub_recs, survey, matrices, fares, config, thr)
    result, observed, obs_meta, notes = _run_calibration(setups, hub_recs, config)
    report = {
        "threshold": thr,
        **thr_meta,
        **_calibration_report(result, observed, obs_meta),
        "warnings": notes,
        **_report_base(args, manifest, config),
    }
    path = io.write_json(_out_dir(args) / "calibration.json", report)
    print(f"objective {result.objective}")
    print(f"wrote {path}")
    return 0


def _obtain_params(args, setups, hub_recs, config):
    """Params from --params when given, else a fresh in-process fit over
    the observed hubs' setups."""
    if args.params:
        return _read_params(args.params), None
    result, observed, obs_meta, notes = _run_calibration(setups, hub_recs, config)
    calib = {**_calibration_report(result, observed, obs_meta), "warnings": notes}
    return result.params, calib


def _cmd_assess(args) -> int:
    manifest, config, table, survey, hub_recs, matrices, fares, thr, thr_meta = _load_model_inputs(args)
    setups = _build_setups(table, hub_recs, survey, matrices, fares, config, thr)
    params, calib = _obtain_params(args, setups, hub_recs, config)
    emissions = impacts.EmissionFactor(grams_co2_per_mile=config.grams_co2_per_mile, days_per_year=config.days_per_year)

    hubs_out = {}
    totals = {
        "potential_demand_trips_per_day": 0.0,
        "multimodal_trips_per_day": 0.0,
        "transit_delta_trips_per_day": 0.0,
        "vmt_reduced_per_day": 0.0,
        "emissions_kg_per_day": 0.0,
        "emissions_tons_per_year": 0.0,
        "consumer_surplus_usd_per_day": 0.0,
    }
    for hub_id in sorted(setups):
        (rep,) = impacts.assess_hubs(
            setups[hub_id], params, emissions=emissions, include_on_demand_auto=config.include_on_demand_auto_vmt
        )
        hubs_out[hub_id] = rep.to_dict()
        totals["potential_demand_trips_per_day"] += rep.potential_demand
        totals["multimodal_trips_per_day"] += rep.multimodal_total
        totals["transit_delta_trips_per_day"] += rep.transit_delta
        totals["vmt_reduced_per_day"] += rep.vmt.reduced
        totals["emissions_kg_per_day"] += rep.vmt.emissions_kg_per_day
        totals["emissions_tons_per_year"] += rep.vmt.emissions_tons_per_year
        totals["consumer_surplus_usd_per_day"] += rep.cs_total

    report = {
        "threshold": thr,
        **thr_meta,
        "params": _params_dict(params),
        "hubs": hubs_out,
        "totals": totals,
        **_report_base(args, manifest, config),
    }
    if calib is not None:
        report["calibration"] = calib
    path = io.write_json(_out_dir(args) / "impacts.json", report)
    print(f"wrote {path}")
    return 0


def _cmd_rank(args) -> int:
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    manifest, config, table, survey, hub_recs, matrices, fares, thr, thr_meta = _load_model_inputs(args)
    manifest.require("stops", "pr_lots")
    stops = io.load_stops(manifest.stops)
    lots = io.load_pr_lots(manifest.pr_lots)
    # a fit needs the observed hubs' setups; scoring builds its own in siting
    setups = None if args.params else _build_setups(table, hub_recs, survey, matrices, fares, config, thr)
    params, calib = _obtain_params(args, setups, hub_recs, config)

    candidates = siting.assign_services(siting.cluster_stops(stops), lots)
    references = [
        siting.Candidate(
            candidate_id=rec.hub_id,
            location=rec.location,
            member_stop_ids=(),
            car_share_available=rec.car_share_available,
            bike_share_available=rec.bike_share_available,
        )
        for rec in hub_recs
    ]
    reference_ids = [rec.hub_id for rec in hub_recs]
    overlap = set(reference_ids) & {c.candidate_id for c in candidates}
    if overlap:
        raise ValueError(f"hub ids collide with candidate ids: {sorted(overlap)}")

    evaluated = siting.evaluate_candidates(
        candidates + references, table, params, thr, matrices, fares, config=config, threads=args.threads
    )
    ranking, summary = siting.rank_and_summarize(evaluated, reference_ids=reference_ids)

    header = ["candidate_id", "is_reference"]
    header += list(siting.METRIC_KEYS)
    header += [f"rank_{k}" for k in siting.METRIC_KEYS]
    header += [f"percentile_{k}" for k in siting.METRIC_KEYS]
    ref_set = set(reference_ids)
    ordered = sorted(ranking.rows, key=lambda r: (r.rank["potential_demand"], r.candidate_id))
    rows = []
    for r in ordered:
        row = [r.candidate_id, r.candidate_id in ref_set]
        row += [r.metrics.get(k) for k in siting.METRIC_KEYS]
        row += [r.rank[k] for k in siting.METRIC_KEYS]
        row += [r.percentile[k] for k in siting.METRIC_KEYS]
        rows.append(row)

    out = _out_dir(args)
    csv_path = io.write_csv(out / "ranking.csv", header, rows)
    report = {
        "threshold": thr,
        **thr_meta,
        "params": _params_dict(params),
        "n_candidates": len(candidates),
        "n_references": len(references),
        "summary": summary,
        **_report_base(args, manifest, config),
    }
    if calib is not None:
        report["calibration"] = calib
    json_path = io.write_json(out / "rank_summary.json", report)
    geo_path = io.write_json(out / "candidates.geojson", io.candidates_geojson(evaluated, reference_ids))
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    print(f"wrote {geo_path}")
    return 0


def _cmd_gen_fixture(args) -> int:
    seed = 2024 if args.seed is None else args.seed
    paths = fixtures.generate_fixture(
        Path(args.out_dir),
        seed=seed,
        od_pairs=args.od_pairs,
        stops=args.stops,
        pr_lots=args.pr_lots,
    )
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", help="JSON manifest naming the input files")
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (fixture generation) and report echo")
    common.add_argument("--out-dir", default="out", help="directory for outputs (default: out)")

    parser = argparse.ArgumentParser(prog="hubmodal", description="Mobility hub demand, impact, and siting pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive-threshold", parents=[common], help="detour threshold from the intercept survey")
    p.set_defaults(func=_cmd_derive_threshold)

    p = sub.add_parser("identify-trips", parents=[common], help="potential trips for each observed hub")
    p.set_defaults(func=_cmd_identify_trips)

    p = sub.add_parser("calibrate", parents=[common], help="fit the nest parameters to observed usage")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("assess", parents=[common], help="impact metrics for the observed hubs")
    p.add_argument("--params", help="params JSON (a calibration report); omitted: calibrate in process")
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser("rank", parents=[common], help="score and rank siting candidates")
    p.add_argument("--params", help="params JSON (a calibration report); omitted: calibrate in process")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility (>= 1); changes nothing")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("gen-fixture", parents=[common], help="write a synthetic input set")
    p.add_argument("--od-pairs", type=int, default=40, help="OD pairs (4 segment markets each)")
    p.add_argument("--stops", type=int, default=12, help="bus stops in the roster")
    p.add_argument("--pr-lots", type=int, default=2, help="park-and-ride lots")
    p.set_defaults(func=_cmd_gen_fixture)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # emit a machine-readable error record
        record = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
