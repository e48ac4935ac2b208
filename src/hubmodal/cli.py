"""Command line front end.

Subcommands mirror the pipeline stages: derive-threshold, identify-trips,
calibrate, assess, rank, and gen-fixture.  Inputs come from a JSON
manifest (--manifest) naming the data files and an optional JSON config
(--config).  Reports land in --out-dir, echo the active config, and
carry sha256 digests of every input consumed, so a result can always be
traced back to its exact inputs.  Failures print a single-line JSON
error record to stderr and exit 1.

The model stages (calibrate, assess, rank) build each observed hub's
setup once, from its surveyed combos and one screen of the observed
hubs, and an observed hub with no potential trips (no kept market with
a trip) is an error in all three.  The fit and its report block are
calibration.fit_observed_hubs'; --params files are read by
io.load_params.  assess and rank score those setups with the same
impact call, so rank's reference rows are assess's figures; siting
scores only the stop-cluster candidates.

rank accepts --threads (default 1) for compatibility.  Candidate scoring
runs as a few stacked array passes in the calling thread, so the value
changes neither the schedule nor any output byte.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib.util
import json
import sys
from pathlib import Path
from types import ModuleType

import numpy as np

from . import io
from .config import Manifest, PipelineConfig
from .geo import TripScreen, derive_threshold, detour_ratio, screen_trips
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


# Every stage loads the modules above.  These five run only in some
# stages, which alone pay for compiling and running them: calibration in
# the stages that fit (calibrate, and assess and rank without --params);
# impacts in assess and rank; siting in rank and gen-fixture; fixtures in
# gen-fixture; writers in the stages that write a CSV file (identify-trips,
# rank and gen-fixture).
calibration = _lazy("calibration")
impacts = _lazy("impacts")
siting = _lazy("siting")
fixtures = _lazy("fixtures")
writers = _lazy("writers")


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


def _digests(manifest: Manifest, hashed: dict | None = None) -> dict:
    """The sha256 of every input.  ``hashed`` holds those that the stage's
    loads have already taken, by manifest entry: the markets and
    taste-parameters files' from ``io.load_markets``, and the leg matrix
    files' list under "leg_matrices" from ``io.load_matrices``."""
    hashed = hashed or {}
    out = {}
    for name in ("markets", "taste_parameters", "fares", "stops", "pr_lots", "survey", "observed_usage"):
        p = getattr(manifest, name)
        if p:
            out[name] = {"path": str(p), "sha256": hashed.get(name) or io.sha256_digest(p)}
    matrix_digests = hashed.get("leg_matrices") or list(map(io.sha256_digest, manifest.leg_matrices))
    for i, (p, digest) in enumerate(zip(manifest.leg_matrices, matrix_digests, strict=True)):
        out[f"leg_matrices[{i}]"] = {"path": str(p), "sha256": digest}
    return out


def _report_base(args, manifest: Manifest, config: PipelineConfig, hashed: dict | None = None) -> dict:
    return {"config": config.to_dict(), "inputs": _digests(manifest, hashed), "seed": args.seed}


def _resolve_threshold(config: PipelineConfig, survey, hub_locations) -> tuple[float, dict]:
    """Detour threshold: the configured override, or the survey's
    90th-percentile detour ratio.  Every survey row must name an observed
    hub, whichever the source; rows with a degenerate OD pair are skipped
    and counted."""
    for rec in survey:
        if rec.hub_id not in hub_locations:
            raise ValueError(f"survey references unknown hub {rec.hub_id!r}")
    if config.threshold_override is not None:
        return float(config.threshold_override), {
            "threshold_source": "override",
            "n_detour_records": 0,
            "n_skipped_degenerate": 0,
        }
    records = []
    skipped = 0
    for rec in survey:
        try:
            records.append(detour_ratio(rec.origin, rec.destination, hub_locations[rec.hub_id]))
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
    try:
        combos = build_combos(
            rows, car_share_available=rec.car_share_available, bike_share_available=rec.bike_share_available
        )
    except ValueError as err:
        raise ValueError(f"hub {rec.hub_id}: {err}") from None
    return Hub(
        id=rec.hub_id,
        location=rec.location,
        car_share_available=rec.car_share_available,
        bike_share_available=rec.bike_share_available,
        combos=combos,
    )


def _screen(table, hub_recs, config, threshold) -> TripScreen:
    """One screen of the table against the observed hubs, in ``hub_recs``
    order."""
    return screen_trips(
        table,
        [rec.location.lat for rec in hub_recs],
        [rec.location.lon for rec in hub_recs],
        threshold,
        **config.screen_options(),
    )


def _build_setups(table, hub_recs, survey, matrices, fares, config, threshold):
    screen = _screen(table, hub_recs, config, threshold)
    setups = {}
    options = config.setup_options()
    traveled = table.trips > 0.0
    for h, rec in enumerate(hub_recs):
        hub = _build_hub(rec, survey)
        if not (screen.keep[h] & traveled).any():
            raise ValueError(f"hub {rec.hub_id}: no potential trips at threshold {threshold}")
        setups[rec.hub_id] = prepare_hub(table, [hub], screen[h : h + 1], matrices, fares, **options)
    return setups


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
    hashed: dict = {}
    table = io.load_markets(manifest.markets, manifest.taste_parameters, hashed)
    hub_recs = io.load_hub_records(manifest.observed_usage)
    if config.threshold_override is None:
        manifest.require("survey")
    survey = io.load_survey(manifest.survey) if manifest.survey else []
    thr, thr_meta = _resolve_threshold(config, survey, {r.hub_id: r.location for r in hub_recs})

    rows = []
    hubs_report = {}
    for rec, kept in zip(hub_recs, _screen(table, hub_recs, config, thr).keep):
        idx = np.flatnonzero(kept)
        # summed as calibrate sums a setup's trips, so the two reports agree
        trips = table.trips[idx].sum()
        hubs_report[rec.hub_id] = {"n_markets": len(idx), "potential_trips_per_day": float(trips)}
        rows.extend((rec.hub_id, table.ids[i]) for i in idx.tolist())

    out = _out_dir(args)
    trips_path = writers.write_csv(out / "trips.csv", ("hub_id", "market_id"), rows)
    report = {"threshold": thr, **thr_meta, "hubs": hubs_report, **_report_base(args, manifest, config, hashed)}
    json_path = io.write_json(out / "identify.json", report)
    print(f"wrote {trips_path}")
    print(f"wrote {json_path}")
    return 0


def _load_model_inputs(args, *required: str):
    """The inputs of a model stage (calibrate, assess, rank), the detour
    threshold, and the observed hubs' setups.  The manifest must name the
    model inputs and the stage's own ``required`` entries before any input
    is read."""
    manifest, config = _load_base(args)
    manifest.require("markets", "fares", "survey", "observed_usage", "leg_matrices", *required)
    # The matrices parse sets the stage's peak RSS: no other input sits under it.
    hashed: dict = {"leg_matrices": []}  # each input's sha256, taken by its load
    matrices = io.load_matrices(manifest.leg_matrices, hashed["leg_matrices"])
    table = io.load_markets(manifest.markets, manifest.taste_parameters, hashed)
    survey = io.load_survey(manifest.survey)
    hub_recs = io.load_hub_records(manifest.observed_usage)
    fares = io.load_fares(manifest.fares)
    thr, thr_meta = _resolve_threshold(config, survey, {r.hub_id: r.location for r in hub_recs})
    setups = _build_setups(table, hub_recs, survey, matrices, fares, config, thr)
    return manifest, config, table, hub_recs, matrices, hashed, fares, thr, thr_meta, setups


def _cmd_calibrate(args) -> int:
    manifest, config, _, hub_recs, _, hashed, _, thr, thr_meta, setups = _load_model_inputs(args)
    result, _, fit = calibration.fit_observed_hubs(setups, hub_recs, config.optimizer)
    report = {"threshold": thr, **thr_meta, **fit, **_report_base(args, manifest, config, hashed)}
    path = io.write_json(_out_dir(args) / "calibration.json", report)
    print(f"objective {result.objective}")
    print(f"wrote {path}")
    return 0


def _assess_observed(args, setups, hub_recs, config):
    """Params from --params when given, else a fresh in-process fit over
    the observed hubs' setups; the report entries they make (the params,
    and the fit's block under "calibration" when fitted here); and each
    observed hub's impact report at those params, keyed by hub id in
    hub-id order.  assess writes these reports, and rank ranks them as
    its references."""
    if args.params:
        params = io.load_params(args.params)
        entries = {"params": io.params_json(params)}
    else:
        result, _, fit = calibration.fit_observed_hubs(setups, hub_recs, config.optimizer)
        params = result.params
        entries = {"params": fit["params"], "calibration": fit}
    options = config.impact_options()
    reports = {}
    for hub_id in sorted(setups):
        (reports[hub_id],) = impacts.assess_hubs(setups[hub_id], params, **options)
    return params, entries, reports


def _cmd_assess(args) -> int:
    manifest, config, _, hub_recs, _, hashed, _, thr, thr_meta, setups = _load_model_inputs(args)
    _, entries, reports = _assess_observed(args, setups, hub_recs, config)

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
    for hub_id, rep in reports.items():
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
        **entries,
        "hubs": hubs_out,
        "totals": totals,
        **_report_base(args, manifest, config, hashed),
    }
    path = io.write_json(_out_dir(args) / "impacts.json", report)
    print(f"wrote {path}")
    return 0


def _cmd_rank(args) -> int:
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    manifest, config, table, hub_recs, matrices, hashed, fares, thr, thr_meta, setups = _load_model_inputs(
        args, "stops", "pr_lots"
    )
    stops = io.load_stops(manifest.stops)
    lots = io.load_pr_lots(manifest.pr_lots)
    # the references are the observed hubs as assess reports them
    params, entries, reports = _assess_observed(args, setups, hub_recs, config)
    del setups  # so that candidate scoring's peak holds none of them

    candidates = siting.assign_services(siting.cluster_stops(stops), lots)
    references = [
        siting.Candidate(
            candidate_id=rec.hub_id,
            location=rec.location,
            member_stop_ids=(),
            car_share_available=rec.car_share_available,
            bike_share_available=rec.bike_share_available,
            metrics=siting.CandidateMetrics.from_report(reports[rec.hub_id]),
        )
        for rec in hub_recs
    ]
    reference_ids = [rec.hub_id for rec in hub_recs]
    overlap = set(reference_ids) & {c.candidate_id for c in candidates}
    if overlap:
        raise ValueError(f"hub ids collide with candidate ids: {sorted(overlap)}")

    evaluated = references + siting.evaluate_candidates(
        candidates, table, params, thr, matrices, fares, config=config, threads=args.threads
    )
    del matrices  # the reports' writing peaks without the leg store
    ranked, summary = siting.rank_and_summarize(evaluated, reference_ids=reference_ids)

    header = ["candidate_id", "is_reference"]
    header += list(siting.METRIC_KEYS)
    header += [f"rank_{k}" for k in siting.METRIC_KEYS]
    header += [f"percentile_{k}" for k in siting.METRIC_KEYS]
    ref_set = set(reference_ids)
    ordered = sorted(ranked, key=lambda r: (r.rank["potential_demand"], r.candidate_id))
    rows = []
    for r in ordered:
        row = [r.candidate_id, r.candidate_id in ref_set]
        row += [r.metrics.get(k) for k in siting.METRIC_KEYS]
        row += [r.rank[k] for k in siting.METRIC_KEYS]
        row += [r.percentile[k] for k in siting.METRIC_KEYS]
        rows.append(row)

    out = _out_dir(args)
    csv_path = writers.write_csv(out / "ranking.csv", header, rows)
    report = {
        "threshold": thr,
        **thr_meta,
        **entries,
        "n_candidates": len(candidates),
        "n_references": len(references),
        "summary": summary,
        **_report_base(args, manifest, config, hashed),
    }
    json_path = io.write_json(out / "rank_summary.json", report)
    geo_path = io.write_json(out / "candidates.geojson", siting.candidates_geojson(evaluated, reference_ids))
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

# Options every subcommand takes, then each subcommand's handler, help
# line and options of its own, as (flag, add_argument keywords) pairs.
_COMMON = (
    ("--manifest", {"help": "JSON manifest naming the input files"}),
    ("--config", {"help": "JSON run configuration"}),
    ("--seed", {"type": int, "default": None, "help": "RNG seed (fixture generation) and report echo"}),
    ("--out-dir", {"default": "out", "help": "directory for outputs (default: out)"}),
)
_PARAMS = ("--params", {"help": "params JSON (a calibration report); omitted: calibrate in process"})
_COMMANDS = {
    "derive-threshold": (_cmd_derive_threshold, "detour threshold from the intercept survey", ()),
    "identify-trips": (_cmd_identify_trips, "potential trips for each observed hub", ()),
    "calibrate": (_cmd_calibrate, "fit the nest parameters to observed usage", ()),
    "assess": (_cmd_assess, "impact metrics for the observed hubs", (_PARAMS,)),
    "rank": (
        _cmd_rank,
        "score and rank siting candidates",
        (_PARAMS, ("--threads", {"type": int, "default": 1, "help": "accepted for compatibility (>= 1); changes nothing"})),
    ),
    "gen-fixture": (
        _cmd_gen_fixture,
        "write a synthetic input set",
        (
            ("--od-pairs", {"type": int, "default": 40, "help": "OD pairs (4 segment markets each)"}),
            ("--stops", {"type": int, "default": 12, "help": "bus stops in the roster"}),
            ("--pr-lots", {"type": int, "default": 2, "help": "park-and-ride lots"}),
        ),
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  When ``command`` names a subcommand only
    its parser is built: argparse looks up a translation of every help
    string, so all six cost a stage a few ms.  The usage line still lists
    all six, so help and usage errors read the same either way."""
    lone = command in _COMMANDS
    parser = argparse.ArgumentParser(prog="hubmodal", description="Mobility hub demand, impact, and siting pipeline.")
    # metavar lists all six in a lone build's usage line; a full build
    # leaves it unset, since it also names the command in the errors
    # only a full build raises (a missing or unknown command)
    sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(_COMMANDS) if lone else None)
    for name in [command] if lone else _COMMANDS:
        func, summary, options = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in _COMMON + options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # Freeze every object at exit, so that finalization's cyclic
    # collections skip the ~23,000 the numpy and hubmodal imports leave
    # tracked, which the OS reclaims a moment later anyway.  atexit runs
    # before finalization; the other handlers, the std-stream flush and
    # module teardown still run.  A freeze here, on entry, would make
    # permanent any cyclic garbage an in-process caller holds.
    # Unregistering first keeps one registration a process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # emit a machine-readable error record
        record = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
