#!/usr/bin/env python3
"""Run the whole command-line pipeline on a generated fixture.

gen-fixture -> derive-threshold -> identify-trips -> calibrate ->
assess -> rank, all through the same entry point the installed
`hubmodal` executable uses.  Every stage writes JSON (and CSV) reports
into its own directory.

Usage: python cli_pipeline.py [OUT_DIR].  The reports are kept in OUT_DIR
when it is given, else written to a temporary directory that is removed
at exit.
"""

import json
import sys
import tempfile
from pathlib import Path

from hubmodal.cli import main


def pipeline(root: Path) -> None:
    fixture = root / "fixture"

    rc = main(
        ["gen-fixture", "--seed", "5", "--out-dir", str(fixture), "--od-pairs", "80", "--stops", "16", "--pr-lots", "3"]
    )
    assert rc == 0
    manifest = str(fixture / "manifest.json")

    def run(stage, *extra):
        out = root / stage
        rc = main([stage, "--manifest", manifest, "--out-dir", str(out), *extra])
        assert rc == 0, stage
        return out

    out = run("derive-threshold")
    threshold = json.loads((out / "threshold.json").read_text())
    print(f"threshold {threshold['threshold']:.4f} from {threshold['n_detour_records']} survey detours "
          f"(source: {threshold['threshold_source']})")

    out = run("identify-trips")
    identify = json.loads((out / "identify.json").read_text())
    for hub, info in identify["hubs"].items():
        print(f"  {hub}: {info['n_markets']} markets, {info['potential_trips_per_day']:.1f} potential trips/day")

    out = run("calibrate")
    calib = json.loads((out / "calibration.json").read_text())
    ident = calib["identification"]
    print(f"\ncalibrated beta_hub {calib['params']['beta_hub']:.4f}, "
          f"objective {calib['objective']:.3e}, converged {calib['converged']}, "
          f"rank {ident['rank']} of {ident['n_free_params']}, "
          f"fit_within_tolerance {ident['fit_within_tolerance']}")
    for fit in calib["per_hub"]:
        print(f"  {fit['hub_id']}: predicted {100 * fit['relative_residual']:+.1f}% against observed")
    params_file = out / "calibration.json"  # downstream stages accept it directly

    out = run("assess", "--params", str(params_file))
    impacts = json.loads((out / "impacts.json").read_text())
    totals = impacts["totals"]
    print("\nregion totals:")
    for key, value in totals.items():
        print(f"  {key:38s} {value:12.3f}")

    out = run("rank", "--params", str(params_file))
    summary = json.loads((out / "rank_summary.json").read_text())
    print(f"\nranked {summary['n_candidates']} candidates against {summary['n_references']} existing hubs")
    for ref, pct in summary["summary"]["references"].items():
        print(f"  {ref} sits at the {100 * pct['potential_demand']:.0f}th percentile of potential demand")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        pipeline(Path(sys.argv[1]))
        print(f"\nreports under {sys.argv[1]}")
    else:
        with tempfile.TemporaryDirectory(prefix="hubmodal-cli-") as tmp:
            pipeline(Path(tmp))
