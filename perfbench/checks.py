"""Output checks for each CLI stage.

They test what a report must say, not its exact bytes, so a change that
legitimately moves a number still passes.  Each check returns a list of
problems; an empty list means the stage's outputs are good.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Deterministic outputs of each stage; their digests must repeat.
STAGE_OUTPUTS = {
    "derive-threshold": ("threshold.json",),
    "identify-trips": ("identify.json", "trips.csv"),
    "calibrate": ("calibration.json",),
    "assess": ("impacts.json",),
    "rank": ("ranking.csv", "rank_summary.json", "candidates.geojson"),
}
RANK_METRICS = ("potential_demand", "transit_delta", "vmt_reduced", "cs_total")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def output_digests(stage: str, out_dir: Path) -> dict[str, str]:
    if stage == "gen-fixture":
        names = sorted(p.name for p in out_dir.iterdir() if p.is_file())
    else:
        names = STAGE_OUTPUTS[stage]
    return {n: sha256_file(out_dir / n) for n in names if (out_dir / n).is_file()}


def error_records(stderr_text: str) -> list[str]:
    """The CLI's single-line JSON error records found on stderr."""
    found = []
    for line in stderr_text.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if isinstance(rec, dict) and "error" in rec:
            found.append(f"{rec['error']}: {rec.get('message', '')}")
    return found


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _load_json(path: Path, problems: list[str]):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        problems.append(f"{path.name}: unreadable ({err})")
        return None


def observed_hub_ids(fixture_dir: Path) -> list[str]:
    with open(fixture_dir / "observed_usage.csv", newline="", encoding="utf-8") as fh:
        return sorted(row["hub_id"] for row in csv.DictReader(fh))


def check_fixture(fixture_dir: Path) -> list[str]:
    problems: list[str] = []
    manifest = _load_json(fixture_dir / "manifest.json", problems)
    if manifest is None:
        return problems
    for key, value in manifest.items():
        for name in value if isinstance(value, list) else [value]:
            if not (fixture_dir / name).is_file():
                problems.append(f"manifest {key}: {name} missing")
    return problems


def check_threshold(out_dir: Path) -> list[str]:
    problems: list[str] = []
    rep = _load_json(out_dir / "threshold.json", problems)
    if rep is not None and not (_finite(rep.get("threshold")) and rep["threshold"] >= 1.0):
        problems.append(f"threshold.json: threshold {rep.get('threshold')!r} is not a finite ratio >= 1")
    return problems


def check_identify(out_dir: Path, hub_ids: list[str]) -> list[str]:
    problems: list[str] = []
    rep = _load_json(out_dir / "identify.json", problems)
    if rep is not None and sorted(rep.get("hubs", {})) != hub_ids:
        problems.append(f"identify.json: hubs {sorted(rep.get('hubs', {}))} != observed {hub_ids}")
    if not (out_dir / "trips.csv").is_file():
        problems.append("trips.csv missing")
    return problems


def fit_max_rel_err(calibration: dict) -> float:
    """Largest |predicted - observed| / observed over the fitted hubs."""
    return max(abs(h["predicted"] - h["observed"]) / h["observed"] for h in calibration["per_hub"])


def check_calibration(out_dir: Path, hub_ids: list[str]) -> list[str]:
    problems: list[str] = []
    rep = _load_json(out_dir / "calibration.json", problems)
    if rep is None:
        return problems
    if not _finite(rep.get("objective")):
        problems.append(f"calibration.json: objective {rep.get('objective')!r} is not finite")
    opt = rep["config"]["optimizer"]
    lo_b, hi_b = opt["beta_bounds"]
    lo_a, hi_a = opt["asc_bounds"]
    params = rep["params"]
    if not (_finite(params["beta_hub"]) and lo_b <= params["beta_hub"] <= hi_b):
        problems.append(f"calibration.json: beta_hub {params['beta_hub']} outside [{lo_b}, {hi_b}]")
    for seg, v in params["asc_by_segment"].items():
        if not (_finite(v) and lo_a <= v <= hi_a):
            problems.append(f"calibration.json: asc {seg} {v} outside [{lo_a}, {hi_a}]")
    fitted = sorted(h["hub_id"] for h in rep.get("per_hub", []))
    if fitted != hub_ids:
        problems.append(f"calibration.json: per_hub {fitted} != observed {hub_ids}")
    elif not all(_finite(h["predicted"]) and _finite(h["observed"]) and h["observed"] > 0 for h in rep["per_hub"]):
        problems.append("calibration.json: per_hub values not finite and positive")
    return problems


def check_impacts(out_dir: Path, hub_ids: list[str]) -> list[str]:
    problems: list[str] = []
    rep = _load_json(out_dir / "impacts.json", problems)
    if rep is None:
        return problems
    bad = sorted(k for k, v in rep["totals"].items() if not _finite(v))
    if bad:
        problems.append(f"impacts.json: totals not finite: {bad}")
    if sorted(rep["hubs"]) != hub_ids:
        problems.append(f"impacts.json: hubs {sorted(rep['hubs'])} != observed {hub_ids}")
    for hub_id, hub in rep["hubs"].items():
        cs = hub.get("consumer_surplus_total_usd_per_day")
        if not (_finite(cs) and cs >= 0.0):
            problems.append(f"impacts.json: {hub_id} consumer surplus {cs!r} is not finite and >= 0")
    return problems


def check_ranking(out_dir: Path) -> list[str]:
    problems: list[str] = []
    summary = _load_json(out_dir / "rank_summary.json", problems)
    try:
        with open(out_dir / "ranking.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        return problems + [f"ranking.csv: unreadable ({err})"]
    if not (out_dir / "candidates.geojson").is_file():
        problems.append("candidates.geojson missing")
    if summary is None:
        return problems
    n = len(rows)
    expected = summary["n_candidates"] + summary["n_references"]
    if n != expected:
        problems.append(f"ranking.csv: {n} rows, expected n_candidates + n_references = {expected}")
    if summary["summary"]["n_ranked"] != n:
        problems.append(f"rank_summary.json: n_ranked {summary['summary']['n_ranked']} != {n} ranking rows")
    for key in RANK_METRICS:
        try:
            values = [float(r[key]) for r in rows]
            ranks = sorted(int(r[f"rank_{key}"]) for r in rows)
        except (KeyError, TypeError, ValueError) as err:
            problems.append(f"ranking.csv: column {key}: {err}")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"ranking.csv: {key} has non-finite values")
        if ranks != list(range(1, n + 1)):
            problems.append(f"ranking.csv: rank_{key} is not a permutation of 1..{n}")
    return problems


def check_stage(stage: str, out_dir: Path, fixture_dir: Path) -> list[str]:
    """Problems in the outputs a successful stage left in out_dir."""
    if stage == "gen-fixture":
        return check_fixture(fixture_dir)
    hub_ids = observed_hub_ids(fixture_dir)
    if stage == "derive-threshold":
        return check_threshold(out_dir)
    if stage == "identify-trips":
        return check_identify(out_dir, hub_ids)
    if stage == "calibrate":
        return check_calibration(out_dir, hub_ids)
    if stage == "assess":
        return check_impacts(out_dir, hub_ids)
    if stage == "rank":
        return check_ranking(out_dir)
    raise ValueError(f"no output check for stage {stage!r}")
