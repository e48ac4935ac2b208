"""Per-layer metrics from the spans of a traced workload run.

``stages`` is one dict per traced stage process, as ``run.py`` builds it:
``{"stage", "spans", "traced_wall_s", "untraced_wall_s", "thread_probe"}``.
The set-up stage (``gen-fixture``) feeds only the ``fixtures.*`` metrics;
every other metric sums over the workload's pipeline stages.
"""

from __future__ import annotations

from spans import self_times

KERNELS = ("impacts.mode_shift", "impacts.vmt_delta", "impacts.consumer_surplus_delta")


def _is_write(name: str) -> bool:
    return name.startswith("io.write_") or name == "io.atomic_write_text"


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Spans:
    """Flat view over the spans of several stage processes."""

    def __init__(self, stages: list[dict]):
        self.items = []  # (span, parent span or None, self time)
        for st in stages:
            spans = st["spans"]
            for span, own in zip(spans, self_times(spans)):
                parent = spans[span["parent"]] if span["parent"] is not None else None
                self.items.append((span, parent, own))

    def named(self, name: str, parent_prefix: str | None = None):
        for span, parent, own in self.items:
            if span["name"] != name:
                continue
            if parent_prefix is not None and not (parent and parent["name"].startswith(parent_prefix)):
                continue
            yield span, parent, own

    def time(self, *names: str, parent_prefix: str | None = None) -> float:
        return sum(_dur(s) for n in names for s, _, _ in self.named(n, parent_prefix))

    def calls(self, name: str, parent_prefix: str | None = None) -> int:
        return sum(1 for _ in self.named(name, parent_prefix))

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s, _, _ in self.named(name))

    def top_level_writes(self) -> list[dict]:
        return [s for s, p, _ in self.items if _is_write(s["name"]) and not (p and _is_write(p["name"]))]


def stage_accounting(stage: dict) -> dict:
    """Self time per module and the part of the traced wall no span covers."""
    by_module: dict[str, float] = {}
    for span, own in zip(stage["spans"], self_times(stage["spans"])):
        module = span["name"].split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + own
    return {
        "self_s_by_module": by_module,
        "unaccounted_s": stage["traced_wall_s"] - sum(by_module.values()),
    }


def layer_metrics(setup: dict, stages: list[dict], import_s: float) -> dict[str, tuple[float, str]]:
    fx = _Spans([setup])
    sp = _Spans(stages)
    m: dict[str, tuple[float, str]] = {}

    m["cli.import_s"] = (import_s, "s")
    m["cli.self_s"] = (sum(own for s, _, own in sp.items if s["name"].startswith("cli.")), "s")
    m["cli.setups_built"] = (sp.calls("hubs.prepare_hub", parent_prefix="cli."), "count")

    load_s, rows = sp.time("io.load_matrices"), sp.count("io.load_matrices", "rows")
    m["io.load_matrices_s"] = (load_s, "s")
    m["io.matrix_rows"] = (rows, "count")
    m["io.load_matrices_us_per_row"] = (_ratio(load_s * 1e6, rows), "us")
    loads = [s["counts"] for s, _, _ in sp.named("io.load_matrices")]
    peak = max(loads, key=lambda c: c["rss_growth_kb"], default={"rss_growth_kb": 0, "input_bytes": 0})
    m["io.load_matrices_rss_mb"] = (peak["rss_growth_kb"] / 1024.0, "MB")
    m["io.rss_per_input_byte"] = (_ratio(peak["rss_growth_kb"] * 1024.0, peak["input_bytes"]), "ratio")
    m["io.load_markets_s"] = (sp.time("io.load_markets"), "s")
    m["io.market_rows"] = (sp.count("io.load_markets", "rows"), "count")
    m["io.digest_s"] = (sp.time("io.sha256_digest"), "s")
    m["io.bytes_hashed"] = (sp.count("io.sha256_digest", "bytes"), "B")
    m["io.write_s"] = (sum(_dur(s) for s in sp.top_level_writes()), "s")
    m["io.bytes_written"] = (sp.count("io.atomic_write_text", "bytes"), "B")

    fx_write = sum(_dur(s) for s in fx.top_level_writes())
    m["fixtures.write_s"] = (fx_write, "s")
    m["fixtures.build_s"] = (fx.time("fixtures.generate_fixture") - fx_write, "s")
    m["fixtures.bytes_written"] = (fx.count("fixtures.generate_fixture", "bytes"), "B")

    m["hubs.market_table_s"] = (sp.time("hubs.MarketTable"), "s")
    m["hubs.prepare_hub_s"] = (sp.time("hubs.prepare_hub"), "s")
    m["hubs.prepare_hub_calls"] = (sp.calls("hubs.prepare_hub"), "count")
    m["hubs.markets_prepared"] = (sp.count("hubs.prepare_hub", "markets"), "count")
    m["hubs.leg_lookups"] = (sp.count("hubs.prepare_hub", "leg_lookups"), "count")
    nest_s, cells = sp.time("hubs.hub_nest_share"), sp.count("hubs.hub_nest_share", "cells")
    m["hubs.hub_nest_share_s"] = (nest_s, "s")
    m["hubs.hub_nest_share_calls"] = (sp.calls("hubs.hub_nest_share"), "count")
    m["hubs.nest_cells"] = (cells, "count")
    m["hubs.ns_per_nest_cell"] = (_ratio(nest_s * 1e9, cells), "ns")
    m["hubs.choice_shares_s"] = (sp.time("hubs.choice_shares"), "s")

    screened = sp.count("geo.identify_potential_trips", "screened")
    m["geo.identify_s"] = (sp.time("geo.identify_potential_trips"), "s")
    m["geo.identify_calls"] = (sp.calls("geo.identify_potential_trips"), "count")
    m["geo.markets_screened"] = (screened, "count")
    m["geo.keep_ratio"] = (_ratio(sp.count("geo.identify_potential_trips", "kept"), screened), "ratio")

    calib_s, evals = sp.time("calibration.calibrate"), sp.count("calibration.calibrate", "evaluations")
    m["calibration.calibrate_s"] = (calib_s, "s")
    m["calibration.n_evaluations"] = (evals, "count")
    m["calibration.us_per_eval"] = (_ratio(calib_s * 1e6, evals), "us")
    predict_s = sp.time("calibration.predict_hub_proportion", parent_prefix="calibration.calibrate")
    m["calibration.optimizer_self_s"] = (calib_s - predict_s, "s")
    m["calibration.params_at_bound"] = (sp.count("calibration.calibrate", "params_at_bound"), "count")

    m["impacts.assess_hub_s"] = (sp.time("impacts.assess_hub"), "s")
    m["impacts.kernels_s"] = (sp.time(*KERNELS, parent_prefix="siting."), "s")

    n_cand = sp.count("siting.evaluate_candidates", "candidates")
    m["siting.evaluate_candidates_s"] = (sp.time("siting.evaluate_candidates"), "s")
    m["siting.candidates"] = (n_cand, "count")
    m["siting.empty_candidate_ratio"] = (_ratio(sp.count("siting.evaluate_candidates", "empty"), n_cand), "ratio")
    probes = [st["thread_probe"] for st in stages if st.get("thread_probe")]
    m["siting.thread_speedup"] = (
        _ratio(sum(p["one_thread_s"] for p in probes), sum(p["all_threads_s"] for p in probes)),
        "ratio",
    )
    m["siting.rank_and_summarize_s"] = (sp.time("siting.rank_and_summarize"), "s")

    # the thread probe is extra work the untraced stage does not do
    overhead = sum(st["traced_wall_s"] - st["untraced_wall_s"] for st in stages) - sp.time("trace.thread_probe")
    m["trace.overhead_s"] = (overhead, "s")
    return m
