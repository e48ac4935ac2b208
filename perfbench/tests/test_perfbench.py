"""Tests of the benchmark harness itself: a quickstart smoke pass, failure
counting, and the span and probe arithmetic."""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import check_ranking  # noqa: E402
from probe import slowdowns  # noqa: E402
from spans import Recorder, self_times  # noqa: E402

# one pass over the stages is enough to exercise every check
QUICKSTART = dataclasses.replace(run.WORKLOADS["quickstart"], min_iterations=1)


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "thread": 0, "counts": {}}


def test_self_times_on_nested_spans():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        # two worker threads overlapping inside b: [6, 8.5] is covered
        _span("b.worker1", 6.0, 8.0, 3),
        _span("b.worker2", 7.0, 8.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])
    # every instant of the root is counted once: the main thread's self
    # times plus the interval the workers cover
    assert sum(self_times(spans)[:4]) + 2.5 == pytest.approx(10.0)


def test_slowdowns_divide_out_the_probe_stretch():
    samples = [(i * 0.05, 0.002) for i in range(40)]  # 0 to 1.95 s, quiet
    samples += [(2.0 + i * 0.05, 0.004) for i in range(20)]  # 2 to 2.95 s, twice as slow
    # the last window holds ten quiet samples and twenty slow ones
    assert slowdowns([(0.0, 1.9), (2.0, 2.96), (1.5, 2.96)], samples) == pytest.approx([1.0, 2.0, 100 / 60])
    with pytest.raises(ValueError):
        slowdowns([(5.0, 6.0)], samples)


def test_worker_thread_spans_parent_to_the_adopting_span():
    rec = Recorder()
    leaf = rec.wrap("siting.leaf", lambda x: x * 2)

    def pool_call(items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, items))

    evaluate = rec.wrap("siting.evaluate_candidates", pool_call, adopt=True)
    outer = rec.wrap("cli.main", lambda: evaluate([1, 2, 3, 4]))
    assert outer() == [2, 4, 6, 8]
    names = [s["name"] for s in rec.spans]
    parent_id = names.index("siting.evaluate_candidates")
    leaves = [s for s in rec.spans if s["name"] == "siting.leaf"]
    assert len(leaves) == 4
    assert all(s["parent"] == parent_id for s in leaves)
    assert rec.spans[parent_id]["parent"] == names.index("cli.main")
    # after the adopting span ends, a fresh thread's span is a root again
    t = threading.Thread(target=leaf, args=(1,))
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    assert rec.spans[-1]["parent"] is None


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    work = tmp_path_factory.mktemp("quickstart")
    result = run.run_workload(QUICKSTART, seed=5, seconds=0, traced=False, work=work)
    return work, result


def test_quickstart_smoke_passes_every_check(quickstart):
    work, result = quickstart
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == QUICKSTART.setups + len(QUICKSTART.stages)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((work / "result.json").read_text())
    assert record["environment"]["nproc"] >= 1
    assert record["inputs"]["matrices.csv"]["rows"] > 0
    assert "rank/ranking.csv" in record["digests"]
    assert record["metrics"]["fit_max_rel_err"]["value"] >= 0.0


def test_dropped_ranking_row_fails_the_check(quickstart, tmp_path):
    work, _ = quickstart
    out = work / "out"
    assert check_ranking(out) == []
    lines = (out / "ranking.csv").read_text().splitlines(keepends=True)
    bad = tmp_path / "out"
    bad.mkdir()
    for name in ("rank_summary.json", "candidates.geojson"):
        (bad / name).write_bytes((out / name).read_bytes())
    (bad / "ranking.csv").write_text("".join(lines[:-1]))
    problems = check_ranking(bad)
    assert any("expected n_candidates + n_references" in p for p in problems)
    assert any("n_ranked" in p for p in problems)


def test_corrupted_output_counts_in_fail_ratio(tmp_path, monkeypatch):
    spawn = run.Runner.spawn

    def spawn_then_drop_a_row(self, argv):
        rec = spawn(self, argv)
        ranking = self.work / "out" / "ranking.csv"
        if "rank" in argv and ranking.is_file():
            lines = ranking.read_text().splitlines(keepends=True)
            ranking.write_text("".join(lines[:-1]))
        return rec

    monkeypatch.setattr(run.Runner, "spawn", spawn_then_drop_a_row)
    result = run.run_workload(QUICKSTART, seed=5, seconds=0, traced=False, work=tmp_path / "w")
    assert not result["correct"]
    assert result["failed"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    record = json.loads((tmp_path / "w" / "result.json").read_text())
    assert record["metrics"]["fail_ratio"]["value"] == pytest.approx(1 / result["attempted"])
    assert record["problems"][0]["stage"] == "rank"


def test_report_missing_a_field_counts_in_fail_ratio(tmp_path, monkeypatch):
    spawn = run.Runner.spawn

    def spawn_then_drop_config(self, argv):
        rec = spawn(self, argv)
        calibration = self.work / "out" / "calibration.json"
        if "calibrate" in argv and calibration.is_file():
            report = json.loads(calibration.read_text())
            del report["config"]
            calibration.write_text(json.dumps(report))
        return rec

    monkeypatch.setattr(run.Runner, "spawn", spawn_then_drop_config)
    result = run.run_workload(QUICKSTART, seed=5, seconds=0, traced=False, work=tmp_path / "w")
    assert not result["correct"]
    assert result["failed"] == 1
    record = json.loads((tmp_path / "w" / "result.json").read_text())
    assert record["problems"][0]["stage"] == "calibrate"
    assert "KeyError" in record["problems"][0]["problems"][0]


def test_nonzero_exit_is_counted_not_raised(tmp_path):
    runner = run.Runner(QUICKSTART, seed=5, work=tmp_path)
    rec = runner.stage("derive-threshold", (), "out")  # no fixture: the CLI exits 1
    assert rec["exit_code"] == 1
    assert rec["problems"][0] == "exit code 1"
    assert any(p.startswith("FileNotFoundError") for p in rec["problems"])
    assert runner.failed() == 1


def test_traced_quickstart_emits_every_layer_metric(tmp_path):
    result = run.run_workload(QUICKSTART, seed=5, seconds=0, traced=True, work=tmp_path)
    assert result["correct"]
    assert list(result["metrics"]) == list(run.PER_LAYER)
    record = json.loads((tmp_path / "result.json").read_text())
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert metrics["calibration.n_evaluations"] > 0
    assert metrics["hubs.hub_nest_share_calls"] > 0
    # calibrate and assess build setups themselves; rank builds them in siting
    assert 0 < metrics["cli.setups_built"] < metrics["hubs.prepare_hub_calls"]
    assert metrics["siting.candidates"] > 0 and metrics["siting.thread_speedup"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())
    for stage, acct in spans["accounting"].items():
        # the spans cover the traced stage's wall time, up to the tracer's own set-up
        assert 0.0 <= acct["unaccounted_s"] < 0.1, stage


def test_benchmark_json_matches_the_harness():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]}.items() <= {n: w.why for n, w in run.WORKLOADS.items()}.items()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "quickstart", "--seed", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
