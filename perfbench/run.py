#!/usr/bin/env python3
"""Benchmark of the hubmodal CLI stages.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the stages import ``hubmodal`` from its
``src/``.  Each stage runs as its own child process, closed loop, one at a
time; wall time is measured around it, and CPU time and peak RSS come
from ``os.wait4`` on that child.  Outputs are checked after every stage.

``--trace 0`` runs the workload's stages until ``--seconds`` have passed
(at least once), on one CPU beside the host-speed probe of ``probe.py``,
and reports the end-to-end metrics as quiet-host times.  ``--trace 1`` runs
each stage once untraced and once under ``traced_stage.py`` and reports
the per-layer metrics.  ``--workload all`` runs every workload in turn.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, input sizes,
report digests, every sample and every metric) goes to
``.perfbench_work/<workload>/result.json``, and the spans of a traced run
to ``spans.json`` beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from checks import check_stage, error_records, fit_max_rel_err, output_digests  # noqa: E402
from layers import layer_metrics, stage_accounting  # noqa: E402
from probe import slowdowns  # noqa: E402

CLI = "import sys\nfrom hubmodal.cli import main\nsys.exit(main())"
IMPORT_PROBES = 3
STAGE_TIMEOUT_S = 170.0
FIXTURE = "fx"
PARAMS = "params.json"
# Criterion 10's fixed parameters: beta_hub 0.3 and every nest constant -4.
FIXED_BETA, FIXED_ASC = 0.3, -4.0

# Metrics every workload reports with --trace 0.  The per-stage times,
# CPU time, fit error and fail ratio are printed and recorded beside them.
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics: every one the traced run computes, on every workload,
# where a layer the workload does not run reads 0.  Left out (printed and
# recorded only): siting.empty_candidate_ratio, a property of the fixture,
# and trace.unaccounted_s, the tracer's own cost.
PER_LAYER = (
    "cli.import_s", "cli.self_s", "cli.setups_built",
    "io.load_matrices_s", "io.matrix_rows", "io.load_matrices_us_per_row", "io.load_matrices_rss_mb",
    "io.rss_per_input_byte", "io.load_markets_s", "io.market_rows", "io.digest_s", "io.bytes_hashed",
    "io.write_s", "io.bytes_written",
    "fixtures.write_s", "fixtures.build_s", "fixtures.bytes_written",
    "hubs.market_table_s", "hubs.prepare_hub_s", "hubs.prepare_hub_calls", "hubs.markets_prepared",
    "hubs.leg_lookups", "hubs.hub_nest_share_s", "hubs.hub_nest_share_calls", "hubs.nest_cells",
    "hubs.ns_per_nest_cell", "hubs.choice_shares_s",
    "geo.identify_s", "geo.identify_calls", "geo.markets_screened", "geo.keep_ratio",
    "calibration.calibrate_s", "calibration.n_evaluations", "calibration.us_per_eval",
    "calibration.optimizer_self_s", "calibration.params_at_bound",
    "impacts.assess_hub_s", "impacts.kernels_s",
    "siting.evaluate_candidates_s", "siting.candidates", "siting.thread_speedup", "siting.rank_and_summarize_s",
    "trace.overhead_s",
)  # fmt: skip


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixture: tuple[str, ...]
    stages: tuple[tuple[str, tuple[str, ...]], ...]
    min_iterations: int = 1
    setups: int = 3  # set-up repeats per run; setup_s is their median


_CALIBRATED = ("--params", "{out}/calibration.json")
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quickstart",
            "README quick start: five short stages where process start and imports dominate",
            ("--seed", "7"),
            (
                ("derive-threshold", ()),
                ("identify-trips", ()),
                ("calibrate", ()),
                ("assess", _CALIBRATED),
                ("rank", _CALIBRATED + ("--threads", "1")),
            ),
            min_iterations=5,
            setups=5,
        ),
        Workload(
            "calibrate-5k",
            "5,000 markets, 2 observed hubs, small matrices: the optimizer and share kernel dominate",
            ("--seed", "11", "--od-pairs", "1250", "--stops", "2", "--pr-lots", "1"),
            (
                ("calibrate", ()),
                ("assess", _CALIBRATED),
                ("rank", _CALIBRATED + ("--threads", "1")),
            ),
        ),
        Workload(
            "rank-1k",
            "1,000 markets x 100 candidates, 83k matrix rows, fixed params: matrix loading dominates",
            ("--seed", "11", "--od-pairs", "250", "--stops", "100", "--pr-lots", "5"),
            (("rank", ("--params", PARAMS, "--threads", "1")),),
            min_iterations=3,
        ),
        Workload(
            "rank-5k",
            "5,000 markets x 100 candidates, 410k matrix rows, fixed params: matrix loading dominates",
            ("--seed", "11", "--od-pairs", "1250", "--stops", "100", "--pr-lots", "5"),
            (("rank", ("--params", PARAMS, "--threads", "1")),),
            min_iterations=2,
            setups=2,  # about 12 s each; three would crowd the run's time budget
        ),
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    """Runs stages of one workload in child processes and keeps every
    stage run, so failures are counted rather than raised."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.runs: list[dict] = []
        self.first_digests: dict[tuple[str, str], str] = {}
        env = dict(os.environ)
        env.pop("HUBMODAL_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.env = env

    def spawn(self, argv: list[str]) -> dict:
        """Run argv to completion; wall, CPU and peak RSS of that child."""
        out_log, err_log = self.work / "stage.out", self.work / "stage.err"
        with open(out_log, "wb") as out, open(err_log, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode,
            "stderr": err_log.read_text(encoding="utf-8", errors="replace"),
            "started": started,
        }

    def stage(
        self,
        stage: str,
        args: tuple[str, ...],
        out: str,
        *,
        traced: str | None = None,
        threads: str | None = None,
        reads: str | None = None,
    ) -> dict:
        """One stage run with its output checks.  ``traced`` names the
        spans file, ``threads`` overrides the workload's --threads, and
        ``reads`` is the directory of earlier reports (default ``out``)."""
        if stage == "gen-fixture":
            cli_args = ["gen-fixture", *self.workload.fixture, "--out-dir", out]
        else:
            cli_args = [stage, "--manifest", f"{FIXTURE}/manifest.json", "--out-dir", out, "--seed", str(self.seed)]
            cli_args += [a.format(out=reads or out) for a in args]
            if threads is not None:
                cli_args[cli_args.index("--threads") + 1] = threads
        if traced is None:
            argv = [sys.executable, "-c", CLI, *cli_args]
        else:
            argv = [sys.executable, str(HERE / "traced_stage.py"), repr(time.perf_counter()), traced, "--", *cli_args]
        rec = self.spawn(argv)
        rec.update(stage=stage, traced=traced is not None, threads=threads)
        problems = [f"exit code {rec['exit_code']}"] if rec["exit_code"] != 0 else []
        problems += error_records(rec.pop("stderr"))
        if not problems:
            try:
                problems = check_stage(stage, self.work / out, self.work / FIXTURE)
            except (KeyError, TypeError, ValueError, OSError) as err:  # a report missing a field
                problems = [f"{stage} outputs: {type(err).__name__}: {err}"]
        rec["digests"] = output_digests(stage, self.work / out) if not problems else {}
        for name, digest in rec["digests"].items():
            first = self.first_digests.setdefault((stage, name), digest)
            if digest != first:
                problems.append(f"{name}: bytes differ from this run's first {stage}")
        rec["problems"] = problems
        self.runs.append(rec)
        if problems:
            print(f"FAIL {stage}: {'; '.join(problems)}", file=sys.stderr)
        return rec

    def clean(self, name: str) -> None:
        shutil.rmtree(self.work / name, ignore_errors=True)

    def write_params(self) -> None:
        """Criterion 10's fixed params over the fixture's segments."""
        with open(self.work / FIXTURE / "markets.csv", newline="", encoding="utf-8") as fh:
            segments = sorted({row["segment"] for row in csv.DictReader(fh)})
        params = {"beta_hub": FIXED_BETA, "asc_by_segment": {s: FIXED_ASC for s in segments}}
        (self.work / PARAMS).write_text(json.dumps({"params": params}, indent=2) + "\n", encoding="utf-8")

    def failed(self) -> int:
        return sum(1 for r in self.runs if r["problems"])


@contextlib.contextmanager
def pinned_beside_probe(work: Path):
    """Pin this thread, and so every stage it starts, to one CPU, with the
    host-speed probe (probe.py) beside it; yields its samples' path, which
    is filled once the block ends."""
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    path = work / "probe.json"
    probe = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(cpu), str(path)], stdin=subprocess.PIPE)
    try:
        os.sched_setaffinity(0, {cpu})
        yield path
    finally:
        os.sched_setaffinity(0, allowed)
        probe.stdin.close()
        try:
            probe.wait(timeout=30)
        except subprocess.TimeoutExpired:
            probe.kill()
            probe.wait()
    if probe.returncode != 0:
        raise RuntimeError(f"host-speed probe exited with code {probe.returncode}")


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced: set-ups, then the stages until ``seconds`` have passed.

    Times are quiet-host times: each stage's wall (and CPU) time divided by
    the probe's slowdown while it ran.  Without that, the neighbours' load
    on a shared host moves a stage by up to 1.6x for tens of seconds at a
    time, far beyond the bounds in BENCHMARK.json."""
    with pinned_beside_probe(runner.work) as probe_path:
        setups = []
        for _ in range(runner.workload.setups):
            runner.clean(FIXTURE)
            setups.append(runner.stage("gen-fixture", (), FIXTURE))
        runner.write_params()

        iterations: list[list[dict]] = []
        started = time.perf_counter()
        while len(iterations) < runner.workload.min_iterations or time.perf_counter() - started < seconds:
            runner.clean("out")
            iterations.append([runner.stage(stage, args, "out") for stage, args in runner.workload.stages])

    stage_runs = [r for it in iterations for r in it]
    probe_samples = json.loads(probe_path.read_text())
    windows = [(r["started"], r["started"] + r["wall_s"]) for r in setups + stage_runs]
    for r, slow in zip(setups + stage_runs, slowdowns(windows, probe_samples)):
        r["slowdown"] = slow

    def stage_median(stage: str, key: str = "wall_s", quiet: bool = True) -> float | None:
        values = [r[key] / (r["slowdown"] if quiet else 1.0) for r in stage_runs if r["stage"] == stage]
        return statistics.median(values) if values else None

    stages = [stage for stage, _ in runner.workload.stages]
    metrics = {
        "setup_s": (statistics.median(r["wall_s"] / r["slowdown"] for r in setups), "s"),
        "pipeline_s": (sum(stage_median(s) for s in stages), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in stage_runs), "MB"),
        "pipeline_cpu_s": (sum(stage_median(s, "cpu_s") for s in stages), "s"),
        "pipeline_wall_s": (sum(stage_median(s, quiet=False) for s in stages), "s"),
        "host_slowdown": (statistics.median(r["slowdown"] for r in setups + stage_runs), "ratio"),
    }
    extra = {f"{s}_s": (stage_median(s), "s") for s in ("calibrate", "assess", "rank")}
    calibration = runner.work / "out" / "calibration.json"
    if calibration.is_file():
        try:
            extra["fit_max_rel_err"] = (fit_max_rel_err(json.loads(calibration.read_text())), "ratio")
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            pass  # the stage's output check already counted it
    extra = {k: v for k, v in extra.items() if v[0] is not None}
    samples = {
        "setups": [_sample(r) for r in setups],
        "iterations": [[_sample(r) for r in it] for it in iterations],
        "probe": probe_samples,
    }
    return metrics | extra, samples


def trace(runner: Runner) -> tuple[dict, dict]:
    """Traced: each stage once untraced and once traced, plus the import
    probe and the rank thread-count contract."""
    spans_dir = runner.work / "spans"
    spans_dir.mkdir()

    def load_spans(path: Path, rec: dict, untraced: dict | None) -> dict:
        data = json.loads(path.read_text()) if path.is_file() else {"spans": [], "thread_probe": None}
        if data["spans"]:  # from the last span's end until the child was reaped
            last = max(s["end"] for s in data["spans"])
            exit_span = {"name": "python.exit", "start": last, "end": rec["started"] + rec["wall_s"]}
            data["spans"].append({**exit_span, "parent": None, "thread": None, "counts": {}})
        return {
            "stage": rec["stage"],
            "spans": data["spans"],
            "thread_probe": data["thread_probe"],
            "traced_wall_s": rec["wall_s"],
            "untraced_wall_s": untraced["wall_s"] if untraced else None,
        }

    runner.clean(FIXTURE)
    setup_rec = runner.stage("gen-fixture", (), FIXTURE, traced=str(spans_dir / "gen-fixture.json"))
    setup = load_spans(spans_dir / "gen-fixture.json", setup_rec, None)
    runner.write_params()

    imports = [runner.spawn([sys.executable, "-c", "import hubmodal.cli"]) for _ in range(IMPORT_PROBES)]
    import_s = statistics.median(r["wall_s"] for r in imports)

    stages = []
    for stage, args in runner.workload.stages:
        plain = runner.stage(stage, args, "out")
        path = spans_dir / f"{stage}.json"
        traced = runner.stage(stage, args, "tout", traced=str(path))
        stages.append(load_spans(path, traced, plain))
        probe = stages[-1]["thread_probe"]
        if probe and not probe["identical"]:
            traced["problems"].append(f"evaluate_candidates differs between 1 and {probe['threads']} threads")
        if stage == "rank":  # same bytes at every core as at one thread
            runner.stage(stage, args, "nout", threads=str(nproc()), reads="out")

    metrics = layer_metrics(setup, stages, import_s)
    accounting = {st["stage"]: stage_accounting(st) for st in [setup, *stages]}
    metrics["trace.unaccounted_s"] = (sum(a["unaccounted_s"] for a in accounting.values()), "s")
    spans_out = {"stages": [setup, *stages], "accounting": accounting}
    (runner.work / "spans.json").write_text(json.dumps(spans_out) + "\n", encoding="utf-8")
    shutil.rmtree(spans_dir)
    return metrics, {"accounting": accounting, "cli_import_s": [r["wall_s"] for r in imports]}


def _sample(rec: dict) -> dict:
    return {k: rec[k] for k in ("stage", "started", "wall_s", "cpu_s", "rss_mb", "exit_code", "slowdown")}


def environment(seed: int) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "seed": seed,
    }


def input_sizes(fixture_dir: Path) -> dict:
    sizes = {}
    for path in sorted(fixture_dir.iterdir()):
        entry = {"bytes": path.stat().st_size}
        if path.suffix == ".csv":
            with open(path, "rb") as fh:
                entry["rows"] = sum(1 for _ in fh) - 1
        sizes[path.name] = entry
    return sizes


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool, work: Path | None = None) -> dict:
    work = work or ROOT / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work)
    metrics, samples = trace(runner) if traced else measure(runner, seconds)
    attempted, failed = len(runner.runs), runner.failed()
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    wanted = PER_LAYER if traced else tuple(END_TO_END)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": int(traced),
        "seconds": seconds,
        "environment": environment(seed),
        "inputs": input_sizes(work / FIXTURE) if (work / FIXTURE).is_dir() else {},
        "digests": {f"{s}/{n}": d for (s, n), d in sorted(runner.first_digests.items())},
        "problems": [{"stage": r["stage"], "problems": r["problems"]} for r in runner.runs if r["problems"]],
        "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"{workload.name}: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, info in record["inputs"].items():
        print(f"{workload.name}: input {name} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name}: {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True, help="echoed by every stage into its reports")
    ap.add_argument("--seconds", type=float, default=10.0, help="measure at least this long (trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hubmodal" / "__init__.py").is_file():
        print(f"perfbench: no hubmodal sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
