"""Run one hubmodal CLI stage in this process, with a span around every
public function of the traced modules.

    python perfbench/traced_stage.py SPAWNED_AT SPANS_JSON -- <hubmodal args>

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide), so interpreter start-up becomes
the first span.  The spans are rebound in place of the names callers
import (``siting.prepare_hub``, ``cli.load_matrices``...), so nothing in
``src/`` changes.  On ``rank`` the captured ``evaluate_candidates`` inputs
are then run untraced at 1 thread and at every core, for the thread
speed-up and the thread-count contract.  Counts come only from the
arguments and return values at the wrapped boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import resource
import sys
import time

from spans import Recorder

MODULES = ("io", "hubs", "geo", "calibration", "impacts", "siting", "fixtures", "cli")
# Called once per CSV cell or JSON node; a span per call would swamp the stage.
PER_ELEMENT = {"io.fmt", "io.jsonable"}
# Methods traced by rebinding the class attribute: span name -> (class, method).
METHODS = {
    "hubs.MarketTable": ("MarketTable", "__init__"),
    "hubs.hub_nest_share": ("HubChoiceSetup", "hub_nest_share"),
    "hubs.choice_shares": ("HubChoiceSetup", "choice_shares"),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _maxrss_kb(*_):
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _leg_lookups(setup) -> int:
    """Distinct (leg mode, direction) pairs times markets: one matrix
    lookup per market for each pair."""
    pairs = {(c.entry, "to") for c in setup.combos} | {(c.exit, "from") for c in setup.combos}
    return len(pairs) * setup.n_markets


def _params_at_bound(kwargs, result) -> int:
    from hubmodal.config import OptimizerSettings

    x = result.params.as_vector()
    box = kwargs.get("bounds")
    if box is None:
        s = kwargs.get("settings") or OptimizerSettings()
        box = [s.beta_bounds] + [s.asc_bounds] * (len(x) - 1)
    return sum(1 for v, (lo, hi) in zip(x, box) if min(v - lo, hi - v) <= 1e-6 * (hi - lo))


class _Capture:
    """Keeps the first evaluate_candidates call's inputs for the thread probe."""

    def __init__(self):
        self.call = None

    def __call__(self, args, kwargs):
        if self.call is None:
            self.call = (args, kwargs)


def hooks(capture: _Capture) -> dict[str, dict]:
    size = os.path.getsize
    return {
        "io.load_matrices": {
            "before": _maxrss_kb,
            "count": lambda a, k, r, pre: {
                "rows": len(r.entries),
                "rss_growth_kb": _maxrss_kb() - pre,
                "input_bytes": sum(size(p) for p in _arg(a, k, 0, "paths")),
            },
        },
        "io.load_markets": {"count": lambda a, k, r, pre: {"rows": len(r)}},
        "io.sha256_digest": {"count": lambda a, k, r, pre: {"bytes": size(_arg(a, k, 0, "path"))}},
        "io.atomic_write_text": {"count": lambda a, k, r, pre: {"bytes": size(r)}},
        "fixtures.generate_fixture": {"count": lambda a, k, r, pre: {"bytes": sum(size(p) for p in r.values())}},
        "hubs.prepare_hub": {
            "count": lambda a, k, r, pre: {"markets": r.n_markets, "leg_lookups": _leg_lookups(r)},
        },
        "hubs.hub_nest_share": {"count": lambda a, k, r, pre: {"cells": a[0].n_markets * a[0].n_combos}},
        "geo.identify_potential_trips": {
            "count": lambda a, k, r, pre: {"screened": len(_arg(a, k, 0, "markets")), "kept": len(r)},
        },
        "calibration.calibrate": {
            "count": lambda a, k, r, pre: {
                "evaluations": r.n_evaluations,
                "params_at_bound": _params_at_bound(k, r),
            },
        },
        "siting.evaluate_candidates": {
            "adopt": True,
            "before": capture,
            "count": lambda a, k, r, pre: {
                "candidates": len(r),
                "empty": sum(1 for c in r if c.metrics.no_potential_trips),
            },
        },
    }


def install(rec: Recorder, hook_table: dict[str, dict]) -> list[tuple]:
    """Wrap the traced functions and rebind every hubmodal name bound to
    them.  Returns the (owner, attribute, original) list that undoes it."""
    owners = [m for n, m in sorted(sys.modules.items()) if n == "hubmodal" or n.startswith("hubmodal.")]
    undo = []

    def rebind(original, traced):
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    undo.append((owner, key, original))
                    setattr(owner, key, traced)

    for short in MODULES:
        mod = importlib.import_module(f"hubmodal.{short}")
        for attr, fn in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if attr.startswith("_") or name in PER_ELEMENT:
                continue
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                rebind(fn, rec.wrap(name, fn, **hook_table.get(name, {})))
    hubs = importlib.import_module("hubmodal.hubs")
    for name, (cls_name, method) in METHODS.items():
        cls = getattr(hubs, cls_name)
        original = vars(cls)[method]
        undo.append((cls, method, original))
        setattr(cls, method, rec.wrap(name, original, **hook_table.get(name, {})))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def thread_probe(rec: Recorder, capture: _Capture, threads: int) -> dict:
    from hubmodal.siting import evaluate_candidates

    args, kwargs = capture.call
    sid = rec.begin("trace.thread_probe")
    t0 = time.perf_counter()
    one = evaluate_candidates(*args, **{**kwargs, "threads": 1})
    t1 = time.perf_counter()
    many = evaluate_candidates(*args, **{**kwargs, "threads": threads})
    t2 = time.perf_counter()
    rec.end(sid)
    return {"threads": threads, "one_thread_s": t1 - t0, "all_threads_s": t2 - t1, "identical": one == many}


def main(argv: list[str]) -> int:
    spawned_at, spans_path, sep, *stage_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_stage.py SPAWNED_AT SPANS_JSON -- <hubmodal args>")
    rec = Recorder()
    rec.end(rec.begin("python.startup", start=float(spawned_at)))
    sid = rec.begin("python.import")
    cli = importlib.import_module("hubmodal.cli")
    rec.end(sid)

    capture = _Capture()
    undo = install(rec, hooks(capture))
    code = cli.main(stage_args)
    uninstall(undo)

    probe = None
    if code == 0 and capture.call is not None:
        probe = thread_probe(rec, capture, len(os.sched_getaffinity(0)))
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "spans": rec.spans, "thread_probe": probe}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
