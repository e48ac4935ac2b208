"""In-memory span recorder and the self-time arithmetic over its spans.

A span is ``(name, start, end, parent, thread id)`` on the
``time.perf_counter`` clock, plus a dict of counts taken from the wrapped
call's arguments and return value.  Spans stay in memory; the owner writes
them out when it is done.

A thread that opens a span with nothing open on its own stack parents it
to the current *adopting* span (``evaluate_candidates``), so work done by a
worker pool nests under the call that started the pool.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks = threading.local()
        self._adopting: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._stacks, "ids", None)
        if stack is None:
            stack = self._stacks.ids = []
        return stack

    def begin(self, name: str, *, start: float | None = None, adopt: bool = False) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._adopting
        span = {
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            "parent": parent,
            "thread": threading.get_ident(),
            "counts": {},
        }
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        if adopt:
            span["restore_adopting"] = self._adopting
            self._adopting = sid
        return sid

    def end(self, sid: int) -> None:
        span = self.spans[sid]
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        if "restore_adopting" in span:
            self._adopting = span.pop("restore_adopting")

    def wrap(self, name: str, fn: Callable, *, count=None, before=None, adopt: bool = False) -> Callable:
        """``fn`` inside a span.  ``before(args, kwargs)`` runs inside the
        span before the call; ``count(args, kwargs, result, pre)`` runs
        after the span has ended and returns the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name, adopt=adopt)
            try:
                pre = before(args, kwargs) if before is not None else None
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if count is not None:
                self.spans[sid]["counts"] = count(args, kwargs, result, pre)
            return result

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children that overlap (worker threads) are merged first, so a span's
    self time never goes below zero."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        p = s["parent"]
        if p is not None:
            lo = max(s["start"], spans[p]["start"])
            hi = min(s["end"], spans[p]["end"])
            if hi > lo:
                children.setdefault(p, []).append((lo, hi))
    return [s["end"] - s["start"] - _covered(children.get(i, [])) for i, s in enumerate(spans)]
