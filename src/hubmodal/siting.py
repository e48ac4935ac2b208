"""Candidate hub generation, evaluation, and ranking.

Transit stops within walking range of each other collapse into one
candidate site (single-linkage connected components); park-and-ride lots
nearby unlock a car-share service profile.  Every candidate is scored
with the same impact pipeline implemented hubs use, then ranked per
metric with deterministic tie-breaking, beside the implemented hubs'
own assessed metrics (``CandidateMetrics.from_report``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from . import _warn
from .choice import MAIN_MODES
from .config import PipelineConfig
from .geo import GeoPoint, haversine_km, screen_trips
from .hubs import (
    CAR_SHARE_PROFILE_COMBOS,
    STANDARD_PROFILE_COMBOS,
    Hub,
    HubParams,
    MarketTable,
    _combo_layout,
    prepare_hub,
)
from .legs import FareTable, LegMatrices
from .records import record

METRIC_KEYS = ("potential_demand", "transit_delta", "vmt_reduced", "cs_total")


@record(frozen=True)
class StopRecord:
    """One transit stop location."""

    stop_id: str
    location: GeoPoint


@record(frozen=True)
class CandidateMetrics:
    potential_demand: float
    transit_delta: float
    vmt_reduced: float
    cs_total: float
    no_potential_trips: bool = False

    @classmethod
    def from_report(cls, report) -> CandidateMetrics:
        """The ranked metrics of an ``impacts.ImpactReport``."""
        return cls(report.potential_demand, report.transit_delta, report.vmt.reduced, report.cs_total)

    def get(self, key: str) -> float:
        return getattr(self, key)


@record(frozen=True)
class Candidate:
    """A candidate hub site built from clustered stops."""

    candidate_id: str
    location: GeoPoint
    member_stop_ids: tuple[str, ...]
    car_share_available: bool = False
    bike_share_available: bool = True
    metrics: CandidateMetrics | None = None


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


# Point-to-point distances are computed a block of rows at a time, each
# block at most this many cells (or one row), so that no n x n matrix of
# float temporaries is allocated for a large stop file.
DISTANCE_BLOCK_CELLS = 1 << 16


def _block_rows(n_columns: int) -> int:
    """Rows per block of a distance matrix with ``n_columns`` columns."""
    return max(1, DISTANCE_BLOCK_CELLS // max(1, n_columns))


def cluster_stops(stops: Sequence[StopRecord], *, radius_m: float = 200.0) -> list[Candidate]:
    """Collapse stops within radius_m of each other into candidate sites.

    Single linkage: any chain of pairwise-close stops merges.  The
    candidate location is the member centroid (mean lat/lon) and the id is
    derived from the sorted member ids, so output does not depend on input
    order.
    """
    if radius_m < 0:
        raise ValueError("radius_m must be non-negative")
    ordered = sorted(stops, key=lambda s: s.stop_id)
    ids = [s.stop_id for s in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate stop ids")
    n = len(ordered)
    if n == 0:
        return []
    lat = np.array([s.location.lat for s in ordered])
    lon = np.array([s.location.lon for s in ordered])
    uf = _UnionFind(n)
    radius_km = radius_m / 1000.0
    step = _block_rows(n)
    for a in range(0, n, step):
        # stops a.. against stops a.., and each pair (i, j > i) once
        d = haversine_km(lat[a : a + step, None], lon[a : a + step, None], lat[a:], lon[a:])
        for i, j in zip(*np.nonzero(np.triu(d <= radius_km, k=1))):
            uf.union(a + int(i), a + int(j))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    out = []
    for root in sorted(groups, key=lambda r: ids[r]):
        members = sorted(ids[i] for i in groups[root])
        centroid = GeoPoint(
            lat=float(np.mean([lat[i] for i in groups[root]])),
            lon=float(np.mean([lon[i] for i in groups[root]])),
        )
        out.append(Candidate(candidate_id=f"c-{members[0]}", location=centroid, member_stop_ids=tuple(members)))
    return sorted(out, key=lambda c: c.candidate_id)


def assign_services(
    candidates: Sequence[Candidate],
    pr_lots: Sequence[GeoPoint],
    *,
    radius_m: float = 500.0,
) -> list[Candidate]:
    """Flag car share where a park-and-ride lot is within radius_m.

    Bike share is assumed deployable everywhere.  With no lots, no
    candidate gets car share.
    """
    if radius_m < 0:
        raise ValueError("radius_m must be non-negative")
    lat = np.array([c.location.lat for c in candidates])[:, None]
    lon = np.array([c.location.lon for c in candidates])[:, None]
    lot_lat = np.array([p.lat for p in pr_lots])
    lot_lon = np.array([p.lon for p in pr_lots])
    radius_km = radius_m / 1000.0
    has_lot = []
    step = _block_rows(len(pr_lots))
    for a in range(0, len(candidates), step):
        d = haversine_km(lat[a : a + step], lon[a : a + step], lot_lat, lot_lon)
        has_lot += (d <= radius_km).any(axis=1).tolist()
    return [replace(c, car_share_available=lot, bike_share_available=True) for c, lot in zip(candidates, has_lot)]


def candidate_hub(candidate: Candidate) -> Hub:
    """Hub object for a candidate using its service-profile combo template."""
    combos = CAR_SHARE_PROFILE_COMBOS if candidate.car_share_available else STANDARD_PROFILE_COMBOS
    return Hub(
        id=candidate.candidate_id,
        location=candidate.location,
        car_share_available=candidate.car_share_available,
        bike_share_available=candidate.bike_share_available,
        combos=frozenset(combos),
    )


# Cells one stacked pass holds; a candidate larger than this is scored
# in a pass of its own.  A setup holds (rows, 6) unimodal arrays over
# every kept market and its combo arrays over its live rows alone, so a
# candidate counts six cells a kept market and one a live row's combo:
# dead rows count too, and so bound the pass whatever their share (half
# of rank-1k's rows, and a chunk's dead rows ran to 1.75 times its live
# ones when only combo cells counted).  On the rank-1k fixture (1,000
# markets x 100 candidates, in process, one CPU), evaluate_candidates
# peaks 1.56, 1.88 and 2.12 MB above its start at 12,288, 16,384 and
# 20,480 cells (tracemalloc), against 2.31 MB at 8,192 combo cells
# alone and 2.01 MB before legs were priced for live rows alone, and at
# 16,384 it takes 2% less CPU than at 8,192 combo cells (median of 40
# alternating calls).
CHUNK_CELLS = 16_384

_NO_TRIPS = CandidateMetrics(
    potential_demand=0.0, transit_delta=0.0, vmt_reduced=0.0, cs_total=0.0, no_potential_trips=True
)


def _chunks(members: list[int], cells: np.ndarray):
    """Runs of ``members`` of at most CHUNK_CELLS cells (or one member)."""
    chunk, total = [], 0
    for i, n in zip(members, cells.tolist()):
        if chunk and total + n > CHUNK_CELLS:
            yield chunk
            chunk, total = [], 0
        chunk.append(i)
        total += n
    if chunk:
        yield chunk


def evaluate_candidates(
    candidates: Sequence[Candidate],
    table: MarketTable,
    params: HubParams,
    threshold: float,
    matrices: LegMatrices,
    fares: FareTable,
    *,
    config: PipelineConfig | None = None,
    threads: int = 1,
) -> list[Candidate]:
    """Score every candidate with the implemented-hub impact pipeline.

    One detour screen covers every market of ``table`` for every
    candidate, and its distances price every setup's legs.  Candidates
    that share a service profile are stacked, in candidate-id order, into
    setups of at most CHUNK_CELLS cells, and each stack gets one share
    pass; each candidate's metrics are sums over its own rows, so they
    equal ``prepare_hub`` + ``assess_hubs`` on a setup of that candidate
    alone, bit for bit.  A candidate's cells are those its rows hold: six
    unimodal cells a kept market and one a combo of each live row, a kept
    market that can reach one of its combos in the matrices.  Candidates
    with no potential trips get zero metrics and a flag.
    ``threads`` is accepted for compatibility; the passes run in the
    calling thread whatever its value, and no result depends on it.
    """
    from .impacts import assess_hubs  # loaded by scoring alone: gen-fixture only clusters stops

    config = config or PipelineConfig()
    setup_options, impact_options = config.setup_options(), config.impact_options()
    ordered = sorted(candidates, key=lambda c: c.candidate_id)
    screen = screen_trips(
        table,
        [c.location.lat for c in ordered],
        [c.location.lon for c in ordered],
        threshold,
        **config.screen_options(),
    )
    n_kept = screen.keep.sum(axis=1)
    zone_map = matrices.zone_codes(table.zone_ids)
    # each market's origin and destination zone in the matrices (-1: none)
    o_zones, d_zones = zone_map[table.o_zone_codes], zone_map[table.d_zone_codes]
    hubs = [candidate_hub(c) for c in ordered]
    hub_codes = matrices.hub_codes([h.id for h in hubs])
    profiles: dict[frozenset, list[int]] = {}
    for i, hub in enumerate(hubs):
        if n_kept[i]:
            profiles.setdefault(hub.combos, []).append(i)

    metrics = [_NO_TRIPS] * len(ordered)
    for combos, members in profiles.items():
        # each member's live rows: kept markets that can reach one of its combos
        to_hub = matrices.timed_zones(0, hub_codes[members])[:, o_zones]
        from_hub = matrices.timed_zones(1, hub_codes[members])[:, d_zones]
        live = screen.keep[members] & _combo_layout(combos).reaches[to_hub, from_hub]
        cells = n_kept[members] * len(MAIN_MODES) + np.count_nonzero(live, axis=1) * len(combos)
        del to_hub, from_hub, live
        for chunk in _chunks(members, cells):
            setup = prepare_hub(
                table, [hubs[i] for i in chunk], screen[chunk], matrices, fares, zone_map=zone_map, **setup_options
            )
            reports = assess_hubs(setup, params, **impact_options)
            del setup  # freed, with its shares, before the next chunk's is built
            for i, report in zip(chunk, reports):
                metrics[i] = CandidateMetrics.from_report(report)
    return [replace(c, metrics=m) for c, m in zip(ordered, metrics)]


@record(frozen=True)
class RankingRow:
    candidate_id: str
    metrics: CandidateMetrics
    rank: dict[str, int]
    percentile: dict[str, float]


def rank_and_summarize(
    evaluated: Sequence[Candidate],
    reference_ids: Sequence[str] = (),
    *,
    bins: int = 30,
) -> tuple[tuple[RankingRow, ...], dict]:
    """Per-metric descending ranks, percentiles, and distribution summary:
    one row per candidate, in candidate-id order, and the summary.

    Rank 1 is the best value; ties break by candidate_id.  A row's
    percentile is the fraction of all rows it strictly outperforms.  The
    summary carries mean, sd, min, max, and an equal-width histogram per
    metric, plus the percentile placement of each reference id (unknown
    reference ids are skipped with a warning).
    """
    if not evaluated:
        raise ValueError("no evaluated candidates to rank")
    missing = [c.candidate_id for c in evaluated if c.metrics is None]
    if missing:
        raise ValueError(f"candidates not evaluated: {missing[:5]}")
    ordered = sorted(evaluated, key=lambda c: c.candidate_id)
    ids = [c.candidate_id for c in ordered]
    n = len(ordered)

    ranks: dict[str, dict[str, int]] = {i: {} for i in ids}
    pcts: dict[str, dict[str, float]] = {i: {} for i in ids}
    summary_metrics: dict[str, dict] = {}
    for key in METRIC_KEYS:
        values = {c.candidate_id: c.metrics.get(key) for c in ordered}
        by_rank = sorted(ids, key=lambda i: (-values[i], i))
        for pos, cid in enumerate(by_rank, start=1):
            ranks[cid][key] = pos
        vals = np.array([values[i] for i in ids])
        below = np.searchsorted(np.sort(vals), vals, side="left")
        for cid, k in zip(ids, below.tolist()):
            pcts[cid][key] = float(k) / n
        counts, edges = np.histogram(vals, bins=bins)
        summary_metrics[key] = {
            "mean": float(vals.mean()),
            "sd": float(vals.std()),
            "min": float(vals.min()),
            "max": float(vals.max()),
            "histogram": {"counts": counts.tolist(), "bin_edges": edges.tolist()},
        }

    rows = tuple(
        RankingRow(candidate_id=c.candidate_id, metrics=c.metrics, rank=ranks[c.candidate_id], percentile=pcts[c.candidate_id])
        for c in ordered
    )
    references = {}
    for ref in reference_ids:
        if ref not in ranks:
            _warn(__name__, "unknown reference id skipped: %s", ref)
            continue
        references[ref] = {key: pcts[ref][key] for key in METRIC_KEYS}
    summary = {"n_ranked": n, "metrics": summary_metrics, "references": references}
    return rows, summary


def candidates_geojson(candidates: Sequence[Candidate], reference_ids: Sequence[str] = ()) -> dict:
    """FeatureCollection of candidate points with their metrics."""
    refs = set(reference_ids)
    features = []
    for c in sorted(candidates, key=lambda c: c.candidate_id):
        props = {
            "candidate_id": c.candidate_id,
            "member_stop_ids": list(c.member_stop_ids),
            "car_share_available": c.car_share_available,
            "bike_share_available": c.bike_share_available,
            "reference": c.candidate_id in refs,
        }
        if c.metrics is not None:
            props.update({key: c.metrics.get(key) for key in METRIC_KEYS})
            props["no_potential_trips"] = c.metrics.no_potential_trips
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [c.location.lon, c.location.lat]},
                "properties": props,
            }
        )
    return {"type": "FeatureCollection", "features": features}
