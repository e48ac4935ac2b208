"""Candidate hub generation, evaluation, and ranking.

Transit stops within walking range of each other collapse into one
candidate site (single-linkage connected components); park-and-ride lots
nearby unlock a car-share service profile.  Every candidate is scored
with the same impact pipeline implemented hubs use, then ranked per
metric with deterministic tie-breaking.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .config import PipelineConfig
from .geo import GeoPoint, haversine_km, potential_trip_mask
from .hubs import (
    CAR_SHARE_PROFILE_COMBOS,
    STANDARD_PROFILE_COMBOS,
    FareTable,
    Hub,
    LegMatrices,
    MarketTable,
    prepare_hub,
)

# Scoring imports impacts (and calibration with it) when it runs, so
# gen-fixture, which only clusters stops, loads neither.
if TYPE_CHECKING:
    from .calibration import HubParams

logger = logging.getLogger(__name__)

METRIC_KEYS = ("potential_demand", "transit_delta", "vmt_reduced", "cs_total")


@dataclass(frozen=True)
class StopRecord:
    """One transit stop location."""

    stop_id: str
    location: GeoPoint


@dataclass(frozen=True)
class CandidateMetrics:
    potential_demand: float
    transit_delta: float
    vmt_reduced: float
    cs_total: float
    no_potential_trips: bool = False

    def get(self, key: str) -> float:
        return getattr(self, key)


@dataclass(frozen=True)
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
    for i in range(n - 1):
        d = haversine_km(lat[i], lon[i], lat[i + 1 :], lon[i + 1 :])
        for off in np.nonzero(d <= radius_km)[0]:
            uf.union(i, i + 1 + int(off))
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
    out = []
    lot_lat = np.array([p.lat for p in pr_lots])
    lot_lon = np.array([p.lon for p in pr_lots])
    radius_km = radius_m / 1000.0
    for cand in candidates:
        has_lot = False
        if len(pr_lots):
            d = haversine_km(cand.location.lat, cand.location.lon, lot_lat, lot_lon)
            has_lot = bool((d <= radius_km).any())
        out.append(replace(cand, car_share_available=has_lot, bike_share_available=True))
    return out


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


# Market x combo cells scored in one stacked pass.  It bounds the working
# set of a pass (a few dozen (rows, combos) float arrays, under 6 MB)
# whatever the number of candidates; a candidate larger than this is
# scored in a pass of its own.
CHUNK_CELLS = 1 << 15

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
    candidate.  Candidates that share a service profile are stacked, in
    candidate-id order, into setups of at most CHUNK_CELLS market x combo
    cells, and each stack gets one share pass; each candidate's metrics
    are sums over its own rows, so they equal ``prepare_hub`` +
    ``assess_hubs`` on a setup of that candidate alone, bit for bit.
    Candidates with no potential trips get zero metrics and a flag.
    ``threads`` is accepted for compatibility; the passes run in the
    calling thread whatever its value, and no result depends on it.
    """
    from .impacts import EmissionFactor, assess_hubs

    cfg = config or PipelineConfig()
    ordered = sorted(candidates, key=lambda c: c.candidate_id)
    emissions = EmissionFactor(grams_co2_per_mile=cfg.grams_co2_per_mile, days_per_year=cfg.days_per_year)
    keep = potential_trip_mask(
        table,
        [c.location.lat for c in ordered],
        [c.location.lon for c in ordered],
        threshold,
        condition2_mode=cfg.condition2_mode,
        condition2_km=cfg.condition2_km,
    )
    n_kept = keep.sum(axis=1)
    zone_map = matrices.zone_codes(table.zone_ids)
    hubs = [candidate_hub(c) for c in ordered]
    profiles: dict[frozenset, list[int]] = {}
    for i, hub in enumerate(hubs):
        if n_kept[i]:
            profiles.setdefault(hub.combos, []).append(i)

    metrics = [_NO_TRIPS] * len(ordered)
    for combos, members in profiles.items():
        for chunk in _chunks(members, n_kept[members] * len(combos)):
            setup = prepare_hub(
                table,
                [hubs[i] for i in chunk],
                keep[chunk],
                matrices,
                fares,
                zone_map=zone_map,
                car_cost_per_mile=cfg.car_cost_per_mile,
                circuity_factor=cfg.circuity_factor,
            )
            reports = assess_hubs(
                setup,
                params,
                emissions=emissions,
                include_on_demand_auto=cfg.include_on_demand_auto_vmt,
            )
            for i, report in zip(chunk, reports):
                metrics[i] = CandidateMetrics(
                    potential_demand=report.potential_demand,
                    transit_delta=report.transit_delta,
                    vmt_reduced=report.vmt.reduced,
                    cs_total=report.cs_total,
                )
    return [replace(c, metrics=m) for c, m in zip(ordered, metrics)]


@dataclass(frozen=True)
class RankingRow:
    candidate_id: str
    metrics: CandidateMetrics
    rank: dict[str, int]
    percentile: dict[str, float]


@dataclass(frozen=True)
class RankingTable:
    rows: tuple[RankingRow, ...]

    def row(self, candidate_id: str) -> RankingRow:
        for r in self.rows:
            if r.candidate_id == candidate_id:
                return r
        raise KeyError(candidate_id)


def rank_and_summarize(
    evaluated: Sequence[Candidate],
    reference_ids: Sequence[str] = (),
    *,
    bins: int = 30,
) -> tuple[RankingTable, dict]:
    """Per-metric descending ranks, percentiles, and distribution summary.

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
            logger.warning("unknown reference id skipped: %s", ref)
            continue
        references[ref] = {key: pcts[ref][key] for key in METRIC_KEYS}
    summary = {"n_ranked": n, "metrics": summary_metrics, "references": references}
    return RankingTable(rows=rows), summary
