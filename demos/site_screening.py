#!/usr/bin/env python3
"""Screen candidate hub sites over a generated region.

Uses the bundled fixture generator for inputs, clusters transit stops
into candidates, flags car share near park-and-ride lots, evaluates
every candidate, and prints the leaders.

Usage: python site_screening.py [OUT_DIR].  The fixture is kept in
OUT_DIR when it is given, else written to a temporary directory that is
removed at exit.
"""

import sys
import tempfile
from pathlib import Path

from hubmodal import (
    HubParams,
    Segment,
    assign_services,
    cluster_stops,
    evaluate_candidates,
    load_fares,
    load_markets,
    load_matrices,
    load_pr_lots,
    load_stops,
    rank_and_summarize,
)
from hubmodal.fixtures import generate_fixture


def screen(out: Path) -> None:
    generate_fixture(out, seed=3, od_pairs=120, stops=24, pr_lots=3)

    markets = load_markets(out / "markets.csv")  # a MarketTable: one column array per field
    stops = load_stops(out / "stops.csv")
    lots = load_pr_lots(out / "pr_lots.csv")
    matrices = load_matrices([out / "matrices.csv"])
    fares = load_fares(out / "fares.json")
    print(f"{len(markets)} markets, {len(stops)} stops, {len(lots)} park-and-ride lots")

    # stops within 200 m merge into one candidate site
    candidates = assign_services(cluster_stops(stops), lots)
    with_cs = sum(c.car_share_available for c in candidates)
    print(f"{len(candidates)} candidate sites ({with_cs} get car share from a lot within 500 m)")

    params = HubParams(beta_hub=0.4, asc_by_segment={s: -3.0 for s in Segment})
    evaluated = evaluate_candidates(candidates, markets, params, 1.6, matrices, fares)
    ranked, summary = rank_and_summarize(evaluated, reference_ids=[])

    print("\ntop candidates by potential demand:")
    print(f"{'site':10s} {'demand':>9s} {'bus delta':>9s} {'vmt cut':>8s} {'cs $/day':>9s} {'pct':>5s}")
    rows = sorted(ranked, key=lambda r: (r.rank["potential_demand"], r.candidate_id))
    for r in rows[:10]:
        print(
            f"{r.candidate_id:10s} {r.metrics.potential_demand:9.1f} "
            f"{r.metrics.transit_delta:9.2f} {r.metrics.vmt_reduced:8.2f} "
            f"{r.metrics.cs_total:9.2f} {100 * r.percentile['potential_demand']:4.0f}%"
        )

    print(f"\nmetric summary over all {summary['n_ranked']} candidates:")
    for metric, stats in summary["metrics"].items():
        print(f"  {metric:18s} min {stats['min']:9.3f}  mean {stats['mean']:9.3f}  max {stats['max']:9.3f}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        screen(Path(sys.argv[1]))
        print(f"\nfixture written to {sys.argv[1]}")
    else:
        with tempfile.TemporaryDirectory(prefix="hubmodal-demo-") as tmp:
            screen(Path(tmp))
