"""Cost vs. average-delay cap: how much does load deferral actually save?

Runs the joint policy over a grid of d^max values (per-load cap tied to the
average cap unless --max-delay is given), averages a configurable number of
replications, and prints total and monetary cost per point alongside the
never-defer reference (max_delay = 0).

Usage:
    python scripts/delay_sweep.py [--alpha 0.005] [--reps 20] [--max-delay 216]
"""

from __future__ import annotations

import argparse

from emsched.model import (
    BatteryParams, CostModel, GridParams, InfeasibleSlot, ModelBundle, Weights,
)
from emsched.scenario import StageProfile, generate_trace
from emsched.simulator import run_policy

HORIZON = 288


def mean_costs(d_avg_max: int, max_delay: int, alpha: float, seeds: list[int]):
    weights = Weights(alpha=alpha, d_avg_max=d_avg_max)
    bundle = ModelBundle(
        battery=BatteryParams(), grid=GridParams(),
        costs=CostModel.quadratic(0.2, None, d_avg_max=d_avg_max),
        weights=weights, horizon=HORIZON,
    )
    profile = StageProfile(max_delay=max_delay)
    totals, monetary, delays, skipped = [], [], [], 0
    for seed in seeds:
        trace = generate_trace(profile, HORIZON, seed)
        try:
            s = run_policy(trace, bundle, "joint")
        except InfeasibleSlot:
            skipped += 1
            continue
        totals.append(s.total)
        monetary.append(s.monetary_cost)
        delays.append(s.delay_avg)
    n = len(totals)
    if n == 0:
        return None, skipped
    return (sum(totals) / n, sum(monetary) / n, sum(delays) / n), skipped


def format_row(label, max_delay: int, means: tuple[float, float, float] | None, skipped: int) -> str:
    """One table row; a point whose every replication aborted shows no means."""
    if means is None:
        cells = f"{'all skipped':>31s}"
    else:
        total, monetary, delay = means
        cells = f"{total:10.6f} {monetary:10.6f} {delay:9.3f}"
    return f"{label:>9} {max_delay:9d} {cells} {skipped:7d}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.005)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--max-delay", type=int, default=None,
                        help="per-load cap; default ties it to d_avg_max")
    args = parser.parse_args()
    seeds = list(range(args.reps))

    print(f"alpha={args.alpha}  reps={args.reps}  (means over completing seeds)")
    print(f"{'d_avg_max':>9s} {'max_delay':>9s} {'total':>10s} {'monetary':>10s} "
          f"{'avg delay':>9s} {'skipped':>7s}")
    for d_avg_max in (6, 12, 18, 24):
        max_delay = args.max_delay if args.max_delay is not None else d_avg_max
        print(format_row(d_avg_max, max_delay, *mean_costs(d_avg_max, max_delay, args.alpha, seeds)))
    print(format_row("ref", 0, *mean_costs(18, 0, args.alpha, seeds)))


if __name__ == "__main__":
    main()
