"""Record benchmark runs, with the commit and the machine, as BENCH_<label>.json.

Runs `bench/run.py` of this checkout for every (seed, workload) given and
keeps the JSON line each run prints. One `--seeds` list serves every
workload; or give `--seeds` once per workload, in `--workloads` order, for a
different list each. With `--baseline <dir>`, a checkout of another commit
(say the parent, made with `git clone` or `git archive`) is run too, in pairs
that alternate which side goes first, and the file gets a summary per
workload and end-to-end metric: each side's median and quartiles, the
change's median over the baseline's, and how many of its own pairs the change
won. Both checkouts' git state is read once, before the first run. After
writing the file it prints that summary, one line per workload and metric.

Usage:
    python3 scripts/bench_record.py --label 8 --workloads day-sweep day-run \\
        --seeds 0 1 2 --seconds 30 [--baseline ../parent] [--out BENCH_8.json]
    python3 scripts/bench_record.py --label 26 --workloads desk-verify day-run \\
        --seeds 0 1 2 3 4 5 6 7 8 9 --seeds 0 1 2 --seconds 30 --baseline ../parent
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, action="append", required=True,
                        help="once for every workload, or once per workload in --workloads order")
    parser.add_argument("--seconds", type=float, required=True, help="passed on to bench/run.py")
    parser.add_argument("--baseline", type=Path, default=None, help="checkout to compare against")
    parser.add_argument("--out", type=Path, default=None, help="default: BENCH_<label>.json in this checkout")
    args = parser.parse_args(argv)
    if len(args.seeds) == 1:
        args.seeds *= len(args.workloads)
    elif len(args.seeds) != len(args.workloads):
        parser.error(f"{len(args.seeds)} --seeds lists for {len(args.workloads)} workloads: "
                     "give one, or one per workload")
    return args


def git_state(checkout: Path) -> dict:
    """The commit checked out in `checkout`, and whether its tracked files
    differ from it; None for both, with a warning, outside a git checkout."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, check=False)
    if head.returncode != 0:
        print(f"warning: no commit recorded for {checkout}: {head.stderr.strip()}", file=sys.stderr)
        return {"commit": None, "dirty": None}
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            cwd=checkout, capture_output=True, text=True, check=True)
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `checkout`: its JSON line, or exit with its error."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def schedule(seeds: list[list[int]], workloads: list[str], sides: list[str]) -> list[tuple[str, str, int]]:
    """The (side, workload, seed) runs in order, where seeds[j] lists workload
    j's seeds: round i runs the i-th seed of every workload that has one, each
    workload's sides in turn, with the side that goes first alternating from
    round to round."""
    return [
        (side, workload, own[i])
        for i in range(max(map(len, seeds)))
        for workload, own in zip(workloads, seeds)
        if i < len(own)
        for side in (sides if i % 2 else sides[::-1])
    ]


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's quartiles, the median ratio and the pairs won."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [sides for sides in by_seed.values() if len(sides) == 2]
        rows = {}
        for metric, direction in better.items():
            base = [p["baseline"]["metrics"][metric]["value"] for p in pairs]
            change = [p["change"]["metrics"][metric]["value"] for p in pairs]
            sign = 1.0 if direction == "higher" else -1.0
            rows[metric] = {
                "baseline": quartiles(base),
                "change": quartiles(change),
                "change_over_baseline": statistics.median(change) / statistics.median(base),
                "better": direction,
                "change_wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
                "pairs": len(pairs),
            }
        summary[workload] = rows
    return summary


def summary_lines(summary: dict) -> list[str]:
    """One line per workload and metric: the baseline's median [q1, q3] -> the
    change's median, their ratio and the pairs the change won."""
    lines = []
    for workload, rows in summary.items():
        for metric, row in rows.items():
            base, change = row["baseline"], row["change"]
            lines.append(
                f"{workload} {metric}: {base['median']:.6g} [{base['q1']:.6g}, {base['q3']:.6g}]"
                f" -> {change['median']:.6g} ({row['change_over_baseline']:.3f}x,"
                f" {row['change_wins']} of {row['pairs']} pairs won, {row['better']} is better)"
            )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"change": REPO}
    if args.baseline is not None:
        sides["baseline"] = args.baseline.resolve()
    # Read before the first run: a tracked file edited while the runs go on
    # must not mark the measured commit dirty.
    checkouts = {side: git_state(path) for side, path in sides.items()}
    runs = []
    for side, workload, seed in schedule(args.seeds, args.workloads, list(sides)):
        result = bench_run(sides[side], workload, seed, args.seconds)
        runs.append({"side": side, "workload": workload, "seed": seed, "result": result})
        print(f"{side} {workload} seed {seed}: {json.dumps(result['metrics'])}", flush=True)
    record = {
        "label": args.label,
        "command": f"bench/run.py --seconds {args.seconds:g}",
        "checkouts": checkouts,
        "machine": {
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
        },
        "runs": runs,
    }
    if args.baseline is not None:
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        record["summary"] = summarize(runs, {m["name"]: m["better"] for m in spec["end_to_end"]})
    out = args.out or REPO / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(runs)} runs -> {out}")
    for line in summary_lines(record.get("summary", {})):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
