"""emsched benchmark: one workload, measured for a fixed time, outputs checked.

Usage:
    python3 bench/run.py --workload day-sweep --seed 0 --seconds 30 --trace 0

The run is closed-loop and single-process: each call is one `emsched` command
run in-process, the next starting when the previous one ends. The seed picks
the workload's inputs: the first `pool_size` candidates drawn from it that do
not hit the known `energy_control` fault (those are left out and counted, so
the share of failed operations is the same in every run). A round calls every
input once, then one fixed input that hits the fault on every run. Rounds
repeat until the measured calls add up to `--seconds`. The first call on each
input is checked against independent recomputations; every later call on it
must write byte-identical output. A failed check exits with code 1.

With `--trace 0` the last line reports the end-to-end metrics. Call and
set-up times are scaled to one host speed by a reference loop timed next to
them (`reference.py`); the unscaled figures are printed on the lines before.
With `--trace 1` every call is made twice, untraced and then with spans
around every layer, and the last line reports the per-layer metrics per round
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_slots_per_s": "slots/s",
    "run_ms_p50": "ms",
    "verify_s_p50": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time in a fresh interpreter (import, config load, one warm-up
    call), and the median reference-loop time of three loops before it and
    three after it."""
    loops = [reference.loop_seconds() for _ in range(3)]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    loops += [reference.loop_seconds() for _ in range(3)]
    return float(proc.stdout.split()[-1]), statistics.median(loops)


def host_scale(loops: list[float], i: int, window: int = 2) -> float:
    """Factor that brings call i to the reference host speed: the reference
    time over the median reference-loop time of calls i - window .. i + window."""
    return reference.REFERENCE_S / statistics.median(loops[max(0, i - window): i + window + 1])


def tail(times_ms: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it; None with fewer than forty samples, where it would be no tail."""
    n = len(times_ms)
    if n < 40:
        return None
    ordered = sorted(times_ms)
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads  # imports emsched from this checkout; exits if it is missing
    from workloads import CheckError

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    try:
        fixed = wl.prepare(wl.fixed_seed, fixed=True)
        pool, left_out = wl.pool(args.seed)
        batch = pool + [fixed]
        checked: dict[int, str] = {}
        warm = next(prep for prep in pool if prep.rc == 0)
        wl.call(warm, checked)
        ops = []  # (prepared inputs, wall seconds) of every measured call
        rounds = 0
        if not args.trace:
            # Set-up probes are spread over the run (before it, then after the
            # rounds that pass each quarter of it), so their median does not
            # hang on one moment of the host.
            setup = [setup_seconds(wl.name, warm.seed)]
            loops = []  # reference loop time just before each measured call
            measured = 0.0
            while measured < args.seconds:
                for prep in batch:
                    loops.append(reference.loop_seconds())
                    elapsed = wl.call(prep, checked)
                    ops.append((prep, elapsed))
                    measured += elapsed
                rounds += 1
                while (len(setup) < SETUP_REPEATS
                       and measured >= args.seconds * len(setup) / (SETUP_REPEATS - 1)):
                    setup.append(setup_seconds(wl.name, warm.seed))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            (wl.out / "calls.json").write_text(json.dumps(
                [[p.seed, e, loop] for (p, e), loop in zip(ops, loops)]
            ))
        else:
            from tracing import Tracer, metric_units

            # Each call runs twice in a row, untraced then traced, so the
            # overhead compares calls made under the same conditions.
            tracer = Tracer()
            untraced = traced = 0.0
            while untraced + traced < args.seconds:
                for prep in batch:
                    elapsed = wl.call(prep, checked)
                    ops.append((prep, elapsed))
                    untraced += elapsed
                    tracer.op_id += 1
                    with tracer.installed():
                        traced += wl.call(prep, checked)
                rounds += 1
            tracer.write(wl.out / f"spans-{wl.name}.npz")
    except CheckError as exc:
        print(f"CHECK FAILED on {wl.name}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(prep.attempted for prep, _ in ops)
    kinds = [kind for prep, _ in ops for kind in prep.failures]
    slots = sum(prep.slots for prep, _ in ops)

    print(f"workload {wl.name} seed {args.seed}: {len(pool)} inputs (first {pool[0].seed}) "
          f"plus seed {fixed.seed}, {rounds} rounds, {len(ops)} calls")
    print(f"attempted {attempted} {wl.unit}, failed {len(kinds)}"
          + "".join(f", {kinds.count(k)} {k}" for k in sorted(set(kinds))))
    print(f"left out {left_out} inputs drawn from the seed that hit the known fault")

    if args.trace:
        overhead_pct = 100.0 * (traced / untraced - 1.0)
        units = metric_units()
        values = tracer.metrics(overhead_pct, rounds)
        print(f"per round of {len(batch)} calls; traced {traced:.3f} s, untraced {untraced:.3f} s, "
              f"overhead {overhead_pct:.1f} %")
    else:
        scaled = [elapsed * host_scale(loops, i) for i, (_, elapsed) in enumerate(ops)]
        ok_raw = [elapsed for prep, elapsed in ops if not prep.failures]
        ok_scaled = [t for (prep, _), t in zip(ops, scaled) if not prep.failures]
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(t * reference.REFERENCE_S / loop for t, loop in setup),
            "sweep_slots_per_s": slots / sum(scaled),
            "run_ms_p50": 1000.0 * statistics.median(ok_scaled),
            "verify_s_p50": statistics.median(ok_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"{measured:.3f} s measured; {slots} slot decisions; {len(ok_raw)} calls without a failure")
        print(f"reference loop median {1000.0 * statistics.median(loops):.4f} ms "
              f"(reference {1000.0 * reference.REFERENCE_S:g} ms)")
        print(f"unscaled: {slots / measured:.1f} slots/s, call median {1000.0 * statistics.median(ok_raw):.4f} ms, "
              f"set-up median {statistics.median(t for t, _ in setup):.4f} s")
        print(f"set-up samples (s, unscaled): {', '.join(f'{t:.4f}' for t, _ in setup)}")
        pct = tail([1000.0 * t for t in ok_raw])
        if pct is not None:
            print(f"unscaled call time p{pct[0]:g} = {pct[1]:.4f} ms over {len(ok_raw)} samples")
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": len(kinds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
