"""Prints SHA-256 digests of the files emsched writes for a set of seeds.

For each seed it runs `emsched run` and `emsched sweep` on the day config and
`emsched verify` on the desk config, in-process, and prints one line per
output file (records.csv, summary.txt, sweep.csv, verify_report.txt) plus one
digest over all of them. Run it on two commits: equal lines mean
byte-identical outputs. A command that exits non-zero is printed with its
exit code and writes no file.

Usage:
    python3 bench/digest.py [--seeds 0 1 2 ...]
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys

import workloads

FILES = {
    "run": ("day.yaml", ("records.csv", "summary.txt")),
    "sweep": ("day.yaml", ("sweep.csv",)),
    "verify": ("desk.yaml", ("verify_report.txt",)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    args = parser.parse_args(argv)

    root = workloads.OUT / "digest"
    shutil.rmtree(root, ignore_errors=True)
    combined = hashlib.sha256()
    for seed in args.seeds:
        for verb, (config, files) in FILES.items():
            out = root / f"{verb}-{seed}"
            rc, _, _ = workloads.call_cli([
                verb, "--config", str(workloads.CONFIGS / config),
                "--seed", str(seed), "--out", str(out),
            ])
            line = f"{verb} seed={seed} exit={rc}"
            for name in files:
                path = out / name
                digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "absent"
                line += f" {name}={digest}"
            combined.update(line.encode() + b"\n")
            print(line)
    print(f"all {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
