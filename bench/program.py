"""Imports emsched from the `src/` tree of the checkout this benchmark sits in.

The benchmark must measure the sources beside it, never an installed copy, so
it refuses to run when they are missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "emsched" / "cli.py").is_file():
    raise SystemExit(f"emsched sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from emsched import cli, controller, oracle, scenario, simulator  # noqa: E402

__all__ = ["ROOT", "SRC", "cli", "controller", "oracle", "scenario", "simulator"]
