"""Capture the desk workload's rank inputs and golden reports.

The goldens pin the byte-identity contract for the shipped scenarios, so
they are captured once and recaptured only when a change to the report
format is intended. Run from the root of a checkout:

    python3 bench/capture_desk.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
# The goldens are the reports of string-hash seed 0.
ENV = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")


def cli(argv: list[str]) -> bytes:
    return subprocess.run([sys.executable, "-m", "tempdiag.cli", *argv], env=ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          check=True).stdout


def main() -> None:
    (BENCH / "desk").mkdir(exist_ok=True)
    (BENCH / "golden").mkdir(exist_ok=True)
    for s in gen.SCENARIOS:
        trajectories = []
        for seed in range(3):
            report = json.loads(cli(["simulate", f"scenarios/{s}_model.json",
                                     "--horizon", "4", "--seed", str(seed)]))
            modes = report["trajectory"]["modes"]
            trajectories.append([{"t": t, "assignment": {c: seq[t] for c, seq in modes.items()}}
                                 for t in range(0, 5, 2)])
        (BENCH / "desk" / f"{s}_trajectories.json").write_text(json.dumps(trajectories, indent=1))
    for case in gen.desk(random.Random(0), None, 0):
        (BENCH / "golden" / case["golden"]).write_bytes(cli(case["argv"]))


if __name__ == "__main__":
    main()
