"""Steadiness self-check: run the benchmark over several seeds.

For every end-to-end metric it prints the median, the quartiles, the count
and the quartile spread as a share of the median, next to a third of the
metric's bound in BENCHMARK.json. With ``--trace`` it makes two traced runs
of one seed instead and checks that every count repeats exactly. Run from
the root of a checkout:

    python3 bench/steady.py --workload long --seeds 1-10
    python3 bench/steady.py --workload dense --trace
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["duration_s"] = time.perf_counter() - start
    return result


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))

    if args.trace:
        a, b = (run(args.workload, first, args.seconds, 1)["metrics"] for _ in range(2))
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
        differ = [name for name in counts if a[name]["value"] != b[name]["value"]]
        print(f"counts differing between two traced runs: {differ or 'none'}")
        return 1 if differ else 0

    results = [run(args.workload, seed, args.seconds, 0) for seed in range(first, last + 1)]
    print(f"{args.workload}: seeds {args.seeds}, correct {[r['correct'] for r in results]}, "
          f"failed {[r['failed'] for r in results]} of {[r['attempted'] for r in results]}, "
          f"run durations {[round(r['duration_s'], 1) for r in results]} s")
    steady = True
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        ok = spread < metric["bound"] / 3
        steady &= ok
        print(f"  {metric['name']:12s} median {q2:.6g} {metric['unit']}, quartiles "
              f"{q1:.6g}..{q3:.6g}, n={len(values)}, spread {spread:.4f} "
              f"(bound/3 {metric['bound'] / 3:.4f}){'' if ok else '  TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
