"""tempdiag benchmark: timed CLI runs, or a traced run per module.

Run from the root of a checkout:

    python3 bench/run.py --workload dense --seed 1 --seconds 15 --trace 0

``--trace 0`` runs ``python -m tempdiag.cli`` (with ``src`` on the module
path) in fresh processes, one at a time from this process: a closed loop
with one client. It repeats the workload's whole case list until
``--seconds`` have passed (at least once), then checks every
report and prints the end-to-end metrics. ``--trace 1`` makes the separate
traced run, in one process, that reports per-module metrics (see
``tracing.py``).
Inputs are generated from ``--seed`` by ``gen.py``; the program only ever
sees the JSON files. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings are scaled to a fixed host speed. On a shared virtual machine the
host's speed drifts by 10-30% in phases of ten seconds or more, which slow
the CLI and a fixed reference program (``reference.py``) together: it
runs as a child about every ``CALIBRATE_EVERY_S`` seconds, each time
followed by a fresh ``--version``, and each invocation time (``--version``
included) is multiplied by ``REFERENCE_S`` over the mean time of the
reference runs just before and just after it.
The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import describe

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("desk", "wide", "dense", "long")
#: How often the reference program and a fresh ``--version`` (whose scaled
#: median is ``setup_s``) run between the cases.
CALIBRATE_EVERY_S = 1.0
#: Calibrations a run makes at least: after the last case, more run until
#: there are this many.
MIN_CALIBRATIONS = 16
#: Nominal time of ``reference.py``: the host speed timings are scaled to.
REFERENCE_S = 0.25
#: An invocation still running after this many seconds is killed and failed.
TIMEOUT_S = 60
#: Candidate tail percentiles; the highest with >= 10 samples beyond it wins.
PERCENTILES = (50, 75, 90, 95, 99)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, ["src", os.environ.get("PYTHONPATH")])))


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "tempdiag.cli", *argv]


def spawn(argv: list[str], stdout, stderr, env=ENV) -> tuple[float, int, int]:
    """Run one child process to completion.

    Returns its wall time in seconds, its exit code and its own peak RSS in
    KiB (from ``wait4``, so only that child is counted).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], TIMEOUT_S)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def hash_seed(seed: int, index: int) -> int:
    """The string-hash seed of one invocation, drawn from the run's seed.

    Users run with randomised string hashing, and a report that depends on
    set iteration order must show here as it would for them, yet the same
    seed must replay the same inputs.
    """
    return (seed * 100_003 + index) % 2 ** 32


def measure(cases: list[dict], seed: int, seconds: float, work: Path) -> dict:
    out_dir = work / "out"
    out_dir.mkdir()
    setup, reference, runs = [], [], []

    def calibrate():
        for sample, argv in ((reference, [sys.executable, str(BENCH / "reference.py")]),
                             (setup, cli(["--version"]))):
            at = time.perf_counter()
            wall, code, _ = spawn(argv, subprocess.DEVNULL, subprocess.DEVNULL)
            if code != 0:
                sys.exit(f"bench: {' '.join(argv[1:])} exited {code}")
            sample.append((at, wall))

    start = last = time.perf_counter()
    calibrate()
    while not runs or time.perf_counter() - start < seconds:
        for index, case in enumerate(cases):
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                calibrate()
                last = time.perf_counter()
            out, err = out_dir / f"{len(runs)}.out", out_dir / f"{len(runs)}.err"
            env = dict(ENV, PYTHONHASHSEED=str(hash_seed(seed, len(runs))))
            at = time.perf_counter()
            with open(out, "wb") as fo, open(err, "wb") as fe:
                wall, code, rss = spawn(cli(case["argv"]), fo, fe, env)
            runs.append({"case": index, "at": at, "wall": wall, "code": code, "rss": rss,
                         "out": out, "err": err})
    calibrate()
    while len(reference) < MIN_CALIBRATIONS:
        calibrate()

    # Imported only now: a child inherits this process's RSS high-water mark
    # through exec, so the checks' memory must not precede any child.
    import check

    seen: dict[tuple[int, str], str | None] = {}
    for run in runs:
        run["verdict"] = verdict(check, cases[run["case"]], run, seen)
    return end_to_end(cases, setup, reference, runs)


def verdict(check, case: dict, run: dict, seen: dict) -> str | None:
    """Why an invocation failed, or None when it succeeded correctly.

    The checks are a function of the case and the report bytes, so a report
    identical to one already checked for the same case gets its verdict.
    """
    if run["code"] != 0:
        return f"exit {run['code']}"
    if b"Traceback (most recent call last)" in run["err"].read_bytes():
        return "traceback"
    stdout = run["out"].read_bytes()
    key = (run["case"], hashlib.sha256(stdout).hexdigest())
    if key not in seen:
        found = check.problems(case, stdout)
        seen[key] = f"wrong output: {found[0]}" if found else check.drift(case, stdout)
    return seen[key]


def nearest_rank(ordered: list, p: float) -> int:
    return max(0, math.ceil(p / 100 * len(ordered)) - 1)


def local_speed(at: float, reference: list[tuple[float, float]]) -> float:
    """The host speed at time ``at``, from the reference runs around it."""
    before = [wall for start, wall in reference if start < at][-1:]
    after = [wall for start, wall in reference if start > at][:1]
    return REFERENCE_S / statistics.mean(before + after)


def end_to_end(cases: list[dict], setup: list, reference: list, runs: list[dict]) -> dict:
    n = len(runs)
    ok = [r for r in runs if r["verdict"] is None]
    for r in runs:
        r["scaled"] = r["wall"] * local_speed(r["at"], reference)
    # Failed invocations sort above every successful one.
    ordered = sorted(runs, key=lambda r: (r["verdict"] is not None, r["scaled"]))
    tail = max(p for p in PERCENTILES if n - nearest_rank(ordered, p) - 1 >= 10 or p == 50)

    scaled = [r["scaled"] for r in runs]
    versions = [wall * local_speed(at, reference) for at, wall in setup]
    rows = {
        "setup_s": (statistics.median(versions), "s", versions),
        "wall_s_p50": (ordered[nearest_rank(ordered, 50)]["scaled"], "s", scaled),
        "wall_s_tail": (ordered[nearest_rank(ordered, tail)]["scaled"], "s", scaled),
        "ok_per_s": (len(ok) / sum(scaled), "1/s", scaled),
        "peak_rss_mb": (max(r["rss"] for r in runs) / 1024, "MB",
                        [r["rss"] / 1024 for r in runs]),
        "ok_ratio": (len(ok) / n, "ratio", [r["verdict"] is None for r in runs]),
    }
    for name, (value, unit, sample) in rows.items():
        note = f" (p{tail} of {n} invocations)" if name == "wall_s_tail" else ""
        print(f"{name:12s} {value:12.6g} {unit:5s}{note}  sample: {describe(sample)}")
    print(f"reference runs: {describe([w for _, w in reference])}; "
          f"unscaled invocations: {describe([r['wall'] for r in runs])}; "
          f"unscaled --version: {describe([w for _, w in setup])}")
    failures = {}
    for r in runs:
        if r["verdict"] is not None:
            key = f"{r['verdict']} ({' '.join(cases[r['case']]['argv'][:2])})"
            failures[key] = failures.get(key, 0) + 1
    print(f"failed_ratio {(n - len(ok)) / n:.6g} ({n - len(ok)} of {n} invocations)")
    for key, count in sorted(failures.items()):
        print(f"  {count} x {key}")
    return {
        "correct": not any(r["verdict"].startswith("wrong") for r in runs
                           if r["verdict"] is not None),
        "attempted": n,
        "failed": n - len(ok),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in rows.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/tempdiag/cli.py").is_file():
        print("bench: run from the root of a tempdiag checkout "
              "(src/tempdiag/cli.py not found)", file=sys.stderr)
        return 2

    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out", str(work)], check=True)
    cases = json.loads((work / "cases.json").read_text())
    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} cases per cycle",
          flush=True)
    if args.trace:
        # In a child, so that its string-hash seed too is drawn from --seed.
        env = dict(ENV, PYTHONHASHSEED=str(hash_seed(args.seed, 0)))
        return subprocess.run([sys.executable, str(BENCH / "tracing.py"), str(work),
                               str(args.seconds)], env=env).returncode
    print(json.dumps(measure(cases, args.seed, args.seconds, work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
