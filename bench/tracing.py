"""Traced in-process run: self time and work counts per tempdiag module.

Run by ``run.py --trace 1`` as ``tracing.py WORKDIR SECONDS``. The
workload's cases are run through ``tempdiag.cli.main`` inside this
process, alternating an untraced pass with a traced one until the time is
up. For a traced pass the public functions of each module are wrapped at
the references their callers actually use (``PROBES``); each call records
a span (id, parent id, name, start, end) in memory, and counts are taken
from the call's arguments and result. A layer's self time is its spans'
durations minus the time their child spans cover. A probe whose function a
later refactor removes records nothing, and a count whose source changed
shape is reported as unavailable; neither stops the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path


def _solve(args, result):
    return {"atemporal.assignments": math.prod(len(c.modes) for c in args[0].components),
            "atemporal.candidates": len(result)}


def _trellis(args, result):
    edges = [e for layer in result.edges for e in layer]
    return {"temporal.edges": len(edges),
            "temporal.edges_admissible": sum(bool(e.admissible) for e in edges)}


def _enumerate(args, result):
    return {"temporal.evolutions": len(result)}


def _revise(args, result):
    return {"revision.paths_expanded": sum(len(r.path_indices) for r in result)}


def _dumps(args, result):
    return {"modelio.report_bytes": len(result.encode())}


#: (module, attribute, span name, counts taken from (args, result)).
PROBES = (
    ("tempdiag.cli", "main", "cli", None),
    ("tempdiag.cli", "load_model", "modelio.load", None),
    ("tempdiag.cli", "load_stream", "modelio.load", None),
    ("tempdiag.cli", "load_trajectories", "modelio.load", None),
    ("tempdiag.cli", "validate_model", "model.validate", None),
    ("tempdiag.cli", "validate_stream", "model.validate", None),
    ("tempdiag.cli", "classify_states", "markov.classify", None),
    ("tempdiag.cli", "classify_faults", "markov.classify", None),
    ("tempdiag.markov", "classify_states", "markov.classify", None),
    ("tempdiag.temporal", "solve_atemporal", "atemporal.solve", _solve),
    ("tempdiag.cli", "build_trellis", "temporal.trellis", _trellis),
    ("tempdiag.cli", "enumerate_temporal_diagnoses", "temporal.enumerate", _enumerate),
    ("tempdiag.cli", "prior_probability", "temporal.rank", None),
    ("tempdiag.cli", "conditional_probability", "temporal.rank", None),
    ("tempdiag.cli", "joint_probability", "temporal.rank", None),
    ("tempdiag.cli", "revise_trellis", "revision.revise", _revise),
    ("tempdiag.temporal", "matrix_power", "markov.matrix_power", None),
    ("tempdiag.markov", "matrix_power", "markov.matrix_power", None),
    ("tempdiag.cli", "dumps_report", "modelio.dumps", _dumps),
    ("tempdiag.cli", "sample_trajectory", "simulate.sample", None),
    ("tempdiag.cli", "generate_observation_stream", "simulate.sample", None),
)

#: Per-layer metric -> span whose self time it reports.
SELF_TIMES = {
    "cli.self_s": "cli",
    "modelio.load_s": "modelio.load",
    "model.validate_s": "model.validate",
    "markov.classify_s": "markov.classify",
    "atemporal.solve_s": "atemporal.solve",
    "temporal.trellis_s": "temporal.trellis",
    "temporal.enumerate_s": "temporal.enumerate",
    "temporal.rank_s": "temporal.rank",
    "revision.revise_s": "revision.revise",
    "markov.matrix_power_s": "markov.matrix_power",
    "modelio.dumps_s": "modelio.dumps",
    "simulate.sample_s": "simulate.sample",
}
COUNTS = ("atemporal.assignments", "atemporal.candidates", "temporal.edges",
          "temporal.edges_admissible", "temporal.evolutions",
          "revision.paths_expanded", "markov.matrix_power_calls")
#: Fresh interpreters per side when timing the import of tempdiag.cli.
IMPORT_RUNS = 5


class Tracer:
    """Spans and counts of one traced pass, recorded while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.unavailable: set[str] = set()
        self._stack: list[int] = []
        self._next = 0
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, attr, name, counter in PROBES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, counter))
            self._installed.append((module, attr, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, self._next = self._next, self._next + 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if counter is not None:
                try:
                    for key, value in counter(args, result).items():
                        self.counts[key] += value
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.unavailable.add(counter.__name__)
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        covered = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        out = defaultdict(int)
        for sid, _, name, start, end in self.spans:
            out[name] += end - start - covered[sid]
        return {name: ns / 1e9 for name, ns in out.items()}

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[2] == name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def describe(sample: list[float]) -> str:
    """Median, quartiles and count of one metric's sample."""
    if len(sample) < 2:
        return f"n={len(sample)}"
    q1, q2, q3 = statistics.quantiles(sample, n=4)
    return f"median {q2:.6g}, quartiles {q1:.6g}..{q3:.6g}, n={len(sample)}"


def invoke(cli, argv: list[str]) -> tuple[str | None, str]:
    """Run one case in-process; return (failure or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a failed run
            return "traceback: " + traceback.format_exc().splitlines()[-1], ""
    return (None if code == 0 else f"exit {code}"), out.getvalue()


def import_seconds() -> float:
    """Median import time of tempdiag.cli above a bare interpreter start."""
    env = dict(os.environ, PYTHONPATH="src")
    bare, full = [], []
    for _ in range(IMPORT_RUNS):
        for sample, code in ((bare, "pass"), (full, "import tempdiag.cli")):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            sample.append(time.perf_counter() - start)
    return statistics.median(full) - statistics.median(bare)


def run(cases: list[dict], seconds: float, work: Path) -> dict:
    import check

    sys.path.insert(0, "src")
    cli = importlib.import_module("tempdiag.cli")
    metrics_unit = {**{m: "s" for m in SELF_TIMES}, **{m: "count" for m in COUNTS},
                    "modelio.report_bytes": "bytes", "cli.import_s": "s",
                    "atemporal.yield": "ratio", "temporal.admissible_ratio": "ratio",
                    "trace.overhead_ratio": "ratio"}
    samples = defaultdict(list)
    plain, traced, first = [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for case in cases:
            invoke(cli, case["argv"])
        plain.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        with Tracer() as tracer:
            results = [invoke(cli, case["argv"]) for case in cases]
        traced.append(time.perf_counter() - t0)
        times = tracer.self_times()
        for metric, span in SELF_TIMES.items():
            samples[metric].append(times.get(span, 0.0))
        counts = dict(tracer.counts, **{
            "markov.matrix_power_calls": tracer.calls("markov.matrix_power")})
        if first is None:
            first, first_counts, first_results = tracer, counts, results
        elif counts != first_counts:
            print("warning: counts differ between traced passes of one run")

    samples["cli.import_s"].append(import_seconds())
    c = first_counts
    values = {metric: statistics.median(s) for metric, s in samples.items()}
    values.update({name: c.get(name, 0) for name in (*COUNTS, "modelio.report_bytes")})
    values["atemporal.yield"] = (c.get("atemporal.candidates", 0)
                                 / max(c.get("atemporal.assignments", 0), 1))
    values["temporal.admissible_ratio"] = (c.get("temporal.edges_admissible", 0)
                                           / max(c.get("temporal.edges", 0), 1))
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    samples["trace.overhead_ratio"] = [t / p - 1 for t, p in zip(traced, plain)]

    first.write(work / "spans.jsonl")
    if first.missing:
        print(f"probes with no function to wrap: {', '.join(first.missing)}")
    if first.unavailable:
        print(f"counts unavailable: {', '.join(sorted(first.unavailable))}")
    for metric in sorted(metrics_unit):
        note = f"  sample: {describe(samples[metric])}" if metric in samples else ""
        print(f"{metric:28s} {values[metric]:14.6g} {metrics_unit[metric]}{note}")

    verdicts = []
    for case, (failure, stdout) in zip(cases, first_results):
        if failure is None:
            found = check.problems(case, stdout.encode())
            failure = f"wrong output: {found[0]}" if found else None
        verdicts.append(failure)
        if failure:
            print(f"  failed: {failure} ({' '.join(case['argv'][:2])})")
    return {
        "correct": not any(v and v.startswith("wrong") for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(v is not None for v in verdicts),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in metrics_unit.items()},
    }


def main() -> None:
    work, seconds = Path(sys.argv[1]), float(sys.argv[2])
    cases = json.loads((work / "cases.json").read_text())
    print(json.dumps(run(cases, seconds, work)))


if __name__ == "__main__":
    main()
