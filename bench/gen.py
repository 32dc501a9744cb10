"""Seeded input family for the synthetic workloads.

One generator covers components x modes x observation ambiguity x instants
x gap x chain kind. Models are drawn from the seed; the true mode evolution
is sampled and observed with tempdiag's own ``sample_trajectory`` and
``generate_observation_stream``, so nothing is downloaded. Each case is a
model file, an observation file, the true trajectory (kept from the program
and read only by the output checks) and the CLI arguments to run.

Run from the root of a checkout:

    python3 bench/gen.py --workload dense --seed 1 --out .bench_work/dense
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, "src")
from tempdiag.modelio import model_from_dict, stream_to_list  # noqa: E402
from tempdiag.simulate import (  # noqa: E402
    generate_observation_stream,
    sample_trajectory,
)
from tempdiag.temporal import resolve_initial_distributions  # noqa: E402

import oracle  # noqa: E402

DEN = 1000


def frac(k: int) -> str:
    return f"{k}/{DEN}"


def chain(rng: random.Random, kind: str) -> tuple[list[str], list[list[str]]]:
    """Modes (correct mode last) and a row-stochastic matrix in exact
    fractions.

    absorbing: ok -> f1|f2, f2 -> f1, and f1 is never left.
    reversible: ok -> f1|f2|f3, every fault is repaired back to ok or
    drifts to the next fault, and no state is absorbing.
    """
    if kind == "absorbing":
        a, b, c = rng.randint(20, 80), rng.randint(20, 80), rng.randint(100, 300)
        rows = [[DEN, 0, 0], [c, DEN - c, 0], [a, b, DEN - a - b]]
        modes = ["f1", "f2", "ok"]
    else:
        rows = []
        for k in range(3):
            repair, drift = rng.randint(250, 500), rng.randint(0, 100)
            row = [0, 0, 0, repair]
            row[(k + 1) % 3] = drift
            row[k] = DEN - repair - drift
            rows.append(row)
        leave = [rng.randint(5, 20) for _ in range(3)]
        rows.append(leave + [DEN - sum(leave)])
        modes = ["f1", "f2", "f3", "ok"]
    return modes, [[frac(x) for x in row] for row in rows]


def atom(c: int, mode: str) -> dict:
    return {"component": f"c{c}", "mode": mode}


def rules_for(ambiguity: str, n: int, modes: list[str]):
    """Rule set and exclusive pairs for one observation-ambiguity level.

    pinned: every (component, mode) has its own manifestation, so one
    candidate explains each instant.
    chained: single-component rules tell correct from faulty, and
    two-component rules over neighbours (c_i, c_i+1) tell f1 from f2 only
    while the neighbour is correct, so 1 to a few candidates survive.
    full: manifestations are seen but nothing is excluded, so under the
    consistency criterion every assignment is a candidate.
    """
    rules, exclusive = [], []
    for i in range(n):
        nxt = (i + 1) % n
        if ambiguity == "pinned":
            rules += [{"body": [atom(i, m)], "head": f"s{i}_{m}"} for m in modes]
        elif ambiguity == "chained":
            rules += [
                {"body": [atom(i, "ok")], "head": f"n{i}"},
                {"body": [atom(i, "f1")], "head": f"x{i}"},
                {"body": [atom(i, "f2")], "head": f"x{i}"},
                {"body": [atom(i, "f1"), atom(nxt, "ok")], "head": f"d{i}"},
                {"body": [atom(i, "f2"), atom(nxt, "ok")], "head": f"g{i}"},
            ]
            exclusive += [[f"x{i}", f"n{i}"], [f"d{i}", f"g{i}"]]
        else:
            rules += [{"body": [atom(i, m)], "head": f"s{i}_{m}"}
                      for m in modes if m != "ok"]
    return rules, exclusive


def make_model(rng: random.Random, n: int, kind: str, ambiguity: str) -> dict:
    components = []
    for i in range(n):
        modes, matrix = chain(rng, kind)
        faults = [rng.randint(10, 60) for _ in modes[:-1]]
        components.append({
            "id": f"c{i}", "modes": modes, "correct_mode": "ok",
            "matrix": matrix,
            "initial_distribution": [frac(x) for x in faults + [DEN - sum(faults)]],
        })
    rules, exclusive = rules_for(ambiguity, n, components[0]["modes"])
    return {"components": components, "rules": rules, "exclusive": exclusive}


def observe(model_dict: dict, instants: list[int], seed: int):
    """Sample the true evolution and observe it at ``instants``."""
    model = model_from_dict(model_dict)
    traj = sample_trajectory(model, resolve_initial_distributions(model),
                             instants[-1], seed)
    stream = generate_observation_stream(traj, model, instants)
    truth = [{"t": t, "assignment": traj.assignment_at(t).as_dict()}
             for t in instants]
    return stream_to_list(stream), truth


def instants_for(rng: random.Random, count: int, max_gap: int) -> list[int]:
    out = [0]
    while len(out) < count:
        out.append(out[-1] + rng.randint(1, max_gap))
    return out


def true_steps(model: oracle.Model, truth: list[dict], mode: str) -> list[float]:
    """The quantity the threshold is compared with, per true step."""
    rows = np.array([model.encode(s["assignment"]) for s in truth])
    out = []
    for k in range(1, len(truth)):
        f = model.factors(rows[k - 1:k], rows[k:k + 1], truth[k]["t"] - truth[k - 1]["t"])
        out.append(float(f.min() if mode == "per-component" else f.prod()))
    return out


def sigma_for_count(model: oracle.Model, obs: list[dict], mode: str,
                    target: int) -> float:
    """A threshold leaving about ``target`` admissible evolutions when every
    assignment is a candidate. It lies halfway (geometrically) between two
    achievable values, so no step ties with it."""
    space, factors = model.space, []
    for a, b in zip(obs, obs[1:]):
        factors.append(model.factors(space, space, b["t"] - a["t"]))
    values = np.unique(np.concatenate([
        (f if mode == "per-component" else f.prod(axis=-1)).ravel() for f in factors]))
    values = values[values > 0]

    def count(sigma):
        return oracle.prefix_counts(
            [oracle.admissible(f, sigma, mode) for f in factors], len(space))[-1]

    lo, hi = 0, len(values) - 1  # count(values[lo]) >= target > count(values[hi])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count(values[mid]) >= target:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(values[lo] * values[hi]))


def write_case(out: Path, name: str, model: dict, obs: list, truth: list) -> dict:
    paths = {}
    for key, data in (("model", model), ("obs", obs), ("truth", truth)):
        path = out / f"{name}_{key}.json"
        path.write_text(json.dumps(data, indent=1))
        paths[key] = path.as_posix()
    return paths


def diagnose_case(paths: dict, sigma: float, mode: str, criterion: str,
                  revise: bool) -> dict:
    argv = ["diagnose", paths["model"], paths["obs"], "--sigma", repr(sigma),
            "--threshold-mode", mode, "--criterion", criterion]
    if revise:
        argv.append("--revise")
    return {"kind": "diagnose", "argv": argv, "sigma": sigma, "mode": mode,
            "criterion": criterion, "revise": revise, **paths}


def rank_case(out: Path, name: str, paths: dict, truth: list) -> dict:
    traj = out / f"{name}_rank.json"
    traj.write_text(json.dumps([truth]))
    return {"kind": "rank", "argv": ["rank", paths["model"], traj.as_posix()],
            **paths}


SCENARIOS = ("hydraulic", "occlusion_onset", "sudden_stop")
#: (criterion, threshold mode, sigma, revise): each value of each flag once.
DESK_DIAGNOSE = (("abductive", "global", 0.01, False),
                 ("abductive", "global", 0.0, True),
                 ("consistency", "per-component", 0.01, True),
                 ("consistency", "global", 0.0, False))
#: Golden reports that must also meet an expectation written by hand.
DESK_EXPECT = {"sudden_stop_diagnose0": "sudden_stop",
               "occlusion_onset_diagnose1": "occlusion",
               "hydraulic_classify": "hydraulic_classify",
               "hydraulic_propagate": "hydraulic_propagate"}


def desk(rng, out, seed):
    """The shipped scenarios through all six subcommands, each case twice, in
    seeded order. A cycle of 54 invocations outlasts a run, so every run
    makes one and its tail is always p75."""
    cases = []
    for s in SCENARIOS:
        model, obs = f"scenarios/{s}_model.json", f"scenarios/{s}_obs.json"
        named = {
            "validate": {"kind": "validate", "argv": ["validate", model, obs]},
            "classify": {"kind": "classify", "argv": ["classify", model]},
            "propagate": {"kind": "propagate",
                          "argv": ["propagate", model, "--instants", "0,1,2"]},
            "simulate": {"kind": "simulate",
                         "argv": ["simulate", model, "--horizon", "4"]},
            "rank": {"kind": "rank", "model": model, "argv": [
                "rank", model, f"bench/desk/{s}_trajectories.json"]},
        }
        for k, (criterion, mode, sigma, revise) in enumerate(DESK_DIAGNOSE):
            named[f"diagnose{k}"] = diagnose_case(
                {"model": model, "obs": obs}, sigma, mode, criterion, revise)
        for name, case in named.items():
            case["golden"] = f"{s}_{name}"
            if case["golden"] in DESK_EXPECT:
                case["expect"] = DESK_EXPECT[case["golden"]]
            cases += [case, dict(case)]
    rng.shuffle(cases)
    return cases


def wide(rng, out, seed):
    """Atemporal-heavy: 3^8 assignments per instant over 3 instants. Every
    case has the same shape, so single invocations cost about the same."""
    cases = []
    grid = [(criterion, mode) for criterion in ("abductive", "consistency")
            for mode in ("global", "per-component")] * 4
    for k, (criterion, mode) in enumerate(grid):
        model = make_model(rng, 8, "absorbing", "chained")
        obs, truth = observe(model, instants_for(rng, 3, 3), seed * 100 + k)
        paths = write_case(out, f"wide{k}", model, obs, truth)
        sigma = 0.5 * min(true_steps(oracle.Model(paths["model"]), truth, mode))
        cases.append(diagnose_case(paths, sigma, mode, criterion, False))
    return cases


def dense(rng, out, seed):
    """Trellis-heavy: 81 candidates per instant over 4 instants, thousands
    of evolutions."""
    cases = []
    for k, mode in enumerate(("global", "per-component") * 2):
        model = make_model(rng, 4, "absorbing", "full")
        obs, truth = observe(model, instants_for(rng, 4, 3), seed * 100 + k)
        paths = write_case(out, f"dense{k}", model, obs, truth)
        sigma = sigma_for_count(oracle.Model(paths["model"]), obs, mode, 3000)
        cases.append(diagnose_case(paths, sigma, mode, "consistency", True))
    return cases


#: Stream lengths for ``long``. The joint of one of its streams underflows
#: after roughly 600 to 900 instants, so the first two lengths revise
#: cleanly and the last one shows the known revision underflow. The short
#: stream's diagnose costs about as much as the ranks, which keeps the
#: median invocation among like-priced ones.
LONG_LENGTHS = (100, 450, 1300)


def long(rng, out, seed):
    """Deep in time, one candidate per instant, reversible faults."""
    cases = []
    for k, count in enumerate(LONG_LENGTHS):
        model = make_model(rng, 3, "reversible", "pinned")
        obs, truth = observe(model, instants_for(rng, count, 5), seed * 100 + k)
        paths = write_case(out, f"long{k}", model, obs, truth)
        cases.append(diagnose_case(paths, 0.0, "global", "abductive", True))
        cases.append(rank_case(out, f"long{k}", paths, truth))
    return cases


WORKLOADS = {"desk": desk, "wide": wide, "dense": dense, "long": long}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{args.workload}-{args.seed}")
    cases = WORKLOADS[args.workload](rng, out, args.seed)
    (out / "cases.json").write_text(json.dumps(cases, indent=1))


if __name__ == "__main__":
    main()
