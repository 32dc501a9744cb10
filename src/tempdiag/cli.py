"""Command-line front end.

Subcommands: validate, classify, propagate, diagnose, simulate, rank.
Reports go to standard output as canonical JSON; a short human-readable
summary goes to standard error. ``main`` loads and validates the model and
writes what every report carries (``command``, ``config`` and the input
``files``); each ``_cmd_*`` function returns only its own sections. The
bulk sections (candidates, trellis edges, diagnoses and ranked
trajectories, revised evolutions, conditionals and component blocks) are
section writers that ``modelio.write_report`` calls: they fill ``modelio``
templates, whose one placeholder is ``TEXT``, from the engine's mode-index
and probability arrays, never as a dict per row. Mode names come from
per-component tables of JSON text, numbers from ``modelio.texts``, which
formats each distinct value of an array once. Each section declares the
float arrays it prints, and the writer checks them all before the first
byte of a report is written; a section is formatted only when the
writer reaches it, and the report goes to stdout in bounded writes.
Exit codes: 0 success, 1 invalid input (usage errors included) or a
failed write to stdout, 2 no diagnosis (empty candidate set, no
admissible evolution, or undefined revision), 3 internal limits
(candidate cap, simulation horizon).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from typing import Sequence

import numpy as np

from . import __version__
from .atemporal import DEFAULT_CANDIDATE_CAP, ExplanationCriterion
from .errors import DiagnosisError, ValidationError
from .markov import classify_faults, propagate_distribution
from .model import validate_model, validate_stream, validate_trajectories
from .modelio import (
    INDENT,
    TEXT,
    load_model,
    load_stream,
    load_trajectories,
    quote,
    rows,
    section,
    stream_to_list,
    template,
    texts,
    write_report,
)
from .revision import revise_trellis
from .simulate import RNG_ALGORITHM, generate_observation_stream, sample_trajectory
from .temporal import (
    DiagnosticProblem,
    ThresholdMode,
    build_trellis,
    enumerate_evolutions,
    rank_evolutions,
    resolve_initial_distributions,
)

_CRITERIA = {
    "abductive": ExplanationCriterion.ABDUCTIVE,
    "consistency": ExplanationCriterion.CONSISTENCY_BASED,
}
_THRESHOLD_MODES = {
    "global": ThresholdMode.GLOBAL,
    "per-component": ThresholdMode.PER_COMPONENT,
}
#: Input file arguments a report lists under ``files`` when given.
_FILES = ("model", "observations", "trajectories")
_JSON_BOOLS = ("false", "true")


def _parse_instants(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse instants {text!r}; expected "
                              "comma-separated integers") from None


def _config_dict(args) -> dict:
    return {
        "sigma": getattr(args, "sigma", 0.0),
        "threshold_mode": getattr(args, "threshold_mode", "global"),
        "criterion": getattr(args, "criterion", "abductive"),
        "revise": getattr(args, "revise", False),
        "seed": getattr(args, "seed", None),
        "candidate_cap": getattr(args, "cap", DEFAULT_CANDIDATE_CAP),
    }


def _load(path, load, validate, *context):
    """``validate(load(path), *context)``, naming ``path`` in any error."""
    try:
        return validate(load(path), *context)
    except DiagnosisError as exc:
        if not getattr(exc, "file", None):
            exc.file = str(path)
        raise


def _by_id(model) -> list[int]:
    """Component indices in component-id order, the order of report keys."""
    return sorted(range(len(model.components)),
                  key=lambda c: model.components[c].id)


def _quoted(model, modes) -> np.ndarray:
    """A mode-index array's mode names as JSON text, its last axis in
    component-id order. Indices of -1 give some name of the component."""
    out = np.empty(modes.shape, dtype=object)
    for k, c in enumerate(_by_id(model)):
        names = np.array([quote(m) for m in model.components[c].modes],
                         dtype=object)
        out[..., k] = names[modes[..., c]]
    return out


def _candidates_report(trellis, model) -> list[dict]:
    """``candidates``: per instant one object per row of its mode-index
    array. The names of all instants are looked up at once, and one
    template renders every row of the run."""
    assignment = cache(partial(template, dict.fromkeys(sorted(
        c.id for c in model.components), TEXT)))

    def assignments(names):
        def render(nl):
            return map(assignment(nl).__mod__, map(tuple, names.tolist()))
        return rows(render)

    ends = np.cumsum([len(modes) for modes in trellis.modes])
    layers = np.split(_quoted(model, np.concatenate(trellis.modes)), ends[:-1])
    return [{"t": t, "assignments": assignments(names)}
            for t, names in zip(trellis.instants, layers)]


def _evolution_rows(model, evolutions, prior: bool = False):
    """``diagnoses`` or ``rank``'s ``trajectories``: one row per evolution,
    ranked 1, 2, ... as listed, rendered with one template per trajectory
    length. ``rank`` adds each evolution's ``prior``."""
    ids = sorted(c.id for c in model.components)

    def render(nl):
        @cache
        def row(length):
            shape = {"joint_probability": TEXT, "rank": TEXT,
                     "step_conditionals": [TEXT] * (length - 1),
                     "trajectory": [{"assignment": dict.fromkeys(ids, TEXT),
                                     "t": TEXT}] * length}
            if prior:
                shape["prior"] = TEXT
            return template(shape, nl)

        # a row's first keys: its joint, its prior if shown, its rank
        joints = texts(evolutions.joints).tolist()
        ranks = texts(np.arange(1, len(joints) + 1)).tolist()
        heads = (zip(joints, texts(evolutions.priors).tolist(), ranks)
                 if prior else zip(joints, ranks))
        # per instant the mode names in component-id order, then t; a time
        # point may be too large for any numpy integer
        times = np.array(list(map(int.__repr__, evolutions.times)),
                         dtype=object)
        cells = np.concatenate((_quoted(model, evolutions.modes),
                                times[evolutions.instants, None]), axis=2)
        width = cells.shape[2]
        return (row(n) % (*head, *row_steps[:n - 1], *row_cells[:n * width])
                for head, row_steps, row_cells, n in zip(
                    heads, texts(steps).tolist(),
                    cells.reshape(-1, cells.shape[1] * width).tolist(),
                    evolutions.lengths.tolist()))

    # the NaN that pads the steps past an evolution's end is never shown
    steps = np.where(evolutions.instants[:, 1:] >= 0, evolutions.steps, 0.0)
    numbers = (evolutions.joints, steps) + ((evolutions.priors,) if prior
                                            else ())
    return rows(render, *numbers)


def _distribution_dict(modes, probabilities) -> dict:
    return {"modes": list(modes), "probabilities": probabilities.tolist()}


def _cmd_validate(args, model) -> dict:
    report = {
        "ok": True,
        "model": {
            "components": [c.id for c in model.components],
            "rules": len(model.rules),
            "exclusive_pairs": len(model.exclusive),
        },
    }
    if args.observations:
        stream = _load(args.observations, load_stream, validate_stream, model)
        report["observations"] = {
            "entries": len(stream.entries),
            "instants": [e.t for e in stream.entries],
        }
        print(f"model and observations OK "
              f"({len(model.components)} components, "
              f"{len(stream.entries)} observation entries)", file=sys.stderr)
    else:
        print(f"model OK ({len(model.components)} components, "
              f"{len(model.rules)} rules)", file=sys.stderr)
    return report


def _cmd_classify(args, model) -> dict:
    components = {}
    for c in model.components:
        faults = classify_faults(c)
        states = faults.states
        components[c.id] = {
            "modes": list(c.modes),
            "correct_mode": c.correct_mode,
            "states": {m: states.labels[m].value for m in c.modes},
            "ergodic_sets": [list(s) for s in states.ergodic_sets],
            "transient_sets": [list(s) for s in states.transient_sets],
            "faults": {
                mode: {
                    "permanent": fc.permanent,
                    "transient": fc.transient,
                    "reversible": fc.reversible,
                    "irreversible": fc.irreversible,
                }
                for mode, fc in sorted(faults.faults.items())
            },
        }
        permanent = sorted(m for m, fc in faults.faults.items() if fc.permanent)
        print(f"{c.id}: permanent faults {permanent or 'none'}",
              file=sys.stderr)
    return {"components": components}


def _cmd_propagate(args, model) -> dict:
    instants = _parse_instants(args.instants)
    if any(t < 0 for t in instants):
        raise ValidationError("instants must be nonnegative")
    initials = resolve_initial_distributions(model)
    components = {c.id: {
        "modes": list(c.modes),
        "distributions": [
            {"t": t, "probabilities": propagate_distribution(
                initials[c.id], c.matrix, t).tolist()}
            for t in instants]}
        for c in model.components}
    print(f"propagated {len(model.components)} components over "
          f"{len(instants)} instants", file=sys.stderr)
    return {
        "instants": instants,
        "initial_distributions": {
            c.id: _distribution_dict(c.modes, initials[c.id])
            for c in model.components},
        "components": components,
    }


def _revision_report(revisions, model, indices) -> list[dict]:
    """``revision``: per instant, the revised joints of the paths ending
    there and the revised conditionals of the edges into it, each rendered
    with one template for the whole run, and every component's revision,
    rendered with one template per shape of the instant's blocks.
    ``indices`` holds the text of every candidate index."""
    evolution = cache(partial(template, {
        "joint": TEXT, "path": TEXT, "revised_joint": TEXT}))
    conditional = cache(partial(template, {
        "conditional": TEXT, "revised": TEXT, "source": TEXT, "target": TEXT}))

    @cache
    def blocks(nl, shape):
        """The ``components`` object of an instant whose components have
        these (id, modes, admitted count, revised transition count)."""
        return template({comp: {
            "admitted": [TEXT] * admitted,
            "distribution": {"modes": list(modes),
                             "probabilities": [TEXT] * len(modes)},
            "mass_factor": TEXT,
            "posterior": {"modes": list(modes),
                          "probabilities": [TEXT] * len(modes)},
            "revised_transitions": [dict.fromkeys(
                ("from", "probability", "revised", "to"), TEXT)] * transitions,
        } for comp, modes, admitted, transitions in shape}, nl)

    def evolutions(rev):
        def render(nl):
            # each path is an array of indices inside the row's object
            inner, close = nl + 2 * INDENT, nl + INDENT + "]"
            paths = ("[" + inner + ("," + inner).join(path) + close
                     for path in indices[rev.path_indices].tolist())
            joints, revised = texts(np.stack(
                (rev.joints, rev.revised_joints))).tolist()
            return map(evolution(nl).__mod__, zip(joints, paths, revised))
        return rows(render, rev.joints, rev.revised_joints)

    def revised_conditionals(rev):
        def render(nl):
            # keys sort the scores before the indices
            return map(conditional(nl).__mod__, zip(
                *texts(np.stack((rev.conditionals,
                                 rev.revised_conditionals))).tolist(),
                indices[rev.sources].tolist(), indices[rev.targets].tolist()))
        return rows(render, rev.conditionals, rev.revised_conditionals)

    modes = {c.id: c.modes for c in model.components}

    def components(rev):
        items = sorted(rev.components.items())

        def render(nl):
            shape = tuple((comp, modes[comp], len(cr.admitted),
                           len(cr.revised_transitions)) for comp, cr in items)
            # the cells in the template's order: names quoted, numbers as
            # floats until texts formats them all at once
            cells = np.array([cell for _, cr in items for cell in (
                *map(quote, cr.admitted),
                *cr.distribution.tolist(), cr.factor,
                *cr.posterior.tolist(),
                *(cell for a, b, p, r in cr.revised_transitions
                  for cell in (quote(a), p, r, quote(b))))], dtype=object)
            numbers = np.array([type(cell) is float for cell in cells],
                               dtype=bool)
            cells[numbers] = texts(cells[numbers].astype(float))
            return (blocks(nl, shape) % tuple(cells.tolist()),)
        return section(render, *(numbers for _, cr in items for numbers in (
            cr.distribution, cr.posterior, scores(cr))))

    def scores(cr):
        """A component block's other numbers: the mass factor, and each
        revised transition's entry and score."""
        return [cr.factor, *(x for *_, p, r in cr.revised_transitions
                             for x in (p, r))]

    return [{
        "t": rev.t,
        "normalization_factor": rev.factor,
        "evolutions": evolutions(rev),
        "revised_conditionals": revised_conditionals(rev),
        "components": components(rev),
    } for rev in revisions]


def _trellis_report(trellis, model, indices) -> list[dict]:
    """``trellis``: per step, every edge with its factors (by component id),
    conditional and admissibility, rendered with one template straight from
    the step's arrays. ``indices`` holds the text of every candidate
    index."""
    order = _by_id(model)
    edge = cache(partial(template, {
        "admissible": TEXT, "conditional": TEXT,
        "factors": {model.components[c].id: TEXT for c in order},
        "source": TEXT, "target": TEXT}))

    def edges(factors, conditionals, admissible):
        def render(nl):
            n, m = conditionals.shape
            columns = texts(factors[..., order]).reshape(n * m, -1).T.tolist()
            return map(edge(nl).__mod__, zip(
                map(_JSON_BOOLS.__getitem__, admissible.ravel().tolist()),
                texts(conditionals).ravel().tolist(), *columns,
                np.repeat(indices[:n], m).tolist(),
                np.tile(indices[:m], n).tolist()))
        return rows(render, factors, conditionals)

    return [{"from_t": trellis.instants[k], "to_t": trellis.instants[k + 1],
             "edges": edges(*step)}
            for k, step in enumerate(zip(trellis.factors, trellis.conditionals,
                                         trellis.admissible))]


def _cmd_diagnose(args, model) -> dict:
    stream = _load(args.observations, load_stream, validate_stream, model)
    problem = DiagnosticProblem(
        model=model, observations=stream, sigma=args.sigma,
        threshold_mode=_THRESHOLD_MODES[args.threshold_mode],
        criterion=_CRITERIA[args.criterion], candidate_cap=args.cap)
    trellis = build_trellis(problem)
    evolutions = enumerate_evolutions(problem, trellis)
    indices = texts(np.arange(max(map(len, trellis.modes), default=0)))

    report = {
        "instants": list(trellis.instants),
        "candidates": _candidates_report(trellis, model),
        "initial_distributions": {
            c.id: _distribution_dict(c.modes, trellis.initials[c.id])
            for c in model.components},
        "priors": trellis.priors.tolist(),
        "trellis": _trellis_report(trellis, model, indices),
        "diagnoses": _evolution_rows(model, evolutions),
    }
    if args.revise:
        report["revision"] = _revision_report(revise_trellis(trellis, model),
                                              model, indices)

    sizes = ", ".join(f"{len(modes)} at t={t}"
                      for t, modes in zip(trellis.instants, trellis.modes))
    print(f"candidates: {sizes}; {len(evolutions.joints)} admissible "
          f"evolution(s); best joint probability {evolutions.joints[0]:.6g}",
          file=sys.stderr)
    return report


def _cmd_simulate(args, model) -> dict:
    initials = resolve_initial_distributions(model)
    traj = sample_trajectory(model, initials, args.horizon, args.seed)
    instants = (_parse_instants(args.instants) if args.instants is not None
                else list(range(args.horizon + 1)))
    for before, t in zip(instants, instants[1:]):
        if t <= before:  # validate_stream's rule, in its words
            raise ValidationError(f"time points must strictly increase, got "
                                  f"{t} after {before}", element=t)
    stream = generate_observation_stream(traj, model, instants)
    print(f"sampled horizon {args.horizon} with seed {args.seed} "
          f"({RNG_ALGORITHM})", file=sys.stderr)
    return {
        "rng": RNG_ALGORITHM,
        "trajectory": {
            "seed": traj.seed,
            "horizon": traj.horizon,
            "modes": {comp: list(seq)
                      for comp, seq in sorted(traj.modes.items())},
        },
        "observations": stream_to_list(stream),
    }


def _cmd_rank(args, model) -> dict:
    trajectories = _load(args.trajectories, load_trajectories,
                         validate_trajectories, model)
    ranked = rank_evolutions(model, trajectories)
    print(f"ranked {len(ranked.joints)} trajectories", file=sys.stderr)
    return {"trajectories": _evolution_rows(model, ranked, prior=True)}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as invalid input; subcommand parsers inherit it."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tempdiag",
        description="Temporal diagnosis of component-based systems with "
                    "Markov-chain mode dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("model", help="model file (JSON)")

    p = sub.add_parser("validate", help="check a model and optional "
                                        "observation stream")
    add_model(p)
    p.add_argument("observations", nargs="?", default=None,
                   help="observation stream file (JSON)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="state and fault classification "
                                        "per component")
    add_model(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("propagate", help="mode distributions at requested "
                                         "instants")
    add_model(p)
    p.add_argument("--instants", required=True,
                   help="comma-separated time points")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("diagnose", help="ranked temporal diagnoses")
    add_model(p)
    p.add_argument("observations", help="observation stream file (JSON)")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="plausibility threshold (default 0)")
    p.add_argument("--threshold-mode", choices=sorted(_THRESHOLD_MODES),
                   default="global", dest="threshold_mode")
    p.add_argument("--criterion", choices=sorted(_CRITERIA),
                   default="abductive")
    p.add_argument("--revise", action="store_true",
                   help="revise probabilities against the admitted "
                        "hypotheses")
    p.add_argument("--cap", type=int, default=DEFAULT_CANDIDATE_CAP,
                   help="candidate-space cap (default 1e6)")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("simulate", help="sample a trajectory and emit its "
                                        "observation stream")
    add_model(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instants", default=None,
                   help="observation instants (default: every step)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rank", help="joint probabilities of supplied "
                                    "trajectories")
    add_model(p)
    p.add_argument("trajectories", help="trajectory file (JSON)")
    p.set_defaults(func=_cmd_rank)
    return parser


def _print_report(report: dict) -> bool:
    """Write ``report`` to stdout. If stdout refuses it (a full disk, a
    closed pipe), say why on stderr and return False; whatever stdout
    still buffers is then dropped, so that nothing more of it is written."""
    try:
        write_report(report, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error [write_failed]: {exc.strerror or exc}", file=sys.stderr)
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # a stream with no descriptor
            return False
        # the flush at exit would fail again, and print a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return False
    return True


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        model = _load(args.model, load_model, validate_model)
        report = {"command": args.command, "config": _config_dict(args),
                  "files": {key: getattr(args, key) for key in _FILES
                            if getattr(args, key, None)},
                  **args.func(args, model)}
    except DiagnosisError as exc:
        error = {
            "error": {
                "code": exc.code,
                "message": str(exc),
                "element": getattr(exc, "element", None),
                "file": getattr(exc, "file", None),
            }
        }
        written = _print_report(error)
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code if written else 1
    return 0 if _print_report(report) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
