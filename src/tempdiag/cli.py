"""Command-line front end.

Subcommands: validate, classify, propagate, diagnose, simulate, rank.
Reports go to standard output as canonical JSON; a short human-readable
summary goes to standard error if it can be written there. ``run`` is the
process entry. ``main`` loads and validates the model and writes what
every report carries (``command``, ``config`` and the input ``files``);
each ``_cmd_*`` function returns only its own sections. The bulk
sections (candidates, trellis edges, diagnoses and ranked trajectories,
and revision) are ``report.table`` writers: each declares its columns,
taken from the engine's mode-index and probability arrays (mode names as
JSON text from per-component tables), and the table does the rest, from
the finiteness check before the first byte to the bounded writes.
Exit codes: 0 success, 1 invalid input (usage errors included) or a
failed write to stdout, 2 no diagnosis (empty candidate set, no
admissible evolution, or undefined revision), 3 internal limits
(candidate cap, simulation horizon).
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from functools import partial
from typing import Callable, NoReturn, Sequence, TextIO

# before numpy loads OpenBLAS: its worker threads spin while they wait for
# work, which slows every start-up, and matrices this small gain nothing
# from them. A value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .atemporal import DEFAULT_CANDIDATE_CAP, ExplanationCriterion
from .errors import DiagnosisError, ValidationError
from .markov import classify_faults, matrix_powers
from .model import validate_model, validate_stream, validate_trajectories
from .modelio import load_model, load_stream, load_trajectories, stream_to_list
from .report import Column, Rows, quote, table, texts, write_report
from .revision import revise_trellis
from .simulate import RNG_ALGORITHM, generate_observation_stream, sample_trajectory
from .temporal import (
    DiagnosticProblem,
    ThresholdMode,
    build_trellis,
    enumerate_evolutions,
    forward_paths,
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
_JSON_BOOLS = np.array(["false", "true"], dtype=object)


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


def _names(component) -> np.ndarray:
    """A component's mode names as JSON text, by mode index."""
    return np.array([quote(m) for m in component.modes], dtype=object)


def _assignments(model, modes) -> dict:
    """The shape of an assignment per row of the mode-index array
    ``modes``: by component id, the component's mode name."""
    return {c.id: Column(modes[:, k], _names(c))
            for k, c in enumerate(model.components)}


def _times(instants) -> np.ndarray:
    """Time points as JSON text: one may be too large for any numpy
    integer."""
    return np.array(list(map(int.__repr__, instants)), dtype=object)


def _candidates_report(trellis, model):
    """``candidates``: per instant one assignment per row of its
    mode-index array."""
    at, sizes = np.arange(len(trellis.instants)), np.diff(trellis.starts)
    return table({
        "assignments": Rows(_assignments(model, trellis.rows), sizes),
        "t": Column(at, _times(trellis.instants))}, len(at))


def _evolution_rows(model, evolutions, prior: bool = False):
    """``diagnoses`` or ``rank``'s ``trajectories``: one row per evolution,
    ranked 1, 2, ... as listed. ``rank`` adds each evolution's ``prior``."""
    kept = evolutions.instants >= 0  # not the -1 past an evolution's end
    shape = {
        "joint_probability": Column(evolutions.joints),
        "rank": Column(np.arange(1, len(evolutions.joints) + 1)),
        "step_conditionals": Rows(Column(evolutions.steps[kept[:, 1:]]),
                                  evolutions.lengths - 1),
        "trajectory": Rows({
            "assignment": _assignments(model, evolutions.modes[kept]),
            "t": Column(evolutions.instants[kept], _times(evolutions.times)),
        }, evolutions.lengths)}
    if prior:
        shape["prior"] = Column(evolutions.priors)
    return table(shape, len(evolutions.joints))


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
        _note(f"model and observations OK "
              f"({len(model.components)} components, "
              f"{len(stream.entries)} observation entries)")
    else:
        _note(f"model OK ({len(model.components)} components, "
              f"{len(model.rules)} rules)")
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
        _note(f"{c.id}: permanent faults {permanent or 'none'}")
    return {"components": components}


def _cmd_propagate(args, model) -> dict:
    instants = _parse_instants(args.instants)
    for t in instants:
        if t < 0:  # validate_stream's rule, in its words
            raise ValidationError(f"time points must be nonnegative, got {t}",
                                  element=t)
    initials = resolve_initial_distributions(model)
    components = {}
    for c in model.components:
        propagated = initials[c.id] @ matrix_powers(c.matrix, instants)
        components[c.id] = {"modes": list(c.modes), "distributions": [
            {"t": t, "probabilities": probabilities}
            for t, probabilities in zip(instants, propagated.tolist())]}
    _note(f"propagated {len(model.components)} components over "
          f"{len(instants)} instants")
    return {
        "instants": instants,
        "initial_distributions": {
            c.id: _distribution_dict(c.modes, initials[c.id])
            for c in model.components},
        "components": components,
    }


def _revision_report(revision, model):
    """``revision``: per instant, the revised joints of the paths ending
    there, the revised conditionals of the edges into it and every
    component's revision, its modes and transitions by mode name. Every
    column is one of the revision's flat arrays as it is."""
    at = np.arange(len(revision))
    blocks = {}
    for c in model.components:
        names, stream = _names(c), revision.components[c.id]
        admitted, moves = stream.admitted, stream.transitions
        blocks[c.id] = {
            "admitted": Rows(Column(admitted[:, 1], names),
                             np.bincount(admitted[:, 0], minlength=len(at))),
            **{field: {"modes": list(c.modes),
                       "probabilities": [Column(p) for p in values.T]}
               for field, values in (("distribution", stream.distributions),
                                     ("posterior", stream.posteriors))},
            "mass_factor": Column(stream.factors),
            "revised_transitions": Rows({
                "from": Column(moves[:, 1], names),
                "probability": Column(stream.entries),
                "revised": Column(stream.revised_entries),
                "to": Column(moves[:, 2], names)},
                np.bincount(moves[:, 0], minlength=len(at)))}

    counts = np.diff(revision.paths)
    return table({
        "components": blocks,
        "evolutions": Rows({
            "joint": Column(revision.joints),
            "path": Rows(Column(revision.spelled),
                         np.repeat(at + 1, counts)),
            "revised_joint": Column(revision.revised_joints),
        }, counts),
        "normalization_factor": Column(revision.factors),
        "revised_conditionals": Rows({
            "conditional": Column(revision.conditionals),
            "revised": Column(revision.revised_conditionals),
            "source": Column(revision.sources),
            "target": Column(revision.targets),
        }, np.diff(revision.edges)),
        "t": Column(at, _times(revision.instants))}, len(at))


def _trellis_report(trellis, model):
    """``trellis``: per step, every edge with its factors (by component
    id), conditional and admissibility."""
    bounds, times = trellis.bounds, _times(trellis.instants)
    _, sources, targets = trellis.endpoints
    return table({
        "edges": Rows({
            "admissible": Column(trellis.admissible.view(np.uint8),
                                 _JSON_BOOLS),
            "conditional": Column(trellis.conditionals),
            # each P^n entry formatted once, and checked before any byte
            "factors": {c.id: Column(entries, texts(powers)) for c, entries,
                        powers in zip(model.components, trellis.entries,
                                      trellis.powers)},
            # int32 halves these arrays: no layer that fits in memory
            # holds 2**31 candidates
            "source": Column(sources.astype(np.int32)),
            "target": Column(targets.astype(np.int32)),
        }, np.diff(bounds)),
        "from_t": Column(np.arange(len(bounds) - 1), times),
        "to_t": Column(np.arange(1, len(times)), times)}, len(bounds) - 1)


def _cmd_diagnose(args, model) -> dict:
    stream = _load(args.observations, load_stream, validate_stream, model)
    problem = DiagnosticProblem(
        model=model, observations=stream, sigma=args.sigma,
        threshold_mode=_THRESHOLD_MODES[args.threshold_mode],
        criterion=_CRITERIA[args.criterion], candidate_cap=args.cap)
    trellis = build_trellis(problem)
    table = forward_paths(trellis)  # one forward pass ranks and revises
    evolutions = enumerate_evolutions(problem, trellis, table)
    # revised before the sections are declared, so that its temporaries
    # are gone before the trellis section derives its edges' endpoints
    revision = revise_trellis(trellis, model, table) if args.revise else None

    report = {
        "instants": list(trellis.instants),
        "candidates": _candidates_report(trellis, model),
        "initial_distributions": {
            c.id: _distribution_dict(c.modes, trellis.initials[c.id])
            for c in model.components},
        "priors": trellis.priors.tolist(),
        "trellis": _trellis_report(trellis, model),
        "diagnoses": _evolution_rows(model, evolutions),
    }
    if args.revise:
        report["revision"] = _revision_report(revision, model)

    sizes = ", ".join(f"{n} at t={t}" for t, n in zip(
        trellis.instants, np.diff(trellis.starts).tolist()))
    _note(f"candidates: {sizes}; {len(evolutions.joints)} admissible "
          f"evolution(s); best joint probability {evolutions.joints[0]:.6g}")
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
    _note(f"sampled horizon {args.horizon} with seed {args.seed} "
          f"({RNG_ALGORITHM})")
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
    _note(f"ranked {len(ranked.joints)} trajectories")
    return {"trajectories": _evolution_rows(model, ranked, prior=True)}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as invalid input; subcommand parsers inherit it."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")

    def _print_message(self, message, file=None):
        """Writes ``--help`` and ``--version`` text as a report is written:
        a stream that refuses it, or a closed descriptor (``file`` is
        None), ends the run with exit 1, where argparse would drop the
        text or print it on stderr, and exit 0."""
        if message and not _written(lambda stream: stream.write(message),
                                    file):
            sys.exit(1)


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


def _note(text: str) -> None:
    """Print ``text`` on stderr, for a person to read. A stderr that
    refuses it (a full disk, a closed descriptor) loses the text, never
    the report or the exit code."""
    if sys.stderr is None:  # the process started with descriptor 2 closed
        return
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        pass


def _written(write: Callable[[TextIO], object],
             stream: TextIO | None) -> bool:
    """Call ``write(stream)`` and flush ``stream``. If the stream refuses
    it (a full disk, a closed pipe) or there is none (the process started
    with its descriptor closed), say why on stderr and return False;
    whatever the stream still buffers is then dropped, so that nothing
    more of it is written."""
    try:
        if stream is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        write(stream)
        stream.flush()
    except OSError as exc:
        _note(f"error [write_failed]: {exc.strerror or exc}")
        try:
            fd = stream.fileno()
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
        written = _written(partial(write_report, error), sys.stdout)
        _note(f"error [{exc.code}]: {exc}")
        return exc.exit_code if written else 1
    return 0 if _written(partial(write_report, report), sys.stdout) else 1


def run() -> NoReturn:
    """The process entry, of the ``tempdiag`` console script and of
    ``python -m tempdiag.cli``: ``main`` on the command line, then exit
    with its code. Every way out, argparse's own exits included, first
    freezes what the process holds (``gc.freeze``): the objects go with
    the process anyway, and frozen, the interpreter's final collections
    skip the ~22k that numpy and the package allocate at import. ``main``
    called in a running process never freezes."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
