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
Consecutive trellis steps and revised instants are formatted together,
up to ``_SPAN`` numbers, and a candidate set, step or instant with few
cells is written as one text.
Exit codes: 0 success, 1 invalid input (usage errors included) or a
failed write to stdout, 2 no diagnosis (empty candidate set, no
admissible evolution, or undefined revision), 3 internal limits
(candidate cap, simulation horizon).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import chain, islice
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .atemporal import DEFAULT_CANDIDATE_CAP, ExplanationCriterion
from .errors import DiagnosisError, ValidationError
from .markov import classify_faults, matrix_powers
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
#: Numbers the trellis and revision sections format at once: a call of
#: ``modelio.texts`` costs microseconds, so short steps and instants are
#: formatted together, and a long one alone. Also the cells from which a
#: candidate set, step or instant streams its rows instead of being
#: written as one text.
_SPAN = 4096


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


def _spans(counts) -> list[tuple[int, int]]:
    """Runs ``(a, b)`` of consecutive items, item k printing ``counts[k]``
    numbers: each run prints at most ``_SPAN`` numbers, or is one item
    printing more."""
    spans, a, total = [], 0, 0
    for k, count in enumerate(counts):
        if k > a and total + count > _SPAN:
            spans.append((a, k))
            a, total = k, 0
        total += count
    return spans + [(a, len(counts))] if len(counts) else spans


def _joined(arrays, spans) -> list[np.ndarray]:
    """Per span, the 1-D arrays of its items as one; an item alone keeps
    its own array, so that a large one is never copied."""
    return [arrays[a] if b - a == 1 else np.concatenate(arrays[a:b])
            for a, b in spans]


def _cut(values: list, counts) -> list[list]:
    """``values`` cut into consecutive runs of the lengths ``counts``."""
    ends = np.cumsum(counts).tolist()
    return [values[end - count:end] for count, end in zip(counts, ends)]


def _per_item(spans, render):
    """Per item, its text or an iterator of its texts; ``render(span, a,
    b)`` returns those of the items ``a`` to ``b``, span number ``span``.
    A span is formatted when its first item is asked for, and its texts go
    with its last item."""
    for span, (a, b) in enumerate(spans):
        items = render(span, a, b)[::-1]
        while items:
            yield items.pop()


def _array(item: str, nl: str, cells) -> Iterator[str]:
    """The texts of a JSON array, closing after ``nl``, whose items fill the
    template ``item`` from the tuples ``cells``."""
    inner = nl + INDENT
    first = next(cells, None)
    if first is None:
        yield "[]"
        return
    yield "[" + inner + item % first
    yield from map(("," + inner + item).__mod__, cells)
    yield nl + "]"


def _filled(frame: str, nl: str, parts: list, whole: bool,
            ) -> Iterator[str]:
    """The texts of ``frame`` filled from ``parts``, each a list of cells
    or a tuple ``(item, count, rows)``: a JSON array, closing after
    ``nl``, of ``count`` items filling the template ``item`` from the
    tuples ``rows``. If ``whole``, the text is one; else each array
    streams its rows, and the frame is cut where its cells go: the writer
    escapes every control character it is given, so a NUL is only such a
    cut."""
    cells, arrays = [], []
    for part in parts:
        if type(part) is not tuple:
            cells += part
        elif whole:
            item, count, rows = part
            inner = nl + INDENT
            cells.append(("[" + inner + ("," + inner).join([item] * count)
                          + nl + "]" if count else "[]")
                         % tuple(chain.from_iterable(rows)))
        else:
            cells.append("\0")
            arrays.append(part)
    if whole:
        yield frame % tuple(cells)
        return
    first, *rest = (frame % tuple(cells)).split("\0")
    yield first
    for (item, _, rows), text in zip(arrays, rest):
        yield from _array(item, nl, rows)
        yield text


def _candidates_report(trellis, model):
    """``candidates``: per instant one object per row of its mode-index
    array. The names of all instants are looked up at once, and one
    template renders every row of the run."""
    def render(nl):
        item = nl + INDENT
        key = item + INDENT
        assignment = template(dict.fromkeys(sorted(
            c.id for c in model.components), TEXT), key + INDENT)
        frame = template({"assignments": TEXT, "t": TEXT}, item)
        names = map(tuple, _quoted(model, np.concatenate(
            trellis.modes)).tolist())
        for k, (t, modes) in enumerate(zip(trellis.instants, trellis.modes)):
            yield ("[" if k == 0 else ",") + item
            yield from _filled(frame, key, [
                (assignment, len(modes), islice(names, len(modes))),
                [int.__repr__(t)]], modes.size <= _SPAN)
        yield nl + "]" if trellis.instants else "[]"
    return section(render)


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
    components = {}
    for c in model.components:
        propagated = initials[c.id] @ matrix_powers(c.matrix, instants)
        components[c.id] = {"modes": list(c.modes), "distributions": [
            {"t": t, "probabilities": probabilities}
            for t, probabilities in zip(instants, propagated.tolist())]}
    print(f"propagated {len(model.components)} components over "
          f"{len(instants)} instants", file=sys.stderr)
    return {
        "instants": instants,
        "initial_distributions": {
            c.id: _distribution_dict(c.modes, initials[c.id])
            for c in model.components},
        "components": components,
    }


def _revision_report(revisions, model, indices):
    """``revision``: per instant, the revised joints of the paths ending
    there, the revised conditionals of the edges into it and every
    component's revision. Each of the three is formatted a span of
    instants at a time, its numbers at once; objects fill templates
    cached per shape. ``indices`` holds the text of every candidate
    index."""
    ids = sorted(c.id for c in model.components)
    modes = {c.id: c.modes for c in model.components}
    # per component its mode names quoted, and each mode's rank by name
    names = {c.id: np.array([quote(m) for m in c.modes], dtype=object)
             for c in model.components}
    ranks = {c.id: np.array([sorted(c.modes).index(m) for m in c.modes])
             for c in model.components}

    def blocks(shape) -> dict:
        """The shape of the ``components`` object of an instant whose
        components have these (id, modes, admitted count, revised
        transition count)."""
        return {comp: {
            "admitted": [TEXT] * admitted,
            "distribution": {"modes": list(modes),
                             "probabilities": [TEXT] * len(modes)},
            "mass_factor": TEXT,
            "posterior": {"modes": list(modes),
                          "probabilities": [TEXT] * len(modes)},
            "revised_transitions": [dict.fromkeys(
                ("from", "probability", "revised", "to"), TEXT)] * transitions,
        } for comp, modes, admitted, transitions in shape}

    norms = np.array([rev.factor for rev in revisions])
    evolution_spans = _spans([2 * len(rev.joints) for rev in revisions])
    joints, revised_joints = (_joined([getattr(rev, field) for rev in revisions],
                                      evolution_spans)
                              for field in ("joints", "revised_joints"))
    edge_spans = _spans([2 * len(rev.conditionals) for rev in revisions])
    conditionals, revised_conditionals, sources, targets = (
        _joined([getattr(rev, field) for rev in revisions], edge_spans)
        for field in ("conditionals", "revised_conditionals", "sources",
                      "targets"))
    # per component, each span's arrays of its blocks
    blocks_of = {comp: [rev.components[comp] for rev in revisions]
                 for comp in ids}
    block_spans = _spans([sum(2 * len(cr.distribution) + 1 + 2 * len(
        cr.entries) for cr in rev.components.values()) for rev in revisions])
    parts = {comp: {
        "distribution": [np.stack([cr.distribution for cr in crs[a:b]])
                         for a, b in block_spans],
        "factor": [np.array([cr.factor for cr in crs[a:b]])
                   for a, b in block_spans],
        "posterior": [np.stack([cr.posterior for cr in crs[a:b]])
                      for a, b in block_spans],
        **{field: _joined([getattr(cr, field) for cr in crs], block_spans)
           for field in ("admitted", "transitions", "entries",
                         "revised_entries")},
    } for comp, crs in blocks_of.items()}

    def render(nl):
        item = nl + INDENT
        key = item + INDENT
        evolution = template({"joint": TEXT, "path": TEXT,
                              "revised_joint": TEXT}, key + INDENT)
        conditional = template({"conditional": TEXT, "revised": TEXT,
                                "source": TEXT, "target": TEXT}, key + INDENT)
        # each path is an array of indices inside its evolution's object
        step, close = "," + key + 3 * INDENT, key + 2 * INDENT + "]"

        @cache
        def frame(shape):
            """An instant whose components have this shape, its arrays of
            evolutions and conditionals left as cells."""
            return template({
                "components": blocks(shape), "evolutions": TEXT,
                "normalization_factor": TEXT, "revised_conditionals": TEXT,
                "t": TEXT}, item)

        def evolution_items(span, a, b):
            cells = zip(texts(joints[span]).tolist(), (
                "[" + step[1:] + step.join(path) + close
                for rev in revisions[a:b]
                for path in indices[rev.path_indices].tolist()),
                texts(revised_joints[span]).tolist())
            return [islice(cells, len(rev.joints)) for rev in revisions[a:b]]

        def conditional_items(span, a, b):
            # keys sort the scores before the indices
            cells = zip(texts(conditionals[span]).tolist(),
                        texts(revised_conditionals[span]).tolist(),
                        indices[sources[span]].tolist(),
                        indices[targets[span]].tolist())
            return [islice(cells, len(rev.conditionals))
                    for rev in revisions[a:b]]

        def block_items(span, a, b):
            # per instant the cells in the template's order, component by
            # component: names sorted by rank, numbers formatted at once
            shapes, cells = [[] for _ in range(a, b)], [[] for _ in range(a, b)]
            for comp in ids:
                part, rank, quoted = parts[comp], ranks[comp], names[comp]
                admitted, moves = (part["admitted"][span],
                                   part["transitions"][span])
                counts = [len(cr.admitted) for cr in blocks_of[comp][a:b]]
                moved = [len(cr.entries) for cr in blocks_of[comp][a:b]]
                at = np.arange(b - a)
                admitted = admitted[np.lexsort((rank[admitted],
                                                np.repeat(at, counts)))]
                order = np.lexsort((rank[moves[:, 1]], rank[moves[:, 0]],
                                    np.repeat(at, moved)))
                steps = np.stack((
                    quoted[moves[order, 0]],
                    texts(part["entries"][span][order]),
                    texts(part["revised_entries"][span][order]),
                    quoted[moves[order, 1]]), axis=-1).ravel().tolist()
                for shape, cell, n, m, *block in zip(
                        shapes, cells, counts, moved,
                        _cut(quoted[admitted].tolist(), counts),
                        texts(part["distribution"][span]).tolist(),
                        texts(part["factor"][span]).tolist(),
                        texts(part["posterior"][span]).tolist(),
                        _cut(steps, [4 * m for m in moved])):
                    shape.append((comp, modes[comp], n, m))
                    names_, distribution, factor, posterior, transitions = block
                    cell += [*names_, *distribution, factor, *posterior,
                             *transitions]
            return [(tuple(shape), cell) for shape, cell in zip(shapes, cells)]

        factors = texts(norms).tolist()
        blocks_at = _per_item(block_spans, block_items)
        evolutions_at = _per_item(evolution_spans, evolution_items)
        conditionals_at = _per_item(edge_spans, conditional_items)
        for k, rev in enumerate(revisions):
            (shape, cells), paths, edges = (
                next(blocks_at), next(evolutions_at), next(conditionals_at))
            count, edge_count = len(rev.joints), len(rev.conditionals)
            yield ("[" if k == 0 else ",") + item
            yield from _filled(frame(shape), key, [
                cells, (evolution, count, paths), [factors[k]],
                (conditional, edge_count, edges), [int.__repr__(rev.t)]],
                rev.path_indices.size + 2 * (count + edge_count) <= _SPAN)
        yield nl + "]" if revisions else "[]"

    return section(render, norms, *joints, *revised_joints, *conditionals,
                   *revised_conditionals, *(
                       values for part in parts.values()
                       for field in ("distribution", "factor", "posterior",
                                     "entries", "revised_entries")
                       for values in part[field]))


def _trellis_report(trellis, model, indices):
    """``trellis``: per step, every edge with its factors (by component id),
    conditional and admissibility, formatted a span of steps at a time and
    rendered with one template. ``indices`` holds the text of every
    candidate index."""
    order = _by_id(model)
    spans = _spans([c.size * (len(order) + 1) for c in trellis.conditionals])
    factors = _joined([f.reshape(c.size, len(order)) for f, c in zip(
        trellis.factors, trellis.conditionals)], spans)
    conditionals, admissible = (_joined([a.ravel() for a in arrays], spans)
                                for arrays in (trellis.conditionals,
                                               trellis.admissible))
    shapes = [c.shape for c in trellis.conditionals]

    def render(nl):
        item = nl + INDENT
        key = item + INDENT
        edge = template({
            "admissible": TEXT, "conditional": TEXT,
            "factors": {model.components[c].id: TEXT for c in order},
            "source": TEXT, "target": TEXT}, key + INDENT)
        frame = template({"edges": TEXT, "from_t": TEXT, "to_t": TEXT}, item)

        def edges(span, a, b):
            # each edge's source and target within its step
            sizes = [n * m for n, m in shapes[a:b]]
            local = np.arange(sum(sizes)) - np.repeat(
                np.cumsum(sizes) - sizes, sizes)
            sources, targets = np.divmod(local, np.repeat(
                [m for _, m in shapes[a:b]], sizes))
            cells = zip(
                map(_JSON_BOOLS.__getitem__, admissible[span].tolist()),
                texts(conditionals[span]).tolist(),
                *texts(factors[span][:, order]).T.tolist(),
                indices[sources].tolist(), indices[targets].tolist())
            return [islice(cells, size) for size in sizes]

        steps = _per_item(spans, edges)
        for k, (before, after) in enumerate(zip(trellis.instants,
                                                trellis.instants[1:])):
            size = shapes[k][0] * shapes[k][1]
            yield ("[" if k == 0 else ",") + item
            yield from _filled(frame, key, [
                (edge, size, next(steps)), [int.__repr__(before),
                                            int.__repr__(after)]],
                size * (len(order) + 1) <= _SPAN)
        yield nl + "]" if len(trellis.instants) > 1 else "[]"

    return section(render, *factors, *conditionals)


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
