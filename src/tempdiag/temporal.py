"""Temporal diagnosis: rank mode evolutions across the observed instants.

The engine solves the atemporal problem once per distinct observation,
lays the candidate sets out as layers of a trellis, connects
consecutive layers with edges weighted by the n-step conditional probability
of the joint mode change, filters edges against the plausibility threshold,
and enumerates the surviving evolutions ranked by joint probability.

Because components evolve independently, an evolution's probability
factorizes: the joint probability of a trajectory is the prior of its first
assignment times the product of its consecutive step conditionals, each of
which is itself a product of per-component n-step matrix entries.

The trellis is built as arrays (the HMM trellis layout). Each layer is the
|L| x C array of mode indices the atemporal solver returns. Each
component's ``P^n`` is computed once per distinct gap n, and the edges of
all steps, laid out flat, are one fancy index per component into those
stacked powers; step k's |L_k| x |L_k+1| blocks of factors, conditionals
(their product in model component order) and admissibility masks are views
of the flat arrays.
``forward_paths`` expands the admissible paths over those arrays with their
joints, one layer at a time, for enumeration, revision and ranking; no
other engine code computes a joint. ``ranked_paths`` lays the complete
paths out as mode-index arrays (``Evolutions``) and holds the only ranking
rule, one ``np.lexsort``. ``enumerate_evolutions`` serves a diagnostic
problem and ``rank_evolutions`` supplied trajectories; both return
``Evolutions``, the one form an evolution takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .atemporal import (
    DEFAULT_CANDIDATE_CAP,
    ExplanationCriterion,
    ModeAssignment,
    solve_atemporal,
)
from .errors import (
    EmptyCandidateSetError,
    EmptyStreamError,
    NoAdmissibleEvolutionError,
    NoCandidatesError,
    NonIncreasingInstantsError,
    ValidationError,
)
from .markov import matrix_powers
from .model import ObservationStream, SystemModel


class ThresholdMode(Enum):
    """Where the plausibility threshold is applied.

    GLOBAL compares the full conditional probability of a step against the
    threshold; PER_COMPONENT compares every component's own n-step entry
    against it. A global pass implies every per-component factor passes,
    not vice versa.
    """

    GLOBAL = "global"
    PER_COMPONENT = "per_component"


@dataclass(frozen=True)
class DiagnosticProblem:
    """A system model, its observations, and the filtering configuration."""

    model: SystemModel
    observations: ObservationStream
    sigma: float = 0.0
    threshold_mode: ThresholdMode = ThresholdMode.GLOBAL
    criterion: ExplanationCriterion = ExplanationCriterion.ABDUCTIVE
    candidate_cap: int = DEFAULT_CANDIDATE_CAP


@dataclass(frozen=True, eq=False)
class Trellis:
    """Layered candidate graph over the relevant instants.

    ``modes[k]`` holds the candidates at ``instants[k]`` as a |L_k| x C
    array of mode indices: column c is ``model.components[c]``, each entry
    an index into that component's declared modes. Step k joins layer k to
    layer k + 1: ``factors[k][i, j, c]`` is component c's n-step entry for
    candidate i to candidate j, ``conditionals[k][i, j]`` the product of
    those entries, and ``admissible[k][i, j]`` the threshold check under
    the problem's threshold mode. ``priors[i]`` is candidate i's probability
    at the first instant under the ``initials`` (an array per component).
    """

    instants: tuple[int, ...]
    modes: tuple[np.ndarray, ...]
    initials: Mapping[str, np.ndarray]
    priors: np.ndarray
    factors: tuple[np.ndarray, ...]
    conditionals: tuple[np.ndarray, ...]
    admissible: tuple[np.ndarray, ...]


def relevant_instants(obs: ObservationStream) -> list[int]:
    """The time points carrying observations, in order."""
    if not obs.entries:
        raise EmptyStreamError("observation stream has no entries")
    return [entry.t for entry in obs.entries]


def induce_initial_distributions(model: SystemModel, modes: np.ndarray,
                                 ) -> dict[str, np.ndarray]:
    """Turn the candidate set at the first instant, a |L| x C mode-index
    array, into per-component initial distributions over the declared modes.

    Every candidate gets mass ``1/|L|``; a component's probability of being
    in mode m is the mass of the candidates assigning m to it, added
    candidate by candidate.
    """
    if not len(modes):
        raise EmptyCandidateSetError("cannot induce distributions from an "
                                     "empty candidate set")
    weights = np.full(len(modes), 1.0 / len(modes))
    return {c.id: np.bincount(modes[:, ci], weights, minlength=len(c.modes))
            for ci, c in enumerate(model.components)}


def resolve_initial_distributions(
        model: SystemModel,
        first_instant: int | None = None,
        first_candidates: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Initial distribution per component, resolved in priority order:
    the component's own declaration, then uniform induction from the
    candidate set (a mode-index array) when the first relevant instant is
    0, then the uniform distribution over the component's modes.
    """
    induced = None
    if first_instant == 0 and first_candidates is not None and len(
            first_candidates):
        induced = induce_initial_distributions(model, first_candidates)
    out = {}
    for c in model.components:
        if c.initial_distribution is not None:
            out[c.id] = c.initial_distribution
        elif induced is not None:
            out[c.id] = induced[c.id]
        else:
            out[c.id] = np.full(len(c.modes), 1.0 / len(c.modes))
    return out


def trellis_from_layers(
        model: SystemModel, instants: Sequence[int],
        modes: Sequence[np.ndarray],
        initials: Mapping[str, np.ndarray], sigma: float = 0.0,
        threshold_mode: ThresholdMode = ThresholdMode.GLOBAL) -> Trellis:
    """The trellis arrays over given candidate layers, each a |L| x C
    mode-index array: priors and, per step, the factors, conditionals and
    admissibility masks.

    The edges of every step are laid out flat, step by step and row-major
    within a step, and each component's factors are one gather from the
    stacked powers of the distinct gaps; the per-step arrays are views of
    the flat ones.

    Raises:
        NonIncreasingInstantsError: some instant does not follow the one
            before it.
    """
    gaps = [after - before for before, after in zip(instants, instants[1:])]
    for k, n in enumerate(gaps):
        if n <= 0:
            raise NonIncreasingInstantsError(
                f"step from t={instants[k]} to t={instants[k + 1]} does not "
                "advance time")
    distinct = sorted(set(gaps))
    position = {n: i for i, n in enumerate(distinct)}

    # the rows of all layers; each row but the last layer's is the source
    # of one edge to every row of the next layer
    sizes = np.array([len(layer) for layer in modes])
    rows = np.concatenate(modes)
    starts = np.cumsum(sizes) - sizes
    widths = np.repeat(sizes[1:], sizes[:-1])  # edges per source row
    firsts = np.cumsum(widths) - widths  # each source row's first edge
    targets = np.arange(widths.sum()) + np.repeat(
        np.repeat(starts[1:], sizes[:-1]) - firsts, widths)
    sources = rows[:len(widths)]
    gap = np.repeat([position[n] for n in gaps], sizes[:-1]).astype(np.intp)

    priors = np.ones(len(modes[0]))
    factors = np.empty((len(targets), len(model.components)))
    # multiplied in component order from 1.0, as the product per edge
    conditionals = np.ones(len(targets))
    for ci, c in enumerate(model.components):
        powers = matrix_powers(c.matrix, [instants[0], *distinct])
        priors *= (initials[c.id] @ powers[0])[modes[0][:, ci]]
        m = len(c.modes)  # one flat index into the stacked gap powers
        factors[:, ci] = powers[1:].take(np.repeat(
            (gap * m + sources[:, ci]) * m, widths) + rows[targets, ci])
        conditionals *= factors[:, ci]
    if threshold_mode is ThresholdMode.PER_COMPONENT:
        admissible = np.all(factors >= sigma, axis=-1)
    else:
        admissible = conditionals >= sigma

    ends = np.cumsum(sizes[:-1] * sizes[1:]).tolist()
    shapes = list(zip(sizes[:-1].tolist(), sizes[1:].tolist()))
    return Trellis(
        tuple(instants), tuple(modes), initials, priors,
        *(tuple(flat[end - n * m:end].reshape(n, m, *flat.shape[1:])
                for end, (n, m) in zip(ends, shapes))
          for flat in (factors, conditionals, admissible)))


def build_trellis(problem: DiagnosticProblem) -> Trellis:
    """Solve every atemporal problem and materialize the full trellis.
    Each distinct observation, a ``(present, absent)`` pair, is solved
    once; instants that repeat it share its candidate array.

    Raises:
        NoCandidatesError: some instant has no atemporal solution.
    """
    if not 0.0 <= problem.sigma <= 1.0:
        raise ValidationError(
            f"sigma must lie in [0, 1], got {problem.sigma!r}")
    if problem.candidate_cap < 1:  # every assignment space holds at least one
        raise ValidationError(
            f"candidate cap must be at least 1, got {problem.candidate_cap!r}")
    model = problem.model
    instants = relevant_instants(problem.observations)

    layers, solved = [], {}
    for entry in problem.observations.entries:
        key = entry.present, entry.absent
        if key not in solved:
            solved[key] = solve_atemporal(model, entry, problem.criterion,
                                          problem.candidate_cap)
        if not len(solved[key]):
            raise NoCandidatesError(entry.t)
        layers.append(solved[key])

    initials = resolve_initial_distributions(model, instants[0], layers[0])
    return trellis_from_layers(model, instants, layers, initials,
                               problem.sigma, problem.threshold_mode)


def forward_paths(trellis: Trellis) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The admissible partial evolutions, one layer at a time.

    For layer k it yields a |P| x (k + 1) array whose rows are the candidate
    indices of the paths from layer 0 along admissible steps, in
    lexicographic order, and the joint of each path: its prior times its
    step conditionals, multiplied left to right. A layer with no path leaves
    every later layer empty. Only the current layer is kept alive.
    """
    paths = np.arange(len(trellis.modes[0]))[:, None]
    joints = trellis.priors
    yield paths, joints
    for conditional, admissible in zip(trellis.conditionals,
                                       trellis.admissible):
        last = paths[:, -1]
        rows, targets = np.nonzero(admissible[last])
        joints = joints[rows] * conditional[last[rows], targets]
        paths = np.concatenate((paths[rows], targets[:, None]), axis=1)
        yield paths, joints


@dataclass(frozen=True, eq=False)
class Evolutions:
    """Evolutions as arrays, one row each, in ranked order.

    At its k-th step evolution e is at instant ``times[instants[e, k]]`` in
    the modes ``modes[e, k]`` (column c indexes the declared modes of
    ``model.components[c]``); both hold -1 past the end of an evolution
    shorter than the longest. ``steps[e, k]`` is its k-th step conditional
    (NaN past the end), ``priors[e]`` the probability of its first
    assignment and ``joints[e]`` the prior times the steps.
    """

    times: tuple[int, ...]
    instants: np.ndarray
    modes: np.ndarray
    priors: np.ndarray
    steps: np.ndarray
    joints: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        """The number of instants of each evolution."""
        return np.count_nonzero(self.instants >= 0, axis=1)


def ranked_paths(model: SystemModel,
                 trellises: Sequence[Trellis]) -> Evolutions:
    """The complete admissible paths of the trellises, ranked by descending
    joint. Ties go to the evolution that sorts first instant by instant, by
    ``t`` and then by mode name in component-id order (``ModeAssignment``
    order, not declared mode order), and a prefix sorts before its
    extensions. Equal evolutions keep their order: the trellises' and,
    within one trellis, the forward pass's."""
    times = sorted({t for trellis in trellises for t in trellis.instants})
    position = {t: i for i, t in enumerate(times)}
    # with no trellis any length will do; one keeps every shape valid
    n = max((len(trellis.instants) for trellis in trellises), default=1)
    width = len(model.components)
    parts = [(np.empty((0, n), int), np.empty((0, n, width), int),
              np.empty(0), np.empty((0, n - 1)), np.empty(0))]
    for trellis in trellises:
        for paths, joints in forward_paths(trellis):
            pass  # the last layer's paths are the complete evolutions
        count, length = paths.shape
        instants = np.full((count, n), -1)
        instants[:, :length] = [position[t] for t in trellis.instants]
        # one gather each from the concatenated layers and the flattened
        # conditionals, at each path cell's offset
        sizes = np.array([len(layer) for layer in trellis.modes])
        edges = sizes[:-1] * sizes[1:]
        modes = np.full((count, n, width), -1)
        modes[:, :length] = np.concatenate(trellis.modes)[
            paths + (np.cumsum(sizes) - sizes)]
        steps = np.full((count, n - 1), np.nan)
        steps[:, :length - 1] = np.concatenate(
            [np.empty(0), *(c.ravel() for c in trellis.conditionals)])[
            paths[:, :-1] * sizes[1:] + paths[:, 1:] + (np.cumsum(edges)
                                                        - edges)]
        parts.append((instants, modes, trellis.priors[paths[:, 0]],
                      steps, joints))
    instants, modes, priors, steps, joints = map(np.concatenate, zip(*parts))

    # per instant the keys are its t and each component's mode rank by
    # name, in id order; the -1 past an evolution's end sorts it first
    keys = [instants[..., None]]
    for ci in sorted(range(width), key=lambda ci: model.components[ci].id):
        names = model.components[ci].modes
        ranks = np.array([sorted(names).index(m) for m in names] + [-1])
        keys.append(ranks[modes[..., ci, None]])  # index -1 stays -1
    keys = np.concatenate(keys, axis=2).reshape(len(joints), n * (width + 1))
    order = np.lexsort((*keys.T[::-1], -joints))
    return Evolutions(tuple(times), instants[order], modes[order],
                      priors[order], steps[order], joints[order])


def enumerate_evolutions(problem: DiagnosticProblem,
                         trellis: Trellis) -> Evolutions:
    """Every evolution of the problem's trellis whose consecutive steps are
    admissible, ranked as ``ranked_paths`` says.

    Raises:
        NoAdmissibleEvolutionError: candidates exist at every instant but no
            evolution survives the threshold.
    """
    evolutions = ranked_paths(problem.model, [trellis])
    if not len(evolutions.joints):
        raise NoAdmissibleEvolutionError(
            "no evolution passes the plausibility filter at "
            f"sigma={problem.sigma}")
    return evolutions


def rank_evolutions(model: SystemModel, trajectories: Sequence[Sequence[
        ModeAssignment]]) -> Evolutions:
    """Given trajectories, scored and ranked like diagnoses: each is a trellis
    with one candidate per instant, under the initial distributions resolved
    without induction."""
    initials = resolve_initial_distributions(model)
    ids = [c.id for c in model.components]
    index = [{m: i for i, m in enumerate(c.modes)} for c in model.components]
    trellises = []
    for trajectory in trajectories:
        layers = np.array([[[i[m] for i, m in zip(index, map(
            w.as_dict().__getitem__, ids))]] for w in trajectory], dtype=int)
        trellises.append(trellis_from_layers(
            model, [w.t for w in trajectory], layers, initials))
    return ranked_paths(model, trellises)
