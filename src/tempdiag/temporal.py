"""Temporal diagnosis: rank mode evolutions across the observed instants.

The engine solves the atemporal problem at every instant carrying
observations, lays the candidate sets out as layers of a trellis, connects
consecutive layers with edges weighted by the n-step conditional probability
of the joint mode change, filters edges against the plausibility threshold,
and enumerates the surviving evolutions ranked by joint probability.

Because components evolve independently, an evolution's probability
factorizes: the joint probability of a trajectory is the prior of its first
assignment times the product of its consecutive step conditionals, each of
which is itself a product of per-component n-step matrix entries.

The trellis is built as arrays, one step at a time (the HMM trellis layout).
Each layer is the |L| x C array of mode indices the atemporal solver
returns; ``ModeAssignment`` objects are built only for ranked trajectories.
For a step across a gap of n instants, each component's ``P^n`` is computed
once and fancy-indexed by the two layers' mode columns into an
|L_k| x |L_k+1| block of factors; the conditionals are the blocks' product
in model component order, and admissibility is a boolean mask.
``forward_paths`` expands the admissible paths over those arrays with their
joints, one layer at a time, for enumeration, revision and
``rank_trajectories``; no other engine code computes a joint, and ``_ranked``
holds the only ranking rule. ``prior_probability``, ``step_factors``,
``conditional_probability``, ``admissible_step`` and ``joint_probability``
are the per-edge reference definitions the tests compare the arrays with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .atemporal import (
    DEFAULT_CANDIDATE_CAP,
    ExplanationCriterion,
    ModeAssignment,
    assignments,
    solve_atemporal,
)
from .errors import (
    EmptyCandidateSetError,
    EmptyStreamError,
    MissingInitialDistributionError,
    NoAdmissibleEvolutionError,
    NoCandidatesError,
    NonIncreasingInstantsError,
    ValidationError,
)
from .markov import (
    ModeDistribution,
    matrix_power,
    propagate_distribution,
)
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


@dataclass(frozen=True)
class TemporalDiagnosis:
    """One admissible evolution: an assignment per relevant instant.

    ``joint_probability`` equals ``prior``, the probability of the first
    assignment, times the product of ``step_conditionals``.
    """

    trajectory: tuple[ModeAssignment, ...]
    joint_probability: float
    step_conditionals: tuple[float, ...]
    prior: float


@dataclass(frozen=True, eq=False)
class Trellis:
    """Layered candidate graph over the relevant instants.

    ``modes[k]`` holds the candidates at ``instants[k]`` as a |L_k| x C
    array of mode indices: column c is ``model.components[c]``, each entry
    an index into that component's declared modes. Step k joins layer k to
    layer k + 1: ``factors[k][i, j, c]`` is component c's n-step entry for
    candidate i to candidate j, ``conditionals[k][i, j]`` the product of
    those entries, and ``admissible[k][i, j]`` the threshold check under
    the problem's threshold mode.
    """

    instants: tuple[int, ...]
    modes: tuple[np.ndarray, ...]
    initials: Mapping[str, ModeDistribution]
    priors: tuple[float, ...]
    factors: tuple[np.ndarray, ...]
    conditionals: tuple[np.ndarray, ...]
    admissible: tuple[np.ndarray, ...]


def relevant_instants(obs: ObservationStream) -> list[int]:
    """The time points carrying observations, in order."""
    if not obs.entries:
        raise EmptyStreamError("observation stream has no entries")
    return [entry.t for entry in obs.entries]


def induce_initial_distributions(model: SystemModel, modes: np.ndarray,
                                 ) -> dict[str, ModeDistribution]:
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
    return {c.id: ModeDistribution(c.modes, np.bincount(
                modes[:, ci], weights, minlength=len(c.modes)))
            for ci, c in enumerate(model.components)}


def resolve_initial_distributions(
        model: SystemModel,
        first_instant: int | None = None,
        first_candidates: np.ndarray | None = None,
) -> dict[str, ModeDistribution]:
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
            n = len(c.modes)
            out[c.id] = ModeDistribution(c.modes, [1.0 / n] * n)
    return out


def prior_probability(w: ModeAssignment,
                      initials: Mapping[str, ModeDistribution],
                      model: SystemModel) -> float:
    """Probability of assignment ``w`` at its instant, from the initial
    distributions: the product over components of the assigned mode's mass
    after ``w.t`` propagation steps."""
    product = 1.0
    for c in model.components:
        pi0 = initials.get(c.id)
        if pi0 is None:
            raise MissingInitialDistributionError(
                f"no initial distribution for component {c.id!r}",
                element=c.id)
        pi_t = propagate_distribution(pi0, c.matrix, w.t)
        product *= pi_t.prob(w.mode_of(c.id))
    return product


def step_factors(w_prev: ModeAssignment, w_next: ModeAssignment,
                 model: SystemModel) -> dict[str, float]:
    """Per-component n-step transition entries for a candidate step."""
    n = w_next.t - w_prev.t
    if n <= 0:
        raise NonIncreasingInstantsError(
            f"step from t={w_prev.t} to t={w_next.t} does not advance time")
    return {
        c.id: matrix_power(c.matrix, n).prob(w_prev.mode_of(c.id),
                                             w_next.mode_of(c.id))
        for c in model.components
    }


def conditional_probability(w_prev: ModeAssignment, w_next: ModeAssignment,
                            model: SystemModel) -> float:
    """P[next assignment | previous assignment] across a time gap: the
    product of per-component n-step entries (components are independent)."""
    return math.prod(step_factors(w_prev, w_next, model).values())


def admissible_step(w_prev: ModeAssignment, w_next: ModeAssignment,
                    problem: DiagnosticProblem) -> bool:
    """Does the step meet the plausibility threshold?

    The comparison is ``>=``, so at sigma = 0 even probability-0 steps pass
    (they rank last with joint probability 0).
    """
    factors = step_factors(w_prev, w_next, problem.model)
    if problem.threshold_mode is ThresholdMode.PER_COMPONENT:
        return all(p >= problem.sigma for p in factors.values())
    return math.prod(factors.values()) >= problem.sigma


def joint_probability(trajectory: Sequence[ModeAssignment],
                      initials: Mapping[str, ModeDistribution],
                      model: SystemModel) -> float:
    """Joint probability of a whole evolution, computed by the recursion
    joint(k) = joint(k-1) * P[W(t_k) | W(t_{k-1})]."""
    if not trajectory:
        raise EmptyCandidateSetError("empty trajectory")
    joint = prior_probability(trajectory[0], initials, model)
    for prev, nxt in zip(trajectory, trajectory[1:]):
        joint *= conditional_probability(prev, nxt, model)
    return joint


def trellis_from_layers(
        model: SystemModel, instants: Sequence[int],
        modes: Sequence[np.ndarray],
        initials: Mapping[str, ModeDistribution], sigma: float = 0.0,
        threshold_mode: ThresholdMode = ThresholdMode.GLOBAL) -> Trellis:
    """The trellis arrays over given candidate layers, each a |L| x C
    mode-index array: priors and, per step, the factors, conditionals and
    admissibility masks.

    Raises:
        NonIncreasingInstantsError: some instant does not follow the one
            before it.
    """
    priors = np.ones(len(modes[0]))
    for ci, c in enumerate(model.components):
        pi_t = propagate_distribution(initials[c.id], c.matrix, instants[0])
        priors *= pi_t.probabilities[modes[0][:, ci]]

    powers: dict[tuple[int, int], np.ndarray] = {}
    factors, conditionals, admissible = [], [], []
    for k in range(len(modes) - 1):
        n = instants[k + 1] - instants[k]
        if n <= 0:
            raise NonIncreasingInstantsError(
                f"step from t={instants[k]} to t={instants[k + 1]} does not "
                "advance time")
        shape = (len(modes[k]), len(modes[k + 1]))
        factor = np.empty(shape + (len(model.components),))
        # multiplied in component order from 1.0, as math.prod does per edge
        conditional = np.ones(shape)
        for ci, c in enumerate(model.components):
            if (ci, n) not in powers:
                powers[ci, n] = matrix_power(c.matrix, n).entries
            factor[..., ci] = powers[ci, n][modes[k][:, ci, None],
                                            modes[k + 1][None, :, ci]]
            conditional *= factor[..., ci]
        if threshold_mode is ThresholdMode.PER_COMPONENT:
            ok = np.all(factor >= sigma, axis=-1)
        else:
            ok = conditional >= sigma
        factors.append(factor)
        conditionals.append(conditional)
        admissible.append(ok)

    return Trellis(tuple(instants), tuple(modes),
                   initials, tuple(priors.tolist()), tuple(factors),
                   tuple(conditionals), tuple(admissible))


def build_trellis(problem: DiagnosticProblem) -> Trellis:
    """Solve every atemporal problem and materialize the full trellis.

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

    layers = []
    for entry in problem.observations.entries:
        candidates = solve_atemporal(model, entry, problem.criterion,
                                     problem.candidate_cap)
        if not len(candidates):
            raise NoCandidatesError(entry.t)
        layers.append(candidates)

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
    joints = np.array(trellis.priors)
    yield paths, joints
    for conditional, admissible in zip(trellis.conditionals,
                                       trellis.admissible):
        last = paths[:, -1]
        rows, targets = np.nonzero(admissible[last])
        joints = joints[rows] * conditional[last[rows], targets]
        paths = np.concatenate((paths[rows], targets[:, None]), axis=1)
        yield paths, joints


def _evolutions(model: SystemModel,
                trellis: Trellis) -> list[TemporalDiagnosis]:
    """One diagnosis per admissible path through the whole trellis, in the
    forward pass's order, with its prior, step conditionals and joint."""
    for paths, joints in forward_paths(trellis):
        pass  # the last layer's paths are the complete evolutions
    steps = np.empty((len(paths), len(trellis.conditionals)))
    for k, conditional in enumerate(trellis.conditionals):
        steps[:, k] = conditional[paths[:, k], paths[:, k + 1]]
    layers = [assignments(model, t, modes)
              for t, modes in zip(trellis.instants, trellis.modes)]
    return [
        TemporalDiagnosis(
            tuple(layer[i] for layer, i in zip(layers, indices)),
            joint, tuple(conditionals), trellis.priors[indices[0]])
        for indices, joint, conditionals in zip(
            paths.tolist(), joints.tolist(), steps.tolist())]


def _ranked(diagnoses: list[TemporalDiagnosis]) -> list[TemporalDiagnosis]:
    """By descending joint probability; ties go to the trajectory that sorts
    first instant by instant, by ``t`` and then by mode name in component-id
    order (``ModeAssignment`` order, not candidate-row order when modes are
    not declared in name order). Equal trajectories keep their order."""
    return sorted(diagnoses,
                  key=lambda d: (-d.joint_probability, d.trajectory))


def enumerate_temporal_diagnoses(
        problem: DiagnosticProblem,
        trellis: Trellis | None = None) -> list[TemporalDiagnosis]:
    """Every evolution whose consecutive steps are admissible, ranked by
    descending joint probability with ties broken as ``_ranked`` says.

    Raises:
        NoAdmissibleEvolutionError: candidates exist at every instant but no
            evolution survives the threshold.
    """
    if trellis is None:
        trellis = build_trellis(problem)
    results = _evolutions(problem.model, trellis)
    if not results:
        raise NoAdmissibleEvolutionError(
            "no evolution passes the plausibility filter at "
            f"sigma={problem.sigma}")
    return _ranked(results)


def rank_trajectories(model: SystemModel, trajectories: Sequence[Sequence[
        ModeAssignment]]) -> list[TemporalDiagnosis]:
    """Given trajectories, scored and ranked like diagnoses: each is a trellis
    with one candidate per instant, under the initial distributions resolved
    without induction."""
    initials = resolve_initial_distributions(model)
    scored = []
    for trajectory in trajectories:
        modes = np.array([[[c.modes.index(w.mode_of(c.id))
                            for c in model.components]] for w in trajectory])
        scored += _evolutions(model, trellis_from_layers(
            model, [w.t for w in trajectory], modes, initials))
    return _ranked(scored)
