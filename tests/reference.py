"""Reference definitions the tests compare the engine with.

Each states one quantity for a single assignment, step or trajectory as
the definitions write it, with ``ModeAssignment`` objects and no arrays:
the explanation criteria, the prior, the per-component step factors and
the step conditional, the admissibility check, the joint by its
recursion, the global revision of joints and conditionals, and the
per-component revision and revised transition score. The engine computes
all of them over mode-index arrays; the property suites and unit tests
check it against these, bit for bit where the arithmetic is the same.

Three bridges read the engine's arrays back as objects: ``assignments``
turns a mode-index array into ``ModeAssignment`` objects, ``decode``
turns ``Evolutions`` into ``Diagnosis`` rows, so the suites compare whole
trajectories with ``==``, and ``named_revision`` gives a
``ComponentRevision``'s admitted modes and revised transitions by name.

Two helpers stand outside the engine: ``model_to_dict`` writes a model in
the input file format, and ``empirical_transition_matrix`` estimates the
n-step transition frequencies (an ``EmpiricalMatrix``) of sampled
trajectories, the Monte Carlo oracle for the matrix-power arithmetic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from tempdiag import (
    ComponentRevision,
    ComponentSpec,
    DiagnosticProblem,
    Evolutions,
    ExplanationCriterion,
    ModeAssignment,
    SampledTrajectory,
    SystemModel,
    ThresholdMode,
    matrix_power,
    normalization_factor,
    predicted_manifestations,
    propagate_distribution,
)
from tempdiag.errors import (
    EmptyCandidateSetError,
    NonIncreasingInstantsError,
    ZeroAdmittedMassError,
)


def is_explanation(w: ModeAssignment, obs_present: Iterable[str],
                   obs_absent: Iterable[str],
                   criterion: ExplanationCriterion,
                   model: SystemModel) -> bool:
    """Does ``w`` explain the observation under the given criterion?"""
    present = frozenset(obs_present)
    absent = frozenset(obs_absent)
    predicted = predicted_manifestations(w, model)

    if predicted & absent:
        return False
    for atom in present:
        if model.exclusive_partners(atom) & predicted:
            return False
    if criterion is ExplanationCriterion.ABDUCTIVE:
        return present <= predicted
    return True


def prior_probability(w: ModeAssignment,
                      initials: Mapping[str, np.ndarray],
                      model: SystemModel) -> float:
    """Probability of assignment ``w`` at its instant, from the initial
    distributions: the product over components of the assigned mode's mass
    after ``w.t`` propagation steps."""
    product = 1.0
    for c in model.components:
        pi_t = propagate_distribution(initials[c.id], c.matrix, w.t)
        product *= float(pi_t[c.modes.index(w.as_dict()[c.id])])
    return product


def step_factors(w_prev: ModeAssignment, w_next: ModeAssignment,
                 model: SystemModel) -> dict[str, float]:
    """Per-component n-step transition entries for a candidate step."""
    n = w_next.t - w_prev.t
    if n <= 0:
        raise NonIncreasingInstantsError(
            f"step from t={w_prev.t} to t={w_next.t} does not advance time")
    prev, nxt = w_prev.as_dict(), w_next.as_dict()
    return {
        c.id: float(matrix_power(c.matrix, n)[
            c.modes.index(prev[c.id]), c.modes.index(nxt[c.id])])
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
                      initials: Mapping[str, np.ndarray],
                      model: SystemModel) -> float:
    """Joint probability of a whole evolution, computed by the recursion
    joint(k) = joint(k-1) * P[W(t_k) | W(t_{k-1})]."""
    if not trajectory:
        raise EmptyCandidateSetError("empty trajectory")
    joint = prior_probability(trajectory[0], initials, model)
    for prev, nxt in zip(trajectory, trajectory[1:]):
        joint *= conditional_probability(prev, nxt, model)
    return joint


def revise_global(joints: Sequence[float], conditionals: Sequence[float],
                  ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Scale joints and step conditionals by the normalization factor.

    The revised joints sum to 1; the revised conditionals are scores.
    """
    factor = normalization_factor(joints)
    return (tuple(j * factor for j in joints),
            tuple(c * factor for c in conditionals))


def component_mass_factor(modes: Sequence[str], pi_t: np.ndarray,
                          admitted: Iterable[str]) -> float:
    """Per-component normalization: reciprocal of the chain mass the
    distribution over ``modes`` puts on the logically admitted modes."""
    admitted = frozenset(admitted)
    if not admitted:
        raise ZeroAdmittedMassError("no admitted modes")
    # summed left to right in declared mode order: set order varies with the
    # string-hash seed, and sum() compensates rounding from Python 3.12 on
    mass = reduce(operator.add, (p for m, p in zip(
        modes, pi_t.tolist()) if m in admitted), 0.0)
    factor = 1.0 / mass if mass > 0.0 else math.inf
    if not math.isfinite(factor):
        raise ZeroAdmittedMassError(f"admitted modes {sorted(admitted)} carry "
                                    f"probability {mass!r}, too little to "
                                    "renormalize")
    return factor


def posterior_component_distribution(modes: Sequence[str], pi_t: np.ndarray,
                                     admitted: Iterable[str],
                                     ) -> np.ndarray:
    """Condition a component's distribution over ``modes`` on the admitted
    mode set:
    zero out everything else and renormalize. The result is a proper
    distribution usable as the next propagation input."""
    admitted = frozenset(admitted)
    f = component_mass_factor(modes, pi_t, admitted)
    return np.array([p * f if m in admitted else 0.0
                     for m, p in zip(modes, pi_t.tolist())])


def revise_transition(p_k: float, f: float) -> float:
    """Revised n-step transition score ``p_k * f(c, t)``."""
    return p_k * f


def assignments(model: SystemModel, t: int,
                modes: np.ndarray) -> list[ModeAssignment]:
    """The rows of a |L| x C mode-index array as assignments at ``t``:
    column c indexes the declared modes of ``model.components[c]``."""
    return [_assignment(model, t, row) for row in modes.tolist()]


def _assignment(model: SystemModel, t: int,
                row: Sequence[int]) -> ModeAssignment:
    return ModeAssignment(t, tuple((c.id, c.modes[i])
                                   for c, i in zip(model.components, row)))


class Diagnosis(NamedTuple):
    """One evolution: an assignment per instant, the probability of the
    first, the step conditionals and their product with it."""

    trajectory: tuple[ModeAssignment, ...]
    prior: float
    step_conditionals: tuple[float, ...]
    joint_probability: float


def decode(model: SystemModel, evolutions: Evolutions) -> list[Diagnosis]:
    """The rows of ``evolutions`` as ``Diagnosis`` tuples, in their order."""
    return [
        Diagnosis(tuple(_assignment(model, evolutions.times[i], row)
                        for i, row in zip(instants[:n], modes[:n])),
                  prior, tuple(steps[:n - 1]), joint)
        for instants, modes, prior, steps, joint, n in zip(
            evolutions.instants.tolist(), evolutions.modes.tolist(),
            evolutions.priors.tolist(), evolutions.steps.tolist(),
            evolutions.joints.tolist(), evolutions.lengths.tolist())]


def named_revision(component: ComponentSpec, revision: ComponentRevision,
                   ) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """A component revision's admitted modes and its revised transitions,
    ``(from, to, n-step entry, revised score)``, by mode name and sorted."""
    names = component.modes
    return (tuple(sorted(names[i] for i in revision.admitted.tolist())),
            tuple(sorted((names[a], names[b], p, r) for (a, b), p, r in zip(
                revision.transitions.tolist(), revision.entries.tolist(),
                revision.revised_entries.tolist()))))


def model_to_dict(model: SystemModel) -> dict:
    return {
        "components": [
            {
                "id": c.id,
                "modes": list(c.modes),
                "correct_mode": c.correct_mode,
                "matrix": [[float(x) for x in row] for row in c.matrix],
                "initial_distribution":
                    None if c.initial_distribution is None
                    else [float(x) for x in c.initial_distribution],
            }
            for c in model.components
        ],
        "rules": [
            {
                "body": [{"component": comp, "mode": mode}
                         for comp, mode in sorted(r.body)],
                "head": r.head,
            }
            for r in model.rules
        ],
        "exclusive": sorted(sorted(pair) for pair in model.exclusive),
    }


@dataclass(frozen=True, eq=False)
class EmpiricalMatrix:
    """Observed n-step transition frequencies for one component.

    Rows never visited keep NaN frequencies and a zero ``row_visits`` entry
    instead of a fabricated distribution.
    """

    modes: tuple[str, ...]
    counts: np.ndarray
    frequencies: np.ndarray
    row_visits: np.ndarray

    def frequency(self, from_mode: str, to_mode: str) -> float:
        i = self.modes.index(from_mode)
        j = self.modes.index(to_mode)
        return float(self.frequencies[i, j])


def empirical_transition_matrix(samples: Sequence[SampledTrajectory],
                                component: ComponentSpec,
                                n: int) -> EmpiricalMatrix:
    """Row-normalized frequencies of (mode at t -> mode at t+n) pairs
    pooled over all samples and all valid t."""
    if not samples:
        raise ValueError("need at least one sampled trajectory")
    modes = tuple(component.modes)
    index = {m: i for i, m in enumerate(modes)}
    counts = np.zeros((len(modes), len(modes)), dtype=np.int64)
    for traj in samples:
        seq = traj.modes[component.id]
        for t in range(len(seq) - n):
            counts[index[seq[t]], index[seq[t + n]]] += 1
    visits = counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        freq = counts / visits[:, None]
    return EmpiricalMatrix(modes, counts, freq, visits)
