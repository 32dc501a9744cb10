"""Reference definitions the tests compare the engine with.

Each states one quantity for a single assignment, step or trajectory as
the definitions write it, with ``ModeAssignment`` objects and no arrays:
the explanation criteria, the prior and the per-component step factors,
the admissibility check, the joint by its recursion, and the
per-component revision. The engine computes all of them over mode-index
arrays; the property suites and unit tests check it against these,
bit for bit where the arithmetic is the same.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from tempdiag import (
    DiagnosticProblem,
    ExplanationCriterion,
    ModeAssignment,
    ModeDistribution,
    SystemModel,
    ThresholdMode,
    conditional_probability,
    matrix_power,
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
                      initials: Mapping[str, ModeDistribution],
                      model: SystemModel) -> float:
    """Probability of assignment ``w`` at its instant, from the initial
    distributions: the product over components of the assigned mode's mass
    after ``w.t`` propagation steps."""
    product = 1.0
    for c in model.components:
        pi_t = propagate_distribution(initials[c.id], c.matrix, w.t)
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


def component_mass_factor(pi_t: ModeDistribution,
                          admitted: Iterable[str]) -> float:
    """Per-component normalization: reciprocal of the chain mass the
    distribution puts on the logically admitted modes."""
    admitted = frozenset(admitted)
    if not admitted:
        raise ZeroAdmittedMassError("no admitted modes")
    # summed in declared mode order: set order varies with the string-hash seed
    mass = sum(pi_t.prob(m) for m in pi_t.modes if m in admitted)
    factor = 1.0 / mass if mass > 0.0 else math.inf
    if not math.isfinite(factor):
        raise ZeroAdmittedMassError(f"admitted modes {sorted(admitted)} carry "
                                    f"probability {mass!r}, too little to "
                                    "renormalize")
    return factor


def posterior_component_distribution(pi_t: ModeDistribution,
                                     admitted: Iterable[str],
                                     ) -> ModeDistribution:
    """Condition a component's distribution on the admitted mode set:
    zero out everything else and renormalize. The result is a proper
    distribution usable as the next propagation input."""
    admitted = frozenset(admitted)
    f = component_mass_factor(pi_t, admitted)
    return ModeDistribution(pi_t.modes, np.array([
        pi_t.prob(m) * f if m in admitted else 0.0 for m in pi_t.modes]))
