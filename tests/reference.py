"""Reference definitions the tests compare the engine with.

Each states one quantity for a single assignment, step or trajectory as
the definitions write it, with ``ModeAssignment`` objects and no arrays:
the explanation criteria, the prior, the per-component step factors and
the step conditional, the admissibility check, the joint by its
recursion, the global revision of joints and conditionals with its
``normalization_factor``, and the per-component revision with its
``component_mass_factor`` and revised transition score. The engine
computes all of them over mode-index arrays, and none of them calls the
engine's own revision code; the property suites and unit tests check it
against these, bit for bit where the arithmetic is the same.

Six bridges read the engine's arrays back as objects: ``assignments``
turns a mode-index array into ``ModeAssignment`` objects, ``decode``
turns ``Evolutions`` into ``Diagnosis`` rows, so the suites compare whole
trajectories with ``==``, ``instant_revision`` slices one instant out of
a ``StreamRevision``'s flat arrays, ``component_revision`` one instant out
of a component's ``ComponentStream``, ``named_revision`` gives its admitted
modes and revised transitions by name, and ``forward_prefixes`` spells
out the paths the forward pass's back-pointers point to, walking each one
(``walked_path``) rather than spelling a layer from the one before as
``SpelledPaths`` does.

Three helpers stand outside the engine: ``model_to_dict`` writes a model
in the input file format, ``exact_probability`` reads a probability string
as an exact ``Fraction``, the oracle for the loader's parse, and
``empirical_transition_matrix`` estimates the n-step transition
frequencies (an ``EmpiricalMatrix``) of sampled trajectories, the Monte
Carlo oracle for the matrix-power arithmetic.

Four chain helpers serve only the tests: ``matrix_power`` (numpy's, one
``P^n`` at a time), ``propagate_distribution``, the geometric
``sojourn_pmf`` with its ``AbsorbingSojournError``, and ``classify_states``
for a bare matrix.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from tempdiag import (
    ComponentSpec,
    DiagnosticProblem,
    Evolutions,
    ExplanationCriterion,
    ModeAssignment,
    SampledTrajectory,
    StateClassification,
    StreamRevision,
    SystemModel,
    ThresholdMode,
    predicted_manifestations,
)
from tempdiag.errors import (
    AllZeroJointsError,
    DiagnosisError,
    DimensionMismatchError,
    EntryRangeError,
    NonIncreasingInstantsError,
    ZeroAdmittedMassError,
)
from tempdiag.markov import _classify_states, _reachability
from tempdiag.temporal import Trellis, forward_paths


def matrix_power(entries: np.ndarray, n: int) -> np.ndarray:
    """n-step transition matrix ``P^n`` (``n = 0`` gives the identity)."""
    if n < 0:  # numpy would invert the matrix
        raise ValueError("power must be nonnegative")
    return np.linalg.matrix_power(entries, n)


def propagate_distribution(pi0: np.ndarray, entries: np.ndarray,
                           n: int) -> np.ndarray:
    """Propagate a mode distribution ``n`` steps: returns ``pi0 . P^n``."""
    if pi0.shape != entries.shape[:1]:
        raise DimensionMismatchError(f"distribution has {pi0.shape} entries "
                                     f"for a matrix of shape {entries.shape}")
    return pi0 @ matrix_power(entries, n)


class AbsorbingSojournError(DiagnosisError):
    """Sojourn pmf requested for a self-loop probability of 1 (never leaves)."""

    code = "absorbing_sojourn"


def sojourn_pmf(p_self: float, t: int) -> float:
    """P(sojourn time = t) for a mode with self-loop probability ``p_self``.

    The sojourn time of a mode in a time-homogeneous DTMC is geometric:
    ``P(S = t) = p_self**(t-1) * (1 - p_self)`` for t >= 1. This is the only
    memoryless discrete distribution, so the time already spent in the mode
    never matters.

    Raises:
        AbsorbingSojournError: ``p_self == 1`` (the mode is never left, so
            the sojourn time is not a proper random variable).
    """
    if not 0.0 <= p_self <= 1.0:
        raise EntryRangeError(f"self-loop probability {p_self!r} outside [0, 1]")
    if p_self == 1.0:
        raise AbsorbingSojournError("sojourn in an absorbing mode never ends")
    if t < 1:
        raise ValueError("sojourn time starts at 1")
    return p_self ** (t - 1) * (1.0 - p_self)


def classify_states(modes: Sequence[str],
                    entries: np.ndarray) -> StateClassification:
    """Label every mode as absorbing, ergodic or transient, as
    ``classify_faults`` does for a component's chain."""
    return _classify_states(modes, entries, _reachability(entries))


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


def edge_factors(trellis) -> np.ndarray:
    """Every edge's per-component n-step entries as an edges x components
    float64 array: row e, column c is ``trellis.powers[c]`` at
    ``trellis.entries[c][e]``, the entry the trellis keeps for the edge."""
    factors = np.empty((len(trellis.conditionals), len(trellis.entries)))
    for c, (entries, powers) in enumerate(zip(trellis.entries,
                                              trellis.powers)):
        factors[:, c] = powers[entries]
    return factors


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
        raise ValueError("empty trajectory")
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


def normalization_factor(joints: Sequence[float]) -> float:
    """Global normalization: reciprocal of the summed joint probabilities
    at an instant."""
    # summed left to right: sum() compensates rounding from Python 3.12 on
    total = float(reduce(operator.add, joints, 0.0))
    factor = 1.0 / total if total > 0.0 else math.inf
    if not math.isfinite(factor):
        raise AllZeroJointsError(f"joint probabilities sum to {total!r}, too "
                                 "little to renormalize; revision is undefined")
    return factor


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


class InstantValues(NamedTuple):
    """The global revision at one instant: the joints over the forward
    pass's paths ending there, the scores over the admissible edges into
    it (none at the first instant)."""

    t: int
    factor: float
    #: the |P| x (k + 1) int32 candidate-index paths ending here
    path_indices: np.ndarray
    joints: np.ndarray
    revised_joints: np.ndarray
    #: source and target candidate indices of each admissible edge, in
    #: row-major order
    sources: np.ndarray
    targets: np.ndarray
    #: each admissible edge's raw conditional and revised score
    conditionals: np.ndarray
    revised_conditionals: np.ndarray


def instant_revision(revision: StreamRevision, k: int) -> InstantValues:
    """Instant ``k`` of ``revision`` (from the end if negative), as views of
    its flat arrays, apart from the paths, which ``revision[k]`` spells."""
    t, path_indices = revision[k]
    k = range(len(revision))[k]
    p, q = revision.paths[k:k + 2].tolist()
    a, b = revision.edges[k:k + 2].tolist()
    return InstantValues(
        t, revision.factors[k].item(), path_indices, revision.joints[p:q],
        revision.revised_joints[p:q], revision.sources[a:b],
        revision.targets[a:b], revision.conditionals[a:b],
        revision.revised_conditionals[a:b])


def component_revision(revision: StreamRevision, k: int, cid: str) -> tuple:
    """Component ``cid``'s revision at instant ``k``, as views of its
    ``ComponentStream``'s rows: its distribution, admitted modes (by name),
    factor, posterior, transitions (a |T| x 2 array of (from, to) modes,
    by name), and the transitions' entries and revised scores."""
    c = revision.components[cid]
    i, j = np.searchsorted(c.admitted[:, 0], (k, k + 1)).tolist()
    u, v = np.searchsorted(c.transitions[:, 0], (k, k + 1)).tolist()
    return (c.distributions[k], c.admitted[i:j, 1], c.factors[k].item(),
            c.posteriors[k], c.transitions[u:v, 1:], c.entries[u:v],
            c.revised_entries[u:v])


def named_revision(component: ComponentSpec, revision: tuple,
                   ) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """A ``component_revision``'s admitted modes and its revised
    transitions, ``(from, to, n-step entry, revised score)``, by mode name
    and sorted."""
    names = component.modes
    _, admitted, _, _, transitions, entries, revised = revision
    return (tuple(sorted(names[i] for i in admitted.tolist())),
            tuple(sorted((names[a], names[b], p, r) for (a, b), p, r in zip(
                transitions.tolist(), entries.tolist(), revised.tolist()))))


def walked_path(parents: np.ndarray, candidates: np.ndarray,
                entry: int) -> list[int]:
    """The candidate indices of the path at ``entry`` of a
    ``forward_paths`` table, from layer 0 on: its back-pointers followed
    one at a time down to layer 0's -1."""
    path = []
    while entry >= 0:
        path.append(int(candidates[entry]))
        entry = int(parents[entry])
    return path[::-1]


def forward_prefixes(trellis: Trellis,
                     ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The table ``forward_paths`` returns with each layer's back-pointers
    walked (``walked_path``): per layer k, a |P| x (k + 1) array of the
    candidate indices of each path and the paths' joints."""
    starts, parents, candidates, joints = forward_paths(trellis)
    for k, (p, q) in enumerate(zip(starts, starts[1:])):
        yield np.array([walked_path(parents, candidates, entry)
                        for entry in range(p, q)], dtype=int).reshape(
                            q - p, k + 1), joints[p:q]


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


#: ``fractions._RATIONAL_FORMAT`` of Python 3.13, as it is written there.
RATIONAL_FORMAT = re.compile(r"""
    \A\s*                                  # optional whitespace at the start,
    (?P<sign>[-+]?)                        # an optional sign, then
    (?=\d|\.\d)                            # lookahead for digit or .digit
    (?P<num>\d*|\d+(_\d+)*)                # numerator (possibly empty)
    (?:                                    # followed by
       (?:\s*/\s*(?P<denom>\d+(_\d+)*))?   # an optional denominator
    |                                      # or
       (?:\.(?P<decimal>\d*|\d+(_\d+)*))?  # an optional fractional part
       (?:E(?P<exp>[-+]?\d+(_\d+)*))?      # and optional exponent
    )
    \s*\Z                                  # and optional whitespace to finish
""", re.VERBOSE | re.IGNORECASE)


def exact_probability(text: str) -> float | None:
    """The float nearest the value of ``text``, or None if it has none:
    the ``Fraction`` that Python 3.13's ``Fraction(text)`` builds from the
    groups of ``RATIONAL_FORMAT``, as a float. None where ``Fraction`` or
    ``float`` raises: no match, a zero denominator, an overflow. An
    exponent that puts a nonzero value certainly past the float range
    gives None or a signed zero, as ``float`` would, without the power
    being built; a zero numerator gives 0.0."""
    m = RATIONAL_FORMAT.match(text)
    if m is None:
        return None
    try:
        numerator, denominator = int(m.group("num") or "0"), 1
        if m.group("denom"):
            denominator = int(m.group("denom"))
        else:
            if m.group("decimal"):
                scale = 10 ** len(m.group("decimal").replace("_", ""))
                numerator = numerator * scale + int(m.group("decimal"))
                denominator *= scale
            if m.group("exp"):
                exp = int(m.group("exp"))
                # log10 of the value: past 10**330 it has no float, below
                # 10**-330 it rounds to zero, and 10**exp would take time
                scale = exp + math.log10(numerator or 1) - math.log10(
                    denominator)
                if numerator and scale > 330:
                    return None
                if not numerator or scale < -330:
                    return -0.0 if numerator and m.group("sign") == "-" \
                        else 0.0
                if exp >= 0:
                    numerator *= 10 ** exp
                else:
                    denominator *= 10 ** -exp
        if m.group("sign") == "-":
            numerator = -numerator
        return float(Fraction(numerator, denominator))
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


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
