"""Discrete-time Markov chain kernel for component mode dynamics.

Each component of the diagnosed system evolves over a finite set of
behavioral modes (one correct mode plus fault modes) according to a
time-homogeneous DTMC. This module provides the chain primitives the rest
of the engine builds on:

- row-stochastic transition matrices and their validation,
- n-step matrices ``P^n`` and distribution propagation ``pi(n) = pi(0) P^n``,
- the geometric sojourn-time distribution of a mode,
- structural classification of modes (absorbing / ergodic / transient) and
  the derived fault taxonomy (permanent / transient, reversible / irreversible),
  both read from a boolean reachability closure of the positive entries.

All values are plain ``float64``; validation tolerances are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import (
    AbsorbingSojournError,
    CorrectModeMissingError,
    DimensionMismatchError,
    EntryRangeError,
    NotSquareError,
    RowSumError,
    ValidationError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .model import ComponentSpec

#: Tolerance for row sums and distribution sums.
ROW_SUM_TOL = 1e-9
#: Tolerance for recognizing an exact self-loop probability of 1.
ABSORBING_TOL = 1e-12


def _readonly(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic one-step transition matrix over an ordered mode list.

    ``entries[i][j]`` is the probability of moving from ``modes[i]`` to
    ``modes[j]`` in one time step. Instances are immutable; the entry array
    is stored read-only so values can be shared across threads.
    """

    modes: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "entries", _readonly(self.entries))

    def __eq__(self, other):
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return self.modes == other.modes and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.modes, self.entries.tobytes()))

    @property
    def size(self) -> int:
        return len(self.modes)

    def index(self, mode: str) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise KeyError(f"unknown mode {mode!r}") from None


@dataclass(frozen=True, eq=False)
class ModeDistribution:
    """Probability distribution over an ordered mode list (a row vector)."""

    modes: tuple[str, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "probabilities", _readonly(self.probabilities))

    def __eq__(self, other):
        if not isinstance(other, ModeDistribution):
            return NotImplemented
        return self.modes == other.modes and np.array_equal(
            self.probabilities, other.probabilities)

    def __hash__(self):
        return hash((self.modes, self.probabilities.tobytes()))


class StateLabel(Enum):
    """Structural role of a mode in its chain.

    ERGODIC means a member of a closed communicating class that is not a
    single absorbing state (e.g. a periodic closed cycle).
    """

    ABSORBING = "absorbing"
    ERGODIC = "ergodic"
    TRANSIENT = "transient"


@dataclass(frozen=True)
class StateClassification:
    """Per-mode labels plus the closed (ergodic) and leavable (transient) sets.

    Sets are reported as tuples of mode names in matrix order; the lists are
    ordered by the first member's mode index, so output is deterministic.
    """

    labels: Mapping[str, StateLabel]
    ergodic_sets: tuple[tuple[str, ...], ...]
    transient_sets: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class FaultClass:
    """Taxonomy flags for one fault mode."""

    permanent: bool
    transient: bool
    reversible: bool

    @property
    def irreversible(self) -> bool:
        return not self.reversible


@dataclass(frozen=True)
class FaultClassification:
    """Fault taxonomy for every non-correct mode of one component."""

    component: str
    correct_mode: str
    faults: Mapping[str, FaultClass]


def validate_matrix(m: TransitionMatrix) -> TransitionMatrix:
    """Check that ``m`` is square, entries lie in [0, 1] and rows sum to 1.

    Returns the matrix unchanged when valid.

    Raises:
        NotSquareError: dimension does not match the mode list, or not 2-D.
        EntryRangeError: some entry is outside [0, 1] or is NaN.
        RowSumError: some row sum deviates from 1 by more than ``ROW_SUM_TOL``.
    """
    n = len(m.modes)
    if n < 1:
        raise NotSquareError("matrix needs at least one mode")
    if m.entries.ndim != 2 or m.entries.shape != (n, n):
        raise NotSquareError(
            f"expected a {n}x{n} matrix, got shape {m.entries.shape}")
    # NaN fails both comparisons, so it is caught with the out-of-range entries
    bad = ~((m.entries >= 0.0) & (m.entries <= 1.0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise EntryRangeError(
            f"entry ({m.modes[i]} -> {m.modes[j]}) = {float(m.entries[i, j])!r} "
            "is outside [0, 1]",
            element=(m.modes[int(i)], m.modes[int(j)]))
    sums = m.entries.sum(axis=1)
    bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        row = int(bad[0, 0])
        raise RowSumError(row, float(sums[row]))
    return m


def validate_distribution(d: ModeDistribution) -> ModeDistribution:
    """Check that ``d`` is a probability vector over its modes."""
    if d.probabilities.ndim != 1 or d.probabilities.shape[0] != len(d.modes):
        raise DimensionMismatchError(
            f"distribution has {d.probabilities.shape} entries "
            f"for {len(d.modes)} modes")
    if not np.all((d.probabilities >= 0.0) & (d.probabilities <= 1.0)):
        raise EntryRangeError("distribution entries must lie in [0, 1]")
    total = float(d.probabilities.sum())
    if abs(total - 1.0) > ROW_SUM_TOL:
        raise ValidationError(f"distribution sums to {total!r}, expected 1")
    return d


def matrix_power(m: TransitionMatrix, n: int) -> TransitionMatrix:
    """n-step transition matrix ``P^n`` (``n = 0`` gives the identity).

    Uses binary exponentiation, so large gaps between observation instants
    stay cheap.
    """
    if n < 0:
        raise ValueError("power must be nonnegative")
    return TransitionMatrix(m.modes, np.linalg.matrix_power(m.entries, n))


def propagate_distribution(pi0: ModeDistribution, m: TransitionMatrix,
                           n: int) -> ModeDistribution:
    """Propagate a mode distribution ``n`` steps: returns ``pi0 . P^n``."""
    if pi0.modes != m.modes:
        raise DimensionMismatchError(
            "distribution and matrix have different mode orderings",
            element=(pi0.modes, m.modes))
    out = pi0.probabilities @ matrix_power(m, n).entries
    return ModeDistribution(m.modes, out)


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


def _reachability(m: TransitionMatrix) -> np.ndarray:
    """Boolean closure of the positive-entry digraph: ``R[i, j]`` iff mode j
    is reachable from mode i in zero or more steps.

    ``R = (P > 0) or I`` is squared (a boolean matrix product) until it stops
    changing, which takes at most ceil(log2 n) + 1 products.
    """
    reach = (m.entries > 0.0) | np.eye(m.size, dtype=bool)
    while True:
        squared = reach @ reach
        if np.array_equal(squared, reach):
            return reach
        reach = squared


def classify_states(m: TransitionMatrix) -> StateClassification:
    """Label every mode as absorbing, ergodic or transient.

    The communicating class of mode i is the set of modes it reaches and is
    reached from. A class that reaches nothing outside itself is closed
    (ergodic); a singleton closed class whose self-loop equals 1 is an
    absorbing state. Every other mode is transient. Each class is visited at
    its lowest-index member, so the set lists come out in matrix order.
    """
    reach = _reachability(m)
    labels: list[StateLabel | None] = [None] * m.size
    ergodic_sets: list[tuple[str, ...]] = []
    transient_sets: list[tuple[str, ...]] = []
    for i in range(m.size):
        if labels[i] is not None:
            continue
        in_class = reach[i] & reach[:, i]
        indices = np.flatnonzero(in_class).tolist()
        members = tuple(m.modes[j] for j in indices)
        if np.array_equal(reach[i], in_class):
            ergodic_sets.append(members)
            absorbing = (len(indices) == 1
                         and abs(m.entries[i, i] - 1.0) <= ABSORBING_TOL)
            label = StateLabel.ABSORBING if absorbing else StateLabel.ERGODIC
        else:
            transient_sets.append(members)
            label = StateLabel.TRANSIENT
        for j in indices:
            labels[j] = label
    return StateClassification(dict(zip(m.modes, labels)), tuple(ergodic_sets),
                               tuple(transient_sets))


def classify_faults(component: "ComponentSpec") -> FaultClassification:
    """Classify every fault mode of a component.

    A fault mode is permanent iff its state is absorbing and transient iff
    its state is transient; it is reversible iff the correct mode is
    reachable from it in one or more steps of the positive-entry digraph
    (a structural property, deliberately not a numeric threshold on P^n).
    The closure counts zero or more steps, which is the same thing for a
    mode other than the correct one.
    """
    matrix = component.matrix
    correct = component.correct_mode
    if correct not in matrix.modes:
        raise CorrectModeMissingError(
            f"component {component.id!r} has no mode {correct!r}",
            element=component.id)

    states = classify_states(matrix)
    reaches_correct = _reachability(matrix)[:, matrix.index(correct)]
    faults: dict[str, FaultClass] = {}
    for mode, reversible in zip(matrix.modes, reaches_correct.tolist()):
        if mode == correct:
            continue
        label = states.labels[mode]
        faults[mode] = FaultClass(
            permanent=label is StateLabel.ABSORBING,
            transient=label is StateLabel.TRANSIENT,
            reversible=reversible,
        )
    return FaultClassification(component.id, correct, faults)
