"""Discrete-time Markov chain kernel for component mode dynamics.

Each component of the diagnosed system evolves over a finite set of
behavioral modes (one correct mode plus fault modes) according to a
time-homogeneous DTMC. This module provides the chain primitives the rest
of the engine builds on:

- validation of row-stochastic transition matrices and of distributions,
- n-step matrices ``P^n``, stacked for many ``n`` from squarings computed
  once,
- the fault taxonomy of a component (permanent / transient, reversible /
  irreversible) and the structural labels of its modes (absorbing /
  ergodic / transient) it is read from, both from a boolean reachability
  closure of the positive entries.

A chain is a plain |M| x |M| ``float64`` array and a distribution a length-|M|
one, in the component's mode order; validation tolerances are module constants.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
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


class StateLabel(Enum):
    """Structural role of a mode in its chain.

    ERGODIC means a member of a closed communicating class that is not a
    single absorbing state (e.g. a periodic closed cycle).
    """

    ABSORBING = "absorbing"
    ERGODIC = "ergodic"
    TRANSIENT = "transient"


class StateClassification(NamedTuple):
    """Per-mode labels plus the closed (ergodic) and leavable (transient) sets.

    Sets are reported as tuples of mode names in matrix order; the lists are
    ordered by the first member's mode index, so output is deterministic.
    """

    labels: Mapping[str, StateLabel]
    ergodic_sets: tuple[tuple[str, ...], ...]
    transient_sets: tuple[tuple[str, ...], ...]


class FaultClass(NamedTuple):
    """Taxonomy flags for one fault mode."""

    permanent: bool
    transient: bool
    reversible: bool

    @property
    def irreversible(self) -> bool:
        return not self.reversible


class FaultClassification(NamedTuple):
    """Fault taxonomy for every non-correct mode of one component."""

    faults: Mapping[str, FaultClass]
    #: the state labels the taxonomy was read from
    states: StateClassification


def validate_matrix(modes: Sequence[str], entries: np.ndarray) -> np.ndarray:
    """Check that ``entries`` is square over ``modes``, entries lie in
    [0, 1] and rows sum to 1.

    Returns the matrix unchanged when valid.

    Raises:
        NotSquareError: dimension does not match the mode list, or not 2-D.
        EntryRangeError: some entry is outside [0, 1] or is NaN.
        RowSumError: some row sum deviates from 1 by more than ``ROW_SUM_TOL``.
    """
    n = len(modes)
    if n < 1:
        raise NotSquareError("matrix needs at least one mode")
    if entries.ndim != 2 or entries.shape != (n, n):
        raise NotSquareError(
            f"expected a {n}x{n} matrix, got shape {entries.shape}")
    # NaN fails both comparisons, so it is caught with the out-of-range entries
    bad = ~((entries >= 0.0) & (entries <= 1.0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise EntryRangeError(
            f"entry ({modes[i]} -> {modes[j]}) = {float(entries[i, j])!r} "
            "is outside [0, 1]",
            element=(modes[int(i)], modes[int(j)]))
    sums = entries.sum(axis=1)
    bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        row = int(bad[0, 0])
        raise RowSumError(row, float(sums[row]))
    return entries


def validate_distribution(modes: Sequence[str],
                          probabilities: np.ndarray) -> np.ndarray:
    """Check that ``probabilities`` is a probability vector over ``modes``."""
    if probabilities.ndim != 1 or probabilities.shape[0] != len(modes):
        raise DimensionMismatchError(
            f"distribution has {probabilities.shape} entries "
            f"for {len(modes)} modes")
    if not np.all((probabilities >= 0.0) & (probabilities <= 1.0)):
        raise EntryRangeError("distribution entries must lie in [0, 1]")
    total = float(probabilities.sum())
    if abs(total - 1.0) > ROW_SUM_TOL:
        raise ValidationError(f"distribution sums to {total!r}, expected 1")
    return probabilities


def matrix_powers(entries: np.ndarray, exponents: Sequence[int]) -> np.ndarray:
    """``P^n`` for every ``n`` of ``exponents``, stacked |n| x |M| x |M|;
    each is bit for bit what ``np.linalg.matrix_power(entries, n)`` gives.

    The squarings ``P^(2^j)`` are computed once for all exponents, and the
    products follow numpy's own order: the identity for n = 0, ``P``,
    ``P @ P`` and ``(P @ P) @ P`` for n <= 3, otherwise the squarings of
    n's set bits from the least significant up, each multiplied onto the
    right of the product so far. One stacked matmul per bit serves every
    exponent that has the bit set. Exponents may exceed int64.
    """
    exponents = [operator.index(n) for n in exponents]
    if any(n < 0 for n in exponents):  # numpy would invert the matrix
        raise ValueError("power must be nonnegative")
    size = max(exponents, default=0).bit_length()
    width = size // 8 + 1
    bits = np.unpackbits(np.frombuffer(b"".join(
        n.to_bytes(width, "little") for n in exponents), np.uint8).reshape(
            len(exponents), width), axis=1, count=size, bitorder="little",
    ).view(bool)
    out = np.empty((len(exponents),) + entries.shape)
    started = np.zeros(len(exponents), dtype=bool)
    square = entries
    for j in range(size):
        if j:
            square = square @ square
        first, more = bits[:, j] & ~started, bits[:, j] & started
        out[first] = square
        out[more] = out[more] @ square
        started |= first
    out[[n == 0 for n in exponents]] = np.eye(len(entries))
    out[[n == 3 for n in exponents]] = (entries @ entries) @ entries
    return out


def _reachability(entries: np.ndarray) -> np.ndarray:
    """Boolean closure of the positive-entry digraph: ``R[i, j]`` iff mode j
    is reachable from mode i in zero or more steps.

    ``R = (P > 0) or I`` is squared (a boolean matrix product) until it stops
    changing, which takes at most ceil(log2 n) + 1 products.
    """
    reach = (entries > 0.0) | np.eye(len(entries), dtype=bool)
    while True:
        squared = reach @ reach
        if np.array_equal(squared, reach):
            return reach
        reach = squared


def _classify_states(modes: Sequence[str], entries: np.ndarray,
                     reach: np.ndarray) -> StateClassification:
    """Label every mode as absorbing, ergodic or transient, given the
    chain's reachability closure ``reach``.

    The communicating class of mode i is the set of modes it reaches and is
    reached from. A class that reaches nothing outside itself is closed
    (ergodic); a singleton closed class whose self-loop equals 1 is an
    absorbing state. Every other mode is transient. Each class is visited at
    its lowest-index member, so the set lists come out in matrix order.
    """
    labels: list[StateLabel | None] = [None] * len(modes)
    ergodic_sets: list[tuple[str, ...]] = []
    transient_sets: list[tuple[str, ...]] = []
    for i in range(len(modes)):
        if labels[i] is not None:
            continue
        in_class = reach[i] & reach[:, i]
        indices = np.flatnonzero(in_class).tolist()
        members = tuple(modes[j] for j in indices)
        if np.array_equal(reach[i], in_class):
            ergodic_sets.append(members)
            absorbing = (len(indices) == 1
                         and abs(entries[i, i] - 1.0) <= ABSORBING_TOL)
            label = StateLabel.ABSORBING if absorbing else StateLabel.ERGODIC
        else:
            transient_sets.append(members)
            label = StateLabel.TRANSIENT
        for j in indices:
            labels[j] = label
    return StateClassification(dict(zip(modes, labels)), tuple(ergodic_sets),
                               tuple(transient_sets))


def classify_faults(component: "ComponentSpec") -> FaultClassification:
    """Classify every fault mode of a component, from one reachability
    closure of its chain; the result carries the state labels too.

    A fault mode is permanent iff its state is absorbing and transient iff
    its state is transient; it is reversible iff the correct mode is
    reachable from it in one or more steps of the positive-entry digraph
    (a structural property, deliberately not a numeric threshold on P^n).
    The closure counts zero or more steps, which is the same thing for a
    mode other than the correct one.
    """
    modes, correct = component.modes, component.correct_mode
    if correct not in modes:
        raise CorrectModeMissingError(
            f"component {component.id!r} has no mode {correct!r}",
            element=component.id)

    reach = _reachability(component.matrix)
    states = _classify_states(modes, component.matrix, reach)
    reaches_correct = reach[:, modes.index(correct)]
    faults: dict[str, FaultClass] = {}
    for mode, reversible in zip(modes, reaches_correct.tolist()):
        if mode == correct:
            continue
        label = states.labels[mode]
        faults[mode] = FaultClass(
            permanent=label is StateLabel.ABSORBING,
            transient=label is StateLabel.TRANSIENT,
            reversible=reversible,
        )
    return FaultClassification(faults, states)
