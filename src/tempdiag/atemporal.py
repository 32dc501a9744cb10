"""Per-instant diagnosis: mode assignments explaining one observation entry.

The solver lays the full Cartesian product of component modes out as a
boolean array with one axis per component (guarded by a cap) and keeps every
assignment that explains the observation under the chosen criterion:

- consistency-based: the assignment predicts nothing observed absent and
  nothing declared mutually exclusive with a present atom;
- abductive: additionally, every present atom is predicted.

The abductive solution set is a subset of the consistency-based one by
construction.

The assignments firing a rule form the sub-block of the array that fixes
each body atom's axis to its mode. Blocks of heads that must not be predicted
are cleared, and each present atom ANDs in the union of its blocks
(abductive). The survivors are returned as a |L| x C mode-index array, which
the trellis, induction, revision and the report read.
``predicted_manifestations`` gives one assignment's rule heads, from which
the simulator synthesizes observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import SearchSpaceError
from .model import HornRule, Observation, SystemModel

#: Default cap on the size of the enumerated assignment space.
DEFAULT_CANDIDATE_CAP = 10 ** 6


class ExplanationCriterion(Enum):
    ABDUCTIVE = "abductive"
    CONSISTENCY_BASED = "consistency"


@dataclass(frozen=True, order=True)
class ModeAssignment:
    """One mode per component at a time point.

    ``modes`` is a tuple of (component id, mode) pairs sorted by component
    id, which makes assignments hashable and totally ordered (the order is
    used for deterministic tie-breaking).
    """

    t: int
    modes: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "modes", tuple(sorted(tuple(pair) for pair in self.modes)))

    @classmethod
    def from_mapping(cls, t: int, assignment: Mapping[str, str]) -> "ModeAssignment":
        return cls(t, tuple(assignment.items()))

    def as_dict(self) -> dict[str, str]:
        return dict(self.modes)


def predicted_manifestations(w: ModeAssignment,
                             model: SystemModel) -> frozenset[str]:
    """Heads of all rules whose body atoms are satisfied by ``w``."""
    assigned = w.as_dict()
    return frozenset(
        rule.head for rule in model.rules
        if all(assigned.get(comp) == mode for comp, mode in rule.body))


def _body_block(rule: HornRule, axes: Mapping[str, tuple[int, tuple[str, ...]]],
                ndim: int) -> tuple | None:
    """Index of the sub-block of assignments firing ``rule``, or None when
    no assignment fires it (a body atom names an unknown component or mode,
    or two atoms give one component different modes)."""
    index: list = [slice(None)] * ndim
    for comp, mode in rule.body:
        k, modes = axes.get(comp, (None, ()))
        if mode not in modes or isinstance(index[k], int):
            return None
        index[k] = modes.index(mode)
    return tuple(index)


def solve_atemporal(model: SystemModel, observation: Observation,
                    criterion: ExplanationCriterion,
                    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
                    ) -> np.ndarray:
    """All mode assignments explaining one observation entry, as a |L| x C
    array of mode indices with columns in model component order.

    Row order is deterministic: lexicographic over the components sorted
    by id, each component's modes in declared order (the C order of the
    assignment array). That is not ``ModeAssignment`` order, which compares
    mode names, whenever a component's modes are not declared in name
    order; ranking ties are broken by ``ModeAssignment`` order.

    Raises:
        SearchSpaceError: the assignment space exceeds ``candidate_cap``.
    """
    by_id = sorted(range(len(model.components)),
                   key=lambda i: model.components[i].id)
    comps = [model.components[i] for i in by_id]
    shape = tuple(len(c.modes) for c in comps)
    space = math.prod(shape)
    if space > candidate_cap:
        raise SearchSpaceError(
            f"{space} assignments exceed the cap of {candidate_cap}",
            element=space)

    axes = {c.id: (k, c.modes) for k, c in enumerate(comps)}
    blocks = [(rule.head, _body_block(rule, axes, len(comps)))
              for rule in model.rules]
    blocks = [(head, index) for head, index in blocks if index is not None]

    forbidden = set(observation.absent)
    for atom in observation.present:
        forbidden |= model.exclusive_partners(atom)
    ok = np.ones(shape, dtype=bool)
    for head, index in blocks:
        if head in forbidden:
            ok[index] = False
    if criterion is ExplanationCriterion.ABDUCTIVE:
        for atom in observation.present:
            covered = np.zeros(shape, dtype=bool)
            for head, index in blocks:
                if head == atom:
                    covered[index] = True
            ok &= covered

    return np.argwhere(ok)[:, np.argsort(by_id)]
