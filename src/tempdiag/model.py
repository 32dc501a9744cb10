"""Declarative description of the system under diagnosis.

A system model bundles the components (each with its mode-transition chain),
the atemporal behavioral rules linking mode atoms to observable
manifestations, and optional pairs of mutually exclusive manifestations.
Observations are time-stamped sets of manifestations seen present or absent.

Rule bodies are conjunctions of mode atoms only and heads are single
manifestation atoms; chaining through intermediate atoms is out of scope.

The records are ``typing.NamedTuple`` classes. One that normalises its
fields does so in ``__new__`` on a subclass of its field tuple, and its
``_replace`` goes through that ``__new__`` too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import (
    CorrectModeMissingError,
    DuplicateComponentError,
    EmptyStreamError,
    NonIncreasingInstantsError,
    UnknownManifestationError,
    UnknownModeAtomError,
    ValidationError,
)
from .markov import validate_distribution, validate_matrix

if TYPE_CHECKING:  # pragma: no cover
    from .atemporal import ModeAssignment


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _remade(cls, fields):
    """``cls(*fields)``: a record's ``_replace`` normalises the fields it
    is given as its constructor does."""
    return cls(*fields)


class _Component(NamedTuple):
    id: str
    modes: tuple[str, ...]
    correct_mode: str
    matrix: np.ndarray
    initial_distribution: np.ndarray | None = None


class ComponentSpec(_Component):
    """One component: its modes, designated correct mode and transition chain.

    ``matrix[i, j]`` is the probability of moving from ``modes[i]`` to
    ``modes[j]`` in one step; both it and the optional
    ``initial_distribution`` (one probability per mode) are stored as
    read-only ``float64`` arrays. Without an initial distribution the engine
    induces one from the candidates at the first observed instant or falls
    back to a uniform one. Components compare and hash by identity.
    """

    __slots__ = ()
    _make = classmethod(_remade)
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, id, modes, correct_mode, matrix,
                initial_distribution=None):
        return super().__new__(
            cls, id, tuple(modes), correct_mode, _readonly(matrix),
            None if initial_distribution is None
            else _readonly(initial_distribution))


class _Rule(NamedTuple):
    body: frozenset[tuple[str, str]]
    head: str


class HornRule(_Rule):
    """``mode-atom AND ... AND mode-atom -> manifestation``.

    Body atoms are (component id, mode) pairs; a component appears at most
    once per body.
    """

    __slots__ = ()
    _make = classmethod(_remade)

    def __new__(cls, body, head):
        return super().__new__(cls, frozenset(tuple(a) for a in body), head)


class _Model(NamedTuple):
    components: tuple[ComponentSpec, ...]
    rules: tuple[HornRule, ...]
    exclusive: tuple[frozenset[str], ...] = ()


class SystemModel(_Model):
    """Components plus behavioral rules plus mutual-exclusivity declarations.

    ``exclusive`` lists unordered pairs of manifestation atoms that cannot
    hold together; the solver uses them as its source of contradiction.
    """

    __slots__ = ()
    _make = classmethod(_remade)

    def __new__(cls, components, rules, exclusive=()):
        return super().__new__(cls, tuple(components), tuple(rules),
                               tuple(frozenset(p) for p in exclusive))

    @property
    def manifestations(self) -> frozenset[str]:
        """All atoms that can appear in an observation (the rule heads)."""
        return frozenset(r.head for r in self.rules)

    def exclusive_partners(self, atom: str) -> frozenset[str]:
        """Atoms declared mutually exclusive with ``atom``."""
        partners = set()
        for pair in self.exclusive:
            if atom in pair:
                partners.update(pair - {atom})
        return frozenset(partners)


class _Observation(NamedTuple):
    t: int
    present: frozenset[str]
    absent: frozenset[str]


class Observation(_Observation):
    """Manifestations seen present/absent at one time point."""

    __slots__ = ()
    _make = classmethod(_remade)

    def __new__(cls, t, present, absent):
        return super().__new__(cls, t, frozenset(present), frozenset(absent))


class _Stream(NamedTuple):
    entries: tuple[Observation, ...] = ()


class ObservationStream(_Stream):
    """Observations ordered by strictly increasing time point."""

    __slots__ = ()
    _make = classmethod(_remade)

    def __new__(cls, entries=()):
        return super().__new__(cls, tuple(entries))


def validate_model(model: SystemModel) -> SystemModel:
    """Validate a system model, returning it unchanged or raising on the
    first violation found. Sets are checked in sorted order, so that the
    violation named does not vary with the string-hash seed.

    Checks: unique component ids; per component distinct modes, a declared
    correct mode, a stochastic matrix with a row and a column per mode, and
    (when given) a proper initial distribution over the modes; rule bodies
    that reference declared components and modes with no component
    repeated; exclusivity pairs over known rule heads.
    """
    seen: set[str] = set()
    for c in model.components:
        if c.id in seen:
            raise DuplicateComponentError(
                f"component id {c.id!r} declared twice", element=c.id)
        seen.add(c.id)
        if len(set(c.modes)) != len(c.modes):
            raise ValidationError(
                f"component {c.id!r} declares a mode twice", element=c.id)
        if c.correct_mode not in c.modes:
            raise CorrectModeMissingError(
                f"component {c.id!r}: correct mode {c.correct_mode!r} "
                "is not a declared mode", element=c.id)
        validate_matrix(c.modes, c.matrix)
        if c.initial_distribution is not None:
            validate_distribution(c.modes, c.initial_distribution)

    by_id = {c.id: c for c in model.components}
    heads = model.manifestations
    for rule in model.rules:
        if not rule.body:
            raise ValidationError(
                f"rule for {rule.head!r} has an empty body", element=rule.head)
        comps_in_body = [comp for comp, _ in rule.body]
        if len(comps_in_body) != len(set(comps_in_body)):
            raise ValidationError(
                f"rule for {rule.head!r} mentions a component twice",
                element=rule.head)
        for comp, mode in sorted(rule.body):
            spec = by_id.get(comp)
            if spec is None or mode not in spec.modes:
                raise UnknownModeAtomError(
                    f"rule for {rule.head!r} references unknown mode atom "
                    f"{mode}({comp})", element=(comp, mode))

    for pair in model.exclusive:
        if len(pair) != 2:
            raise ValidationError(
                f"exclusivity pair {sorted(pair)} must contain two distinct "
                "atoms", element=sorted(pair))
        for atom in sorted(pair):
            if atom not in heads:
                raise UnknownManifestationError(
                    f"exclusivity pair references {atom!r}, which is not the "
                    "head of any rule", element=atom)
    return model


def validate_stream(stream: ObservationStream,
                    model: SystemModel) -> ObservationStream:
    """Validate an observation stream against a model's manifestations,
    each entry's atoms in sorted order. A stream needs at least one
    entry."""
    if not stream.entries:
        raise EmptyStreamError("observation stream has no entries")
    heads = model.manifestations
    prev_t = None
    for entry in stream.entries:
        if entry.t < 0:
            raise ValidationError(
                f"time points must be nonnegative, got {entry.t}",
                element=entry.t)
        if prev_t is not None and entry.t <= prev_t:
            raise ValidationError(
                f"time points must strictly increase, got {entry.t} "
                f"after {prev_t}", element=entry.t)
        prev_t = entry.t
        overlap = entry.present & entry.absent
        if overlap:
            raise ValidationError(
                f"atoms {sorted(overlap)} listed both present and absent "
                f"at t={entry.t}", element=entry.t)
        for atom in sorted(entry.present | entry.absent):
            if atom not in heads:
                raise UnknownManifestationError(
                    f"observation at t={entry.t} references {atom!r}, which "
                    "is not the head of any rule", element=atom)
    return stream


def validate_trajectories(
        trajectories: Sequence[Sequence[ModeAssignment]],
        model: SystemModel) -> Sequence[Sequence[ModeAssignment]]:
    """Validate supplied trajectories against a model: every step is at a
    nonnegative time point after the step before it and assigns every
    component one of its declared modes, and no other component."""
    by_id = {c.id: c for c in model.components}
    for i, trajectory in enumerate(trajectories):
        for k, w in enumerate(trajectory):
            where = f"trajectory #{i} at t={w.t}"
            if w.t < 0:
                raise ValidationError(
                    f"{where}: time points must be nonnegative", element=w.t)
            if k and w.t <= trajectory[k - 1].t:
                raise NonIncreasingInstantsError(
                    f"{where}: time points must strictly increase, got "
                    f"{w.t} after {trajectory[k - 1].t}", element=w.t)
            assigned = w.as_dict()
            for c in model.components:
                if c.id not in assigned:
                    raise ValidationError(
                        f"{where}: no mode for component {c.id!r}",
                        element=c.id)
            for comp, mode in w.modes:
                spec = by_id.get(comp)
                if spec is None or mode not in spec.modes:
                    raise UnknownModeAtomError(
                        f"{where}: unknown mode atom {mode}({comp})",
                        element=(comp, mode))
    return trajectories
