"""Revision of stochastic predictions against the logically admitted set.

When the reasoning over the behavioral model is assumed complete (no
possible diagnosis is lost), the joint probabilities of the evolutions
surviving at an instant can be renormalized to sum to 1. Globally this
multiplies every joint and every step conditional by the reciprocal of the
joint sum; per component, the chain's predicted distribution is renormalized
over the modes the logic still admits.

Revised conditionals and transition scores can exceed 1; they are plain
scores, not probabilities, and the plausibility threshold may be re-checked
against them.

``revise_trellis`` computes both revisions over the trellis arrays in one
pass, each component's admitted modes and mass factor from mode indices;
``normalization_factor`` is the global revision's factor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AllZeroJointsError, ZeroAdmittedMassError
from .markov import propagate_distribution
from .model import SystemModel
from .temporal import Trellis, forward_paths


def _total(values: Iterable[float]) -> float:
    """``values`` added strictly left to right. From Python 3.12 on
    ``sum`` compensates the rounding of floats, which would make the
    factors differ between Python versions."""
    return reduce(operator.add, values, 0.0)


def normalization_factor(joints: Sequence[float]) -> float:
    """Reciprocal of the summed joint probabilities at an instant.

    Raises:
        AllZeroJointsError: the sum is 0 (every logically admitted
            evolution is stochastically impossible) or so small that its
            reciprocal overflows; revision is undefined.
    """
    total = float(_total(joints))
    factor = 1.0 / total if total > 0.0 else math.inf
    if not math.isfinite(factor):
        raise AllZeroJointsError(f"joint probabilities sum to {total!r}, too "
                                 "little to renormalize; revision is undefined")
    return factor


@dataclass(frozen=True)
class ComponentRevision:
    """Per-component revision data at one instant; the distributions are
    arrays over the component's declared modes."""

    distribution: np.ndarray
    admitted: tuple[str, ...]
    factor: float
    posterior: np.ndarray
    #: (from_mode, to_mode, raw n-step entry, revised score) for each mode
    #: step used by an admissible trellis edge into this instant.
    revised_transitions: tuple[tuple[str, str, float, float], ...]


@dataclass(frozen=True)
class InstantRevision:
    """Revision of everything the trellis knows at one instant."""

    t: int
    factor: float
    #: the forward pass's |P| x (k + 1) array of candidate-index paths
    path_indices: np.ndarray
    joints: tuple[float, ...]
    revised_joints: tuple[float, ...]
    #: (source index, target index, raw conditional, revised score) for each
    #: admissible edge into this instant; empty at the first instant.
    revised_conditionals: tuple[tuple[int, int, float, float], ...]
    components: Mapping[str, ComponentRevision]


def revise_trellis(trellis: Trellis, model: SystemModel,
                   ) -> tuple[InstantRevision, ...]:
    """Apply revision at every instant of a built trellis.

    At each instant the joints of the admissible partial evolutions ending
    there are renormalized (global revision) and every component's
    propagated distribution is renormalized over its admitted modes
    (per-component revision). Modes are handled as indices; names are
    looked up only for ``admitted`` and ``revised_transitions``.
    """
    revisions = []
    for k, (t, modes, (paths, joints)) in enumerate(zip(
            trellis.instants, trellis.modes, forward_paths(trellis))):
        joints = tuple(joints.tolist())
        factor = normalization_factor(joints)
        # (sources, targets, conditionals) of the admissible edges into k
        edges, steps = ((), (), ()), [{}] * len(model.components)
        if k > 0:
            sources, targets = np.nonzero(trellis.admissible[k - 1])
            edges = (sources.tolist(), targets.tolist(),
                     trellis.conditionals[k - 1][sources, targets].tolist())
            # every edge taking one component's mode step carries the same
            # n-step entry, so one entry per step speaks for all of them
            steps = [dict(zip(zip(a, b), entries)) for a, b, entries in zip(
                trellis.modes[k - 1][sources].T.tolist(),
                modes[targets].T.tolist(),
                trellis.factors[k - 1][sources, targets].T.tolist())]

        components = {}
        for c, column, step in zip(model.components, modes.T.tolist(), steps):
            # pi0 . P^t, not the previous instant's pi . P^n: the two round
            # differently, and chaining drifts from the definition's floats
            pi_t = propagate_distribution(trellis.initials[c.id], c.matrix, t)
            probs = pi_t.tolist()
            kept = sorted(set(column))  # admitted mode indices
            admitted = tuple(sorted(c.modes[i] for i in kept))
            mass = _total(probs[i] for i in kept)
            f = 1.0 / mass if mass > 0.0 else math.inf
            if not math.isfinite(f):
                raise ZeroAdmittedMassError(
                    f"admitted modes {list(admitted)} carry probability "
                    f"{mass!r}, too little to renormalize")
            components[c.id] = ComponentRevision(
                distribution=pi_t, admitted=admitted, factor=f,
                posterior=np.array([p * f if i in kept else 0.0
                                    for i, p in enumerate(probs)]),
                revised_transitions=tuple(sorted(
                    (c.modes[a], c.modes[b], p, p * f)
                    for (a, b), p in step.items())))

        revisions.append(InstantRevision(
            t=t, factor=factor, path_indices=paths, joints=joints,
            revised_joints=tuple(j * factor for j in joints),
            revised_conditionals=tuple(zip(
                *edges, (p * factor for p in edges[2]))),
            components=components))
    return tuple(revisions)
