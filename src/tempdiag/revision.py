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
    """Revision of everything the trellis knows at one instant, as arrays:
    the joints over the forward pass's paths ending here, the scores over
    the admissible edges into here (none at the first instant)."""

    t: int
    factor: float
    #: the forward pass's |P| x (k + 1) array of candidate-index paths
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
    width = len(model.components)
    for k, (t, modes, (paths, joints)) in enumerate(zip(
            trellis.instants, trellis.modes, forward_paths(trellis))):
        factor = normalization_factor(joints)
        # the admissible edges into k, and per edge and component the mode
        # step taken and its n-step entry
        if k:
            sources, targets = np.nonzero(trellis.admissible[k - 1])
            conditionals = trellis.conditionals[k - 1][sources, targets]
            before, after = trellis.modes[k - 1][sources], modes[targets]
            entries = trellis.factors[k - 1][sources, targets]
        else:
            sources = targets = np.zeros(0, dtype=np.intp)
            conditionals = np.zeros(0)
            before = after = np.zeros((0, width), dtype=np.intp)
            entries = np.zeros((0, width))

        components = {}
        for ci, c in enumerate(model.components):
            n = len(c.modes)
            # pi0 . P^t, not the previous instant's pi . P^n: the two round
            # differently, and chaining drifts from the definition's floats
            pi_t = propagate_distribution(trellis.initials[c.id], c.matrix, t)
            kept = np.flatnonzero(np.bincount(modes[:, ci], minlength=n))
            admitted = tuple(sorted(c.modes[i] for i in kept.tolist()))
            mass = _total(pi_t[kept].tolist())
            f = 1.0 / mass if mass > 0.0 else math.inf
            if not math.isfinite(f):
                raise ZeroAdmittedMassError(
                    f"admitted modes {list(admitted)} carry probability "
                    f"{mass!r}, too little to renormalize")
            posterior = np.zeros(n)
            posterior[kept] = pi_t[kept] * f
            # each mode step as from * n + to; every edge taking one step
            # carries the same n-step entry
            step = before[:, ci] * n + after[:, ci]
            entry = np.zeros(n * n)
            entry[step] = entries[:, ci]
            taken = np.flatnonzero(np.bincount(step, minlength=n * n))
            components[c.id] = ComponentRevision(
                distribution=pi_t, admitted=admitted, factor=f,
                posterior=posterior, revised_transitions=tuple(sorted(
                    (c.modes[s // n], c.modes[s % n], p, p * f)
                    for s, p in zip(taken.tolist(), entry[taken].tolist()))))

        revisions.append(InstantRevision(
            t=t, factor=factor, path_indices=paths, joints=joints,
            revised_joints=joints * factor, sources=sources, targets=targets,
            conditionals=conditionals,
            revised_conditionals=conditionals * factor,
            components=components))
    return tuple(revisions)
