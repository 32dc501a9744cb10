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

``revise_trellis`` computes both revisions over the trellis arrays: it
makes every check first, instant by instant, and only then builds each
instant's revision, with modes as indices; ``normalization_factor`` is the
global revision's factor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AllZeroJointsError, ZeroAdmittedMassError
from .markov import matrix_powers
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
    """Per-component revision data at one instant. Modes are indices into
    the component's declared modes, and the distributions are arrays over
    them."""

    distribution: np.ndarray
    #: the modes some candidate at this instant assigns, ascending
    admitted: np.ndarray
    factor: float
    posterior: np.ndarray
    #: each mode step used by an admissible trellis edge into this instant,
    #: as a |T| x 2 array of (from, to) modes ascending by from, then to
    transitions: np.ndarray
    #: each step's raw n-step entry and revised score
    entries: np.ndarray
    revised_entries: np.ndarray


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


def _runs(values: np.ndarray, keys: np.ndarray, count: int) -> list:
    """``values`` cut by their ascending ``keys`` into ``count`` runs of
    views: run k holds the values whose key is k."""
    bounds = [0, *np.cumsum(np.bincount(keys, minlength=count)).tolist()]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


def revise_trellis(trellis: Trellis, model: SystemModel,
                   ) -> tuple[InstantRevision, ...]:
    """Apply revision at every instant of a built trellis.

    At each instant the joints of the admissible partial evolutions ending
    there are renormalized (global revision) and every component's
    propagated distribution ``pi0 . P^t`` is renormalized over its
    admitted modes (per-component revision).

    Every check comes first. Each component's admitted modes, ``pi_t``,
    mass and factor are (instants x modes) arrays, and the global factor
    is taken as the forward pass yields each instant, so the first failure
    raises in order: instant by instant, the global factor before the
    components, and the components in model order. Only then is any
    instant's revision built.

    Raises:
        AllZeroJointsError: see ``normalization_factor``.
        ZeroAdmittedMassError: a component's admitted modes carry too
            little probability for the reciprocal to be finite.
    """
    count, width = len(trellis.instants), len(model.components)
    rows = np.concatenate(trellis.modes)
    layer = np.repeat(np.arange(count), [len(m) for m in trellis.modes])
    chains = []
    for ci, c in enumerate(model.components):
        # pi0 . P^t, not the previous instant's pi . P^n: the two round
        # differently, and chaining drifts from the definition's floats
        pi = trellis.initials[c.id] @ matrix_powers(c.matrix, trellis.instants)
        kept = np.zeros(pi.shape, dtype=bool)
        kept[layer, rows[:, ci]] = True
        masked = np.where(kept, pi, 0.0)
        mass = np.zeros(count)
        for column in masked.T:  # left to right, as ``_total`` adds
            mass += column
        with np.errstate(divide="ignore", over="ignore"):
            factor = 1.0 / mass
        chains.append((pi, kept, masked, mass, factor))
    # each component's first instant whose factor is not finite, if any
    unfit = [next(iter(np.flatnonzero(~np.isfinite(factor)).tolist()), None)
             for *_, factor in chains]

    layers = []
    for k, (paths, joints) in enumerate(forward_paths(trellis)):
        layers.append((paths, joints, normalization_factor(joints)))
        for c, first, (_, kept, _, mass, _) in zip(
                model.components, unfit, chains):
            if first == k:
                admitted = sorted(c.modes[i] for i in np.flatnonzero(kept[k]))
                raise ZeroAdmittedMassError(
                    f"admitted modes {admitted} carry probability "
                    f"{float(mass[k])!r}, too little to renormalize")

    # the admissible edges of all steps, flat: step by step, row-major
    # within a step
    offsets = np.cumsum([0, *(c.size for c in trellis.conditionals)])
    flat = np.flatnonzero(np.concatenate(
        [np.zeros(0, dtype=bool), *(a.ravel() for a in trellis.admissible)]))
    step = np.repeat(np.arange(count - 1), [
        np.count_nonzero(a) for a in trellis.admissible])
    sources, targets = np.divmod(flat - offsets[step], np.array(
        [len(m) for m in trellis.modes[1:]], dtype=np.intp)[step])
    conditionals = np.concatenate(
        [np.empty(0), *(c.ravel() for c in trellis.conditionals)])[flat]
    factors = np.concatenate([np.empty((0, width)), *(
        f.reshape(c.size, width)
        for f, c in zip(trellis.factors, trellis.conditionals))])[flat]
    norms = np.array([norm for *_, norm in layers])
    edges = zip(*(_runs(values, step + 1, count) for values in (
        sources, targets, conditionals, conditionals * norms[step + 1])))

    starts = np.cumsum([0, *(len(m) for m in trellis.modes)])
    components = {}
    for ci, (c, (pi, kept, masked, _, factor)) in enumerate(zip(
            model.components, chains)):
        n = len(c.modes)
        # each mode step taken as step * n^2 + from * n + to; every edge
        # taking one step carries the same n-step entry
        key = (step * n + rows[starts[step] + sources, ci]) * n + rows[
            starts[step + 1] + targets, ci]
        entry = np.zeros((count - 1) * n * n)
        entry[key] = factors[:, ci]
        taken = np.flatnonzero(np.bincount(key, minlength=len(entry)))
        # back to the step, whose target instant is step + 1, and the modes
        pair, after = np.divmod(taken, n)
        at, before = np.divmod(pair, n)
        at += 1
        instant, admitted = np.nonzero(kept)
        components[c.id] = [ComponentRevision(*fields) for fields in zip(
            pi, _runs(admitted, instant, count), factor.tolist(),
            masked * factor[:, None],
            _runs(np.stack((before, after), axis=1), at, count),
            _runs(entry[taken], at, count),
            _runs(entry[taken] * factor[at], at, count))]

    return tuple(
        InstantRevision(
            t=t, factor=norm, path_indices=paths, joints=joints,
            revised_joints=joints * norm, sources=s, targets=d,
            conditionals=p, revised_conditionals=r,
            components={cid: revisions[k]
                        for cid, revisions in components.items()})
        for k, (t, (paths, joints, norm), (s, d, p, r)) in enumerate(zip(
            trellis.instants, layers, edges)))
