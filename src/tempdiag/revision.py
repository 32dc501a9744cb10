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

``revise_trellis`` computes both revisions over the trellis arrays and
the forward pass's table. Both factors are reciprocals of sums, taken
and checked together before anything else is built; then it builds the
revision of the whole stream, a ``StreamRevision`` of flat arrays with
modes as indices, whose ``factors`` are the global revision's. It keeps
the paths as the table's back-pointers, a few numbers per path:
``temporal.SpelledPaths`` spells them as they are read, so nothing the
revision holds grows with the square of the stream's length. Its
``len``, indexing and iteration give each instant's ``InstantRevision``:
its time point and its paths, spelled when it is built.
"""

from __future__ import annotations

import operator
from functools import reduce
from types import SimpleNamespace
from typing import Iterable, NamedTuple

import numpy as np

from .errors import AllZeroJointsError, ZeroAdmittedMassError
from .markov import matrix_powers
from .model import SystemModel
from .temporal import SpelledPaths, Trellis, name_ranks


def _total(values: Iterable[float]) -> float:
    """``values`` added strictly left to right. From Python 3.12 on
    ``sum`` compensates the rounding of floats, which would make the
    factors differ between Python versions."""
    return reduce(operator.add, values, 0.0)


class InstantRevision(NamedTuple):
    """One instant of a revision: its time point and the |P| x (k + 1)
    int32 array of the candidate-index paths ending there, in the forward
    pass's (lexicographic) order."""

    t: int
    path_indices: np.ndarray


class ComponentStream(NamedTuple):
    """A component's revision at every instant, modes as indices into its
    declared modes. ``distributions`` (``pi0 . P^t``) and ``posteriors``
    are (instants x modes) arrays and ``factors`` has one entry per
    instant. ``admitted`` (|A| x 2: instant, mode) and ``transitions``
    (|T| x 3: instant, from, to, the steps of the admissible edges into
    the instant) are rows ascending by instant and then by mode name,
    the report's order; each step's raw n-step entry and revised score
    are in ``entries`` and ``revised_entries``."""

    distributions: np.ndarray
    admitted: np.ndarray
    factors: np.ndarray
    posteriors: np.ndarray
    transitions: np.ndarray
    entries: np.ndarray
    revised_entries: np.ndarray


class StreamRevision(SimpleNamespace):
    """Revision of every instant of a trellis, as flat arrays.

    ``instants`` are the time points and ``factors`` their normalization
    factors. The paths ending at instant k are rows ``paths[k]`` to
    ``paths[k + 1]`` of ``joints`` and ``revised_joints``; ``spelled``, a
    ``SpelledPaths`` of the forward pass's back-pointers, spells their
    candidate indices as they are read. The admissible edges into instant
    k are entries ``edges[k]`` to ``edges[k + 1]`` of ``sources``,
    ``targets``, ``conditionals`` and ``revised_conditionals``.
    ``components`` maps each component id, in model order, to its
    ``ComponentStream``.

    It is a sequence of instants, so not a tuple of its fields: ``len``,
    indexing and iteration give each instant's ``InstantRevision``, its
    paths spelled by ``spelled`` (so in order, each from the instant
    before). Fields are keywords, and it compares and hashes by identity.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __len__(self) -> int:
        return len(self.instants)

    def __getitem__(self, k: int) -> InstantRevision:
        k = range(len(self))[k]  # from the end if negative; IndexError ends
        return InstantRevision(self.instants[k], self.spelled.layer(k))


def revise_trellis(trellis: Trellis, model: SystemModel,
                   table: tuple) -> StreamRevision:
    """Apply revision at every instant of a built trellis, whose
    ``forward_paths`` table is ``table``.

    At each instant the joints of the admissible partial evolutions ending
    there are renormalized (global revision) and every component's
    propagated distribution ``pi0 . P^t`` is renormalized over its
    admitted modes (per-component revision). Both take the reciprocal of
    a sum added left to right: the joint sums and each component's
    admitted mass form one instants x (1 + components) array, and every
    factor is its entry's reciprocal.

    Every check comes first, before any path is spelled out: the first
    entry whose reciprocal is not finite raises, in row-major order. So
    failures raise instant by instant, the joints before the components,
    and the components in model order. Each ``ComponentStream``'s rows
    ascend by instant and then by mode name, the report's order.

    Raises:
        AllZeroJointsError: the joints at an instant sum to 0 (every
            logically admitted evolution is stochastically impossible) or
            so little that the reciprocal overflows; revision is undefined.
        ZeroAdmittedMassError: a component's admitted modes carry too
            little probability for the reciprocal to be finite.
    """
    count = len(trellis.instants)
    layer = np.repeat(np.arange(count), np.diff(trellis.starts))
    paths, parents, candidates, joints = table
    bounds = paths.tolist()
    sums, chains = [[_total(joints[p:q].tolist())
                     for p, q in zip(bounds, bounds[1:])]], []
    for ci, c in enumerate(model.components):
        # pi0 . P^t, not the previous instant's pi . P^n: the two round
        # differently, and chaining drifts from the definition's floats
        pi = trellis.initials[c.id] @ matrix_powers(c.matrix, trellis.instants)
        kept = np.zeros(pi.shape, dtype=bool)
        kept[layer, trellis.rows[:, ci]] = True
        masked = np.where(kept, pi, 0.0)
        sums.append(_total(masked.T))  # the modes added left to right
        chains.append((c, pi, kept, masked))
    sums = np.column_stack(sums)
    with np.errstate(divide="ignore", over="ignore"):
        factors = 1.0 / sums
    unfit = np.flatnonzero(~np.isfinite(factors))
    if len(unfit):
        k, j = divmod(unfit[0].item(), sums.shape[1])
        if not j:
            raise AllZeroJointsError(
                f"joint probabilities sum to {sums[k, 0].item()!r}, too "
                "little to renormalize; revision is undefined")
        c, _, kept, _ = chains[j - 1]
        admitted = sorted(c.modes[i] for i in np.flatnonzero(kept[k]))
        raise ZeroAdmittedMassError(
            f"admitted modes {admitted} carry probability "
            f"{sums[k, j].item()!r}, too little to renormalize")
    norms = factors[:, 0]

    # the admissible edges of all steps, in the trellis' flat order
    flat = np.flatnonzero(trellis.admissible)
    step, sources, targets = (ends[flat] for ends in trellis.endpoints)
    conditionals = trellis.conditionals[flat]

    components = {}
    for ci, (c, pi, kept, masked) in enumerate(chains):
        n, rank, factor = len(c.modes), name_ranks(c), factors[:, ci + 1]
        named = rank.argsort()  # the declared mode of each rank
        # each mode step keyed (instant * n + from) * n + to at its target
        # instant, modes by name rank, from each edge's index, (gap * n +
        # from) * n + to in intp (n^2 may pass its dtype): edges share keys
        index = trellis.entries[ci][flat].astype(np.intp)
        key = ((step + 1) * n + rank[index // n % n]) * n + rank[index % n]
        entry = np.zeros(count * n * n)
        entry[key] = trellis.powers[ci].take(index)
        taken = np.flatnonzero(np.bincount(key, minlength=len(entry)))
        moves = np.stack(np.unravel_index(taken, (count, n, n)), axis=1)
        moves[:, 1:] = named[moves[:, 1:]]
        admitted = np.argwhere(kept[:, named])
        admitted[:, 1] = named[admitted[:, 1]]
        components[c.id] = ComponentStream(
            pi, admitted, factor, masked * factor[:, None], moves,
            entry[taken], entry[taken] * factor[moves[:, 0]])

    return StreamRevision(
        instants=trellis.instants, factors=norms,
        paths=paths, spelled=SpelledPaths(paths, parents, candidates),
        joints=joints, revised_joints=joints * np.repeat(norms, np.diff(paths)),
        # counted rather than searched: np.searchsorted's first call
        # touches 128 KB, a small run's whole margin of peak memory
        edges=np.cumsum([0, *np.bincount(step + 1, minlength=count)]),
        sources=sources, targets=targets, conditionals=conditionals,
        revised_conditionals=conditionals * norms[step + 1],
        components=components)
