"""Temporal diagnosis: rank mode evolutions across the observed instants.

The engine solves the atemporal problem once per distinct observation,
lays the candidate sets out as layers of a trellis, connects
consecutive layers with edges weighted by the n-step conditional probability
of the joint mode change, filters edges against the plausibility threshold,
and enumerates the surviving evolutions ranked by joint probability.

Because components evolve independently, an evolution's probability
factorizes: the joint probability of a trajectory is the prior of its first
assignment times the product of its consecutive step conditionals, each of
which is itself a product of per-component n-step matrix entries.

The trellis is built as arrays (the HMM trellis layout). Its layers, the
|L| x C mode-index arrays the atemporal solver returns, lie stacked in
``Trellis.rows``, the edges of all steps in flat arrays, step by step and
row-major within a step: ``Trellis.bounds`` and ``Trellis.endpoints`` are
the one definition of that layout. Each component's
``P^n`` is computed once per distinct gap n, and those stacked powers,
flattened, are the component's table of n-step entries: an edge keeps only
the index of its entry, in the narrowest unsigned dtype that holds the
table's indices. So an edge costs 9 bytes (its conditional and its
admissibility) plus one index per component: 13 bytes for 4 components
whose tables have at most 256 entries each. ``forward_paths``
expands the admissible paths of all layers with their joints into one flat
table of back-pointers, as Viterbi keeps them: each path's parent entry
and its candidate, so a path costs a few numbers, not its prefix. No other
engine code computes a joint, and none outside this module follows a
back-pointer: ``ranked_paths`` gathers the complete paths as mode-index
arrays (``Evolutions``) and holds the only ranking rule, one
``np.lexsort``, and ``SpelledPaths`` spells every prefix for revision as
it is read, a layer from the one before. ``enumerate_evolutions`` serves
a diagnostic problem and ``rank_evolutions`` supplied trajectories; both
return ``Evolutions``, the one form an evolution takes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .atemporal import (
    DEFAULT_CANDIDATE_CAP,
    ExplanationCriterion,
    ModeAssignment,
    solve_atemporal,
)
from .errors import (
    EmptyStreamError,
    NoAdmissibleEvolutionError,
    NoCandidatesError,
    NonIncreasingInstantsError,
    ValidationError,
)
from .markov import matrix_powers
from .model import ComponentSpec, ObservationStream, SystemModel


class ThresholdMode(Enum):
    """Where the plausibility threshold is applied.

    GLOBAL compares the full conditional probability of a step against the
    threshold; PER_COMPONENT compares every component's own n-step entry
    against it. A global pass implies every per-component factor passes,
    not vice versa.
    """

    GLOBAL = "global"
    PER_COMPONENT = "per_component"


class DiagnosticProblem(NamedTuple):
    """A system model, its observations, and the filtering configuration."""

    model: SystemModel
    observations: ObservationStream
    sigma: float = 0.0
    threshold_mode: ThresholdMode = ThresholdMode.GLOBAL
    criterion: ExplanationCriterion = ExplanationCriterion.ABDUCTIVE
    candidate_cap: int = DEFAULT_CANDIDATE_CAP


class Trellis(NamedTuple):
    """Layered candidate graph over the relevant instants.

    ``rows`` holds the candidates of all instants stacked, a (Σ|L_k|) x C
    array of mode indices: column c is ``model.components[c]``, each entry
    an index into that component's declared modes. Layer k, the candidates
    at ``instants[k]``, is rows ``starts[k]`` to ``starts[k + 1]``. Step k
    joins layer k to layer k + 1 by one edge per candidate pair (i, j); the
    edges of all steps are laid out flat, step k's at ``bounds[k]`` to
    ``bounds[k + 1]`` in row-major order, so the edge from i to j is
    ``bounds[k] + i * |L_k+1| + j``. Per edge, component c's n-step entry is
    ``powers[c][entries[c][e]]``: ``powers[c]`` is its ``P^n`` for each
    distinct gap n, ascending, stacked and flattened, and ``entries[c]``
    holds each edge's index into it, an unsigned integer array.
    ``conditionals[e]`` is the product of the edge's entries, and
    ``admissible[e]`` the threshold check under the problem's threshold
    mode. ``priors[i]`` is candidate i's probability at the first instant
    under the ``initials`` (an array per component). A trellis compares and
    hashes by identity.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    instants: tuple[int, ...]
    rows: np.ndarray
    starts: np.ndarray
    initials: Mapping[str, np.ndarray]
    priors: np.ndarray
    entries: tuple[np.ndarray, ...]
    powers: tuple[np.ndarray, ...]
    conditionals: np.ndarray
    admissible: np.ndarray

    @property
    def bounds(self) -> np.ndarray:
        """Where each step's edges lie: ``bounds[k]`` to ``bounds[k + 1]``,
        from the layer sizes."""
        return _bounds(self.starts)

    @property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each edge's step k, its source candidate in layer k and its
        target candidate in layer k + 1."""
        return _endpoints(self.starts)


def _bounds(starts: np.ndarray) -> np.ndarray:
    """``Trellis.bounds`` over the layers that begin at ``starts``."""
    sizes = np.diff(starts).tolist()
    # from 0, so that a trellis with no step gets integers too
    return np.cumsum([0, *(n * m for n, m in zip(sizes, sizes[1:]))])


def _endpoints(starts: np.ndarray) -> tuple[np.ndarray, ...]:
    """``Trellis.endpoints`` over the layers that begin at ``starts``."""
    bounds = _bounds(starts)
    steps = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return (steps, *np.divmod(np.arange(bounds[-1]) - bounds[steps],
                              np.diff(starts)[steps + 1]))


def resolve_initial_distributions(
        model: SystemModel,
        first_instant: int | None = None,
        first_candidates: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Initial distribution per component, resolved in priority order:
    the component's own declaration, then uniform induction from the
    candidate set (a |L| x C mode-index array) when the first relevant
    instant is 0 and the set is not empty, then the uniform distribution
    over the component's modes.

    Induction gives every candidate mass ``1/|L|``: a component's
    probability of being in mode m is the mass of the candidates assigning
    m to it, added candidate by candidate.
    """
    weights = None
    if first_instant == 0 and first_candidates is not None and len(
            first_candidates):
        weights = np.full(len(first_candidates), 1.0 / len(first_candidates))
    out = {}
    for ci, c in enumerate(model.components):
        if c.initial_distribution is not None:
            out[c.id] = c.initial_distribution
        elif weights is not None:
            out[c.id] = np.bincount(first_candidates[:, ci], weights,
                                    minlength=len(c.modes))
        else:
            out[c.id] = np.full(len(c.modes), 1.0 / len(c.modes))
    return out


def trellis_from_layers(
        model: SystemModel, instants: Sequence[int],
        modes: Sequence[np.ndarray],
        initials: Mapping[str, np.ndarray], sigma: float = 0.0,
        threshold_mode: ThresholdMode = ThresholdMode.GLOBAL) -> Trellis:
    """The trellis arrays over given candidate layers, each a |L| x C
    mode-index array: priors, each component's table of n-step entries and
    every edge's index into it, and the flat conditionals and
    admissibility of every edge.

    Raises:
        NonIncreasingInstantsError: some instant does not follow the one
            before it.
    """
    gaps = [after - before for before, after in zip(instants, instants[1:])]
    for k, n in enumerate(gaps):
        if n <= 0:
            raise NonIncreasingInstantsError(
                f"step from t={instants[k]} to t={instants[k + 1]} does not "
                "advance time")
    distinct = sorted(set(gaps))
    position = {n: i for i, n in enumerate(distinct)}

    # each edge's source and target as rows of all layers, stacked
    rows, starts = np.concatenate(modes), np.cumsum([0, *map(len, modes)])
    steps, sources, targets = _endpoints(starts)
    sources += starts[steps]
    targets += starts[steps + 1]
    gap = np.array([position[n] for n in gaps], dtype=np.intp)[steps]

    per_component = threshold_mode is ThresholdMode.PER_COMPONENT
    priors, entries, powers = np.ones(len(modes[0])), [], []
    # multiplied in component order from 1.0, as the product per edge
    conditionals = np.ones(len(steps))
    admissible = np.ones(len(steps), dtype=bool)
    for ci, c in enumerate(model.components):
        stacked = matrix_powers(c.matrix, [instants[0], *distinct])
        priors *= (initials[c.id] @ stacked[0])[modes[0][:, ci]]
        m, table = len(c.modes), stacked[1:].ravel()
        index = (gap * m + rows[sources, ci]) * m + rows[targets, ci]
        conditionals *= table.take(index)
        if per_component:
            admissible &= (table >= sigma).take(index)
        # narrowed by itself: a cast inside a gather or an assignment
        # takes 128 KB buffers
        entries.append(index.astype(np.min_scalar_type(max(table.size - 1,
                                                           0))))
        powers.append(table)
    if not per_component:
        np.greater_equal(conditionals, sigma, out=admissible)
    return Trellis(tuple(instants), rows, starts, initials, priors,
                   tuple(entries), tuple(powers), conditionals, admissible)


def build_trellis(problem: DiagnosticProblem) -> Trellis:
    """Solve every atemporal problem and materialize the full trellis.
    Each distinct observation, a ``(present, absent)`` pair, is solved
    once, and its candidates are copied to each instant that repeats it.

    Raises:
        EmptyStreamError: the stream has no entries.
        NoCandidatesError: some instant has no atemporal solution.
    """
    if not 0.0 <= problem.sigma <= 1.0:
        raise ValidationError(
            f"sigma must lie in [0, 1], got {problem.sigma!r}")
    if problem.candidate_cap < 1:  # every assignment space holds at least one
        raise ValidationError(
            f"candidate cap must be at least 1, got {problem.candidate_cap!r}")
    model, entries = problem.model, problem.observations.entries
    if not entries:
        raise EmptyStreamError("observation stream has no entries")
    instants = [entry.t for entry in entries]

    layers, solved = [], {}
    for entry in entries:
        key = entry.present, entry.absent
        if key not in solved:
            solved[key] = solve_atemporal(model, entry, problem.criterion,
                                          problem.candidate_cap)
        if not len(solved[key]):
            raise NoCandidatesError(entry.t)
        layers.append(solved[key])

    initials = resolve_initial_distributions(model, instants[0], layers[0])
    return trellis_from_layers(model, instants, layers, initials,
                               problem.sigma, problem.threshold_mode)


def forward_paths(trellis: Trellis,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The admissible partial evolutions of every layer, as one flat table
    of back-pointers ``(starts, parents, candidates, joints)``.

    Layer k's paths are entries ``starts[k]`` to ``starts[k + 1]``: the
    paths from layer 0 along admissible steps, in lexicographic order of
    their candidates. Each entry holds its prefix's entry in ``parents``
    (-1 at layer 0), its candidate in layer k and its joint: its prior
    times its step conditionals, multiplied left to right. A layer with no
    path leaves every later layer empty.
    """
    sizes = np.diff(trellis.starts).tolist()
    candidates, joints = np.arange(sizes[0]), trellis.priors
    # every layer's entries in lists: a thin layer's arrays would cost more
    # in headers than in numbers
    starts = [0, len(candidates)]
    table = [-1] * len(candidates), candidates.tolist(), joints.tolist()
    bounds = trellis.bounds.tolist()
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        shape = sizes[k], sizes[k + 1]
        parents, targets = np.nonzero(
            trellis.admissible[a:b].reshape(shape)[candidates])
        joints = joints[parents] * trellis.conditionals[a:b].reshape(shape)[
            candidates[parents], targets]
        candidates = targets
        for column, values in zip(table, (parents + starts[-2], candidates,
                                          joints)):
            column += values.tolist()
        starts.append(len(table[0]))
    parents, candidates, joints = table
    return (np.array(starts), np.array(parents, dtype=np.intp),
            np.array(candidates, dtype=np.intp), np.array(joints))


class SpelledPaths:
    """Every path of a ``forward_paths`` table as int32 candidate indices:
    layer k's as a |P_k| x (k + 1) block, row-major, after layer k - 1's.
    The cells are spelled as they are read, not held: ``layer(k)``, and a
    slice ``[lo:hi]`` of the cells, spell each layer from the block of the
    layer before, from layer 0 again when reading goes back. So reading in
    order holds two layers' blocks at a time. A block is a new array,
    never written once spelled."""

    dtype = np.dtype(np.int32)

    def __init__(self, starts: np.ndarray, parents: np.ndarray,
                 candidates: np.ndarray):
        # layer k's paths are entries starts[k + 1] to starts[k + 2] of
        # this list, and their parents' layer starts at starts[k]: 0 for
        # layer 0's -1s
        self.starts = [0, *starts.tolist()]
        self.parents, self.candidates = parents, candidates
        #: the cells before each layer's block, then the number of cells
        self.cells = np.cumsum([0, *np.diff(starts) * range(1, len(starts))]
                               ).tolist()
        self._k = len(starts)  # past the last layer: reads start at layer 0

    def layer(self, k: int) -> np.ndarray:
        """Layer k's |P_k| x (k + 1) block."""
        if k < self._k:  # what layer 0's -1s pick
            self._k, self._block = -1, np.empty((1, 0), np.int32)
        for j in range(self._k + 1, k + 1):
            a, p, q = self.starts[j:j + 3]
            block = np.empty((q - p, j + 1), np.int32)
            block[:, :j] = self._block[self.parents[p:q] - a]
            # int32 first: a cast in an assignment takes 128 KB buffers
            block[:, j] = self.candidates[p:q].astype(np.int32)
            self._k, self._block = j, block
        return self._block

    def __getitem__(self, cells: slice) -> np.ndarray:
        """Cells ``cells.start`` to ``cells.stop`` of all the blocks."""
        lo, hi, at = cells.start, cells.stop, self.cells
        parts = [self.layer(k).ravel()[max(lo - at[k], 0):hi - at[k]]
                 for k in range(bisect_right(at, lo) - 1, bisect_left(at, hi))]
        # a view of one block, which is never written again
        return parts[0] if len(parts) == 1 else np.concatenate(
            [np.empty(0, np.int32), *parts])


class Evolutions(NamedTuple):
    """Evolutions as arrays, one row each, in ranked order.

    At its k-th step evolution e is at instant ``times[instants[e, k]]`` in
    the modes ``modes[e, k]`` (column c indexes the declared modes of
    ``model.components[c]``); both hold -1 past the end of an evolution
    shorter than the longest. ``steps[e, k]`` is its k-th step conditional
    (NaN past the end), ``priors[e]`` the probability of its first
    assignment and ``joints[e]`` the prior times the steps. Evolutions
    compare and hash by identity.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    times: tuple[int, ...]
    instants: np.ndarray
    modes: np.ndarray
    priors: np.ndarray
    steps: np.ndarray
    joints: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        """The number of instants of each evolution."""
        return np.count_nonzero(self.instants >= 0, axis=1)


def name_ranks(component: ComponentSpec) -> np.ndarray:
    """Each declared mode's rank among the component's modes by name."""
    modes = component.modes
    return np.argsort(sorted(range(len(modes)), key=modes.__getitem__))


def ranked_paths(model: SystemModel, trellises: Sequence[Trellis],
                 tables: Iterable[tuple]) -> Evolutions:
    """The complete admissible paths of the trellises, ranked by descending
    joint. Ties go to the evolution that sorts first instant by instant, by
    ``t`` and then by mode name in component-id order (``ModeAssignment``
    order, not declared mode order), and a prefix sorts before its
    extensions. Equal evolutions keep their order: the trellises' and,
    within one trellis, the forward pass's: ``tables`` holds each
    trellis' ``forward_paths`` table."""
    times = sorted({t for trellis in trellises for t in trellis.instants})
    position = {t: i for i, t in enumerate(times)}
    # with no trellis any length will do; one keeps every shape valid
    n = max((len(trellis.instants) for trellis in trellises), default=1)
    width = len(model.components)
    parts = []
    for trellis, (offsets, parents, candidates, joints) in zip(
            trellises, tables):
        # the last layer's entries are the complete evolutions: rebuilt
        # from them back to layer 0, one gather per layer
        at, length = np.arange(offsets[-2], offsets[-1]), len(offsets) - 1
        count, joints = len(at), joints[at]
        paths = np.empty((count, length), dtype=np.intp)
        for k in range(length - 1, -1, -1):
            paths[:, k], at = candidates[at], parents[at]
        instants = np.full((count, n), -1)
        instants[:, :length] = [position[t] for t in trellis.instants]
        # one gather each from the stacked layers and the flat
        # conditionals, at each path cell's row and each step's edge
        starts = trellis.starts
        modes = np.full((count, n, width), -1)
        modes[:, :length] = trellis.rows[paths + starts[:-1]]
        steps = np.full((count, n - 1), np.nan)
        steps[:, :length - 1] = trellis.conditionals[
            trellis.bounds[:-1] + paths[:, :-1] * np.diff(starts)[1:]
            + paths[:, 1:]]
        parts.append((instants, modes, trellis.priors[paths[:, 0]],
                      steps, joints))
    if len(parts) != 1:  # one trellis, as for every diagnose: no copy
        parts = [tuple(map(np.concatenate, zip(
            (np.empty((0, n), int), np.empty((0, n, width), int),
             np.empty(0), np.empty((0, n - 1)), np.empty(0)), *parts)))]
    ((instants, modes, priors, steps, joints),) = parts

    # per instant the keys are its t and each component's mode rank by
    # name, in id order; the -1 past an evolution's end sorts it first
    keys = np.empty((len(joints), n, width + 1), dtype=np.intp)
    keys[..., 0] = instants
    for j, ci in enumerate(sorted(
            range(width), key=lambda ci: model.components[ci].id), 1):
        ranks = np.append(name_ranks(model.components[ci]), -1)
        keys[..., j] = ranks[modes[..., ci]]  # index -1 stays -1
    keys = keys.reshape(len(joints), n * (width + 1))
    order = np.lexsort((*keys.T[::-1], -joints))
    return Evolutions(tuple(times), instants[order], modes[order],
                      priors[order], steps[order], joints[order])


def enumerate_evolutions(problem: DiagnosticProblem, trellis: Trellis,
                         table: tuple) -> Evolutions:
    """Every evolution of the problem's trellis whose consecutive steps are
    admissible, ranked as ``ranked_paths`` says from ``table``, the
    trellis' ``forward_paths`` table.

    Raises:
        NoAdmissibleEvolutionError: candidates exist at every instant but no
            evolution survives the threshold.
    """
    evolutions = ranked_paths(problem.model, [trellis], [table])
    if not len(evolutions.joints):
        raise NoAdmissibleEvolutionError(
            "no evolution passes the plausibility filter at "
            f"sigma={problem.sigma}")
    return evolutions


def rank_evolutions(model: SystemModel, trajectories: Sequence[Sequence[
        ModeAssignment]]) -> Evolutions:
    """Given trajectories, scored and ranked like diagnoses: each is a trellis
    with one candidate per instant, under the initial distributions resolved
    without induction."""
    initials = resolve_initial_distributions(model)
    ids = [c.id for c in model.components]
    index = [{m: i for i, m in enumerate(c.modes)} for c in model.components]
    trellises = []
    for trajectory in trajectories:
        layers = np.array([[[i[m] for i, m in zip(index, map(
            w.as_dict().__getitem__, ids))]] for w in trajectory], dtype=int)
        trellises.append(trellis_from_layers(
            model, [w.t for w in trajectory], layers, initials))
    return ranked_paths(model, trellises, map(forward_paths, trellises))
