"""Monte Carlo sampling: sample mode evolutions and synthesize observations.

Trajectories are drawn per component from the one-step transition rows,
using numpy's PCG64 generator so a fixed seed replays exactly. Sampled
trajectories pushed through the behavioral rules produce observation
streams in the same shape the engine ingests.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .atemporal import ModeAssignment, predicted_manifestations
from .errors import InstantOutOfRangeError, SearchSpaceError, ValidationError
from .model import Observation, ObservationStream, SystemModel

#: Identifier of the random generator algorithm, recorded in run metadata.
RNG_ALGORITHM = "numpy-pcg64"
#: Longest horizon sampled: time and report size grow linearly with it.
MAX_HORIZON = 10 ** 6


@dataclass(frozen=True)
class SampledTrajectory:
    """One realization of every component's mode process over 0..horizon."""

    seed: int
    horizon: int
    modes: Mapping[str, tuple[str, ...]]

    def assignment_at(self, t: int) -> ModeAssignment:
        if not 0 <= t <= self.horizon:
            raise InstantOutOfRangeError(
                f"t={t} outside the sampled horizon 0..{self.horizon}",
                element=t)
        return ModeAssignment.from_mapping(
            t, {comp: seq[t] for comp, seq in self.modes.items()})


def _draw(cumulative: list[float], u: float) -> int:
    idx = bisect_right(cumulative, u)
    return min(idx, len(cumulative) - 1)


def sample_trajectory(model: SystemModel,
                      initials: Mapping[str, np.ndarray],
                      horizon: int, seed: int) -> SampledTrajectory:
    """Sample every component's mode sequence for t = 0..horizon.

    The initial mode comes from the component's initial distribution and
    each step from the current mode's matrix row; only the current mode
    matters. Components are drawn in sorted id order, so a fixed seed yields
    an identical trajectory on every run.

    Raises:
        SearchSpaceError: the horizon exceeds ``MAX_HORIZON``.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    if horizon > MAX_HORIZON:
        raise SearchSpaceError(f"horizon {horizon} exceeds the limit of "
                               f"{MAX_HORIZON}", element=horizon)
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    sequences = {}
    for c in sorted(model.components, key=lambda c: c.id):
        init_cum = list(np.cumsum(initials[c.id]))
        row_cum = [list(row) for row in np.cumsum(c.matrix, axis=1)]
        us = rng.random(horizon + 1)
        state = _draw(init_cum, us[0])
        seq = [state]
        for t in range(1, horizon + 1):
            state = _draw(row_cum[state], us[t])
            seq.append(state)
        sequences[c.id] = tuple(c.modes[i] for i in seq)
    return SampledTrajectory(seed=seed, horizon=horizon, modes=sequences)


def generate_observation_stream(traj: SampledTrajectory, model: SystemModel,
                                instants: Iterable[int]) -> ObservationStream:
    """Noise-free observations of a sampled trajectory.

    At every requested instant the present atoms are exactly the
    manifestations the behavioral rules predict for the trajectory's
    assignment, and the absent atoms are their declared exclusive partners.
    """
    entries = []
    for t in sorted(set(instants)):
        assignment = traj.assignment_at(t)
        present = predicted_manifestations(assignment, model)
        absent = frozenset().union(
            *(model.exclusive_partners(a) for a in present)) if present \
            else frozenset()
        entries.append(Observation(t=t, present=present, absent=absent - present))
    return ObservationStream(tuple(entries))
