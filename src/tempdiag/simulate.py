"""Monte Carlo sampling: sample mode evolutions and synthesize observations.

Trajectories are drawn per component from the one-step transition rows,
so a fixed seed replays exactly. The generator is built in: the doubles
of numpy's ``default_rng(seed).random()``, bit for bit (``SeedSequence``
seeding of PCG64, O'Neill 2014), without importing ``numpy.random``.
Sampled trajectories pushed through the behavioral rules produce
observation streams in the same shape the engine ingests.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from operator import index
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .atemporal import ModeAssignment, predicted_manifestations
from .errors import InstantOutOfRangeError, SearchSpaceError, ValidationError
from .model import Observation, ObservationStream, SystemModel

#: Identifier of the random generator algorithm, recorded in run metadata.
RNG_ALGORITHM = "numpy-pcg64"
#: Longest horizon sampled: time and report size grow linearly with it.
MAX_HORIZON = 10 ** 6


class SampledTrajectory(NamedTuple):
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


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hashmix: 32-bit words hashed with a running
    constant ``h``, multiplied by ``mult`` at every call."""
    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of two 32-bit pool words."""
    r = (0xca01f9dd * x - 0x4973f715 * y) & _M32
    return r ^ r >> 16


def _uniforms(seed: int) -> Iterator[float]:
    """The doubles of ``numpy.random.default_rng(seed).random()``.

    ``SeedSequence(seed)`` hashes the seed's little-endian 32-bit words
    into a pool of 4 and draws four 64-bit words ``s0..s3`` from it;
    PCG64 starts from ``initstate = s0:s1`` and ``inc = s2:s3 << 1 | 1``.
    Each draw steps the 128-bit LCG, takes the XSL-RR output of the new
    state and keeps its top 53 bits.
    """
    words = [seed >> k & _M32
             for k in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43b0d7e5, 0x931e8875)
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _hasher(0x8b51f9dd, 0x58f38ded)
    out = [hashmix(pool[i % 4]) for i in range(8)]
    s0, s1, s2, s3 = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))
    inc = (s2 << 64 | s3) << 1 & _M128 | 1
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    while True:
        state = state * _PCG_MULT + inc & _M128
        x, r = (state >> 64 ^ state) & _M64, state >> 122
        yield (((x >> r | x << 64 - r) & _M64) >> 11) * 2.0 ** -53


def _draw(cumulative: list[float], u: float) -> int:
    idx = bisect_right(cumulative, u)
    return min(idx, len(cumulative) - 1)


def sample_trajectory(model: SystemModel,
                      initials: Mapping[str, np.ndarray],
                      horizon: int, seed: int) -> SampledTrajectory:
    """Sample every component's mode sequence for t = 0..horizon.

    The initial mode comes from the component's initial distribution and
    each step from the current mode's matrix row; only the current mode
    matters. Components are drawn in sorted id order, ``horizon + 1``
    values each from one stream, so a fixed seed yields an identical
    trajectory on every run. ``seed`` is any nonnegative integer, numpy
    integers included (``operator.index``).

    Raises:
        SearchSpaceError: the horizon exceeds ``MAX_HORIZON``.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    if horizon > MAX_HORIZON:
        raise SearchSpaceError(f"horizon {horizon} exceeds the limit of "
                               f"{MAX_HORIZON}", element=horizon)
    seed = index(seed)
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    us = _uniforms(seed)
    sequences = {}
    for c in sorted(model.components, key=lambda c: c.id):
        init_cum = list(np.cumsum(initials[c.id]))
        row_cum = [list(row) for row in np.cumsum(c.matrix, axis=1)]
        state = _draw(init_cum, next(us))
        seq = [state]
        for u in islice(us, horizon):
            state = _draw(row_cum[state], u)
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
