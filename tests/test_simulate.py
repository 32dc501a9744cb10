"""Sampling oracle: determinism, statistics, stream generation."""

import math
import random
from itertools import islice

import numpy as np
import pytest

from tempdiag import (
    ExplanationCriterion,
    generate_observation_stream,
    sample_trajectory,
    solve_atemporal,
)
from tempdiag.errors import InstantOutOfRangeError
from tempdiag.simulate import _uniforms

from propsuites import enumerated
from reference import (
    assignments,
    empirical_transition_matrix,
    matrix_power,
)


def point_initials(model, **modes):
    return {
        c.id: np.array([1.0 if m == modes[c.id] else 0.0 for m in c.modes])
        for c in model.components
    }


def uniform(model):
    return {
        c.id: np.full(len(c.modes), 1 / len(c.modes))
        for c in model.components
    }


class TestSampleTrajectory:
    def test_fixed_seed_replays(self, hydraulic):
        a = sample_trajectory(hydraulic, uniform(hydraulic), 50, seed=1234)
        b = sample_trajectory(hydraulic, uniform(hydraulic), 50, seed=1234)
        assert a == b

    def test_seeds_differ(self, hydraulic):
        a = sample_trajectory(hydraulic, uniform(hydraulic), 50, seed=1)
        b = sample_trajectory(hydraulic, uniform(hydraulic), 50, seed=2)
        assert a.modes != b.modes

    def test_absorbing_start_never_moves(self, hydraulic):
        initials = point_initials(hydraulic, P="broken", C="punctured")
        traj = sample_trajectory(hydraulic, initials, 40, seed=5)
        assert set(traj.modes["P"]) == {"broken"}
        assert set(traj.modes["C"]) == {"punctured"}

    def test_steps_follow_positive_entries(self, hydraulic):
        traj = sample_trajectory(hydraulic, uniform(hydraulic), 200, seed=8)
        for c in hydraulic.components:
            seq = traj.modes[c.id]
            for a, b in zip(seq, seq[1:]):
                assert c.matrix[c.modes.index(a), c.modes.index(b)] > 0.0

    def test_one_step_frequency_matches_matrix(self, hydraulic):
        # container correct -> correct entry is 9/10
        initials = point_initials(hydraulic, P="correct", C="correct")
        n = 20_000
        stayed = sum(
            sample_trajectory(hydraulic, initials, 1, seed=s)
            .modes["C"][1] == "correct"
            for s in range(n))
        p = 9 / 10
        tolerance = 3 * math.sqrt(p * (1 - p) / n)
        assert abs(stayed / n - p) <= tolerance


class TestEmpiricalMatrix:
    def test_zero_step_is_identity(self, hydraulic, container):
        samples = [sample_trajectory(hydraulic, uniform(hydraulic), 3, seed=s)
                   for s in range(200)]
        emp = empirical_transition_matrix(samples, container, 0)
        visited = emp.row_visits > 0
        np.testing.assert_allclose(emp.frequencies[visited],
                                   np.eye(3)[visited])

    def test_absorbing_row_is_exact(self, hydraulic, container):
        initials = point_initials(hydraulic, P="broken", C="punctured")
        samples = [sample_trajectory(hydraulic, initials, 5, seed=s)
                   for s in range(50)]
        emp = empirical_transition_matrix(samples, container, 1)
        assert emp.frequency("punctured", "punctured") == 1.0

    def test_unvisited_rows_flagged(self, hydraulic, container):
        initials = point_initials(hydraulic, P="broken", C="punctured")
        samples = [sample_trajectory(hydraulic, initials, 2, seed=s)
                   for s in range(20)]
        emp = empirical_transition_matrix(samples, container, 1)
        assert emp.row_visits[container.modes.index("correct")] == 0
        assert np.isnan(emp.frequency("correct", "correct"))

    def test_two_step_frequencies_match_squared_matrix(self, hydraulic,
                                                       container):
        # the hand-squared container row: (3/100, 4/25, 81/100)
        initials = point_initials(hydraulic, P="correct", C="correct")
        n_samples = 30_000
        samples = [sample_trajectory(hydraulic, initials, 2, seed=s)
                   for s in range(n_samples)]
        emp = empirical_transition_matrix(samples, container, 2)
        # the container's modes are (punctured, leaking, correct)
        correct_row = matrix_power(container.matrix, 2)[2]
        assert emp.frequency("correct", "punctured") == pytest.approx(
            correct_row[0], abs=3 * math.sqrt(0.03 * 0.97 / n_samples))
        for mode, p in zip(container.modes, correct_row.tolist()):
            tolerance = 3 * math.sqrt(p * (1 - p) / n_samples)
            assert abs(emp.frequency("correct", mode) - p) <= tolerance


class TestGenerateObservationStream:
    def test_occluded_pump_reports_no_flow(self, hydraulic):
        traj = _fixed_trajectory(hydraulic, P=["correct", "occluded"],
                                 C=["correct", "correct"])
        stream = generate_observation_stream(traj, hydraulic, [1])
        (entry,) = stream.entries
        assert entry.t == 1
        assert "no_flow_out(P)" in entry.present
        # exclusive partner of a present atom is reported absent
        assert "flow_out(P)" in entry.absent

    def test_empty_instants_empty_stream(self, hydraulic):
        traj = _fixed_trajectory(hydraulic, P=["correct", "correct"],
                                 C=["correct", "correct"])
        assert generate_observation_stream(traj, hydraulic, []).entries == ()

    def test_all_correct_trajectory(self, hydraulic):
        traj = _fixed_trajectory(hydraulic, P=["correct"] * 3,
                                 C=["correct"] * 3)
        stream = generate_observation_stream(traj, hydraulic, [0, 1, 2])
        for entry in stream.entries:
            assert entry.present == {"flow_out(P)", "level_normal(C)"}

    def test_instant_out_of_range(self, hydraulic):
        traj = _fixed_trajectory(hydraulic, P=["correct", "correct"],
                                 C=["correct", "correct"])
        with pytest.raises(InstantOutOfRangeError):
            generate_observation_stream(traj, hydraulic, [5])


def _fixed_trajectory(model, **sequences):
    from tempdiag import SampledTrajectory
    horizon = len(next(iter(sequences.values()))) - 1
    return SampledTrajectory(seed=0, horizon=horizon,
                             modes={k: tuple(v) for k, v in sequences.items()})


def test_trajectory_frequencies_match_joint_probabilities(hydraulic):
    """With sigma = 0 and point initials, the relative frequency of every
    sampled (start, step) assignment pair matches its joint probability
    within 3 binomial standard errors."""
    from tempdiag import (
        DiagnosticProblem,
        ExplanationCriterion,
        Observation,
        ObservationStream,
    )

    point = point_initials(hydraulic, P="correct", C="correct")
    comps = tuple(
        type(c)(id=c.id, modes=c.modes, correct_mode=c.correct_mode,
                matrix=c.matrix, initial_distribution=point[c.id])
        for c in hydraulic.components)
    model = type(hydraulic)(comps, (), ())
    stream = ObservationStream((Observation(0, set(), set()),
                                Observation(1, set(), set())))
    problem = DiagnosticProblem(
        model, stream, sigma=0.0,
        criterion=ExplanationCriterion.CONSISTENCY_BASED)
    diagnoses = enumerated(problem)

    n_samples = 30_000
    counts = {}
    for seed in range(n_samples):
        traj = sample_trajectory(model, point, 1, seed=seed)
        key = (traj.assignment_at(0), traj.assignment_at(1))
        counts[key] = counts.get(key, 0) + 1

    for d in diagnoses:
        key = (d.trajectory[0], d.trajectory[1])
        p = d.joint_probability
        freq = counts.get(key, 0) / n_samples
        tolerance = 3 * math.sqrt(p * (1 - p) / n_samples)
        assert abs(freq - p) <= tolerance


def test_closed_loop_soundness(hydraulic):
    """Streams generated from a sampled trajectory always keep the true
    assignment among the abductive candidates at every instant."""
    rng_seeds = range(150)
    for seed in rng_seeds:
        traj = sample_trajectory(hydraulic, uniform(hydraulic), 4, seed=seed)
        stream = generate_observation_stream(traj, hydraulic, [0, 2, 4])
        for entry in stream.entries:
            truth = traj.assignment_at(entry.t)
            candidates = solve_atemporal(hydraulic, entry,
                                         ExplanationCriterion.ABDUCTIVE)
            assert truth in assignments(hydraulic, entry.t, candidates)


def parity_seeds():
    """Seeds of one to eight 32-bit words: every small seed, the word
    boundaries, and random integers of up to 256 bits."""
    rng = random.Random(2014)
    return [*range(300), 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64,
            2 ** 128 + 5, 10 ** 40,
            *(rng.getrandbits(rng.randint(1, 256)) for _ in range(700))]


def test_uniforms_replay_numpy_default_rng():
    """The built-in generator yields exactly the doubles of
    ``np.random.default_rng(seed).random(n)``, for n of 1 to 300."""
    for i, seed in enumerate(parity_seeds()):
        n = i % 300 + 1
        expected = np.random.default_rng(seed).random(n).tolist()
        assert list(islice(_uniforms(seed), n)) == expected, seed


def test_numpy_integer_seed_is_its_value(hydraulic):
    big = sample_trajectory(hydraulic, uniform(hydraulic), 30,
                            seed=np.uint64(2 ** 63 + 5))
    assert big == sample_trajectory(hydraulic, uniform(hydraulic), 30,
                                    seed=2 ** 63 + 5)
    assert type(big.seed) is int
    with pytest.raises(TypeError):
        sample_trajectory(hydraulic, uniform(hydraulic), 30, seed=1.0)
