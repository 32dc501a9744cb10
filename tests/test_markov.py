"""Chain kernel: validation, powers, propagation, sojourns, classification.

Expected values for the pump/container chains were computed by hand from
the one-step matrices (direct vector-matrix and matrix-matrix products).
"""

import numpy as np
import pytest

from tempdiag import (
    StateLabel,
    ComponentSpec,
    classify_faults,
    classify_states,
    matrix_power,
    propagate_distribution,
    sojourn_pmf,
    validate_distribution,
    validate_matrix,
)
from tempdiag.errors import (
    AbsorbingSojournError,
    DimensionMismatchError,
    EntryRangeError,
    NotSquareError,
    RowSumError,
)

from tempdiag.markov import matrix_powers

from propsuites import mode_names, random_stochastic


class TestValidateMatrix:
    def test_container_matrix_accepted(self, container):
        assert validate_matrix(container.modes,
                               container.matrix) is container.matrix

    def test_pump_matrix_accepted(self, pump):
        assert validate_matrix(pump.modes, pump.matrix) is pump.matrix

    def test_single_absorbing_state(self):
        m = np.array([[1.0]])
        assert validate_matrix(("only",), m) is m

    def test_row_sum_violation(self):
        m = np.array([[0.5, 0.6], [0.5, 0.5]])
        with pytest.raises(RowSumError) as exc:
            validate_matrix(("a", "b"), m)
        assert exc.value.row == 0
        assert exc.value.total == pytest.approx(1.1)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_matrix(("a", "b"), np.array([[0.5, 0.5]]))

    def test_entry_out_of_range(self):
        m = np.array([[1.5, -0.5], [0.0, 1.0]])
        with pytest.raises(EntryRangeError):
            validate_matrix(("a", "b"), m)

    def test_nan_row_rejected(self):
        nan = float("nan")
        m = np.array([[1.0, 0.0], [nan, nan]])
        with pytest.raises(EntryRangeError) as exc:
            validate_matrix(("a", "b"), m)
        assert exc.value.element == ("b", "a")

    def test_entries_are_readonly(self, container):
        with pytest.raises(ValueError):
            container.matrix[0, 0] = 0.5
        spec = ComponentSpec(id="x", modes=("a", "b"), correct_mode="a",
                             matrix=np.eye(2), initial_distribution=[1, 0])
        with pytest.raises(ValueError):
            spec.initial_distribution[1] = 0.5


class TestMatrixPower:
    def test_zeroth_power_is_identity(self, container):
        p0 = matrix_power(container.matrix, 0)
        assert np.array_equal(p0, np.eye(3))

    def test_container_two_step_puncture(self, container):
        # correct -> leaking -> punctured is the only route: (1/10)(3/10)
        p2 = matrix_power(container.matrix, 2)
        # the container's modes are (punctured, leaking, correct)
        assert p2[2, 0] == pytest.approx(3 / 100, abs=1e-12)

    def test_pump_two_step_occlusion(self, pump):
        # single route correct -> partially_occluded -> occluded: (1/25)(2/5)
        p2 = matrix_power(pump.matrix, 2)
        # the pump's modes: broken, occluded, leaking, partially_occluded,
        # correct
        assert p2[4, 1] == pytest.approx(2 / 125, abs=1e-12)

    def test_powers_stay_stochastic(self, pump):
        for n in (1, 2, 5, 16):
            sums = matrix_power(pump.matrix, n).sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-9

    def test_negative_power_rejected(self, container):
        with pytest.raises(ValueError):
            matrix_power(container.matrix, -1)


class TestMatrixPowers:
    """Powers stacked from squarings computed once equal numpy's
    ``matrix_power`` bit for bit: numpy's multiplication order is kept, so
    reports keep their bytes on every supported numpy."""

    def test_bit_for_bit_with_numpy(self):
        rng = np.random.default_rng(2037)
        exponents = list(range(4097))
        for n in range(1, 7):
            # with structural zeros, or every entry positive
            entries = random_stochastic(rng, n) if n % 2 else rng.random(
                (n, n)) ** 3
            entries /= entries.sum(axis=1, keepdims=True)
            powers = matrix_powers(entries, exponents)
            pi0 = rng.dirichlet(np.ones(n))
            propagated = pi0 @ powers
            for k in exponents:
                assert powers[k].tobytes() == np.linalg.matrix_power(
                    entries, k).tobytes()
                assert propagated[k].tobytes() == propagate_distribution(
                    pi0, entries, k).tobytes()

    def test_any_order_and_beyond_int64(self, pump):
        exponents = [2 ** 70, 3, 0, 2 ** 64 + 5, 3, 1, 0, 4096, 2]
        powers = matrix_powers(pump.matrix, exponents)
        for power, k in zip(powers, exponents):
            assert power.tobytes() == np.linalg.matrix_power(
                pump.matrix, k).tobytes()
        assert matrix_powers(pump.matrix, []).shape == (0, 5, 5)

    def test_negative_power_rejected(self, container):
        with pytest.raises(ValueError):
            matrix_powers(container.matrix, [2, -1])


class TestPropagateDistribution:
    def test_container_one_step(self, container):
        pi1 = propagate_distribution(np.array([0, 0, 1.0]), container.matrix,
                                     1)
        np.testing.assert_allclose(pi1, [0, 1 / 10, 9 / 10], atol=1e-12)

    def test_pump_one_step(self, pump):
        # hand multiplication of (0, 1/3, 0, 1/3, 1/3) by the pump matrix
        pi0 = np.array([0, 1 / 3, 0, 1 / 3, 1 / 3])
        pi1 = propagate_distribution(pi0, pump.matrix, 1)
        np.testing.assert_allclose(
            pi1, [1 / 150, 7 / 15, 1 / 75, 16 / 75, 3 / 10], atol=1e-12)
        assert pi1.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_steps_is_identity(self, pump):
        pi0 = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        assert np.array_equal(propagate_distribution(pi0, pump.matrix, 0),
                              pi0)

    def test_wrong_length_rejected(self, pump):
        # a distribution over the container's modes, the pump's matrix
        with pytest.raises(DimensionMismatchError):
            propagate_distribution(np.array([0, 0, 1.0]), pump.matrix, 1)


class TestValidateDistribution:
    def test_accepts_proper_vector(self, container):
        d = np.array([0.25, 0.25, 0.5])
        assert validate_distribution(container.modes, d) is d

    def test_rejects_bad_sum(self, container):
        with pytest.raises(Exception):
            validate_distribution(container.modes, np.array([0.5, 0.5, 0.5]))

    def test_rejects_nan_entry(self, container):
        with pytest.raises(EntryRangeError):
            validate_distribution(container.modes,
                                  np.array([float("nan"), 0.5, 0.5]))

    def test_rejects_wrong_length(self, pump):
        with pytest.raises(DimensionMismatchError):
            validate_distribution(pump.modes, np.array([0.0, 0.0, 1.0]))


class TestSojournPmf:
    def test_leaves_at_first_step(self):
        assert sojourn_pmf(9 / 10, 1) == pytest.approx(1 / 10, abs=1e-12)

    def test_three_step_sojourn(self):
        assert sojourn_pmf(9 / 10, 3) == pytest.approx(81 / 1000, abs=1e-12)

    def test_zero_self_loop_leaves_immediately(self):
        assert sojourn_pmf(0.0, 1) == 1.0
        assert sojourn_pmf(0.0, 2) == 0.0

    def test_absorbing_mode_rejected(self):
        with pytest.raises(AbsorbingSojournError):
            sojourn_pmf(1.0, 1)

    def test_mass_accumulates_to_one(self):
        # partial sums of the geometric pmf reach 1 for p <= 0.99
        for p in (0.0, 0.3, 0.9, 0.99):
            total, t = 0.0, 1
            while total < 1.0 - 1e-9:
                total += sojourn_pmf(p, t)
                t += 1
                assert t < 10_000
            assert total >= 1.0 - 1e-9


class TestClassifyStates:
    def test_pump_labels(self, pump):
        c = classify_states(pump.modes, pump.matrix)
        assert c.labels == {
            "broken": StateLabel.ABSORBING,
            "occluded": StateLabel.ABSORBING,
            "leaking": StateLabel.TRANSIENT,
            "partially_occluded": StateLabel.TRANSIENT,
            "correct": StateLabel.TRANSIENT,
        }

    def test_container_labels(self, container):
        c = classify_states(container.modes, container.matrix)
        assert c.labels == {
            "punctured": StateLabel.ABSORBING,
            "leaking": StateLabel.TRANSIENT,
            "correct": StateLabel.TRANSIENT,
        }
        assert c.ergodic_sets == (("punctured",),)
        assert c.transient_sets == (("leaking",), ("correct",))

    def test_periodic_closed_class(self):
        c = classify_states(("s0", "s1"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert c.ergodic_sets == (("s0", "s1"),)
        assert c.transient_sets == ()
        assert all(label is StateLabel.ERGODIC for label in c.labels.values())

    def test_labels_partition_modes(self, pump):
        c = classify_states(pump.modes, pump.matrix)
        covered = [m for group in c.ergodic_sets + c.transient_sets
                   for m in group]
        assert sorted(covered) == sorted(pump.modes)

    def test_random_partition(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_stochastic(rng, int(rng.integers(1, 7)))
            c = classify_states(mode_names(len(m)), m)
            assert set(c.labels) == set(mode_names(len(m)))


class TestClassifyFaults:
    def test_pump_taxonomy(self, pump):
        fc = classify_faults(pump)
        assert fc.faults["broken"].permanent
        assert fc.faults["broken"].irreversible
        assert not fc.faults["broken"].transient
        assert fc.faults["occluded"].permanent
        assert fc.faults["partially_occluded"].transient
        assert fc.faults["partially_occluded"].irreversible
        assert fc.faults["leaking"].transient
        assert all(f.irreversible for f in fc.faults.values())
        assert "correct" not in fc.faults

    def test_container_taxonomy(self, container):
        fc = classify_faults(container)
        assert fc.faults["punctured"].permanent
        assert fc.faults["punctured"].irreversible
        assert fc.faults["leaking"].transient
        assert fc.faults["leaking"].irreversible

    def test_one_step_recovery_is_reversible(self):
        spec = ComponentSpec(id="x", modes=("ok", "flaky"), correct_mode="ok",
                             matrix=[[0.9, 0.1], [0.2, 0.8]])
        fc = classify_faults(spec)
        assert fc.faults["flaky"].reversible
        assert not fc.faults["flaky"].irreversible

    def test_permanent_fault_is_irreversible(self):
        # absorbing fault modes can never reach the correct mode
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec = ComponentSpec(id="x", modes=mode_names(4),
                                 correct_mode="m0",
                                 matrix=random_stochastic(rng, 4))
            for fault, flags in classify_faults(spec).faults.items():
                assert flags.reversible != flags.irreversible
                if flags.permanent:
                    assert flags.irreversible


class TestChapmanKolmogorov:
    def test_split_powers_agree(self, pump, container):
        for m in (pump.matrix, container.matrix):
            for a, b in ((0, 5), (1, 1), (3, 7), (8, 8)):
                combined = matrix_power(m, a + b)
                split = matrix_power(m, a) @ matrix_power(m, b)
                assert np.max(np.abs(combined - split)) <= 1e-9
