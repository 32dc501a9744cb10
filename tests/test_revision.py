"""Probability revision against the logically admitted hypotheses.

The worked pipeline values (normalization 50/21, component factors 10/9 and
15/7, revised transition scores 6/7 and 1) all follow from the fixture
matrices with the occlusion scenario's candidate sets.
"""

import math

import numpy as np
import pytest

from tempdiag import (
    ComponentSpec,
    SystemModel,
    Trellis,
    build_trellis,
    normalization_factor,
    revise_trellis,
)
from tempdiag.errors import AllZeroJointsError, ZeroAdmittedMassError
from tempdiag.temporal import trellis_from_layers

from propsuites import random_assignment, random_model
from reference import (
    component_mass_factor,
    named_revision,
    posterior_component_distribution,
    prior_probability,
    step_factors,
)

PI_C_1 = (0.0, 1 / 10, 9 / 10)
PI_P_1 = (1 / 150, 7 / 15, 1 / 75, 16 / 75, 3 / 10)


class TestNormalizationFactor:
    def test_two_live_evolutions(self):
        assert normalization_factor([0, 3 / 25, 3 / 10]) == \
            pytest.approx(50 / 21, abs=1e-12)

    def test_single_joint_reciprocal(self):
        assert normalization_factor([0.04]) == pytest.approx(25.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroJointsError):
            normalization_factor([0.0, 0.0])

    def test_reciprocal_overflow_rejected(self):
        # the sum is subnormal: its reciprocal rounds to inf
        with pytest.raises(AllZeroJointsError):
            normalization_factor([1e-310, 0.0])
        assert normalization_factor([2.3e-308]) == 1 / 2.3e-308

    def test_summed_left_to_right(self):
        # a compensated sum (sum() from Python 3.12 on) is
        # 1.0000000000000002, whose reciprocal is 0.9999999999999998
        assert normalization_factor([1.0, 1e-16, 1e-16]) == 1.0


class TestReviseGlobal:
    def test_worked_values(self, occlusion_problem):
        trellis = build_trellis(occlusion_problem)
        _, second = revise_trellis(trellis, occlusion_problem.model)
        # (raw, revised) per edge and per path
        np.testing.assert_allclose(
            sorted(zip(second.conditionals, second.revised_conditionals)),
            [(0, 0), (9 / 25, 6 / 7), (9 / 10, 15 / 7)], atol=1e-12)
        np.testing.assert_allclose(
            sorted(zip(second.joints, second.revised_joints)),
            [(0, 0), (3 / 25, 2 / 7), (3 / 10, 5 / 7)], atol=1e-12)
        assert sum(second.revised_joints) == pytest.approx(1.0, abs=1e-12)

    def test_single_candidate_becomes_certain(self, sudden_stop_problem):
        trellis = build_trellis(sudden_stop_problem)
        *_, last = revise_trellis(trellis, sudden_stop_problem.model)
        assert last.joints.tolist() == [pytest.approx(9 / 500, abs=1e-12)]
        assert last.revised_joints.tolist() == [pytest.approx(1.0, abs=1e-12)]


class TestComponentMassFactor:
    def test_container_correct_only(self, container):
        modes, pi = container.modes, np.array(PI_C_1)
        assert component_mass_factor(modes, pi, {"correct"}) == \
            pytest.approx(10 / 9, abs=1e-12)

    def test_pump_occluded_only(self, pump):
        modes, pi = pump.modes, np.array(PI_P_1)
        assert component_mass_factor(modes, pi, {"occluded"}) == \
            pytest.approx(15 / 7, abs=1e-12)

    def test_full_mode_set_is_unity(self, container):
        modes, pi = container.modes, np.array(PI_C_1)
        assert component_mass_factor(modes, pi, container.modes) == \
            pytest.approx(1.0, abs=1e-12)

    def test_zero_admitted_mass_rejected(self, container):
        modes, pi = container.modes, np.array(PI_C_1)
        with pytest.raises(ZeroAdmittedMassError):
            component_mass_factor(modes, pi, {"punctured"})
        with pytest.raises(ZeroAdmittedMassError):
            component_mass_factor(modes, pi, set())

    def test_reciprocal_overflow_rejected(self, container):
        modes, pi = container.modes, np.array([1e-310, 0.0, 1.0])
        with pytest.raises(ZeroAdmittedMassError):
            component_mass_factor(modes, pi, {"punctured"})
        assert component_mass_factor(
            modes, pi, {"punctured", "correct"}) == 1.0

    def test_summed_left_to_right(self, container):
        modes, pi = container.modes, np.array([1.0, 1e-16, 1e-16])
        assert component_mass_factor(modes, pi, container.modes) == 1.0


class TestReviseTransition:
    """Each component's revised transition score, the n-step entry times
    the component's mass factor at the target instant."""

    def scores(self, problem):
        _, second = revise_trellis(build_trellis(problem), problem.model)
        return {c.id: {(a, b): (p, r) for a, b, p, r in named_revision(
                    c, second.components[c.id])[1]}
                for c in problem.model.components}

    def test_pump_progression_score(self, occlusion_problem):
        p, r = self.scores(occlusion_problem)["P"][
            "partially_occluded", "occluded"]
        assert p == pytest.approx(2 / 5, abs=1e-12)
        assert r == pytest.approx(6 / 7, abs=1e-12)

    def test_container_self_loop_saturates(self, occlusion_problem):
        p, r = self.scores(occlusion_problem)["C"]["correct", "correct"]
        assert p == pytest.approx(9 / 10, abs=1e-12)
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_unit_factor_is_identity(self):
        # every mode the chain reaches is admitted: mass 0.37 + 0.63 = 1
        component = ComponentSpec(
            id="x", modes=("a", "b"), correct_mode="a",
            matrix=[[0.37, 0.63], [0.0, 1.0]])
        model = SystemModel((component,), ())
        trellis = trellis_from_layers(
            model, [0, 1], [np.array([[0]]), np.array([[0], [1]])],
            {"x": np.array([1.0, 0.0])})
        _, second = revise_trellis(trellis, model)
        assert second.components["x"].factor == 1.0
        assert named_revision(component, second.components["x"])[1] == (
            ("a", "a", 0.37, 0.37), ("a", "b", 0.63, 0.63))

    def test_mass_summed_left_to_right(self):
        # every mode admitted at t=0: 1.0 + 1e-16 + 1e-16 is 1.0 left to
        # right, but 1.0000000000000002 as a compensated sum
        component = ComponentSpec(id="x", modes=("a", "b", "c"),
                                  correct_mode="a", matrix=np.eye(3))
        model = SystemModel((component,), ())
        trellis = trellis_from_layers(
            model, [0], [np.array([[0], [1], [2]])],
            {"x": np.array([1.0, 1e-16, 1e-16])})
        (only,) = revise_trellis(trellis, model)
        assert only.components["x"].factor == 1.0


class TestPosteriorDistribution:
    def test_zero_and_renormalize(self, container):
        modes, pi = container.modes, np.array(PI_C_1)
        post = posterior_component_distribution(modes, pi, {"correct"})
        np.testing.assert_allclose(post, [0, 0, 1], atol=1e-12)

    def test_full_admitted_set_unchanged(self, container):
        modes, pi = container.modes, np.array(PI_C_1)
        post = posterior_component_distribution(modes, pi, container.modes)
        np.testing.assert_allclose(post, PI_C_1, atol=1e-12)

    def test_point_distribution_inside_admitted(self, container):
        modes, pi = container.modes, np.array([0, 0, 1])
        post = posterior_component_distribution(
            modes, pi, {"correct", "leaking"})
        np.testing.assert_allclose(post, [0, 0, 1], atol=1e-12)

    def test_idempotent(self, pump):
        modes, pi = pump.modes, np.array(PI_P_1)
        admitted = {"occluded", "correct"}
        once = posterior_component_distribution(modes, pi, admitted)
        twice = posterior_component_distribution(modes, once, admitted)
        np.testing.assert_allclose(once, twice,
                                   atol=1e-12)
        assert once.sum() == pytest.approx(1.0, abs=1e-12)


class TestReviseTrellis:
    def test_occlusion_pipeline(self, occlusion_problem):
        trellis = build_trellis(occlusion_problem)
        first, second = revise_trellis(trellis, occlusion_problem.model)

        assert first.t == 0
        assert first.factor == pytest.approx(1.0, abs=1e-12)

        assert second.t == 1
        # the forward pass's path array: three starts into one candidate
        assert second.path_indices.tolist() == [[0, 0], [1, 0], [2, 0]]
        assert second.factor == pytest.approx(50 / 21, abs=1e-12)
        assert sum(second.revised_joints) == pytest.approx(1.0, abs=1e-12)

        revised = sorted(second.revised_conditionals)
        np.testing.assert_allclose(revised, [0, 6 / 7, 15 / 7], atol=1e-12)

        pump, container = occlusion_problem.model.components
        pump_rev = second.components["P"]
        np.testing.assert_allclose(pump_rev.distribution,
                                   PI_P_1, atol=1e-12)
        admitted, transitions = named_revision(pump, pump_rev)
        assert admitted == ("occluded",)
        assert pump_rev.factor == pytest.approx(15 / 7, abs=1e-12)
        scores = {(a, b): r for a, b, _, r in transitions}
        assert scores[("partially_occluded", "occluded")] == \
            pytest.approx(6 / 7, abs=1e-12)

        container_rev = second.components["C"]
        assert container_rev.factor == pytest.approx(10 / 9, abs=1e-12)
        scores = {(a, b): r for a, b, _, r in named_revision(
            container, container_rev)[1]}
        assert scores[("correct", "correct")] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            container_rev.posterior, [0, 0, 1], atol=1e-12)

    def test_ranking_preserved(self, occlusion_problem):
        trellis = build_trellis(occlusion_problem)
        _, second = revise_trellis(trellis, occlusion_problem.model)
        raw_order = np.argsort(-second.joints, kind="stable")
        revised_order = np.argsort(-second.revised_joints, kind="stable")
        assert list(raw_order) == list(revised_order)
        for raw, revised in zip(second.joints, second.revised_joints):
            assert (raw == 0.0) == (revised == 0.0)


def test_single_trajectory_per_component_matches_global():
    """With one candidate per layer, the product of the per-component
    revised transition scores equals the globally revised conditional."""
    rng = np.random.default_rng(321)
    done = 0
    while done < 80:
        model = random_model(rng, max_components=3, max_modes=3, max_rules=0)
        w0 = random_assignment(rng, model, 0)
        w1 = random_assignment(rng, model, int(rng.integers(1, 4)))
        factors = step_factors(w0, w1, model)
        conditional = math.prod(factors.values())
        if conditional == 0.0:
            continue
        initials = {
            c.id: np.array([1.0 if m == w0.as_dict()[c.id] else 0.0
                            for m in c.modes])
            for c in model.components
        }
        assert prior_probability(w0, initials, model) == 1.0
        modes = tuple(
            np.array([[c.modes.index(w.as_dict()[c.id])
                       for c in model.components]])
            for w in (w0, w1))
        trellis = Trellis(
            instants=(0, w1.t), modes=modes,
            initials=initials, priors=np.array([1.0]),
            factors=(np.array([[[factors[c.id]
                                 for c in model.components]]]),),
            conditionals=(np.array([[conditional]]),),
            admissible=(np.array([[True]]),))
        _, second = revise_trellis(trellis, model)
        (globally_revised,) = second.revised_conditionals
        product = math.prod(
            float(cr.revised_entries[0]) for cr in second.components.values())
        assert abs(product - globally_revised) <= 1e-12
        done += 1
