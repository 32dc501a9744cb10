"""Probability revision against the logically admitted hypotheses.

The worked pipeline values (normalization 50/21, component factors 10/9 and
15/7, revised transition scores 6/7 and 1) all follow from the fixture
matrices with the occlusion scenario's candidate sets.
"""

import math
import tracemalloc

import numpy as np
import pytest

from tempdiag import (
    ComponentSpec,
    StreamRevision,
    SystemModel,
    Trellis,
    build_trellis,
    forward_paths,
    revise_trellis,
)
from tempdiag.errors import AllZeroJointsError, ZeroAdmittedMassError
from tempdiag.temporal import trellis_from_layers

from propsuites import random_assignment, random_model
from reference import (
    component_mass_factor,
    component_revision,
    instant_revision,
    named_revision,
    posterior_component_distribution,
    prior_probability,
    step_factors,
    walked_path,
)

PI_C_1 = (0.0, 1 / 10, 9 / 10)
PI_P_1 = (1 / 150, 7 / 15, 1 / 75, 16 / 75, 3 / 10)


def global_factor(joints) -> float:
    """The engine's global factor over a one-instant trellis whose
    candidates' priors are ``joints``."""
    n = len(joints)
    component = ComponentSpec(id="x", modes=tuple(f"m{i}" for i in range(n)),
                              correct_mode="m0", matrix=np.eye(n))
    model = SystemModel((component,), ())
    trellis = trellis_from_layers(
        model, [0], [np.arange(n)[:, None]], {"x": np.full(n, 1 / n)},
    )._replace(priors=np.array(joints, dtype=float))
    return revise_trellis(trellis, model,
                          forward_paths(trellis)).factors[0].item()


class TestNormalizationFactor:
    def test_two_live_evolutions(self):
        assert global_factor([0, 3 / 25, 3 / 10]) == \
            pytest.approx(50 / 21, abs=1e-12)

    def test_single_joint_reciprocal(self):
        assert global_factor([0.04]) == pytest.approx(25.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroJointsError):
            global_factor([0.0, 0.0])

    def test_reciprocal_overflow_rejected(self):
        # the sum is subnormal: its reciprocal rounds to inf
        with pytest.raises(AllZeroJointsError):
            global_factor([1e-310, 0.0])
        assert global_factor([2.3e-308]) == 1 / 2.3e-308

    def test_summed_left_to_right(self):
        # a compensated sum (sum() from Python 3.12 on) is
        # 1.0000000000000002, whose reciprocal is 0.9999999999999998
        assert global_factor([1.0, 1e-16, 1e-16]) == 1.0


class TestFailureOrder:
    """Which of several failing reciprocals raises: instant by instant,
    the joints before the components, and the components in model order.
    On a built trellis a component's admitted mass bounds the joint sum,
    so the joints always fail first; here the initial distributions are
    replaced after the priors are taken from them."""

    X = ComponentSpec(id="x", modes=("a", "b"), correct_mode="a",
                      matrix=np.eye(2))
    Y = ComponentSpec(id="y", modes=("c", "d"), correct_mode="c",
                      matrix=np.eye(2))

    def revise(self, components, layers, initials, replaced):
        model = SystemModel(components, ())
        trellis = trellis_from_layers(
            model, range(len(layers)), [np.array(layer) for layer in layers],
            {c.id: np.array(initials[c.id], dtype=float)
             for c in components})
        trellis = trellis._replace(initials={
            c.id: np.array(replaced.get(c.id, initials[c.id]), dtype=float)
            for c in components})
        return revise_trellis(trellis, model, forward_paths(trellis))

    def test_joints_before_a_component_at_one_instant(self):
        # x's mass on a is 0 at t=0, and so is the only joint
        with pytest.raises(AllZeroJointsError) as raised:
            self.revise((self.X,), [[[0]]], {"x": [0, 1]}, {})
        assert str(raised.value) == (
            "joint probabilities sum to 0.0, too little to renormalize; "
            "revision is undefined")

    def test_first_component_in_model_order(self):
        # both masses are 0 at t=0, on x's a and on y's c
        initials, zeroed = {"x": [1, 0], "y": [1, 0]}, {"x": [0, 1],
                                                        "y": [0, 1]}
        for components, admitted in (((self.X, self.Y), "a"),
                                     ((self.Y, self.X), "c")):
            with pytest.raises(ZeroAdmittedMassError) as raised:
                self.revise(components, [[[0, 0]]], initials, zeroed)
            assert str(raised.value) == (
                f"admitted modes ['{admitted}'] carry probability 0.0, too "
                "little to renormalize")

    def test_component_at_one_instant_before_joints_at_the_next(self):
        # x stays put, so the step from a to b zeroes the joint at t=1
        layers, initials = [[[0]], [[1]]], {"x": [1, 0]}
        with pytest.raises(AllZeroJointsError):
            self.revise((self.X,), layers, initials, {})
        with pytest.raises(ZeroAdmittedMassError) as raised:
            self.revise((self.X,), layers, initials, {"x": [0, 1]})
        assert str(raised.value) == (
            "admitted modes ['a'] carry probability 0.0, too little to "
            "renormalize")


class TestReviseGlobal:
    def test_worked_values(self, occlusion_problem):
        trellis = build_trellis(occlusion_problem)
        second = instant_revision(revise_trellis(
            trellis, occlusion_problem.model, forward_paths(trellis)), 1)
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
        last = instant_revision(revise_trellis(
            trellis, sudden_stop_problem.model, forward_paths(trellis)), -1)
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
        trellis = build_trellis(problem)
        revision = revise_trellis(trellis, problem.model,
                                  forward_paths(trellis))
        return {c.id: {(a, b): (p, r) for a, b, p, r in named_revision(
                    c, component_revision(revision, 1, c.id))[1]}
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
        second = component_revision(
            revise_trellis(trellis, model, forward_paths(trellis)), 1, "x")
        assert second[2] == 1.0  # the factor
        assert named_revision(component, second)[1] == (
            ("a", "a", 0.37, 0.37), ("a", "b", 0.63, 0.63))

    def test_steps_read_from_a_full_uint8_table(self):
        """A 16-mode component over one gap has a table of 256 entries,
        indexed in uint8 up to 255: each transition is still the mode step
        of its edges."""
        modes = tuple(f"m{i}" for i in range(16))
        component = ComponentSpec(id="x", modes=modes, correct_mode="m0",
                                  matrix=np.full((16, 16), 1 / 16))
        model = SystemModel((component,), ())
        trellis = trellis_from_layers(
            model, [0, 1], [np.array([[15]]), np.array([[14], [15]])],
            {"x": np.full(16, 1 / 16)})
        assert trellis.entries[0].tolist() == [254, 255]
        assert trellis.entries[0].dtype == np.uint8
        second = component_revision(
            revise_trellis(trellis, model, forward_paths(trellis)), 1, "x")
        assert named_revision(component, second)[1] == (
            ("m15", "m14", 1 / 16, 0.5), ("m15", "m15", 1 / 16, 0.5))

    def test_mass_summed_left_to_right(self):
        # every mode admitted at t=0: 1.0 + 1e-16 + 1e-16 is 1.0 left to
        # right, but 1.0000000000000002 as a compensated sum
        component = ComponentSpec(id="x", modes=("a", "b", "c"),
                                  correct_mode="a", matrix=np.eye(3))
        model = SystemModel((component,), ())
        trellis = trellis_from_layers(
            model, [0], [np.array([[0], [1], [2]])],
            {"x": np.array([1.0, 1e-16, 1e-16])})
        revision = revise_trellis(trellis, model, forward_paths(trellis))
        assert len(revision) == 1
        assert component_revision(revision, 0, "x")[2] == 1.0  # the factor


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
        revision = revise_trellis(trellis, occlusion_problem.model,
                                  forward_paths(trellis))
        first, second = (instant_revision(revision, k) for k in (0, 1))

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
        pump_rev = component_revision(revision, 1, "P")
        distribution, _, factor, *_ = pump_rev
        np.testing.assert_allclose(distribution, PI_P_1, atol=1e-12)
        admitted, transitions = named_revision(pump, pump_rev)
        assert admitted == ("occluded",)
        assert factor == pytest.approx(15 / 7, abs=1e-12)
        scores = {(a, b): r for a, b, _, r in transitions}
        assert scores[("partially_occluded", "occluded")] == \
            pytest.approx(6 / 7, abs=1e-12)

        container_rev = component_revision(revision, 1, "C")
        _, _, factor, posterior, *_ = container_rev
        assert factor == pytest.approx(10 / 9, abs=1e-12)
        scores = {(a, b): r for a, b, _, r in named_revision(
            container, container_rev)[1]}
        assert scores[("correct", "correct")] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(posterior, [0, 0, 1], atol=1e-12)

    def test_stream_is_a_sequence_of_instant_views(self, occlusion_problem):
        """``len``, indexing (from the end too) and iteration give one
        ``InstantRevision`` per instant, its time point and its paths,
        spelled from the stream's back-pointers when asked, as the
        reference walks them. An index past either end raises IndexError.
        ``instant_revision``'s other values are views of the whole
        stream's arrays."""
        trellis = build_trellis(occlusion_problem)
        revision = revise_trellis(trellis, occlusion_problem.model,
                                  forward_paths(trellis))
        assert type(revision) is StreamRevision
        assert len(revision) == len(trellis.instants) == 2
        first, second = revision
        assert (first.t, second.t) == (revision[-2].t, revision[-1].t) == (
            0, 1)
        assert revision[1].path_indices.tolist() == [[0, 0], [1, 0], [2, 0]]
        for k in (2, -3):
            with pytest.raises(IndexError):
                revision[k]
        spelled = revision.spelled
        for rev, (p, q) in zip(revision, zip(revision.paths,
                                             revision.paths[1:])):
            assert rev.path_indices.dtype == np.int32
            assert rev.path_indices.tolist() == [
                walked_path(spelled.parents, spelled.candidates, entry)
                for entry in range(p, q)]
        fields = ("joints", "revised_joints", "sources", "targets",
                  "conditionals", "revised_conditionals")
        values = instant_revision(revision, 1)
        assert (values.t, values.path_indices.tolist()) == (
            1, revision[1].path_indices.tolist())
        pairs = [(getattr(values, f), getattr(revision, f)) for f in fields]
        for c in occlusion_problem.model.components:
            # component_revision's values, in ComponentStream's order
            pairs += [pair for pair in zip(component_revision(revision, 1,
                                                              c.id),
                                           revision.components[c.id])
                      if type(pair[0]) is np.ndarray]
        assert len(pairs) == len(fields) + 2 * 6
        for view, flat in pairs:
            assert len(view) and np.shares_memory(view, flat)

    def test_underflow_raises_without_holding_prefixes(self):
        """A one-candidate stream whose every conditional is 0.5: the joint
        halves at each instant, and its reciprocal overflows at the 1,024th.
        Revision raises there, holding each instant's back-pointers and
        joint (a few numbers each) rather than its whole path: the
        ~1,000 prefixes of up to 1,023 instants would take 4 MB."""
        model = SystemModel([ComponentSpec(
            "c", ["a", "b"], "a", [[0.5, 0.5], [0.5, 0.5]])], [])
        n = 1100
        trellis = trellis_from_layers(
            model, range(n), np.zeros((n, 1, 1), int),
            {"c": np.array([0.5, 0.5])})
        tracemalloc.start()
        try:
            with pytest.raises(AllZeroJointsError):
                revise_trellis(trellis, model, forward_paths(trellis))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_ranking_preserved(self, occlusion_problem):
        trellis = build_trellis(occlusion_problem)
        second = instant_revision(revise_trellis(
            trellis, occlusion_problem.model, forward_paths(trellis)), 1)
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
        rows = np.array([[c.modes.index(w.as_dict()[c.id])
                          for c in model.components] for w in (w0, w1)])
        # the edge's index into each table is its mode step, and every
        # entry of the table is the step's factor
        trellis = Trellis(
            instants=(0, w1.t), rows=rows, starts=np.array([0, 1, 2]),
            initials=initials, priors=np.array([1.0]),
            entries=tuple(np.array([i * len(c.modes) + j], np.uint8)
                          for c, (i, j) in zip(model.components, rows.T)),
            powers=tuple(np.full(len(c.modes) ** 2, factors[c.id])
                         for c in model.components),
            conditionals=np.array([conditional]),
            admissible=np.array([True]))
        revision = revise_trellis(trellis, model, forward_paths(trellis))
        (globally_revised,) = instant_revision(revision,
                                               1).revised_conditionals
        product = math.prod(
            float(component_revision(revision, 1, c.id)[6][0])
            for c in model.components)
        assert abs(product - globally_revised) <= 1e-12
        done += 1
