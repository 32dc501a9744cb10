"""Acceptance gate: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tempdiag import (
    ModeAssignment,
    StateLabel,
    build_trellis,
    classify_faults,
    classify_states,
    enumerate_evolutions,
    induce_initial_distributions,
    propagate_distribution,
    resolve_initial_distributions,
    revise_trellis,
    sample_trajectory,
)
from tempdiag.temporal import trellis_from_layers

from propsuites import (
    check_abductive_subset,
    check_chapman_kolmogorov,
    check_classification_matches_reachability,
    check_memorylessness,
    check_power_stochasticity,
    check_revision_matches_definitions,
    check_revision_ranking_and_zeros,
    check_threshold_monotonicity,
    check_trellis_vs_bruteforce,
    mode_indices,
)
from reference import empirical_transition_matrix, named_revision


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def assignment(t, **modes):
    return ModeAssignment.from_mapping(t, modes)


def mode_name(model, evolutions, e, k, component):
    """The mode of ``component`` at step k of evolution e."""
    c = [c.id for c in model.components].index(component)
    return model.components[c].modes[evolutions.modes[e, k, c]]


def first_layer_candidates(t):
    return [
        assignment(t, P="correct", C="correct"),
        assignment(t, P="partially_occluded", C="correct"),
        assignment(t, P="occluded", C="correct"),
    ]


def conditionals(model, source, target):
    """The trellis's step conditionals from every assignment in ``source``
    to every one in ``target``; each list holds assignments at one t."""
    return trellis_from_layers(
        model, [source[0].t, target[0].t],
        [mode_indices(model, source), mode_indices(model, target)],
        resolve_initial_distributions(model)).conditionals[0]


def test_criterion_1_step_conditionals(hydraulic):
    """One-step conditionals from the three initial hypotheses to the
    occluded-pump assignment are exactly (0, 9/25, 9/10)."""
    with criterion(1, "one-step conditional probabilities"):
        target = assignment(1, P="occluded", C="correct")
        got = conditionals(hydraulic, first_layer_candidates(0),
                           [target])[:, 0].tolist()
        assert got[0] == pytest.approx(0.0, abs=1e-12)
        assert got[1] == pytest.approx(9 / 25, abs=1e-12)
        assert got[2] == pytest.approx(9 / 10, abs=1e-12)


def test_criterion_2_joints_and_ranking(occlusion_problem):
    """Joint probabilities (0, 3/25, 3/10) and the occluded-start evolution
    ranked first."""
    with criterion(2, "joint probabilities and ranking"):
        model = occlusion_problem.model
        evolutions = enumerate_evolutions(occlusion_problem,
                                          build_trellis(occlusion_problem))
        joints = sorted(evolutions.joints.tolist())
        assert joints[0] == pytest.approx(0.0, abs=1e-12)
        assert joints[1] == pytest.approx(3 / 25, abs=1e-12)
        assert joints[2] == pytest.approx(3 / 10, abs=1e-12)
        assert mode_name(model, evolutions, 0, 0, "P") == "occluded"
        assert evolutions.joints[0] == pytest.approx(3 / 10, abs=1e-12)


def test_criterion_3_plausibility_filter(sudden_stop_problem):
    """At sigma = 1/100 only the broken-pump candidate survives the step
    from the all-correct assignment.

    Over a two-step gap the occluded candidate's conditional is
    (2/125)(81/100) = 81/6250 ~ 0.013, which exceeds the same threshold:
    the filter evaluates exact n-step matrix entries, so a step that is
    inadmissible across one instant can become admissible across two.
    """
    with criterion(3, "plausibility filter at sigma = 1/100"):
        model = sudden_stop_problem.model
        evolutions = enumerate_evolutions(sudden_stop_problem,
                                          build_trellis(sudden_stop_problem))
        assert len(evolutions.joints) == 1
        assert mode_name(model, evolutions, 0, 1, "P") == "broken"

        two_step = conditionals(
            model, [assignment(0, P="correct", C="correct")],
            [assignment(2, P="occluded", C="correct")])[0, 0]
        assert two_step == pytest.approx(81 / 6250, abs=1e-12)
        assert two_step >= sudden_stop_problem.sigma


def test_criterion_4_revision(occlusion_problem):
    """Normalization factor 50/21; revised conditionals (0, 6/7, 15/7);
    component factors 10/9 and 15/7; revised transitions 6/7 and 1."""
    with criterion(4, "revision factors and scores"):
        trellis = build_trellis(occlusion_problem)
        _, second = revise_trellis(trellis, occlusion_problem.model)

        assert second.factor == pytest.approx(50 / 21, abs=1e-12)
        revised = sorted(second.revised_conditionals.tolist())
        assert revised[0] == pytest.approx(0.0, abs=1e-12)
        assert revised[1] == pytest.approx(6 / 7, abs=1e-12)
        assert revised[2] == pytest.approx(15 / 7, abs=1e-12)

        # each edge's raw conditional beside its revised score
        np.testing.assert_allclose(
            sorted(zip(second.conditionals, second.revised_conditionals)),
            [(0, 0), (9 / 25, 6 / 7), (9 / 10, 15 / 7)], atol=1e-12)

        f_c = second.components["C"].factor
        f_p = second.components["P"].factor
        assert f_c == pytest.approx(10 / 9, abs=1e-12)
        assert f_p == pytest.approx(15 / 7, abs=1e-12)
        components = {c.id: c for c in occlusion_problem.model.components}
        _, transitions = named_revision(components["P"],
                                        second.components["P"])
        scores = {(a, b): (p, r) for a, b, p, r in transitions}
        p, r = scores["partially_occluded", "occluded"]
        assert p == pytest.approx(2 / 5, abs=1e-12)
        assert r == pytest.approx(6 / 7, abs=1e-12)
        _, (step,) = named_revision(components["C"], second.components["C"])
        assert step[:2] == ("correct", "correct")
        assert step[2] == pytest.approx(9 / 10, abs=1e-12)
        assert step[3] == pytest.approx(1.0, abs=1e-12)


def test_criterion_5_propagation(hydraulic):
    """One-step propagation: container (0, 1/10, 9/10); pump
    (1/150, 7/15, 1/75, 16/75, 3/10), a proper distribution."""
    with criterion(5, "one-step distribution propagation"):
        initials = induce_initial_distributions(
            hydraulic, mode_indices(hydraulic, first_layer_candidates(0)))
        matrices = {c.id: c.matrix for c in hydraulic.components}
        pi_c = propagate_distribution(initials["C"], matrices["C"], 1)
        np.testing.assert_allclose(pi_c, [0, 1 / 10, 9 / 10], atol=1e-12)
        pi_p = propagate_distribution(initials["P"], matrices["P"], 1)
        np.testing.assert_allclose(
            pi_p, [1 / 150, 7 / 15, 1 / 75, 16 / 75, 3 / 10], atol=1e-12)
        assert pi_p.sum() == pytest.approx(1.0, abs=1e-12)


def test_criterion_6_classification(hydraulic):
    """broken, occluded, punctured are absorbing/permanent; every fault mode
    of both components is irreversible; the remaining modes are transient."""
    with criterion(6, "state and fault classification"):
        components = {c.id: c for c in hydraulic.components}
        pump, container = components["P"], components["C"]
        pump_states = classify_states(pump.modes, pump.matrix)
        container_states = classify_states(container.modes, container.matrix)

        assert pump_states.labels["broken"] is StateLabel.ABSORBING
        assert pump_states.labels["occluded"] is StateLabel.ABSORBING
        assert container_states.labels["punctured"] is StateLabel.ABSORBING
        for mode in ("leaking", "partially_occluded", "correct"):
            assert pump_states.labels[mode] is StateLabel.TRANSIENT
        for mode in ("leaking", "correct"):
            assert container_states.labels[mode] is StateLabel.TRANSIENT

        pump_faults = classify_faults(pump).faults
        container_faults = classify_faults(container).faults
        assert pump_faults["broken"].permanent
        assert pump_faults["occluded"].permanent
        assert container_faults["punctured"].permanent
        for flags in (*pump_faults.values(), *container_faults.values()):
            assert flags.irreversible


def test_criterion_7_property_suites():
    """Nine randomized suites, 1000 cases each, at their tolerances."""
    with criterion(7, "randomized property suites (9 x 1000 cases)"):
        cases = 1000
        check_chapman_kolmogorov(cases)
        check_power_stochasticity(cases)
        check_memorylessness(cases)
        check_abductive_subset(cases)
        check_threshold_monotonicity(cases)
        check_trellis_vs_bruteforce(cases)
        check_revision_ranking_and_zeros(cases)
        check_revision_matches_definitions(cases)
        check_classification_matches_reachability(cases)


def test_criterion_8_monte_carlo(hydraulic):
    """100k seeded one-step trajectories reproduce every row of both
    transition matrices within 3 binomial standard errors."""
    with criterion(8, "Monte Carlo agreement (100k trajectories)"):
        started = time.monotonic()
        initials = {
            c.id: np.full(len(c.modes), 1 / len(c.modes))
            for c in hydraulic.components
        }
        samples = [sample_trajectory(hydraulic, initials, 1, seed=s)
                   for s in range(100_000)]

        total = within = 0
        for component in hydraulic.components:
            emp = empirical_transition_matrix(samples, component, 1)
            expected = component.matrix
            for i in range(len(component.modes)):
                visits = int(emp.row_visits[i])
                assert visits > 0
                for j in range(len(component.modes)):
                    p = expected[i, j]
                    se = math.sqrt(p * (1 - p) / visits)
                    total += 1
                    if abs(emp.frequencies[i, j] - p) <= 3 * se:
                        within += 1
        assert within / total >= 0.99
        assert time.monotonic() - started <= 60.0
