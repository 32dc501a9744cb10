"""Per-instant solver: prediction, explanation criteria, enumeration.

The expected candidate sets in these tests come from evaluating the fixture
rules by hand over all 15 pump/container assignments.
"""

import itertools

import numpy as np
import pytest

from tempdiag import (
    ComponentSpec,
    ExplanationCriterion,
    HornRule,
    ModeAssignment,
    Observation,
    SystemModel,
    predicted_manifestations,
    solve_atemporal,
)
from tempdiag.errors import SearchSpaceError

from propsuites import (
    observation_from_assignment,
    random_assignment,
    random_model,
    random_stochastic,
)
from reference import assignments, is_explanation

ABDUCTIVE = ExplanationCriterion.ABDUCTIVE
CONSISTENCY = ExplanationCriterion.CONSISTENCY_BASED


def assignment(t=0, **modes):
    return ModeAssignment.from_mapping(t, modes)


def solve(model, obs, criterion, **kwargs):
    """The solver's candidates as ``ModeAssignment`` objects."""
    return assignments(model, obs.t,
                       solve_atemporal(model, obs, criterion, **kwargs))


class TestPredictedManifestations:
    def test_occluded_pump(self, hydraulic):
        w = assignment(P="occluded", C="correct")
        assert predicted_manifestations(w, hydraulic) == {"no_flow_out(P)"}

    def test_all_correct(self, hydraulic):
        w = assignment(P="correct", C="correct")
        assert predicted_manifestations(w, hydraulic) == {
            "flow_out(P)", "level_normal(C)"}

    def test_empty_rule_set(self, pump, container):
        model = SystemModel((pump, container), ())
        w = assignment(P="broken", C="punctured")
        assert predicted_manifestations(w, model) == frozenset()


class TestIsExplanation:
    def test_abductive_covers_present(self, hydraulic):
        w = assignment(P="occluded", C="correct")
        assert is_explanation(w, {"no_flow_out(P)"}, set(), ABDUCTIVE,
                              hydraulic)

    def test_abductive_rejects_uncovered(self, hydraulic):
        w = assignment(P="correct", C="correct")
        assert not is_explanation(w, {"no_flow_out(P)"}, set(), ABDUCTIVE,
                                  hydraulic)

    def test_consistency_vacuous_observation(self, pump, container):
        model = SystemModel((pump, container), hydraulic_rules_no_exclusive())
        for combo in itertools.product(pump.modes, container.modes):
            w = assignment(P=combo[0], C=combo[1])
            assert is_explanation(w, set(), set(), CONSISTENCY, model)

    def test_absent_prediction_contradicts(self, hydraulic):
        w = assignment(P="correct", C="punctured")
        assert not is_explanation(w, set(), {"water_loss(C)"}, CONSISTENCY,
                                  hydraulic)

    def test_exclusive_partner_contradicts(self, hydraulic):
        # flow_out(P) observed, but the assignment predicts its declared
        # exclusive alternative no_flow_out(P)
        w = assignment(P="broken", C="correct")
        assert not is_explanation(w, {"flow_out(P)"}, set(), CONSISTENCY,
                                  hydraulic)


def hydraulic_rules_no_exclusive():
    from conftest import hydraulic_rules
    return hydraulic_rules()


class TestSolveAtemporal:
    def test_blocked_pump_dry_container(self, hydraulic):
        obs = Observation(0, {"no_flow_out(P)"}, {"water_loss(C)"})
        got = solve(hydraulic, obs, ABDUCTIVE)
        assert {w.as_dict()["P"] for w in got} == {"occluded", "broken"}
        assert all(w.as_dict()["C"] == "correct" for w in got)

    def test_vacuous_observation_keeps_everything(self, pump, container):
        model = SystemModel((pump, container), hydraulic_rules_no_exclusive())
        obs = Observation(0, set(), set())
        got = solve(model, obs, CONSISTENCY)
        assert len(got) == 15

    def test_contradictory_presents_unsatisfiable(self, hydraulic):
        obs = Observation(0, {"flow_out(P)", "no_flow_out(P)"}, set())
        assert solve(hydraulic, obs, ABDUCTIVE) == []

    def test_output_order_deterministic(self, pump, container):
        # components sorted by id (C before P), each component's modes in
        # declared order, enumerated lexicographically
        model = SystemModel((pump, container), hydraulic_rules_no_exclusive())
        obs = Observation(0, set(), set())
        got = solve(model, obs, CONSISTENCY)
        expected = [
            assignment(C=c_mode, P=p_mode)
            for c_mode in container.modes
            for p_mode in pump.modes
        ]
        assert got == expected

    def test_mode_indices_in_model_order(self, pump, container):
        # rows in the id order above (C before P), columns in model order
        # (P before C), each entry an index into the declared modes
        model = SystemModel((pump, container), hydraulic_rules_no_exclusive())
        got = solve_atemporal(model, Observation(0, set(), set()), CONSISTENCY)
        assert got.tolist() == [[p, c] for c in range(len(container.modes))
                                for p in range(len(pump.modes))]
        empty = solve_atemporal(
            model, Observation(0, {"flow_out(P)", "no_flow_out(P)"}, set()),
            ABDUCTIVE)
        assert empty.shape == (0, 2)

    def test_candidate_cap(self, hydraulic):
        obs = Observation(0, set(), set())
        with pytest.raises(SearchSpaceError):
            solve(hydraulic, obs, ABDUCTIVE, candidate_cap=10)

    def test_candidate_cap_boundary(self, hydraulic):
        # 5 pump modes x 3 container modes: a cap equal to the space passes
        obs = Observation(0, set(), set())
        assert len(solve(hydraulic, obs, CONSISTENCY,
                         candidate_cap=15)) == 15
        with pytest.raises(SearchSpaceError) as exc:
            solve(hydraulic, obs, CONSISTENCY, candidate_cap=14)
        assert exc.value.element == 15

    def test_rules_sharing_a_head(self, pump, container):
        model = SystemModel((pump, container), (
            HornRule({("P", "broken")}, "dry"),
            HornRule({("P", "occluded"), ("C", "correct")}, "dry"),
            HornRule({("C", "punctured")}, "dry"),
        ))
        present = Observation(0, {"dry"}, set())
        got = {(w.as_dict()["P"], w.as_dict()["C"])
               for w in solve(model, present, ABDUCTIVE)}
        expected = {(p, c) for p in pump.modes for c in container.modes
                    if p == "broken" or c == "punctured"
                    or (p, c) == ("occluded", "correct")}
        assert got == expected
        absent = Observation(0, set(), {"dry"})
        got = {(w.as_dict()["P"], w.as_dict()["C"])
               for w in solve(model, absent, CONSISTENCY)}
        assert got == {(p, c) for p in pump.modes for c in container.modes
                       } - expected

    def test_empty_body_rule_always_fires(self, pump, container):
        # validate_model rejects empty bodies; the solver still treats one
        # as a rule that every assignment fires
        model = SystemModel((pump, container), (
            HornRule(frozenset(), "alarm"),
            HornRule({("P", "broken")}, "dry"),
        ))
        assert len(solve(model, Observation(0, {"alarm"}, set()),
                         ABDUCTIVE)) == 15
        assert solve(model, Observation(0, set(), {"alarm"}),
                     CONSISTENCY) == []

    def test_unfireable_rule_bodies(self, pump, container):
        # unvalidated bodies naming an unknown component or mode, or giving
        # one component two modes, are fired by no assignment
        model = SystemModel((pump, container), (
            HornRule({("X", "correct")}, "odd"),
            HornRule({("P", "melted")}, "odd"),
            HornRule({("P", "broken"), ("P", "correct")}, "odd"),
        ))
        assert solve(model, Observation(0, {"odd"}, set()),
                     ABDUCTIVE) == []
        assert len(solve(model, Observation(0, set(), {"odd"}),
                         CONSISTENCY)) == 15

    def test_underived_present_atom(self, hydraulic):
        # without validation an observation may name an atom no rule derives:
        # nothing covers it abductively, and it excludes nothing
        obs = Observation(0, {"ghost"}, set())
        assert solve(hydraulic, obs, ABDUCTIVE) == []
        assert solve(hydraulic, obs, CONSISTENCY) == \
            solve(hydraulic, Observation(0, set(), set()), CONSISTENCY)

    def test_assignment_time_stamped(self, hydraulic):
        obs = Observation(7, {"flow_out(P)"}, set())
        got = solve(hydraulic, obs, ABDUCTIVE)
        assert got and all(w.t == 7 for w in got)


def brute_force_solve(model, obs, criterion):
    """Independent re-derivation: evaluate every rule against every full
    assignment without going through the solver's helpers."""
    comps = sorted(model.components, key=lambda c: c.id)
    out = []
    for combo in itertools.product(*(c.modes for c in comps)):
        chosen = dict(zip((c.id for c in comps), combo))
        fired = set()
        for rule in model.rules:
            if all(chosen.get(cid) == mode for cid, mode in rule.body):
                fired.add(rule.head)
        ok = not (fired & obs.absent)
        if ok:
            for pair in model.exclusive:
                a, b = tuple(pair)
                if (a in obs.present and b in fired) or \
                        (b in obs.present and a in fired):
                    ok = False
                    break
        if ok and criterion is ABDUCTIVE:
            ok = obs.present <= fired
        if ok:
            out.append(ModeAssignment.from_mapping(obs.t, chosen))
    return out


def test_oracle_equivalence_on_random_models():
    rng = np.random.default_rng(99)
    for _ in range(300):
        model = random_model(rng)
        if rng.random() < 0.5:
            w = random_assignment(rng, model, 0)
            obs = observation_from_assignment(rng, model, w)
        else:
            heads = sorted(model.manifestations)
            chosen = {h for h in heads if rng.random() < 0.4}
            present = frozenset(h for h in chosen if rng.random() < 0.5)
            obs = Observation(0, present, frozenset(chosen) - present)
        for criterion in (ABDUCTIVE, CONSISTENCY):
            assert solve(model, obs, criterion) == \
                brute_force_solve(model, obs, criterion)


def wide_model(rng, n_comps):
    """``n_comps`` three-mode components with single-atom rules, chained
    two-component rules and heads shared between rules, sometimes an
    empty-body rule and an exclusive pair; not validated."""
    components = tuple(
        ComponentSpec(id=f"c{i}", modes=("m0", "m1", "m2"), correct_mode="m0",
                      matrix=random_stochastic(rng, 3))
        for i in range(n_comps))
    heads = [f"obs{i}" for i in range(n_comps + 2)]

    def mode():
        return f"m{rng.integers(3)}"

    rules = [HornRule({(f"c{i}", mode())}, heads[rng.integers(len(heads))])
             for i in range(n_comps)]
    rules += [HornRule({(f"c{i}", mode()), (f"c{(i + 1) % n_comps}", mode())},
                       heads[rng.integers(len(heads))])
              for i in range(n_comps)]
    if rng.random() < 0.3:
        rules.append(HornRule(frozenset(), heads[rng.integers(len(heads))]))
    used = sorted({r.head for r in rules})
    a, b = rng.choice(len(used), size=2, replace=False)
    return SystemModel(components, tuple(rules),
                       (frozenset({used[a], used[b]}),))


def test_oracle_equivalence_on_wide_models():
    # spaces up to 3^8 = 6561 assignments, as in the benchmark's wide family
    rng = np.random.default_rng(7)
    for n_comps in (6, 7, 8, 8, 8, 8):
        model = wide_model(rng, n_comps)
        heads = sorted(model.manifestations)
        observations = [
            observation_from_assignment(
                rng, model, random_assignment(rng, model, 0)),
            Observation(0, frozenset(h for h in heads if rng.random() < 0.2),
                        frozenset()),
        ]
        chosen = {h for h in heads if rng.random() < 0.5}
        present = frozenset(h for h in chosen if rng.random() < 0.5)
        observations.append(Observation(0, present, frozenset(chosen) - present))
        for obs in observations:
            for criterion in (ABDUCTIVE, CONSISTENCY):
                assert solve(model, obs, criterion) == \
                    brute_force_solve(model, obs, criterion)


def test_abductive_monotone_in_present(hydraulic):
    # adding a present atom never enlarges the abductive solution set
    base = Observation(0, {"no_flow_out(P)"}, set())
    more = Observation(0, {"no_flow_out(P)", "water_loss(C)"}, set())
    assert set(solve(hydraulic, more, ABDUCTIVE)) <= \
        set(solve(hydraulic, base, ABDUCTIVE))
