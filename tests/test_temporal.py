"""Temporal engine: priors, conditionals, the plausibility filter, ranking.

Numeric oracles: all expected values are products of entries of the fixture
matrices (or of their hand-computed squares), frozen here as exact fractions.
"""

import numpy as np
import pytest

import tempdiag.temporal
from tempdiag import (
    ComponentSpec,
    DiagnosticProblem,
    ExplanationCriterion,
    ModeAssignment,
    Observation,
    ObservationStream,
    SystemModel,
    ThresholdMode,
    build_trellis,
    enumerate_evolutions,
    resolve_initial_distributions,
)
from tempdiag.atemporal import solve_atemporal
from tempdiag.errors import (
    EmptyStreamError,
    NoAdmissibleEvolutionError,
    NoCandidatesError,
    NonIncreasingInstantsError,
    SearchSpaceError,
    ValidationError,
)
from tempdiag.temporal import (
    SpelledPaths,
    forward_paths,
    trellis_from_layers,
)

from propsuites import (
    enumerated,
    mode_indices,
    observation_from_assignment,
    random_assignment,
    random_model,
)
from reference import (
    admissible_step,
    assignments,
    conditional_probability,
    decode,
    edge_factors,
    forward_prefixes,
    joint_probability,
    prior_probability,
    step_factors,
)


def assignment(t, **modes):
    return ModeAssignment.from_mapping(t, modes)


def w_candidates(t):
    """The three first-instant hypotheses of the occlusion scenario."""
    return [
        assignment(t, P="correct", C="correct"),
        assignment(t, P="partially_occluded", C="correct"),
        assignment(t, P="occluded", C="correct"),
    ]


class TestRelevantInstants:
    """The trellis' instants are the time points carrying observations, in
    order."""

    @staticmethod
    def instants(*times):
        model = SystemModel((ComponentSpec("x", ("a",), "a", [[1.0]]),), ())
        stream = ObservationStream(tuple(
            Observation(t, set(), set()) for t in times))
        return build_trellis(DiagnosticProblem(model, stream)).instants

    def test_two_entries(self):
        assert self.instants(0, 1) == (0, 1)

    def test_gaps_preserved(self):
        assert self.instants(2, 5, 9) == (2, 5, 9)

    def test_single_entry(self):
        assert self.instants(0) == (0,)

    def test_empty_stream_rejected(self):
        with pytest.raises(EmptyStreamError,
                           match="^observation stream has no entries$"):
            self.instants()


def induced(model, candidates):
    return resolve_initial_distributions(model, 0,
                                         mode_indices(model, candidates))


class TestInduceInitialDistributions:
    """A t=0 candidate set induces the initial distribution of each
    component that declares none."""

    def test_uniform_over_three_candidates(self, hydraulic):
        got = induced(hydraulic, w_candidates(0))
        np.testing.assert_allclose(got["C"], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(
            got["P"], [0, 1 / 3, 0, 1 / 3, 1 / 3], atol=1e-12)

    def test_single_candidate_gets_point_mass(self, hydraulic):
        got = induced(hydraulic, [assignment(0, P="broken", C="correct")])
        assert got["P"][0] == 1.0      # broken
        assert got["C"][2] == 1.0      # correct

    def test_bit_exact_left_to_right_sum(self):
        """Each mode's mass equals, bit for bit, the candidates' 1/|L|
        weights added one candidate at a time from 0.0, on random first
        layers of 1 to 100 distinct candidates in lexicographic order."""
        rng = np.random.default_rng(606)
        division_differs = False
        for _ in range(200):
            model = random_model(rng, max_components=4, max_modes=4,
                                 max_rules=0)
            shape = tuple(len(c.modes) for c in model.components)
            size = int(rng.integers(1, min(np.prod(shape), 100) + 1))
            flat = np.sort(rng.choice(np.prod(shape), size, replace=False))
            modes = np.stack(np.unravel_index(flat, shape), axis=1)
            got = resolve_initial_distributions(model, 0, modes)
            for ci, c in enumerate(model.components):
                expected = [0.0] * len(c.modes)
                for row in modes.tolist():
                    expected[row[ci]] += 1.0 / size
                assert got[c.id].tolist() == expected
                counts = np.bincount(modes[:, ci], minlength=len(c.modes))
                division_differs |= (counts / size).tolist() != expected
        assert division_differs


class TestPriorProbability:
    def test_uniform_candidates_give_equal_priors(self, hydraulic):
        initials = induced(hydraulic, w_candidates(0))
        for w in w_candidates(0):
            assert prior_probability(w, initials, hydraulic) == \
                pytest.approx(1 / 3, abs=1e-12)

    def test_zero_initial_mass_gives_zero(self, hydraulic):
        initials = induced(hydraulic, w_candidates(0))
        w = assignment(0, P="broken", C="correct")
        assert prior_probability(w, initials, hydraulic) == 0.0

    def test_one_step_from_point_initials(self, hydraulic):
        initials = {"P": np.array([0, 0, 0, 0, 1.0]),
                    "C": np.array([0, 0, 1.0])}
        w = assignment(1, P="correct", C="correct")
        assert prior_probability(w, initials, hydraulic) == \
            pytest.approx(81 / 100, abs=1e-12)


def step_conditional(model, w_prev, w_next):
    """The trellis's conditional for the step from ``w_prev`` to ``w_next``."""
    trellis = trellis_from_layers(
        model, [w_prev.t, w_next.t],
        [mode_indices(model, [w_prev]), mode_indices(model, [w_next])],
        resolve_initial_distributions(model))
    return trellis.conditionals[0]


class TestConditionalProbability:
    def test_partial_occlusion_progresses(self, hydraulic):
        got = step_conditional(
            hydraulic, assignment(0, P="partially_occluded", C="correct"),
            assignment(1, P="occluded", C="correct"))
        assert got == pytest.approx(9 / 25, abs=1e-12)

    def test_impossible_one_step_change(self, hydraulic):
        got = step_conditional(
            hydraulic, assignment(0, P="correct", C="correct"),
            assignment(1, P="occluded", C="correct"))
        assert got == 0.0

    def test_two_step_occlusion(self, hydraulic):
        # (P^2)[correct, occluded] = 2/125 and (C^2)[correct, correct] = 81/100
        got = step_conditional(
            hydraulic, assignment(0, P="correct", C="correct"),
            assignment(2, P="occluded", C="correct"))
        assert got == pytest.approx(81 / 6250, abs=1e-12)

    def test_time_must_advance(self, hydraulic):
        with pytest.raises(NonIncreasingInstantsError):
            step_conditional(
                hydraulic, assignment(1, P="correct", C="correct"),
                assignment(1, P="correct", C="correct"))


class TestAdmissibleStep:
    def test_breakdown_passes_centi_threshold(self, hydraulic):
        problem = DiagnosticProblem(hydraulic, ObservationStream(()),
                                    sigma=1 / 100)
        # (1/50)(9/10) = 9/500 >= 1/100
        assert admissible_step(assignment(0, P="correct", C="correct"),
                               assignment(1, P="broken", C="correct"),
                               problem)

    def test_zero_probability_step_fails_positive_threshold(self, hydraulic):
        problem = DiagnosticProblem(hydraulic, ObservationStream(()),
                                    sigma=1 / 100)
        assert not admissible_step(assignment(0, P="correct", C="correct"),
                                   assignment(1, P="occluded", C="correct"),
                                   problem)
        assert not admissible_step(assignment(0, P="correct", C="correct"),
                                   assignment(1, P="correct", C="punctured"),
                                   problem)

    def test_sigma_zero_admits_everything(self, hydraulic):
        problem = DiagnosticProblem(hydraulic, ObservationStream(()),
                                    sigma=0.0)
        assert admissible_step(assignment(0, P="correct", C="correct"),
                               assignment(1, P="occluded", C="correct"),
                               problem)

    def test_per_component_weaker_than_global(self, hydraulic):
        # factors (1/50, 9/10): every factor >= 0.019 but the product
        # 9/500 = 0.018 is below it
        w0 = assignment(0, P="correct", C="correct")
        w1 = assignment(1, P="broken", C="correct")
        per_component = DiagnosticProblem(
            hydraulic, ObservationStream(()), sigma=0.019,
            threshold_mode=ThresholdMode.PER_COMPONENT)
        global_mode = DiagnosticProblem(hydraulic, ObservationStream(()),
                                        sigma=0.019)
        assert admissible_step(w0, w1, per_component)
        assert not admissible_step(w0, w1, global_mode)


class TestJointProbability:
    def test_partial_occlusion_evolution(self, hydraulic):
        initials = induced(hydraulic, w_candidates(0))
        trajectory = [assignment(0, P="partially_occluded", C="correct"),
                      assignment(1, P="occluded", C="correct")]
        assert joint_probability(trajectory, initials, hydraulic) == \
            pytest.approx(3 / 25, abs=1e-12)

    def test_full_occlusion_evolution(self, hydraulic):
        initials = induced(hydraulic, w_candidates(0))
        trajectory = [assignment(0, P="occluded", C="correct"),
                      assignment(1, P="occluded", C="correct")]
        assert joint_probability(trajectory, initials, hydraulic) == \
            pytest.approx(3 / 10, abs=1e-12)

    def test_length_one_trajectory_is_prior(self, hydraulic):
        initials = induced(hydraulic, w_candidates(0))
        w = assignment(0, P="correct", C="correct")
        assert joint_probability([w], initials, hydraulic) == \
            prior_probability(w, initials, hydraulic)


class TestEnumerate:
    def test_sudden_stop_single_survivor(self, sudden_stop_problem):
        got = enumerated(sudden_stop_problem)
        assert len(got) == 1
        (diagnosis,) = got
        assert [w.as_dict() for w in diagnosis.trajectory] == [
            {"P": "correct", "C": "correct"},
            {"P": "broken", "C": "correct"},
        ]
        assert diagnosis.joint_probability == pytest.approx(9 / 500, abs=1e-12)

    def test_occlusion_ranking(self, occlusion_problem):
        got = enumerated(occlusion_problem)
        assert len(got) == 3
        best = got[0]
        assert best.trajectory[0].as_dict()["P"] == "occluded"
        assert best.joint_probability == pytest.approx(3 / 10, abs=1e-12)
        joints = [d.joint_probability for d in got]
        assert joints == sorted(joints, reverse=True)
        np.testing.assert_allclose(joints, [3 / 10, 3 / 25, 0], atol=1e-12)

    def test_single_instant_ranked_by_prior(self, occlusion_problem):
        problem = DiagnosticProblem(
            model=occlusion_problem.model,
            observations=ObservationStream(
                occlusion_problem.observations.entries[:1]))
        got = enumerated(problem)
        assert len(got) == 3
        for d in got:
            assert d.step_conditionals == ()
            assert d.joint_probability == pytest.approx(1 / 3, abs=1e-12)

    def test_markov_factorization(self, occlusion_problem):
        trellis = build_trellis(occlusion_problem)
        initials = trellis.initials
        model = occlusion_problem.model
        for d in decode(model, enumerate_evolutions(
                occlusion_problem, trellis, forward_paths(trellis))):
            product = prior_probability(d.trajectory[0], initials, model)
            for c in d.step_conditionals:
                product *= c
            assert abs(product - d.joint_probability) <= 1e-12

    def test_deterministic_output(self, sudden_stop_problem):
        a = enumerated(sudden_stop_problem)
        b = enumerated(sudden_stop_problem)
        assert a == b

    def test_no_candidates_at_instant(self, hydraulic):
        # flow and no-flow demanded at once: no assignment explains t=0
        stream = ObservationStream((
            Observation(0, {"flow_out(P)", "no_flow_out(P)"}, set()),))
        problem = DiagnosticProblem(hydraulic, stream)
        with pytest.raises(NoCandidatesError) as exc:
            build_trellis(problem)
        assert exc.value.t == 0

    def test_no_admissible_evolution(self, sudden_stop_problem):
        problem = DiagnosticProblem(
            model=sudden_stop_problem.model,
            observations=sudden_stop_problem.observations,
            sigma=0.5)
        trellis = build_trellis(problem)
        with pytest.raises(NoAdmissibleEvolutionError):
            enumerate_evolutions(problem, trellis, forward_paths(trellis))

    def test_sigma_out_of_range_rejected(self, sudden_stop_problem):
        problem = DiagnosticProblem(
            model=sudden_stop_problem.model,
            observations=sudden_stop_problem.observations,
            sigma=1.5)
        with pytest.raises(ValidationError):
            build_trellis(problem)


class TestResolveInitials:
    def test_component_declaration_wins(self, hydraulic, container):
        point = [0, 0, 1]
        comps = tuple(
            c if c.id != "C" else
            type(c)(id=c.id, modes=c.modes, correct_mode=c.correct_mode,
                    matrix=c.matrix, initial_distribution=point)
            for c in hydraulic.components)
        model = SystemModel(comps, hydraulic.rules, hydraulic.exclusive)
        got = resolve_initial_distributions(
            model, 0, mode_indices(model, [assignment(0, P="broken",
                                                      C="punctured")]))
        assert got["C"] is comps[1].initial_distribution  # declared, kept
        assert got["P"][0] == 1.0                          # broken, induced

    def test_uniform_fallback_without_t0_candidates(self, hydraulic):
        got = resolve_initial_distributions(hydraulic, first_instant=3)
        np.testing.assert_allclose(got["P"], [0.2] * 5)
        np.testing.assert_allclose(got["C"], [1 / 3] * 3)

    def test_empty_first_layer_falls_back_to_uniform(self):
        """An empty candidate set at t=0 induces nothing: a declared
        component keeps its declaration, the other gets the uniform
        distribution."""
        declared = ComponentSpec("d", ("a", "b"), "a", np.eye(2), [0.25, 0.75])
        model = SystemModel((declared, ComponentSpec(
            "u", ("a", "b", "c"), "a", np.eye(3))), ())
        got = resolve_initial_distributions(model, 0, np.empty((0, 2), int))
        assert list(got) == ["d", "u"]
        assert got["d"] is declared.initial_distribution
        assert got["u"].tolist() == [1 / 3] * 3


class TestForwardTable:
    """``forward_paths`` returns the paths of every layer as one flat
    table: layer k's at entries ``starts[k]`` to ``starts[k + 1]``, each
    with its parent's entry in layer k - 1 (-1 at layer 0)."""

    def check(self, trellis):
        starts, parents, candidates, joints = forward_paths(trellis)
        assert starts[0] == 0 and len(starts) == len(trellis.instants) + 1
        assert len(parents) == len(candidates) == len(joints) == starts[-1]
        assert parents.dtype == candidates.dtype == np.intp
        assert parents[:starts[1]].tolist() == [-1] * starts[1]
        for k in range(1, len(trellis.instants)):
            among = parents[starts[k]:starts[k + 1]]
            assert np.all((starts[k - 1] <= among) & (among < starts[k]))
        prefixes = list(forward_prefixes(trellis))
        spelled = SpelledPaths(starts, parents, candidates)
        assert spelled[0:spelled.cells[-1]].dtype == spelled.dtype == np.int32
        assert spelled[0:spelled.cells[-1]].tolist() == [
            cell for paths, _ in prefixes for cell in paths.ravel().tolist()]
        # read again from layer 0, one layer at a time
        assert [spelled.layer(k).tolist() for k in range(len(prefixes))] == [
            paths.tolist() for paths, _ in prefixes]
        return starts

    def test_branching_layers(self, occlusion_problem):
        starts = self.check(build_trellis(occlusion_problem))
        assert np.diff(starts).tolist() == [3, 3]

    def test_emptied_layers_stay_empty(self, hydraulic):
        # broken -> correct has probability 0: no path passes sigma 0.01
        trellis = trellis_from_layers(
            hydraulic, [0, 1, 2], np.array([[[0, 2]], [[4, 2]], [[4, 2]]]),
            resolve_initial_distributions(hydraulic), sigma=0.01)
        assert self.check(trellis).tolist() == [0, 1, 1, 1]


def test_trellis_arrays_equal_per_edge_definitions():
    """Every entry of the array trellis equals the per-edge definitions
    exactly: priors, mode indices, factors, conditionals and admissibility,
    on multi-candidate layers with gaps of 1 to 5 in both threshold modes."""
    rng = np.random.default_rng(4242)
    seen = set()
    done = 0
    while done < 150:
        model = random_model(rng, max_components=3, max_modes=3, max_rules=3)
        t, entries = int(rng.integers(0, 3)), []
        for _ in range(int(rng.integers(2, 5))):
            w = random_assignment(rng, model, t)
            entries.append(observation_from_assignment(rng, model, w))
            t += int(rng.integers(1, 6))
        problem = DiagnosticProblem(
            model, ObservationStream(tuple(entries)),
            sigma=float(rng.random() * 0.5) if rng.random() < 0.8 else 0.0,
            threshold_mode=(ThresholdMode.GLOBAL, ThresholdMode.PER_COMPONENT)[
                done % 2],
            criterion=ExplanationCriterion.CONSISTENCY_BASED)
        trellis = build_trellis(problem)
        stacked = np.split(trellis.rows, trellis.starts[1:-1])
        layers = [assignments(model, t, m)
                  for t, m in zip(trellis.instants, stacked)]
        if max(len(layer) for layer in layers) > 12:
            continue

        assert trellis.priors.tolist() == [
            prior_probability(w, trellis.initials, model) for w in layers[0]]
        for layer, modes in zip(layers, stacked):
            assert [{c.id: c.modes[m] for c, m in zip(model.components, row)}
                    for row in modes.tolist()] == [w.as_dict() for w in layer]
        bounds, factors = trellis.bounds, edge_factors(trellis)
        for k, (prev, nxt) in enumerate(zip(layers, layers[1:])):
            for i, a in enumerate(prev):
                for j, b in enumerate(nxt):
                    e = bounds[k] + i * len(nxt) + j
                    expected = step_factors(a, b, model)
                    assert factors[e].tolist() == [
                        expected[c.id] for c in model.components]
                    assert trellis.conditionals[e] == \
                        conditional_probability(a, b, model)
                    assert trellis.admissible[e] == \
                        admissible_step(a, b, problem)
            seen.add(("gap", b.t - a.t))
            seen.update(("admissible", bool(x)) for x in
                        trellis.admissible[bounds[k]:bounds[k + 1]])
        seen.add(("multi", len(layers[0]) > 1))
        done += 1
    assert seen >= {("gap", n) for n in range(1, 6)} | {
        ("admissible", True), ("admissible", False), ("multi", True)}


@pytest.mark.parametrize("sizes, instants, dtypes", [
    ((3, 3, 3, 3), (0, 2, 5, 6), ("u1",) * 4),  # dense's: 27 entries each
    ((16, 2), (1, 2, 3), ("u1", "u1")),  # 256 entries: indices to 255
    ((17, 1), (0, 4), ("u2", "u1")),  # 289 entries
    ((8, 9), (0, 1, 3, 6, 10), ("u1", "u2")),  # 4 gaps: 256 and 324
    ((2, 3), (5,), ("u1", "u1")),  # no step: empty tables
], ids=["dense", "256", "289", "gaps", "no-step"])
def test_trellis_keeps_narrow_indices_per_edge(sizes, instants, dtypes):
    """Each component's edge indices have the narrowest unsigned dtype that
    holds the indices of its table, its ``P^n`` of each distinct gap
    stacked and flattened, and pick each edge's entry bit for bit; the
    edge arrays total 9 bytes per edge plus one index per component."""
    rng = np.random.default_rng(len(sizes) * 100 + sum(sizes))
    model = SystemModel(tuple(
        tempdiag.ComponentSpec(
            id=f"c{ci}", modes=tuple(f"m{i}" for i in range(m)),
            correct_mode="m0", matrix=rng.dirichlet(np.ones(m), size=m))
        for ci, m in enumerate(sizes)), ())
    layers = [np.stack([rng.integers(m, size=5) for m in sizes], axis=1)
              for _ in instants]
    trellis = trellis_from_layers(
        model, instants, layers, resolve_initial_distributions(model))
    gaps = sorted({b - a for a, b in zip(instants, instants[1:])})
    steps, sources, targets = trellis.endpoints
    edges = len(trellis.conditionals)
    assert edges == 25 * (len(instants) - 1)
    for ci, (c, dtype) in enumerate(zip(model.components, dtypes)):
        entries, powers = trellis.entries[ci], trellis.powers[ci]
        assert entries.dtype == np.dtype(dtype) == np.min_scalar_type(
            max(powers.size - 1, 0))
        assert entries.shape == (edges,)
        assert powers.shape == (len(gaps) * len(c.modes) ** 2,)
        for e, (k, i, j) in enumerate(zip(steps, sources, targets)):
            n = instants[k + 1] - instants[k]
            expected = np.linalg.matrix_power(c.matrix, n)[
                layers[k][i, ci], layers[k + 1][j, ci]]
            assert powers[entries[e]].view(np.int64) == expected.view(
                np.int64)
    per_edge = [trellis.conditionals, trellis.admissible, *trellis.entries]
    assert sum(a.nbytes for a in per_edge) == edges * (
        9 + sum(a.itemsize for a in trellis.entries))
    # no other field holds an array per edge
    assert tempdiag.Trellis._fields == (
        "instants", "rows", "starts", "initials", "priors", "entries",
        "powers", "conditionals", "admissible")


#: Three observation patterns of the hydraulic system; the third has the
#: same present atoms as the first and other absent ones, and CONTRADICTION
#: has no explanation.
FLOW = ({"flow_out(P)", "level_normal(C)"}, set())
STOPPED = ({"no_flow_out(P)"}, {"water_loss(C)"})
FLOW_DRY = ({"flow_out(P)", "level_normal(C)"}, {"water_loss(C)"})
CONTRADICTION = ({"flow_out(P)", "no_flow_out(P)"}, set())


class TestSolveMemo:
    """``build_trellis`` solves each distinct (present, absent) pair once."""

    def solves(self, monkeypatch):
        calls = []

        def counted(model, observation, *args):
            calls.append(observation.t)
            return solve_atemporal(model, observation, *args)
        monkeypatch.setattr(tempdiag.temporal, "solve_atemporal", counted)
        return calls

    def problem(self, model, patterns,
                criterion=ExplanationCriterion.CONSISTENCY_BASED, **options):
        return DiagnosticProblem(model, ObservationStream(tuple(
            Observation(t, *pattern) for t, pattern in enumerate(patterns))),
            criterion=criterion, **options)

    def test_each_distinct_observation_solved_once(self, hydraulic,
                                                   monkeypatch):
        calls = self.solves(monkeypatch)
        patterns = [FLOW, FLOW, STOPPED, FLOW_DRY, FLOW, STOPPED, FLOW_DRY]
        trellis = build_trellis(self.problem(hydraulic, patterns))
        assert calls == [0, 2, 3]  # the first instant of each pattern
        assert len(trellis.starts) - 1 == len(patterns)

    def test_layers_equal_entry_by_entry_solves(self, hydraulic):
        patterns = [FLOW, STOPPED, FLOW, FLOW_DRY, STOPPED, FLOW]
        problem = self.problem(hydraulic, patterns, sigma=0.01)
        trellis = build_trellis(problem)
        layers = [solve_atemporal(hydraulic, entry, problem.criterion)
                  for entry in problem.observations.entries]
        assert len({len(layer) for layer in layers}) > 1
        expected = trellis_from_layers(
            hydraulic, trellis.instants, layers,
            resolve_initial_distributions(hydraulic, 0, layers[0]),
            problem.sigma, problem.threshold_mode)
        assert np.array_equal(trellis.starts, expected.starts)
        assert trellis.rows.dtype == expected.rows.dtype
        assert np.array_equal(trellis.rows, expected.rows)
        assert len(trellis.entries) == len(trellis.powers) == len(
            hydraulic.components)
        for got, want in [*zip(trellis.entries, expected.entries),
                          *zip(trellis.powers, expected.powers),
                          (trellis.conditionals, expected.conditionals),
                          (trellis.admissible, expected.admissible)]:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(trellis.priors, expected.priors)

    def test_first_empty_instant_named(self, hydraulic, monkeypatch):
        calls = self.solves(monkeypatch)
        patterns = [FLOW, FLOW, STOPPED, CONTRADICTION, FLOW, CONTRADICTION]
        with pytest.raises(NoCandidatesError) as exc:
            build_trellis(self.problem(hydraulic, patterns,
                                       ExplanationCriterion.ABDUCTIVE))
        assert exc.value.t == exc.value.element == 3
        assert calls == [0, 2, 3]

    def test_search_space_error_from_first_solve(self, hydraulic,
                                                 monkeypatch):
        calls = self.solves(monkeypatch)
        with pytest.raises(SearchSpaceError):
            build_trellis(self.problem(hydraulic, [FLOW, STOPPED],
                                       candidate_cap=3))
        assert calls == [0]
