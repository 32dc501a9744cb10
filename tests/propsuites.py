"""Randomized property suites shared by test_properties and test_acceptance.

Each checker runs `cases` independently seeded random cases and raises
AssertionError on the first violation. Generators are deliberately
structure-heavy (zero entries, absorbing rows, sparse rules) so the
properties get exercised off the happy path.
"""

from __future__ import annotations

import itertools

import numpy as np

from tempdiag import (
    DiagnosticProblem,
    ExplanationCriterion,
    HornRule,
    ModeAssignment,
    ComponentSpec,
    ObservationStream,
    Observation,
    StateLabel,
    SystemModel,
    ThresholdMode,
    Trellis,
    build_trellis,
    classify_faults,
    classify_states,
    enumerate_evolutions,
    matrix_power,
    normalization_factor,
    predicted_manifestations,
    propagate_distribution,
    rank_evolutions,
    resolve_initial_distributions,
    revise_trellis,
    sojourn_pmf,
    solve_atemporal,
    validate_matrix,
    validate_model,
)
from tempdiag.errors import (
    AllZeroJointsError,
    NoAdmissibleEvolutionError,
    NonIncreasingInstantsError,
    ZeroAdmittedMassError,
)
from tempdiag.markov import ABSORBING_TOL
from tempdiag.temporal import forward_paths, trellis_from_layers

from reference import (
    Diagnosis,
    admissible_step,
    assignments,
    component_mass_factor,
    conditional_probability,
    decode,
    joint_probability,
    named_revision,
    posterior_component_distribution,
    prior_probability,
    revise_global,
    revise_transition,
    step_factors,
)


def mode_names(n: int) -> tuple[str, ...]:
    """The modes ``m0``, ``m1``, ... of a random chain of ``n`` modes."""
    return tuple(f"m{i}" for i in range(n))


def random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random row-stochastic matrix with a sprinkling of structural zeros
    and occasional absorbing rows, over ``mode_names(n)``."""
    entries = rng.random((n, n))
    mask = rng.random((n, n)) < 0.35
    entries[mask] = 0.0
    for i in range(n):
        if entries[i].sum() == 0.0:
            entries[i, rng.integers(n)] = 1.0
        if rng.random() < 0.1:
            entries[i] = 0.0
            entries[i, i] = 1.0
    entries /= entries.sum(axis=1, keepdims=True)
    return validate_matrix(mode_names(n), entries)


def random_model(rng: np.random.Generator, max_components: int = 3,
                 max_modes: int = 4, max_rules: int = 10) -> SystemModel:
    """Random small system model with rules and exclusivity pairs."""
    n_comps = int(rng.integers(1, max_components + 1))
    components = []
    for i in range(n_comps):
        n_modes = int(rng.integers(2, max_modes + 1))
        components.append(ComponentSpec(
            id=f"c{i}", modes=mode_names(n_modes), correct_mode="m0",
            matrix=random_stochastic(rng, n_modes)))

    heads = [f"obs{i}" for i in range(6)]
    rules = []
    for _ in range(int(rng.integers(0, max_rules + 1))):
        size = int(rng.integers(1, n_comps + 1))
        picked = rng.choice(n_comps, size=size, replace=False)
        body = frozenset(
            (f"c{i}", components[i].modes[rng.integers(len(components[i].modes))])
            for i in picked)
        rules.append(HornRule(body=body, head=heads[rng.integers(len(heads))]))

    exclusive = ()
    used = sorted({r.head for r in rules})
    if len(used) >= 2 and rng.random() < 0.5:
        a, b = rng.choice(len(used), size=2, replace=False)
        exclusive = (frozenset({used[a], used[b]}),)

    return validate_model(SystemModel(tuple(components), tuple(rules),
                                      exclusive))


def random_assignment(rng: np.random.Generator, model: SystemModel,
                      t: int) -> ModeAssignment:
    return ModeAssignment.from_mapping(t, {
        c.id: c.modes[rng.integers(len(c.modes))] for c in model.components})


def mode_indices(model: SystemModel, candidates) -> np.ndarray:
    """Assignments as the |L| x C mode-index array the engine works on."""
    return np.array([[c.modes.index(w.as_dict()[c.id]) for c in model.components]
                     for w in candidates]).reshape(len(candidates),
                                                   len(model.components))


def observation_from_assignment(rng: np.random.Generator,
                                model: SystemModel,
                                w: ModeAssignment) -> Observation:
    """An observation entry the assignment itself explains abductively."""
    predicted = predicted_manifestations(w, model)
    others = sorted(model.manifestations - predicted)
    absent = frozenset(
        o for o in others
        if rng.random() < 0.3 and not (model.exclusive_partners(o) & predicted))
    return Observation(t=w.t, present=predicted, absent=absent)


# --- stochastic-core suites ---------------------------------------------------

def check_chapman_kolmogorov(cases: int, seed: int = 2024) -> None:
    """matrix_power(m, a+b) == matrix_power(m, a) @ matrix_power(m, b)."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        m = random_stochastic(rng, int(rng.integers(1, 7)))
        a = int(rng.integers(0, 17))
        b = int(rng.integers(0, 17))
        combined = matrix_power(m, a + b)
        split = matrix_power(m, a) @ matrix_power(m, b)
        assert np.max(np.abs(combined - split)) <= 1e-9


def check_power_stochasticity(cases: int, seed: int = 2025) -> None:
    """Every row of every power sums to 1."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        m = random_stochastic(rng, int(rng.integers(1, 7)))
        n = int(rng.integers(0, 33))
        sums = matrix_power(m, n).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9


def check_memorylessness(cases: int, seed: int = 2026) -> None:
    """P(S = t+n | S > t) == P(S = n) for the geometric sojourn pmf."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        p = 0.01 + float(rng.random()) * 0.98
        t = int(rng.integers(1, 40))
        n = int(rng.integers(1, 40))
        survival = p ** t
        assert abs(sojourn_pmf(p, t + n) / survival - sojourn_pmf(p, n)) <= 1e-12


# --- solver suites -------------------------------------------------------------

def check_abductive_subset(cases: int, seed: int = 2027) -> None:
    """The abductive solution set is contained in the consistency-based one."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        model = random_model(rng)
        if rng.random() < 0.5:
            w = random_assignment(rng, model, 0)
            obs = observation_from_assignment(rng, model, w)
        else:
            heads = sorted(model.manifestations)
            chosen = {h for h in heads if rng.random() < 0.4}
            present = frozenset(h for h in chosen if rng.random() < 0.5)
            obs = Observation(t=0, present=present,
                              absent=frozenset(chosen) - present)
        abductive = set(assignments(model, 0, solve_atemporal(
            model, obs, ExplanationCriterion.ABDUCTIVE)))
        consistent = set(assignments(model, 0, solve_atemporal(
            model, obs, ExplanationCriterion.CONSISTENCY_BASED)))
        assert abductive <= consistent


def _random_problem(rng: np.random.Generator, sigma: float | None = None,
                    ) -> DiagnosticProblem:
    """A diagnosable random problem: observations generated from a hidden
    trajectory so every layer is nonempty, layers capped at 8 candidates."""
    while True:
        model = random_model(rng, max_components=2, max_modes=3, max_rules=6)
        n_instants = int(rng.integers(1, 4))
        instants = sorted(rng.choice(6, size=n_instants, replace=False))
        entries = []
        for t in instants:
            w = random_assignment(rng, model, int(t))
            entries.append(observation_from_assignment(rng, model, w))
        stream = ObservationStream(tuple(entries))
        ok = True
        for entry in stream.entries:
            size = len(solve_atemporal(model, entry,
                                       ExplanationCriterion.ABDUCTIVE))
            if size == 0 or size > 8:
                ok = False
                break
        if not ok:
            continue
        if sigma is None:
            sigma = 0.0 if rng.random() < 0.3 else float(rng.random() * 0.5)
        mode = (ThresholdMode.GLOBAL if rng.random() < 0.5
                else ThresholdMode.PER_COMPONENT)
        return DiagnosticProblem(model=model, observations=stream,
                                 sigma=sigma, threshold_mode=mode)


def enumerated(problem: DiagnosticProblem) -> list[Diagnosis]:
    """``enumerate_evolutions`` on the problem's trellis, decoded."""
    return decode(problem.model,
                  enumerate_evolutions(problem, build_trellis(problem)))


def ranked(model: SystemModel, trajectories) -> list[Diagnosis]:
    """``rank_evolutions`` on the trajectories, decoded."""
    return decode(model, rank_evolutions(model, trajectories))


def _trajectory_set(diagnoses: list[Diagnosis]) -> dict:
    return {d.trajectory: d.joint_probability for d in diagnoses}


def _enumerate_or_empty(problem: DiagnosticProblem) -> dict:
    try:
        return _trajectory_set(enumerated(problem))
    except NoAdmissibleEvolutionError:
        return {}


def check_trellis_vs_bruteforce(cases: int, seed: int = 2028) -> None:
    """Trellis enumeration equals the brute-force filter over all candidate
    combinations, with matching joint probabilities."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        problem = _random_problem(rng)
        entries = problem.observations.entries
        modes = [solve_atemporal(problem.model, entry, problem.criterion)
                 for entry in entries]
        layers = [assignments(problem.model, entry.t, m)
                  for entry, m in zip(entries, modes)]
        initials = resolve_initial_distributions(
            problem.model, entries[0].t, modes[0])

        expected = {}
        for combo in itertools.product(*layers):
            if all(admissible_step(a, b, problem)
                   for a, b in zip(combo, combo[1:])):
                expected[tuple(combo)] = joint_probability(
                    combo, initials, problem.model)

        actual = _enumerate_or_empty(problem)
        assert set(actual) == set(expected)
        for trajectory, joint in expected.items():
            assert abs(actual[trajectory] - joint) <= 1e-12


def check_forward_paths_vs_bruteforce(cases: int, seed: int = 2033) -> None:
    """At every layer, the forward pass's index paths and joints equal
    (``==``) a brute-force expansion over the per-edge ``admissible_step``
    and ``joint_probability``, in lexicographic path order; both threshold
    modes, sigma 0 and above, layers that empty out included."""
    rng = np.random.default_rng(seed)
    seen, emptied, branched = set(), False, False
    for _ in range(cases):
        problem = _random_problem(rng)
        trellis = build_trellis(problem)
        layers = [assignments(problem.model, t, m)
                  for t, m in zip(trellis.instants, trellis.modes)]
        for k, (paths, joints) in enumerate(forward_paths(trellis)):
            expected = [
                indices for indices in itertools.product(
                    *(range(len(layer)) for layer in layers[:k + 1]))
                if all(admissible_step(layers[j][a], layers[j + 1][b],
                                       problem)
                       for j, (a, b) in enumerate(zip(indices, indices[1:])))]
            assert paths.shape == (len(expected), k + 1)
            assert paths.tolist() == [list(indices) for indices in expected]
            assert joints.tolist() == [
                joint_probability([layers[j][i] for j, i in enumerate(indices)],
                                  trellis.initials, problem.model)
                for indices in expected]
            emptied |= k > 0 and not expected
            branched |= len(expected) > 1
        seen.add((problem.threshold_mode, problem.sigma > 0))
    assert seen == {(mode, positive) for mode in ThresholdMode
                    for positive in (False, True)}
    assert emptied and branched


def _ragged_layers(rng: np.random.Generator, model: SystemModel,
                   count: int) -> list[np.ndarray]:
    """``count`` layers of 1 to 5 distinct random candidates each (fewer
    when the assignment space is smaller), as mode-index arrays."""
    sizes = [len(c.modes) for c in model.components]
    space = int(np.prod(sizes))
    layers = []
    for _ in range(count):
        picked = rng.choice(space, size=min(space, int(rng.integers(1, 6))),
                            replace=False)
        layers.append(np.stack(np.unravel_index(picked, sizes), axis=1))
    return layers


def check_gathered_trellis(cases: int, seed: int = 2036) -> None:
    """``trellis_from_layers`` on random ragged layers equals the per-edge
    definitions bit for bit: priors, factors, conditionals and masks, in
    both threshold modes, over streams of one instant, one step, and many
    steps with repeated gaps. A stream with a step that does not advance
    time raises the definitions' error for its first such step."""
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(cases):
        model = random_model(rng, max_components=3, max_modes=4, max_rules=0)
        count = int(rng.choice([1, 2, 2, 3, 4, 6]))
        layers = _ragged_layers(rng, model, count)
        gaps = rng.choice([1, 2, 5] if rng.random() < 0.5 else [1, 3],
                          size=count - 1).tolist()
        if count > 2 and rng.random() < 0.15:
            # one or two steps that do not advance; the first is named
            gaps[int(rng.integers(1, count - 1))] = int(rng.integers(-2, 1))
            gaps[-1] = min(gaps[-1], int(rng.integers(-1, 2)))
        instants = np.cumsum([int(rng.integers(0, 4)), *gaps]).tolist()
        initials = {c.id: rng.dirichlet(np.ones(len(c.modes)))
                    for c in model.components}
        problem = DiagnosticProblem(
            model, ObservationStream(()),
            sigma=0.0 if rng.random() < 0.2 else float(rng.random()) * 0.3,
            threshold_mode=(ThresholdMode.GLOBAL, ThresholdMode.PER_COMPONENT)[
                int(rng.integers(2))])
        assigned = [assignments(model, t, m) for t, m in zip(instants, layers)]
        try:
            trellis = trellis_from_layers(model, instants, layers, initials,
                                          problem.sigma, problem.threshold_mode)
        except NonIncreasingInstantsError as exc:
            k = next(k for k, n in enumerate(gaps) if n <= 0)
            try:
                step_factors(assigned[k][0], assigned[k + 1][0], model)
            except NonIncreasingInstantsError as expected:
                assert str(exc) == str(expected)
            seen.add("non-advancing")
            continue
        assert trellis.priors.tolist() == [
            prior_probability(w, initials, model) for w in assigned[0]]
        for k, (prev, nxt) in enumerate(zip(assigned, assigned[1:])):
            assert trellis.conditionals[k].shape == (len(prev), len(nxt))
            for i, a in enumerate(prev):
                for j, b in enumerate(nxt):
                    factors = step_factors(a, b, model)
                    assert trellis.factors[k][i, j].tolist() == [
                        factors[c.id] for c in model.components]
                    assert trellis.conditionals[k][i, j] == \
                        conditional_probability(a, b, model)
                    assert trellis.admissible[k][i, j] == \
                        admissible_step(a, b, problem)
                    seen.add(("admissible", bool(trellis.admissible[k][i, j])))
        seen.update(("size", len(layer)) for layer in layers)
        seen.add(("steps", min(count - 1, 2)))
        seen.add(("repeated gap", len(set(gaps)) < len(gaps)))
        seen.add(problem.threshold_mode)
    assert seen >= {("size", 1), ("size", 5), ("steps", 0), ("steps", 1),
                    ("steps", 2), ("repeated gap", True),
                    ("admissible", True), ("admissible", False),
                    ThresholdMode.GLOBAL, ThresholdMode.PER_COMPONENT,
                    "non-advancing"}


def check_threshold_monotonicity(cases: int, seed: int = 2029) -> None:
    """Raising sigma never adds an admissible evolution."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        problem = _random_problem(rng, sigma=float(rng.random() * 0.3))
        higher = DiagnosticProblem(
            model=problem.model, observations=problem.observations,
            sigma=min(1.0, problem.sigma + float(rng.random() * 0.4)),
            threshold_mode=problem.threshold_mode,
            criterion=problem.criterion)
        low = _enumerate_or_empty(problem)
        high = _enumerate_or_empty(higher)
        assert set(high) <= set(low)


def check_factor_threshold_relation(cases: int, seed: int = 2030) -> None:
    """If every per-component factor meets sigma, the global conditional
    meets sigma**n_components."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        model = random_model(rng, max_components=3, max_modes=3, max_rules=0)
        sigma = float(rng.random())
        w0 = random_assignment(rng, model, 0)
        w1 = random_assignment(rng, model, int(rng.integers(1, 5)))
        per_component = DiagnosticProblem(
            model=model, observations=ObservationStream(()), sigma=sigma,
            threshold_mode=ThresholdMode.PER_COMPONENT)
        if admissible_step(w0, w1, per_component):
            bound = sigma ** len(model.components)
            glob = DiagnosticProblem(
                model=model, observations=ObservationStream(()), sigma=bound,
                threshold_mode=ThresholdMode.GLOBAL)
            assert admissible_step(w0, w1, glob)


# --- revision suites ------------------------------------------------------------

def check_revision_ranking_and_zeros(cases: int, seed: int = 2031) -> None:
    """Revision rescales by one positive factor: the descending order of
    revised joints equals that of the raw joints, zeros map to zeros, and
    the revised joints sum to 1.

    ``revise_trellis`` revises a two-instant trellis of one single-mode
    component that carries the random numbers: the edges from a start of
    prior 1 carry the joints, those from a start of prior 0 the
    conditionals, so the second instant's paths have the random joints
    followed by zeros."""
    rng = np.random.default_rng(seed)
    model = SystemModel((ComponentSpec(
        id="c", modes=("m",), correct_mode="m",
        matrix=[[1.0]]),), ())
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        joints = rng.random(n)
        joints[rng.random(n) < 0.4] = 0.0
        if joints.sum() == 0.0:
            joints[rng.integers(n)] = float(rng.random()) + 0.01
        conditionals = rng.random(n)
        steps = np.stack((joints, conditionals))
        _, second = revise_trellis(Trellis(
            instants=(0, 1), modes=(np.zeros((2, 1), int),
                                    np.zeros((n, 1), int)),
            initials={"c": np.array([1.0])},
            priors=np.array([1.0, 0.0]), factors=(steps[..., None],),
            conditionals=(steps,), admissible=(np.ones((2, n), bool),)),
            model)
        assert second.joints.tolist() == [*joints.tolist(), *[0.0] * n]
        revised_joints = second.revised_joints[:n]
        revised_conditionals = second.revised_conditionals[n:]

        assert abs(sum(revised_joints) - 1.0) <= 1e-12
        assert list(np.argsort(-joints, kind="stable")) == \
            list(np.argsort(-np.array(revised_joints), kind="stable"))
        for raw, revised in zip(joints, revised_joints):
            assert (raw == 0.0) == (revised == 0.0)
        for raw, revised in zip(conditionals, revised_conditionals):
            assert (raw == 0.0) == (revised == 0.0)


def _renamed_modes(rng: np.random.Generator, model: SystemModel,
                   ) -> SystemModel:
    """``model`` with every component's modes renamed from a shuffled pool,
    so that declared mode order is seldom name order."""
    rename, components = {}, []
    for c in model.components:
        names = tuple(str(x) for x in rng.permutation(list("qwertyuiop"))[
            :len(c.modes)])
        rename.update(((c.id, old), new) for old, new in zip(c.modes, names))
        components.append(ComponentSpec(
            id=c.id, modes=names, correct_mode=rename[c.id, c.correct_mode],
            matrix=c.matrix))
    rules = tuple(HornRule(body={(cid, rename[cid, m]) for cid, m in r.body},
                           head=r.head) for r in model.rules)
    return validate_model(SystemModel(tuple(components), rules,
                                      model.exclusive))


def _revision_problem(rng: np.random.Generator) -> DiagnosticProblem:
    """A random problem of 1-5 instants with gaps of 1 to 5, layers of up
    to 12 candidates and at most 400 whole paths, renamed modes, either
    criterion and either threshold mode."""
    while True:
        model = _renamed_modes(rng, random_model(
            rng, max_components=3, max_modes=4, max_rules=6))
        t = int(rng.integers(0, 3))
        entries = []
        for _ in range(int(rng.integers(1, 6))):
            entries.append(observation_from_assignment(
                rng, model, random_assignment(rng, model, t)))
            t += int(rng.integers(1, 6))
        criterion = (ExplanationCriterion.ABDUCTIVE if rng.random() < 0.5
                     else ExplanationCriterion.CONSISTENCY_BASED)
        sizes = [len(solve_atemporal(model, entry, criterion))
                 for entry in entries]
        if not 0 < max(sizes) <= 12 or min(sizes) == 0 or \
                np.prod(sizes) > 400:
            continue
        return DiagnosticProblem(
            model=model, observations=ObservationStream(tuple(entries)),
            sigma=0.0 if rng.random() < 0.4 else float(rng.random()) * 0.2,
            threshold_mode=(ThresholdMode.GLOBAL if rng.random() < 0.5
                            else ThresholdMode.PER_COMPONENT),
            criterion=criterion)


def _revision_by_definitions(problem: DiagnosticProblem, trellis):
    """Per instant: (t, paths, joints, factor, revised joints, revised
    conditionals, per-component fields), from the definitions applied to
    the layer's admissible paths and the admissible edges into it."""
    model = problem.model
    layers = [assignments(model, t, m)
              for t, m in zip(trellis.instants, trellis.modes)]
    expected = []
    for k, (paths, joints) in enumerate(forward_paths(trellis)):
        t, joints = trellis.instants[k], joints.tolist()
        edges = [] if k == 0 else [
            (i, j, a, b) for i, a in enumerate(layers[k - 1])
            for j, b in enumerate(layers[k]) if admissible_step(a, b, problem)]
        factors = [step_factors(a, b, model) for *_, a, b in edges]
        conditionals = [conditional_probability(a, b, model)
                        for *_, a, b in edges]
        revised_joints, revised = revise_global(joints, conditionals)
        components = {}
        for c in model.components:
            pi_t = propagate_distribution(trellis.initials[c.id], c.matrix, t)
            admitted = {w.as_dict()[c.id] for w in layers[k]}
            f = component_mass_factor(c.modes, pi_t, admitted)
            steps = {(a.as_dict()[c.id], b.as_dict()[c.id], step[c.id])
                     for (*_, a, b), step in zip(edges, factors)}
            components[c.id] = (
                pi_t.tolist(), tuple(sorted(admitted)), f,
                posterior_component_distribution(c.modes, pi_t,
                                                 admitted).tolist(),
                tuple(sorted((a, b, p, revise_transition(p, f))
                             for a, b, p in steps)))
        expected.append((
            t, paths.tolist(), tuple(joints), normalization_factor(joints),
            revised_joints, tuple((i, j, p, r) for (i, j, *_), p, r in zip(
                edges, conditionals, revised)),
            components))
    return expected


def check_revision_matches_definitions(cases: int, seed: int = 2034) -> None:
    """At every instant, ``revise_trellis`` equals (``==``, bit for bit) the
    revision definitions applied to that layer's admissible paths and
    edges: the factor, revised joints and revised conditionals, and per
    component the propagated distribution, admitted modes, mass factor,
    posterior and revised transitions; or both raise the same error. Modes
    are renamed so declared order differs from name order."""
    rng = np.random.default_rng(seed)
    seen, gaps, revised, summed = set(), set(), 0, False
    for _ in range(cases):
        problem = _revision_problem(rng)
        model = problem.model
        trellis = build_trellis(problem)
        try:
            expected = _revision_by_definitions(problem, trellis)
        except (AllZeroJointsError, ZeroAdmittedMassError) as exc:
            expected = exc
        try:
            actual = revise_trellis(trellis, model)
        except (AllZeroJointsError, ZeroAdmittedMassError) as exc:
            assert (type(exc), str(exc)) == (type(expected), str(expected))
            continue
        assert isinstance(expected, list) and len(actual) == len(expected)
        for rev, (t, paths, joints, factor, revised_joints,
                  revised_conditionals, components) in zip(actual, expected):
            assert (rev.t, rev.path_indices.tolist(), rev.joints.tolist()) == (
                t, paths, list(joints))
            assert rev.factor == factor
            assert tuple(rev.revised_joints.tolist()) == revised_joints
            assert tuple(zip(rev.sources.tolist(), rev.targets.tolist(),
                             rev.conditionals.tolist(),
                             rev.revised_conditionals.tolist())
                         ) == revised_conditionals
            assert list(rev.components) == [c.id for c in model.components]
            for c in model.components:
                cr = rev.components[c.id]
                admitted, transitions = named_revision(c, cr)
                assert (cr.distribution.tolist(), admitted, cr.factor,
                        cr.posterior.tolist(),
                        transitions) == components[c.id]
                # index arrays in the documented order
                assert cr.admitted.tolist() == sorted(cr.admitted.tolist())
                assert cr.transitions.tolist() == sorted(
                    cr.transitions.tolist())
                summed |= len(admitted) > 2 and list(admitted) != [
                    m for m in c.modes if m in admitted]
        revised += 1
        seen.add((problem.threshold_mode, problem.criterion))
        gaps.update(np.diff(trellis.instants).tolist())
    assert len(seen) == 4 and gaps == {1, 2, 3, 4, 5}
    assert summed and revised >= cases // 2


def check_rank_matches_diagnose(cases: int, seed: int = 2035) -> None:
    """``rank_evolutions``, given the trajectories of
    ``enumerate_evolutions`` in shuffled order, returns them in the
    diagnoses' order with equal (``==``) priors, joints and step
    conditionals, and that order is descending joint with ties broken by
    mode name in component-id order. Problems whose first instant is 0 are
    skipped: there diagnose induces the initial distributions and rank does
    not. Modes are renamed, so names and declared indices order ties
    differently.

    On every problem, ranking a shuffled mix of those trajectories, their
    prefixes, their suffixes (starting at a later instant), exact
    duplicates and random trajectories (mostly of joint 0) equals Python's
    stable ``sorted`` of the mix, each trajectory scored on its own, by
    (-joint, trajectory)."""
    def by_name(d):
        return [(w.t, sorted(w.as_dict().items())) for w in d.trajectory]

    def by_index(d, model):
        return [(w.t, [c.modes.index(w.as_dict()[c.id])
                       for c in model.components]) for w in d.trajectory]

    rng = np.random.default_rng(seed)
    compared, tied, names_not_rows = 0, 0, 0
    mixed = {"prefix": 0, "zero": 0, "duplicate": 0}
    for _ in range(cases):
        problem = _revision_problem(rng)
        model = problem.model
        try:
            diagnoses = enumerated(problem)
        except NoAdmissibleEvolutionError:
            continue
        mixed_order = _check_mixed_rank(rng, model, diagnoses)
        for key in mixed:
            mixed[key] += mixed_order[key]
        if problem.observations.entries[0].t == 0:
            continue
        rows = ranked(model, [
            diagnoses[i].trajectory for i in rng.permutation(len(diagnoses))])
        assert [(d.trajectory, d.prior, d.joint_probability,
                 d.step_conditionals) for d in rows] == [
            (d.trajectory, d.prior, d.joint_probability, d.step_conditionals)
            for d in diagnoses]
        for a, b in zip(rows, rows[1:]):
            assert a.joint_probability >= b.joint_probability
            if a.joint_probability == b.joint_probability:
                assert by_name(a) < by_name(b)
                tied += 1
                names_not_rows += by_index(a, model) > by_index(b, model)
        compared += 1
    assert compared >= cases // 2 and tied >= cases // 2
    assert names_not_rows >= cases // 4
    assert min(mixed.values()) >= cases // 2


def _check_mixed_rank(rng: np.random.Generator, model: SystemModel,
                      diagnoses: list[Diagnosis]) -> dict:
    """Rank a shuffled mix built from ``diagnoses`` and check it against
    ``sorted``; count the adjacent ranked pairs where a prefix comes just
    before its extension, joints of 0 and exact duplicates."""
    full = [d.trajectory for d in diagnoses[:4]]
    mix = list(full)
    for trajectory in full:
        k = int(rng.integers(1, len(trajectory) + 1))
        mix += [trajectory[:k], trajectory[-k:]]
    mix += [full[int(i)] for i in rng.integers(len(full), size=2)]
    for _ in range(2):
        t, trajectory = int(rng.integers(0, 3)), []
        for _ in range(int(rng.integers(1, 5))):
            trajectory.append(random_assignment(rng, model, t))
            t += int(rng.integers(1, 4))
        mix.append(tuple(trajectory))
    mix = [mix[i] for i in rng.permutation(len(mix))]

    scored = [ranked(model, [trajectory])[0] for trajectory in mix]
    rows = ranked(model, mix)
    assert rows == sorted(
        scored, key=lambda d: (-d.joint_probability, d.trajectory))
    pairs = list(zip(rows, rows[1:]))
    return {
        "prefix": sum(a.trajectory == b.trajectory[:len(a.trajectory)]
                      and a.trajectory != b.trajectory for a, b in pairs),
        "zero": sum(d.joint_probability == 0.0 for d in rows),
        "duplicate": sum(a.trajectory == b.trajectory for a, b in pairs)}


# --- classification suite ---------------------------------------------------------

def check_classification_partition(cases: int, seed: int = 2032) -> None:
    """Every mode gets exactly one label and the ergodic/transient sets
    partition the mode set."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        m = random_stochastic(rng, int(rng.integers(1, 7)))
        modes = mode_names(len(m))
        classification = classify_states(modes, m)
        assert set(classification.labels) == set(modes)
        covered = [mode
                   for group in (classification.ergodic_sets +
                                 classification.transient_sets)
                   for mode in group]
        assert sorted(covered) == sorted(modes)


def random_structured_chain(rng: np.random.Generator,
                            ) -> tuple[tuple[str, ...], np.ndarray]:
    """Chain of 1-7 modes built from groups: closed periodic cycles, closed
    sparse blocks, absorbing modes and leaky (transient) groups, with rows,
    columns and names shuffled so matrix order is neither group order nor
    name order. Every tenth chain is a plain sparse random matrix. Some
    self-loops of 1 are lowered by 1e-13 or 5e-10. Returns the mode names
    and the matrix."""
    n = int(rng.integers(1, 8))
    names = [str(x) for x in rng.permutation(list("qwertyuiopasd"))[:n]]
    if rng.random() < 0.1:
        entries = random_stochastic(rng, n).copy()
    else:
        entries = np.zeros((n, n))
        order = rng.permutation(n)
        cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)),
                                 replace=False)) if n > 1 else []
        for group in np.split(order, cuts):
            kind = rng.integers(4)
            if kind == 0:  # closed cycle through the group (period = size)
                entries[group, np.roll(group, 1)] = 1.0
            elif kind == 1:  # closed block: sparse entries inside the group
                block = rng.random((group.size, group.size))
                block[rng.random(block.shape) < 0.5] = 0.0
                entries[np.ix_(group, group)] = block
            elif kind == 2:  # absorbing modes
                entries[group, group] = 1.0
            else:  # leaky: sparse entries anywhere
                rows = rng.random((group.size, n))
                rows[rng.random(rows.shape) < 0.6] = 0.0
                entries[group] = rows
        for i in range(n):
            if entries[i].sum() == 0.0:
                entries[i, rng.integers(n)] = 1.0
        entries /= entries.sum(axis=1, keepdims=True)
    # self-loops short of 1 by less than the row-sum tolerance: absorbing
    # only within ABSORBING_TOL
    for i in np.flatnonzero(np.diag(entries) == 1.0):
        entries[i, i] -= rng.choice([0.0, 1e-13, 5e-10])
    names = tuple(names)
    return names, validate_matrix(names, entries)


def _bfs_reachable(successors: list[list[int]], start: int) -> set[int]:
    """Modes reachable from ``start`` in zero or more steps."""
    seen = {start}
    queue = [start]
    for i in queue:
        for j in successors[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return seen


def check_classification_matches_reachability(cases: int,
                                              seed: int = 2033) -> None:
    """classify_states and classify_faults agree exactly with a breadth-first
    search over the positive entries: labels, both set lists (members and
    order) and every fault flag for each choice of correct mode."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        modes, m = random_structured_chain(rng)
        rows = m.tolist()
        n = len(rows)
        successors = [[j for j in range(n) if rows[i][j] > 0.0]
                      for i in range(n)]
        reach = [_bfs_reachable(successors, i) for i in range(n)]
        classes = sorted({frozenset(j for j in reach[i] if i in reach[j])
                          for i in range(n)}, key=min)
        expected_labels = {}
        ergodic, transient = [], []
        for cls in classes:
            members = tuple(modes[j] for j in sorted(cls))
            if all(j in cls for i in cls for j in successors[i]):
                ergodic.append(members)
                (i, *rest) = cls
                absorbing = not rest and abs(rows[i][i] - 1.0) <= ABSORBING_TOL
                label = StateLabel.ABSORBING if absorbing else StateLabel.ERGODIC
            else:
                transient.append(members)
                label = StateLabel.TRANSIENT
            expected_labels.update((mode, label) for mode in members)

        states = classify_states(modes, m)
        assert states.labels == expected_labels
        assert states.ergodic_sets == tuple(ergodic)
        assert states.transient_sets == tuple(transient)
        for c, correct in enumerate(modes):
            classification = classify_faults(ComponentSpec(
                id="x", modes=modes, correct_mode=correct, matrix=m))
            assert classification.states == states
            faults = classification.faults
            assert set(faults) == set(modes) - {correct}
            for i, mode in enumerate(modes):
                if i == c:
                    continue
                label = expected_labels[mode]
                assert faults[mode].permanent == (label is StateLabel.ABSORBING)
                assert faults[mode].transient == (label is StateLabel.TRANSIENT)
                # one or more steps: through some successor of the mode
                assert faults[mode].reversible == any(
                    c in reach[s] for s in successors[i])
