"""Shared fixtures: the hydraulic pump/container system and its chains."""

from pathlib import Path

import numpy as np
import pytest

from tempdiag import (
    ComponentSpec,
    DiagnosticProblem,
    HornRule,
    SystemModel,
    validate_model,
    validate_stream,
)
from tempdiag.modelio import load_model, load_stream

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class WriteRecorder:
    """A text stream that keeps every write it is given, one by one."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        assert isinstance(text, str)
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.writes)

PUMP_MODES = ("broken", "occluded", "leaking", "partially_occluded", "correct")
PUMP_MATRIX = [
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [1 / 5, 0, 4 / 5, 0, 0],
    [0, 2 / 5, 0, 3 / 5, 0],
    [1 / 50, 0, 1 / 25, 1 / 25, 9 / 10],
]

CONTAINER_MODES = ("punctured", "leaking", "correct")
CONTAINER_MATRIX = [
    [1, 0, 0],
    [3 / 10, 7 / 10, 0],
    [0, 1 / 10, 9 / 10],
]


@pytest.fixture
def pump() -> ComponentSpec:
    return ComponentSpec(
        id="P", modes=PUMP_MODES, correct_mode="correct",
        matrix=PUMP_MATRIX)


@pytest.fixture
def container() -> ComponentSpec:
    return ComponentSpec(
        id="C", modes=CONTAINER_MODES, correct_mode="correct",
        matrix=CONTAINER_MATRIX)


def hydraulic_rules() -> tuple[HornRule, ...]:
    return (
        HornRule(body={("P", "correct")}, head="flow_out(P)"),
        HornRule(body={("P", "occluded")}, head="no_flow_out(P)"),
        HornRule(body={("P", "broken")}, head="no_flow_out(P)"),
        HornRule(body={("P", "partially_occluded")}, head="reduced_flow(P)"),
        HornRule(body={("P", "leaking")}, head="wet_pump_housing"),
        HornRule(body={("C", "punctured")}, head="water_loss(C)"),
        HornRule(body={("C", "leaking")}, head="water_loss(C)"),
        HornRule(body={("P", "correct"), ("C", "correct")},
                 head="level_normal(C)"),
    )


@pytest.fixture
def hydraulic(pump, container) -> SystemModel:
    model = SystemModel(
        components=(pump, container),
        rules=hydraulic_rules(),
        exclusive=({"flow_out(P)", "no_flow_out(P)"},))
    return validate_model(model)


@pytest.fixture
def uniform_initials(hydraulic):
    return {
        c.id: np.full(len(c.modes), 1 / len(c.modes))
        for c in hydraulic.components
    }


def load_scenario(name: str, sigma: float = 0.0, **kwargs) -> DiagnosticProblem:
    model = validate_model(load_model(SCENARIOS / f"{name}_model.json"))
    stream = validate_stream(load_stream(SCENARIOS / f"{name}_obs.json"), model)
    return DiagnosticProblem(model=model, observations=stream, sigma=sigma,
                             **kwargs)


@pytest.fixture
def occlusion_problem() -> DiagnosticProblem:
    """Three healthy-or-clogging pump hypotheses at t=0 narrowing to a
    fully occluded pump at t=1."""
    return load_scenario("occlusion_onset")


@pytest.fixture
def sudden_stop_problem() -> DiagnosticProblem:
    """Healthy system at t=0; stopped delivery at t=1 with three competing
    explanations, filtered at sigma = 1/100."""
    return load_scenario("sudden_stop", sigma=1 / 100)
