"""Model and observation-stream validation."""

import pytest

from tempdiag import (
    ComponentSpec,
    HornRule,
    Observation,
    ObservationStream,
    SystemModel,
    validate_model,
    validate_stream,
)
from tempdiag.errors import (
    CorrectModeMissingError,
    DimensionMismatchError,
    DuplicateComponentError,
    NotSquareError,
    RowSumError,
    UnknownManifestationError,
    UnknownModeAtomError,
    ValidationError,
)

from conftest import hydraulic_rules


def test_hydraulic_fixture_validates(hydraulic):
    assert validate_model(hydraulic) is hydraulic
    assert len(hydraulic.components) == 2
    assert hydraulic.manifestations == {
        "flow_out(P)", "no_flow_out(P)", "reduced_flow(P)",
        "wet_pump_housing", "water_loss(C)", "level_normal(C)",
    }


def test_unknown_mode_atom_rejected(pump, container):
    rules = hydraulic_rules() + (
        HornRule(body={("P", "melted")}, head="smoke"),)
    model = SystemModel((pump, container), rules)
    with pytest.raises(UnknownModeAtomError) as exc:
        validate_model(model)
    assert exc.value.element == ("P", "melted")


def test_duplicate_component_rejected(pump):
    model = SystemModel((pump, pump), ())
    with pytest.raises(DuplicateComponentError):
        validate_model(model)


def test_missing_correct_mode_rejected(container):
    bad = ComponentSpec(id="C", modes=container.modes, correct_mode="intact",
                        matrix=container.matrix)
    with pytest.raises(CorrectModeMissingError):
        validate_model(SystemModel((bad,), ()))


def test_matrix_validation_delegated(container):
    bad = ComponentSpec(
        id="X", modes=("a", "b"), correct_mode="a",
        matrix=[[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(RowSumError):
        validate_model(SystemModel((bad,), ()))


def test_matrix_shape_mismatch_rejected(container):
    bad = ComponentSpec(
        id="X", modes=("a", "b"), correct_mode="a", matrix=container.matrix)
    with pytest.raises(NotSquareError):
        validate_model(SystemModel((bad,), ()))


def test_initial_distribution_checked(container):
    for initial, error in (([0.5, 0.5, 0.5], ValidationError),
                           ([0.5, 0.5], DimensionMismatchError)):
        bad = ComponentSpec(
            id="C", modes=container.modes, correct_mode="correct",
            matrix=container.matrix, initial_distribution=initial)
        with pytest.raises(error):
            validate_model(SystemModel((bad,), ()))


def test_component_repeated_in_body_rejected(pump, container):
    rules = (HornRule(body={("P", "correct"), ("P", "broken")}, head="x"),)
    with pytest.raises(ValidationError):
        validate_model(SystemModel((pump, container), rules))


def test_exclusive_pair_must_reference_heads(pump, container):
    model = SystemModel((pump, container), hydraulic_rules(),
                        exclusive=({"flow_out(P)", "made_up"},))
    with pytest.raises(UnknownManifestationError):
        validate_model(model)


class TestValidateStream:
    def test_accepts_ordered_entries(self, hydraulic):
        stream = ObservationStream((
            Observation(0, {"flow_out(P)"}, set()),
            Observation(3, {"no_flow_out(P)"}, {"water_loss(C)"}),
        ))
        assert validate_stream(stream, hydraulic) is stream

    def test_rejects_non_increasing_times(self, hydraulic):
        stream = ObservationStream((
            Observation(2, {"flow_out(P)"}, set()),
            Observation(2, {"flow_out(P)"}, set()),
        ))
        with pytest.raises(ValidationError):
            validate_stream(stream, hydraulic)

    def test_rejects_negative_time(self, hydraulic):
        stream = ObservationStream((Observation(-1, {"flow_out(P)"}, set()),))
        with pytest.raises(ValidationError):
            validate_stream(stream, hydraulic)

    def test_rejects_present_absent_overlap(self, hydraulic):
        stream = ObservationStream((
            Observation(0, {"flow_out(P)"}, {"flow_out(P)"}),))
        with pytest.raises(ValidationError):
            validate_stream(stream, hydraulic)

    def test_rejects_unknown_atom(self, hydraulic):
        stream = ObservationStream((Observation(0, {"sparks"}, set()),))
        with pytest.raises(UnknownManifestationError) as exc:
            validate_stream(stream, hydraulic)
        assert exc.value.element == "sparks"
