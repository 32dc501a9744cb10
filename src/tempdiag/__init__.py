"""Temporal diagnosis of component-based systems.

Components carry a discrete set of behavioral modes (one correct, the rest
faulty) evolving as a discrete-time Markov chain; an atemporal Horn-rule
model links modes to observable manifestations. The engine solves the
diagnosis problem at every observed instant, filters mode evolutions by
their transition probability, ranks them jointly, and can revise the
stochastic predictions against the logically admitted hypotheses.
"""

__version__ = "0.1.0"

from .atemporal import (
    ExplanationCriterion,
    ModeAssignment,
    predicted_manifestations,
    solve_atemporal,
)
from .errors import DiagnosisError, ValidationError
from .markov import (
    FaultClass,
    FaultClassification,
    StateClassification,
    StateLabel,
    classify_faults,
    validate_distribution,
    validate_matrix,
)
from .model import (
    ComponentSpec,
    HornRule,
    Observation,
    ObservationStream,
    SystemModel,
    validate_model,
    validate_stream,
)
from .revision import (
    ComponentRevision,
    ComponentStream,
    InstantRevision,
    StreamRevision,
    normalization_factor,
    revise_trellis,
)
from .simulate import (
    SampledTrajectory,
    generate_observation_stream,
    sample_trajectory,
)
from .temporal import (
    DiagnosticProblem,
    Evolutions,
    ThresholdMode,
    Trellis,
    build_trellis,
    enumerate_evolutions,
    induce_initial_distributions,
    rank_evolutions,
    relevant_instants,
    resolve_initial_distributions,
)

__all__ = [
    "ComponentRevision",
    "ComponentSpec",
    "ComponentStream",
    "DiagnosisError",
    "DiagnosticProblem",
    "Evolutions",
    "ExplanationCriterion",
    "FaultClass",
    "FaultClassification",
    "HornRule",
    "InstantRevision",
    "ModeAssignment",
    "Observation",
    "ObservationStream",
    "SampledTrajectory",
    "StateClassification",
    "StateLabel",
    "StreamRevision",
    "SystemModel",
    "ThresholdMode",
    "Trellis",
    "ValidationError",
    "build_trellis",
    "classify_faults",
    "enumerate_evolutions",
    "generate_observation_stream",
    "induce_initial_distributions",
    "normalization_factor",
    "predicted_manifestations",
    "rank_evolutions",
    "relevant_instants",
    "resolve_initial_distributions",
    "revise_trellis",
    "sample_trajectory",
    "solve_atemporal",
    "validate_distribution",
    "validate_matrix",
    "validate_model",
    "validate_stream",
]
