"""Temporal diagnosis of component-based systems.

Components carry a discrete set of behavioral modes (one correct, the rest
faulty) evolving as a discrete-time Markov chain; an atemporal Horn-rule
model links modes to observable manifestations. The engine solves the
diagnosis problem at every observed instant, filters mode evolutions by
their transition probability, ranks them jointly, and can revise the
stochastic predictions against the logically admitted hypotheses.
"""

import importlib

__version__ = "0.1.0"

#: Each public name by the module that defines it. ``import tempdiag``
#: imports none of them, and so no numpy, until one is first read.
_MODULES = {
    "ComponentSpec": "model",
    "ComponentStream": "revision",
    "DiagnosisError": "errors",
    "DiagnosticProblem": "temporal",
    "Evolutions": "temporal",
    "ExplanationCriterion": "atemporal",
    "FaultClass": "markov",
    "FaultClassification": "markov",
    "HornRule": "model",
    "InstantRevision": "revision",
    "ModeAssignment": "atemporal",
    "Observation": "model",
    "ObservationStream": "model",
    "SampledTrajectory": "simulate",
    "StateClassification": "markov",
    "StateLabel": "markov",
    "StreamRevision": "revision",
    "SystemModel": "model",
    "ThresholdMode": "temporal",
    "Trellis": "temporal",
    "ValidationError": "errors",
    "build_trellis": "temporal",
    "classify_faults": "markov",
    "enumerate_evolutions": "temporal",
    "forward_paths": "temporal",
    "generate_observation_stream": "simulate",
    "predicted_manifestations": "atemporal",
    "rank_evolutions": "temporal",
    "resolve_initial_distributions": "temporal",
    "revise_trellis": "revision",
    "sample_trajectory": "simulate",
    "solve_atemporal": "atemporal",
    "validate_distribution": "markov",
    "validate_matrix": "markov",
    "validate_model": "model",
    "validate_stream": "model",
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    """A public name, imported from its module when first read (PEP 562)
    and kept as the package's attribute from then on."""
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULES[name]}"),
                    name)
    globals()[name] = value
    return value
