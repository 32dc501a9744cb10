"""The public records: constructors, normalisation, immutability, equality.

Every record is a ``typing.NamedTuple``, constructed by position or by
keyword with its declared field order and defaults. Six normalise their
fields, in the constructor and in ``_replace``; three compare by identity,
the rest by value. ``StreamRevision``, a sequence of instants rather than a
tuple of fields, is tested with revision.
"""

import numpy as np
import pytest

from tempdiag import (
    ComponentSpec,
    ComponentStream,
    DiagnosticProblem,
    Evolutions,
    ExplanationCriterion,
    FaultClass,
    FaultClassification,
    HornRule,
    InstantRevision,
    ModeAssignment,
    Observation,
    ObservationStream,
    SampledTrajectory,
    StateClassification,
    StateLabel,
    SystemModel,
    ThresholdMode,
    Trellis,
)
from tempdiag.atemporal import DEFAULT_CANDIDATE_CAP


def _array(*values):
    return np.array(values, dtype=np.float64)


SPEC = ComponentSpec("P", ["ok", "bad"], "ok", [[0.9, 0.1], [0, 1]], [1, 0])
RULE = HornRule([["P", "bad"]], "alarm")
MODEL = SystemModel([SPEC], [RULE], [["alarm", "quiet"]])
OBSERVATION = Observation(1, ["alarm"], ["quiet"])
STREAM = ObservationStream([OBSERVATION])
STATES = StateClassification({"ok": StateLabel.TRANSIENT,
                              "bad": StateLabel.ABSORBING},
                             (("bad",),), (("ok",),))
FAULT = FaultClass(True, False, False)

#: Per record: its fields with a value each, in declared order, its
#: defaults, whether it compares by value (else by identity), and field
#: values its constructor normalises to the first ones.
RECORDS = [
    (ComponentSpec, {"id": "P", "modes": ("ok", "bad"), "correct_mode": "ok",
                     "matrix": SPEC.matrix,
                     "initial_distribution": SPEC.initial_distribution},
     {"initial_distribution": None}, False,
     {"modes": ["ok", "bad"], "matrix": [[0.9, 0.1], [0, 1]],
      "initial_distribution": [1, 0]}),
    (HornRule, {"body": frozenset({("P", "bad")}), "head": "alarm"}, {}, True,
     {"body": [["P", "bad"]]}),
    (SystemModel, {"components": (SPEC,), "rules": (RULE,),
                   "exclusive": (frozenset({"alarm", "quiet"}),)},
     {"exclusive": ()}, True,
     {"components": [SPEC], "rules": [RULE], "exclusive": [["quiet", "alarm"]]}),
    (Observation, {"t": 1, "present": frozenset({"alarm"}),
                   "absent": frozenset({"quiet"})}, {}, True,
     {"present": ["alarm"], "absent": ("quiet",)}),
    (ObservationStream, {"entries": (OBSERVATION,)}, {"entries": ()}, True,
     {"entries": [OBSERVATION]}),
    (ModeAssignment, {"t": 0, "modes": (("P", "bad"), ("Q", "ok"))}, {},
     True, {"modes": [["Q", "ok"], ["P", "bad"]]}),
    (StateClassification, {"labels": STATES.labels,
                           "ergodic_sets": (("bad",),),
                           "transient_sets": (("ok",),)}, {}, True, {}),
    (FaultClass, {"permanent": True, "transient": False, "reversible": False},
     {}, True, {}),
    (FaultClassification, {"faults": {"bad": FAULT}, "states": STATES}, {},
     True, {}),
    (DiagnosticProblem, {"model": MODEL, "observations": STREAM,
                         "sigma": 0.01,
                         "threshold_mode": ThresholdMode.PER_COMPONENT,
                         "criterion": ExplanationCriterion.CONSISTENCY_BASED,
                         "candidate_cap": 10},
     {"sigma": 0.0, "threshold_mode": ThresholdMode.GLOBAL,
      "criterion": ExplanationCriterion.ABDUCTIVE,
      "candidate_cap": DEFAULT_CANDIDATE_CAP}, True, {}),
    (Trellis, {"instants": (1,), "rows": np.array([[1]]),
               "starts": np.array([0, 1]),
               "initials": {"P": _array(0.0, 1.0)}, "priors": _array(1.0),
               "entries": (np.empty(0, np.uint8),), "powers": (_array(),),
               "conditionals": _array(),
               "admissible": np.array([], dtype=bool)}, {},
     False, {}),
    (Evolutions, {"times": (1,), "instants": np.array([[0]]),
                  "modes": np.array([[[1]]]), "priors": _array(1.0),
                  "steps": np.empty((1, 0)), "joints": _array(1.0)}, {},
     False, {}),
    (ComponentStream, {"distributions": _array(0.9, 0.1).reshape(1, 2),
                       "admitted": np.array([[0, 1]]),
                       "factors": _array(10.0),
                       "posteriors": _array(0.0, 1.0).reshape(1, 2),
                       "transitions": np.empty((0, 3), dtype=int),
                       "entries": _array(), "revised_entries": _array()},
     {}, True, {}),
    (InstantRevision, {"t": 1, "path_indices": np.array([[0]], np.int32)},
     {}, True, {}),
    (SampledTrajectory, {"seed": 3, "horizon": 2,
                         "modes": {"P": ("ok", "ok", "bad")}}, {}, True, {}),
]


def _same(record, fields: dict) -> bool:
    """The record holds these field values: of the same types and equal,
    arrays of the same dtype and write flag, element by element."""
    for name, b in fields.items():
        a = getattr(record, name)
        if isinstance(b, np.ndarray):
            if not (isinstance(a, np.ndarray) and a.dtype == b.dtype
                    and a.flags.writeable == b.flags.writeable
                    and np.array_equal(a, b)):
                return False
        elif type(a) is not type(b) or a != b:
            return False
    return True


@pytest.mark.parametrize("cls, fields, defaults, by_value, raw", RECORDS,
                         ids=[record[0].__name__ for record in RECORDS])
def test_record_semantics(cls, fields, defaults, by_value, raw):
    values = tuple(fields.values())
    assert cls._fields == tuple(fields)
    assert cls._field_defaults == defaults
    positional, keyword = cls(*values), cls(**fields)
    assert type(positional) is cls and type(keyword) is cls
    assert _same(positional, fields) and _same(keyword, fields)
    required = {name: value for name, value in fields.items()
                if name not in defaults}
    assert _same(cls(**required), defaults)

    # normalisation, in the constructor and in _replace
    assert _same(cls(**{**fields, **raw}), fields)
    assert _same(cls(**required)._replace(**raw),
                 {name: fields[name] for name in raw})

    with pytest.raises(AttributeError):
        setattr(positional, cls._fields[0], values[0])
    with pytest.raises(AttributeError):
        positional.extra = None

    if by_value:
        assert positional == keyword and not positional != keyword
        try:
            hash(values)
        except TypeError:  # a field holds an array or a dict
            with pytest.raises(TypeError):
                hash(positional)
        else:
            assert hash(positional) == hash(keyword)
    else:
        assert positional != keyword and not positional == keyword
        assert positional == positional
        assert len({positional, keyword, positional}) == 2


def test_mode_assignment_order():
    """By time point, then by the sorted (component, mode) pairs."""
    a = ModeAssignment(0, [("P", "ok"), ("Q", "bad")])
    b = ModeAssignment(0, [("Q", "ok"), ("P", "ok")])
    c = ModeAssignment(1, [("P", "bad"), ("Q", "bad")])
    assert sorted([c, b, a]) == [a, b, c]
    assert a < b < c and c > a and a <= a and not b < a
