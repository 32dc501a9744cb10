"""JSON ingestion for models, streams and trajectories.

Probabilities in input files may be JSON numbers or strings: an exact
fraction like ``"3/10"`` or a decimal like ``"0.3"``, each converted to the
float nearest its exact value, so hand-written matrices survive ingestion
without parse round-off. A string is read by Python 3.13's ``fractions``
grammar on every Python, with no ``fractions`` import. Reports are written
by ``tempdiag.report``.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path
from typing import Any, Sequence

from .atemporal import ModeAssignment
from .errors import ValidationError
from .model import (
    ComponentSpec,
    HornRule,
    Observation,
    ObservationStream,
    SystemModel,
)

#: A probability string: ``fractions._RATIONAL_FORMAT`` of Python 3.13, a
#: numerator over an optional denominator, or a decimal with an optional
#: exponent. ``\d`` and ``\s`` match any Unicode digit and whitespace.
_RATIONAL = re.compile(r"""
    \A\s*                                  # optional whitespace at the start,
    (?P<sign>[-+]?)                        # an optional sign, then
    (?=\d|\.\d)                            # lookahead for digit or .digit
    (?P<num>\d*|\d+(_\d+)*)                # numerator (possibly empty)
    (?:                                    # followed by
       (?:\s*/\s*(?P<denom>\d+(_\d+)*))?   # an optional denominator
    |                                      # or
       (?:\.(?P<decimal>\d*|\d+(_\d+)*))?  # an optional fractional part
       (?:E(?P<exp>[-+]?\d+(_\d+)*))?      # and optional exponent
    )
    \s*\Z                                  # and optional whitespace to finish
""", re.VERBOSE | re.IGNORECASE)


def parse_probability(value: Any, where: str = "") -> float:
    """A probability from JSON: a number, or a string read as
    ``float(fractions.Fraction(value))`` reads it on Python 3.13, the float
    nearest its exact value; an infinite one is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValidationError(f"{where}: expected a probability, got {value!r}")
    try:
        if not isinstance(value, str):
            return float(value)
        match = _RATIONAL.match(value)
        if match:
            sign, num, denom, decimal, exp = match.group(
                "sign", "num", "denom", "decimal", "exp")
            if denom:  # int division rounds correctly, as Fraction's does
                result = int(sign + num) / int(denom)
            else:  # so does float's, which gives 1e999999999 inf at once;
                # its own strip keeps "\x1c" to "\x1f", which \s matches.
                # int refuses a group too long for it, as in Fraction
                whole, part, _ = map(int, (num or "0", decimal or "0",
                                           exp or "0"))
                result = float(value.strip())
                if not result and not (whole or part):
                    result = 0.0  # "-0.0" is exactly 0; "-1e-400" stays -0.0
            if math.isfinite(result):
                return result
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValidationError(f"{where}: cannot parse probability {value!r}")


def _object(value: Any, where: str, element: Any = None) -> dict:
    """``value`` itself, if it is a JSON object."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected an object, got {value!r}",
                              element=element)
    return value


def _array(value: Any, where: str, element: Any = None, strings: bool = False) -> list:
    """``value`` itself, if it is a JSON array (of strings, if ``strings``)."""
    if not isinstance(value, list) or (
            strings and not all(isinstance(x, str) for x in value)):
        kind = "an array of strings" if strings else "an array"
        raise ValidationError(f"{where} must be {kind}, got {value!r}",
                              element=element)
    return value


def _require(obj: Any, key: str, where: str) -> Any:
    if key not in _object(obj, where):
        raise ValidationError(f"{where}: missing required key {key!r}",
                              element=key)
    return obj[key]


def _string(obj: Any, key: str, where: str) -> str:
    """The required key ``key`` of a JSON object, if its value is a string."""
    value = _require(obj, key, where)
    if not isinstance(value, str):
        raise ValidationError(
            f"{where}: {key!r} must be a string, got {value!r}", element=key)
    return value


def _time_point(obj: dict, where: str) -> int:
    """An entry's ``t``: a JSON integer, never a bool, float or string."""
    t = _require(obj, "t", where)
    if isinstance(t, bool) or not isinstance(t, int):
        raise ValidationError(f"{where}: 't' must be an integer, got {t!r}",
                              element="t")
    return t


def _assignment(obj: dict, where: str) -> dict[str, str]:
    """A trajectory step's ``assignment``: an object mapping to mode names."""
    assignment = _object(_require(obj, "assignment", where),
                         f"{where} assignment", element="assignment")
    if not all(isinstance(mode, str) for mode in assignment.values()):
        raise ValidationError(f"{where}: assignment modes must be strings, "
                              f"got {assignment!r}", element="assignment")
    return assignment


def _atoms(obj: dict, key: str, where: str) -> frozenset[str]:
    """An observation's ``present`` or ``absent`` list of atom names."""
    return frozenset(_array(obj.get(key, []), f"{where}: {key!r}", key,
                            strings=True))


def component_from_dict(obj: dict) -> ComponentSpec:
    if not isinstance(obj, dict):
        raise ValidationError("component entries must be objects")
    where = f"component {obj.get('id', '?')!r}"
    comp_id = _string(obj, "id", where)
    modes = tuple(_array(_require(obj, "modes", where), f"{where}: 'modes'",
                         comp_id, strings=True))
    rows = _require(obj, "matrix", where)
    if not isinstance(rows, list) or len(rows) != len(modes) or any(
            len(_array(row, f"{where}: matrix row", comp_id)) != len(modes)
            for row in rows):
        raise ValidationError(f"{where}: matrix must have one row per mode "
                              "and one entry per mode in each row",
                              element=comp_id)
    entries = [[parse_probability(x, f"{where} matrix") for x in row]
               for row in rows]
    initial = obj.get("initial_distribution")
    if initial is not None:
        initial = [parse_probability(x, f"{where} initial distribution")
                   for x in _array(initial, f"{where}: 'initial_distribution'",
                                   comp_id)]
    return ComponentSpec(
        id=comp_id, modes=modes,
        correct_mode=_require(obj, "correct_mode", where),
        matrix=entries, initial_distribution=initial)


def model_from_dict(obj: dict) -> SystemModel:
    if not isinstance(obj, dict):
        raise ValidationError("model file must contain a JSON object")
    components = tuple(component_from_dict(c) for c in _array(
        _require(obj, "components", "model"), "model: 'components'",
        "components"))
    rules = []
    for i, r in enumerate(_array(obj.get("rules", []), "model: 'rules'",
                                 "rules")):
        where = f"rule #{i}"
        body = frozenset(
            (_string(a, "component", where), _string(a, "mode", where))
            for a in _array(_require(r, "body", where), f"{where}: 'body'",
                            "body"))
        rules.append(HornRule(body=body, head=_string(r, "head", where)))
    exclusive = tuple(
        frozenset(_array(pair, "model: exclusivity pair", "exclusive",
                         strings=True))
        for pair in _array(obj.get("exclusive", []), "model: 'exclusive'",
                           "exclusive"))
    return SystemModel(components=components, rules=tuple(rules),
                       exclusive=exclusive)


def stream_from_list(entries: Sequence[dict]) -> ObservationStream:
    if not isinstance(entries, list):
        raise ValidationError("observation file must contain a JSON array")
    parsed = []
    for i, e in enumerate(entries):
        where = f"observation #{i}"
        parsed.append(Observation(t=_time_point(e, where),
                                  present=_atoms(e, "present", where),
                                  absent=_atoms(e, "absent", where)))
    return ObservationStream(tuple(parsed))


def stream_to_list(stream: ObservationStream) -> list[dict]:
    return [
        {"t": e.t, "present": sorted(e.present), "absent": sorted(e.absent)}
        for e in stream.entries
    ]


def trajectories_from_list(entries: Sequence, ) -> list[tuple[ModeAssignment, ...]]:
    """Trajectories for the `rank` command: a JSON array of trajectories,
    each an array of ``{"t": ..., "assignment": {component: mode}}``."""
    if not isinstance(entries, list):
        raise ValidationError("trajectory file must contain a JSON array")
    out = []
    for i, steps in enumerate(entries):
        where = f"trajectory #{i}"
        if not isinstance(steps, list) or not steps:
            raise ValidationError(f"{where}: must be a nonempty array")
        out.append(tuple(
            ModeAssignment.from_mapping(_time_point(s, where),
                                        _assignment(s, where))
            for s in steps))
    return out


def _load_json(path: str | Path) -> Any:
    """The JSON document at ``path``, named as given in any error. An
    object that repeats a key is an error, not its last value."""
    def unique(pairs: list[tuple[str, Any]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items()
                       if n > 1)
            raise ValidationError(f"{path}: key {key!r} repeated in an object",
                                  element=key)
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except FileNotFoundError:
        raise ValidationError(f"{path}: no such file", element=str(path)) from None
    except OSError as exc:  # a directory, a file it may not read
        raise ValidationError(f"{path}: cannot read ({exc.strerror or exc})",
                              element=str(path)) from None
    except (ValueError, RecursionError) as exc:  # bad bytes, overlong ints
        raise ValidationError(f"{path}: invalid JSON ({exc})",
                              element=str(path)) from None


def load_model(path: str | Path) -> SystemModel:
    return model_from_dict(_load_json(path))


def load_stream(path: str | Path) -> ObservationStream:
    return stream_from_list(_load_json(path))


def load_trajectories(path: str | Path) -> list[tuple[ModeAssignment, ...]]:
    return trajectories_from_list(_load_json(path))
