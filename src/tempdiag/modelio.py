"""JSON ingestion and serialization for models, streams and trajectories.

Probabilities in input files may be decimal numbers or exact fraction
strings like ``"3/10"``; fractions are parsed exactly and then converted to
float, so hand-written matrices survive ingestion without parse round-off.

Reports are written by one canonical writer, ``write_report``, whose text
equals the stdlib's ``json.dumps(report, indent=2, sort_keys=True,
allow_nan=False)`` plus a newline (the stdlib encoder has no C path when
it indents). It works in two phases. First a recursive function walks the
report into a list of pieces, checking every number, so that a NaN or
infinity raises before anything is written. Then the pieces go to the
stream in writes of a bounded size, so that the report text never exists
whole. Bulk sections are section writers built with ``section`` or
``rows``: each declares the float arrays it prints, which the first phase
checks, and is rendered only when the second phase reaches it, so that
the text of one section at a time is alive. Their rows are filled from
one ``%``-template per row shape, which the writer itself renders
(``template``) and whose one placeholder, ``TEXT``, takes text already in
JSON form. Their numbers come from ``texts``, which formats each distinct
value of an array once and refuses NaN and infinities.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .atemporal import ModeAssignment
from .errors import ValidationError
from .model import (
    ComponentSpec,
    HornRule,
    Observation,
    ObservationStream,
    SystemModel,
)


def parse_probability(value: Any, where: str = "") -> float:
    """A probability from JSON: a number, or an exact fraction string."""
    if isinstance(value, bool):
        raise ValidationError(f"{where}: expected a probability, got {value!r}")
    try:
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            return float(Fraction(value))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValidationError(
            f"{where}: cannot parse probability {value!r}") from None
    raise ValidationError(f"{where}: expected a probability, got {value!r}")


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
    except ValueError as exc:  # undecodable bytes and overlong integers too
        raise ValidationError(f"{path}: invalid JSON ({exc})",
                              element=str(path)) from None


def load_model(path: str | Path) -> SystemModel:
    return model_from_dict(_load_json(path))


def load_stream(path: str | Path) -> ObservationStream:
    return stream_from_list(_load_json(path))


def load_trajectories(path: str | Path) -> list[tuple[ModeAssignment, ...]]:
    return trajectories_from_list(_load_json(path))


#: JSON string literal of a str, ``\\u`` escapes for everything outside ASCII
#: (the C function ``json`` uses with ``ensure_ascii``).
quote = json.encoder.encode_basestring_ascii
#: One level of indentation in report text.
INDENT = "  "
#: Characters from which a batch of report text is written; the rows of a
#: bulk section are joined in batches of this size.
_CHUNK = 1 << 18
#: Size from which ``texts`` formats only the distinct values: for fewer
#: elements finding them (a sort) costs more than formatting every one.
_DISTINCT_AT = 32


def write_report(report: Any, stream: TextIO) -> None:
    """Write the canonical encoding of ``report`` to the text stream
    ``stream``: sorted keys, two-space indent, ASCII with ``\\u`` escapes,
    floats by ``repr``, trailing newline. The text equals
    ``json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\\n"``
    for every report of JSON types with string keys.

    A value may also be a section writer, such as ``section`` and ``rows``
    return: a function of ``(out, nl)`` that appends its own text to
    ``out``, ``nl`` being the newline and indentation before its closing
    bracket. It may append an iterator of texts in place of a text, which
    runs only when the writer reaches it.

    The report is prepared whole, every number checked, before its first
    character is written; then it goes out in writes of ``_CHUNK``
    characters and at most one piece more, never all at once.

    Raises:
        ValueError: the report, or an array a section writer declares,
            holds a NaN or infinite float; nothing of the report has been
            written.
    """
    pieces: list[str | Iterator[str]] = []
    _write(report, pieces, "\n")
    pieces.append("\n")
    for batch in _batches((text for piece in pieces for text in (
            (piece,) if isinstance(piece, str) else piece)), ""):
        if batch:
            stream.write(batch)


def _write(value: Any, out: list, nl: str) -> None:
    """Append the text of ``value``, whose closing bracket follows ``nl``."""
    if isinstance(value, str):
        out.append(quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON "
                             f"compliant: {value!r}")
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = nl + INDENT, "["
        first = value[0]
        if len(value) > 1 and all(item is first for item in value):
            # one item repeated, as in a template's rows: its text, if it
            # is all text, serves for every item
            parts: list = []
            _write(first, parts, inner)
            if all(isinstance(part, str) for part in parts):
                out.append("[" + inner + ("," + inner).join(
                    ["".join(parts)] * len(value)) + nl + "]")
                return
        for item in value:
            out.append(sep + inner)
            _write(item, out, inner)
            sep = ","
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = nl + INDENT, "{"
        for key in sorted(value):  # quote raises TypeError on a non-str key
            out.append(sep + inner + quote(key) + ": ")
            _write(value[key], out, inner)
            sep = ","
        out.append(nl + "}")
    elif callable(value):
        value(out, nl)
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def texts(values: Any) -> np.ndarray:
    """The JSON number text of every element of ``values`` (an array of
    floats or of ints), as an object array of the same shape: what
    ``float.__repr__`` or ``int.__repr__`` gives for the element. In all
    but small arrays each distinct value is formatted once, floats told
    apart by their bits, so that ``-0.0`` keeps its sign.

    Raises:
        ValueError: some value is NaN or infinite: JSON has no form for
            those.
    """
    values = np.asarray(values)
    flat = np.ravel(values)  # 1-D, so the inverse is 1-D on every numpy
    if values.dtype.kind == "f":
        _check_finite(flat)
        flat = flat.astype(np.float64, copy=False)
        form, keys = float.__repr__, flat.view(np.int64)
    else:
        form, keys = int.__repr__, flat
    distinct, inverse = flat, slice(None)
    if flat.size >= _DISTINCT_AT:
        keys, inverse = np.unique(keys, return_inverse=True)
        distinct = keys.view(flat.dtype)
    table = np.array(list(map(form, distinct.tolist())), dtype=object)
    return table[inverse].reshape(values.shape)


def TEXT(out: list[str], nl: str) -> None:
    """The row-shape placeholder: text already in JSON form, such as
    ``texts`` or ``quote`` gives. The writer escapes every control
    character it is given, so a NUL in its text can only be this one's."""
    out.append("\0s")


def template(shape: Any, nl: str) -> str:
    """The canonical text of ``shape``, whose closing bracket follows
    ``nl``, as a ``%``-template: ``shape`` is a report some of whose
    leaves are ``TEXT``. Fill them in the order the text holds them, dict
    entries in sorted key order."""
    out: list[str] = []
    _write(shape, out, nl)
    return "".join(out).replace("%", "%%").replace("\0", "%")


def _check_finite(values: Any) -> None:
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")


def section(render: Callable[[str], Iterable[str]], *numbers: Any,
            ) -> Callable[[list, str], None]:
    """A section writer whose text is rendered only when the writer
    reaches it: ``render(nl)`` returns the texts of the section, whose
    closing bracket follows ``nl``. ``numbers`` are the float arrays the
    section prints; the writer checks them while it prepares the report,
    so that a NaN or infinity among them raises before anything is
    written, and the section's formatted numbers live only while it is
    written."""
    def write(out: list, nl: str) -> None:
        for values in numbers:
            _check_finite(values)
        out.append(_rendered(render, nl))
    return write


def _rendered(render: Callable[[str], Iterable[str]], nl: str,
              ) -> Iterator[str]:
    """The texts of ``render(nl)``, called when the first is asked for."""
    yield from render(nl)


def rows(render: Callable[[str], Iterable[str]], *numbers: Any,
         ) -> Callable[[list, str], None]:
    """A ``section`` that is a JSON array of items rendered in bulk:
    ``render(nl)`` returns an iterable of the text of each item, whose
    closing bracket follows ``nl``, and ``numbers`` are the float arrays
    the items print. The items are joined in batches of ``_CHUNK``
    characters."""
    def bracketed(nl: str) -> Iterator[str]:
        inner = nl + INDENT
        sep = "," + inner
        batches = _batches(render(inner), sep)
        first = next(batches)
        if not first:
            yield "[]"
            return
        yield "[" + inner + first
        yield from (sep + text for text in batches if text)
        yield nl + "]"
    return section(bracketed, *numbers)


def _batches(items: Iterable[str], sep: str) -> Iterator[str]:
    """The texts ``items`` joined by ``sep``, in runs of ``_CHUNK``
    characters or more, then one shorter run, maybe empty."""
    batch: list[str] = []
    size = -len(sep)
    for item in items:
        batch.append(item)
        size += len(sep) + len(item)
        if size >= _CHUNK:
            yield sep.join(batch)
            batch, size = [], -len(sep)
    yield sep.join(batch)
