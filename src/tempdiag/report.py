"""The canonical report writer.

Reports are written by one function, ``write_report``, whose text equals
the stdlib's ``json.dumps(report, indent=2, sort_keys=True,
allow_nan=False)`` plus a newline (the stdlib encoder has no C path when
it indents). It works in two phases. First a recursive function walks the
report into a list of pieces, checking every number, so that a NaN or
infinity raises before anything is written. Then the pieces go to the
stream in writes of a bounded size, so that the report text never exists
whole. Bulk sections are tables (``table``): JSON arrays of items of one
shape, whose leaves are columns of numbers or JSON text (``Column``) and
arrays of rows (``Rows``), themselves of one shape. The first phase cuts
each shape's text at its leaves and checks every float column; the second
renders a table's items only when it reaches them, a span of consecutive
ones at a time: ``texts`` formats its numbers (each distinct value once,
refusing NaN and infinities), and one join makes its text from a list
filled a leaf at a time, its arrays' texts cut from one more join.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, TextIO

import numpy as np


#: JSON string literal of a str, ``\\u`` escapes for everything outside ASCII
#: (the C function ``json`` uses with ``ensure_ascii``).
quote = json.encoder.encode_basestring_ascii
#: One level of indentation in report text.
INDENT = "  "
#: Characters from which a batch of report text is written: fewer than
#: a full table span prints, whose text so goes out alone, not copied.
_CHUNK = 1 << 17
#: Size from which ``texts`` formats only the distinct values: for fewer
#: elements finding them (a sort) costs more than formatting every one.
_DISTINCT_AT = 32


def write_report(report: Any, stream: TextIO) -> None:
    """Write the canonical encoding of ``report`` to the text stream
    ``stream``: sorted keys, two-space indent, ASCII with ``\\u`` escapes,
    floats by ``repr``, trailing newline. The text equals
    ``json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\\n"``
    for every report of JSON types with string keys.

    A value may also be a section writer, such as ``table`` returns: a
    function of ``(out, nl)`` that appends its own text to
    ``out``, ``nl`` being the newline and indentation before its closing
    bracket. It may append an iterator of texts in place of a text, which
    runs only when the writer reaches it.

    The report is prepared whole, every number checked, before its first
    character is written; then it goes out in writes of at most
    ``2 * _CHUNK`` characters, never all at once.

    Raises:
        ValueError: the report, or a column of a table in it, holds a NaN
            or infinite float; nothing of the report has been written.
    """
    pieces: list[str | Iterator[str]] = []
    _write(report, pieces, "\n")
    pieces.append("\n")
    for batch in _batches(chain.from_iterable(
            (piece,) if isinstance(piece, str) else piece for piece in pieces)):
        for at in range(0, len(batch), 2 * _CHUNK):  # a long text, cut
            stream.write(batch[at:at + 2 * _CHUNK])


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
        low = flat.min()
        if form is int.__repr__ and int(flat.max()) - int(low) < flat.size:
            # a range no wider than the array, such as indices: no sort
            distinct, inverse = np.arange(low, flat.max() + 1), flat - low
        else:
            keys, inverse = np.unique(keys, return_inverse=True)
            distinct = keys.view(flat.dtype)
    table = np.array(list(map(form, distinct.tolist())), dtype=object)
    return table[inverse].reshape(values.shape)


def _check_finite(values: Any) -> None:
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")


class Column:
    """A leaf of a ``table`` shape: one JSON value per item, or per row of
    the ``Rows`` it sits in, taken in order from ``values``: numbers (an
    array of floats or ints, printed as ``texts`` formats them) or, given
    ``table`` (an object array of JSON texts, such as ``quote`` gives),
    indices into it. Ints may also be made as they are read: ``values``
    need only have their ``dtype`` and slice into arrays, in order."""

    __slots__ = ("values", "table")

    def __init__(self, values: Any, table: np.ndarray | None = None):
        self.values, self.table = values, table

    def __call__(self, out: list, nl: str) -> None:
        out.append((self, nl))  # a cell of the ``template`` being built


class Rows:
    """A leaf of a ``table`` shape: one JSON array per item, or per row of
    the ``Rows`` it sits in, the i-th of ``counts[i]`` rows. ``shape`` is
    one row; its leaves hold the cells of every row of every array, in
    order."""

    __slots__ = ("shape", "offsets")
    __call__ = Column.__call__

    def __init__(self, shape: Any, counts: Any):
        self.shape = shape
        self.offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))


def template(shape: Any, nl: str) -> tuple[list[str], list]:
    """The canonical text of ``shape``, a report some of whose leaves are
    ``Column`` or ``Rows``, with its closing bracket after ``nl``: the
    literal texts around its leaves, and the leaves with the newline
    before each, in text order (dict entries in sorted key order)."""
    out: list = []
    _write(shape, out, nl)
    # the writer escapes every control character, so a NUL is only a cut
    return "".join("\0" if type(part) is tuple else part for part in out
                   ).split("\0"), [part for part in out if type(part) is tuple]


def table(shape: Any, count: int) -> Callable[[list, str], None]:
    """A section writer of a JSON array of ``count`` items, each the
    report ``shape`` whose ``Column`` and ``Rows`` leaves give item k
    their k-th value or array.

    Every template is built, and every float column checked, when the
    writer prepares the report; the items are rendered only when it
    reaches them, in spans of consecutive items printing up to ``_SPAN``
    cells, or alone if of more, streaming its arrays' rows the same way."""
    def write(out: list, nl: str) -> None:
        plan = _plan(shape, nl + INDENT)
        for column, _, _ in _ranges(plan[1], 0, count):
            if column.table is None and column.values.dtype.kind == "f":
                _check_finite(column.values)
        out.append(_items(plan, 0, count, nl))
    return write


#: Cells from which a table item, or a row of one of its arrays, streams
#: its arrays' rows instead of being made one text; also the most cells
#: formatted (each distinct value once) and joined together. Set by
#: measurement: smaller spans format the values that repeat from item to
#: item more often, larger ones hold more text at once.
_SPAN = 6144


def _plan(shape: Any, nl: str) -> tuple[list[str], list]:
    """``shape``'s literal texts at ``nl`` and its leaves as ``(leaf, nl,
    plan)``, the plan of a ``Rows`` leaf's row or None."""
    if type(shape) is Column:
        return ["", ""], [(shape, nl, None)]
    literals, leaves = template(shape, nl)
    return literals, [(leaf, at, _plan(leaf.shape, at + INDENT)
                       if type(leaf) is Rows else None) for leaf, at in leaves]


def _ranges(leaves: list, a: int, b: int) -> Iterator[tuple[Column, int, int]]:
    """Each column of a plan's ``leaves``, nested ones too, with the range
    of its values that rows ``a`` to ``b`` print."""
    for leaf, _, sub in leaves:
        if sub is None:
            yield leaf, a, b
        else:
            yield from _ranges(sub[1], leaf.offsets[a], leaf.offsets[b])


def _formatted(leaves: list, a: int, b: int) -> dict:
    """Per column of a plan's ``leaves``, the texts it prints in rows
    ``a`` to ``b``: the columns of floats, and those of ints, are
    formatted by one ``texts`` call each."""
    done, numbers = {}, {}
    for column, lo, hi in _ranges(leaves, a, b):
        values = column.values[lo:hi]
        if column.table is not None:
            done[column] = column.table[values].tolist()
        else:
            numbers.setdefault(values.dtype.kind, []).append((column, values))
    for group in numbers.values():
        flat = texts(np.concatenate([values for _, values in group])).tolist()
        at = 0
        for column, values in group:
            done[column] = flat[at:at + len(values)]
            at += len(values)
    return done


def _parts(plan: tuple, a: int, b: int, done: dict, sep: str, first: str,
           ) -> list[str]:
    """The texts that, joined, give rows ``a`` to ``b`` of ``plan``, the
    first after ``first`` and the others after ``sep``, given the texts of
    its leaves there: rows of a slot per leaf and nonempty literal (all
    but an empty end, after a lone column), filled a leaf at a time."""
    literals, leaves = plan
    row = [sep + literals[0]]  # one row's slots, "" for each leaf's text
    for literal in literals[1:]:
        row += ("", literal) if literal else ("",)
    parts = row * (b - a)
    parts[0] = first + literals[0]
    for at, (leaf, nl, sub) in enumerate(leaves):
        parts[2 * at + 1::len(row)] = (done[leaf] if leaf in done else
                                       _arrays(leaf, nl, sub, a, b, done))
    return parts


def _arrays(rows: Rows, nl: str, plan: tuple, a: int, b: int, done: dict,
            ) -> list[str]:
    """The texts of arrays ``a`` to ``b`` of ``rows``, whose rows are of
    ``plan`` and whose closing brackets follow ``nl``: one text of all
    their rows, cut at a NUL after each closing bracket but the last."""
    inner, offsets = nl + INDENT, rows.offsets[a:b + 1].tolist()
    lo, hi = offsets[0], offsets[-1]
    if lo == hi:
        return ["[]"] * (b - a)
    parts = _parts(plan, lo, hi, done, "," + inner, "[" + inner)
    stride, mark = len(parts) // (hi - lo), nl + "]\0[" + inner + plan[0][0]
    for i, j in zip(offsets, offsets[1:]):
        if j > i > lo:  # an array with rows after the first
            parts[(i - lo) * stride] = mark
    parts.append(nl + "]")
    texts = iter("".join(parts).split("\0"))
    return [next(texts) if j > i else "[]"
            for i, j in zip(offsets, offsets[1:])]


def _items(plan: tuple, a: int, b: int, nl: str) -> Iterator[str]:
    """The texts of a JSON array, whose closing bracket follows ``nl``, of
    rows ``a`` to ``b`` of ``plan``, a span at a time: as many consecutive
    rows as print at most ``_SPAN`` cells together, as one text, or one
    printing more, whose text is cut where its arrays go, which stream."""
    sep = "," + nl + INDENT
    # the cells printed before each row: every column's start there
    ends = sum((hi for _, _, hi in _ranges(plan[1], a, np.arange(a, b + 1))),
               np.zeros(b - a + 1, dtype=np.intp)).tolist()
    i = 0  # rows a + i onwards are still to go
    while a + i < b:
        j = max(i + 1, bisect_right(ends, ends[i] + _SPAN, i) - 1)
        first = sep if i else "[" + sep[1:]  # the first row opens the array
        if ends[j] - ends[i] <= _SPAN:
            yield "".join(_parts(plan, a + i, a + j, _formatted(
                plan[1], a + i, a + j), sep, first))
        else:
            k, arrays = a + i, [leaf for leaf in plan[1] if leaf[2]]
            done = _formatted([leaf for leaf in plan[1] if not leaf[2]], k,
                              k + 1)
            done.update((leaf, ["\0"]) for leaf, _, _ in arrays)
            head, *tails = "".join(_parts(plan, k, k + 1, done, "", first)
                                   ).split("\0")
            yield head
            for (leaf, at, sub), tail in zip(arrays, tails):
                yield from _items(sub, *leaf.offsets[k:k + 2], at)
                yield tail
        i = j
    yield nl + "]" if a < b else "[]"


def _batches(texts: Iterable[str]) -> Iterator[str]:
    """The ``texts`` joined in runs of ``_CHUNK`` characters or more, then
    one shorter run, maybe empty. A text that long is not copied into a
    run: it goes alone, as a run of one is joined without a copy."""
    batch, size = [], 0
    for text in texts:
        if len(text) >= _CHUNK and batch:
            yield "".join(batch)
            batch, size = [], 0
        batch.append(text)
        size += len(text)
        if size >= _CHUNK:
            yield "".join(batch)
            batch, size = [], 0
    yield "".join(batch)
