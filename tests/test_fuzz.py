"""Fuzzed ingestion: mutated scenario files and odd option values never
end in a traceback.

Each file example takes one shipped scenario and mutates its model, its
observation stream or the desk workload's trajectory file for it
(``bench/desk``): a value replaced by one of another type (NaN, infinities,
huge integers, strings, null, booleans, arrays, objects), a key dropped, a
key written twice in the JSON text, an array element duplicated or an array
shortened. Each option example runs ``diagnose``, ``propagate`` or
``simulate`` on an unchanged scenario with options set to valid values,
NaN, infinities, negatives, huge integers, blanks or non-numbers. Every
call must exit 0-3 and print exactly one JSON object on stdout, carrying
``error`` whenever it exits non-zero.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from tempdiag.cli import main

from conftest import SCENARIOS

DESK = SCENARIOS.parent / "bench" / "desk"
#: Per scenario: its model, observation stream and trajectories.
FILES = [tuple(json.loads(path.read_text()) for path in (
    SCENARIOS / f"{s}_model.json", SCENARIOS / f"{s}_obs.json",
    DESK / f"{s}_trajectories.json"))
    for s in ("hydraulic", "occlusion_onset", "sudden_stop")]

ODD_VALUES = st.sampled_from([
    float("nan"), float("inf"), -float("inf"), 1e308, -1, 0, 10 ** 400,
    -10 ** 400, 2 ** 63, "x", "", "1/0", "1e999", None, True, False, [], {},
    [1], ["x"], [[]], {"t": 0}]).map(copy.deepcopy)


class Twice(dict):
    """An object whose JSON text repeats one key with a second value."""

    def __init__(self, items, key, value):
        super().__init__(items)
        self.repeated = (key, value)


def dump(value) -> str:
    """JSON text, writing a ``Twice`` object's repeated key at the end."""
    if isinstance(value, dict):
        pairs = list(value.items())
        if isinstance(value, Twice):
            pairs.append(value.repeated)
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}"
                               for k, v in pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)


def locations(doc, path=()):
    """Every (container path, key or index) in a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path, key
        yield from locations(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three mutations applied."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        places = list(locations(doc))
        if not places:
            break
        path, key = draw(st.sampled_from(places))
        parent = doc
        for step in path:
            parent = parent[step]
        op = draw(st.sampled_from(["replace", "drop", "repeat", "shorten"]))
        if op == "replace":
            parent[key] = draw(ODD_VALUES)
        elif op == "drop":
            del parent[key]
        elif op == "repeat" and isinstance(parent, dict):
            twice = Twice(parent, key, draw(ODD_VALUES))
            if path:
                grand = doc
                for step in path[:-1]:
                    grand = grand[step]
                grand[path[-1]] = twice
            else:
                doc = twice
        elif op == "repeat":
            parent.insert(key, copy.deepcopy(parent[key]))
        elif isinstance(parent[key], list):
            del parent[key][len(parent[key]) // 2:]
        else:
            del parent[key]
    return doc


@st.composite
def one_file_mutated(draw):
    """A scenario's files with one of them mutated."""
    files = list(draw(st.sampled_from(FILES)))
    k = draw(st.integers(0, len(files) - 1))
    files[k] = draw(mutated(files[k]))
    return files


def check_one_json_object(argv):
    """``main(argv)`` exits 0-3 with one JSON object, an error iff nonzero."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    report = json.loads(out.getvalue())
    assert isinstance(report, dict), argv
    assert ("error" in report) == (code != 0), (argv, report)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(one_file_mutated())
def test_mutated_inputs_exit_with_one_json_object(files):
    with tempfile.TemporaryDirectory() as tmp:
        m, s, r = (str(Path(tmp) / name) for name in (
            "model.json", "obs.json", "trajectories.json"))
        for path, doc in zip((m, s, r), files):
            Path(path).write_text(dump(doc))
        for argv in (["validate", m, s], ["classify", m],
                     ["propagate", m, "--instants", "0,1,3"],
                     ["diagnose", m, s], ["diagnose", m, s, "--revise"],
                     ["rank", m, r]):
            check_one_json_object(argv)


NUMBERS = ["0", "0.01", "1", "3", "-1", "-0.0", "nan", "inf", "-inf",
           "1e999", "1e-400", "1.5", str(2 ** 63), str(10 ** 400), "", " ",
           "x", "1/2"]
CHOICES = ["global", "per-component", "abductive", "consistency", "bogus",
           "", "GLOBAL", "per_component"]
INSTANTS = ["0,1,3", "0", "", ",", "3,1", "2,2", "-1", "0,,2", " 4 , 2 ",
            "x", "1.5", "nan", "0,1e3", str(10 ** 30)]
#: ``simulate`` allocates horizon + 1 floats per component: at most 50.
HORIZONS = ["1", "4", "50", "0", "-3", "", "x", "nan", "inf", "2.5", "1e1",
            "100000000000000000000"]
#: Per subcommand: the options fuzzed and the values each is set to.
OPTIONS = {
    "diagnose": {"--sigma": NUMBERS, "--threshold-mode": CHOICES,
                 "--criterion": CHOICES, "--cap": NUMBERS},
    "propagate": {"--instants": INSTANTS},
    "simulate": {"--horizon": HORIZONS, "--seed": NUMBERS,
                 "--instants": INSTANTS},
}
REQUIRED = {"propagate": "--instants", "simulate": "--horizon"}


@st.composite
def option_calls(draw):
    """A subcommand on a shipped scenario with some options set."""
    scenario = draw(st.sampled_from(("hydraulic", "occlusion_onset",
                                     "sudden_stop")))
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command, str(SCENARIOS / f"{scenario}_model.json")]
    if command == "diagnose":
        argv.append(str(SCENARIOS / f"{scenario}_obs.json"))
        if draw(st.booleans()):
            argv.append("--revise")
    names = draw(st.lists(st.sampled_from(sorted(OPTIONS[command])),
                          unique=True))
    for name in sorted({REQUIRED.get(command), *names} - {None}):
        argv += [name, draw(st.sampled_from(OPTIONS[command][name]))]
    return argv


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(option_calls())
def test_odd_option_values_exit_with_one_json_object(argv):
    check_one_json_object(argv)
