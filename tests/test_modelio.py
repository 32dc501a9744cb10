"""JSON ingestion: fractions, schemas, round-trips, canonical reports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import tempdiag.modelio as modelio
from tempdiag import validate_model, validate_stream
from tempdiag.errors import ValidationError
from tempdiag.modelio import (
    load_model,
    load_stream,
    model_from_dict,
    parse_probability,
    stream_from_list,
    stream_to_list,
    texts,
    trajectories_from_list,
    write_report,
)

from conftest import SCENARIOS, WriteRecorder
from reference import model_to_dict


class TestParseProbability:
    def test_numbers_pass_through(self):
        assert parse_probability(1) == 1.0
        assert parse_probability(0.25) == 0.25

    def test_fraction_strings_exact(self):
        assert parse_probability("3/10") == 0.3
        assert parse_probability("1/50") == 1 / 50
        assert parse_probability("0.3") == 0.3

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_probability("three tenths")
        with pytest.raises(ValidationError):
            parse_probability("1/0")
        with pytest.raises(ValidationError):
            parse_probability(True)
        with pytest.raises(ValidationError):
            parse_probability([0.5])


class TestRoundTrip:
    def test_model_round_trip(self, hydraulic):
        rebuilt = model_from_dict(model_to_dict(hydraulic))
        assert model_to_dict(rebuilt) == model_to_dict(hydraulic)
        assert validate_model(rebuilt) is rebuilt

    def test_scenario_files_round_trip(self):
        for name in ("hydraulic", "occlusion_onset", "sudden_stop"):
            model = validate_model(load_model(SCENARIOS / f"{name}_model.json"))
            assert model_to_dict(model_from_dict(model_to_dict(model))) == \
                model_to_dict(model)

    def test_loaded_chains_are_readonly(self):
        # the hydraulic scenario declares initial distributions
        model = load_model(SCENARIOS / "hydraulic_model.json")
        for c in model.components:
            assert c.initial_distribution is not None
            for chain in (c.matrix, c.initial_distribution):
                assert chain.dtype == np.float64
                with pytest.raises(ValueError):
                    chain[0] = 0.5

    def test_stream_round_trip(self):
        stream = load_stream(SCENARIOS / "hydraulic_obs.json")
        assert stream_from_list(stream_to_list(stream)) == stream

    def test_scenario_streams_validate(self):
        for name in ("hydraulic", "occlusion_onset", "sudden_stop"):
            model = validate_model(load_model(SCENARIOS / f"{name}_model.json"))
            stream = load_stream(SCENARIOS / f"{name}_obs.json")
            assert validate_stream(stream, model) is stream


class TestSchemaErrors:
    def test_missing_component_key(self):
        with pytest.raises(ValidationError) as exc:
            model_from_dict({"components": [{"id": "X", "modes": ["a"]}]})
        assert "matrix" in str(exc.value)

    def test_matrix_row_count_checked(self):
        with pytest.raises(ValidationError):
            model_from_dict({"components": [{
                "id": "X", "modes": ["a", "b"], "correct_mode": "a",
                "matrix": [[1.0, 0.0]],
            }]})

    def test_component_entry_must_be_object(self):
        with pytest.raises(ValidationError) as exc:
            model_from_dict({"components": [5]})
        assert "must be objects" in str(exc.value)

    def test_model_must_be_object(self):
        with pytest.raises(ValidationError):
            model_from_dict([1, 2, 3])

    def test_stream_must_be_array(self):
        with pytest.raises(ValidationError):
            stream_from_list({"t": 0})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_model(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        # json refuses an integer of more than 4300 digits with a ValueError
        for text in ("{not json", "[1" + "0" * 5000 + "]"):
            path.write_text(text)
            with pytest.raises(ValidationError):
                load_model(path)


class TestTrajectories:
    def test_parsing(self):
        got = trajectories_from_list([
            [{"t": 0, "assignment": {"P": "correct", "C": "correct"}},
             {"t": 1, "assignment": {"P": "broken", "C": "correct"}}],
        ])
        assert len(got) == 1
        assert got[0][0].t == 0
        assert got[0][1].as_dict()["P"] == "broken"

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValidationError):
            trajectories_from_list([[]])


def encode(report) -> str:
    """What ``write_report`` writes for ``report``."""
    stream = WriteRecorder()
    write_report(report, stream)
    return stream.getvalue()


class TestCanonicalReports:
    def test_byte_identical(self):
        report = {"b": [1.5, 1 / 3], "a": {"y": None, "x": "s"}}
        assert encode(report) == encode(json.loads(encode(report)))

    def test_equals_json_dumps_across_chunk_batches(self):
        report = {"rows": [{"i": i, "p": i / 7, "ok": i % 2 == 0}
                           for i in range(20000)]}
        stream = WriteRecorder()
        write_report(report, stream)
        assert stream.getvalue() == json.dumps(
            report, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert len(stream.writes) > 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_raises(self, value):
        stream = WriteRecorder()
        with pytest.raises(ValueError):
            write_report({"rows": [0.5] * 100000 + [value]}, stream)
        assert stream.writes == []

    def test_repeated_items(self):
        """A list of one object repeated, as a template's rows are, gives
        the stdlib's text; a section writer repeated renders once per
        item."""
        row = {"p": [0.25, None, -0.0], "q": "x%"}
        report = {"rows": [row] * 3, "ints": [7] * 4, "zeros": [-0.0] * 2}
        assert encode(report) == json.dumps(
            report, indent=2, sort_keys=True) + "\n"
        rendered = []

        def render(nl):
            rendered.append(nl)
            return ["1.5"]

        assert encode([modelio.section(render)] * 2) == json.dumps(
            [1.5, 1.5], indent=2) + "\n"
        assert rendered == ["\n  ", "\n  "]

    def test_sorted_keys_and_newline(self):
        out = encode({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')
        assert out.endswith("\n")

    @pytest.mark.parametrize("chunk", [1, 64, 4096])
    def test_row_sections_in_bounded_writes(self, monkeypatch, chunk):
        """Row sections of one batch and of many, empty ones too, give the
        stdlib's text, written in pieces of about the batch size: no write
        is longer than two batches and one more row with its separators."""
        monkeypatch.setattr(modelio, "_CHUNK", chunk)
        values = [[i / 7, -i / 3] for i in range(3000)]
        section = modelio.rows(lambda nl: map(
            modelio.template([modelio.TEXT, modelio.TEXT], nl).__mod__,
            map(tuple, texts(np.array(values)).tolist())))
        empty = modelio.rows(lambda nl: iter(()))
        stream = WriteRecorder()
        write_report({"a": section, "b": [1, {"c": empty}], "d": section},
                     stream)
        assert stream.getvalue() == json.dumps(
            {"a": values, "b": [1, {"c": []}], "d": values}, indent=2,
            sort_keys=True) + "\n"
        assert len(stream.writes) > 1
        assert max(map(len, stream.writes)) <= 2 * chunk + 80

    def test_sections_render_when_reached(self, monkeypatch):
        """A section renders when the writer reaches it, after the text
        before it is written, and not at all if a number some section
        declares is not finite."""
        monkeypatch.setattr(modelio, "_CHUNK", 1)
        stream, rendered = WriteRecorder(), []

        def render(nl):
            rendered.append(len(stream.writes))
            return ["0.5"]

        report = {"a": [1.5], "b": modelio.rows(render, np.array([0.5])),
                  "c": modelio.section(render, 0.5)}
        write_report(report, stream)
        assert stream.getvalue() == json.dumps(
            {"a": [1.5], "b": [0.5], "c": 0.5}, indent=2) + "\n"
        assert 0 < rendered[0] < rendered[1] < len(stream.writes)
        rendered.clear()
        report["d"] = modelio.section(render, [0.5, np.nan])
        with pytest.raises(ValueError):
            write_report(report, WriteRecorder())
        assert rendered == []

    def test_later_section_raises_before_writing(self, monkeypatch):
        """A row section is rendered only as it is written, and a
        non-finite number that a section after it declares still raises
        before anything is written."""
        monkeypatch.setattr(modelio, "_CHUNK", 64)
        finite = np.arange(1000.0)
        infinite = np.append(finite, np.inf)

        def section(numbers):
            return modelio.rows(lambda nl: texts(numbers).tolist(), numbers)

        stream = WriteRecorder()
        with pytest.raises(ValueError):
            write_report({"a": section(finite), "b": section(infinite)},
                         stream)
        assert stream.writes == []


#: Floats at the edges of repr and of the double range, beside arbitrary ones.
EDGE_FLOATS = (5e-324, 2.2250738585072014e-308, 1e-310, -1e-320, -0.0, 0.0,
               1e16, 1e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e22)
#: Plain characters, those JSON must escape, and non-ASCII, lone-surrogate,
#: astral and template ones.
ALPHABET = ("aZ0 ~\"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\ud800\ue9e9"
            "\uffff\U0001f600\U0010ffff%")
TEXT = st.text(st.sampled_from(ALPHABET), max_size=6)
SCALARS = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(), st.integers(-10 ** 400, 10 ** 400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS))
REPORTS = st.recursive(
    SCALARS, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                     st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(REPORTS)
def test_write_report_equals_stdlib_encoder(report):
    """The stdlib encoder is the oracle: nested lists and dicts (empty ones
    too), subnormal, signed-zero and extreme floats, huge ints, booleans
    and null, and strings needing every kind of escape."""
    assert encode(report) == json.dumps(
        report, indent=2, sort_keys=True, allow_nan=False) + "\n"


#: Shapes 0-D to 3-D, with sizes on both sides of the one from which
#: ``texts`` formats only the distinct values.
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def float_arrays(draw):
    """A float64 array of edge and arbitrary finite floats, often holding
    both zeros."""
    values = draw(hnp.arrays(np.float64, SHAPES, elements=FLOATS))
    if values.size > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, values.size - 1), min_size=2,
                             max_size=2, unique=True))
        values.flat[i], values.flat[j] = 0.0, -0.0
    return values


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(st.one_of(float_arrays(), hnp.arrays(np.int64, SHAPES)))
def test_texts_are_each_elements_repr(values):
    """Every element's text is its ``float.__repr__`` or ``int.__repr__``,
    so 0.0 and -0.0 stay apart."""
    form = float.__repr__ if values.dtype.kind == "f" else int.__repr__
    got = texts(values)
    assert got.shape == values.shape and got.dtype == object
    assert got.ravel().tolist() == list(map(form, values.ravel().tolist()))


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(float_arrays().filter(lambda values: values.size > 0),
       st.sampled_from([float("nan"), float("inf"), -float("inf")]),
       st.integers(min_value=0))
def test_texts_refuses_non_finite(values, bad, where):
    """A NaN or an infinity anywhere in the array raises ValueError."""
    values.flat[where % values.size] = bad
    with pytest.raises(ValueError):
        texts(values)
