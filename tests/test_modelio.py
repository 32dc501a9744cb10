"""JSON ingestion: fractions, schemas, round-trips, canonical reports."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import tempdiag.report as writer
from tempdiag import validate_model, validate_stream
from tempdiag.errors import ValidationError
from tempdiag.modelio import (
    load_model,
    load_stream,
    model_from_dict,
    parse_probability,
    stream_from_list,
    stream_to_list,
    trajectories_from_list,
)
from tempdiag.report import Column, Rows, quote, table, texts, write_report

from conftest import SCENARIOS, WriteRecorder
from reference import exact_probability, model_to_dict


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

    @pytest.mark.parametrize("text, value", [
        (" 1 / 2 ", 0.5), ("1_0/20", 0.5), ("-0", 0.0), ("-0/3", 0.0),
        (".5", 0.5), ("5.", 5.0), ("1e-999999999", 0.0),
        ("-1e-400", -0.0), ("\u0663/\u0661\u0660", 0.3)])
    def test_grammar_of_python_3_13(self, text, value):
        """Spaces around ``/`` and ``_`` between digits are read on every
        Python; an exact zero is +0.0, and an underflow keeps its sign."""
        assert parse_probability(text).hex() == value.hex()

    @pytest.mark.parametrize("text", [
        "nan", "inf", "-Infinity", "1/0", "1.d", "1e400", "1_", "1__0",
        "_1", "- 1", "1/2.0", "1/-2", "0x10", ".", "e5", ""])
    def test_grammar_refuses(self, text):
        assert exact_probability(text) is None
        with pytest.raises(ValidationError):
            parse_probability(text)


#: ASCII digits and Arabic-Indic, Devanagari and fullwidth ones.
DIGITS = "0123456789\u0660\u0663\u0967\uff10\uff19"
#: ASCII and Unicode whitespace, ``\x1c`` (which ``float`` does not strip
#: by itself) among them.
SPACES = " \t\n\x0b\x1c\x85\xa0\u2003\u3000"
#: Characters the grammar refuses where they land, and ones it takes.
NOISE = "_./eE+-d \x00xn"


@st.composite
def digit_runs(draw, empty=False):
    """Digits with single ``_`` between some, or none if ``empty``."""
    runs = draw(st.lists(st.text(st.sampled_from(DIGITS), min_size=1,
                                 max_size=3), min_size=int(not empty),
                         max_size=3))
    return "_".join(runs)


@st.composite
def probability_texts(draw):
    """A numerator over a denominator, an integer, or a decimal with an
    optional exponent (some overflow, some underflow), signed or not, in
    optional whitespace; some strings then have a character inserted,
    replaced or dropped."""
    space = st.text(st.sampled_from(SPACES), max_size=2)
    sign = draw(st.sampled_from(["", "+", "-"]))
    num = draw(digit_runs())
    form = draw(st.sampled_from(["fraction", "integer", "decimal"]))
    if form == "fraction":
        body = num + draw(space) + "/" + draw(space) + draw(digit_runs())
    elif form == "decimal":
        body = draw(st.sampled_from([num, ""])) + "." + draw(
            digit_runs(empty=True))
        if draw(st.booleans()):  # small, or near the double range's ends
            digits = str(draw(st.one_of(st.integers(0, 30),
                                        st.integers(290, 420))))
            if len(digits) > 1 and draw(st.booleans()):
                digits = digits[0] + "_" + digits[1:]
            body += draw(st.sampled_from("eE")) + draw(st.sampled_from(
                ["", "+", "-"])) + digits
    else:
        body = num
    text = draw(space) + sign + body + draw(space)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["", *NOISE])) + text[
            at + draw(st.integers(0, 1)):]
    return text


#: Strings at the ends of the double range: underflows to -0.0 and to the
#: least subnormal, halfway cases, the largest double and past it.
EDGE_TEXTS = ("-1e-400", "-2.4703282292062327e-324",
              "-2.4703282292062328e-324", "2.4703282292062328e-324",
              "4.9e-324", "-0.0e-999", "-0/7", "1.7976931348623157e308",
              "1.7976931348623158e308", "1.797693134862315807e308",
              "1.797693134862315808e308", "-1.7976931348623159e308",
              "17976931348623158" + "0" * 292 + "/1", "1/1" + "0" * 324,
              "-1/5" + "0" * 323, "9_9e307",
              # digit groups longer than int reads
              "0." + "1" * 5000, "1." + "0" * 5000, "1e-" + "1" * 5000,
              "0e" + "1" * 5000,
              # exponents whose power of ten would take minutes to build
              "1e999999999", "-1e-999999999", "0e999999999")


@pytest.mark.parametrize("text, value", [
    ("1e999999999", None), ("-1e-999999999", -0.0), ("0e999999999", 0.0),
    ("1e9999999", None), ("-0e-9999999", 0.0), ("25e-325", 5e-324)])
def test_oracle_builds_no_power_past_the_float_range(text, value):
    """``exact_probability`` answers an exponent far past the float range
    in under a millisecond (the best of five calls), with the value
    ``float(Fraction(text))`` has: None on overflow, a signed zero on
    underflow."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        expect = exact_probability(text)
        times.append(time.perf_counter() - start)
    assert min(times) < 1e-3, times
    assert (expect if expect is None else expect.hex()) == (
        value if value is None else value.hex())


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(st.one_of(probability_texts(), st.sampled_from(EDGE_TEXTS),
                 st.text(st.sampled_from(DIGITS[:10] + NOISE + "/"),
                         max_size=6)))
def test_probability_strings_equal_exact_fractions(text):
    """A probability string reads as the float nearest the exact
    ``Fraction`` that Python 3.13 builds from it, bit for bit (so ``-0``
    is +0.0), and is refused exactly where that has no float value."""
    expect = exact_probability(text)
    if expect is None:
        with pytest.raises(ValidationError):
            parse_probability(text)
    else:
        assert parse_probability(text).hex() == expect.hex()


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


def nested_table(count):
    """A table of ``count`` items, the report it stands for, and a number
    column of it: each item has a float, an int, a text cell and a fixed
    pair, an array of rows each holding an array of ints (some empty), an
    array of empty objects, an array of bare texts, an array that is
    always empty and one of ints that is empty in every other item, the
    first too; ``%``, NUL and indentation-like text in keys and cells is
    kept apart from the literal text around the cells."""
    rng = np.random.default_rng(count)
    inner = rng.integers(0, 3, size=count)  # rows per item
    deep = rng.integers(0, 4, size=int(inner.sum()))  # ints per row
    floats = rng.random(count) * 10.0 ** rng.integers(-320, 300, size=count)
    floats[::5] = -0.0
    ints = rng.integers(-10 ** 18, 10 ** 18, size=count)
    labels = [f"%s {k}%\n \x00 %%" for k in range(count)]
    row_floats = rng.random(len(deep)) - 0.5
    deep_ints = rng.integers(0, 50, size=int(deep.sum()))
    bare = ["x", "%d", "\u00e9"] * count
    mixed = [k % 2 * (1 + k % 3) for k in range(count)]  # 0, 2, 0, 1, ...
    shape = {"f": Column(floats), "i": Column(ints),
             "label": Column(np.arange(count), np.array(
                 list(map(quote, labels)), dtype=object)),
             "pair": [Column(floats), Column(-floats)],
             "rows": Rows({"deep": Rows(Column(deep_ints), deep),
                           "v": Column(row_floats)}, inner),
             "empty": Rows({}, inner),
             "bare": Rows(Column(np.arange(3 * count)[::-1], np.array(
                 list(map(quote, bare[::-1])), dtype=object)), [3] * count),
             "none": Rows(Column(np.empty(0)), [0] * count),
             "\x00 %s %%": Rows(Column(np.arange(sum(mixed))), mixed)}
    items, r, d = [], 0, 0
    for k in range(count):
        rows = []
        for _ in range(inner[k]):
            rows.append({"deep": deep_ints[d:d + deep[r]].tolist(),
                         "v": float(row_floats[r])})
            d += deep[r]
            r += 1
        items.append({"f": float(floats[k]), "i": int(ints[k]),
                      "label": labels[k],
                      "pair": [float(floats[k]), float(-floats[k])],
                      "rows": rows, "empty": [{}] * int(inner[k]),
                      "bare": bare[3 * k:3 * k + 3], "none": [],
                      "\x00 %s %%": list(range(sum(mixed[:k]),
                                              sum(mixed[:k + 1])))})
    return table(shape, count), items, floats


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
        """A list of one object repeated gives the stdlib's text; a table
        writer repeated renders once per item."""
        row = {"p": [0.25, None, -0.0], "q": "x%"}
        report = {"rows": [row] * 3, "ints": [7] * 4, "zeros": [-0.0] * 2}
        assert encode(report) == json.dumps(
            report, indent=2, sort_keys=True) + "\n"
        assert encode([table(Column(np.array([1.5])), 1)] * 2) == json.dumps(
            [[1.5], [1.5]], indent=2) + "\n"

    def test_sorted_keys_and_newline(self):
        out = encode({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')
        assert out.endswith("\n")


    @pytest.mark.parametrize("span", [1, 7, 64, writer._SPAN],
                             ids=["1", "7", "64", "default"])
    @pytest.mark.parametrize("count", [0, 1, 2, 40])
    def test_tables_equal_json_dumps(self, monkeypatch, span, count):
        """Nested tables give the stdlib's text, whether their items are
        written whole or stream their rows, in the report's top level or
        deeper."""
        monkeypatch.setattr(writer, "_SPAN", span)
        section, items, _ = nested_table(count)
        report = {"a": section, "b": [1, {"c": section}]}
        assert encode(report) == json.dumps(
            {"a": items, "b": [1, {"c": items}]}, indent=2,
            sort_keys=True) + "\n"

    @pytest.mark.parametrize("span", [1, 7, 64, writer._SPAN],
                             ids=["1", "7", "64", "default"])
    @pytest.mark.parametrize("chunk", [1, 64, writer._CHUNK],
                             ids=["1", "64", "default"])
    def test_tables_equal_json_dumps_in_any_writes(self, monkeypatch, span,
                                                   chunk):
        """Nested tables give the stdlib's text however their spans and
        writes are cut: raw NULs in keys and cells, arrays that are all
        empty and arrays empty in some items only, the first included."""
        monkeypatch.setattr(writer, "_SPAN", span)
        monkeypatch.setattr(writer, "_CHUNK", chunk)
        mixed = table(Rows({"v": Column(np.arange(4))}, [0, 3, 0, 1]), 4)
        for count in (1, 2, 40):
            section, items, _ = nested_table(count)
            assert encode({"a": section, "b": [mixed, {"c": section}]}) == (
                json.dumps({"a": items, "b": [
                    [[], [{"v": 0}, {"v": 1}, {"v": 2}], [], [{"v": 3}]],
                    {"c": items}]}, indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize("chunk", [1, 64, 4096])
    def test_row_sections_in_bounded_writes(self, monkeypatch, chunk):
        """Tables of one batch and of many, empty ones too, give the
        stdlib's text, written in pieces of about the batch size: no write
        is longer than two batches and one more row with its
        separators."""
        monkeypatch.setattr(writer, "_CHUNK", chunk)
        values = np.array([[i / 7, -i / 3] for i in range(3000)])
        section = table([Column(values[:, 0]), Column(values[:, 1])],
                        len(values))
        empty = table([Column(np.empty(0)), Column(np.empty(0))], 0)
        stream = WriteRecorder()
        write_report({"a": section, "b": [1, {"c": empty}], "d": section},
                     stream)
        assert stream.getvalue() == json.dumps(
            {"a": values.tolist(), "b": [1, {"c": []}],
             "d": values.tolist()}, indent=2, sort_keys=True) + "\n"
        assert len(stream.writes) > 1
        assert max(map(len, stream.writes)) <= 2 * chunk + 80

    def test_sections_render_when_reached(self, monkeypatch):
        """A table formats its numbers when the writer reaches it, after
        the text before it is written, and not at all if a number some
        table holds is not finite."""
        monkeypatch.setattr(writer, "_CHUNK", 1)
        stream, rendered, texts_ = WriteRecorder(), [], writer.texts

        def recorded(values):
            rendered.append(len(stream.writes))
            return texts_(values)

        monkeypatch.setattr(writer, "texts", recorded)
        report = {"a": [1.5], "b": table(Column(np.array([0.5])), 1),
                  "c": table({"d": Column(np.array([0.25]))}, 1)}
        write_report(report, stream)
        assert stream.getvalue() == json.dumps(
            {"a": [1.5], "b": [0.5], "c": [{"d": 0.25}]}, indent=2) + "\n"
        assert 0 < rendered[0] < rendered[1] < len(stream.writes)
        rendered.clear()
        report["e"] = table(Rows(Column(np.array([0.5, np.nan])), [2]), 1)
        with pytest.raises(ValueError):
            write_report(report, WriteRecorder())
        assert rendered == []

    def test_later_section_raises_before_writing(self, monkeypatch):
        """A table is rendered only as it is written, and a non-finite
        number that a table after it holds, in an item that streams or
        not, still raises before anything is written."""
        monkeypatch.setattr(writer, "_CHUNK", 64)
        for span in (1, writer._SPAN):
            monkeypatch.setattr(writer, "_SPAN", span)
            section, _, floats = nested_table(40)
            floats[-1] = np.inf
            later, _, _ = nested_table(40)
            stream = WriteRecorder()
            with pytest.raises(ValueError):
                write_report({"a": later, "b": section}, stream)
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
