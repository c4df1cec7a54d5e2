"""brat's JSON reader and writer against the json module: `loads` gives
json.loads's value or its exception, `dumps` gives json.dumps(value,
default=str), `pieces` joins to json.dumps(answer, default=str) plus a
newline, a document of any size is read without importing json, and
nesting is refused where the quote-tracking walk of
`oracles.first_bracket_past` finds its first bracket past DEPTH."""

import json
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brat._jsontext import DEPTH, _refuse_deep, dumps, loads, pieces
from brat.catalog import get_entry
from brat.dot import export_dot
from oracles import first_bracket_past

# what JSON documents hold: every scalar json.loads returns, nested a few deep
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(["inf", "repeat-last", "", "[", "}", ",", ":", "é", "\x7f", "a\\b"]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12)
WHITESPACE = st.text(alphabet=" \t\n\r", max_size=2)


@st.composite
def documents(draw):
    """json.dumps of a drawn value, with drawn whitespace around its separators and the whole."""
    separators = (draw(WHITESPACE) + "," + draw(WHITESPACE), draw(WHITESPACE) + ":" + draw(WHITESPACE))
    text = json.dumps(draw(VALUES), ensure_ascii=draw(st.booleans()), separators=separators)
    return draw(WHITESPACE) + text + draw(WHITESPACE)


@st.composite
def mutated(draw):
    """A document with one character inserted, deleted or replaced."""
    text = draw(documents())
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(' \t\n\x0b"\\,:[]{}-+.0123eEtrufalsnNI\x00é\ufeff') | st.characters())
    return draw(st.sampled_from([text[:at] + char + text[at:], text[:at] + text[at + 1:],
                                 text[:at] + char + text[at + 1:]]))


def outcome(read, text):
    """read(text)'s value, or the type and message of its error."""
    try:
        return "value", read(text)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(documents() | mutated())
def test_loads_gives_json_s_value_or_error(text):
    assert outcome(loads, text) == outcome(json.loads, text)


@pytest.mark.parametrize("text", [
    '{"levels": [1, 2', '\ufeff{"2": 1}', '[1] 2', '{"2": 1} x', "NaN", "[Infinity, -Infinity]", "1.5", "1e3",
    "1" * 5000, "[%s]" % ("1" * 4301), '{"é": 1, "\\u00e9": 2}', '["a\\"b", "\\\\", "\\n", "\\ud800"]', "01",
    "-", "-0", "[1,]", "{,}", '{"a" 1}', '{"a":}', "[]", "{}", '""', "true", "nul", "", " ", "[\x0b1]",
    '["\x01"]', '"\x7f"', "[1]\n", '{"a": 1, "a": 2}', '{"a": 1,}', '"%s"' % ("[" * 3000),
], ids=lambda text: repr(text)[:40])
def test_json_edge_cases_read_as_json_reads_them(text):
    assert outcome(loads, text) == outcome(json.loads, text)


def padded_document(size):
    """A diagram document of exactly `size` characters, padded with a note."""
    head = '{"levels": [1, 2, 2], "matrices": [[[1], [1]], [[2, 1], [1, 2]]], "tail": "repeat-last", "note": "'
    return head + "x" * (size - len(head) - 2) + '"}'


# 2048 and 2049 characters lay on each side of the size past which an
# earlier reader handed a document to json.loads
@pytest.mark.parametrize("size", [2048, 2049, 40000])
def test_documents_of_every_size_load_without_json(size):
    text = padded_document(size)
    assert len(text) == size
    code = ("import sys; from brat._jsontext import loads; value = loads(sys.stdin.read())\n"
            "print(repr(value)); print('json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True, text=True, timeout=60)
    assert (proc.stdout, proc.stderr) == ("%r\nFalse\n" % (json.loads(text),), "")


@pytest.mark.parametrize("depth", [DEPTH, DEPTH + 1, 1000, 5000])
@pytest.mark.parametrize("shape", ["array", "object", "truncated", "escaped", "extra-data"])
def test_nesting_past_depth_is_refused_at_its_first_bracket(shape, depth):
    opener, closer = {"array": ("[", "]"), "object": ('{"k": ', "}"), "truncated": ("[", ""),
                      "escaped": ('["\\"[", ', "]"), "extra-data": ("[", "]")}[shape]
    # extra data: the scanner decodes the nest, then fails after it
    text = opener * depth + "1" + closer * depth + (" " * 2048 + "x" if shape == "extra-data" else "")
    if depth <= DEPTH:
        assert outcome(loads, text) == outcome(json.loads, text)
        return
    with pytest.raises(json.JSONDecodeError) as caught:
        loads(text)
    at = len(opener) * DEPTH  # each opener starts with its bracket; the quoted "[" does not count
    assert str(caught.value) == "Nested more than %d deep: line 1 column %d (char %d)" % (DEPTH, at + 1, at)


def refused_at(text, end):
    """The position at which the nesting check refuses text[:end], or None."""
    try:
        _refuse_deep(text, end)
    except json.JSONDecodeError as exc:
        assert str(exc).startswith("Nested more than %d deep: " % DEPTH)
        return exc.pos
    return None


@st.composite
def nests(draw):
    """A run of about DEPTH openers between texts of brackets, quotes, backslashes, commas and a few others,
    drawn in pieces so that escapes and quotes meet the brackets around the run's end."""
    noise = st.lists(st.sampled_from(["[", "{", "]", "}", '"', "\\", '\\"', "\\\\", ",", "a", "0", " ", "\n"]),
                     max_size=10).map("".join)
    return draw(noise) + draw(st.text(alphabet="[{", min_size=DEPTH - 3, max_size=DEPTH)) + draw(noise)


@settings(max_examples=200)
@given(nests())
def test_nesting_check_matches_the_quote_tracking_walk_at_every_cut(text):
    for end in range(len(text) + 1):
        assert refused_at(text, end) == first_bracket_past(text[:end], DEPTH)


@pytest.mark.parametrize("text, at", [
    ("[" * DEPTH + "\udcff[", DEPTH + 1),  # past the nest, as a decoder that ran out of recursion leaves it
    ('["\udcff", %s]' % ("[" * DEPTH + "]" * DEPTH), 6 + DEPTH - 1),  # in a string
], ids=["outside", "in-a-string"])
def test_a_lone_surrogate_is_checked_without_an_encoding_error(text, at):
    # an argv byte that is not UTF-8 decodes to a lone surrogate under surrogateescape
    assert refused_at(text, len(text)) == first_bracket_past(text, DEPTH) == at


class Small(IntEnum):
    ONE = 1


@pytest.mark.parametrize("value", [
    0, -7, 10**100, True, False, None, "", "plain text", 'a "quote"', "back\\slash", "é", "\x7f", "tab\t",
    [], (), (1, 2), [1, True], [1, None, "x"], {}, {"a": (1, [2])}, {1: 2}, {None: 1, True: 2}, {"a": {2.5: 1}},
    1.5, float("nan"), float("inf"), [1.0], Fraction(1, 3), [Fraction(-2, 4)], {"x": Fraction(5)}, Small.ONE,
    [Small.ONE], type("Text", (str,), {})("sub"), {type("Key", (str,), {})("k"): 1},
], ids=repr)
def test_dumps_is_json_dumps_with_default_str(value):
    assert dumps(value) == json.dumps(value, default=str)


def test_dumps_refuses_an_integer_past_the_digit_limit_as_json_does():
    limit = sys.get_int_max_str_digits()
    for value in (10**limit, [1, 10**limit], {"a": [10**limit]}):
        assert outcome(dumps, value) == outcome(lambda v: json.dumps(v, default=str), value)
        assert outcome(dumps, value)[0] is ValueError


def test_an_integer_past_the_digit_limit_is_refused_as_json_refuses_it():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest limit Python allows, so a short document passes it
    try:
        text = "[1, %s]" % ("7" * 700)
        assert outcome(loads, text)[0] is ValueError
        assert outcome(loads, text) == outcome(json.loads, text)
    finally:
        sys.set_int_max_str_digits(limit)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**80, 10**80) | st.fractions()
    | st.floats() | st.text() | st.just(export_dot(get_entry("example-5.5").payload, 3)),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=16)
ROW = st.lists(JSON_VALUES, max_size=3) | st.lists(st.lists(JSON_VALUES, max_size=2), max_size=2)
# a list of list and tuple rows, or a tuple of tuple rows, as `towers` answers its heights
ROWS = st.lists(ROW | ROW.map(tuple), max_size=12) | st.lists(ROW.map(tuple), max_size=12).map(tuple)


@settings(max_examples=300)
@given(st.dictionaries(st.text(), JSON_VALUES | ROWS, min_size=1, max_size=4))
def test_pieces_join_to_the_one_shot_encoding(payload):
    assert "".join(pieces(payload)) == json.dumps(payload, default=str) + "\n"
