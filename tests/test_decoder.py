"""The matrix-entry decoder: pinned rejection messages, the bound on polar
q strings, malformed entries through the command line, and the inline
decoding of floating cartesian entries held to ``_parse_entry``."""

import contextlib
import io
import json
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsplit import InputFormatError, OutOfBranch, parse_input_document
from logsplit.cli import EXIT_ERROR, main
from logsplit.documents import _parse_entry, _parse_matrix

HUGE = "1" + "0" * 399  # an integer literal beyond the float range
AT = "generators[1][1][0]: "

NOT_FINITE = "entries must be finite floating-point numbers"
NOT_NUMBERS = "re/im must be numbers"
R_NOT_NUMBER = "r must be a number"
R_NOT_POSITIVE = "polar modulus r must be positive"
NOT_ENTRY = "entry must be a number or an object"
Q_NOT_RATIONAL = (
    'q must be a rational string such as "2/3" (floats would be read as dyadic approximations)'
)

# (entry as JSON, exception, message after the path)
REJECTIONS = [
    ("true", InputFormatError, "booleans are not matrix entries"),
    ("null", InputFormatError, NOT_ENTRY),
    ('"1"', InputFormatError, NOT_ENTRY),
    ("[]", InputFormatError, NOT_ENTRY),
    ("{}", InputFormatError, "entry object must use fields {re, im} or {r, q}, got []"),
    ('{"re": "1"}', InputFormatError, NOT_NUMBERS),
    (
        '{"re": 1, "q": "1/2"}',
        InputFormatError,
        "entry object must use fields {re, im} or {r, q}, got ['q', 're']",
    ),
    ('{"q": 0.5}', InputFormatError, Q_NOT_RATIONAL),
    ('{"r": -1, "q": "1/3"}', InputFormatError, R_NOT_POSITIVE),
    ('{"r": true, "q": "1/3"}', InputFormatError, R_NOT_NUMBER),
    ('{"re": 1.7e308, "im": 1.7e308}', InputFormatError, "modulus beyond the floating-point range"),
    ("NaN", InputFormatError, NOT_FINITE),
    ("Infinity", InputFormatError, NOT_FINITE),
    ("-Infinity", InputFormatError, NOT_FINITE),
    (HUGE, InputFormatError, NOT_FINITE),
    (f'{{"re": {HUGE}}}', InputFormatError, NOT_NUMBERS),
    (f'{{"im": {HUGE}}}', InputFormatError, NOT_NUMBERS),
    (f'{{"re": 1, "im": {HUGE}}}', InputFormatError, NOT_NUMBERS),
    (f'{{"r": {HUGE}, "q": "1/3"}}', InputFormatError, R_NOT_NUMBER),
    ('{"re": NaN, "im": 1}', InputFormatError, NOT_NUMBERS),
    ('{"im": Infinity}', InputFormatError, NOT_NUMBERS),
    ('{"re": 1, "im": true}', InputFormatError, NOT_NUMBERS),
    ('{"r": 0, "q": "1/3"}', InputFormatError, R_NOT_POSITIVE),
    ('{"r": "2", "q": "1/3"}', InputFormatError, R_NOT_NUMBER),
    ('{"r": 1, "q": true}', InputFormatError, Q_NOT_RATIONAL),
    ('{"r": 1, "q": null}', InputFormatError, Q_NOT_RATIONAL),
    ('{"r": 1, "q": "x"}', InputFormatError, "cannot parse q = 'x' as a rational"),
    ('{"r": 1, "q": "1/0"}', InputFormatError, "cannot parse q = '1/0' as a rational"),
    ('{"r": 1, "q": "5/4"}', OutOfBranch, "polar q = 5/4 outside [0, 1)"),
    ('{"r": 1, "q": -1}', OutOfBranch, "polar q = -1 outside [0, 1)"),
    ('{"r": 1, "q": "-1/3"}', OutOfBranch, "polar q = -1/3 outside [0, 1)"),
    (
        '{"re": 1, "im": 2, "x": 3}',
        InputFormatError,
        "entry object must use fields {re, im} or {r, q}, got ['im', 're', 'x']",
    ),
    ('{"r": 1}', InputFormatError, "entry object must use fields {re, im} or {r, q}, got ['r']"),
]


def _document(entry: str) -> str:
    # The entry sits at generators[1][1][0] of an otherwise valid document.
    return '{"punctures": 3, "dim": 2, "generators": [[[1, 0], [0, 1]], [[1, 0], [%s, 1]]]}' % entry


@pytest.mark.parametrize(
    "entry, error, message",
    REJECTIONS,
    ids=[entry.replace(HUGE, "10^399") for entry, _, _ in REJECTIONS],
)
def test_rejection_message_is_pinned(entry, error, message):
    with pytest.raises(error) as info:
        parse_input_document(_document(entry))
    assert type(info.value) is error
    assert str(info.value) == AT + message


class TestPolarQBound:
    def test_huge_exponent_is_refused_quickly(self):
        # Fraction("1e-10000000") builds a ten-million-digit integer.
        start = time.perf_counter()
        with pytest.raises(InputFormatError) as info:
            parse_input_document(_document('{"r": 1, "q": "1e-10000000"}'))
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            AT + "cannot parse q = '1e-10000000' as a rational of at most 4300 digits"
        )

    def test_out_of_branch_q_beyond_the_digit_limit_is_refused(self):
        # 5e4300 is out of branch, and printing its 4301 digits would raise.
        with pytest.raises(InputFormatError, match=r"generators\[1\]\[1\]\[0\]"):
            parse_input_document(_document('{"r": 1, "q": "5e4300"}'))

    @pytest.mark.parametrize("q", ["1e-4299", "0.5e-4298", "25e-4299"])
    def test_denominators_of_4300_digits_are_accepted(self, q):
        doc = parse_input_document(_document('{"r": 1, "q": "%s"}' % q))
        assert doc.generators[1][1, 0].q == Fraction(q)

    @pytest.mark.parametrize("q", ["1e-4300", ".5e-4299", "1.0e4300"])
    def test_one_digit_beyond_the_limit_is_refused(self, q):
        with pytest.raises(InputFormatError, match="at most 4300 digits"):
            parse_input_document(_document('{"r": 1, "q": "%s"}' % q))


# ---------------------------------------------------------------------------
# malformed entries through the command line

bad_numbers = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.integers(min_value=10**309, max_value=10**400),
    st.integers(min_value=-(10**400), max_value=-(10**309)),
)
not_numbers = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=5),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(-3, 3), max_size=2),
)
fine_numbers = st.one_of(st.integers(-5, 5), st.floats(-10, 10, allow_nan=False))
bad_values = st.one_of(bad_numbers, not_numbers)
bad_q = st.one_of(
    st.floats(0, 1),
    st.booleans(),
    st.none(),
    st.integers(1, 10**6),
    st.integers(-(10**6), -1),
    st.sampled_from(["x", "1/0", "", "5/4", "-1/3", "1e-10000000", "9e99999", "1e5/3", "1//2"]),
)

malformed_entries = st.one_of(
    bad_values,
    st.builds(lambda re, im: {"re": re, "im": im}, bad_values, fine_numbers),
    st.builds(lambda re, im: {"re": re, "im": im}, fine_numbers, bad_values),
    st.builds(lambda v: {"im": v}, bad_values),
    st.sampled_from([{"re": 1.7e308, "im": 1.7e308}, {"re": -1e308, "im": 1.5e308}]),
    st.builds(lambda r: {"r": r, "q": "1/3"}, st.one_of(bad_values, st.integers(-5, 0))),
    st.builds(lambda q: {"r": 2, "q": q}, bad_q),
    st.builds(lambda q: {"q": q}, bad_q),
    st.dictionaries(
        st.sampled_from(["re", "im", "r", "q", "x"]), fine_numbers, max_size=4
    ).filter(lambda d: not d.keys() <= {"re", "im"} and not ("q" in d and d.keys() <= {"r", "q"})),
)


@st.composite
def malformed_documents(draw):
    punctures = draw(st.sampled_from((2, 3)))
    dim = draw(st.integers(1, 3))
    generators = [
        [[draw(fine_numbers) for _ in range(dim)] for _ in range(dim)]
        for _ in range(punctures - 1)
    ]
    g = draw(st.integers(0, punctures - 2))
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    generators[g][i][j] = draw(malformed_entries)
    text = json.dumps({"punctures": punctures, "dim": dim, "generators": generators})
    return text, f"generators[{g}][{i}][{j}]: "


@settings(max_examples=200, deadline=None)
@given(malformed_documents())
def test_malformed_entry_exits_one_with_a_single_error_line(case):
    text, path = case
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, "doc.json")
        with open(name, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["classify", name])
    assert code == EXIT_ERROR
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(("error[InputFormatError]: " + path, "error[OutOfBranch]: " + path))


# ---------------------------------------------------------------------------
# the inline decoding of floating cartesian entries


def _decoded(decode):
    """``("value", form)`` of what ``decode()`` returns, every float as
    ``float.hex``, or ``("error", type, message)``."""
    try:
        v = decode()
    except (InputFormatError, OutOfBranch) as exc:
        return "error", type(exc), str(exc)
    if type(v) is complex:
        return "value", complex, v.real.hex(), v.imag.hex()
    return "value", type(v), v._z, v._r, v._q


def _through_the_matrix(entry):
    return _decoded(lambda: _parse_matrix([[entry]], 1, "g")[0, 0])


def _through_the_entry(entry):
    found = _decoded(lambda: _parse_entry(entry))
    if found[0] == "error":
        return found[:2] + ("g[0][0]: " + found[2],)
    return found


parts = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.7e308, 5e-324, float("nan"), float("inf")]),
    st.integers(-5, 5),
    st.integers(min_value=10**309, max_value=10**310),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)
entries = st.one_of(
    parts,
    st.builds(lambda re, im: {"re": re, "im": im}, parts, parts),
    st.builds(lambda re: {"re": re}, parts),
    st.builds(lambda im: {"im": im}, parts),
    st.dictionaries(st.sampled_from(["re", "im", "r", "q", "x"]), parts, max_size=3),
)


@settings(max_examples=500, deadline=None)
@given(entries)
def test_the_inline_cartesian_decoding_is_parse_entry(entry):
    assert _through_the_matrix(entry) == _through_the_entry(entry)


@pytest.mark.parametrize(
    "text",
    [
        '{"re": 0.5, "im": -0.25}',
        '{"re": -0.0, "im": 0.5}',
        '{"re": 0.5, "im": 0.0}',
        '{"re": 1, "im": 0.5}',
        '{"re": 1.5}',
        "2.5",
        "-0.0",
        "3",
        "NaN",
        "Infinity",
        '{"re": NaN, "im": 1.0}',
        '{"re": 1.0, "im": Infinity}',
        '{"re": 1e308, "im": 1e308}',
        '{"re": 1.7e308, "im": 1.7e308}',
        '{"re": 1.0, "im": 2.0, "x": 3.0}',
        '{"re": 1.0, "x": 3.0}',
        '{"re": true, "im": 1.0}',
        '{"re": 1.0, "im": false}',
        "true",
        '{"r": 1.5, "q": "1/3"}',
    ],
)
def test_each_entry_form_decodes_as_parse_entry_does(text):
    entry = json.loads(text)
    assert _through_the_matrix(entry) == _through_the_entry(entry)
