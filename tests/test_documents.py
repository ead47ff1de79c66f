import json
from fractions import Fraction

import pytest

from logsplit import (
    InputFormatError,
    OutOfBranch,
    classify,
    parse_input_document,
    report_to_output,
)

F = Fraction

GOLDEN_JSON = """
{
  "punctures": 3,
  "dim": 2,
  "generators": [
    [[1, 0], [0, -1]],
    [[-0.5, 1], [0.75, 0.5]]
  ]
}
"""


class TestParsing:
    def test_plain_numbers_are_exact_reals(self):
        doc = parse_input_document(GOLDEN_JSON)
        assert doc.punctures == 3 and doc.dim == 2
        gen_s = doc.generators[1]
        assert gen_s[0, 0].q == F(1, 2)
        assert abs(gen_s[0, 0]) == 0.5

    def test_cartesian_objects(self):
        doc = parse_input_document(
            '{"punctures": 2, "dim": 1, "generators": [[[{"re": 0, "im": -2}]]]}'
        )
        assert doc.generators[0][0, 0].q == F(3, 4)

    def test_polar_objects(self):
        doc = parse_input_document(
            '{"punctures": 2, "dim": 1, "generators": [[[{"r": 2, "q": "2/3"}]]]}'
        )
        entry = doc.generators[0][0, 0]
        assert entry.q == F(2, 3)
        assert abs(entry) == 2.0

    def test_polar_q_decimal_string(self):
        doc = parse_input_document(
            '{"punctures": 2, "dim": 1, "generators": [[[{"q": "0.6"}]]]}'
        )
        assert doc.generators[0][0, 0].q == F(3, 5)
        assert abs(doc.generators[0][0, 0]) == 1.0

    def test_polar_q_out_of_branch(self):
        with pytest.raises(OutOfBranch):
            parse_input_document(
                '{"punctures": 2, "dim": 1, "generators": [[[{"r": 1, "q": "5/4"}]]]}'
            )

    def test_polar_q_must_be_string_or_int(self):
        with pytest.raises(InputFormatError, match="dyadic"):
            parse_input_document(
                '{"punctures": 2, "dim": 1, "generators": [[[{"r": 1, "q": 0.6}]]]}'
            )

    def test_polar_q_unparseable(self):
        with pytest.raises(InputFormatError, match=r"generators\[0\]\[0\]\[0\]"):
            parse_input_document(
                '{"punctures": 2, "dim": 1, "generators": [[[{"r": 1, "q": "x/y"}]]]}'
            )

    def test_negative_modulus_rejected(self):
        with pytest.raises(InputFormatError, match="positive"):
            parse_input_document(
                '{"punctures": 2, "dim": 1, "generators": [[[{"r": -1, "q": "1/2"}]]]}'
            )

    def test_wrong_generator_count(self):
        with pytest.raises(InputFormatError, match="generators"):
            parse_input_document('{"punctures": 3, "dim": 1, "generators": [[[1]]]}')

    def test_wrong_matrix_shape(self):
        with pytest.raises(InputFormatError, match=r"generators\[0\]\[1\]"):
            parse_input_document(
                '{"punctures": 2, "dim": 2, "generators": [[[1, 0], [0]]]}'
            )

    def test_mixed_entry_keys_rejected(self):
        with pytest.raises(InputFormatError, match="re, im"):
            parse_input_document(
                '{"punctures": 2, "dim": 1, "generators": [[[{"re": 1, "q": "1/2"}]]]}'
            )

    def test_unknown_top_level_field(self):
        with pytest.raises(InputFormatError, match="unknown"):
            parse_input_document('{"punctures": 2, "dim": 1, "generators": [[[1]]], "x": 1}')

    def test_invalid_json_carries_location(self):
        with pytest.raises(InputFormatError, match="line 1"):
            parse_input_document("{nope}")

    def test_booleans_are_not_numbers(self):
        with pytest.raises(InputFormatError):
            parse_input_document('{"punctures": 2, "dim": 1, "generators": [[[true]]]}')

    def test_non_finite_numbers_rejected(self):
        with pytest.raises(InputFormatError):
            parse_input_document('{"punctures": 2, "dim": 1, "generators": [[[{"re": NaN}]]]}')
        with pytest.raises(InputFormatError):
            parse_input_document('{"punctures": 2, "dim": 1, "generators": [[[Infinity]]]}')

    def test_tolerance_overrides(self):
        doc = parse_input_document(
            '{"punctures": 2, "dim": 1, "generators": [[[1]]], '
            '"tolerances": {"tol": 1e-6, "integrality_tol": 1e-3}}'
        )
        assert doc.tol == 1e-6
        assert doc.integrality_tol == 1e-3

    def test_representation_roundtrip(self):
        doc = parse_input_document(GOLDEN_JSON)
        report = classify(doc.representation())
        assert report.c1 == -2


_MISSING = object()


def _header(**fields) -> str:
    """A one-dimensional 2-puncture document with header fields replaced;
    ``_MISSING`` drops a field."""
    raw = {"punctures": 2, "dim": 1, "generators": [[[1]]], **fields}
    return json.dumps({k: v for k, v in raw.items() if v is not _MISSING})


HEADER_REJECTIONS = [
    ("[1]", "top level must be a JSON object"),
    (_header(punctures="2"), "punctures: expected an integer"),
    (_header(punctures=True), "punctures: expected an integer"),
    (_header(punctures=_MISSING), "punctures: expected an integer"),
    (_header(punctures=4), "punctures: must be 2 or 3, got 4"),
    (_header(dim=0), "dim: must lie in 1..8, got 0"),
    (_header(dim=9), "dim: must lie in 1..8, got 9"),
    (_header(dim=1.0), "dim: expected an integer"),
    (_header(generators={}), "generators: must be a list of matrices"),
    (_header(dim=2, generators=[[[1, 0]]]), "generators[0]: expected 2 rows"),
    (_header(tolerances=[1e-9]), "tolerances: must be an object"),
    (_header(tolerances={"eps": 1e-9}), "tolerances: unknown fields ['eps']"),
]


@pytest.mark.parametrize("text, message", HEADER_REJECTIONS)
def test_header_rejection_message_is_pinned(text, message):
    with pytest.raises(InputFormatError) as info:
        parse_input_document(text)
    assert str(info.value) == message


class TestOutputDocument:
    def test_report_serialization(self):
        doc = parse_input_document(GOLDEN_JSON)
        out = report_to_output(classify(doc.representation()))
        assert json.loads(out.to_json()) == {
            "kind": "ThreeDim2Irreducible",
            "c1": -2,
            "candidates": [[-1, -1]],
            "ambiguous": False,
            "warnings": [],
            "diagnostics": {"raw_q_sum": 2.0, "integrality_defect": 0.0, "ln_r_closure_defect": 0.0},
        }

    def test_deterministic_serialization(self):
        doc = parse_input_document(GOLDEN_JSON)
        a = report_to_output(classify(doc.representation())).to_json()
        b = report_to_output(classify(doc.representation())).to_json()
        assert a == b


class TestRangeValidation:
    def test_integer_beyond_float_range_is_a_format_error(self):
        huge = "1" + "0" * 399
        for entry in (huge, f'{{"re": {huge}}}', f'{{"r": {huge}, "q": "1/3"}}'):
            with pytest.raises(InputFormatError, match=r"generators\[0\]\[0\]\[0\]"):
                parse_input_document(
                    f'{{"punctures": 2, "dim": 1, "generators": [[[{entry}]]]}}'
                )

    def test_modulus_beyond_float_range_is_a_format_error(self):
        with pytest.raises(InputFormatError, match="modulus"):
            parse_input_document(
                '{"punctures": 2, "dim": 1, '
                '"generators": [[[{"re": 1.7e308, "im": 1.7e308}]]]}'
            )

    @pytest.mark.parametrize("field", ["tol", "integrality_tol"])
    @pytest.mark.parametrize("value", ["-1", "0", "-0.0", pytest.param("1" + "0" * 400, id="huge")])
    def test_tolerances_must_be_finite_and_positive(self, field, value):
        text = (
            '{"punctures": 2, "dim": 1, "generators": [[[2]]], '
            f'"tolerances": {{"{field}": {value}}}}}'
        )
        with pytest.raises(InputFormatError, match=f"tolerances.{field}"):
            parse_input_document(text)

    def test_positive_tolerances_are_kept(self):
        doc = parse_input_document(
            '{"punctures": 2, "dim": 1, "generators": [[[2]]], '
            '"tolerances": {"tol": 1e-8, "integrality_tol": 3}}'
        )
        assert (doc.tol, doc.integrality_tol) == (1e-8, 3.0)
