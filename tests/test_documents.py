import json
from fractions import Fraction

import pytest

from logsplit import (
    InputFormatError,
    OutOfBranch,
    OutputDocument,
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


class TestOutputDocument:
    def test_json_roundtrip_is_lossless(self):
        doc = OutputDocument(
            kind="ThreeDim2ReducibleAmbiguous",
            c1=-2,
            candidates=((-1, -1), (0, -2)),
            ambiguous=True,
            warnings=("BranchBoundary",),
            raw_q_sum=2.0,
            integrality_defect=1.1102230246251565e-16,
            ln_r_closure_defect=0.0,
        )
        assert OutputDocument.from_json(doc.to_json()) == doc

    def test_report_serialization(self):
        doc = parse_input_document(GOLDEN_JSON)
        out = report_to_output(classify(doc.representation()))
        assert out.kind == "ThreeDim2Irreducible"
        assert out.candidates == ((-1, -1),)
        assert not out.ambiguous
        parsed = json.loads(out.to_json())
        assert parsed["diagnostics"]["raw_q_sum"] == 2.0
        assert OutputDocument.from_json(out.to_json()) == out

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
