"""No input document ends in a traceback: every one gets an exit code in
0..4, and the library raises only LogSplitError subclasses."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsplit import FloatRangeError, LogSplitError, Matrix, Representation, classify, eigenvalues
from logsplit.cli import EXIT_ERROR, EXIT_OK, main

magnitudes = st.one_of(
    st.integers(-10, 10),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
branch_data = st.fractions(0, 1, max_denominator=12).map(str)

entries = st.one_of(
    magnitudes,
    st.builds(lambda re, im: {"re": re, "im": im}, magnitudes, magnitudes),
    st.builds(lambda r, q: {"r": r, "q": q}, magnitudes, branch_data),
)


@st.composite
def documents(draw):
    punctures = draw(st.sampled_from((2, 3)))
    dim = draw(st.integers(1, 8))
    # Sparse matrices reach the triangular and reducible routes.
    cell = st.one_of(st.just(0), entries)
    generators = [
        [[draw(cell) for _ in range(dim)] for _ in range(dim)] for _ in range(punctures - 1)
    ]
    return json.dumps({"punctures": punctures, "dim": dim, "generators": generators})


def _classify(text: str, command: str = "classify") -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(documents())
def test_every_document_gets_an_exit_code(text):
    code, _, _ = _classify(text)
    assert 0 <= code <= 4


def test_overflowing_exact_product_is_a_float_range_error():
    code, _, err = _classify('{"punctures": 3, "dim": 1, "generators": [[[1e200]], [[1e200]]]}')
    assert code == EXIT_ERROR
    assert "error[FloatRangeError]" in err


def test_huge_exact_triangular_generator_is_answered():
    code, out, _ = _classify(
        '{"punctures": 2, "dim": 2, "generators": '
        '[[[-4e299, 0], [{"re": -2e299, "im": 2e299}, -1e299]]]}'
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["c1"] == -2
    assert report["candidates"] == [[-1, -1]]


def test_eigenvalue_difference_beyond_the_float_range_is_answered():
    # Both eigenvalues of the first generator are finite, but their
    # difference has a modulus above the float range; the clustering of
    # the diagonal and the eigenvalue gap of the invariant-line search
    # both measure it.
    text = (
        '{"punctures": 3, "dim": 2, "generators": [[[{"re": 1.3e308, "im": 1e-300}, 0], '
        '[0, {"re": 0, "im": -1.3e308}]], [[0.5, 0], [0, 0.25]]]}'
    )
    code, out, err = _classify(text)
    assert (code, err) == (EXIT_OK, "")
    report = json.loads(out)
    assert (report["kind"], report["c1"], report["candidates"], report["warnings"]) == (
        "ThreeDim2Decomposable", -1, [[0, -1]], ["BranchBoundary"],
    )
    code, out, err = _classify(text, "c1")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["c1"] == -1


def test_root_difference_beyond_the_float_range_is_answered():
    # A full generator: its roots come from the float root finder, and
    # clustering measures the distance of two roots whose difference has
    # a modulus above the float range.
    text = (
        '{"punctures": 2, "dim": 2, "generators": [[[{"re": 1.3e308, "im": 1e-300}, '
        '{"re": 1e-300, "im": 1e-300}], [{"re": 1e-300, "im": 1e-300}, '
        '{"re": 1e-300, "im": -1.3e308}]]]}'
    )
    code, out, err = _classify(text)
    assert (code, err) == (EXIT_OK, "")
    report = json.loads(out)
    assert (report["kind"], report["c1"], report["candidates"], report["warnings"]) == (
        "TwoPunctureGeneral", -1, [[0, -1]], ["BranchBoundary"],
    )
    code, out, err = _classify(text, "c1")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["c1"] == -1


def test_integer_beyond_float_range_in_the_library():
    with pytest.raises(LogSplitError):
        classify(Representation(2, (Matrix([[10**400]]),)))


def test_tiny_exact_eigenvalue_is_a_float_range_error():
    # 10**-400 is invertible; only its float modulus underflows.
    with pytest.raises(FloatRangeError):
        eigenvalues(Matrix([[Fraction(1, 10**400)]]))
