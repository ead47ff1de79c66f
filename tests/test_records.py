"""The result records: what importing the package loads, and how the
records behave.  Every record is a named tuple; these tests pin the
behaviour that they kept from the frozen dataclasses they replaced, and
the launch footprint that the replacement bought."""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import logsplit
from logsplit import (
    ClassificationKind,
    ClassificationReport,
    DimensionMismatch,
    InternalInconsistency,
    Matrix,
    PuncturedRepresentation,
    Representation,
    SplittingType,
    build,
    classify,
    invariant_lines,
    ohtsuki_c1,
    parse_input_document,
    report_to_output,
)
from logsplit.cli import EXIT_OK, main

GOLDEN = '{"punctures": 3, "dim": 2, "generators": [[[1, 0], [0, -1]], [[-0.5, 1], [0.75, 0.5]]]}'

#: Modules that ``import logsplit.cli`` must not load: class generation
#: (dataclasses, which pulls in inspect), pathlib and typing.
UNWANTED = ("dataclasses", "inspect", "pathlib", "typing")

_FOOTPRINT = f"""
import json, sys
import logsplit, logsplit.cli
loaded = [m for m in {UNWANTED!r} if m in sys.modules]
namespace = {{}}
exec("from logsplit import *", namespace)
missing = sorted(set(logsplit.__all__) - set(namespace))
after = [m for m in {UNWANTED!r} if m in sys.modules]
print(json.dumps([loaded, missing, after]))
"""


def test_import_loads_no_class_generation_pathlib_or_typing():
    # -S: no site-packages, whose .pth files may import any of these first.
    src = os.path.dirname(os.path.dirname(os.path.abspath(logsplit.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    loaded, missing, after = json.loads(proc.stdout)
    assert loaded == []
    # `import *` finds every exported name, still without loading the
    # unwanted standard-library modules.
    assert missing == []
    assert after == []


@pytest.mark.parametrize(
    "name",
    # The last five were exported once: the self-test's three names,
    # normalized_arg and its ZeroArgument.
    ["no_such_name", "run_selftest", "CheckResult", "golden_representation",
     "normalized_arg", "ZeroArgument"],
)
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(logsplit, name)
    assert name not in logsplit.__all__


def _records() -> dict:
    """One instance of every record type, with its field names in order."""
    doc = parse_input_document(GOLDEN)
    rep = doc.representation()
    prep = build(rep)
    report = classify(rep)
    lines = invariant_lines(Matrix([[1, 0], [0, 2]]), Matrix([[1, 0], [0, 3]]))
    eigen = prep.local_eigen[0]
    return {
        "Representation": (rep, ("punctures", "generators")),
        "PuncturedRepresentation": (prep, ("rep", "local_eigen", "integer_forms")),
        "EigenData": (eigen, ("pairs", "warnings")),
        "EigenPair": (eigen.pairs[0], ("value", "multiplicity", "q", "ln_r")),
        "ChernResult": (
            ohtsuki_c1(prep),
            ("c1", "raw_q_sum", "integrality_defect", "ln_r_closure_defect", "exact"),
        ),
        "SplittingType": (report.candidates[0], ("roots",)),
        "InvariantLine": (lines.lines[0], ("direction", "sub_eigen_pair", "quotient_eigen_pair")),
        "InvariantLineReport": (lines, ("lines", "decomposable", "warnings")),
        "ClassificationReport": (report, ("kind", "candidates", "warnings", "chern")),
        "InputDocument": (doc, ("punctures", "dim", "generators", "tol", "integrality_tol")),
        "OutputDocument": (
            report_to_output(report),
            ("kind", "c1", "candidates", "ambiguous", "warnings",
             "raw_q_sum", "integrality_defect", "ln_r_closure_defect"),
        ),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_refuse_assignment(name):
    obj, fields = RECORDS[name]
    assert type(obj).__name__ == name
    for field in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_and_hash_by_fields(name):
    obj, fields = RECORDS[name]
    values = tuple(getattr(obj, f) for f in fields)
    again = type(obj)(*values)
    # A PuncturedRepresentation's integer_forms are derived from its rep.
    compared = values[:2] if name == "PuncturedRepresentation" else values
    assert again is not obj and again == obj and hash(again) == hash(obj) == hash(compared)
    assert type(obj)(**dict(zip(fields, values))) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj
    # The repr names every field, in order, with its value's repr.
    inner = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(obj) == f"{name}({inner})"


def test_a_punctured_representation_compares_without_its_integer_forms():
    prep, _ = RECORDS["PuncturedRepresentation"]
    bare = PuncturedRepresentation(prep.rep, prep.local_eigen)
    assert bare.integer_forms is None and prep.integer_forms is not None
    assert prep == bare and bare == prep and not prep != bare and hash(prep) == hash(bare)
    assert prep != PuncturedRepresentation(prep.rep, prep.local_eigen[::-1], prep.integer_forms)
    # A plain tuple compares as the two compared fields, so equal values
    # hash equal, and the three fields are not that tuple.
    pair = (prep.rep, prep.local_eigen)
    assert prep == pair and pair == prep and hash(prep) == hash(pair)
    assert prep != tuple(prep) and tuple(prep) != prep


def test_records_differ_when_a_field_differs():
    chern, _ = RECORDS["ChernResult"]
    assert chern._replace(c1=chern.c1 + 1) != chern
    assert SplittingType((0, -1)) != SplittingType((-1, -1))
    a, b = (Representation(2, (Matrix([[x]]),)) for x in (2, 3))
    assert a != b


def test_reprs_are_pinned():
    report, _ = RECORDS["ClassificationReport"]
    assert repr(report) == (
        "ClassificationReport(kind=<ClassificationKind.THREE_DIM2_IRREDUCIBLE: "
        "'ThreeDim2Irreducible'>, candidates=(SplittingType(roots=(-1, -1)),), warnings=(), "
        "chern=ChernResult(c1=-2, raw_q_sum=2.0, integrality_defect=0.0, "
        "ln_r_closure_defect=0.0, exact=True))"
    )
    assert repr(build(Representation(2, (Matrix([[2]]),)))) == (
        "PuncturedRepresentation(rep=Representation(punctures=2, "
        "generators=(Matrix[Scalar(2*e2pi(0))],)), local_eigen=(EigenData(pairs=("
        "EigenPair(value=Scalar(2*e2pi(0)), multiplicity=1, q=Fraction(0, 1), "
        "ln_r=0.6931471805599453),), warnings=()), EigenData(pairs=(EigenPair("
        "value=Scalar(1/2*e2pi(0)), multiplicity=1, q=Fraction(0, 1), "
        "ln_r=-0.6931471805599453),), warnings=())), integer_forms=(None,))"
    )


def _one_candidate_ambiguous():
    chern, _ = RECORDS["ChernResult"]
    kind = ClassificationKind.THREE_DIM2_REDUCIBLE_AMBIGUOUS
    return ClassificationReport(kind, (SplittingType((-1, -1)),), (), chern)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: SplittingType((-1, 0)), InternalInconsistency,
         "splitting roots must be sorted descending"),
        (lambda: Representation(4, (Matrix([[1]]),) * 3), DimensionMismatch,
         "punctures must be one of (2, 3), got 4"),
        (lambda: Representation(3, (Matrix([[1]]),)), DimensionMismatch,
         "3 punctures require 2 generators, got 1"),
        (lambda: Representation(3, (Matrix([[1]]), Matrix.identity(2))), DimensionMismatch,
         "all generators must share one dimension"),
        (_one_candidate_ambiguous, InternalInconsistency,
         "exactly two candidates are allowed iff the report is ambiguous"),
    ],
)
def test_records_validate(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_validation_normalises_fields():
    assert SplittingType([Fraction(0), -1.0]).roots == (0, -1)
    m = Matrix([[2]])
    assert Representation(2, [m]).generators == (m,)


def test_replace_validates_as_construction_does():
    split, _ = RECORDS["SplittingType"]
    with pytest.raises(InternalInconsistency):
        split._replace(roots=(-1, 0))
    rep, _ = RECORDS["Representation"]
    with pytest.raises(DimensionMismatch):
        rep._replace(punctures=2)
    report, _ = RECORDS["ClassificationReport"]
    with pytest.raises(InternalInconsistency):
        report._replace(kind=ClassificationKind.THREE_DIM2_REDUCIBLE_AMBIGUOUS)


def test_c1_prints_the_golden_bytes(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(GOLDEN, encoding="utf-8")
    assert main(["c1", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        '{"c1": -2, "raw_q_sum": 2.0, "integrality_defect": 0.0, '
        '"ln_r_closure_defect": 0.0, "exact": true}\n'
    )
