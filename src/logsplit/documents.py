"""Structured input and output documents for the command line.

One JSON document in, one JSON document out.  Matrix entries come in two
encodings: cartesian ``{"re": x, "im": y}`` (a bare number is shorthand
for a real entry) and exact polar ``{"r": x, "q": "p/s"}`` with a rational
branch argument.  The polar form is the lifeline for branch-critical
cases: classification near q = 0 or q0 + q1 = 1 is discontinuous, and
only exact rational q's make it decidable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputFormatError, OutOfBranch
from .matrix import Matrix
from .representation import Representation
from .scalar import Scalar
from .splitting import ClassificationReport


@dataclass(frozen=True)
class InputDocument:
    punctures: int
    dim: int
    generators: tuple[Matrix, ...]
    tol: float | None = None
    integrality_tol: float | None = None

    def representation(self) -> Representation:
        return Representation(self.punctures, self.generators)


def parse_input_document(text: str) -> InputDocument:
    """Parse and validate a JSON input document.

    Raises InputFormatError with the offending field path, or OutOfBranch
    for a polar q outside [0, 1).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise InputFormatError("top level must be a JSON object")

    unknown = set(raw) - {"punctures", "dim", "generators", "tolerances"}
    if unknown:
        raise InputFormatError(f"unknown top-level fields: {sorted(unknown)}")

    punctures = _expect_int(raw, "punctures")
    if punctures not in (2, 3):
        raise InputFormatError(f"punctures: must be 2 or 3, got {punctures}")
    dim = _expect_int(raw, "dim")
    if not 1 <= dim <= 8:
        raise InputFormatError(f"dim: must lie in 1..8, got {dim}")

    gens_raw = raw.get("generators")
    if not isinstance(gens_raw, list):
        raise InputFormatError("generators: must be a list of matrices")
    if len(gens_raw) != punctures - 1:
        raise InputFormatError(
            f"generators: expected {punctures - 1} matrices for {punctures} punctures, "
            f"got {len(gens_raw)}"
        )
    generators = tuple(
        _parse_matrix(g, dim, f"generators[{idx}]") for idx, g in enumerate(gens_raw)
    )

    tol = None
    integrality_tol = None
    tolerances = raw.get("tolerances")
    if tolerances is not None:
        if not isinstance(tolerances, dict):
            raise InputFormatError("tolerances: must be an object")
        unknown = set(tolerances) - {"tol", "integrality_tol"}
        if unknown:
            raise InputFormatError(f"tolerances: unknown fields {sorted(unknown)}")
        if "tol" in tolerances:
            tol = positive_tolerance(tolerances["tol"], "tolerances.tol")
        if "integrality_tol" in tolerances:
            integrality_tol = positive_tolerance(
                tolerances["integrality_tol"], "tolerances.integrality_tol"
            )

    return InputDocument(punctures, dim, generators, tol, integrality_tol)


def _parse_matrix(raw, dim: int, path: str) -> Matrix:
    if not isinstance(raw, list) or len(raw) != dim:
        raise InputFormatError(f"{path}: expected {dim} rows")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise InputFormatError(f"{path}[{i}]: expected {dim} entries")
        rows.append([_parse_entry(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)])
    return Matrix(rows)


def _parse_entry(raw, path: str) -> Scalar:
    if isinstance(raw, bool):
        raise InputFormatError(f"{path}: booleans are not matrix entries")
    if isinstance(raw, (int, float)):
        if not _is_number(raw):
            raise InputFormatError(f"{path}: entries must be finite floating-point numbers")
        return Scalar.exact(raw)
    if not isinstance(raw, dict):
        raise InputFormatError(f"{path}: entry must be a number or an object")
    keys = set(raw)
    if keys <= {"re", "im"} and keys:
        re = raw.get("re", 0)
        im = raw.get("im", 0)
        if not _is_number(re) or not _is_number(im):
            raise InputFormatError(f"{path}: re/im must be numbers")
        if not math.isfinite(math.hypot(re, im)):
            raise InputFormatError(f"{path}: modulus beyond the floating-point range")
        return Scalar.exact(re, im)
    if "q" in keys and keys <= {"r", "q"}:
        r = raw.get("r", 1)
        if not _is_number(r):
            raise InputFormatError(f"{path}: r must be a number")
        if r <= 0:
            raise InputFormatError(f"{path}: polar modulus r must be positive")
        q_raw = raw["q"]
        if isinstance(q_raw, bool) or not isinstance(q_raw, (str, int)):
            raise InputFormatError(
                f"{path}: q must be a rational string such as \"2/3\" (floats would "
                "be read as dyadic approximations)"
            )
        try:
            q = Fraction(q_raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"{path}: cannot parse q = {q_raw!r} as a rational") from exc
        if not 0 <= q < 1:
            raise OutOfBranch(f"{path}: polar q = {q} outside [0, 1)")
        return Scalar.polar(r, q)
    raise InputFormatError(
        f"{path}: entry object must use fields {{re, im}} or {{r, q}}, got {sorted(keys)}"
    )


def _is_number(v) -> bool:
    """A JSON number that converts to a finite float (integers of any
    length arrive as Python ints, which may not)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _expect_int(raw: dict, key: str) -> int:
    v = raw.get(key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputFormatError(f"{key}: expected an integer")
    return v


def positive_tolerance(value, where: str) -> float:
    """``value`` as a float when it is a finite number above zero, else
    InputFormatError naming ``where`` (a document field or a flag)."""
    if not _is_number(value) or value <= 0:
        raise InputFormatError(f"{where}: expected a finite number above zero, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# output


@dataclass(frozen=True)
class OutputDocument:
    kind: str
    c1: int
    candidates: tuple[tuple[int, ...], ...]
    ambiguous: bool
    warnings: tuple[str, ...]
    raw_q_sum: float
    integrality_defect: float
    ln_r_closure_defect: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "c1": self.c1,
            "candidates": [list(c) for c in self.candidates],
            "ambiguous": self.ambiguous,
            "warnings": list(self.warnings),
            "diagnostics": {
                "raw_q_sum": self.raw_q_sum,
                "integrality_defect": self.integrality_defect,
                "ln_r_closure_defect": self.ln_r_closure_defect,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(", ", ": "))

    @classmethod
    def from_dict(cls, raw: dict) -> "OutputDocument":
        diag = raw["diagnostics"]
        return cls(
            kind=raw["kind"],
            c1=raw["c1"],
            candidates=tuple(tuple(c) for c in raw["candidates"]),
            ambiguous=raw["ambiguous"],
            warnings=tuple(raw["warnings"]),
            raw_q_sum=diag["raw_q_sum"],
            integrality_defect=diag["integrality_defect"],
            ln_r_closure_defect=diag["ln_r_closure_defect"],
        )

    @classmethod
    def from_json(cls, text: str) -> "OutputDocument":
        return cls.from_dict(json.loads(text))


def report_to_output(report: ClassificationReport) -> OutputDocument:
    return OutputDocument(
        kind=report.kind.value,
        c1=report.c1,
        candidates=tuple(c.roots for c in report.candidates),
        ambiguous=report.ambiguous,
        warnings=report.warnings,
        raw_q_sum=report.chern.raw_q_sum,
        integrality_defect=report.chern.integrality_defect,
        ln_r_closure_defect=report.chern.ln_r_closure_defect,
    )
