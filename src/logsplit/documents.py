"""Structured input and output documents for the command line.

One JSON document in, one JSON document out.  Matrix entries come in two
encodings: cartesian ``{"re": x, "im": y}`` (a bare number is shorthand
for a real entry) and exact polar ``{"r": x, "q": "p/s"}`` with a rational
branch argument.  The polar form is the lifeline for branch-critical
cases: classification near q = 0 or q0 + q1 = 1 is discontinuous, and
only exact rational q's make it decidable.

Decode rules.  Each entry is decoded once, by one dispatch on its JSON
type (object, number, anything else), and each check runs once:

* a number, or a cartesian object whose ``re`` or ``im`` is 0, lies on an
  axis and is exact: its q is 0, 1/4, 1/2 or 3/4 and its modulus is the
  exact rational value of the JSON number (``0.1`` is its dyadic value);
* any other cartesian object is floating, decoded as a plain ``complex``;
* a polar object is exact: ``r`` is a positive number and ``q`` an
  integer or a rational string (``"2/3"``, ``"0.6"``, ``"1e-3"``) in
  [0, 1).  Float q's are refused, since they would be read as dyadic
  approximations.

Error contract.  Every malformed document raises InputFormatError, or
OutOfBranch for a polar q outside [0, 1), and the command line exits 1
with one ``error[...]`` line.  The message names the offending field
(``generators[g][i][j]`` for an entry), or the line and column of invalid
JSON.  That covers nesting too deep for the JSON decoder, integer
literals beyond the interpreter's digit limit, booleans, non-finite
numbers, moduli beyond the float range and q strings that would build
integers of more than MAX_Q_DIGITS digits.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from fractions import Fraction

from .eigen import checked_tolerance
from .errors import InputFormatError, OutOfBranch
from .matrix import MAX_DIM, Matrix
from .representation import SUPPORTED_PUNCTURES, Representation
from .scalar import Scalar
from .splitting import ClassificationReport

#: Python's default bound on the digits of an integer literal.  A polar q
#: string whose exponent would build a longer integer is rejected before
#: ``Fraction`` parses it (``"1e-10000000"`` would take seconds).
MAX_Q_DIGITS = 4300

_NUMBER_TYPES = (int, float)
_TOLERANCE_FIELDS = ("tol", "integrality_tol")


class InputDocument(
    namedtuple(
        "InputDocument",
        "punctures dim generators tol integrality_tol",
        defaults=(None, None),
    )
):
    """A parsed input document: ``punctures`` and ``dim`` (ints), the
    ``generators`` (a tuple of Matrix), and the document's ``tol`` and
    ``integrality_tol``, each a float or None where it gives none."""

    __slots__ = ()

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
    except ValueError as exc:  # only the interpreter's limit on integer digits raises this
        raise InputFormatError(
            f"invalid JSON: an integer literal has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise InputFormatError("invalid JSON: arrays or objects nested too deeply") from exc
    if not isinstance(raw, dict):
        raise InputFormatError("top level must be a JSON object")

    unknown = set(raw) - {"punctures", "dim", "generators", "tolerances"}
    if unknown:
        raise InputFormatError(f"unknown top-level fields: {sorted(unknown)}")

    punctures = _expect_int(raw, "punctures")
    if punctures not in SUPPORTED_PUNCTURES:
        supported = " or ".join(map(str, SUPPORTED_PUNCTURES))
        raise InputFormatError(f"punctures: must be {supported}, got {punctures}")
    dim = _expect_int(raw, "dim")
    if not 1 <= dim <= MAX_DIM:
        raise InputFormatError(f"dim: must lie in 1..{MAX_DIM}, got {dim}")

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

    tols: dict[str, float] = {}
    tolerances = raw.get("tolerances")
    if tolerances is not None:
        if not isinstance(tolerances, dict):
            raise InputFormatError("tolerances: must be an object")
        unknown = set(tolerances) - set(_TOLERANCE_FIELDS)
        if unknown:
            raise InputFormatError(f"tolerances: unknown fields {sorted(unknown)}")
        for field in _TOLERANCE_FIELDS:
            if field in tolerances:
                tols[field] = checked_tolerance(tolerances[field], f"tolerances.{field}")

    return InputDocument(punctures, dim, generators, **tols)


def _parse_matrix(raw, dim: int, path: str) -> Matrix:
    if type(raw) is not list or len(raw) != dim:
        raise InputFormatError(f"{path}: expected {dim} rows")
    rows = []
    for i, row in enumerate(raw):
        if type(row) is not list or len(row) != dim:
            raise InputFormatError(f"{path}[{i}]: expected {dim} entries")
        entries = []
        try:
            for j, entry in enumerate(row):
                entries.append(_parse_entry(entry))
        except (InputFormatError, OutOfBranch) as exc:
            raise type(exc)(f"{path}[{i}][{j}]: {exc}") from exc.__cause__
        rows.append(entries)
    return Matrix(rows)


def _parse_entry(raw) -> Scalar | complex:
    """Decode one matrix entry by a single dispatch on its JSON type.

    Errors carry no path; ``_parse_matrix`` prefixes it.
    """
    kind = type(raw)
    if kind is dict:
        size = len(raw)  # the key sets are tested by counting known keys
        if size and size == ("re" in raw) + ("im" in raw):
            re = raw.get("re", 0)
            im = raw.get("im", 0)
            if type(re) in _NUMBER_TYPES and type(im) in _NUMBER_TYPES:
                try:
                    modulus = math.hypot(re, im)
                except OverflowError:  # an integer beyond the float range
                    modulus = math.nan
                if modulus < math.inf:
                    return complex(re, im) if re and im else Scalar.exact(re, im)
                if modulus == math.inf and math.isfinite(re) and math.isfinite(im):
                    raise InputFormatError("modulus beyond the floating-point range")
            raise InputFormatError("re/im must be numbers")
        if "q" in raw and size == 1 + ("r" in raw):
            return _parse_polar(raw)
        raise InputFormatError(
            f"entry object must use fields {{re, im}} or {{r, q}}, got {sorted(raw)}"
        )
    if kind is float or kind is int:
        if _is_number(raw):
            return Scalar.exact(raw)
        raise InputFormatError("entries must be finite floating-point numbers")
    if kind is bool:
        raise InputFormatError("booleans are not matrix entries")
    raise InputFormatError("entry must be a number or an object")


def _parse_polar(raw: dict) -> Scalar:
    r = raw.get("r", 1)
    if not _is_number(r):
        raise InputFormatError("r must be a number")
    if r <= 0:
        raise InputFormatError("polar modulus r must be positive")
    q_raw = raw["q"]
    if type(q_raw) is str:
        if _q_digit_bound(q_raw) > MAX_Q_DIGITS:
            raise InputFormatError(
                f"cannot parse q = {q_raw!r} as a rational of at most {MAX_Q_DIGITS} digits"
            )
    elif type(q_raw) is not int:
        raise InputFormatError(
            "q must be a rational string such as \"2/3\" (floats would "
            "be read as dyadic approximations)"
        )
    try:
        q = Fraction(q_raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"cannot parse q = {q_raw!r} as a rational") from exc
    if not 0 <= q < 1:
        raise OutOfBranch(f"polar q = {q} outside [0, 1)")
    return Scalar.polar(r, q)


def _q_digit_bound(text: str) -> int:
    """The most digits of an integer that ``Fraction(text)`` builds from a
    decimal exponent: ``10**shift`` times the mantissa's digits, or a
    denominator ``10**-shift``.  Strings without a valid exponent build
    only integers of their own digit runs, which ``int`` bounds itself."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        shift = int(exponent)
    except ValueError:  # no exponent, or one that Fraction rejects
        return 0
    digits = sum(c.isdigit() for c in mantissa)
    shift -= sum(c.isdigit() for c in mantissa.partition(".")[2])
    return digits + shift if shift >= 0 else 1 - shift


def _is_number(v) -> bool:
    """A JSON number that converts to a finite float (integers of any
    length arrive as Python ints, which may not)."""
    kind = type(v)
    if kind is float:
        return math.isfinite(v)
    if kind is int:
        try:
            return math.isfinite(v)
        except OverflowError:
            return False
    return False


def _expect_int(raw: dict, key: str) -> int:
    v = raw.get(key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputFormatError(f"{key}: expected an integer")
    return v


# ---------------------------------------------------------------------------
# output


class OutputDocument(
    namedtuple(
        "OutputDocument",
        "kind c1 candidates ambiguous warnings raw_q_sum integrality_defect ln_r_closure_defect",
    )
):
    """The fields of a JSON output document: ``kind`` (str), ``c1`` (int),
    ``candidates`` (a tuple of root tuples), ``ambiguous`` (bool),
    ``warnings`` (a tuple of str) and the three float diagnostics."""

    __slots__ = ()

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
        return json.dumps(self.to_dict())


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
