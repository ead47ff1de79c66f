"""Splitting types of canonically extended logarithmic connections.

Given the local monodromies of a representation of the fundamental group
of the 2- or 3-punctured projective line, this package computes the first
Chern class of the extended bundle from the residue traces of the
principal-branch logarithms and emits the exact splitting into twisting
sheaves, including the one documented case where the answer is a
two-candidate ambiguity.
"""

from .chern import DEFAULT_INTEGRALITY_TOL, ChernResult, ohtsuki_c1
from .documents import (
    InputDocument,
    OutputDocument,
    parse_input_document,
    report_to_output,
)
from .eigen import (
    BRANCH_BOUNDARY,
    DEFAULT_CLUSTER_TOL,
    EIGENVALUE_UNCERTAIN,
    EigenData,
    EigenPair,
    eigenvalues,
)
from .errors import (
    DimensionMismatch,
    FloatRangeError,
    InputFormatError,
    InternalInconsistency,
    LogSplitError,
    NonIntegralChernClass,
    OutOfBranch,
    RootFindingDivergence,
    SingularMatrix,
    UnsupportedCase,
    ZeroEigenvalue,
)
from .matrix import Matrix, char_poly, mat_inverse, mat_mul
from .representation import (
    PuncturedRepresentation,
    Representation,
    build,
    conjugate,
    monodromy_at_infinity,
)
from .scalar import Scalar
from .splitting import (
    REDUCIBILITY_UNCERTAIN,
    ClassificationKind,
    ClassificationReport,
    InvariantLine,
    InvariantLineReport,
    SplittingType,
    character_root,
    classify,
    classify_dim2,
    invariant_lines,
    split_two_punctures,
)

__version__ = "0.1.0"


__all__ = [
    "BRANCH_BOUNDARY",
    "ChernResult",
    "ClassificationKind",
    "ClassificationReport",
    "DEFAULT_CLUSTER_TOL",
    "DEFAULT_INTEGRALITY_TOL",
    "DimensionMismatch",
    "EIGENVALUE_UNCERTAIN",
    "EigenData",
    "EigenPair",
    "FloatRangeError",
    "InputDocument",
    "InputFormatError",
    "InternalInconsistency",
    "InvariantLine",
    "InvariantLineReport",
    "LogSplitError",
    "Matrix",
    "NonIntegralChernClass",
    "OutOfBranch",
    "OutputDocument",
    "PuncturedRepresentation",
    "REDUCIBILITY_UNCERTAIN",
    "Representation",
    "RootFindingDivergence",
    "Scalar",
    "SingularMatrix",
    "SplittingType",
    "UnsupportedCase",
    "ZeroEigenvalue",
    "build",
    "char_poly",
    "character_root",
    "classify",
    "classify_dim2",
    "conjugate",
    "eigenvalues",
    "invariant_lines",
    "mat_inverse",
    "mat_mul",
    "monodromy_at_infinity",
    "ohtsuki_c1",
    "parse_input_document",
    "report_to_output",
    "split_two_punctures",
]
