"""Exception hierarchy for the logsplit engine.

Every failure mode the engine can report has its own class so that callers
(and the CLI exit-code mapping) can dispatch on type rather than on message
text.
"""


class LogSplitError(Exception):
    """Base class for all logsplit errors."""


class InputFormatError(LogSplitError):
    """Malformed input document; message carries the offending field path."""


class DimensionMismatch(LogSplitError):
    """Matrix/vector dimensions do not agree, or lie outside 1..8."""


class SingularMatrix(LogSplitError):
    """|det| at most SINGULARITY_TOL * max|entry|^n, in an inverse or a floating solve."""


class RootFindingDivergence(LogSplitError):
    """Simultaneous root iteration failed to converge within its budget."""


class FloatRangeError(LogSplitError):
    """A value left the floating-point range (overflow to inf, or NaN)."""


class ZeroEigenvalue(LogSplitError):
    """An eigenvalue is numerically zero; monodromies must be invertible."""


class OutOfBranch(LogSplitError):
    """A branch datum q lies outside the half-open interval [0, 1)."""


class NonIntegralChernClass(LogSplitError):
    """The residue-trace sum is farther from an integer than tolerated."""


class InternalInconsistency(LogSplitError):
    """Computed invariants contradict each other: a c1 the summands cannot split."""


class UnsupportedCase(LogSplitError):
    """Input is valid but outside the implemented classification range."""
