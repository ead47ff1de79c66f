"""First Chern class of the extended logarithmic connection.

The degree equals minus the sum over punctures of the residue traces, and
with the principal branch the residue trace at a puncture splits into the
multiplicity-weighted sum of the branch data q (which survives) plus the
sum of ln|lambda| terms (which cancel globally because the local
monodromies multiply to the identity, as ``build`` makes them do).  We
therefore sum only the q parts, never subtracting large cancelling reals,
and report the ln-modulus closure defect without checking it.

The q's add up by ``q_total``, puncture by puncture and then across the
punctures: an unreduced int pair while every q is exact, a left-folded
float from the first floating q on.  Either total enters the one
integrality test as an int pair, a float by ``as_integer_ratio``, which is
exact: the nearest integer is found by ``divmod``, rounding half to even
as ``round`` does, and the defect is compared with the exact ratio of the
tolerance.  Floats are made only for the ChernResult and the error
message.  The ln|lambda| sums are left folds too, so that their bits do
not depend on the Python version (``sum`` compensates from 3.12 on).
"""

from __future__ import annotations

from collections import namedtuple

from .eigen import checked_tolerance, q_total
from .errors import NonIntegralChernClass
from .representation import PuncturedRepresentation

#: How far the raw q-sum may sit from an integer before the input is
#: declared inconsistent.
DEFAULT_INTEGRALITY_TOL = 1e-6

#: Every integrality tolerance lies below this bound, the largest distance
#: of a real number from an integer.
INTEGRALITY_TOL_BOUND = 0.5


class ChernResult(
    namedtuple("ChernResult", "c1 raw_q_sum integrality_defect ln_r_closure_defect exact")
):
    """c1 (int), the raw q-sum, its distance from the nearest integer and
    the ln-modulus closure defect (floats), and whether every q was exact."""

    __slots__ = ()


def ohtsuki_c1(
    prep: PuncturedRepresentation, tol: float = DEFAULT_INTEGRALITY_TOL
) -> ChernResult:
    """First Chern class of the extended bundle: minus the total q-sum.

    The total is an integer in exact arithmetic; the distance to the
    nearest integer measures input noise and must stay below ``tol``,
    which lies in (0, INTEGRALITY_TOL_BOUND) or raises InputFormatError.
    The ln|lambda| sum is reported, unchecked, as ``ln_r_closure_defect``.
    """
    tol = checked_tolerance(tol, "integrality_tol", INTEGRALITY_TOL_BOUND)
    ln_sum = 0
    for e in prep.local_eigen:
        ln_sum += e.ln_r_sum()

    # Summed puncture by puncture, so a floating total keeps its bits.
    total = q_total(
        (1, q_total((p.multiplicity, p.q) for p in e.pairs)) for e in prep.local_eigen
    )
    exact = total.__class__ is tuple
    n, d = total if exact else total.as_integer_ratio()
    k, rem = divmod(n, d)
    if 2 * rem > d or (2 * rem == d and k & 1):
        k += 1
    # Int true division rounds correctly, so these floats are those of the
    # exact total and defect.
    gap = abs(n - k * d)
    tn, td = tol.as_integer_ratio()
    if gap * td > tn * d:
        raise NonIntegralChernClass(
            f"residue q-sum {n / d!r} is {gap / d:.3e} from an integer "
            f"(tolerance {tol:.3e})"
        )
    return ChernResult(
        c1=-k,
        raw_q_sum=n / d,
        integrality_defect=gap / d,
        ln_r_closure_defect=abs(ln_sum),
        exact=exact,
    )
