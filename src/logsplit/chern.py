"""First Chern class of the extended logarithmic connection.

The degree equals minus the sum over punctures of the residue traces, and
with the principal branch the residue trace at a puncture splits into the
multiplicity-weighted sum of the branch data q (which survives) plus the
sum of ln|lambda| terms (which cancel globally because the local
monodromies multiply to the identity).  We therefore sum only the q parts
and keep the ln-modulus closure defect as a diagnostic, never subtracting
large cancelling reals.

When every q is exact, the integrality test runs on ints: the q's of all
punctures add up as one int pair, its nearest integer is found by
``divmod``, rounding half to even as ``round(Fraction)`` does, and the
defect is compared with the exact ratio of the tolerance.  Floats are
made only for the ChernResult and the error message; no Fraction is
built.  A floating q anywhere sends the sum down the puncture-by-puncture
fold of ``q_total``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eigen import checked_tolerance, q_total
from .errors import NonIntegralChernClass, ProductNotIdentity
from .representation import PuncturedRepresentation

#: Relative tolerance of the closure of the determinant moduli: the sum of
#: ln|lambda| over all punctures must vanish.
CLOSURE_TOL = 1e-8

#: How far the raw q-sum may sit from an integer before the input is
#: declared inconsistent.
DEFAULT_INTEGRALITY_TOL = 1e-6

#: Every integrality tolerance lies below this bound, the largest distance
#: of a real number from an integer.
INTEGRALITY_TOL_BOUND = 0.5


@dataclass(frozen=True)
class ChernResult:
    c1: int
    raw_q_sum: float
    integrality_defect: float
    ln_r_closure_defect: float
    exact: bool


def ohtsuki_c1(
    prep: PuncturedRepresentation, tol: float = DEFAULT_INTEGRALITY_TOL
) -> ChernResult:
    """First Chern class of the extended bundle: minus the total q-sum.

    The total is an integer in exact arithmetic; the distance to the
    nearest integer measures input noise and must stay below ``tol``,
    which lies in (0, INTEGRALITY_TOL_BOUND) or raises InputFormatError.
    The ln-modulus closure is checked first (ProductNotIdentity).
    """
    checked_tolerance(tol, "integrality_tol", INTEGRALITY_TOL_BOUND)
    ln_sum = sum(e.ln_r_sum() for e in prep.local_eigen)
    ln_scale = 1.0 + sum(
        abs(p.ln_r) * p.multiplicity for e in prep.local_eigen for p in e.pairs
    )
    if abs(ln_sum) > CLOSURE_TOL * ln_scale:
        raise ProductNotIdentity(
            f"determinant moduli do not close up: sum of ln|lambda| = {ln_sum:.3e}"
        )

    exact = _exact_q_sum(prep)
    if exact is not None:
        return _exact_c1(*exact, tol, abs(ln_sum))
    # Summed puncture by puncture, so a floating total keeps its bits.
    raw = q_total((1, e.q_sum()) for e in prep.local_eigen)
    nearest = round(raw)
    defect = abs(raw - nearest)
    if defect > tol:
        raise NonIntegralChernClass(
            f"residue q-sum {float(raw)!r} is {float(defect):.3e} from an integer "
            f"(tolerance {tol:.3e})"
        )
    return ChernResult(
        c1=-int(nearest),
        raw_q_sum=float(raw),
        integrality_defect=float(defect),
        ln_r_closure_defect=abs(ln_sum),
        exact=isinstance(raw, Fraction),
    )


def _exact_q_sum(prep: PuncturedRepresentation) -> tuple[int, int] | None:
    """The q-sum over all punctures as an int pair ``(n, d)``, d > 0 and
    not reduced, when every q is a Fraction; None otherwise."""
    n, d = 0, 1
    for e in prep.local_eigen:
        for p in e.pairs:
            q = p.q
            if q.__class__ is not Fraction:
                return None
            qn, qd = q.as_integer_ratio()
            if qd == d:
                n += p.multiplicity * qn
            else:
                n = n * qd + p.multiplicity * qn * d
                d *= qd
    return n, d


def _exact_c1(n: int, d: int, tol: float, ln_defect: float) -> ChernResult:
    """``ohtsuki_c1`` of the exact q-sum ``n / d``, on ints: the nearest
    integer k rounds half to even, as ``round(Fraction)`` does, and the
    defect ``|n - k d| / d`` is compared with ``tol`` exactly.  Int true
    division rounds correctly, so the floats match those of the Fraction
    sum."""
    k, rem = divmod(n, d)
    if 2 * rem > d or (2 * rem == d and k & 1):
        k += 1
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
        ln_r_closure_defect=ln_defect,
        exact=True,
    )
