"""First Chern class of the extended logarithmic connection.

The degree equals minus the sum over punctures of the residue traces, and
with the principal branch the residue trace at a puncture splits into the
multiplicity-weighted sum of the branch data q (which survives) plus the
sum of ln|lambda| terms (which cancel globally because the local
monodromies multiply to the identity).  We therefore sum only the q parts
and keep the ln-modulus closure defect as a diagnostic, never subtracting
large cancelling reals.
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
