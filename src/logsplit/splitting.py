"""Splitting type of the extended bundle: the classification theorems.

A line summand's root is its degree, and degrees add, so the roots are c1
split over the summands.  Two punctures, any dimension: O(-1)^(-c1) plus
O(0) for the rest.  Three punctures: a character's root is c1; an
irreducible 2x2 pair balances around c1/2; a decomposable pair has two
character summands and a uniquely reducible pair a sub and a quotient
line.  The only test per summand is the origin test (q0 = q1 = 0, root
0); the others share c1 at -1 or -2 each, so c1's integer rounding alone
decides the diagonal q0 + q1 = 1.  A c1 that does not split this way is
InternalInconsistency.

Whether a 2x2 pair is reducible, and along which line, is decided from
the commutator C = m0 m1 - m1 m0 by one of three routes, in this order:
on integers when all eight entries are exact reals, read from the
generators' integer forms that ``build`` made (a hand-built
PuncturedRepresentation, or a pair handed to ``invariant_lines``, is
cleared here, for the same core); in Scalar arithmetic
for other pairs, where an exact C and det C decide exactly and a floating
C that is not zero at tol keeps its one candidate line, ker C, when both
members preserve it at tol; and by floating eigendirections for pairs
that commute, exactly or at tol.  The first two give the same values on
exact pairs, and every route compares exact moduli exactly when it picks
and normalizes a kernel direction.

Sub at -2 over a quotient at the origin is the (-2, 0) case.  Its answer
is O(-1) + O(-1); it is not two-valued:
  * Let D = {0, 1, oo} and E the canonical extension.  E's sub line L is
    the saturation of the invariant line; its residues are E's residues
    on that line, so L is the sub character's canonical extension,
    O(-2).  Likewise the quotient is O.
  * Extensions 0 -> (L, nabla) -> (E, nabla) -> (O, d) -> 0 of log
    connections are classified by H^1 of the complex
    [L -> L (x) Omega^1(log D)].  Its map to the bundle class in
    H^1(L) = H^1(O(-2)) = C has kernel H^0(L (x) Omega^1(log D)) =
    H^0(O(-1)) = 0.
  * A pair with only one invariant line is a non-split local system, and
    a split log connection would split it, so the bundle class is
    nonzero.  A non-split extension of O by O(-2) on P^1 is
    O(-1) + O(-1): O(a) + O(-2 - a) with a >= 1 has no surjection onto O,
    and a surjection from O + O(-2) onto O is an isomorphism on O: split.
  * The split (decomposable) pair is O + O(-2), a ThreeDim2Decomposable
    answer.  No other (sub, quotient) pair has a nonzero Ext^1:
    H^1(O(d_sub - d_quot)) != 0 only when d_sub - d_quot <= -2.
The report still lists both candidates, (-1, -1) and (0, -2), as
ThreeDim2ReducibleAmbiguous, until a numerical check of a reducible
family with this monodromy corroborates the argument.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum, unique
from fractions import Fraction

from .chern import DEFAULT_INTEGRALITY_TOL, ChernResult, ohtsuki_c1
from .eigen import DEFAULT_CLUSTER_TOL, TOL_BOUND, EigenData, IntegerForm, _solve
from .eigen import checked_tolerance, integer_form
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    OutOfBranch,
    UnsupportedCase,
)
from .matrix import Matrix
from .representation import PuncturedRepresentation, Representation, build
from .scalar import ONE, ZERO, Scalar, is_exact, modulus, modulus_at_least, quotient
from .scalar import real_scalar, value_of


@unique
class ClassificationKind(Enum):
    CHARACTER = "Character"
    TWO_PUNCTURE_GENERAL = "TwoPunctureGeneral"
    THREE_CHARACTER = "ThreeCharacter"
    THREE_DIM2_DECOMPOSABLE = "ThreeDim2Decomposable"
    THREE_DIM2_REDUCIBLE_SPLIT = "ThreeDim2ReducibleSplit"
    THREE_DIM2_REDUCIBLE_AMBIGUOUS = "ThreeDim2ReducibleAmbiguous"
    THREE_DIM2_IRREDUCIBLE = "ThreeDim2Irreducible"


class SplittingType(namedtuple("SplittingType", "roots")):
    """Twisting parameters ``roots`` of the splitting, ints sorted
    descending."""

    __slots__ = ()

    def __new__(cls, roots):
        roots = tuple(int(r) for r in roots)
        if list(roots) != sorted(roots, reverse=True):
            raise InternalInconsistency("splitting roots must be sorted descending")
        return tuple.__new__(cls, (roots,))

    @classmethod
    def _make(cls, iterable):
        # So that ``_replace`` validates too.
        return cls(*iterable)

    @property
    def degree(self) -> int:
        return sum(self.roots)


#: A pair of values, each an exact Scalar or a complex: a 2x2 direction,
#: or the eigenvalues of m0 and m1 on a line.
Pair = tuple[Scalar | complex, Scalar | complex]


class InvariantLine(
    namedtuple("InvariantLine", "direction sub_eigen_pair quotient_eigen_pair")
):
    """A line invariant under m0 and m1: its ``direction``, and the Pairs
    of eigenvalues of m0 and m1 on the line and on the quotient."""

    __slots__ = ()


class InvariantLineReport(namedtuple("InvariantLineReport", "lines decomposable")):
    """The invariant ``lines`` (a tuple of InvariantLine) of a 2x2 pair,
    and whether the pair is ``decomposable`` (a bool)."""

    __slots__ = ()


class ClassificationReport(
    namedtuple("ClassificationReport", "kind candidates warnings chern")
):
    """The ClassificationKind, the candidate SplittingTypes (two exactly
    when the kind is the ambiguous one), the warnings and the
    ChernResult."""

    __slots__ = ()

    def __new__(cls, kind, candidates, warnings, chern):
        ambiguous = kind is ClassificationKind.THREE_DIM2_REDUCIBLE_AMBIGUOUS
        if (len(candidates) == 2) != ambiguous:
            raise InternalInconsistency(
                "exactly two candidates are allowed iff the report is ambiguous"
            )
        return tuple.__new__(cls, (kind, candidates, warnings, chern))

    @classmethod
    def _make(cls, iterable):
        # So that ``_replace`` validates too.
        return cls(*iterable)

    @property
    def c1(self) -> int:
        return self.chern.c1

    @property
    def ambiguous(self) -> bool:
        return len(self.candidates) == 2


def character_root(q0: Fraction | float | int, q1: Fraction | float | int) -> int:
    """Root of a three-puncture character with branch data (q0, q1).

    0 at the origin, -1 on the closed region q0 + q1 <= 1 minus the
    origin, -2 above the diagonal q0 + q1 = 1.
    """
    for q in (q0, q1):
        if not 0 <= q < 1:
            raise OutOfBranch(f"branch datum {q!r} outside [0, 1)")
    if q0 == 0 and q1 == 0:
        return 0
    if q0 + q1 <= 1:
        return -1
    return -2


# ---------------------------------------------------------------------------
# invariant lines of a 2x2 pair

_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = 1 / _NORMAL_MIN


def invariant_lines(m0: Matrix, m1: Matrix, tol: float = DEFAULT_CLUSTER_TOL) -> InvariantLineReport:
    """Common eigendirections of an invertible 2x2 pair: none when it is
    irreducible, two when it decomposes into characters.

    The pair shares an eigenvector iff C = m0 m1 - m1 m0 has det C = 0
    (Shemesh, Lin. Alg. Appl. 62, 1984), and a pair with C != 0 shares at
    most the line ker C.  C is worked out on integers when all eight
    entries are exact reals, else in Scalar arithmetic, and an exact C and
    det C decide alone.  ker C is spanned by the candidate (c01, -c00) or
    (c00, c10) with the larger entry, normalized at its larger slot, where
    two exact values compare by their exact moduli and any other pair by
    float moduli.  A floating C with max|c_ij| > tol max|m0| max|m1| makes
    ker C the one candidate v: a line when each member maps v to a w with
    |v x w| < tol |v| |w|, else none (a bound on det C would be relative
    to C, not to the pair).  A pair that commutes, exactly or at ``tol``,
    or whose C or bound leaves the normal float range, keeps the
    eigendirections v of a non-scalar member that the other maps to such a
    w.  v comes from the member with the larger relative eigenvalue gap
    |lam1 - lam2| / max|entry|, whose eigenvectors are the better
    conditioned (Stewart & Sun, Matrix Perturbation Theory, ch. V): m0 on
    a tie, the other member when that one is scalar at ``tol``.
    Eigenvalues are solved only when this branch is reached.  Each line
    carries the eigenvalues of m0 and m1 on it, read at the slot of v that
    holds the exact ONE, and the quotient det/lambda.  A ``tol`` outside
    (0, TOL_BOUND) raises InputFormatError.
    """
    return _invariant_lines(m0, m1, checked_tolerance(tol, "tol", TOL_BOUND), None, None)


def _invariant_lines(
    m0: Matrix,
    m1: Matrix,
    tol: float,
    eigen: tuple[EigenData, EigenData] | None,
    forms: tuple[IntegerForm | None, IntegerForm | None] | None,
) -> InvariantLineReport:
    """``invariant_lines`` at a checked ``tol``, given the eigenvalues and
    the integer forms of m0 and m1 where they were made: when None, the
    eigenvalues are solved on demand and the pair is cleared here."""
    if m0.n != 2 or m1.n != 2:
        raise DimensionMismatch("invariant-line analysis requires 2x2 matrices")
    if forms is None:
        forms = (integer_form(m0), integer_form(m1))
    x, y = forms
    if x is not None and y is not None:
        lines, exact = _integer_lines(x, y), True
        if lines is not None:
            return InvariantLineReport(lines, False)
    else:
        # The commutator C = m0 m1 - m1 m0 in Scalar arithmetic; C has trace 0.
        (a, b), (c, d) = m0.rows
        (e, f), (g, h) = m1.rows
        a_d, e_h = a - d, e - h
        c00 = b * g - f * c
        c01 = f * a_d - b * e_h
        c10 = c * e_h - g * a_d
        det_c = c00 * c00 + c01 * c10  # det C = -det_c
        exact = all(map(is_exact, (c00, c01, c10, det_c)))
        if exact:
            if not det_c.is_exact_zero:
                return InvariantLineReport((), False)
            commuting = c00.is_exact_zero and c01.is_exact_zero and c10.is_exact_zero
        else:
            # Non-commuting relative to the pair.  A bound or a C whose
            # reciprocal leaves the normal float range leaves the decision to
            # the eigendirections.
            sizes = [modulus(c00), modulus(c01), modulus(c10)]
            bound = tol * m0.max_abs() * m1.max_abs()
            commuting = not (_NORMAL_MIN <= bound < max(sizes)
                             and all(s <= _NORMAL_MAX for s in sizes))
        if not commuting:
            # A non-commuting pair shares at most the line ker C.
            v = _kernel_direction((c01, -c00), (c00, c10))
            kept = exact or _preserved(m0, v, tol) and _preserved(m1, v, tol)
            return InvariantLineReport(_lines(m0, m1, (v,) if kept else ()), False)

    if eigen is None:
        eigen = (_solve(m0, tol, x), _solve(m1, tol, y))
    # Relative eigenvalue gaps, 0 for a single cluster.
    gap0, gap1 = (modulus(data.pairs[0].value.z - data.pairs[-1].value.z) / m.max_abs()
                  for m, data in zip((m0, m1), eigen))
    members = ((m0, eigen[0], m1), (m1, eigen[1], m0))
    for source, source_eigen, other in members[::-1] if gap1 > gap0 else members:
        if source.scalar_value(tol) is None:
            break
    else:
        axes = ((ONE, ZERO), (ZERO, ONE))
        return InvariantLineReport(_lines(m0, m1, axes), True)
    directions = _eigendirections(source, source_eigen)
    kept = [v for v in directions if exact or _preserved(other, v, tol)]
    return InvariantLineReport(_lines(m0, m1, kept), len(kept) >= 2)


def _integer_lines(
    x: IntegerForm, y: IntegerForm
) -> tuple[InvariantLine, ...] | None:
    """The commutator's decision for an exact real pair, from the integer
    forms of m0 and m1: no line when det C != 0, the line ker C, or None
    when C = 0.

    m0 = A / s and m1 = B / t with integer A = [[a, b], [c, d]] and B =
    [[e, f], [g, h]], so C = (AB - BA) / st has the zeros, the kernel and
    the ratios of entry moduli of K = AB - BA.  Each value is built once,
    as Scalar arithmetic on the entries would leave it: a reduced real,
    ZERO for 0, and ONE at the leading slot of the direction.
    """
    (s, (a, b, c, d)), (t, (e, f, g, h)) = x, y
    a_d, e_h = a - d, e - h
    k00 = b * g - f * c
    k01 = f * a_d - b * e_h
    k10 = c * e_h - g * a_d
    if k00 * k00 + k01 * k10:
        return ()
    if not (k00 or k01 or k10):
        return None
    # _kernel_direction on integers: the candidate with the larger entry,
    # whose larger slot is the leading one.
    v0, v1 = (k01, -k00) if max(abs(k01), abs(k00)) >= max(abs(k00), abs(k10)) else (k00, k10)
    if abs(v0) >= abs(v1):
        lead, direction, rows = v0, (ONE, _real(v1, v0)), ((a, b), (e, f))
    else:
        lead, direction, rows = v1, (_real(v0, v1), ONE), ((c, d), (g, h))
    # (m v)_i = lam v_i at the leading slot i: lam = (row_i . v) / (scale v_i),
    # and the quotient det / lam.
    l0, l1 = (p * v0 + q * v1 for p, q in rows)
    sub = (_real(l0, s * lead), _real(l1, t * lead))
    quotients = (_real((a * d - b * c) * lead, s * l0), _real((e * h - f * g) * lead, t * l1))
    return (InvariantLine(direction, sub, quotients),)


def _real(n: int, d: int) -> Scalar:
    """The exact real n / d as Scalar arithmetic yields it: ZERO for 0, and
    ZeroDivisionError for d = 0, as a Scalar division by ZERO raises."""
    if not d:
        raise ZeroDivisionError("reciprocal of exact zero")
    return real_scalar(n, d) if d > 0 else real_scalar(-n, -d)


def _preserved(m: Matrix, v: Pair, tol: float) -> bool:
    w = m.apply(v)
    cross = v[0] * w[1] - v[1] * w[0]
    if is_exact(cross):
        return cross.is_exact_zero
    return modulus(cross) < tol * math.hypot(*map(modulus, v)) * math.hypot(*map(modulus, w))


def _lines(m0: Matrix, m1: Matrix, directions) -> tuple[InvariantLine, ...]:
    """The invariant lines along the normalized ``directions``.  Each
    carries the eigenvalues of m0 and m1 on it, read at the slot of the
    direction that holds the exact ONE, and on the quotient det / lambda,
    from determinants computed once for all the lines."""
    if not directions:
        return ()
    det0, det1 = m0.det(), m1.det()
    lines = []
    for v in directions:
        i = 0 if v[0] is ONE else 1
        lams = tuple(row[0] * v[0] + row[1] * v[1] for row in (m0.rows[i], m1.rows[i]))
        lines.append(InvariantLine(v, lams, (quotient(det0, lams[0]), quotient(det1, lams[1]))))
    return tuple(lines)


def _eigendirections(m: Matrix, eigen: EigenData) -> list[Pair]:
    """One direction per distinct eigenvalue of a non-scalar 2x2."""
    (a, b), (c, d) = m.rows
    # Kernel of (m - lam I): orthogonal complements of its two rows.
    lams = (value_of(p.value) for p in eigen.pairs)
    kernels = (_kernel_direction((b, lam - a), (lam - d, c)) for lam in lams)
    return [v for v in kernels if v is not None]


def _kernel_direction(u1: Pair, u2: Pair) -> Pair | None:
    """The candidate kernel vector with the larger entry, normalized; None
    when both vanish.  Moduli compare as ``modulus_at_least`` compares
    them, so an exact entry whose float modulus underflows to 0.0 is not
    taken for zero."""
    top1 = u1[0] if modulus_at_least(*u1) else u1[1]
    top2 = u2[0] if modulus_at_least(*u2) else u2[1]
    v, top = (u1, top1) if modulus_at_least(top1, top2) else (u2, top2)
    if top == 0:
        return None
    return _normalize_direction(v)


def _normalize_direction(v: Pair) -> Pair:
    # Directions are projective: the leading slot, the larger one, becomes
    # the literal exact ONE (not v_i / v_i, which would inherit the scale
    # factor's inexactness), which is how _lines finds it.
    if modulus_at_least(*v):
        return (ONE, quotient(v[1], v[0]))
    return (quotient(v[0], v[1]), ONE)


# ---------------------------------------------------------------------------
# classification operations


def split_two_punctures(
    prep: PuncturedRepresentation,
    tol: float = DEFAULT_CLUSTER_TOL,
    integrality_tol: float = DEFAULT_INTEGRALITY_TOL,
) -> ClassificationReport:
    """Splitting on two punctures, any dimension: one O(-1) per
    eigenvalue of the generator off the positive real axis, which c1
    counts.  The eigenvalues were solved at the build's tolerance; a
    ``tol`` outside (0, TOL_BOUND) raises InputFormatError."""
    if prep.punctures != 2:
        raise DimensionMismatch("two-puncture splitting requires 2 punctures")
    checked_tolerance(tol, "tol", TOL_BOUND)
    chern = ohtsuki_c1(prep, integrality_tol)
    n, k = prep.dim, -chern.c1
    if not 0 <= k <= n:
        raise InternalInconsistency(f"c1 = {chern.c1} does not split into {n} roots 0 or -1")
    roots = SplittingType((0,) * (n - k) + (-1,) * k)
    kind = (
        ClassificationKind.CHARACTER if n == 1 else ClassificationKind.TWO_PUNCTURE_GENERAL
    )
    return ClassificationReport(kind, (roots,), prep.warnings(), chern)


def classify_dim2(
    prep: PuncturedRepresentation,
    tol: float = DEFAULT_CLUSTER_TOL,
    integrality_tol: float = DEFAULT_INTEGRALITY_TOL,
) -> ClassificationReport:
    """Three punctures, dimension 2: the full reducibility case split.
    Like ``ohtsuki_c1``, it reads m0's and m1's eigenvalues from
    ``prep.local_eigen``, solved at the build's tolerance, and their
    integer forms from ``prep.integer_forms``, or clears them when it is
    None.  A ``tol`` outside (0, TOL_BOUND) raises InputFormatError."""
    if prep.punctures != 3 or prep.dim != 2:
        raise DimensionMismatch("classify_dim2 requires 3 punctures and dimension 2")
    tol = checked_tolerance(tol, "tol", TOL_BOUND)
    chern = ohtsuki_c1(prep, integrality_tol)
    zeta = chern.c1
    m0, m1 = prep.rep.generators
    eigen = prep.local_eigen[:2]
    report = _invariant_lines(m0, m1, tol, eigen, prep.integer_forms)

    if not report.lines:
        # Irreducible: the roots balance around c1 / 2.
        kind, roots = ClassificationKind.THREE_DIM2_IRREDUCIBLE, [(zeta + 1) // 2, zeta // 2]
    elif report.decomposable:
        kind = ClassificationKind.THREE_DIM2_DECOMPOSABLE
        roots = _summand_roots([line.sub_eigen_pair for line in report.lines], zeta, eigen)
    else:
        line = report.lines[0]
        roots = _summand_roots([line.sub_eigen_pair, line.quotient_eigen_pair], zeta, eigen)
        if roots == [-2, 0]:
            kind = ClassificationKind.THREE_DIM2_REDUCIBLE_AMBIGUOUS
            candidates = (SplittingType((-1, -1)), SplittingType((0, -2)))
            return ClassificationReport(kind, candidates, prep.warnings(), chern)
        kind = ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT
    candidates = (SplittingType(tuple(sorted(roots, reverse=True))),)
    return ClassificationReport(kind, candidates, prep.warnings(), chern)


def _summand_roots(
    summands: list[Pair], zeta: int, eigen: tuple[EigenData, EigenData]
) -> list[int]:
    """c1 split over line summands, given by their eigenvalue pairs at
    punctures 0 and 1: 0 for a summand at the origin (both q = 0), -1 or
    -2 for each of the others.  Each q is the one the solve in ``eigen``,
    m0's and m1's EigenData, decided for that eigenvalue, so the origin
    test reads the branch decisions c1 was summed from.  Two of the
    others are reported sorted, so which one takes the -2 does not
    matter."""
    at_origin = [
        all(_solved_q(lam, data) == 0 for lam, data in zip(pair, eigen)) for pair in summands
    ]
    off = at_origin.count(False)
    twos = -zeta - off
    if not 0 <= twos <= off:
        raise InternalInconsistency(
            f"c1 = {zeta} does not split over {off} summands off the origin at -1 or -2"
        )
    roots = iter([-2] * twos + [-1] * (off - twos))
    return [0 if origin else next(roots) for origin in at_origin]


def _solved_q(lam: Scalar | complex, data: EigenData) -> Fraction | float:
    """The q of the EigenPair of ``data`` that is the eigenvalue ``lam``:
    the equal pair when both values are exact, else the nearest."""
    if is_exact(lam):
        for p in data.pairs:
            if is_exact(p.value) and p.value == lam:
                return p.q
    z = complex(lam)
    return min(data.pairs, key=lambda p: modulus(p.value.z - z)).q


def classify(
    rep: Representation,
    tol: float = DEFAULT_CLUSTER_TOL,
    integrality_tol: float = DEFAULT_INTEGRALITY_TOL,
) -> ClassificationReport:
    """Full pipeline: build the representation, compute c1, and dispatch
    on punctures and dimension."""
    prep = build(rep, tol)
    if prep.punctures == 2:
        return split_two_punctures(prep, tol, integrality_tol)
    if prep.dim == 1:
        chern = ohtsuki_c1(prep, integrality_tol)
        kind, roots = ClassificationKind.THREE_CHARACTER, SplittingType((chern.c1,))
        return ClassificationReport(kind, (roots,), prep.warnings(), chern)
    if prep.dim == 2:
        return classify_dim2(prep, tol, integrality_tol)
    raise UnsupportedCase(
        f"three punctures with dimension {prep.dim} >= 3 is outside the "
        "implemented classification"
    )
