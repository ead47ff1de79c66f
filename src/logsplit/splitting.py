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
for other pairs, where an exact det C decides exactly and a floating one
against tol relative to the pair, inside a rounding enclosure or, when
that meets the threshold, recomputed from the exact values of the
entries, and warns ReducibilityUncertain where the rounding of the
entries themselves can carry det C across the threshold;
and by eigendirections for pairs whose C is zero, exactly or within
rounding.  The first two give the same values on exact pairs, and every
route compares exact moduli exactly when it picks and normalizes a kernel
direction.

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
from .matrix import Matrix, _is_zero, _ldexp
from .representation import PuncturedRepresentation, Representation, build
from .scalar import ONE, ZERO, Scalar, is_exact, modulus, modulus_at_least, modulus_frexp
from .scalar import Q_QUARTER, Q_THREE_QUARTERS, quotient, real_ratio, real_scalar, value_of


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


class InvariantLineReport(
    namedtuple("InvariantLineReport", "lines decomposable warnings", defaults=((),))
):
    """The invariant ``lines`` (a tuple of InvariantLine) of a 2x2 pair,
    whether the pair is ``decomposable`` (a bool), and the ``warnings`` of
    the decision (a tuple of str: ReducibilityUncertain or none)."""

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

#: The warning that a floating pair's reducibility is within rounding of
#: its threshold: the rounding of its floating entries can carry det C
#: across it, or the enclosure of det C meets it and an entry is an exact
#: value off the axes, or C is zero within rounding but not at tol.
REDUCIBILITY_UNCERTAIN = "ReducibilityUncertain"

# The rounding enclosure of the commutator (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., section 3.1 and Lemma 3.5; u = eps / 2).
# A complex product has a relative error below 2^(1/2) gamma_2 < 2.9u, a
# sum or a difference one below u, so a floating entry of C, a difference
# of two products of entries or differences of entries, lies within 5u of
# the sum of its terms' moduli, and so do det C's and a member's det's own
# rounding, and their moduli within 6u; _ROUNDING, 8 eps = 16u, bounds
# them all.  An exact value enters floating arithmetic through its rounded
# complex value: a real one within u, one off the axes within 23u (the
# angle 2 pi q, its cosine and its sine), so an exact value's modulus
# counts _EXACT_WEIGHT times.  A product in the subnormal range loses up to
# 2^-1075 per real rounding, which _UNDERFLOW covers.
_ROUNDING = 8 * sys.float_info.epsilon
_EXACT_WEIGHT = 4.0
_UNDERFLOW = 2.0 ** -1060
_DET_ROUNDING = 2 * _ROUNDING * _EXACT_WEIGHT ** 2
#: A pair whose members' max|entry| lie in [2^-200, 2^200] is decided as
#: given: no entry of C, det C or the threshold leaves the float range.
#: Another is decided with each member scaled by a power of two to
#: max|entry| in [1/4, 1].
_SCALE_BOTTOM = 2.0 ** -200
_SCALE_TOP = 2.0 ** 200

_AXES = ((ONE, ZERO), (ZERO, ONE))


def invariant_lines(m0: Matrix, m1: Matrix, tol: float = DEFAULT_CLUSTER_TOL) -> InvariantLineReport:
    """Common eigendirections of an invertible 2x2 pair: none when it is
    irreducible, two when it decomposes into characters.

    The pair shares an eigenvector iff C = m0 m1 - m1 m0 has det C = 0
    (Shemesh, Lin. Alg. Appl. 62, 1984), and a pair with C != 0 shares at
    most the line ker C.  C is worked out on integers when all eight
    entries are exact reals, else in Scalar arithmetic, with an entrywise
    rounding bound dC <= 8 eps (|m0| |m1| + |m1| |m0|) on a floating entry
    and from it an enclosure of det C.  An exact det C decides alone.  A
    floating pair keeps the line ker C when |det C| <= min(tol |det m0 det
    m1|, top (tol top + R)), top = max|c_ij| and R the largest dC, else it
    is irreducible.  The first bound is |tr(m0 m1 m0^-1 m1^-1) - 2| <=
    tol, which no conjugation or scaling changes; under the second C is
    within tol of rank one, or within its rounding of it, so that ker C is
    the line (a pair near one with a scalar member has a det C small
    against the pair but not against C, and no line).  A floating entry
    is known only to its own rounding; where that can carry det C across
    the threshold, the pair keeps the line with the warning
    ReducibilityUncertain (in ``warnings``).  The enclosure decides when
    it lies clear of the threshold and that band; otherwise det C, the
    threshold and the band are recomputed from the exact values of the
    entries, on Gaussian integers, and a pair with an exact entry off the
    axes, which has no rational value, keeps the line with the warning.
    ker C is spanned by the candidate (c01, -c00) or (c00, c10) with the
    larger entry, normalized at its larger slot, where two exact values
    compare by their exact moduli and any other pair by float moduli.  A
    pair whose C is zero within dC takes the eigendirections of m0, or of
    m1 when m0 is scalar at ``tol``, the axes when both are: two make it
    decomposable.  Eigenvalues are solved only when this branch is
    reached.  It warns ReducibilityUncertain unless max|c_ij| <= tol
    max|m0| max|m1|.  A pair with max|entry| outside [2^-200, 2^200] is
    decided at a power-of-two scale.  Each line carries the eigenvalues of
    m0 and m1 on it, read at the slot of the direction that holds the
    exact ONE, and the quotient det/lambda.  A ``tol`` outside (0,
    TOL_BOUND) raises InputFormatError.
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
    dets = None
    if x is not None and y is not None:
        lines = _integer_lines(x, y)
        if lines is not None:
            return InvariantLineReport(lines, False)
        warnings = ()
    else:
        pair, entries = (m0, m1), m0.rows[0] + m0.rows[1] + m1.rows[0] + m1.rows[1]
        moduli = _moduli(entries)
        sizes = (max(moduli[:4]), max(moduli[4:]))
        a, b, c, d, e, f, g, h = entries
        dets = pair_dets = (a * d - b * c, e * h - f * g)
        if not (_SCALE_BOTTOM <= sizes[0] <= _SCALE_TOP and _SCALE_BOTTOM <= sizes[1] <= _SCALE_TOP):
            # Both members scaled exactly by powers of two, so that no value
            # below leaves the float range; the lines keep the given dets.
            pair = (_normalized(m0), _normalized(m1))
            entries = pair[0].rows[0] + pair[0].rows[1] + pair[1].rows[0] + pair[1].rows[1]
            moduli = _moduli(entries)
            sizes = (max(moduli[:4]), max(moduli[4:]))
            pair_dets = (pair[0].det(), pair[1].det())
        c, mods, radii, det_c, det_radius = _commutator(entries, moduli)
        (n00, n01, n10), (r00, r01, r10) = mods, radii
        # C is not zero when an entry exceeds its radius, or is an exact
        # value other than ZERO, whose float modulus may underflow to 0.0.
        if n00 > r00 or n01 > r01 or n10 > r10 or any(
                not r and z is not ZERO for z, r in zip(c, radii)):
            # A non-commuting pair shares at most the line ker C.
            if not det_radius:
                kept, warnings = det_c is ZERO, ()
            else:
                kept, warnings = _kept(abs(det_c), det_radius, pair, pair_dets, sizes, mods, radii, tol)
            if not kept:
                return InvariantLineReport((), False, warnings)
            c00, c01, c10 = c
            v = _kernel_direction((c01, -c00), (c00, c10))
            return InvariantLineReport(_lines(m0, m1, (v,), dets), False, warnings)
        warnings = () if max(mods) <= tol * sizes[0] * sizes[1] else (REDUCIBILITY_UNCERTAIN,)

    # C = 0: eigendirections of a member that is not scalar at tol.
    if dets is None:
        dets = (m0.det(), m1.det())
    for i, source in enumerate((m0, m1)):
        if source.scalar_value(tol) is None:
            break
    else:
        return InvariantLineReport(_lines(m0, m1, _AXES, dets), True, warnings)
    data = _solve(source, tol, forms[i]) if eigen is None else eigen[i]
    directions = _eigendirections(source, data)
    return InvariantLineReport(_lines(m0, m1, directions, dets), len(directions) >= 2, warnings)


def _moduli(entries) -> list[float]:
    """The float moduli of ``entries``; inf for a complex modulus beyond
    the float range."""
    try:
        return list(map(abs, entries))
    except OverflowError:
        return list(map(modulus, entries))


def _commutator(entries, moduli: list[float]):
    """The commutator C = m0 m1 - m1 m0 of a 2x2 pair whose values stay in
    the float range, from its eight ``entries`` (m0's rows, then m1's) and
    their float ``moduli``, with its rounding enclosure: ``((c00, c01,
    c10), moduli, radii, det_c, det_radius)``, C's entries in Scalar
    arithmetic (C has trace 0), their float moduli and their radii, and
    det_c = c00^2 + c01 c10 = -det C and its radius.  Each entry of C and
    det_c lies within its radius of the exact value of the same
    expression on the pair's entries, and an exact value has radius 0."""
    a, b, c, d, e, f, g, h = entries
    ws = moduli
    if Scalar in map(type, entries):
        ws = list(map(_weight, entries, moduli))
    wa, wb, wc, wd, we, wf, wg, wh = ws
    a_d, e_h = a - d, e - h
    c00 = b * g - f * c
    c01 = f * a_d - b * e_h
    c10 = c * e_h - g * a_d
    det_c = c00 * c00 + c01 * c10
    # Each radius sums the moduli of its entry's terms, (|m0| |m1| + |m1|
    # |m0|)_ij; an exact entry of C is a Scalar, a floating one a complex.
    r00 = r01 = r10 = 0.0
    if c00.__class__ is complex:
        r00 = _ROUNDING * (2 * wa * we + wb * wg + wf * wc) + _UNDERFLOW
    if c01.__class__ is complex:
        r01 = _ROUNDING * (wf * (wa + wd) + wb * (we + wh)) + _UNDERFLOW
    if c10.__class__ is complex:
        r10 = _ROUNDING * (wc * (we + wh) + wg * (wa + wd)) + _UNDERFLOW
    n00, n01, n10 = abs(c00), abs(c01), abs(c10)
    det_radius = 0.0
    if det_c.__class__ is complex:
        # An exact entry of C enters det C through its rounded value.
        v00 = n00 if r00 else _EXACT_WEIGHT * n00
        v01 = n01 if r01 else _EXACT_WEIGHT * n01
        v10 = n10 if r10 else _EXACT_WEIGHT * n10
        det_radius = ((2 * n00 + r00) * r00 + n01 * r10 + (n10 + r10) * r01
                      + _ROUNDING * (v00 * v00 + v01 * v10) + _UNDERFLOW)
    return (c00, c01, c10), (n00, n01, n10), (r00, r01, r10), det_c, det_radius


def _weight(z: Scalar | complex, size: float) -> float:
    """The modulus ``size`` of z as the enclosure counts it: _EXACT_WEIGHT
    times for an exact z, whose complex value is rounded."""
    return size if z.__class__ is complex else _EXACT_WEIGHT * size


def _threshold(dets: Pair, sizes: tuple[float, float], mods, radii, tol: float):
    """An enclosure ``(lo, hi)`` of the exact min(tol |det m0 det m1|, top
    (tol top + R)) of a pair with determinants ``dets`` and max|entry|
    ``sizes``, whose C has the entry moduli ``mods`` within ``radii``, top
    = max|c_ij| and R = max(radii).  A det lies within _DET_ROUNDING
    max|entry|^2 of its exact value."""
    d0, d1 = abs(dets[0]), abs(dets[1])
    e0 = _DET_ROUNDING * sizes[0] * sizes[0] + _UNDERFLOW
    e1 = _DET_ROUNDING * sizes[1] * sizes[1] + _UNDERFLOW
    top, rounding = max(mods), max(radii)
    top_lo = top - rounding if top > rounding else 0.0
    top_hi = top + rounding
    lo = tol * (d0 - e0 if d0 > e0 else 0.0) * (d1 - e1 if d1 > e1 else 0.0)
    lo2 = top_lo * (tol * top_lo + rounding)
    hi = tol * (d0 + e0) * (d1 + e1)
    hi2 = top_hi * (tol * top_hi + rounding)
    lo = lo if lo < lo2 else lo2
    hi = hi if hi < hi2 else hi2
    return lo * (1 - _ROUNDING), hi * (1 + _ROUNDING) + _UNDERFLOW


def _kept(size: float, radius: float, pair: tuple[Matrix, Matrix], dets: Pair,
          sizes: tuple[float, float], mods, radii, tol: float):
    """Whether a non-commuting pair whose floating det C has the modulus
    ``size`` within ``radius`` keeps its line ker C, and the warnings; the
    other arguments are ``_threshold``'s, for ``pair``.  A floating entry
    is known only to its own rounding, u of its modulus, and within the
    band that this moves det C and the threshold by, the pair keeps the
    line with ReducibilityUncertain.  An eighth of each enclosure bounds
    that band (2u a product term against _ROUNDING's 16u), so the
    enclosures decide when they lie apart by more than it.  Else det C,
    the threshold and the band are recomputed from the exact values of
    the entries of ``pair`` (``_recomputed``), or, when an entry has none,
    the pair keeps the line with ReducibilityUncertain."""
    reach = radius + radius / 8
    # |det m| <= 2 max|entry|^2, so the threshold and its band lie below
    # 5 tol (max|m0| max|m1|)^2.
    product = sizes[0] * sizes[1]
    if size - reach > 5 * tol * product * product + _UNDERFLOW:
        return False, ()
    lo, hi = _threshold(dets, sizes, mods, radii, tol)
    spread = (hi - lo) / 8
    if size - reach - spread > hi:
        return False, ()
    if size + reach + spread <= lo:
        return True, ()
    values = _recomputed(*pair, tol, max(radii))
    if values is None:
        return True, (REDUCIBILITY_UNCERTAIN,)
    size, limit, band = values
    band += spread
    if size - band > limit:
        return False, ()
    return True, (REDUCIBILITY_UNCERTAIN,) if size + band > limit else ()


def _recomputed(m0: Matrix, m1: Matrix, tol: float, rounding: float):
    """``(|det C|, min(tol |det m0 det m1|, top (tol top + rounding)),
    band)``, top = max|c_ij|, from the exact values of the entries, worked
    out on Gaussian integers over each member's common denominator and
    rounded once to floats, within 2^-60 of them; None when an entry is
    an exact value off the axes.  ``band`` is the first-order change of
    det C when each floating entry x moves by u |x|: det C changes by
    tr(C [dm0, m1] + C [m0, dm1]), so x in m0 at (i, j) weighs |[C,
    m1]_ji|, and x in m1 |[C, m0]_ji|."""
    members, scales = [], []
    for m in (m0, m1):
        parts = []
        for z in m.rows[0] + m.rows[1]:
            part = _rational_parts(z)
            if part is None:
                return None
            parts += part
        s = math.lcm(*[den for _, den in parts])
        ints = [num * (s // den) for num, den in parts]
        members.append(list(zip(ints[::2], ints[1::2])))
        scales.append(s)
    (a, b, c, d), (e, f, g, h) = members
    s0, s1 = scales
    a_d, e_h = _gsub(a, d), _gsub(e, h)
    c00 = _gsub(_gmul(b, g), _gmul(f, c))
    c01 = _gsub(_gmul(f, a_d), _gmul(b, e_h))
    c10 = _gsub(_gmul(c, e_h), _gmul(g, a_d))
    square, product = _gmul(c00, c00), _gmul(c01, c10)
    det_c = _root((square[0] + product[0], square[1] + product[1]), (s0 * s1) ** 2)
    det0 = _root(_gsub(_gmul(a, d), _gmul(b, c)), s0 * s0)
    det1 = _root(_gsub(_gmul(e, h), _gmul(f, g)), s1 * s1)
    top = max(_root(z, s0 * s1) for z in (c00, c01, c10))
    band = 0.0
    for m, (p, q, r, t), den in ((m0, (e, f, g, h), s0 * s1 * s1), (m1, (a, b, c, d), s0 * s0 * s1)):
        # [C, other]: entries 00 (and -11), 01 and 10.
        k00 = _gsub(_gmul(c01, r), _gmul(q, c10))
        k01 = _gsub(_gmul((2, 0), _gmul(c00, q)), _gmul(c01, _gsub(p, t)))
        k10 = _gsub(_gmul(c10, _gsub(p, t)), _gmul((2, 0), _gmul(c00, r)))
        (x, y), (z, w) = ([abs(v) if v.__class__ is complex else 0.0 for v in row] for row in m.rows)
        band += _root(k00, den) * (x + w) + _root(k10, den) * y + _root(k01, den) * z
    band *= sys.float_info.epsilon / 2
    return det_c, min(tol * det0 * det1, top * (tol * top + rounding)), band


def _root(z: tuple[int, int], den: int) -> float:
    """|z| / den for a Gaussian integer z, within 2^-60 as a float."""
    return float(Fraction(math.isqrt((z[0] * z[0] + z[1] * z[1]) << 128), den << 64))


def _rational_parts(z: Scalar | complex):
    """The exact real and imaginary parts of z as int ratios (numerator,
    denominator); None for an exact value off the axes."""
    if z.__class__ is complex:
        return z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    real = real_ratio(z)
    if real is not None:
        return real, (0, 1)
    n, d = z.r.as_integer_ratio()
    q = z.q
    if q == Q_QUARTER:
        return (0, 1), (n, d)
    if q == Q_THREE_QUARTERS:
        return (0, 1), (-n, d)
    return None


def _gmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gsub(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] - y[0], x[1] - y[1]


def _normalized(m: Matrix) -> Matrix:
    """``m * 2^-k`` with max|entry| in [1/4, 1], exactly but for the
    rounding of a part that falls into the subnormal range; an exact
    modulus whose float under- or overflows still sets k."""
    k = max((_exponent(z) for row in m.rows for z in row if not _is_zero(z)), default=0)
    return Matrix._of_rows(tuple(tuple(_ldexp(z, -k) for z in row) for row in m.rows))


def _exponent(z: Scalar | complex) -> int:
    """An exponent k with |z| in [2^(k-2), 2^k]: an exact z's is read from
    its exact modulus, a complex one's from its larger part."""
    if is_exact(z):
        return modulus_frexp(z)[1]
    return math.frexp(max(abs(z.real), abs(z.imag)))[1] + 1


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


def _lines(m0: Matrix, m1: Matrix, directions, dets: Pair) -> tuple[InvariantLine, ...]:
    """The invariant lines along the normalized ``directions``.  Each
    carries the eigenvalues of m0 and m1 on it, read at the slot of the
    direction that holds the exact ONE, and on the quotient det / lambda,
    from ``dets``, the determinants of m0 and m1."""
    if not directions:
        return ()
    det0, det1 = dets
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
    warnings = prep.warnings() + report.warnings

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
            return ClassificationReport(kind, candidates, warnings, chern)
        kind = ClassificationKind.THREE_DIM2_REDUCIBLE_SPLIT
    candidates = (SplittingType(tuple(sorted(roots, reverse=True))),)
    return ClassificationReport(kind, candidates, warnings, chern)


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
