"""Eigenvalue multisets with branch-normalized arguments.

The classification never needs eigenvectors of anything larger than 2x2 or
a full Jordan form; the eigenvalue multiset with multiplicities and the
normalized argument q in [0, 1) of each value is the whole story.  Exactly
specified inputs travel an exact route (triangular read-off, and for 2x2 a
rational quadratic solve with recognition of the rational-cosine angles
0, 1/6, 1/4, 1/3, 1/2, ...).  The quadratic solve takes b = -trace and
c = det as reduced (numerator, denominator) int pairs, as scalar.py holds
exact moduli and arguments, and builds its roots from them.  When all four
entries are exact reals, those pairs come from the matrix's
``integer_form``, its entries' integers with their denominators
``cleared``, with no Scalar arithmetic; other exact entries, polar ones
say, read them back from ``char_poly``.  ``build`` makes the integer form
of each generator once and hands it to the generator solves, to the
product solve and to the invariant-line analysis; a public entry point
that is given none clears its matrices itself and runs the same core
(``eigenvalues`` only past the triangular read-off, which never reads
the form).
The product m0 m1 at three punctures is not formed for an exact real pair
(``product_eigenvalues``): its trace and determinant come from the
integer forms of m0 and m1, the Fricke trace coordinates of the loop
around infinity.  An irrational root is rounded from floats of b, c and the
discriminant, scaled by a power of two where one of them is not a normal
float, and its modulus pair scaled back exactly, so an exact real solve is
never handed to the floating route.  The q-sum (``q_total``) adds exact
q's as one unreduced int pair.  There is no Fraction arithmetic on the
exact route; a Fraction is built only where a q or a q-sum is returned,
as ``EigenPair.q`` and ``EigenData.q_sum``.  Nor is m0 m1 formed, at any
dimension, when both members have the exact ZERO below the diagonal: its
eigenvalues are read off the products of the diagonal entries, the
values of its own diagonal.
Everything else is a floating root solve of
the characteristic polynomial.  A quadratic, the floating 2x2 of every
three-puncture document, takes one pass, ``_from_quadratic``: the
cancellation-free closed form, then the clustering, centroids and Newton
radii of the general route written out for two roots.  From degree 3 on
the roots come from simultaneous Aberth-Ehrlich iteration started on the
circle of the roots' geometric-mean modulus, restarted from the Newton
polygon's circles when the roots miss Vieta's formulas for the sums of
the roots and of their reciprocals.  The iteration freezes a root once
its residual |p| is within Horner's roundoff bound on p, and forms that
bound only near convergence, where |p| is at most a ceiling the bound
cannot exceed (``_roundoff_ceiling``); a |p| above the ceiling is above
the bound too, so no freeze decision changes.  Whether a
floating root is EigenvalueUncertain is decided by the polynomial's
roundoff at the root, not by where the iteration stopped; for a root
that clusters alone, the iteration's last evaluation at it is that of
its centroid, and is not repeated.  The roots are grouped, and their
Newton radii tested, at the scale the polynomial is solved at, one scale
per solve: a matrix whose largest entry modulus lies in [0.5, 2^100) as
given, any other one scaled by a power of two, its largest real or
imaginary part into [0.5, 1), and only its eigenvalues are scaled back.
An entry with a part that is not finite, as an exact entry beyond the
float range has, has no such scale and is a FloatRangeError.  So is a
floating eigenvalue whose modulus leaves the float range, its parts
finite or not, or falls below the normal range when scaled back.  Each
solve is made once; an iteration whose values or roundoff bound leave
the float range is a RootFindingDivergence.

The triangular and the floating routes group coinciding values by one
rule, ``_cluster_indices``, whose one comparison of two roots the
quadratic pass makes in place: exact values when equal, any other pair
within ``tol`` times the larger modulus.  A cluster is
EigenvalueUncertain when its Newton radius exceeds ten times ``tol``
times its modulus.  So which values coincide, and which are uncertain,
does not change with the scale of the input.  A cluster of floating
roots is represented by its mean, a left fold from 0j divided by its
size.

Every route, and the reciprocals at infinity, end in one assembly pass,
``_eigen_data``, from (value, multiplicity) pairs to EigenData.  An exact
value is read from its int pairs: its float modulus is the rounded
quotient of its modulus pair, its sort key the quotient of its q pair,
and its complex value is built only to word a FloatRangeError.  A
floating value gets its q and BranchBoundary verdict from ``_float_arg``,
the one definition of the snap and the boundary band, at bounds computed
once per pass, and is boxed as a floating Scalar.  EigenPair and
EigenData are named tuples: immutable, hashed and compared by their
fields, and built at about the cost of a tuple.

Singularity is decided here, once, on the route that solves for the
values: a triangular matrix is singular iff a diagonal entry is exactly
zero, an exact 2x2 one iff its exact determinant is zero, and a floating
solve iff its constant term, the determinant up to sign, is
below_singularity_threshold on the matrix solved, a test that scaling by
a power of two does not change.

The tolerance ``tol`` has its one default here, shared by the command
line, and its bound TOL_BOUND, which keeps the BranchBoundary band of
BOUNDARY_BAND tolerances on each side of the cut under half a turn.
Every solve checks it, also the ones ``build`` makes.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, isqrt
from operator import itemgetter, mul

from .errors import (
    FloatRangeError,
    InputFormatError,
    RootFindingDivergence,
    SingularMatrix,
    ZeroEigenvalue,
)
from .matrix import Matrix, _ldexp, below_singularity_threshold
from .scalar import ZERO, Scalar, _ratio_float
from .scalar import cleared, is_exact, modulus, real_ratio, real_scalar

#: Default clustering, snapping and parallelism tolerance, of the library
#: and the command line alike.  Clustering and EigenvalueUncertain take it
#: relative to each eigenvalue's modulus, snapping in turns of argument.
DEFAULT_CLUSTER_TOL = 1e-9

#: Half-width of the BranchBoundary band around the cut, in tolerances.
BOUNDARY_BAND = 10.0

#: Every tol lies below this bound, where the band on both sides of the
#: cut would reach half a turn.
TOL_BOUND = 0.5 / BOUNDARY_BAND

_EPS = sys.float_info.epsilon

#: The band of largest entry moduli M solved as given.  Below it the
#: Aberth iteration's absolute tests (1 + |x|, the nudges) misread small
#: roots; normalising every block instead puts roots below 1, where
#: ``_roundoff_ceiling`` spares no Horner bound.  At its top, with n <= 8,
#: every eigenvalue is at most n M < 2^103 and |c_j| <= C(n, j) (n M)^j, so
#: at |x| <= n M Horner's k-th value is at most 2^n (n M)^k <= 2^832, and
#: its roundoff bound, a sum of n + 1 of them, below 2^836: no coefficient,
#: Horner value or bound of the solve comes near the top of the float range.
_SOLVE_BOTTOM, _SOLVE_TOP = 0.5, 2.0**100
_MIN_NORMAL = sys.float_info.min
_ONE_J = 1 + 0j
_BELOW_ONE = math.nextafter(1.0, 0.0)
_TWO_PI = 2.0 * math.pi
#: Sweeps of each Aberth iteration from one set of starts.
_ABERTH_BUDGET = 200

#: The arguments of a complex root off the imaginary axis with a rational
#: cosine (Niven: +-1/2), and of its conjugate, as reduced pairs.
_SIXTHS = ((1, 6), (5, 6))
_THIRDS = ((1, 3), (2, 3))

BRANCH_BOUNDARY = "BranchBoundary"
EIGENVALUE_UNCERTAIN = "EigenvalueUncertain"


def checked_tolerance(value, where: str, bound: float = math.inf) -> float:
    """``value`` as a float when it is a finite real number above zero and
    below ``bound``, else InputFormatError naming ``where``: a parameter,
    a flag or a document field."""
    try:
        positive = value > 0 and value.__class__ is not bool and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond the float range
        positive = False
    if not positive:
        raise InputFormatError(f"{where}: expected a finite number above zero, got {value!r}")
    if not value < bound:
        raise InputFormatError(f"{where}: expected a number below {bound}, got {value!r}")
    return float(value)


def _arg_bounds(tol: float) -> tuple[float, float, float, float]:
    """The bounds :func:`_float_arg` decides by at ``tol``: q snaps to 0
    at or below the first or at or above the second, and lies near the
    cut outside the open interval from the third to the fourth."""
    band = BOUNDARY_BAND * tol
    return tol, 1.0 - tol, band, 1.0 - band


def _float_arg(
    z: complex, bounds: tuple[float, float, float, float], snap: bool | None = None
) -> tuple[float, bool]:
    """(q, near_boundary) for a floating nonzero complex value, at the
    ``_arg_bounds`` of a tolerance tol.

    ``near_boundary`` is True when q lies within BOUNDARY_BAND * tol of
    the branch cut, including values that snapped to 0 — floating data
    that close to the positive real axis cannot certify its branch.
    ``snap`` imposes a decision already taken, whether q snaps to 0;
    None decides it here, from q's distance to the cut.
    """
    q = math.atan2(z.imag, z.real) / _TWO_PI
    if q < 0.0:
        q += 1.0
    snap_lo, snap_hi, band_lo, band_hi = bounds
    boundary = not band_lo < q < band_hi
    if snap is None:
        snap = q <= snap_lo or q >= snap_hi
    if snap:
        return 0.0, boundary
    # A tiny negative argument rounds up to a full turn; only an imposed
    # decision keeps it unsnapped, and q must stay below 1.
    return (_BELOW_ONE if q == 1.0 else q), boundary


class EigenPair(namedtuple("EigenPair", "value multiplicity q ln_r")):
    """One eigenvalue: its ``value`` (a Scalar), ``multiplicity`` (int),
    normalized argument ``q`` (a Fraction or float) and ``ln_r``, the ln
    of its modulus (float).  A named tuple, so immutable, and hashed and
    compared by its fields."""

    __slots__ = ()


class EigenData(namedtuple("EigenData", "pairs warnings", defaults=((),))):
    """Eigenvalue multiset of one local monodromy: its ``pairs`` (a tuple
    of EigenPair) sorted by (q, modulus), and its ``warnings`` (a tuple of
    str).  A named tuple, as EigenPair is."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return sum(p.multiplicity for p in self.pairs)

    def q_sum(self) -> Fraction | float:
        """This puncture's q-sum: a Fraction while every q is exact."""
        total = q_total((p.multiplicity, p.q) for p in self.pairs)
        return total if total.__class__ is float else Fraction(*total)

    def ln_r_sum(self) -> float:
        total = 0  # a left fold: ``sum`` compensates from Python 3.12 on
        for p in self.pairs:
            total += p.multiplicity * p.ln_r
        return total


def q_total(
    terms: Iterable[tuple[int, Fraction | tuple[int, int] | float]],
) -> tuple[int, int] | float:
    """The left fold ``0 + m * q + ...`` over ``terms``, each q exact (a
    Fraction, or an int pair ``(n, d)`` with d > 0) or a float.  While
    every q is exact the total is the unreduced int pair ``(n, d)``,
    d > 0; from the first floating q on the fold goes on in floats, from
    ``n / d``, which rounds as ``float(Fraction)`` does, and adds each
    later exact ``m * q`` rounded the same way."""
    n, d = 0, 1
    total = None
    for m, q in terms:
        if q.__class__ is float:
            total = (n / d if total is None else total) + m * q
            continue
        qn, qd = q if q.__class__ is tuple else q.as_integer_ratio()
        if total is not None:
            total += m * qn / qd
        elif qd == d:
            n += m * qn
        else:
            n = n * qd + m * qn * d
            d *= qd
    return (n, d) if total is None else total


#: A 2x2 matrix of exact reals as ``(s, (a, b, c, d))``: the matrix is
#: [[a, b], [c, d]] / s with int entries and s > 0 the lcm of the
#: denominators.
IntegerForm = tuple[int, tuple[int, ...]]


def integer_form(m: Matrix) -> IntegerForm | None:
    """The IntegerForm of ``m`` when it is 2x2 with four exact real
    entries, from ``cleared``; None for any other matrix.  A matrix of
    another dimension costs one length check and a floating first entry
    one class check: neither is cleared."""
    rows = m.rows
    if len(rows) == 2 and rows[0][0].__class__ is Scalar:
        return cleared(rows[0] + rows[1])
    return None


#: ``_solve``'s form for a matrix not yet cleared: it is cleared there only
#: when the triangular read-off does not answer.
_UNCLEARED = object()


def eigenvalues(a: Matrix, tol: float = DEFAULT_CLUSTER_TOL) -> EigenData:
    """Eigenvalues of ``a`` clustered into multiplicity groups.

    Raises InputFormatError for a ``tol`` outside (0, TOL_BOUND),
    ZeroEigenvalue for an exactly zero root (a triangular diagonal
    entry or an exact 2x2 determinant), SingularMatrix for a floating
    determinant below_singularity_threshold, the one zero test of a
    floating root, RootFindingDivergence when the iteration exhausts its
    budget without reaching the residual noise floor or leaves the float
    range, and FloatRangeError for an eigenvalue, or a real or imaginary
    part of an entry, beyond the float range, or an eigenvalue scaled back
    below its normal range.  A floating block has one characteristic
    polynomial, one singularity test and one solve, on ``a`` when
    max|entry| lies in [0.5, 2^100), else on ``a * 2**-exp``.
    """
    return _solve(a, tol, _UNCLEARED)


def _solve(a: Matrix, tol: float, form) -> EigenData:
    """``eigenvalues(a, tol)``, given ``integer_form(a)`` (an IntegerForm or
    None), or ``_UNCLEARED`` to clear ``a`` past the triangular read-off."""
    tol = checked_tolerance(tol, "tol", TOL_BOUND)
    n = a.n
    if a.is_upper_triangular() or a.is_lower_triangular():
        return _from_diagonal(a.diagonal(), tol)
    if form is _UNCLEARED:
        form = integer_form(a)
    if form is not None:
        s, (w, x, y, z) = form
        return _from_trace_det(w + z, w * z - x * y, s, tol)
    coeffs = None
    if n == 2 and a.rows[0][0].__class__ is Scalar:
        # Other exact entries, polar ones say: real coefficients take the
        # same solver.  A floating first entry makes the trace floating.
        coeffs = a.char_poly()
        b, c = real_ratio(coeffs[1]), real_ratio(coeffs[2])
        if b is not None and c is not None:
            return _eigen_data(_exact_quadratic(b, c), tol)
    exp = 0
    top = a.max_abs()
    if not _SOLVE_BOTTOM <= top < _SOLVE_TOP:
        # Scaling by a power of two is exact: only the eigenvalues change,
        # and they scale back exactly.  A part that is not finite has no
        # power of two to scale it by.
        parts = [complex(e) for row in a.rows for e in row]
        for k, z in enumerate(parts):
            if not cmath.isfinite(z):
                raise FloatRangeError(f"entry ({k // n}, {k % n}) outside the floating-point range")
        exp = math.frexp(max(max(abs(z.real), abs(z.imag)) for z in parts))[1]
        a = Matrix._of_rows(tuple(tuple(_ldexp(complex(e), -exp) for e in row) for row in a.rows))
        top = a.max_abs()
        coeffs = a.char_poly()
    elif coeffs is None:  # else the exact polynomial above, at this scale
        coeffs = a.char_poly()
    if below_singularity_threshold(modulus(coeffs[-1]), top, n):
        raise SingularMatrix(f"{n}x{n} determinant below tolerance at the scale of its entries")
    coeffs_c = list(map(complex, coeffs))
    if n == 2:
        centroids, uncertain = _from_quadratic(coeffs_c[1], coeffs_c[2], tol)
    else:
        try:
            centroids, uncertain = _from_float_roots(coeffs_c, *_aberth_solve(coeffs_c), tol)
        except OverflowError as exc:  # abs of an iterate's Horner value
            raise RootFindingDivergence("root iteration left the floating-point range") from exc
    if exp:
        centroids = [(_scaled_back(z, exp), size) for z, size in centroids]
    return _eigen_data(centroids, tol, uncertain)


def product_eigenvalues(m0: Matrix, m1: Matrix, tol: float = DEFAULT_CLUSTER_TOL) -> EigenData:
    """``eigenvalues(m0 @ m1, tol)``, the same EigenData and errors.

    When m0 and m1 are 2x2 with exact real entries, m0 = A / s and m1 = B / t
    with A and B integer, the product is not formed: its eigenvalues depend
    only on its trace, (ae + bg + cf + dh) / st for A = [[a, b], [c, d]] and
    B = [[e, f], [g, h]], and its determinant, det A det B / (st)^2, which
    reach the exact quadratic as the reduced pairs ``eigenvalues`` would
    read from m0 @ m1.  A triangular product has its diagonal read off, as
    ``eigenvalues`` reads it.  A and B are the IntegerForms of m0 and m1:
    ``build`` hands over the ones it made, and a call of this function
    clears m0 and m1 itself.

    Nor is the product formed for other m0 and m1 of one dimension whose
    entries below the diagonal are all the exact ZERO: each diagonal entry
    of m0 @ m1 is m0_ii m1_ii plus exact ZEROs, so the eigenvalues are
    read off those products, with the values, errors and messages of
    ``eigenvalues(m0 @ m1)``.  Any other pair, a lower triangular one or
    one with a floating zero below the diagonal, forms m0 @ m1.
    """
    return _solve_product(m0, m1, tol, (integer_form(m0), integer_form(m1)))


def _solve_product(
    m0: Matrix, m1: Matrix, tol: float, forms: tuple[IntegerForm | None, IntegerForm | None]
) -> EigenData:
    """``product_eigenvalues(m0, m1, tol)``, given the IntegerForms of m0
    and m1."""
    x, y = forms
    if x is None or y is None:
        if _upper_exactly(m0) and _upper_exactly(m1) and m0.n == m1.n:
            # The product's diagonal entry is m0_ii m1_ii plus exact ZEROs,
            # the value that its triangular read-off would take.
            tol = checked_tolerance(tol, "tol", TOL_BOUND)
            return _from_diagonal(tuple(map(mul, m0.diagonal(), m1.diagonal())), tol)
        # Not cleared: an exact real product of other exact factors reaches
        # the same exact quadratic through char_poly.
        return _solve(m0 @ m1, tol, None)
    tol = checked_tolerance(tol, "tol", TOL_BOUND)
    (s, (a, b, c, d)), (t, (e, f, g, h)) = x, y
    st = s * t
    p00, p11 = a * e + b * g, c * f + d * h
    if not (a * f + b * h and c * e + d * g):
        return _from_diagonal((real_scalar(p00, st), real_scalar(p11, st)), tol)
    return _from_trace_det(p00 + p11, (a * d - b * c) * (e * h - f * g), st, tol)


def _upper_exactly(m: Matrix) -> bool:
    """Whether every entry of ``m`` below its diagonal is the exact ZERO.  A
    floating zero does not count: its product terms in m0 @ m1 can flip
    the sign of a zero part of a diagonal entry."""
    rows = m.rows
    for i in range(1, len(rows)):
        for e in rows[i][:i]:
            if e is not ZERO:
                return False
    return True


def reciprocal_eigenvalues(data: EigenData, tol: float = DEFAULT_CLUSTER_TOL) -> EigenData:
    """Eigenvalue data of the inverse matrix: each value λ becomes 1/λ with
    its multiplicity, so q -> (-q) mod 1 and ln r -> -ln r.

    Exact values stay exact, branch warnings are re-derived for the
    reciprocals, and an EigenvalueUncertain warning carries over.  A
    floating 1/λ snaps to the cut exactly where λ did, so the two cannot
    be read on different sides of it; otherwise its q is its own raw
    argument.  The values already passed the zero test where they were
    solved for, so a large λ gives a small 1/λ, not a ZeroEigenvalue.
    """
    pairs = [(p.value.reciprocal(), p.multiplicity) for p in data.pairs]
    # Read only for floating values; an exact q is not compared.
    snaps = [p.q.__class__ is not Fraction and p.q == 0 for p in data.pairs]
    return _eigen_data(pairs, tol, EIGENVALUE_UNCERTAIN in data.warnings, snaps)


# ---------------------------------------------------------------------------
# assembling EigenData


_PAIR = itemgetter(3)


def _eigen_data(
    clusters: list, tol: float, uncertain: bool = False, snaps: list[bool] | None = None
) -> EigenData:
    """EigenData of solved nonzero (value, multiplicity) pairs, a value an
    exact Scalar or a complex, which is boxed as a floating Scalar for the
    pair's value; ``uncertain`` adds EigenvalueUncertain, and ``snaps``
    gives each floating value's snap decision (see :func:`_float_arg`)."""
    bounds = _arg_bounds(tol)
    boundary = False
    keyed = []
    for k, (value, mult) in enumerate(clusters):
        if value.__class__ is complex:
            r = modulus(value)
            if not r < math.inf:
                # A part that is not finite, or finite parts whose modulus
                # overflows; NaN would pass every later comparison.
                raise FloatRangeError(f"eigenvalue {value!r} outside the floating-point range")
            q, near = _float_arg(value, bounds, None if snaps is None else snaps[k])
            boundary = boundary or near
            key = q
            value = Scalar(value, None, None)
        else:
            # Read from the int pairs: the float modulus, and the sort key
            # qn / qd, which is float(Fraction).  The complex value is only
            # built to word the error.
            r = _ratio_float(value._r)
            if r == math.inf:
                # A product of huge generators can overflow.
                raise FloatRangeError(f"eigenvalue {value.z!r} outside the floating-point range")
            qn, qd = value._q
            key = qn / qd
            q = value.q
        if r == 0.0:
            # A nonzero exact value, or the reciprocal of a huge one.
            raise FloatRangeError("eigenvalue modulus below the floating-point range")
        keyed.append((key, r, k, EigenPair(value, mult, q, math.log(r))))
    keyed.sort()  # by (q, r), ties in input order: k is unique
    warnings = (BRANCH_BOUNDARY,) if boundary else ()
    if uncertain:
        warnings += (EIGENVALUE_UNCERTAIN,)
    return EigenData(tuple(map(_PAIR, keyed)), warnings)


def _from_diagonal(values: tuple[Scalar | complex, ...], tol: float) -> EigenData:
    """EigenData of a triangular matrix's diagonal ``values``."""
    if any(v is ZERO or (v.__class__ is complex and v == 0) for v in values):
        raise ZeroEigenvalue("exact zero eigenvalue; monodromy not invertible")
    return _eigen_data([(values[g[0]], len(g)) for g in _cluster_indices(values, tol)], tol)


def _from_quadratic(b: complex, c: complex, tol: float) -> tuple[list[tuple[complex, int]], bool]:
    """(centroids, uncertain) of x^2 + b x + c, c != 0, in one pass, at
    the scale of b and c.

    The roots come without cancellation: the larger t = (-b -+ sqrt(b^2 -
    4c)) / 2, with the sign that adds the square root to b, and the other
    root c / t.  The rest is :func:`_from_float_roots` written out for two
    roots, every float operation in the same order on the same operands:
    the one comparison of :func:`_cluster_indices`, the centroids as left
    folds from 0j divided by the size, and each centroid's Newton radius
    from :func:`_poly_eval`'s Horner scheme on (1, b, c).  b and c are
    those of a matrix in the solve band of ``eigenvalues`` whose c passed
    the singularity test, so every root, distance and bound is finite.
    """
    s = cmath.sqrt(b * b - 4.0 * c)
    if abs(b - s) > abs(b + s):
        s = -s
    t = -0.5 * (b + s)
    u = c / t
    d = abs(t - u)
    if d < tol * modulus(t) or d < tol * modulus(u):
        centroids = [((0j + t + u) / 2, 2)]
    else:
        # A lone root's negative zero part turns positive in the fold.
        centroids = [((0j + t) / 1, 1), ((0j + u) / 1, 1)]
    bound = 10.0 * tol
    uncertain = False
    for x, _ in centroids:
        # Horner on (1, b, c) at x: p, p' and the roundoff bound on p.
        ax = abs(x)
        p = _ONE_J * x + b
        dp = (0j * x + _ONE_J) * x + p
        err = abs(p) + ax  # ax * abs(1)
        p = p * x + c
        noise = (abs(p) + ax * err) * _EPS
        radius = 3 * max(abs(p), noise) / max(abs(dp), 1e-300)
        if radius > bound * ax:
            uncertain = True
    return centroids, uncertain


def _from_float_roots(
    coeffs_c: list[complex],
    roots: list[complex],
    evals: list[tuple[complex, complex, float]],
    tol: float,
) -> tuple[list[tuple[complex, int]], bool]:
    """(centroids, uncertain) of the roots ``roots`` of the characteristic
    polynomial ``coeffs_c``, at its scale: each cluster's centroid with its
    size, and whether a Newton radius exceeds ten times ``tol`` times its
    centroid's modulus.  ``evals`` holds the last ``_poly_eval`` at each
    root.  Raises RootFindingDivergence for a roundoff bound that is not
    finite, which certifies nothing."""
    terms = len(coeffs_c)
    bound = 10.0 * tol
    centroids: list[tuple[complex, int]] = []
    uncertain = False
    for group in _cluster_indices(roots, tol):
        # The left fold from 0j: a lone root's negative zero part turns
        # positive, as in the mean of a cluster.
        centroid = 0j
        for i in group:
            centroid += roots[i]
        size = len(group)
        centroid /= size
        # Newton inclusion radius: honest uncertainty for smeared (nearly
        # multiple) roots that the clustering tolerance cannot merge.  The
        # residual counts at least at its roundoff bound, so the verdict
        # depends on the polynomial, not on where the iteration stopped.
        # A lone root is its own centroid (up to the sign of a zero part),
        # so the iteration's last evaluation there stands.
        if size == 1:
            p, dp, noise = evals[group[0]]
        else:
            p, dp, noise = _poly_eval(coeffs_c, centroid)
        if not noise < math.inf:  # NaN too, at a centroid that is not finite
            raise RootFindingDivergence("roundoff bound beyond the float range")
        # max keeps its first argument on a tie and on NaN.
        radius = terms * max(abs(p), noise) / max(abs(dp), 1e-300)
        if radius > bound * abs(centroid):
            uncertain = True
        centroids.append((centroid, size))
    return centroids, uncertain


def _scaled_back(z: complex, exp: int) -> complex:
    """A floating eigenvalue ``z`` solved at the scale 2^-exp, scaled back;
    FloatRangeError when its modulus leaves the float range or falls below
    its normal range."""
    try:
        w = _ldexp(z, exp)
    except OverflowError:
        w = None
    if w is None or modulus(w) < _MIN_NORMAL:
        raise FloatRangeError(f"eigenvalue {z!r} * 2**{exp} outside the floating-point range")
    return w


def _cluster_indices(values: list, tol: float) -> list[list[int]]:
    """``values`` grouped where they coincide, as lists of indices into
    ``values``, each group in input order and the groups in order of their
    first member.  Two exact values coincide when they are equal, any
    other pair within ``tol * max(|x|, |y|)``, so that the grouping does
    not change with the scale of the values; the groups close this
    relation transitively.  Each value is compared with the members of
    the groups built before it, and joins, or merges, every group it
    coincides with, so at n = 2 there is one comparison."""
    groups: list[list[int]] = []
    sizes: list[float] = []  # tol * |x| of each value compared so far
    for j, y in enumerate(values):
        y_exact = is_exact(y)
        y_size = tol * modulus(y)
        home = None
        for g in groups[:]:  # y may merge groups
            for i in g:
                x = values[i]
                if y_exact and is_exact(x):
                    if x == y:
                        break
                    continue
                try:
                    d = abs(complex(x) - complex(y))
                except OverflowError:  # a distance beyond the float range
                    continue
                if d < sizes[i] or d < y_size:
                    break
            else:
                continue
            if home is None:
                g.append(j)
                home = g
            else:
                home += g
                home.sort()
                groups.remove(g)
        if home is None:
            groups.append([j])
        sizes.append(y_size)
    return groups


# ---------------------------------------------------------------------------
# exact quadratic route


def _from_trace_det(trace: int, det: int, s: int, tol: float) -> EigenData:
    """EigenData of an exact real 2x2 of trace ``trace / s`` and
    determinant ``det / s**2``, s > 0."""
    return _eigen_data(_exact_quadratic(_reduced(-trace, s), _reduced(det, s * s)), tol)


def _exact_quadratic(
    b: tuple[int, int], c: tuple[int, int]
) -> list[tuple[Scalar | complex, int]]:
    """Roots of x^2 + b x + c for exact real-rational b, c, each given as
    its reduced signed int pair (numerator, denominator).

    The discriminant is a reduced int pair too, so a sign is a numerator's
    sign and a rational square root is the ``isqrt`` of both.  Real roots
    always carry an exact argument (0 or 1/2: the sign is decided on the
    integers, never by the float square root); an irrational modulus is
    rounded.  Complex pairs get an exact q only for the rational-cosine
    angles (Niven: cos(2*pi*q) rational forces cos in {0, +-1/2, +-1});
    other angles are irrational and their roots are floating.  The
    rounded roots come from floats of b, c and the discriminant, at the
    scale ``_scaled_coefficients`` picks, and scale back exactly: a
    modulus as its int pair, a floating root as ``_scaled_back`` has it.
    """
    (bn, bd), (cn, cd) = b, c
    if cn == 0:
        raise ZeroEigenvalue("exact zero eigenvalue; monodromy not invertible")
    # disc = b^2 - 4c = dn / dd, reduced.
    dn, dd = _reduced(bn * bn * cd - 4 * cn * bd * bd, bd * bd * cd)
    if dn == 0:
        return [(real_scalar(-bn, 2 * bd), 2)]
    if dn > 0:
        s, t = isqrt(dn), isqrt(dd)
        if s * s == dn and t * t == dd:  # (-b +- s/t) / 2
            return [
                (real_scalar(s * bd - bn * t, 2 * bd * t), 1),
                (real_scalar(-s * bd - bn * t, 2 * bd * t), 1),
            ]
    k, b_f, c_f, disc_f = _scaled_coefficients(bn, bd, cn, cd, dn, dd)
    if dn > 0:
        # Irrational real pair: exact signs, rounded moduli.  t is the
        # root of larger modulus, the algebraically smaller one when b >= 0.
        # The other is c / t, with c at its own scale 2^-j, in (1/2, 2):
        # the bits of c_f / t where that is a normal float, and all of
        # them where it is not.
        s_f = math.sqrt(disc_f)
        t = (-b_f - s_f) / 2 if bn >= 0 else (-b_f + s_f) / 2
        j = cn.bit_length() - cd.bit_length()
        other = _scaled_float(cn, cd, -j) / t
        hi, lo = _scaled_pair(other, j - k), _scaled_pair(t, k)
        if bn < 0:
            hi, lo = lo, hi
        sign_hi = 1 if (bn <= 0 or cn < 0) else -1  # sign of (-b + sqrt(disc))/2
        sign_lo = 1 if (bn < 0 and cn > 0) else -1
        return [
            (Scalar(None, hi, (0, 1) if sign_hi > 0 else (1, 2)), 1),
            (Scalar(None, lo, (0, 1) if sign_lo > 0 else (1, 2)), 1),
        ]
    # Conjugate pair -b/2 +- iy with y > 0, and |root|^2 = c > 0, so
    # |root| = a/e when c is a rational square; on the imaginary axis it
    # is otherwise the rounded sqrt(c).
    a, e = isqrt(cn), isqrt(cd)
    square = a * a == cn and e * e == cd
    if bn == 0:
        if not square:
            a, e = _scaled_pair(math.sqrt(c_f), k)
        turns = ((1, 4), (3, 4))
    elif square and -bn * e == a * bd:  # cos = -b / (2|root|) = 1/2
        turns = _SIXTHS
    elif square and bn * e == a * bd:  # cos = -1/2
        turns = _THIRDS
    else:
        y = math.sqrt(-disc_f) / 2
        return [(_scaled_back(complex(-b_f / 2, y), k), 1),
                (_scaled_back(complex(-b_f / 2, -y), k), 1)]
    return [(Scalar(None, (a, e), turns[0]), 1), (Scalar(None, (a, e), turns[1]), 1)]


def _scaled_coefficients(
    bn: int, bd: int, cn: int, cd: int, dn: int, dd: int
) -> tuple[int, float, float, float]:
    """(k, b 2^-k, c 2^-2k, disc 2^-2k), each float rounded once, as
    float(Fraction) rounds: the coefficients and discriminant of the
    quadratic whose roots are those of x^2 + b x + c times 2^-k.  k = 0
    while b (unless 0), c and disc are normal floats, so that those floats
    are the coefficients' own.  Otherwise k is the binary exponent of
    max(|b|, sqrt|disc|), within one, read off the pairs' bit lengths: the
    scaled |b| and sqrt|disc| lie below 2 and one of them above 1/2, so
    the larger real root lies in [1/4, 2], and a conjugate pair, whose
    |root|^2 is (b^2 + |disc|) / 4, in [1/4, 3/2]."""
    try:
        b_f, c_f, disc_f = bn / bd, cn / cd, dn / dd
        if (bn == 0 or abs(b_f) >= _MIN_NORMAL) and min(abs(c_f), abs(disc_f)) >= _MIN_NORMAL:
            return 0, b_f, c_f, disc_f
    except OverflowError:  # a ratio beyond the float range
        pass
    k = (dn.bit_length() - dd.bit_length()) // 2
    if bn:
        k = max(k, bn.bit_length() - bd.bit_length())
    return (k, _scaled_float(bn, bd, -k), _scaled_float(cn, cd, -2 * k),
            _scaled_float(dn, dd, -2 * k))


def _scaled_float(n: int, d: int, e: int) -> float:
    """``n / d * 2**e``, rounded once, as float(Fraction) rounds."""
    return (n << e) / d if e >= 0 else n / (d << -e)


def _scaled_pair(x: float, e: int) -> tuple[int, int]:
    """The reduced int pair of ``|x| * 2**e``, exactly."""
    n, d = abs(x).as_integer_ratio()
    if e >= 0:
        n <<= e
    else:
        d <<= -e
    g = gcd(n, d)
    return n // g, d // g


def _reduced(n: int, d: int) -> tuple[int, int]:
    """``n / d`` as a reduced signed pair, for d > 0: ``(0, 1)`` for 0."""
    g = gcd(n, d)
    return n // g, d // g


# ---------------------------------------------------------------------------
# Aberth-Ehrlich iteration


def _poly_eval(coeffs: list[complex], x: complex) -> tuple[complex, complex, float]:
    """Horner evaluation of p and p' with a running roundoff bound on p."""
    b = coeffs[0]
    d = 0j
    err = abs(b)
    ax = abs(x)
    for c in coeffs[1:]:
        d = d * x + b
        b = b * x + c
        err = abs(b) + ax * err
    return b, d, err * _EPS


def _aberth_solve(
    coeffs: list[complex],
) -> tuple[list[complex], list[tuple[complex, complex, float]]]:
    """All roots of a monic polynomial of degree 3 or more whose constant
    term ``eigenvalues`` has found nonzero, with the iteration's last
    ``_poly_eval`` at each root; a quadratic takes :func:`_from_quadratic`.

    The roots come from simultaneous Aberth iteration (Aberth, Math.
    Comp. 27, 1973), started on the circle of radius |c_n|^(1/n), the
    geometric mean of the root moduli.  Unless the roots then match
    Vieta's formulas (:func:`_vieta_verdict`), a root may have been lost
    next to a cluster, and the iteration restarts once from the circles of
    the Newton polygon (Bini, Numer. Algorithms 13, 1996).  Deterministic.
    Raises RootFindingDivergence when the restart misses Vieta's formulas
    too, when the budget runs out above the noise floor or when a root is
    not finite (a coefficient beyond the float range, or Horner's scheme
    overflowing, and NaN passes every comparison).
    """
    n = len(coeffs) - 1
    radius = math.exp(math.log(abs(coeffs[-1])) / n)
    starts = [radius * cmath.exp(1j * (_TWO_PI * k / n + 0.4)) for k in range(n)]
    z, evals = _aberth_iterate(coeffs, starts, _ABERTH_BUDGET)
    if _vieta_verdict(coeffs, z, evals):
        return z, evals
    z, evals = _aberth_iterate(coeffs, _newton_polygon_starts(coeffs), _ABERTH_BUDGET)
    if _vieta_verdict(coeffs, z, evals) is False:
        raise RootFindingDivergence("root iteration lost a root from both of its starts")
    return z, evals


def _roundoff_ceiling(coeffs: list[complex]) -> tuple[float, float]:
    """(ceiling, reach) of a monic polynomial of degree n: at an x with
    M = max(1, |x|) below ``reach``, the roundoff bound of
    :func:`_poly_eval` is at most ``ceiling * M**n``.

    With S = sum |c_j|, Horner's k-th value is at most S * M^k, so the
    bound, eps times n + 1 such values each times |x|^(n-k), is at most
    (n + 1) * eps * S * M^n, up to roundoff of relative order n * eps,
    which the factor 4 of the ceiling covers.  Below ``reach``, where
    S * M^n < 2^1000 and M < 1e30, no Horner value's modulus overflows
    ``abs``, which raises OverflowError as the bound is formed, and M^n
    (n <= MAX_DIM) does not overflow ``**``.  A coefficient whose modulus
    overflows makes S infinite and ``reach`` 0.
    """
    degree = len(coeffs) - 1
    total = 0.0  # a left fold: ``sum`` compensates from Python 3.12 on
    for c in coeffs:
        total += modulus(c)
    return 4.0 * (degree + 1) * _EPS * total, min(1e30, (2.0**1000 / total) ** (1.0 / degree))


def _aberth_iterate(
    coeffs: list[complex], z: list[complex], budget: int
) -> tuple[list[complex], list[tuple[complex, complex, float]]]:
    """Aberth iteration from the starting points ``z``: the roots and the
    last ``_poly_eval`` at each, ``(p, p', noise)``, from which
    :func:`_vieta_verdict` takes a Newton inclusion radius.

    A root is frozen once its residual reaches its roundoff bound, and
    counts as converged only while that bound is finite.  The iteration
    stops when every root is frozen or no root moves; a root the budget
    leaves above 1e3 times its bound raises RootFindingDivergence.  A
    root the iteration loses to a cluster is the Vieta check's to catch.

    Each sweep is fused: Horner's scheme for p and p' runs inline, every
    float operation that of :func:`_poly_eval`, and the roundoff bound is
    formed only where |p| is at most :func:`_roundoff_ceiling`, which the
    bound cannot exceed.  A |p| above the ceiling is above the bound, so
    the root is not frozen, as it would not be with the bound formed.
    """
    n = len(z)
    head, tail = coeffs[0], coeffs[1:]
    degree = len(tail)
    ceiling, reach = _roundoff_ceiling(coeffs)
    done = [False] * n
    evals: list = [None] * n
    exhausted = True
    for _ in range(budget):
        moved = 0.0
        for i in range(n):
            if done[i]:
                # Never moved again, so its evaluation stands.
                continue
            x = z[i]
            p, dp = head, 0j
            for c in tail:
                dp = dp * x + p
                p = p * x + c
            ap = abs(p)
            ax = abs(x)
            big = ax if ax > 1.0 else 1.0
            if not (big < reach and ap > ceiling * big**degree):
                err = abs(head)
                b = head
                for c in tail:
                    b = b * x + c
                    err = abs(b) + ax * err
                noise = err * _EPS
                # An overflowed bound (noise = inf) certifies nothing.
                if ap <= noise < math.inf:
                    done[i] = True
                    evals[i] = p, dp, noise
                    continue
            if dp == 0:
                z[i] = x + (1.0 + ax) * 1e-6 * (1 + 1j)
                moved = math.inf
                continue
            newton = p / dp
            repulse = 0j
            try:
                for y in z[:i]:
                    repulse += 1.0 / (x - y)
                for y in z[i + 1 :]:
                    repulse += 1.0 / (x - y)
            except ZeroDivisionError:  # x collides with another root
                z[i] = x + (1.0 + ax) * 1e-6 * (1 - 1j)
                moved = math.inf
                continue
            denom = 1.0 - newton * repulse
            w = newton if denom == 0 else newton / denom
            z[i] = x = x - w
            # A tie or a NaN step leaves ``moved`` as it is.
            step = abs(w) / (1.0 + abs(x))
            if step > moved:
                moved = step
        if all(done) or moved < 64.0 * _EPS:
            exhausted = False
            break
    if not all(map(cmath.isfinite, z)):
        raise RootFindingDivergence("root iteration left the floating-point range")
    for i in range(n):
        if not done[i]:
            # A frozen root had |p| <= noise, so only these can miss the
            # budget's bound.
            p, dp, noise = evals[i] = _poly_eval(coeffs, z[i])
            if exhausted and abs(p) > 1e3 * noise:
                raise RootFindingDivergence(
                    f"root iteration exhausted {budget} iterations with residual {abs(p):.3e}"
                )
    return z, evals


def _vieta_verdict(
    coeffs: list[complex], z: list[complex], evals: list[tuple[complex, complex, float]]
) -> bool | None:
    """Whether the roots ``z`` of the monic ``coeffs`` match Vieta's
    formulas for the sum of the roots and for the sum of their
    reciprocals, within the inclusion radii and the roundoff of the sums.
    Each root's Newton inclusion radius ``n * max(|p|, noise) / |p'|`` (inf
    where p' = 0) comes from its last evaluation in ``evals``.

    A root lost to a cluster leaves a duplicate there: the sum misses it
    when it is large, the sum of reciprocals when it is small.  None when
    the sum agrees but a radius reaches its root's modulus, or a root is
    too small for the bound on its reciprocal, so that the reciprocals
    certify nothing.
    """
    total = recip_total = 0j
    size = bound = recip_size = recip_bound = 0.0
    certified = True
    n = len(z)
    for x, (p, dp, noise) in zip(z, evals):
        rho = n * max(abs(p), noise) / abs(dp) if dp else math.inf
        a = abs(x)
        total += x
        size += a
        bound += rho
        # Positive iff rho < a, unless it underflows: a root near the
        # bottom of the float range certifies nothing either.
        spread = a * (a - rho)
        if spread > 0:
            recip_total += 1.0 / x
            recip_size += 1.0 / a
            recip_bound += rho / spread
        else:
            certified = False
    roundoff = len(z) * _EPS
    if not abs(total + coeffs[1]) <= bound + roundoff * (size + abs(coeffs[1])):
        return False
    if not certified:
        return None
    recip_coeff = coeffs[-2] / coeffs[-1]
    return abs(recip_total + recip_coeff) <= recip_bound + roundoff * (
        recip_size + abs(recip_coeff)
    )


def _newton_polygon_starts(coeffs: list[complex]) -> list[complex]:
    """Starting points on the circles of the Newton polygon: each edge of
    the upper convex hull of (k, log|a_k|), for p = sum a_k x^k, from k0 to
    k1 puts k1 - k0 points on the circle of radius (|a_k0|/|a_k1|)^(1/(k1-k0))."""
    n = len(coeffs) - 1
    points = [(k, math.log(abs(coeffs[n - k]))) for k in range(n + 1) if coeffs[n - k] != 0]
    hull: list[tuple[int, float]] = []
    for pt in points:
        while len(hull) >= 2:
            (k0, y0), (k1, y1) = hull[-2], hull[-1]
            if (k1 - k0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - k0) < 0:
                break
            hull.pop()
        hull.append(pt)
    starts = []
    for (k0, y0), (k1, y1) in zip(hull, hull[1:]):
        width = k1 - k0
        radius = math.exp((y0 - y1) / width)
        for j in range(width):
            starts.append(radius * cmath.exp(1j * (_TWO_PI * j / width + _TWO_PI * k0 / n + 0.7)))
    return starts
