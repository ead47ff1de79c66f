"""Eigenvalue multisets with branch-normalized arguments.

The classification never needs eigenvectors of anything larger than 2x2 or
a full Jordan form; the eigenvalue multiset with multiplicities and the
normalized argument q in [0, 1) of each value is the whole story.  Exactly
specified inputs travel an exact route (triangular read-off, and for 2x2 a
rational quadratic solve with recognition of the rational-cosine angles
0, 1/6, 1/4, 1/3, 1/2, ...).  The quadratic solve works on reduced
(numerator, denominator) int pairs, as scalar.py holds exact moduli and
arguments, and builds its roots from them; the q-sum (``q_total``) adds
exact q's as one unreduced int pair.  There is no Fraction arithmetic on
the exact route; a Fraction is built only where a q or a q-sum is
returned, as ``EigenPair.q`` and ``EigenData.q_sum``.
Everything else is a floating root solve of
the characteristic polynomial: a cancellation-free closed form for
quadratics, and simultaneous Aberth-Ehrlich iteration started on the
circle of the roots' geometric-mean modulus from degree 3 on, restarted
from the Newton polygon's circles when the roots miss Vieta's formulas
for the sums of the roots and of their reciprocals.  Whether a
floating root is EigenvalueUncertain is decided by the polynomial's
roundoff at the root, not by where the iteration stopped; for a root
that clusters alone, the iteration's last evaluation at it is that of
its centroid, and is not repeated.  When a
coefficient is not finite, or the solve overflows or diverges, the roots
are solved once more for the matrix scaled by a power of two and scaled
back.

Both the triangular and the polynomial route group coinciding values by
one rule, ``_cluster_indices``: exact values when equal, any other pair
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
below_singularity_threshold.

The tolerance ``tol`` has its one default here, shared by the command
line, and its bound TOL_BOUND, which keeps the BranchBoundary band of
BOUNDARY_BAND tolerances on each side of the cut under half a turn.
The public ``eigenvalues`` checks it; ``build`` checks it once and
solves with the unchecked ``_eigenvalues``.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, isqrt
from operator import itemgetter

from .errors import (
    FloatRangeError,
    InputFormatError,
    RootFindingDivergence,
    SingularMatrix,
    ZeroArgument,
    ZeroEigenvalue,
)
from .matrix import Matrix, below_singularity_threshold
from .scalar import ZERO, Scalar, _ratio_float
from .scalar import is_exact, modulus, real_ratio, real_scalar, value_of

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
_BELOW_ONE = math.nextafter(1.0, 0.0)
_TWO_PI = 2.0 * math.pi

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


def normalized_arg(z: Scalar | complex | float | int, tol: float) -> Fraction | float:
    """Normalized argument q in [0, 1) of a nonzero scalar, so that
    z = |z| * exp(2*pi*i*q).

    Exact polar inputs return their stored rational q verbatim.  Floating
    inputs within ``tol`` of the branch cut (near 0 or near 1) snap to
    exactly 0; the branch is half-open.
    """
    v = value_of(z)
    if v is None:
        raise TypeError(f"cannot take the argument of {type(z).__name__}")
    if v == 0:
        raise ZeroArgument("the zero scalar has no argument")
    if v.__class__ is Scalar:
        return v.q
    q, _ = _float_arg(v, _arg_bounds(tol))
    return q


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


def eigenvalues(a: Matrix, tol: float = DEFAULT_CLUSTER_TOL) -> EigenData:
    """Eigenvalues of ``a`` clustered into multiplicity groups; see
    :func:`_eigenvalues`.  A ``tol`` outside (0, TOL_BOUND) raises
    InputFormatError."""
    return _eigenvalues(a, checked_tolerance(tol, "tol", TOL_BOUND))


def _eigenvalues(a: Matrix, tol: float) -> EigenData:
    """:func:`eigenvalues` at a ``tol`` already checked.

    Raises ZeroEigenvalue for an exactly zero root (a triangular diagonal
    entry or an exact 2x2 determinant), SingularMatrix for a floating
    determinant below_singularity_threshold, the one zero test of a
    floating root, and RootFindingDivergence when the iteration exhausts
    its budget without reaching the residual noise floor, also for the
    scaled matrix.
    """
    n = a.n
    if a.is_upper_triangular() or a.is_lower_triangular():
        return _from_diagonal(a.diagonal(), tol)
    coeffs = a.char_poly()
    if n == 2 and is_exact(coeffs[1]) and is_exact(coeffs[2]):
        exact = _exact_quadratic(coeffs[1], coeffs[2])
        if exact is not None:
            return _eigen_data(exact, tol)
    coeffs_c = list(map(complex, coeffs))
    if all(map(cmath.isfinite, coeffs_c)):
        if below_singularity_threshold(modulus(coeffs[-1]), a.max_abs(), n):
            raise SingularMatrix(f"{n}x{n} determinant below tolerance at the scale of its entries")
        try:
            return _from_float_roots(coeffs_c, *_aberth_solve(coeffs_c), tol, 0)
        except (OverflowError, RootFindingDivergence):
            pass  # Horner's scheme may overflow where the scaled one does not
    # Solve for the roots of a * 2**-exp, whose entries are below 1 in
    # modulus: scaling by a power of two is exact, and brings the
    # coefficients and their evaluation back into range when the
    # eigenvalues themselves are.
    exp = math.frexp(a.max_abs())[1]
    scaled = Matrix([[_ldexp(complex(e), -exp) for e in row] for row in a.rows])
    coeffs_c = list(map(complex, scaled.char_poly()))
    # The singularity test of the unscaled solve, made at this scale: below
    # it the smallest eigenvalues are not determined by the floating entries.
    if below_singularity_threshold(abs(coeffs_c[-1]), scaled.max_abs(), n):
        raise SingularMatrix(f"{n}x{n} determinant below tolerance at the scale of its entries")
    try:
        return _from_float_roots(coeffs_c, *_aberth_solve(coeffs_c), tol, exp)
    except OverflowError as exc:  # abs() of a complex beyond the float range
        raise RootFindingDivergence("polynomial values overflow the floating-point range") from exc


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
            if not cmath.isfinite(value):
                # NaN would pass every later comparison.
                raise FloatRangeError(f"eigenvalue {value!r} outside the floating-point range")
            r = modulus(value)
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


def _from_float_roots(
    coeffs_c: list[complex],
    roots: list[complex],
    evals: list[tuple[complex, complex, float]] | None,
    tol: float,
    exp: int,
) -> EigenData:
    """EigenData of the matrix whose scaling by 2**-exp has characteristic
    polynomial ``coeffs_c`` with roots ``roots``; ``evals``, when given,
    holds the iteration's last ``_poly_eval`` at each root."""
    if exp:
        roots = [_ldexp(r, exp) for r in roots]
        evals = None  # made at the other scale
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
        # A lone unscaled root is its own centroid (up to the sign of a
        # zero part), so the iteration's last evaluation there stands.
        if evals is not None and size == 1:
            p, dp, noise = evals[group[0]]
        else:
            p, dp, noise = _poly_eval(coeffs_c, _ldexp(centroid, -exp) if exp else centroid)
        # max keeps its first argument on a tie and on NaN.
        radius = terms * max(abs(p), noise) / max(abs(dp), 1e-300)
        if exp:
            radius = math.ldexp(radius, exp)
        if radius > bound * abs(centroid):
            uncertain = True
        centroids.append((centroid, size))
    return _eigen_data(centroids, tol, uncertain)


def _ldexp(z: complex, exp: int) -> complex:
    """``z * 2**exp``, exact unless a part falls below the normal float
    range; OverflowError above it."""
    return complex(math.ldexp(z.real, exp), math.ldexp(z.imag, exp))


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


def _exact_quadratic(b_s: Scalar, c_s: Scalar) -> list[tuple[Scalar | complex, int]] | None:
    """Roots of x^2 + b x + c for exact real-rational b, c.

    b, c and the discriminant are reduced int pairs (numerator,
    denominator), so a sign is a numerator's sign and a rational square
    root is the ``isqrt`` of both.  Real roots always carry an exact
    argument (0 or 1/2: the sign is decided on the integers, never by the
    float square root); an irrational modulus is rounded.
    Complex pairs get an exact q only for the rational-cosine angles
    (Niven: cos(2*pi*q) rational forces cos in {0, +-1/2, +-1}); other
    angles are irrational and fall back to floats.
    """
    b, c = real_ratio(b_s), real_ratio(c_s)
    if b is None or c is None:
        return None
    (bn, bd), (cn, cd) = b, c
    if cn == 0:
        raise ZeroEigenvalue("exact zero eigenvalue; monodromy not invertible")
    # disc = b^2 - 4c = dn / dd, reduced.
    dn, dd = bn * bn * cd - 4 * cn * bd * bd, bd * bd * cd
    g = gcd(dn, dd)
    dn, dd = dn // g, dd // g
    if dn == 0:
        return [(real_scalar(-bn, 2 * bd), 2)]
    if dn > 0:
        s, t = isqrt(dn), isqrt(dd)
        if s * s == dn and t * t == dd:  # (-b +- s/t) / 2
            return [
                (real_scalar(s * bd - bn * t, 2 * bd * t), 1),
                (real_scalar(-s * bd - bn * t, 2 * bd * t), 1),
            ]
    # The remaining roots are computed in floats, rounded as float(Fraction)
    # rounds.  Coefficients whose floats overflow or underflow take the
    # float route, as inexact data does.
    try:
        b_f, c_f, disc_f = bn / bd, cn / cd, dn / dd
    except OverflowError:
        return None
    if c_f == 0.0:
        return None
    if dn > 0:
        # Irrational real pair: exact signs, rounded moduli.
        s_f = math.sqrt(disc_f)
        t = (-b_f - s_f) / 2 if bn >= 0 else (-b_f + s_f) / 2
        other = c_f / t
        hi, lo = max(t, other), min(t, other)
        if not all(0.0 < abs(v) < math.inf for v in (hi, lo)):
            return None
        sign_hi = 1 if (bn <= 0 or cn < 0) else -1  # sign of (-b + sqrt(disc))/2
        sign_lo = 1 if (bn < 0 and cn > 0) else -1
        return [
            (Scalar(None, abs(hi).as_integer_ratio(), (0, 1) if sign_hi > 0 else (1, 2)), 1),
            (Scalar(None, abs(lo).as_integer_ratio(), (0, 1) if sign_lo > 0 else (1, 2)), 1),
        ]
    # Conjugate pair -b/2 +- iy with y > 0, and |root|^2 = c > 0, so
    # |root| = a/e when c is a rational square; on the imaginary axis it
    # is otherwise the rounded sqrt(c).
    y = math.sqrt(-disc_f) / 2
    a, e = isqrt(cn), isqrt(cd)
    square = a * a == cn and e * e == cd
    if bn == 0:
        if not square:
            a, e = math.sqrt(c_f).as_integer_ratio()
        turns = ((1, 4), (3, 4))
    elif square and -bn * e == a * bd:  # cos = -b / (2|root|) = 1/2
        turns = _SIXTHS
    elif square and bn * e == a * bd:  # cos = -1/2
        turns = _THIRDS
    else:
        return [(complex(-b_f / 2, y), 1), (complex(-b_f / 2, -y), 1)]
    return [(Scalar(None, (a, e), turns[0]), 1), (Scalar(None, (a, e), turns[1]), 1)]


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
    coeffs: list[complex], budget: int = 200
) -> tuple[list[complex], list[tuple[complex, complex, float]] | None]:
    """All roots of a monic polynomial of degree 2 or more whose constant
    term ``eigenvalues`` has found nonzero, with the iteration's last
    ``_poly_eval`` at each root (None for the closed form of degree 2).

    Degree 2 takes the closed form of :func:`_quadratic_roots`.  From
    degree 3 on the roots come from simultaneous Aberth iteration (Aberth,
    Math. Comp. 27, 1973), started on the circle of radius |c_n|^(1/n), the
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
    if n == 2:
        return _finite_roots(_quadratic_roots(coeffs[1], coeffs[2])), None
    radius = math.exp(math.log(abs(coeffs[-1])) / n)
    z, evals = _aberth_iterate(
        coeffs, [radius * cmath.exp(1j * (_TWO_PI * k / n + 0.4)) for k in range(n)], budget
    )
    if _vieta_verdict(coeffs, z, evals):
        return z, evals
    z, evals = _aberth_iterate(coeffs, _newton_polygon_starts(coeffs), budget)
    if _vieta_verdict(coeffs, z, evals) is False:
        raise RootFindingDivergence("root iteration lost a root from both of its starts")
    return z, evals


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
    """
    n = len(z)
    done = [False] * n
    evals: list = [None] * n
    exhausted = True
    for _ in range(budget):
        moved = 0.0
        for i in range(n):
            if done[i]:
                # Never moved again, so its evaluation stands.
                continue
            p, dp, noise = _poly_eval(coeffs, z[i])
            # An overflowed bound (noise = inf) certifies nothing.
            if abs(p) <= noise < math.inf:
                done[i] = True
                evals[i] = p, dp, noise
                continue
            if dp == 0:
                z[i] += (1.0 + abs(z[i])) * 1e-6 * (1 + 1j)
                moved = math.inf
                continue
            newton = p / dp
            repulse = 0j
            collided = False
            for j in range(n):
                if j == i:
                    continue
                dz = z[i] - z[j]
                if dz == 0:
                    collided = True
                    break
                repulse += 1.0 / dz
            if collided:
                z[i] += (1.0 + abs(z[i])) * 1e-6 * (1 - 1j)
                moved = math.inf
                continue
            denom = 1.0 - newton * repulse
            w = newton if denom == 0 else newton / denom
            z[i] -= w
            moved = max(moved, abs(w) / (1.0 + abs(z[i])))
        if all(done) or moved < 64.0 * _EPS:
            exhausted = False
            break
    _finite_roots(z)
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


def _quadratic_roots(b: complex, c: complex) -> list[complex]:
    """Both roots of x^2 + b x + c, c != 0, without cancellation: the
    larger t = (-b -+ sqrt(b^2 - 4c)) / 2, with the sign that adds the
    square root to b, and the other root c / t."""
    s = cmath.sqrt(b * b - 4.0 * c)
    if abs(b - s) > abs(b + s):
        s = -s
    t = -0.5 * (b + s)
    return [t, c / t]


def _finite_roots(roots: list[complex]) -> list[complex]:
    if not all(cmath.isfinite(r) for r in roots):
        raise RootFindingDivergence("root iteration left the floating-point range")
    return roots
